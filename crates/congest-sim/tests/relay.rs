//! Differential properties of [`TreeRelay`].
//!
//! One relay, reused across a sequence of collect/broadcast pairs, must
//! agree call by call with fresh [`primitives::collect_at_leader`] and
//! [`primitives::pipelined_broadcast`] calls on the same graph, config and
//! fault plan: the same gathered items, the same [`RoundStats`] (resilience
//! budget and message log included), the same errors, and the same trace
//! events. Some calls fail (a stall, a bandwidth violation, the round cap),
//! so the relay is also re-armed after failed runs.

use congest_graph::{generators, NodeId, WeightedGraph};
use congest_sim::primitives::{self, TreeInfo, TreeRelay};
use congest_sim::telemetry::CollectingTracer;
use congest_sim::{Bandwidth, FaultPlan, RoundStats, SimConfig, SimError, Telemetry, TraceEvent};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeSet;
use std::sync::Arc;

type Items = Vec<Vec<(u64, u128)>>;

/// A random connected graph and leader, a config (faults, message log,
/// channel profile, one of two bandwidths) and a sequence of per-node item
/// lists, some of them empty.
struct Scenario {
    graph: WeightedGraph,
    leader: NodeId,
    config: SimConfig,
    calls: Vec<Items>,
}

impl Scenario {
    fn from_seed(seed: u64) -> Scenario {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..14);
        let graph = generators::erdos_renyi_connected(n, 0.25, 3, &mut rng);
        let leader = rng.gen_range(0..n);
        // A low round cap now and then ends some runs at the cap.
        let max_rounds = if rng.gen_bool(0.25) {
            rng.gen_range(3usize..12)
        } else {
            400
        };
        let mut config = SimConfig::standard(n, graph.max_weight())
            .with_max_rounds(max_rounds)
            .with_message_log()
            .with_message_log_cap(rng.gen_range(4usize..64))
            .with_channel_profile();
        // The relay's callers budget 160 bits; the standard budget is too
        // narrow for large values, so some runs end in a bandwidth error.
        if rng.gen_bool(0.7) {
            config.bandwidth = Bandwidth::bits(160);
        }
        if rng.gen_bool(0.8) {
            let mut plan = FaultPlan::new(rng.gen());
            if rng.gen_bool(0.75) {
                plan = plan.with_drop_rate(rng.gen_range(0.0..0.5));
            }
            if rng.gen_bool(0.4) {
                let from = rng.gen_range(1usize..10);
                plan = plan.with_burst(
                    from,
                    from + rng.gen_range(1usize..6),
                    rng.gen_range(0.5..=1.0),
                );
            }
            for _ in 0..rng.gen_range(0usize..3) {
                let node = rng.gen_range(0..n);
                let from = rng.gen_range(1usize..12);
                let until = rng.gen_bool(0.5).then(|| from + rng.gen_range(1usize..10));
                plan = plan.with_crash(node, from, until);
            }
            config = config.with_faults(plan);
        }
        let big = rng.gen_bool(0.3);
        let calls = (0..rng.gen_range(1usize..7))
            .map(|call| {
                let empty = rng.gen_bool(0.3);
                (0..n)
                    .map(|v| {
                        let count = if empty { 0 } else { rng.gen_range(0usize..3) };
                        (0..count)
                            .map(|j| {
                                let tag = (call * 100 + v * 4 + j) as u64;
                                let value = if big {
                                    rng.gen::<u128>()
                                } else {
                                    rng.gen_range(0u128..1000)
                                };
                                (tag, value)
                            })
                            .collect()
                    })
                    .collect()
            })
            .collect();
        Scenario {
            graph,
            leader,
            config,
            calls,
        }
    }

    /// The tree the relay runs on, built on the lossless network so the
    /// faulted phases are the relay's own.
    fn clean_tree(&self) -> Vec<TreeInfo> {
        let clean = SimConfig::standard(self.graph.n(), self.graph.max_weight());
        primitives::bfs_tree(&self.graph, self.leader, &clean)
            .expect("connected graph")
            .0
    }

    /// `config` reporting to a fresh recording tracer.
    fn traced(&self) -> (SimConfig, Arc<CollectingTracer>) {
        let tracer = Arc::new(CollectingTracer::default());
        let config = self
            .config
            .clone()
            .with_telemetry(Telemetry::new(tracer.clone()));
        (config, tracer)
    }

    /// Runs the call sequence through one relay and through fresh calls,
    /// comparing results and trace events call by call. Returns the kinds
    /// of the errors seen and how many runs re-armed a network whose
    /// previous run had failed.
    fn check(&self) -> Result<(BTreeSet<&'static str>, usize), TestCaseError> {
        let (g, leader, tree) = (&self.graph, self.leader, self.clean_tree());
        let (relay_config, relay_trace) = self.traced();
        let (fresh_config, fresh_trace) = self.traced();
        let mut relay = TreeRelay::new(g, leader, &relay_config, &tree);
        let (mut kinds, mut after_failure) = (BTreeSet::new(), 0);
        let mut last_failed = [false; 2];
        for (call, items) in self.calls.iter().enumerate() {
            let want = primitives::collect_at_leader(g, leader, &fresh_config, &tree, items);
            let got = relay
                .collect(items)
                .map(|(gathered, stats)| (gathered.to_vec(), stats));
            prop_assert_eq!(&got, &want, "collect {}", call);
            // Broadcast what every node contributed, whether or not the
            // collect got it to the leader.
            let mut payload: Vec<(u64, u128)> = items.iter().flatten().copied().collect();
            payload.sort_unstable();
            let payload: Vec<u128> = payload.into_iter().map(|(_, v)| v).collect();
            let want_down =
                primitives::pipelined_broadcast(g, leader, &fresh_config, &tree, &payload)
                    .map(|(_, stats)| stats);
            let got_down: Result<RoundStats, SimError> = relay.broadcast(&payload);
            prop_assert_eq!(&got_down, &want_down, "broadcast {}", call);
            prop_assert_eq!(
                relay_trace.events(),
                fresh_trace.events(),
                "trace after call {}",
                call
            );
            for (last, err) in last_failed.iter_mut().zip([want.err(), want_down.err()]) {
                after_failure += usize::from(*last);
                *last = err.is_some();
                kinds.extend(err.map(|e| e.kind()));
            }
        }
        Ok((kinds, after_failure))
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn relay_matches_fresh_calls(seed in any::<u64>()) {
        Scenario::from_seed(seed).check()?;
    }
}

/// The generator reaches the cases the property is about: failed runs of
/// every kind, and runs re-armed after a failure.
#[test]
fn scenarios_cover_failures_and_rearm_after_failure() {
    let (mut kinds, mut after_failure) = (BTreeSet::new(), 0);
    for seed in 0..96u64 {
        let (k, a) = Scenario::from_seed(seed).check().unwrap();
        kinds.extend(k);
        after_failure += a;
    }
    assert!(after_failure > 0, "no run re-armed after a failure");
    for kind in ["stalled", "bandwidth-exceeded", "round-limit"] {
        assert!(kinds.contains(kind), "no run ended in {kind}: {kinds:?}");
    }
}

/// Re-arming resets the one-time message-log truncation warning: every run
/// that overflows the log warns once, as a fresh network would.
#[test]
fn every_overflowing_run_warns_once() {
    let g = generators::path(5, 1);
    let tracer = Arc::new(CollectingTracer::default());
    let config = SimConfig::standard(5, 1)
        .with_message_log()
        .with_message_log_cap(2)
        .with_telemetry(Telemetry::new(tracer.clone()));
    let (tree, _) = primitives::bfs_tree(&g, 0, &SimConfig::standard(5, 1)).unwrap();
    let mut relay = TreeRelay::new(&g, 0, &config, &tree);
    let items: Items = (0..5).map(|v| vec![(v as u64, 1)]).collect();
    for _ in 0..3 {
        let (gathered, stats) = relay.collect(&items).unwrap();
        assert_eq!(gathered.len(), 5);
        assert_eq!(stats.message_log.len(), 2);
    }
    let warnings = tracer
        .events()
        .iter()
        .filter(|e| matches!(e, TraceEvent::MessageLogTruncated { .. }))
        .count();
    assert_eq!(warnings, 3);
}
