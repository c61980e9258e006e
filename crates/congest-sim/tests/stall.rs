//! Differential properties of stall detection.
//!
//! The four ported primitives (BFS tree, convergecast, pipelined broadcast,
//! pipelined collection) run twice on the same graph and fault plan: as
//! they are, and wrapped in [`NeverWaiting`], which reports
//! `Status::Waiting` as `Running` — the round engine's behaviour before
//! stall detection, where only quiescence or the round cap ends a run.
//! The two runs must agree on everything but how a stuck run ends.

use congest_graph::{generators, NodeId, WeightedGraph};
use congest_sim::primitives::{self, Aggregate, TreeInfo};
use congest_sim::{FaultPlan, Mailbox, Network, NodeCtx, NodeProgram, SimConfig, SimError, Status};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::fmt::Debug;

/// Reports `Waiting` as `Running`, and checks the `Waiting` contract on
/// the way: a node that returned `Waiting` and then gets an empty inbox
/// sends nothing and returns `Waiting` again.
struct NeverWaiting<P> {
    inner: P,
    waiting: bool,
}

impl<P: NodeProgram> NodeProgram for NeverWaiting<P> {
    type Msg = P::Msg;
    type Output = P::Output;

    fn start(&mut self, ctx: &NodeCtx, mb: &mut Mailbox<P::Msg>) {
        self.inner.start(ctx, mb);
    }

    fn round(
        &mut self,
        ctx: &NodeCtx,
        round: usize,
        inbox: &[(NodeId, P::Msg)],
        mb: &mut Mailbox<P::Msg>,
    ) -> Status {
        let status = self.inner.round(ctx, round, inbox, mb);
        if self.waiting && inbox.is_empty() {
            assert!(
                mb.is_empty(),
                "node {} sent while waiting in round {round}",
                ctx.id
            );
            assert_eq!(
                status,
                Status::Waiting,
                "node {} stopped waiting on an empty inbox in round {round}",
                ctx.id
            );
        }
        self.waiting = status == Status::Waiting;
        match status {
            Status::Waiting => Status::Running,
            other => other,
        }
    }

    fn finish(self, ctx: &NodeCtx) -> P::Output {
        self.inner.finish(ctx)
    }
}

/// Cap for runs that do not stall: far above any primitive's round count
/// on these graphs and fault windows.
const MAX_ROUNDS: usize = 2_000;

/// Rounds the wrapped run keeps going after the ported run stalled.
const AFTER_STALL: usize = 1_000;

#[derive(Clone, Copy, Debug)]
enum Primitive {
    BfsTree,
    ConvergeCast,
    Broadcast,
    Collect,
}

/// A random connected graph, leader and fault plan: a global drop rate
/// (none a quarter of the time), maybe a burst window, and up to two crash
/// windows, each with or without recovery.
struct Scenario {
    graph: WeightedGraph,
    leader: NodeId,
    plan: FaultPlan,
}

impl Scenario {
    fn from_seed(seed: u64) -> Scenario {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let n = rng.gen_range(2usize..16);
        let graph = generators::erdos_renyi_connected(n, 0.25, 3, &mut rng);
        let leader = rng.gen_range(0..n);
        let mut plan = FaultPlan::new(rng.gen());
        if rng.gen_bool(0.75) {
            plan = plan.with_drop_rate(rng.gen_range(0.0..0.6));
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
        Scenario {
            graph,
            leader,
            plan,
        }
    }

    fn config(&self, max_rounds: usize) -> SimConfig {
        SimConfig::standard(self.graph.n(), self.graph.max_weight())
            .with_max_rounds(max_rounds)
            .with_faults(self.plan.clone())
    }

    /// The BFS tree the tree-based primitives run on, built on the
    /// lossless network so the faulted phase is the primitive itself.
    fn clean_tree(&self) -> Vec<TreeInfo> {
        let clean = SimConfig::standard(self.graph.n(), self.graph.max_weight());
        primitives::bfs_tree(&self.graph, self.leader, &clean)
            .expect("connected graph")
            .0
    }

    /// Runs `primitive` both ways and checks the differential properties;
    /// returns `true` if the ported run stalled.
    fn check(&self, primitive: Primitive) -> Result<bool, TestCaseError> {
        let tree = self.clean_tree();
        let leader = self.leader;
        match primitive {
            Primitive::BfsTree => self.differential(|_| primitives::bfs_tree_program()),
            Primitive::ConvergeCast => self.differential(|v| {
                primitives::converge_cast_program(tree[v].clone(), v as u128 + 1, Aggregate::Sum)
            }),
            Primitive::Broadcast => self.differential(|v| {
                let items = if v == leader {
                    (0..5u128).map(|x| x * x).collect()
                } else {
                    Vec::new()
                };
                primitives::pipelined_broadcast_program(tree[v].clone(), items)
            }),
            Primitive::Collect => self.differential(|v| {
                let items = (0..(v % 3) as u64)
                    .map(|j| (10 * v as u64 + j, 1))
                    .collect();
                primitives::collect_program(tree[v].clone(), items)
            }),
        }
    }

    fn differential<P>(&self, make: impl Fn(NodeId) -> P) -> Result<bool, TestCaseError>
    where
        P: NodeProgram,
        P::Output: PartialEq + Debug,
    {
        let g = &self.graph;
        let wrapped = |max_rounds| {
            Network::new(g, self.leader, self.config(max_rounds), |v, _| {
                NeverWaiting {
                    inner: make(v),
                    waiting: false,
                }
            })
        };
        let mut ported = Network::new(g, self.leader, self.config(MAX_ROUNDS), |v, _| make(v));
        let result = ported.run_to_quiescence();
        prop_assert!(
            !matches!(result, Err(SimError::RoundLimitExceeded { .. })),
            "a ported primitive spun to the round cap"
        );
        let Err(SimError::Stalled { round, waiting }) = result else {
            // Not stalled: the wrapped run must end the same way, with
            // identical statistics and (on success) identical outputs.
            let mut legacy = wrapped(MAX_ROUNDS);
            prop_assert_eq!(legacy.run_to_quiescence(), result.clone());
            prop_assert_eq!(legacy.stats(), ported.stats());
            if result.is_ok() {
                prop_assert_eq!(legacy.into_outputs(), ported.into_outputs());
            }
            return Ok(false);
        };
        prop_assert!(waiting > 0);
        prop_assert_eq!(ported.stats().rounds, round);
        for c in &self.plan.crashes {
            prop_assert!(
                c.until_round.is_none_or(|u| u <= round),
                "stalled in round {} with a recovery scheduled for round {:?}",
                round,
                c.until_round
            );
            prop_assert!(
                c.from_round <= round || c.until_round.is_some_and(|u| u <= c.from_round),
                "stalled in round {} before node {} crashes in round {}",
                round,
                c.node,
                c.from_round
            );
        }
        // The wrapped run never ends: it sends nothing after the stall
        // round and spins to the cap.
        let cap = round + AFTER_STALL;
        let mut legacy = wrapped(cap);
        prop_assert_eq!(
            legacy.run_to_quiescence(),
            Err(SimError::RoundLimitExceeded {
                max_rounds: cap,
                rounds_executed: cap,
            })
        );
        let (s, l) = (ported.stats(), legacy.stats());
        prop_assert_eq!(l.messages, s.messages);
        prop_assert_eq!(l.bits, s.bits);
        prop_assert_eq!(l.max_channel_bits, s.max_channel_bits);
        // Only nodes that are down for good keep accruing crashed rounds.
        let oracle = self.plan.compile();
        let down_after_stall: u64 = (round + 1..=cap)
            .map(|r| (0..g.n()).filter(|&v| !oracle.node_alive(v, r)).count() as u64)
            .sum();
        let mut expected = s.resilience;
        expected.crashed_node_rounds += down_after_stall;
        prop_assert_eq!(l.resilience, expected);
        Ok(true)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn bfs_tree_stalls_exactly_when_stuck(seed in any::<u64>()) {
        Scenario::from_seed(seed).check(Primitive::BfsTree)?;
    }

    #[test]
    fn converge_cast_stalls_exactly_when_stuck(seed in any::<u64>()) {
        Scenario::from_seed(seed).check(Primitive::ConvergeCast)?;
    }

    #[test]
    fn pipelined_broadcast_stalls_exactly_when_stuck(seed in any::<u64>()) {
        Scenario::from_seed(seed).check(Primitive::Broadcast)?;
    }

    #[test]
    fn collect_stalls_exactly_when_stuck(seed in any::<u64>()) {
        Scenario::from_seed(seed).check(Primitive::Collect)?;
    }
}

/// The generator reaches both sides of every property: for each primitive,
/// a fixed set of scenarios contains runs that stall and runs that finish.
#[test]
fn scenarios_cover_stalled_and_finished_runs() {
    for primitive in [
        Primitive::BfsTree,
        Primitive::ConvergeCast,
        Primitive::Broadcast,
        Primitive::Collect,
    ] {
        let stalled = (0..64u64)
            .filter(|&seed| Scenario::from_seed(seed).check(primitive).unwrap())
            .count();
        assert!(
            (1..64).contains(&stalled),
            "{primitive:?}: {stalled} of 64 runs stalled"
        );
    }
}
