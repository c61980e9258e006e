//! Lane execution: [`map_ordered`], an index-ordered parallel map where a
//! lane is a thread, and [`run_specs`], the corpus loop built on it.
//!
//! Every scenario runs through its ordinary entry point,
//! [`oracle::run_scenario`], whatever the lane count. Results land back in
//! their input slots, so the returned order, and every value in it, is
//! independent of lane count and scheduling; `tests/batch_equiv.rs` pins
//! that against the sequential path.

use crate::oracle::{self, ScenarioOutcome};
use crate::scenario::ScenarioSpec;
use quantum_sim::mutation::Mutation;
use quantum_sim::SearchMetrics;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

/// Wall time of one scenario. Observational only: excluded from the
/// batch-equivalence fingerprint ([`crate::runner::fingerprint`]).
#[derive(Copy, Clone, Debug)]
pub struct ScenarioTiming {
    /// The scenario's seed (corpus identity).
    pub seed: u64,
    /// Seconds spent in [`oracle::run_scenario`] (both replays).
    pub secs: f64,
}

/// Maps `f` over `items` and returns the results in input order.
///
/// `lanes` of `None`, `Some(0)` or `Some(1)` runs inline on the calling
/// thread, in index order. `Some(l)` starts `l` scoped threads (at most one
/// per item); each claims the next unclaimed index from a shared counter
/// and hands its result back for that index's slot. A panic in `f`
/// propagates to the caller on either path.
pub fn map_ordered<T, R, F>(items: &[T], lanes: Option<usize>, f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let lanes = lanes.unwrap_or(1).min(items.len());
    if lanes <= 1 {
        return items.iter().map(f).collect();
    }
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<R>> = items.iter().map(|_| None).collect();
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..lanes)
            .map(|_| {
                s.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let idx = next.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(idx) else {
                            return done;
                        };
                        done.push((idx, f(item)));
                    }
                })
            })
            .collect();
        for worker in workers {
            let done = worker
                .join()
                .unwrap_or_else(|payload| std::panic::resume_unwind(payload));
            for (idx, result) in done {
                slots[idx] = Some(result);
            }
        }
    });
    slots
        .into_iter()
        .map(|slot| slot.expect("every index claimed exactly once"))
        .collect()
}

/// Runs `specs` through the oracles on `lanes` threads (see
/// [`map_ordered`]), returning outcomes and timings in corpus order.
///
/// The mutation hook and the search-metrics sink are thread-local scope
/// guards, so each scenario installs its own on whichever thread runs it;
/// the counters are shared atomics, so corpus-wide totals do not depend on
/// lane scheduling.
pub fn run_specs(
    specs: &[ScenarioSpec],
    lanes: Option<usize>,
    mutate: Option<Mutation>,
    metrics: &SearchMetrics,
) -> (Vec<ScenarioOutcome>, Vec<ScenarioTiming>) {
    map_ordered(specs, lanes, |spec| {
        let _mutation_guard = mutate.map(quantum_sim::mutation::arm);
        let _metrics_guard = quantum_sim::instrument::install(metrics.clone());
        let started = Instant::now();
        let outcome = oracle::run_scenario(spec);
        let timing = ScenarioTiming {
            seed: spec.seed,
            secs: started.elapsed().as_secs_f64(),
        };
        (outcome, timing)
    })
    .into_iter()
    .unzip()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::ThreadId;
    use std::time::Duration;

    /// Lanes are threads: at most `lanes` items are ever in flight, the
    /// output keeps input order, and one lane never leaves the caller.
    #[test]
    fn map_ordered_lanes_are_threads() {
        let items: Vec<usize> = (0..32).collect();
        let caller = std::thread::current().id();
        for lanes in 1..=4 {
            let in_flight = AtomicUsize::new(0);
            let high_water = AtomicUsize::new(0);
            let out: Vec<(usize, ThreadId)> = map_ordered(&items, Some(lanes), |&i| {
                let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                high_water.fetch_max(now, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(2));
                in_flight.fetch_sub(1, Ordering::SeqCst);
                (i, std::thread::current().id())
            });
            let order: Vec<usize> = out.iter().map(|&(i, _)| i).collect();
            assert_eq!(order, items, "output order at {lanes} lanes");
            let peak = high_water.load(Ordering::SeqCst);
            assert!(peak <= lanes, "{peak} items in flight on {lanes} lanes");
            if lanes == 1 {
                assert!(out.iter().all(|&(_, t)| t == caller));
            }
        }
    }

    #[test]
    fn sequential_and_empty_inputs_run_inline() {
        let caller = std::thread::current().id();
        let out = map_ordered(&[1, 2, 3], None, |&x| (x * 10, std::thread::current().id()));
        assert_eq!(
            out.iter().map(|&(x, _)| x).collect::<Vec<_>>(),
            [10, 20, 30]
        );
        assert!(out.iter().all(|&(_, t)| t == caller));
        let empty: Vec<u8> = map_ordered(&[] as &[u8], Some(4), |&x| x);
        assert!(empty.is_empty());
    }

    #[test]
    fn run_specs_keeps_corpus_order() {
        let specs: Vec<ScenarioSpec> = (0..4).map(ScenarioSpec::from_seed).collect();
        let registry = wdr_metrics::MetricsRegistry::new();
        let metrics = SearchMetrics::register(&registry, "test.batch");
        let (outcomes, timings) = run_specs(&specs, Some(2), None, &metrics);
        assert_eq!(outcomes.len(), specs.len());
        for ((outcome, timing), spec) in outcomes.iter().zip(&timings).zip(&specs) {
            assert_eq!(outcome.spec.seed, spec.seed);
            assert_eq!(timing.seed, spec.seed);
            assert!(timing.secs >= 0.0);
        }
    }
}
