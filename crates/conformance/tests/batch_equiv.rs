//! Batch == sequential bit-identity, pinned by proptest (the same
//! discipline as `parallel_equiv.rs` in the simulator): for random
//! families × lane counts × fault plans, a run on several lanes must
//! reproduce the one-at-a-time path exactly — oracle verdicts and
//! details, round counts, soft-side flags, envelope fits, and the embedded
//! metric snapshot values. Timings are the only permitted difference.

use proptest::prelude::*;
use quantum_sim::mutation::Mutation;
use wdr_conformance::runner::{self, fingerprint, SuiteOptions};
use wdr_conformance::scenario::{ScenarioSpec, Workload};

/// Seed → spec, with quantum node counts clamped so debug-mode test runs
/// stay fast. The clamp preserves the seed-derived variety (family, fault
/// plan, parallelism) that the equivalence property must range over.
fn spec_for(seed: u64) -> ScenarioSpec {
    let mut spec = ScenarioSpec::from_seed(seed);
    if matches!(
        spec.workload,
        Workload::QuantumDiameter | Workload::QuantumRadius
    ) && spec.n > 12
    {
        spec.n = 8 + (seed % 5) as usize;
    }
    spec.normalized()
}

/// Runs the suite and returns its semantic fingerprint plus the live
/// registry snapshot (the counters the lanes incremented).
fn run_path(
    specs: &[ScenarioSpec],
    lanes: Option<usize>,
    mutate: Option<Mutation>,
) -> (bool, String, std::collections::BTreeMap<String, f64>) {
    let registry = wdr_metrics::MetricsRegistry::new();
    let options = SuiteOptions {
        lanes,
        mutate,
        registry: Some(registry.clone()),
        ..SuiteOptions::default()
    };
    let report = runner::run_suite(specs, &options);
    let snapshot = registry.snapshot().flatten().into_iter().collect();
    (report.passed(), fingerprint(&report), snapshot)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// The core pin: any spec mix, any lane count — batched results are
    /// bit-identical to sequential (verdicts, measurements, envelope, and
    /// metric snapshot values all equal).
    #[test]
    fn batch_matches_sequential_across_families(
        seeds in proptest::collection::vec(any::<u64>(), 2..6),
        lanes in 1usize..=4,
    ) {
        let specs: Vec<ScenarioSpec> = seeds.iter().copied().map(spec_for).collect();
        let (seq_pass, seq_fp, seq_snap) = run_path(&specs, None, None);
        let (bat_pass, bat_fp, bat_snap) = run_path(&specs, Some(lanes), None);
        prop_assert_eq!(seq_pass, bat_pass);
        prop_assert_eq!(seq_fp, bat_fp, "fingerprint diverged at {} lanes", lanes);
        prop_assert_eq!(seq_snap, bat_snap, "metric snapshots diverged at {} lanes", lanes);
    }

    /// Lane-count invariance: the batched path agrees with itself across
    /// different lane counts (scheduling never leaks into results).
    #[test]
    fn batch_is_lane_count_invariant(seed in any::<u64>()) {
        let specs: Vec<ScenarioSpec> = (0..4).map(|i| spec_for(seed.wrapping_add(i))).collect();
        let (_, fp1, snap1) = run_path(&specs, Some(1), None);
        let (_, fp3, snap3) = run_path(&specs, Some(3), None);
        prop_assert_eq!(fp1, fp3);
        prop_assert_eq!(snap1, snap3);
    }
}

/// A real corpus prefix (seeds 0..16, the CI smoke slice) runs identically
/// through both paths, and the batched run times every scenario.
#[test]
fn batch_corpus_prefix_equals_sequential() {
    let specs = runner::generate_corpus(16);
    let registry = wdr_metrics::MetricsRegistry::new();
    let seq = runner::run_suite(
        &specs,
        &SuiteOptions {
            registry: Some(registry.clone()),
            ..SuiteOptions::default()
        },
    );
    let bat = runner::run_suite(
        &specs,
        &SuiteOptions {
            lanes: Some(4),
            ..SuiteOptions::default()
        },
    );
    assert_eq!(fingerprint(&seq), fingerprint(&bat));
    assert_eq!(seq.outcomes.len(), bat.outcomes.len());
    assert_eq!(bat.timings.len(), specs.len());
    // Every scenario carries its wall time, corpus order.
    for (t, s) in bat.timings.iter().zip(&specs) {
        assert_eq!(t.seed, s.seed);
        assert!(t.secs >= 0.0);
    }
}

/// The mutation self-check keeps its teeth under batching: an armed
/// `SkipGroverPhase` makes both paths fail, with identical evidence
/// (per-lane guard installation works).
#[test]
fn batch_mutation_self_check_equivalence() {
    // Enough clean quantum scenarios for the soft-side aggregate to fire.
    let specs: Vec<ScenarioSpec> = (0..200)
        .map(spec_for)
        .filter(|s| {
            s.is_clean()
                && matches!(
                    s.workload,
                    Workload::QuantumDiameter | Workload::QuantumRadius
                )
        })
        .take(6)
        .collect();
    assert!(specs.len() >= 4, "need enough clean quantum specs");
    let mutate = Some(Mutation::SkipGroverPhase);
    let (seq_pass, seq_fp, _) = run_path(&specs, None, mutate);
    let (bat_pass, bat_fp, _) = run_path(&specs, Some(3), mutate);
    assert!(!seq_pass, "mutated sequential run must fail");
    assert!(!bat_pass, "mutated batched run must fail");
    assert_eq!(seq_fp, bat_fp);
}
