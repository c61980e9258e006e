//! Criterion micro-benchmarks of the substrates: wall-clock performance of
//! the graph kernels, the CONGEST simulator, and the quantum-search
//! simulation. (The *round-complexity* evaluation lives in the `tables`
//! bench target; these benches track the cost of simulating, which is what
//! bounds the experiment sizes.)

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use congest_algos::baselines::{unweighted_apsp, weighted_apsp};
use congest_algos::bounded_sssp::bounded_distance_sssp;
use congest_graph::overlay::SkeletonDistances;
use congest_graph::rounding::RoundingScheme;
use congest_graph::{generators, metrics, shortest_path};
use congest_lb::degree::{approx_degree, SymmetricFn};
use congest_lb::formulas::GadgetDims;
use congest_lb::gadget::{diameter_gadget, paper_weights};
use congest_sim::telemetry::{CountingTracer, NullTracer};
use congest_sim::{primitives, SimConfig, Telemetry};
use congest_wdr::algorithm::{evaluate_sets, sample_sets, Objective};
use congest_wdr::params::WdrParams;
use quantum_sim::search::{bbht, durr_hoyer_max};
use quantum_sim::statevector::grover_state;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::sync::Arc;

fn graph_kernels(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(1);
    let g = generators::erdos_renyi_connected(256, 0.05, 16, &mut rng);
    c.bench_function("dijkstra_n256", |b| {
        b.iter(|| shortest_path::dijkstra(black_box(&g), 0))
    });
    c.bench_function("hop_bounded_n256_l16", |b| {
        b.iter(|| shortest_path::hop_bounded(black_box(&g), 0, 16))
    });
    c.bench_function("apsp_floyd_warshall_n64", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(2);
        let small = generators::erdos_renyi_connected(64, 0.1, 8, &mut rng);
        b.iter(|| shortest_path::floyd_warshall(black_box(&small)))
    });
    c.bench_function("skeleton_distances_n64_r8", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(3);
        let small = generators::erdos_renyi_connected(64, 0.1, 8, &mut rng);
        let skeleton: Vec<usize> = (0..64).step_by(8).collect();
        let scheme = RoundingScheme::new(48, 0.25);
        b.iter(|| SkeletonDistances::compute(black_box(&small), &skeleton, scheme, 3))
    });
    c.bench_function("evaluate_sets_n48", |b| {
        // The corpus calibration (ℓ = n, r = 0.35·n): 48 sets of about 17
        // nodes each, read from one shared bounded-hop table.
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let n = 48;
        let g = generators::erdos_renyi_connected(n, 0.1, 8, &mut rng);
        let d = metrics::unweighted_diameter(&g);
        let mut params = WdrParams::for_benchmarks(n, d.max(1), 0.25);
        params.ell = n;
        params.r = n as f64 * 0.35;
        let sets = sample_sets(n, params.sample_rate(n), &mut rng);
        b.iter(|| evaluate_sets(black_box(&g), &sets, &params, Objective::Diameter))
    });
}

fn congest_simulation(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(4);
    let g = generators::erdos_renyi_connected(128, 0.05, 8, &mut rng);
    let cfg = SimConfig::standard(g.n(), g.max_weight());
    c.bench_function("alg2_bounded_sssp_n128", |b| {
        b.iter(|| bounded_distance_sssp(black_box(&g), 0, 0, 64, &cfg).unwrap())
    });
    c.bench_function("unweighted_apsp_sim_n64", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let small = generators::erdos_renyi_connected(64, 0.08, 1, &mut rng);
        let cfg = SimConfig::standard(64, 1);
        b.iter(|| unweighted_apsp(black_box(&small), 0, &cfg).unwrap())
    });
    c.bench_function("weighted_apsp_sim_n48", |b| {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let small = generators::erdos_renyi_connected(48, 0.1, 8, &mut rng);
        let cfg = SimConfig::standard(48, 8);
        b.iter(|| weighted_apsp(black_box(&small), 0, &cfg).unwrap())
    });
}

fn quantum_search(c: &mut Criterion) {
    c.bench_function("statevector_grover_12q_50it", |b| {
        b.iter(|| grover_state(12, |i| i == 1234, 50))
    });
    c.bench_function("bbht_n65536", |b| {
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(7),
            |mut rng| bbht(1 << 16, &[4242], &mut rng, u64::MAX),
            BatchSize::SmallInput,
        )
    });
    c.bench_function("durr_hoyer_n4096", |b| {
        let values: Vec<u64> = (0..4096).map(|i| (i * 2654435761u64) % 100_000).collect();
        b.iter_batched(
            || ChaCha8Rng::seed_from_u64(8),
            |mut rng| durr_hoyer_max(&values, &mut rng, u64::MAX),
            BatchSize::SmallInput,
        )
    });
}

/// Tracer overhead on a simulation-heavy workload: the disabled default
/// (`Telemetry::off`), an attached-but-discarding `NullTracer`, and the
/// aggregate-counting `CountingTracer` must all land within noise of each
/// other — the telemetry layer's zero-cost-when-off claim, measured.
fn telemetry_overhead(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let g = generators::erdos_renyi_connected(128, 0.05, 8, &mut rng);
    let off = SimConfig::standard(g.n(), g.max_weight());
    c.bench_function("bfs_tree_n128_telemetry_off", |b| {
        b.iter(|| primitives::bfs_tree(black_box(&g), 0, &off).unwrap())
    });
    let null = off
        .clone()
        .with_telemetry(Telemetry::new(Arc::new(NullTracer)));
    c.bench_function("bfs_tree_n128_null_tracer", |b| {
        b.iter(|| primitives::bfs_tree(black_box(&g), 0, &null).unwrap())
    });
    let counting = off
        .clone()
        .with_telemetry(Telemetry::new(Arc::new(CountingTracer::default())));
    c.bench_function("bfs_tree_n128_counting_tracer", |b| {
        b.iter(|| primitives::bfs_tree(black_box(&g), 0, &counting).unwrap())
    });
}

/// Metrics-registry overhead on the same workload: an attached
/// `SimMetrics` bundle costs a handful of relaxed atomic adds per round
/// and must land within noise of the bare engine — the registry's
/// zero-steady-state-cost claim, measured next to `telemetry_overhead`
/// (the E8 `sequential+metrics` row gates the same comparison).
fn metrics_overhead(c: &mut Criterion) {
    let mut rng = ChaCha8Rng::seed_from_u64(9);
    let g = generators::erdos_renyi_connected(128, 0.05, 8, &mut rng);
    let off = SimConfig::standard(g.n(), g.max_weight());
    c.bench_function("bfs_tree_n128_metrics_off", |b| {
        b.iter(|| primitives::bfs_tree(black_box(&g), 0, &off).unwrap())
    });
    let registry = wdr_metrics::MetricsRegistry::new();
    let on = off
        .clone()
        .with_metrics(congest_sim::SimMetrics::register(&registry, "bench.sim"));
    c.bench_function("bfs_tree_n128_metrics_on", |b| {
        b.iter(|| primitives::bfs_tree(black_box(&g), 0, &on).unwrap())
    });
}

fn lower_bound_kernels(c: &mut Criterion) {
    c.bench_function("approx_degree_and_25", |b| {
        b.iter(|| approx_degree(&SymmetricFn::and(25), 1.0 / 3.0))
    });
    c.bench_function("diameter_gadget_h4", |b| {
        let dims = GadgetDims::new(4);
        let (alpha, beta) = paper_weights(&dims);
        let x = vec![true; dims.input_len()];
        b.iter(|| diameter_gadget(black_box(&dims), &x, &x, alpha, beta))
    });
}

criterion_group!(
    benches,
    graph_kernels,
    congest_simulation,
    quantum_search,
    telemetry_overhead,
    metrics_overhead,
    lower_bound_kernels
);
criterion_main!(benches);
