//! Criterion micro-benchmarks of conformance lanes: the same corpus slice
//! run one scenario at a time and on several lane counts, where a lane is
//! a thread. The E12 experiment gates the end-to-end corpus speedup; these
//! benches keep the cost visible at slice scale — one lane runs inline and
//! should match sequential, and the lane sweep localizes scheduling
//! overhead when the gate regresses.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;
use wdr_conformance::runner::{self, SuiteOptions};
use wdr_conformance::scenario::ScenarioSpec;

/// A small corpus prefix: it mixes every workload, and a criterion
/// iteration stays in the tens of milliseconds.
fn corpus() -> Vec<ScenarioSpec> {
    runner::generate_corpus(12)
}

fn run(specs: &[ScenarioSpec], lanes: Option<usize>) -> usize {
    let options = SuiteOptions {
        lanes,
        ..SuiteOptions::default()
    };
    let report = runner::run_suite(black_box(specs), &options);
    assert!(report.passed(), "bench corpus must stay green");
    report.outcomes.len()
}

/// The reference path: every scenario on the calling thread, corpus
/// order.
fn sequential(c: &mut Criterion) {
    let specs = corpus();
    c.bench_function("batch_sequential_12", |b| b.iter(|| run(&specs, None)));
}

/// The corpus across lane counts. One lane takes the inline path; each
/// further lane adds one thread (a wash beyond the host's thread count).
fn batched(c: &mut Criterion) {
    let specs = corpus();
    for lanes in [1usize, 2, 4] {
        c.bench_function(&format!("batch_lanes{lanes}_12"), |b| {
            b.iter(|| run(&specs, Some(lanes)))
        });
    }
}

criterion_group!(benches, sequential, batched);
criterion_main!(benches);
