//! The repository benchmark. Runs one named workload through the workspace
//! crates, checks every output, and prints the metrics; the last line of
//! standard output is one JSON object:
//!
//! ```text
//! {"correct":true,"attempted":N,"failed":0,"metrics":{"name":{"value":x,"unit":"u"},...}}
//! ```
//!
//! With `--trace 0` the metrics are the end-to-end ones, measured untraced;
//! with `--trace 1` a separate traced pass adds the per-layer ones. The
//! process exits 1 when any output check failed, 2 on a usage error.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload corpus --seed 0 --seconds 10 --trace 0
//! ```

mod common;
mod corpus;
mod giant;
mod host;
mod quantum;
mod serve;
mod trace;

use common::{Opts, Report, Timing};
use std::process::ExitCode;

pub const WORKLOADS: [&str; 4] = ["corpus", "quantum_clean", "giant_sweep", "serve_mixed"];

/// The workloads `BENCHMARK.json` lists. `quantum_clean` and `giant_sweep`
/// run on request only: their half-second ops cannot be scaled to the
/// reference speed, and on a shared host they spread by 0.11-0.22 between
/// runs even taken at their fastest, too close to the largest bound the
/// benchmark can hold.
pub const BENCHMARKED: [&str; 2] = ["corpus", "serve_mixed"];

/// The per-layer metrics of the workloads `BENCHMARK.json` lists, printed
/// on every traced run; a layer the workload's ops never enter reads 0.
/// `giant_sweep` adds its own after them.
pub const PER_LAYER: &[&str] = &[
    "congest-graph.skeleton_distances_ms",
    "congest-algos.t0_ms",
    "congest-algos.t1_ms",
    "congest-algos.t2_ms",
    "congest-algos.t0_rounds",
    "congest-algos.t1_rounds",
    "congest-algos.t2_rounds",
    "congest-sim.bfs_tree_ms",
    "congest-sim.rounds",
    "congest-sim.messages",
    "congest-sim.ns_per_round",
    "quantum-sim.search_ms",
    "quantum-sim.grover_iterations",
    "quantum-sim.oracle_queries",
    "congest-graph.extremes_ms",
    "core.self_ms",
    "core.child_share",
    "conformance.faulted_s",
    "conformance.clean_quantum_s",
    "conformance.baseline_s",
    "conformance.primitive_s",
    "conformance.faulted_share",
    "conformance.typed_error_runs",
    "conformance.round_cap_runs",
    "serve.protocol_us",
    "serve.resolve_us",
    "serve.cache_us",
    "serve.engine_us",
    "serve.transport_us",
    "serve.hit_rate",
    "serve.coalesced",
    "serve.rejected",
    "trace.overhead_ms",
];

/// The unit of a per-layer metric, from its name's suffix.
pub fn layer_unit(name: &str) -> &'static str {
    let suffix = |s: &str| name.ends_with(s);
    if suffix("_ms") {
        "ms"
    } else if suffix("_us") {
        "us"
    } else if suffix("_s") {
        "s"
    } else if suffix("ns_per_round") || suffix("ns_per_relaxation") {
        "ns"
    } else if suffix("share") || suffix("fraction") || suffix("rate") {
        "ratio"
    } else {
        "count"
    }
}

/// Writes the traced pass's spans next to the benchmark.
pub fn write_spans(tr: &trace::Tracer, workload: &str) {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let path = dir.join(format!("spans-{workload}.jsonl"));
    match std::fs::create_dir_all(&dir).and_then(|()| tr.write_jsonl(&path)) {
        Ok(()) => println!("spans: {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

const USAGE: &str =
    "usage: wdr-perfbench --workload <corpus|quantum_clean|giant_sweep|serve_mixed> \
                     [--seed N] [--seconds S] [--trace 0|1] [--mutate skip-grover] [--slice N]";

fn parse_args() -> Result<(String, Opts), String> {
    let mut workload = None;
    let mut opts = Opts {
        seed: common::DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
        mutate: false,
        slice: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let bad = |v: &str| format!("bad value `{v}` for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                let v = value()?;
                opts.seed = v.parse().map_err(|_| bad(&v))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v.parse().ok().filter(|s: &f64| *s >= 0.0).ok_or(bad(&v))?;
            }
            "--trace" => match value()?.as_str() {
                "0" => opts.trace = false,
                "1" => opts.trace = true,
                v => return Err(bad(v)),
            },
            "--mutate" => match value()?.as_str() {
                "skip-grover" => opts.mutate = true,
                v => return Err(bad(v)),
            },
            "--slice" => {
                let v = value()?;
                opts.slice = Some(v.parse().ok().filter(|&n| n > 0).ok_or(bad(&v))?);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.ok_or("missing --workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`"));
    }
    if (opts.mutate || opts.slice.is_some()) && workload != "corpus" {
        return Err("--mutate and --slice apply to the corpus workload only".into());
    }
    Ok((workload, opts))
}

fn main() -> ExitCode {
    let (workload, opts) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = match workload.as_str() {
        "corpus" => corpus::run(&opts),
        "quantum_clean" => quantum::run(&opts),
        "giant_sweep" => giant::run(&opts),
        _ => serve::run(&opts),
    };
    print_report(&workload, &opts, &report);
    if report.timed.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn print_report(workload: &str, opts: &Opts, report: &Report) {
    let t = &report.timed;
    println!("host: {}", host::describe());
    println!(
        "workload: {workload} seed={} seconds={} trace={} ops={} cycles={}",
        opts.seed,
        opts.seconds,
        u8::from(opts.trace),
        t.attempted,
        t.cycles
    );
    let ops = t.latencies.len() as usize;
    let error_rate = t.failed as f64 / t.attempted.max(1) as f64;
    let as_measured = format!(
        "as measured: ops_per_s {:.4} latency_p50_ms {:.4}",
        t.raw_ops_per_s,
        t.raw_latencies.quantile(0.50) * 1e3
    );
    match t.timing {
        Timing::Scaled => println!(
            "host speed: {:.4}x the reference kernel's nominal time over {} samples; \
             op times below are scaled to it; {as_measured}",
            t.host.slowdown(),
            t.host.len(),
        ),
        Timing::Fastest => println!(
            "op times below are each op's fastest of {} runs; {as_measured}",
            t.cycles
        ),
    }
    let end_to_end = [
        ("setup_s", report.setup_s, "s"),
        ("ops_per_s", t.ops_per_s, "1/s"),
        ("latency_p50_ms", t.p50_ms(), "ms"),
        ("peak_rss_mb", t.peak_rss_mb, "MB"),
    ];
    for (name, value, unit) in end_to_end {
        println!("  {name:<16} {value:>14.6} {unit}");
    }
    if ops >= 500 {
        let p98 = t.latencies.quantile(0.98) * 1e3;
        let beyond = ops - (0.98 * ops as f64).ceil() as usize;
        println!(
            "  {:<16} {p98:>14.6} ms ({ops} samples, {beyond} beyond it)",
            "latency_p98_ms"
        );
    } else {
        println!(
            "  {:<16} {:>14} (only {ops} samples; reported from 500)",
            "latency_p98_ms", "-"
        );
    }
    println!(
        "  {:<16} {error_rate:>14.6} ratio ({} of {})",
        "error_rate", t.failed, t.attempted
    );
    let counts: Vec<String> = report
        .counts
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect();
    println!("counts: {}", counts.join(" "));
    println!("digest: {workload} {:016x}", t.digest);
    for note in &report.notes {
        println!("note: {note}");
    }
    for failure in &t.failures {
        eprintln!("FAILED: {failure}");
    }

    let mut metrics = Vec::new();
    if opts.trace {
        let extra = report
            .layers
            .keys()
            .map(String::as_str)
            .filter(|n| !PER_LAYER.contains(n));
        for name in PER_LAYER.iter().copied().chain(extra) {
            let value = report.layers.get(name).copied().unwrap_or(0.0);
            println!("  {name:<44} {value:>16.6} {}", layer_unit(name));
            metrics.push((name, value, layer_unit(name)));
        }
    } else {
        metrics.extend(end_to_end);
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { *value } else { 0.0 };
            format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}")
        })
        .collect();
    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        body.join(",")
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::Path;

    fn benchmark_json() -> serde_json::Value {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        serde_json::from_str(&text).expect("BENCHMARK.json parses")
    }

    fn names(v: &serde_json::Value, key: &str) -> Vec<String> {
        v.get(key)
            .and_then(serde_json::Value::as_array)
            .expect("array")
            .iter()
            .map(|m| {
                m.get("name")
                    .and_then(serde_json::Value::as_str)
                    .expect("name")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn benchmark_json_lists_what_the_binary_prints() {
        let v = benchmark_json();
        assert_eq!(names(&v, "workloads"), BENCHMARKED);
        assert_eq!(names(&v, "per_layer"), PER_LAYER);
        assert_eq!(
            names(&v, "end_to_end"),
            ["setup_s", "ops_per_s", "latency_p50_ms", "peak_rss_mb"]
        );
        for m in v
            .get("per_layer")
            .and_then(serde_json::Value::as_array)
            .expect("array")
        {
            let name = m
                .get("name")
                .and_then(serde_json::Value::as_str)
                .expect("name");
            assert_eq!(
                m.get("unit").and_then(serde_json::Value::as_str),
                Some(layer_unit(name))
            );
        }
    }

    #[test]
    fn default_seed_is_the_checked_in_corpus() {
        let specs = corpus::specs(common::DEFAULT_SEED);
        assert_eq!(
            specs,
            wdr_conformance::runner::generate_corpus(corpus::CORPUS_SIZE)
        );
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/corpus");
        for (i, spec) in specs.iter().enumerate() {
            let file = dir.join(wdr_conformance::corpus::file_name(i as u64));
            let text = std::fs::read_to_string(&file).expect("checked-in scenario");
            assert_eq!(
                wdr_conformance::corpus::to_ron(spec),
                text,
                "{}",
                file.display()
            );
        }
    }

    #[test]
    fn other_seeds_keep_the_corpus_shapes_and_move_the_scenario_seeds() {
        let base = corpus::specs(common::DEFAULT_SEED);
        let moved = corpus::specs(3);
        for (a, b) in base.iter().zip(&moved) {
            assert_ne!(a.seed, b.seed);
            assert_eq!(
                wdr_conformance::scenario::ScenarioSpec { seed: a.seed, ..*b },
                *a
            );
        }
    }

    #[test]
    fn default_seed_is_e1_e2_inputs() {
        use rand::SeedableRng;
        for inst in quantum::instances(common::DEFAULT_SEED) {
            // E1/E2 seed index s: graph seed 1000 + s mod 2, RNG seed 77·n + s.
            let s = inst.rng_seed - 77 * inst.n as u64;
            assert!(s < 4);
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(1000 + s % 2);
            let g = congest_graph::generators::cluster_ring(inst.n, 4, 8, &mut rng);
            assert_eq!(g, inst.g);
        }
        assert_ne!(quantum::instances(1)[0].g, quantum::instances(0)[0].g);
    }

    #[test]
    fn default_seed_repeats_the_load_generators_working_set() {
        for idx in (1..64).filter(|i| i % 4 != 0) {
            let q = serve::query(common::DEFAULT_SEED, idx);
            let wdr_serve::GraphSource::Scenario { seed, n } = q.source else {
                panic!("scenario source expected")
            };
            assert!((42..46).contains(&seed) && n == Some(48) && !q.no_cache);
        }
    }
}
