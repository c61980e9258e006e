//! `corpus`: the 500-scenario conformance corpus, sequentially through
//! `wdr_conformance::oracle::run_scenario`. One op is one scenario with all
//! its oracles; the corpus-wide oracles (soft sandwich side, round
//! envelope) are checked over each run.

use crate::common::{
    median_setup, run_cycles, timed, OpRecord, Opts, Report, Timing, DEFAULT_SEED,
};
use crate::quantum;
use crate::trace::Tracer;
use congest_algos::baselines::{diameter_radius_exact, WeightMode};
use congest_sim::metrics::SimMetrics;
use congest_sim::primitives::{self, Aggregate};
use congest_sim::SimConfig;
use congest_wdr::algorithm::Objective;
use congest_wdr::params::WdrParams;
use quantum_sim::instrument::{self, SearchMetrics};
use std::path::Path;
use wdr_conformance::corpus;
use wdr_conformance::envelope;
use wdr_conformance::oracle::{self, ScenarioOutcome, SharedSetup};
use wdr_conformance::runner::{SOFT_SIDE_FLOOR, SOFT_SIDE_MIN_SAMPLES};
use wdr_conformance::scenario::{ScenarioSpec, Workload};
use wdr_metrics::MetricsRegistry;

pub const CORPUS_SIZE: u64 = 500;

/// Distance between the scenario seeds of two benchmark seeds.
const SEED_SHIFT: u64 = 1_000_000;

/// The corpus for benchmark seed `seed`. The default seed gives exactly the
/// checked-in corpus (`ScenarioSpec::from_seed(0..500)`). Another seed keeps
/// each scenario's shape (family, n, W, fault plan, workload) and moves its
/// seed — which salts the graph, the fault plan and the algorithm RNG — to
/// `i + seed·10⁶`, so every run meets the corpus's class mix on fresh
/// randomness.
pub fn specs(seed: u64) -> Vec<ScenarioSpec> {
    (0..CORPUS_SIZE)
        .map(|i| {
            let spec = ScenarioSpec::from_seed(i);
            if seed == DEFAULT_SEED {
                spec
            } else {
                ScenarioSpec {
                    seed: i + seed * SEED_SHIFT,
                    ..spec
                }
            }
        })
        .collect()
}

/// The layer-level class a scenario's time is charged to.
pub fn class(spec: &ScenarioSpec) -> &'static str {
    if !spec.is_clean() {
        return "conformance.faulted";
    }
    match spec.workload {
        Workload::BaselineExact => "conformance.baseline",
        Workload::QuantumDiameter | Workload::QuantumRadius => "conformance.clean_quantum",
        Workload::PrimitiveAggregate => "conformance.primitive",
    }
}

fn details(o: &ScenarioOutcome, needle: &str) -> bool {
    o.checks.iter().any(|c| c.detail.contains(needle))
}

fn is_round_cap(o: &ScenarioOutcome) -> bool {
    details(o, "did not finish within")
}

fn is_typed_error(o: &ScenarioOutcome) -> bool {
    details(o, "typed error")
}

fn record(o: &ScenarioOutcome) -> OpRecord {
    let failures = o.failures();
    let failure = (!failures.is_empty()).then(|| {
        format!(
            "scenario {}: [{}] {}",
            o.spec.seed,
            failures[0].oracle.name(),
            failures[0].detail
        )
    });
    let rounds = o.measurement.map_or(0, |m| m.rounds as u64);
    let soft = o.soft_side.map_or(2, u64::from);
    let mut stats = format!("seed={} n={} d={} rounds={rounds}", o.spec.seed, o.n, o.d);
    for c in &o.checks {
        stats.push_str(&format!(" [{}:{}] {}", c.oracle.name(), c.passed, c.detail));
    }
    OpRecord {
        failure,
        counts: vec![
            o.n as u64,
            o.d as u64,
            rounds,
            soft,
            u64::from(is_round_cap(o)),
            u64::from(is_typed_error(o)),
        ],
        stats,
    }
}

pub fn run(opts: &Opts) -> Report {
    let (setup_s, (specs, rendered)) = median_setup(25, || {
        let specs = specs(opts.seed);
        let rendered: Vec<String> = specs.iter().map(corpus::to_ron).collect();
        (specs, rendered)
    });
    let take = opts.slice.unwrap_or(specs.len()).min(specs.len());
    let specs = &specs[..take];
    let _mutation = opts
        .mutate
        .then(|| quantum_sim::mutation::arm(quantum_sim::mutation::Mutation::SkipGroverPhase));
    let mut first_pass: Vec<ScenarioOutcome> = Vec::with_capacity(take);
    let mut soft: Vec<bool> = Vec::new();
    let timed_run = run_cycles(opts.seconds, take, Timing::Scaled, |i| {
        let (secs, outcome) = timed(|| oracle::run_scenario(&specs[i]));
        soft.extend(outcome.soft_side);
        let rec = record(&outcome);
        if first_pass.len() < take {
            first_pass.push(outcome);
        }
        (secs, rec)
    });
    let mut report = Report::new(setup_s, timed_run);

    // Corpus-wide oracles, exactly as `runner::run_suite` applies them.
    if soft.len() >= SOFT_SIDE_MIN_SAMPLES {
        let held = soft.iter().filter(|&&ok| ok).count();
        if (held as f64) < SOFT_SIDE_FLOOR * soft.len() as f64 {
            // Every op whose w.h.p. side missed counts as failed.
            for _ in held..soft.len() {
                report.timed.fail(format!(
                    "approx-ratio-soft: w.h.p. side held in {held} of {} clean quantum runs \
                     (floor {SOFT_SIDE_FLOOR})",
                    soft.len()
                ));
            }
        }
    }
    let measurements: Vec<_> = first_pass.iter().filter_map(|o| o.measurement).collect();
    for regime in envelope::fit(&measurements)
        .regimes
        .iter()
        .filter(|r| !r.passed)
    {
        report.timed.fail(format!(
            "round-envelope: regime {} c_max {:.1} > ceiling {:.1}",
            regime.regime, regime.c_max, regime.ceiling
        ));
    }
    if opts.seed == DEFAULT_SEED && opts.slice.is_none() {
        check_checked_in(&rendered, &mut report);
    }

    let c = &mut report.counts;
    c.insert("scenarios".into(), take as u64);
    c.insert(
        "round_cap_runs".into(),
        first_pass.iter().filter(|o| is_round_cap(o)).count() as u64,
    );
    c.insert(
        "typed_error_runs".into(),
        first_pass.iter().filter(|o| is_typed_error(o)).count() as u64,
    );
    c.insert(
        "budgeted_rounds".into(),
        measurements.iter().map(|m| m.rounds as u64).sum(),
    );
    if opts.trace {
        trace(specs, &first_pass, &mut report);
    }
    report
}

/// The default seed must render byte-identical to `tests/corpus/*.ron`.
fn check_checked_in(rendered: &[String], report: &mut Report) {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../tests/corpus");
    let files = std::fs::read_dir(&dir).map_or(0, |d| d.count());
    if files != rendered.len() {
        report.timed.fail(format!(
            "{} holds {files} files, the default seed renders {}",
            dir.display(),
            rendered.len()
        ));
    }
    for (i, text) in rendered.iter().enumerate() {
        let path = dir.join(corpus::file_name(i as u64));
        if std::fs::read_to_string(&path).ok().as_deref() != Some(text.as_str()) {
            report.timed.fail(format!(
                "{} differs from the default seed's spec",
                path.display()
            ));
        }
    }
}

/// The algorithm RNG salt `oracle::run_scenario` seeds a quantum
/// scenario's run with (`spec.seed ^ salt`).
const ORACLE_RNG_SALT: u64 = 0x616c_676f_5f76_3101;

/// Runs the primary computation of a scenario once more, the way
/// `run_scenario` evaluates it, with the simulator's counters attached and
/// each call into a layer in a span. Returns the summed T₀/T₁/T₂ rounds of
/// a quantum run, or why the replay disagrees with the scenario's outcome.
fn replay(
    spec: &ScenarioSpec,
    outcome: &ScenarioOutcome,
    sim: &SimMetrics,
    tr: &mut Tracer,
) -> Result<[usize; 3], String> {
    let setup = SharedSetup::build(spec);
    let g = setup.graph();
    let cfg = spec.build_config(g).with_metrics(sim.clone());
    let measured = outcome.measurement.map(|m| m.rounds);
    match spec.workload {
        Workload::QuantumDiameter | Workload::QuantumRadius => {
            let objective = if spec.workload == Workload::QuantumDiameter {
                Objective::Diameter
            } else {
                Objective::Radius
            };
            let n = g.n();
            let mut params = WdrParams::for_benchmarks(n, setup.d(), oracle::o1_tolerance(n));
            params.ell = n;
            params.r = (n as f64 * 0.35).max(2.0);
            let out = quantum::replay(g, objective, &params, spec.seed ^ ORACLE_RNG_SALT, &cfg, tr);
            match out {
                Ok(r) if !is_typed_error(outcome) && spec.is_clean() == measured.is_some() => {
                    if measured.is_none_or(|m| m == r.budgeted_rounds) {
                        Ok(r.t)
                    } else {
                        Err(format!("replay charged {} rounds", r.budgeted_rounds))
                    }
                }
                Err(_) if is_typed_error(outcome) => Ok([0; 3]),
                Ok(_) => Err("replay finished where the scenario did not".into()),
                Err(e) => Err(format!("replay failed: {e}")),
            }
        }
        Workload::BaselineExact => {
            let mut rounds = None;
            for mode in [WeightMode::Weighted, WeightMode::Unweighted] {
                let (_, _, stats) = tr
                    .span("congest-algos.diameter_radius_exact", |_| {
                        diameter_radius_exact(g, 0, &cfg, mode)
                    })
                    .map_err(|e| format!("baseline failed: {e}"))?;
                rounds.get_or_insert(stats.rounds);
            }
            if rounds == measured {
                Ok([0; 3])
            } else {
                Err(format!("replay took {rounds:?} rounds"))
            }
        }
        Workload::PrimitiveAggregate => {
            let n = g.n();
            let clean = SimConfig::standard(n, g.max_weight())
                .with_max_rounds(1_000_000)
                .with_metrics(sim.clone());
            let (tree, _) = tr
                .span("congest-sim.bfs_tree", |_| {
                    primitives::bfs_tree(g, 0, &clean)
                })
                .map_err(|e| format!("clean bfs_tree failed: {e}"))?;
            let values: Vec<u128> = (0..n as u128).map(|v| v + 1).collect();
            let cast = tr.span("congest-sim.converge_cast", |_| {
                primitives::converge_cast(g, 0, &cfg, &tree, &values, Aggregate::Sum)
            });
            if cast.is_err() == is_typed_error(outcome) {
                Ok([0; 3])
            } else {
                Err("replay's cast disagrees with the scenario's".into())
            }
        }
    }
}

/// The traced pass: one more pass, each scenario in a span named after its
/// class; the outcomes must repeat the untraced pass exactly. After each
/// scenario, [`replay`] splits one evaluation of it across the layers
/// (`run_scenario` evaluates twice, for its determinism oracle).
fn trace(specs: &[ScenarioSpec], first_pass: &[ScenarioOutcome], report: &mut Report) {
    let registry = MetricsRegistry::new();
    let sim = SimMetrics::register(&registry, "sim");
    let search = SearchMetrics::register(&registry, "quantum");
    let mut tr = Tracer::new();
    let mut latencies = Vec::with_capacity(specs.len());
    let (mut round_cap, mut typed) = (0u64, 0u64);
    let mut t_rounds = [0u64; 3];
    for (i, spec) in specs.iter().enumerate() {
        tr.begin_op(i as u64);
        let (secs, outcome) = timed(|| tr.span(class(spec), |_| oracle::run_scenario(spec)));
        latencies.push(secs);
        round_cap += u64::from(is_round_cap(&outcome));
        typed += u64::from(is_typed_error(&outcome));
        if record(&outcome).counts != record(&first_pass[i]).counts {
            report
                .timed
                .fail(format!("scenario {}: traced pass diverged", spec.seed));
        }
        let _installed = instrument::install(search.clone());
        match replay(spec, &outcome, &sim, &mut tr) {
            Ok(t) => {
                for (sum, t) in t_rounds.iter_mut().zip(t) {
                    *sum += t as u64;
                }
            }
            Err(e) => report.timed.fail(format!("scenario {}: {e}", spec.seed)),
        }
    }
    quantum::layer_metrics(
        &tr,
        &sim,
        &search,
        t_rounds,
        specs.len(),
        &mut report.layers,
    );
    let secs = |name: &str| tr.total_ns(name) as f64 / 1e9;
    let total: f64 = ["faulted", "clean_quantum", "baseline", "primitive"]
        .iter()
        .map(|c| secs(&format!("conformance.{c}")))
        .sum();
    let l = &mut report.layers;
    for c in ["faulted", "clean_quantum", "baseline", "primitive"] {
        l.insert(
            format!("conformance.{c}_s"),
            secs(&format!("conformance.{c}")),
        );
    }
    l.insert(
        "conformance.faulted_share".into(),
        secs("conformance.faulted") / total.max(1e-12),
    );
    l.insert("conformance.typed_error_runs".into(), typed as f64);
    l.insert("conformance.round_cap_runs".into(), round_cap as f64);
    l.insert(
        "trace.overhead_ms".into(),
        crate::common::trace_overhead_ms(&latencies, &report.timed),
    );
    crate::write_spans(&tr, "corpus");
}
