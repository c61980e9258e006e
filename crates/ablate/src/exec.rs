//! Job execution: maps each expanded [`Job`] onto one of the existing
//! substrates and runs the jobs on lanes.
//!
//! [`run_jobs`] hands the job list to `wdr_conformance::batch::map_ordered`,
//! so a lane is a thread and outcomes come back in job-index order. Each
//! graph job builds its own [`SharedSetup`]. Only deterministic quantities
//! enter an outcome (no timings), so the runbook bytes are identical across
//! lane counts, including the sequential `lanes = None` path.

use crate::expand::Job;
use crate::plan::Substrate;
use congest_graph::digest::splitmix64;
use congest_sim::primitives::{self, Aggregate};
use congest_wdr::algorithm::{quantum_weighted, Objective};
use congest_wdr::params::WdrParams;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde_json::Value;
use std::collections::BTreeMap;
use wdr_conformance::oracle::SharedSetup;
use wdr_conformance::runner::{self, SuiteOptions};
use wdr_conformance::scenario::{Family, FaultSpec, ParMode, ScenarioSpec, Workload};
use wdr_serve::cache::{Admission, Fulfillment, ResultCache};
use wdr_serve::engine::{cache_key, QueryEngine};
use wdr_serve::metrics::ServeMetrics;
use wdr_serve::protocol::Algorithm;

/// The deterministic result of one job: a flat metric map, or an error.
#[derive(Clone, Debug, PartialEq)]
pub struct JobOutcome {
    /// The job's expansion index.
    pub index: usize,
    /// Measured metrics (every job also reports `failed` ∈ {0, 1} so
    /// tolerances can bound error counts).
    pub metrics: BTreeMap<String, f64>,
    /// The failure message, when the substrate returned an error.
    pub error: Option<String>,
}

fn get_f64(job: &Job, key: &str, default: f64) -> Result<f64, String> {
    match job.params.get(key) {
        None => Ok(default),
        Some(Value::Number(v)) => Ok(*v),
        Some(other) => Err(format!("param '{key}' must be a number, got {other:?}")),
    }
}

fn get_usize(job: &Job, key: &str, default: usize) -> Result<usize, String> {
    let v = get_f64(job, key, default as f64)?;
    if v < 0.0 || v.fract() != 0.0 {
        return Err(format!("param '{key}' must be a non-negative integer"));
    }
    Ok(v as usize)
}

fn get_str<'a>(job: &'a Job, key: &str, default: &'a str) -> Result<&'a str, String> {
    match job.params.get(key) {
        None => Ok(default),
        Some(Value::String(s)) => Ok(s),
        Some(other) => Err(format!("param '{key}' must be a string, got {other:?}")),
    }
}

fn family_from(job: &Job) -> Result<Family, String> {
    Ok(match get_str(job, "family", "grid")? {
        "path" => Family::Path,
        "cycle" => Family::Cycle,
        "star" => Family::Star,
        "grid" => Family::Grid,
        "binary_tree" => Family::BinaryTree,
        "erdos_renyi" => Family::ErdosRenyi {
            p: get_f64(job, "er_p", 0.3)?,
        },
        "cluster_ring" => Family::ClusterRing {
            hubs: get_usize(job, "hubs", 4)?,
        },
        other => return Err(format!("unknown family '{other}'")),
    })
}

/// The scenario a graph-substrate job (Quantum / Sweep / RoundEngine)
/// describes.
fn scenario_from(job: &Job, workload: Workload) -> Result<ScenarioSpec, String> {
    let fault_rate = get_f64(job, "fault_rate", 0.0)?;
    let faults = if fault_rate > 0.0 {
        FaultSpec::Drops { rate: fault_rate }
    } else {
        FaultSpec::NoFaults
    };
    Ok(ScenarioSpec {
        // The spec seed drives graph construction (for seeded families)
        // and the fault plan — NOT the per-job RNG, which comes from
        // `job.seed` — so jobs that differ only in other factors run on
        // byte-identical graphs.
        seed: get_usize(job, "graph_seed", 5)? as u64,
        family: family_from(job)?,
        n: get_usize(job, "n", 16)?,
        max_weight: get_usize(job, "max_weight", 8)? as u64,
        faults,
        parallelism: ParMode::Sequential,
        workload,
    }
    .normalized())
}

fn objective_from(job: &Job) -> Result<(Objective, Workload), String> {
    match get_str(job, "objective", "diameter")? {
        "diameter" => Ok((Objective::Diameter, Workload::QuantumDiameter)),
        "radius" => Ok((Objective::Radius, Workload::QuantumRadius)),
        other => Err(format!("unknown objective '{other}' (diameter|radius)")),
    }
}

/// One quantum weighted-diameter/radius run with the oracle's small-graph
/// calibration, but the accuracy ε taken from the job params instead of
/// the suite's `o1_tolerance(n)` schedule.
fn run_quantum(job: &Job, setup: &SharedSetup) -> Result<BTreeMap<String, f64>, String> {
    let (objective, workload) = objective_from(job)?;
    let spec = scenario_from(job, workload)?;
    let g = setup.graph();
    let eps = get_f64(job, "eps", 0.25)?;
    if !(eps > 0.0 && eps <= 1.0) {
        return Err(format!("eps {eps} outside (0, 1]"));
    }
    let mut params = WdrParams::for_benchmarks(g.n(), setup.d(), eps);
    // The workspace-wide small-graph calibration (see conformance
    // `oracle::evaluate_quantum`): a generous hop budget and Θ(n)-sized
    // sets keep the Lemma 3.4 marked mass non-degenerate at these sizes.
    params.ell = g.n();
    params.r = (g.n() as f64 * 0.35).max(2.0);
    let cfg = spec.build_config(g);
    let mut rng = ChaCha8Rng::seed_from_u64(job.seed);
    let report = quantum_weighted(g, 0, objective, &params, &cfg, &mut rng)
        .map_err(|e| format!("quantum run failed: {e}"))?;
    let cap = (1.0 + eps) * (1.0 + eps) * report.exact + 1e-6;
    let floor = report.exact - 1e-6;
    let (hard_ok, soft_ok) = match objective {
        Objective::Diameter => (report.estimate <= cap, report.estimate >= floor),
        Objective::Radius => (report.estimate >= floor, report.estimate <= cap),
    };
    let mut m = BTreeMap::new();
    m.insert("estimate".to_string(), report.estimate);
    m.insert("exact".to_string(), report.exact);
    m.insert(
        "ratio".to_string(),
        if report.exact > 0.0 {
            report.estimate / report.exact
        } else {
            1.0
        },
    );
    m.insert("budgeted_rounds".to_string(), report.budgeted_rounds as f64);
    m.insert("hard_ok".to_string(), f64::from(u8::from(hard_ok)));
    m.insert("soft_ok".to_string(), f64::from(u8::from(soft_ok)));
    m.insert(
        "guaranteed".to_string(),
        f64::from(u8::from(report.confidence.is_guaranteed())),
    );
    Ok(m)
}

/// Pruned sweep extremes on the job's graph (computed by the setup).
fn run_sweep(_job: &Job, setup: &SharedSetup) -> Result<BTreeMap<String, f64>, String> {
    let extremes = setup.extremes();
    let g = setup.graph();
    let mut m = BTreeMap::new();
    m.insert("diameter".to_string(), extremes.diameter.as_f64());
    m.insert("radius".to_string(), extremes.radius.as_f64());
    m.insert("sweeps".to_string(), extremes.sweeps as f64);
    m.insert(
        "sweep_fraction".to_string(),
        extremes.sweeps as f64 / g.n() as f64,
    );
    m.insert("n".to_string(), g.n() as f64);
    m.insert("m".to_string(), g.m() as f64);
    m.insert(
        "connected".to_string(),
        f64::from(u8::from(extremes.is_connected())),
    );
    Ok(m)
}

/// E8-style round-engine run: a BFS spanning tree on the lossless
/// network, then a converge-cast sum under the job's fault plan (the
/// conformance `evaluate_primitive` discipline — the faulted phase under
/// test is exactly the cast).
fn run_round_engine(job: &Job, setup: &SharedSetup) -> Result<BTreeMap<String, f64>, String> {
    let spec = scenario_from(job, Workload::PrimitiveAggregate)?;
    let g = setup.graph();
    let clean = congest_sim::SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(1_000_000);
    let cfg = spec.build_config(g);
    let (tree, bfs_stats) =
        primitives::bfs_tree(g, 0, &clean).map_err(|e| format!("bfs_tree failed: {e}"))?;
    let values: Vec<u128> = (0..g.n() as u128).collect();
    let (sum, cast_stats) = primitives::converge_cast(g, 0, &cfg, &tree, &values, Aggregate::Sum)
        .map_err(|e| format!("converge_cast failed: {e}"))?;
    let mut m = BTreeMap::new();
    m.insert(
        "rounds".to_string(),
        (bfs_stats.rounds + cast_stats.rounds) as f64,
    );
    m.insert(
        "messages".to_string(),
        (bfs_stats.messages + cast_stats.messages) as f64,
    );
    m.insert(
        "bits".to_string(),
        (bfs_stats.bits + cast_stats.bits) as f64,
    );
    m.insert("sum".to_string(), sum as f64);
    Ok(m)
}

/// A conformance-suite slice: the first `count` corpus scenarios through
/// `runner::run_suite` (optionally on its own inner batch lanes).
fn run_conformance(job: &Job) -> Result<BTreeMap<String, f64>, String> {
    let count = get_usize(job, "count", 16)? as u64;
    let inner_lanes = get_usize(job, "lanes", 0)?;
    let specs = runner::generate_corpus(count);
    let options = SuiteOptions {
        lanes: (inner_lanes > 0).then_some(inner_lanes),
        ..SuiteOptions::default()
    };
    let report = runner::run_suite(&specs, &options);
    let mut m = BTreeMap::new();
    m.insert("scenarios".to_string(), report.outcomes.len() as f64);
    m.insert("failures".to_string(), report.failures.len() as f64);
    m.insert("soft_rate".to_string(), report.soft_rate.unwrap_or(-1.0));
    m.insert(
        "envelope_passed".to_string(),
        f64::from(u8::from(report.envelope.passed)),
    );
    m.insert(
        "envelope_c_max".to_string(),
        report
            .envelope
            .regimes
            .iter()
            .map(|r| r.c_max)
            .fold(0.0, f64::max),
    );
    m.insert(
        "envelope_samples".to_string(),
        report.envelope.samples as f64,
    );
    Ok(m)
}

/// E10-style serve load mix: a seeded closed loop of `requests` queries
/// drawn from `distinct` algorithm variants against the in-process
/// engine + content-addressed cache.
fn run_serve_cache(job: &Job) -> Result<BTreeMap<String, f64>, String> {
    let spec = scenario_from(job, Workload::BaselineExact)?;
    let g = spec.build_graph();
    let requests = get_usize(job, "requests", 64)?;
    let distinct = get_usize(job, "distinct", 8)?.max(1);
    let capacity_kb = get_usize(job, "capacity_kb", 64)?;
    let registry = wdr_metrics::MetricsRegistry::new();
    let cache = ResultCache::new(
        capacity_kb * 1024,
        ServeMetrics::register(&registry, "serve"),
    );
    let mut engine = QueryEngine::new();
    let digest = g.digest();
    let variant = |k: usize| -> Algorithm {
        match k {
            0 => Algorithm::Diameter,
            1 => Algorithm::Radius,
            2 => Algorithm::Extremes,
            _ => Algorithm::Eccentricity {
                node: (k - 3) % g.n(),
            },
        }
    };
    let (mut hits, mut misses) = (0u64, 0u64);
    let mut state = job.seed;
    for _ in 0..requests {
        let k = (splitmix64(&mut state) % distinct as u64) as usize;
        let algorithm = variant(k);
        let key = cache_key(digest, &algorithm, 0);
        match cache.admit(&key) {
            Admission::Hit(_) => hits += 1,
            Admission::Lead(cell) => {
                misses += 1;
                let value = engine
                    .run(&g, &algorithm)
                    .map_err(|e| format!("query failed: {e:?}"))?;
                cache.complete(&key, &cell, Fulfillment::Value(value));
            }
            // Single-threaded driver: nothing is ever left in flight.
            Admission::Follow(_) => return Err("unexpected in-flight follow".to_string()),
        }
    }
    let (entries, bytes) = cache.footprint();
    let mut m = BTreeMap::new();
    m.insert("hits".to_string(), hits as f64);
    m.insert("misses".to_string(), misses as f64);
    m.insert(
        "hit_rate".to_string(),
        if requests > 0 {
            hits as f64 / requests as f64
        } else {
            0.0
        },
    );
    m.insert("entries".to_string(), entries as f64);
    m.insert("bytes".to_string(), bytes as f64);
    Ok(m)
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    let text = payload
        .downcast_ref::<&str>()
        .map(|s| s.to_string())
        .or_else(|| payload.downcast_ref::<String>().cloned())
        .unwrap_or_else(|| "non-string panic payload".to_string());
    format!("substrate panicked: {text}")
}

/// Runs one job, building its graph setup first when the substrate needs
/// one. Setup and substrate panics alike are contained into deterministic
/// job errors (the conformance no-panic discipline), so one bad job never
/// ends the run.
fn run_job(substrate: Substrate, job: &Job) -> JobOutcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let setup = || scenario_from(job, Workload::BaselineExact).map(|s| SharedSetup::build(&s));
        match substrate {
            Substrate::Quantum => run_quantum(job, &setup()?),
            Substrate::Sweep => run_sweep(job, &setup()?),
            Substrate::RoundEngine => run_round_engine(job, &setup()?),
            Substrate::Conformance => run_conformance(job),
            Substrate::ServeCache => run_serve_cache(job),
        }
    }))
    .unwrap_or_else(|payload| Err(panic_message(payload)));
    let (mut metrics, error) = match result {
        Ok(metrics) => (metrics, None),
        Err(error) => (BTreeMap::new(), Some(error)),
    };
    metrics.insert("failed".to_string(), f64::from(u8::from(error.is_some())));
    JobOutcome {
        index: job.index,
        metrics,
        error,
    }
}

/// Runs every job on `lanes` threads (`None` or `Some(1)`: inline on the
/// calling thread). Outcomes come back in job-index order and are
/// bit-identical across every lane count (nothing time- or
/// schedule-dependent enters them).
pub fn run_jobs(substrate: Substrate, jobs: &[Job], lanes: Option<usize>) -> Vec<JobOutcome> {
    wdr_conformance::batch::map_ordered(jobs, lanes, |job| run_job(substrate, job))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expand::expand;
    use crate::plan::{AblationMode, AblationPlan};

    fn sweep_plan() -> AblationPlan {
        let mut factors = BTreeMap::new();
        factors.insert(
            "n".to_string(),
            vec![Value::Number(8.0), Value::Number(12.0)],
        );
        factors.insert(
            "max_weight".to_string(),
            vec![Value::Number(1.0), Value::Number(7.0)],
        );
        let mut fixed = BTreeMap::new();
        fixed.insert("family".to_string(), Value::String("path".into()));
        AblationPlan {
            name: "exec-test".into(),
            substrate: Substrate::Sweep,
            mode: AblationMode::Grid,
            samples: None,
            factors,
            fixed,
            tolerances: BTreeMap::new(),
        }
    }

    #[test]
    fn sweep_jobs_measure_path_extremes() {
        let jobs = expand(&sweep_plan(), 1).unwrap();
        let outcomes = run_jobs(Substrate::Sweep, &jobs, None);
        assert_eq!(outcomes.len(), 4);
        for (job, out) in jobs.iter().zip(&outcomes) {
            assert_eq!(out.error, None);
            let n = job.params["n"].as_f64().unwrap();
            let w = job.params["max_weight"].as_f64().unwrap();
            // A uniform-weight path has diameter (n−1)·w exactly.
            assert_eq!(out.metrics["diameter"], (n - 1.0) * w);
            assert_eq!(out.metrics["failed"], 0.0);
        }
    }

    #[test]
    fn lanes_match_sequential() {
        let jobs = expand(&sweep_plan(), 9).unwrap();
        let seq = run_jobs(Substrate::Sweep, &jobs, None);
        for lanes in [1, 2, 4] {
            assert_eq!(run_jobs(Substrate::Sweep, &jobs, Some(lanes)), seq);
        }
    }

    #[test]
    fn bad_params_become_job_errors() {
        let mut plan = sweep_plan();
        plan.fixed
            .insert("family".to_string(), Value::String("banana".into()));
        let jobs = expand(&plan, 1).unwrap();
        let outcomes = run_jobs(Substrate::Sweep, &jobs, Some(2));
        assert!(outcomes
            .iter()
            .all(|o| o.error.as_deref().is_some_and(|e| e.contains("banana"))));
        assert!(outcomes.iter().all(|o| o.metrics["failed"] == 1.0));
    }

    #[test]
    fn round_engine_runs_clean_and_faulted() {
        let mut plan = sweep_plan();
        plan.substrate = Substrate::RoundEngine;
        plan.factors.insert(
            "fault_rate".to_string(),
            vec![Value::Number(0.0), Value::Number(0.05)],
        );
        let jobs = expand(&plan, 2).unwrap();
        let outcomes = run_jobs(Substrate::RoundEngine, &jobs, Some(2));
        let clean: Vec<&JobOutcome> = outcomes.iter().filter(|o| o.error.is_none()).collect();
        assert!(!clean.is_empty());
        for out in clean {
            // Sum of node ids 0..n.
            let n = out.metrics["sum"];
            assert!(n > 0.0);
            assert!(out.metrics["rounds"] > 0.0);
        }
    }

    #[test]
    fn serve_cache_hit_rate_reflects_reuse() {
        let mut fixed = BTreeMap::new();
        fixed.insert("family".to_string(), Value::String("cycle".into()));
        fixed.insert("n".to_string(), Value::Number(12.0));
        fixed.insert("requests".to_string(), Value::Number(40.0));
        fixed.insert("distinct".to_string(), Value::Number(4.0));
        let plan = AblationPlan {
            name: "serve-test".into(),
            substrate: Substrate::ServeCache,
            mode: AblationMode::Grid,
            samples: None,
            factors: BTreeMap::new(),
            fixed,
            tolerances: BTreeMap::new(),
        };
        let jobs = expand(&plan, 4).unwrap();
        let outcomes = run_jobs(Substrate::ServeCache, &jobs, None);
        assert_eq!(outcomes.len(), 1);
        let out = &outcomes[0];
        assert_eq!(out.error, None);
        // 4 distinct queries over 40 requests: at most 4 misses.
        assert!(out.metrics["misses"] <= 4.0);
        assert!(out.metrics["hit_rate"] >= 0.9);
        assert!(out.metrics["entries"] >= 1.0);
    }
}
