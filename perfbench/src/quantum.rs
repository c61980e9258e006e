//! `quantum_clean`: fault-free Theorem 1.1 runs
//! (`congest_wdr::algorithm::quantum_weighted`) on E1/E2's `cluster_ring`
//! family (4 hubs, W = 8, ε = 0.25), diameter and radius alternating.
//!
//! The traced pass replays each run step by step through the public
//! functions `quantum_weighted` is built from, in the same order and on the
//! same RNG stream, so every layer gets its own span; the replay must
//! reproduce the untraced report exactly.

use crate::common::{self, median_setup, run_cycles, timed, OpRecord, Opts, Report, Timing};
use crate::trace::Tracer;
use congest_algos::skeleton::SkeletonState;
use congest_graph::{generators, metrics, WeightedGraph};
use congest_sim::metrics::SimMetrics;
use congest_sim::{primitives, SimConfig, SimError};
use congest_wdr::algorithm::{evaluate_sets, quantum_weighted, sample_sets, Objective, WdrReport};
use congest_wdr::framework::{from_ordered_bits, optimize, ordered_bits, PhaseCosts};
use congest_wdr::params::WdrParams;
use quantum_sim::instrument::{self, SearchMetrics};
use quantum_sim::search::{find_above_threshold, lemma_3_1_budget};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::BTreeMap;
use wdr_metrics::MetricsRegistry;

const EPS: f64 = 0.25;
const MAX_W: u64 = 8;
const HUBS: usize = 4;

/// One cycle: `(n, objective, E1 seed index)`. n = 96 runs on four E1 seeds
/// per n = 48 run, so that the median op is an n = 96 run in the middle of
/// their spread: run times differ by up to 1.5× between instances, and with
/// fewer of them the median moved with the benchmark seed.
const CYCLE: [(usize, Objective, u64); 10] = [
    (48, Objective::Diameter, 0),
    (48, Objective::Radius, 0),
    (96, Objective::Diameter, 0),
    (96, Objective::Radius, 0),
    (96, Objective::Diameter, 1),
    (96, Objective::Radius, 1),
    (96, Objective::Diameter, 2),
    (96, Objective::Radius, 2),
    (96, Objective::Diameter, 3),
    (96, Objective::Radius, 3),
];

pub struct Instance {
    pub n: usize,
    pub objective: Objective,
    pub g: WeightedGraph,
    pub params: WdrParams,
    pub rng_seed: u64,
}

/// The cycle's inputs. With the default seed these are E1/E2's: graph seed
/// `1000 + s mod 2`, algorithm RNG seed `77·n + s` for E1 seed index `s`;
/// seed `b` shifts the graph seed by `2·b` and the RNG seed by `4·b`.
pub fn instances(seed: u64) -> Vec<Instance> {
    CYCLE
        .iter()
        .map(|&(n, objective, s)| {
            let mut grng = ChaCha8Rng::seed_from_u64(1000 + 2 * seed + s % 2);
            let g = generators::cluster_ring(n, HUBS, MAX_W, &mut grng);
            let d = metrics::unweighted_diameter(&g);
            Instance {
                n,
                objective,
                params: WdrParams::for_benchmarks(n, d, EPS),
                rng_seed: 77 * n as u64 + 4 * seed + s,
                g,
            }
        })
        .collect()
}

fn config(g: &WeightedGraph) -> SimConfig {
    SimConfig::standard(g.n(), g.max_weight()).with_max_rounds(2_000_000_000)
}

/// The two sides of the `(1+ε)²` sandwich, `(hard, soft)`. The hard side
/// always holds (Section 3): a diameter estimate never exceeds `(1+ε)²·D`
/// and a radius estimate never undershoots `R`. The other side holds only
/// with high probability, so a miss there is counted, not failed.
fn sandwich(inst: &Instance, rep: &WdrReport) -> (bool, bool) {
    let below_cap = rep.estimate <= (1.0 + inst.params.eps).powi(2) * rep.exact + 1e-6;
    let above_floor = rep.estimate >= rep.exact - 1e-6;
    match inst.objective {
        Objective::Diameter => (below_cap, above_floor),
        Objective::Radius => (above_floor, below_cap),
    }
}

/// The checks and deterministic counts of one finished run.
fn record(inst: &Instance, rep: &WdrReport) -> OpRecord {
    let failure = if !rep.confidence.is_guaranteed() {
        Some(format!(
            "n={} {:?}: clean run not Guaranteed",
            inst.n, inst.objective
        ))
    } else if !sandwich(inst, rep).0 {
        Some(format!(
            "n={} {:?}: estimate {} outside the hard side of the (1+ε)² sandwich (exact {})",
            inst.n, inst.objective, rep.estimate, rep.exact
        ))
    } else {
        None
    };
    let counts = vec![
        rep.t0 as u64,
        rep.t1 as u64,
        rep.t2 as u64,
        rep.t_setup_outer as u64,
        rep.total_rounds as u64,
        rep.budgeted_rounds as u64,
        rep.outer_trace.grover_iterations,
        rep.outer_trace.oracle_queries(),
        rep.chosen_set as u64,
        rep.estimate.to_bits(),
    ];
    let stats = format!(
        "n={} {:?} t0={} t1={} t2={} t_setup_outer={} charged={} budgeted={}",
        inst.n,
        inst.objective,
        rep.t0,
        rep.t1,
        rep.t2,
        rep.t_setup_outer,
        rep.total_rounds,
        rep.budgeted_rounds
    );
    OpRecord {
        failure,
        counts,
        stats,
    }
}

fn run_one(inst: &Instance, cfg: &SimConfig) -> Result<WdrReport, SimError> {
    let mut rng = ChaCha8Rng::seed_from_u64(inst.rng_seed);
    quantum_weighted(&inst.g, 0, inst.objective, &inst.params, cfg, &mut rng)
}

pub fn run(opts: &Opts) -> Report {
    let (setup_s, insts) = median_setup(25, || instances(opts.seed));
    let configs: Vec<SimConfig> = insts.iter().map(|i| config(&i.g)).collect();
    let mut reports: Vec<Option<WdrReport>> = vec![None; insts.len()];
    // Op times are not scaled to the reference speed: an op lasts about half
    // a second, longer than the host keeps one speed, so samples taken
    // between ops do not describe it. Scaled, eight seeds on a quiet host
    // spread 5.6% in ops_per_s against 1.7% as measured. Each op reports
    // its fastest run instead.
    let timed_run = run_cycles(opts.seconds, insts.len(), Timing::Fastest, |i| {
        let (secs, out) = timed(|| run_one(&insts[i], &configs[i]));
        let rec = match &out {
            Ok(rep) => record(&insts[i], rep),
            Err(e) => OpRecord {
                failure: Some(format!("n={} {:?}: {e}", insts[i].n, insts[i].objective)),
                counts: Vec::new(),
                stats: format!("error {e}"),
            },
        };
        reports[i] = out.ok();
        (secs, rec)
    });
    let mut report = Report::new(setup_s, timed_run);
    for (inst, rep) in insts
        .iter()
        .zip(&reports)
        .filter_map(|(i, r)| Some((i, r.as_ref()?)))
    {
        let key = |what: &str| format!("n{}.{:?}.{what}", inst.n, inst.objective).to_lowercase();
        *report.counts.entry(key("budgeted_rounds")).or_default() += rep.budgeted_rounds as u64;
        *report.counts.entry(key("grover_iterations")).or_default() +=
            rep.outer_trace.grover_iterations;
        *report.counts.entry("soft_side_misses".into()).or_default() +=
            u64::from(!sandwich(inst, rep).1);
    }
    if opts.trace {
        trace(&insts, &reports, &mut report);
    }
    report
}

/// What the replay must reproduce of the untraced report.
pub struct Replayed {
    estimate: f64,
    exact: f64,
    pub t: [usize; 3],
    pub budgeted_rounds: usize,
    total_rounds: usize,
    chosen_set: usize,
}

/// `quantum_weighted` from leader 0 with its RNG seeded by `rng_seed`, step
/// by step through its public parts.
pub fn replay(
    g: &WeightedGraph,
    objective: Objective,
    params: &WdrParams,
    rng_seed: u64,
    cfg: &SimConfig,
    tr: &mut Tracer,
) -> Result<Replayed, SimError> {
    let leader = 0;
    let n = g.n();
    let minimize = objective == Objective::Radius;
    let mut rng = ChaCha8Rng::seed_from_u64(rng_seed);
    tr.span("core.quantum_weighted", |tr| {
        let sets = sample_sets(n, params.sample_rate(n), &mut rng);
        let evals = tr.span("congest-graph.skeleton_distances", |_| {
            evaluate_sets(g, &sets, params, objective)
        });
        let mut sizes: Vec<(usize, usize)> = evals
            .iter()
            .enumerate()
            .filter_map(|(i, e)| e.as_ref().map(|e| (e.skeleton.len(), i)))
            .collect();
        sizes.sort_unstable();
        let rep_eval = evals[sizes[sizes.len() / 2].1]
            .as_ref()
            .expect("representative set is non-empty");
        let scheme = params.scheme();
        let state = tr.span("congest-algos.t0", |_| {
            SkeletonState::initialize(
                g,
                leader,
                &rep_eval.skeleton,
                scheme,
                params.k,
                cfg,
                &mut rng,
            )
        })?;
        let t0 = state.init_stats().rounds;
        let rep_s = rep_eval.skeleton[rep_eval.skeleton.len() / 2];
        let (overlay_dist, setup_stats) =
            tr.span("congest-algos.t1", |_| state.setup_data(g, rep_s, cfg))?;
        let (_, eval_stats) = tr.span("congest-algos.t2", |_| {
            state.evaluate_eccentricity(g, rep_s, &overlay_dist, cfg)
        })?;
        let (tree, _) = tr.span("congest-sim.bfs_tree", |_| {
            primitives::bfs_tree(g, leader, cfg)
        })?;
        let t_setup_outer = tree.iter().map(|t| t.depth).max().unwrap_or(0) + 1;

        let rho_inner = 1.0 / sizes.last().expect("non-empty").0 as f64;
        let inner_budget = lemma_3_1_budget(rho_inner, params.delta);
        let mut f_hat = Vec::with_capacity(evals.len());
        for e in &evals {
            f_hat.push(match e {
                None => ordered_bits(if minimize { f64::INFINITY } else { 0.0 }),
                Some(e) if e.eccs.len() == 1 => ordered_bits(e.eccs[0]),
                Some(e) => {
                    let bits: Vec<u64> = e.eccs.iter().map(|&x| ordered_bits(x)).collect();
                    let out = tr.span("quantum-sim.search", |_| {
                        find_above_threshold(&bits, rho_inner, params.delta, minimize, &mut rng)
                    });
                    ordered_bits(e.eccs[out.best])
                }
            });
        }
        let inner_cost = PhaseCosts {
            t0,
            t_setup: setup_stats.rounds,
            t_eval: eval_stats.rounds,
        };
        let outer_cost = PhaseCosts {
            t0: 0,
            t_setup: t_setup_outer,
            t_eval: inner_cost.charge_oblivious(inner_budget),
        };
        let rho_outer = (params.r / (2.0 * n as f64)).clamp(1.0 / n as f64, 1.0);
        let outcome = tr.span("quantum-sim.search", |_| {
            optimize(
                &f_hat,
                rho_outer,
                params.delta,
                minimize,
                outer_cost,
                &mut rng,
            )
        });
        let extremes = tr.span("congest-graph.extremes", |_| metrics::extremes(g));
        Ok(Replayed {
            estimate: from_ordered_bits(f_hat[outcome.best]),
            exact: match objective {
                Objective::Diameter => extremes.diameter.as_f64(),
                Objective::Radius => extremes.radius.as_f64(),
            },
            t: [t0, setup_stats.rounds, eval_stats.rounds],
            budgeted_rounds: outer_cost.charge_oblivious(outcome.budget),
            total_rounds: outcome.rounds,
            chosen_set: outcome.best,
        })
    })
}

/// The traced pass: one cycle of replays, with the simulator's and the
/// search layer's counters installed.
fn trace(insts: &[Instance], reports: &[Option<WdrReport>], report: &mut Report) {
    let registry = MetricsRegistry::new();
    let sim = SimMetrics::register(&registry, "sim");
    let search = SearchMetrics::register(&registry, "quantum");
    let _installed = instrument::install(search.clone());
    let mut tr = Tracer::new();
    let mut latencies = Vec::new();
    let mut rounds = [0u64; 3];
    for (i, inst) in insts.iter().enumerate() {
        let cfg = config(&inst.g).with_metrics(sim.clone());
        tr.begin_op(i as u64);
        let (secs, out) = timed(|| {
            replay(
                &inst.g,
                inst.objective,
                &inst.params,
                inst.rng_seed,
                &cfg,
                &mut tr,
            )
        });
        latencies.push(secs);
        let same = match (&out, &reports[i]) {
            (Ok(r), Some(w)) => {
                r.estimate.to_bits() == w.estimate.to_bits()
                    && r.exact.to_bits() == w.exact.to_bits()
                    && r.t == [w.t0, w.t1, w.t2]
                    && r.budgeted_rounds == w.budgeted_rounds
                    && r.total_rounds == w.total_rounds
                    && r.chosen_set == w.chosen_set
            }
            _ => false,
        };
        if let Ok(r) = &out {
            for (sum, t) in rounds.iter_mut().zip(r.t) {
                *sum += t as u64;
            }
        }
        if !same {
            report.timed.fail(format!(
                "op {i}: traced replay diverged from quantum_weighted"
            ));
        }
    }
    layer_metrics(&tr, &sim, &search, rounds, insts.len(), &mut report.layers);
    report.layers.insert(
        "trace.overhead_ms".into(),
        common::trace_overhead_ms(&latencies, &report.timed),
    );
    crate::write_spans(&tr, "quantum_clean");
}

/// The spans whose time the round simulator drives.
const SIMULATED: [&str; 6] = [
    "congest-algos.t0",
    "congest-algos.t1",
    "congest-algos.t2",
    "congest-sim.bfs_tree",
    "congest-sim.converge_cast",
    "congest-algos.diameter_radius_exact",
];

/// The per-layer metrics of [`replay`]'s spans and the counters installed
/// around it, per op; `t_rounds` sums the replays' T₀/T₁/T₂ rounds.
pub fn layer_metrics(
    tr: &Tracer,
    sim: &SimMetrics,
    search: &SearchMetrics,
    t_rounds: [u64; 3],
    ops: usize,
    l: &mut BTreeMap<String, f64>,
) {
    let ops = ops as f64;
    let ms = |name: &str| tr.total_ns(name) as f64 / 1e6 / ops;
    l.insert(
        "congest-graph.skeleton_distances_ms".into(),
        ms("congest-graph.skeleton_distances"),
    );
    for (k, phase) in ["t0", "t1", "t2"].iter().enumerate() {
        l.insert(
            format!("congest-algos.{phase}_ms"),
            ms(&format!("congest-algos.{phase}")),
        );
        l.insert(
            format!("congest-algos.{phase}_rounds"),
            t_rounds[k] as f64 / ops,
        );
    }
    let sim_ns: u64 = SIMULATED.iter().map(|n| tr.total_ns(n)).sum();
    l.insert("congest-sim.bfs_tree_ms".into(), ms("congest-sim.bfs_tree"));
    l.insert("congest-sim.rounds".into(), sim.rounds.get() as f64 / ops);
    l.insert(
        "congest-sim.messages".into(),
        sim.messages.get() as f64 / ops,
    );
    l.insert(
        "congest-sim.ns_per_round".into(),
        sim_ns as f64 / sim.rounds.get().max(1) as f64,
    );
    l.insert("quantum-sim.search_ms".into(), ms("quantum-sim.search"));
    l.insert(
        "quantum-sim.grover_iterations".into(),
        search.grover_iterations.get() as f64 / ops,
    );
    l.insert(
        "quantum-sim.oracle_queries".into(),
        search.oracle_queries.get() as f64 / ops,
    );
    l.insert(
        "congest-graph.extremes_ms".into(),
        ms("congest-graph.extremes"),
    );
    let op_ns = tr.total_ns("core.quantum_weighted");
    let self_ns = tr.self_ns("core.quantum_weighted");
    l.insert("core.self_ms".into(), self_ns as f64 / 1e6 / ops);
    l.insert(
        "core.child_share".into(),
        1.0 - self_ns as f64 / op_ns.max(1) as f64,
    );
}
