//! `giant_sweep`: streamed graphs written to `.wdrg`, reopened with
//! `open_mmap`, then solved by `SweepWorkspace::extremes_into` — the
//! `congest-graph` kernels alone, no simulator. One op is one solve.
//!
//! Sweep counts depend strongly on the graph instance (measured over six
//! graph seeds: road_grid 478–1036 sweeps, power_law W = 16 6–34), so the
//! timed solves always use E11's graph seeds (`11000 + n`) and the
//! benchmark seed instead picks one more instance per family, which is
//! solved and checked after the timed loop but not timed.

use crate::common::{
    median_setup, run_cycles, timed, OpRecord, Opts, Report, Timing, DEFAULT_SEED,
};
use crate::trace::Tracer;
use congest_graph::generators::stream::StreamSpec;
use congest_graph::sweep::EdgeMetric;
use congest_graph::{SweepResult, SweepWorkspace, WeightedGraph};
use std::path::{Path, PathBuf};

/// `(metric-name family, StreamSpec)` for each family at graph seed offset
/// `shift` (0 = E11's seeds).
fn families(shift: u64) -> [(&'static str, StreamSpec); 3] {
    let seed = |n: usize| 11_000 + n as u64 + shift;
    [
        (
            "road_grid",
            StreamSpec::RoadGrid {
                n: 20_000,
                max_w: 16,
                seed: seed(20_000),
            },
        ),
        (
            "power_law_w16",
            StreamSpec::PowerLaw {
                n: 100_000,
                attach: 10,
                max_w: 16,
                seed: seed(100_000),
            },
        ),
        (
            "power_law_w4096",
            StreamSpec::PowerLaw {
                n: 100_000,
                attach: 10,
                max_w: 4096,
                seed: seed(100_000),
            },
        ),
    ]
}

/// One family's graph: the generator's owned copy and the mmap reopen.
pub struct Loaded {
    pub family: &'static str,
    pub owned: WeightedGraph,
    pub mapped: WeightedGraph,
}

fn work_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("wdrg-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create the benchmark's graph directory");
    dir
}

/// Generate → write → mmap-open one family, each step in its own span.
fn load(family: &'static str, spec: &StreamSpec, path: PathBuf, tr: &mut Tracer) -> Loaded {
    let owned = tr.span("congest-graph.gen", |_| {
        spec.build().expect("streamed family builds")
    });
    tr.span("congest-graph.write", |_| owned.write_binary(&path))
        .expect("write .wdrg");
    let mapped = tr
        .span("congest-graph.open", |_| WeightedGraph::open_mmap(&path))
        .expect("mmap-open .wdrg");
    Loaded {
        family,
        owned,
        mapped,
    }
}

fn load_all(shift: u64, dir: &Path, tr: &mut Tracer) -> Vec<Loaded> {
    families(shift)
        .iter()
        .map(|(family, spec)| load(family, spec, dir.join(format!("{family}-{shift}.wdrg")), tr))
        .collect()
}

/// Counts of one solve: the result plus the kernel counters.
fn solve(ws: &mut SweepWorkspace, g: &WeightedGraph) -> (SweepResult, [u64; 3]) {
    ws.sssp_mut().reset_counters();
    let r = ws.extremes_into(g, EdgeMetric::Weighted);
    let c = ws.sssp_mut().counters();
    (r, [c.relaxations, c.bucket_pops, c.heap_pops])
}

fn counts(r: &SweepResult, k: [u64; 3]) -> Vec<u64> {
    vec![
        r.diameter.expect_finite(),
        r.radius.expect_finite(),
        r.diameter_witness as u64,
        r.radius_witness as u64,
        r.sweeps as u64,
        k[0],
        k[1],
        k[2],
    ]
}

/// Output checks for one family: the owned graph solves identically, and an
/// independent heap Dijkstra from each witness reproduces D and R.
fn check(l: &Loaded, r: &SweepResult, ws: &mut SweepWorkspace) -> Option<String> {
    let mut fresh = SweepWorkspace::new();
    let owned = fresh.extremes_into(&l.owned, EdgeMetric::Weighted);
    if owned != *r {
        return Some(format!("{}: mmap and owned SweepResults differ", l.family));
    }
    let ecc = |ws: &mut SweepWorkspace, s: usize| {
        ws.sssp_mut()
            .dijkstra_heap_into(&l.mapped, s)
            .iter()
            .copied()
            .max()
            .expect("non-empty graph")
    };
    let d = ecc(ws, r.diameter_witness);
    let rad = ecc(ws, r.radius_witness);
    (d != r.diameter || rad != r.radius).then(|| {
        format!(
            "{}: witnesses give D={d} R={rad}, the sweep said D={} R={}",
            l.family, r.diameter, r.radius
        )
    })
}

pub fn run(opts: &Opts) -> Report {
    let dir = work_dir();
    let (setup_s, graphs) = median_setup(5, || load_all(0, &dir, &mut Tracer::disabled()));
    let mut ws = SweepWorkspace::new();
    let mut results: Vec<Option<SweepResult>> = vec![None; graphs.len()];
    let timed_run = run_cycles(opts.seconds, graphs.len(), Timing::Fastest, |i| {
        let (secs, (r, k)) = timed(|| solve(&mut ws, &graphs[i].mapped));
        let stats = format!(
            "{} D={} R={} sweeps={} relaxations={}",
            graphs[i].family, r.diameter, r.radius, r.sweeps, k[0]
        );
        let rec = OpRecord::ok(counts(&r, k), stats);
        results[i] = Some(r);
        (secs, rec)
    });
    let mut report = Report::new(setup_s, timed_run);
    for (l, r) in graphs.iter().zip(&results) {
        let r = r.as_ref().expect("every family solved");
        report
            .counts
            .insert(format!("{}.sweeps", l.family), r.sweeps as u64);
        if let Some(reason) = check(l, r, &mut ws) {
            report.timed.fail(reason);
        }
    }
    // Unmap before anything else is loaded, so every seed peaks at the
    // same memory: the three timed graphs.
    drop(graphs);
    if opts.seed != DEFAULT_SEED {
        // The seed's own instances, one at a time: solved and checked, not
        // timed.
        for (family, spec) in families(opts.seed * 7919) {
            let path = dir.join(format!("{family}-seed.wdrg"));
            let l = load(family, &spec, path, &mut Tracer::disabled());
            report.timed.attempted += 1;
            let (r, _) = solve(&mut ws, &l.mapped);
            report
                .counts
                .insert(format!("seed_instance.{family}.sweeps"), r.sweeps as u64);
            if let Some(reason) = check(&l, &r, &mut ws) {
                report.timed.fail(reason);
            }
        }
    }
    if opts.trace {
        trace(&dir, &results, &mut report);
    }
    let _ = std::fs::remove_dir_all(&dir);
    report
}

/// The traced pass: one load of every family and one solve of each, with
/// the kernel counters read per solve.
fn trace(dir: &Path, untimed: &[Option<SweepResult>], report: &mut Report) {
    let mut tr = Tracer::new();
    tr.begin_op(0);
    let graphs = load_all(0, dir, &mut tr);
    let mut ws = SweepWorkspace::new();
    let mut latencies = Vec::new();
    let l = &mut report.layers;
    for (i, g) in graphs.iter().enumerate() {
        tr.begin_op(1 + i as u64);
        let (secs, (r, k)) =
            timed(|| tr.span("congest-graph.extremes_into", |_| solve(&mut ws, &g.mapped)));
        latencies.push(secs);
        if Some(&r) != untimed[i].as_ref() {
            report
                .timed
                .fail(format!("{}: traced solve diverged", g.family));
        }
        let name = |m: &str| format!("congest-graph.{}.{m}", g.family);
        l.insert(name("sweeps"), r.sweeps as f64);
        l.insert(name("sweep_fraction"), r.sweeps as f64 / r.n as f64);
        l.insert(name("relaxations"), k[0] as f64);
        l.insert(name("bucket_pops"), k[1] as f64);
        l.insert(name("heap_pops"), k[2] as f64);
        l.insert(name("ns_per_relaxation"), secs * 1e9 / k[0].max(1) as f64);
    }
    for step in ["gen", "write", "open"] {
        l.insert(
            format!("congest-graph.{step}_s"),
            tr.total_ns(&format!("congest-graph.{step}")) as f64 / 1e9,
        );
    }
    l.insert(
        "trace.overhead_ms".into(),
        crate::common::trace_overhead_ms(&latencies, &report.timed),
    );
    crate::write_spans(&tr, "giant_sweep");
}
