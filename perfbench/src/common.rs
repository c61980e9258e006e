//! What every workload shares: the run options, the cycle-driven timing
//! loop, percentiles, and the per-run result record.

use std::collections::BTreeMap;
use std::time::Instant;
use wdr_metrics::trajectory::fnv1a_64;

/// The seed whose inputs are the documented ones (the checked-in corpus,
/// E1/E2's graphs, E11's graph seeds).
pub const DEFAULT_SEED: u64 = 0;

/// Options one invocation runs with.
#[derive(Clone, Debug)]
pub struct Opts {
    /// Benchmark seed; [`DEFAULT_SEED`] reproduces the documented inputs.
    pub seed: u64,
    /// Minimum measured wall time; the loop always finishes whole cycles.
    pub seconds: f64,
    /// Run the traced pass and report per-layer metrics.
    pub trace: bool,
    /// Arm `quantum_sim::mutation::SkipGroverPhase` (self-test of the gates).
    pub mutate: bool,
    /// Run only the first `n` ops of a cycle (`corpus` only).
    pub slice: Option<usize>,
}

/// One op's verdict and its deterministic work counts.
pub struct OpRecord {
    /// `Some(reason)` when an output check failed.
    pub failure: Option<String>,
    /// Deterministic counts (rounds, sweeps, ...) that must repeat exactly
    /// whenever the same op runs again.
    pub counts: Vec<u64>,
    /// Simulated statistics folded into the workload digest.
    pub stats: String,
}

impl OpRecord {
    pub fn ok(counts: Vec<u64>, stats: String) -> OpRecord {
        OpRecord {
            failure: None,
            counts,
            stats,
        }
    }
}

/// Smallest latency the histogram tells apart, and the ratio between the
/// bounds of one bucket: 0.1% wide buckets from 100 ns to about two hours.
const LATENCY_FLOOR_S: f64 = 1e-7;
const LATENCY_GROWTH: f64 = 1.001;
const LATENCY_BUCKETS: usize = 25_000;

/// Op latencies in logarithmic buckets, so a run keeps the same memory
/// however many ops it completes. A quantile is interpolated inside its
/// bucket and lies within 0.1% of the exact one.
#[derive(Clone)]
pub struct Latencies {
    buckets: Vec<u32>,
    count: u64,
    sum_s: f64,
}

impl Default for Latencies {
    fn default() -> Latencies {
        Latencies {
            buckets: vec![0; LATENCY_BUCKETS],
            count: 0,
            sum_s: 0.0,
        }
    }
}

impl Latencies {
    pub fn record(&mut self, secs: f64) {
        let b = ((secs / LATENCY_FLOOR_S).ln() / LATENCY_GROWTH.ln()).floor();
        // NaN and negative indices (below the floor) land in bucket 0.
        let b = if b > 0.0 { b as usize } else { 0 };
        self.buckets[b.min(LATENCY_BUCKETS - 1)] += 1;
        self.count += 1;
        self.sum_s += secs;
    }

    pub fn merge(&mut self, other: &Latencies) {
        for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
            *a += b;
        }
        self.count += other.count;
        self.sum_s += other.sum_s;
    }

    pub fn len(&self) -> u64 {
        self.count
    }

    pub fn mean_s(&self) -> f64 {
        self.sum_s / self.count.max(1) as f64
    }

    /// Nearest-rank quantile `q ∈ [0, 1]` in seconds (0 when empty).
    pub fn quantile(&self, q: f64) -> f64 {
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count.max(1));
        let mut below = 0;
        for (b, &c) in self.buckets.iter().enumerate() {
            let c = u64::from(c);
            if below + c >= rank {
                let within = ((rank - below) as f64 - 0.5) / c as f64;
                return LATENCY_FLOOR_S * LATENCY_GROWTH.powf(b as f64 + within);
            }
            below += c;
        }
        0.0
    }
}

/// How the timed loop turns the op times it measures into the reported
/// ones.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub enum Timing {
    /// Each op scaled to the reference speed by host-speed samples taken
    /// around it (see [`HostSpeed`]).
    #[default]
    Scaled,
    /// Each op's fastest run over the run's cycles, one latency per op of
    /// a cycle. For ops too long to scale: a slow spell must then cover
    /// every run of an op to move it.
    Fastest,
}

/// What the timed loop measured.
#[derive(Default)]
pub struct Timed {
    pub timing: Timing,
    /// Op latencies as reported (see [`Timing`]).
    pub latencies: Latencies,
    /// Op latencies as measured.
    pub raw_latencies: Latencies,
    /// Latency of each op of the first cycle, in op order.
    pub first_latencies: Vec<f64>,
    /// Wall time of the whole loop.
    pub wall_s: f64,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// Counts of each op of the first cycle, in op order.
    pub first_cycle: Vec<Vec<u64>>,
    /// FNV digest of the first cycle's simulated statistics.
    pub digest: u64,
    pub cycles: usize,
    /// Ops per second as reported (see [`Timing`]), and as measured.
    pub ops_per_s: f64,
    pub raw_ops_per_s: f64,
    /// The host's speed while the timed loop ran.
    pub host: HostSpeed,
    /// Peak resident memory when the timed loop ended, before the output
    /// checks and the traced pass allocate their own.
    pub peak_rss_mb: f64,
}

impl Timed {
    /// Counts one failed op; the first few distinct reasons are kept.
    pub fn fail(&mut self, reason: String) {
        self.failed += 1;
        if self.failures.len() < 8 && !self.failures.contains(&reason) {
            self.failures.push(reason);
        }
    }

    /// Median reported op latency in milliseconds.
    pub fn p50_ms(&self) -> f64 {
        self.latencies.quantile(0.50) * 1e3
    }
}

/// The reference kernel's time on the development host (Intel Xeon,
/// 2 vCPUs) in its fast spells; see [`HostSpeed`].
pub const REFERENCE_NOMINAL_S: f64 = 160e-6;

/// Rounds of the reference kernel.
const REFERENCE_ROUNDS: u64 = 400;

/// A fixed piece of work of the benchmark's own, shaped like the CONGEST
/// simulator's round loop: 64 nodes on a ring with chords, double-buffered
/// inboxes, a hashed drop decision per node and round, min-aggregation
/// and sends to every neighbour; about 0.16 ms. No change to the workspace
/// crates can change it. Returns its seconds.
pub fn reference_s() -> f64 {
    const N: usize = 64;
    let start = Instant::now();
    let adj: Vec<[usize; 3]> = (0..N)
        .map(|v| [(v + 1) % N, (v + N - 1) % N, (v * 7 + 3) % N])
        .collect();
    let mut inbox: Vec<Vec<u64>> = vec![Vec::new(); N];
    let mut pending: Vec<Vec<u64>> = vec![Vec::new(); N];
    let mut dist = vec![u64::MAX; N];
    dist[0] = 0;
    pending[0].push(0);
    for round in 0..REFERENCE_ROUNDS {
        std::mem::swap(&mut inbox, &mut pending);
        for v in 0..N {
            let mut h = (v as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
                ^ round.wrapping_mul(0xbf58_476d_1ce4_e5b9);
            h ^= h >> 31;
            h = h.wrapping_mul(0x94d0_49bb_1331_11eb);
            h ^= h >> 29;
            if h.is_multiple_of(17) {
                continue;
            }
            let best = inbox[v].iter().copied().min();
            if let Some(b) = best {
                dist[v] = dist[v].min(b);
            }
            if best.is_some() || round % 50 == v as u64 % 50 {
                for &u in &adj[v] {
                    pending[u].push(dist[v].saturating_add(1 + (h & 3)));
                }
            }
        }
        for b in &mut inbox {
            b.clear();
        }
    }
    std::hint::black_box(&dist);
    start.elapsed().as_secs_f64()
}

/// How fast the host ran while a workload was timed, from [`reference_s`]
/// samples taken between its ops.
///
/// A shared host runs the same code at speeds up to ~1.7x apart, changing
/// within seconds: seven back-to-back `corpus` runs of one seed took
/// 11.4-18.7 s of op time. Short ops and set-up reps are therefore scaled
/// to the speed at which the reference kernel takes
/// [`REFERENCE_NOMINAL_S`], by the slowdown of the samples taken around
/// them. Over those seven runs the scaled corpus time spread 1.5%
/// (quartiles over median) where the measured one spread 38%. The kernel
/// is the benchmark's own code, so a change to the program moves a scaled
/// time exactly as it moves the measured one.
#[derive(Clone, Default)]
pub struct HostSpeed {
    samples: Vec<f64>,
}

impl HostSpeed {
    pub fn sample(&mut self) {
        self.samples.push(reference_s());
    }

    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// How many times slower than the reference speed the host ran over
    /// all samples: their median over [`REFERENCE_NOMINAL_S`] (1 without
    /// samples).
    pub fn slowdown(&self) -> f64 {
        slowdown(&self.samples)
    }

    /// Scales timings to the reference speed. Each timing comes with the
    /// index of the first of the `per` samples taken just before it, and
    /// `per` more follow the last; a timing is divided by the slowdown of
    /// the samples from two timings before it to two after it.
    pub fn scale(&self, timings: &[(f64, usize)], per: usize) -> Vec<f64> {
        timings
            .iter()
            .enumerate()
            .map(|(j, &(secs, before))| {
                let from = timings[j.saturating_sub(2)].1;
                let to = (before + 3 * per).min(self.samples.len());
                secs / slowdown(&self.samples[from..to])
            })
            .collect()
    }

    /// The slowdown the last three samples show.
    pub fn recent_slowdown(&self) -> f64 {
        slowdown(&self.samples[self.samples.len().saturating_sub(3)..])
    }
}

fn slowdown(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        1.0
    } else {
        quantile(samples, 0.5) / REFERENCE_NOMINAL_S
    }
}

/// Runs whole cycles of `cycle_len` ops until `seconds` have elapsed (at
/// least one cycle). Only `op` itself is timed, and throughput is ops per
/// second of reported op time. An op whose counts differ from the same
/// op's counts in the first cycle is a failure: the work an op does must
/// not depend on when it runs.
pub fn run_cycles(
    seconds: f64,
    cycle_len: usize,
    timing: Timing,
    mut op: impl FnMut(usize) -> (f64, OpRecord),
) -> Timed {
    // One host-speed sample before each op and after the last.
    let speed_samples = usize::from(timing == Timing::Scaled);
    let mut t = Timed {
        timing,
        ..Timed::default()
    };
    let mut first_stats = String::new();
    // Each op's seconds and the index of the first speed sample before it.
    let mut ops: Vec<(f64, usize)> = Vec::new();
    let started = Instant::now();
    loop {
        for i in 0..cycle_len {
            ops.push((0.0, t.host.len()));
            for _ in 0..speed_samples {
                t.host.sample();
            }
            let (secs, rec) = op(i);
            ops.last_mut().expect("pushed").0 = secs;
            t.attempted += 1;
            if let Some(reason) = rec.failure {
                t.fail(reason);
            }
            if t.cycles == 0 {
                first_stats.push_str(&rec.stats);
                first_stats.push('\n');
                t.first_latencies.push(secs);
                t.first_cycle.push(rec.counts);
            } else if t.first_cycle[i] != rec.counts {
                t.fail(format!(
                    "op {i}: counts {:?} differ from the first cycle's {:?}",
                    rec.counts, t.first_cycle[i]
                ));
            }
        }
        t.cycles += 1;
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    t.wall_s = started.elapsed().as_secs_f64();
    for _ in 0..speed_samples {
        t.host.sample();
    }
    let reported: Vec<f64> = match timing {
        Timing::Scaled => t.host.scale(&ops, speed_samples),
        Timing::Fastest => (0..cycle_len)
            .map(|i| {
                ops[i..]
                    .iter()
                    .step_by(cycle_len)
                    .map(|&(secs, _)| secs)
                    .fold(f64::INFINITY, f64::min)
            })
            .collect(),
    };
    for &(secs, _) in &ops {
        t.raw_latencies.record(secs);
    }
    for secs in reported {
        t.latencies.record(secs);
    }
    t.ops_per_s = t.latencies.len() as f64 / t.latencies.sum_s;
    t.raw_ops_per_s = t.raw_latencies.len() as f64 / t.raw_latencies.sum_s;
    t.peak_rss_mb = peak_rss_mb();
    t.digest = fnv1a_64(first_stats.as_bytes());
    t
}

/// The process's peak resident memory so far (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    wdr_metrics::heap::peak_rss_bytes().unwrap_or(0) as f64 / (1024.0 * 1024.0)
}

/// Tracing overhead: the traced cycle's median op latency minus that of
/// the same ops in the first untraced cycle, in milliseconds.
pub fn trace_overhead_ms(traced: &[f64], untraced: &Timed) -> f64 {
    let first = &untraced.first_latencies[..traced.len().min(untraced.first_latencies.len())];
    (quantile(traced, 0.5) - quantile(first, 0.5)) * 1e3
}

/// Times `f`, returning its seconds and result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (f64, T) {
    let start = Instant::now();
    let out = f();
    (start.elapsed().as_secs_f64(), out)
}

/// Runs `setup` `reps` times, sampling the host's speed before each rep and
/// after the last, and returns the median of the reps' seconds scaled to
/// the reference speed and the last result (the one the workload then
/// uses).
pub fn median_setup<T>(reps: usize, mut setup: impl FnMut() -> T) -> (f64, T) {
    let mut secs = Vec::with_capacity(reps);
    let mut host = HostSpeed::default();
    let mut last = None;
    for _ in 0..reps {
        drop(last.take());
        let before = host.len();
        host.sample();
        let (s, out) = timed(&mut setup);
        secs.push((s, before));
        last = Some(out);
    }
    host.sample();
    (
        quantile(&host.scale(&secs, 1), 0.5),
        last.expect("reps ≥ 1"),
    )
}

/// Nearest-rank quantile `q ∈ [0, 1]` of `xs` (0 when empty).
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Everything one workload run reports.
pub struct Report {
    /// Set-up seconds at the reference speed.
    pub setup_s: f64,
    pub timed: Timed,
    /// Named deterministic counts of one cycle (printed, not gated).
    pub counts: BTreeMap<String, u64>,
    /// Per-layer metrics, filled by the traced pass.
    pub layers: BTreeMap<String, f64>,
    /// Observations printed with the result that are not output checks.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(setup_s: f64, timed: Timed) -> Report {
        Report {
            setup_s,
            timed,
            counts: BTreeMap::new(),
            layers: BTreeMap::new(),
            notes: Vec::new(),
        }
    }
}
