//! `serve_mixed`: an in-process `wdr-serve` daemon with 2 workers, driven
//! closed-loop from 2 client connections. One request in four is cold (a
//! fresh scenario with `no_cache`, so it takes the miss path through the
//! engine); the rest repeat E10's fixed 8-query working set (4 scenario
//! graphs × {extremes, eccentricities}), which is cached before timing
//! starts, so they take the hit path. Every graph has E10's n = 48.
//!
//! The traced pass replays the first [`CYCLE`] requests through the
//! server's own building blocks (`Request::parse`, `GraphStore::resolve`,
//! `ResultCache::admit`/`complete`, `QueryEngine::run`, `ok_response`),
//! each in a span; whatever the daemon adds beyond them is transport.

use crate::common::{self, median_setup, timed, HostSpeed, Latencies, Report, Timed, Timing};
use crate::trace::Tracer;
use rand::{RngCore, SeedableRng};
use rand_chacha::ChaCha8Rng;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::{Duration, Instant};
use wdr_metrics::trajectory::fnv1a_64;
use wdr_metrics::MetricsRegistry;
use wdr_serve::protocol::{ok_response, read_frame, write_frame};
use wdr_serve::{
    cache_key, Admission, Algorithm, Fulfillment, GraphSource, GraphStore, Query, QueryEngine,
    Request, RequestKind, ResultCache, ServeConfig, ServeMetrics, Server, ServerHandle,
};

const WORKERS: usize = 2;
const CLIENTS: usize = 2;
const N: usize = 48;
/// Requests every run completes at least, and the traced pass replays.
const CYCLE: u64 = 512;
const WORKING_SET: u64 = 8;
/// Milliseconds between two samples of the host's speed.
const SPEED_EVERY_MS: u64 = 25;
/// The protocol parses numbers as `f64`, so the daemon silently rounds an
/// integer field above 2⁵³ and answers for a different scenario; cold seeds
/// stay below that, and [`probe_wide_seed`] reports whether the rounding is
/// still there.
const EXACT_JSON_INT: u64 = (1 << 53) - 1;

/// Request `idx` of the stream for benchmark seed `seed`. The working set
/// of the default seed is `wdr-load`'s default (scenarios 42..46).
pub fn query(seed: u64, idx: u64) -> Query {
    if idx.is_multiple_of(4) {
        let algorithm = match (idx / 4) % 4 {
            0 => Algorithm::Extremes,
            1 => Algorithm::Eccentricities,
            2 => Algorithm::Diameter,
            _ => Algorithm::Radius,
        };
        Query {
            algorithm,
            source: GraphSource::Scenario {
                seed: ChaCha8Rng::seed_from_u64(seed << 32 | idx).next_u64() & EXACT_JSON_INT,
                n: Some(N),
            },
            no_cache: true,
        }
    } else {
        repeat_query(seed, repeat_slot(idx))
    }
}

/// The working-set slot of repeat request `idx` (`idx % 4 != 0`).
fn repeat_slot(idx: u64) -> u64 {
    (idx / 4 * 3 + idx % 4 - 1) % WORKING_SET
}

fn repeat_query(seed: u64, slot: u64) -> Query {
    Query {
        algorithm: if slot.is_multiple_of(2) {
            Algorithm::Extremes
        } else {
            Algorithm::Eccentricities
        },
        source: GraphSource::Scenario {
            seed: 42 + seed * WORKING_SET + slot / 2,
            n: Some(N),
        },
        no_cache: false,
    }
}

fn request(id: u64, query: Query) -> Vec<u8> {
    Request {
        id,
        kind: RequestKind::Query(query),
    }
    .to_json()
    .into_bytes()
}

struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    fn connect(server: &ServerHandle) -> Conn {
        let stream = TcpStream::connect(server.addr()).expect("connect to the in-process daemon");
        stream.set_nodelay(true).expect("set TCP_NODELAY");
        Conn {
            stream,
            buf: Vec::new(),
        }
    }

    /// One request/response exchange; the response frame lands in `buf`.
    fn call(&mut self, payload: &[u8]) -> bool {
        write_frame(&mut self.stream, payload).is_ok()
            && matches!(read_frame(&mut self.stream, &mut self.buf), Ok(true))
    }
}

struct Daemon {
    server: ServerHandle,
    registry: MetricsRegistry,
    conns: Vec<Conn>,
}

fn spawn() -> Daemon {
    let registry = MetricsRegistry::new();
    let config = ServeConfig {
        workers: WORKERS,
        ..ServeConfig::default()
    };
    let server = Server::spawn(config, &registry).expect("spawn the daemon on 127.0.0.1");
    let conns = (0..CLIENTS).map(|_| Conn::connect(&server)).collect();
    Daemon {
        server,
        registry,
        conns,
    }
}

/// What one client thread keeps of its requests. Its size does not grow
/// with the number of requests answered (only a refused request adds to
/// it), so the process's peak memory is the daemon's and not the log's.
#[derive(Default)]
struct ClientLog {
    /// Request latencies scaled to the reference speed, and as measured.
    latencies: Latencies,
    raw_latencies: Latencies,
    /// Requests answered in each whole second of the run.
    per_second: Vec<f64>,
    /// Wrapping sum of the response hashes of requests `CYCLE..`.
    hash_sum: u64,
    /// Requests refused or errored.
    refused: Vec<u64>,
}

fn hash(bytes: &[u8]) -> u64 {
    fnv1a_64(bytes).max(1)
}

pub fn run(opts: &crate::common::Opts) -> Report {
    let (setup_s, mut daemon) = median_setup(101, spawn);
    let seed = opts.seed;
    // Warm-up, untimed: cache the working set.
    for slot in 0..WORKING_SET {
        daemon.conns[0].call(&request(1_000_000 + slot, repeat_query(seed, slot)));
    }
    let wide_seed_note = probe_wide_seed(&mut daemon.conns[0]);

    // Response hashes of the first CYCLE requests, checked one by one and
    // replayed by the traced pass; later responses are checked as one sum.
    let first: Vec<AtomicU64> = (0..CYCLE).map(|_| AtomicU64::new(0)).collect();
    let next = AtomicU64::new(0);
    // This thread samples the host's speed every SPEED_EVERY_MS while no
    // request is in flight: the write side of `gate` waits for the clients'
    // requests to finish, so the kernel shares the vCPUs with neither the
    // clients nor the daemon, and a busier daemon cannot slow it. Clients
    // scale each request by the slowdown of the last three samples.
    let gate = RwLock::new(());
    let mut host = HostSpeed::default();
    host.sample();
    let slowdown = AtomicU64::new(host.recent_slowdown().to_bits());
    let started = Instant::now();
    let logs: Vec<ClientLog> = std::thread::scope(|s| {
        let handles: Vec<_> = daemon
            .conns
            .iter_mut()
            .map(|conn| {
                let (next, first, gate, slowdown) = (&next, &first, &gate, &slowdown);
                s.spawn(move || {
                    let mut log = ClientLog::default();
                    loop {
                        // Check before taking an index, so every index
                        // taken is answered and the indices have no gaps.
                        if next.load(Ordering::SeqCst) >= CYCLE
                            && started.elapsed().as_secs_f64() >= opts.seconds
                        {
                            return log;
                        }
                        let idx = next.fetch_add(1, Ordering::SeqCst);
                        let payload = request(idx, query(seed, idx));
                        let (secs, delivered) = {
                            let _in_flight = gate.read().expect("speed gate");
                            timed(|| conn.call(&payload))
                        };
                        log.raw_latencies.record(secs);
                        let slowdown = f64::from_bits(slowdown.load(Ordering::Relaxed));
                        log.latencies.record(secs / slowdown);
                        let second = started.elapsed().as_secs() as usize;
                        if log.per_second.len() <= second {
                            log.per_second.resize(second + 1, 0.0);
                        }
                        log.per_second[second] += 1.0;
                        if !(delivered && conn.buf.ends_with(b"\"status\":\"ok\"}")) {
                            log.refused.push(idx);
                        } else if idx < CYCLE {
                            first[idx as usize].store(hash(&conn.buf), Ordering::Relaxed);
                        } else {
                            log.hash_sum = log.hash_sum.wrapping_add(hash(&conn.buf));
                        }
                    }
                })
            })
            .collect();
        while handles.iter().any(|h| !h.is_finished()) {
            std::thread::sleep(Duration::from_millis(SPEED_EVERY_MS));
            let _idle = gate.write().expect("speed gate");
            // Warm this thread's caches after its sleep; time the second run.
            common::reference_s();
            host.sample();
            slowdown.store(host.recent_slowdown().to_bits(), Ordering::Relaxed);
        }
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall_s = started.elapsed().as_secs_f64();
    let peak_rss_mb = common::peak_rss_mb();
    let total = next.load(Ordering::SeqCst);
    let first: Vec<u64> = first.into_iter().map(AtomicU64::into_inner).collect();

    let mut latencies = Latencies::default();
    let mut raw_latencies = Latencies::default();
    // Throughput per whole second of the run; the last, partial second is
    // left out.
    let mut window_rates = vec![0.0; wall_s as usize];
    for log in &logs {
        latencies.merge(&log.latencies);
        raw_latencies.merge(&log.raw_latencies);
        for (w, n) in window_rates.iter_mut().zip(&log.per_second) {
            *w += n;
        }
    }
    let raw_ops_per_s = common::quantile(&window_rates, 0.5);
    // In a closed loop throughput goes as one over latency, so it scales by
    // the ratio of mean raw to mean scaled latency.
    let mut t = Timed {
        timing: Timing::Scaled,
        ops_per_s: raw_ops_per_s * raw_latencies.mean_s() / latencies.mean_s(),
        latencies,
        raw_latencies,
        raw_ops_per_s,
        host,
        wall_s,
        peak_rss_mb,
        attempted: total,
        cycles: 1,
        ..Timed::default()
    };
    let distinct_keys = verify(seed, total, &first, &logs, &mut t);
    let first_bytes: Vec<u8> = first.iter().flat_map(|h| h.to_le_bytes()).collect();
    t.digest = fnv1a_64(&first_bytes);

    // The stream fixes the cache counters: warm-up misses once per distinct
    // key (two working-set scenarios may build the same graph), every later
    // repeat hits, and cold requests and the probe bypass the cache.
    let m = ServeMetrics::register(&daemon.registry, "serve");
    let cold = total.div_ceil(4);
    let stats = [
        (
            "cache_hits",
            m.cache_hits.get(),
            total - cold + WORKING_SET - distinct_keys,
        ),
        ("cache_misses", m.cache_misses.get(), distinct_keys),
        ("cache_bypassed", m.cache_bypassed.get(), cold + 1),
        ("cache_coalesced", m.cache_coalesced.get(), 0),
        ("responses_rejected", m.responses_rejected.get(), 0),
    ];
    for (name, got, want) in stats {
        if got != want {
            t.fail(format!(
                "server stat {name} = {got}, the request stream implies {want}"
            ));
        }
    }
    let mut report = Report::new(setup_s, t);
    report.notes.extend(wide_seed_note);
    for (name, got, _) in stats {
        report.counts.insert(name.into(), got);
    }
    drop(daemon.conns);
    daemon.server.shutdown();
    if opts.trace {
        let l = &mut report.layers;
        let hits = report.counts["cache_hits"] as f64;
        l.insert(
            "serve.hit_rate".into(),
            hits / (hits + report.counts["cache_misses"] as f64),
        );
        l.insert(
            "serve.coalesced".into(),
            report.counts["cache_coalesced"] as f64,
        );
        l.insert(
            "serve.rejected".into(),
            report.counts["responses_rejected"] as f64,
        );
        let mean_latency = report.timed.latencies.mean_s();
        trace(seed, &first, mean_latency, &mut report);
    }
    report
}

/// Every response must equal the frame built from a direct
/// `QueryEngine::run` on the same query: request by request for the first
/// [`CYCLE`], and as one sum of hashes for the rest. Returns the number of
/// distinct cache keys in the working set.
fn verify(seed: u64, total: u64, first: &[u64], logs: &[ClientLog], t: &mut Timed) -> u64 {
    let registry = MetricsRegistry::new();
    let store = GraphStore::new(64, &ServeMetrics::register(&registry, "check"));
    let mut engine = QueryEngine::new();
    let mut run = |q: &Query| {
        let g = store.resolve(&q.source).expect("scenario graphs resolve");
        let value = engine
            .run(&g.graph, &q.algorithm)
            .expect("kernel queries succeed");
        (g.digest, value)
    };
    let mut keys = std::collections::BTreeSet::new();
    let repeat_results: Vec<String> = (0..WORKING_SET)
        .map(|slot| {
            let q = repeat_query(seed, slot);
            let (digest, value) = run(&q);
            let GraphSource::Scenario { seed, .. } = q.source else {
                unreachable!("the stream holds only scenario graphs")
            };
            keys.insert(cache_key(digest, &q.algorithm, seed));
            value
        })
        .collect();
    let refused: std::collections::BTreeSet<u64> = logs
        .iter()
        .flat_map(|l| l.refused.iter().copied())
        .collect();
    let mut expected_sum = 0u64;
    for idx in 0..total {
        if refused.contains(&idx) {
            t.fail(format!("request {idx}: refused or errored"));
            continue;
        }
        let q = query(seed, idx);
        let expected = hash(
            if q.no_cache {
                ok_response(idx, false, &run(&q).1)
            } else {
                ok_response(idx, true, &repeat_results[repeat_slot(idx) as usize])
            }
            .as_bytes(),
        );
        if idx >= CYCLE {
            expected_sum = expected_sum.wrapping_add(expected);
        } else if first[idx as usize] != expected {
            t.fail(format!(
                "request {idx}: response differs from QueryEngine::run"
            ));
        }
    }
    let answered_sum = logs.iter().fold(0u64, |a, l| a.wrapping_add(l.hash_sum));
    if answered_sum != expected_sum {
        t.fail(format!(
            "responses {CYCLE}..{total} differ from QueryEngine::run (their hash sums differ)"
        ));
    }
    keys.len() as u64
}

/// Asks for a scenario whose seed JSON cannot carry exactly; returns a note
/// when the daemon answers for a different scenario.
fn probe_wide_seed(conn: &mut Conn) -> Option<String> {
    let q = Query {
        algorithm: Algorithm::Extremes,
        source: GraphSource::Scenario {
            seed: (1 << 53) + 1,
            n: Some(N),
        },
        no_cache: true,
    };
    let registry = MetricsRegistry::new();
    let store = GraphStore::new(1, &ServeMetrics::register(&registry, "probe"));
    let g = store.resolve(&q.source).expect("scenario graphs resolve");
    let expected = QueryEngine::new()
        .run(&g.graph, &q.algorithm)
        .expect("extremes succeed");
    let answered = conn.call(&request(0, q.clone()));
    (!answered || conn.buf != ok_response(0, false, &expected).as_bytes()).then(|| {
        "known defect: the daemon rounds a scenario seed above 2^53 and answers for \
         another scenario (the request stream keeps its seeds below 2^53)"
            .to_string()
    })
}

/// One request through the daemon's building blocks, each in a span.
fn serve_in_process(
    tr: &mut Tracer,
    store: &GraphStore,
    cache: &ResultCache,
    engine: &mut QueryEngine,
    payload: &[u8],
) -> String {
    let req = tr
        .span("serve.protocol", |_| Request::parse(payload))
        .expect("benchmark requests parse");
    let RequestKind::Query(q) = req.kind else {
        unreachable!("the stream holds only queries")
    };
    let g = tr
        .span("serve.resolve", |_| store.resolve(&q.source))
        .expect("scenario graphs resolve");
    let GraphSource::Scenario { seed, .. } = q.source else {
        unreachable!("the stream holds only scenario graphs")
    };
    let key = cache_key(g.digest, &q.algorithm, seed);
    let mut compute = |tr: &mut Tracer| {
        tr.span("serve.engine", |_| engine.run(&g.graph, &q.algorithm))
            .expect("kernel queries succeed")
    };
    if q.no_cache {
        let value = compute(tr);
        return tr.span("serve.protocol", |_| ok_response(req.id, false, &value));
    }
    match tr.span("serve.cache", |_| cache.admit(&key)) {
        Admission::Hit(value) => tr.span("serve.protocol", |_| ok_response(req.id, true, &value)),
        Admission::Lead(cell) => {
            let value = compute(tr);
            tr.span("serve.cache", |_| {
                cache.complete(&key, &cell, Fulfillment::Value(value.clone()))
            });
            tr.span("serve.protocol", |_| ok_response(req.id, false, &value))
        }
        Admission::Follow(_) => unreachable!("a single caller never coalesces"),
    }
}

/// Replays the warm-up and the first [`CYCLE`] requests in process; with
/// `tr` disabled this is the untraced baseline of the tracing overhead.
fn replay(seed: u64, tr: &mut Tracer, first: &[u64], t: &mut Timed) -> Vec<f64> {
    let registry = MetricsRegistry::new();
    let metrics = ServeMetrics::register(&registry, "serve");
    let store = GraphStore::new(ServeConfig::default().graph_capacity, &metrics);
    let cache = ResultCache::new(ServeConfig::default().cache_capacity_bytes, metrics);
    let mut engine = QueryEngine::new();
    for slot in 0..WORKING_SET {
        let payload = request(1_000_000 + slot, repeat_query(seed, slot));
        serve_in_process(
            &mut Tracer::disabled(),
            &store,
            &cache,
            &mut engine,
            &payload,
        );
    }
    let mut latencies = Vec::with_capacity(CYCLE as usize);
    for idx in 0..CYCLE {
        let payload = request(idx, query(seed, idx));
        tr.begin_op(idx);
        let (secs, response) =
            timed(|| serve_in_process(tr, &store, &cache, &mut engine, &payload));
        latencies.push(secs);
        if hash(response.as_bytes()) != first[idx as usize] {
            t.fail(format!(
                "request {idx}: in-process replay differs from the daemon"
            ));
        }
    }
    latencies
}

fn trace(seed: u64, first: &[u64], mean_latency: f64, report: &mut Report) {
    let plain = replay(seed, &mut Tracer::disabled(), first, &mut report.timed);
    let mut tr = Tracer::new();
    let traced = replay(seed, &mut tr, first, &mut report.timed);
    let ops = CYCLE as f64;
    let us = |name: &str| tr.total_ns(name) as f64 / 1e3 / ops;
    let parts = ["protocol", "resolve", "cache", "engine"];
    let l = &mut report.layers;
    for part in parts {
        l.insert(format!("serve.{part}_us"), us(&format!("serve.{part}")));
    }
    let inside: f64 = parts.iter().map(|p| us(&format!("serve.{p}"))).sum();
    l.insert("serve.transport_us".into(), mean_latency * 1e6 - inside);
    l.insert(
        "trace.overhead_ms".into(),
        (common::quantile(&traced, 0.5) - common::quantile(&plain, 0.5)) * 1e3,
    );
    crate::write_spans(&tr, "serve_mixed");
}
