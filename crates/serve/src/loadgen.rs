//! Closed-loop load driver for a running `wdr-serve` daemon.
//!
//! Each client thread owns one connection and issues the next request the
//! moment the previous response lands — classic closed-loop load, so
//! offered concurrency equals the client count. Clients draw request
//! indices from one shared atomic counter, which makes the request *mix*
//! (which seed/algorithm each index maps to) deterministic for a given
//! `(seed, mix)` regardless of thread interleaving.
//!
//! Two mixes bracket the cache's behavior:
//!
//! * [`MixKind::Cold`] — every request carries a fresh scenario seed
//!   *and* the `no_cache` flag. The bypass matters: the cache is
//!   content-addressed, and deterministic scenario families (a path is a
//!   path) collide across seeds, so unique seeds alone are not cache-cold.
//!   With the bypass, every request computes and throughput measures raw
//!   kernel + graph-build work.
//! * [`MixKind::Repeat`] — indices cycle through a fixed 8-entry working
//!   set, so steady state is nearly all cache hits.
//!
//! Rejected (backpressure) responses are retried after a short pause —
//! closed-loop clients don't drop work — and counted, so the report shows
//! how hard the server pushed back.

use crate::error::ServeError;
use crate::protocol::{Algorithm, Client, GraphSource, Query, Request, RequestKind};
use congest_graph::digest::splitmix64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The request mix a load run drives.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixKind {
    /// Unique scenario seed per request with `no_cache` set: every
    /// request computes — compute-bound by construction.
    Cold,
    /// A fixed 8-entry working set: cache-hot after warm-up.
    Repeat,
}

impl MixKind {
    /// The stable name used in reports and on the CLI.
    pub fn name(self) -> &'static str {
        match self {
            MixKind::Cold => "cold",
            MixKind::Repeat => "repeat",
        }
    }

    /// Parses a CLI name.
    ///
    /// # Errors
    ///
    /// [`ServeError::BadRequest`] for anything but `cold`/`repeat`.
    pub fn parse(name: &str) -> Result<MixKind, ServeError> {
        match name {
            "cold" => Ok(MixKind::Cold),
            "repeat" => Ok(MixKind::Repeat),
            other => Err(ServeError::BadRequest(format!(
                "unknown mix `{other}` (expected `cold` or `repeat`)"
            ))),
        }
    }
}

/// Tunables for one load run.
#[derive(Clone, Debug)]
pub struct LoadConfig {
    /// Server address (`host:port`).
    pub addr: String,
    /// Closed-loop client threads.
    pub clients: usize,
    /// Total requests across all clients.
    pub requests: usize,
    /// Which request mix to drive.
    pub mix: MixKind,
    /// Base seed for the deterministic request stream.
    pub seed: u64,
    /// Scenario node-count override (`None` keeps each spec's own `n`).
    pub n: Option<usize>,
    /// Optional wall-clock cutoff; the run stops early once exceeded.
    pub deadline: Option<Duration>,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            addr: String::new(),
            clients: 4,
            requests: 200,
            mix: MixKind::Repeat,
            seed: 42,
            n: None,
            deadline: None,
        }
    }
}

/// What one load run measured.
#[derive(Clone, Debug)]
pub struct LoadReport {
    /// The driven mix.
    pub mix: MixKind,
    /// Client threads used.
    pub clients: usize,
    /// Successfully answered requests.
    pub completed: usize,
    /// Backpressure responses absorbed (each was retried).
    pub rejected: usize,
    /// Transport or server errors (requests abandoned).
    pub errors: usize,
    /// Wall-clock seconds for the whole run.
    pub wall_secs: f64,
    /// Completed requests per second.
    pub qps: f64,
    /// Median client-observed latency, microseconds.
    pub p50_us: u64,
    /// 99th-percentile client-observed latency, microseconds.
    pub p99_us: u64,
    /// Server-side cache hits over the run (from `stats`).
    pub hits: u64,
    /// Server-side cache misses (led computations) over the run.
    pub misses: u64,
    /// Queries coalesced onto in-flight computations over the run.
    pub coalesced: u64,
    /// `hits / (hits + misses)`; `0.0` when no cacheable traffic ran.
    pub hit_rate: f64,
}

impl LoadReport {
    /// Renders the report as one sorted-key JSON object.
    pub fn to_json(&self) -> String {
        format!(
            "{{\"clients\":{},\"coalesced\":{},\"completed\":{},\"errors\":{},\
             \"hit_rate\":{:.4},\"hits\":{},\"misses\":{},\"mix\":\"{}\",\
             \"p50_us\":{},\"p99_us\":{},\"qps\":{:.2},\"rejected\":{},\
             \"wall_secs\":{:.3}}}",
            self.clients,
            self.coalesced,
            self.completed,
            self.errors,
            self.hit_rate,
            self.hits,
            self.misses,
            self.mix.name(),
            self.p50_us,
            self.p99_us,
            self.qps,
            self.rejected,
            self.wall_secs
        )
    }
}

/// Deterministically maps request index `idx` to its query.
fn query_for(mix: MixKind, base_seed: u64, n: Option<usize>, idx: u64) -> Query {
    match mix {
        MixKind::Cold => {
            // A fresh seed every request, and bypass the cache: identical
            // graphs from different seeds would otherwise share entries.
            let mut state = base_seed ^ idx;
            let scenario = splitmix64(&mut state);
            let algorithm = match idx % 4 {
                0 => Algorithm::Extremes,
                1 => Algorithm::Eccentricities,
                2 => Algorithm::Diameter,
                _ => Algorithm::Radius,
            };
            Query {
                algorithm,
                source: GraphSource::Scenario { seed: scenario, n },
                no_cache: true,
            }
        }
        MixKind::Repeat => {
            // A fixed working set of 4 graphs × 2 algorithms.
            let slot = idx % 8;
            let scenario = base_seed.wrapping_add(slot / 2);
            let algorithm = if slot.is_multiple_of(2) {
                Algorithm::Extremes
            } else {
                Algorithm::Eccentricities
            };
            Query {
                algorithm,
                source: GraphSource::Scenario { seed: scenario, n },
                no_cache: false,
            }
        }
    }
}

struct ClientTally {
    latencies_us: Vec<u64>,
    completed: usize,
    rejected: usize,
    errors: usize,
}

fn client_loop(
    addr: &str,
    mix: MixKind,
    base_seed: u64,
    n: Option<usize>,
    total: usize,
    counter: &AtomicU64,
    deadline: Option<Instant>,
) -> Result<ClientTally, ServeError> {
    let mut client = Client::connect(addr)?;
    let mut tally = ClientTally {
        latencies_us: Vec::with_capacity(total / 2 + 1),
        completed: 0,
        rejected: 0,
        errors: 0,
    };
    loop {
        let idx = counter.fetch_add(1, Ordering::Relaxed);
        if idx >= total as u64 {
            return Ok(tally);
        }
        if let Some(deadline) = deadline {
            if Instant::now() >= deadline {
                return Ok(tally);
            }
        }
        let request = Request {
            id: idx,
            kind: RequestKind::Query(query_for(mix, base_seed, n, idx)),
        };
        // Closed loop: retry rejected (backpressure) responses, bounded
        // so a wedged server cannot hang the driver forever.
        let mut attempts = 0usize;
        loop {
            let started = Instant::now();
            let response = client.call(&request)?;
            let status = response
                .get("status")
                .and_then(serde_json::Value::as_str)
                .unwrap_or("error");
            match status {
                "ok" => {
                    tally
                        .latencies_us
                        .push(started.elapsed().as_micros() as u64);
                    tally.completed += 1;
                    break;
                }
                "rejected" => {
                    tally.rejected += 1;
                    attempts += 1;
                    if attempts >= 1000 {
                        tally.errors += 1;
                        break;
                    }
                    std::thread::sleep(Duration::from_micros(200));
                }
                _ => {
                    tally.errors += 1;
                    break;
                }
            }
        }
    }
}

/// Reads `serve.{metric}` out of a `stats` response.
fn stat(metrics: &[serde_json::Value], name: &str) -> f64 {
    metrics
        .iter()
        .filter_map(serde_json::Value::as_array)
        .find(|pair| pair.first().and_then(serde_json::Value::as_str) == Some(name))
        .and_then(|pair| pair.get(1))
        .and_then(serde_json::Value::as_f64)
        .unwrap_or(0.0)
}

/// Drives one load run against `config.addr` and reports what happened.
///
/// Cache counters are measured server-side as a before/after delta via
/// `stats` requests, so concurrent runs against a shared daemon should be
/// avoided (the CLI and E10 both own their daemon).
///
/// # Errors
///
/// Connection failures; per-request errors are *counted*, not returned.
pub fn run(config: &LoadConfig) -> Result<LoadReport, ServeError> {
    let before = fetch_cache_counters(&config.addr)?;
    let counter = Arc::new(AtomicU64::new(0));
    let deadline = config.deadline.map(|d| Instant::now() + d);
    let started = Instant::now();
    let mut joins = Vec::with_capacity(config.clients.max(1));
    for _ in 0..config.clients.max(1) {
        let addr = config.addr.clone();
        let counter = Arc::clone(&counter);
        let (mix, seed, n, total) = (config.mix, config.seed, config.n, config.requests);
        joins.push(std::thread::spawn(move || {
            client_loop(&addr, mix, seed, n, total, &counter, deadline)
        }));
    }
    let mut latencies = Vec::new();
    let mut completed = 0usize;
    let mut rejected = 0usize;
    let mut errors = 0usize;
    for join in joins {
        match join.join().expect("load client panicked") {
            Ok(tally) => {
                latencies.extend(tally.latencies_us);
                completed += tally.completed;
                rejected += tally.rejected;
                errors += tally.errors;
            }
            Err(_) => errors += 1,
        }
    }
    let wall_secs = started.elapsed().as_secs_f64().max(1e-9);
    latencies.sort_unstable();
    let after = fetch_cache_counters(&config.addr)?;
    let hits = after.0.saturating_sub(before.0);
    let misses = after.1.saturating_sub(before.1);
    let coalesced = after.2.saturating_sub(before.2);
    let cacheable = hits + misses;
    Ok(LoadReport {
        mix: config.mix,
        clients: config.clients.max(1),
        completed,
        rejected,
        errors,
        wall_secs,
        qps: completed as f64 / wall_secs,
        p50_us: percentile(&latencies, 50),
        p99_us: percentile(&latencies, 99),
        hits,
        misses,
        coalesced,
        hit_rate: if cacheable == 0 {
            0.0
        } else {
            hits as f64 / cacheable as f64
        },
    })
}

fn fetch_cache_counters(addr: &str) -> Result<(u64, u64, u64), ServeError> {
    let mut client = Client::connect(addr)?;
    let stats = client.call(&Request {
        id: 0,
        kind: RequestKind::Stats,
    })?;
    let metrics = stats
        .get("result")
        .and_then(|r| r.get("metrics"))
        .and_then(serde_json::Value::as_array)
        .ok_or_else(|| ServeError::InvalidJson("stats response without metrics".to_string()))?;
    Ok((
        stat(metrics, "serve.cache.hits") as u64,
        stat(metrics, "serve.cache.misses") as u64,
        stat(metrics, "serve.cache.coalesced") as u64,
    ))
}

/// Exact percentile by nearest-rank on a sorted slice (`0` when empty).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (sorted.len() as u64 - 1) * pct / 100;
    sorted[rank as usize]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_are_deterministic_and_shaped() {
        // Cold: no two of the first 64 requests share a cache key.
        let mut seen = std::collections::BTreeSet::new();
        for idx in 0..64 {
            let q = query_for(MixKind::Cold, 7, Some(32), idx);
            let GraphSource::Scenario { seed, .. } = q.source else {
                panic!("cold mix uses scenario sources");
            };
            assert!(seen.insert((seed, q.algorithm.name())), "idx {idx} repeats");
            assert!(q.no_cache, "cold mix bypasses the cache");
            assert_eq!(
                q,
                query_for(MixKind::Cold, 7, Some(32), idx),
                "deterministic"
            );
        }
        // Repeat: exactly 8 distinct (seed, algorithm) pairs.
        let distinct: std::collections::BTreeSet<_> = (0..64)
            .map(|idx| {
                let q = query_for(MixKind::Repeat, 7, None, idx);
                let GraphSource::Scenario { seed, .. } = q.source else {
                    panic!("repeat mix uses scenario sources");
                };
                (seed, q.algorithm.name())
            })
            .collect();
        assert_eq!(distinct.len(), 8);
    }

    #[test]
    fn percentiles_are_nearest_rank() {
        assert_eq!(percentile(&[], 99), 0);
        assert_eq!(percentile(&[5], 50), 5);
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50), 50);
        assert_eq!(percentile(&v, 99), 99);
        assert_eq!(percentile(&v, 100), 100);
    }

    #[test]
    fn report_json_has_sorted_keys() {
        let report = LoadReport {
            mix: MixKind::Repeat,
            clients: 2,
            completed: 10,
            rejected: 1,
            errors: 0,
            wall_secs: 0.5,
            qps: 20.0,
            p50_us: 100,
            p99_us: 900,
            hits: 8,
            misses: 2,
            coalesced: 0,
            hit_rate: 0.8,
        };
        let v = serde_json::from_str(&report.to_json()).unwrap();
        let keys: Vec<_> = v.as_object().unwrap().keys().cloned().collect();
        let mut sorted = keys.clone();
        sorted.sort();
        assert_eq!(keys, sorted);
        assert_eq!(
            v.get("mix").and_then(serde_json::Value::as_str),
            Some("repeat")
        );
        assert_eq!(v.get("qps").and_then(serde_json::Value::as_f64), Some(20.0));
    }
}
