//! Structured simulation telemetry: phase spans, round events, channel
//! saturation, and bandwidth profiles.
//!
//! The simulator's headline numbers ([`crate::RoundStats`]) answer *how much* an
//! algorithm communicated; telemetry answers *where* and *when*. Algorithms
//! open named, nestable **phase spans** around their sub-protocols, the
//! network runner emits a [`TraceEvent::RoundCompleted`] per synchronous
//! round, and sinks ([`Tracer`] implementations) consume the resulting
//! event stream:
//!
//! * [`NullTracer`] — discards everything (the default; a disabled
//!   [`Telemetry`] handle never even constructs events);
//! * [`CountingTracer`] — lock-free counters, for overhead-free assertions;
//! * [`CollectingTracer`] — buffers events in memory, for tests and for
//!   in-process analysis via [`build_phase_tree`];
//! * [`JsonlTracer`] — writes one JSON object per line, the interchange
//!   format read back by the `wdr-trace` report tool.
//!
//! # Phase accounting invariant
//!
//! Every round the simulator executes is attributed to the innermost open
//! span at the time (or to the trace root if none is open). Algorithms that
//! *pad* their round count to a worst-case schedule without simulating the
//! extra rounds (e.g. `bounded_distance_sssp` charging its full `h+1`-round
//! schedule) announce the padding with [`TraceEvent::PadRounds`]. With both
//! in place, the per-phase subtree rounds of [`build_phase_tree`] sum to
//! exactly the `RoundStats::rounds` an algorithm reports — a property the
//! test-suite checks end-to-end on `three_halves_diameter`.
//!
//! # Example
//!
//! Trace two primitives under named spans and break the rounds down per
//! phase (higher up the stack, `congest_algos::three_halves_diameter` does
//! exactly this around each of its sub-protocols):
//!
//! ```
//! use congest_sim::telemetry::{build_phase_tree, CollectingTracer, Telemetry};
//! use congest_sim::{primitives, SimConfig};
//! use congest_graph::generators;
//! use std::sync::Arc;
//!
//! # fn main() -> Result<(), congest_sim::SimError> {
//! let tracer = Arc::new(CollectingTracer::default());
//! let g = generators::grid(4, 4, 1);
//! let config =
//!     SimConfig::standard(g.n(), 1).with_telemetry(Telemetry::new(tracer.clone()));
//!
//! let (tree, tree_stats) = {
//!     let _span = config.telemetry.span("bfs_tree");
//!     primitives::bfs_tree(&g, 0, &config)?
//! };
//! let values: Vec<u128> = (0..16).collect();
//! let (_max, cast_stats) = {
//!     let _span = config.telemetry.span("converge_cast");
//!     primitives::converge_cast(&g, 0, &config, &tree, &values,
//!         primitives::Aggregate::Max)?
//! };
//!
//! let phases = build_phase_tree(&tracer.events());
//! assert_eq!(phases.children[0].name, "bfs_tree");
//! assert_eq!(phases.children[0].subtree().rounds, tree_stats.rounds);
//! assert_eq!(phases.children[1].subtree().rounds, cast_stats.rounds);
//! assert_eq!(phases.subtree().rounds, tree_stats.rounds + cast_stats.rounds);
//! # Ok(()) }
//! ```

use crate::faults::DropReason;
use crate::model::SimError;
use congest_graph::NodeId;
use serde::Serialize;
use std::collections::HashMap;
use std::fmt;
use std::io::Write;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// One structured event in a simulation trace.
///
/// Serialized as externally tagged JSON, one event per line (JSONL), e.g.
/// `{"RoundCompleted":{"round":3,"messages":12,"bits":96,"max_channel_bits":8}}`.
#[derive(Clone, Debug, PartialEq, Serialize)]
pub enum TraceEvent {
    /// A named phase span opened. Spans nest: a `PhaseStart` before the
    /// matching `PhaseEnd` of an outer span makes this phase its child.
    PhaseStart {
        /// Span name (e.g. `"three_halves/sample_bfs"`).
        name: String,
    },
    /// The innermost open phase span closed.
    PhaseEnd {
        /// Span name; must match the innermost open `PhaseStart`.
        name: String,
    },
    /// One synchronous round finished executing.
    RoundCompleted {
        /// Round number within the current network run (1-based).
        round: usize,
        /// Messages sent during this round.
        messages: u64,
        /// Bits sent during this round.
        bits: u64,
        /// The largest per-channel bit load of this round.
        max_channel_bits: u32,
    },
    /// An algorithm charged rounds to its schedule without simulating them
    /// (worst-case padding, e.g. the fixed `h+1`-round schedule of
    /// bounded-hop SSSP finishing early).
    PadRounds {
        /// Number of padded rounds.
        rounds: usize,
        /// What schedule the padding accounts for.
        reason: String,
    },
    /// A channel carried at least 90% of its per-round bit budget.
    ChannelSaturation {
        /// Round number (1-based).
        round: usize,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// Bits pushed through the channel this round.
        bits: u32,
        /// The per-channel budget.
        budget_bits: u32,
    },
    /// Summary of the per-channel load distribution of one network run
    /// (emitted when [`crate::SimConfig::with_channel_profile`] is set).
    ChannelProfile {
        /// Number of (channel, round) samples with at least one message.
        channel_rounds: u64,
        /// Median bits per active channel per round.
        p50_bits: u32,
        /// 95th-percentile bits per active channel per round.
        p95_bits: u32,
        /// Maximum bits per active channel per round.
        max_bits: u32,
        /// The heaviest directed edges by total bits, descending.
        hot_edges: Vec<HotEdge>,
    },
    /// A quantum search subroutine ran Grover iterations (bridged from
    /// `quantum-sim`'s `SearchTrace` by the caller).
    GroverIteration {
        /// Which search invocation (e.g. `"durr_hoyer/eccentricity"`).
        label: String,
        /// Grover iterations executed by this invocation.
        iterations: u64,
        /// Oracle queries charged by this invocation.
        oracle_queries: u64,
    },
    /// The fault model discarded a message (see [`crate::faults`]).
    MessageDropped {
        /// Delivery round the message was scheduled for (1-based).
        round: usize,
        /// Sender.
        from: NodeId,
        /// Intended receiver.
        to: NodeId,
        /// Charged size of the lost message.
        bits: u32,
        /// Why the fault model discarded it.
        reason: DropReason,
    },
    /// A node entered a crash window (see
    /// [`crate::faults::FaultPlan::with_crash`]).
    NodeCrashed {
        /// The crashed node.
        node: NodeId,
        /// First round (1-based) the node is down.
        round: usize,
    },
    /// A crashed node came back up (with its pre-crash state intact).
    NodeRecovered {
        /// The recovered node.
        node: NodeId,
        /// First round (1-based) the node is back up.
        round: usize,
    },
    /// A throttled link's per-round bit budget was exhausted and a message
    /// was discarded (see [`crate::faults::FaultPlan::with_throttle`]).
    LinkThrottled {
        /// Delivery round (1-based).
        round: usize,
        /// Sender.
        from: NodeId,
        /// Receiver.
        to: NodeId,
        /// The throttle's per-round budget in bits.
        budget_bits: u32,
    },
    /// The [`crate::RoundStats::message_log`] hit its cap and dropped its
    /// first record (emitted once per network; see
    /// [`crate::SimConfig::message_log_cap`]).
    MessageLogTruncated {
        /// Round in which the first record was lost (1-based).
        round: usize,
        /// The configured cap.
        cap: usize,
    },
    /// The simulation aborted with an error.
    SimFailed {
        /// The simulator error.
        error: SimError,
    },
}

/// One entry of [`TraceEvent::ChannelProfile`]'s hot-edge table.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize)]
pub struct HotEdge {
    /// Sender.
    pub from: NodeId,
    /// Receiver.
    pub to: NodeId,
    /// Total bits this directed edge carried over the run.
    pub bits: u64,
}

/// A sink consuming [`TraceEvent`]s.
///
/// Implementations must be cheap per call and internally synchronized: one
/// tracer may be shared (via [`Telemetry`] clones) across every phase of a
/// multi-phase algorithm.
pub trait Tracer: Send + Sync {
    /// Consumes one event.
    fn record(&self, event: &TraceEvent);

    /// Flushes any buffered output (no-op by default).
    fn flush(&self) {}
}

/// The tracer handle carried by [`crate::SimConfig`].
///
/// Cloning is cheap (an `Arc` clone); the default [`Telemetry::off`] carries
/// no tracer at all, so disabled telemetry never constructs an event — the
/// closures passed to [`Telemetry::emit_with`] are not even called.
#[derive(Clone, Default)]
pub struct Telemetry {
    tracer: Option<Arc<dyn Tracer>>,
}

impl fmt::Debug for Telemetry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Telemetry")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Telemetry {
    /// A disabled handle (the default): all emission is skipped.
    pub fn off() -> Telemetry {
        Telemetry { tracer: None }
    }

    /// A handle feeding `tracer`.
    pub fn new(tracer: Arc<dyn Tracer>) -> Telemetry {
        Telemetry {
            tracer: Some(tracer),
        }
    }

    /// `true` if events are being recorded.
    pub fn is_enabled(&self) -> bool {
        self.tracer.is_some()
    }

    /// Records the event built by `make` — which is only called (and its
    /// captures only touched) when a tracer is attached.
    pub fn emit_with(&self, make: impl FnOnce() -> TraceEvent) {
        if let Some(tracer) = &self.tracer {
            tracer.record(&make());
        }
    }

    /// Opens a named phase span; the span closes (emitting
    /// [`TraceEvent::PhaseEnd`]) when the returned guard drops.
    #[must_use = "dropping the guard immediately closes the span"]
    pub fn span(&self, name: &str) -> PhaseSpan {
        if let Some(tracer) = &self.tracer {
            tracer.record(&TraceEvent::PhaseStart {
                name: name.to_string(),
            });
            PhaseSpan {
                telemetry: self.clone(),
                name: Some(name.to_string()),
            }
        } else {
            PhaseSpan {
                telemetry: Telemetry::off(),
                name: None,
            }
        }
    }

    /// Flushes the underlying tracer.
    pub fn flush(&self) {
        if let Some(tracer) = &self.tracer {
            tracer.flush();
        }
    }
}

/// Guard for an open phase span; emits [`TraceEvent::PhaseEnd`] on drop.
#[derive(Debug)]
pub struct PhaseSpan {
    telemetry: Telemetry,
    name: Option<String>,
}

impl PhaseSpan {
    /// Closes the span now (equivalent to dropping it).
    pub fn end(self) {}
}

impl Drop for PhaseSpan {
    fn drop(&mut self) {
        if let Some(name) = self.name.take() {
            self.telemetry.emit_with(|| TraceEvent::PhaseEnd { name });
        }
    }
}

/// A tracer that discards every event.
///
/// [`Telemetry::off`] short-circuits before the sink, so the two are
/// behaviorally identical; `NullTracer` exists for code that must hand out
/// a real `Arc<dyn Tracer>`.
#[derive(Clone, Copy, Debug, Default)]
pub struct NullTracer;

impl Tracer for NullTracer {
    fn record(&self, _event: &TraceEvent) {}
}

/// Atomic counters over the event stream — cheap enough to leave on.
#[derive(Debug, Default)]
pub struct CountingTracer {
    events: AtomicU64,
    phases_started: AtomicU64,
    phases_ended: AtomicU64,
    rounds: AtomicU64,
    padded_rounds: AtomicU64,
    messages: AtomicU64,
    bits: AtomicU64,
    saturated_channel_rounds: AtomicU64,
    grover_iterations: AtomicU64,
    dropped_messages: AtomicU64,
    node_crashes: AtomicU64,
    throttled_messages: AtomicU64,
}

/// A point-in-time copy of a [`CountingTracer`]'s counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct CountingSnapshot {
    /// Total events recorded.
    pub events: u64,
    /// `PhaseStart` events.
    pub phases_started: u64,
    /// `PhaseEnd` events.
    pub phases_ended: u64,
    /// Rounds completed (count of `RoundCompleted` events).
    pub rounds: u64,
    /// Rounds charged via `PadRounds` events.
    pub padded_rounds: u64,
    /// Messages summed over `RoundCompleted` events.
    pub messages: u64,
    /// Bits summed over `RoundCompleted` events.
    pub bits: u64,
    /// `ChannelSaturation` events.
    pub saturated_channel_rounds: u64,
    /// Grover iterations summed over `GroverIteration` events.
    pub grover_iterations: u64,
    /// Messages the fault model discarded (`MessageDropped` plus
    /// `LinkThrottled` events).
    pub dropped_messages: u64,
    /// `NodeCrashed` events.
    pub node_crashes: u64,
    /// `LinkThrottled` events.
    pub throttled_messages: u64,
}

impl CountingTracer {
    /// Reads all counters.
    pub fn snapshot(&self) -> CountingSnapshot {
        CountingSnapshot {
            events: self.events.load(Ordering::Relaxed),
            phases_started: self.phases_started.load(Ordering::Relaxed),
            phases_ended: self.phases_ended.load(Ordering::Relaxed),
            rounds: self.rounds.load(Ordering::Relaxed),
            padded_rounds: self.padded_rounds.load(Ordering::Relaxed),
            messages: self.messages.load(Ordering::Relaxed),
            bits: self.bits.load(Ordering::Relaxed),
            saturated_channel_rounds: self.saturated_channel_rounds.load(Ordering::Relaxed),
            grover_iterations: self.grover_iterations.load(Ordering::Relaxed),
            dropped_messages: self.dropped_messages.load(Ordering::Relaxed),
            node_crashes: self.node_crashes.load(Ordering::Relaxed),
            throttled_messages: self.throttled_messages.load(Ordering::Relaxed),
        }
    }
}

impl Tracer for CountingTracer {
    fn record(&self, event: &TraceEvent) {
        self.events.fetch_add(1, Ordering::Relaxed);
        match event {
            TraceEvent::PhaseStart { .. } => {
                self.phases_started.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::PhaseEnd { .. } => {
                self.phases_ended.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::RoundCompleted { messages, bits, .. } => {
                self.rounds.fetch_add(1, Ordering::Relaxed);
                self.messages.fetch_add(*messages, Ordering::Relaxed);
                self.bits.fetch_add(*bits, Ordering::Relaxed);
            }
            TraceEvent::PadRounds { rounds, .. } => {
                self.padded_rounds
                    .fetch_add(*rounds as u64, Ordering::Relaxed);
            }
            TraceEvent::ChannelSaturation { .. } => {
                self.saturated_channel_rounds
                    .fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::GroverIteration { iterations, .. } => {
                self.grover_iterations
                    .fetch_add(*iterations, Ordering::Relaxed);
            }
            TraceEvent::MessageDropped { .. } => {
                self.dropped_messages.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::NodeCrashed { .. } => {
                self.node_crashes.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::LinkThrottled { .. } => {
                self.dropped_messages.fetch_add(1, Ordering::Relaxed);
                self.throttled_messages.fetch_add(1, Ordering::Relaxed);
            }
            TraceEvent::ChannelProfile { .. }
            | TraceEvent::NodeRecovered { .. }
            | TraceEvent::MessageLogTruncated { .. }
            | TraceEvent::SimFailed { .. } => {}
        }
    }
}

/// Buffers every event in memory, in order.
#[derive(Debug, Default)]
pub struct CollectingTracer {
    events: Mutex<Vec<TraceEvent>>,
}

impl CollectingTracer {
    /// A copy of the events recorded so far.
    pub fn events(&self) -> Vec<TraceEvent> {
        self.events
            .lock()
            .expect("collecting tracer poisoned")
            .clone()
    }

    /// Drops all recorded events.
    pub fn clear(&self) {
        self.events
            .lock()
            .expect("collecting tracer poisoned")
            .clear();
    }
}

impl Tracer for CollectingTracer {
    fn record(&self, event: &TraceEvent) {
        self.events
            .lock()
            .expect("collecting tracer poisoned")
            .push(event.clone());
    }
}

/// Writes each event as one line of JSON (the JSONL interchange format read
/// by `wdr-trace`).
pub struct JsonlTracer {
    out: Mutex<Box<dyn Write + Send>>,
}

impl fmt::Debug for JsonlTracer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JsonlTracer").finish_non_exhaustive()
    }
}

impl JsonlTracer {
    /// Wraps an arbitrary writer.
    pub fn new(out: Box<dyn Write + Send>) -> JsonlTracer {
        JsonlTracer {
            out: Mutex::new(out),
        }
    }

    /// Creates (truncating) the file at `path` and writes the trace there,
    /// buffered.
    ///
    /// # Errors
    ///
    /// Propagates file-creation errors.
    pub fn create(path: &std::path::Path) -> std::io::Result<JsonlTracer> {
        let file = std::fs::File::create(path)?;
        Ok(JsonlTracer::new(Box::new(std::io::BufWriter::new(file))))
    }
}

impl Tracer for JsonlTracer {
    fn record(&self, event: &TraceEvent) {
        let line = event.to_json();
        let mut out = self.out.lock().expect("jsonl tracer poisoned");
        // I/O errors cannot be surfaced through the infallible trait; a
        // truncated trace is detectable downstream, so swallow them here.
        let _ = writeln!(out, "{line}");
    }

    fn flush(&self) {
        let _ = self.out.lock().expect("jsonl tracer poisoned").flush();
    }
}

/// Aggregate communication volume attributed to one phase (or trace root).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Serialize)]
pub struct PhaseTotals {
    /// Rounds (simulated plus padded).
    pub rounds: usize,
    /// Messages sent.
    pub messages: u64,
    /// Bits sent.
    pub bits: u64,
    /// Peak per-channel bits in any single round.
    pub max_channel_bits: u32,
}

impl PhaseTotals {
    fn add(&mut self, other: &PhaseTotals) {
        self.rounds += other.rounds;
        self.messages += other.messages;
        self.bits += other.bits;
        self.max_channel_bits = self.max_channel_bits.max(other.max_channel_bits);
    }
}

/// One node of the phase tree produced by [`build_phase_tree`].
#[derive(Clone, Debug, Default, PartialEq, Serialize)]
pub struct PhaseNode {
    /// Span name (`"trace"` for the synthetic root).
    pub name: String,
    /// Volume attributed directly to this span (excluding children).
    pub own: PhaseTotals,
    /// Nested spans, in order of opening.
    pub children: Vec<PhaseNode>,
}

impl PhaseNode {
    fn named(name: &str) -> PhaseNode {
        PhaseNode {
            name: name.to_string(),
            ..PhaseNode::default()
        }
    }

    /// Totals over this span and all nested spans.
    pub fn subtree(&self) -> PhaseTotals {
        let mut totals = self.own;
        for child in &self.children {
            totals.add(&child.subtree());
        }
        totals
    }

    /// Depth-first traversal yielding `(depth, node)` pairs, self first.
    pub fn walk(&self) -> Vec<(usize, &PhaseNode)> {
        let mut out = Vec::new();
        self.walk_into(0, &mut out);
        out
    }

    fn walk_into<'a>(&'a self, depth: usize, out: &mut Vec<(usize, &'a PhaseNode)>) {
        out.push((depth, self));
        for child in &self.children {
            child.walk_into(depth + 1, out);
        }
    }
}

/// Folds an event stream into a phase tree.
///
/// Rounds (and padding) are attributed to the innermost span open at the
/// time; events outside any span accrue to the synthetic `"trace"` root.
/// Unbalanced spans are tolerated: a stray `PhaseEnd` is ignored and spans
/// left open at the end of the stream are closed implicitly.
pub fn build_phase_tree(events: &[TraceEvent]) -> PhaseNode {
    // `stack` holds the chain root → … → innermost; nodes are re-attached to
    // their parents as their spans close.
    let mut stack: Vec<PhaseNode> = vec![PhaseNode::named("trace")];
    for event in events {
        match event {
            TraceEvent::PhaseStart { name } => {
                stack.push(PhaseNode::named(name));
            }
            TraceEvent::PhaseEnd { .. } => {
                if stack.len() > 1 {
                    let done = stack.pop().expect("stack non-empty");
                    stack.last_mut().expect("root remains").children.push(done);
                }
            }
            TraceEvent::RoundCompleted {
                messages,
                bits,
                max_channel_bits,
                ..
            } => {
                let own = &mut stack.last_mut().expect("root remains").own;
                own.rounds += 1;
                own.messages += messages;
                own.bits += bits;
                own.max_channel_bits = own.max_channel_bits.max(*max_channel_bits);
            }
            TraceEvent::PadRounds { rounds, .. } => {
                stack.last_mut().expect("root remains").own.rounds += rounds;
            }
            TraceEvent::ChannelSaturation { .. }
            | TraceEvent::ChannelProfile { .. }
            | TraceEvent::GroverIteration { .. }
            | TraceEvent::MessageDropped { .. }
            | TraceEvent::NodeCrashed { .. }
            | TraceEvent::NodeRecovered { .. }
            | TraceEvent::LinkThrottled { .. }
            | TraceEvent::MessageLogTruncated { .. }
            | TraceEvent::SimFailed { .. } => {}
        }
    }
    while stack.len() > 1 {
        let done = stack.pop().expect("stack non-empty");
        stack.last_mut().expect("root remains").children.push(done);
    }
    stack.pop().expect("root remains")
}

/// Streaming per-channel load histogram, maintained by the network runner
/// when [`crate::SimConfig::with_channel_profile`] is set.
///
/// One *sample* is the total bit load of one directed channel in one round
/// in which it carried at least one message; loads never exceed the
/// bandwidth budget (the simulator rejects overloads), so the histogram is
/// exact with `budget + 1` buckets — no reservoir, no `message_log`.
#[derive(Clone, Debug)]
pub struct BandwidthProfile {
    counts: Vec<u64>,
    per_edge: HashMap<(NodeId, NodeId), u64>,
    channel_rounds: u64,
}

impl BandwidthProfile {
    /// An empty profile for channels with the given bit budget.
    pub fn new(budget_bits: u32) -> BandwidthProfile {
        BandwidthProfile {
            counts: vec![0; budget_bits as usize + 1],
            per_edge: HashMap::new(),
            channel_rounds: 0,
        }
    }

    /// Records that channel `from → to` carried `bits` in some round.
    pub fn record(&mut self, from: NodeId, to: NodeId, bits: u32) {
        let idx = (bits as usize).min(self.counts.len() - 1);
        self.counts[idx] += 1;
        *self.per_edge.entry((from, to)).or_insert(0) += u64::from(bits);
        self.channel_rounds += 1;
    }

    /// Forgets every sample, keeping the buffers' capacity.
    pub(crate) fn clear(&mut self) {
        self.counts.fill(0);
        self.per_edge.clear();
        self.channel_rounds = 0;
    }

    /// Number of recorded samples.
    pub fn channel_rounds(&self) -> u64 {
        self.channel_rounds
    }

    /// The `q`-quantile (`0.0 ..= 1.0`) of bits per active channel-round.
    pub fn percentile(&self, q: f64) -> u32 {
        if self.channel_rounds == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * self.channel_rounds as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (bits, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return bits as u32;
            }
        }
        (self.counts.len() - 1) as u32
    }

    /// The maximum observed bits per channel per round.
    pub fn max_bits(&self) -> u32 {
        self.counts
            .iter()
            .rposition(|&c| c > 0)
            .map(|bits| bits as u32)
            .unwrap_or(0)
    }

    /// The `k` directed edges with the largest total bit volume, descending
    /// (ties broken by `(from, to)` for determinism).
    pub fn hottest_edges(&self, k: usize) -> Vec<HotEdge> {
        let mut edges: Vec<HotEdge> = self
            .per_edge
            .iter()
            .map(|(&(from, to), &bits)| HotEdge { from, to, bits })
            .collect();
        edges.sort_by(|a, b| {
            b.bits
                .cmp(&a.bits)
                .then_with(|| (a.from, a.to).cmp(&(b.from, b.to)))
        });
        edges.truncate(k);
        edges
    }

    /// Renders the profile as a [`TraceEvent::ChannelProfile`] summary with
    /// the `top_k` hottest edges.
    pub fn summary(&self, top_k: usize) -> TraceEvent {
        TraceEvent::ChannelProfile {
            channel_rounds: self.channel_rounds,
            p50_bits: self.percentile(0.50),
            p95_bits: self.percentile(0.95),
            max_bits: self.max_bits(),
            hot_edges: self.hottest_edges(top_k),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round(messages: u64, bits: u64, peak: u32) -> TraceEvent {
        TraceEvent::RoundCompleted {
            round: 1,
            messages,
            bits,
            max_channel_bits: peak,
        }
    }

    #[test]
    fn span_guard_emits_balanced_events() {
        let tracer = Arc::new(CollectingTracer::default());
        let telemetry = Telemetry::new(tracer.clone());
        {
            let _outer = telemetry.span("outer");
            let _inner = telemetry.span("inner");
        }
        let events = tracer.events();
        assert_eq!(
            events,
            vec![
                TraceEvent::PhaseStart {
                    name: "outer".into()
                },
                TraceEvent::PhaseStart {
                    name: "inner".into()
                },
                TraceEvent::PhaseEnd {
                    name: "inner".into()
                },
                TraceEvent::PhaseEnd {
                    name: "outer".into()
                },
            ]
        );
    }

    #[test]
    fn disabled_telemetry_never_builds_events() {
        let telemetry = Telemetry::off();
        let mut built = false;
        telemetry.emit_with(|| {
            built = true;
            round(0, 0, 0)
        });
        assert!(!built);
        assert!(!telemetry.is_enabled());
        let _span = telemetry.span("ignored");
    }

    #[test]
    fn phase_tree_attributes_rounds_to_innermost_span() {
        let events = vec![
            round(1, 8, 8), // before any span: root
            TraceEvent::PhaseStart { name: "a".into() },
            round(2, 16, 16),
            TraceEvent::PhaseStart { name: "b".into() },
            round(3, 24, 24),
            round(1, 4, 4),
            TraceEvent::PadRounds {
                rounds: 5,
                reason: "schedule".into(),
            },
            TraceEvent::PhaseEnd { name: "b".into() },
            round(1, 1, 1),
            TraceEvent::PhaseEnd { name: "a".into() },
        ];
        let tree = build_phase_tree(&events);
        assert_eq!(tree.own.rounds, 1);
        let a = &tree.children[0];
        assert_eq!(a.name, "a");
        assert_eq!(a.own.rounds, 2);
        let b = &a.children[0];
        assert_eq!(b.name, "b");
        assert_eq!(b.own.rounds, 7); // 2 simulated + 5 padded
        assert_eq!(b.own.messages, 4);
        assert_eq!(tree.subtree().rounds, 1 + 2 + 7);
        assert_eq!(tree.subtree().messages, 8);
        assert_eq!(tree.subtree().max_channel_bits, 24);
    }

    #[test]
    fn phase_tree_tolerates_unbalanced_spans() {
        let stray_end = vec![TraceEvent::PhaseEnd { name: "x".into() }, round(1, 1, 1)];
        assert_eq!(build_phase_tree(&stray_end).own.rounds, 1);

        let left_open = vec![TraceEvent::PhaseStart { name: "y".into() }, round(1, 1, 1)];
        let tree = build_phase_tree(&left_open);
        assert_eq!(tree.children.len(), 1);
        assert_eq!(tree.children[0].own.rounds, 1);
    }

    #[test]
    fn counting_tracer_totals() {
        let tracer = CountingTracer::default();
        tracer.record(&TraceEvent::PhaseStart { name: "p".into() });
        tracer.record(&round(3, 30, 10));
        tracer.record(&round(2, 20, 12));
        tracer.record(&TraceEvent::PadRounds {
            rounds: 4,
            reason: "pad".into(),
        });
        tracer.record(&TraceEvent::ChannelSaturation {
            round: 1,
            from: 0,
            to: 1,
            bits: 30,
            budget_bits: 32,
        });
        tracer.record(&TraceEvent::GroverIteration {
            label: "s".into(),
            iterations: 17,
            oracle_queries: 17,
        });
        tracer.record(&TraceEvent::PhaseEnd { name: "p".into() });
        let snap = tracer.snapshot();
        assert_eq!(snap.events, 7);
        assert_eq!(snap.phases_started, 1);
        assert_eq!(snap.phases_ended, 1);
        assert_eq!(snap.rounds, 2);
        assert_eq!(snap.padded_rounds, 4);
        assert_eq!(snap.messages, 5);
        assert_eq!(snap.bits, 50);
        assert_eq!(snap.saturated_channel_rounds, 1);
        assert_eq!(snap.grover_iterations, 17);
    }

    #[test]
    fn jsonl_tracer_writes_one_event_per_line() {
        use std::sync::atomic::AtomicBool;

        // A shared Vec<u8> sink.
        #[derive(Clone, Default)]
        struct Sink(Arc<Mutex<Vec<u8>>>, Arc<AtomicBool>);
        impl Write for Sink {
            fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
                self.0.lock().unwrap().extend_from_slice(buf);
                Ok(buf.len())
            }
            fn flush(&mut self) -> std::io::Result<()> {
                self.1.store(true, Ordering::Relaxed);
                Ok(())
            }
        }

        let sink = Sink::default();
        let tracer = JsonlTracer::new(Box::new(sink.clone()));
        tracer.record(&TraceEvent::PhaseStart { name: "p".into() });
        tracer.record(&round(1, 8, 8));
        tracer.flush();
        assert!(sink.1.load(Ordering::Relaxed));
        let text = String::from_utf8(sink.0.lock().unwrap().clone()).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], r#"{"PhaseStart":{"name":"p"}}"#);
        assert_eq!(
            lines[1],
            r#"{"RoundCompleted":{"round":1,"messages":1,"bits":8,"max_channel_bits":8}}"#
        );
    }

    #[test]
    fn bandwidth_profile_percentiles_and_hot_edges() {
        let mut profile = BandwidthProfile::new(32);
        // 18 light samples on edge (0,1), 2 heavy ones on (2,3).
        for _ in 0..18 {
            profile.record(0, 1, 4);
        }
        profile.record(2, 3, 30);
        profile.record(2, 3, 32);
        assert_eq!(profile.channel_rounds(), 20);
        assert_eq!(profile.percentile(0.50), 4);
        assert_eq!(profile.percentile(0.95), 30);
        assert_eq!(profile.max_bits(), 32);
        let hot = profile.hottest_edges(2);
        assert_eq!(
            hot[0],
            HotEdge {
                from: 0,
                to: 1,
                bits: 72
            }
        );
        assert_eq!(
            hot[1],
            HotEdge {
                from: 2,
                to: 3,
                bits: 62
            }
        );
        match profile.summary(1) {
            TraceEvent::ChannelProfile {
                channel_rounds,
                hot_edges,
                max_bits,
                ..
            } => {
                assert_eq!(channel_rounds, 20);
                assert_eq!(hot_edges.len(), 1);
                assert_eq!(max_bits, 32);
            }
            other => panic!("unexpected summary {other:?}"),
        }
    }

    #[test]
    fn empty_profile_is_all_zero() {
        let profile = BandwidthProfile::new(16);
        assert_eq!(profile.percentile(0.5), 0);
        assert_eq!(profile.max_bits(), 0);
        assert!(profile.hottest_edges(3).is_empty());
    }
}
