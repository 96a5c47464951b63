//! [`Telemetry`]: the per-engine phase-latency registry.
//!
//! One `Telemetry` owns a [`Histogram`] per [`Phase`] — the fixed set
//! of hot-path stages the engines and the network front end time — and
//! the [`TraceStore`] its requests' span trees file into. Recording is a
//! relaxed atomic add ([`Histogram::record`]).
//!
//! A timed region is one [`PhaseGuard`] ([`Telemetry::start`]): when it
//! drops it records the phase histogram and, when a trace is active on
//! the thread, files a span named [`Phase::name`] — so every phase
//! reaches `STATS` and `TRACE` from one line of code.

use std::sync::Arc;
use std::time::Instant;

use crate::histogram::{Histogram, HistogramSnapshot};
use crate::trace::{SpanGuard, TraceId, TraceReport, TraceRoot, TraceStore};
use crate::{DEFAULT_TRACE_SAMPLE_EVERY, TRACE_BUFFER_CAPACITY};

/// One instrumented hot-path stage. The set is closed on purpose: a
/// fixed enum indexes a fixed histogram array (no hashing, no locking
/// on the record path) and gives the wire codec a strict name set.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Phase {
    /// Commit: acquiring the snapshot (stripe/shard read locks + clone).
    CommitSnapshot,
    /// Commit: the first-committer-wins WAL overlap scan.
    CommitValidate,
    /// Commit: one framed record append into the durable segment
    /// (buffered write, fsync excluded).
    CommitWalAppend,
    /// Commit: the fsync making appended records durable.
    CommitFsync,
    /// Commit: stripe/shard write-lock hold time (validate through
    /// install).
    CommitLockHold,
    /// 2PC: one participant's prepare append.
    TwopcPrepare,
    /// 2PC: one participant's resolve append + apply.
    TwopcResolve,
    /// 2PC: one participant's fsync (both phases).
    TwopcParticipantFsync,
    /// View maintenance: collecting the committed deltas since the
    /// window cursor.
    ViewDrain,
    /// View maintenance: propagating and folding drained deltas into
    /// the window.
    ViewDeltaFold,
    /// View maintenance: a whole-base lens `get` (first read, topology
    /// change, or escape hatch).
    ViewRebuild,
    /// Net: decoding one CRC frame out of a connection's input buffer.
    NetFrameDecode,
    /// Net: a complete request frame waiting for a pool worker.
    NetQueueWait,
    /// Net: executing the request against the engine.
    NetHandler,
    /// Net: writing buffered response bytes back to the socket.
    NetResponseWrite,
    /// Subscriptions: draining a view's committed deltas past one
    /// subscriber cursor (the O(delta) fan-out collect).
    SubDrain,
    /// Subscriptions: encoding + writing one `PUSH` frame into a
    /// subscriber connection's bounded output buffer.
    NetPushWrite,
    /// Replication: one shipping pass's fetch side — manifest +
    /// mirroring newly appended segment/checkpoint bytes from the
    /// primary's WAL source.
    ReplShip,
    /// Replication: decoding newly complete records and applying their
    /// settled transactions to the replica's serving engine.
    ReplApply,
}

impl Phase {
    /// Every phase, in declaration (and wire) order.
    pub const ALL: [Phase; 19] = [
        Phase::CommitSnapshot,
        Phase::CommitValidate,
        Phase::CommitWalAppend,
        Phase::CommitFsync,
        Phase::CommitLockHold,
        Phase::TwopcPrepare,
        Phase::TwopcResolve,
        Phase::TwopcParticipantFsync,
        Phase::ViewDrain,
        Phase::ViewDeltaFold,
        Phase::ViewRebuild,
        Phase::NetFrameDecode,
        Phase::NetQueueWait,
        Phase::NetHandler,
        Phase::NetResponseWrite,
        Phase::SubDrain,
        Phase::NetPushWrite,
        Phase::ReplShip,
        Phase::ReplApply,
    ];

    /// The phase's stable wire/exposition name.
    pub fn name(self) -> &'static str {
        match self {
            Phase::CommitSnapshot => "commit_snapshot_acquire",
            Phase::CommitValidate => "commit_fcw_validate",
            Phase::CommitWalAppend => "commit_wal_append",
            Phase::CommitFsync => "commit_fsync",
            Phase::CommitLockHold => "commit_lock_hold",
            Phase::TwopcPrepare => "twopc_prepare",
            Phase::TwopcResolve => "twopc_resolve",
            Phase::TwopcParticipantFsync => "twopc_participant_fsync",
            Phase::ViewDrain => "view_drain",
            Phase::ViewDeltaFold => "view_delta_fold",
            Phase::ViewRebuild => "view_rebuild",
            Phase::NetFrameDecode => "net_frame_decode",
            Phase::NetQueueWait => "net_queue_wait",
            Phase::NetHandler => "net_handler_execute",
            Phase::NetResponseWrite => "net_response_write",
            Phase::SubDrain => "sub_drain",
            Phase::NetPushWrite => "net_push_write",
            Phase::ReplShip => "repl_ship",
            Phase::ReplApply => "repl_apply",
        }
    }

    /// Parse a wire name back to its phase.
    pub fn from_name(name: &str) -> Option<Phase> {
        Phase::ALL.iter().copied().find(|p| p.name() == name)
    }

    fn index(self) -> usize {
        self as usize
    }

    /// Is this a phase the network front end records (as opposed to an
    /// engine-side commit/2PC/view phase)?
    pub fn is_net(self) -> bool {
        matches!(
            self,
            Phase::NetFrameDecode
                | Phase::NetQueueWait
                | Phase::NetHandler
                | Phase::NetResponseWrite
                | Phase::SubDrain
                | Phase::NetPushWrite
        )
    }
}

/// Default slow threshold: 10ms.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 10_000_000;

/// Runtime tuning for a [`Telemetry`] registry. The defaults reproduce
/// the historical zero-config behavior exactly; embedders (and the
/// engine/net config knobs that carry this struct) override per
/// deployment instead of recompiling constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Traces at or above this total latency enter the slow-trace
    /// ring (`u64::MAX` disables capture).
    pub slow_threshold_ns: u64,
    /// Capacity of each trace ring (recent and slow).
    pub trace_capacity: usize,
    /// Head-sampling rate for traces: 1-in-N rooted requests trace
    /// (1 = every request, 0 = tracing off).
    pub trace_sample_every: u32,
}

impl Default for TelemetryConfig {
    fn default() -> TelemetryConfig {
        TelemetryConfig {
            slow_threshold_ns: DEFAULT_SLOW_THRESHOLD_NS,
            trace_capacity: TRACE_BUFFER_CAPACITY,
            trace_sample_every: DEFAULT_TRACE_SAMPLE_EVERY,
        }
    }
}

impl TelemetryConfig {
    /// Set the slow-trace threshold in nanoseconds.
    pub fn slow_threshold_ns(mut self, ns: u64) -> TelemetryConfig {
        self.slow_threshold_ns = ns;
        self
    }

    /// Set the trace ring capacity.
    pub fn trace_capacity(mut self, cap: usize) -> TelemetryConfig {
        self.trace_capacity = cap.max(1);
        self
    }

    /// Set the trace head-sampling rate (1 = all, 0 = off).
    pub fn trace_sample_every(mut self, every: u32) -> TelemetryConfig {
        self.trace_sample_every = every;
        self
    }
}

/// The phase-latency registry an engine (or network server) owns: one
/// lock-free [`Histogram`] per [`Phase`] plus the trace store. Share it
/// as an `Arc`; recording never blocks.
#[derive(Debug)]
pub struct Telemetry {
    phases: [Histogram; Phase::ALL.len()],
    traces: Arc<TraceStore>,
}

impl Default for Telemetry {
    fn default() -> Telemetry {
        Telemetry::with_config(TelemetryConfig::default())
    }
}

impl Telemetry {
    /// A fresh registry with the default [`TelemetryConfig`].
    pub fn new() -> Telemetry {
        Telemetry::default()
    }

    /// A registry with explicit tuning (slow threshold, trace ring
    /// capacity and sampling rate; see [`TelemetryConfig`]). The `ESM_TRACE_SAMPLE_EVERY`
    /// environment variable, when set to an integer, overrides the
    /// configured head-sampling rate at construction (`1` = trace every
    /// request, `0` = off) — how CI runs the bench gates fully traced
    /// without a code change. Registries constructed before the
    /// variable changes are unaffected (it is read once, here).
    pub fn with_config(config: TelemetryConfig) -> Telemetry {
        let sample_every = std::env::var("ESM_TRACE_SAMPLE_EVERY")
            .ok()
            .and_then(|v| v.trim().parse().ok())
            .unwrap_or(config.trace_sample_every);
        Telemetry {
            phases: std::array::from_fn(|_| Histogram::new()),
            traces: Arc::new(TraceStore::new(
                config.trace_capacity,
                sample_every,
                config.slow_threshold_ns,
            )),
        }
    }

    /// The histogram behind one phase.
    pub fn phase(&self, phase: Phase) -> &Histogram {
        &self.phases[phase.index()]
    }

    /// Record one sample (nanoseconds) into a phase.
    pub fn record(&self, phase: Phase, ns: u64) {
        self.phase(phase).record(ns);
    }

    /// Open a timed region of `phase`: see [`PhaseGuard`].
    pub fn start(&self, phase: Phase) -> PhaseGuard<'_> {
        PhaseGuard::open(Some(self), phase)
    }

    /// The current slow threshold in nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.traces.slow_ns()
    }

    /// Set the slow threshold (nanoseconds): finished traces at or
    /// above it are tail-captured into the slow ring; `u64::MAX`
    /// disables capture.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.traces.set_slow_ns(ns);
    }

    // ------------------------------------------------------------------
    // Tracing.
    // ------------------------------------------------------------------

    /// The trace store (sampling state + rings) behind this registry.
    pub fn trace_store(&self) -> &Arc<TraceStore> {
        &self.traces
    }

    /// Set the trace head-sampling rate (1 = every rooted request,
    /// 0 = tracing off).
    pub fn set_trace_sample_every(&self, every: u32) {
        self.traces.set_sample_every(every);
    }

    /// Head-sample a new trace root named `name`: `Some` when the
    /// sampling counter elects this request **and** no trace is already
    /// active on the current thread (nested session ops join the outer
    /// trace instead of rooting their own). Mints a fresh [`TraceId`].
    pub fn start_trace(&self, name: &str) -> Option<TraceRoot> {
        if crate::trace::current().is_some() || !self.traces.should_sample() {
            return None;
        }
        Some(TraceRoot::open(
            Arc::clone(&self.traces),
            TraceId::mint(),
            name,
            Instant::now(),
            true,
        ))
    }

    /// Root a trace unconditionally under a caller-provided id — the
    /// server side of a wire-propagated context (the client already made
    /// the sampling decision by attaching one). `origin` may be in the
    /// past so spans measured before the root existed fit inside it.
    pub fn start_trace_with_id(
        &self,
        id: TraceId,
        name: impl Into<String>,
        origin: Instant,
    ) -> TraceRoot {
        TraceRoot::open(Arc::clone(&self.traces), id, name, origin, true)
    }

    /// A copy of both trace rings (recent head-sampled + slow
    /// tail-captured), oldest first.
    pub fn traces_report(&self) -> TraceReport {
        self.traces.report()
    }

    /// A point-in-time copy of everything: per-phase histogram
    /// snapshots (populated phases only, in [`Phase::ALL`] order) and
    /// the slow threshold.
    pub fn snapshot(&self) -> TelemetrySnapshot {
        let mut phases = Vec::new();
        for p in Phase::ALL {
            let snap = self.phase(p).snapshot();
            if !snap.is_empty() {
                phases.push((p, snap));
            }
        }
        TelemetrySnapshot {
            phases,
            slow_threshold_ns: self.slow_threshold_ns(),
            gauges: Vec::new(),
        }
    }
}

/// Everything a [`Telemetry`] knows, frozen: what `Engine::telemetry()`
/// returns and what the `STATS` wire verb ships. Mergeable like the
/// histograms it carries.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TelemetrySnapshot {
    /// Populated phases only, in [`Phase::ALL`] order.
    pub phases: Vec<(Phase, HistogramSnapshot)>,
    /// The slow-trace threshold at snapshot time (nanoseconds).
    pub slow_threshold_ns: u64,
    /// Named point-in-time values (replication lag, queue depths, …)
    /// that are levels rather than durations, so they don't fit the
    /// phase histograms. Empty for plain engines; replicas and fleet
    /// components inject theirs before exporting. Kept sorted by name.
    pub gauges: Vec<(String, u64)>,
}

impl TelemetrySnapshot {
    /// The snapshot of one phase, if it recorded anything.
    pub fn phase(&self, phase: Phase) -> Option<&HistogramSnapshot> {
        self.phases
            .iter()
            .find(|(p, _)| *p == phase)
            .map(|(_, h)| h)
    }

    /// Samples recorded into `phase` (0 when absent).
    pub fn count(&self, phase: Phase) -> u64 {
        self.phase(phase).map_or(0, |h| h.count)
    }

    /// Fold `other` into `self`: histograms merge bin-wise, the larger
    /// threshold wins (a merged view
    /// should not claim a stricter capture policy than either source
    /// enforced).
    pub fn merge(&mut self, other: &TelemetrySnapshot) {
        for (p, theirs) in &other.phases {
            match self.phases.iter_mut().find(|(q, _)| q == p) {
                Some((_, ours)) => ours.merge(theirs),
                None => self.phases.push((*p, theirs.clone())),
            }
        }
        self.phases.sort_by_key(|(p, _)| p.index());
        self.slow_threshold_ns = self.slow_threshold_ns.max(other.slow_threshold_ns);
        for (name, value) in &other.gauges {
            self.set_gauge(name, *value);
        }
    }

    /// Insert or replace the gauge called `name`, keeping the list
    /// sorted. Last write wins: a merged view reports the most recently
    /// folded-in level, not a sum of levels.
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        match self.gauges.binary_search_by(|(n, _)| n.as_str().cmp(name)) {
            Ok(i) => self.gauges[i].1 = value,
            Err(i) => self.gauges.insert(i, (name.to_string(), value)),
        }
    }

    /// The value of the gauge called `name`, if set.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

/// One timed region of one [`Phase`]: when it drops it records the
/// elapsed nanoseconds into the phase histogram and, when a trace is
/// active on the thread, files a span named [`Phase::name`] (regions
/// opened while it lives nest under that span). Open it with
/// [`Telemetry::start`], or with [`PhaseGuard::open`] where the
/// registry is optional: without one only the span is filed.
#[derive(Debug)]
#[must_use = "a phase guard times its region until it drops"]
pub struct PhaseGuard<'a> {
    telemetry: Option<&'a Telemetry>,
    phase: Phase,
    start: Instant,
    span: Option<SpanGuard>,
}

impl<'a> PhaseGuard<'a> {
    /// Open a timed region of `phase`, recording into `telemetry` when
    /// there is one.
    pub fn open(telemetry: Option<&'a Telemetry>, phase: Phase) -> PhaseGuard<'a> {
        PhaseGuard {
            telemetry,
            phase,
            start: Instant::now(),
            span: crate::trace::span(phase.name()),
        }
    }

    /// Tag the span (shard, view, role); `tag` runs only when a span is
    /// filed, so an untraced region allocates nothing.
    pub fn tag(mut self, tag: impl FnOnce() -> String) -> PhaseGuard<'a> {
        if let Some(span) = &mut self.span {
            span.set_tag(tag());
        }
        self
    }

    /// Attach the payload bytes the region moved to its span.
    pub fn set_bytes(&mut self, bytes: u64) {
        if let Some(span) = &mut self.span {
            span.set_bytes(bytes);
        }
    }
}

impl Drop for PhaseGuard<'_> {
    fn drop(&mut self) {
        if let Some(telemetry) = self.telemetry {
            telemetry.record(self.phase, elapsed_ns(self.start));
        }
        // The span, if any, files itself as the fields drop.
    }
}

fn elapsed_ns(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_round_trip() {
        for (i, p) in Phase::ALL.into_iter().enumerate() {
            assert_eq!(Phase::from_name(p.name()), Some(p));
            assert_eq!(p as usize, i, "Phase::ALL is in discriminant order");
        }
        assert_eq!(Phase::from_name("nope"), None);
    }

    #[test]
    fn timer_and_span_record_into_the_right_phase() {
        let tel = Telemetry::with_config(TelemetryConfig::default().trace_sample_every(1));
        // Untraced: the histogram alone.
        drop(tel.start(Phase::CommitFsync));
        drop(PhaseGuard::open(None, Phase::CommitFsync));
        // Traced: the histogram and a span under the phase's name, with
        // the guard's tag and bytes; nested guards nest their spans.
        {
            let _root = tel.start_trace("op").expect("sampled");
            let mut append = tel
                .start(Phase::CommitWalAppend)
                .tag(|| "shard:0".to_string());
            append.set_bytes(64);
            drop(tel.start(Phase::CommitFsync));
        }
        let snap = tel.snapshot();
        assert_eq!(snap.count(Phase::CommitFsync), 2);
        assert_eq!(snap.count(Phase::CommitWalAppend), 1);
        assert_eq!(snap.count(Phase::CommitLockHold), 0);
        let report = tel.traces_report();
        assert_eq!(report.recent.len(), 1);
        let rec = &report.recent[0];
        let append = rec.find("commit_wal_append").expect("append span");
        assert_eq!((append.tag.as_str(), append.bytes), ("shard:0", 64));
        assert_eq!(append.parent, rec.find("op").unwrap().id);
        assert_eq!(rec.find("commit_fsync").unwrap().parent, append.id);
        assert_eq!(rec.spans.len(), 3, "root, append and one fsync span");
    }

    #[test]
    fn untraced_guards_never_build_their_tag() {
        let tel = Telemetry::new();
        drop(
            tel.start(Phase::NetPushWrite)
                .tag(|| unreachable!("no trace is active")),
        );
        assert_eq!(tel.snapshot().count(Phase::NetPushWrite), 1);
    }

    #[test]
    fn slow_traces_respect_threshold_and_capacity() {
        let config = TelemetryConfig::default()
            .trace_sample_every(1)
            .trace_capacity(4)
            .slow_threshold_ns(u64::MAX);
        let tel = Telemetry::with_config(config);
        drop(tel.start_trace("fast"));
        assert!(tel.traces_report().slow.is_empty());
        // The threshold is held once, in the trace store.
        tel.set_slow_threshold_ns(0);
        assert_eq!(tel.slow_threshold_ns(), 0);
        assert_eq!(tel.snapshot().slow_threshold_ns, 0);
        for i in 0..9 {
            let name = format!("slow{i}");
            drop(TraceRoot::open(
                Arc::clone(tel.trace_store()),
                TraceId::mint(),
                name,
                Instant::now(),
                false,
            ));
        }
        let slow = tel.traces_report().slow;
        assert_eq!(slow.len(), 4, "the slow ring holds trace_capacity traces");
        assert_eq!(slow[0].root, "slow5", "the oldest entries fell off");
    }

    #[test]
    fn snapshots_merge_phasewise() {
        let a = Telemetry::new();
        let b = Telemetry::new();
        a.record(Phase::CommitFsync, 10);
        b.record(Phase::CommitFsync, 20);
        b.record(Phase::ViewDrain, 5);
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        assert_eq!(merged.count(Phase::CommitFsync), 2);
        assert_eq!(merged.count(Phase::ViewDrain), 1);
        // Phase order stays canonical after the merge.
        let idxs: Vec<usize> = merged
            .phases
            .iter()
            .map(|(p, _)| Phase::ALL.iter().position(|q| q == p).unwrap())
            .collect();
        let mut sorted = idxs.clone();
        sorted.sort_unstable();
        assert_eq!(idxs, sorted);
    }
}
