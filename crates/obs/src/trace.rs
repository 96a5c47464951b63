//! Causal commit tracing: per-request span trees from session to fsync.
//!
//! Where [`crate::Telemetry`]'s histograms aggregate *fleet-wide* phase
//! latency, a **trace** follows *one* request: every instrumented stage
//! it passed through becomes a [`SpanRecord`] parented under the stage
//! that caused it, so a slow commit reads as a causally indented tree —
//! "this commit stalled 5ms in the fsync its group-commit leader ran",
//! not a statistical inference over two histograms.
//!
//! The pieces:
//!
//! * [`TraceId`] — a 64-bit correlation key minted once per request (by
//!   `Session`, or by whoever roots the trace) and propagated across
//!   the wire, so client- and server-side trees share one identity.
//! * [`TraceSink`] — the per-trace collector: allocates span ids and
//!   buffers finished [`SpanRecord`]s until the root finishes.
//! * A **thread-local context stack** — a phase's
//!   [`crate::PhaseGuard`] (and [`span`], for the few trace-only
//!   stages) opens a child of whatever trace is active on the current
//!   thread; untraced requests pay one thread-local read and allocate
//!   nothing. Cross-thread fan-out (the 2PC coordinator's parallel
//!   participant fsyncs) captures [`current`] and [`enter`]s it on the
//!   worker threads.
//! * [`TraceBuffer`] — a bounded ring of finished [`TraceRecord`]s: an
//!   atomic cursor claims a slot, a per-slot mutex guards only that
//!   slot, so concurrent finishers never serialize behind one lock.
//! * **Sampling** — head sampling at a configurable 1-in-N rate roots
//!   traces cheaply under load, *plus* tail capture: any finished trace
//!   whose total crosses the slow threshold is copied into a separate
//!   slow ring, so a slow request keeps its whole causal tree.
//!
//! [`render_trace`] prints the tree with durations for humans; the wire
//! layer ships [`TraceReport`]s with the same sparse discipline as the
//! telemetry snapshot.

use std::cell::RefCell;
use std::collections::hash_map::RandomState;
use std::hash::{BuildHasher, Hasher};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Default capacity of each trace ring (recent and slow).
pub const TRACE_BUFFER_CAPACITY: usize = 32;
/// Default head-sampling rate: one in this many rooted requests traces.
pub const DEFAULT_TRACE_SAMPLE_EVERY: u32 = 64;

/// A 64-bit trace correlation key. Minted once per request at the
/// outermost layer (the `Session`); both sides of a wire call record
/// their spans under the same id. Never zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TraceId(pub u64);

impl TraceId {
    /// Mint a fresh, process-unique, unpredictable-across-restarts id:
    /// a monotone counter hashed through a per-process random seed (no
    /// RNG dependency; `RandomState` is seeded by the OS).
    pub fn mint() -> TraceId {
        static COUNTER: AtomicU64 = AtomicU64::new(1);
        static SEED: OnceLock<RandomState> = OnceLock::new();
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let mut h = SEED.get_or_init(RandomState::new).build_hasher();
        h.write_u64(n);
        let id = h.finish();
        TraceId(if id == 0 { n | 1 } else { id })
    }
}

impl std::fmt::Display for TraceId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{:016x}", self.0)
    }
}

/// One finished span: a named stage of one traced request, positioned
/// causally (`parent`) and temporally (`start_ns` from the trace
/// origin, `duration_ns` of the stage itself).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanRecord {
    /// Span id, unique within its trace (the root is always id 1).
    pub id: u32,
    /// Causal parent span id; 0 marks the root.
    pub parent: u32,
    /// Stage name (the phase taxonomy plus trace-only stages like
    /// `group_commit_wait`).
    pub name: String,
    /// Contextual tag: shard/participant index, view name,
    /// leader/follower role. Empty when none applies.
    pub tag: String,
    /// Start offset from the trace origin, nanoseconds.
    pub start_ns: u64,
    /// Wall-clock duration of the stage, nanoseconds.
    pub duration_ns: u64,
    /// Payload bytes the stage moved (WAL append frame, wire frame);
    /// 0 when not meaningful.
    pub bytes: u64,
}

/// The per-trace collector: shared by every thread contributing spans
/// to one trace. Allocation is an atomic increment; finishing a span
/// takes the sink's (uncontended in the common case) buffer lock.
#[derive(Debug)]
pub struct TraceSink {
    id: TraceId,
    origin: Instant,
    next_span: AtomicU32,
    spans: Mutex<Vec<SpanRecord>>,
}

impl TraceSink {
    /// A fresh sink whose time origin is now.
    pub fn new(id: TraceId) -> TraceSink {
        TraceSink::with_origin(id, Instant::now())
    }

    /// A sink whose origin is backdated — the net server measures frame
    /// decode and queue wait *before* it knows whether the request
    /// carries a trace, then roots the trace at the decode start so
    /// those spans fit inside it.
    pub fn with_origin(id: TraceId, origin: Instant) -> TraceSink {
        TraceSink {
            id,
            origin,
            next_span: AtomicU32::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// This trace's correlation key.
    pub fn id(&self) -> TraceId {
        self.id
    }

    /// Nanoseconds since the trace origin.
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Claim the next span id.
    fn alloc(&self) -> u32 {
        self.next_span.fetch_add(1, Ordering::Relaxed)
    }

    /// Record one fully-formed span (used for backdated net spans whose
    /// timing was measured before the sink existed). Returns its id.
    pub fn record_span(
        &self,
        name: &str,
        tag: &str,
        parent: u32,
        start_ns: u64,
        duration_ns: u64,
        bytes: u64,
    ) -> u32 {
        let id = self.alloc();
        self.push(SpanRecord {
            id,
            parent,
            name: name.to_string(),
            tag: tag.to_string(),
            start_ns,
            duration_ns,
            bytes,
        });
        id
    }

    fn push(&self, record: SpanRecord) {
        if let Ok(mut spans) = self.spans.lock() {
            spans.push(record);
        }
    }

    fn take_spans(&self) -> Vec<SpanRecord> {
        self.spans
            .lock()
            .map(|mut s| std::mem::take(&mut *s))
            .unwrap_or_default()
    }
}

/// A handle to the trace active in some context: the sink plus the span
/// to parent new children under. Cheap to clone; send it into spawned
/// threads to keep their work causally attached.
#[derive(Debug, Clone)]
pub struct ActiveTrace {
    sink: Arc<TraceSink>,
    parent: u32,
}

impl ActiveTrace {
    /// The trace's correlation key.
    pub fn id(&self) -> TraceId {
        self.sink.id()
    }

    /// The span id new children are parented under.
    pub fn parent_span(&self) -> u32 {
        self.parent
    }

    /// Open a child span under this context *without* touching the
    /// thread-local stack — for spans that overlap their siblings (the
    /// per-participant 2PC umbrellas), whose children run under
    /// [`ActiveTrace::under`]. The span finishes when the guard drops.
    pub fn child(&self, name: &'static str, tag: impl Into<String>) -> SpanGuard {
        SpanGuard::open(Arc::clone(&self.sink), self.parent, name, tag.into(), false)
    }

    /// A context parented under `span` instead of this context's parent
    /// (for umbrella spans whose children are opened manually).
    pub fn under(&self, span: u32) -> ActiveTrace {
        ActiveTrace {
            sink: Arc::clone(&self.sink),
            parent: span,
        }
    }
}

thread_local! {
    static STACK: RefCell<Vec<ActiveTrace>> = const { RefCell::new(Vec::new()) };
}

/// The trace context active on this thread, if any. Instrumented call
/// sites use this (via [`span`]) so untraced requests cost one
/// thread-local read and zero allocation.
pub fn current() -> Option<ActiveTrace> {
    STACK.with(|s| s.borrow().last().cloned())
}

/// Open a child span of the thread's active trace; `None` (free) when
/// no trace is active. Children opened while the guard lives nest
/// under it.
pub fn span(name: &'static str) -> Option<SpanGuard> {
    span_tagged(name, String::new)
}

/// [`span`] with a contextual tag (participant count, role); `tag`
/// runs only when a trace is active, so untraced requests build none.
pub fn span_tagged(name: &'static str, tag: impl FnOnce() -> String) -> Option<SpanGuard> {
    let active = current()?;
    Some(SpanGuard::open(
        active.sink,
        active.parent,
        name,
        tag(),
        true,
    ))
}

/// Push a context onto this thread's stack; the returned guard pops it
/// on drop. Used by trace roots and by worker threads entering a
/// captured [`ActiveTrace`].
pub fn enter(active: ActiveTrace) -> EnterGuard {
    STACK.with(|s| s.borrow_mut().push(active));
    EnterGuard { _priv: () }
}

/// Pops the thread-local context pushed by [`enter`] on drop.
#[derive(Debug)]
pub struct EnterGuard {
    _priv: (),
}

impl Drop for EnterGuard {
    fn drop(&mut self) {
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
    }
}

/// An open span: records a [`SpanRecord`] into its trace when dropped
/// (or explicitly [`SpanGuard::finish`]ed). When opened via [`span`] it
/// also sits on the thread-local stack so nested spans parent under it.
#[derive(Debug)]
pub struct SpanGuard {
    sink: Arc<TraceSink>,
    id: u32,
    parent: u32,
    name: &'static str,
    tag: String,
    bytes: u64,
    start_ns: u64,
    start: Instant,
    on_stack: bool,
    done: bool,
}

impl SpanGuard {
    fn open(
        sink: Arc<TraceSink>,
        parent: u32,
        name: &'static str,
        tag: String,
        on_stack: bool,
    ) -> SpanGuard {
        let id = sink.alloc();
        let start_ns = sink.now_ns();
        if on_stack {
            STACK.with(|s| {
                s.borrow_mut().push(ActiveTrace {
                    sink: Arc::clone(&sink),
                    parent: id,
                })
            });
        }
        SpanGuard {
            sink,
            id,
            parent,
            name,
            tag,
            bytes: 0,
            start_ns,
            start: Instant::now(),
            on_stack,
            done: false,
        }
    }

    /// This span's id (children opened manually parent under it via
    /// [`ActiveTrace::under`]).
    pub fn id(&self) -> u32 {
        self.id
    }

    /// Attach a byte count (WAL frame length, wire frame length).
    pub fn set_bytes(&mut self, bytes: u64) {
        self.bytes = bytes;
    }

    /// Set the span's tag after the fact (e.g. leader/follower, known
    /// only once a group-commit wait resolves).
    pub fn set_tag(&mut self, tag: impl Into<String>) {
        self.tag = tag.into();
    }

    /// Finish now instead of at scope end.
    pub fn finish(mut self) {
        self.close();
    }

    fn close(&mut self) {
        if self.done {
            return;
        }
        self.done = true;
        if self.on_stack {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack
                    .last()
                    .is_some_and(|t| t.parent == self.id && Arc::ptr_eq(&t.sink, &self.sink))
                {
                    stack.pop();
                }
            });
        }
        let duration_ns = u64::try_from(self.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.sink.push(SpanRecord {
            id: self.id,
            parent: self.parent,
            name: self.name.to_string(),
            tag: std::mem::take(&mut self.tag),
            start_ns: self.start_ns,
            duration_ns,
            bytes: self.bytes,
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        self.close();
    }
}

/// One finished trace: the root operation, its total duration, and
/// every span, sorted by start offset (the root span, id 1, first).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceRecord {
    /// The trace's correlation key.
    pub id: TraceId,
    /// The root operation name (e.g. `transact`, `net:commit`).
    pub root: String,
    /// Total wall-clock nanoseconds, root start to root finish.
    pub duration_ns: u64,
    /// Every recorded span, sorted by (`start_ns`, `id`).
    pub spans: Vec<SpanRecord>,
}

impl TraceRecord {
    /// The direct children of `parent`, in start order.
    pub fn children(&self, parent: u32) -> impl Iterator<Item = &SpanRecord> {
        self.spans.iter().filter(move |s| s.parent == parent)
    }

    /// The span with id `id`, if present.
    pub fn span(&self, id: u32) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.id == id)
    }

    /// The first span (in start order) with this name.
    pub fn find(&self, name: &str) -> Option<&SpanRecord> {
        self.spans.iter().find(|s| s.name == name)
    }
}

/// A bounded ring of finished traces. An atomic cursor claims slots, a
/// per-slot mutex guards only that slot: concurrent finishers touch
/// disjoint locks.
#[derive(Debug)]
pub struct TraceBuffer {
    slots: Vec<Mutex<Option<TraceRecord>>>,
    cursor: AtomicU64,
}

impl TraceBuffer {
    /// A ring holding the newest `capacity` traces (min 1).
    pub fn new(capacity: usize) -> TraceBuffer {
        let capacity = capacity.max(1);
        TraceBuffer {
            slots: (0..capacity).map(|_| Mutex::new(None)).collect(),
            cursor: AtomicU64::new(0),
        }
    }

    /// Insert one finished trace, evicting the oldest when full.
    pub fn push(&self, record: TraceRecord) {
        let slot = self.cursor.fetch_add(1, Ordering::Relaxed) as usize % self.slots.len();
        if let Ok(mut s) = self.slots[slot].lock() {
            *s = Some(record);
        }
    }

    /// A copy of the buffered traces, oldest first.
    pub fn snapshot(&self) -> Vec<TraceRecord> {
        let len = self.slots.len();
        let cursor = self.cursor.load(Ordering::Relaxed) as usize;
        let mut out = Vec::new();
        for i in 0..len {
            let slot = (cursor + i) % len;
            if let Ok(s) = self.slots[slot].lock() {
                if let Some(rec) = s.as_ref() {
                    out.push(rec.clone());
                }
            }
        }
        out
    }
}

/// The trace half of a telemetry registry: sampling state plus the two
/// rings (recent head-sampled traces; slow tail-captured traces).
#[derive(Debug)]
pub struct TraceStore {
    sample_every: AtomicU32,
    counter: AtomicU64,
    slow_ns: AtomicU64,
    recent: TraceBuffer,
    slow: TraceBuffer,
}

impl TraceStore {
    /// A store with the given ring capacity, sampling rate (0 disables
    /// head sampling), and slow threshold for tail capture.
    pub fn new(capacity: usize, sample_every: u32, slow_ns: u64) -> TraceStore {
        TraceStore {
            sample_every: AtomicU32::new(sample_every),
            counter: AtomicU64::new(0),
            slow_ns: AtomicU64::new(slow_ns),
            recent: TraceBuffer::new(capacity),
            slow: TraceBuffer::new(capacity),
        }
    }

    /// The current head-sampling rate (1-in-N; 0 = off).
    pub fn sample_every(&self) -> u32 {
        self.sample_every.load(Ordering::Relaxed)
    }

    /// Set the head-sampling rate (1 = every request, 0 = off).
    pub fn set_sample_every(&self, every: u32) {
        self.sample_every.store(every, Ordering::Relaxed);
    }

    /// The tail-capture threshold in nanoseconds.
    pub fn slow_ns(&self) -> u64 {
        self.slow_ns.load(Ordering::Relaxed)
    }

    /// Set the tail-capture threshold (what
    /// [`crate::Telemetry::set_slow_threshold_ns`] sets).
    pub fn set_slow_ns(&self, ns: u64) {
        self.slow_ns.store(ns, Ordering::Relaxed);
    }

    /// Head-sampling decision: does the next rooted request trace?
    pub fn should_sample(&self) -> bool {
        let every = self.sample_every();
        if every == 0 {
            return false;
        }
        self.counter
            .fetch_add(1, Ordering::Relaxed)
            .is_multiple_of(every as u64)
    }

    /// File one finished trace: always into the recent ring, and into
    /// the slow ring too when its total crosses the threshold.
    pub fn offer(&self, record: TraceRecord) {
        if record.duration_ns >= self.slow_ns() {
            self.slow.push(record.clone());
        }
        self.recent.push(record);
    }

    /// A report of both rings.
    pub fn report(&self) -> TraceReport {
        TraceReport {
            recent: self.recent.snapshot(),
            slow: self.slow.snapshot(),
        }
    }
}

/// An open trace root: the RAII owner of one trace. Spans open under it
/// (on this thread implicitly, on others via a captured
/// [`ActiveTrace`]); dropping it finalizes the [`TraceRecord`] and
/// files it in the store's rings.
#[derive(Debug)]
pub struct TraceRoot {
    sink: Arc<TraceSink>,
    store: Arc<TraceStore>,
    root_name: String,
    root_id: u32,
    entered: bool,
}

impl TraceRoot {
    /// Root a trace in `store` under `id`, named `name`, with its
    /// origin at `origin` (backdate to cover already-measured work).
    /// Pushes the context onto this thread's stack when `enter_stack`.
    pub fn open(
        store: Arc<TraceStore>,
        id: TraceId,
        name: impl Into<String>,
        origin: Instant,
        enter_stack: bool,
    ) -> TraceRoot {
        let sink = Arc::new(TraceSink::with_origin(id, origin));
        let root_id = sink.alloc();
        debug_assert_eq!(root_id, 1, "the root span is always id 1");
        if enter_stack {
            STACK.with(|s| {
                s.borrow_mut().push(ActiveTrace {
                    sink: Arc::clone(&sink),
                    parent: root_id,
                })
            });
        }
        TraceRoot {
            sink,
            store,
            root_name: name.into(),
            root_id,
            entered: enter_stack,
        }
    }

    /// The trace's correlation key.
    pub fn id(&self) -> TraceId {
        self.sink.id()
    }

    /// The context under the root span (for explicit cross-thread or
    /// off-stack children).
    pub fn active(&self) -> ActiveTrace {
        ActiveTrace {
            sink: Arc::clone(&self.sink),
            parent: self.root_id,
        }
    }

    /// Record a fully-measured span under the root (the net server's
    /// backdated decode/queue-wait spans). Returns its id.
    pub fn record_span(
        &self,
        name: &str,
        tag: &str,
        start_ns: u64,
        duration_ns: u64,
        bytes: u64,
    ) -> u32 {
        self.sink
            .record_span(name, tag, self.root_id, start_ns, duration_ns, bytes)
    }
}

impl Drop for TraceRoot {
    fn drop(&mut self) {
        if self.entered {
            STACK.with(|s| {
                let mut stack = s.borrow_mut();
                if stack
                    .last()
                    .is_some_and(|t| t.parent == self.root_id && Arc::ptr_eq(&t.sink, &self.sink))
                {
                    stack.pop();
                }
            });
        }
        let duration_ns = self.sink.now_ns();
        let mut spans = self.sink.take_spans();
        spans.push(SpanRecord {
            id: self.root_id,
            parent: 0,
            name: self.root_name.clone(),
            tag: String::new(),
            start_ns: 0,
            duration_ns,
            bytes: 0,
        });
        spans.sort_by_key(|s| (s.start_ns, s.id));
        self.store.offer(TraceRecord {
            id: self.sink.id(),
            root: self.root_name.clone(),
            duration_ns,
            spans,
        });
    }
}

/// What `Engine::traces()` returns and the `TRACE` wire verb ships:
/// the recent and slow trace rings, mergeable across layers the way
/// telemetry snapshots are.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TraceReport {
    /// Head-sampled traces, oldest first.
    pub recent: Vec<TraceRecord>,
    /// Tail-captured traces (total ≥ slow threshold), oldest first.
    pub slow: Vec<TraceRecord>,
}

impl TraceReport {
    /// Fold `other`'s traces into `self` (concatenation; traces are
    /// self-contained trees, so a merged report is just more of them).
    pub fn merge(&mut self, other: &TraceReport) {
        self.recent.extend(other.recent.iter().cloned());
        self.slow.extend(other.slow.iter().cloned());
    }

    /// Every trace (slow after recent) rendered via [`render_trace`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        for rec in self.recent.iter().chain(self.slow.iter()) {
            out.push_str(&render_trace(rec));
        }
        out
    }
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.2}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Render one trace as a causally indented span tree with durations —
/// the human end of the export surface.
pub fn render_trace(record: &TraceRecord) -> String {
    let mut out = format!(
        "trace {} root={} total={}\n",
        record.id,
        record.root,
        fmt_ns(record.duration_ns)
    );
    fn walk(record: &TraceRecord, parent: u32, depth: usize, out: &mut String) {
        for span in record.children(parent) {
            out.push_str(&"  ".repeat(depth));
            out.push_str(&span.name);
            if !span.tag.is_empty() {
                out.push_str(&format!(" [{}]", span.tag));
            }
            out.push_str(&format!(
                " {} @+{}",
                fmt_ns(span.duration_ns),
                fmt_ns(span.start_ns)
            ));
            if span.bytes > 0 {
                out.push_str(&format!(" {}B", span.bytes));
            }
            out.push('\n');
            walk(record, span.id, depth + 1, out);
        }
    }
    walk(record, 0, 1, &mut out);
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn store() -> Arc<TraceStore> {
        Arc::new(TraceStore::new(8, 1, u64::MAX))
    }

    #[test]
    fn trace_ids_are_unique_and_nonzero() {
        let a = TraceId::mint();
        let b = TraceId::mint();
        assert_ne!(a, b);
        assert_ne!(a.0, 0);
        assert_ne!(b.0, 0);
    }

    #[test]
    fn spans_nest_under_the_thread_local_root() {
        let store = store();
        {
            let _root = TraceRoot::open(
                Arc::clone(&store),
                TraceId::mint(),
                "op",
                Instant::now(),
                true,
            );
            {
                let _outer = span("outer").expect("trace is active");
                let _inner = span_tagged("inner", || "t".into()).expect("still active");
            }
            assert!(current().is_some());
        }
        assert!(current().is_none(), "root popped the stack");
        let report = store.report();
        assert_eq!(report.recent.len(), 1);
        let rec = &report.recent[0];
        assert_eq!(rec.root, "op");
        let root = rec.find("op").unwrap();
        let outer = rec.find("outer").unwrap();
        let inner = rec.find("inner").unwrap();
        assert_eq!(root.parent, 0);
        assert_eq!(outer.parent, root.id);
        assert_eq!(inner.parent, outer.id);
        assert_eq!(inner.tag, "t");
        assert!(rec.duration_ns >= outer.duration_ns);
        assert!(outer.duration_ns >= inner.duration_ns);
    }

    #[test]
    fn no_active_trace_means_no_spans() {
        assert!(current().is_none());
        assert!(span("free").is_none());
    }

    #[test]
    fn cross_thread_children_attach_causally() {
        let store = store();
        let root = TraceRoot::open(
            Arc::clone(&store),
            TraceId::mint(),
            "fanout",
            Instant::now(),
            false,
        );
        let active = root.active();
        std::thread::scope(|scope| {
            for i in 0..3 {
                let ctx = active.clone();
                scope.spawn(move || {
                    let mut child = ctx.child("worker", format!("{i}"));
                    child.set_bytes(10 + i);
                });
            }
        });
        drop(root);
        let rec = &store.report().recent[0];
        let root_span = rec.find("fanout").unwrap();
        let workers: Vec<_> = rec.children(root_span.id).collect();
        assert_eq!(workers.len(), 3);
        let mut tags: Vec<_> = workers.iter().map(|w| w.tag.clone()).collect();
        tags.sort();
        assert_eq!(tags, ["0", "1", "2"]);
        assert!(workers.iter().all(|w| w.bytes >= 10));
    }

    #[test]
    fn sampling_rate_gates_head_traces() {
        let store = TraceStore::new(8, 4, u64::MAX);
        let sampled = (0..16).filter(|_| store.should_sample()).count();
        assert_eq!(sampled, 4);
        store.set_sample_every(0);
        assert!(!store.should_sample());
        store.set_sample_every(1);
        assert!(store.should_sample());
    }

    #[test]
    fn slow_traces_tail_capture() {
        let store = Arc::new(TraceStore::new(4, 1, 0));
        drop(TraceRoot::open(
            Arc::clone(&store),
            TraceId::mint(),
            "slow",
            Instant::now(),
            false,
        ));
        let report = store.report();
        assert_eq!(report.recent.len(), 1);
        assert_eq!(report.slow.len(), 1, "threshold 0 tail-captures all");
        store.set_slow_ns(u64::MAX);
        drop(TraceRoot::open(
            Arc::clone(&store),
            TraceId::mint(),
            "fast",
            Instant::now(),
            false,
        ));
        let report = store.report();
        assert_eq!(report.recent.len(), 2);
        assert_eq!(report.slow.len(), 1, "fast traces skip the slow ring");
    }

    #[test]
    fn buffer_evicts_oldest() {
        let buf = TraceBuffer::new(2);
        for i in 0..5u64 {
            buf.push(TraceRecord {
                id: TraceId(i + 1),
                root: format!("op{i}"),
                duration_ns: i,
                spans: Vec::new(),
            });
        }
        let snap = buf.snapshot();
        assert_eq!(snap.len(), 2);
        let roots: Vec<_> = snap.iter().map(|r| r.root.as_str()).collect();
        assert_eq!(roots, ["op3", "op4"], "oldest first, newest retained");
    }

    #[test]
    fn backdated_spans_sit_inside_the_root() {
        let store = store();
        let origin = Instant::now() - std::time::Duration::from_millis(5);
        let root = TraceRoot::open(
            Arc::clone(&store),
            TraceId::mint(),
            "net:req",
            origin,
            false,
        );
        root.record_span("net_frame_decode", "", 0, 1_000, 64);
        root.record_span("net_queue_wait", "", 1_000, 2_000, 0);
        drop(root);
        let rec = &store.report().recent[0];
        assert!(rec.duration_ns >= 5_000_000, "origin was backdated");
        let decode = rec.find("net_frame_decode").unwrap();
        assert_eq!(decode.bytes, 64);
        assert_eq!(decode.start_ns, 0);
        let wait = rec.find("net_queue_wait").unwrap();
        assert_eq!(wait.start_ns, 1_000);
        // Spans are sorted by start offset; the root (start 0, id 1)
        // comes first.
        assert_eq!(rec.spans[0].name, "net:req");
    }

    #[test]
    fn render_indents_causally() {
        let store = store();
        {
            let _root = TraceRoot::open(
                Arc::clone(&store),
                TraceId::mint(),
                "commit",
                Instant::now(),
                true,
            );
            let outer = span("twopc_participant").unwrap();
            drop(span("twopc_prepare"));
            drop(outer);
        }
        let rec = &store.report().recent[0];
        let text = render_trace(rec);
        assert!(text.contains("root=commit"));
        let lines: Vec<&str> = text.lines().collect();
        let part = lines
            .iter()
            .position(|l| l.contains("twopc_participant"))
            .unwrap();
        let prep = lines
            .iter()
            .position(|l| l.contains("twopc_prepare"))
            .unwrap();
        let indent = |s: &str| s.len() - s.trim_start().len();
        assert!(indent(lines[prep]) > indent(lines[part]));
    }

    #[test]
    fn merge_concatenates_reports() {
        let mut a = TraceReport::default();
        let b = TraceReport {
            recent: vec![TraceRecord {
                id: TraceId(9),
                root: "x".into(),
                duration_ns: 1,
                spans: Vec::new(),
            }],
            slow: Vec::new(),
        };
        a.merge(&b);
        assert_eq!(a.recent.len(), 1);
        assert!(a.render().contains("root=x"));
    }
}
