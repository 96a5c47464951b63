//! [`NetServer`]: a readiness-driven, thread-pooled socket front end
//! with real-time subscription push.
//!
//! One poller thread owns every connection in non-blocking mode. On
//! Linux it parks in raw `epoll_wait` ([`crate::poll`]) and touches
//! only the connections the kernel reports ready — a thousand idle
//! subscribers cost zero wake-ups, and a request's first byte wakes
//! the loop in microseconds instead of waiting out an idle sleep. On
//! other platforms the same loop runs against the portable fallback
//! poller (interruptible sleep + full non-blocking sweep), the
//! pre-epoll behavior behind the same API.
//!
//! Complete request frames are handed to a small worker pool that
//! executes them against the shared [`Engine`](esm_engine::Engine)
//! through each connection's own [`Session`] (per-client view
//! registrations, commit stamps, retry policy). Workers write their
//! response **directly** to the client socket (non-blocking, under the
//! connection's output lock); only the rare partial write leaves bytes
//! behind for the poller to flush on write-readiness.
//!
//! ## The subscribe → commit → drain → push lifecycle
//!
//! A `SUBSCRIBE view` frame registers the connection against a named
//! view with a cursor — the engine commit position the subscriber has
//! seen ([`esm_engine::Engine::view_cursor`]). As commits settle, the
//! server drains each subscribed view's committed deltas **past each
//! subscriber's cursor** ([`esm_engine::Engine::view_deltas_since`],
//! O(changes), coalesced) and pushes one `PUSH` frame per subscriber,
//! advancing its cursor. Fan-out is driven twice: synchronously by the
//! worker that just committed (so the `sub_drain` / `net_push_write`
//! spans land under the committing request's trace), and by a
//! background pump parked on the engine's
//! [`CommitNotifier`](esm_engine::CommitNotifier) for commits that
//! arrive outside this server (and for retrying stalled subscribers).
//! Subscribers sharing a cursor share one drain and one encoded frame.
//!
//! ## Per-connection backpressure
//!
//! Output buffers are bounded. A subscriber that stops reading stalls
//! **only itself**: once its buffered output crosses the push
//! high-water mark the pump skips it (its cursor freezes — nothing is
//! queued on its behalf), and the commit path never waits on any
//! subscriber. On resume the subscription is marked for resync: the
//! next push carries the full current window instead of the deltas the
//! stall dropped. A connection whose buffer exceeds the hard limit is
//! dropped outright.
//!
//! Connection hygiene follows the WAL's torn-vs-rot discipline
//! ([`crate::frame`]): a half-received frame waits for more bytes; a
//! corrupt frame (CRC mismatch, absurd length) drops the connection.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use esm_engine::{ArcEngine, CommitNotifier, Session};
use esm_obs::{Phase, Span, Telemetry, TelemetryConfig, TelemetrySnapshot, TraceId};
use esm_store::Delta;

use crate::frame::decode_frame;
use crate::poll::{poll_fd, PollFd, PollOutcome, Poller, LISTENER_TOKEN};
use crate::proto::{handle, Request, Response, WireError, PROTOCOL_REV};

/// Tuning knobs for a [`NetServer`].
#[derive(Debug, Clone)]
pub struct NetServerConfig {
    /// Worker threads executing requests (the poller is extra). Defaults
    /// to the machine's available parallelism, floored at 8 so small
    /// containers still overlap enough requests to batch group commits.
    pub workers: usize,
    /// Upper bound on the poller's sleep between forced wake-ups. On
    /// Linux the poller wakes on real readiness and this only bounds
    /// shutdown latency; on the portable fallback it caps the idle
    /// backoff between full sweeps (which starts at 2µs and doubles).
    pub idle_sleep: Duration,
    /// Hard cap on one connection's buffered output. Crossing half of
    /// it (the push high-water mark) stalls that connection's
    /// subscription pushes; crossing all of it drops the connection.
    pub outbuf_limit: usize,
    /// Knobs for the server's own telemetry registry: slow-op
    /// threshold, ring capacities, trace sampling. The default keeps
    /// zero-config behavior identical to before the knob existed.
    pub telemetry: TelemetryConfig,
}

impl Default for NetServerConfig {
    fn default() -> NetServerConfig {
        NetServerConfig {
            workers: std::thread::available_parallelism().map_or(8, |n| n.get().max(8)),
            idle_sleep: Duration::from_millis(100),
            outbuf_limit: 8 * 1024 * 1024,
            telemetry: TelemetryConfig::default(),
        }
    }
}

impl NetServerConfig {
    /// Override the worker pool size (floored at 1).
    pub fn workers(mut self, workers: usize) -> NetServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Override the poller's idle-sleep cap.
    pub fn idle_sleep(mut self, idle_sleep: Duration) -> NetServerConfig {
        self.idle_sleep = idle_sleep;
        self
    }

    /// Override the per-connection output-buffer hard limit (floored at
    /// 64 KiB; the push high-water mark is half of it).
    pub fn outbuf_limit(mut self, outbuf_limit: usize) -> NetServerConfig {
        self.outbuf_limit = outbuf_limit.max(64 * 1024);
        self
    }

    /// Override the net-layer telemetry knobs (slow threshold, ring
    /// capacities, trace sampling).
    pub fn telemetry_config(mut self, telemetry: TelemetryConfig) -> NetServerConfig {
        self.telemetry = telemetry;
        self
    }
}

/// What `SERVER_PING` answers with: facts the network layer knows
/// about itself without consulting the engine.
#[derive(Debug)]
struct ServerIdentity {
    started: Instant,
    workers: u32,
    /// This server's instance id: clients mark their cached snapshots
    /// with it (see [`crate::proto::SnapshotMark`]).
    instance: u64,
}

/// A fresh server instance id: random keys from the standard library's
/// hasher seeding, mixed with the clock, so two servers that take turns
/// on one address do not share an id.
fn fresh_instance() -> u64 {
    use std::hash::{BuildHasher, Hasher};
    let mut h = std::collections::hash_map::RandomState::new().build_hasher();
    let now = std::time::SystemTime::now().duration_since(std::time::UNIX_EPOCH);
    h.write_u128(now.map_or(0, |d| d.as_nanos()));
    h.finish()
}

/// Counters the server keeps about itself (the engine keeps its own).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub accepted: u64,
    /// Connections dropped (EOF, I/O error, protocol corruption, or an
    /// output buffer past its hard limit).
    pub dropped: u64,
    /// Request frames executed.
    pub requests: u64,
    /// Subscription `PUSH` frames sent.
    pub pushes: u64,
    /// Bytes read off client sockets.
    pub bytes_read: u64,
    /// Bytes written back to client sockets.
    pub bytes_written: u64,
}

#[derive(Debug, Default)]
struct NetCounters {
    accepted: AtomicU64,
    dropped: AtomicU64,
    requests: AtomicU64,
    pushes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
}

/// One connection's buffered output plus the write-interest latch.
#[derive(Debug, Default)]
struct OutBuf {
    buf: Vec<u8>,
    /// Whether write readiness is currently armed with the poller —
    /// toggled only under the [`ConnShared::out`] lock, so the latch
    /// and the buffer's emptiness never disagree.
    armed: bool,
}

/// State shared between the poller (reads, flush-on-writable), the
/// workers (responses) and the push pump (subscription pushes).
struct ConnShared {
    token: u64,
    session: Session,
    /// A dup of the poller's stream, used only for writing. Both
    /// handles share the open file description, so non-blocking mode
    /// set once applies to both.
    stream: TcpStream,
    fd: PollFd,
    out: Mutex<OutBuf>,
    /// Set on any write failure; the writer also queues the token on
    /// [`SubRegistry::dead`] so the poller reaps the connection.
    dead: AtomicBool,
}

impl ConnShared {
    /// Bytes currently queued for this connection.
    fn buffered(&self) -> usize {
        self.out.lock().map_or(usize::MAX, |o| o.buf.len())
    }

    /// Append `bytes` and flush as much as the socket accepts right
    /// now. Returns false when the connection is (or just became)
    /// dead. Never blocks: a partial write arms write interest and the
    /// poller finishes the job on readiness.
    fn send(&self, bytes: &[u8], poller: &Poller, counters: &NetCounters) -> bool {
        let Ok(mut out) = self.out.lock() else {
            return false;
        };
        if self.dead.load(Ordering::Relaxed) {
            return false;
        }
        out.buf.extend_from_slice(bytes);
        self.flush_locked(&mut out, poller, counters)
    }

    /// Flush buffered bytes (for the poller's write-readiness path).
    fn flush(&self, poller: &Poller, counters: &NetCounters) -> bool {
        let Ok(mut out) = self.out.lock() else {
            return false;
        };
        self.flush_locked(&mut out, poller, counters)
    }

    fn flush_locked(&self, out: &mut OutBuf, poller: &Poller, counters: &NetCounters) -> bool {
        while !out.buf.is_empty() {
            match (&self.stream).write(&out.buf) {
                Ok(0) => {
                    self.dead.store(true, Ordering::Relaxed);
                    return false;
                }
                Ok(n) => {
                    counters
                        .bytes_written
                        .fetch_add(n as u64, Ordering::Relaxed);
                    out.buf.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead.store(true, Ordering::Relaxed);
                    return false;
                }
            }
        }
        if out.buf.is_empty() {
            if out.armed {
                out.armed = false;
                let _ = poller.set_writable(self.fd, self.token, false);
            }
        } else if !out.armed {
            out.armed = true;
            let _ = poller.set_writable(self.fd, self.token, true);
        }
        true
    }
}

/// One subscription: where to push and from which cursor.
struct SubEntry {
    shared: Arc<ConnShared>,
    cursor: u64,
    /// Set when a backpressure stall skipped this subscriber: the
    /// deltas it missed are dropped and its next push is a full-window
    /// resync (the drop-with-resync-marker discipline).
    resync_on_resume: bool,
}

/// Every live subscription, keyed view → connection token. The outer
/// mutex also serializes fan-out rounds, so two pumps never drain the
/// same cursor twice.
#[derive(Default)]
struct SubRegistry {
    subs: Mutex<BTreeMap<String, BTreeMap<u64, SubEntry>>>,
    /// Any subscriber skipped for backpressure in the last round? The
    /// background pump retries on its tick only while this is set.
    any_stalled: AtomicBool,
    /// Tokens whose connection died outside the poller (a failed push
    /// or response write); the poller drains and reaps them.
    dead: Mutex<Vec<u64>>,
}

impl SubRegistry {
    fn insert(&self, token: u64, view: String, cursor: u64, shared: Arc<ConnShared>) {
        if let Ok(mut subs) = self.subs.lock() {
            subs.entry(view).or_default().insert(
                token,
                SubEntry {
                    shared,
                    cursor,
                    resync_on_resume: false,
                },
            );
        }
    }

    fn remove(&self, token: u64, view: &str) {
        if let Ok(mut subs) = self.subs.lock() {
            if let Some(entries) = subs.get_mut(view) {
                entries.remove(&token);
                if entries.is_empty() {
                    subs.remove(view);
                }
            }
        }
    }

    fn remove_conn(&self, token: u64) {
        if let Ok(mut subs) = self.subs.lock() {
            subs.retain(|_, entries| {
                entries.remove(&token);
                !entries.is_empty()
            });
        }
    }

    fn mark_dead(&self, token: u64) {
        if let Ok(mut dead) = self.dead.lock() {
            dead.push(token);
        }
    }

    fn take_dead(&self) -> Vec<u64> {
        self.dead
            .lock()
            .map_or_else(|_| Vec::new(), |mut d| std::mem::take(&mut *d))
    }
}

/// The O(delta) fan-out engine: drains each subscribed view past each
/// subscriber's cursor and pushes the result. Invoked synchronously by
/// the worker that committed and asynchronously by the background pump.
struct PushPump {
    engine: ArcEngine,
    registry: Arc<SubRegistry>,
    telemetry: Arc<Telemetry>,
    push_highwater: usize,
}

/// One entry in `fan_out`'s per-view drain memo, keyed by cursor:
/// `None` records an engine error (skip everyone at that cursor this
/// round); `Some((frame, to_seq))` carries the shared pre-encoded PUSH
/// frame (`None` when the batch was empty and there is nothing to send)
/// plus the cursor every rider advances to.
type DrainMemoEntry = Option<(Option<Arc<Vec<u8>>>, u64)>;

impl PushPump {
    /// One fan-out round over every subscription. Holding the registry
    /// lock for the round serializes concurrent pumps (worker-driven
    /// and background), so a cursor is never drained twice.
    fn fan_out(&self, poller: &Poller, counters: &NetCounters) {
        let Ok(mut subs) = self.registry.subs.lock() else {
            return;
        };
        if subs.is_empty() {
            return;
        }
        self.registry.any_stalled.store(false, Ordering::Relaxed);
        for (view, entries) in subs.iter_mut() {
            // Subscribers at the same cursor share one drain and one
            // encoded frame — the common caught-up case costs one
            // engine call for the whole view.
            let mut memo: HashMap<u64, DrainMemoEntry> = HashMap::new();
            for (token, entry) in entries.iter_mut() {
                if entry.shared.dead.load(Ordering::Relaxed) {
                    continue;
                }
                if entry.shared.buffered() > self.push_highwater {
                    // Backpressure: freeze this subscriber's cursor,
                    // drop what it would have been sent, resync later.
                    entry.resync_on_resume = true;
                    self.registry.any_stalled.store(true, Ordering::Relaxed);
                    continue;
                }
                // A stalled subscriber that drained its buffer resumes
                // with a full-window resync (cursor u64::MAX forces the
                // engine's clamp-to-resync path).
                let drain_cursor = if entry.resync_on_resume {
                    u64::MAX
                } else {
                    entry.cursor
                };
                let batch = match memo.get(&drain_cursor) {
                    Some(hit) => hit.clone(),
                    None => {
                        let computed = match self.engine.view_deltas_since(view, drain_cursor) {
                            Ok(b) if b.is_empty() => Some((None, b.to_seq)),
                            Ok(b) => {
                                // A resync replaces state rather than
                                // spanning a delta range, so its
                                // from_seq is normalized to to_seq (the
                                // engine echoes whatever cursor was
                                // asked for, including the forced
                                // u64::MAX sentinel).
                                let from_seq = if b.resync.is_some() {
                                    b.to_seq
                                } else {
                                    b.from_seq
                                };
                                let resp = Response::Push {
                                    view: view.clone(),
                                    from_seq,
                                    to_seq: b.to_seq,
                                    delta: b.delta,
                                    resync: b.resync,
                                };
                                Some((Some(Arc::new(resp.framed())), b.to_seq))
                            }
                            // The view vanished (or the engine is
                            // wedged): leave the cursor; a later round
                            // retries or the unsubscribe cleans up.
                            Err(_) => None,
                        };
                        memo.insert(drain_cursor, computed.clone());
                        computed
                    }
                };
                let Some((frame, to_seq)) = batch else {
                    continue;
                };
                let Some(frame) = frame else {
                    // Nothing settled past the cursor: nothing to push.
                    if !entry.resync_on_resume {
                        entry.cursor = entry.cursor.max(to_seq);
                    }
                    continue;
                };
                let write_span = Span::start();
                let mut tspan = esm_obs::trace::span_tagged("net_push_write", view.clone());
                if let Some(s) = tspan.as_mut() {
                    s.set_bytes(frame.len() as u64);
                }
                let ok = entry.shared.send(&frame, poller, counters);
                drop(tspan);
                self.telemetry
                    .record(Phase::NetPushWrite, write_span.elapsed_ns());
                if ok {
                    counters.pushes.fetch_add(1, Ordering::Relaxed);
                    entry.cursor = to_seq;
                    entry.resync_on_resume = false;
                } else {
                    self.registry.mark_dead(*token);
                    poller.notify();
                }
            }
        }
    }
}

struct Conn {
    stream: TcpStream,
    shared: Arc<ConnShared>,
    inbuf: Vec<u8>,
    /// Complete frames waiting their turn, each with its decode time.
    pending: VecDeque<(Vec<u8>, u64)>,
    busy: bool,
}

struct Job {
    /// Unique connection id (never reused, so a completion for a dead
    /// connection can never un-busy a later one).
    token: u64,
    shared: Arc<ConnShared>,
    payload: Vec<u8>,
    /// When the poller handed the frame to the pool (queue-wait clock).
    enqueued: Instant,
    /// How long the poller spent extracting this frame — a traced
    /// request backdates its server-side root by this much so the
    /// trace's origin sits where the bytes became a frame.
    decode_ns: u64,
}

/// A running network front end. Dropping it shuts the server down and
/// joins every thread.
pub struct NetServer {
    addr: SocketAddr,
    instance: u64,
    shutdown: Arc<AtomicBool>,
    counters: Arc<NetCounters>,
    telemetry: Arc<Telemetry>,
    poller: Arc<Poller>,
    /// The engine's commit signal the push pump parks on, woken at stop.
    notifier: Option<Arc<CommitNotifier>>,
    threads: Vec<JoinHandle<()>>,
}

impl NetServer {
    /// Bind `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port) and
    /// serve `engine` until shutdown.
    pub fn bind(
        engine: ArcEngine,
        addr: impl ToSocketAddrs,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        NetServer::serve(engine, TcpListener::bind(addr)?, config)
    }

    /// Serve `engine` on an already-bound listener.
    pub fn serve(
        engine: ArcEngine,
        listener: TcpListener,
        config: NetServerConfig,
    ) -> std::io::Result<NetServer> {
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let counters = Arc::new(NetCounters::default());
        let telemetry = Arc::new(Telemetry::with_config(config.telemetry.clone()));
        let identity = Arc::new(ServerIdentity {
            started: Instant::now(),
            workers: u32::try_from(config.workers.max(1)).unwrap_or(u32::MAX),
            instance: fresh_instance(),
        });
        let instance = identity.instance;
        let poller = Arc::new(Poller::new()?);
        poller.register(poll_fd(&listener), LISTENER_TOKEN)?;
        let registry = Arc::new(SubRegistry::default());
        let pump = Arc::new(PushPump {
            engine: engine.as_engine(),
            registry: Arc::clone(&registry),
            telemetry: Arc::clone(&telemetry),
            push_highwater: config.outbuf_limit / 2,
        });

        let notifier = engine.commit_notifier();
        let (jobs_tx, jobs_rx) = channel::<Job>();
        let jobs_rx = Arc::new(Mutex::new(jobs_rx));
        let (done_tx, done_rx) = channel::<u64>();

        let mut threads = Vec::with_capacity(config.workers.max(1) + 2);
        for _ in 0..config.workers.max(1) {
            let jobs_rx = Arc::clone(&jobs_rx);
            let done_tx = done_tx.clone();
            let counters = Arc::clone(&counters);
            let telemetry = Arc::clone(&telemetry);
            let identity = Arc::clone(&identity);
            let poller = Arc::clone(&poller);
            let registry = Arc::clone(&registry);
            let pump = Arc::clone(&pump);
            threads.push(std::thread::spawn(move || {
                worker_loop(
                    &jobs_rx, &done_tx, &counters, &telemetry, &identity, &poller, &registry, &pump,
                );
            }));
        }
        drop(done_tx);

        // The background push pump: parks on the engine's commit signal
        // and fans out pushes for commits this server didn't execute
        // (in-process sessions, other fronts) plus stalled-subscriber
        // retries. Worker threads fan out synchronously for their own
        // commits, so the pump is the safety net, not the hot path.
        {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let poller = Arc::clone(&poller);
            let pump = Arc::clone(&pump);
            let notifier = notifier.clone();
            threads.push(std::thread::spawn(move || {
                let mut seen = 0u64;
                while !shutdown.load(Ordering::SeqCst) {
                    match &notifier {
                        Some(n) => {
                            let cur =
                                n.wait_past_unless(seen, &shutdown, Duration::from_millis(50));
                            if shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            let stalled = pump.registry.any_stalled.load(Ordering::Relaxed);
                            if cur > seen || stalled {
                                seen = cur;
                                pump.fan_out(&poller, &counters);
                            }
                        }
                        None => {
                            // No commit signal (a proxied engine):
                            // tick. Coarse, but correct — drains always
                            // start from stored cursors.
                            std::thread::sleep(Duration::from_millis(50));
                            if shutdown.load(Ordering::SeqCst) {
                                return;
                            }
                            pump.fan_out(&poller, &counters);
                        }
                    }
                }
            }));
        }

        {
            let shutdown = Arc::clone(&shutdown);
            let counters = Arc::clone(&counters);
            let telemetry = Arc::clone(&telemetry);
            let poller = Arc::clone(&poller);
            let registry = Arc::clone(&registry);
            threads.push(std::thread::spawn(move || {
                poller_loop(
                    engine, listener, config, &shutdown, &counters, &telemetry, &poller, &registry,
                    jobs_tx, done_rx,
                );
            }));
        }

        Ok(NetServer {
            addr,
            instance,
            shutdown,
            counters,
            telemetry,
            poller,
            notifier,
            threads,
        })
    }

    /// The bound address (with the real port when bound to port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// This server's instance id, which marks the snapshots its clients
    /// cache ([`crate::proto::SnapshotMark`]): random per server, so a
    /// mark from a server that listened on the same address before is
    /// recognised as foreign.
    pub fn instance(&self) -> u64 {
        self.instance
    }

    /// Lifetime connection/request counters.
    pub fn stats(&self) -> NetStats {
        NetStats {
            accepted: self.counters.accepted.load(Ordering::Relaxed),
            dropped: self.counters.dropped.load(Ordering::Relaxed),
            requests: self.counters.requests.load(Ordering::Relaxed),
            pushes: self.counters.pushes.load(Ordering::Relaxed),
            bytes_read: self.counters.bytes_read.load(Ordering::Relaxed),
            bytes_written: self.counters.bytes_written.load(Ordering::Relaxed),
        }
    }

    /// The server's own phase-latency snapshot: frame decode, queue
    /// wait, handler execution, response write, push write. Engine
    /// phases live on the engine's [`esm_engine::Engine::telemetry`];
    /// the `STATS` verb returns both, merged.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.telemetry.snapshot()
    }

    /// Stop accepting, drop every connection, and join all threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.poller.notify();
        // The push pump parks on the commit signal, which shutdown does
        // not move: wake it to see the flag.
        if let Some(n) = &self.notifier {
            n.wake();
        }
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for NetServer {
    fn drop(&mut self) {
        self.stop();
    }
}

impl std::fmt::Debug for NetServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "NetServer {{ addr: {} }}", self.addr)
    }
}

/// A short stable name for the server-side trace root of one request.
fn op_name(req: &Request) -> &'static str {
    match req {
        Request::Ping => "net:ping",
        Request::TableNames => "net:table_names",
        Request::Table(_) => "net:table",
        Request::SnapshotSince { .. } => "net:snapshot_since",
        Request::DefineView { .. } => "net:define_view",
        Request::OpenView(_) => "net:open_view",
        Request::ViewNames => "net:view_names",
        Request::ReadView(_) => "net:read_view",
        Request::EditViewDelta { .. } => "net:edit_view_delta",
        Request::Commit { .. } => "net:commit",
        Request::Metrics => "net:metrics",
        Request::Stats => "net:stats",
        Request::Checkpoint => "net:checkpoint",
        Request::SyncWal => "net:sync_wal",
        Request::ServerPing => "net:server_ping",
        Request::Traces => "net:traces",
        Request::Subscribe { .. } => "net:subscribe",
        Request::Unsubscribe(_) => "net:unsubscribe",
        Request::ReplManifest => "net:repl_manifest",
        Request::ReplFetch { .. } => "net:repl_fetch",
    }
}

/// Deferred work a worker performs after its response frame is on the
/// wire, so frame order on the connection is deterministic.
enum Post {
    None,
    /// Register the subscription (after the `SubAck` and the optional
    /// initial resync push are buffered) and run a catch-up fan-out.
    Subscribe {
        view: String,
        cursor: u64,
        initial: Option<Vec<u8>>,
    },
}

/// Build the `SUBSCRIBE` reply: validate the view, resolve the cursor,
/// and for a "from now" subscription pre-encode the initial full-window
/// resync push. Registration itself is deferred ([`Post::Subscribe`]).
fn subscribe_prep(
    engine: &dyn esm_engine::Engine,
    view: &str,
    cursor: Option<u64>,
) -> (Response, Post) {
    match cursor {
        Some(c) => match engine.view_cursor(view) {
            // An explicit cursor resumes a previous session; the
            // catch-up fan-out after registration delivers (or resyncs)
            // everything settled past it.
            Ok(_) => (
                Response::SubAck { cursor: c },
                Post::Subscribe {
                    view: view.to_string(),
                    cursor: c,
                    initial: None,
                },
            ),
            Err(e) => (Response::Err(e), Post::None),
        },
        None => {
            // "From now": ack the current cursor and seed the client
            // with the full current window. The window is read after
            // the cursor, so it may already reflect later commits —
            // those deltas are re-delivered and apply idempotently
            // (upserts and tolerant deletes).
            let prepared = engine
                .view_cursor(view)
                .and_then(|c| engine.read_view(view).map(|w| (c, w)));
            match prepared {
                Ok((c, window)) => {
                    let push = Response::Push {
                        view: view.to_string(),
                        from_seq: c,
                        to_seq: c,
                        delta: Delta::empty(),
                        resync: Some(window),
                    };
                    (
                        Response::SubAck { cursor: c },
                        Post::Subscribe {
                            view: view.to_string(),
                            cursor: c,
                            initial: Some(push.framed()),
                        },
                    )
                }
                Err(e) => (Response::Err(e), Post::None),
            }
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    jobs: &Mutex<Receiver<Job>>,
    done: &Sender<u64>,
    counters: &NetCounters,
    telemetry: &Telemetry,
    identity: &ServerIdentity,
    poller: &Poller,
    registry: &SubRegistry,
    pump: &PushPump,
) {
    loop {
        // Take the receiver lock only to fetch the next job, never
        // while executing one.
        let job = match jobs.lock() {
            Ok(rx) => rx.recv(),
            Err(_) => return,
        };
        let Ok(job) = job else { return };
        counters.requests.fetch_add(1, Ordering::Relaxed);
        let queue_ns = u64::try_from(job.enqueued.elapsed().as_nanos()).unwrap_or(u64::MAX);
        telemetry.record(Phase::NetQueueWait, queue_ns);
        // Panic containment: a request that panics its handler must
        // cost an error response, not this worker thread (a dead worker
        // shrinks the pool and wedges the connection whose completion
        // token it never sent).
        let handler_span = Span::start();
        let (mut response, trace_root, post) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                match Request::decode_with_trace(&job.payload) {
                    Ok((req, ctx)) => {
                        // A wire trace context roots a server-side tree
                        // under the client's trace id, unconditionally
                        // (the client already made the sampling call).
                        // Its origin is backdated to when the poller
                        // started extracting the frame, so the already-
                        // measured decode and queue-wait phases file as
                        // proper spans instead of vanishing into the
                        // root's leading edge.
                        let root = ctx.map(|(id, _parent)| {
                            let origin = job
                                .enqueued
                                .checked_sub(Duration::from_nanos(job.decode_ns))
                                .unwrap_or(job.enqueued);
                            let root =
                                telemetry.start_trace_with_id(TraceId(id), op_name(&req), origin);
                            root.record_span(
                                "net_frame_decode",
                                "",
                                0,
                                job.decode_ns,
                                job.payload.len() as u64,
                            );
                            root.record_span("net_queue_wait", "", job.decode_ns, queue_ns, 0);
                            root
                        });
                        match req {
                            // SERVER_PING is answered right here: no
                            // engine call, no engine lock — it stays
                            // honest even while the engine is wedged.
                            Request::ServerPing => (
                                Response::ServerInfo {
                                    uptime_ms: u64::try_from(
                                        identity.started.elapsed().as_millis(),
                                    )
                                    .unwrap_or(u64::MAX),
                                    protocol_rev: PROTOCOL_REV,
                                    workers: identity.workers,
                                },
                                root,
                                Post::None,
                            ),
                            // Subscribe/Unsubscribe are connection
                            // state, so the net layer owns them.
                            Request::Subscribe { view, cursor } => {
                                let (resp, post) =
                                    subscribe_prep(job.shared.session.engine(), &view, cursor);
                                (resp, root, post)
                            }
                            Request::Unsubscribe(view) => {
                                registry.remove(job.token, &view);
                                (Response::Unit, root, Post::None)
                            }
                            req => {
                                let commitish = matches!(
                                    req,
                                    Request::EditViewDelta { .. } | Request::Commit { .. }
                                );
                                let hspan = esm_obs::trace::span("net_handler");
                                let resp = handle(&job.shared.session, identity.instance, req);
                                drop(hspan);
                                // Fan out this commit's pushes NOW,
                                // inside the request's trace, so the
                                // sub_drain / net_push_write spans hang
                                // off the commit that caused them.
                                if commitish && !matches!(resp, Response::Err(_)) {
                                    pump.fan_out(poller, counters);
                                }
                                (resp, root, Post::None)
                            }
                        }
                    }
                    Err(WireError(msg)) => (
                        Response::Err(esm_engine::EngineError::Io(format!("bad request: {msg}"))),
                        None,
                        Post::None,
                    ),
                }
            }))
            .unwrap_or_else(|_| {
                (
                    Response::Err(esm_engine::EngineError::Io(
                        "internal error while handling the request".into(),
                    )),
                    None,
                    Post::None,
                )
            });
        telemetry.record(Phase::NetHandler, handler_span.elapsed_ns());
        // A STATS response carries the engine's phases; fold in the
        // server's own net-layer phases (disjoint sets — the engine
        // never records `net_*`, the server never records engine
        // phases — so the merge changes no engine histogram). TRACE
        // gets the same treatment: the net layer's wire-rooted trees
        // ride along with the engine's session-rooted ones.
        if let Response::Stats(snap) = &mut response {
            snap.merge(&telemetry.snapshot());
        }
        if let Response::Traces(report) = &mut response {
            report.merge(&telemetry.traces_report());
        }
        let write_span = Span::start();
        let mut wspan = esm_obs::trace::span("net_response_write");
        let framed = response.framed();
        if let Some(s) = wspan.as_mut() {
            s.set_bytes(framed.len() as u64);
        }
        // Direct write: the response goes to the socket from this
        // thread; only a partial write leaves bytes for the poller.
        let mut alive = job.shared.send(&framed, poller, counters);
        drop(wspan);
        // Files the trace (the root drop snapshots every span recorded
        // under it, response write included).
        drop(trace_root);
        telemetry.record(Phase::NetResponseWrite, write_span.elapsed_ns());
        if alive {
            if let Post::Subscribe {
                view,
                cursor,
                initial,
            } = post
            {
                if let Some(push) = initial {
                    counters.pushes.fetch_add(1, Ordering::Relaxed);
                    alive = job.shared.send(&push, poller, counters);
                }
                if alive {
                    // Register only after the ack (and initial window)
                    // are buffered, so no pump round can interleave a
                    // delta push before them; the catch-up fan-out then
                    // closes the registration gap.
                    registry.insert(job.token, view, cursor, Arc::clone(&job.shared));
                    pump.fan_out(poller, counters);
                }
            }
        }
        if !alive {
            registry.mark_dead(job.token);
        }
        // The poller re-arms the connection (or reaps it); the wake-up
        // makes that immediate instead of waiting out a sleep.
        let _ = done.send(job.token);
        poller.notify();
    }
}

#[allow(clippy::too_many_arguments)]
fn poller_loop(
    engine: ArcEngine,
    listener: TcpListener,
    config: NetServerConfig,
    shutdown: &AtomicBool,
    counters: &NetCounters,
    telemetry: &Telemetry,
    poller: &Poller,
    registry: &SubRegistry,
    jobs: Sender<Job>,
    done: Receiver<u64>,
) {
    let mut conns: BTreeMap<u64, Conn> = BTreeMap::new();
    let mut next_token: u64 = 0;
    let mut read_chunk = [0u8; 16 * 1024];
    // The fallback poller has no readiness facts, so between sweeps it
    // backs off adaptively: near-spinning right after activity, up to
    // the configured cap during a lull. The epoll poller ignores this
    // and blocks until real readiness (or the cap, for shutdown).
    let min_sleep = Duration::from_micros(2);
    let mut backoff = min_sleep;
    while !shutdown.load(Ordering::SeqCst) {
        let timeout = backoff.min(config.idle_sleep.max(min_sleep)).max(min_sleep);
        let outcome = match poller.wait(config.idle_sleep.max(timeout).min(config.idle_sleep)) {
            Ok(o) => o,
            Err(_) => PollOutcome::ScanAll,
        };
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let mut active = false;

        // Reap connections whose writer (worker or pump) hit an error.
        for token in registry.take_dead() {
            drop_conn(&mut conns, token, poller, registry, counters);
        }

        // Completions: connections whose in-flight request finished.
        loop {
            match done.try_recv() {
                Ok(token) => {
                    active = true;
                    if let Some(conn) = conns.get_mut(&token) {
                        conn.busy = false;
                        if conn.shared.dead.load(Ordering::Relaxed)
                            || dispatch_next(token, conn, &jobs)
                        {
                            drop_conn(&mut conns, token, poller, registry, counters);
                        }
                    }
                }
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => break,
            }
        }

        match outcome {
            PollOutcome::Ready(events) => {
                for ev in events {
                    if ev.token == LISTENER_TOKEN {
                        active |= accept_loop(
                            &listener,
                            &engine,
                            &mut conns,
                            &mut next_token,
                            poller,
                            counters,
                        );
                        continue;
                    }
                    let Some(conn) = conns.get_mut(&ev.token) else {
                        continue;
                    };
                    let mut dead = false;
                    if ev.readable {
                        active = true;
                        dead = service_readable(
                            ev.token,
                            conn,
                            &mut read_chunk,
                            telemetry,
                            counters,
                            &jobs,
                        );
                    }
                    if !dead && ev.writable {
                        active = true;
                        dead = !conn.shared.flush(poller, counters);
                    }
                    if !dead {
                        dead = conn.shared.buffered() > config.outbuf_limit;
                    }
                    if dead {
                        drop_conn(&mut conns, ev.token, poller, registry, counters);
                    }
                }
            }
            PollOutcome::ScanAll => {
                // No readiness facts: accept, then sweep every
                // connection with non-blocking reads and flushes.
                active |= accept_loop(
                    &listener,
                    &engine,
                    &mut conns,
                    &mut next_token,
                    poller,
                    counters,
                );
                let tokens: Vec<u64> = conns.keys().copied().collect();
                for token in tokens {
                    let Some(conn) = conns.get_mut(&token) else {
                        continue;
                    };
                    let had_bytes = !conn.inbuf.is_empty() || !conn.pending.is_empty();
                    let mut dead =
                        service_readable(token, conn, &mut read_chunk, telemetry, counters, &jobs);
                    if !dead {
                        dead = !conn.shared.flush(poller, counters)
                            || conn.shared.buffered() > config.outbuf_limit;
                    }
                    active |= had_bytes != (!conn.inbuf.is_empty() || !conn.pending.is_empty());
                    if dead {
                        drop_conn(&mut conns, token, poller, registry, counters);
                        active = true;
                    }
                }
            }
        }

        backoff = if active {
            min_sleep
        } else {
            (backoff * 2).min(config.idle_sleep.max(min_sleep))
        };
    }
    // Shutdown: dropping `jobs` ends the workers once the queue drains;
    // dropping the connections closes every socket.
    for (_, conn) in conns.iter() {
        poller.deregister(poll_fd(&conn.stream));
    }
}

/// Accept every pending connection; returns whether any arrived.
fn accept_loop(
    listener: &TcpListener,
    engine: &ArcEngine,
    conns: &mut BTreeMap<u64, Conn>,
    next_token: &mut u64,
    poller: &Poller,
    counters: &NetCounters,
) -> bool {
    let mut any = false;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let Ok(write_half) = stream.try_clone() else {
                    continue;
                };
                counters.accepted.fetch_add(1, Ordering::Relaxed);
                any = true;
                let token = *next_token;
                *next_token += 1;
                let fd = poll_fd(&stream);
                if poller.register(fd, token).is_err() {
                    counters.dropped.fetch_add(1, Ordering::Relaxed);
                    continue;
                }
                let conn = Conn {
                    stream,
                    shared: Arc::new(ConnShared {
                        token,
                        session: Session::new(engine.as_engine()),
                        stream: write_half,
                        fd,
                        out: Mutex::new(OutBuf::default()),
                        dead: AtomicBool::new(false),
                    }),
                    inbuf: Vec::new(),
                    pending: VecDeque::new(),
                    busy: false,
                };
                conns.insert(token, conn);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(_) => break,
        }
    }
    any
}

/// Drain readable bytes, extract frames, dispatch if idle. Returns
/// true when the connection must drop (EOF, I/O error, corruption).
fn service_readable(
    token: u64,
    conn: &mut Conn,
    read_chunk: &mut [u8],
    telemetry: &Telemetry,
    counters: &NetCounters,
    jobs: &Sender<Job>,
) -> bool {
    loop {
        match conn.stream.read(read_chunk) {
            Ok(0) => return true,
            Ok(n) => {
                counters.bytes_read.fetch_add(n as u64, Ordering::Relaxed);
                conn.inbuf.extend_from_slice(&read_chunk[..n]);
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return true,
        }
    }
    // Extract complete frames (torn prefixes wait; corruption drops
    // the connection).
    loop {
        let decode_span = Span::start();
        match decode_frame(&conn.inbuf) {
            Ok(Some((payload, consumed))) => {
                let decode_ns = decode_span.elapsed_ns();
                telemetry.record(Phase::NetFrameDecode, decode_ns);
                conn.inbuf.drain(..consumed);
                conn.pending.push_back((payload, decode_ns));
            }
            Ok(None) => break,
            Err(_) => return true,
        }
    }
    if !conn.busy {
        return dispatch_next(token, conn, jobs);
    }
    false
}

/// Hand the next pending frame to the pool, preserving the ≤1-in-flight
/// per-connection ordering invariant. Returns true when the pool is
/// gone (shutdown) and the connection should drop.
fn dispatch_next(token: u64, conn: &mut Conn, jobs: &Sender<Job>) -> bool {
    if conn.busy {
        return false;
    }
    if let Some((payload, decode_ns)) = conn.pending.pop_front() {
        conn.busy = true;
        if jobs
            .send(Job {
                token,
                shared: Arc::clone(&conn.shared),
                payload,
                enqueued: Instant::now(),
                decode_ns,
            })
            .is_err()
        {
            return true;
        }
    }
    false
}

fn drop_conn(
    conns: &mut BTreeMap<u64, Conn>,
    token: u64,
    poller: &Poller,
    registry: &SubRegistry,
    counters: &NetCounters,
) {
    if let Some(conn) = conns.remove(&token) {
        conn.shared.dead.store(true, Ordering::Relaxed);
        poller.deregister(poll_fd(&conn.stream));
        registry.remove_conn(token);
        counters.dropped.fetch_add(1, Ordering::Relaxed);
    }
}
