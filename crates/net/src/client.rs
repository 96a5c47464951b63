//! [`RemoteEngine`]: the [`Engine`] trait spoken over a socket.
//!
//! One `RemoteEngine` is one connection (clones share it; open several
//! for parallelism — the server multiplexes them all onto one engine).
//! Because it implements [`Engine`], an [`esm_engine::EntangledView`]
//! or [`esm_engine::Session`] over a `RemoteEngine` is indistinguishable
//! from one over an in-process engine — the same conformance suite
//! ([`esm_engine::testkit`]) runs against both, across a real wire.
//!
//! ## One cached snapshot per server
//!
//! A process keeps one copy of each server's database, shared by every
//! `RemoteEngine` connected to that address, with the server instance
//! and commit stamp it reflects (see [`crate::cache`]).
//! [`Engine::snapshot`] and every [`Engine::transact`] attempt take a
//! ticket for a current copy: one caller at a time sends
//! `SNAPSHOT_SINCE(mark)` over its own connection, the server answers
//! with the base-table deltas committed since the stamp (or the whole
//! database when its log no longer covers it, or the mark is another
//! server instance's), and the answer is applied in place and serves
//! every ticket taken before the request went out. A catch-up therefore
//! ships the commits since the process last asked, however many
//! connections it holds, and the copy is one database, however many
//! connections share it.
//!
//! ## Closures do not serialize — equalities do
//!
//! Two trait methods take closures; both are driven from the client:
//!
//! * [`Engine::edit_view_optimistic`] is the engine's one edit loop
//!   (read, edit, diff, `EDIT_VIEW_DELTA`), run client-side: read the
//!   view, run the edit on a chunk-sharing clone of the window, diff the
//!   two ([`Delta::between`], O(chunks the edit wrote)) and send the
//!   window delta. Its deleted rows are the pre-images the edit read;
//!   the server commits the delta iff every touched row still holds
//!   its pre-image, and a stale one is a first-committer-wins conflict
//!   that the client retries from a fresh read, up to the caller's
//!   attempt budget. The request carries the delta, not the window.
//!   [`Engine::write_view`], the paper's `set`, runs the same loop
//!   client-side with the edit "replace the window", retrying until it
//!   lands, so a put ships a window delta too, not the window.
//! * [`Engine::transact`] becomes refresh/execute/commit-deltas: the
//!   body runs on a chunk-sharing clone of the freshly caught-up cached
//!   database, so diffing it against the cache costs the chunks the
//!   body wrote, and the resulting [`Delta`]s (whose `deleted` rows are
//!   pre-images, exactly what `Delta::between` emits) are validated
//!   row-for-row server-side under the shard lock.

use std::collections::{BTreeMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use esm_engine::{
    ArcEngine, CommitReceipt, Engine, EngineError, EntangledView, MetricsSnapshot, ReplManifest,
    WalSource,
};
use esm_relational::ViewDef;
use esm_store::{Database, Delta, Table};

use crate::cache::SnapshotCache;
use crate::frame::{decode_frame, read_frame};
use crate::proto::{Request, Response, SnapshotMark};

/// A client-side engine handle speaking the wire protocol over one
/// TCP connection. Requests on one handle serialize; clone cheaply to
/// share, or connect again for concurrency.
///
/// Every [`Engine`] method — getters included — surfaces transport
/// failures as [`EngineError::Io`]; a dead connection never panics and
/// never fabricates an empty answer.
#[derive(Clone)]
pub struct RemoteEngine {
    conn: Arc<Mutex<Conn>>,
    peer: SocketAddr,
    /// The database cached for `peer`, shared by every handle of the
    /// process that speaks to it.
    cache: Arc<SnapshotCache>,
    /// Client-local telemetry registry: a `Session` over this engine
    /// mints its trace roots here (head sampling is client-side), and
    /// the round-trip spans land here. Shared across clones.
    telemetry: Arc<esm_obs::Telemetry>,
}

/// One connection: requests on it serialize.
struct Conn {
    stream: TcpStream,
}

impl Conn {
    /// One request/response round trip, returning the response payload.
    /// With a trace active on this thread, the round trip becomes a span
    /// and the request carries the trace id (parented under that span)
    /// so the server roots its own tree under the same id. Untraced
    /// requests encode byte-identically to revision 1.
    fn exchange(&mut self, req: &Request) -> Result<Vec<u8>, EngineError> {
        let mut rt_span = esm_obs::trace::span("net_round_trip");
        let ctx = esm_obs::trace::current().map(|t| (t.id().0, t.parent_span()));
        let framed = req.framed_with_trace(ctx);
        self.stream.write_all(&framed)?;
        let payload = read_frame(&mut self.stream)?;
        if let Some(s) = rt_span.as_mut() {
            s.set_bytes((framed.len() - crate::frame::HEADER_BYTES + payload.len()) as u64);
        }
        Ok(payload)
    }
}

impl std::fmt::Debug for RemoteEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "RemoteEngine {{ peer: {} }}", self.peer)
    }
}

impl RemoteEngine {
    /// Connect to a [`crate::NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<RemoteEngine> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let peer = stream.peer_addr()?;
        Ok(RemoteEngine {
            conn: Arc::new(Mutex::new(Conn { stream })),
            peer,
            cache: SnapshotCache::for_peer(peer),
            telemetry: Arc::new(esm_obs::Telemetry::new()),
        })
    }

    /// The client-local telemetry registry (trace roots, round-trip
    /// spans). Tune its sampling with
    /// [`esm_obs::Telemetry::set_trace_sample_every`].
    pub fn telemetry_registry(&self) -> &Arc<esm_obs::Telemetry> {
        &self.telemetry
    }

    /// The server address this handle speaks to.
    pub fn peer_addr(&self) -> SocketAddr {
        self.peer
    }

    /// Round-trip a liveness probe.
    pub fn ping(&self) -> Result<(), EngineError> {
        match self.request(&Request::Ping)? {
            Response::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// Probe the server's network layer without touching any engine
    /// lock: `(uptime_ms, protocol_rev, workers)`.
    pub fn server_ping(&self) -> Result<(u64, u32, u32), EngineError> {
        match self.request(&Request::ServerPing)? {
            Response::ServerInfo {
                uptime_ms,
                protocol_rev,
                workers,
            } => Ok((uptime_ms, protocol_rev, workers)),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch the server's WAL-shipping manifest (revision 4). Errors
    /// with [`EngineError::Io`] against in-memory engines, which have
    /// no shippable log.
    pub fn repl_manifest(&self) -> Result<ReplManifest, EngineError> {
        match self.call(&Request::ReplManifest)? {
            Response::ReplManifest(m) => Ok(m),
            other => Err(unexpected(other)),
        }
    }

    /// Fetch up to `len` bytes of `shard-<shard>/<file>` from `offset`
    /// (revision 4). A short or empty chunk means EOF at manifest time.
    pub fn repl_fetch(
        &self,
        shard: u64,
        file: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, EngineError> {
        match self.call(&Request::ReplFetch {
            shard,
            file: file.to_string(),
            offset,
            len,
        })? {
            Response::ReplChunk(bytes) => Ok(bytes),
            other => Err(unexpected(other)),
        }
    }

    /// This connection as a [`WalSource`]: feed it to
    /// [`esm_engine::ReplicaEngine::bootstrap`] and the replica ships
    /// the primary's WAL over this wire. Clones the handle — shipping
    /// shares the connection with any other use.
    pub fn wal_source(&self) -> RemoteWalSource {
        RemoteWalSource {
            engine: self.clone(),
        }
    }

    /// Follow a replica's write rejection: when `e` is
    /// [`EngineError::NotPrimary`] carrying an advertised address,
    /// connect there. `None` when the error is anything else or the
    /// replica knows no primary (promotion in progress — retry later).
    pub fn follow_redirect(e: &EngineError) -> Option<std::io::Result<RemoteEngine>> {
        redirect_addr(e).map(RemoteEngine::connect)
    }

    fn request(&self, req: &Request) -> Result<Response, EngineError> {
        let payload = self.lock()?.exchange(req)?;
        Ok(Response::decode(&payload)?)
    }

    fn lock(&self) -> Result<MutexGuard<'_, Conn>, EngineError> {
        self.conn
            .lock()
            .map_err(|_| EngineError::Io("remote connection poisoned".into()))
    }

    /// A chunk-sharing clone of the server's current database, from the
    /// process's cache for this server. When this caller refreshes the
    /// cache, it sends one `SNAPSHOT_SINCE` request over this connection
    /// and applies the answer — the changes since the cached mark, or the
    /// whole database — in place.
    fn fresh_snapshot(&self) -> Result<Database, EngineError> {
        self.cache.fresh(&mut |since, mut db| {
            let payload = self.lock()?.exchange(&Request::SnapshotSince { since })?;
            let (server, answer) = match Response::decode(&payload)? {
                Response::SnapshotSince { server, answer } => (server, answer),
                Response::Err(e) => return Err(e),
                other => return Err(unexpected(other)),
            };
            let mark = SnapshotMark {
                server,
                stamp: answer.stamp,
            };
            answer.apply_to(&mut db)?;
            Ok((mark, db))
        })
    }

    /// Like [`RemoteEngine::request`] but lifts a structured server
    /// error into `Err`.
    fn call(&self, req: &Request) -> Result<Response, EngineError> {
        match self.request(req)? {
            Response::Err(e) => Err(e),
            ok => Ok(ok),
        }
    }
}

fn unexpected(resp: Response) -> EngineError {
    EngineError::Io(format!("unexpected response shape: {resp:?}"))
}

/// The primary address inside a [`EngineError::NotPrimary`] rejection,
/// when the replica had one to advertise.
pub fn redirect_addr(e: &EngineError) -> Option<&str> {
    match e {
        EngineError::NotPrimary { primary } if !primary.is_empty() => Some(primary),
        _ => None,
    }
}

/// A [`WalSource`] that ships a primary's WAL over the wire protocol:
/// the replication analogue of [`RemoteEngine`]. A replica bootstrapped
/// over one of these is a warm standby for a primary it has never
/// shared a disk with.
#[derive(Debug, Clone)]
pub struct RemoteWalSource {
    engine: RemoteEngine,
}

impl WalSource for RemoteWalSource {
    fn manifest(&self) -> Result<ReplManifest, EngineError> {
        self.engine.repl_manifest()
    }

    fn fetch(&self, shard: u64, file: &str, offset: u64, len: u64) -> Result<Vec<u8>, EngineError> {
        self.engine.repl_fetch(shard, file, offset, len)
    }
}

impl Engine for RemoteEngine {
    fn as_engine(&self) -> ArcEngine {
        Arc::new(self.clone())
    }

    fn table_names(&self) -> Result<Vec<String>, EngineError> {
        // A transport failure must not masquerade as "an engine with no
        // tables"; it surfaces as the error it is.
        match self.call(&Request::TableNames)? {
            Response::Names(names) => Ok(names),
            other => Err(unexpected(other)),
        }
    }

    fn table(&self, name: &str) -> Result<Table, EngineError> {
        match self.call(&Request::Table(name.to_string()))? {
            Response::Table(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    fn snapshot(&self) -> Result<Database, EngineError> {
        self.fresh_snapshot()
    }

    fn define_view(
        &self,
        name: &str,
        table: &str,
        def: &ViewDef,
    ) -> Result<EntangledView, EngineError> {
        match self.call(&Request::DefineView {
            name: name.to_string(),
            table: table.to_string(),
            def: def.clone(),
        })? {
            Response::Unit => Ok(EntangledView::attach(self.as_engine(), name)),
            other => Err(unexpected(other)),
        }
    }

    fn view(&self, name: &str) -> Result<EntangledView, EngineError> {
        match self.call(&Request::OpenView(name.to_string()))? {
            Response::Unit => Ok(EntangledView::attach(self.as_engine(), name)),
            other => Err(unexpected(other)),
        }
    }

    fn view_names(&self) -> Result<Vec<String>, EngineError> {
        match self.call(&Request::ViewNames)? {
            Response::Names(names) => Ok(names),
            other => Err(unexpected(other)),
        }
    }

    fn read_view(&self, name: &str) -> Result<Table, EngineError> {
        match self.call(&Request::ReadView(name.to_string()))? {
            Response::Table(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    /// One `EDIT_VIEW_DELTA` request carrying the window delta; a stale
    /// pre-image comes back as [`EngineError::Conflict`].
    fn edit_view_delta(&self, name: &str, delta: &Delta) -> Result<Delta, EngineError> {
        match self.call(&Request::EditViewDelta {
            name: name.to_string(),
            delta: delta.clone(),
        })? {
            Response::Delta(d) => Ok(d),
            other => Err(unexpected(other)),
        }
    }

    fn transact(
        &self,
        max_attempts: u32,
        body: &dyn Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        for _ in 0..max_attempts.max(1) {
            let snapshot = self.fresh_snapshot()?;
            let mut working = snapshot.clone();
            body(&mut working)?;
            let mut deltas: Vec<(String, Delta)> = Vec::new();
            for name in snapshot.table_names() {
                let delta = Delta::between(snapshot.table(name)?, working.table(name)?)?;
                if !delta.is_empty() {
                    deltas.push((name.to_string(), delta));
                }
            }
            let delta_map = deltas.iter().cloned().collect();
            // Let go of the clones before the round trip, so a refresh of
            // the shared cache meanwhile copies no chunk for them.
            drop((snapshot, working));
            match self.call(&Request::Commit { deltas }) {
                Ok(Response::Receipt { stamp, shards, gtx }) => {
                    return Ok(CommitReceipt {
                        stamp,
                        shards,
                        deltas: delta_map,
                        gtx,
                    })
                }
                Ok(other) => return Err(unexpected(other)),
                Err(EngineError::Conflict { .. }) => continue,
                Err(e) => return Err(e),
            }
        }
        Err(EngineError::Conflict {
            table: String::new(),
            detail: format!("remote transaction still conflicted after {max_attempts} attempts"),
        })
    }

    /// One `Commit` request carrying the deltas: the server validates
    /// each row's pre-image against its live state, so nothing is
    /// downloaded first. A stale pre-image comes back as
    /// [`EngineError::Conflict`].
    fn commit_checked(&self, deltas: &[(String, Delta)]) -> Result<CommitReceipt, EngineError> {
        let deltas: Vec<(String, Delta)> = deltas
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .cloned()
            .collect();
        let mut delta_map: BTreeMap<String, Delta> = BTreeMap::new();
        for (name, delta) in &deltas {
            let entry = delta_map.entry(name.clone()).or_default();
            entry.inserted.extend(delta.inserted.iter().cloned());
            entry.deleted.extend(delta.deleted.iter().cloned());
        }
        match self.call(&Request::Commit { deltas })? {
            Response::Receipt { stamp, shards, gtx } => Ok(CommitReceipt {
                stamp,
                shards,
                deltas: delta_map,
                gtx,
            }),
            other => Err(unexpected(other)),
        }
    }

    fn metrics(&self) -> Result<MetricsSnapshot, EngineError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(m) => Ok(m),
            other => Err(unexpected(other)),
        }
    }

    fn telemetry(&self) -> Result<esm_obs::TelemetrySnapshot, EngineError> {
        // The server folds its own net-layer phases (frame decode,
        // queue wait, handler, response write) into the engine's
        // snapshot before it crosses the wire.
        match self.call(&Request::Stats)? {
            Response::Stats(t) => Ok(t),
            other => Err(unexpected(other)),
        }
    }

    fn traces(&self) -> Result<esm_obs::TraceReport, EngineError> {
        // Server-side trees first (rooted at frame decode, fsync spans
        // inside), then the client-local trees that carry the matching
        // round-trip spans — correlated by shared trace id.
        match self.call(&Request::Traces)? {
            Response::Traces(mut server) => {
                server.merge(&self.telemetry.traces_report());
                Ok(server)
            }
            other => Err(unexpected(other)),
        }
    }

    fn telemetry_handle(&self) -> Option<Arc<esm_obs::Telemetry>> {
        Some(Arc::clone(&self.telemetry))
    }

    fn checkpoint(&self) -> Result<Option<u64>, EngineError> {
        match self.call(&Request::Checkpoint)? {
            Response::Seq(seq) => Ok(seq),
            other => Err(unexpected(other)),
        }
    }

    fn sync_wal(&self) -> Result<(), EngineError> {
        match self.call(&Request::SyncWal)? {
            Response::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }
}

/// One `PUSH` frame received on a subscription: either the coalesced
/// deltas spanning `(from_seq, to_seq]`, or a full-window `resync`
/// (stall recovery, WAL-window miss, lens rebuild, sharded stamp
/// granularity).
#[derive(Debug, Clone, PartialEq)]
pub struct PushEvent {
    /// The subscribed view this push belongs to.
    pub view: String,
    /// The cursor this push continues from.
    pub from_seq: u64,
    /// The cursor a subscriber is at after applying this push.
    pub to_seq: u64,
    /// Coalesced view deltas (empty when `resync` is present).
    pub delta: Delta,
    /// When present: adopt this full window and discard local state.
    pub resync: Option<Table>,
}

impl PushEvent {
    /// Fold this push into a local replica of the view. Applying
    /// pushes in arrival order reproduces the server-side view;
    /// re-delivered deltas apply idempotently (inserts upsert, deletes
    /// tolerate missing rows).
    pub fn apply(&self, table: &mut Table) -> Result<(), esm_store::StoreError> {
        match &self.resync {
            Some(window) => {
                *table = window.clone();
                Ok(())
            }
            None => self.delta.apply_in_place(table),
        }
    }
}

/// A dedicated subscription connection: subscribe to views, then
/// receive [`PushEvent`]s as commits settle server-side.
///
/// Unlike [`RemoteEngine`] (strict request/response), this handle
/// expects unsolicited `PUSH` frames at any time, so it owns its
/// connection exclusively and buffers pushes that race with an
/// in-flight request. It is deliberately not `Clone`: one subscriber,
/// one socket, one cursor stream.
pub struct SubscriptionClient {
    stream: TcpStream,
    inbuf: Vec<u8>,
    pending: VecDeque<PushEvent>,
}

impl std::fmt::Debug for SubscriptionClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "SubscriptionClient {{ queued: {} }}", self.pending.len())
    }
}

impl SubscriptionClient {
    /// Connect to a [`crate::NetServer`].
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<SubscriptionClient> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(SubscriptionClient {
            stream,
            inbuf: Vec::new(),
            pending: VecDeque::new(),
        })
    }

    /// Subscribe to `view`. `cursor: None` starts "from now": the ack
    /// is followed by an initial resync push carrying the view's full
    /// current window (delivered via [`SubscriptionClient::next_push`]).
    /// `Some(cursor)` resumes a previous position; everything settled
    /// past it arrives as the first push. Returns the acked cursor.
    pub fn subscribe(&mut self, view: &str, cursor: Option<u64>) -> Result<u64, EngineError> {
        match self.call(&Request::Subscribe {
            view: view.to_string(),
            cursor,
        })? {
            Response::SubAck { cursor } => Ok(cursor),
            other => Err(unexpected(other)),
        }
    }

    /// Stop receiving pushes for `view`. Pushes the server buffered
    /// before processing the unsubscribe may still be delivered (they
    /// are queued locally and surface through
    /// [`SubscriptionClient::next_push`]).
    pub fn unsubscribe(&mut self, view: &str) -> Result<(), EngineError> {
        match self.call(&Request::Unsubscribe(view.to_string()))? {
            Response::Unit => Ok(()),
            other => Err(unexpected(other)),
        }
    }

    /// The next push, waiting up to `timeout`. `Ok(None)` means the
    /// timeout passed quietly; an error means the connection is gone.
    pub fn next_push(&mut self, timeout: Duration) -> Result<Option<PushEvent>, EngineError> {
        // Frames already buffered (e.g. read in the same chunk as a
        // request's response) surface before touching the socket.
        self.drain_frames()?;
        if let Some(ev) = self.pending.pop_front() {
            return Ok(Some(ev));
        }
        let deadline = Instant::now() + timeout;
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.stream
                .set_read_timeout(Some(remaining.max(Duration::from_millis(1))))
                .map_err(io_err)?;
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(EngineError::Io("subscription connection closed".into())),
                Ok(n) => {
                    self.inbuf.extend_from_slice(&chunk[..n]);
                    self.drain_frames()?;
                    if let Some(ev) = self.pending.pop_front() {
                        return Ok(Some(ev));
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    continue;
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Round-trip a request, queueing any pushes that arrive before
    /// the response.
    fn call(&mut self, req: &Request) -> Result<Response, EngineError> {
        self.stream.set_read_timeout(None).map_err(io_err)?;
        self.stream
            .write_all(&req.framed_with_trace(None))
            .map_err(io_err)?;
        loop {
            // Complete buffered frames first, then block for more.
            while let Some((payload, consumed)) = decode_frame(&self.inbuf)
                .map_err(|e| EngineError::Io(format!("bad frame on subscription: {e}")))?
            {
                self.inbuf.drain(..consumed);
                match Response::decode(&payload)? {
                    Response::Push {
                        view,
                        from_seq,
                        to_seq,
                        delta,
                        resync,
                    } => self.pending.push_back(PushEvent {
                        view,
                        from_seq,
                        to_seq,
                        delta,
                        resync,
                    }),
                    resp => {
                        return match resp {
                            Response::Err(e) => Err(e),
                            ok => Ok(ok),
                        }
                    }
                }
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(EngineError::Io("subscription connection closed".into())),
                Ok(n) => self.inbuf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(io_err(e)),
            }
        }
    }

    /// Decode every complete frame in the input buffer into the push
    /// queue. Non-push frames here mean a desynchronized protocol.
    fn drain_frames(&mut self) -> Result<(), EngineError> {
        while let Some((payload, consumed)) = decode_frame(&self.inbuf)
            .map_err(|e| EngineError::Io(format!("bad frame on subscription: {e}")))?
        {
            self.inbuf.drain(..consumed);
            match Response::decode(&payload)? {
                Response::Push {
                    view,
                    from_seq,
                    to_seq,
                    delta,
                    resync,
                } => self.pending.push_back(PushEvent {
                    view,
                    from_seq,
                    to_seq,
                    delta,
                    resync,
                }),
                other => return Err(unexpected(other)),
            }
        }
        Ok(())
    }
}

fn io_err(e: std::io::Error) -> EngineError {
    EngineError::Io(e.to_string())
}
