//! The wire protocol: requests and responses for the full
//! [`esm_engine::Engine`] surface.
//!
//! Every payload rides inside one CRC-checked frame ([`crate::frame`])
//! and has exactly one encoding, binary:
//!
//! ```text
//! request  := 0xB7, tag u8, body, [trace id u64, parent span u32]
//! response := 0xB7, tag u8, body
//! ```
//!
//! A payload whose first byte is not [`BINARY_WIRE_MAGIC`] is refused
//! with a [`WireError`]. Bodies are little-endian and length-prefixed,
//! built on the store's shared codec ([`esm_store::codec`]): a string is
//! a `u32` length plus UTF-8, tables, deltas and databases use the
//! store's forms, and every list is a `u32` count followed by its items.
//! The structured payloads are binary too:
//!
//! * a view definition is its stage list, base first — `base`, `select`
//!   with its predicate, `project` with its columns and defaults,
//!   `rename` with its pairs; a predicate is prefix-ordered: a tag
//!   byte, then its comparison and operands or its sub-predicates;
//! * metrics are a fixed run of `u64` counters followed by the per-shard
//!   load and replica-lag lists; telemetry is the slow-trace threshold,
//!   the populated phase histograms (phase name, count, sum, max, sparse
//!   bins) and the gauges; a trace report is the recent and the slow
//!   trace lists, each trace with its spans;
//! * a replication manifest is the topology bytes, the primary address
//!   and the per-shard file listings;
//! * an engine error is one tag byte per variant, then its fields.
//!
//! Revision 6 adds `snapshot_since`, which keeps a client's cached
//! database current without downloading it again:
//!
//! ```text
//! snapshot_since := 0xB7, 21, flag u8, [server u64, stamp u64] (flag 0: none)
//! answer         := 0xB7, 16, server u64, stamp u64, changes
//! changes        := 0, ndeltas u32, (table str, delta)*
//!                 | 1, database                                (the whole one)
//! ```
//!
//! A client names the database it holds by the server instance that
//! answered for it and the commit stamp it reflects ([`SnapshotMark`]).
//! The deltas are the base-table changes committed after that stamp,
//! one coalesced delta per table; the whole database comes back instead
//! when the server's log no longer covers the stamp, or when the mark
//! was minted by another server instance (one that listened on the same
//! address before), whose stamps mean nothing here. The old
//! whole-database `snapshot` request (tag 3) is gone.
//!
//! Revision 7 makes a view edit a window delta:
//!
//! ```text
//! edit_view_delta := 0xB7, 22, name str, delta
//! answer          := 0xB7, 4, delta                (the committed base delta)
//! ```
//!
//! The client reads the window, runs its edit on a copy and sends the
//! difference, whose deleted rows are the pre-images it read. The server
//! checks them against the base rows at the keys the delta touches, puts
//! the delta through the view's lens over just those rows, and commits
//! the base delta with the same pre-image check as `commit` — so an edit
//! ships and costs its delta, not its window. A stale pre-image comes
//! back as a conflict, and the client retries from a fresh read. The
//! whole-window `edit_view_cas` request (tag 9), which shipped the window
//! twice and had the server compare whole windows, is gone.
//!
//! Revision 8 deletes `write_view` (tag 8), which shipped a whole window
//! and had a server worker retry its put until it landed. A put is the
//! edit "replace the window" now: the client reads the window, diffs the
//! one it wants against it and sends `edit_view_delta`, retrying on a
//! conflict itself. Tag 8 decodes as an unknown request.
//!
//! Revision 9 drops the slow-op ring from the telemetry payload: a
//! snapshot is the threshold, the phase histograms and the gauges, and
//! a slow request is read as a trace from the slow-trace ring
//! (`traces`).
//!
//! Encoders write a payload straight after a reserved frame header
//! ([`Request::framed_with_trace`], [`Response::framed`]), so a frame is
//! one buffer, never a payload copied into a second one.
//!
//! Decoders never size an allocation from a count read off the wire —
//! [`esm_store::codec::BinReader::count`] bounds every count by the bytes
//! left — and predicate nesting is capped, so no frame can exhaust
//! memory or the stack.

use esm_engine::{
    EngineError, FileEntry, MetricsSnapshot, ReplManifest, ReplStats, ReplicaLag, ShardLoad,
    ShardManifest, ShardStats, SnapshotChanges, SnapshotSince, ViewStats, WalStats,
};
use esm_obs::{
    HistogramSnapshot, Phase, SpanRecord, TelemetrySnapshot, TraceId, TraceRecord, TraceReport,
};
use esm_relational::ViewDef;
use esm_store::codec::{self, BinReader};
use esm_store::{Cmp, Database, Delta, Operand, Predicate, StoreError, Table};

use crate::frame::{frame_buffer, seal_frame};

/// A payload that failed to parse as a protocol message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError(pub String);

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire protocol error: {}", self.0)
    }
}

impl std::error::Error for WireError {}

impl From<StoreError> for WireError {
    fn from(e: StoreError) -> WireError {
        WireError(e.to_string())
    }
}

impl From<WireError> for EngineError {
    fn from(e: WireError) -> EngineError {
        EngineError::Io(e.to_string())
    }
}

fn err(msg: impl Into<String>) -> WireError {
    WireError(msg.into())
}

/// One client request — the full [`esm_engine::Engine`] surface.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Liveness check.
    Ping,
    /// `Engine::table_names`.
    TableNames,
    /// `Engine::table`.
    Table(String),
    /// `Engine::snapshot_since` (revision 6): the database at the current
    /// commit stamp, as the changes since `since` when the server's log
    /// still holds them. Answered with [`Response::SnapshotSince`].
    SnapshotSince {
        /// Where the database the client holds stands, or `None` for a
        /// client that holds none.
        since: Option<SnapshotMark>,
    },
    /// `Engine::define_view` (the handle stays client-side).
    DefineView {
        /// View name.
        name: String,
        /// Base table.
        table: String,
        /// The view definition.
        def: ViewDef,
    },
    /// `Engine::view` — existence check; the handle stays client-side.
    OpenView(String),
    /// `Engine::view_names`.
    ViewNames,
    /// `Engine::read_view`.
    ReadView(String),
    /// `Engine::edit_view_delta` (revision 7): one view-edit attempt as
    /// the window delta the client's edit made, whose deleted rows are
    /// the pre-images it read. The server commits it iff every touched
    /// row still holds its pre-image, and answers with the committed
    /// base-table delta ([`Response::Delta`]). The client drives the
    /// retry loop: `Engine::edit_view_optimistic` takes a closure, and
    /// closures do not serialize — the delta they made does.
    EditViewDelta {
        /// View name.
        name: String,
        /// The window delta.
        delta: Delta,
    },
    /// One snapshot-transaction commit attempt: per-table deltas whose
    /// `deleted` rows are the client's pre-images (exactly what
    /// [`Delta::between`] produces), validated row-for-row before
    /// applying atomically — first-committer-wins against the client's
    /// snapshot, without shipping the snapshot back.
    Commit {
        /// Per-table deltas, client-snapshot pre-images included.
        deltas: Vec<(String, Delta)>,
    },
    /// `Engine::metrics`.
    Metrics,
    /// `Engine::telemetry` — the phase-latency histograms, the slow
    /// threshold and the gauges. On the wire the server's net-layer
    /// phases ride along merged into the engine's snapshot.
    Stats,
    /// `Engine::checkpoint`.
    Checkpoint,
    /// `Engine::sync_wal`.
    SyncWal,
    /// Server identity and liveness: answered by the network layer
    /// itself ([`Response::ServerInfo`]) without touching any engine
    /// lock — safe to poll while the engine is wedged.
    ServerPing,
    /// `Engine::traces` — the recent and slow trace rings. On the wire
    /// the server merges its net-layer traces in, the way `Stats`
    /// merges telemetry.
    Traces,
    /// Register this connection as a subscriber of a named view
    /// (revision 3). Answered by the network layer with
    /// [`Response::SubAck`]; from then on the server pushes
    /// [`Response::Push`] frames as commits settle past the
    /// subscriber's cursor. `cursor: None` means "from now": the server
    /// acks the current cursor and sends one initial resync push.
    Subscribe {
        /// View name.
        view: String,
        /// Resume cursor from a previous session, or `None` for "now".
        cursor: Option<u64>,
    },
    /// Drop this connection's subscription on a named view (revision
    /// 3). Acknowledged with [`Response::Unit`]; already-buffered
    /// pushes may still arrive before the ack.
    Unsubscribe(String),
    /// The primary's shippable WAL surface (revision 4): topology
    /// bytes, advertised address and per-shard file listings
    /// ([`Engine::repl_source`][rs]). Answered with
    /// [`Response::ReplManifest`].
    ///
    /// [rs]: esm_engine::Engine::repl_source
    ReplManifest,
    /// Up to `len` bytes of one shard's WAL file starting at `offset`
    /// (revision 4). Answered with [`Response::ReplChunk`]; a short
    /// chunk means EOF, an empty one means nothing new yet.
    ReplFetch {
        /// Shard id (its directory is `shard-<id>`).
        shard: u64,
        /// File name within the shard directory, as the manifest
        /// listed it.
        file: String,
        /// Byte offset to start from.
        offset: u64,
        /// Maximum bytes to return.
        len: u64,
    },
}

/// One server response.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Success with nothing to return.
    Unit,
    /// A list of names.
    Names(Vec<String>),
    /// A table (snapshot, view read).
    Table(Table),
    /// A whole database. Since revision 6 no request is answered with
    /// it ([`Response::SnapshotSince`] carries snapshots); it stays as
    /// the bare database codec in a response.
    Database(Database),
    /// A committed delta.
    Delta(Delta),
    /// A commit receipt.
    Receipt {
        /// Commit stamp.
        stamp: u64,
        /// Shards touched (empty when the commit wrote nothing).
        shards: Vec<usize>,
        /// Cross-shard transaction id, if any.
        gtx: Option<String>,
    },
    /// Engine counters.
    Metrics(MetricsSnapshot),
    /// Phase-latency telemetry (histograms, threshold, gauges).
    Stats(TelemetrySnapshot),
    /// A checkpoint floor (`None` for in-memory engines).
    Seq(Option<u64>),
    /// A structured engine error.
    Err(EngineError),
    /// The network server's identity ([`Request::ServerPing`]).
    ServerInfo {
        /// Milliseconds since the server started accepting.
        uptime_ms: u64,
        /// The protocol revision the server speaks ([`PROTOCOL_REV`]).
        protocol_rev: u32,
        /// Size of the server's worker pool.
        workers: u32,
    },
    /// Recent and slow causal traces ([`Request::Traces`]).
    Traces(TraceReport),
    /// Subscription accepted (revision 3): the cursor pushes will
    /// advance from. Echoes the requested cursor, or the current one
    /// when the client subscribed "from now".
    SubAck {
        /// The subscriber's starting cursor.
        cursor: u64,
    },
    /// A server-initiated delta push (revision 3): everything settled
    /// on `view` in `(from_seq, to_seq]`, coalesced. When the
    /// incremental path was unavailable — cursor truncated out of the
    /// log, a propagation escape hatch, or a drop-for-backpressure
    /// resync — `resync` carries the full window (reflecting `to_seq`)
    /// and `delta` is empty: adopt it and discard local state.
    Push {
        /// The subscribed view this batch belongs to.
        view: String,
        /// The cursor this batch starts after.
        from_seq: u64,
        /// The subscriber's next cursor.
        to_seq: u64,
        /// Coalesced view-level delta covering `(from_seq, to_seq]`.
        delta: Delta,
        /// Full-window resync, when incremental delivery was impossible.
        resync: Option<Table>,
    },
    /// The primary's WAL-shipping manifest (revision 4,
    /// [`Request::ReplManifest`]).
    ReplManifest(ReplManifest),
    /// One ranged WAL read (revision 4, [`Request::ReplFetch`]).
    ReplChunk(Vec<u8>),
    /// The answer to [`Request::SnapshotSince`] (revision 6): the
    /// answering server instance, the new stamp, then a tag byte and
    /// either the coalesced base-table deltas since the requested stamp
    /// or the whole database.
    SnapshotSince {
        /// The answering server instance: with `answer.stamp`, the
        /// client's next [`SnapshotMark`].
        server: u64,
        /// The database at the new stamp, as changes or whole.
        answer: SnapshotSince,
    },
}

/// Where a client's cached database stands: the server instance that
/// answered for it, and the commit stamp it reflects. Stamps count one
/// engine's commits, so a mark only means something to the instance
/// that minted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SnapshotMark {
    /// The instance id of the server that answered.
    pub server: u64,
    /// The commit stamp the database reflects.
    pub stamp: u64,
}

/// The wire protocol revision this build speaks, surfaced by
/// [`Response::ServerInfo`]. Revision 2 added the optional trace-context
/// suffix on requests, `server_ping` and `traces`; revision 3 cursor
/// subscriptions (`subscribe` / `unsubscribe` requests, server-initiated
/// `suback` / `push` responses); revision 4 WAL-shipping replication
/// (`repl_manifest` / `repl_fetch`) and the `not_primary` redirect
/// error. Revision 5 made every payload binary, the structured ones
/// included: a payload that does not start with [`BINARY_WIRE_MAGIC`]
/// is refused. Revision 6 replaced the whole-database `snapshot` with
/// `snapshot_since(stamp?)`, answered with the base-table deltas
/// committed since the client's stamp (or the whole database when the
/// server's log no longer covers it). Revision 7 replaced the
/// whole-window `edit_view_cas` with `edit_view_delta`, which ships the
/// window delta an edit made. Revision 8 deleted `write_view`: a put is
/// an edit, so it ships a window delta too. Revision 9 dropped the
/// slow-op ring from the `stats` payload; slow requests are read from
/// the slow-trace ring. The revision is informational, not a handshake.
pub const PROTOCOL_REV: u32 = 9;

/// First byte of every wire payload.
pub const BINARY_WIRE_MAGIC: u8 = 0xB7;

/// Deepest predicate nesting, and longest view stage list, a decoder
/// accepts. Predicates decode and drop recursively, so a frame of
/// nested `not`s must not be able to exhaust the stack.
const MAX_NESTING: usize = 1024;

const REQ_PING: u8 = 0;
const REQ_TABLE_NAMES: u8 = 1;
const REQ_TABLE: u8 = 2;
// Tag 3 was the whole-database `SNAPSHOT` (revisions 1–5).
const REQ_DEFINE_VIEW: u8 = 4;
const REQ_OPEN_VIEW: u8 = 5;
const REQ_VIEW_NAMES: u8 = 6;
const REQ_READ_VIEW: u8 = 7;
// Tag 8 was WRITE_VIEW (revisions 1–7).
// Tag 9 was the whole-window `EDIT_VIEW_CAS` (revisions 1–6).
const REQ_COMMIT: u8 = 10;
const REQ_METRICS: u8 = 11;
const REQ_STATS: u8 = 12;
const REQ_CHECKPOINT: u8 = 13;
const REQ_SYNC_WAL: u8 = 14;
const REQ_SERVER_PING: u8 = 15;
const REQ_TRACES: u8 = 16;
const REQ_SUBSCRIBE: u8 = 17;
const REQ_UNSUBSCRIBE: u8 = 18;
const REQ_REPL_MANIFEST: u8 = 19;
const REQ_REPL_FETCH: u8 = 20;
const REQ_SNAPSHOT_SINCE: u8 = 21;
const REQ_EDIT_VIEW_DELTA: u8 = 22;

/// Byte length of the optional trace-context suffix on requests: a u64
/// trace id plus a u32 parent span id. A decoder that finds exactly
/// this many bytes left after the body reads them as the context.
const TRACE_CTX_BYTES: usize = 12;

const RESP_UNIT: u8 = 0;
const RESP_NAMES: u8 = 1;
const RESP_TABLE: u8 = 2;
const RESP_DATABASE: u8 = 3;
const RESP_DELTA: u8 = 4;
const RESP_RECEIPT: u8 = 5;
const RESP_METRICS: u8 = 6;
const RESP_STATS: u8 = 7;
const RESP_SEQ: u8 = 8;
const RESP_ERR: u8 = 9;
const RESP_SERVER_INFO: u8 = 10;
const RESP_TRACES: u8 = 11;
const RESP_SUBACK: u8 = 12;
const RESP_PUSH: u8 = 13;
const RESP_REPL_MANIFEST: u8 = 14;
const RESP_REPL_CHUNK: u8 = 15;
const RESP_SNAPSHOT_SINCE: u8 = 16;

/// The tag byte of a snapshot answer's body: the deltas since the
/// caller's stamp, or the whole database.
const SNAPSHOT_DELTAS: u8 = 0;
const SNAPSHOT_FULL: u8 = 1;

/// A reader over the body of a wire payload (everything after the
/// magic byte); a payload without the magic is refused.
fn body(payload: &[u8]) -> Result<BinReader<'_>, WireError> {
    match payload.split_first() {
        Some((&BINARY_WIRE_MAGIC, body)) => Ok(BinReader::new(body)),
        Some((first, _)) => Err(err(format!(
            "payload starts with {first:#04x}, not the wire magic {BINARY_WIRE_MAGIC:#04x}"
        ))),
        None => Err(err("empty payload")),
    }
}

/// Read exactly `N` little-endian `u64`s.
fn u64s<const N: usize>(r: &mut BinReader<'_>) -> Result<[u64; N], WireError> {
    let mut out = [0u64; N];
    for slot in &mut out {
        *slot = r.u64()?;
    }
    Ok(out)
}

/// Append an optional `u64` as a flag byte (`0` absent, `1` present)
/// followed by the value when present.
fn put_flagged_u64(out: &mut Vec<u8>, n: Option<u64>) {
    match n {
        Some(n) => {
            out.push(1);
            codec::put_u64(out, n);
        }
        None => out.push(0),
    }
}

/// Read [`put_flagged_u64`]'s encoding; a flag other than 0 or 1 is
/// refused, naming the field (`what`).
fn read_flagged_u64(r: &mut BinReader<'_>, what: &str) -> Result<Option<u64>, WireError> {
    match r.u8()? {
        0 => Ok(None),
        1 => Ok(Some(r.u64()?)),
        other => Err(err(format!("bad {what} flag {other}"))),
    }
}

// ---------------------------------------------------------------------
// Predicates and view definitions.
// ---------------------------------------------------------------------

const PRED_TRUE: u8 = 0;
const PRED_FALSE: u8 = 1;
const PRED_COMPARE: u8 = 2;
const PRED_AND: u8 = 3;
const PRED_OR: u8 = 4;
const PRED_NOT: u8 = 5;

const OPERAND_COL: u8 = 0;
const OPERAND_CONST: u8 = 1;

/// Comparison operators by their tag byte.
const CMPS: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];

const STAGE_BASE: u8 = 0;
const STAGE_SELECT: u8 = 1;
const STAGE_PROJECT: u8 = 2;
const STAGE_RENAME: u8 = 3;

fn put_operand(out: &mut Vec<u8>, op: &Operand) {
    match op {
        Operand::Col(name) => {
            out.push(OPERAND_COL);
            codec::put_str(out, name);
        }
        Operand::Const(v) => {
            out.push(OPERAND_CONST);
            codec::put_cell(out, v);
        }
    }
}

fn read_operand(r: &mut BinReader<'_>) -> Result<Operand, WireError> {
    Ok(match r.u8()? {
        OPERAND_COL => Operand::Col(r.str()?),
        OPERAND_CONST => Operand::Const(r.cell()?),
        t => return Err(err(format!("unknown operand tag {t}"))),
    })
}

/// Append a predicate in prefix order: a tag byte, then its comparison
/// and operands or its sub-predicates.
fn put_predicate(out: &mut Vec<u8>, pred: &Predicate) {
    match pred {
        Predicate::True => out.push(PRED_TRUE),
        Predicate::False => out.push(PRED_FALSE),
        Predicate::Compare(cmp, lhs, rhs) => {
            out.push(PRED_COMPARE);
            out.push(
                CMPS.iter()
                    .position(|c| c == cmp)
                    .expect("every Cmp is listed") as u8,
            );
            put_operand(out, lhs);
            put_operand(out, rhs);
        }
        Predicate::And(a, b) | Predicate::Or(a, b) => {
            let tag = if matches!(pred, Predicate::And(..)) {
                PRED_AND
            } else {
                PRED_OR
            };
            out.push(tag);
            put_predicate(out, a);
            put_predicate(out, b);
        }
        Predicate::Not(p) => {
            out.push(PRED_NOT);
            put_predicate(out, p);
        }
    }
}

/// Read a predicate nested `depth` levels deep, refusing nesting past
/// [`MAX_NESTING`].
fn read_predicate(r: &mut BinReader<'_>, depth: usize) -> Result<Predicate, WireError> {
    if depth > MAX_NESTING {
        return Err(err(format!("predicate nested deeper than {MAX_NESTING}")));
    }
    let sub = |r: &mut BinReader<'_>| read_predicate(r, depth + 1).map(Box::new);
    Ok(match r.u8()? {
        PRED_TRUE => Predicate::True,
        PRED_FALSE => Predicate::False,
        PRED_COMPARE => {
            let cmp = r.u8()?;
            let cmp = *CMPS
                .get(cmp as usize)
                .ok_or_else(|| err(format!("unknown comparison tag {cmp}")))?;
            Predicate::Compare(cmp, read_operand(r)?, read_operand(r)?)
        }
        PRED_AND => Predicate::And(sub(r)?, sub(r)?),
        PRED_OR => Predicate::Or(sub(r)?, sub(r)?),
        PRED_NOT => Predicate::Not(sub(r)?),
        t => return Err(err(format!("unknown predicate tag {t}"))),
    })
}

/// Flatten a view definition into its stage chain, base first.
fn stages(def: &ViewDef) -> Vec<&ViewDef> {
    let mut chain = Vec::new();
    let mut cur = def;
    loop {
        chain.push(cur);
        match cur {
            ViewDef::Base => break,
            ViewDef::Select(inner, _)
            | ViewDef::Project(inner, _, _)
            | ViewDef::Rename(inner, _) => cur = inner,
        }
    }
    chain.reverse();
    chain
}

/// Append a view definition as its stage list, base first.
fn put_viewdef(out: &mut Vec<u8>, def: &ViewDef) {
    let chain = stages(def);
    codec::put_u32(out, chain.len() as u32);
    for stage in chain {
        match stage {
            ViewDef::Base => out.push(STAGE_BASE),
            ViewDef::Select(_, pred) => {
                out.push(STAGE_SELECT);
                put_predicate(out, pred);
            }
            ViewDef::Project(_, cols, defaults) => {
                out.push(STAGE_PROJECT);
                codec::put_u32(out, cols.len() as u32);
                for col in cols {
                    codec::put_str(out, col);
                }
                codec::put_u32(out, defaults.len() as u32);
                for (col, v) in defaults {
                    codec::put_str(out, col);
                    codec::put_cell(out, v);
                }
            }
            ViewDef::Rename(_, renames) => {
                out.push(STAGE_RENAME);
                codec::put_u32(out, renames.len() as u32);
                for (old, new) in renames {
                    codec::put_str(out, old);
                    codec::put_str(out, new);
                }
            }
        }
    }
}

fn read_viewdef(r: &mut BinReader<'_>) -> Result<ViewDef, WireError> {
    let n = r.count()?;
    if n > MAX_NESTING {
        return Err(err(format!("view definition has {n} stages")));
    }
    let mut def: Option<ViewDef> = None;
    for i in 0..n {
        def = Some(match (r.u8()?, def.take()) {
            (STAGE_BASE, None) => ViewDef::Base,
            (STAGE_SELECT, Some(inner)) => ViewDef::Select(Box::new(inner), read_predicate(r, 0)?),
            (STAGE_PROJECT, Some(inner)) => {
                let mut cols = Vec::new();
                for _ in 0..r.count()? {
                    cols.push(r.str()?);
                }
                let mut defaults = Vec::new();
                for _ in 0..r.count()? {
                    defaults.push((r.str()?, r.cell()?));
                }
                ViewDef::Project(Box::new(inner), cols, defaults)
            }
            (STAGE_RENAME, Some(inner)) => {
                let mut renames = Vec::new();
                for _ in 0..r.count()? {
                    renames.push((r.str()?, r.str()?));
                }
                ViewDef::Rename(Box::new(inner), renames)
            }
            (tag, _) => return Err(err(format!("bad view stage {tag} at position {i}"))),
        });
    }
    def.ok_or_else(|| err("empty view definition"))
}

// ---------------------------------------------------------------------
// Metrics, telemetry and traces.
// ---------------------------------------------------------------------

fn put_metrics(out: &mut Vec<u8>, m: &MetricsSnapshot) {
    let (wal, shard, view, repl) = (&m.wal, &m.shard, &m.view, &m.repl);
    for n in [
        m.commits,
        m.conflicts,
        m.retries,
        m.view_reads,
        m.rows_written,
        m.wal_truncations,
        m.wal_records_truncated,
        wal.appends,
        wal.syncs,
        wal.bytes_written,
        wal.rotations,
        wal.checkpoints,
        wal.segments_compacted,
        shard.single_shard_commits,
        shard.cross_shard_commits,
        shard.prepares,
        shard.recovery_commits,
        shard.recovery_aborts,
        shard.splits,
        shard.merges,
        shard.rows_migrated,
        shard.auto_splits,
        shard.auto_merges,
        shard.commit_rate_ewma_milli,
        shard.commit_rate_skew_milli,
        view.materialized_reads,
        view.deltas_applied,
        view.rebuilds,
        view.shards_pruned,
        repl.ship_passes,
        repl.records_applied,
        repl.transactions_applied,
    ] {
        codec::put_u64(out, n);
    }
    codec::put_u32(out, m.shard_load.len() as u32);
    for l in &m.shard_load {
        for n in [l.shard, l.rows, l.commits, l.rate_ewma_milli] {
            codec::put_u64(out, n);
        }
    }
    codec::put_u32(out, repl.lag.len() as u32);
    for l in &repl.lag {
        for n in [l.shard, l.primary_seq, l.applied_seq] {
            codec::put_u64(out, n);
        }
    }
}

fn read_metrics(r: &mut BinReader<'_>) -> Result<MetricsSnapshot, WireError> {
    let [commits, conflicts, retries, view_reads] = u64s(r)?;
    let [rows_written, wal_truncations, wal_records_truncated] = u64s(r)?;
    let [appends, syncs, bytes_written, rotations, checkpoints, segments_compacted] = u64s(r)?;
    let wal = WalStats {
        appends,
        syncs,
        bytes_written,
        rotations,
        checkpoints,
        segments_compacted,
    };
    let [single_shard_commits, cross_shard_commits, prepares, recovery_commits] = u64s(r)?;
    let [recovery_aborts, splits, merges, rows_migrated] = u64s(r)?;
    let [auto_splits, auto_merges, commit_rate_ewma_milli, commit_rate_skew_milli] = u64s(r)?;
    let shard = ShardStats {
        single_shard_commits,
        cross_shard_commits,
        prepares,
        recovery_commits,
        recovery_aborts,
        splits,
        merges,
        rows_migrated,
        auto_splits,
        auto_merges,
        commit_rate_ewma_milli,
        commit_rate_skew_milli,
    };
    let [materialized_reads, deltas_applied, rebuilds, shards_pruned] = u64s(r)?;
    let view = ViewStats {
        materialized_reads,
        deltas_applied,
        rebuilds,
        shards_pruned,
    };
    let [ship_passes, records_applied, transactions_applied] = u64s(r)?;
    let mut shard_load = Vec::new();
    for _ in 0..r.count()? {
        let [shard, rows, commits, rate_ewma_milli] = u64s(r)?;
        shard_load.push(ShardLoad {
            shard,
            rows,
            commits,
            rate_ewma_milli,
        });
    }
    let mut lag = Vec::new();
    for _ in 0..r.count()? {
        let [shard, primary_seq, applied_seq] = u64s(r)?;
        lag.push(ReplicaLag {
            shard,
            primary_seq,
            applied_seq,
        });
    }
    Ok(MetricsSnapshot {
        commits,
        conflicts,
        retries,
        view_reads,
        rows_written,
        wal_truncations,
        wal_records_truncated,
        wal,
        shard,
        view,
        shard_load,
        repl: ReplStats {
            lag,
            ship_passes,
            records_applied,
            transactions_applied,
        },
    })
}

fn read_phase(r: &mut BinReader<'_>) -> Result<Phase, WireError> {
    let name = r.str()?;
    Phase::from_name(&name).ok_or_else(|| err(format!("unknown phase `{name}`")))
}

/// Append a telemetry snapshot: the slow-trace threshold, then the
/// populated phase histograms (sparse bins) and the gauges. Phases travel by name, so the codec does not depend on the
/// order of [`Phase::ALL`].
fn put_telemetry(out: &mut Vec<u8>, t: &TelemetrySnapshot) {
    codec::put_u64(out, t.slow_threshold_ns);
    codec::put_u32(out, t.phases.len() as u32);
    for (phase, h) in &t.phases {
        codec::put_str(out, phase.name());
        for n in [h.count, h.sum, h.max] {
            codec::put_u64(out, n);
        }
        codec::put_u32(out, h.bins.len() as u32);
        for (idx, n) in &h.bins {
            codec::put_u32(out, *idx);
            codec::put_u64(out, *n);
        }
    }
    codec::put_u32(out, t.gauges.len() as u32);
    for (name, value) in &t.gauges {
        codec::put_str(out, name);
        codec::put_u64(out, *value);
    }
}

fn read_telemetry(r: &mut BinReader<'_>) -> Result<TelemetrySnapshot, WireError> {
    let slow_threshold_ns = r.u64()?;
    let mut phases = Vec::new();
    for _ in 0..r.count()? {
        let phase = read_phase(r)?;
        let [count, sum, max] = u64s(r)?;
        let mut bins = Vec::new();
        for _ in 0..r.count()? {
            bins.push((r.u32()?, r.u64()?));
        }
        phases.push((
            phase,
            HistogramSnapshot {
                count,
                sum,
                max,
                bins,
            },
        ));
    }
    let mut gauges = Vec::new();
    for _ in 0..r.count()? {
        gauges.push((r.str()?, r.u64()?));
    }
    Ok(TelemetrySnapshot {
        phases,
        slow_threshold_ns,
        gauges,
    })
}

/// Append a trace report: the recent list, then the slow list, each a
/// count of traces with their spans.
fn put_traces(out: &mut Vec<u8>, report: &TraceReport) {
    for traces in [&report.recent, &report.slow] {
        codec::put_u32(out, traces.len() as u32);
        for trace in traces {
            codec::put_u64(out, trace.id.0);
            codec::put_str(out, &trace.root);
            codec::put_u64(out, trace.duration_ns);
            codec::put_u32(out, trace.spans.len() as u32);
            for s in &trace.spans {
                codec::put_u32(out, s.id);
                codec::put_u32(out, s.parent);
                codec::put_str(out, &s.name);
                codec::put_str(out, &s.tag);
                for n in [s.start_ns, s.duration_ns, s.bytes] {
                    codec::put_u64(out, n);
                }
            }
        }
    }
}

fn read_trace_list(r: &mut BinReader<'_>) -> Result<Vec<TraceRecord>, WireError> {
    let mut traces = Vec::new();
    for _ in 0..r.count()? {
        let id = TraceId(r.u64()?);
        let root = r.str()?;
        let duration_ns = r.u64()?;
        let mut spans = Vec::new();
        for _ in 0..r.count()? {
            let (id, parent) = (r.u32()?, r.u32()?);
            let (name, tag) = (r.str()?, r.str()?);
            let [start_ns, duration_ns, bytes] = u64s(r)?;
            spans.push(SpanRecord {
                id,
                parent,
                name,
                tag,
                start_ns,
                duration_ns,
                bytes,
            });
        }
        traces.push(TraceRecord {
            id,
            root,
            duration_ns,
            spans,
        });
    }
    Ok(traces)
}

fn read_traces(r: &mut BinReader<'_>) -> Result<TraceReport, WireError> {
    Ok(TraceReport {
        recent: read_trace_list(r)?,
        slow: read_trace_list(r)?,
    })
}

// ---------------------------------------------------------------------
// Replication manifests and errors.
// ---------------------------------------------------------------------

fn put_manifest(out: &mut Vec<u8>, m: &ReplManifest) {
    codec::put_bytes(out, &m.topology);
    codec::put_str(out, &m.primary_addr);
    codec::put_u32(out, m.shards.len() as u32);
    for shard in &m.shards {
        codec::put_u64(out, shard.id);
        codec::put_u64(out, shard.last_seq);
        codec::put_u32(out, shard.files.len() as u32);
        for f in &shard.files {
            codec::put_str(out, &f.name);
            codec::put_u64(out, f.len);
        }
    }
}

fn read_manifest(r: &mut BinReader<'_>) -> Result<ReplManifest, WireError> {
    let topology = r.bytes()?;
    let primary_addr = r.str()?;
    let mut shards = Vec::new();
    for _ in 0..r.count()? {
        let [id, last_seq] = u64s(r)?;
        let mut files = Vec::new();
        for _ in 0..r.count()? {
            files.push(FileEntry {
                name: r.str()?,
                len: r.u64()?,
            });
        }
        shards.push(ShardManifest {
            id,
            last_seq,
            files,
        });
    }
    Ok(ReplManifest {
        topology,
        primary_addr,
        shards,
    })
}

const ERR_STORE: u8 = 0;
const ERR_CONFLICT: u8 = 1;
const ERR_NO_SUCH_VIEW: u8 = 2;
const ERR_VIEW_EXISTS: u8 = 3;
const ERR_NO_SUCH_TABLE: u8 = 4;
const ERR_WAL_CORRUPT: u8 = 5;
const ERR_DUPLICATE_SEQ: u8 = 6;
const ERR_IO: u8 = 7;
const ERR_RETRIES_EXHAUSTED: u8 = 8;
const ERR_RESERVED_TABLE: u8 = 9;
const ERR_SHARD_TOPOLOGY: u8 = 10;
const ERR_NOT_PRIMARY: u8 = 11;

/// Append an engine error: one tag byte per variant, then its fields.
/// Store errors cross the wire as their message (the client rebuilds a
/// [`StoreError::BadQuery`] carrying it); every other variant round-trips
/// structurally.
fn put_error(out: &mut Vec<u8>, e: &EngineError) {
    let mut tagged = |tag: u8, text: &str| {
        out.push(tag);
        codec::put_str(out, text);
    };
    match e {
        EngineError::Store(e) => tagged(ERR_STORE, &e.to_string()),
        EngineError::Conflict { table, detail } => {
            tagged(ERR_CONFLICT, table);
            codec::put_str(out, detail);
        }
        EngineError::NoSuchView(v) => tagged(ERR_NO_SUCH_VIEW, v),
        EngineError::ViewExists(v) => tagged(ERR_VIEW_EXISTS, v),
        EngineError::NoSuchTable(t) => tagged(ERR_NO_SUCH_TABLE, t),
        EngineError::WalCorrupt(msg) => tagged(ERR_WAL_CORRUPT, msg),
        EngineError::DuplicateSeq { seq, last } => {
            out.push(ERR_DUPLICATE_SEQ);
            codec::put_u64(out, *seq);
            codec::put_u64(out, *last);
        }
        EngineError::Io(msg) => tagged(ERR_IO, msg),
        EngineError::RetriesExhausted { view, attempts } => {
            tagged(ERR_RETRIES_EXHAUSTED, view);
            codec::put_u32(out, *attempts);
        }
        EngineError::ReservedTableName(t) => tagged(ERR_RESERVED_TABLE, t),
        EngineError::ShardTopology(msg) => tagged(ERR_SHARD_TOPOLOGY, msg),
        EngineError::NotPrimary { primary } => tagged(ERR_NOT_PRIMARY, primary),
    }
}

fn read_error(r: &mut BinReader<'_>) -> Result<EngineError, WireError> {
    Ok(match r.u8()? {
        ERR_STORE => EngineError::Store(StoreError::BadQuery(r.str()?)),
        ERR_CONFLICT => EngineError::Conflict {
            table: r.str()?,
            detail: r.str()?,
        },
        ERR_NO_SUCH_VIEW => EngineError::NoSuchView(r.str()?),
        ERR_VIEW_EXISTS => EngineError::ViewExists(r.str()?),
        ERR_NO_SUCH_TABLE => EngineError::NoSuchTable(r.str()?),
        ERR_WAL_CORRUPT => EngineError::WalCorrupt(r.str()?),
        ERR_DUPLICATE_SEQ => EngineError::DuplicateSeq {
            seq: r.u64()?,
            last: r.u64()?,
        },
        ERR_IO => EngineError::Io(r.str()?),
        ERR_RETRIES_EXHAUSTED => EngineError::RetriesExhausted {
            view: r.str()?,
            attempts: r.u32()?,
        },
        ERR_RESERVED_TABLE => EngineError::ReservedTableName(r.str()?),
        ERR_SHARD_TOPOLOGY => EngineError::ShardTopology(r.str()?),
        ERR_NOT_PRIMARY => EngineError::NotPrimary { primary: r.str()? },
        t => return Err(err(format!("unknown error tag {t}"))),
    })
}

// ---------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------

impl Request {
    /// Render this request as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_trace(None)
    }

    /// [`Request::encode`] with a trace context — the trace id and the
    /// client-side parent span — appended as a fixed-width suffix; the
    /// server roots its side of the trace under the same id. `None`
    /// encodes identically to [`Request::encode`].
    pub fn encode_with_trace(&self, ctx: Option<(u64, u32)>) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out, ctx);
        out
    }

    /// This request, with its optional trace context, as one whole frame
    /// built in a single buffer: the same bytes as
    /// `encode_frame(&self.encode_with_trace(ctx))`, without copying the
    /// payload into the frame.
    pub fn framed_with_trace(&self, ctx: Option<(u64, u32)>) -> Vec<u8> {
        let mut frame = frame_buffer();
        self.encode_into(&mut frame, ctx);
        seal_frame(frame)
    }

    /// Append this request's payload, trace context included, to `out`.
    fn encode_into(&self, out: &mut Vec<u8>, ctx: Option<(u64, u32)>) {
        out.push(BINARY_WIRE_MAGIC);
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::TableNames => out.push(REQ_TABLE_NAMES),
            Request::Table(name) => {
                out.push(REQ_TABLE);
                codec::put_str(out, name);
            }
            Request::SnapshotSince { since } => {
                out.push(REQ_SNAPSHOT_SINCE);
                match since {
                    Some(mark) => {
                        out.push(1);
                        codec::put_u64(out, mark.server);
                        codec::put_u64(out, mark.stamp);
                    }
                    None => out.push(0),
                }
            }
            Request::DefineView { name, table, def } => {
                out.push(REQ_DEFINE_VIEW);
                codec::put_str(out, name);
                codec::put_str(out, table);
                put_viewdef(out, def);
            }
            Request::OpenView(name) => {
                out.push(REQ_OPEN_VIEW);
                codec::put_str(out, name);
            }
            Request::ViewNames => out.push(REQ_VIEW_NAMES),
            Request::ReadView(name) => {
                out.push(REQ_READ_VIEW);
                codec::put_str(out, name);
            }
            Request::EditViewDelta { name, delta } => {
                out.push(REQ_EDIT_VIEW_DELTA);
                codec::put_str(out, name);
                codec::put_delta(out, delta);
            }
            Request::Commit { deltas } => {
                out.push(REQ_COMMIT);
                codec::put_u32(out, deltas.len() as u32);
                for (name, delta) in deltas {
                    codec::put_str(out, name);
                    codec::put_delta(out, delta);
                }
            }
            Request::Metrics => out.push(REQ_METRICS),
            Request::Stats => out.push(REQ_STATS),
            Request::Checkpoint => out.push(REQ_CHECKPOINT),
            Request::SyncWal => out.push(REQ_SYNC_WAL),
            Request::ServerPing => out.push(REQ_SERVER_PING),
            Request::Traces => out.push(REQ_TRACES),
            Request::Subscribe { view, cursor } => {
                out.push(REQ_SUBSCRIBE);
                codec::put_str(out, view);
                put_flagged_u64(out, *cursor);
            }
            Request::Unsubscribe(view) => {
                out.push(REQ_UNSUBSCRIBE);
                codec::put_str(out, view);
            }
            Request::ReplManifest => out.push(REQ_REPL_MANIFEST),
            Request::ReplFetch {
                shard,
                file,
                offset,
                len,
            } => {
                out.push(REQ_REPL_FETCH);
                codec::put_u64(out, *shard);
                codec::put_str(out, file);
                codec::put_u64(out, *offset);
                codec::put_u64(out, *len);
            }
        }
        if let Some((trace_id, parent)) = ctx {
            codec::put_u64(out, trace_id);
            codec::put_u32(out, parent);
        }
    }

    /// Parse a frame payload as a request.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        Request::decode_with_trace(payload).map(|(req, _)| req)
    }

    /// [`Request::decode`], also surfacing the trace context when the
    /// payload carries the optional suffix (the trace id and the
    /// sender's parent span id); a payload without it decodes with
    /// `None`.
    pub fn decode_with_trace(payload: &[u8]) -> Result<(Request, Option<(u64, u32)>), WireError> {
        let mut r = body(payload)?;
        let req = match r.u8()? {
            REQ_PING => Request::Ping,
            REQ_TABLE_NAMES => Request::TableNames,
            REQ_TABLE => Request::Table(r.str()?),
            REQ_SNAPSHOT_SINCE => Request::SnapshotSince {
                since: match r.u8()? {
                    0 => None,
                    1 => Some(SnapshotMark {
                        server: r.u64()?,
                        stamp: r.u64()?,
                    }),
                    other => return Err(err(format!("bad since flag {other}"))),
                },
            },
            REQ_DEFINE_VIEW => Request::DefineView {
                name: r.str()?,
                table: r.str()?,
                def: read_viewdef(&mut r)?,
            },
            REQ_OPEN_VIEW => Request::OpenView(r.str()?),
            REQ_VIEW_NAMES => Request::ViewNames,
            REQ_READ_VIEW => Request::ReadView(r.str()?),
            REQ_EDIT_VIEW_DELTA => Request::EditViewDelta {
                name: r.str()?,
                delta: r.delta()?,
            },
            REQ_COMMIT => {
                let mut deltas = Vec::new();
                for _ in 0..r.count()? {
                    deltas.push((r.str()?, r.delta()?));
                }
                Request::Commit { deltas }
            }
            REQ_METRICS => Request::Metrics,
            REQ_STATS => Request::Stats,
            REQ_CHECKPOINT => Request::Checkpoint,
            REQ_SYNC_WAL => Request::SyncWal,
            REQ_SERVER_PING => Request::ServerPing,
            REQ_TRACES => Request::Traces,
            REQ_SUBSCRIBE => Request::Subscribe {
                view: r.str()?,
                cursor: read_flagged_u64(&mut r, "cursor")?,
            },
            REQ_UNSUBSCRIBE => Request::Unsubscribe(r.str()?),
            REQ_REPL_MANIFEST => Request::ReplManifest,
            REQ_REPL_FETCH => Request::ReplFetch {
                shard: r.u64()?,
                file: r.str()?,
                offset: r.u64()?,
                len: r.u64()?,
            },
            other => return Err(err(format!("unknown request tag {other}"))),
        };
        // Exactly TRACE_CTX_BYTES past the body is the trace context;
        // zero is an untraced request; anything else is garbage.
        let ctx = if r.remaining() == TRACE_CTX_BYTES {
            Some((r.u64()?, r.u32()?))
        } else {
            None
        };
        r.end()?;
        Ok((req, ctx))
    }
}

// ---------------------------------------------------------------------
// Response codec.
// ---------------------------------------------------------------------

impl Response {
    /// Render this response as a frame payload.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out);
        out
    }

    /// This response as one whole frame built in a single buffer: the
    /// same bytes as `encode_frame(&self.encode())`, without copying the
    /// payload into the frame.
    pub fn framed(&self) -> Vec<u8> {
        let mut frame = frame_buffer();
        self.encode_into(&mut frame);
        seal_frame(frame)
    }

    /// Append this response's payload to `out`.
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(BINARY_WIRE_MAGIC);
        match self {
            Response::Unit => out.push(RESP_UNIT),
            Response::Names(names) => {
                out.push(RESP_NAMES);
                codec::put_u32(out, names.len() as u32);
                for name in names {
                    codec::put_str(out, name);
                }
            }
            Response::Table(t) => {
                out.push(RESP_TABLE);
                codec::put_table(out, t);
            }
            Response::Database(db) => {
                out.push(RESP_DATABASE);
                codec::put_database(out, db);
            }
            Response::Delta(d) => {
                out.push(RESP_DELTA);
                codec::put_delta(out, d);
            }
            Response::Receipt { stamp, shards, gtx } => {
                out.push(RESP_RECEIPT);
                codec::put_u64(out, *stamp);
                codec::put_u32(out, shards.len() as u32);
                for shard in shards {
                    codec::put_u64(out, *shard as u64);
                }
                match gtx {
                    Some(gtx) => {
                        out.push(1);
                        codec::put_str(out, gtx);
                    }
                    None => out.push(0),
                }
            }
            Response::Metrics(m) => {
                out.push(RESP_METRICS);
                put_metrics(out, m);
            }
            Response::Stats(t) => {
                out.push(RESP_STATS);
                put_telemetry(out, t);
            }
            Response::Seq(seq) => {
                out.push(RESP_SEQ);
                put_flagged_u64(out, *seq);
            }
            Response::Err(e) => {
                out.push(RESP_ERR);
                put_error(out, e);
            }
            Response::ServerInfo {
                uptime_ms,
                protocol_rev,
                workers,
            } => {
                out.push(RESP_SERVER_INFO);
                codec::put_u64(out, *uptime_ms);
                codec::put_u32(out, *protocol_rev);
                codec::put_u32(out, *workers);
            }
            Response::Traces(report) => {
                out.push(RESP_TRACES);
                put_traces(out, report);
            }
            Response::SubAck { cursor } => {
                out.push(RESP_SUBACK);
                codec::put_u64(out, *cursor);
            }
            Response::Push {
                view,
                from_seq,
                to_seq,
                delta,
                resync,
            } => {
                out.push(RESP_PUSH);
                codec::put_str(out, view);
                codec::put_u64(out, *from_seq);
                codec::put_u64(out, *to_seq);
                codec::put_delta(out, delta);
                match resync {
                    Some(window) => {
                        out.push(1);
                        codec::put_table(out, window);
                    }
                    None => out.push(0),
                }
            }
            Response::ReplManifest(m) => {
                out.push(RESP_REPL_MANIFEST);
                put_manifest(out, m);
            }
            Response::ReplChunk(bytes) => {
                out.push(RESP_REPL_CHUNK);
                codec::put_bytes(out, bytes);
            }
            Response::SnapshotSince { server, answer } => {
                out.push(RESP_SNAPSHOT_SINCE);
                codec::put_u64(out, *server);
                codec::put_u64(out, answer.stamp);
                match &answer.changes {
                    SnapshotChanges::Deltas(deltas) => {
                        out.push(SNAPSHOT_DELTAS);
                        codec::put_u32(out, deltas.len() as u32);
                        for (name, delta) in deltas {
                            codec::put_str(out, name);
                            codec::put_delta(out, delta);
                        }
                    }
                    SnapshotChanges::Full(db) => {
                        out.push(SNAPSHOT_FULL);
                        codec::put_database(out, db);
                    }
                }
            }
        }
    }

    /// Parse a frame payload as a response.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        let mut r = body(payload)?;
        let resp = match r.u8()? {
            RESP_UNIT => Response::Unit,
            RESP_NAMES => {
                let mut names = Vec::new();
                for _ in 0..r.count()? {
                    names.push(r.str()?);
                }
                Response::Names(names)
            }
            RESP_TABLE => Response::Table(r.table()?),
            RESP_DATABASE => Response::Database(r.database()?),
            RESP_DELTA => Response::Delta(r.delta()?),
            RESP_RECEIPT => {
                let stamp = r.u64()?;
                let mut shards = Vec::new();
                for _ in 0..r.count()? {
                    shards.push(r.u64()? as usize);
                }
                let gtx = match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    other => return Err(err(format!("bad gtx flag {other}"))),
                };
                Response::Receipt { stamp, shards, gtx }
            }
            RESP_METRICS => Response::Metrics(read_metrics(&mut r)?),
            RESP_STATS => Response::Stats(read_telemetry(&mut r)?),
            RESP_SEQ => Response::Seq(read_flagged_u64(&mut r, "seq")?),
            RESP_ERR => Response::Err(read_error(&mut r)?),
            RESP_SERVER_INFO => Response::ServerInfo {
                uptime_ms: r.u64()?,
                protocol_rev: r.u32()?,
                workers: r.u32()?,
            },
            RESP_TRACES => Response::Traces(read_traces(&mut r)?),
            RESP_SUBACK => Response::SubAck { cursor: r.u64()? },
            RESP_PUSH => {
                let view = r.str()?;
                let from_seq = r.u64()?;
                let to_seq = r.u64()?;
                let delta = r.delta()?;
                let resync = match r.u8()? {
                    0 => None,
                    1 => Some(r.table()?),
                    other => return Err(err(format!("bad resync flag {other}"))),
                };
                Response::Push {
                    view,
                    from_seq,
                    to_seq,
                    delta,
                    resync,
                }
            }
            RESP_REPL_MANIFEST => Response::ReplManifest(read_manifest(&mut r)?),
            RESP_REPL_CHUNK => Response::ReplChunk(r.bytes()?),
            RESP_SNAPSHOT_SINCE => {
                let server = r.u64()?;
                let stamp = r.u64()?;
                let changes = match r.u8()? {
                    SNAPSHOT_DELTAS => {
                        let mut deltas = Vec::new();
                        for _ in 0..r.count()? {
                            deltas.push((r.str()?, r.delta()?));
                        }
                        SnapshotChanges::Deltas(deltas)
                    }
                    SNAPSHOT_FULL => SnapshotChanges::Full(r.database()?),
                    other => return Err(err(format!("bad snapshot tag {other}"))),
                };
                Response::SnapshotSince {
                    server,
                    answer: SnapshotSince { stamp, changes },
                }
            }
            other => return Err(err(format!("unknown response tag {other}"))),
        };
        r.end()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// The server-side request handler.
// ---------------------------------------------------------------------

/// Execute one request against a per-connection [`esm_engine::Session`]
/// on behalf of server instance `server` (the id snapshot marks are
/// checked against). Every engine error becomes a structured
/// [`Response::Err`]; transport problems never reach here.
pub fn handle(session: &esm_engine::Session, server: u64, req: Request) -> Response {
    let engine = session.engine();
    let result: Result<Response, EngineError> = (|| {
        Ok(match req {
            Request::Ping => Response::Unit,
            Request::TableNames => Response::Names(engine.table_names()?),
            Request::Table(name) => Response::Table(engine.table(&name)?),
            Request::SnapshotSince { since } => {
                // A mark minted by another server instance names another
                // engine's stamp: answer with the whole database.
                let since = since.filter(|mark| mark.server == server);
                Response::SnapshotSince {
                    server,
                    answer: engine.snapshot_since(since.map(|mark| mark.stamp))?,
                }
            }
            Request::DefineView { name, table, def } => {
                session.define_view(&name, &table, &def)?;
                Response::Unit
            }
            Request::OpenView(name) => {
                session.view(&name)?;
                Response::Unit
            }
            Request::ViewNames => Response::Names(engine.view_names()?),
            Request::ReadView(name) => Response::Table(engine.read_view(&name)?),
            Request::EditViewDelta { name, delta } => {
                Response::Delta(engine.edit_view_delta(&name, &delta)?)
            }
            Request::Commit { deltas } => {
                // Delta-direct checked commit: pre-image validation is
                // the first-committer-wins check against the client's
                // snapshot, and engines prune the work to the touched
                // shards — no whole-database snapshot or
                // re-diff on the server hot path.
                let receipt = engine.commit_checked(&deltas)?;
                Response::Receipt {
                    stamp: receipt.stamp,
                    shards: receipt.shards,
                    gtx: receipt.gtx,
                }
            }
            Request::Metrics => Response::Metrics(engine.metrics()?),
            Request::Stats => Response::Stats(engine.telemetry()?),
            Request::Checkpoint => Response::Seq(engine.checkpoint()?),
            Request::SyncWal => {
                engine.sync_wal()?;
                Response::Unit
            }
            // The network layer intercepts ServerPing before handle()
            // and answers with its real identity; this arm covers
            // direct (serverless) use of the handler.
            Request::ServerPing => Response::ServerInfo {
                uptime_ms: 0,
                protocol_rev: PROTOCOL_REV,
                workers: 0,
            },
            Request::Traces => Response::Traces(engine.traces()?),
            // The network layer intercepts Subscribe/Unsubscribe before
            // handle() — the subscription registry is connection-scoped.
            // These arms cover direct (serverless) use: ack with the
            // engine's cursor; nothing will push without a server.
            Request::Subscribe { view, cursor } => Response::SubAck {
                cursor: match cursor {
                    Some(c) => c,
                    None => engine.view_cursor(&view)?,
                },
            },
            Request::Unsubscribe(_) => Response::Unit,
            // Replication verbs route through the engine's shippable
            // WAL surface; in-memory engines have none.
            Request::ReplManifest => match engine.repl_source() {
                Some(source) => Response::ReplManifest(source.manifest()?),
                None => {
                    return Err(EngineError::Io(
                        "replication source unavailable: engine is not durable".into(),
                    ))
                }
            },
            Request::ReplFetch {
                shard,
                file,
                offset,
                len,
            } => match engine.repl_source() {
                Some(source) => Response::ReplChunk(source.fetch(shard, &file, offset, len)?),
                None => {
                    return Err(EngineError::Io(
                        "replication source unavailable: engine is not durable".into(),
                    ))
                }
            },
        })
    })();
    result.unwrap_or_else(Response::Err)
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Schema, Value, ValueType};

    fn table() -> Table {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("name", ValueType::Str)], &["id"]).unwrap();
        Table::from_rows(schema, vec![row![1, "a\tb"], row![2, "nl\nhere"]]).unwrap()
    }

    fn telemetry() -> TelemetrySnapshot {
        let tel = esm_obs::Telemetry::new();
        for v in [3, 90, 4000, 4096, u64::MAX] {
            tel.record(Phase::CommitFsync, v);
            tel.record(Phase::NetHandler, v / 3);
        }
        tel.set_slow_threshold_ns(12_345_678);
        tel.snapshot()
    }

    fn traces() -> TraceReport {
        let spans = vec![
            SpanRecord {
                id: 1,
                parent: 0,
                name: "net:commit".into(),
                tag: String::new(),
                start_ns: 0,
                duration_ns: 5_000,
                bytes: 0,
            },
            SpanRecord {
                id: 2,
                parent: 1,
                name: "we\tird\nname".into(),
                tag: "shard:0\tλ".into(),
                start_ns: 10,
                duration_ns: 4_000,
                bytes: 512,
            },
            SpanRecord {
                id: 3,
                parent: 2,
                name: "commit_fsync".into(),
                tag: String::new(),
                start_ns: 100,
                duration_ns: 3_000,
                bytes: u64::MAX,
            },
        ];
        TraceReport {
            recent: vec![
                TraceRecord {
                    id: TraceId(0xfeed_face_0000_0001),
                    root: "net:commit".into(),
                    duration_ns: 5_000,
                    spans,
                },
                TraceRecord {
                    id: TraceId(0),
                    root: "empty".into(),
                    duration_ns: 0,
                    spans: vec![],
                },
            ],
            slow: vec![TraceRecord {
                id: TraceId(u64::MAX),
                root: "slo\tw".into(),
                duration_ns: u64::MAX,
                spans: vec![SpanRecord {
                    id: 1,
                    parent: 0,
                    name: "session:transact".into(),
                    tag: String::new(),
                    start_ns: 0,
                    duration_ns: u64::MAX,
                    bytes: 7,
                }],
            }],
        }
    }

    fn sample_requests() -> Vec<Request> {
        let def = ViewDef::base()
            .select(
                Predicate::lt(Operand::col("id"), Operand::val(30)).and(Predicate::ne(
                    Operand::col("name"),
                    Operand::val("we\tird\nname"),
                )),
            )
            .project(&["id", "name"], &[("extra", Value::str("d\\efault"))])
            .rename(&[("name", "renamed")]);
        vec![
            Request::Ping,
            Request::TableNames,
            Request::Table("ta ble".into()),
            Request::SnapshotSince { since: None },
            Request::SnapshotSince {
                since: Some(SnapshotMark {
                    server: u64::MAX,
                    stamp: 7,
                }),
            },
            Request::DefineView {
                name: "v\tiew".into(),
                table: "t".into(),
                def,
            },
            Request::OpenView("v".into()),
            Request::ViewNames,
            Request::ReadView("v".into()),
            Request::EditViewDelta {
                name: "v".into(),
                delta: Delta {
                    inserted: vec![row![3, "c"]],
                    deleted: vec![row![1, "a\tb"]],
                },
            },
            Request::Commit {
                deltas: vec![(
                    "t".into(),
                    Delta {
                        inserted: vec![row![3, "c"]],
                        deleted: vec![row![1, "a\tb"]],
                    },
                )],
            },
            Request::Metrics,
            Request::Stats,
            Request::Checkpoint,
            Request::SyncWal,
            Request::ServerPing,
            Request::Traces,
            Request::Subscribe {
                view: "v\tiew".into(),
                cursor: Some(u64::MAX),
            },
            Request::Subscribe {
                view: "v".into(),
                cursor: None,
            },
            Request::Subscribe {
                view: String::new(),
                cursor: Some(0),
            },
            Request::Unsubscribe("v\niew".into()),
            Request::ReplManifest,
            Request::ReplFetch {
                shard: 3,
                file: "wal-00000000000000000001.seg".into(),
                offset: 4096,
                len: u64::MAX,
            },
        ]
    }

    #[test]
    fn requests_round_trip() {
        for req in sample_requests() {
            assert_eq!(Request::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn frames_built_in_place_equal_framed_encodings() {
        // The one-buffer encoders produce the very bytes of wrapping the
        // encoded payload in a frame afterwards.
        for req in sample_requests() {
            for ctx in [None, Some((7, 9))] {
                assert_eq!(
                    req.framed_with_trace(ctx),
                    crate::frame::encode_frame(&req.encode_with_trace(ctx)),
                    "{req:?}"
                );
            }
        }
        for resp in sample_responses() {
            assert_eq!(
                resp.framed(),
                crate::frame::encode_frame(&resp.encode()),
                "{resp:?}"
            );
        }
    }

    #[test]
    fn trace_context_round_trips() {
        let reqs = vec![
            Request::Ping,
            Request::Commit {
                deltas: vec![(
                    "t".into(),
                    Delta {
                        inserted: vec![row![3, "c"]],
                        deleted: vec![],
                    },
                )],
            },
            Request::Traces,
        ];
        for req in reqs {
            // With a context: it survives and the request is unchanged.
            let ctx = Some((0xdead_beef_cafe_f00d_u64, 17_u32));
            let (back, got) = Request::decode_with_trace(&req.encode_with_trace(ctx)).unwrap();
            assert_eq!(got, ctx, "{req:?}");
            assert_eq!(back.encode(), req.encode(), "{req:?}");
            // Without one: encode_with_trace(None) is byte-identical to
            // the plain encoding, and decodes with no context.
            assert_eq!(req.encode_with_trace(None), req.encode(), "{req:?}");
            let (_, got) = Request::decode_with_trace(&req.encode()).unwrap();
            assert_eq!(got, None, "{req:?}");
        }
    }

    fn sample_responses() -> Vec<Response> {
        let mut db = Database::new();
        db.replace_table("t", table());
        let metrics = MetricsSnapshot {
            commits: 7,
            view: ViewStats {
                rebuilds: 2,
                ..Default::default()
            },
            shard: ShardStats {
                prepares: 3,
                ..Default::default()
            },
            wal: WalStats {
                appends: 9,
                ..Default::default()
            },
            ..Default::default()
        };
        vec![
            Response::Unit,
            Response::Names(vec![]),
            Response::Names(vec!["a".into(), "with\ttab".into()]),
            Response::Table(table()),
            Response::Database(db.clone()),
            Response::Delta(Delta {
                inserted: vec![row![9, "i"]],
                deleted: vec![],
            }),
            Response::Receipt {
                stamp: 42,
                shards: vec![0, 3],
                gtx: Some("g17".into()),
            },
            Response::Receipt {
                stamp: 1,
                shards: vec![],
                gtx: None,
            },
            Response::Metrics(metrics),
            Response::Stats(telemetry()),
            Response::Stats(TelemetrySnapshot {
                phases: vec![],
                slow_threshold_ns: 1,
                gauges: vec![],
            }),
            Response::Stats({
                let mut t = telemetry();
                t.set_gauge("repl_lag_records", u64::MAX);
                t.set_gauge("we\tird gauge", 0);
                t
            }),
            Response::Seq(Some(12)),
            Response::Seq(None),
            Response::ServerInfo {
                uptime_ms: 123_456,
                protocol_rev: PROTOCOL_REV,
                workers: 8,
            },
            Response::Traces(traces()),
            Response::Traces(TraceReport::default()),
            Response::Err(EngineError::Conflict {
                table: "t".into(),
                detail: "de\ttail".into(),
            }),
            Response::Err(EngineError::RetriesExhausted {
                view: "v".into(),
                attempts: 4,
            }),
            Response::SubAck { cursor: u64::MAX },
            Response::SubAck { cursor: 0 },
            Response::Push {
                view: "v\tiew".into(),
                from_seq: 3,
                to_seq: u64::MAX,
                delta: Delta {
                    inserted: vec![row![9, "i"]],
                    deleted: vec![row![1, "a\tb"]],
                },
                resync: None,
            },
            Response::Push {
                view: "v".into(),
                from_seq: 0,
                to_seq: 7,
                delta: Delta::empty(),
                resync: Some(table()),
            },
            Response::Metrics(MetricsSnapshot {
                shard: ShardStats {
                    auto_splits: 2,
                    auto_merges: 1,
                    commit_rate_ewma_milli: 123_456,
                    commit_rate_skew_milli: 1_900,
                    ..Default::default()
                },
                shard_load: vec![
                    ShardLoad {
                        shard: 0,
                        rows: 10,
                        commits: 100,
                        rate_ewma_milli: 5_000,
                    },
                    ShardLoad {
                        shard: 7,
                        rows: 0,
                        commits: 0,
                        rate_ewma_milli: 0,
                    },
                ],
                repl: ReplStats {
                    lag: vec![ReplicaLag {
                        shard: 0,
                        primary_seq: 42,
                        applied_seq: 40,
                    }],
                    ship_passes: 9,
                    records_applied: 80,
                    transactions_applied: 33,
                },
                ..Default::default()
            }),
            Response::ReplManifest(ReplManifest {
                topology: vec![0x00, 0xFF, 0x7B, b'\n', b'\t'],
                primary_addr: "127.0.0.1:4400".into(),
                shards: vec![
                    ShardManifest {
                        id: 0,
                        last_seq: 17,
                        files: vec![
                            FileEntry {
                                name: "checkpoint-00000000000000000004.ckpt".into(),
                                len: 321,
                            },
                            FileEntry {
                                name: "wal-00000000000000000005.seg".into(),
                                len: 4096,
                            },
                        ],
                    },
                    ShardManifest {
                        id: 3,
                        last_seq: 0,
                        files: vec![],
                    },
                ],
            }),
            Response::ReplManifest(ReplManifest::default()),
            Response::ReplChunk(vec![0xB7, 0x00, 0xFF, 1, 2, 3]),
            Response::ReplChunk(vec![]),
            Response::SnapshotSince {
                server: 3,
                answer: SnapshotSince {
                    stamp: 42,
                    changes: SnapshotChanges::Deltas(vec![
                        (
                            "t".into(),
                            Delta {
                                inserted: vec![row![9, "i"]],
                                deleted: vec![row![1, "a\tb"]],
                            },
                        ),
                        ("u\nv".into(), Delta::empty()),
                    ]),
                },
            },
            Response::SnapshotSince {
                server: u64::MAX,
                answer: SnapshotSince {
                    stamp: u64::MAX,
                    changes: SnapshotChanges::Full(db.clone()),
                },
            },
            Response::SnapshotSince {
                server: 0,
                answer: SnapshotSince {
                    stamp: 0,
                    changes: SnapshotChanges::Deltas(vec![]),
                },
            },
            Response::SnapshotSince {
                server: 0,
                answer: SnapshotSince {
                    stamp: 0,
                    changes: SnapshotChanges::Full(Database::new()),
                },
            },
            Response::Err(EngineError::NotPrimary {
                primary: "10.0.0.2:4400".into(),
            }),
            Response::Err(EngineError::NotPrimary {
                primary: String::new(),
            }),
            Response::Err(EngineError::DuplicateSeq {
                seq: u64::MAX,
                last: 3,
            }),
            Response::Err(EngineError::ShardTopology("split\tkey".into())),
        ]
    }

    #[test]
    fn responses_round_trip() {
        for resp in sample_responses() {
            assert_eq!(Response::decode(&resp.encode()).unwrap(), resp);
        }
        // Store errors cross as their message, rebuilt as a BadQuery.
        let store = StoreError::KeyViolation("k".into());
        let resp = Response::Err(EngineError::Store(store.clone()));
        assert_eq!(
            Response::decode(&resp.encode()).unwrap(),
            Response::Err(EngineError::Store(StoreError::BadQuery(store.to_string())))
        );
    }

    #[test]
    fn absurd_counts_are_refused_without_allocating() {
        // Cut each payload at every byte and announce u32::MAX there:
        // every count and length field of every message kind sees an
        // absurd count at some cut. Decoding must refuse, or — where the
        // cut fell on some other field — yield a message that re-encodes
        // to exactly those bytes.
        let cuts = |payload: Vec<u8>| {
            (0..=payload.len()).map(move |cut| {
                let mut bytes = payload[..cut].to_vec();
                codec::put_u32(&mut bytes, u32::MAX);
                bytes
            })
        };
        for req in sample_requests() {
            for bytes in cuts(req.encode()) {
                if let Ok((back, ctx)) = Request::decode_with_trace(&bytes) {
                    assert_eq!(back.encode_with_trace(ctx), bytes, "{req:?}");
                }
            }
        }
        for resp in sample_responses() {
            for bytes in cuts(resp.encode()) {
                if let Ok(back) = Response::decode(&bytes) {
                    assert_eq!(back.encode(), bytes, "{resp:?}");
                }
            }
        }
    }

    #[test]
    fn binary_garbage_is_rejected_not_panicked() {
        let truncated_commit = {
            // A commit header promising a delta that never arrives.
            let mut b = vec![BINARY_WIRE_MAGIC, REQ_COMMIT];
            codec::put_u32(&mut b, 3);
            b
        };
        let trailing = {
            let mut b = Request::Ping.encode();
            b.push(0);
            b
        };
        for bad in [
            vec![BINARY_WIRE_MAGIC],
            vec![BINARY_WIRE_MAGIC, 0xEE],
            vec![BINARY_WIRE_MAGIC, REQ_TABLE],
            vec![BINARY_WIRE_MAGIC, REQ_TABLE, 0xFF, 0xFF, 0xFF, 0xFF],
            truncated_commit,
            trailing,
        ] {
            assert!(Request::decode(&bad).is_err(), "{bad:?} must not decode");
        }
        let bad_cursor_flag = {
            let mut b = vec![BINARY_WIRE_MAGIC, REQ_SUBSCRIBE];
            codec::put_str(&mut b, "v");
            b.push(7); // neither 0 nor 1
            b
        };
        assert!(Request::decode(&bad_cursor_flag).is_err());
        let bad_resync_flag = {
            let mut b = vec![BINARY_WIRE_MAGIC, RESP_PUSH];
            codec::put_str(&mut b, "v");
            codec::put_u64(&mut b, 1);
            codec::put_u64(&mut b, 2);
            codec::put_delta(&mut b, &Delta::empty());
            b.push(9); // neither 0 nor 1
            b
        };
        assert!(Response::decode(&bad_resync_flag).is_err());
        let bad_since_flag = vec![BINARY_WIRE_MAGIC, REQ_SNAPSHOT_SINCE, 2];
        assert!(Request::decode(&bad_since_flag).is_err());
        let bad_snapshot_flag = {
            let mut b = vec![BINARY_WIRE_MAGIC, RESP_SNAPSHOT_SINCE];
            codec::put_u64(&mut b, 1);
            codec::put_u32(&mut b, 0);
            b.push(2); // neither 0 nor 1
            b
        };
        assert!(Response::decode(&bad_snapshot_flag).is_err());
        // The retired whole-database snapshot tag is unknown now.
        assert!(Request::decode(&[BINARY_WIRE_MAGIC, 3]).is_err());
        for bad in [
            vec![BINARY_WIRE_MAGIC],
            vec![BINARY_WIRE_MAGIC, 0xEE],
            vec![BINARY_WIRE_MAGIC, RESP_RECEIPT, 1],
            vec![BINARY_WIRE_MAGIC, RESP_SEQ, 7],
            vec![BINARY_WIRE_MAGIC, RESP_ERR, 0, 0, 0, 0],
            vec![BINARY_WIRE_MAGIC, RESP_SUBACK, 1, 2],
        ] {
            assert!(Response::decode(&bad).is_err(), "{bad:?} must not decode");
        }
        // Every truncation of a real binary payload must error cleanly:
        // all lengths are prefixed, so a missing tail is always caught.
        let full = Response::Table(table()).encode();
        for cut in 0..full.len() {
            assert!(
                Response::decode(&full[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
    }

    #[test]
    fn predicates_round_trip_structurally() {
        let pred = Predicate::lt(Operand::col("a b"), Operand::val(3))
            .and(Predicate::eq(Operand::col("s"), Operand::val("x\ty")).not())
            .or(Predicate::True.and(Predicate::False));
        let mut bytes = Vec::new();
        put_predicate(&mut bytes, &pred);
        let mut r = BinReader::new(&bytes);
        assert_eq!(read_predicate(&mut r, 0).unwrap(), pred);
        r.end().unwrap();
        // Nesting past MAX_NESTING is refused before it can exhaust the
        // stack.
        let mut deep = vec![PRED_NOT; MAX_NESTING + 1];
        deep.push(PRED_TRUE);
        assert!(read_predicate(&mut BinReader::new(&deep), 0).is_err());
        assert!(read_predicate(&mut BinReader::new(&deep[1..]), 0).is_ok());
        // Unknown tags and missing operands are refused.
        for bad in [
            &[9u8][..],
            &[PRED_COMPARE, 6],
            &[PRED_COMPARE, 0, 2],
            &[PRED_AND, PRED_TRUE],
        ] {
            assert!(
                read_predicate(&mut BinReader::new(bad), 0).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        // Only binary payloads decode: anything that does not start
        // with the wire magic is refused, however it continues — the
        // third is a text-shaped commit announcing 10^11 deltas.
        for bad in [
            &b""[..],
            b"nope",
            b"commit\t100000000000\n",
            b"ping\n",
            b"\xff\xfe",
            &[0xB5, REQ_PING],
            &[0x00, REQ_PING],
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} must not decode");
            assert!(Response::decode(bad).is_err(), "{bad:?} must not decode");
        }
        // A view definition starts with its base stage, exactly once.
        for stages in [
            &[][..],
            &[STAGE_SELECT, PRED_TRUE],
            &[STAGE_BASE, STAGE_BASE],
        ] {
            let mut b = vec![BINARY_WIRE_MAGIC, REQ_DEFINE_VIEW];
            codec::put_str(&mut b, "v");
            codec::put_str(&mut b, "t");
            codec::put_u32(&mut b, stages.len() as u32);
            b.extend_from_slice(stages);
            assert!(Request::decode(&b).is_err(), "{stages:?} must not decode");
        }
    }
}
