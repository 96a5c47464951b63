//! The wire protocol: requests and responses for the full
//! [`esm_engine::Engine`] surface.
//!
//! Every payload rides inside one CRC-checked frame
//! ([`crate::frame`]). Two codecs share the wire, dispatched on the
//! payload's first byte:
//!
//! * **Binary** (the default emitted by [`Request::encode`] and
//!   [`Response::encode`]): the payload starts with
//!   [`BINARY_WIRE_MAGIC`] (`0xB7`, a UTF-8 continuation byte no text
//!   payload can begin with), then a one-byte message tag, then
//!   little-endian length-prefixed fields built from the store's
//!   binary primitives ([`esm_store::codec`]). Hot row data — tables,
//!   databases, deltas, commits — never round-trips through text.
//! * **Text** (the legacy form, kept by [`Request::encode_text`] /
//!   [`Response::encode_text`] and decoded forever): line-oriented,
//!   tab-separated, with the escaping discipline shared with the WAL
//!   segments and checkpoint snapshots. Rare structured payloads
//!   (view definitions, metrics, telemetry, errors) ride inside the
//!   binary codec as one length-prefixed text blob each, reusing the
//!   text grammar below instead of duplicating it.
//!
//! ## Grammar sketch
//!
//! ```text
//! request  := op-line [body]
//! op-line  := ping | table_names | snapshot | view_names | metrics
//!           | stats | checkpoint | sync_wal
//!           | table TAB name | open_view TAB name | read_view TAB name
//!           | define_view TAB name TAB table NL viewdef
//!           | write_view TAB name NL table-doc
//!           | edit_cas TAB name NL table-doc table-doc
//!           | commit TAB n NL (name-line delta-doc)*n
//!           | subscribe TAB name TAB (none|cursor) | unsubscribe TAB name
//!           | repl_manifest | repl_fetch TAB shard TAB file TAB off TAB len
//! response := ok | names TAB ... | seq (none|n) | err TAB error
//!           | table NL table-doc | db NL db-doc | delta NL delta-doc
//!           | receipt ... | metrics NL metrics-doc
//!           | stats NL telemetry-doc | suback TAB cursor
//!           | push TAB name TAB from TAB to TAB resync? NL delta-doc [table-doc]
//!           | repl_manifest NL manifest-doc | repl_chunk TAB hex
//! ```
//!
//! Table documents are self-delimiting (`@rows n` announces the row
//! count), so documents concatenate without ambiguity. Predicates
//! serialize as tab-separated **postfix token streams** (`col:x`,
//! `val:i:3`, `cmp:lt`, `and`, …) — a stack machine decodes them with
//! no recursion and no parenthesis escaping.

use esm_engine::{
    EngineError, FileEntry, MetricsSnapshot, ReplManifest, ReplStats, ReplicaLag, ShardLoad,
    ShardManifest, ShardStats, ViewStats, WalStats,
};
use esm_obs::{
    HistogramSnapshot, Phase, SlowOp, SpanRecord, TelemetrySnapshot, TraceId, TraceRecord,
    TraceReport,
};
use esm_relational::ViewDef;
use esm_store::codec::{
    self, decode_cell, decode_row, encode_cell, encode_row, escape, unescape, BinReader,
};
use esm_store::{
    Cmp, Column, Database, Delta, Operand, Predicate, Schema, StoreError, Table, ValueType,
};

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
    /// `Engine::snapshot`.
    Snapshot,
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
    /// `Engine::write_view`.
    WriteView {
        /// View name.
        name: String,
        /// The edited view table.
        view: Table,
    },
    /// One optimistic-edit attempt as a compare-and-swap: commit the
    /// edited window iff the view still reads as `expect`. The client
    /// drives the retry loop (`Engine::edit_view_optimistic` needs a
    /// closure; closures do not serialize — equality of the observed
    /// window does).
    EditViewCas {
        /// View name.
        name: String,
        /// The window the client's edit was computed against.
        expect: Table,
        /// The edited window to install.
        edited: Table,
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
    /// `Engine::telemetry` — the phase-latency histograms and slow-op
    /// log. On the wire the server's net-layer phases ride along merged
    /// into the engine's snapshot.
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
    /// A whole database snapshot.
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
    /// Phase-latency telemetry (histograms + slow-op log).
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
}

/// The wire protocol revision this build speaks. Revision 2 added the
/// optional trace-context suffix on binary requests, `server_ping` and
/// `traces`. Revision 3 added cursor subscriptions: `subscribe` /
/// `unsubscribe` requests and the server-initiated `suback` / `push`
/// responses. Revision 4 added WAL-shipping replication
/// (`repl_manifest` / `repl_fetch`), the `not_primary` redirect error,
/// and optional load/lag/gauge extensions to the metrics and telemetry
/// documents (absent fields encode exactly as revision 3 did). Servers
/// keep decoding every earlier form and older clients see no new
/// frames, so the revision is informational (surfaced by
/// [`Response::ServerInfo`]), not a handshake.
pub const PROTOCOL_REV: u32 = 4;

// ---------------------------------------------------------------------
// Line reader.
// ---------------------------------------------------------------------

struct Reader<'a> {
    lines: std::str::Lines<'a>,
}

impl<'a> Reader<'a> {
    fn new(text: &'a str) -> Reader<'a> {
        Reader {
            lines: text.lines(),
        }
    }

    fn next(&mut self) -> Result<&'a str, WireError> {
        self.lines.next().ok_or_else(|| err("truncated message"))
    }

    /// Next line, which must start with `keyword` followed by a tab (or
    /// be exactly `keyword` — an empty field list). Returns the rest.
    fn keyword(&mut self, keyword: &str) -> Result<&'a str, WireError> {
        let line = self.next()?;
        if line == keyword {
            return Ok("");
        }
        line.strip_prefix(keyword)
            .and_then(|r| r.strip_prefix('\t'))
            .ok_or_else(|| err(format!("expected `{keyword}`, got `{line}`")))
    }

    fn end(mut self) -> Result<(), WireError> {
        match self.lines.next() {
            None => Ok(()),
            Some(extra) => Err(err(format!("trailing garbage: `{extra}`"))),
        }
    }
}

fn fields(rest: &str) -> Vec<&str> {
    if rest.is_empty() {
        Vec::new()
    } else {
        rest.split('\t').collect()
    }
}

// ---------------------------------------------------------------------
// Table / database / delta documents.
// ---------------------------------------------------------------------

fn encode_type(ty: ValueType) -> &'static str {
    match ty {
        ValueType::Bool => "bool",
        ValueType::Int => "int",
        ValueType::Str => "str",
    }
}

fn decode_type(s: &str) -> Result<ValueType, WireError> {
    match s {
        "bool" => Ok(ValueType::Bool),
        "int" => Ok(ValueType::Int),
        "str" => Ok(ValueType::Str),
        _ => Err(err(format!("unknown value type `{s}`"))),
    }
}

/// Render one table as a self-delimiting document.
pub fn encode_table(out: &mut String, table: &Table) {
    let cols: Vec<String> = table
        .schema()
        .columns()
        .iter()
        .map(|c| format!("{}:{}", escape(&c.name), encode_type(c.ty)))
        .collect();
    out.push_str(&format!("@schema\t{}\n", cols.join("\t")));
    let key: Vec<String> = table.schema().key().iter().map(|k| escape(k)).collect();
    if key.is_empty() {
        out.push_str("@key\n");
    } else {
        out.push_str(&format!("@key\t{}\n", key.join("\t")));
    }
    out.push_str(&format!("@rows\t{}\n", table.len()));
    for row in table.rows() {
        out.push_str(&encode_row(row));
        out.push('\n');
    }
}

fn decode_table(r: &mut Reader<'_>) -> Result<Table, WireError> {
    let cols_line = r.keyword("@schema")?;
    let mut columns = Vec::new();
    for cell in fields(cols_line) {
        let (name, ty) = cell
            .rsplit_once(':')
            .ok_or_else(|| err(format!("untyped column `{cell}`")))?;
        columns.push(Column::new(unescape(name)?, decode_type(ty)?));
    }
    let key_line = r.keyword("@key")?;
    let key: Vec<String> = fields(key_line)
        .into_iter()
        .map(unescape)
        .collect::<Result<_, _>>()?;
    let schema = Schema::new(columns, key)?;
    let n: usize = r
        .keyword("@rows")?
        .parse()
        .map_err(|_| err("bad @rows count"))?;
    let mut table = Table::new(schema);
    for _ in 0..n {
        table.insert(decode_row(r.next()?)?)?;
    }
    Ok(table)
}

/// Render a whole database (tables in name order).
pub fn encode_database(out: &mut String, db: &Database) {
    let names = db.table_names();
    out.push_str(&format!("@db\t{}\n", names.len()));
    for name in names {
        out.push_str(&format!("@name\t{}\n", escape(name)));
        encode_table(out, db.table(name).expect("name came from the database"));
    }
}

fn decode_database(r: &mut Reader<'_>) -> Result<Database, WireError> {
    let n: usize = r
        .keyword("@db")?
        .parse()
        .map_err(|_| err("bad @db count"))?;
    let mut db = Database::new();
    for _ in 0..n {
        let name = unescape(r.keyword("@name")?)?;
        db.replace_table(name, decode_table(r)?);
    }
    Ok(db)
}

/// Render a delta (inserted rows then deleted rows).
pub fn encode_delta(out: &mut String, delta: &Delta) {
    out.push_str(&format!(
        "@delta\t{}\t{}\n",
        delta.inserted.len(),
        delta.deleted.len()
    ));
    for row in &delta.inserted {
        out.push_str(&encode_row(row));
        out.push('\n');
    }
    for row in &delta.deleted {
        out.push_str(&encode_row(row));
        out.push('\n');
    }
}

fn decode_delta(r: &mut Reader<'_>) -> Result<Delta, WireError> {
    let head = r.keyword("@delta")?;
    let parts = fields(head);
    let [ins, del] = parts.as_slice() else {
        return Err(err("bad @delta header"));
    };
    let ins: usize = ins.parse().map_err(|_| err("bad @delta insert count"))?;
    let del: usize = del.parse().map_err(|_| err("bad @delta delete count"))?;
    let mut delta = Delta::empty();
    for _ in 0..ins {
        delta.inserted.push(decode_row(r.next()?)?);
    }
    for _ in 0..del {
        delta.deleted.push(decode_row(r.next()?)?);
    }
    Ok(delta)
}

// ---------------------------------------------------------------------
// Predicates (postfix token stream) and view definitions.
// ---------------------------------------------------------------------

fn encode_operand(tokens: &mut Vec<String>, op: &Operand) {
    match op {
        Operand::Col(name) => tokens.push(format!("col:{}", escape(name))),
        Operand::Const(v) => tokens.push(format!("val:{}", encode_cell(v))),
    }
}

fn encode_cmp(cmp: Cmp) -> &'static str {
    match cmp {
        Cmp::Eq => "eq",
        Cmp::Ne => "ne",
        Cmp::Lt => "lt",
        Cmp::Le => "le",
        Cmp::Gt => "gt",
        Cmp::Ge => "ge",
    }
}

fn decode_cmp(s: &str) -> Result<Cmp, WireError> {
    Ok(match s {
        "eq" => Cmp::Eq,
        "ne" => Cmp::Ne,
        "lt" => Cmp::Lt,
        "le" => Cmp::Le,
        "gt" => Cmp::Gt,
        "ge" => Cmp::Ge,
        _ => return Err(err(format!("unknown comparison `{s}`"))),
    })
}

fn predicate_tokens(tokens: &mut Vec<String>, pred: &Predicate) {
    match pred {
        Predicate::True => tokens.push("T".into()),
        Predicate::False => tokens.push("F".into()),
        Predicate::Compare(cmp, lhs, rhs) => {
            encode_operand(tokens, lhs);
            encode_operand(tokens, rhs);
            tokens.push(format!("cmp:{}", encode_cmp(*cmp)));
        }
        Predicate::And(a, b) => {
            predicate_tokens(tokens, a);
            predicate_tokens(tokens, b);
            tokens.push("and".into());
        }
        Predicate::Or(a, b) => {
            predicate_tokens(tokens, a);
            predicate_tokens(tokens, b);
            tokens.push("or".into());
        }
        Predicate::Not(p) => {
            predicate_tokens(tokens, p);
            tokens.push("not".into());
        }
    }
}

/// Render a predicate as one tab-joined postfix token line.
pub fn encode_predicate(pred: &Predicate) -> String {
    let mut tokens = Vec::new();
    predicate_tokens(&mut tokens, pred);
    tokens.join("\t")
}

enum Slot {
    Pred(Predicate),
    Op(Operand),
}

/// Parse a postfix predicate token line.
pub fn decode_predicate(line: &str) -> Result<Predicate, WireError> {
    let mut stack: Vec<Slot> = Vec::new();
    let pop_pred = |stack: &mut Vec<Slot>| -> Result<Predicate, WireError> {
        match stack.pop() {
            Some(Slot::Pred(p)) => Ok(p),
            _ => Err(err("predicate stack underflow")),
        }
    };
    let pop_op = |stack: &mut Vec<Slot>| -> Result<Operand, WireError> {
        match stack.pop() {
            Some(Slot::Op(o)) => Ok(o),
            _ => Err(err("operand stack underflow")),
        }
    };
    for token in fields(line) {
        match token {
            "T" => stack.push(Slot::Pred(Predicate::True)),
            "F" => stack.push(Slot::Pred(Predicate::False)),
            "and" => {
                let b = pop_pred(&mut stack)?;
                let a = pop_pred(&mut stack)?;
                stack.push(Slot::Pred(a.and(b)));
            }
            "or" => {
                let b = pop_pred(&mut stack)?;
                let a = pop_pred(&mut stack)?;
                stack.push(Slot::Pred(a.or(b)));
            }
            "not" => {
                let p = pop_pred(&mut stack)?;
                stack.push(Slot::Pred(p.not()));
            }
            _ => {
                let (tag, rest) = token
                    .split_once(':')
                    .ok_or_else(|| err(format!("bad predicate token `{token}`")))?;
                match tag {
                    "col" => stack.push(Slot::Op(Operand::col(unescape(rest)?))),
                    "val" => stack.push(Slot::Op(Operand::Const(decode_cell(rest)?))),
                    "cmp" => {
                        let cmp = decode_cmp(rest)?;
                        let rhs = pop_op(&mut stack)?;
                        let lhs = pop_op(&mut stack)?;
                        stack.push(Slot::Pred(Predicate::Compare(cmp, lhs, rhs)));
                    }
                    _ => return Err(err(format!("bad predicate token `{token}`"))),
                }
            }
        }
    }
    match (stack.pop(), stack.is_empty()) {
        (Some(Slot::Pred(p)), true) => Ok(p),
        _ => Err(err(
            "predicate token stream did not reduce to one predicate",
        )),
    }
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

/// Render a view definition as a stage list (base outward).
pub fn encode_viewdef(out: &mut String, def: &ViewDef) {
    let chain = stages(def);
    out.push_str(&format!("@viewdef\t{}\n", chain.len()));
    for stage in chain {
        match stage {
            ViewDef::Base => out.push_str("base\n"),
            ViewDef::Select(_, pred) => {
                out.push_str(&format!("select\t{}\n", encode_predicate(pred)));
            }
            ViewDef::Project(_, cols, defaults) => {
                let cols: Vec<String> = cols.iter().map(|c| escape(c)).collect();
                if cols.is_empty() {
                    out.push_str("project\n");
                } else {
                    out.push_str(&format!("project\t{}\n", cols.join("\t")));
                }
                let mut pairs: Vec<String> = Vec::new();
                for (col, v) in defaults {
                    pairs.push(escape(col));
                    pairs.push(encode_cell(v));
                }
                if pairs.is_empty() {
                    out.push_str("defaults\n");
                } else {
                    out.push_str(&format!("defaults\t{}\n", pairs.join("\t")));
                }
            }
            ViewDef::Rename(_, renames) => {
                let mut pairs: Vec<String> = Vec::new();
                for (old, new) in renames {
                    pairs.push(escape(old));
                    pairs.push(escape(new));
                }
                if pairs.is_empty() {
                    out.push_str("rename\n");
                } else {
                    out.push_str(&format!("rename\t{}\n", pairs.join("\t")));
                }
            }
        }
    }
}

fn pairs_of(items: Vec<&str>) -> Result<Vec<(&str, &str)>, WireError> {
    if !items.len().is_multiple_of(2) {
        return Err(err("odd pair list"));
    }
    Ok(items.chunks(2).map(|c| (c[0], c[1])).collect())
}

fn decode_viewdef(r: &mut Reader<'_>) -> Result<ViewDef, WireError> {
    let n: usize = r
        .keyword("@viewdef")?
        .parse()
        .map_err(|_| err("bad @viewdef count"))?;
    if n == 0 {
        return Err(err("empty view definition"));
    }
    let mut def: Option<ViewDef> = None;
    for i in 0..n {
        let line = r.next()?;
        let (op, rest) = match line.split_once('\t') {
            Some((op, rest)) => (op, rest),
            None => (line, ""),
        };
        match (op, i, def.take()) {
            ("base", 0, None) => def = Some(ViewDef::Base),
            ("select", _, Some(inner)) => {
                def = Some(ViewDef::Select(Box::new(inner), decode_predicate(rest)?));
            }
            ("project", _, Some(inner)) => {
                let cols: Vec<String> = fields(rest)
                    .into_iter()
                    .map(unescape)
                    .collect::<Result<_, _>>()?;
                let dline = r.keyword("defaults")?;
                let mut defaults = Vec::new();
                for (col, cell) in pairs_of(fields(dline))? {
                    defaults.push((unescape(col)?, decode_cell(cell)?));
                }
                def = Some(ViewDef::Project(Box::new(inner), cols, defaults));
            }
            ("rename", _, Some(inner)) => {
                let mut renames = Vec::new();
                for (old, new) in pairs_of(fields(rest))? {
                    renames.push((unescape(old)?, unescape(new)?));
                }
                def = Some(ViewDef::Rename(Box::new(inner), renames));
            }
            _ => return Err(err(format!("bad view stage `{line}` at position {i}"))),
        }
    }
    def.ok_or_else(|| err("empty view definition"))
}

// ---------------------------------------------------------------------
// Metrics.
// ---------------------------------------------------------------------

fn encode_metrics(out: &mut String, m: &MetricsSnapshot) {
    // Revision 4 extensions (per-shard load, replication lag) ride
    // behind counts on the header line; when absent the header stays
    // bare and the document is bit-identical to the revision-3 form.
    let extended = !m.shard_load.is_empty() || m.repl != ReplStats::default();
    if extended {
        out.push_str(&format!(
            "@metrics\t{}\t{}\n",
            m.shard_load.len(),
            m.repl.lag.len()
        ));
    } else {
        out.push_str("@metrics\n");
    }
    out.push_str(&format!(
        "core\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
        m.commits,
        m.conflicts,
        m.retries,
        m.view_reads,
        m.rows_written,
        m.wal_truncations,
        m.wal_records_truncated
    ));
    out.push_str(&format!(
        "wal\t{}\t{}\t{}\t{}\t{}\t{}\n",
        m.wal.appends,
        m.wal.syncs,
        m.wal.bytes_written,
        m.wal.rotations,
        m.wal.checkpoints,
        m.wal.segments_compacted
    ));
    out.push_str(&format!(
        "shard\t{}\t{}\t{}\t{}\t{}\t{}\t{}\t{}",
        m.shard.single_shard_commits,
        m.shard.cross_shard_commits,
        m.shard.prepares,
        m.shard.recovery_commits,
        m.shard.recovery_aborts,
        m.shard.splits,
        m.shard.merges,
        m.shard.rows_migrated
    ));
    // The four revision-4 shard counters append only when non-zero, so
    // a pre-replication snapshot keeps its revision-3 byte form.
    if m.shard.auto_splits != 0
        || m.shard.auto_merges != 0
        || m.shard.commit_rate_ewma_milli != 0
        || m.shard.commit_rate_skew_milli != 0
    {
        out.push_str(&format!(
            "\t{}\t{}\t{}\t{}",
            m.shard.auto_splits,
            m.shard.auto_merges,
            m.shard.commit_rate_ewma_milli,
            m.shard.commit_rate_skew_milli
        ));
    }
    out.push('\n');
    out.push_str(&format!(
        "view\t{}\t{}\t{}\t{}\n",
        m.view.materialized_reads, m.view.deltas_applied, m.view.rebuilds, m.view.shards_pruned
    ));
    if extended {
        for l in &m.shard_load {
            out.push_str(&format!(
                "load\t{}\t{}\t{}\t{}\n",
                l.shard, l.rows, l.commits, l.rate_ewma_milli
            ));
        }
        for l in &m.repl.lag {
            out.push_str(&format!(
                "lag\t{}\t{}\t{}\n",
                l.shard, l.primary_seq, l.applied_seq
            ));
        }
        out.push_str(&format!(
            "repl\t{}\t{}\t{}\n",
            m.repl.ship_passes, m.repl.records_applied, m.repl.transactions_applied
        ));
    }
}

fn nums<const N: usize>(rest: &str) -> Result<[u64; N], WireError> {
    let parts = fields(rest);
    if parts.len() != N {
        return Err(err(format!("expected {N} counters, got {}", parts.len())));
    }
    let mut out = [0u64; N];
    for (slot, part) in out.iter_mut().zip(parts) {
        *slot = part.parse().map_err(|_| err("bad counter"))?;
    }
    Ok(out)
}

fn decode_metrics(r: &mut Reader<'_>) -> Result<MetricsSnapshot, WireError> {
    let head = fields(r.keyword("@metrics")?);
    let (n_load, n_lag, extended) = match head.as_slice() {
        [] => (0usize, 0usize, false),
        [nl, ng] => (
            nl.parse().map_err(|_| err("bad @metrics load count"))?,
            ng.parse().map_err(|_| err("bad @metrics lag count"))?,
            true,
        ),
        _ => return Err(err("bad @metrics header")),
    };
    let [commits, conflicts, retries, view_reads, rows_written, wal_truncations, wal_records_truncated] =
        nums::<7>(r.keyword("core")?)?;
    let [appends, syncs, bytes_written, rotations, checkpoints, segments_compacted] =
        nums::<6>(r.keyword("wal")?)?;
    // The shard line carries 8 revision-3 counters, optionally followed
    // by the 4 revision-4 ones.
    let shard_line = r.keyword("shard")?;
    let (
        [single_shard_commits, cross_shard_commits, prepares, recovery_commits, recovery_aborts, splits, merges, rows_migrated],
        [auto_splits, auto_merges, commit_rate_ewma_milli, commit_rate_skew_milli],
    ) = match nums::<12>(shard_line) {
        Ok(all) => {
            let (old, new) = all.split_at(8);
            (old.try_into().expect("8"), new.try_into().expect("4"))
        }
        Err(_) => (nums::<8>(shard_line)?, [0u64; 4]),
    };
    let [materialized_reads, deltas_applied, rebuilds, shards_pruned] =
        nums::<4>(r.keyword("view")?)?;
    let mut shard_load = Vec::with_capacity(n_load);
    let mut repl = ReplStats::default();
    if extended {
        for _ in 0..n_load {
            let [shard, rows, commits, rate_ewma_milli] = nums::<4>(r.keyword("load")?)?;
            shard_load.push(ShardLoad {
                shard,
                rows,
                commits,
                rate_ewma_milli,
            });
        }
        for _ in 0..n_lag {
            let [shard, primary_seq, applied_seq] = nums::<3>(r.keyword("lag")?)?;
            repl.lag.push(ReplicaLag {
                shard,
                primary_seq,
                applied_seq,
            });
        }
        let [ship_passes, records_applied, transactions_applied] = nums::<3>(r.keyword("repl")?)?;
        repl.ship_passes = ship_passes;
        repl.records_applied = records_applied;
        repl.transactions_applied = transactions_applied;
    }
    Ok(MetricsSnapshot {
        commits,
        conflicts,
        retries,
        view_reads,
        rows_written,
        wal_truncations,
        wal_records_truncated,
        wal: WalStats {
            appends,
            syncs,
            bytes_written,
            rotations,
            checkpoints,
            segments_compacted,
        },
        shard: ShardStats {
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
        },
        view: ViewStats {
            materialized_reads,
            deltas_applied,
            rebuilds,
            shards_pruned,
        },
        shard_load,
        repl,
    })
}

// ---------------------------------------------------------------------
// Telemetry.
// ---------------------------------------------------------------------

/// Render a telemetry snapshot as a self-delimiting document: an
/// `@telemetry` header announcing the phase and slow-op counts, one
/// `phase` line per populated histogram (sparse `idx:count` bin pairs),
/// one `slow` line per slow-op record. Bit-exact round trip: the sparse
/// bins, max, sum and per-phase slow-op breakdowns all survive.
pub fn encode_telemetry(out: &mut String, t: &TelemetrySnapshot) {
    // Revision 4: a fourth header count announces `gauge` lines; when
    // there are none the header keeps its three-field revision-3 form.
    if t.gauges.is_empty() {
        out.push_str(&format!(
            "@telemetry\t{}\t{}\t{}\n",
            t.slow_threshold_ns,
            t.phases.len(),
            t.slow_ops.len()
        ));
    } else {
        out.push_str(&format!(
            "@telemetry\t{}\t{}\t{}\t{}\n",
            t.slow_threshold_ns,
            t.phases.len(),
            t.slow_ops.len(),
            t.gauges.len()
        ));
    }
    for (phase, h) in &t.phases {
        out.push_str(&format!(
            "phase\t{}\t{}\t{}\t{}\t{}",
            phase.name(),
            h.count,
            h.sum,
            h.max,
            h.bins.len()
        ));
        for (idx, n) in &h.bins {
            out.push_str(&format!("\t{idx}:{n}"));
        }
        out.push('\n');
    }
    for slow in &t.slow_ops {
        out.push_str(&format!(
            "slow\t{}\t{}\t{}",
            escape(&slow.op),
            slow.total_ns,
            slow.phases.len()
        ));
        for (phase, ns) in &slow.phases {
            out.push_str(&format!("\t{}:{ns}", phase.name()));
        }
        out.push('\n');
    }
    for (name, value) in &t.gauges {
        out.push_str(&format!("gauge\t{}\t{value}\n", escape(name)));
    }
}

fn decode_phase_name(s: &str) -> Result<Phase, WireError> {
    Phase::from_name(s).ok_or_else(|| err(format!("unknown phase `{s}`")))
}

fn decode_telemetry(r: &mut Reader<'_>) -> Result<TelemetrySnapshot, WireError> {
    let head = fields(r.keyword("@telemetry")?)
        .into_iter()
        .map(|f| f.parse::<u64>().map_err(|_| err("bad @telemetry header")))
        .collect::<Result<Vec<_>, _>>()?;
    let (slow_threshold_ns, n_phases, n_slow, n_gauges) = match head.as_slice() {
        [t, p, s] => (t, p, s, &0u64),
        [t, p, s, g] => (t, p, s, g),
        _ => return Err(err("bad @telemetry header")),
    };
    let mut phases = Vec::with_capacity(*n_phases as usize);
    for _ in 0..*n_phases {
        let parts = fields(r.keyword("phase")?);
        let [name, count, sum, max, n_bins, bin_parts @ ..] = parts.as_slice() else {
            return Err(err("bad phase line"));
        };
        let phase = decode_phase_name(name)?;
        let n_bins: usize = n_bins.parse().map_err(|_| err("bad bin count"))?;
        if bin_parts.len() != n_bins {
            return Err(err(format!(
                "phase `{name}` announced {n_bins} bins, carried {}",
                bin_parts.len()
            )));
        }
        let mut bins = Vec::with_capacity(n_bins);
        for pair in bin_parts {
            let (idx, n) = pair
                .split_once(':')
                .ok_or_else(|| err(format!("bad bin pair `{pair}`")))?;
            bins.push((
                idx.parse().map_err(|_| err("bad bin index"))?,
                n.parse().map_err(|_| err("bad bin count"))?,
            ));
        }
        phases.push((
            phase,
            HistogramSnapshot {
                count: count.parse().map_err(|_| err("bad phase count"))?,
                sum: sum.parse().map_err(|_| err("bad phase sum"))?,
                max: max.parse().map_err(|_| err("bad phase max"))?,
                bins,
            },
        ));
    }
    let mut slow_ops = Vec::with_capacity(*n_slow as usize);
    for _ in 0..*n_slow {
        let parts = fields(r.keyword("slow")?);
        let [op, total_ns, n, phase_parts @ ..] = parts.as_slice() else {
            return Err(err("bad slow line"));
        };
        let n: usize = n.parse().map_err(|_| err("bad slow phase count"))?;
        if phase_parts.len() != n {
            return Err(err("slow line phase count mismatch"));
        }
        let mut slow_phases = Vec::with_capacity(n);
        for pair in phase_parts {
            let (name, ns) = pair
                .rsplit_once(':')
                .ok_or_else(|| err(format!("bad slow phase pair `{pair}`")))?;
            slow_phases.push((
                decode_phase_name(name)?,
                ns.parse().map_err(|_| err("bad slow phase ns"))?,
            ));
        }
        slow_ops.push(SlowOp {
            op: unescape(op)?,
            total_ns: total_ns.parse().map_err(|_| err("bad slow total"))?,
            phases: slow_phases,
        });
    }
    let mut gauges = Vec::with_capacity(*n_gauges as usize);
    for _ in 0..*n_gauges {
        let parts = fields(r.keyword("gauge")?);
        let [name, value] = parts.as_slice() else {
            return Err(err("bad gauge line"));
        };
        gauges.push((
            unescape(name)?,
            value.parse().map_err(|_| err("bad gauge value"))?,
        ));
    }
    Ok(TelemetrySnapshot {
        phases,
        slow_threshold_ns: *slow_threshold_ns,
        slow_ops,
        gauges,
    })
}

// ---------------------------------------------------------------------
// Replication manifests.
// ---------------------------------------------------------------------

fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

fn hex_decode(s: &str) -> Result<Vec<u8>, WireError> {
    if !s.len().is_multiple_of(2) {
        return Err(err("odd hex blob"));
    }
    (0..s.len())
        .step_by(2)
        .map(|i| {
            u8::from_str_radix(s.get(i..i + 2).ok_or_else(|| err("bad hex blob"))?, 16)
                .map_err(|_| err("bad hex blob"))
        })
        .collect()
}

/// Render a replication manifest as a self-delimiting document: an
/// `@manifest` header carrying the primary address, the topology bytes
/// (hex — the file is tiny) and the shard count, then per shard one
/// `mshard` line announcing its `file` lines.
fn encode_manifest(out: &mut String, m: &ReplManifest) {
    out.push_str(&format!(
        "@manifest\t{}\t{}\t{}\n",
        escape(&m.primary_addr),
        hex_encode(&m.topology),
        m.shards.len()
    ));
    for shard in &m.shards {
        out.push_str(&format!(
            "mshard\t{}\t{}\t{}\n",
            shard.id,
            shard.last_seq,
            shard.files.len()
        ));
        for f in &shard.files {
            out.push_str(&format!("file\t{}\t{}\n", escape(&f.name), f.len));
        }
    }
}

fn decode_manifest(r: &mut Reader<'_>) -> Result<ReplManifest, WireError> {
    let head = fields(r.keyword("@manifest")?);
    let [primary_addr, topology, n_shards] = head.as_slice() else {
        return Err(err("bad @manifest header"));
    };
    let n_shards: usize = n_shards.parse().map_err(|_| err("bad shard count"))?;
    let mut shards = Vec::with_capacity(n_shards);
    for _ in 0..n_shards {
        let [id, last_seq, n_files] = nums::<3>(r.keyword("mshard")?)?;
        let mut files = Vec::with_capacity(n_files as usize);
        for _ in 0..n_files {
            let parts = fields(r.keyword("file")?);
            let [name, len] = parts.as_slice() else {
                return Err(err("bad file line"));
            };
            files.push(FileEntry {
                name: unescape(name)?,
                len: len.parse().map_err(|_| err("bad file length"))?,
            });
        }
        shards.push(ShardManifest {
            id,
            last_seq,
            files,
        });
    }
    Ok(ReplManifest {
        topology: hex_decode(topology)?,
        primary_addr: unescape(primary_addr)?,
        shards,
    })
}

// ---------------------------------------------------------------------
// Traces.
// ---------------------------------------------------------------------

/// Render a trace report as a self-delimiting document, the sparse
/// discipline of [`encode_telemetry`]: an `@traces` header announcing
/// the recent and slow counts, then per trace one `trace` line (id as
/// 16 hex digits, escaped root name, total, span count) followed by
/// exactly that many `span` lines. Bit-exact round trip.
pub fn encode_traces(out: &mut String, report: &TraceReport) {
    out.push_str(&format!(
        "@traces\t{}\t{}\n",
        report.recent.len(),
        report.slow.len()
    ));
    for trace in report.recent.iter().chain(report.slow.iter()) {
        out.push_str(&format!(
            "trace\t{}\t{}\t{}\t{}\n",
            trace.id,
            escape(&trace.root),
            trace.duration_ns,
            trace.spans.len()
        ));
        for s in &trace.spans {
            out.push_str(&format!(
                "span\t{}\t{}\t{}\t{}\t{}\t{}\t{}\n",
                s.id,
                s.parent,
                escape(&s.name),
                escape(&s.tag),
                s.start_ns,
                s.duration_ns,
                s.bytes
            ));
        }
    }
}

fn decode_trace_record(r: &mut Reader<'_>) -> Result<TraceRecord, WireError> {
    let parts = fields(r.keyword("trace")?);
    let [id, root, duration_ns, n_spans] = parts.as_slice() else {
        return Err(err("bad trace line"));
    };
    let id = u64::from_str_radix(id, 16).map_err(|_| err("bad trace id"))?;
    let n_spans: usize = n_spans.parse().map_err(|_| err("bad span count"))?;
    let mut spans = Vec::with_capacity(n_spans);
    for _ in 0..n_spans {
        let parts = fields(r.keyword("span")?);
        let [sid, parent, name, tag, start_ns, dur_ns, bytes] = parts.as_slice() else {
            return Err(err("bad span line"));
        };
        spans.push(SpanRecord {
            id: sid.parse().map_err(|_| err("bad span id"))?,
            parent: parent.parse().map_err(|_| err("bad span parent"))?,
            name: unescape(name)?,
            tag: unescape(tag)?,
            start_ns: start_ns.parse().map_err(|_| err("bad span start"))?,
            duration_ns: dur_ns.parse().map_err(|_| err("bad span duration"))?,
            bytes: bytes.parse().map_err(|_| err("bad span bytes"))?,
        });
    }
    Ok(TraceRecord {
        id: TraceId(id),
        root: unescape(root)?,
        duration_ns: duration_ns.parse().map_err(|_| err("bad trace duration"))?,
        spans,
    })
}

fn decode_traces(r: &mut Reader<'_>) -> Result<TraceReport, WireError> {
    let head = fields(r.keyword("@traces")?)
        .into_iter()
        .map(|f| f.parse::<usize>().map_err(|_| err("bad @traces header")))
        .collect::<Result<Vec<_>, _>>()?;
    let [n_recent, n_slow] = head.as_slice() else {
        return Err(err("bad @traces header"));
    };
    let mut recent = Vec::with_capacity(*n_recent);
    for _ in 0..*n_recent {
        recent.push(decode_trace_record(r)?);
    }
    let mut slow = Vec::with_capacity(*n_slow);
    for _ in 0..*n_slow {
        slow.push(decode_trace_record(r)?);
    }
    Ok(TraceReport { recent, slow })
}

// ---------------------------------------------------------------------
// Errors.
// ---------------------------------------------------------------------

/// Render an engine error as one tab-separated line. The conflict and
/// not-found variants that drive client retry/flow decisions round-trip
/// structurally; store errors cross the wire as their message (the
/// client rebuilds a [`StoreError::BadQuery`] carrying it).
pub fn encode_error(e: &EngineError) -> String {
    match e {
        EngineError::Conflict { table, detail } => {
            format!("conflict\t{}\t{}", escape(table), escape(detail))
        }
        EngineError::NoSuchView(v) => format!("no_such_view\t{}", escape(v)),
        EngineError::ViewExists(v) => format!("view_exists\t{}", escape(v)),
        EngineError::NoSuchTable(t) => format!("no_such_table\t{}", escape(t)),
        EngineError::WalCorrupt(msg) => format!("wal_corrupt\t{}", escape(msg)),
        EngineError::DuplicateSeq { seq, last } => format!("duplicate_seq\t{seq}\t{last}"),
        EngineError::Io(msg) => format!("io\t{}", escape(msg)),
        EngineError::RetriesExhausted { view, attempts } => {
            format!("retries_exhausted\t{}\t{attempts}", escape(view))
        }
        EngineError::ReservedTableName(t) => format!("reserved_table\t{}", escape(t)),
        EngineError::ShardTopology(msg) => format!("shard_topology\t{}", escape(msg)),
        EngineError::NotPrimary { primary } => format!("not_primary\t{}", escape(primary)),
        EngineError::Store(e) => format!("store\t{}", escape(&e.to_string())),
    }
}

/// Parse [`encode_error`]'s line.
pub fn decode_error(line: &str) -> Result<EngineError, WireError> {
    let (tag, rest) = match line.split_once('\t') {
        Some((tag, rest)) => (tag, rest),
        None => (line, ""),
    };
    let parts = fields(rest);
    let one = || -> Result<String, WireError> {
        match parts.as_slice() {
            [a] => Ok(unescape(a)?),
            _ => Err(err(format!("bad `{tag}` error body"))),
        }
    };
    Ok(match tag {
        "conflict" => match parts.as_slice() {
            [table, detail] => EngineError::Conflict {
                table: unescape(table)?,
                detail: unescape(detail)?,
            },
            _ => return Err(err("bad conflict body")),
        },
        "no_such_view" => EngineError::NoSuchView(one()?),
        "view_exists" => EngineError::ViewExists(one()?),
        "no_such_table" => EngineError::NoSuchTable(one()?),
        "wal_corrupt" => EngineError::WalCorrupt(one()?),
        "duplicate_seq" => match parts.as_slice() {
            [seq, last] => EngineError::DuplicateSeq {
                seq: seq.parse().map_err(|_| err("bad seq"))?,
                last: last.parse().map_err(|_| err("bad last"))?,
            },
            _ => return Err(err("bad duplicate_seq body")),
        },
        "io" => EngineError::Io(one()?),
        "retries_exhausted" => match parts.as_slice() {
            [view, attempts] => EngineError::RetriesExhausted {
                view: unescape(view)?,
                attempts: attempts.parse().map_err(|_| err("bad attempts"))?,
            },
            _ => return Err(err("bad retries_exhausted body")),
        },
        "reserved_table" => EngineError::ReservedTableName(one()?),
        "shard_topology" => EngineError::ShardTopology(one()?),
        // The redirect address may be empty (an unadvertised primary):
        // `not_primary\t` parses as zero fields.
        "not_primary" => EngineError::NotPrimary {
            primary: match parts.as_slice() {
                [] => String::new(),
                [a] => unescape(a)?,
                _ => return Err(err("bad not_primary body")),
            },
        },
        "store" => EngineError::Store(StoreError::BadQuery(one()?)),
        _ => return Err(err(format!("unknown error tag `{tag}`"))),
    })
}

// ---------------------------------------------------------------------
// Binary wire codec.
// ---------------------------------------------------------------------
//
// The hot row-bearing payloads (tables, databases, deltas, commits)
// encode as length-prefixed little-endian binary via the store's
// shared primitives ([`esm_store::codec`]) — no escaping, no float
// formatting, no per-cell parsing on decode. Rarely-crossing
// structures (view definitions, metrics, telemetry, errors) ride as
// one length-prefixed *text blob* reusing the document encoders above:
// their cost is negligible and the text form keeps one source of
// truth. `Request::decode`/`Response::decode` dispatch on the first
// payload byte, so binary speakers and legacy text speakers share a
// server.

/// First byte of every binary wire payload. `0xB7` is a UTF-8
/// continuation byte, so no text payload can start with it and the
/// decoder can dispatch per payload.
pub const BINARY_WIRE_MAGIC: u8 = 0xB7;

const REQ_PING: u8 = 0;
const REQ_TABLE_NAMES: u8 = 1;
const REQ_TABLE: u8 = 2;
const REQ_SNAPSHOT: u8 = 3;
const REQ_DEFINE_VIEW: u8 = 4;
const REQ_OPEN_VIEW: u8 = 5;
const REQ_VIEW_NAMES: u8 = 6;
const REQ_READ_VIEW: u8 = 7;
const REQ_WRITE_VIEW: u8 = 8;
const REQ_EDIT_CAS: u8 = 9;
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

/// Byte length of the optional trace-context suffix on binary
/// requests: a u64 trace id plus a u32 parent span id. Pre-revision-2
/// requests end right after their body; a decoder that finds exactly
/// this many bytes left reads them as the context.
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

fn put_value_type(out: &mut Vec<u8>, ty: ValueType) {
    out.push(match ty {
        ValueType::Bool => 0,
        ValueType::Int => 1,
        ValueType::Str => 2,
    });
}

fn bin_value_type(r: &mut BinReader<'_>) -> Result<ValueType, WireError> {
    Ok(match r.u8()? {
        0 => ValueType::Bool,
        1 => ValueType::Int,
        2 => ValueType::Str,
        t => return Err(err(format!("unknown value-type tag {t}"))),
    })
}

fn put_table(out: &mut Vec<u8>, table: &Table) {
    let cols = table.schema().columns();
    codec::put_u32(out, cols.len() as u32);
    for c in cols {
        codec::put_str(out, &c.name);
        put_value_type(out, c.ty);
    }
    let key = table.schema().key();
    codec::put_u32(out, key.len() as u32);
    for k in key {
        codec::put_str(out, k);
    }
    codec::put_u32(out, table.len() as u32);
    for row in table.rows() {
        codec::put_row(out, row);
    }
}

fn bin_table(r: &mut BinReader<'_>) -> Result<Table, WireError> {
    let ncols = r.u32()? as usize;
    let mut columns = Vec::new();
    for _ in 0..ncols {
        let name = r.str()?;
        columns.push(Column::new(name, bin_value_type(r)?));
    }
    let nkey = r.u32()? as usize;
    let mut key = Vec::new();
    for _ in 0..nkey {
        key.push(r.str()?);
    }
    let schema = Schema::new(columns, key)?;
    let nrows = r.u32()? as usize;
    let mut table = Table::new(schema);
    for _ in 0..nrows {
        table.insert(r.row()?)?;
    }
    Ok(table)
}

fn put_database(out: &mut Vec<u8>, db: &Database) {
    let names = db.table_names();
    codec::put_u32(out, names.len() as u32);
    for name in names {
        codec::put_str(out, name);
        put_table(out, db.table(name).expect("name came from the database"));
    }
}

fn bin_database(r: &mut BinReader<'_>) -> Result<Database, WireError> {
    let n = r.u32()? as usize;
    let mut db = Database::new();
    for _ in 0..n {
        let name = r.str()?;
        db.replace_table(name, bin_table(r)?);
    }
    Ok(db)
}

fn put_delta(out: &mut Vec<u8>, delta: &Delta) {
    codec::put_u32(out, delta.inserted.len() as u32);
    codec::put_u32(out, delta.deleted.len() as u32);
    for row in delta.inserted.iter().chain(delta.deleted.iter()) {
        codec::put_row(out, row);
    }
}

fn bin_delta(r: &mut BinReader<'_>) -> Result<Delta, WireError> {
    let ins = r.u32()? as usize;
    let del = r.u32()? as usize;
    let mut delta = Delta::empty();
    for _ in 0..ins {
        delta.inserted.push(r.row()?);
    }
    for _ in 0..del {
        delta.deleted.push(r.row()?);
    }
    Ok(delta)
}

/// Decode a length-prefixed text blob with `decode`, insisting the
/// blob is fully consumed.
fn bin_text_blob<T>(
    r: &mut BinReader<'_>,
    decode: impl FnOnce(&mut Reader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    let text = r.str()?;
    let mut tr = Reader::new(&text);
    let value = decode(&mut tr)?;
    tr.end()?;
    Ok(value)
}

// ---------------------------------------------------------------------
// Request codec.
// ---------------------------------------------------------------------

impl Request {
    /// Render this request as a binary frame payload (the wire default;
    /// [`Request::encode_text`] keeps the legacy text form).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![BINARY_WIRE_MAGIC];
        match self {
            Request::Ping => out.push(REQ_PING),
            Request::TableNames => out.push(REQ_TABLE_NAMES),
            Request::Table(name) => {
                out.push(REQ_TABLE);
                codec::put_str(&mut out, name);
            }
            Request::Snapshot => out.push(REQ_SNAPSHOT),
            Request::DefineView { name, table, def } => {
                out.push(REQ_DEFINE_VIEW);
                codec::put_str(&mut out, name);
                codec::put_str(&mut out, table);
                let mut text = String::new();
                encode_viewdef(&mut text, def);
                codec::put_str(&mut out, &text);
            }
            Request::OpenView(name) => {
                out.push(REQ_OPEN_VIEW);
                codec::put_str(&mut out, name);
            }
            Request::ViewNames => out.push(REQ_VIEW_NAMES),
            Request::ReadView(name) => {
                out.push(REQ_READ_VIEW);
                codec::put_str(&mut out, name);
            }
            Request::WriteView { name, view } => {
                out.push(REQ_WRITE_VIEW);
                codec::put_str(&mut out, name);
                put_table(&mut out, view);
            }
            Request::EditViewCas {
                name,
                expect,
                edited,
            } => {
                out.push(REQ_EDIT_CAS);
                codec::put_str(&mut out, name);
                put_table(&mut out, expect);
                put_table(&mut out, edited);
            }
            Request::Commit { deltas } => {
                out.push(REQ_COMMIT);
                codec::put_u32(&mut out, deltas.len() as u32);
                for (name, delta) in deltas {
                    codec::put_str(&mut out, name);
                    put_delta(&mut out, delta);
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
                codec::put_str(&mut out, view);
                match cursor {
                    Some(c) => {
                        out.push(1);
                        codec::put_u64(&mut out, *c);
                    }
                    None => out.push(0),
                }
            }
            Request::Unsubscribe(view) => {
                out.push(REQ_UNSUBSCRIBE);
                codec::put_str(&mut out, view);
            }
            Request::ReplManifest => out.push(REQ_REPL_MANIFEST),
            Request::ReplFetch {
                shard,
                file,
                offset,
                len,
            } => {
                out.push(REQ_REPL_FETCH);
                codec::put_u64(&mut out, *shard);
                codec::put_str(&mut out, file);
                codec::put_u64(&mut out, *offset);
                codec::put_u64(&mut out, *len);
            }
        }
        out
    }

    /// [`Request::encode`] with a trace context — the trace id and the
    /// client-side parent span — appended as a fixed-width suffix. Old
    /// servers reject the extra bytes; new servers root a server-side
    /// trace under the same id. `None` encodes identically to
    /// [`Request::encode`].
    pub fn encode_with_trace(&self, ctx: Option<(u64, u32)>) -> Vec<u8> {
        let mut out = self.encode();
        if let Some((trace_id, parent)) = ctx {
            codec::put_u64(&mut out, trace_id);
            codec::put_u32(&mut out, parent);
        }
        out
    }

    /// Render this request as the legacy line-oriented text payload
    /// (still decoded by every server; binary is just faster).
    pub fn encode_text(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            Request::Ping => out.push_str("ping\n"),
            Request::TableNames => out.push_str("table_names\n"),
            Request::Table(name) => out.push_str(&format!("table\t{}\n", escape(name))),
            Request::Snapshot => out.push_str("snapshot\n"),
            Request::DefineView { name, table, def } => {
                out.push_str(&format!(
                    "define_view\t{}\t{}\n",
                    escape(name),
                    escape(table)
                ));
                encode_viewdef(&mut out, def);
            }
            Request::OpenView(name) => out.push_str(&format!("open_view\t{}\n", escape(name))),
            Request::ViewNames => out.push_str("view_names\n"),
            Request::ReadView(name) => out.push_str(&format!("read_view\t{}\n", escape(name))),
            Request::WriteView { name, view } => {
                out.push_str(&format!("write_view\t{}\n", escape(name)));
                encode_table(&mut out, view);
            }
            Request::EditViewCas {
                name,
                expect,
                edited,
            } => {
                out.push_str(&format!("edit_cas\t{}\n", escape(name)));
                encode_table(&mut out, expect);
                encode_table(&mut out, edited);
            }
            Request::Commit { deltas } => {
                out.push_str(&format!("commit\t{}\n", deltas.len()));
                for (name, delta) in deltas {
                    out.push_str(&format!("@name\t{}\n", escape(name)));
                    encode_delta(&mut out, delta);
                }
            }
            Request::Metrics => out.push_str("metrics\n"),
            Request::Stats => out.push_str("stats\n"),
            Request::Checkpoint => out.push_str("checkpoint\n"),
            Request::SyncWal => out.push_str("sync_wal\n"),
            Request::ServerPing => out.push_str("server_ping\n"),
            Request::Traces => out.push_str("traces\n"),
            Request::Subscribe { view, cursor } => {
                let cursor = match cursor {
                    Some(c) => c.to_string(),
                    None => "none".into(),
                };
                out.push_str(&format!("subscribe\t{}\t{cursor}\n", escape(view)));
            }
            Request::Unsubscribe(view) => {
                out.push_str(&format!("unsubscribe\t{}\n", escape(view)));
            }
            Request::ReplManifest => out.push_str("repl_manifest\n"),
            Request::ReplFetch {
                shard,
                file,
                offset,
                len,
            } => {
                out.push_str(&format!(
                    "repl_fetch\t{shard}\t{}\t{offset}\t{len}\n",
                    escape(file)
                ));
            }
        }
        out.into_bytes()
    }

    /// Parse a frame payload as a request. Dispatches on the leading
    /// byte: [`BINARY_WIRE_MAGIC`] (a UTF-8 continuation byte no text
    /// payload can start with) selects the binary codec; anything else
    /// takes the legacy text path, so old clients keep working.
    pub fn decode(payload: &[u8]) -> Result<Request, WireError> {
        Request::decode_with_trace(payload).map(|(req, _)| req)
    }

    /// [`Request::decode`], also surfacing the trace context when the
    /// payload is binary and carries the revision-2 suffix (the trace
    /// id and the sender's parent span id). Text payloads and suffixless
    /// binary payloads decode with `None` — legacy clients never trace.
    pub fn decode_with_trace(payload: &[u8]) -> Result<(Request, Option<(u64, u32)>), WireError> {
        if payload.first() == Some(&BINARY_WIRE_MAGIC) {
            return Request::decode_binary(&payload[1..]);
        }
        let text = std::str::from_utf8(payload).map_err(|e| err(format!("not UTF-8: {e}")))?;
        let mut r = Reader::new(text);
        let line = r.next()?;
        let (op, arg) = match line.split_once('\t') {
            Some((op, rest)) => (op, Some(rest)),
            None => (line, None),
        };
        let rest = arg.unwrap_or("");
        if matches!(
            op,
            "table"
                | "define_view"
                | "open_view"
                | "read_view"
                | "write_view"
                | "edit_cas"
                | "commit"
                | "subscribe"
                | "unsubscribe"
                | "repl_fetch"
        ) && arg.is_none()
        {
            return Err(err(format!("op `{op}` needs an argument")));
        }
        let req = match op {
            "ping" => Request::Ping,
            "table_names" => Request::TableNames,
            "table" => Request::Table(unescape(rest)?),
            "snapshot" => Request::Snapshot,
            "define_view" => {
                let parts = fields(rest);
                let [name, table] = parts.as_slice() else {
                    return Err(err("bad define_view header"));
                };
                Request::DefineView {
                    name: unescape(name)?,
                    table: unescape(table)?,
                    def: decode_viewdef(&mut r)?,
                }
            }
            "open_view" => Request::OpenView(unescape(rest)?),
            "view_names" => Request::ViewNames,
            "read_view" => Request::ReadView(unescape(rest)?),
            "write_view" => Request::WriteView {
                name: unescape(rest)?,
                view: decode_table(&mut r)?,
            },
            "edit_cas" => Request::EditViewCas {
                name: unescape(rest)?,
                expect: decode_table(&mut r)?,
                edited: decode_table(&mut r)?,
            },
            "commit" => {
                let n: usize = rest.parse().map_err(|_| err("bad commit count"))?;
                let mut deltas = Vec::with_capacity(n);
                for _ in 0..n {
                    let name = unescape(r.keyword("@name")?)?;
                    deltas.push((name, decode_delta(&mut r)?));
                }
                Request::Commit { deltas }
            }
            "metrics" => Request::Metrics,
            "stats" => Request::Stats,
            "checkpoint" => Request::Checkpoint,
            "sync_wal" => Request::SyncWal,
            "server_ping" => Request::ServerPing,
            "traces" => Request::Traces,
            "subscribe" => {
                let parts = fields(rest);
                let [view, cursor] = parts.as_slice() else {
                    return Err(err("bad subscribe line"));
                };
                Request::Subscribe {
                    view: unescape(view)?,
                    cursor: match *cursor {
                        "none" => None,
                        c => Some(c.parse().map_err(|_| err("bad subscribe cursor"))?),
                    },
                }
            }
            "unsubscribe" => Request::Unsubscribe(unescape(rest)?),
            "repl_manifest" => Request::ReplManifest,
            "repl_fetch" => {
                let parts = fields(rest);
                let [shard, file, offset, len] = parts.as_slice() else {
                    return Err(err("bad repl_fetch line"));
                };
                Request::ReplFetch {
                    shard: shard.parse().map_err(|_| err("bad repl_fetch shard"))?,
                    file: unescape(file)?,
                    offset: offset.parse().map_err(|_| err("bad repl_fetch offset"))?,
                    len: len.parse().map_err(|_| err("bad repl_fetch len"))?,
                }
            }
            _ => return Err(err(format!("unknown request op `{op}`"))),
        };
        r.end()?;
        Ok((req, None))
    }

    /// Parse the binary body (everything after the magic byte),
    /// surfacing the optional trace-context suffix.
    fn decode_binary(bytes: &[u8]) -> Result<(Request, Option<(u64, u32)>), WireError> {
        let mut r = BinReader::new(bytes);
        let tag = r.u8()?;
        let req = match tag {
            REQ_PING => Request::Ping,
            REQ_TABLE_NAMES => Request::TableNames,
            REQ_TABLE => Request::Table(r.str()?),
            REQ_SNAPSHOT => Request::Snapshot,
            REQ_DEFINE_VIEW => Request::DefineView {
                name: r.str()?,
                table: r.str()?,
                def: bin_text_blob(&mut r, decode_viewdef)?,
            },
            REQ_OPEN_VIEW => Request::OpenView(r.str()?),
            REQ_VIEW_NAMES => Request::ViewNames,
            REQ_READ_VIEW => Request::ReadView(r.str()?),
            REQ_WRITE_VIEW => Request::WriteView {
                name: r.str()?,
                view: bin_table(&mut r)?,
            },
            REQ_EDIT_CAS => Request::EditViewCas {
                name: r.str()?,
                expect: bin_table(&mut r)?,
                edited: bin_table(&mut r)?,
            },
            REQ_COMMIT => {
                let n = r.u32()? as usize;
                let mut deltas = Vec::new();
                for _ in 0..n {
                    let name = r.str()?;
                    deltas.push((name, bin_delta(&mut r)?));
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
                cursor: match r.u8()? {
                    0 => None,
                    1 => Some(r.u64()?),
                    other => return Err(err(format!("bad cursor flag {other}"))),
                },
            },
            REQ_UNSUBSCRIBE => Request::Unsubscribe(r.str()?),
            REQ_REPL_MANIFEST => Request::ReplManifest,
            REQ_REPL_FETCH => Request::ReplFetch {
                shard: r.u64()?,
                file: r.str()?,
                offset: r.u64()?,
                len: r.u64()?,
            },
            other => return Err(err(format!("unknown binary request tag {other}"))),
        };
        // Revision 2: exactly TRACE_CTX_BYTES past the body is the
        // trace context; zero is a pre-revision request; anything else
        // is garbage.
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
    /// Render this response as a binary frame payload (the wire
    /// default; [`Response::encode_text`] keeps the legacy text form).
    pub fn encode(&self) -> Vec<u8> {
        let mut out = vec![BINARY_WIRE_MAGIC];
        match self {
            Response::Unit => out.push(RESP_UNIT),
            Response::Names(names) => {
                out.push(RESP_NAMES);
                codec::put_u32(&mut out, names.len() as u32);
                for name in names {
                    codec::put_str(&mut out, name);
                }
            }
            Response::Table(t) => {
                out.push(RESP_TABLE);
                put_table(&mut out, t);
            }
            Response::Database(db) => {
                out.push(RESP_DATABASE);
                put_database(&mut out, db);
            }
            Response::Delta(d) => {
                out.push(RESP_DELTA);
                put_delta(&mut out, d);
            }
            Response::Receipt { stamp, shards, gtx } => {
                out.push(RESP_RECEIPT);
                codec::put_u64(&mut out, *stamp);
                codec::put_u32(&mut out, shards.len() as u32);
                for shard in shards {
                    codec::put_u64(&mut out, *shard as u64);
                }
                match gtx {
                    Some(gtx) => {
                        out.push(1);
                        codec::put_str(&mut out, gtx);
                    }
                    None => out.push(0),
                }
            }
            Response::Metrics(m) => {
                out.push(RESP_METRICS);
                let mut text = String::new();
                encode_metrics(&mut text, m);
                codec::put_str(&mut out, &text);
            }
            Response::Stats(t) => {
                out.push(RESP_STATS);
                let mut text = String::new();
                encode_telemetry(&mut text, t);
                codec::put_str(&mut out, &text);
            }
            Response::Seq(seq) => {
                out.push(RESP_SEQ);
                match seq {
                    Some(n) => {
                        out.push(1);
                        codec::put_u64(&mut out, *n);
                    }
                    None => out.push(0),
                }
            }
            Response::Err(e) => {
                out.push(RESP_ERR);
                codec::put_str(&mut out, &encode_error(e));
            }
            Response::ServerInfo {
                uptime_ms,
                protocol_rev,
                workers,
            } => {
                out.push(RESP_SERVER_INFO);
                codec::put_u64(&mut out, *uptime_ms);
                codec::put_u32(&mut out, *protocol_rev);
                codec::put_u32(&mut out, *workers);
            }
            Response::Traces(report) => {
                out.push(RESP_TRACES);
                let mut text = String::new();
                encode_traces(&mut text, report);
                codec::put_str(&mut out, &text);
            }
            Response::SubAck { cursor } => {
                out.push(RESP_SUBACK);
                codec::put_u64(&mut out, *cursor);
            }
            Response::Push {
                view,
                from_seq,
                to_seq,
                delta,
                resync,
            } => {
                out.push(RESP_PUSH);
                codec::put_str(&mut out, view);
                codec::put_u64(&mut out, *from_seq);
                codec::put_u64(&mut out, *to_seq);
                put_delta(&mut out, delta);
                match resync {
                    Some(window) => {
                        out.push(1);
                        put_table(&mut out, window);
                    }
                    None => out.push(0),
                }
            }
            Response::ReplManifest(m) => {
                out.push(RESP_REPL_MANIFEST);
                let mut text = String::new();
                encode_manifest(&mut text, m);
                codec::put_str(&mut out, &text);
            }
            Response::ReplChunk(bytes) => {
                out.push(RESP_REPL_CHUNK);
                codec::put_bytes(&mut out, bytes);
            }
        }
        out
    }

    /// Render this response as the legacy line-oriented text payload.
    pub fn encode_text(&self) -> Vec<u8> {
        let mut out = String::new();
        match self {
            Response::Unit => out.push_str("ok\n"),
            Response::Names(names) => {
                let escaped: Vec<String> = names.iter().map(|n| escape(n)).collect();
                if escaped.is_empty() {
                    out.push_str("names\n");
                } else {
                    out.push_str(&format!("names\t{}\n", escaped.join("\t")));
                }
            }
            Response::Table(t) => {
                out.push_str("table\n");
                encode_table(&mut out, t);
            }
            Response::Database(db) => {
                out.push_str("db\n");
                encode_database(&mut out, db);
            }
            Response::Delta(d) => {
                out.push_str("delta\n");
                encode_delta(&mut out, d);
            }
            Response::Receipt { stamp, shards, gtx } => {
                out.push_str(&format!("receipt\t{stamp}\n"));
                let shard_list: Vec<String> = shards.iter().map(|s| s.to_string()).collect();
                if shard_list.is_empty() {
                    out.push_str("shards\n");
                } else {
                    out.push_str(&format!("shards\t{}\n", shard_list.join("\t")));
                }
                if let Some(gtx) = gtx {
                    out.push_str(&format!("gtx\t{}\n", escape(gtx)));
                }
            }
            Response::Metrics(m) => {
                out.push_str("metrics\n");
                encode_metrics(&mut out, m);
            }
            Response::Stats(t) => {
                out.push_str("stats\n");
                encode_telemetry(&mut out, t);
            }
            Response::Seq(seq) => match seq {
                Some(n) => out.push_str(&format!("seq\t{n}\n")),
                None => out.push_str("seq\tnone\n"),
            },
            Response::Err(e) => out.push_str(&format!("err\t{}\n", encode_error(e))),
            Response::ServerInfo {
                uptime_ms,
                protocol_rev,
                workers,
            } => out.push_str(&format!(
                "server_info\t{uptime_ms}\t{protocol_rev}\t{workers}\n"
            )),
            Response::Traces(report) => {
                out.push_str("traces\n");
                encode_traces(&mut out, report);
            }
            Response::SubAck { cursor } => out.push_str(&format!("suback\t{cursor}\n")),
            Response::Push {
                view,
                from_seq,
                to_seq,
                delta,
                resync,
            } => {
                // The header carries a resync flag so the body stays a
                // fixed sequence of self-delimiting documents.
                out.push_str(&format!(
                    "push\t{}\t{from_seq}\t{to_seq}\t{}\n",
                    escape(view),
                    u8::from(resync.is_some())
                ));
                encode_delta(&mut out, delta);
                if let Some(window) = resync {
                    encode_table(&mut out, window);
                }
            }
            Response::ReplManifest(m) => {
                out.push_str("repl_manifest\n");
                encode_manifest(&mut out, m);
            }
            // Chunks are raw log bytes; the text form carries them as
            // hex (the binary codec is the fast path).
            Response::ReplChunk(bytes) => {
                out.push_str(&format!("repl_chunk\t{}\n", hex_encode(bytes)));
            }
        }
        out.into_bytes()
    }

    /// Parse a frame payload as a response. Dispatches on the leading
    /// byte exactly like [`Request::decode`]: binary when it is
    /// [`BINARY_WIRE_MAGIC`], the legacy text codec otherwise.
    pub fn decode(payload: &[u8]) -> Result<Response, WireError> {
        if payload.first() == Some(&BINARY_WIRE_MAGIC) {
            return Response::decode_binary(&payload[1..]);
        }
        let text = std::str::from_utf8(payload).map_err(|e| err(format!("not UTF-8: {e}")))?;
        let mut r = Reader::new(text);
        let line = r.next()?;
        let (op, rest) = match line.split_once('\t') {
            Some((op, rest)) => (op, rest),
            None => (line, ""),
        };
        let resp = match op {
            "ok" => Response::Unit,
            "names" => Response::Names(
                fields(rest)
                    .into_iter()
                    .map(unescape)
                    .collect::<Result<_, _>>()?,
            ),
            "table" => Response::Table(decode_table(&mut r)?),
            "db" => Response::Database(decode_database(&mut r)?),
            "delta" => Response::Delta(decode_delta(&mut r)?),
            "receipt" => {
                let stamp: u64 = rest.parse().map_err(|_| err("bad receipt stamp"))?;
                let shards: Vec<usize> = fields(r.keyword("shards")?)
                    .into_iter()
                    .map(|s| s.parse().map_err(|_| err("bad shard index")))
                    .collect::<Result<_, _>>()?;
                let gtx = match r.lines.next() {
                    Some(line) => {
                        Some(unescape(line.strip_prefix("gtx\t").ok_or_else(|| {
                            err(format!("expected gtx line, got `{line}`"))
                        })?)?)
                    }
                    None => None,
                };
                return Ok(Response::Receipt { stamp, shards, gtx });
            }
            "metrics" => Response::Metrics(decode_metrics(&mut r)?),
            "stats" => Response::Stats(decode_telemetry(&mut r)?),
            "seq" => Response::Seq(match rest {
                "none" => None,
                n => Some(n.parse().map_err(|_| err("bad seq"))?),
            }),
            "err" => Response::Err(decode_error(rest)?),
            "server_info" => {
                let parts = fields(rest);
                let [uptime_ms, protocol_rev, workers] = parts.as_slice() else {
                    return Err(err("bad server_info line"));
                };
                Response::ServerInfo {
                    uptime_ms: uptime_ms.parse().map_err(|_| err("bad uptime"))?,
                    protocol_rev: protocol_rev.parse().map_err(|_| err("bad protocol rev"))?,
                    workers: workers.parse().map_err(|_| err("bad worker count"))?,
                }
            }
            "traces" => Response::Traces(decode_traces(&mut r)?),
            "suback" => Response::SubAck {
                cursor: rest.parse().map_err(|_| err("bad suback cursor"))?,
            },
            "push" => {
                let parts = fields(rest);
                let [view, from_seq, to_seq, has_resync] = parts.as_slice() else {
                    return Err(err("bad push header"));
                };
                let view = unescape(view)?;
                let from_seq = from_seq.parse().map_err(|_| err("bad push from_seq"))?;
                let to_seq = to_seq.parse().map_err(|_| err("bad push to_seq"))?;
                let delta = decode_delta(&mut r)?;
                let resync = match *has_resync {
                    "0" => None,
                    "1" => Some(decode_table(&mut r)?),
                    f => return Err(err(format!("bad push resync flag `{f}`"))),
                };
                Response::Push {
                    view,
                    from_seq,
                    to_seq,
                    delta,
                    resync,
                }
            }
            "repl_manifest" => Response::ReplManifest(decode_manifest(&mut r)?),
            "repl_chunk" => Response::ReplChunk(hex_decode(rest)?),
            _ => return Err(err(format!("unknown response op `{op}`"))),
        };
        r.end()?;
        Ok(resp)
    }

    /// Parse the binary body (everything after the magic byte).
    fn decode_binary(bytes: &[u8]) -> Result<Response, WireError> {
        let mut r = BinReader::new(bytes);
        let tag = r.u8()?;
        let resp = match tag {
            RESP_UNIT => Response::Unit,
            RESP_NAMES => {
                let n = r.u32()? as usize;
                let mut names = Vec::new();
                for _ in 0..n {
                    names.push(r.str()?);
                }
                Response::Names(names)
            }
            RESP_TABLE => Response::Table(bin_table(&mut r)?),
            RESP_DATABASE => Response::Database(bin_database(&mut r)?),
            RESP_DELTA => Response::Delta(bin_delta(&mut r)?),
            RESP_RECEIPT => {
                let stamp = r.u64()?;
                let n = r.u32()? as usize;
                let mut shards = Vec::new();
                for _ in 0..n {
                    shards.push(r.u64()? as usize);
                }
                let gtx = match r.u8()? {
                    0 => None,
                    1 => Some(r.str()?),
                    other => return Err(err(format!("bad gtx flag {other}"))),
                };
                Response::Receipt { stamp, shards, gtx }
            }
            RESP_METRICS => Response::Metrics(bin_text_blob(&mut r, decode_metrics)?),
            RESP_STATS => Response::Stats(bin_text_blob(&mut r, decode_telemetry)?),
            RESP_SEQ => Response::Seq(match r.u8()? {
                0 => None,
                1 => Some(r.u64()?),
                other => return Err(err(format!("bad seq flag {other}"))),
            }),
            RESP_ERR => {
                let line = r.str()?;
                Response::Err(decode_error(&line)?)
            }
            RESP_SERVER_INFO => Response::ServerInfo {
                uptime_ms: r.u64()?,
                protocol_rev: r.u32()?,
                workers: r.u32()?,
            },
            RESP_TRACES => Response::Traces(bin_text_blob(&mut r, decode_traces)?),
            RESP_SUBACK => Response::SubAck { cursor: r.u64()? },
            RESP_PUSH => {
                let view = r.str()?;
                let from_seq = r.u64()?;
                let to_seq = r.u64()?;
                let delta = bin_delta(&mut r)?;
                let resync = match r.u8()? {
                    0 => None,
                    1 => Some(bin_table(&mut r)?),
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
            RESP_REPL_MANIFEST => Response::ReplManifest(bin_text_blob(&mut r, decode_manifest)?),
            RESP_REPL_CHUNK => Response::ReplChunk(r.bytes()?),
            other => return Err(err(format!("unknown binary response tag {other}"))),
        };
        r.end()?;
        Ok(resp)
    }
}

// ---------------------------------------------------------------------
// The server-side request handler.
// ---------------------------------------------------------------------

/// Execute one request against a per-connection [`esm_engine::Session`].
/// Every engine error becomes a structured [`Response::Err`]; transport
/// problems never reach here.
pub fn handle(session: &esm_engine::Session, req: Request) -> Response {
    let engine = session.engine();
    let result: Result<Response, EngineError> = (|| {
        Ok(match req {
            Request::Ping => Response::Unit,
            Request::TableNames => Response::Names(engine.table_names()?),
            Request::Table(name) => Response::Table(engine.table(&name)?),
            Request::Snapshot => Response::Database(engine.snapshot()?),
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
            Request::WriteView { name, view } => Response::Delta(engine.write_view(&name, view)?),
            Request::EditViewCas {
                name,
                expect,
                edited,
            } => {
                let table = name.clone();
                let delta = engine.edit_view_optimistic(&name, 1, &move |v: &mut Table| {
                    if *v != expect {
                        return Err(EngineError::Conflict {
                            table: table.clone(),
                            detail: "view window changed since the client's read".into(),
                        });
                    }
                    *v = edited.clone();
                    Ok(())
                })?;
                Response::Delta(delta)
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
    use esm_store::{row, Value};

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
        tel.record_slow(
            "commit:we\tird\nop".to_string(),
            77_000_000,
            &[(Phase::CommitFsync, 70_000_000), (Phase::CommitLockHold, 5)],
        );
        tel.record_slow("plain".to_string(), 12_345_678, &[]);
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

    #[test]
    fn requests_round_trip() {
        let def = ViewDef::base()
            .select(
                Predicate::lt(Operand::col("id"), Operand::val(30)).and(Predicate::ne(
                    Operand::col("name"),
                    Operand::val("we\tird\nname"),
                )),
            )
            .project(&["id", "name"], &[("extra", Value::str("d\\efault"))])
            .rename(&[("name", "renamed")]);
        let reqs = vec![
            Request::Ping,
            Request::TableNames,
            Request::Table("ta ble".into()),
            Request::Snapshot,
            Request::DefineView {
                name: "v\tiew".into(),
                table: "t".into(),
                def,
            },
            Request::OpenView("v".into()),
            Request::ViewNames,
            Request::ReadView("v".into()),
            Request::WriteView {
                name: "v".into(),
                view: table(),
            },
            Request::EditViewCas {
                name: "v".into(),
                expect: table(),
                edited: table(),
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
        ];
        for req in reqs {
            let back = Request::decode(&req.encode()).unwrap();
            // ViewDef has no PartialEq; compare through re-encoding.
            assert_eq!(back.encode(), req.encode(), "{req:?}");
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
            // Text framing never carries a context.
            let (_, got) = Request::decode_with_trace(&req.encode_text()).unwrap();
            assert_eq!(got, None, "{req:?}");
        }
    }

    #[test]
    fn responses_round_trip() {
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
        let resps = vec![
            Response::Unit,
            Response::Names(vec![]),
            Response::Names(vec!["a".into(), "with\ttab".into()]),
            Response::Table(table()),
            Response::Database(db),
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
                slow_ops: vec![],
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
            Response::Err(EngineError::NotPrimary {
                primary: "10.0.0.2:4400".into(),
            }),
            Response::Err(EngineError::NotPrimary {
                primary: String::new(),
            }),
        ];
        for resp in resps {
            let back = Response::decode(&resp.encode()).unwrap();
            assert_eq!(back, resp);
            // The legacy text form must carry the same payloads.
            let back = Response::decode(&resp.encode_text()).unwrap();
            assert_eq!(back, resp);
        }
    }

    #[test]
    fn legacy_metrics_and_telemetry_forms_still_decode() {
        // A revision-3 peer sends the bare header and the 8-counter
        // shard line; the new fields must default, not error. And a
        // snapshot without replication state must encode bit-identically
        // to the revision-3 form.
        let legacy = b"metrics\n@metrics\ncore\t1\t2\t3\t4\t5\t6\t7\nwal\t1\t2\t3\t4\t5\t6\nshard\t1\t2\t3\t4\t5\t6\t7\t8\nview\t1\t2\t3\t4\n";
        let Response::Metrics(m) = Response::decode(legacy).unwrap() else {
            panic!("expected metrics");
        };
        assert_eq!(m.shard.auto_splits, 0);
        assert!(m.shard_load.is_empty());
        assert_eq!(m.repl, ReplStats::default());
        assert_eq!(Response::Metrics(m).encode_text(), legacy);

        let legacy = b"stats\n@telemetry\t42\t0\t0\n";
        let Response::Stats(t) = Response::decode(legacy).unwrap() else {
            panic!("expected stats");
        };
        assert!(t.gauges.is_empty());
        assert_eq!(Response::Stats(t).encode_text(), legacy);
    }

    #[test]
    fn legacy_text_payloads_still_decode() {
        // An old text-speaking client must keep working against a
        // binary-era server: encode_text → decode must round-trip.
        let reqs = vec![
            Request::Ping,
            Request::Table("ta ble".into()),
            Request::WriteView {
                name: "v".into(),
                view: table(),
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
            Request::ServerPing,
            Request::Traces,
            Request::Subscribe {
                view: "v\tiew".into(),
                cursor: Some(42),
            },
            Request::Subscribe {
                view: "v".into(),
                cursor: None,
            },
            Request::Unsubscribe("v".into()),
        ];
        for req in reqs {
            let back = Request::decode(&req.encode_text()).unwrap();
            assert_eq!(back.encode(), req.encode(), "{req:?}");
        }
        let resps = vec![
            Response::Unit,
            Response::Names(vec!["a".into(), "with\ttab".into()]),
            Response::Table(table()),
            Response::Receipt {
                stamp: 42,
                shards: vec![0, 3],
                gtx: Some("g17".into()),
            },
            Response::Stats(telemetry()),
            Response::ServerInfo {
                uptime_ms: 9,
                protocol_rev: PROTOCOL_REV,
                workers: 1,
            },
            Response::Traces(traces()),
            Response::Err(EngineError::Conflict {
                table: "t".into(),
                detail: "de\ttail".into(),
            }),
            Response::SubAck { cursor: 7 },
            Response::Push {
                view: "v\tiew".into(),
                from_seq: 1,
                to_seq: 9,
                delta: Delta {
                    inserted: vec![row![9, "i"]],
                    deleted: vec![],
                },
                resync: Some(table()),
            },
        ];
        for resp in resps {
            let back = Response::decode(&resp.encode_text()).unwrap();
            assert_eq!(back, resp);
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
            put_delta(&mut b, &Delta::empty());
            b.push(9); // neither 0 nor 1
            b
        };
        assert!(Response::decode(&bad_resync_flag).is_err());
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
        let back = decode_predicate(&encode_predicate(&pred)).unwrap();
        assert_eq!(back, pred);
    }

    #[test]
    fn garbage_is_rejected_not_panicked() {
        for bad in [
            &b""[..],
            b"nope",
            b"table",
            b"commit\tNaN",
            b"define_view\tonlyname",
            b"edit_cas\tv\n@schema\tbroken",
            b"subscribe",
            b"subscribe\tv",
            b"subscribe\tv\tNaN",
            b"unsubscribe",
            b"repl_fetch",
            b"repl_fetch\t0\tf",
            b"repl_fetch\tNaN\tf\t0\t0",
            b"\xff\xfe",
        ] {
            assert!(Request::decode(bad).is_err(), "{bad:?} must not decode");
        }
        for bad in [
            &b""[..],
            b"wat",
            b"receipt\tx",
            b"err\tmystery",
            b"stats\n@telemetry\t1\t1\t0\nphase\tnot_a_phase\t1\t1\t1\t0",
            b"stats\n@telemetry\t1\t1\t0\nphase\tcommit_fsync\t1\t1\t1\t2\t0:1",
            b"stats\n@telemetry\t1\t0\t1\nslow\top\tNaN\t0",
            b"suback\tNaN",
            b"push\tv\t1\t2",
            b"push\tv\t1\t2\t5\n@delta\t0\t0",
            b"repl_chunk\tzz",
            b"repl_chunk\tabc",
            b"repl_manifest\n@manifest\tx",
            b"repl_manifest\n@manifest\t\t\t1\nmshard\t0\t0\t1",
            b"metrics\n@metrics\tNaN\t0\ncore\t1\t2\t3\t4\t5\t6\t7",
        ] {
            assert!(Response::decode(bad).is_err(), "{bad:?} must not decode");
        }
        assert!(decode_predicate("and").is_err());
        assert!(decode_predicate("cmp:eq").is_err());
        assert!(decode_predicate("T\tF").is_err());
    }
}
