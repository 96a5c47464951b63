//! The write-ahead log: an append-only sequence of committed operations.
//!
//! Every committed transaction appends one [`WalRecord`] per table it
//! changed. Applying the records, in order, to the database the log
//! started from reproduces the live state exactly ([`Wal::replay`]).
//!
//! This module is the *in-memory* log, bounded by [`WAL_RETAINED_RECORDS`];
//! [`crate::durable`] persists the same records to append-only segment
//! files with group commit and checkpointing, and recovery replays those.
//!
//! ## Record kinds ([`WalOp`])
//!
//! * [`WalOp::Delta`] — one committed delta against one table. The
//!   `chained` flag links multi-record transactions: a transaction that
//!   changed `k > 1` tables appends `k - 1` *chained* records followed by
//!   one unchained terminator, and the whole chain is the durability unit
//!   (recovery applies a chain all-or-nothing; an unterminated trailing
//!   chain is an interrupted transaction and is discarded).
//! * [`WalOp::Prepare`] — two-phase-commit marker: the immediately
//!   preceding chain of delta records belongs to global transaction
//!   `gtx` and is *in doubt* — held, not applied — until resolved.
//! * [`WalOp::Resolve`] — the 2PC outcome for `gtx`: apply the prepared
//!   chain (`committed = true`) or drop it. A prepare with no resolve by
//!   the end of the log is presumed aborted (the sharded recovery decides
//!   the real outcome by scanning *all* shard logs — see
//!   [`crate::shard`]).
//!
//! ## Encoding
//!
//! A record has one encoding, the binary one in [`crate::segment`]
//! ([`encode_record_binary`](crate::segment::encode_record_binary)): a
//! tag byte, the `seq`, then the variant's fields, with deltas in the
//! shared [`esm_store::codec`] form. Durable segments wrap each record in
//! a CRC frame. Records whose sequence numbers do not strictly increase
//! are rejected with the typed [`EngineError::DuplicateSeq`] instead of
//! being silently re-applied.

use std::collections::BTreeMap;

use esm_store::{Database, Delta};

use crate::error::EngineError;

/// The most records a shard's in-memory WAL keeps, plus one unsettled
/// trailing transaction: the append that passes it trims the log to half
/// ([`Wal::trim`]). Readers below the new start rebuild, resync or retry.
pub const WAL_RETAINED_RECORDS: usize = 1024;

/// Is `name` reserved (and therefore unusable as a table name)? Names
/// starting with `!` belong to the engine: every engine constructor and
/// [`Wal::push`] refuse them with [`EngineError::ReservedTableName`].
/// No codec depends on the rule — records carry a tag byte, not a name
/// prefix — so it is purely an input check on the public API.
pub fn reserved_table_name(name: &str) -> bool {
    name.starts_with('!')
}

/// Reject databases whose table names fall in the reserved namespace.
pub(crate) fn check_table_names(db: &Database) -> Result<(), EngineError> {
    for name in db.table_names() {
        if reserved_table_name(name) {
            return Err(EngineError::ReservedTableName(name.to_string()));
        }
    }
    Ok(())
}

/// What one WAL record does.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalOp {
    /// One committed delta against one table.
    Delta {
        /// The table the delta applies to.
        table: String,
        /// The committed change.
        delta: Delta,
        /// More records of the same transaction follow (the chain is
        /// applied all-or-nothing on recovery).
        chained: bool,
    },
    /// 2PC prepare: the preceding chain of `records` delta records
    /// belongs to global transaction `gtx`, in doubt until resolved.
    Prepare {
        /// The global transaction id.
        gtx: String,
        /// How many delta records the prepared chain holds (a
        /// consistency check for recovery).
        records: u64,
    },
    /// 2PC outcome for `gtx`.
    Resolve {
        /// The global transaction id.
        gtx: String,
        /// Apply the prepared chain (`true`) or drop it (`false`).
        committed: bool,
    },
}

/// One entry of the write-ahead log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalRecord {
    /// Commit sequence number (1-based, strictly increasing).
    pub seq: u64,
    /// What the record does.
    pub op: WalOp,
}

impl WalRecord {
    /// An unchained delta record (a complete single-record transaction).
    pub fn delta(seq: u64, table: impl Into<String>, delta: Delta) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Delta {
                table: table.into(),
                delta,
                chained: false,
            },
        }
    }

    /// A chained delta record (more records of the same transaction
    /// follow).
    pub fn chained(seq: u64, table: impl Into<String>, delta: Delta) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Delta {
                table: table.into(),
                delta,
                chained: true,
            },
        }
    }

    /// A 2PC prepare marker.
    pub fn prepare(seq: u64, gtx: impl Into<String>, records: u64) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Prepare {
                gtx: gtx.into(),
                records,
            },
        }
    }

    /// A 2PC resolution marker.
    pub fn resolve(seq: u64, gtx: impl Into<String>, committed: bool) -> WalRecord {
        WalRecord {
            seq,
            op: WalOp::Resolve {
                gtx: gtx.into(),
                committed,
            },
        }
    }

    /// The `(table, delta)` of a delta record (chained or not); `None`
    /// for markers. First-committer-wins validation scans with this:
    /// markers never conflict.
    pub fn delta_op(&self) -> Option<(&str, &Delta)> {
        match &self.op {
            WalOp::Delta { table, delta, .. } => Some((table, delta)),
            _ => None,
        }
    }
}

/// An append-only log of committed operations.
///
/// A log may start *after* genesis: a recovered engine's in-memory log
/// begins at the sequence number its checkpoint covered
/// ([`Wal::starting_at`]), so freshly assigned numbers continue the
/// durable history instead of restarting from 1.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Wal {
    records: Vec<WalRecord>,
    /// The sequence number this log starts after (0 = genesis): every
    /// record satisfies `seq > start`.
    start: u64,
}

impl Wal {
    /// An empty log starting at genesis.
    pub fn new() -> Wal {
        Wal::default()
    }

    /// An empty log whose first append will get `seq + 1` — the shape of
    /// a recovered engine's log, which continues after its checkpoint.
    pub fn starting_at(seq: u64) -> Wal {
        Wal {
            records: Vec::new(),
            start: seq,
        }
    }

    /// Build a log from records. The records are *not* validated here;
    /// [`Wal::replay`] enforces strict seq monotonicity when the log is
    /// actually applied, so a log stitched together from overlapping
    /// segments fails loudly instead of double-applying deltas.
    pub fn from_records(records: Vec<WalRecord>) -> Wal {
        Wal { records, start: 0 }
    }

    /// Append a committed delta (a complete single-record transaction),
    /// returning its sequence number. Panics on a reserved table name
    /// (names starting with `!` — engine constructors reject these up
    /// front, see [`reserved_table_name`]).
    pub fn append(&mut self, table: impl Into<String>, delta: Delta) -> u64 {
        let table = table.into();
        assert!(
            !reserved_table_name(&table),
            "table names starting with '!' are reserved"
        );
        let seq = self.next_seq();
        self.records.push(WalRecord::delta(seq, table, delta));
        seq
    }

    /// Append a pre-sequenced record, rejecting any seq that does not
    /// strictly increase the log with
    /// [`EngineError::DuplicateSeq`](crate::EngineError::DuplicateSeq),
    /// and reserved table names with
    /// [`EngineError::ReservedTableName`](crate::EngineError::ReservedTableName).
    pub fn push(&mut self, record: WalRecord) -> Result<u64, EngineError> {
        let last = self.last_seq();
        if record.seq <= last {
            return Err(EngineError::DuplicateSeq {
                seq: record.seq,
                last,
            });
        }
        if let WalOp::Delta { table, .. } = &record.op {
            if reserved_table_name(table) {
                return Err(EngineError::ReservedTableName(table.clone()));
            }
        }
        let seq = record.seq;
        self.records.push(record);
        Ok(seq)
    }

    /// The sequence number the next append will get.
    pub fn next_seq(&self) -> u64 {
        self.last_seq() + 1
    }

    /// The highest committed sequence number (the start offset when
    /// empty; 0 for an empty genesis log).
    pub fn last_seq(&self) -> u64 {
        self.records.last().map(|r| r.seq).unwrap_or(self.start)
    }

    /// The sequence number this log starts after (0 = genesis).
    pub fn start_seq(&self) -> u64 {
        self.start
    }

    /// All records, in commit order.
    pub fn records(&self) -> &[WalRecord] {
        &self.records
    }

    /// Records committed after `seq`, in commit order.
    pub fn records_after(&self, seq: u64) -> &[WalRecord] {
        let start = self.records.partition_point(|r| r.seq <= seq);
        &self.records[start..]
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// The largest sequence number `<= upto` that lies on a **settled
    /// transaction boundary**: every chained record at or below it has
    /// its terminator at or below it, and every prepare marker at or
    /// below it has its resolve marker at or below it. Records up to that
    /// point can be dropped from the log without ever splitting a
    /// transaction or discarding the only evidence of a 2PC outcome.
    /// Returns [`Wal::start_seq`] when nothing at all is settled within
    /// `upto`.
    pub fn settled_prefix_end(&self, upto: u64) -> u64 {
        let mut boundary = self.start;
        let mut open_chain = 0usize;
        let mut open_prepares = 0usize;
        let mut prepared: BTreeMap<&str, ()> = BTreeMap::new();
        for rec in &self.records {
            if rec.seq > upto {
                break;
            }
            match &rec.op {
                WalOp::Delta { chained, .. } => {
                    open_chain += 1;
                    if !chained {
                        open_chain = 0;
                    }
                }
                WalOp::Prepare { gtx, .. } => {
                    open_chain = 0;
                    if prepared.insert(gtx, ()).is_none() {
                        open_prepares += 1;
                    }
                }
                WalOp::Resolve { gtx, .. } => {
                    if prepared.remove(gtx.as_str()).is_some() {
                        open_prepares -= 1;
                    }
                }
            }
            if open_chain == 0 && open_prepares == 0 {
                boundary = rec.seq;
            }
        }
        boundary
    }

    /// Drop every record with `seq <= through`, advancing the log's start
    /// offset to `through`, and return how many were dropped. `through`
    /// must lie on a settled transaction boundary (see
    /// [`Wal::settled_prefix_end`]); a cut through an open chain or an
    /// unresolved prepare is refused as corruption.
    pub fn truncate_through(&mut self, through: u64) -> Result<usize, EngineError> {
        if through <= self.start {
            return Ok(0);
        }
        if self.settled_prefix_end(through) != through {
            return Err(EngineError::WalCorrupt(format!(
                "cannot truncate through seq {through}: it splits an unsettled transaction"
            )));
        }
        let cut = self.records.partition_point(|r| r.seq <= through);
        self.records.drain(..cut);
        self.start = through;
        Ok(cut)
    }

    /// Enforce [`WAL_RETAINED_RECORDS`]: once the log holds more, drop the
    /// prefix up to the settled boundary at or below the record that
    /// leaves half the bound. Returns how many records went.
    pub fn trim(&mut self) -> usize {
        let len = self.records.len();
        if len <= WAL_RETAINED_RECORDS {
            return 0;
        }
        let upto = self.records[len - WAL_RETAINED_RECORDS / 2 - 1].seq;
        let cut = self.settled_prefix_end(upto);
        self.truncate_through(cut)
            .expect("a settled boundary truncates")
    }

    /// Apply every record, in order, to `baseline` and return the
    /// resulting database. `baseline` must contain every table the log
    /// references (with the schemas the engine started from), and must
    /// reflect the state at this log's start offset.
    ///
    /// Replay honours the transaction structure: chained delta records
    /// buffer until their terminator and apply together; prepared chains
    /// apply at their commit resolution (or drop at an abort); a
    /// prepare with no resolution by the end of the log is presumed
    /// aborted (the coordinator never acknowledged it). An *unterminated*
    /// trailing chain is a transaction the engine could never have
    /// acknowledged either, so replay fails with
    /// [`EngineError::WalCorrupt`](crate::EngineError::WalCorrupt) —
    /// durable recovery truncates such tails before replaying.
    ///
    /// Sequence numbers must strictly increase record to record; a
    /// duplicate or stale record aborts the replay with
    /// [`EngineError::DuplicateSeq`](crate::EngineError::DuplicateSeq)
    /// rather than silently re-applying a delta (re-applying an
    /// insert+delete pair would corrupt the recovered state).
    pub fn replay(&self, baseline: &Database) -> Result<Database, EngineError> {
        let mut db = baseline.clone();
        let mut last = self.start;
        let mut pending: Vec<(&str, &Delta)> = Vec::new();
        let mut prepared: BTreeMap<&str, Vec<(&str, &Delta)>> = BTreeMap::new();
        for rec in &self.records {
            if rec.seq <= last {
                return Err(EngineError::DuplicateSeq { seq: rec.seq, last });
            }
            last = rec.seq;
            match &rec.op {
                WalOp::Delta {
                    table,
                    delta,
                    chained,
                } => {
                    pending.push((table, delta));
                    if !chained {
                        for (table, delta) in pending.drain(..) {
                            delta.apply_in_place(db.table_mut(table)?)?;
                        }
                    }
                }
                WalOp::Prepare { gtx, records } => {
                    if pending.len() as u64 != *records {
                        return Err(EngineError::WalCorrupt(format!(
                            "prepare marker for {gtx} claims {records} records, found {}",
                            pending.len()
                        )));
                    }
                    prepared.insert(gtx, std::mem::take(&mut pending));
                }
                WalOp::Resolve { gtx, committed } => {
                    // A resolve whose prepare predates this log's start
                    // (the chain was settled in the state it starts
                    // from) is a legal no-op.
                    if let Some(group) = prepared.remove(gtx.as_str()) {
                        if *committed {
                            for (table, delta) in group {
                                delta.apply_in_place(db.table_mut(table)?)?;
                            }
                        }
                    }
                }
            }
        }
        if !pending.is_empty() {
            return Err(EngineError::WalCorrupt(format!(
                "log ends in an unterminated transaction chain of {} records",
                pending.len()
            )));
        }
        Ok(db)
    }
}

/// The committed deltas in a run of WAL records, each with its table,
/// in commit order, honouring the transaction structure the same way
/// [`Wal::replay`] does: chained records buffer until their terminator,
/// prepared chains apply at their commit resolution and drop at an
/// abort. Returns `None` when the run ends with an unsettled chain or
/// prepare — the caller (view maintenance, a subscription drain, a
/// snapshot catch-up) then keeps its cursor and serves or falls back to
/// settled state rather than guessing.
pub(crate) fn committed_deltas(records: &[WalRecord]) -> Option<Vec<(&str, &Delta)>> {
    let mut out: Vec<(&str, &Delta)> = Vec::new();
    let mut chain: Vec<(&str, &Delta)> = Vec::new();
    let mut prepared: BTreeMap<&str, Vec<(&str, &Delta)>> = BTreeMap::new();
    for rec in records {
        match &rec.op {
            WalOp::Delta {
                table,
                delta,
                chained,
            } => {
                chain.push((table, delta));
                if !chained {
                    out.append(&mut chain);
                }
            }
            WalOp::Prepare { gtx, .. } => {
                prepared.insert(gtx, std::mem::take(&mut chain));
            }
            WalOp::Resolve { gtx, committed } => {
                // A resolve for a chain prepared before this run (already
                // settled into the cursor's state) is a legal no-op.
                if let Some(mut group) = prepared.remove(gtx.as_str()) {
                    if *committed {
                        out.append(&mut group);
                    }
                }
            }
        }
    }
    (chain.is_empty() && prepared.is_empty()).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{decode_record_binary, encode_record_binary};
    use esm_store::{row, Schema, Table, ValueType};

    fn db() -> Database {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("ok", ValueType::Bool),
            ],
            &["id"],
        )
        .unwrap();
        let t =
            Table::from_rows(schema, vec![row![1, "ada", true], row![2, "alan", false]]).unwrap();
        let mut db = Database::new();
        db.create_table("people", t).unwrap();
        db
    }

    fn delta_of(db: &Database, edit: impl FnOnce(&mut Table)) -> Delta {
        let old = db.table("people").unwrap();
        let mut new = old.clone();
        edit(&mut new);
        Delta::between(old, &new).unwrap()
    }

    fn insert_delta(id: i64, name: &str) -> Delta {
        Delta {
            inserted: vec![row![id, name, true]],
            deleted: vec![],
        }
    }

    #[test]
    fn append_assigns_increasing_seqs() {
        let mut wal = Wal::new();
        assert_eq!(wal.last_seq(), 0);
        let d = Delta::empty();
        assert_eq!(wal.append("t", d.clone()), 1);
        assert_eq!(wal.append("t", d), 2);
        assert_eq!(wal.next_seq(), 3);
        assert_eq!(wal.records_after(1).len(), 1);
        assert_eq!(wal.records_after(0).len(), 2);
    }

    #[test]
    fn logs_can_start_after_genesis() {
        let mut wal = Wal::starting_at(41);
        assert_eq!(wal.last_seq(), 41);
        assert_eq!(wal.start_seq(), 41);
        assert_eq!(wal.append("people", Delta::empty()), 42);
        // Replay over a baseline that reflects seq 41 applies only the
        // new records.
        assert_eq!(wal.replay(&db()).unwrap(), db());
    }

    #[test]
    fn trim_cuts_back_to_half_the_bound_at_a_settled_boundary() {
        let mut wal = Wal::new();
        for _ in 0..WAL_RETAINED_RECORDS {
            wal.append("people", Delta::empty());
        }
        assert_eq!(wal.trim(), 0, "within bound");
        wal.append("people", Delta::empty());
        assert_eq!(
            wal.trim(),
            WAL_RETAINED_RECORDS + 1 - WAL_RETAINED_RECORDS / 2
        );
        assert_eq!(wal.len(), WAL_RETAINED_RECORDS / 2);
        assert_eq!(wal.start_seq(), wal.records()[0].seq - 1);

        // An unresolved prepare below the half mark holds every cut.
        let mut held = Wal::new();
        held.push(WalRecord::chained(1, "people", insert_delta(10, "a")))
            .unwrap();
        held.push(WalRecord::prepare(2, "g1", 1)).unwrap();
        for _ in 0..WAL_RETAINED_RECORDS {
            held.append("people", Delta::empty());
        }
        assert_eq!(held.trim(), 0);
        assert_eq!(held.len(), WAL_RETAINED_RECORDS + 2);
    }

    #[test]
    fn push_rejects_duplicate_and_stale_seqs() {
        let mut wal = Wal::new();
        wal.push(WalRecord::delta(5, "t", Delta::empty())).unwrap();
        for stale in [5, 4, 1] {
            let err = wal
                .push(WalRecord::delta(stale, "t", Delta::empty()))
                .unwrap_err();
            assert_eq!(
                err,
                EngineError::DuplicateSeq {
                    seq: stale,
                    last: 5
                }
            );
        }
        assert_eq!(wal.len(), 1);
        // Gaps are fine: strictly increasing is the only requirement.
        wal.push(WalRecord::delta(9, "t", Delta::empty())).unwrap();
    }

    #[test]
    fn reserved_table_names_are_rejected() {
        assert!(reserved_table_name("!prepare"));
        assert!(!reserved_table_name("orders"));
        let mut wal = Wal::new();
        assert!(matches!(
            wal.push(WalRecord::delta(1, "!sneaky", Delta::empty())),
            Err(EngineError::ReservedTableName(_))
        ));
    }

    #[test]
    fn replay_rejects_duplicate_seqs_instead_of_reapplying() {
        // Regression: a log with a duplicated record used to replay it
        // twice; stitched-together segment logs must fail loudly.
        let base = db();
        let d = delta_of(&base, |t| {
            t.upsert(row![3, "grace", true]).unwrap();
        });
        let rec = WalRecord::delta(1, "people", d);
        let wal = Wal::from_records(vec![rec.clone(), rec]);
        let err = wal.replay(&base).unwrap_err();
        assert_eq!(err, EngineError::DuplicateSeq { seq: 1, last: 1 });
    }

    #[test]
    fn replay_reconstructs_state() {
        let base = db();
        let mut live = base.clone();
        let mut wal = Wal::new();

        let d1 = delta_of(&live, |t| {
            t.upsert(row![3, "grace", true]).unwrap();
        });
        live.replace_table("people", d1.apply(live.table("people").unwrap()).unwrap());
        wal.append("people", d1);

        let d2 = delta_of(&live, |t| {
            t.delete_by_key(&row![1]);
            t.upsert(row![2, "alan turing", true]).unwrap();
        });
        live.replace_table("people", d2.apply(live.table("people").unwrap()).unwrap());
        wal.append("people", d2);

        assert_eq!(wal.replay(&base).unwrap(), live);
    }

    #[test]
    fn chained_records_apply_with_their_terminator() {
        let base = db();
        let mut wal = Wal::new();
        wal.push(WalRecord::chained(1, "people", insert_delta(10, "a")))
            .unwrap();
        wal.push(WalRecord::delta(2, "people", insert_delta(11, "b")))
            .unwrap();
        let replayed = wal.replay(&base).unwrap();
        assert_eq!(replayed.table("people").unwrap().len(), 4);
    }

    #[test]
    fn unterminated_chains_fail_replay() {
        let mut wal = Wal::new();
        wal.push(WalRecord::chained(1, "people", insert_delta(10, "a")))
            .unwrap();
        assert!(matches!(
            wal.replay(&db()),
            Err(EngineError::WalCorrupt(msg)) if msg.contains("unterminated")
        ));
    }

    #[test]
    fn prepared_chains_follow_their_resolution() {
        let base = db();
        // Committed 2PC branch applies; aborted branch does not; a
        // dangling prepare is presumed aborted.
        let committed = Wal::from_records(vec![
            WalRecord::chained(1, "people", insert_delta(10, "a")),
            WalRecord::prepare(2, "g1", 1),
            WalRecord::resolve(3, "g1", true),
        ]);
        assert_eq!(
            committed
                .replay(&base)
                .unwrap()
                .table("people")
                .unwrap()
                .len(),
            3
        );
        let aborted = Wal::from_records(vec![
            WalRecord::chained(1, "people", insert_delta(10, "a")),
            WalRecord::prepare(2, "g1", 1),
            WalRecord::resolve(3, "g1", false),
        ]);
        assert_eq!(aborted.replay(&base).unwrap(), base);
        let dangling = Wal::from_records(vec![
            WalRecord::chained(1, "people", insert_delta(10, "a")),
            WalRecord::prepare(2, "g1", 1),
        ]);
        assert_eq!(dangling.replay(&base).unwrap(), base);
        // A resolve with no in-log prepare (settled before this log's
        // start) is a no-op.
        let healed = Wal::from_records(vec![WalRecord::resolve(1, "g0", true)]);
        assert_eq!(healed.replay(&base).unwrap(), base);
    }

    #[test]
    fn prepare_count_mismatch_is_corruption() {
        let wal = Wal::from_records(vec![
            WalRecord::chained(1, "people", insert_delta(10, "a")),
            WalRecord::prepare(2, "g1", 3),
        ]);
        assert!(matches!(
            wal.replay(&db()),
            Err(EngineError::WalCorrupt(msg)) if msg.contains("claims 3")
        ));
    }

    #[test]
    fn encode_decode_round_trips() {
        let base = db();
        let mut wal = Wal::new();
        wal.append(
            "peo\tple\n",
            delta_of(&base, |t| {
                t.upsert(row![7, "tab\there\nnewline\\slash\rcarriage\r", false])
                    .unwrap();
                t.delete_by_key(&row![1]);
            }),
        );
        wal.append("empty", Delta::empty());
        wal.push(WalRecord::chained(5, "people", insert_delta(10, "x")))
            .unwrap();
        wal.push(WalRecord::prepare(6, "g \t42\n", 1)).unwrap();
        wal.push(WalRecord::resolve(7, "g \t42\n", true)).unwrap();
        wal.push(WalRecord::resolve(8, "g2", false)).unwrap();
        for rec in wal.records() {
            let back = decode_record_binary(&encode_record_binary(rec)).unwrap();
            assert_eq!(&back, rec);
        }
    }

    #[test]
    fn decode_rejects_garbage() {
        let corrupt =
            |bytes: &[u8]| matches!(decode_record_binary(bytes), Err(EngineError::WalCorrupt(_)));
        // An unknown tag.
        let mut unknown = encode_record_binary(&WalRecord::delta(1, "t", Delta::empty()));
        unknown[0] = 9;
        assert!(corrupt(&unknown));
        // A resolve verdict that is neither 0 nor 1.
        let mut verdict = encode_record_binary(&WalRecord::resolve(1, "g1", true));
        *verdict.last_mut().unwrap() = 2;
        assert!(corrupt(&verdict));
        // Trailing bytes after a complete record.
        let mut trailing = encode_record_binary(&WalRecord::prepare(1, "g1", 1));
        trailing.push(0);
        assert!(corrupt(&trailing));
        // A truncation at every byte of every record kind.
        for rec in [
            WalRecord::delta(1, "t", insert_delta(10, "x")),
            WalRecord::chained(2, "t", insert_delta(11, "y")),
            WalRecord::prepare(3, "g1", 1),
            WalRecord::resolve(4, "g1", false),
        ] {
            let bytes = encode_record_binary(&rec);
            for cut in 0..bytes.len() {
                assert!(corrupt(&bytes[..cut]), "{rec:?} cut at {cut}");
            }
        }
    }

    #[test]
    fn replay_fails_on_unknown_table() {
        let mut wal = Wal::new();
        wal.append("ghost", Delta::empty());
        assert!(wal.replay(&Database::new()).is_err());
    }
}
