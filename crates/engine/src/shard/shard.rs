//! [`Shard`]: one key range's worth of data, with its own committed
//! [`Database`], in-memory [`Wal`] and (optionally) durable WAL.
//!
//! A shard is the unit of commit parallelism: disjoint single-shard
//! transactions never share a lock, and a commit's write-ahead append,
//! apply and log trim touch only this shard's state. The shard holds one
//! copy of its data, the live piece; its durable log recovers to exactly
//! that piece (the recovery law). Cross-shard transactions lock their
//! participants in index order and run two-phase commit over the
//! per-shard WALs (see [`crate::shard::coordinator`]).

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use esm_store::{Database, Delta, Row, Table};

use crate::durable::{DurabilityConfig, DurableWal, GroupCommit, InDoubtChains, RecoveryReport};
use crate::engine::{check_table_delta, Staged};
use crate::error::EngineError;
use crate::wal::{Wal, WalRecord};

/// The primary keys a delta touches, projected with `table`'s schema.
fn delta_keys(table: &Table, delta: &Delta) -> BTreeSet<Row> {
    delta
        .inserted
        .iter()
        .chain(delta.deleted.iter())
        .map(|row| table.key_of(row))
        .collect()
}

/// How a transaction's chain of records on one shard terminates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum GroupEnd {
    /// A plain commit: the chain applies immediately.
    Commit,
    /// A 2PC prepare for this global transaction: the chain is held in
    /// doubt until a resolution marker.
    Prepare(String),
}

/// The lock-protected state of one shard.
#[derive(Debug)]
pub(crate) struct ShardState {
    /// This shard's piece of every table (all tables present, possibly
    /// empty — views and key routing need the schemas).
    pub db: Database,
    /// The newest committed records, at most
    /// [`crate::wal::WAL_RETAINED_RECORDS`] plus an unsettled tail.
    pub wal: Wal,
    /// The file-backed log, when the engine is durable.
    pub durable: Option<DurableWal>,
    /// How many times appends trimmed `wal`, and how many records those
    /// trims dropped.
    pub trims: (u64, u64),
    /// `(commit stamp, WAL seq)` pairs in log order: after the commit
    /// stamped `s`, every commit stamped up to `s` is in this shard's
    /// log through `seq`. How a subscription cursor (a stamp) maps to a
    /// position in this log. The first entry is the floor the last
    /// truncation left; the list is empty until the engine seeds it.
    pub stamps: Vec<(u64, u64)>,
}

impl ShardState {
    /// Record that every commit stamped up to `stamp` is in the log
    /// through its current end. Called under the write lock whenever a
    /// commit stamp is issued or resolved on this shard.
    pub fn note_stamp(&mut self, stamp: u64) {
        self.stamps.push((stamp, self.wal.last_seq()));
    }

    /// The log position reflecting every commit stamped up to `stamp`,
    /// or `None` when that position is outside the live window (before
    /// the floor, or truncated away).
    pub fn seq_at_stamp(&self, stamp: u64) -> Option<u64> {
        let after = self.stamps.partition_point(|&(s, _)| s <= stamp);
        let &(_, seq) = self.stamps.get(after.checked_sub(1)?)?;
        (seq >= self.wal.start_seq()).then_some(seq)
    }

    /// First-committer-wins: does any record committed after `snap_seq`
    /// touch a key in `our_keys`? Markers carry no keys and never
    /// conflict. Returns the conflicting `(table, seq)` if so.
    pub fn fcw_conflict(
        &self,
        snap_seq: u64,
        our_keys: &BTreeMap<String, BTreeSet<Row>>,
    ) -> Result<Option<(String, u64)>, EngineError> {
        // A WAL truncation may have dropped records committed after an
        // old snapshot; conservatively conflict so the caller retries
        // against fresh state instead of validating against a hole.
        if snap_seq < self.wal.start_seq() {
            return Ok(Some((String::new(), self.wal.start_seq())));
        }
        for rec in self.wal.records_after(snap_seq) {
            let Some((rec_table, rec_delta)) = rec.delta_op() else {
                continue;
            };
            if let Some(ours) = our_keys.get(rec_table) {
                let table = self.db.table(rec_table)?;
                if delta_keys(table, rec_delta)
                    .iter()
                    .any(|k| ours.contains(k))
                {
                    return Ok(Some((rec_table.to_string(), rec.seq)));
                }
            }
        }
        Ok(None)
    }

    /// [`crate::engine::apply_table_delta_checked`]'s validation for every
    /// delta, without applying anything: earlier deltas of the request
    /// count through a staged overlay, so [`ShardState::append_group`]
    /// can then apply the lot without failing.
    pub fn check_pre_images(&self, deltas: &[(String, Delta)]) -> Result<(), EngineError> {
        let mut staged = Staged::new();
        for (name, delta) in deltas {
            let table = self
                .db
                .table(name)
                .map_err(|_| EngineError::NoSuchTable(name.clone()))?;
            check_table_delta(table, name, delta, &mut staged)?;
        }
        Ok(())
    }

    /// Append one transaction's chain of per-table deltas, write-ahead
    /// first. With [`GroupEnd::Commit`] the chain applies to the live
    /// state; with [`GroupEnd::Prepare`] it stays pending (the durable
    /// log holds it in doubt) until [`ShardState::resolve`]. Then the
    /// in-memory log is trimmed back within its bound.
    ///
    /// With `defer_sync` the durable appends skip their inline fsync:
    /// the caller either syncs explicitly afterwards (the 2PC
    /// coordinator, the rebalancer) or parks on the shard's
    /// [`GroupCommit`] gate (the single-shard commit path).
    ///
    /// Returns the sequence numbers consumed.
    pub fn append_group(
        &mut self,
        deltas: &[(String, Delta)],
        end: GroupEnd,
        defer_sync: bool,
    ) -> Result<std::ops::Range<u64>, EngineError> {
        let first_seq = self.wal.next_seq();
        let mut records: Vec<WalRecord> = Vec::with_capacity(deltas.len() + 1);
        for (i, (table, delta)) in deltas.iter().enumerate() {
            let seq = first_seq + i as u64;
            let chained = i + 1 < deltas.len() || matches!(end, GroupEnd::Prepare(_));
            records.push(if chained {
                WalRecord::chained(seq, table.clone(), delta.clone())
            } else {
                WalRecord::delta(seq, table.clone(), delta.clone())
            });
        }
        if let GroupEnd::Prepare(gtx) = &end {
            records.push(WalRecord::prepare(
                first_seq + deltas.len() as u64,
                gtx.clone(),
                deltas.len() as u64,
            ));
        }
        // Write ahead: the durable log sees every record before anything
        // is applied; an I/O failure publishes nothing here and poisons
        // the durable log (fail-stop).
        if let Some(durable) = self.durable.as_mut() {
            for rec in &records {
                if defer_sync {
                    durable.append_deferred(rec)?;
                } else {
                    durable.append(rec)?;
                }
            }
        }
        let end_seq = first_seq + records.len() as u64;
        for rec in records {
            self.wal
                .push(rec)
                .expect("fresh seqs under the shard lock continue the log");
        }
        if matches!(end, GroupEnd::Commit) {
            self.apply(deltas)?;
        }
        self.trim_wal();
        Ok(first_seq..end_seq)
    }

    /// Append the 2PC resolution for `gtx` and, when committed, apply
    /// its prepared deltas to the live state. The caller (coordinator or
    /// recovery) supplies the prepared chain — the shard does not track
    /// it in memory; the durable log tracks its own copy for crash
    /// safety.
    pub fn resolve(
        &mut self,
        gtx: &str,
        committed: bool,
        deltas: &[(String, Delta)],
        defer_sync: bool,
    ) -> Result<(), EngineError> {
        let seq = self.wal.next_seq();
        let rec = WalRecord::resolve(seq, gtx, committed);
        if let Some(durable) = self.durable.as_mut() {
            if defer_sync {
                durable.append_deferred(&rec)?;
            } else {
                durable.append(&rec)?;
            }
        }
        self.wal
            .push(rec)
            .expect("fresh seq under the shard lock continues the log");
        if committed {
            self.apply(deltas)?;
        }
        self.trim_wal();
        Ok(())
    }

    /// Apply logged deltas to the live piece in place, under the write
    /// lock: O(delta), no table copy. Every delta reaching here was
    /// diffed from, or validated against, tables of the same schema, so
    /// it applies whole.
    fn apply(&mut self, deltas: &[(String, Delta)]) -> Result<(), EngineError> {
        for (table, delta) in deltas {
            delta.apply_in_place(self.db.table_mut(table)?)?;
        }
        Ok(())
    }

    /// Force-fsync any group-commit batch the durable log is holding
    /// (2PC prepares must be durable before any resolution is written).
    pub fn sync(&mut self) -> Result<(), EngineError> {
        match self.durable.as_mut() {
            Some(d) => d.sync(),
            None => Ok(()),
        }
    }

    /// Hold the in-memory log to [`crate::wal::WAL_RETAINED_RECORDS`]
    /// ([`Wal::trim`]), dropping the stamp-index entries below its new
    /// start but the last, which becomes the index's floor.
    fn trim_wal(&mut self) {
        let dropped = self.wal.trim();
        if dropped == 0 {
            return;
        }
        self.trims.0 += 1;
        self.trims.1 += dropped as u64;
        let start = self.wal.start_seq();
        let floor = self.stamps.partition_point(|&(_, seq)| seq <= start);
        self.stamps.drain(..floor.saturating_sub(1));
    }
}

/// One shard: a stable id plus its rwlock-guarded state. Cloning shares
/// the shard.
#[derive(Clone, Debug)]
pub struct Shard {
    inner: Arc<ShardInner>,
}

#[derive(Debug)]
struct ShardInner {
    id: u64,
    state: RwLock<ShardState>,
    /// Cross-session group-commit gate, present iff the shard is durable
    /// with `group_commit == 1` (the strict per-commit-fsync setting,
    /// where batching across sessions is the only way to share fsyncs;
    /// with `group_commit > 1` the log already batches lazily).
    group: Option<Arc<GroupCommit>>,
    /// Transactions committed through this shard (single-shard commits
    /// plus 2PC participations), read lock-free by the rebalance policy
    /// to compute per-shard commit-rate EWMAs.
    commits: AtomicU64,
}

impl Shard {
    /// An in-memory shard over its piece of the database.
    pub(crate) fn new_in_memory(id: u64, db: Database) -> Shard {
        Shard {
            inner: Arc::new(ShardInner {
                id,
                state: RwLock::new(ShardState {
                    db,
                    wal: Wal::new(),
                    durable: None,
                    trims: (0, 0),
                    stamps: Vec::new(),
                }),
                group: None,
                commits: AtomicU64::new(0),
            }),
        }
    }

    /// A durable shard: `db` becomes the genesis checkpoint of a fresh
    /// WAL directory.
    pub(crate) fn create_durable(
        id: u64,
        db: Database,
        cfg: DurabilityConfig,
    ) -> Result<Shard, EngineError> {
        let group = (cfg.group_commit == 1).then(|| Arc::new(GroupCommit::new(0)));
        let durable = DurableWal::create(cfg, &db)?;
        Ok(Shard {
            inner: Arc::new(ShardInner {
                id,
                state: RwLock::new(ShardState {
                    db,
                    wal: Wal::new(),
                    durable: Some(durable),
                    trims: (0, 0),
                    stamps: Vec::new(),
                }),
                group,
                commits: AtomicU64::new(0),
            }),
        })
    }

    /// Recover a durable shard from its WAL directory. In-doubt 2PC
    /// chains are *not* applied — they come back to the caller, which
    /// settles them ([`crate::shard::ShardedEngineServer::recover_with`]).
    pub(crate) fn recover(
        id: u64,
        cfg: DurabilityConfig,
    ) -> Result<(Shard, InDoubtChains, RecoveryReport), EngineError> {
        let group = (cfg.group_commit == 1).then_some(());
        let (durable, db, in_doubt, report) = DurableWal::open(cfg)?;
        Ok((
            Shard {
                inner: Arc::new(ShardInner {
                    id,
                    state: RwLock::new(ShardState {
                        db,
                        wal: Wal::starting_at(report.last_seq),
                        durable: Some(durable),
                        trims: (0, 0),
                        stamps: Vec::new(),
                    }),
                    group: group.map(|()| Arc::new(GroupCommit::new(report.last_seq))),
                    commits: AtomicU64::new(0),
                }),
            },
            in_doubt,
            report,
        ))
    }

    /// The shard's stable id (survives splits and merges; names its WAL
    /// directory, `shard-<id>`).
    pub fn id(&self) -> u64 {
        self.inner.id
    }

    /// Read-lock the shard state.
    pub(crate) fn read(&self) -> RwLockReadGuard<'_, ShardState> {
        self.inner.state.read().expect("shard lock poisoned")
    }

    /// Write-lock the shard state.
    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, ShardState> {
        self.inner.state.write().expect("shard lock poisoned")
    }

    /// Read-lock the shard state without blocking (`None` when busy).
    /// The checkpoint-safety scan uses this out of lock order; a try
    /// never deadlocks, and a busy peer just defers the checkpoint to
    /// the next maintenance tick.
    pub(crate) fn try_read(&self) -> Option<RwLockReadGuard<'_, ShardState>> {
        self.inner.state.try_read().ok()
    }

    /// Whether this shard batches commits through a cross-session
    /// group-commit gate (durable, `group_commit == 1`).
    pub(crate) fn has_group_commit(&self) -> bool {
        self.inner.group.is_some()
    }

    /// Park until every record up to `seq` is fsynced, electing one
    /// waiter as the leader that fsyncs the whole batch (see
    /// [`GroupCommit::wait_durable`]). A no-op when the shard has no
    /// gate. Call *without* holding the shard lock: the leader re-takes
    /// the write lock to sync.
    pub(crate) fn wait_group(&self, seq: u64) -> Result<(), EngineError> {
        let Some(group) = &self.inner.group else {
            return Ok(());
        };
        let tspan = esm_obs::trace::span("group_commit_wait");
        let led = group.wait_durable(seq, || {
            let mut state = self.write();
            let durable = state
                .durable
                .as_mut()
                .expect("the group-commit gate exists only on durable shards");
            let through = durable.last_seq();
            durable.sync()?;
            Ok(through)
        })?;
        if let Some(mut t) = tspan {
            t.set_tag(if led { "leader" } else { "follower" });
        }
        Ok(())
    }

    /// Count one committed transaction against this shard (single-shard
    /// commit or 2PC participation). Lock-free.
    pub(crate) fn note_commit(&self) {
        self.inner.commits.fetch_add(1, Ordering::Relaxed);
    }

    /// Transactions committed through this shard since construction.
    pub(crate) fn commit_count(&self) -> u64 {
        self.inner.commits.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WAL_RETAINED_RECORDS;
    use esm_store::{row, Schema, Table, ValueType};

    fn piece() -> Database {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        let mut db = Database::new();
        db.create_table("t", Table::from_rows(schema, vec![row![1, "a"]]).unwrap())
            .unwrap();
        db
    }

    fn ins(id: i64) -> (String, Delta) {
        (
            "t".to_string(),
            Delta {
                inserted: vec![row![id, format!("r{id}")]],
                deleted: vec![],
            },
        )
    }

    #[test]
    fn commit_groups_apply_and_replay() {
        let shard = Shard::new_in_memory(0, piece());
        {
            let mut state = shard.write();
            state
                .append_group(&[ins(2), ins(3)], GroupEnd::Commit, false)
                .unwrap();
        }
        let state = shard.read();
        assert_eq!(state.db.table("t").unwrap().len(), 3);
        assert_eq!(state.wal.len(), 2);
        assert_eq!(state.wal.replay(&piece()).unwrap(), state.db, "replay law");
    }

    #[test]
    fn prepared_groups_wait_for_their_resolution() {
        let shard = Shard::new_in_memory(7, piece());
        let deltas = vec![ins(5)];
        {
            let mut state = shard.write();
            state
                .append_group(&deltas, GroupEnd::Prepare("g1".into()), false)
                .unwrap();
            assert_eq!(state.db.table("t").unwrap().len(), 1, "held in doubt");
            state.resolve("g1", true, &deltas, false).unwrap();
            assert_eq!(state.db.table("t").unwrap().len(), 2);
            assert_eq!(state.wal.replay(&piece()).unwrap(), state.db);
        }
        // An aborted branch leaves no trace in the live state but stays
        // replayable.
        {
            let mut state = shard.write();
            state
                .append_group(&[ins(9)], GroupEnd::Prepare("g2".into()), false)
                .unwrap();
            state.resolve("g2", false, &[ins(9)], false).unwrap();
            assert_eq!(state.db.table("t").unwrap().len(), 2);
            assert_eq!(state.wal.replay(&piece()).unwrap(), state.db);
        }
    }

    #[test]
    fn appends_trim_the_log_and_its_stamp_index() {
        let shard = Shard::new_in_memory(0, piece());
        let mut state = shard.write();
        let commits = WAL_RETAINED_RECORDS as i64 + 1;
        for id in 2..2 + commits {
            state
                .append_group(&[ins(id)], GroupEnd::Commit, false)
                .unwrap();
            state.note_stamp(id as u64);
            assert!(state.wal.len() <= WAL_RETAINED_RECORDS);
        }
        let kept = WAL_RETAINED_RECORDS / 2;
        assert_eq!(state.wal.len(), kept);
        assert_eq!(state.trims, (1, commits as u64 - kept as u64));
        assert_eq!(state.db.table("t").unwrap().len(), 1 + commits as usize);
        // Stamps below the new start leave the index; the last of them
        // stays as its floor.
        let start = state.wal.start_seq();
        assert_eq!(state.seq_at_stamp(start + 1), Some(start));
        assert_eq!(state.seq_at_stamp(start), None);
        // A snapshot from before the start conflicts instead of
        // validating against the dropped records.
        let keys = BTreeMap::from([("t".to_string(), BTreeSet::from([row![99_999]]))]);
        assert!(state.fcw_conflict(start - 1, &keys).unwrap().is_some());
        assert!(state.fcw_conflict(start, &keys).unwrap().is_none());
    }

    #[test]
    fn fcw_sees_only_delta_records() {
        let shard = Shard::new_in_memory(0, piece());
        let mut state = shard.write();
        let snap = state.wal.last_seq();
        state
            .append_group(&[ins(2)], GroupEnd::Prepare("g".into()), false)
            .unwrap();
        state.resolve("g", true, &[ins(2)], false).unwrap();
        let overlapping: BTreeMap<String, BTreeSet<Row>> =
            BTreeMap::from([("t".to_string(), BTreeSet::from([row![2]]))]);
        let disjoint: BTreeMap<String, BTreeSet<Row>> =
            BTreeMap::from([("t".to_string(), BTreeSet::from([row![99]]))]);
        assert!(state.fcw_conflict(snap, &overlapping).unwrap().is_some());
        assert!(state.fcw_conflict(snap, &disjoint).unwrap().is_none());
    }
}
