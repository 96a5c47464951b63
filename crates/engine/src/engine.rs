//! [`Engine`]: the one public surface every engine implementation
//! serves.
//!
//! The paper's entangled state monads are *client handles* onto shared
//! hidden state; nothing about the handle says where that state lives.
//! This module makes the engine side of that contract a trait: an
//! [`Engine`] owns base tables and named bidirectional views, commits
//! transactions with first-committer-wins, and answers reads from
//! maintained materialized windows. One engine implements the state,
//! and two hosts front it:
//!
//! * [`crate::shard::ShardedEngineServer`] — the engine: key-range
//!   shards with cross-shard two-phase commit, whose one-shard case
//!   ([`crate::EngineServer`]) is the plain in-process engine;
//! * [`crate::ReplicaEngine`] — the same state read from a replica of
//!   its log, refusing writes;
//! * `RemoteEngine` (the `esm-net` crate) — the same surface spoken
//!   over a length-prefixed socket protocol, so an
//!   [`crate::EntangledView`] is **host-location-oblivious**: the same
//!   client code (and the same conformance suite, see
//!   [`crate::testkit`]) runs in-process and across a wire.
//!
//! The trait is object safe: clients hold `Arc<dyn Engine>` and never
//! know which implementation answers. Closure-taking methods accept
//! `&dyn Fn` for that reason; the concrete engines also keep their
//! generic inherent methods, which these trait methods forward to.

use std::collections::BTreeMap;
use std::sync::Arc;

use esm_relational::ViewDef;
use esm_store::{Database, Delta, Row, Table};

use crate::error::EngineError;
use crate::metrics::MetricsSnapshot;
use crate::sub::{CommitNotifier, ViewDeltas};
use crate::view::EntangledView;

/// A shared, dynamically dispatched engine handle — what an
/// [`EntangledView`] and a [`crate::Session`] hold.
pub type ArcEngine = Arc<dyn Engine>;

/// How many attempts an optimistic edit makes by default.
pub const DEFAULT_OPTIMISTIC_ATTEMPTS: u32 = 16;

/// What a committed transaction did: its position in the engine-wide
/// serialization order, the shards it touched, and the per-table deltas.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// Commit stamp: taken while every participant lock was held, so
    /// sorting receipts by stamp is a valid serialization order of the
    /// workload (the model-based suite re-executes it single-threaded).
    /// It is also the subscription cursor the commit advances to.
    pub stamp: u64,
    /// Topology indexes of the shards the transaction wrote (empty when
    /// it wrote nothing).
    pub shards: Vec<usize>,
    /// The committed per-table deltas (merged across shards).
    pub deltas: BTreeMap<String, Delta>,
    /// The global transaction id, for cross-shard commits.
    pub gtx: Option<String>,
}

/// What [`Engine::snapshot_since`] answers: the database at commit
/// stamp `stamp`, as the changes since the stamp the caller holds or
/// whole.
#[derive(Debug, Clone, PartialEq)]
pub struct SnapshotSince {
    /// The commit stamp the answer reflects: the caller's next `since`.
    /// Engines that keep no stamps answer 0 with a whole database.
    pub stamp: u64,
    /// The database, as changes or whole.
    pub changes: SnapshotChanges,
}

/// How a [`SnapshotSince`] carries the database.
#[derive(Debug, Clone, PartialEq)]
pub enum SnapshotChanges {
    /// The base-table deltas committed after the caller's stamp, one per
    /// changed table (a run coalesced with [`Delta::coalesce`]), in
    /// table-name order.
    Deltas(Vec<(String, Delta)>),
    /// The whole database, when the changes are not available: the
    /// caller adopts it and drops what it held.
    Full(Database),
}

impl SnapshotSince {
    /// Bring `db`, the database at the stamp this answer was asked for,
    /// to the answer's stamp: adopt the whole database, or move every
    /// delta's rows into it in place.
    pub fn apply_to(self, db: &mut Database) -> Result<(), EngineError> {
        match self.changes {
            SnapshotChanges::Full(full) => *db = full,
            SnapshotChanges::Deltas(deltas) => {
                for (name, delta) in deltas {
                    delta.apply_owned(db.table_mut(&name)?)?;
                }
            }
        }
        Ok(())
    }
}

/// Rows that earlier deltas of one checked request touched, by
/// `(table, key)`: `None` where a delta deleted the key.
pub(crate) type Staged<'a> = BTreeMap<(&'a str, Row), Option<&'a Row>>;

/// Validate one table's client-computed delta without applying it: every
/// row must fit the schema (wire-decoded deltas arrive unvalidated),
/// every deleted row must still be present exactly as the client saw it
/// (its pre-image), and every inserted key must be free once the
/// pre-images are gone. `staged` overlays `table` with what earlier
/// deltas of the same request did, and takes this delta's effect.
/// [`Delta::between`] renders a modification as delete(old) +
/// insert(new), so this is first-committer-wins at row granularity
/// against the client's snapshot.
pub(crate) fn check_table_delta<'a>(
    table: &Table,
    name: &'a str,
    delta: &'a Delta,
    staged: &mut Staged<'a>,
) -> Result<(), EngineError> {
    let arity = table.schema().columns().len();
    for row in &delta.deleted {
        if row.len() != arity {
            return Err(EngineError::Store(esm_store::StoreError::Arity {
                expected: arity,
                got: row.len(),
            }));
        }
    }
    for row in &delta.inserted {
        table.schema().check_row(row)?;
    }
    let conflict = |detail: String| EngineError::Conflict {
        table: name.to_string(),
        detail,
    };
    for row in &delta.deleted {
        let key = table.key_of(row);
        let current = match staged.get(&(name, key.clone())) {
            Some(row) => *row,
            None => table.get_by_key(&key),
        };
        if current != Some(row) {
            return Err(conflict(format!(
                "pre-image of key {key:?} changed since the client's snapshot"
            )));
        }
    }
    for row in &delta.deleted {
        staged.insert((name, table.key_of(row)), None);
    }
    for row in &delta.inserted {
        let key = table.key_of(row);
        let taken = match staged.get(&(name, key.clone())) {
            Some(row) => row.is_some(),
            None => table.get_by_key(&key).is_some(),
        };
        if taken {
            return Err(conflict(format!("key {key:?} was created concurrently")));
        }
        staged.insert((name, key), Some(row));
    }
    Ok(())
}

/// Validate ([`check_table_delta`]) and apply one table's
/// client-computed delta in place.
pub fn apply_table_delta_checked(
    table: &mut Table,
    name: &str,
    delta: &Delta,
) -> Result<(), EngineError> {
    check_table_delta(table, name, delta, &mut Staged::new())?;
    delta.apply_in_place(table)?;
    Ok(())
}

/// [`apply_table_delta_checked`] over a whole database — the body a
/// checked commit that spans shards runs inside `transact_keys`.
pub fn apply_deltas_checked(
    db: &mut Database,
    deltas: &[(String, Delta)],
) -> Result<(), EngineError> {
    for (name, delta) in deltas {
        apply_table_delta_checked(db.table_mut(name)?, name, delta)?;
    }
    Ok(())
}

/// The view-edit loop behind [`Engine::edit_view_optimistic`] and
/// [`Engine::write_view`] on every host: read the maintained window, run
/// `edit` on a chunk-sharing clone, diff the two ([`Delta::between`],
/// O(chunks the edit wrote)) and hand the window delta to
/// [`Engine::edit_view_delta`]. A conflict retries from a fresh read, up
/// to `attempts` attempts; `on_retry` runs before each retry. An edit
/// that leaves a table of another schema is refused with
/// [`EngineError::Store`].
pub(crate) fn edit_view_with<E: Engine + ?Sized>(
    engine: &E,
    name: &str,
    attempts: u32,
    edit: &dyn Fn(&mut Table) -> Result<(), EngineError>,
    on_retry: impl Fn(),
) -> Result<Delta, EngineError> {
    let budget = attempts.max(1);
    for attempt in 1..=budget {
        let window = engine.read_view(name)?;
        let mut edited = window.clone();
        edit(&mut edited)?;
        if edited.schema() != window.schema() {
            return Err(EngineError::Store(esm_store::StoreError::SchemaMismatch(
                format!(
                    "view edit rejected: the edited table {} does not have view {name}'s schema {}",
                    edited.schema(),
                    window.schema()
                ),
            )));
        }
        let delta = Delta::between(&window, &edited)?;
        // Let go of both copies before the commit, so a read that drains
        // into the maintained window meanwhile copies no chunk for them.
        drop((window, edited));
        if delta.is_empty() {
            return Ok(delta);
        }
        match engine.edit_view_delta(name, &delta) {
            Err(EngineError::Conflict { .. }) if attempt < budget => on_retry(),
            Err(EngineError::Conflict { .. }) => break,
            committed => return committed,
        }
    }
    Err(EngineError::RetriesExhausted {
        view: name.to_string(),
        attempts,
    })
}

/// The edit behind [`Engine::write_view`]: replace the window by `view`.
/// Each attempt takes a chunk-sharing clone.
pub(crate) fn replace_window(view: Table) -> impl Fn(&mut Table) -> Result<(), EngineError> {
    move |window| {
        *window = view.clone();
        Ok(())
    }
}

/// A concurrent, transactional, bidirectional database engine.
///
/// One trait, three hosts (in-process, replica, remote): every method a
/// client needs to run the paper's entangled sessions against shared
/// state lives here, and nothing engine-shape-specific does. Sharded
/// topology control (`split_shard`, `merge_shards`), durability tuning
/// and recovery stay inherent methods of the concrete types — they are
/// operator surface, not client surface.
pub trait Engine: Send + Sync + std::fmt::Debug {
    /// This engine as a shared dynamic handle. Implementations are cheap
    /// clone-able facades, so this is one `Arc::new(self.clone())`.
    fn as_engine(&self) -> ArcEngine;

    /// Registered table names, sorted.
    ///
    /// Fallible (like every getter below): in-process engines always
    /// succeed, but the remote engine surfaces transport failures as
    /// [`EngineError`] instead of panicking inside the client.
    fn table_names(&self) -> Result<Vec<String>, EngineError>;

    /// A snapshot of one base table.
    fn table(&self, name: &str) -> Result<Table, EngineError>;

    /// A snapshot of the whole database, consistent across tables and
    /// shards (all shard read locks are held together).
    fn snapshot(&self) -> Result<Database, EngineError>;

    /// The database at the current commit stamp, for a caller that holds
    /// it at stamp `since` (`None`: holds nothing). Engines that keep a
    /// log answer with the committed base-table deltas since that stamp
    /// — O(delta) — and fall back to the whole database when the log no
    /// longer covers it. The default always answers with the whole
    /// database ([`Engine::snapshot`]) at stamp 0.
    fn snapshot_since(&self, _since: Option<u64>) -> Result<SnapshotSince, EngineError> {
        Ok(SnapshotSince {
            stamp: 0,
            changes: SnapshotChanges::Full(self.snapshot()?),
        })
    }

    /// Compile and register a named entangled view over `table`,
    /// returning a client handle. The view is compiled against the
    /// table's schema, select-constrained columns get secondary indexes,
    /// and the window is materialized for delta maintenance.
    fn define_view(
        &self,
        name: &str,
        table: &str,
        def: &ViewDef,
    ) -> Result<EntangledView, EngineError>;

    /// A client handle onto an already-registered view.
    fn view(&self, name: &str) -> Result<EntangledView, EngineError>;

    /// Registered view names, sorted.
    fn view_names(&self) -> Result<Vec<String>, EngineError>;

    /// Read a view against the current base state, served from its
    /// maintained materialized window — O(changes since the last read).
    fn read_view(&self, name: &str) -> Result<Table, EngineError>;

    /// The paper's `set`: replace view `name`'s window by `view` and
    /// return the base-table delta that committed. It is the edit
    /// "replace the window" run by [`Engine::edit_view_optimistic`]: diff
    /// `view` against the maintained window ([`Delta::between`],
    /// O(chunks that differ) when `view` came from a read of this engine)
    /// and commit the difference with [`Engine::edit_view_delta`]. A
    /// conflict re-reads and re-diffs until the put lands, so racing
    /// putters are last-writer-wins; a read-modify-write that must not
    /// lose concurrent updates belongs in an edit closure. Putting back
    /// the window just read commits nothing, and a table of another
    /// schema is an [`EngineError::Store`].
    fn write_view(&self, name: &str, view: Table) -> Result<Delta, EngineError> {
        self.edit_view_optimistic(name, u32::MAX, &replace_window(view))
    }

    /// Commit a view edit given as a window delta: `delta` takes the
    /// window as the caller read it to the window it wants, so its
    /// deleted rows are the pre-images the edit read (what
    /// [`Delta::between`] emits). Every touched row of the view must
    /// still hold its pre-image — first-committer-wins per key, as in
    /// [`Engine::commit_checked`]; a stale one is an
    /// [`EngineError::Conflict`] — and a row that does not fit the view's
    /// schema is an [`EngineError::Store`]. The delta then goes through
    /// the view's lens `put` over just the base rows it touches and
    /// commits. Returns the committed base-table delta.
    fn edit_view_delta(&self, name: &str, delta: &Delta) -> Result<Delta, EngineError>;

    /// Transactionally edit a view: read it, run `edit` on a copy, and
    /// commit the difference with [`Engine::edit_view_delta`], retrying
    /// from a fresh read on a conflict, up to `attempts` attempts. Returns
    /// the committed base-table delta. Every host runs this one loop
    /// (`edit_view_with`).
    fn edit_view_optimistic(
        &self,
        name: &str,
        attempts: u32,
        edit: &dyn Fn(&mut Table) -> Result<(), EngineError>,
    ) -> Result<Delta, EngineError> {
        edit_view_with(self, name, attempts, edit, || {})
    }

    /// Run `body` in a snapshot transaction over the whole database,
    /// retrying first-committer-wins conflicts up to `max_attempts`
    /// times. Multi-table writes commit atomically (chained WAL records
    /// in-process; two-phase commit across shards).
    fn transact(
        &self,
        max_attempts: u32,
        body: &dyn Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError>;

    /// Commit client-computed per-table deltas in one atomic
    /// transaction, validating each row against its pre-image
    /// ([`apply_table_delta_checked`]) — the wire protocol's commit
    /// primitive, where the client's snapshot cannot travel back with
    /// the request. Every deleted row must still be present exactly as
    /// the client saw it, and every inserted key must be free once the
    /// pre-images are gone; a stale pre-image is an
    /// [`EngineError::Conflict`], and nothing is retried (the client must
    /// re-read first).
    fn commit_checked(&self, deltas: &[(String, Delta)]) -> Result<CommitReceipt, EngineError>;

    /// Current engine counters.
    fn metrics(&self) -> Result<MetricsSnapshot, EngineError>;

    /// A point-in-time copy of the engine's phase-latency histograms
    /// and slow-op ring ([`esm_obs::TelemetrySnapshot`]). In-process
    /// engines snapshot their live registry; the remote engine fetches
    /// the server's snapshot over the wire (`STATS`).
    fn telemetry(&self) -> Result<esm_obs::TelemetrySnapshot, EngineError>;

    /// A copy of the engine's trace rings ([`esm_obs::TraceReport`]):
    /// the causal span trees head-sampled or tail-captured by the
    /// registry. In-process engines report their live registry; the
    /// remote engine fetches the server's report over the wire
    /// (`TRACE`).
    fn traces(&self) -> Result<esm_obs::TraceReport, EngineError>;

    /// The live telemetry registry locally backing this engine, when
    /// one exists — what a [`crate::Session`] mints trace roots from
    /// (head sampling). The remote engine returns its own client-local
    /// registry: client-side spans and the sampling decision live
    /// there, and the wire carries the context to the server.
    fn telemetry_handle(&self) -> Option<Arc<esm_obs::Telemetry>> {
        None
    }

    /// Write a durable checkpoint covering every committed record and
    /// compact fully-covered segments. Returns the lowest covered
    /// sequence number across the engine's logs, or `None` for
    /// in-memory engines.
    fn checkpoint(&self) -> Result<Option<u64>, EngineError>;

    /// Force-fsync any group-commit batch the durable log is holding.
    /// No-op for in-memory engines.
    fn sync_wal(&self) -> Result<(), EngineError>;

    // ------------------------------------------------------------------
    // Subscriptions (see [`crate::sub`]).
    // ------------------------------------------------------------------

    /// The commit signal a push pump parks on, when this engine can
    /// provide one. `None` (the default) means commits cannot be waited
    /// on — a server can still fan out after requests it handled itself.
    fn commit_notifier(&self) -> Option<Arc<CommitNotifier>> {
        None
    }

    /// A fresh subscription cursor for view `name`: drains from here
    /// miss nothing committed after this call. The default — for
    /// engines without incremental drain support — validates the view
    /// and pins the cursor at 0, which makes every later drain a
    /// full-window resync.
    fn view_cursor(&self, name: &str) -> Result<u64, EngineError> {
        self.read_view(name).map(|_| 0)
    }

    /// Everything settled past `cursor` for view `name`, as one
    /// coalesced [`ViewDeltas`] batch — the subscription fan-out
    /// primitive. Engines with a WAL drain this O(delta); the default
    /// conservatively re-serves the whole window as a resync batch
    /// (correct for any engine, never incremental).
    fn view_deltas_since(&self, name: &str, cursor: u64) -> Result<ViewDeltas, EngineError> {
        let window = self.read_view(name)?;
        Ok(ViewDeltas {
            from_seq: cursor,
            to_seq: cursor,
            delta: Delta::empty(),
            resync: Some(window),
        })
    }

    // ------------------------------------------------------------------
    // Replication (see [`crate::repl`]).
    // ------------------------------------------------------------------

    /// A WAL-shipping source over this engine's durable log, when it can
    /// act as a replication primary. `None` (the default) means this
    /// engine cannot be replicated from — in-memory engines and
    /// replicas. The net layer routes the `REPL_*` verbs through this.
    fn repl_source(&self) -> Option<Arc<dyn crate::repl::WalSource>> {
        None
    }
}

impl Engine for crate::shard::ShardedEngineServer {
    fn as_engine(&self) -> ArcEngine {
        Arc::new(self.clone())
    }

    fn table_names(&self) -> Result<Vec<String>, EngineError> {
        Ok(crate::shard::ShardedEngineServer::table_names(self))
    }

    fn table(&self, name: &str) -> Result<Table, EngineError> {
        crate::shard::ShardedEngineServer::table(self, name)
    }

    fn snapshot(&self) -> Result<Database, EngineError> {
        Ok(crate::shard::ShardedEngineServer::snapshot(self))
    }

    fn snapshot_since(&self, since: Option<u64>) -> Result<SnapshotSince, EngineError> {
        Ok(crate::shard::ShardedEngineServer::snapshot_since(
            self, since,
        ))
    }

    fn define_view(
        &self,
        name: &str,
        table: &str,
        def: &ViewDef,
    ) -> Result<EntangledView, EngineError> {
        crate::shard::ShardedEngineServer::define_view(self, name, table, def)
    }

    fn view(&self, name: &str) -> Result<EntangledView, EngineError> {
        crate::shard::ShardedEngineServer::view(self, name)
    }

    fn view_names(&self) -> Result<Vec<String>, EngineError> {
        Ok(crate::shard::ShardedEngineServer::view_names(self))
    }

    fn read_view(&self, name: &str) -> Result<Table, EngineError> {
        crate::shard::ShardedEngineServer::read_view(self, name)
    }

    fn edit_view_delta(&self, name: &str, delta: &Delta) -> Result<Delta, EngineError> {
        crate::shard::ShardedEngineServer::edit_view_delta(self, name, delta)
    }

    fn edit_view_optimistic(
        &self,
        name: &str,
        attempts: u32,
        edit: &dyn Fn(&mut Table) -> Result<(), EngineError>,
    ) -> Result<Delta, EngineError> {
        crate::shard::ShardedEngineServer::edit_view_optimistic(self, name, attempts, edit)
    }

    fn transact(
        &self,
        max_attempts: u32,
        body: &dyn Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        crate::shard::ShardedEngineServer::transact(self, max_attempts, body)
    }

    fn commit_checked(&self, deltas: &[(String, Delta)]) -> Result<CommitReceipt, EngineError> {
        crate::shard::ShardedEngineServer::commit_deltas_checked(self, deltas)
    }

    fn metrics(&self) -> Result<MetricsSnapshot, EngineError> {
        Ok(crate::shard::ShardedEngineServer::metrics(self))
    }

    fn telemetry(&self) -> Result<esm_obs::TelemetrySnapshot, EngineError> {
        Ok(crate::shard::ShardedEngineServer::telemetry(self))
    }

    fn traces(&self) -> Result<esm_obs::TraceReport, EngineError> {
        Ok(crate::shard::ShardedEngineServer::telemetry_registry(self).traces_report())
    }

    fn telemetry_handle(&self) -> Option<Arc<esm_obs::Telemetry>> {
        Some(Arc::clone(
            crate::shard::ShardedEngineServer::telemetry_registry(self),
        ))
    }

    fn checkpoint(&self) -> Result<Option<u64>, EngineError> {
        // The trait reports one covering floor: the lowest covered seq
        // across the per-shard logs (each shard checkpoints its own).
        Ok(crate::shard::ShardedEngineServer::checkpoint(self)?
            .and_then(|seqs| seqs.into_iter().min()))
    }

    fn sync_wal(&self) -> Result<(), EngineError> {
        crate::shard::ShardedEngineServer::sync_wal(self)
    }

    fn commit_notifier(&self) -> Option<Arc<CommitNotifier>> {
        Some(crate::shard::ShardedEngineServer::commit_notifier(self))
    }

    fn view_cursor(&self, name: &str) -> Result<u64, EngineError> {
        crate::shard::ShardedEngineServer::view_cursor(self, name)
    }

    fn view_deltas_since(&self, name: &str, cursor: u64) -> Result<ViewDeltas, EngineError> {
        crate::shard::ShardedEngineServer::view_deltas_since(self, name, cursor)
    }

    fn repl_source(&self) -> Option<Arc<dyn crate::repl::WalSource>> {
        crate::repl::PrimaryWalSource::over(self)
            .map(|s| Arc::new(s) as Arc<dyn crate::repl::WalSource>)
    }
}
