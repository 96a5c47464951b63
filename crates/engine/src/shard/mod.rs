//! The engine: one or many key-range shards behind one commit, view and
//! recovery path.
//!
//! [`ShardedEngineServer`] partitions every table across N [`Shard`]s by
//! primary-key range ([`ShardRouter`]). Each shard owns its own
//! committed [`esm_store::Database`] piece, in-memory WAL and
//! (optionally) durable segment log, so the commit pipeline scales with
//! the shard count:
//!
//! * **Single-shard fast path** — a transaction whose keys all route to
//!   one shard commits under that shard's lock alone: no coordination,
//!   one WAL, one fsync cadence. Disjoint traffic on different shards
//!   never shares a lock *or* a log.
//! * **Cross-shard transactions** — two-phase commit over the per-shard
//!   WALs ([`coordinator`]): prepare markers land (fsynced) on every
//!   participant before any resolution, and recovery settles in-doubt
//!   transactions deterministically by scanning all shard logs (any
//!   commit marker anywhere → commit everywhere; none → presumed
//!   abort).
//! * **Online rebalancing** — [`rebalance`]: split a hot shard at a key
//!   (draining the upper range into a fresh shard under a brief write
//!   fence) or merge adjacent shards, while other shards keep
//!   committing.
//!
//! The one-shard case ([`ShardedEngineServer::new`], also reachable as
//! [`crate::EngineServer`]) is the plain in-process engine: every
//! commit takes the single-shard path and nothing is coordinated.
//! Clients stay routing-oblivious: [`ShardedEngineServer::define_view`]
//! hands out [`crate::EntangledView`] handles whatever the shard count,
//! and `get`/`put`/`edit` route (and coordinate) per key under the hood.
//!
//! ## Durable layout
//!
//! ```text
//! base-dir/
//!   topology.esm          shard ids + split points (atomic rewrite)
//!   shard-0/              one durable WAL directory per shard
//!     checkpoint-…ckpt
//!     wal-…seg
//!   shard-1/…
//! ```
//!
//! The topology file is rewritten atomically on every split/merge;
//! recovery reads it, recovers each shard directory, settles in-doubt
//! 2PC transactions, prunes rows a half-finished rebalance left outside
//! their shard's range, and sweeps shard directories a crashed split
//! never published.

pub mod coordinator;
pub mod rebalance;
pub mod router;
#[allow(clippy::module_inception)]
pub mod shard;

pub use coordinator::{FailPoint, ShardCoordinator};
pub use router::ShardRouter;
pub use shard::Shard;

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};

use esm_lens::{DeltaLens, DeltaOutcome};
use esm_obs::{Phase, Telemetry, TelemetrySnapshot};
use esm_relational::ViewDef;
use esm_store::codec::{self, BinReader};
use esm_store::{Database, Delta, Row, Schema, Table, Value};

use crate::checkpoint::write_atomic;
use crate::durable::{checkpoint_off_lock, DurabilityConfig, MaintenanceThread, RecoveryReport};
use crate::error::EngineError;
use crate::metrics::{Metrics, MetricsSnapshot, ShardLoad, ShardMetrics, WalStats};
use crate::segment::{unseal, Sealer};
use crate::sub::{CommitNotifier, ViewDeltas};
use crate::view::EntangledView;
use crate::wal::{check_table_names, committed_deltas, Wal};

use self::coordinator::Participant;
use self::shard::GroupEnd;

/// File name of the topology manifest inside a sharded base directory.
pub const TOPOLOGY_FILE: &str = "topology.esm";

/// The mutable shard layout: the router and the shards it indexes, kept
/// in lockstep (`router.shard_count() == shards.len()`, range `i` ↔
/// `shards[i]`).
#[derive(Debug)]
pub(crate) struct Topology {
    pub router: ShardRouter,
    pub shards: Vec<Shard>,
    /// Bumped by every split/merge under the topology write lock.
    /// Materialized view windows remember the epoch they were built
    /// against; a mismatch invalidates them (shard WAL cursors do not
    /// survive a layout change).
    pub epoch: u64,
    /// The commit stamp the last split/merge happened at. Subscription
    /// cursors below it predate the current layout and resync.
    pub layout_stamp: u64,
}

pub use crate::engine::CommitReceipt;
use crate::engine::{SnapshotChanges, SnapshotSince};

/// What a sharded recovery found and did.
#[derive(Debug, Clone, Default)]
pub struct ShardRecoveryReport {
    /// Per-shard recovery reports, in topology order.
    pub shards: Vec<RecoveryReport>,
    /// Per-shard in-doubt settlements resolved as committed (some shard
    /// held a commit resolution). Counts shard-side chains, not distinct
    /// transactions: one cross-shard transaction left in doubt on `k`
    /// shards contributes `k`.
    pub committed_in_doubt: u64,
    /// Per-shard in-doubt settlements resolved as aborted (presumed
    /// abort: no shard held a commit resolution). Same per-shard
    /// counting unit as `committed_in_doubt`.
    pub aborted_in_doubt: u64,
    /// Rows pruned because a half-finished rebalance left them outside
    /// their shard's key range.
    pub repaired_rows: u64,
    /// Orphan `shard-*` directories swept (created by a split that
    /// crashed before publishing its topology).
    pub orphan_dirs_swept: u64,
}

struct ViewReg {
    table: String,
    lens: DeltaLens<Table, Table, Delta>,
    /// The tightest first-key-component bounds the view definition's
    /// base-schema selects imply: the pruning hint for reads.
    bounds: (Bound<Value>, Bound<Value>),
    /// The view's output schema (for assembling an empty result when the
    /// bounds prune every shard).
    schema: Schema,
    /// The output schema's key column indices — what subscription drains
    /// coalesce view deltas by.
    view_keys: Vec<usize>,
    /// Per-shard materialized windows, built at registration and
    /// rebuilt on the first read after a topology epoch change. Lock
    /// order is always view windows → topology → shard locks.
    mat: Mutex<ShardedMat>,
}

/// A sharded view's materialized state: one window per in-range shard,
/// each with the shard-WAL position it reflects.
struct ShardedMat {
    /// The topology epoch the windows were built against.
    epoch: u64,
    /// Windows aligned with the pruned shard run (recomputed per read
    /// from the router and the view bounds; stable within an epoch).
    windows: Vec<Window>,
}

struct Window {
    table: Table,
    applied_seq: u64,
}

pub(crate) struct ShardedInner {
    pub(crate) topology: Arc<RwLock<Topology>>,
    views: RwLock<BTreeMap<String, ViewReg>>,
    pub(crate) coordinator: ShardCoordinator,
    stamp: AtomicU64,
    /// Commit signal for push pumps: every settled commit publishes its
    /// global stamp here (see [`crate::sub::CommitNotifier`]).
    notifier: Arc<CommitNotifier>,
    pub(crate) metrics: Metrics,
    pub(crate) shard_metrics: ShardMetrics,
    /// Base durability config (dir = the base directory); `None` for
    /// in-memory engines. Shard `id` logs into `dir/shard-<id>`.
    pub(crate) durable_base: Option<DurabilityConfig>,
    pub(crate) next_shard_id: AtomicU64,
    /// Phase-latency histograms + trace store, shared with every
    /// shard's durable WAL (and handed to shards created later by the
    /// rebalancer).
    pub(crate) telemetry: Arc<Telemetry>,
    /// The address this engine tells redirected writers to retry
    /// against (set by the serving layer after bind; shipped to
    /// replicas in the manifest so their `NotPrimary` errors carry it).
    pub(crate) advertised: Mutex<Option<String>>,
    /// The rebalance policy thread's latest per-shard load view
    /// (rows, cumulative commits, commit-rate EWMA). Folded into
    /// [`ShardedEngineServer::metrics`] so `STATS` exports it without
    /// new locks on the commit path.
    pub(crate) shard_load: Mutex<Vec<ShardLoad>>,
    /// Checkpoints due shards off the commit path; a shard's durable log
    /// wakes it once a checkpoint falls due.
    pub(crate) maintenance: Option<MaintenanceThread>,
}

/// A concurrent, transactional, bidirectional engine whose tables are
/// partitioned across shards by key range. Clone the handle freely:
/// clones share state.
#[derive(Clone)]
pub struct ShardedEngineServer {
    pub(crate) inner: Arc<ShardedInner>,
}

/// Split `db` into per-shard pieces: every shard holds every table (with
/// its schema), each row living on the shard its key routes to. Each
/// table is cut with [`Table::split_off_key`] at the router's split
/// points — one O(log n) tree split per boundary instead of routing
/// row by row.
fn partition(mut db: Database, router: &ShardRouter) -> Vec<Database> {
    let mut pieces: Vec<Database> = (0..router.shard_count()).map(|_| Database::new()).collect();
    let names: Vec<String> = db.table_names().into_iter().map(String::from).collect();
    for name in names {
        let mut remaining = db.drop_table(&name).expect("name came from the database");
        for (i, split) in router.splits().iter().enumerate().rev() {
            let upper = remaining.split_off_key(split);
            pieces[i + 1].replace_table(name.clone(), upper);
        }
        pieces[0].replace_table(name, remaining);
    }
    pieces
}

/// Merge shard pieces into one database (shards hold disjoint keys, so
/// upserts never collide). The first piece's tables move into the result
/// whole; later pieces' rows are upserted into them.
pub(crate) fn assemble(
    mut pieces: impl Iterator<Item = Database>,
) -> Result<Database, EngineError> {
    let Some(mut out) = pieces.next() else {
        return Ok(Database::new());
    };
    for mut piece in pieces {
        let names: Vec<String> = piece.table_names().into_iter().map(String::from).collect();
        for name in names {
            let table = piece.drop_table(&name).expect("name came from the piece");
            match out.table_mut(&name) {
                Ok(merged) => {
                    for row in table.rows() {
                        merged.upsert(row.clone())?;
                    }
                }
                Err(_) => out.replace_table(name, table),
            }
        }
    }
    Ok(out)
}

/// May shard `index` checkpoint right now? Only when no *peer* shard is
/// poisoned or holds an in-doubt 2PC chain: a checkpoint compacts
/// history, and the `!resolve commit` record it could compact away may
/// be the only durable evidence recovery has for settling a peer's
/// in-doubt transaction. Peers are inspected with try-locks (never
/// blocking out of lock order — no deadlock against a coordinator); a
/// busy peer conservatively answers "not safe", deferring to the next
/// maintenance tick. The caller holds `index`'s write lock, so every
/// 2PC this shard participated in has fully finished and its peers'
/// poison/in-doubt state is visible.
fn shards_safe_to_checkpoint(shards: &[Shard], index: usize) -> bool {
    shards.iter().enumerate().all(|(j, shard)| {
        if j == index {
            return true; // own state is covered by needs/begin_checkpoint
        }
        match shard.try_read() {
            Some(state) => state
                .durable
                .as_ref()
                .is_none_or(|d| !d.is_poisoned() && d.in_doubt().is_empty()),
            None => false,
        }
    })
}

/// Checkpoint shard `index` with the file write outside its lock.
/// `force = false` is the maintenance path (only when due, silently
/// skipped when unsafe); `force = true` is the explicit path (always,
/// but still *refusing* — with an error — while a peer holds unresolved
/// 2PC state). The checkpoint is a chunk-sharing clone of the live piece
/// taken under the shard's write lock. Returns `None` for in-memory
/// shards and skipped maintenance passes.
fn checkpoint_shard(
    shards: &[Shard],
    index: usize,
    force: bool,
) -> Result<Option<u64>, EngineError> {
    checkpoint_off_lock(
        || {
            let mut guard = shards[index].write();
            let state = &mut *guard;
            let Some(durable) = state.durable.as_mut() else {
                return Ok(None);
            };
            if !force && !durable.needs_checkpoint() {
                return Ok(None);
            }
            if !shards_safe_to_checkpoint(shards, index) {
                return if force {
                    Err(EngineError::Io(
                        "checkpoint refused: a peer shard is poisoned or holds \
                         in-doubt 2PC state whose evidence compaction could destroy"
                            .into(),
                    ))
                } else {
                    Ok(None)
                };
            }
            Ok(Some((
                durable.begin_checkpoint(state.db.clone())?,
                durable.checkpoint_dir(),
            )))
        },
        |seq| {
            let mut state = shards[index].write();
            match state.durable.as_mut() {
                Some(durable) => durable.finish_checkpoint(seq),
                None => Ok(seq),
            }
        },
    )
}

/// The per-shard durability config for shard `id` under `base`.
pub(crate) fn shard_config(base: &DurabilityConfig, id: u64) -> DurabilityConfig {
    let mut cfg = base.clone();
    cfg.dir = base.dir.join(format!("shard-{id}"));
    cfg
}

impl ShardedEngineServer {
    // ------------------------------------------------------------------
    // Construction.
    // ------------------------------------------------------------------

    /// An in-memory one-shard engine over the tables of `db`.
    ///
    /// # Panics
    ///
    /// If `db` holds a reserved (`!`-prefixed) table name.
    pub fn new(db: Database) -> ShardedEngineServer {
        ShardedEngineServer::with_router(db, ShardRouter::single())
            .expect("in-memory engines over unreserved table names cannot fail to construct")
    }

    /// An in-memory engine over `db`, cut into (up to) `shards` ranges
    /// at key quantiles of the existing data. Use
    /// [`ShardedEngineServer::with_router`] to control the split points.
    pub fn with_shards(db: Database, shards: usize) -> Result<ShardedEngineServer, EngineError> {
        let router = quantile_router(&db, shards);
        ShardedEngineServer::with_router(db, router)
    }

    /// An in-memory engine with explicit split points.
    pub fn with_router(
        db: Database,
        router: ShardRouter,
    ) -> Result<ShardedEngineServer, EngineError> {
        check_table_names(&db)?;
        let pieces = partition(db, &router);
        let shards: Vec<Shard> = pieces
            .into_iter()
            .enumerate()
            .map(|(i, piece)| Shard::new_in_memory(i as u64, piece))
            .collect();
        Ok(ShardedEngineServer::from_parts(
            router,
            shards,
            None,
            ShardCoordinator::default(),
        ))
    }

    /// A durable engine: `config.dir` becomes the base
    /// directory, each shard logs into `shard-<id>/` within it, and the
    /// topology manifest is written atomically. Refuses a directory that
    /// already holds a topology — recover it instead.
    pub fn with_durability(
        db: Database,
        router: ShardRouter,
        config: DurabilityConfig,
    ) -> Result<ShardedEngineServer, EngineError> {
        check_table_names(&db)?;
        std::fs::create_dir_all(&config.dir)?;
        if config.dir.join(TOPOLOGY_FILE).exists() {
            return Err(EngineError::Io(format!(
                "{} already holds a sharded engine; recover it instead of re-creating",
                config.dir.display()
            )));
        }
        let pieces = partition(db, &router);
        let mut shards = Vec::with_capacity(pieces.len());
        for (i, piece) in pieces.into_iter().enumerate() {
            shards.push(Shard::create_durable(
                i as u64,
                piece,
                shard_config(&config, i as u64),
            )?);
        }
        let ids: Vec<u64> = shards.iter().map(Shard::id).collect();
        write_topology(&config.dir, shards.len() as u64, &router, &ids)?;
        Ok(ShardedEngineServer::from_parts(
            router,
            shards,
            Some(config),
            ShardCoordinator::default(),
        ))
    }

    /// Recover an engine from its base directory with default
    /// durability tuning; see [`ShardedEngineServer::recover_with`].
    pub fn recover(
        dir: impl Into<std::path::PathBuf>,
    ) -> Result<(ShardedEngineServer, ShardRecoveryReport), EngineError> {
        ShardedEngineServer::recover_with(DurabilityConfig::new(dir))
    }

    /// Recover an engine: read the topology manifest, recover
    /// every shard's WAL directory, then settle what a crash left
    /// half-done —
    ///
    /// 1. **In-doubt 2PC transactions**: committed iff *any* shard's log
    ///    holds a `!resolve commit` for the gtx (the coordinator never
    ///    writes one before every participant's prepare is fsynced);
    ///    otherwise presumed aborted. The missing resolutions are
    ///    appended to every affected shard, so the logs self-heal and
    ///    every shard lands on the same side — all-or-nothing.
    /// 2. **Rebalance debris**: rows outside their shard's key range
    ///    (a split/merge that crashed between moving data and updating
    ///    the topology) are pruned with a logged repair delta, and
    ///    orphan `shard-*` directories the topology never published are
    ///    swept.
    pub fn recover_with(
        config: DurabilityConfig,
    ) -> Result<(ShardedEngineServer, ShardRecoveryReport), EngineError> {
        let (next_id, router, ids) = read_topology(&config.dir)?;
        let mut report = ShardRecoveryReport::default();

        // Sweep shard directories the topology never published (a split
        // that crashed before its atomic topology rewrite never
        // happened; its half-built directory must not linger to collide
        // with a future split reusing the id).
        let known: BTreeSet<u64> = ids.iter().copied().collect();
        for entry in std::fs::read_dir(&config.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("shard-"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            if !known.contains(&id) {
                std::fs::remove_dir_all(entry.path())?;
                report.orphan_dirs_swept += 1;
            }
        }

        let mut shards = Vec::with_capacity(ids.len());
        let mut in_doubt = Vec::with_capacity(ids.len());
        let mut verdicts: BTreeMap<String, bool> = BTreeMap::new();
        let mut max_gtx = 0u64;
        for &id in &ids {
            let (shard, doubts, shard_report) = Shard::recover(id, shard_config(&config, id))?;
            {
                let state = shard.read();
                let durable = state.durable.as_ref().expect("recovered shards persist");
                for (gtx, committed) in durable.recovered_resolutions() {
                    // A commit verdict anywhere wins over aborts
                    // elsewhere (abort resolutions are only written by a
                    // coordinator that never reached its commit point).
                    let entry = verdicts.entry(gtx.clone()).or_insert(*committed);
                    *entry = *entry || *committed;
                    max_gtx = max_gtx.max(parse_gtx(gtx));
                }
            }
            for gtx in doubts.keys() {
                max_gtx = max_gtx.max(parse_gtx(gtx));
            }
            in_doubt.push(doubts);
            report.shards.push(shard_report);
            shards.push(shard);
        }

        // Settle in-doubt transactions: any commit resolution anywhere →
        // commit everywhere; none → presumed abort everywhere.
        let metrics = ShardMetrics::default();
        for (shard, doubts) in shards.iter().zip(in_doubt) {
            for (gtx, group) in doubts {
                let committed = verdicts.get(&gtx).copied().unwrap_or(false);
                shard.write().resolve(&gtx, committed, &group, true)?;
                if committed {
                    metrics.recovery_commit();
                } else {
                    metrics.recovery_abort();
                }
            }
        }
        report.committed_in_doubt = metrics.snapshot().recovery_commits;
        report.aborted_in_doubt = metrics.snapshot().recovery_aborts;

        // Prune rebalance debris: rows living outside their shard's
        // range (and therefore unreachable through the router) are
        // deleted with a logged repair delta. Only the key ranges below
        // and above the shard's own are visited.
        for (index, shard) in shards.iter().enumerate() {
            let mut state = shard.write();
            let (lo, hi) = router.range_of(index)?;
            let mut repairs: Vec<(String, Delta)> = Vec::new();
            for name in state.db.table_names().into_iter().map(String::from) {
                let table = state.db.table(&name)?;
                let below = lo
                    .into_iter()
                    .flat_map(|lo| table.rows_in_key_range(None, Some(lo)));
                let above = hi
                    .into_iter()
                    .flat_map(|hi| table.rows_in_key_range(Some(hi), None));
                let stray: Vec<Row> = below.chain(above).cloned().collect();
                if !stray.is_empty() {
                    report.repaired_rows += stray.len() as u64;
                    repairs.push((
                        name,
                        Delta {
                            inserted: vec![],
                            deleted: stray,
                        },
                    ));
                }
            }
            if !repairs.is_empty() {
                state.append_group(&repairs, GroupEnd::Commit, true)?;
            }
            // Covers the deferred settle resolutions and repairs above.
            state.sync()?;
        }
        metrics.migrated(report.repaired_rows);

        let engine = ShardedEngineServer::from_parts_with_metrics(
            router,
            shards,
            Some(config),
            ShardCoordinator::starting_after(max_gtx),
            metrics,
            next_id,
        );
        Ok((engine, report))
    }

    fn from_parts(
        router: ShardRouter,
        shards: Vec<Shard>,
        durable_base: Option<DurabilityConfig>,
        coordinator: ShardCoordinator,
    ) -> ShardedEngineServer {
        let next_id = shards.iter().map(Shard::id).max().map_or(0, |m| m + 1);
        ShardedEngineServer::from_parts_with_metrics(
            router,
            shards,
            durable_base,
            coordinator,
            ShardMetrics::default(),
            next_id,
        )
    }

    fn from_parts_with_metrics(
        router: ShardRouter,
        shards: Vec<Shard>,
        durable_base: Option<DurabilityConfig>,
        coordinator: ShardCoordinator,
        shard_metrics: ShardMetrics,
        next_shard_id: u64,
    ) -> ShardedEngineServer {
        let telemetry = Arc::new(match &durable_base {
            Some(c) => Telemetry::with_config(c.telemetry.clone()),
            None => Telemetry::new(),
        });
        let first_stamp = first_stamp();
        let topology = Arc::new(RwLock::new(Topology {
            router,
            shards,
            epoch: 0,
            layout_stamp: first_stamp - 1,
        }));
        let maintenance = durable_base.as_ref().and_then(|cfg| {
            if cfg.checkpoint_every == 0 || cfg.maintenance_interval_ms == 0 {
                return None;
            }
            let target = Arc::clone(&topology);
            Some(MaintenanceThread::spawn(
                std::time::Duration::from_millis(cfg.maintenance_interval_ms),
                move || {
                    let shards: Vec<Shard> = match target.read() {
                        Ok(topo) => topo.shards.clone(),
                        Err(_) => return,
                    };
                    for index in 0..shards.len() {
                        let _ = checkpoint_shard(&shards, index, false);
                    }
                },
            ))
        });
        let waker = maintenance.as_ref().map(MaintenanceThread::waker);
        for shard in &topology.read().expect("a fresh topology lock").shards {
            let mut state = shard.write();
            if let Some(d) = state.durable.as_mut() {
                d.set_telemetry(Some(Arc::clone(&telemetry)));
                d.set_waker(waker.clone());
            }
            // Everything logged so far is this instance's starting state.
            state.stamps.clear();
            state.note_stamp(first_stamp - 1);
        }
        ShardedEngineServer {
            inner: Arc::new(ShardedInner {
                topology,
                views: RwLock::new(BTreeMap::new()),
                coordinator,
                stamp: AtomicU64::new(first_stamp),
                notifier: Arc::new(CommitNotifier::new()),
                metrics: Metrics::default(),
                shard_metrics,
                durable_base,
                next_shard_id: AtomicU64::new(next_shard_id),
                telemetry,
                advertised: Mutex::new(None),
                shard_load: Mutex::new(Vec::new()),
                maintenance,
            }),
        }
    }

    // ------------------------------------------------------------------
    // Introspection.
    // ------------------------------------------------------------------

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.topology().shards.len()
    }

    /// A copy of the current router (split points change under
    /// rebalancing).
    pub fn router(&self) -> ShardRouter {
        self.topology().router.clone()
    }

    /// The topology index of the shard owning `key` right now.
    pub fn shard_of_key(&self, key: &Row) -> usize {
        self.topology().router.shard_of(key)
    }

    /// Registered table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let topo = self.topology();
        match topo.shards.first() {
            Some(shard) => shard
                .read()
                .db
                .table_names()
                .into_iter()
                .map(String::from)
                .collect(),
            None => Vec::new(),
        }
    }

    /// A consistent snapshot of one table, assembled across shards
    /// under all shard read locks. Only that table is copied.
    pub fn table(&self, name: &str) -> Result<Table, EngineError> {
        let topo = self.topology();
        let guards: Vec<_> = topo.shards.iter().map(Shard::read).collect();
        let mut pieces = guards.iter().map(|g| {
            g.db.table(name)
                .map_err(|_| EngineError::NoSuchTable(name.to_string()))
        });
        let mut out = match pieces.next() {
            Some(first) => first?.clone(),
            None => return Err(EngineError::NoSuchTable(name.to_string())),
        };
        for piece in pieces {
            for row in piece?.rows() {
                out.upsert(row.clone())?;
            }
        }
        Ok(out)
    }

    /// A consistent snapshot of the whole database: all shard read locks
    /// are held together (in index order), so no cross-shard transaction
    /// is ever observed half-applied.
    pub fn snapshot(&self) -> Database {
        let topo = self.topology();
        let guards: Vec<_> = topo.shards.iter().map(Shard::read).collect();
        assemble(guards.iter().map(|g| g.db.clone()))
            .expect("shard pieces share schemas and disjoint keys")
    }

    /// The database at the current commit stamp, for a caller holding it
    /// at stamp `since`: under every shard's read lock (as
    /// [`Self::snapshot`] takes them), the base-table deltas committed
    /// after `since`, coalesced per table — O(delta), read by
    /// [`committed_since`] as the subscription drain reads it. The whole
    /// chunk-sharing snapshot comes back instead when `since` is `None`,
    /// outside the live WAL window (trimmed away or ahead of the last
    /// stamp), older than the last split or merge, or followed by an
    /// unsettled tail.
    pub fn snapshot_since(&self, since: Option<u64>) -> SnapshotSince {
        let topo = self.topology();
        let guards: Vec<_> = topo.shards.iter().map(Shard::read).collect();
        // Under every shard's read lock each stamp issued so far is
        // applied, and none can land.
        let stamp = self.last_stamp();
        let deltas = since.and_then(|from| {
            let run = committed_since(&guards, topo.layout_stamp, from, stamp).ok()?;
            let mut runs: BTreeMap<&str, Vec<&Delta>> = BTreeMap::new();
            for (table, delta) in run {
                runs.entry(table).or_default().push(delta);
            }
            let schemas = &guards.first()?.db;
            let mut deltas = Vec::with_capacity(runs.len());
            for (name, run) in runs {
                let key = schemas.table(name).ok()?.schema().key_indices();
                let delta = Delta::coalesce(run, key);
                if !delta.is_empty() {
                    deltas.push((name.to_string(), delta));
                }
            }
            Some(deltas)
        });
        let changes = match deltas {
            Some(deltas) => SnapshotChanges::Deltas(deltas),
            None => SnapshotChanges::Full(
                assemble(guards.iter().map(|g| g.db.clone()))
                    .expect("shard pieces share schemas and disjoint keys"),
            ),
        };
        SnapshotSince { stamp, changes }
    }

    /// Per-shard snapshots of the in-memory WALs, in topology order.
    /// Each holds at most [`crate::wal::WAL_RETAINED_RECORDS`] records
    /// plus an unsettled tail.
    pub fn shard_wals(&self) -> Vec<Wal> {
        let topo = self.topology();
        topo.shards.iter().map(|s| s.read().wal.clone()).collect()
    }

    /// Current engine counters: commit/conflict/retry totals, sharding
    /// stats, and durable-WAL stats summed across shards.
    pub fn metrics(&self) -> MetricsSnapshot {
        let mut wal = WalStats::default();
        let mut trims = (0, 0);
        {
            let topo = self.topology();
            for shard in &topo.shards {
                let state = shard.read();
                trims.0 += state.trims.0;
                trims.1 += state.trims.1;
                if let Some(d) = state.durable.as_ref() {
                    let s = d.stats();
                    wal.appends += s.appends;
                    wal.syncs += s.syncs;
                    wal.bytes_written += s.bytes_written;
                    wal.rotations += s.rotations;
                    wal.checkpoints += s.checkpoints;
                    wal.segments_compacted += s.segments_compacted;
                }
            }
        }
        let load: Vec<ShardLoad> = self
            .inner
            .shard_load
            .lock()
            .map(|l| l.clone())
            .unwrap_or_default();
        let mut shard_stats = self.inner.shard_metrics.snapshot();
        let rates: Vec<u64> = load.iter().map(|l| l.rate_ewma_milli).collect();
        if let Some(&max) = rates.iter().max() {
            shard_stats.commit_rate_ewma_milli = max;
            let min = *rates.iter().min().expect("non-empty");
            shard_stats.commit_rate_skew_milli = match max.saturating_mul(1000).checked_div(min) {
                Some(skew) => skew,
                // An idle fleet is perfectly level; any load over a
                // zero-rate shard is infinitely skewed.
                None if max == 0 => 1000,
                None => u64::MAX,
            };
        }
        let mut snapshot = self.inner.metrics.snapshot();
        (snapshot.wal_truncations, snapshot.wal_records_truncated) = trims;
        snapshot
            .with_wal(wal)
            .with_shard(shard_stats)
            .with_shard_load(load)
    }

    /// Record the address writers should be redirected to (typically the
    /// net layer's bound address). Ships to replicas in the replication
    /// manifest; their `NotPrimary` errors carry it.
    pub fn advertise(&self, addr: impl Into<String>) {
        if let Ok(mut a) = self.inner.advertised.lock() {
            *a = Some(addr.into());
        }
    }

    /// The advertised primary address, if one was set.
    pub fn advertised_addr(&self) -> Option<String> {
        self.inner.advertised.lock().ok().and_then(|a| a.clone())
    }

    /// The median primary key of shard `index`'s largest table — the
    /// split point the auto-rebalance policy feeds to
    /// [`ShardedEngineServer::split_shard`] so each half keeps about half
    /// the rows. `None` when the shard has fewer than two rows in every
    /// table (nothing to split).
    pub fn median_split_key(&self, index: usize) -> Option<Row> {
        let topo = self.topology();
        let shard = topo.shards.get(index)?;
        let state = shard.read();
        let largest = state
            .db
            .table_names()
            .into_iter()
            .filter_map(|n| state.db.table(n).ok())
            .max_by_key(|t| t.len())?;
        if largest.len() < 2 {
            return None;
        }
        let mid = largest.key_at(largest.len() / 2)?;
        // A split at the very first key moves everything and leaves an
        // empty lower shard; step forward instead.
        if Some(&mid) == largest.key_at(0).as_ref() {
            largest.key_at(largest.len() / 2 + 1)
        } else {
            Some(mid)
        }
    }

    /// Per-shard load right now: rows (largest table), cumulative
    /// commits, and the policy thread's EWMA (zero until a policy runs).
    /// Topology order; the `shard` field carries stable shard ids.
    pub fn shard_load(&self) -> Vec<ShardLoad> {
        let ewmas: BTreeMap<u64, u64> = self
            .inner
            .shard_load
            .lock()
            .map(|l| l.iter().map(|s| (s.shard, s.rate_ewma_milli)).collect())
            .unwrap_or_default();
        let topo = self.topology();
        topo.shards
            .iter()
            .map(|shard| {
                let state = shard.read();
                let rows = state
                    .db
                    .table_names()
                    .into_iter()
                    .filter_map(|n| state.db.table(n).ok().map(Table::len))
                    .max()
                    .unwrap_or(0) as u64;
                ShardLoad {
                    shard: shard.id(),
                    rows,
                    commits: shard.commit_count(),
                    rate_ewma_milli: ewmas.get(&shard.id()).copied().unwrap_or(0),
                }
            })
            .collect()
    }

    /// Publish the policy thread's freshly computed load view (see
    /// [`crate::repl::PolicyConfig`]).
    pub(crate) fn set_shard_load(&self, load: Vec<ShardLoad>) {
        if let Ok(mut l) = self.inner.shard_load.lock() {
            *l = load;
        }
    }

    /// The base directory of a durable engine (`None` when in
    /// memory) — where the topology manifest and `shard-<id>/` WAL
    /// directories live, and what [`crate::repl`] ships from.
    pub fn durable_base_dir(&self) -> Option<std::path::PathBuf> {
        self.inner.durable_base.as_ref().map(|c| c.dir.clone())
    }

    /// Per-shard last durable sequence numbers, keyed by stable shard
    /// id — the replication manifest's lag reference.
    pub(crate) fn shard_last_seqs(&self) -> BTreeMap<u64, u64> {
        let topo = self.topology();
        topo.shards
            .iter()
            .map(|s| {
                let last = s.read().durable.as_ref().map_or(0, |d| d.last_seq());
                (s.id(), last)
            })
            .collect()
    }

    /// The live phase-latency registry (shared with every shard's
    /// durable WAL). Exposed so embedders can tune the slow threshold
    /// and the trace sampling rate; take
    /// [`ShardedEngineServer::telemetry`] for a snapshot.
    pub fn telemetry_registry(&self) -> &Arc<Telemetry> {
        &self.inner.telemetry
    }

    /// A point-in-time copy of the phase-latency histograms and the
    /// slow-trace threshold.
    pub fn telemetry(&self) -> TelemetrySnapshot {
        self.inner.telemetry.snapshot()
    }

    /// Force-fsync every shard's group-commit batch. No-op in memory.
    pub fn sync_wal(&self) -> Result<(), EngineError> {
        let topo = self.topology();
        for shard in &topo.shards {
            shard.write().sync()?;
        }
        Ok(())
    }

    /// Checkpoint (and compact) every shard now. Returns the covered
    /// seqs, or `None` for in-memory engines. Refuses while any shard is
    /// poisoned or holds in-doubt 2PC state — a checkpoint must never
    /// compact away the resolution evidence a peer still needs at
    /// recovery.
    pub fn checkpoint(&self) -> Result<Option<Vec<u64>>, EngineError> {
        let shards = self.topology().shards.clone();
        let mut seqs = Vec::with_capacity(shards.len());
        for index in 0..shards.len() {
            match checkpoint_shard(&shards, index, true)? {
                Some(seq) => seqs.push(seq),
                None => return Ok(None), // in-memory shard
            }
        }
        Ok(Some(seqs))
    }

    /// Run one maintenance pass over every shard — what the background
    /// thread does each tick: checkpoint iff due and safe, with the file
    /// writes outside the shard locks. A no-op in memory. Deterministic
    /// tests and embedders that disable the thread drive this directly.
    /// (The in-memory WAL needs no pass: every append keeps it within
    /// [`crate::wal::WAL_RETAINED_RECORDS`].)
    pub fn run_maintenance(&self) -> Result<(), EngineError> {
        let shards = self.topology().shards.clone();
        for index in 0..shards.len() {
            checkpoint_shard(&shards, index, false)?;
        }
        Ok(())
    }

    pub(crate) fn topology(&self) -> std::sync::RwLockReadGuard<'_, Topology> {
        self.inner.topology.read().expect("topology lock poisoned")
    }

    // ------------------------------------------------------------------
    // Transactions.
    // ------------------------------------------------------------------

    /// Run `body` in a snapshot transaction over the whole database,
    /// retrying first-committer-wins conflicts up to `max_attempts`
    /// times. The commit routes per key: one shard → fast path, several
    /// → two-phase commit.
    pub fn transact(
        &self,
        max_attempts: u32,
        body: impl Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        self.run_transact(None, max_attempts, FailPoint::None, body)
    }

    /// [`ShardedEngineServer::transact`] restricted to the shards owning
    /// `keys`: only those shards are snapshotted and locked, so the
    /// fast path touches one shard end to end. The transaction may only
    /// write rows whose keys route to a declared shard — anything else
    /// is rejected with [`EngineError::ShardTopology`].
    pub fn transact_keys(
        &self,
        keys: &[Row],
        max_attempts: u32,
        body: impl Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        self.run_transact(Some(keys), max_attempts, FailPoint::None, body)
    }

    /// [`ShardedEngineServer::transact_keys`] with coordinator crash
    /// injection — the recovery test harness. After a failpoint fires
    /// the engine is mid-protocol by design; discard it and recover the
    /// directory.
    pub fn transact_keys_failpoint(
        &self,
        keys: &[Row],
        max_attempts: u32,
        failpoint: FailPoint,
        body: impl Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        self.run_transact(Some(keys), max_attempts, failpoint, body)
    }

    /// Delta-direct checked commit — the engine side of the wire
    /// protocol's `commit` request. When every row routes to one shard
    /// (always, on a one-shard engine) it is O(delta): no snapshot and no
    /// re-diff. Pre-image validation against the live piece under the
    /// shard's write lock (`ShardState::check_pre_images`) is
    /// the first-committer-wins check, then the deltas append as one
    /// chain. Deltas spanning shards run one checked transaction
    /// attempt over just the touched shards (two-phase commit).
    pub fn commit_deltas_checked(
        &self,
        deltas: &[(String, Delta)],
    ) -> Result<CommitReceipt, EngineError> {
        let nonempty: Vec<(String, Delta)> = deltas
            .iter()
            .filter(|(_, d)| !d.is_empty())
            .cloned()
            .collect();
        let topo = self.topology();
        let mut keys: Vec<Row> = Vec::new();
        let mut touched: BTreeSet<usize> = BTreeSet::new();
        {
            let Some(first) = topo.shards.first() else {
                return Err(EngineError::ShardTopology("no shards".into()));
            };
            let state = first.read();
            for (name, delta) in &nonempty {
                // Every shard holds every table's schema; key extraction
                // needs only that. Reject wrong-arity rows here, before
                // key projection can panic on them.
                let table = state
                    .db
                    .table(name)
                    .map_err(|_| EngineError::NoSuchTable(name.clone()))?;
                let arity = table.schema().columns().len();
                for row in delta.inserted.iter().chain(delta.deleted.iter()) {
                    if row.len() != arity {
                        return Err(EngineError::Store(esm_store::StoreError::Arity {
                            expected: arity,
                            got: row.len(),
                        }));
                    }
                    let key = table.key_of(row);
                    touched.insert(topo.router.shard_of(&key));
                    keys.push(key);
                }
            }
        }
        let index = match touched.len() {
            0 => {
                return Ok(CommitReceipt {
                    stamp: self.last_stamp(),
                    shards: Vec::new(),
                    deltas: BTreeMap::new(),
                    gtx: None,
                })
            }
            1 => *touched.first().expect("one shard"),
            _ => {
                drop(topo);
                return self.transact_keys(&keys, 1, |db| {
                    crate::engine::apply_deltas_checked(db, deltas)
                        .inspect_err(|e| self.note_conflict(e))
                });
            }
        };
        let stamp = self.commit_on_shard(index, &topo.shards[index], &nonempty, |state| {
            (state.check_pre_images(&nonempty)).inspect_err(|e| self.note_conflict(e))
        })?;
        let mut merged: BTreeMap<String, Delta> = BTreeMap::new();
        for (name, delta) in nonempty {
            let entry = merged.entry(name).or_default();
            entry.inserted.extend(delta.inserted);
            entry.deleted.extend(delta.deleted);
        }
        Ok(CommitReceipt {
            stamp,
            shards: vec![index],
            deltas: merged,
            gtx: None,
        })
    }

    /// The single-shard commit: under `shard`'s write lock run
    /// `validate`, append `deltas` as one chain, issue the commit stamp
    /// and index it, then (locks dropped) wait for the group fsync and
    /// publish the stamp. Returns the stamp.
    fn commit_on_shard(
        &self,
        index: usize,
        shard: &Shard,
        deltas: &[(String, Delta)],
        validate: impl FnOnce(&shard::ShardState) -> Result<(), EngineError>,
    ) -> Result<u64, EngineError> {
        let tel = &self.inner.telemetry;
        // The lock-hold region ends where the write guard drops, on
        // every path (it is declared after the guard, so it drops first).
        let mut guard = shard.write();
        let lock_hold = tel.start(Phase::CommitLockHold);
        {
            let _validate = tel
                .start(Phase::CommitValidate)
                .tag(|| format!("shard:{index}"));
            validate(&guard)?;
        }
        // Defer the fsync when the shard has a group-commit gate: after
        // the lock drops, this session parks on the gate and one leader
        // fsyncs the whole cross-session batch.
        let appended = guard.append_group(deltas, GroupEnd::Commit, shard.has_group_commit())?;
        let stamp = self.inner.stamp.fetch_add(1, Ordering::SeqCst);
        guard.note_stamp(stamp);
        drop(lock_hold);
        drop(guard);
        shard.wait_group(appended.end.saturating_sub(1))?;
        self.inner
            .metrics
            .commit(deltas.iter().map(|(_, d)| d.len() as u64).sum());
        self.inner.shard_metrics.single_shard_commit();
        shard.note_commit();
        self.inner.notifier.publish(stamp);
        Ok(stamp)
    }

    fn run_transact(
        &self,
        keys: Option<&[Row]>,
        max_attempts: u32,
        failpoint: FailPoint,
        body: impl Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        let mut attempts = 0;
        loop {
            // The topology read lock pins the shard layout for the whole
            // attempt (rebalances queue behind it — their write fence).
            let topo = self.topology();
            let participant_set: Option<BTreeSet<usize>> =
                keys.map(|keys| keys.iter().map(|k| topo.router.shard_of(k)).collect());
            let (mut snapshot, snap_seqs) =
                self.snapshot_with_seqs(&topo, participant_set.as_ref())?;
            let mut working = snapshot.clone();
            body(&mut working)?;
            let mut deltas = BTreeMap::new();
            for name in snapshot.table_names() {
                let delta = Delta::between(snapshot.table(name)?, working.table(name)?)?;
                if !delta.is_empty() {
                    deltas.insert(name.to_string(), delta);
                }
            }
            drop(working);
            release_rows(&mut snapshot);
            match self.commit_deltas(&topo, &snapshot, &snap_seqs, &deltas, failpoint) {
                Ok(receipt) => return Ok(receipt),
                Err(EngineError::Conflict { .. }) if attempts + 1 < max_attempts => {
                    attempts += 1;
                    self.inner.metrics.retry();
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Snapshot the participant shards (all of them when `None`) under
    /// simultaneously-held read locks, returning the assembled database
    /// and each participant's WAL position.
    fn snapshot_with_seqs(
        &self,
        topo: &Topology,
        participants: Option<&BTreeSet<usize>>,
    ) -> Result<(Database, BTreeMap<usize, u64>), EngineError> {
        let indexes: Vec<usize> = match participants {
            Some(set) => set.iter().copied().collect(),
            None => (0..topo.shards.len()).collect(),
        };
        for &i in &indexes {
            if i >= topo.shards.len() {
                return Err(EngineError::ShardTopology(format!("no shard {i}")));
            }
        }
        let _snapshot = self.inner.telemetry.start(Phase::CommitSnapshot);
        let guards: Vec<_> = indexes.iter().map(|&i| topo.shards[i].read()).collect();
        let snap_seqs = indexes
            .iter()
            .zip(guards.iter())
            .map(|(&i, g)| (i, g.wal.last_seq()))
            .collect();
        let snapshot = assemble(guards.iter().map(|g| g.db.clone()))?;
        Ok((snapshot, snap_seqs))
    }

    /// Route `deltas` per key and commit: empty → no-op receipt, one
    /// shard → fast path under its lock, several → 2PC via the
    /// coordinator. `snap_seqs` must cover every routed shard (it always
    /// does for whole-database snapshots; keyed transactions that stray
    /// outside their declared key set are rejected).
    fn commit_deltas(
        &self,
        topo: &Topology,
        snapshot: &Database,
        snap_seqs: &BTreeMap<usize, u64>,
        deltas: &BTreeMap<String, Delta>,
        failpoint: FailPoint,
    ) -> Result<CommitReceipt, EngineError> {
        // Route every changed row to its shard.
        let mut per_shard: BTreeMap<usize, BTreeMap<String, Delta>> = BTreeMap::new();
        for (name, delta) in deltas {
            let table = snapshot.table(name)?;
            for row in &delta.inserted {
                let shard = topo.router.shard_of(&table.key_of(row));
                per_shard
                    .entry(shard)
                    .or_default()
                    .entry(name.clone())
                    .or_insert_with(Delta::empty)
                    .inserted
                    .push(row.clone());
            }
            for row in &delta.deleted {
                let shard = topo.router.shard_of(&table.key_of(row));
                per_shard
                    .entry(shard)
                    .or_default()
                    .entry(name.clone())
                    .or_insert_with(Delta::empty)
                    .deleted
                    .push(row.clone());
            }
        }
        for &shard in per_shard.keys() {
            if !snap_seqs.contains_key(&shard) {
                return Err(EngineError::ShardTopology(format!(
                    "transaction wrote a key owned by shard {shard} without declaring it"
                )));
            }
        }
        let rows: u64 = deltas.values().map(|d| d.len() as u64).sum();

        if per_shard.is_empty() {
            return Ok(CommitReceipt {
                stamp: self.inner.stamp.fetch_add(1, Ordering::SeqCst),
                shards: Vec::new(),
                deltas: BTreeMap::new(),
                gtx: None,
            });
        }

        if per_shard.len() == 1 {
            // Fast path: one shard, no coordination.
            let (&index, tables) = per_shard.iter().next().expect("len == 1");
            let shard_deltas: Vec<(String, Delta)> =
                tables.iter().map(|(t, d)| (t.clone(), d.clone())).collect();
            let keys = keys_of(snapshot, &shard_deltas)?;
            let snap_seq = snap_seqs[&index];
            let stamp = self.commit_on_shard(
                index,
                &topo.shards[index],
                &shard_deltas,
                |state| match state.fcw_conflict(snap_seq, &keys)? {
                    None => Ok(()),
                    Some((table, seq)) => {
                        self.inner.metrics.conflict();
                        Err(EngineError::Conflict {
                            table,
                            detail: format!(
                                "snapshot at seq {snap_seq} overlaps commit seq {seq} \
                                     on shard {index}"
                            ),
                        })
                    }
                },
            )?;
            return Ok(CommitReceipt {
                stamp,
                shards: vec![index],
                deltas: deltas.clone(),
                gtx: None,
            });
        }

        // Cross-shard: two-phase commit, participants in index order.
        let mut participants = Vec::with_capacity(per_shard.len());
        for (&index, tables) in &per_shard {
            let shard_deltas: Vec<(String, Delta)> =
                tables.iter().map(|(t, d)| (t.clone(), d.clone())).collect();
            let keys = keys_of(snapshot, &shard_deltas)?;
            participants.push(Participant {
                index,
                shard: &topo.shards[index],
                snap_seq: snap_seqs[&index],
                deltas: shard_deltas,
                keys,
            });
        }
        let n = participants.len() as u64;
        let twopc = esm_obs::trace::span_tagged("twopc", || format!("participants:{n}"));
        let result = self.inner.coordinator.commit_cross(
            &participants,
            failpoint,
            Some(&self.inner.telemetry),
            || self.inner.stamp.fetch_add(1, Ordering::SeqCst),
        );
        drop(twopc);
        match result {
            Ok((gtx, stamp)) => {
                self.inner.metrics.commit(rows);
                self.inner.shard_metrics.cross_shard_commit(n);
                for p in &participants {
                    p.shard.note_commit();
                }
                self.inner.notifier.publish(stamp);
                Ok(CommitReceipt {
                    stamp,
                    shards: per_shard.keys().copied().collect(),
                    deltas: deltas.clone(),
                    gtx: Some(gtx),
                })
            }
            Err(e) => {
                if matches!(e, EngineError::Conflict { .. }) {
                    self.inner.metrics.conflict();
                }
                Err(e)
            }
        }
    }

    // ------------------------------------------------------------------
    // Views (the EntangledView facade).
    // ------------------------------------------------------------------

    /// Compile and register a named entangled view over `table`.
    ///
    /// The definition is compiled against the table's schema (read from
    /// the first shard piece; no rows are copied), and base columns its
    /// select stages constrain get secondary indexes on every shard's
    /// piece (reads seek instead of scanning). Registration runs the one
    /// sanctioned full lens `get`: the view's windows are materialized
    /// here, and every later read maintains them from committed deltas.
    pub fn define_view(
        &self,
        name: impl Into<String>,
        table: impl Into<String>,
        def: &ViewDef,
    ) -> Result<EntangledView, EngineError> {
        let name = name.into();
        let table = table.into();
        if self
            .inner
            .views
            .read()
            .expect("views lock poisoned")
            .contains_key(&name)
        {
            return Err(EngineError::ViewExists(name));
        }
        let base = {
            let topo = self.topology();
            let first = topo.shards.first().map(Shard::read);
            match first.as_ref().map(|piece| piece.db.table(&table)) {
                Some(Ok(piece)) => piece.schema().clone(),
                _ => return Err(EngineError::NoSuchTable(table)),
            }
        };
        let (lens, schema) = def.compile_schema(&base)?;
        // The pruning hint: the view's base-schema selects constrain the
        // first key column (whole-row-keyed tables key on their first
        // column).
        let bounds = match base
            .key()
            .first()
            .map(String::as_str)
            .or_else(|| base.column_names().first().copied())
        {
            Some(key_col) => def.key_bounds(key_col),
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        let mat = {
            let topo = self.topology();
            for col in def.index_candidates() {
                for shard in &topo.shards {
                    let mut state = shard.write();
                    state.db.table_mut(&table)?.create_index(&col)?;
                }
            }
            let guards: Vec<_> = shard_run(&topo, &bounds)
                .into_iter()
                .map(|i| topo.shards[i].read())
                .collect();
            self.materialize(&lens, &table, topo.epoch, &guards)?
        };
        let mut views = self.inner.views.write().expect("views lock poisoned");
        if views.contains_key(&name) {
            return Err(EngineError::ViewExists(name));
        }
        views.insert(
            name.clone(),
            ViewReg {
                table,
                lens,
                bounds,
                view_keys: schema.key_indices().to_vec(),
                schema,
                mat: Mutex::new(mat),
            },
        );
        drop(views);
        self.view(&name)
    }

    /// A client handle onto a registered view.
    pub fn view(&self, name: &str) -> Result<EntangledView, EngineError> {
        let views = self.inner.views.read().expect("views lock poisoned");
        if !views.contains_key(name) {
            return Err(EngineError::NoSuchView(name.to_string()));
        }
        Ok(EntangledView::attach(Arc::new(self.clone()), name))
    }

    /// The commit signal shared by every shard: each settled commit
    /// publishes its global stamp here. Push pumps park on it instead of
    /// polling [`Self::metrics`].
    pub fn commit_notifier(&self) -> Arc<CommitNotifier> {
        Arc::clone(&self.inner.notifier)
    }

    /// The last *issued* global commit stamp (one below the instance's
    /// first stamp on an untouched engine).
    fn last_stamp(&self) -> u64 {
        self.inner.stamp.load(Ordering::SeqCst).saturating_sub(1)
    }

    /// The subscription cursor a fresh subscriber of `name` should start
    /// from: the current global commit stamp. A subscriber that adopts a
    /// window from [`Self::read_view`] taken *after* this call misses
    /// nothing by draining from here.
    pub fn view_cursor(&self, name: &str) -> Result<u64, EngineError> {
        self.with_view(name, |_| Ok(self.last_stamp()))
    }

    /// Everything settled past `cursor` (a commit stamp) for view
    /// `name`, coalesced into one view-level delta — the subscription
    /// fan-out primitive.
    ///
    /// O(delta) on every shard count: under the read locks of the view's
    /// shard run, each shard's stamp index maps the cursor to a position
    /// in its log, and the committed records past it are translated
    /// through the lens's propagator **without touching the view's
    /// windows**, so subscriber drains never serialize against readers
    /// or each other. Falls back to a full-window *resync* batch only
    /// when the cursor is outside the live window (truncated away,
    /// ahead of the last stamp, or before the last split/merge) or a
    /// record hits the propagation escape hatch.
    pub fn view_deltas_since(&self, name: &str, cursor: u64) -> Result<ViewDeltas, EngineError> {
        let sub_drain = self
            .inner
            .telemetry
            .start(Phase::SubDrain)
            .tag(|| name.to_string());
        let drained = self.with_view(name, |reg| {
            let topo = self.topology();
            let run = shard_run(&topo, &reg.bounds);
            let guards: Vec<_> = run.iter().map(|&i| topo.shards[i].read()).collect();
            // Under the run's read locks every commit stamped so far is
            // fully applied on these shards, and none can land.
            let to = self.last_stamp();
            let pending = match committed_since(&guards, topo.layout_stamp, cursor, to) {
                Ok(pending) => pending,
                Err(NoRun::OutOfWindow) => return Ok(None),
                // Unsettled trailing transaction: push once it settles.
                Err(NoRun::Unsettled) => return Ok(Some(ViewDeltas::empty(cursor))),
            };
            let mut view_deltas = Vec::new();
            for (_, delta) in pending.into_iter().filter(|(t, _)| *t == reg.table) {
                match reg.lens.get_delta(delta) {
                    DeltaOutcome::View(vd) => view_deltas.push(vd),
                    DeltaOutcome::Rebuild => return Ok(None),
                }
            }
            Ok(Some(ViewDeltas {
                from_seq: cursor,
                to_seq: to,
                delta: Delta::coalesce(&view_deltas, &reg.view_keys),
                resync: None,
            }))
        });
        drop(sub_drain);
        match drained? {
            Some(batch) => Ok(batch),
            None => {
                let (window, stamp) = self.read_view_at(name)?;
                Ok(ViewDeltas {
                    from_seq: cursor,
                    to_seq: stamp,
                    delta: Delta::empty(),
                    resync: Some(window),
                })
            }
        }
    }

    /// Registered view names, sorted.
    pub fn view_names(&self) -> Vec<String> {
        self.inner
            .views
            .read()
            .expect("views lock poisoned")
            .keys()
            .cloned()
            .collect()
    }

    fn with_view<R>(
        &self,
        name: &str,
        f: impl FnOnce(&ViewReg) -> Result<R, EngineError>,
    ) -> Result<R, EngineError> {
        let views = self.inner.views.read().expect("views lock poisoned");
        let reg = views
            .get(name)
            .ok_or_else(|| EngineError::NoSuchView(name.to_string()))?;
        f(reg)
    }

    /// (Re)build a view's windows from the live pieces of its shard run
    /// (`guards`, read-locked by the caller in run order) — the one full
    /// lens `get`, at registration and after a topology change.
    fn materialize(
        &self,
        lens: &DeltaLens<Table, Table, Delta>,
        table: &str,
        epoch: u64,
        guards: &[std::sync::RwLockReadGuard<'_, shard::ShardState>],
    ) -> Result<ShardedMat, EngineError> {
        let _rebuild = self.inner.telemetry.start(Phase::ViewRebuild);
        let mut windows = Vec::with_capacity(guards.len());
        for guard in guards {
            windows.push(Window {
                table: lens.get(guard.db.table(table)?),
                applied_seq: guard.wal.last_seq(),
            });
        }
        self.inner.metrics.view_rebuild();
        Ok(ShardedMat { epoch, windows })
    }

    /// Read a view against a consistent cross-shard state of its base
    /// table.
    ///
    /// Served from per-shard materialized windows: only the shards the
    /// view's key bounds can touch are consulted (the rest are pruned
    /// without cloning anything), and each consulted shard contributes
    /// the committed WAL records since its window's cursor, translated
    /// through the lens's delta propagator — O(changes) per read, never
    /// a whole-database assembly. Full per-shard lens `get`s happen only
    /// at registration, after a topology change (split/merge), or on a
    /// propagation escape hatch.
    pub fn read_view(&self, name: &str) -> Result<Table, EngineError> {
        self.read_view_at(name).map(|(window, _)| window)
    }

    /// [`Self::read_view`] plus the commit stamp the returned window
    /// reflects — the cursor a subscriber that adopts this window
    /// resumes draining from.
    fn read_view_at(&self, name: &str) -> Result<(Table, u64), EngineError> {
        self.inner.metrics.view_read();
        self.with_view(name, |reg| {
            let mut mat = reg.mat.lock().expect("view windows lock poisoned");
            let topo = self.topology();
            let run = shard_run(&topo, &reg.bounds);
            let pruned = topo.shards.len() - run.len();
            if pruned > 0 {
                self.inner.metrics.view_pruned(pruned as u64);
            }

            // All in-run shard read locks are held together (in index
            // order), so a cross-shard 2PC is never observed
            // half-applied; out-of-run shards cannot contribute view
            // rows, so their in-flight halves are invisible by
            // construction.
            let guards: Vec<_> = run.iter().map(|&i| topo.shards[i].read()).collect();
            let stamp = self.last_stamp();

            if mat.epoch != topo.epoch {
                *mat = self.materialize(&reg.lens, &reg.table, topo.epoch, &guards)?;
            } else {
                let mut clean = true;
                for (window, guard) in mat.windows.iter_mut().zip(&guards) {
                    clean &= self.drain_shard_window(reg, window, guard)?;
                }
                drop(guards);
                // A materialized read means *no* window re-ran its lens
                // get.
                if clean {
                    self.inner.metrics.view_materialized();
                }
            }

            // Concatenate the windows chunk-wise: the lens retains the
            // base key, and the run's shards own disjoint, ascending key
            // ranges, so each window's chunks append whole (O(chunks)).
            let out = match mat.windows.as_slice() {
                [only] => only.table.clone(),
                windows => {
                    let mut out = Table::new(reg.schema.clone());
                    for w in windows {
                        out.append(&w.table)?;
                    }
                    out
                }
            };
            Ok((out, stamp))
        })
    }

    /// Fold one shard's committed records since the window cursor into
    /// the window (the shared [`crate::view::drain_into_window`]
    /// algorithm). 2PC chains apply only at their commit resolution —
    /// the same transaction structure as WAL replay. If the drained run
    /// ends unsettled (a coordinator mid-protocol, impossible under the
    /// participant-lock discipline but cheap to tolerate), the window
    /// and cursor stay untouched: the read serves the last settled
    /// state, and the next read drains the resolved run. Returns
    /// whether the window was maintained without the rebuild escape
    /// hatch.
    fn drain_shard_window(
        &self,
        reg: &ViewReg,
        window: &mut Window,
        shard: &shard::ShardState,
    ) -> Result<bool, EngineError> {
        let tel = &self.inner.telemetry;
        if window.applied_seq < shard.wal.start_seq() {
            // The log was trimmed past this window's cursor (more than
            // the retained records committed since its last read): the
            // records it needs are gone, so rebuild from the live shard
            // piece instead of silently serving a stale window.
            let _rebuild = tel.start(Phase::ViewRebuild);
            window.table = reg.lens.get(shard.db.table(&reg.table)?);
            window.applied_seq = shard.wal.last_seq();
            self.inner.metrics.view_rebuild();
            return Ok(false);
        }
        let drain = tel.start(Phase::ViewDrain);
        let records = shard.wal.records_after(window.applied_seq);
        if records.is_empty() {
            return Ok(true);
        }
        let deltas = committed_deltas(records);
        drop(drain);
        let Some(deltas) = deltas else {
            return Ok(true); // unsettled tail: serve the last settled state
        };
        let deltas = deltas.into_iter().filter(|(t, _)| *t == reg.table);
        // `deltas_applied` counts only changes that actually survive
        // into the window (a rebuild discards the whole run).
        let fold = tel.start(Phase::ViewDeltaFold);
        let folded =
            crate::view::drain_into_window(&reg.lens, deltas.map(|(_, d)| d), &mut window.table);
        drop(fold);
        let clean = match folded {
            Some(drained) => {
                self.inner.metrics.view_deltas(drained);
                true
            }
            None => {
                // Escape hatch: re-run the lens get on this shard's
                // live piece (consistent with the WAL position under
                // the held read lock).
                let _rebuild = tel.start(Phase::ViewRebuild);
                window.table = reg.lens.get(shard.db.table(&reg.table)?);
                self.inner.metrics.view_rebuild();
                false
            }
        };
        window.applied_seq = shard.wal.last_seq();
        Ok(clean)
    }

    /// The paper's `set` ([`crate::Engine::write_view`]): the edit
    /// "replace the window" run by [`Self::edit_view_optimistic`] until
    /// it lands, each retry counted in `metrics().retries`. A put costs
    /// the rows it changes and routes them per key (2PC when they span
    /// shards), wherever they land. Returns the base-table delta.
    pub fn write_view(&self, name: &str, view: Table) -> Result<Delta, EngineError> {
        self.edit_view_optimistic(name, u32::MAX, crate::engine::replace_window(view))
    }

    /// Transactionally edit a view: the one edit loop
    /// (`engine::edit_view_with`) — read the maintained window,
    /// run `edit` on a clone, and commit the window delta with
    /// [`Self::edit_view_delta`], retrying from a fresh read on a
    /// conflict up to `attempts` times. Each retry counts in
    /// `metrics().retries`.
    pub fn edit_view_optimistic(
        &self,
        name: &str,
        attempts: u32,
        edit: impl Fn(&mut Table) -> Result<(), EngineError>,
    ) -> Result<Delta, EngineError> {
        crate::engine::edit_view_with(self, name, attempts, &edit, || self.inner.metrics.retry())
    }

    /// Commit a window delta of view `name` — O(delta), whatever the
    /// window or table size. Under the read locks of the shards owning
    /// the keys the delta touches, the base rows at those keys are taken
    /// as a slice; the delta's pre-images are checked against the slice's
    /// view (a stale one is a conflict, counted in `metrics().conflicts`)
    /// and the lens `put` runs over the slice
    /// ([`crate::view::window_delta_to_base`]). The base delta it makes
    /// commits through [`Self::commit_deltas_checked`], whose pre-image
    /// check catches any commit to those rows in between. Returns the
    /// committed base-table delta.
    pub fn edit_view_delta(&self, name: &str, delta: &Delta) -> Result<Delta, EngineError> {
        if delta.is_empty() {
            return self.with_view(name, |_| Ok(Delta::empty()));
        }
        let (table, base_delta) = self.with_view(name, |reg| {
            let base_delta =
                crate::view::window_delta_to_base(&reg.lens, &reg.schema, name, delta, |keys| {
                    self.rows_at_keys(&reg.table, keys)
                })
                .inspect_err(|e| self.note_conflict(e))?;
            Ok((reg.table.clone(), base_delta))
        })?;
        if !base_delta.is_empty() {
            self.commit_deltas_checked(&[(table, base_delta.clone())])?;
        }
        Ok(base_delta)
    }

    /// The rows of base table `table` at `keys`, as a table of its
    /// schema, read under the owning shards' read locks (taken in index
    /// order, as every multi-shard reader does).
    fn rows_at_keys(&self, table: &str, keys: &BTreeSet<Row>) -> Result<Table, EngineError> {
        let topo = self.topology();
        let owners: BTreeSet<usize> = keys.iter().map(|k| topo.router.shard_of(k)).collect();
        let guards: BTreeMap<usize, _> = owners
            .into_iter()
            .map(|i| (i, topo.shards[i].read()))
            .collect();
        let schema = match guards.values().next() {
            Some(guard) => guard.db.table(table)?.schema().clone(),
            None => return Err(EngineError::NoSuchTable(table.to_string())),
        };
        let mut rows = Vec::with_capacity(keys.len());
        for key in keys {
            let piece = guards[&topo.router.shard_of(key)].db.table(table)?;
            rows.extend(piece.get_by_key(key).cloned());
        }
        Ok(Table::from_rows(schema, rows)?)
    }

    /// Count `e` in `metrics().conflicts` when it is a first-committer-
    /// wins conflict: every check that refuses a stale pre-image reports
    /// here.
    fn note_conflict(&self, e: &EngineError) {
        if matches!(e, EngineError::Conflict { .. }) {
            self.inner.metrics.conflict();
        }
    }
}

impl std::fmt::Debug for ShardedEngineServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let topo = self.topology();
        write!(
            f,
            "ShardedEngineServer {{ shards: {}, splits: {:?} }}",
            topo.shards.len(),
            topo.router.splits()
        )
    }
}

/// The first commit stamp a new engine instance issues: the wall clock in
/// microseconds. Stamps then never repeat across restarts (no engine
/// commits more than once a microsecond), so a subscription cursor from
/// an earlier instance falls below this one's live window and resyncs
/// instead of being read as a position in the new log.
fn first_stamp() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(1, |d| u64::try_from(d.as_micros()).unwrap_or(u64::MAX / 2))
        .max(1)
}

/// The contiguous shard run first-key-component `bounds` can touch under
/// the current router.
fn shard_run(topo: &Topology, bounds: &(Bound<Value>, Bound<Value>)) -> Vec<usize> {
    match topo.router.shards_in_value_range(&bounds.0, &bounds.1) {
        Some((a, b)) => (a..=b).collect(),
        None => Vec::new(),
    }
}

/// Empty every table of a snapshot an attempt has finished reading,
/// keeping the schemas its commit routes keys with. The live pieces'
/// chunks then lose this holder, so the commit's in-place apply copies
/// no chunk on the attempt's account.
fn release_rows(snapshot: &mut Database) {
    let names: Vec<String> = snapshot
        .table_names()
        .into_iter()
        .map(String::from)
        .collect();
    for name in names {
        (snapshot.table_mut(&name))
            .expect("the name came from the snapshot")
            .clear();
    }
}

/// The key sets a per-shard delta list touches, per table.
fn keys_of(
    snapshot: &Database,
    deltas: &[(String, Delta)],
) -> Result<BTreeMap<String, BTreeSet<Row>>, EngineError> {
    let mut keys: BTreeMap<String, BTreeSet<Row>> = BTreeMap::new();
    for (name, delta) in deltas {
        let table = snapshot.table(name)?;
        let entry = keys.entry(name.clone()).or_default();
        for row in delta.inserted.iter().chain(delta.deleted.iter()) {
            entry.insert(table.key_of(row));
        }
    }
    Ok(keys)
}

/// Cut the key space at data quantiles: up to `shards` ranges holding
/// roughly equal row counts of the seed data.
fn quantile_router(db: &Database, shards: usize) -> ShardRouter {
    if shards <= 1 {
        return ShardRouter::single();
    }
    let mut keys: BTreeSet<Row> = BTreeSet::new();
    for name in db.table_names() {
        let table = db.table(name).expect("name came from the database");
        for row in table.rows() {
            keys.insert(table.key_of(row));
        }
    }
    let keys: Vec<&Row> = keys.iter().collect();
    let mut splits: Vec<Row> = Vec::new();
    for i in 1..shards {
        let idx = i * keys.len() / shards;
        if idx == 0 || idx >= keys.len() {
            continue;
        }
        let candidate = keys[idx].clone();
        if splits.last() != Some(&candidate) {
            splits.push(candidate);
        }
    }
    ShardRouter::from_splits(splits).expect("quantiles of a sorted set increase strictly")
}

/// Parse the numeric suffix of a generated gtx id (`g<n>`); foreign ids
/// count as 0 (the seed only needs to dominate ids *we* generated).
fn parse_gtx(gtx: &str) -> u64 {
    gtx.strip_prefix('g')
        .and_then(|n| n.parse().ok())
        .unwrap_or(0)
}

// ---------------------------------------------------------------------
// Topology manifest.
// ---------------------------------------------------------------------

/// First byte of the sealed topology manifest.
const TOPOLOGY_MAGIC: u8 = 0xB4;

/// Why [`committed_since`] has no run to offer.
enum NoRun {
    /// The stamp is outside some shard's live log window (trimmed away,
    /// ahead of the last stamp, or before the last split or merge): the
    /// caller falls back to whole state.
    OutOfWindow,
    /// Some shard's log ends in an unsettled transaction: nothing is
    /// servable until it settles.
    Unsettled,
}

/// The base-table deltas the shards behind `guards` committed after
/// commit stamp `since`, each with its table, shard by shard and in
/// commit order within a shard — the O(delta) read behind snapshot
/// catch-ups and subscription drains. The caller holds the guards and
/// passes the last stamp issued, `to`: under those read locks every
/// stamp up to it is applied on these shards and none can land.
fn committed_since<'a>(
    guards: &'a [std::sync::RwLockReadGuard<'_, shard::ShardState>],
    layout_stamp: u64,
    since: u64,
    to: u64,
) -> Result<Vec<(&'a str, &'a Delta)>, NoRun> {
    if since < layout_stamp || since > to {
        return Err(NoRun::OutOfWindow);
    }
    let mut run = Vec::new();
    for guard in guards {
        let seq = guard.seq_at_stamp(since).ok_or(NoRun::OutOfWindow)?;
        run.extend(committed_deltas(guard.wal.records_after(seq)).ok_or(NoRun::Unsettled)?);
    }
    Ok(run)
}

/// Serialize and atomically write the topology manifest: one sealed
/// file whose body is `next_id` (`u64`), the shard ids (a count, then a
/// `u64` each) and the split rows (a count, then the rows).
pub(crate) fn write_topology(
    dir: &Path,
    next_id: u64,
    router: &ShardRouter,
    ids: &[u64],
) -> Result<(), EngineError> {
    debug_assert_eq!(ids.len(), router.shard_count());
    let mut file = Sealer::new(TOPOLOGY_MAGIC);
    let body = file.body();
    codec::put_u64(body, next_id);
    codec::put_u32(body, ids.len() as u32);
    for id in ids {
        codec::put_u64(body, *id);
    }
    codec::put_u32(body, router.splits().len() as u32);
    for split in router.splits() {
        codec::put_row(body, split);
    }
    write_atomic(dir, TOPOLOGY_FILE, &file.finish())?;
    Ok(())
}

/// Read the topology manifest back: `(next_id, router, shard ids)`.
pub(crate) fn read_topology(dir: &Path) -> Result<(u64, ShardRouter, Vec<u64>), EngineError> {
    let bytes = std::fs::read(dir.join(TOPOLOGY_FILE)).map_err(|e| {
        EngineError::Io(format!(
            "{} is not a sharded engine directory: {e}",
            dir.display()
        ))
    })?;
    decode_topology(&bytes)
}

/// Decode [`write_topology`]'s file content.
fn decode_topology(bytes: &[u8]) -> Result<(u64, ShardRouter, Vec<u64>), EngineError> {
    let corrupt = |msg: String| EngineError::WalCorrupt(format!("topology manifest: {msg}"));
    let rot = |e: esm_store::StoreError| corrupt(e.to_string());
    let mut r = BinReader::new(unseal("topology manifest", TOPOLOGY_MAGIC, bytes)?);
    let next_id = r.u64().map_err(rot)?;
    let mut ids = Vec::new();
    for _ in 0..r.count().map_err(rot)? {
        ids.push(r.u64().map_err(rot)?);
    }
    let mut splits = Vec::new();
    for _ in 0..r.count().map_err(rot)? {
        splits.push(r.row().map_err(rot)?);
    }
    r.end().map_err(rot)?;
    let router = ShardRouter::from_splits(splits).map_err(|e| corrupt(e.to_string()))?;
    if router.shard_count() != ids.len() {
        return Err(corrupt(format!(
            "{} shard ids for {} ranges",
            ids.len(),
            router.shard_count()
        )));
    }
    Ok((next_id, router, ids))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::seal;
    use esm_store::{row, Operand, Predicate, Schema, ValueType};

    /// The replay law on an in-memory engine built over `seed` whose logs
    /// were never trimmed: every shard's WAL replayed over the seed in
    /// turn (shards hold disjoint keys, so their logs commute).
    fn replayed_over_seed(engine: &ShardedEngineServer, seed: Database) -> Database {
        let wals = engine.shard_wals();
        wals.iter()
            .try_fold(seed, |db, wal| wal.replay(&db))
            .unwrap()
    }

    fn seed_db(n: i64) -> Database {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("owner", ValueType::Str),
                ("balance", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        let rows: Vec<Row> = (0..n).map(|i| row![i, format!("o{i}"), i * 10]).collect();
        let mut db = Database::new();
        db.create_table("accounts", Table::from_rows(schema, rows).unwrap())
            .unwrap();
        db
    }

    fn sharded(n_rows: i64, shards: usize) -> ShardedEngineServer {
        ShardedEngineServer::with_router(
            seed_db(n_rows),
            ShardRouter::uniform_int(shards, 0, n_rows.max(shards as i64)).unwrap(),
        )
        .unwrap()
    }

    #[test]
    fn partitioning_assembles_back_to_the_whole() {
        let db = seed_db(40);
        let engine = sharded(40, 4);
        assert_eq!(engine.shard_count(), 4);
        assert_eq!(engine.snapshot(), db);
        // Every shard holds only its range.
        let topo = engine.topology();
        for (i, shard) in topo.shards.iter().enumerate() {
            let state = shard.read();
            let table = state.db.table("accounts").unwrap();
            assert_eq!(table.len(), 10, "shard {i}");
            for row in table.rows() {
                assert_eq!(topo.router.shard_of(&table.key_of(row)), i);
            }
        }
    }

    #[test]
    fn quantile_router_balances_seed_data() {
        let engine = ShardedEngineServer::with_shards(seed_db(100), 4).unwrap();
        assert_eq!(engine.shard_count(), 4);
        let topo = engine.topology();
        for shard in &topo.shards {
            let len = shard.read().db.table("accounts").unwrap().len();
            assert_eq!(len, 25);
        }
        drop(topo);
        // Degenerate cases collapse gracefully.
        assert_eq!(
            ShardedEngineServer::with_shards(seed_db(1), 4)
                .unwrap()
                .shard_count(),
            1, // one row → no usable quantiles → one shard
        );
        assert_eq!(
            ShardedEngineServer::with_shards(seed_db(3), 1)
                .unwrap()
                .shard_count(),
            1
        );
    }

    #[test]
    fn single_shard_transactions_take_the_fast_path() {
        let engine = sharded(40, 4);
        let receipt = engine
            .transact_keys(&[row![5]], 4, |db| {
                let t = db.table_mut("accounts")?;
                t.upsert(row![5, "updated", 999])?;
                Ok(())
            })
            .unwrap();
        assert_eq!(receipt.shards, vec![0]);
        assert!(receipt.gtx.is_none());
        let m = engine.metrics();
        assert_eq!(m.shard.single_shard_commits, 1);
        assert_eq!(m.shard.cross_shard_commits, 0);
        assert_eq!(m.commits, 1);
        assert!(engine
            .table("accounts")
            .unwrap()
            .contains(&row![5, "updated", 999]));
        // Only shard 0's WAL moved.
        let wals = engine.shard_wals();
        assert_eq!(wals[0].len(), 1);
        assert!(wals[1].is_empty() && wals[2].is_empty() && wals[3].is_empty());
        assert_eq!(replayed_over_seed(&engine, seed_db(40)), engine.snapshot());
    }

    #[test]
    fn cross_shard_transactions_run_two_phase_commit() {
        let engine = sharded(40, 4);
        // Transfer 7 from id 5 (shard 0) to id 35 (shard 3).
        let receipt = engine
            .transact_keys(&[row![5], row![35]], 4, |db| {
                let t = db.table_mut("accounts")?;
                let from = t.get_by_key(&row![5]).unwrap()[2].as_int().unwrap();
                let to = t.get_by_key(&row![35]).unwrap()[2].as_int().unwrap();
                t.upsert(row![5, "o5", from - 7])?;
                t.upsert(row![35, "o35", to + 7])?;
                Ok(())
            })
            .unwrap();
        assert_eq!(receipt.shards, vec![0, 3]);
        assert!(receipt.gtx.is_some());
        let m = engine.metrics();
        assert_eq!(m.shard.cross_shard_commits, 1);
        assert_eq!(m.shard.prepares, 2);
        let t = engine.table("accounts").unwrap();
        assert_eq!(
            t.get_by_key(&row![5]).unwrap()[2],
            esm_store::Value::Int(43)
        );
        assert_eq!(
            t.get_by_key(&row![35]).unwrap()[2],
            esm_store::Value::Int(357)
        );
        // Both shard logs hold the 2PC records and replay to their live
        // pieces.
        assert_eq!(replayed_over_seed(&engine, seed_db(40)), engine.snapshot());
    }

    #[test]
    fn undeclared_keys_are_rejected() {
        let engine = sharded(40, 4);
        let err = engine
            .transact_keys(&[row![5]], 1, |db| {
                db.table_mut("accounts")?.upsert(row![39, "stray", 0])?;
                Ok(())
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::ShardTopology(msg) if msg.contains("declaring")));
        assert_eq!(engine.metrics().commits, 0);
    }

    #[test]
    fn conflicts_retry_and_eventually_exhaust() {
        let engine = sharded(10, 2);
        // Two racing bumps on the same key: with enough attempts both
        // land (serialized by retries).
        let bump = |attempts| {
            engine.transact_keys(&[row![3]], attempts, |db| {
                let t = db.table_mut("accounts")?;
                let cur = t.get_by_key(&row![3]).unwrap()[2].as_int().unwrap();
                t.upsert(row![3, "o3", cur + 1])?;
                Ok(())
            })
        };
        bump(1).unwrap();
        bump(1).unwrap();
        assert_eq!(
            engine
                .table("accounts")
                .unwrap()
                .get_by_key(&row![3])
                .unwrap()[2],
            esm_store::Value::Int(32)
        );
    }

    #[test]
    fn views_are_routing_oblivious() {
        let engine = sharded(40, 4);
        let rich = engine
            .define_view(
                "rich",
                "accounts",
                &ViewDef::base().select(Predicate::ge(Operand::col("balance"), Operand::val(200))),
            )
            .unwrap();
        // The view window spans shards 2 and 3 (balances 200..390).
        assert_eq!(rich.get().unwrap().len(), 20);
        // An edit through the view that touches two shards commits by
        // 2PC under the hood.
        rich.edit(|v| {
            v.upsert(row![21, "o21", 777])?; // shard 2
            v.upsert(row![39, "o39", 888])?; // shard 3
            Ok(())
        })
        .unwrap();
        assert_eq!(engine.metrics().shard.cross_shard_commits, 1);
        let t = engine.table("accounts").unwrap();
        assert!(t.contains(&row![21, "o21", 777]));
        assert!(t.contains(&row![39, "o39", 888]));
        // A put of the whole window routes too.
        let mut window = rich.get().unwrap();
        window.delete_by_key(&row![39]);
        let delta = rich.put(window).unwrap();
        assert_eq!(delta.deleted, vec![row![39, "o39", 888]]);
        // The host is reachable uniformly through the Engine trait.
        assert_eq!(rich.engine().table_names().unwrap(), vec!["accounts"]);
        assert!(rich.engine().metrics().unwrap().shard.cross_shard_commits >= 1);
        assert_eq!(replayed_over_seed(&engine, seed_db(40)), engine.snapshot());
        // Select-view registration auto-indexed each shard's piece.
        let topo = engine.topology();
        assert_eq!(
            topo.shards[0]
                .read()
                .db
                .table("accounts")
                .unwrap()
                .indexed_columns(),
            vec!["balance"]
        );
    }

    #[test]
    fn key_bounded_views_prune_shards_and_stay_materialized() {
        let engine = sharded(40, 4); // splits at 10 / 20 / 30
        let low = engine
            .define_view(
                "low",
                "accounts",
                &ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(10))),
            )
            .unwrap();
        // Registration materialized one window — for the single shard
        // the key bound can touch; reads prune the other three uncloned.
        assert_eq!(low.get().unwrap().len(), 10);
        let m = engine.metrics();
        assert_eq!(m.view.rebuilds, 1);
        assert_eq!(m.view.shards_pruned, 3);

        // Commits inside the window maintain it incrementally; commits
        // on pruned shards never even reach the propagator.
        engine
            .transact_keys(&[row![5]], 4, |db| {
                db.table_mut("accounts")?.upsert(row![5, "in", 1])?;
                Ok(())
            })
            .unwrap();
        engine
            .transact_keys(&[row![35]], 4, |db| {
                db.table_mut("accounts")?.upsert(row![35, "out", 1])?;
                Ok(())
            })
            .unwrap();
        let window = low.get().unwrap();
        assert!(window.contains(&row![5, "in", 1]));
        assert_eq!(window.len(), 10);
        let m = engine.metrics();
        assert_eq!(m.view.rebuilds, 1, "steady-state reads never rebuild");
        assert_eq!(m.view.materialized_reads, 2);
        assert_eq!(
            m.view.deltas_applied, 1,
            "only the in-window commit drained"
        );

        // Writes through the pruned view snapshot one shard end to end.
        low.edit(|v| Ok(v.upsert(row![6, "via-view", 2]).map(|_| ())?))
            .unwrap();
        assert_eq!(engine.metrics().shard.single_shard_commits, 3);

        // A split invalidates the windows (new epoch); the next read
        // rebuilds once and the window stays exact.
        engine.split_shard(row![5]).unwrap();
        let window = low.get().unwrap();
        assert_eq!(window.len(), 10);
        assert!(window.contains(&row![6, "via-view", 2]));
        assert_eq!(engine.metrics().view.rebuilds, 2);

        // An insert through the view outside its key bounds routes to
        // the shard that owns the key and still commits (pruning is
        // never a behaviour change).
        low.edit(|v| Ok(v.upsert(row![25, "stray", 9]).map(|_| ())?))
            .unwrap();
        assert!(engine
            .table("accounts")
            .unwrap()
            .contains(&row![25, "stray", 9]));
    }

    #[test]
    fn puts_that_stray_outside_the_view_run_commit_across_shards() {
        let engine = sharded(40, 4); // splits at 10 / 20 / 30
        let low_def = ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(10)));
        let rich_def =
            ViewDef::base().select(Predicate::ge(Operand::col("balance"), Operand::val(200)));
        let low = engine.define_view("low", "accounts", &low_def).unwrap();
        engine.define_view("rich", "accounts", &rich_def).unwrap();
        let cross = engine.metrics().shard.cross_shard_commits;

        // One row inside the view's key bounds (shard 0), one keyed to
        // shard 2, outside the one-shard run the view reads.
        let mut window = low.get().unwrap();
        window.upsert(row![6, "inside", 1]).unwrap();
        window.upsert(row![25, "stray", 9]).unwrap();
        let delta = low.put(window).unwrap();
        assert_eq!(delta.inserted.len(), 2, "{delta:?}");

        let table = engine.table("accounts").unwrap();
        assert!(table.contains(&row![6, "inside", 1]));
        assert!(table.contains(&row![25, "stray", 9]));
        assert_eq!(engine.metrics().shard.cross_shard_commits, cross + 1);
        for (name, def) in [("low", &low_def), ("rich", &rich_def)] {
            assert_eq!(
                engine.read_view(name).unwrap(),
                crate::testkit::recompute(def, &table),
                "{name}"
            );
        }
    }

    #[test]
    fn topology_manifest_round_trips() {
        let dir = std::env::temp_dir().join(format!("esm-topology-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let router = ShardRouter::from_splits(vec![row![10], row!["m\tid"]]).unwrap();
        write_topology(&dir, 7, &router, &[0, 3, 2]).unwrap();
        let (next_id, read_router, ids) = read_topology(&dir).unwrap();
        assert_eq!(next_id, 7);
        assert_eq!(read_router, router);
        assert_eq!(ids, vec![0, 3, 2]);
        // Torn manifests are rejected loudly, at every cut.
        let bytes = std::fs::read(dir.join(TOPOLOGY_FILE)).unwrap();
        for cut in 0..bytes.len() {
            assert!(
                matches!(
                    decode_topology(&bytes[..cut]),
                    Err(EngineError::WalCorrupt(_))
                ),
                "cut at {cut}"
            );
        }
        // A sealed body whose ids and ranges disagree is refused too.
        let mut body = Vec::new();
        codec::put_u64(&mut body, 1);
        codec::put_u32(&mut body, 2);
        codec::put_u64(&mut body, 0);
        codec::put_u64(&mut body, 1);
        codec::put_u32(&mut body, 0);
        assert!(matches!(
            decode_topology(&seal(TOPOLOGY_MAGIC, &body)),
            Err(EngineError::WalCorrupt(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn topology_absurd_counts_are_refused_without_allocating() {
        // A correctly sealed body cut at every byte, with u32::MAX
        // announced there: the id count, the split count and each split
        // row's cell count all see an absurd count at some cut.
        let router = ShardRouter::from_splits(vec![row![10, "x"], row![20, "y"]]).unwrap();
        let mut body = Vec::new();
        codec::put_u64(&mut body, 3);
        codec::put_u32(&mut body, 3);
        for id in [0, 1, 2] {
            codec::put_u64(&mut body, id);
        }
        codec::put_u32(&mut body, 2);
        for split in router.splits() {
            codec::put_row(&mut body, split);
        }
        assert_eq!(
            decode_topology(&seal(TOPOLOGY_MAGIC, &body)).unwrap(),
            (3, router, vec![0, 1, 2])
        );
        for cut in 0..body.len() {
            let mut bad = body[..cut].to_vec();
            codec::put_u32(&mut bad, u32::MAX);
            assert!(
                decode_topology(&seal(TOPOLOGY_MAGIC, &bad)).is_err(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn reserved_table_names_are_rejected_up_front() {
        let mut db = Database::new();
        let schema = Schema::build(&[("id", ValueType::Int)], &["id"]).unwrap();
        db.create_table("!sneaky", Table::new(schema)).unwrap();
        assert!(matches!(
            ShardedEngineServer::with_shards(db, 2),
            Err(EngineError::ReservedTableName(_))
        ));
    }

    #[test]
    fn subscription_drains_stay_incremental_across_shards() {
        let engine = sharded(40, 4); // splits at 10 / 20 / 30
        let all = engine
            .define_view("all", "accounts", &ViewDef::base())
            .unwrap();
        let first = engine.view_cursor("all").unwrap();
        let mut replica = all.get().unwrap();
        let bump = |id: i64, balance: i64| {
            engine
                .transact_keys(&[row![id]], 1, move |db| {
                    db.table_mut("accounts")?
                        .upsert(row![id, format!("o{id}"), balance])?;
                    Ok(())
                })
                .unwrap()
        };
        bump(5, 1);
        bump(25, 2);
        // A cross-shard 2PC counts once, at its resolution.
        engine
            .transact_keys(&[row![6], row![36]], 1, |db| {
                let t = db.table_mut("accounts")?;
                t.delete_by_key(&row![6]);
                t.upsert(row![36, "moved", 3])?;
                Ok(())
            })
            .unwrap();
        let batch = engine.view_deltas_since("all", first).unwrap();
        assert!(batch.resync.is_none(), "drained O(delta), not resynced");
        assert_eq!(batch.to_seq, engine.view_cursor("all").unwrap());
        batch.delta.apply_in_place(&mut replica).unwrap();
        assert_eq!(replica, all.get().unwrap());
        // Current cursors drain nothing; cursors from the future resync.
        assert!(engine
            .view_deltas_since("all", batch.to_seq)
            .unwrap()
            .is_empty());
        let future = engine.view_deltas_since("all", batch.to_seq + 1).unwrap();
        assert!(future.resync.is_some());

        // A split changes no data, so the current cursor still drains
        // nothing; cursors from before the split resync, and cursors
        // taken after it drain incrementally again.
        engine.split_shard(row![15]).unwrap();
        assert!(engine
            .view_deltas_since("all", batch.to_seq)
            .unwrap()
            .is_empty());
        assert!(engine
            .view_deltas_since("all", first)
            .unwrap()
            .resync
            .is_some());
        let cursor = engine.view_cursor("all").unwrap();
        let mut replica = all.get().unwrap();
        bump(17, 4);
        let batch = engine.view_deltas_since("all", cursor).unwrap();
        assert!(batch.resync.is_none());
        batch.delta.apply_in_place(&mut replica).unwrap();
        assert_eq!(replica, all.get().unwrap());

        // Once a shard's log is trimmed past a cursor, the cursor is out
        // of the window.
        for i in 0..=crate::wal::WAL_RETAINED_RECORDS as i64 {
            bump(17, 5 + i);
        }
        assert!(engine.metrics().wal_truncations > 0);
        assert!(engine
            .view_deltas_since("all", cursor)
            .unwrap()
            .resync
            .is_some());

        // A cursor from an earlier engine instance (a restart) is outside
        // a later instance's window, however many commits it has taken.
        let restarted = sharded(40, 4);
        restarted
            .define_view("all", "accounts", &ViewDef::base())
            .unwrap();
        for id in 0..8 {
            restarted
                .transact_keys(&[row![id]], 1, move |db| {
                    db.table_mut("accounts")?.upsert(row![id, "again", id])?;
                    Ok(())
                })
                .unwrap();
        }
        assert!(restarted
            .view_deltas_since("all", first)
            .unwrap()
            .resync
            .is_some());
    }

    #[test]
    fn snapshot_since_ships_deltas_inside_the_log_window() {
        let engine = sharded(40, 4); // splits at 10 / 20 / 30
        let first = engine.snapshot_since(None);
        let SnapshotChanges::Full(mut db) = first.changes else {
            panic!("no stamp: the whole database");
        };
        let bump = |id: i64, balance: i64| {
            engine
                .transact_keys(&[row![id]], 1, move |db| {
                    db.table_mut("accounts")?
                        .upsert(row![id, format!("o{id}"), balance])?;
                    Ok(())
                })
                .unwrap()
        };
        bump(5, 1);
        bump(5, 2);
        bump(25, 3);
        // A cross-shard 2PC arrives once, at its resolution.
        engine
            .transact_keys(&[row![6], row![36]], 1, |db| {
                let t = db.table_mut("accounts")?;
                t.delete_by_key(&row![6]);
                t.upsert(row![36, "moved", 3])?;
                Ok(())
            })
            .unwrap();
        let next = engine.snapshot_since(Some(first.stamp));
        let SnapshotChanges::Deltas(deltas) = &next.changes else {
            panic!("caught up O(delta)");
        };
        let coalesced = &deltas[0].1;
        assert_eq!((coalesced.inserted.len(), coalesced.deleted.len()), (3, 4));
        next.clone().apply_to(&mut db).unwrap();
        assert_eq!(db, engine.snapshot());
        // The current stamp ships nothing; a stamp from the future gets
        // the whole database.
        let nothing = SnapshotChanges::Deltas(Vec::new());
        let is_full = |a: SnapshotSince| matches!(a.changes, SnapshotChanges::Full(_));
        let idle = engine.snapshot_since(Some(next.stamp));
        assert_eq!((idle.stamp, &idle.changes), (next.stamp, &nothing));
        assert!(is_full(engine.snapshot_since(Some(next.stamp + 1))));
        // A split changes no data, so the current stamp still ships
        // nothing; stamps from before it get the whole database.
        engine.split_shard(row![15]).unwrap();
        assert_eq!(engine.snapshot_since(Some(next.stamp)).changes, nothing);
        assert!(is_full(engine.snapshot_since(Some(first.stamp))));
        // Once a shard's log is trimmed past a stamp, it is out of the
        // window.
        let kept = engine.snapshot_since(None).stamp;
        for i in 0..=crate::wal::WAL_RETAINED_RECORDS as i64 {
            bump(17, i);
        }
        let trimmed = engine.snapshot_since(Some(kept));
        assert_eq!(trimmed.changes, SnapshotChanges::Full(engine.snapshot()));
    }

    #[test]
    fn duplicate_views_and_unknown_tables_are_rejected() {
        let engine = ShardedEngineServer::new(seed_db(4));
        engine
            .define_view("all", "accounts", &ViewDef::base())
            .unwrap();
        assert!(matches!(
            engine.define_view("all", "accounts", &ViewDef::base()),
            Err(EngineError::ViewExists(_))
        ));
        assert!(matches!(
            engine.define_view("x", "ghost", &ViewDef::base()),
            Err(EngineError::NoSuchTable(_))
        ));
    }

    #[test]
    fn ill_fitting_view_writes_error_without_wedging_the_engine() {
        let engine = ShardedEngineServer::new(seed_db(4));
        let all = engine
            .define_view("all", "accounts", &ViewDef::base())
            .unwrap();
        // A window of the wrong arity: the lens put would panic; the
        // engine must surface an error and stay fully usable.
        let bad = Table::from_rows(
            Schema::build(&[("id", ValueType::Int)], &["id"]).unwrap(),
            vec![row![1]],
        )
        .unwrap();
        assert!(matches!(all.put(bad), Err(EngineError::Store(_))));
        assert_eq!(all.get().unwrap().len(), 4);
        let mut window = all.get().unwrap();
        window.upsert(row![9, "ok", 1]).unwrap();
        assert!(!all.put(window).unwrap().is_empty());
    }

    #[test]
    fn ill_fitting_view_edits_error_without_wedging_the_engine() {
        let engine = ShardedEngineServer::new(seed_db(4));
        let all = engine
            .define_view(
                "all",
                "accounts",
                &ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(100))),
            )
            .unwrap();
        // An edit that swaps the window for a table of another schema:
        // the select lens put would panic; the engine must surface an
        // error and stay fully usable.
        let bad = Table::from_rows(
            Schema::build(&[("id", ValueType::Int)], &["id"]).unwrap(),
            vec![row![1]],
        )
        .unwrap();
        let swap = |window: &mut Table| {
            *window = bad.clone();
            Ok(())
        };
        assert!(matches!(all.edit(swap), Err(EngineError::Store(_))));
        assert!(matches!(all.put(bad.clone()), Err(EngineError::Store(_))));
        assert_eq!(all.get().unwrap().len(), 4);
        assert_eq!(engine.metrics().commits, 0);
        let grow = |window: &mut Table| {
            window.upsert(row![9, "ok", 1])?;
            Ok(())
        };
        assert!(!all.edit(grow).unwrap().is_empty());
        assert_eq!(all.get().unwrap().len(), 5);
    }

    #[test]
    fn project_defaults_that_do_not_fit_are_rejected_at_definition() {
        let engine = ShardedEngineServer::new(seed_db(4));
        // `balance` is an Int column; `ghost` is no column at all.
        for default in [("balance", Value::str("x")), ("ghost", Value::Int(1))] {
            let def = ViewDef::base().project(&["id", "owner"], &[default]);
            assert!(matches!(
                engine.define_view("owners", "accounts", &def),
                Err(EngineError::Store(_))
            ));
        }
        assert!(engine.view_names().is_empty());
        // A fitting default defines, and the rows its edits create get it.
        let def = ViewDef::base().project(&["id", "owner"], &[("balance", Value::Int(7))]);
        let owners = engine.define_view("owners", "accounts", &def).unwrap();
        owners
            .edit(|window: &mut Table| {
                window.upsert(row![9, "new"])?;
                Ok(())
            })
            .unwrap();
        let base = engine.table("accounts").unwrap();
        assert_eq!(base.get_by_key(&row![9]), Some(&row![9, "new", 7]));
    }

    #[test]
    fn failing_bodies_commit_nothing() {
        let engine = ShardedEngineServer::new(seed_db(4));
        let err = engine
            .transact(4, |db| {
                db.table_mut("accounts")?.upsert(row![7, "doomed", 0])?;
                Err(EngineError::Io("body gave up".into()))
            })
            .unwrap_err();
        assert!(matches!(err, EngineError::Io(_)));
        assert_eq!(engine.table("accounts").unwrap().len(), 4);
        assert!(engine.shard_wals()[0].is_empty());
        assert_eq!(engine.metrics().commits, 0);
    }

    #[test]
    fn multi_table_commits_chain_in_the_wal() {
        let mut db = seed_db(2);
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        db.create_table("audit", Table::new(schema)).unwrap();
        let engine = ShardedEngineServer::new(db.clone());
        engine
            .transact(1, |db| {
                db.table_mut("accounts")?.upsert(row![1, "x", 1])?;
                db.table_mut("audit")?.upsert(row![1, "y"])?;
                Ok(())
            })
            .unwrap();
        let wal = engine.shard_wals().swap_remove(0);
        // First record chained, terminator unchained: one atomic unit.
        let chained: Vec<bool> = wal
            .records()
            .iter()
            .map(|r| matches!(r.op, crate::wal::WalOp::Delta { chained: true, .. }))
            .collect();
        assert_eq!(chained, vec![true, false]);
        assert_eq!(wal.replay(&db).unwrap(), engine.snapshot());
    }

    #[test]
    fn a_due_checkpoint_wakes_the_maintenance_thread() {
        let dir = std::env::temp_dir().join(format!("esm-shard-wake-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        // The thread's own tick is a minute away: only a wake runs it.
        let cfg = DurabilityConfig::new(&dir)
            .checkpoint_every(8)
            .maintenance_interval_ms(60_000);
        let engine =
            ShardedEngineServer::with_durability(seed_db(4), ShardRouter::single(), cfg).unwrap();
        let commit = |i: i64| {
            engine
                .transact(1, |db| {
                    db.table_mut("accounts")?.upsert(row![i, "r", i])?;
                    Ok(())
                })
                .unwrap()
        };
        for i in 0..7i64 {
            commit(i);
        }
        let genesis = engine.metrics().wal.checkpoints;
        commit(7);
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(2);
        while engine.metrics().wal.checkpoints <= genesis && std::time::Instant::now() < deadline {
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
        assert!(
            engine.metrics().wal.checkpoints > genesis,
            "the 8th commit's due checkpoint ran within 2 s: {:?}",
            engine.metrics().wal
        );
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn background_maintenance_checkpoints_off_the_commit_path() {
        let dir = std::env::temp_dir().join(format!("esm-shard-maint-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig::new(&dir)
            .checkpoint_every(4)
            .maintenance_interval_ms(1);
        let engine =
            ShardedEngineServer::with_durability(seed_db(4), ShardRouter::single(), cfg).unwrap();
        for i in 0..12i64 {
            engine
                .transact(1, |db| {
                    db.table_mut("accounts")?.upsert(row![i, "r", i])?;
                    Ok(())
                })
                .unwrap();
        }
        // The committing thread never checkpointed; the background loop
        // catches up on its own.
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
        while engine.metrics().wal.checkpoints < 2 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(
            engine.metrics().wal.checkpoints >= 2,
            "the maintenance thread checkpointed: {:?}",
            engine.metrics().wal
        );
        drop(engine);
        std::fs::remove_dir_all(&dir).ok();
    }
}
