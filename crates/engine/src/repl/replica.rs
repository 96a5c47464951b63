//! [`ReplicaEngine`]: a continuously-recovering read replica.
//!
//! The replica mirrors a primary's WAL directories byte-for-byte from a
//! [`WalSource`] and keeps a one-shard serving [`EngineServer`] converged to
//! the primary's settled state. Bootstrap runs the exact recovery
//! pipeline ([`latest_valid_checkpoint`] → [`scan_segments`] →
//! [`plan_recovery`] → [`resolve_transactions`]); steady state decodes
//! newly shipped frames from each shard's frame-aligned tail offset and
//! applies settled transactions as ordinary commits — so materialized
//! views, subscriptions and `view_deltas_since` stay O(delta) on the
//! replica, exactly as on a primary.
//!
//! Anything surprising in the stream (topology change, compacted-away
//! segment, sequence gap, CRC failure on a complete frame) drops to the
//! *reconcile* path: recompute the settled state from the mirror with
//! the recovery planner and commit the difference. Reconcile is the
//! recovery code path, so the replica can never diverge — at worst it
//! does a little extra work.

use std::collections::{BTreeMap, BTreeSet};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, Weak};

use esm_obs::Phase;
use esm_store::{Database, Delta, Table};

use super::{ReplManifest, WalSource};
use crate::checkpoint::{latest_valid_checkpoint, parse_checkpoint_name};
use crate::durable::{plan_recovery, resolve_transactions, scan_segments, MaintenanceThread};
use crate::error::EngineError;
use crate::metrics::{MetricsSnapshot, ReplStats, ReplicaLag};
use crate::segment::{decode_segment_prefix, parse_segment_name, segment_file_name};
use crate::shard::{read_topology, TOPOLOGY_FILE};
use crate::wal::{WalOp, WalRecord};
use crate::EngineServer;

/// Tuning for a replica.
#[derive(Debug, Clone)]
pub struct ReplicaConfig {
    /// Where the replica mirrors the primary's base directory. Must be
    /// writable and survive the replica process for promotion to work.
    pub mirror: PathBuf,
    /// How often the apply thread polls the source, in milliseconds.
    /// 0 disables the thread — tests and the failover path then drive
    /// [`ReplicaEngine::sync_once`] themselves.
    pub poll_interval_ms: u64,
    /// Fetch granularity per wire call.
    pub chunk_bytes: u64,
}

impl ReplicaConfig {
    /// Defaults: poll every 20 ms, 256 KiB fetch chunks.
    pub fn new(mirror: impl Into<PathBuf>) -> ReplicaConfig {
        ReplicaConfig {
            mirror: mirror.into(),
            poll_interval_ms: 20,
            chunk_bytes: 256 * 1024,
        }
    }

    /// Set the poll interval (0 disables the apply thread).
    pub fn poll_interval_ms(mut self, ms: u64) -> ReplicaConfig {
        self.poll_interval_ms = ms;
        self
    }
}

/// Per-shard apply-stream state: where in the mirrored log the next
/// complete frame will be decoded from, and what is pending or in
/// doubt.
#[derive(Debug, Default)]
struct ShardStream {
    /// First seq of the segment currently being consumed (0 = none yet;
    /// the tick looks for a segment starting at `applied_seq + 1`).
    segment_first: u64,
    /// Frame-aligned byte offset consumed within that segment.
    offset: u64,
    /// Last sequence number consumed (applied, held pending, or in
    /// doubt).
    applied_seq: u64,
    /// The unterminated chain being accumulated (chained deltas whose
    /// terminator has not arrived).
    pending: Vec<(String, Delta)>,
    /// Prepared 2PC chains awaiting their resolution, by gtx.
    in_doubt: BTreeMap<String, Vec<(String, Delta)>>,
}

#[derive(Debug, Default)]
struct ApplyState {
    /// The mirrored `topology.esm` bytes the streams were built
    /// against; a manifest with different bytes forces a reconcile.
    topology: Vec<u8>,
    /// Streams keyed by stable shard id.
    streams: BTreeMap<u64, ShardStream>,
}

#[derive(Debug)]
struct ReplicaInner {
    source: Arc<dyn WalSource>,
    mirror: PathBuf,
    chunk_bytes: u64,
    serving: EngineServer,
    apply: Mutex<ApplyState>,
    stats: Mutex<ReplStats>,
    primary_addr: Mutex<String>,
    poller: Mutex<Option<MaintenanceThread>>,
}

/// A read replica behind the same [`crate::Engine`] trait as every
/// other engine. Clone the handle freely; clones share state.
#[derive(Clone, Debug)]
pub struct ReplicaEngine {
    inner: Arc<ReplicaInner>,
}

/// What one [`ReplicaEngine::sync_once`] pass did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplSyncReport {
    /// Bytes newly mirrored from the source.
    pub bytes_shipped: u64,
    /// WAL records newly consumed.
    pub records_consumed: u64,
    /// Settled transactions newly applied to the serving state.
    pub transactions_applied: u64,
    /// Whether this pass fell back to a full reconcile.
    pub reconciled: bool,
}

impl ReplicaEngine {
    /// Bootstrap a replica: mirror everything the source has, build the
    /// settled state through the recovery planner, and (unless
    /// `poll_interval_ms == 0`) start the apply thread.
    pub fn bootstrap(
        source: Arc<dyn WalSource>,
        config: ReplicaConfig,
    ) -> Result<ReplicaEngine, EngineError> {
        std::fs::create_dir_all(&config.mirror)?;
        let manifest = source.manifest()?;
        let mut shipped = 0u64;
        mirror_files(
            source.as_ref(),
            &config.mirror,
            &manifest,
            config.chunk_bytes,
            &mut shipped,
        )?;
        let (db, streams) = build_settled(&config.mirror)?;
        let serving = EngineServer::new(db);
        let replica = ReplicaEngine {
            inner: Arc::new(ReplicaInner {
                source,
                mirror: config.mirror.clone(),
                chunk_bytes: config.chunk_bytes,
                serving,
                apply: Mutex::new(ApplyState {
                    topology: manifest.topology.clone(),
                    streams,
                }),
                stats: Mutex::new(ReplStats::default()),
                primary_addr: Mutex::new(manifest.primary_addr.clone()),
                poller: Mutex::new(None),
            }),
        };
        replica.update_lag(&manifest);
        if config.poll_interval_ms > 0 {
            let weak: Weak<ReplicaInner> = Arc::downgrade(&replica.inner);
            let thread = MaintenanceThread::spawn(
                std::time::Duration::from_millis(config.poll_interval_ms),
                move || {
                    if let Some(inner) = weak.upgrade() {
                        let _ = ReplicaEngine { inner }.sync_once();
                    }
                },
            );
            *replica.inner.poller.lock().expect("poller lock") = Some(thread);
        }
        Ok(replica)
    }

    /// Stop the apply thread (idempotent). Promotion calls this before
    /// draining the final tail so nothing applies concurrently.
    pub fn stop(&self) {
        let thread = self.inner.poller.lock().expect("poller lock").take();
        drop(thread); // joins
    }

    /// The mirror directory (what promotion recovers from).
    pub fn mirror_dir(&self) -> &Path {
        &self.inner.mirror
    }

    /// The primary address replicas redirect writers to (empty when the
    /// source never advertised one).
    pub fn primary_addr(&self) -> String {
        self.inner
            .primary_addr
            .lock()
            .map(|a| a.clone())
            .unwrap_or_default()
    }

    /// Last consumed sequence number per shard id — how promotion picks
    /// the most-caught-up replica.
    pub fn applied_seqs(&self) -> BTreeMap<u64, u64> {
        let state = self.inner.apply.lock().expect("apply lock");
        state
            .streams
            .iter()
            .map(|(&id, s)| (id, s.applied_seq))
            .collect()
    }

    /// Current replication counters and per-shard lag.
    pub fn repl_stats(&self) -> ReplStats {
        self.inner
            .stats
            .lock()
            .map(|s| s.clone())
            .unwrap_or_default()
    }

    /// The one-shard engine serving this replica's reads (views registered
    /// here serve `read_view` / `view_deltas_since` incrementally).
    pub fn serving(&self) -> &EngineServer {
        &self.inner.serving
    }

    /// One shipping + apply pass: pull the manifest, mirror new bytes,
    /// decode and apply newly complete frames (or reconcile through the
    /// recovery planner when the stream surprises us). Serialized with
    /// the apply thread by the apply lock.
    pub fn sync_once(&self) -> Result<ReplSyncReport, EngineError> {
        let mut state = self.inner.apply.lock().expect("apply lock");
        let mut report = ReplSyncReport::default();

        let telemetry = Arc::clone(self.inner.serving.telemetry_registry());
        let ship = telemetry.start(Phase::ReplShip);
        let manifest = self.inner.source.manifest()?;
        if !manifest.primary_addr.is_empty() {
            if let Ok(mut a) = self.inner.primary_addr.lock() {
                *a = manifest.primary_addr.clone();
            }
        }
        let structural = mirror_files(
            self.inner.source.as_ref(),
            &self.inner.mirror,
            &manifest,
            self.inner.chunk_bytes,
            &mut report.bytes_shipped,
        )?;
        drop(ship);

        let _apply = telemetry.start(Phase::ReplApply);
        let topology_changed = state.topology != manifest.topology;
        let mut need_reconcile = structural || topology_changed;
        if !need_reconcile {
            match self.apply_incremental(&mut state, &mut report) {
                Ok(()) => {}
                Err(StreamAnomaly(reason)) => {
                    // The stream surprised us (gap, CRC failure,
                    // prepare-count mismatch): fall back to the
                    // recovery planner rather than guessing.
                    let _ = reason;
                    need_reconcile = true;
                }
            }
        }
        if need_reconcile {
            self.reconcile(&mut state, &manifest, &mut report)?;
        }
        drop(state);

        self.update_lag(&manifest);
        if let Ok(mut stats) = self.inner.stats.lock() {
            stats.ship_passes += 1;
            stats.records_applied += report.records_consumed;
            stats.transactions_applied += report.transactions_applied;
        }
        Ok(report)
    }

    /// Decode and apply new complete frames for every shard stream.
    fn apply_incremental(
        &self,
        state: &mut ApplyState,
        report: &mut ReplSyncReport,
    ) -> Result<(), StreamAnomaly> {
        let ids: Vec<u64> = state.streams.keys().copied().collect();
        for id in ids {
            let dir = self.inner.mirror.join(format!("shard-{id}"));
            let stream = state.streams.get_mut(&id).expect("stream exists");
            loop {
                if stream.segment_first == 0 {
                    // No current segment: adopt one starting exactly
                    // where we left off, if it has been shipped.
                    let next = segment_file_name(stream.applied_seq + 1);
                    if dir.join(&next).exists() {
                        stream.segment_first = stream.applied_seq + 1;
                        stream.offset = 0;
                    } else {
                        break;
                    }
                }
                let path = dir.join(segment_file_name(stream.segment_first));
                let bytes = match std::fs::read(&path) {
                    Ok(b) => b,
                    Err(_) => return Err(StreamAnomaly("segment vanished")),
                };
                if (bytes.len() as u64) < stream.offset {
                    return Err(StreamAnomaly("segment shrank"));
                }
                let prefix = decode_segment_prefix(&bytes[stream.offset as usize..]);
                if prefix.corrupt.is_some() {
                    return Err(StreamAnomaly("corrupt frame"));
                }
                for rec in &prefix.records {
                    if rec.seq <= stream.applied_seq {
                        continue; // stale (already consumed pre-reconcile)
                    }
                    if rec.seq != stream.applied_seq + 1 {
                        return Err(StreamAnomaly("sequence gap"));
                    }
                    self.apply_record(stream, rec, report)?;
                }
                stream.offset += prefix.consumed as u64;
                // Rotation: once the writer opened the successor
                // segment, the current file never grows again.
                let succ = segment_file_name(stream.applied_seq + 1);
                if stream.segment_first != stream.applied_seq + 1 && dir.join(&succ).exists() {
                    stream.segment_first = stream.applied_seq + 1;
                    stream.offset = 0;
                } else {
                    break;
                }
            }
        }
        Ok(())
    }

    /// Consume one record through the stream's transaction grouping —
    /// the incremental twin of [`resolve_transactions`].
    fn apply_record(
        &self,
        stream: &mut ShardStream,
        rec: &WalRecord,
        report: &mut ReplSyncReport,
    ) -> Result<(), StreamAnomaly> {
        match &rec.op {
            WalOp::Delta {
                table,
                delta,
                chained,
            } => {
                stream.pending.push((table.clone(), delta.clone()));
                if !chained {
                    let batch = std::mem::take(&mut stream.pending);
                    self.commit_batch(&batch, report)?;
                }
            }
            WalOp::Prepare { gtx, records } => {
                if stream.pending.len() as u64 != *records {
                    return Err(StreamAnomaly("prepare-count mismatch"));
                }
                let chain = std::mem::take(&mut stream.pending);
                stream.in_doubt.insert(gtx.clone(), chain);
            }
            WalOp::Resolve { gtx, committed } => {
                if let Some(chain) = stream.in_doubt.remove(gtx) {
                    if *committed {
                        self.commit_batch(&chain, report)?;
                    }
                }
            }
        }
        stream.applied_seq = rec.seq;
        report.records_consumed += 1;
        Ok(())
    }

    fn commit_batch(
        &self,
        batch: &[(String, Delta)],
        report: &mut ReplSyncReport,
    ) -> Result<(), StreamAnomaly> {
        if batch.is_empty() {
            return Ok(());
        }
        self.inner
            .serving
            .commit_deltas_checked(batch)
            .map_err(|_| StreamAnomaly("replayed delta failed pre-image validation"))?;
        report.transactions_applied += 1;
        Ok(())
    }

    /// Recompute the settled state from the mirror through the recovery
    /// planner, commit the difference to the serving engine (one
    /// ordinary transaction per pass — views and subscribers see it as
    /// a delta, not a resync), and rebuild the streams.
    fn reconcile(
        &self,
        state: &mut ApplyState,
        manifest: &ReplManifest,
        report: &mut ReplSyncReport,
    ) -> Result<(), EngineError> {
        let (settled, streams) = build_settled(&self.inner.mirror)?;
        let current = self.inner.serving.snapshot();
        let mut diffs: Vec<(String, Delta)> = Vec::new();
        for name in settled.table_names() {
            let Ok(old) = current.table(name) else {
                // The table set is fixed at genesis; a table the serving
                // engine has never seen means the mirror belongs to a
                // different database.
                return Err(EngineError::WalCorrupt(format!(
                    "reconcile found unknown table {name:?} in the mirror"
                )));
            };
            let delta = Delta::between(old, settled.table(name)?)?;
            if !delta.is_empty() {
                diffs.push((name.to_string(), delta));
            }
        }
        if !diffs.is_empty() {
            self.inner.serving.commit_deltas_checked(&diffs)?;
            report.transactions_applied += 1;
        }
        let consumed: u64 = streams.values().map(|s| s.applied_seq).sum();
        let before: u64 = state.streams.values().map(|s| s.applied_seq).sum();
        report.records_consumed += consumed.saturating_sub(before);
        state.streams = streams;
        state.topology = manifest.topology.clone();
        report.reconciled = true;
        Ok(())
    }

    fn update_lag(&self, manifest: &ReplManifest) {
        let applied = self.applied_seqs();
        let lag: Vec<ReplicaLag> = manifest
            .shards
            .iter()
            .map(|sm| {
                let a = applied.get(&sm.id).copied().unwrap_or(0);
                ReplicaLag {
                    shard: sm.id,
                    // A bare-directory source reports last_seq 0
                    // (unknown); clamp so lag never goes negative.
                    primary_seq: sm.last_seq.max(a),
                    applied_seq: a,
                }
            })
            .collect();
        if let Ok(mut stats) = self.inner.stats.lock() {
            stats.lag = lag;
        }
    }

    /// The serving engine's metrics with the replication section filled
    /// in.
    pub fn metrics(&self) -> MetricsSnapshot {
        self.inner.serving.metrics().with_repl(self.repl_stats())
    }

    /// The serving engine's telemetry snapshot with per-shard lag
    /// gauges injected (`repl_lag_records` total plus one per shard).
    pub fn telemetry(&self) -> esm_obs::TelemetrySnapshot {
        let mut snap = self.inner.serving.telemetry_registry().snapshot();
        let stats = self.repl_stats();
        snap.set_gauge("repl_lag_records", stats.max_records_behind());
        for lag in &stats.lag {
            snap.set_gauge(
                &format!("repl_lag_records_shard_{}", lag.shard),
                lag.records_behind(),
            );
        }
        snap
    }
}

/// An incremental-apply surprise: not an error, a signal to fall back
/// to the reconcile path.
struct StreamAnomaly(#[allow(dead_code)] &'static str);

/// Mirror everything `manifest` lists into `mirror`, appending only new
/// bytes of grown files. Returns whether anything *structural* changed
/// — a file shrank or vanished, a shard directory appeared or
/// disappeared — which forces the caller down the reconcile path.
fn mirror_files(
    source: &dyn WalSource,
    mirror: &Path,
    manifest: &ReplManifest,
    chunk_bytes: u64,
    bytes_shipped: &mut u64,
) -> Result<bool, EngineError> {
    let mut structural = false;

    // Topology first: write-then-rename so a crashed replica never holds
    // a torn manifest.
    let topo_path = mirror.join(TOPOLOGY_FILE);
    let current = std::fs::read(&topo_path).unwrap_or_default();
    if current != manifest.topology {
        let tmp = mirror.join(format!("{TOPOLOGY_FILE}.tmp"));
        std::fs::write(&tmp, &manifest.topology)?;
        std::fs::rename(&tmp, &topo_path)?;
    }

    let expected_dirs: BTreeSet<u64> = manifest.shards.iter().map(|s| s.id).collect();
    for sm in &manifest.shards {
        let dir = mirror.join(format!("shard-{}", sm.id));
        if !dir.exists() {
            structural = true; // a split published a new shard
            std::fs::create_dir_all(&dir)?;
        }
        let expected: BTreeSet<&str> = sm.files.iter().map(|f| f.name.as_str()).collect();
        for f in &sm.files {
            let path = dir.join(&f.name);
            let local = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if local > f.len {
                // Files never shrink on the primary; a longer local copy
                // means the mirror drifted. Refetch from scratch.
                std::fs::remove_file(&path)?;
                structural = true;
            }
            let mut at = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
            if at < f.len {
                let mut out = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(&path)?;
                while at < f.len {
                    let want = (f.len - at).min(chunk_bytes);
                    let chunk = source.fetch(sm.id, &f.name, at, want)?;
                    if chunk.is_empty() {
                        break; // source EOF moved under us; next pass catches up
                    }
                    out.write_all(&chunk)?;
                    at += chunk.len() as u64;
                    *bytes_shipped += chunk.len() as u64;
                }
                out.sync_data()?;
            }
        }
        // Drop local files the primary no longer has (compacted
        // segments, pruned checkpoints). Removing an unconsumed segment
        // is structural; removing consumed history is not, but telling
        // them apart needs stream state — be conservative for segments,
        // quiet for checkpoints.
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let recognized =
                parse_segment_name(name).is_some() || parse_checkpoint_name(name).is_some();
            if recognized && !expected.contains(name) {
                if parse_segment_name(name).is_some() {
                    structural = true;
                }
                std::fs::remove_file(entry.path())?;
            }
        }
    }
    // Drop local shard dirs the primary no longer has (a merge removed
    // the donor).
    for entry in std::fs::read_dir(mirror)? {
        let entry = entry?;
        let Some(id) = entry
            .file_name()
            .to_str()
            .and_then(|n| n.strip_prefix("shard-"))
            .and_then(|n| n.parse::<u64>().ok())
        else {
            continue;
        };
        if !expected_dirs.contains(&id) {
            std::fs::remove_dir_all(entry.path())?;
            structural = true;
        }
    }
    Ok(structural)
}

/// Build the settled database and fresh stream states from a mirrored
/// base directory — the recovery pipeline, minus in-doubt settlement
/// (a replica holds in-doubt chains; only promotion settles them).
fn build_settled(mirror: &Path) -> Result<(Database, BTreeMap<u64, ShardStream>), EngineError> {
    let (_next_id, _router, ids) = read_topology(mirror)?;
    let mut pieces = Vec::with_capacity(ids.len());
    let mut streams = BTreeMap::new();
    for &id in &ids {
        let dir = mirror.join(format!("shard-{id}"));
        let (ckpt, _skipped) = latest_valid_checkpoint(&dir)?;
        let (ckpt_seq, mut piece) = match ckpt {
            Some(c) => (c.seq, c.db),
            None => (0, Database::new()),
        };
        let segments = scan_segments(&dir)?;
        let (records, _stale) = plan_recovery(ckpt_seq, &segments)?;
        let resolved = resolve_transactions(&records)?;
        for (table, delta) in &resolved.applied {
            delta.apply_in_place(piece.table_mut(table)?)?;
        }
        let pending: Vec<(String, Delta)> = match resolved.tail_first_seq {
            Some(first) => records
                .iter()
                .filter(|r| r.seq >= first)
                .filter_map(|r| match &r.op {
                    WalOp::Delta { table, delta, .. } => Some((table.clone(), delta.clone())),
                    _ => None,
                })
                .collect(),
            None => Vec::new(),
        };
        let applied_seq = records.last().map_or(ckpt_seq, |r| r.seq);
        let (segment_first, offset) = match segments.last() {
            Some(seg) => (seg.first_seq, seg.prefix.consumed as u64),
            None => (0, 0),
        };
        streams.insert(
            id,
            ShardStream {
                segment_first,
                offset,
                applied_seq,
                pending,
                in_doubt: resolved.in_doubt,
            },
        );
        pieces.push(piece);
    }
    let db = crate::shard::assemble(pieces.into_iter())?;
    Ok((db, streams))
}

// ---------------------------------------------------------------------
// Engine trait: full read surface, typed NotPrimary on every write.
// ---------------------------------------------------------------------

use crate::engine::{ArcEngine, CommitReceipt, Engine};
use crate::sub::{CommitNotifier, ViewDeltas};
use crate::view::EntangledView;
use esm_relational::ViewDef;

impl ReplicaEngine {
    fn not_primary<T>(&self) -> Result<T, EngineError> {
        Err(EngineError::NotPrimary {
            primary: self.primary_addr(),
        })
    }
}

impl Engine for ReplicaEngine {
    fn as_engine(&self) -> ArcEngine {
        Arc::new(self.clone())
    }

    fn table_names(&self) -> Result<Vec<String>, EngineError> {
        Engine::table_names(&self.inner.serving)
    }

    fn table(&self, name: &str) -> Result<Table, EngineError> {
        Engine::table(&self.inner.serving, name)
    }

    fn snapshot(&self) -> Result<Database, EngineError> {
        Engine::snapshot(&self.inner.serving)
    }

    /// View *definition* is local read-serving machinery (it registers
    /// a lens and materializes a window over replicated state), so a
    /// replica allows it; *writes* through the view are rejected. The
    /// handle routes through the replica, so its writes are rejected too.
    fn define_view(
        &self,
        name: &str,
        table: &str,
        def: &ViewDef,
    ) -> Result<EntangledView, EngineError> {
        Engine::define_view(&self.inner.serving, name, table, def)?;
        Ok(EntangledView::attach(self.as_engine(), name))
    }

    fn view(&self, name: &str) -> Result<EntangledView, EngineError> {
        Engine::view(&self.inner.serving, name)?;
        Ok(EntangledView::attach(self.as_engine(), name))
    }

    fn view_names(&self) -> Result<Vec<String>, EngineError> {
        Engine::view_names(&self.inner.serving)
    }

    fn read_view(&self, name: &str) -> Result<Table, EngineError> {
        Engine::read_view(&self.inner.serving, name)
    }

    fn write_view(&self, _name: &str, _view: Table) -> Result<Delta, EngineError> {
        self.not_primary()
    }

    fn edit_view_delta(&self, _name: &str, _delta: &Delta) -> Result<Delta, EngineError> {
        self.not_primary()
    }

    fn transact(
        &self,
        _max_attempts: u32,
        _body: &dyn Fn(&mut Database) -> Result<(), EngineError>,
    ) -> Result<CommitReceipt, EngineError> {
        self.not_primary()
    }

    fn commit_checked(&self, _deltas: &[(String, Delta)]) -> Result<CommitReceipt, EngineError> {
        self.not_primary()
    }

    fn metrics(&self) -> Result<MetricsSnapshot, EngineError> {
        Ok(ReplicaEngine::metrics(self))
    }

    fn telemetry(&self) -> Result<esm_obs::TelemetrySnapshot, EngineError> {
        Ok(ReplicaEngine::telemetry(self))
    }

    fn traces(&self) -> Result<esm_obs::TraceReport, EngineError> {
        Engine::traces(&self.inner.serving)
    }

    fn telemetry_handle(&self) -> Option<Arc<esm_obs::Telemetry>> {
        Engine::telemetry_handle(&self.inner.serving)
    }

    /// A replica's durability is the mirror, maintained by shipping —
    /// there is no local WAL to checkpoint.
    fn checkpoint(&self) -> Result<Option<u64>, EngineError> {
        Ok(None)
    }

    fn sync_wal(&self) -> Result<(), EngineError> {
        Ok(())
    }

    fn commit_notifier(&self) -> Option<Arc<CommitNotifier>> {
        Engine::commit_notifier(&self.inner.serving)
    }

    fn view_cursor(&self, name: &str) -> Result<u64, EngineError> {
        Engine::view_cursor(&self.inner.serving, name)
    }

    fn view_deltas_since(&self, name: &str, cursor: u64) -> Result<ViewDeltas, EngineError> {
        Engine::view_deltas_since(&self.inner.serving, name, cursor)
    }
}
