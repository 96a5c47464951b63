//! The durable WAL backend: file-backed segments + checkpoints.
//!
//! [`DurableWal`] owns one directory and keeps two things in step:
//!
//! * an **active segment file** receiving encoded [`WalRecord`]s, synced
//!   by group commit (one fsync per `group_commit` appends) and rotated
//!   once it passes `segment_bytes`;
//! * the **newest checkpoint**, written atomically; compaction deletes
//!   every segment (and older checkpoint) fully covered by it.
//!   Checkpoints and compaction run **off the commit path**: the engine's
//!   maintenance thread checkpoints each shard on an interval
//!   ([`DurabilityConfig::maintenance_interval_ms`]), so a committing
//!   thread never pays for a snapshot write.
//!
//! The log holds no database. A checkpoint serializes the state its
//! caller hands it (the engine's live piece, captured under the shard
//! lock); to refuse one that would cover half a transaction, the log
//! tracks only the in-flight chain's length and the in-doubt 2PC ids.
//!
//! ## Recovery state machine ([`DurableWal::open`])
//!
//! 1. **Checkpoint scan** — pick the newest checkpoint whose seal (length
//!    and CRC32) holds and whose body decodes; torn or rotten ones are
//!    skipped in favour of an older valid one.
//! 2. **Segment scan** — read every `wal-*.seg` in name order and decode
//!    the longest complete-record prefix of each
//!    ([`crate::segment::decode_segment_prefix`]); a torn tail is legal
//!    only where a crash can produce one — after the last durable
//!    record — while a CRC failure on a *complete* frame is mid-stream
//!    bit rot and fails recovery outright.
//! 3. **Plan** ([`plan_recovery`]) — walk the records in order, skipping
//!    *stale* ones (seq already covered by the checkpoint or an earlier
//!    segment — duplicate/stale segment files are tolerated, never
//!    re-applied), requiring the rest to continue `checkpoint_seq`
//!    contiguously; a gap or a record following a torn segment is real
//!    corruption and fails recovery.
//! 4. **Resolve** ([`resolve_transactions`]) — group the surviving
//!    records into transactions: complete chains apply; a prepared chain
//!    applies or drops with its resolution marker; a prepared chain with
//!    *no* resolution is returned to the caller as **in doubt** (the
//!    sharded recovery decides its outcome by consulting every shard —
//!    see [`crate::shard`]); an *unterminated* trailing chain is an
//!    interrupted transaction and is discarded whole — all-or-nothing,
//!    never a prefix.
//! 5. **Repair** — torn tails and discarded trailing chains are
//!    truncated off their files so the directory is clean again, and a
//!    fresh active segment is opened at `last_seq + 1`.
//!
//! The crash-recovery suite drives steps 1–4 at every byte offset of a
//! recorded run and asserts the recovered state equals the live state at
//! the longest durable transaction prefix — the paper's equivalence
//! claim (state rebuilt by replaying the log ≡ state observed live) made
//! exhaustive.
//!
//! ## Durability contract
//!
//! With `group_commit = 1` every acknowledged commit is on disk before
//! the commit call returns. With `group_commit = n`, up to `n - 1`
//! acknowledged records may be lost to a crash (they are never torn —
//! recovery trims to a record boundary). The durability unit is one
//! *transaction*: a multi-record chain interrupted between records
//! recovers to nothing, never to a prefix.
//!
//! Write-path failures are **fail-stop**: once an append, fsync or
//! checkpoint write errors, bytes may or may not have reached the disk,
//! so the log poisons itself — the failed commit is reported to its
//! caller, the engine's live state is not advanced, and every later
//! durable write refuses with a pointer to restart-and-recover. Recovery
//! then re-derives the truth from the files (a record whose bytes did
//! land is replayed; one whose bytes did not is gone — either way a
//! clean prefix, the usual fsync-failure gray zone made explicit).

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Condvar, Mutex, PoisonError};

use esm_store::{Database, Delta};

use crate::checkpoint::{checkpoint_file_name, latest_valid_checkpoint, Checkpoint};
use crate::checkpoint::{parse_checkpoint_name, sync_dir};
use crate::error::EngineError;
use crate::metrics::WalStats;
use crate::segment::{
    decode_segment_prefix, parse_segment_name, segment_file_name, DiskFile, SegmentPrefix,
    SegmentWriter,
};
use crate::wal::{WalOp, WalRecord};

/// Tuning for a durable WAL directory.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Directory holding segments and checkpoints (created if absent).
    pub dir: PathBuf,
    /// Rotate to a fresh segment file once the active one reaches this
    /// many bytes.
    pub segment_bytes: u64,
    /// Group commit: fsync once per this many appended records. 1 = sync
    /// every record (strongest durability); larger values batch, trading
    /// the tail of acknowledged-but-unsynced records on crash for fewer
    /// fsyncs.
    pub group_commit: usize,
    /// Checkpoint (and compact) once this many records accumulate past
    /// the newest checkpoint; 0 = only on explicit
    /// [`DurableWal::checkpoint`] calls. The work runs on the engine's
    /// maintenance thread, never on a committing thread.
    pub checkpoint_every: u64,
    /// How often the maintenance thread wakes to check
    /// [`DurableWal::needs_checkpoint`], in milliseconds. 0 disables the
    /// thread (embedders then drive `run_maintenance` themselves — the
    /// deterministic choice for tests).
    pub maintenance_interval_ms: u64,
    /// Telemetry tuning for the engine this config builds: slow-trace
    /// threshold, trace-buffer capacity, trace sampling rate. Defaults
    /// preserve the zero-config behavior.
    pub telemetry: esm_obs::TelemetryConfig,
    /// Chaos knob: extra nanoseconds every disk fsync sleeps before
    /// issuing, read live from the shared atomic. The load/chaos
    /// harness holds a clone and raises it mid-run to inject a
    /// sync-stall fault window; `None` (the default) costs nothing.
    pub sync_delay: Option<Arc<std::sync::atomic::AtomicU64>>,
}

impl DurabilityConfig {
    /// Defaults: 64 KiB segments, sync every record, checkpoint every
    /// 256 records, maintenance tick every 20 ms.
    pub fn new(dir: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            dir: dir.into(),
            segment_bytes: 64 * 1024,
            group_commit: 1,
            checkpoint_every: 256,
            maintenance_interval_ms: 20,
            telemetry: esm_obs::TelemetryConfig::default(),
            sync_delay: None,
        }
    }

    /// Set the segment rotation threshold.
    pub fn segment_bytes(mut self, bytes: u64) -> DurabilityConfig {
        self.segment_bytes = bytes.max(1);
        self
    }

    /// Set the group-commit batch size.
    pub fn group_commit(mut self, records: usize) -> DurabilityConfig {
        self.group_commit = records.max(1);
        self
    }

    /// Set the automatic checkpoint interval (0 disables).
    pub fn checkpoint_every(mut self, records: u64) -> DurabilityConfig {
        self.checkpoint_every = records;
        self
    }

    /// Set the maintenance thread's wake interval (0 disables the
    /// thread; checkpoints then happen only via explicit calls).
    pub fn maintenance_interval_ms(mut self, ms: u64) -> DurabilityConfig {
        self.maintenance_interval_ms = ms;
        self
    }

    /// Set the engine's telemetry tuning (slow threshold, ring and
    /// trace capacities, trace sampling rate).
    pub fn telemetry_config(mut self, telemetry: esm_obs::TelemetryConfig) -> DurabilityConfig {
        self.telemetry = telemetry;
        self
    }

    /// Install a live fsync-delay handle (nanoseconds; the chaos
    /// harness raises it mid-run to inject sync stalls).
    pub fn sync_delay_handle(
        mut self,
        delay: Arc<std::sync::atomic::AtomicU64>,
    ) -> DurabilityConfig {
        self.sync_delay = Some(delay);
        self
    }
}

/// What a recovery pass found and did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RecoveryReport {
    /// Sequence number of the checkpoint recovery started from.
    pub checkpoint_seq: u64,
    /// The last durable sequence number.
    pub last_seq: u64,
    /// Records replayed on top of the checkpoint
    /// (`last_seq - checkpoint_seq`; strictly fewer than a
    /// replay-from-genesis whenever a later checkpoint exists).
    pub records_replayed: u64,
    /// Stale/duplicate records skipped (from segments already covered by
    /// the checkpoint or by earlier segments).
    pub stale_skipped: u64,
    /// Segment files scanned.
    pub segments_scanned: u64,
    /// Torn tail bytes truncated off segment files (crash artifacts and
    /// discarded trailing chains).
    pub torn_bytes: u64,
    /// Corrupt or torn checkpoint files skipped over.
    pub corrupt_checkpoints_skipped: u64,
    /// 2PC transactions left in doubt (prepared, never resolved); the
    /// sharded recovery settles them — see [`crate::shard`].
    pub in_doubt_transactions: u64,
    /// Records of an unterminated trailing transaction chain discarded
    /// (and truncated off the log) so recovery is all-or-nothing.
    pub tail_records_discarded: u64,
}

/// One scanned segment, ready for [`plan_recovery`].
#[derive(Debug, Clone)]
pub struct ScannedSegment {
    /// First sequence number, from the file name.
    pub first_seq: u64,
    /// The decoded complete-record prefix.
    pub prefix: SegmentPrefix,
}

/// Decide which records a set of scanned segments contributes on top of
/// a checkpoint. Pure: the crash-recovery harness calls this directly at
/// every truncation offset without touching a filesystem.
///
/// Segments must be ordered by `first_seq`. Stale records (seq already
/// covered) are skipped, never re-applied; surviving records must extend
/// `checkpoint_seq` contiguously. A torn segment is accepted, but any
/// *new* record after one means bytes went missing mid-log — corruption,
/// not a crash artifact — and fails with `WalCorrupt`. A segment whose
/// decode reported bit rot ([`SegmentPrefix::corrupt`]) fails recovery
/// outright: truncating past a CRC failure would silently drop committed
/// records.
pub fn plan_recovery(
    checkpoint_seq: u64,
    segments: &[ScannedSegment],
) -> Result<(Vec<WalRecord>, u64), EngineError> {
    let mut records: Vec<WalRecord> = Vec::new();
    let mut last = checkpoint_seq;
    let mut stale = 0u64;
    let mut torn_at: Option<u64> = None;
    for seg in segments {
        if let Some(reason) = &seg.prefix.corrupt {
            return Err(EngineError::WalCorrupt(format!(
                "segment starting at seq {}: {reason}",
                seg.first_seq
            )));
        }
        for rec in &seg.prefix.records {
            if rec.seq <= last {
                stale += 1;
                continue;
            }
            if let Some(first) = torn_at {
                return Err(EngineError::WalCorrupt(format!(
                    "record seq {} follows a torn segment (first seq {first}): log bytes are missing mid-history",
                    rec.seq
                )));
            }
            if rec.seq != last + 1 {
                return Err(EngineError::WalCorrupt(format!(
                    "sequence gap in recovery: expected {}, found {}",
                    last + 1,
                    rec.seq
                )));
            }
            records.push(rec.clone());
            last += 1;
        }
        if seg.prefix.torn {
            torn_at = Some(seg.first_seq);
        }
    }
    Ok((records, stale))
}

/// Prepared-but-unresolved 2PC chains, keyed by global transaction id:
/// each chain's `(table, delta)` records in log order.
pub type InDoubtChains = BTreeMap<String, Vec<(String, Delta)>>;

/// A contiguous record run grouped into transactions — what recovery may
/// actually apply.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResolvedLog {
    /// Deltas to apply, in log order: complete chains plus prepared
    /// chains whose `!resolve commit` is in the log.
    pub applied: Vec<(String, Delta)>,
    /// Prepared-but-unresolved chains — held, not applied, until the
    /// sharded recovery decides.
    pub in_doubt: InDoubtChains,
    /// Every resolution marker seen (`gtx → committed`), including ones
    /// whose prepare predates this run — the evidence the sharded
    /// recovery votes with.
    pub resolutions: BTreeMap<String, bool>,
    /// Sequence number of the first record of an unterminated trailing
    /// chain (everything from here on must be discarded and truncated),
    /// if one exists.
    pub tail_first_seq: Option<u64>,
}

/// Group a contiguous record run into transactions (pure; see
/// [`ResolvedLog`]). Fails with `WalCorrupt` on structural impossibilia:
/// a prepare marker whose record count disagrees with its chain.
pub fn resolve_transactions(records: &[WalRecord]) -> Result<ResolvedLog, EngineError> {
    let mut out = ResolvedLog::default();
    let mut pending: Vec<(u64, String, Delta)> = Vec::new();
    for rec in records {
        match &rec.op {
            WalOp::Delta {
                table,
                delta,
                chained,
            } => {
                pending.push((rec.seq, table.clone(), delta.clone()));
                if !chained {
                    out.applied
                        .extend(pending.drain(..).map(|(_, t, d)| (t, d)));
                }
            }
            WalOp::Prepare { gtx, records } => {
                if pending.len() as u64 != *records {
                    return Err(EngineError::WalCorrupt(format!(
                        "prepare marker for {gtx} at seq {} claims {records} records, found {}",
                        rec.seq,
                        pending.len()
                    )));
                }
                out.in_doubt.insert(
                    gtx.clone(),
                    pending.drain(..).map(|(_, t, d)| (t, d)).collect(),
                );
            }
            WalOp::Resolve { gtx, committed } => {
                out.resolutions.insert(gtx.clone(), *committed);
                if let Some(group) = out.in_doubt.remove(gtx) {
                    if *committed {
                        out.applied.extend(group);
                    }
                }
            }
        }
    }
    out.tail_first_seq = pending.first().map(|(seq, _, _)| *seq);
    Ok(out)
}

/// Scan a directory's segment files (sorted, decoded). Shared by
/// [`DurableWal::open`] and the recovery benchmarks.
pub fn scan_segments(dir: &Path) -> Result<Vec<ScannedSegment>, EngineError> {
    let mut firsts: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(first) = entry.file_name().to_str().and_then(parse_segment_name) {
            firsts.push(first);
        }
    }
    firsts.sort_unstable();
    let mut segments = Vec::with_capacity(firsts.len());
    for first_seq in firsts {
        let bytes = std::fs::read(dir.join(segment_file_name(first_seq)))?;
        segments.push(ScannedSegment {
            first_seq,
            prefix: decode_segment_prefix(&bytes),
        });
    }
    Ok(segments)
}

/// A file-backed WAL: segments + checkpoints in one directory.
///
/// Single-writer: the engine serializes appends under its WAL lock. The
/// directory must belong to one live engine at a time.
#[derive(Debug)]
pub struct DurableWal {
    config: DurabilityConfig,
    writer: SegmentWriter<DiskFile>,
    /// Chained records the in-flight transaction has written so far (its
    /// terminator or prepare marker has not landed yet).
    chained: u64,
    /// Global transaction ids of prepared 2PC chains awaiting their
    /// resolution marker.
    in_doubt: BTreeSet<String>,
    /// Resolution markers recovered from the log (evidence for the
    /// sharded recovery's commit/abort vote).
    recovered_resolutions: BTreeMap<String, bool>,
    last_seq: u64,
    checkpoint_seq: u64,
    stats: WalStats,
    /// Set on the first write-path failure; all further writes refuse.
    poisoned: Option<String>,
    /// Phase-latency registry handed to every segment writer this log
    /// opens (appends → `CommitWalAppend`, syncs → `CommitFsync`).
    telemetry: Option<Arc<esm_obs::Telemetry>>,
    /// Wakes the engine's maintenance thread once an append leaves a
    /// checkpoint due; `woken` marks that it was woken since the last
    /// checkpoint.
    waker: Option<MaintenanceWaker>,
    woken: bool,
}

impl DurableWal {
    /// Initialise a fresh durable WAL in `config.dir`: writes the genesis
    /// checkpoint (seq 0 = `baseline`) and opens the first segment.
    /// Refuses a directory that already holds a log — use
    /// [`DurableWal::open`] to recover one.
    pub fn create(
        config: DurabilityConfig,
        baseline: &Database,
    ) -> Result<DurableWal, EngineError> {
        std::fs::create_dir_all(&config.dir)?;
        let occupied = std::fs::read_dir(&config.dir)?
            .filter_map(|e| e.ok())
            .any(|e| {
                let name = e.file_name();
                let name = name.to_str().unwrap_or("");
                parse_segment_name(name).is_some() || parse_checkpoint_name(name).is_some()
            });
        if occupied {
            return Err(EngineError::Io(format!(
                "{} already contains a durable WAL; recover it instead of re-creating",
                config.dir.display()
            )));
        }
        let mut stats = WalStats::default();
        Checkpoint {
            seq: 0,
            db: baseline.clone(),
        }
        .write_atomic(&config.dir)?;
        stats.checkpoints += 1;
        let writer = open_segment(&config.dir, 1, config.sync_delay.clone())?;
        Ok(DurableWal {
            config,
            writer,
            chained: 0,
            in_doubt: BTreeSet::new(),
            recovered_resolutions: BTreeMap::new(),
            last_seq: 0,
            checkpoint_seq: 0,
            stats,
            poisoned: None,
            telemetry: None,
            waker: None,
            woken: false,
        })
    }

    /// Recover a durable WAL directory (see the module docs for the state
    /// machine). Returns the log handle, the recovered committed
    /// database, the in-doubt chains, and a report of what recovery did.
    ///
    /// Prepared-but-unresolved 2PC chains are **not** applied to the
    /// returned database; [`DurableWal::in_doubt`] lists them until a
    /// resolution marker is appended (the sharded recovery does this after
    /// consulting every shard — a standalone engine has none).
    pub fn open(
        config: DurabilityConfig,
    ) -> Result<(DurableWal, Database, InDoubtChains, RecoveryReport), EngineError> {
        let (ckpt, corrupt_skipped) = latest_valid_checkpoint(&config.dir)?;
        let ckpt = ckpt.ok_or_else(|| {
            EngineError::WalCorrupt(format!(
                "{} holds no valid checkpoint: not a durable WAL directory",
                config.dir.display()
            ))
        })?;
        let segments = scan_segments(&config.dir)?;
        let (records, stale_skipped) = plan_recovery(ckpt.seq, &segments)?;
        let resolved = resolve_transactions(&records)?;

        // Housekeeping: a crash between a checkpoint's temp-file write
        // and its rename strands a `*.tmp` that nothing else will ever
        // look at; sweep them here so they cannot accumulate.
        for entry in std::fs::read_dir(&config.dir)? {
            let entry = entry?;
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.ends_with(".tmp"))
            {
                std::fs::remove_file(entry.path())?;
            }
        }

        // Repair: truncate torn tails, and truncate the records of an
        // unterminated trailing chain (an interrupted transaction must
        // vanish whole, not linger to be mis-joined with future appends).
        let keep_last_seq = match resolved.tail_first_seq {
            Some(first) => first - 1,
            None => ckpt.seq + records.len() as u64,
        };
        let mut torn_bytes = 0u64;
        for seg in &segments {
            let keep_records = seg
                .prefix
                .records
                .partition_point(|r| r.seq <= keep_last_seq);
            let keep_bytes = if keep_records == seg.prefix.records.len() {
                if !seg.prefix.torn {
                    continue;
                }
                seg.prefix.consumed as u64
            } else if keep_records == 0 {
                0
            } else {
                seg.prefix.ends[keep_records - 1] as u64
            };
            let path = config.dir.join(segment_file_name(seg.first_seq));
            let file = std::fs::OpenOptions::new().write(true).open(&path)?;
            let full = file.metadata()?.len();
            torn_bytes += full - keep_bytes;
            file.set_len(keep_bytes)?;
            file.sync_data()?;
        }

        let mut db = ckpt.db;
        for (table, delta) in &resolved.applied {
            delta.apply_in_place(db.table_mut(table)?)?;
        }
        let report = RecoveryReport {
            checkpoint_seq: ckpt.seq,
            last_seq: keep_last_seq,
            records_replayed: keep_last_seq - ckpt.seq,
            stale_skipped,
            segments_scanned: segments.len() as u64,
            torn_bytes,
            corrupt_checkpoints_skipped: corrupt_skipped,
            in_doubt_transactions: resolved.in_doubt.len() as u64,
            tail_records_discarded: records.len() as u64 - (keep_last_seq - ckpt.seq),
        };
        let writer = open_segment(&config.dir, keep_last_seq + 1, config.sync_delay.clone())?;
        Ok((
            DurableWal {
                config,
                writer,
                chained: 0,
                in_doubt: resolved.in_doubt.keys().cloned().collect(),
                recovered_resolutions: resolved.resolutions,
                last_seq: keep_last_seq,
                checkpoint_seq: ckpt.seq,
                stats: WalStats::default(),
                poisoned: None,
                telemetry: None,
                waker: None,
                woken: false,
            },
            db,
            resolved.in_doubt,
            report,
        ))
    }

    /// Refuse further writes once a write-path failure happened: bytes
    /// (or a sync) may or may not have reached the disk, so the only
    /// honest sequence-number authority left is the log itself, via
    /// restart + [`DurableWal::open`]. Fail-stop beats guessing.
    fn guard(&self) -> Result<(), EngineError> {
        match &self.poisoned {
            Some(cause) => Err(EngineError::Io(format!(
                "durable WAL poisoned by an earlier failure ({cause}); \
                 restart and recover the directory"
            ))),
            None => Ok(()),
        }
    }

    /// Poison this log if `result` is an error (write-path side effects
    /// may have partially landed).
    fn poisoning<T>(&mut self, result: Result<T, EngineError>) -> Result<T, EngineError> {
        if let Err(e) = &result {
            self.poisoned = Some(e.to_string());
        }
        result
    }

    /// Append one record: write-ahead to the active segment, group
    /// commit, rotate per config. The record's seq must continue the log
    /// exactly, and a prepare marker must count the chain before it
    /// (both checked *before* any side effect; a rejection leaves the
    /// log fully usable). Any failure past that point poisons the log —
    /// see [`DurableWal::guard`]. Checkpointing is **not** done here —
    /// the engine's maintenance thread checkpoints off the commit path.
    pub fn append(&mut self, record: &WalRecord) -> Result<(), EngineError> {
        self.append_impl(record, false)
    }

    /// [`DurableWal::append`] minus the inline group-commit fsync: the
    /// record is written to the segment but the sync is the caller's
    /// responsibility — either an explicit [`DurableWal::sync`] (the 2PC
    /// coordinator, which must sync at protocol-defined points) or a
    /// [`GroupCommit`] wait, where one leader syncs for every concurrent
    /// committer. Rotation still syncs first, so deferral never reorders
    /// bytes across segment files.
    pub fn append_deferred(&mut self, record: &WalRecord) -> Result<(), EngineError> {
        self.append_impl(record, true)
    }

    fn append_impl(&mut self, record: &WalRecord, defer_sync: bool) -> Result<(), EngineError> {
        self.guard()?;
        if record.seq <= self.last_seq {
            return Err(EngineError::DuplicateSeq {
                seq: record.seq,
                last: self.last_seq,
            });
        }
        if record.seq != self.last_seq + 1 {
            return Err(EngineError::WalCorrupt(format!(
                "durable append would leave a gap: expected {}, got {}",
                self.last_seq + 1,
                record.seq
            )));
        }
        if let WalOp::Prepare { gtx, records } = &record.op {
            if *records != self.chained {
                return Err(EngineError::WalCorrupt(format!(
                    "prepare marker for {gtx} claims {records} records, found {}",
                    self.chained
                )));
            }
        }
        let appended = self.append_inner(record, defer_sync);
        self.poisoning(appended)
    }

    fn append_inner(&mut self, record: &WalRecord, defer_sync: bool) -> Result<(), EngineError> {
        let bytes = self.writer.append(record)?;
        self.stats.appends += 1;
        self.stats.bytes_written += bytes;
        self.last_seq = record.seq;
        match &record.op {
            WalOp::Delta { chained: true, .. } => self.chained += 1,
            WalOp::Delta { chained: false, .. } => self.chained = 0,
            WalOp::Prepare { gtx, .. } => {
                self.chained = 0;
                self.in_doubt.insert(gtx.clone());
            }
            WalOp::Resolve { gtx, .. } => {
                self.in_doubt.remove(gtx);
            }
        }
        if !defer_sync && self.writer.pending() >= self.config.group_commit {
            self.sync_inner()?;
        }
        if self.writer.bytes() >= self.config.segment_bytes {
            self.rotate_inner()?;
        }
        if let Some(waker) = self.waker.as_ref().filter(|_| !self.woken) {
            if self.needs_checkpoint() {
                waker.wake();
                self.woken = true;
            }
        }
        Ok(())
    }

    /// Force-fsync any records the group-commit batch is still holding.
    pub fn sync(&mut self) -> Result<(), EngineError> {
        self.guard()?;
        let synced = self.sync_inner();
        self.poisoning(synced)
    }

    fn sync_inner(&mut self) -> Result<(), EngineError> {
        if self.writer.sync()? {
            self.stats.syncs += 1;
        }
        Ok(())
    }

    /// Sync the active segment and open a fresh one at `last_seq + 1`.
    fn rotate_inner(&mut self) -> Result<(), EngineError> {
        self.sync_inner()?;
        self.writer = open_segment(
            &self.config.dir,
            self.last_seq + 1,
            self.config.sync_delay.clone(),
        )?;
        self.writer.set_telemetry(self.telemetry.clone());
        self.stats.rotations += 1;
        Ok(())
    }

    /// Attach a phase-latency registry: segment appends and fsyncs start
    /// recording into it. Survives segment rotation.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<esm_obs::Telemetry>>) {
        self.writer.set_telemetry(telemetry.clone());
        self.telemetry = telemetry;
    }

    /// Wake `waker`'s maintenance thread whenever an append leaves a
    /// checkpoint due ([`DurableWal::needs_checkpoint`]), instead of
    /// leaving it to the thread's next tick.
    pub(crate) fn set_waker(&mut self, waker: Option<MaintenanceWaker>) {
        self.waker = waker;
    }

    /// Would [`DurableWal::maybe_checkpoint`] write a checkpoint right
    /// now? True once `checkpoint_every` records accumulated past the
    /// newest checkpoint and no transaction is mid-flight (a checkpoint
    /// must never cover half a chain or an unresolved prepare).
    pub fn needs_checkpoint(&self) -> bool {
        self.poisoned.is_none()
            && self.config.checkpoint_every > 0
            && self.last_seq - self.checkpoint_seq >= self.config.checkpoint_every
            && self.chained == 0
            && self.in_doubt.is_empty()
    }

    /// Checkpoint `db` iff [`DurableWal::needs_checkpoint`] — the
    /// synchronous convenience (file write included, under the caller's
    /// lock). Engine maintenance loops instead use the
    /// [`DurableWal::begin_checkpoint`]/[`DurableWal::finish_checkpoint`]
    /// split so the serialize + fsync happens *outside* the commit lock.
    /// Returns the covered seq when one was written.
    pub fn maybe_checkpoint(&mut self, db: &Database) -> Result<Option<u64>, EngineError> {
        if self.needs_checkpoint() {
            self.checkpoint(db).map(Some)
        } else {
            Ok(None)
        }
    }

    /// Write `db`, the committed state through [`DurableWal::last_seq`], as
    /// the checkpoint at that seq, then compact; returns the seq. Refuses
    /// while a transaction is mid-flight (chained records without their
    /// terminator, or an unresolved 2PC prepare): the snapshot would
    /// cover half a transaction.
    pub fn checkpoint(&mut self, db: &Database) -> Result<u64, EngineError> {
        let ckpt = self.begin_checkpoint(db.clone())?;
        let seq = ckpt.seq;
        ckpt.write_atomic(&self.config.dir)?;
        self.finish_checkpoint(seq)
    }

    /// First half of an off-the-commit-path checkpoint: flush the
    /// group-commit batch and pair `db` (as for [`DurableWal::checkpoint`];
    /// the engine passes a chunk-sharing clone of its live piece) with the
    /// seq it covers. The caller serializes and fsyncs it *without* its
    /// lock, then calls [`DurableWal::finish_checkpoint`].
    pub fn begin_checkpoint(&mut self, db: Database) -> Result<Checkpoint, EngineError> {
        self.guard()?;
        if self.chained > 0 || !self.in_doubt.is_empty() {
            return Err(EngineError::Io(format!(
                "checkpoint refused: {} chained records and {} in-doubt transactions in flight",
                self.chained,
                self.in_doubt.len()
            )));
        }
        let synced = self.sync_inner();
        self.poisoning(synced)?;
        Ok(Checkpoint {
            seq: self.last_seq,
            db,
        })
    }

    /// Second half: record a checkpoint the caller wrote (atomically)
    /// and compact covered history. A failed checkpoint *write* is not
    /// poisonous — the log itself was untouched; simply skip this call
    /// and retry later. `seq` only ever raises the checkpoint horizon.
    pub fn finish_checkpoint(&mut self, seq: u64) -> Result<u64, EngineError> {
        self.guard()?;
        if seq > self.checkpoint_seq {
            self.checkpoint_seq = seq;
            self.stats.checkpoints += 1;
            self.woken = false;
        }
        // Compaction failures are not poisonous: a leftover covered
        // segment or old checkpoint wastes disk but corrupts nothing
        // (recovery skips its records as stale).
        self.compact()?;
        Ok(seq)
    }

    /// The directory checkpoints belong in (for off-lock writes).
    pub fn checkpoint_dir(&self) -> PathBuf {
        self.config.dir.clone()
    }

    /// Has a write-path failure poisoned this log? (All further writes
    /// refuse until restart + recovery; a sharded engine also refuses to
    /// checkpoint *peers* while any shard is poisoned — see
    /// [`crate::shard`].)
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.is_some()
    }

    /// Drop history no recovery will ever need. The two newest
    /// checkpoints are retained — if the newest turns out torn (a
    /// filesystem that lied about the atomic rename), recovery falls
    /// back to the previous one — so the compaction horizon is the
    /// *older* retained checkpoint: checkpoints below it are deleted,
    /// and so is every segment fully covered by it (a segment is covered
    /// when the *next* segment starts at or before `horizon + 1`; the
    /// active segment has no successor and is never deleted). Returns
    /// how many segment files were removed.
    pub fn compact(&mut self) -> Result<u64, EngineError> {
        let mut firsts: Vec<u64> = Vec::new();
        let mut ckpts: Vec<u64> = Vec::new();
        for entry in std::fs::read_dir(&self.config.dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_str().unwrap_or("");
            if let Some(first) = parse_segment_name(name) {
                firsts.push(first);
            } else if let Some(seq) = parse_checkpoint_name(name) {
                ckpts.push(seq);
            }
        }
        firsts.sort_unstable();
        ckpts.sort_unstable();
        let horizon = match ckpts.len() {
            0 | 1 => return Ok(0), // nothing is safely coverable yet
            n => ckpts[n - 2],
        };
        let mut removed = 0u64;
        for pair in firsts.windows(2) {
            if pair[1] <= horizon + 1 {
                std::fs::remove_file(self.config.dir.join(segment_file_name(pair[0])))?;
                removed += 1;
            }
        }
        for &seq in &ckpts[..ckpts.len() - 2] {
            std::fs::remove_file(self.config.dir.join(checkpoint_file_name(seq)))?;
        }
        self.stats.segments_compacted += removed;
        sync_dir(&self.config.dir)?;
        Ok(removed)
    }

    /// The last appended sequence number.
    pub fn last_seq(&self) -> u64 {
        self.last_seq
    }

    /// The sequence number covered by the newest checkpoint.
    pub fn checkpoint_seq(&self) -> u64 {
        self.checkpoint_seq
    }

    /// Global transaction ids of prepared-but-unresolved 2PC chains
    /// (populated by recovery; settled when a resolution marker is
    /// appended).
    pub fn in_doubt(&self) -> &BTreeSet<String> {
        &self.in_doubt
    }

    /// Resolution markers found by recovery (`gtx → committed`) — the
    /// evidence the sharded recovery votes with when settling in-doubt
    /// transactions.
    pub fn recovered_resolutions(&self) -> &BTreeMap<String, bool> {
        &self.recovered_resolutions
    }

    /// The directory this log lives in.
    pub fn dir(&self) -> &Path {
        &self.config.dir
    }

    /// Durability counters (appends, syncs, rotations, checkpoints, …).
    pub fn stats(&self) -> WalStats {
        self.stats
    }
}

/// Cross-session group commit: one leader fsyncs for every concurrent
/// committer.
///
/// The protocol, from a committer's point of view:
///
/// 1. Append your record(s) with [`DurableWal::append_deferred`] and
///    publish your in-memory state, all under the engine's usual locks;
///    capture your commit seq.
/// 2. Drop those locks and call [`GroupCommit::wait_durable`] with the
///    seq and a sync closure.
/// 3. If the batch is already durable past your seq (a leader synced
///    while you were between steps), return immediately. If no leader is
///    running, *become* the leader: run the sync closure — it re-takes
///    the WAL lock, notes the log's `last_seq` (which includes every
///    concurrent committer's append so far), fsyncs once, and returns
///    that seq — then publish it and wake every parked waiter. Otherwise
///    park on the condvar until the leader's broadcast.
///
/// The effect: N sessions committing concurrently pay ~1 fsync, because
/// whoever leads carries everyone who appended before the sync was
/// issued; durability is never weakened — no committer returns before
/// its own seq is on disk.
///
/// A failed leader sync poisons the group (and, via the closure, the
/// log itself — fail-stop): every parked and future waiter gets the
/// error instead of a false durability claim.
#[derive(Debug)]
pub(crate) struct GroupCommit {
    state: Mutex<GcState>,
    cv: Condvar,
}

#[derive(Debug)]
struct GcState {
    /// Every seq at or below this is fsynced.
    durable_seq: u64,
    /// A leader is currently running the sync closure.
    leader: bool,
    /// Set when a leader's sync failed; all waits refuse from then on.
    poisoned: Option<String>,
}

impl GroupCommit {
    /// A group-commit gate over a log whose durable horizon is
    /// currently `durable_seq`.
    pub(crate) fn new(durable_seq: u64) -> GroupCommit {
        GroupCommit {
            state: Mutex::new(GcState {
                durable_seq,
                leader: false,
                poisoned: None,
            }),
            cv: Condvar::new(),
        }
    }

    /// Block until `seq` is durable (see the type docs for the
    /// protocol). `sync` must fsync the log and return the seq the sync
    /// covered; it is invoked without the group lock held, so it may
    /// (must) take the WAL lock itself. Returns whether this committer
    /// **led** (ran the sync closure itself) or rode a leader's batch —
    /// the distinction the trace layer tags `group_commit_wait` spans
    /// with.
    pub(crate) fn wait_durable(
        &self,
        seq: u64,
        sync: impl FnOnce() -> Result<u64, EngineError>,
    ) -> Result<bool, EngineError> {
        let mut sync = Some(sync);
        let mut led = false;
        let mut st = self.state.lock().expect("group commit lock");
        loop {
            if let Some(cause) = &st.poisoned {
                return Err(EngineError::Io(format!(
                    "group commit poisoned by an earlier sync failure ({cause}); \
                     restart and recover the directory"
                )));
            }
            if st.durable_seq >= seq {
                return Ok(led);
            }
            match (st.leader, sync.take()) {
                (false, Some(sync)) => {
                    st.leader = true;
                    led = true;
                    drop(st);
                    let result = sync();
                    st = self.state.lock().expect("group commit lock");
                    st.leader = false;
                    match result {
                        Ok(through) => st.durable_seq = st.durable_seq.max(through),
                        Err(e) => {
                            st.poisoned = Some(e.to_string());
                            self.cv.notify_all();
                            return Err(e);
                        }
                    }
                    self.cv.notify_all();
                    // Loop: our own sync ran after our append, so
                    // durable_seq now covers seq.
                }
                (leading, taken) => {
                    // Either a leader is running (park until its
                    // broadcast) or we already led and are re-checking.
                    sync = taken;
                    debug_assert!(leading || sync.is_none());
                    st = self.cv.wait(st).expect("group commit lock");
                }
            }
        }
    }
}

/// Run one checkpoint with the engine lock released during the file
/// write: `begin` runs under the caller's lock and returns the snapshot
/// plus target directory when a checkpoint is due (`None` = nothing to
/// do); the serialize + fsync happens here, lock-free; `finish` runs
/// under the lock again to record the result and compact. Committing
/// threads therefore stall only for `begin`'s chunk-sharing clone
/// (O(tables + chunks), no row copied), never for the disk write.
pub(crate) fn checkpoint_off_lock(
    begin: impl FnOnce() -> Result<Option<(Checkpoint, PathBuf)>, EngineError>,
    finish: impl FnOnce(u64) -> Result<u64, EngineError>,
) -> Result<Option<u64>, EngineError> {
    let Some((ckpt, dir)) = begin()? else {
        return Ok(None);
    };
    let seq = ckpt.seq;
    ckpt.write_atomic(&dir)?;
    finish(seq).map(Some)
}

/// A background maintenance loop: wakes every `interval` or when woken
/// ([`MaintenanceWaker`]), runs `tick`, exits (joining the thread) when
/// dropped. The engine uses it to move checkpointing and compaction off
/// the commit path.
#[derive(Debug)]
pub(crate) struct MaintenanceThread {
    signals: MaintenanceWaker,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A handle that wakes a [`MaintenanceThread`] for an early tick.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaintenanceWaker(Arc<(Mutex<Signals>, Condvar)>);

/// What a [`MaintenanceThread`] is asked to do. A wake that arrives
/// while `tick` runs stays pending, and the next tick starts at once.
#[derive(Debug, Default)]
struct Signals {
    stop: bool,
    wake: bool,
}

impl MaintenanceWaker {
    /// Ask for a tick now.
    pub(crate) fn wake(&self) {
        self.signal(|s| s.wake = true);
    }

    /// Set a signal. Every update leaves both flags valid, so a
    /// poisoned lock is taken over: a commit's wake and `Drop` never
    /// panic.
    fn signal(&self, set: impl FnOnce(&mut Signals)) {
        let (signals, cv) = &*self.0;
        set(&mut signals.lock().unwrap_or_else(PoisonError::into_inner));
        cv.notify_all();
    }
}

impl MaintenanceThread {
    /// Spawn the loop. `tick` runs on the maintenance thread, never
    /// concurrently with itself.
    pub(crate) fn spawn(
        interval: std::time::Duration,
        mut tick: impl FnMut() + Send + 'static,
    ) -> MaintenanceThread {
        let signals = MaintenanceWaker::default();
        let in_thread = signals.clone();
        let handle = std::thread::Builder::new()
            .name("esm-maintenance".into())
            .spawn(move || {
                let (lock, cv) = &*in_thread.0;
                let mut signals = lock.lock().expect("maintenance signal lock");
                loop {
                    if !signals.wake && !signals.stop {
                        signals = (cv.wait_timeout(signals, interval))
                            .expect("maintenance signal lock")
                            .0;
                    }
                    if signals.stop {
                        return;
                    }
                    signals.wake = false;
                    drop(signals);
                    tick();
                    signals = lock.lock().expect("maintenance signal lock");
                }
            })
            .expect("spawn maintenance thread");
        MaintenanceThread {
            signals,
            handle: Some(handle),
        }
    }

    /// A handle that wakes this thread for an early tick.
    pub(crate) fn waker(&self) -> MaintenanceWaker {
        self.signals.clone()
    }
}

impl Drop for MaintenanceThread {
    fn drop(&mut self) {
        self.signals.signal(|s| s.stop = true);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

fn open_segment(
    dir: &Path,
    first_seq: u64,
    sync_delay: Option<Arc<std::sync::atomic::AtomicU64>>,
) -> Result<SegmentWriter<DiskFile>, EngineError> {
    let mut file = DiskFile::create(&dir.join(segment_file_name(first_seq)))?;
    file.set_sync_delay(sync_delay);
    sync_dir(dir)?;
    Ok(SegmentWriter::new(file, first_seq))
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Delta, Schema, Table, ValueType};

    fn baseline() -> Database {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        let mut db = Database::new();
        db.create_table(
            "t",
            Table::from_rows(schema, vec![row![0, "seed"]]).unwrap(),
        )
        .unwrap();
        db
    }

    fn insert(seq: u64) -> Delta {
        Delta {
            inserted: vec![row![seq as i64, format!("r{seq}")]],
            deleted: vec![],
        }
    }

    fn rec(seq: u64) -> WalRecord {
        WalRecord::delta(seq, "t", insert(seq))
    }

    /// The baseline plus the rows [`insert`] adds for `seqs`: the state a
    /// log of those records recovers to.
    fn with_rows(seqs: impl IntoIterator<Item = u64>) -> Database {
        let mut db = baseline();
        for seq in seqs {
            insert(seq)
                .apply_in_place(db.table_mut("t").unwrap())
                .unwrap();
        }
        db
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("esm-durable-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn create_append_reopen_round_trips() {
        let dir = tmp_dir("roundtrip");
        let cfg = DurabilityConfig::new(&dir)
            .group_commit(3)
            .checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        for seq in 1..=10 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        assert_eq!(wal.stats().appends, 10);
        assert!(wal.stats().syncs >= 3, "group commit batches syncs");
        drop(wal);

        let (reopened, db, in_doubt, report) = DurableWal::open(cfg).unwrap();
        assert_eq!(db, with_rows(1..=10));
        assert!(in_doubt.is_empty());
        assert_eq!(report.last_seq, 10);
        assert_eq!(report.records_replayed, 10);
        assert_eq!(report.checkpoint_seq, 0);
        assert_eq!(report.in_doubt_transactions, 0);
        assert_eq!(report.tail_records_discarded, 0);
        assert_eq!(reopened.last_seq(), 10);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn create_refuses_occupied_dir() {
        let dir = tmp_dir("occupied");
        let cfg = DurabilityConfig::new(&dir);
        let _wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        assert!(matches!(
            DurableWal::create(cfg, &baseline()),
            Err(EngineError::Io(_))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rotation_spreads_records_over_segments() {
        let dir = tmp_dir("rotate");
        let cfg = DurabilityConfig::new(&dir)
            .segment_bytes(64)
            .checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        for seq in 1..=20 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        assert!(wal.stats().rotations >= 5);
        let segs = scan_segments(&dir).unwrap();
        assert!(
            segs.len() >= 5,
            "expected several segments, got {}",
            segs.len()
        );
        let (_wal2, db, _, report) = DurableWal::open(cfg).unwrap();
        assert_eq!(report.records_replayed, 20);
        assert_eq!(db.table("t").unwrap().len(), 21);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_compacts_and_shrinks_replay() {
        let dir = tmp_dir("ckpt");
        let cfg = DurabilityConfig::new(&dir)
            .segment_bytes(64)
            .checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        for seq in 1..=15 {
            wal.append(&rec(seq)).unwrap();
        }
        assert_eq!(wal.checkpoint(&with_rows(1..=15)).unwrap(), 15);
        // Two retained checkpoints (genesis + 15): nothing compacts yet.
        for seq in 16..=30 {
            wal.append(&rec(seq)).unwrap();
        }
        assert_eq!(wal.checkpoint(&with_rows(1..=30)).unwrap(), 30);
        // Horizon is now 15: segments covered by it are gone.
        assert!(wal.stats().segments_compacted > 0);
        for seq in 31..=35 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);

        // Recovery loads the checkpoint it was handed and replays the
        // rest.
        let (_wal2, db, _, report) = DurableWal::open(cfg).unwrap();
        assert_eq!(db, with_rows(1..=35));
        assert_eq!(report.checkpoint_seq, 30);
        assert_eq!(
            report.records_replayed, 5,
            "only post-checkpoint records replay"
        );
        assert_eq!(report.last_seq, 35);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maybe_checkpoint_fires_on_interval_only() {
        let dir = tmp_dir("maybe-ckpt");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(8);
        let mut wal = DurableWal::create(cfg, &baseline()).unwrap();
        for seq in 1..=7 {
            wal.append(&rec(seq)).unwrap();
            assert!(!wal.needs_checkpoint());
            assert_eq!(wal.maybe_checkpoint(&with_rows(1..=seq)).unwrap(), None);
        }
        wal.append(&rec(8)).unwrap();
        assert!(wal.needs_checkpoint());
        assert_eq!(wal.maybe_checkpoint(&with_rows(1..=8)).unwrap(), Some(8));
        assert!(!wal.needs_checkpoint(), "gap reset after the checkpoint");
        assert_eq!(wal.checkpoint_seq(), 8);
        // Genesis + seq 8.
        assert_eq!(wal.stats().checkpoints, 2);
        std::fs::remove_dir_all(wal.dir()).ok();
    }

    #[test]
    fn checkpoints_refuse_mid_transaction() {
        let dir = tmp_dir("ckpt-midtx");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(1);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        wal.append(&WalRecord::chained(1, "t", insert(1))).unwrap();
        assert!(!wal.needs_checkpoint(), "a chain is in flight");
        assert!(
            matches!(wal.checkpoint(&baseline()), Err(EngineError::Io(msg)) if msg.contains("refused"))
        );
        wal.sync().unwrap();
        drop(wal);
        // The chained record stays invisible without its terminator.
        let (mut wal, db, _, report) = DurableWal::open(cfg.clone()).unwrap();
        assert_eq!(db, baseline());
        assert_eq!(report.tail_records_discarded, 1);
        wal.append(&WalRecord::chained(1, "t", insert(1))).unwrap();
        wal.append(&rec(2)).unwrap();
        // Terminated: checkpointing is legal again, and both records
        // recover.
        assert!(wal.needs_checkpoint());
        assert_eq!(wal.checkpoint(&with_rows([1, 2])).unwrap(), 2);
        drop(wal);
        let (_wal, db, _, report) = DurableWal::open(cfg).unwrap();
        assert_eq!(db, with_rows([1, 2]));
        assert_eq!(report.checkpoint_seq, 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn prepared_chains_stay_in_doubt_until_resolved() {
        let dir = tmp_dir("2pc-doubt");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        wal.append(&WalRecord::chained(1, "t", insert(1))).unwrap();
        wal.append(&WalRecord::prepare(2, "g1", 1)).unwrap();
        assert_eq!(wal.in_doubt().len(), 1);
        assert!(
            wal.checkpoint(&baseline()).is_err(),
            "an in-doubt chain refuses checkpoints"
        );
        wal.append(&WalRecord::resolve(3, "g1", true)).unwrap();
        assert!(wal.in_doubt().is_empty());
        // An aborted branch is dropped.
        wal.append(&WalRecord::chained(4, "t", insert(40))).unwrap();
        wal.append(&WalRecord::prepare(5, "g2", 1)).unwrap();
        wal.append(&WalRecord::resolve(6, "g2", false)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // The committed chain applied at its resolution; the aborted one
        // left no trace.
        let (_wal, db, in_doubt, _) = DurableWal::open(cfg).unwrap();
        assert_eq!(db, with_rows([1]));
        assert!(in_doubt.is_empty());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_rejects_stale_and_gapped_seqs() {
        let dir = tmp_dir("seq-guard");
        let mut wal = DurableWal::create(DurabilityConfig::new(&dir), &baseline()).unwrap();
        wal.append(&rec(1)).unwrap();
        assert!(matches!(
            wal.append(&rec(1)),
            Err(EngineError::DuplicateSeq { seq: 1, last: 1 })
        ));
        assert!(matches!(
            wal.append(&rec(5)),
            Err(EngineError::WalCorrupt(_))
        ));
        // Seq rejections happen before any side effect: not poisonous.
        wal.append(&rec(2)).unwrap();
        assert_eq!(wal.last_seq(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn write_path_failures_poison_the_log() {
        let dir = tmp_dir("poison");
        let cfg = DurabilityConfig::new(&dir)
            .segment_bytes(1)
            .checkpoint_every(0);
        let mut wal = DurableWal::create(cfg, &baseline()).unwrap();
        // A prepare that miscounts its chain is refused before any side
        // effect: not poisonous.
        assert!(matches!(
            wal.append(&WalRecord::prepare(1, "g1", 2)),
            Err(EngineError::WalCorrupt(_))
        ));
        // A record whose bytes reach the segment, followed by a rotation
        // that cannot create its next file: the log must fail-stop
        // rather than guess what reached the disk.
        std::fs::remove_dir_all(&dir).unwrap();
        assert!(matches!(wal.append(&rec(1)), Err(EngineError::Io(_))));
        for result in [
            wal.append(&rec(2)).err(),
            wal.sync().err(),
            wal.checkpoint(&baseline()).err(),
        ] {
            match result {
                Some(EngineError::Io(msg)) => assert!(msg.contains("poisoned"), "{msg}"),
                other => panic!("expected poisoned Io error, got {other:?}"),
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn open_sweeps_orphan_checkpoint_temp_files() {
        let dir = tmp_dir("orphan-tmp");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        wal.append(&rec(1)).unwrap();
        wal.sync().unwrap();
        drop(wal);
        // A crash between the checkpoint temp write and its rename.
        let orphan = dir.join(format!("{}.tmp", checkpoint_file_name(9)));
        let half = Checkpoint {
            seq: 9,
            db: baseline(),
        }
        .encode();
        std::fs::write(&orphan, &half[..half.len() / 2]).unwrap();
        let (_wal2, db, _, report) = DurableWal::open(cfg).unwrap();
        assert!(!orphan.exists(), "recovery sweeps stranded temp files");
        assert_eq!(report.last_seq, 1);
        assert_eq!(db.table("t").unwrap().len(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn plan_recovery_skips_stale_segments_and_rejects_gaps() {
        let seg = |first: u64, seqs: &[u64], torn: bool| ScannedSegment {
            first_seq: first,
            prefix: SegmentPrefix {
                records: seqs.iter().map(|&s| rec(s)).collect(),
                ends: Vec::new(),
                consumed: 0,
                torn,
                corrupt: None,
            },
        };
        // Stale duplicate segment overlapping the checkpoint and the
        // first live segment: its records are skipped, not re-applied.
        let (records, stale) = plan_recovery(
            4,
            &[
                seg(1, &[1, 2, 3, 4], false),
                seg(3, &[3, 4, 5], false),
                seg(6, &[6, 7], false),
            ],
        )
        .unwrap();
        assert_eq!(
            records.iter().map(|r| r.seq).collect::<Vec<_>>(),
            vec![5, 6, 7]
        );
        assert_eq!(stale, 6);

        // A gap is corruption.
        assert!(matches!(
            plan_recovery(0, &[seg(1, &[1, 2], false), seg(5, &[5], false)]),
            Err(EngineError::WalCorrupt(_))
        ));
        // New records after a torn segment are corruption…
        assert!(matches!(
            plan_recovery(0, &[seg(1, &[1], true), seg(2, &[2], false)]),
            Err(EngineError::WalCorrupt(_))
        ));
        // …but stale records after one are fine.
        let (records, stale) =
            plan_recovery(2, &[seg(1, &[1, 2], true), seg(1, &[1], false)]).unwrap();
        assert!(records.is_empty());
        assert_eq!(stale, 3);

        // A corrupt segment (bit rot) always fails recovery.
        let mut rotten = seg(1, &[1], false);
        rotten.prefix.corrupt = Some("crc mismatch".into());
        assert!(matches!(
            plan_recovery(0, &[rotten]),
            Err(EngineError::WalCorrupt(msg)) if msg.contains("crc mismatch")
        ));
    }

    #[test]
    fn resolver_groups_chains_and_tracks_doubt() {
        let records = vec![
            rec(1),                                  // lone commit
            WalRecord::chained(2, "t", insert(20)),  // chain of 2
            WalRecord::delta(3, "t", insert(21)),    //   terminator
            WalRecord::chained(4, "t", insert(30)),  // prepared…
            WalRecord::prepare(5, "ga", 1),          //   in doubt
            WalRecord::chained(6, "t", insert(40)),  // prepared…
            WalRecord::prepare(7, "gb", 1),          //
            WalRecord::resolve(8, "gb", true),       //   committed
            WalRecord::resolve(9, "gz", false),      // foreign verdict
            WalRecord::chained(10, "t", insert(50)), // unterminated tail
        ];
        let resolved = resolve_transactions(&records).unwrap();
        assert_eq!(resolved.applied.len(), 4, "1 + 2 + gb's 1");
        assert_eq!(resolved.in_doubt.len(), 1);
        assert!(resolved.in_doubt.contains_key("ga"));
        assert_eq!(
            resolved.resolutions,
            BTreeMap::from([("gb".to_string(), true), ("gz".to_string(), false)])
        );
        assert_eq!(resolved.tail_first_seq, Some(10));

        // A lying prepare count is corruption.
        let bad = vec![WalRecord::prepare(1, "g", 2)];
        assert!(matches!(
            resolve_transactions(&bad),
            Err(EngineError::WalCorrupt(_))
        ));
    }

    #[test]
    fn interrupted_chains_recover_all_or_nothing() {
        let dir = tmp_dir("chain-tail");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        wal.append(&rec(1)).unwrap();
        // A transaction chain whose terminator never landed (the crash
        // hit between records 2-of-3): recovery must discard the whole
        // chain and truncate it off the log.
        wal.append(&WalRecord::chained(2, "t", insert(20))).unwrap();
        wal.append(&WalRecord::chained(3, "t", insert(30))).unwrap();
        wal.sync().unwrap();
        drop(wal);

        let (recovered, db, _, report) = DurableWal::open(cfg.clone()).unwrap();
        assert_eq!(report.last_seq, 1, "the interrupted chain is gone");
        assert_eq!(report.tail_records_discarded, 2);
        assert!(report.torn_bytes > 0, "the chain bytes were truncated");
        assert_eq!(db.table("t").unwrap().len(), 2);
        drop(recovered);
        // The truncation is durable: a second recovery is clean and new
        // appends continue at seq 2.
        let (mut wal3, _db, _, report2) = DurableWal::open(cfg).unwrap();
        assert_eq!(report2.tail_records_discarded, 0);
        assert_eq!(report2.torn_bytes, 0);
        wal3.append(&rec(2)).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn in_doubt_transactions_survive_recovery_unapplied() {
        let dir = tmp_dir("2pc-recover");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        wal.append(&WalRecord::chained(1, "t", insert(10))).unwrap();
        wal.append(&WalRecord::prepare(2, "g1", 1)).unwrap();
        wal.sync().unwrap();
        drop(wal); // coordinator crashed between prepare and resolve

        let (mut recovered, db, in_doubt, report) = DurableWal::open(cfg.clone()).unwrap();
        assert_eq!(report.in_doubt_transactions, 1);
        assert_eq!(db, baseline(), "not applied");
        assert_eq!(
            in_doubt,
            BTreeMap::from([("g1".to_string(), vec![("t".to_string(), insert(10))])]),
            "the chain comes back to the caller"
        );
        assert!(recovered.in_doubt().contains("g1"));
        assert_eq!(recovered.last_seq(), 2, "the prepared chain stays logged");
        // The sharded recovery decides commit: appending the resolution
        // settles the log, and the next recovery applies the chain.
        recovered
            .append(&WalRecord::resolve(3, "g1", true))
            .unwrap();
        assert!(recovered.in_doubt().is_empty());
        recovered.sync().unwrap();
        drop(recovered);
        let (wal3, db3, in_doubt3, report3) = DurableWal::open(cfg).unwrap();
        assert_eq!(report3.in_doubt_transactions, 0);
        assert!(in_doubt3.is_empty());
        assert_eq!(wal3.recovered_resolutions().get("g1"), Some(&true));
        assert_eq!(db3, with_rows([10]));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_is_truncated_on_open() {
        let dir = tmp_dir("torn");
        let cfg = DurabilityConfig::new(&dir).checkpoint_every(0);
        let mut wal = DurableWal::create(cfg.clone(), &baseline()).unwrap();
        for seq in 1..=3 {
            wal.append(&rec(seq)).unwrap();
        }
        wal.sync().unwrap();
        drop(wal);
        // Simulate a crash mid-write: append half a framed record to the
        // active segment.
        let seg_path = dir.join(segment_file_name(1));
        let mut bytes = std::fs::read(&seg_path).unwrap();
        let torn = crate::segment::encode_framed_binary(&rec(4));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        std::fs::write(&seg_path, &bytes).unwrap();

        let (_wal2, db, _, report) = DurableWal::open(cfg.clone()).unwrap();
        assert_eq!(report.last_seq, 3);
        assert_eq!(report.torn_bytes, (torn.len() / 2) as u64);
        assert_eq!(db.table("t").unwrap().len(), 4);
        // The torn bytes are gone from disk: a second open is clean.
        let (_wal3, _db, _, report2) = DurableWal::open(cfg).unwrap();
        assert_eq!(report2.torn_bytes, 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn maintenance_thread_runs_and_stops() {
        use std::sync::atomic::{AtomicU64, Ordering};
        let ticks = Arc::new(AtomicU64::new(0));
        let seen = Arc::clone(&ticks);
        let thread = MaintenanceThread::spawn(std::time::Duration::from_millis(1), move || {
            seen.fetch_add(1, Ordering::Relaxed);
        });
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        while ticks.load(Ordering::Relaxed) < 3 && std::time::Instant::now() < deadline {
            std::thread::yield_now();
        }
        assert!(ticks.load(Ordering::Relaxed) >= 3, "the loop ticks");
        drop(thread); // joins: no tick runs after drop returns
        let after = ticks.load(Ordering::Relaxed);
        std::thread::sleep(std::time::Duration::from_millis(10));
        assert_eq!(ticks.load(Ordering::Relaxed), after, "stopped cleanly");
    }
}
