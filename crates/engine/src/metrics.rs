//! Engine counters: lock-free telemetry for the concurrent façade.

use std::sync::atomic::{AtomicU64, Ordering};

/// Monotonic counters shared by all clients of one engine.
#[derive(Debug, Default)]
pub struct Metrics {
    commits: AtomicU64,
    conflicts: AtomicU64,
    retries: AtomicU64,
    view_reads: AtomicU64,
    rows_written: AtomicU64,
    materialized_reads: AtomicU64,
    deltas_applied: AtomicU64,
    rebuilds: AtomicU64,
    shards_pruned: AtomicU64,
}

/// Counters kept by the materialized-view maintenance machinery. In
/// steady state a registered view serves every read from its maintained
/// window: `materialized_reads` climbs, `deltas_applied` tracks the
/// committed changes folded in, and `rebuilds` stays flat at its
/// registration value — a rising rebuild count means some delta hit the
/// propagation escape hatch and reads are falling back to full lens
/// `get` re-runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ViewStats {
    /// Reads served from a maintained materialized window (no lens `get`
    /// re-run).
    pub materialized_reads: u64,
    /// Committed base deltas translated and applied to view windows.
    pub deltas_applied: u64,
    /// Full lens-`get` window (re)builds: one per view registration, plus
    /// one per propagation escape hatch or shard-topology change.
    pub rebuilds: u64,
    /// Shard windows skipped by key-range pruning, summed over reads
    /// (zero for one-shard engines and unbounded views).
    pub shards_pruned: u64,
}

/// Counters kept by a durable WAL backend (zero when the engine runs
/// in-memory). Updated under the WAL lock, read via
/// [`crate::DurableWal::stats`] or merged into [`MetricsSnapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct WalStats {
    /// Records appended to the durable log.
    pub appends: u64,
    /// fsync calls issued (group commit batches several appends per
    /// sync).
    pub syncs: u64,
    /// Bytes appended to segment files.
    pub bytes_written: u64,
    /// Segment rotations (a new segment file opened after the size
    /// threshold).
    pub rotations: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Segment files deleted by compaction.
    pub segments_compacted: u64,
}

/// Counters kept by the sharding layer (splits, merges and 2PC stay zero
/// on a one-shard engine).
/// Updated by [`crate::shard::ShardedEngineServer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardStats {
    /// Transactions that touched exactly one shard (fast path: no
    /// coordination, one WAL).
    pub single_shard_commits: u64,
    /// Transactions committed across shards by two-phase commit.
    pub cross_shard_commits: u64,
    /// 2PC prepare phases executed (= participants prepared, summed over
    /// cross-shard transactions).
    pub prepares: u64,
    /// Per-shard in-doubt settlements recovery resolved as committed (a
    /// resolution marker was found on some shard). Counts shard-side
    /// chains, not distinct transactions: one transaction in doubt on
    /// `k` shards contributes `k`.
    pub recovery_commits: u64,
    /// Per-shard in-doubt settlements recovery resolved as aborted (no
    /// shard held a commit marker: presumed abort). Same per-shard
    /// counting unit as `recovery_commits`.
    pub recovery_aborts: u64,
    /// Online shard splits performed.
    pub splits: u64,
    /// Online shard merges performed.
    pub merges: u64,
    /// Rows moved between shards by splits, merges and recovery repair.
    pub rows_migrated: u64,
    /// Splits initiated by the auto-rebalancing policy (a subset of
    /// `splits`).
    pub auto_splits: u64,
    /// Merges initiated by the auto-rebalancing policy (a subset of
    /// `merges`).
    pub auto_merges: u64,
    /// The hottest shard's commit-rate EWMA, in millicommits/second
    /// (×1000; zero until the policy thread has sampled). The policy's
    /// split trigger reads this.
    pub commit_rate_ewma_milli: u64,
    /// Fleet commit-rate skew: hottest EWMA over coldest EWMA, ×1000
    /// (so 2000 = the hottest shard commits twice as fast as the
    /// coldest). 1000 when perfectly even; zero until sampled.
    pub commit_rate_skew_milli: u64,
}

/// One shard's load sample: the inputs the auto-rebalancing policy
/// decides from, exported so operators can see what the policy sees.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardLoad {
    /// The shard's stable id (the `shard-<id>` directory).
    pub shard: u64,
    /// Rows currently resident on the shard (summed over tables).
    pub rows: u64,
    /// Commits this shard has participated in since construction.
    pub commits: u64,
    /// The policy thread's commit-rate EWMA for this shard, in
    /// millicommits/second (zero until sampled).
    pub rate_ewma_milli: u64,
}

/// One replica's per-shard replication lag: how far its applied WAL
/// position trails the primary's durable tail.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ReplicaLag {
    /// The shard's stable id.
    pub shard: u64,
    /// The primary's durable last sequence number for this shard at the
    /// last manifest fetch (zero when the source does not know it).
    pub primary_seq: u64,
    /// The last WAL record this replica has consumed for this shard.
    pub applied_seq: u64,
}

impl ReplicaLag {
    /// Records the replica still trails by (saturating: a replica that
    /// mirrored unsynced bytes can briefly run ahead of the reported
    /// durable tail).
    pub fn records_behind(&self) -> u64 {
        self.primary_seq.saturating_sub(self.applied_seq)
    }
}

/// Replication counters kept by a [`crate::repl::ReplicaEngine`] (empty
/// everywhere else).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplStats {
    /// Per-shard lag, in topology order, from the replica's most recent
    /// shipping pass.
    pub lag: Vec<ReplicaLag>,
    /// Shipping passes completed (manifest fetch + mirror + apply).
    pub ship_passes: u64,
    /// WAL records applied to the replica's serving engine.
    pub records_applied: u64,
    /// Settled transactions applied (chains count once).
    pub transactions_applied: u64,
}

impl ReplStats {
    /// The worst per-shard lag in records (zero when fully caught up or
    /// when no lag has been sampled).
    pub fn max_records_behind(&self) -> u64 {
        self.lag
            .iter()
            .map(ReplicaLag::records_behind)
            .max()
            .unwrap_or(0)
    }
}

/// A point-in-time copy of the counters.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct MetricsSnapshot {
    /// Transactions committed.
    pub commits: u64,
    /// First-committer-wins conflicts detected.
    pub conflicts: u64,
    /// Optimistic write attempts retried after a conflict.
    pub retries: u64,
    /// View reads served.
    pub view_reads: u64,
    /// Rows inserted or deleted by committed deltas.
    pub rows_written: u64,
    /// In-memory WAL trims, summed over shards: each time an append took
    /// a shard's log past [`crate::wal::WAL_RETAINED_RECORDS`] and the
    /// shard dropped its oldest settled records. Kept by the shards, so
    /// the engine fills it in (like [`MetricsSnapshot::wal`]).
    pub wal_truncations: u64,
    /// WAL records dropped by those trims.
    pub wal_records_truncated: u64,
    /// Durable-WAL counters (all zero for in-memory engines).
    pub wal: WalStats,
    /// Sharding counters.
    pub shard: ShardStats,
    /// Materialized-view maintenance counters.
    pub view: ViewStats,
    /// Per-shard load samples, in topology order (empty until a
    /// rebalance policy runs).
    pub shard_load: Vec<ShardLoad>,
    /// Replication counters (empty except on replica engines).
    pub repl: ReplStats,
}

impl Metrics {
    pub(crate) fn commit(&self, rows: u64) {
        self.commits.fetch_add(1, Ordering::Relaxed);
        self.rows_written.fetch_add(rows, Ordering::Relaxed);
    }

    pub(crate) fn conflict(&self) {
        self.conflicts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn view_read(&self) {
        self.view_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn view_materialized(&self) {
        self.materialized_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn view_deltas(&self, n: u64) {
        self.deltas_applied.fetch_add(n, Ordering::Relaxed);
    }

    pub(crate) fn view_rebuild(&self) {
        self.rebuilds.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn view_pruned(&self, shards: u64) {
        self.shards_pruned.fetch_add(shards, Ordering::Relaxed);
    }

    /// Copy the current counter values. Durable-WAL stats live with the
    /// [`crate::DurableWal`] (single-writer under the WAL lock); callers
    /// that own one merge them in with [`MetricsSnapshot::with_wal`].
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            commits: self.commits.load(Ordering::Relaxed),
            conflicts: self.conflicts.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            view_reads: self.view_reads.load(Ordering::Relaxed),
            rows_written: self.rows_written.load(Ordering::Relaxed),
            wal_truncations: 0,
            wal_records_truncated: 0,
            wal: WalStats::default(),
            shard: ShardStats::default(),
            view: ViewStats {
                materialized_reads: self.materialized_reads.load(Ordering::Relaxed),
                deltas_applied: self.deltas_applied.load(Ordering::Relaxed),
                rebuilds: self.rebuilds.load(Ordering::Relaxed),
                shards_pruned: self.shards_pruned.load(Ordering::Relaxed),
            },
            shard_load: Vec::new(),
            repl: ReplStats::default(),
        }
    }
}

impl MetricsSnapshot {
    /// This snapshot with durable-WAL stats filled in.
    pub fn with_wal(mut self, wal: WalStats) -> MetricsSnapshot {
        self.wal = wal;
        self
    }

    /// This snapshot with sharding stats filled in.
    pub fn with_shard(mut self, shard: ShardStats) -> MetricsSnapshot {
        self.shard = shard;
        self
    }

    /// This snapshot with per-shard load samples filled in.
    pub fn with_shard_load(mut self, load: Vec<ShardLoad>) -> MetricsSnapshot {
        self.shard_load = load;
        self
    }

    /// This snapshot with replication counters filled in.
    pub fn with_repl(mut self, repl: ReplStats) -> MetricsSnapshot {
        self.repl = repl;
        self
    }
}

/// Atomic counters behind [`ShardStats`], owned by the sharded facade.
#[derive(Debug, Default)]
pub struct ShardMetrics {
    single_shard_commits: AtomicU64,
    cross_shard_commits: AtomicU64,
    prepares: AtomicU64,
    recovery_commits: AtomicU64,
    recovery_aborts: AtomicU64,
    splits: AtomicU64,
    merges: AtomicU64,
    rows_migrated: AtomicU64,
    auto_splits: AtomicU64,
    auto_merges: AtomicU64,
}

impl ShardMetrics {
    pub(crate) fn single_shard_commit(&self) {
        self.single_shard_commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn cross_shard_commit(&self, participants: u64) {
        self.cross_shard_commits.fetch_add(1, Ordering::Relaxed);
        self.prepares.fetch_add(participants, Ordering::Relaxed);
    }

    pub(crate) fn recovery_commit(&self) {
        self.recovery_commits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn recovery_abort(&self) {
        self.recovery_aborts.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn split(&self, rows_moved: u64) {
        self.splits.fetch_add(1, Ordering::Relaxed);
        self.rows_migrated.fetch_add(rows_moved, Ordering::Relaxed);
    }

    pub(crate) fn merge(&self, rows_moved: u64) {
        self.merges.fetch_add(1, Ordering::Relaxed);
        self.rows_migrated.fetch_add(rows_moved, Ordering::Relaxed);
    }

    pub(crate) fn migrated(&self, rows: u64) {
        self.rows_migrated.fetch_add(rows, Ordering::Relaxed);
    }

    pub(crate) fn auto_split(&self) {
        self.auto_splits.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn auto_merge(&self) {
        self.auto_merges.fetch_add(1, Ordering::Relaxed);
    }

    /// Copy the current counter values.
    pub fn snapshot(&self) -> ShardStats {
        ShardStats {
            single_shard_commits: self.single_shard_commits.load(Ordering::Relaxed),
            cross_shard_commits: self.cross_shard_commits.load(Ordering::Relaxed),
            prepares: self.prepares.load(Ordering::Relaxed),
            recovery_commits: self.recovery_commits.load(Ordering::Relaxed),
            recovery_aborts: self.recovery_aborts.load(Ordering::Relaxed),
            splits: self.splits.load(Ordering::Relaxed),
            merges: self.merges.load(Ordering::Relaxed),
            rows_migrated: self.rows_migrated.load(Ordering::Relaxed),
            auto_splits: self.auto_splits.load(Ordering::Relaxed),
            auto_merges: self.auto_merges.load(Ordering::Relaxed),
            // The EWMA aggregates are not atomics here: the sharded
            // engine folds them in from the policy thread's load map
            // (see `ShardedEngineServer::metrics`).
            commit_rate_ewma_milli: 0,
            commit_rate_skew_milli: 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::default();
        m.commit(3);
        m.commit(2);
        m.conflict();
        m.retry();
        m.view_read();
        m.view_materialized();
        m.view_deltas(4);
        m.view_rebuild();
        m.view_pruned(3);
        let s = m.snapshot();
        assert_eq!(s.commits, 2);
        assert_eq!(s.rows_written, 5);
        assert_eq!(s.conflicts, 1);
        assert_eq!(s.retries, 1);
        assert_eq!(s.view_reads, 1);
        assert_eq!(s.view.materialized_reads, 1);
        assert_eq!(s.view.deltas_applied, 4);
        assert_eq!(s.view.rebuilds, 1);
        assert_eq!(s.view.shards_pruned, 3);
    }
}
