//! WAL-shipping replication and fleet self-management.
//!
//! The durability format *is* the replication stream: CRC32
//! self-delimiting segment files and atomically-renamed checkpoints are
//! already safe to read at any byte prefix (the crash-recovery suites
//! prove it at every offset), so a replica that mirrors a primary's
//! WAL directories byte-for-byte and runs the same recovery planning
//! ([`crate::durable::plan_recovery`] / `resolve_transactions`)
//! converges to the primary's settled state — the state-transformer
//! equivalence the paper's monadic semantics rest on.
//!
//! ```text
//!  primary (ShardedEngineServer)          replica (ReplicaEngine)
//!  ┌──────────────────────────┐   ship   ┌──────────────────────────┐
//!  │ shard-0/ wal-*.seg ──────┼────────▶ │ mirror/shard-0/ …        │
//!  │ shard-1/ wal-*.seg ──────┼────────▶ │ mirror/shard-1/ …        │
//!  │ topology.esm ────────────┼────────▶ │ mirror/topology.esm      │
//!  └──────────────────────────┘          │   │ decode + apply       │
//!         ▲ WalSource                    │   ▼ one-shard serving    │
//!         │ (REPL_* verbs or fs)        │ reads, views, subs       │
//!                                        └──────────────────────────┘
//!                                              │ promote()
//!                                              ▼
//!                                   ShardedEngineServer::recover_with
//!                                   (settles in-doubt 2PC, takes writes)
//! ```
//!
//! * [`WalSource`] — how a replica reaches a primary's log bytes: a
//!   manifest (topology + per-shard file list + last durable seqs) and
//!   ranged file reads. [`shipper::PrimaryWalSource`] serves it from a
//!   live engine, [`shipper::DirWalSource`] from a bare directory (the
//!   disk outlives the process — how a promotion drains a dead
//!   primary's tail), and `esm-net`'s `RemoteWalSource` over the wire.
//! * [`replica::ReplicaEngine`] — mirrors the files, applies settled
//!   transactions through a one-shard serving engine (so views,
//!   subscriptions and `view_deltas_since` stay incremental), and
//!   serves the whole read side of [`crate::Engine`]. Write paths
//!   return [`crate::EngineError::NotPrimary`] carrying the primary's
//!   advertised address.
//! * [`promote`] — failover: stop shipping, drain what remains of the
//!   primary's log, then run the proven sharded recovery over the
//!   mirror. Every acked `group_commit=1` commit was fsynced into
//!   bytes the mirror has; in-doubt 2PC settles all-or-nothing.
//! * [`policy`] — stats-driven auto-rebalancing: per-shard commit-rate
//!   EWMAs drive [`crate::shard::ShardedEngineServer`]'s `split_shard`
//!   (at [`ShardedEngineServer::median_split_key`][msk]) and
//!   `merge_shards` when load skews past thresholds.
//!
//! [msk]: crate::shard::ShardedEngineServer::median_split_key
//!
//! ## Consistency model
//!
//! A replica is *eventually* consistent and always *transactionally*
//! consistent per shard: it applies whole settled transactions in WAL
//! order, never a torn prefix of one. Cross-shard 2PC transactions may
//! appear on the replica staggered (one participant shard applied, the
//! other not yet) — the same relaxation a sharded read without all
//! shard locks would see; promotion re-settles them atomically. A
//! replica may also briefly apply bytes the primary wrote but has not
//! fsynced; those commits are unacknowledged, so surfacing them early
//! breaks no acknowledgement promise.

pub mod policy;
pub mod promote;
pub mod replica;
pub mod shipper;

pub use policy::{PolicyAction, PolicyConfig, PolicyHandle, RebalancePolicy};
pub use promote::{most_caught_up, Promotion};
pub use replica::{ReplSyncReport, ReplicaConfig, ReplicaEngine};
pub use shipper::{DirWalSource, PrimaryWalSource};

use crate::error::EngineError;

/// One file a shard's WAL directory holds, as the manifest advertises
/// it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FileEntry {
    /// File name within the shard directory (`wal-…seg`,
    /// `checkpoint-…ckpt`).
    pub name: String,
    /// Its length in bytes at manifest time. Segments only grow;
    /// checkpoints appear at full length (atomic rename).
    pub len: u64,
}

/// One shard's slice of the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardManifest {
    /// The shard's stable id (its directory is `shard-<id>`).
    pub id: u64,
    /// The primary's last durable sequence number for this shard — the
    /// replica's lag reference. 0 when the source cannot know it (a
    /// bare-directory source).
    pub last_seq: u64,
    /// Shippable files, sorted by name.
    pub files: Vec<FileEntry>,
}

/// Everything a replica needs to plan one shipping pass.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ReplManifest {
    /// The primary's `topology.esm` bytes, shipped inline (it is tiny
    /// and must be read atomically with the shard list).
    pub topology: Vec<u8>,
    /// Where writers should retry (`EngineError::NotPrimary` payload);
    /// empty when the primary never advertised.
    pub primary_addr: String,
    /// Per-shard file listings, sorted by id.
    pub shards: Vec<ShardManifest>,
}

/// A primary's shippable WAL surface: the contract between a replica
/// and wherever the bytes live (live engine, bare directory, or the
/// other end of a socket).
pub trait WalSource: Send + Sync + std::fmt::Debug {
    /// A consistent-enough listing: files may have grown by the time
    /// they are fetched (segments are append-only, so later bytes are
    /// only ever *more* log), but never shrunk or been rewritten.
    fn manifest(&self) -> Result<ReplManifest, EngineError>;

    /// Up to `len` bytes of `shard-<shard>/<file>` starting at
    /// `offset`. Short reads (EOF) return what exists; a vanished file
    /// returns `Io` (the replica resyncs from the next manifest).
    fn fetch(&self, shard: u64, file: &str, offset: u64, len: u64) -> Result<Vec<u8>, EngineError>;
}

/// Reject file names that could escape a shard directory. The wire
/// server calls sources with client-supplied names; sources built on
/// real filesystems must refuse traversal.
pub(crate) fn check_file_name(name: &str) -> Result<(), EngineError> {
    if name.is_empty()
        || name.contains('/')
        || name.contains('\\')
        || name.contains("..")
        || name.starts_with('.')
    {
        return Err(EngineError::Io(format!(
            "illegal replication file name: {name:?}"
        )));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traversal_names_are_rejected() {
        for bad in ["", "../x", "a/b", "a\\b", ".hidden", "x..y"] {
            assert!(check_file_name(bad).is_err(), "{bad:?} should be rejected");
        }
        assert!(check_file_name("wal-00000001.seg").is_ok());
        assert!(check_file_name("checkpoint-00000042.ckpt").is_ok());
    }
}
