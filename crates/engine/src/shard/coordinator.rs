//! [`ShardCoordinator`]: two-phase commit across shards, built on the
//! per-shard WAL's prepare/resolve markers.
//!
//! ## Protocol
//!
//! The coordinator write-locks every participant **in shard-index
//! order** (one global lock order — no deadlocks against other
//! coordinators, single-shard committers or the rebalancer) and holds
//! the locks across both phases:
//!
//! 1. **Prepare** — each participant validates first-committer-wins
//!    against its own WAL, then appends its chain of delta records
//!    terminated by a `!prepare <gtx>` marker (buffered, no inline
//!    sync); the participants' WALs are then **fsynced in parallel**,
//!    one scoped thread per shard, so the phase costs the slowest
//!    fsync rather than their sum. The syncs are load-bearing: once
//!    any shard's commit resolution reaches disk, every participant's
//!    prepared chain must already be there, or a crash could surface a
//!    partial transaction.
//! 2. **Resolve** — each participant appends `!resolve commit <gtx>`
//!    and applies its chain.
//!
//! Because the locks are held throughout, no other transaction can
//! observe (or commit between) the phases: the in-doubt window exists
//! only on disk, for crash recovery to settle.
//!
//! ## Crash recovery (presumed abort)
//!
//! A coordinator that dies between the phases leaves each participant's
//! log ending in a prepared-but-unresolved chain. Recovery
//! ([`crate::shard::ShardedEngineServer::recover_with`]) collects every
//! shard's verdict evidence: if **any** shard holds `!resolve commit
//! <gtx>`, the transaction committed — recovery finishes the resolution
//! on the rest; if none does, nothing was acknowledged — recovery
//! appends `!resolve abort` everywhere. Either way every shard lands on
//! the same side: all-or-nothing, deterministically.
//!
//! [`FailPoint`] injects coordinator crashes at the protocol's two
//! dangerous windows so the crash tests can prove exactly that.

use std::sync::atomic::{AtomicU64, Ordering};

use esm_obs::{Phase, PhaseGuard, Telemetry};
use esm_store::Delta;

use crate::error::EngineError;
use crate::shard::shard::{GroupEnd, Shard, ShardState};

/// Coordinator crash injection, for the recovery test harness. After a
/// failpoint fires the engine instance is wedged mid-protocol (locks
/// released, resolution never written) — exactly a coordinator crash;
/// discard it and recover from disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FailPoint {
    /// No injected failure (production).
    #[default]
    None,
    /// Die after every participant prepared (and fsynced) but before any
    /// resolution is written: recovery must presume abort everywhere.
    AfterPrepare,
    /// Die after this many participants wrote their commit resolution:
    /// recovery must finish the commit everywhere.
    AfterResolves(usize),
}

/// One participant's share of a cross-shard transaction.
pub(crate) struct Participant<'a> {
    /// Index of the shard in the topology (the lock order).
    pub index: usize,
    /// The shard itself.
    pub shard: &'a Shard,
    /// The WAL seq this transaction's snapshot reflected on this shard.
    pub snap_seq: u64,
    /// Per-table deltas to commit on this shard.
    pub deltas: Vec<(String, Delta)>,
    /// This transaction's key set per table (for first-committer-wins).
    pub keys: std::collections::BTreeMap<String, std::collections::BTreeSet<esm_store::Row>>,
}

/// Issues global transaction ids and runs two-phase commit.
#[derive(Debug, Default)]
pub struct ShardCoordinator {
    next_gtx: AtomicU64,
}

impl ShardCoordinator {
    /// A coordinator whose first transaction id follows `seed` (recovery
    /// seeds this past every recovered id, keeping gtx ids unique per
    /// directory lifetime).
    pub(crate) fn starting_after(seed: u64) -> ShardCoordinator {
        ShardCoordinator {
            next_gtx: AtomicU64::new(seed + 1),
        }
    }

    /// Commit a cross-shard transaction by 2PC. Participants must be
    /// sorted by `index` (the global lock order). On a
    /// first-committer-wins conflict nothing is written and the conflict
    /// error returns to the caller for retry. Returns the gtx id.
    ///
    /// `stamp` is called once, while every participant lock is held,
    /// with no conflicts remaining — its return value is the commit's
    /// position in the engine-wide serialization order, and each
    /// participant records it in its stamp index at its resolution.
    ///
    /// Each participant's prepare append, resolve append and both
    /// fsyncs are `Twopc*` phase regions: with `telemetry` one sample
    /// per participant per phase, so the histograms expose the per-shard
    /// cost, not just the transaction total; inside a trace one span
    /// each, under the participant's umbrella.
    pub(crate) fn commit_cross(
        &self,
        participants: &[Participant<'_>],
        failpoint: FailPoint,
        telemetry: Option<&Telemetry>,
        stamp: impl FnOnce() -> u64,
    ) -> Result<(String, u64), EngineError> {
        debug_assert!(
            participants.windows(2).all(|w| w[0].index < w[1].index),
            "participants must be locked in index order"
        );
        let gtx = format!("g{}", self.next_gtx.fetch_add(1, Ordering::Relaxed));

        // Lock all participants in index order and hold across both
        // phases.
        let mut guards: Vec<std::sync::RwLockWriteGuard<'_, ShardState>> =
            participants.iter().map(|p| p.shard.write()).collect();

        // With an active trace, each participant gets an *umbrella* span
        // covering its whole share of the protocol; the prepare, fsync
        // and resolve regions below run inside it (`under(i)` is the
        // context to enter), so the rendered tree groups per shard even
        // though the phases interleave across participants. Within one
        // participant the children are time-disjoint; across
        // participants the umbrellas overlap (the prepare fsyncs run in
        // parallel).
        let trace = esm_obs::trace::current();
        let umbrellas: Option<Vec<esm_obs::SpanGuard>> = trace.as_ref().map(|t| {
            participants
                .iter()
                .map(|p| t.child("twopc_participant", format!("shard:{}", p.index)))
                .collect()
        });
        let under = |i: usize| -> Option<esm_obs::ActiveTrace> {
            match (&trace, &umbrellas) {
                (Some(t), Some(us)) => Some(t.under(us[i].id())),
                _ => None,
            }
        };
        let fsync = |role: &'static str| {
            PhaseGuard::open(telemetry, Phase::TwopcParticipantFsync).tag(|| role.to_string())
        };

        // Validate first-committer-wins on every participant before
        // writing anything anywhere.
        for (p, guard) in participants.iter().zip(guards.iter()) {
            if let Some((table, seq)) = guard.fcw_conflict(p.snap_seq, &p.keys)? {
                return Err(EngineError::Conflict {
                    table,
                    detail: format!(
                        "cross-shard snapshot at seq {} overlaps commit seq {seq} on shard {}",
                        p.snap_seq, p.index
                    ),
                });
            }
        }

        // Phase 1: prepare everywhere (appends deferred — no inline
        // fsync), then fsync all participants in parallel. The appends
        // are cheap buffered writes; the fsyncs dominate and are
        // independent per shard (each its own WAL directory), so running
        // them on scoped threads turns the prepare latency from
        // sum-of-fsyncs into max-of-fsyncs. On an append failure,
        // best-effort abort the shards already prepared (a poisoned
        // shard refuses and recovery will presume abort for it anyway).
        for i in 0..participants.len() {
            let appended = {
                let _in = under(i).map(esm_obs::trace::enter);
                let _prepare = PhaseGuard::open(telemetry, Phase::TwopcPrepare);
                guards[i].append_group(
                    &participants[i].deltas,
                    GroupEnd::Prepare(gtx.clone()),
                    true,
                )
            };
            if let Err(e) = appended {
                for j in 0..i {
                    let _ = guards[j].resolve(&gtx, false, &participants[j].deltas, false);
                }
                return Err(e);
            }
        }
        let sync_results: Vec<Result<(), EngineError>> = std::thread::scope(|scope| {
            let handles: Vec<_> = guards
                .iter_mut()
                .enumerate()
                .map(|(i, guard)| {
                    let state: &mut ShardState = guard;
                    // The scoped thread has no thread-local trace: it
                    // enters the participant's umbrella first.
                    let ctx = under(i);
                    let fsync = &fsync;
                    scope.spawn(move || {
                        let _in = ctx.map(esm_obs::trace::enter);
                        let _fsync = fsync("prepare");
                        state.sync()
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("2pc prepare fsync thread panicked"))
                .collect()
        });
        if let Some(first_err) = sync_results.into_iter().find_map(Result::err) {
            // Some prepares may be durable, but no resolution is: write
            // a best-effort abort everywhere so live readers never see
            // the chain; recovery presumes abort for whatever sticks.
            for j in 0..participants.len() {
                let _ = guards[j].resolve(&gtx, false, &participants[j].deltas, false);
            }
            return Err(first_err);
        }
        if failpoint == FailPoint::AfterPrepare {
            return Err(EngineError::Io(format!(
                "failpoint: coordinator crashed after prepare of {gtx}"
            )));
        }

        // The commit point: every participant is prepared and durable.
        let receipt = stamp();

        // Phase 2: resolve-commit, fsync, and apply everywhere. The
        // resolution syncs are load-bearing: a shard whose in-memory
        // in-doubt state is clean must have its resolution *on disk*,
        // because a peer's later checkpoint may compact away that peer's
        // own copy of the verdict — an unsynced resolution here could
        // then flip to presumed-abort at recovery while the checkpointed
        // peer kept the commit. If a crash hits mid-phase, some shards
        // hold a durable commit verdict and recovery finishes the commit
        // on the rest; if it hits before any resolution, recovery
        // presumes abort everywhere — either way all-or-nothing.
        for (i, (p, guard)) in participants.iter().zip(guards.iter_mut()).enumerate() {
            if failpoint == FailPoint::AfterResolves(i) {
                return Err(EngineError::Io(format!(
                    "failpoint: coordinator crashed after {i} resolutions of {gtx}"
                )));
            }
            let _in = under(i).map(esm_obs::trace::enter);
            {
                let _resolve = PhaseGuard::open(telemetry, Phase::TwopcResolve);
                guard.resolve(&gtx, true, &p.deltas, true)?;
                guard.note_stamp(receipt);
            }
            let _fsync = fsync("resolve");
            guard.sync()?;
        }
        Ok((gtx, receipt))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Database, Schema, Table, ValueType};
    use std::collections::{BTreeMap, BTreeSet};

    fn piece(seed: i64) -> Database {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        let mut db = Database::new();
        db.create_table(
            "t",
            Table::from_rows(schema, vec![row![seed, "seed"]]).unwrap(),
        )
        .unwrap();
        db
    }

    fn participant<'a>(index: usize, shard: &'a Shard, id: i64) -> Participant<'a> {
        Participant {
            index,
            shard,
            snap_seq: shard.read().wal.last_seq(),
            deltas: vec![(
                "t".to_string(),
                Delta {
                    inserted: vec![row![id, "x"]],
                    deleted: vec![],
                },
            )],
            keys: BTreeMap::from([("t".to_string(), BTreeSet::from([row![id]]))]),
        }
    }

    #[test]
    fn two_phase_commit_applies_on_all_participants() {
        let a = Shard::new_in_memory(0, piece(0));
        let b = Shard::new_in_memory(1, piece(1000));
        let coord = ShardCoordinator::default();
        let (gtx, stamp) = coord
            .commit_cross(
                &[participant(0, &a, 10), participant(1, &b, 1010)],
                FailPoint::None,
                None,
                || 42u64,
            )
            .unwrap();
        assert_eq!(stamp, 42);
        assert!(gtx.starts_with('g'));
        // Each participant indexed the stamp at its resolution.
        assert_eq!(a.read().seq_at_stamp(42), Some(a.read().wal.last_seq()));
        assert!(a.read().db.table("t").unwrap().contains(&row![10, "x"]));
        assert!(b.read().db.table("t").unwrap().contains(&row![1010, "x"]));
        // Both shard logs replay over their seeds to their live pieces.
        assert_eq!(a.read().wal.replay(&piece(0)).unwrap(), a.read().db);
        assert_eq!(b.read().wal.replay(&piece(1000)).unwrap(), b.read().db);
        // Each log holds chain + prepare + resolve.
        assert_eq!(a.read().wal.len(), 3);
    }

    #[test]
    fn conflicts_abort_before_any_write() {
        let a = Shard::new_in_memory(0, piece(0));
        let b = Shard::new_in_memory(1, piece(1000));
        let coord = ShardCoordinator::default();
        let stale_a = participant(0, &a, 10);
        // Another commit lands on shard a first, touching the same key.
        {
            let mut state = a.write();
            state
                .append_group(&stale_a.deltas.clone(), GroupEnd::Commit, false)
                .unwrap();
        }
        let err = coord
            .commit_cross(
                &[stale_a, participant(1, &b, 1010)],
                FailPoint::None,
                None,
                || 1,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Conflict { .. }));
        assert!(b.read().wal.is_empty(), "the clean shard saw no writes");
    }

    #[test]
    fn failpoints_simulate_coordinator_crashes() {
        let a = Shard::new_in_memory(0, piece(0));
        let b = Shard::new_in_memory(1, piece(1000));
        let coord = ShardCoordinator::default();
        let err = coord
            .commit_cross(
                &[participant(0, &a, 10), participant(1, &b, 1010)],
                FailPoint::AfterPrepare,
                None,
                || 1,
            )
            .unwrap_err();
        assert!(matches!(err, EngineError::Io(msg) if msg.contains("failpoint")));
        // Prepared, unresolved, unapplied on both shards.
        assert_eq!(a.read().wal.len(), 2, "chain + prepare");
        assert!(!a.read().db.table("t").unwrap().contains(&row![10, "x"]));
        assert!(!b.read().db.table("t").unwrap().contains(&row![1010, "x"]));
    }

    #[test]
    fn gtx_ids_continue_after_a_seed() {
        let coord = ShardCoordinator::starting_after(41);
        let a = Shard::new_in_memory(0, piece(0));
        let (gtx, _) = coord
            .commit_cross(&[participant(0, &a, 10)], FailPoint::None, None, || 1)
            .unwrap();
        assert_eq!(gtx, "g42");
    }
}
