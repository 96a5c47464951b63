//! Sharded crash recovery: coordinator deaths between 2PC phases must
//! recover **all-or-nothing on every shard**, and rebalance debris
//! (orphan shard directories, rows stranded outside their range) must
//! be repaired, not replayed.
//!
//! The coordinator's [`FailPoint`]s inject the two dangerous crash
//! windows:
//!
//! * after every participant prepared (fsynced) but before any
//!   resolution — recovery must **presume abort** on every shard (no
//!   client was ever acknowledged);
//! * after a *subset* of participants resolved commit — recovery must
//!   **finish the commit** on every shard (the commit point passed).

use std::path::PathBuf;

use esm_engine::testkit::recovered_snapshot;
use esm_engine::{
    DurabilityConfig, DurableWal, EngineError, FailPoint, ShardRouter, ShardedEngineServer,
    WalRecord,
};
use esm_store::{row, Database, Delta, Row, Schema, Table, ValueType};

const SHARDS: usize = 3;
const RANGE: i64 = 3000;

fn baseline() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("owner", ValueType::Str),
            ("balance", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows: Vec<Row> = (0..RANGE)
        .step_by(100)
        .map(|i| row![i, format!("o{i}"), 100])
        .collect();
    let mut db = Database::new();
    db.create_table(
        "accounts",
        Table::from_rows(schema, rows).expect("valid rows"),
    )
    .expect("fresh");
    db
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-shard-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn durable_engine(dir: &PathBuf) -> ShardedEngineServer {
    ShardedEngineServer::with_durability(
        baseline(),
        ShardRouter::uniform_int(SHARDS, 0, RANGE).expect("router"),
        // Deterministic tests: strongest durability, no background
        // thread.
        DurabilityConfig::new(dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0),
    )
    .expect("durable sharded engine")
}

/// Move 7 units from `from` to `to` (distinct shards → 2PC), with crash
/// injection.
fn transfer(
    engine: &ShardedEngineServer,
    from: i64,
    to: i64,
    failpoint: FailPoint,
) -> Result<esm_engine::CommitReceipt, EngineError> {
    engine.transact_keys_failpoint(&[row![from], row![to]], 1, failpoint, |db| {
        let t = db.table_mut("accounts")?;
        let f = t.get_by_key(&row![from]).expect("exists")[2]
            .as_int()
            .expect("int");
        let g = t.get_by_key(&row![to]).expect("exists")[2]
            .as_int()
            .expect("int");
        t.upsert(row![from, format!("o{from}"), f - 7])?;
        t.upsert(row![to, format!("o{to}"), g + 7])?;
        Ok(())
    })
}

#[test]
fn durable_cross_shard_commits_survive_restart() {
    let dir = fresh_dir("roundtrip");
    let engine = durable_engine(&dir);
    // A mix of single-shard and cross-shard traffic.
    for i in 0..6 {
        engine
            .transact_keys(&[row![i * 100]], 1, |db| {
                db.table_mut("accounts")?
                    .upsert(row![i * 100 + 1, "fresh", i])?;
                Ok(())
            })
            .expect("fast path commits");
    }
    transfer(&engine, 0, 2900, FailPoint::None).expect("2pc commits");
    transfer(&engine, 1500, 200, FailPoint::None).expect("2pc commits");
    engine.sync_wal().expect("syncs");
    let live = engine.snapshot();
    let m = engine.metrics();
    assert_eq!(m.shard.cross_shard_commits, 2);
    assert_eq!(m.shard.single_shard_commits, 6);
    drop(engine);

    let (recovered, report) = ShardedEngineServer::recover(&dir).expect("recovers");
    assert_eq!(recovered.snapshot(), live);
    assert_eq!(report.shards.len(), SHARDS);
    assert_eq!(report.committed_in_doubt + report.aborted_in_doubt, 0);
    // The recovered engine keeps serving both paths.
    transfer(&recovered, 0, 2900, FailPoint::None).expect("2pc after recovery");
    assert_eq!(
        recovered_snapshot(&recovered).expect("recovers"),
        recovered.snapshot()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coordinator_crash_after_prepare_presumes_abort_on_every_shard() {
    let dir = fresh_dir("after-prepare");
    let engine = durable_engine(&dir);
    transfer(&engine, 100, 2800, FailPoint::None).expect("a clean transfer first");
    engine.sync_wal().expect("syncs");
    let before = engine.snapshot();

    let err = transfer(&engine, 200, 2700, FailPoint::AfterPrepare).unwrap_err();
    assert!(matches!(err, EngineError::Io(msg) if msg.contains("failpoint")));
    drop(engine); // the coordinator "process" dies here

    let (recovered, report) = ShardedEngineServer::recover(&dir).expect("recovers");
    // Both participants were in doubt; no shard held a commit
    // resolution, so the transaction aborts everywhere — the state is
    // exactly the pre-crash acknowledged state.
    assert_eq!(report.aborted_in_doubt, 2, "{report:?}");
    assert_eq!(report.committed_in_doubt, 0);
    assert_eq!(recovered.snapshot(), before, "all-or-nothing: nothing");
    assert_eq!(recovered.metrics().shard.recovery_aborts, 2);

    // The logs self-healed: a second recovery has nothing in doubt, and
    // the aborted keys are writable again.
    drop(recovered);
    let (again, report2) = ShardedEngineServer::recover(&dir).expect("recovers again");
    assert_eq!(report2.committed_in_doubt + report2.aborted_in_doubt, 0);
    transfer(&again, 200, 2700, FailPoint::None).expect("keys are free");
    assert_eq!(
        recovered_snapshot(&again).expect("recovers"),
        again.snapshot()
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn coordinator_crash_after_partial_resolve_commits_on_every_shard() {
    let dir = fresh_dir("after-resolve");
    let engine = durable_engine(&dir);
    let before = engine.snapshot();

    // The first participant (lowest shard index) writes its commit
    // resolution; the coordinator dies before the second.
    let err = transfer(&engine, 300, 2600, FailPoint::AfterResolves(1)).unwrap_err();
    assert!(matches!(err, EngineError::Io(msg) if msg.contains("failpoint")));
    drop(engine);

    let (recovered, report) = ShardedEngineServer::recover(&dir).expect("recovers");
    // One shard held the commit verdict: the in-doubt remainder commits
    // too — the transfer is complete on BOTH shards.
    assert_eq!(report.committed_in_doubt, 1, "{report:?}");
    assert_eq!(report.aborted_in_doubt, 0);
    let t = recovered.table("accounts").expect("exists");
    assert_eq!(t.get_by_key(&row![300]).expect("row")[2], 93.into());
    assert_eq!(t.get_by_key(&row![2600]).expect("row")[2], 107.into());
    assert_ne!(recovered.snapshot(), before, "all-or-nothing: everything");
    assert_eq!(
        recovered_snapshot(&recovered).expect("recovers"),
        recovered.snapshot()
    );

    // Crash with *zero* resolutions behaves like after-prepare: abort.
    let err = transfer(&recovered, 400, 2500, FailPoint::AfterResolves(0)).unwrap_err();
    assert!(matches!(err, EngineError::Io(_)));
    let pre_crash = recovered
        .table("accounts")
        .expect("exists")
        .get_by_key(&row![400])
        .expect("row")
        .clone();
    drop(recovered);
    let (again, report2) = ShardedEngineServer::recover(&dir).expect("recovers");
    assert_eq!(report2.aborted_in_doubt, 2);
    assert_eq!(
        again
            .table("accounts")
            .expect("exists")
            .get_by_key(&row![400])
            .expect("row"),
        &pre_crash
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cross_shard_resolutions_are_durable_before_acknowledgement() {
    // With a lazy group-commit cadence an acknowledged 2PC commit could
    // otherwise leave one shard's resolution in an unsynced tail; a
    // peer checkpoint could then compact away the only other copy of
    // the verdict and a crash would flip the tail shard to presumed
    // abort. The coordinator therefore fsyncs every resolution before
    // returning: drop the engine with *no* explicit sync and the
    // transfer must still recover complete on both shards.
    let dir = fresh_dir("resolve-durable");
    let engine = ShardedEngineServer::with_durability(
        baseline(),
        ShardRouter::uniform_int(SHARDS, 0, RANGE).expect("router"),
        DurabilityConfig::new(&dir)
            .group_commit(64) // nothing syncs unless someone insists
            .checkpoint_every(0)
            .maintenance_interval_ms(0),
    )
    .expect("durable sharded engine");
    transfer(&engine, 100, 2800, FailPoint::None).expect("2pc commits");
    drop(engine); // crash: no sync_wal, no checkpoint

    let (recovered, report) = ShardedEngineServer::recover(&dir).expect("recovers");
    assert_eq!(
        report.committed_in_doubt + report.aborted_in_doubt,
        0,
        "every resolution was already durable: {report:?}"
    );
    let t = recovered.table("accounts").expect("exists");
    assert_eq!(t.get_by_key(&row![100]).expect("row")[2], 93.into());
    assert_eq!(t.get_by_key(&row![2800]).expect("row")[2], 107.into());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn checkpoints_defer_while_a_peer_is_in_doubt() {
    // A shard checkpoint compacts history — including, potentially, the
    // `!resolve commit` evidence a *peer's* recovery votes with. While
    // any shard holds in-doubt 2PC state, no shard may checkpoint.
    let dir = fresh_dir("ckpt-gate");
    let engine = ShardedEngineServer::with_durability(
        baseline(),
        ShardRouter::uniform_int(SHARDS, 0, RANGE).expect("router"),
        DurabilityConfig::new(&dir)
            .group_commit(1)
            .checkpoint_every(1) // eager: every record is checkpoint-worthy
            .maintenance_interval_ms(0),
    )
    .expect("durable sharded engine");
    transfer(&engine, 100, 2800, FailPoint::None).expect("2pc commits");
    let genesis = SHARDS as u64;
    engine.run_maintenance().expect("maintenance runs");
    let after_clean = engine.metrics().wal.checkpoints;
    assert!(after_clean > genesis, "clean shards checkpoint freely");

    // Now strand an in-doubt transaction on two shards…
    let err = transfer(&engine, 200, 2700, FailPoint::AfterPrepare).unwrap_err();
    assert!(matches!(err, EngineError::Io(_)));
    // …make the third, uninvolved shard checkpoint-due…
    engine
        .transact_keys(&[row![1500]], 1, |db| {
            db.table_mut("accounts")?.upsert(row![1500, "mid", 1])?;
            Ok(())
        })
        .expect("the uninvolved shard keeps committing");
    // …and maintenance must refuse to checkpoint ANY shard (the
    // uninvolved-but-due one included), while the explicit path errors.
    engine.run_maintenance().expect("maintenance still runs");
    assert_eq!(
        engine.metrics().wal.checkpoints,
        after_clean,
        "no checkpoint while a peer is in doubt"
    );
    assert!(matches!(
        engine.checkpoint(),
        Err(EngineError::Io(msg)) if msg.contains("refused")
    ));
    drop(engine);

    // Recovery settles the doubt (presumed abort) and checkpointing
    // resumes.
    let (recovered, report) = ShardedEngineServer::recover(&dir).expect("recovers");
    assert_eq!(report.aborted_in_doubt, 2);
    recovered.run_maintenance().expect("maintenance runs");
    assert!(recovered.checkpoint().expect("checkpoints").is_some());
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn splits_survive_restart_and_debris_is_repaired() {
    let dir = fresh_dir("rebalance");
    let engine = durable_engine(&dir);
    let new_index = engine.split_shard(row![500]).expect("splits");
    assert_eq!(new_index, 1);
    assert_eq!(engine.shard_count(), SHARDS + 1);
    engine
        .transact_keys(&[row![700]], 1, |db| {
            db.table_mut("accounts")?.upsert(row![700, "post", 1])?;
            Ok(())
        })
        .expect("commits to the new shard");
    engine.sync_wal().expect("syncs");
    let live = engine.snapshot();
    drop(engine);

    let (recovered, report) = ShardedEngineServer::recover(&dir).expect("recovers");
    assert_eq!(recovered.shard_count(), SHARDS + 1);
    assert_eq!(recovered.snapshot(), live);
    assert_eq!(report.repaired_rows, 0);
    assert_eq!(report.orphan_dirs_swept, 0);
    drop(recovered);

    // Debris injection. (a) An orphan shard directory — a split that
    // crashed before its topology rewrite.
    let orphan_cfg = DurabilityConfig::new(dir.join("shard-99"));
    drop(DurableWal::create(orphan_cfg, &baseline()).expect("orphan dir"));
    // (b) A row stranded outside shard 0's range [0, 500) — a rebalance
    // interrupted between moving rows and pruning the donor.
    {
        let shard0_cfg = DurabilityConfig::new(dir.join("shard-0"))
            .checkpoint_every(0)
            .maintenance_interval_ms(0);
        let (mut wal, _db, _, rep) = DurableWal::open(shard0_cfg).expect("opens shard 0");
        wal.append(&WalRecord::delta(
            rep.last_seq + 1,
            "accounts",
            Delta {
                inserted: vec![row![2999, "stray", 1]],
                deleted: vec![],
            },
        ))
        .expect("stray append");
        wal.sync().expect("syncs");
    }

    let (healed, report2) = ShardedEngineServer::recover(&dir).expect("recovers");
    assert_eq!(report2.orphan_dirs_swept, 1, "{report2:?}");
    assert_eq!(report2.repaired_rows, 1, "{report2:?}");
    assert!(!dir.join("shard-99").exists());
    // The stray row is pruned: shard 2 owns key 2999 and never had it.
    assert_eq!(healed.snapshot(), live);
    assert_eq!(
        recovered_snapshot(&healed).expect("recovers"),
        healed.snapshot()
    );
    std::fs::remove_dir_all(&dir).ok();
}
