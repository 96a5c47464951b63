//! End-to-end telemetry acceptance: the phase histograms attribute
//! latency to the right phase and nothing else.
//!
//! The load-bearing test injects a [`SimDisk`] sync delay under a
//! [`SegmentWriter`] and asserts the delay surfaces **only** in the
//! fsync-phase histogram — the WAL-append histogram must not move.
//! The rest proves the registry is actually threaded through the hot
//! paths: durable single-engine commits record every commit phase,
//! cross-shard commits record the 2PC phases per participant, and
//! `Engine::metrics()` on durable hosts (through the trait object, as
//! remote callers see it) carries the merged WAL sub-struct.

use std::path::PathBuf;
use std::time::Duration;

use esm_engine::{
    DurabilityConfig, Engine, EngineServer, Phase, SegmentWriter, ShardRouter, ShardedEngineServer,
    SimFile, Telemetry, Wal, WalRecord,
};
use esm_store::{row, Database, Delta, Row, Schema, Table, ValueType};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-telemetry-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed_db(rows: i64) -> Database {
    let schema = Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
    let rows: Vec<Row> = (0..rows).map(|i| row![i, format!("r{i}")]).collect();
    let mut db = Database::new();
    db.create_table("kv", Table::from_rows(schema, rows).unwrap())
        .unwrap();
    db
}

fn delta_record(seq: u64) -> WalRecord {
    WalRecord::delta(
        seq,
        "kv",
        Delta {
            inserted: vec![row![seq as i64 + 1000, "x"]],
            deleted: vec![],
        },
    )
}

/// Append+sync a batch through a [`SegmentWriter<SimFile>`] and return
/// the resulting telemetry snapshot.
fn run_writer(delay: Option<Duration>) -> esm_engine::TelemetrySnapshot {
    let file = SimFile::new();
    file.disk().lock().unwrap().sync_delay = delay;
    let telemetry = std::sync::Arc::new(Telemetry::new());
    let mut writer = SegmentWriter::new(file, 1);
    writer.set_telemetry(Some(std::sync::Arc::clone(&telemetry)));
    for seq in 1..=8u64 {
        writer.append(&delta_record(seq)).unwrap();
        assert!(writer.sync().unwrap());
    }
    telemetry.snapshot()
}

#[test]
fn a_slow_disk_shifts_only_the_fsync_histogram() {
    const DELAY: Duration = Duration::from_millis(3);
    let fast = run_writer(None);
    let slow = run_writer(Some(DELAY));

    // Both runs did the same work: 8 appends, 8 fsyncs.
    for snap in [&fast, &slow] {
        assert_eq!(snap.count(Phase::CommitWalAppend), 8);
        assert_eq!(snap.count(Phase::CommitFsync), 8);
    }

    // The delay lands in the fsync phase: every slow-run sync took at
    // least the injected delay; the fast run stayed well under it.
    let delay_ns = DELAY.as_nanos() as u64;
    let slow_fsync = slow.phase(Phase::CommitFsync).unwrap();
    let fast_fsync = fast.phase(Phase::CommitFsync).unwrap();
    assert!(
        slow_fsync.quantile(0.5) >= delay_ns,
        "slow-disk fsync p50 {} must exceed the {delay_ns}ns delay",
        slow_fsync.quantile(0.5)
    );
    assert!(
        fast_fsync.quantile(0.5) < delay_ns,
        "no-delay fsync p50 {} should be far under {delay_ns}ns",
        fast_fsync.quantile(0.5)
    );

    // And ONLY the fsync phase: appends never touch the simulated
    // platter, so even the slow run's worst append stays under the
    // delay — the injected latency did not bleed across phases.
    let slow_append = slow.phase(Phase::CommitWalAppend).unwrap();
    assert!(
        slow_append.max < delay_ns,
        "append max {} contaminated by the fsync delay",
        slow_append.max
    );
}

#[test]
fn durable_commits_record_every_commit_phase() {
    let dir = fresh_dir("engine-phases");
    let engine = ShardedEngineServer::with_durability(
        seed_db(16),
        ShardRouter::single(),
        DurabilityConfig::new(&dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0),
    )
    .unwrap();
    for i in 0..4i64 {
        engine
            .transact(4, move |db| {
                db.table_mut("kv")?.upsert(row![100 + i, "w"])?;
                Ok(())
            })
            .unwrap();
    }
    let tel = engine.telemetry();
    for phase in [
        Phase::CommitSnapshot,
        Phase::CommitValidate,
        Phase::CommitLockHold,
        Phase::CommitWalAppend,
        Phase::CommitFsync,
    ] {
        assert!(
            tel.count(phase) >= 4,
            "phase {} recorded {} samples, wanted >= 4",
            phase.name(),
            tel.count(phase)
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn cross_shard_commits_record_the_twopc_phases_per_participant() {
    let dir = fresh_dir("twopc-phases");
    let engine = ShardedEngineServer::with_durability(
        seed_db(40),
        ShardRouter::uniform_int(2, 0, 40).unwrap(),
        DurabilityConfig::new(&dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0),
    )
    .unwrap();
    // Keys on both shards force 2PC.
    let receipt = engine
        .transact_keys(&[row![1], row![30]], 4, |db| {
            let t = db.table_mut("kv")?;
            t.upsert(row![1, "a"])?;
            t.upsert(row![30, "b"])?;
            Ok(())
        })
        .unwrap();
    assert_eq!(receipt.shards.len(), 2, "the commit crossed shards");
    let tel = engine.telemetry();
    // One sample per participant per phase; both fsync barriers count.
    assert_eq!(tel.count(Phase::TwopcPrepare), 2);
    assert_eq!(tel.count(Phase::TwopcResolve), 2);
    assert_eq!(tel.count(Phase::TwopcParticipantFsync), 4);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn dyn_engine_metrics_merge_wal_stats_on_durable_hosts() {
    let dir = fresh_dir("metrics-merge");
    let single: Box<dyn Engine> = Box::new(
        ShardedEngineServer::with_durability(
            seed_db(8),
            ShardRouter::single(),
            DurabilityConfig::new(dir.join("single"))
                .group_commit(1)
                .checkpoint_every(0)
                .maintenance_interval_ms(0),
        )
        .unwrap(),
    );
    let sharded: Box<dyn Engine> = Box::new(
        ShardedEngineServer::with_durability(
            seed_db(40),
            ShardRouter::uniform_int(2, 0, 40).unwrap(),
            DurabilityConfig::new(dir.join("sharded"))
                .group_commit(1)
                .checkpoint_every(0)
                .maintenance_interval_ms(0),
        )
        .unwrap(),
    );
    for engine in [&single, &sharded] {
        engine
            .transact(4, &|db: &mut Database| {
                db.table_mut("kv")?.upsert(row![3, "m"])?;
                Ok(())
            })
            .unwrap();
        let m = engine.metrics().expect("metrics through dyn Engine");
        assert!(m.commits >= 1);
        assert!(
            m.wal.appends >= 1,
            "durable host reported wal.appends = 0 through dyn Engine"
        );
        assert!(m.wal.syncs >= 1);
        // The trait surface also exposes telemetry for every host.
        assert!(
            engine
                .telemetry()
                .expect("telemetry through dyn Engine")
                .count(Phase::CommitLockHold)
                >= 1
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn slow_ops_capture_phase_breakdowns_and_stay_bounded() {
    let engine = EngineServer::new(seed_db(8));
    // Force everything to qualify as slow.
    engine.telemetry_registry().set_slow_threshold_ns(0);
    for i in 0..100i64 {
        engine
            .transact(4, move |db| {
                db.table_mut("kv")?.upsert(row![200 + i, "s"])?;
                Ok(())
            })
            .unwrap();
    }
    let tel = engine.telemetry();
    assert!(!tel.slow_ops.is_empty(), "threshold 0 captured nothing");
    assert!(
        tel.slow_ops.len() <= esm_obs::SLOW_OP_CAPACITY,
        "slow-op ring exceeded its bound"
    );
    assert!(
        tel.slow_ops
            .iter()
            .any(|op| op.phases.iter().any(|(p, _)| *p == Phase::CommitLockHold)),
        "no slow op carried a lock-hold breakdown"
    );
    // Reads are non-draining: a second snapshot still sees them.
    assert!(!engine.telemetry().slow_ops.is_empty());
}

#[test]
fn wal_append_and_fsync_remain_separable_after_rotation() {
    let dir = fresh_dir("rotation");
    let engine = ShardedEngineServer::with_durability(
        seed_db(8),
        ShardRouter::single(),
        DurabilityConfig::new(&dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0)
            .segment_bytes(256),
    )
    .unwrap();
    for i in 0..12i64 {
        engine
            .transact(4, move |db| {
                db.table_mut("kv")?.upsert(row![300 + i, "rotated-away"])?;
                Ok(())
            })
            .unwrap();
    }
    let m = engine.metrics();
    assert!(m.wal.rotations >= 1, "the tiny segment cap never rotated");
    let tel = engine.telemetry();
    // Telemetry survives the writer swap inside rotation: every commit
    // after the rotation kept recording into the same registry.
    assert_eq!(tel.count(Phase::CommitWalAppend), 12);
    assert_eq!(tel.count(Phase::CommitFsync), 12);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn wal_handle_smoke_keeps_compiling() {
    // `Wal` stays exported and replayable (regression guard for the
    // re-export list this PR touches).
    let wal = Wal::new();
    assert!(wal.is_empty());
}
