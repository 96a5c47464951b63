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
//! remote callers see it) carries the merged WAL sub-struct. Every
//! phase also reaches the trace surface: a traced commit or view read
//! carries one span per phase it ran, named as the phase is, and a slow
//! one lands in the slow-trace ring with them.

use std::path::PathBuf;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::time::Duration;

use esm_engine::{
    DurabilityConfig, Engine, EngineServer, Phase, SegmentWriter, Session, ShardRouter,
    ShardedEngineServer, SimFile, Telemetry, Wal, WalRecord,
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
fn slow_traces_capture_phase_spans_and_stay_bounded() {
    let engine = EngineServer::new(seed_db(8));
    // Trace every request, and force every trace to qualify as slow.
    let registry = engine.telemetry_registry();
    registry.set_trace_sample_every(1);
    registry.set_slow_threshold_ns(0);
    let session = Session::new(engine.as_engine());
    for i in 0..100i64 {
        session
            .transact(move |db| {
                db.table_mut("kv")?.upsert(row![200 + i, "s"])?;
                Ok(())
            })
            .unwrap();
    }
    let slow = engine.traces().unwrap().slow;
    assert!(!slow.is_empty(), "threshold 0 captured nothing");
    assert!(
        slow.len() <= esm_obs::TRACE_BUFFER_CAPACITY,
        "slow-trace ring exceeded its bound"
    );
    for trace in &slow {
        assert_eq!(trace.root, "session:transact");
        assert!(
            trace.find(Phase::CommitLockHold.name()).is_some(),
            "a slow commit trace lost its lock-hold span: {trace:?}"
        );
    }
    // Reads are non-draining: a second report still sees them.
    assert_eq!(engine.traces().unwrap().slow.len(), slow.len());
}

/// The span names in the one trace `engine` holds under `root`.
fn span_names(engine: &ShardedEngineServer, root: &str) -> Vec<String> {
    let report = engine.traces().unwrap();
    let traces: Vec<_> = report.recent.iter().filter(|t| t.root == root).collect();
    assert_eq!(traces.len(), 1, "expected one `{root}` trace");
    traces[0].spans.iter().map(|s| s.name.clone()).collect()
}

fn traced(engine: &ShardedEngineServer) -> Session {
    engine.telemetry_registry().set_trace_sample_every(1);
    Session::new(engine.as_engine())
}

fn upsert(id: i64) -> impl Fn(&mut Database) -> Result<(), esm_engine::EngineError> {
    move |db| {
        db.table_mut("kv")?.upsert(row![id, "t"])?;
        Ok(())
    }
}

fn assert_has(names: &[String], phases: &[Phase]) {
    for phase in phases {
        assert!(
            names.iter().any(|n| n == phase.name()),
            "trace lost its {} span: {names:?}",
            phase.name()
        );
    }
}

#[test]
fn single_shard_commits_trace_every_commit_phase() {
    let in_memory = EngineServer::new(seed_db(8));
    traced(&in_memory).transact(upsert(100)).unwrap();
    let commit = [
        Phase::CommitSnapshot,
        Phase::CommitValidate,
        Phase::CommitLockHold,
    ];
    assert_has(&span_names(&in_memory, "session:transact"), &commit);

    let dir = fresh_dir("traced-commit");
    let durable = ShardedEngineServer::with_durability(
        seed_db(8),
        ShardRouter::single(),
        DurabilityConfig::new(&dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0),
    )
    .unwrap();
    traced(&durable).transact(upsert(100)).unwrap();
    let names = span_names(&durable, "session:transact");
    assert_has(&names, &commit);
    assert_has(&names, &[Phase::CommitWalAppend, Phase::CommitFsync]);
    drop(durable);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_traced_read_carries_its_drain_and_fold_spans() {
    let engine = EngineServer::new(seed_db(8));
    let session = traced(&engine);
    session
        .define_view("all", "kv", &esm_relational::ViewDef::base())
        .unwrap();
    session.transact(upsert(100)).unwrap();
    assert_eq!(session.read("all").unwrap().len(), 9);
    let names = span_names(&engine, "session:read");
    assert_has(&names, &[Phase::ViewDrain, Phase::ViewDeltaFold]);
    assert!(!names.iter().any(|n| n == Phase::ViewRebuild.name()));
}

#[test]
fn the_first_read_after_a_split_carries_view_rebuild() {
    let engine = EngineServer::new(seed_db(8));
    let session = traced(&engine);
    session
        .define_view("all", "kv", &esm_relational::ViewDef::base())
        .unwrap();
    engine.split_shard(row![4]).unwrap();
    assert_eq!(session.read("all").unwrap().len(), 8);
    assert_has(&span_names(&engine, "session:read"), &[Phase::ViewRebuild]);
}

#[test]
fn commit_lock_hold_excludes_the_group_fsync_wait() {
    const DELAY: Duration = Duration::from_millis(5);
    let dir = fresh_dir("lock-hold");
    let delay = Arc::new(AtomicU64::new(DELAY.as_nanos() as u64));
    let engine = ShardedEngineServer::with_durability(
        seed_db(8),
        ShardRouter::single(),
        DurabilityConfig::new(&dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0)
            .sync_delay_handle(delay),
    )
    .unwrap();
    for i in 0..8i64 {
        engine.transact(4, upsert(400 + i)).unwrap();
    }
    let tel = engine.telemetry();
    let delay_ns = DELAY.as_nanos() as u64;
    let fsync = tel.phase(Phase::CommitFsync).unwrap();
    let hold = tel.phase(Phase::CommitLockHold).unwrap();
    assert_eq!(hold.count, 8);
    assert!(
        fsync.quantile(0.5) >= delay_ns,
        "fsync p50 {} under the {delay_ns}ns delay",
        fsync.quantile(0.5)
    );
    assert!(
        hold.max < delay_ns,
        "lock hold max {} includes the group fsync wait",
        hold.max
    );
    drop(engine);
    let _ = std::fs::remove_dir_all(&dir);
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
