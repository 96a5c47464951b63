//! The bounded in-memory WAL.
//!
//! The in-memory WAL feeds first-committer-wins validation and
//! materialized-view maintenance. Every append that takes a shard's log
//! past [`WAL_RETAINED_RECORDS`] drops its oldest settled records under
//! the same write lock, so the log stays bounded with no maintenance
//! pass, whatever the views and the durable checkpoint are doing. A view
//! whose cursor falls below the log's start rebuilds from the live piece
//! on its next read. Trims never split a chained transaction or drop the
//! only evidence of a 2PC outcome, and the replay law (recovering the
//! directory gives the live state) holds throughout.

use std::path::{Path, PathBuf};

use esm_engine::testkit::{recompute, recovered_snapshot, seed_db, view_defs, KEYS};
use esm_engine::{
    DurabilityConfig, EngineError, EngineServer, ShardRouter, ShardedEngineServer, Wal, WalRecord,
    WAL_RETAINED_RECORDS,
};
use esm_relational::ViewDef;
use esm_store::{row, Delta, Operand, Predicate, Schema, Table, ValueType};

/// The in-memory log of a one-shard engine.
fn wal(engine: &EngineServer) -> Wal {
    engine.shard_wals().swap_remove(0)
}

fn ins(id: i64) -> Delta {
    Delta {
        inserted: vec![row![id, "g0", id]],
        deleted: vec![],
    }
}

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-trunc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A durable engine over `seed_db()` on `shards` uniform ranges, with no
/// maintenance thread. Group commit batches fsyncs: these tests commit
/// past the retention bound, and the replay-law check syncs first.
fn durable(dir: &Path, shards: usize) -> ShardedEngineServer {
    ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::uniform_int(shards, 0, KEYS).unwrap(),
        DurabilityConfig::new(dir)
            .group_commit(64)
            .maintenance_interval_ms(0),
    )
    .unwrap()
}

/// The `i`-th one-row commit: row `id` gets a value neither the seed nor
/// any other call gave it, so every call appends exactly one record.
fn upsert(engine: &ShardedEngineServer, id: i64, i: i64) {
    engine
        .transact_keys(&[row![id]], 1, |db| {
            db.table_mut("t")?.upsert(row![id, "g0", -1 - i])?;
            Ok(())
        })
        .unwrap();
}

/// Records each trim drops when one-record commits cross the bound: the
/// log goes from one over the bound back to half of it.
const TRIMMED: u64 = (WAL_RETAINED_RECORDS + 1 - WAL_RETAINED_RECORDS / 2) as u64;

#[test]
fn settled_prefix_respects_chains_and_prepares() {
    let mut wal = Wal::new();
    wal.push(WalRecord::delta(1, "t", ins(101))).unwrap();
    wal.push(WalRecord::chained(2, "t", ins(102))).unwrap();
    wal.push(WalRecord::delta(3, "t", ins(103))).unwrap();
    wal.push(WalRecord::chained(4, "t", ins(104))).unwrap();
    wal.push(WalRecord::prepare(5, "g1", 1)).unwrap();
    wal.push(WalRecord::delta(6, "t", ins(106))).unwrap();
    wal.push(WalRecord::resolve(7, "g1", true)).unwrap();

    // Seq 2 is mid-chain: the boundary falls back to 1.
    assert_eq!(wal.settled_prefix_end(2), 1);
    assert_eq!(wal.settled_prefix_end(3), 3);
    // Seqs 4..=6 sit under the unresolved prepare g1.
    assert_eq!(wal.settled_prefix_end(4), 3);
    assert_eq!(wal.settled_prefix_end(6), 3);
    // The resolution settles everything.
    assert_eq!(wal.settled_prefix_end(7), 7);

    // Truncation refuses unsettled cuts and honours settled ones.
    assert!(matches!(
        wal.clone().truncate_through(4),
        Err(EngineError::WalCorrupt(_))
    ));
    let mut cut = wal.clone();
    assert_eq!(cut.truncate_through(3).unwrap(), 3);
    assert_eq!(cut.start_seq(), 3);
    assert_eq!(cut.len(), 4);
    // A cut at or below the start is a no-op.
    assert_eq!(cut.truncate_through(3).unwrap(), 0);
}

#[test]
fn a_laggard_view_cursor_does_not_pin_the_log() {
    let dir = fresh_dir("laggard");
    let engine = durable(&dir, 1);
    let fast = engine.define_view("fast", "t", &ViewDef::base()).unwrap();
    let slow_def = ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(40)));
    let slow = engine.define_view("slow", "t", &slow_def).unwrap();
    // The fast view reads after every edit; the slow one sits at its
    // registration cursor while the log passes its bound.
    let rebuilds = engine.metrics().view.rebuilds;
    for i in 0..=WAL_RETAINED_RECORDS as i64 {
        engine
            .edit_view_optimistic("fast", 4, move |v| {
                v.upsert(row![i % 40, "g0", -1 - i])?;
                Ok(())
            })
            .unwrap();
        fast.get().unwrap();
    }
    let log = engine.shard_wals().swap_remove(0);
    assert_eq!(log.len(), WAL_RETAINED_RECORDS / 2);
    assert!(log.start_seq() > 0, "the slow cursor did not pin the log");
    let m = engine.metrics();
    assert_eq!((m.wal_truncations, m.wal_records_truncated), (1, TRIMMED));
    assert_eq!(
        m.view.rebuilds, rebuilds,
        "the fast view drained every edit"
    );
    // Recovering the directory gives the live state.
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());

    // The slow view's next read rebuilds from the live piece and is
    // exact; after that it maintains incrementally again.
    let base = engine.table("t").unwrap();
    assert_eq!(slow.get().unwrap(), recompute(&slow_def, &base));
    assert_eq!(engine.metrics().view.rebuilds, rebuilds + 1);
    engine
        .edit_view_optimistic("fast", 4, |v| {
            v.upsert(row![7, "g1", 1])?;
            Ok(())
        })
        .unwrap();
    assert!(slow.get().unwrap().contains(&row![7, "g1", 1]));
    assert_eq!(engine.metrics().view.rebuilds, rebuilds + 1);
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn truncation_respects_chained_transactions() {
    let dir = fresh_dir("chains");
    let mut db = seed_db();
    let schema =
        Schema::build(&[("id", ValueType::Int), ("note", ValueType::Str)], &["id"]).unwrap();
    db.create_table("audit", Table::new(schema)).unwrap();
    let engine = ShardedEngineServer::with_durability(
        db,
        ShardRouter::single(),
        DurabilityConfig::new(&dir)
            .group_commit(64)
            .maintenance_interval_ms(0),
    )
    .unwrap();
    // Every transaction changes two tables: a chained record and its
    // terminator. Trims must cut between chains, never inside one.
    for i in 0..WAL_RETAINED_RECORDS as i64 {
        engine
            .transact(1, |db| {
                db.table_mut("t")?.upsert(row![i % KEYS, "g0", -1 - i])?;
                db.table_mut("audit")?.upsert(row![i, "touched"])?;
                Ok(())
            })
            .unwrap();
        let log = engine.shard_wals().swap_remove(0);
        assert!(log.len() <= WAL_RETAINED_RECORDS + 1);
        assert_eq!(log.len() % 2, 0, "a trim split a chain");
        assert!(matches!(
            log.records()[0].op,
            esm_engine::WalOp::Delta { chained: true, .. }
        ));
    }
    assert!(engine.metrics().wal_truncations > 0);
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn durable_trims_do_not_wait_for_the_checkpoint() {
    let dir = fresh_dir("no-checkpoint");
    let cfg = DurabilityConfig::new(&dir)
        .group_commit(64)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    let engine =
        ShardedEngineServer::with_durability(seed_db(), ShardRouter::single(), cfg.clone())
            .unwrap();
    let commits = WAL_RETAINED_RECORDS as i64 + 1;
    for i in 0..commits {
        upsert(&engine, i % KEYS, i);
    }
    // No checkpoint ever ran past genesis, yet the in-memory log trimmed:
    // the durable log, not the in-memory one, is what recovery reads.
    engine.run_maintenance().unwrap();
    assert_eq!(engine.metrics().wal.checkpoints, 1, "genesis only");
    assert_eq!(wal(&engine).len(), WAL_RETAINED_RECORDS / 2);
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    engine.sync_wal().unwrap();
    let live = engine.snapshot();
    drop(engine);

    // The whole history replays from genesis.
    let (recovered, report) = ShardedEngineServer::recover_with(cfg).unwrap();
    assert_eq!(recovered.snapshot(), live);
    assert_eq!(report.shards[0].checkpoint_seq, 0);
    assert_eq!(report.shards[0].records_replayed, commits as u64);
    drop(recovered);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn sharded_truncation_drops_per_shard_prefixes() {
    let dir = fresh_dir("sharded");
    let engine = durable(&dir, 4); // splits at 20 / 40 / 60
    let all = engine.define_view("all", "t", &ViewDef::base()).unwrap();
    // Shard 0 takes enough commits to trim; the others take a few, plus
    // one cross-shard 2PC.
    for i in 0..=WAL_RETAINED_RECORDS as i64 {
        upsert(&engine, 1, i);
    }
    for i in 1..4i64 {
        upsert(&engine, i * 20 + 1, -i);
    }
    engine
        .transact_keys(&[row![2], row![42]], 4, |db| {
            let t = db.table_mut("t")?;
            t.upsert(row![2, "g0", -1])?;
            t.upsert(row![42, "g1", 1])?;
            Ok(())
        })
        .unwrap();
    let lens: Vec<usize> = engine.shard_wals().iter().map(Wal::len).collect();
    assert_eq!(
        lens[0],
        WAL_RETAINED_RECORDS / 2 + 3,
        "chain, prepare, resolve"
    );
    assert_eq!(lens[1..], [1, 4, 1], "the other shards keep every record");
    let m = engine.metrics();
    assert_eq!((m.wal_truncations, m.wal_records_truncated), (1, TRIMMED));
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());

    // The view's shard-0 window fell below that shard's log start and
    // rebuilds; the other windows drain. Then it maintains again.
    let rebuilds = engine.metrics().view.rebuilds;
    let base = engine.table("t").unwrap();
    assert_eq!(all.get().unwrap(), base);
    assert_eq!(engine.metrics().view.rebuilds, rebuilds + 1);
    upsert(&engine, 3, 3);
    assert!(all.get().unwrap().contains(&row![3, "g0", -4]));
    assert_eq!(engine.metrics().view.rebuilds, rebuilds + 1);
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn maintenance_keeps_the_log_bounded_under_steady_load() {
    let dir = fresh_dir("steady");
    let cfg = DurabilityConfig::new(&dir)
        .group_commit(64)
        .checkpoint_every(100)
        .maintenance_interval_ms(0);
    let engine =
        ShardedEngineServer::with_durability(seed_db(), ShardRouter::single(), cfg).unwrap();
    let all = engine.define_view("all", "t", &ViewDef::base()).unwrap();
    let rebuilds = engine.metrics().view.rebuilds;
    let mut max_len = 0;
    for round in 0..40i64 {
        for i in 0..60i64 {
            engine
                .edit_view_optimistic("all", 4, move |v| {
                    v.upsert(row![1000 + round * 60 + i, "g0", i])?;
                    Ok(())
                })
                .unwrap();
        }
        all.get().unwrap();
        engine.run_maintenance().unwrap();
        max_len = max_len.max(wal(&engine).len());
    }
    // 2,400 commits flowed through; the log never passed its bound, the
    // checkpoints kept up, and a view read every round never rebuilt.
    assert!(max_len <= WAL_RETAINED_RECORDS, "log grew to {max_len}");
    assert!(engine.metrics().wal_truncations >= 3);
    assert!(engine.metrics().wal.checkpoints > 10);
    assert_eq!(engine.metrics().view.rebuilds, rebuilds);
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

/// 20,000 one-row commits while a band view, read once, sits idle and
/// nothing calls `run_maintenance`: the log stays within its bound the
/// whole way, the metrics count every trim, and the idle view's next read
/// rebuilds to exactly its recomputation.
fn assert_the_log_stays_bounded(engine: &ShardedEngineServer) {
    const COMMITS: i64 = 20_000;
    let (_, band) = view_defs()
        .into_iter()
        .find(|(name, _)| *name == "band")
        .unwrap();
    let view = engine.define_view("band", "t", &band).unwrap();
    view.get().unwrap();
    let rebuilds = engine.metrics().view.rebuilds;
    for i in 0..COMMITS {
        upsert(engine, i % KEYS, i);
        if i % 16 == 0 {
            let len = wal(engine).len();
            assert!(
                len <= WAL_RETAINED_RECORDS,
                "{len} records after {i} commits"
            );
        }
    }
    let len = wal(engine).len();
    assert!(
        len <= WAL_RETAINED_RECORDS,
        "{len} of {COMMITS} records retained"
    );
    let m = engine.metrics();
    assert_eq!(m.wal_records_truncated + len as u64, COMMITS as u64);
    assert_eq!(m.wal_truncations * TRIMMED, m.wal_records_truncated);
    let base = engine.table("t").unwrap();
    assert_eq!(view.get().unwrap(), recompute(&band, &base));
    assert!(engine.metrics().view.rebuilds > rebuilds);
}

#[test]
fn an_idle_view_leaves_the_log_bounded_in_memory() {
    assert_the_log_stays_bounded(&EngineServer::new(seed_db()));
}

#[test]
fn an_idle_view_leaves_the_log_bounded_on_a_default_durable_engine() {
    let dir = fresh_dir("bounded-default");
    let engine = ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::single(),
        DurabilityConfig::new(&dir),
    )
    .unwrap();
    assert_the_log_stays_bounded(&engine);
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn an_idle_view_leaves_the_log_bounded_without_checkpoints() {
    let dir = fresh_dir("bounded-no-checkpoint");
    let engine = ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::single(),
        DurabilityConfig::new(&dir).checkpoint_every(0),
    )
    .unwrap();
    assert_the_log_stays_bounded(&engine);
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}
