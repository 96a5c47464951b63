//! WAL truncation below the view cursors.
//!
//! The in-memory WAL feeds first-committer-wins validation and
//! materialized-view maintenance; once every registered view's window
//! cursor (and the durable checkpoint, when one exists) has passed a
//! prefix, that prefix is folded into the replay baseline and dropped —
//! the log stays bounded under a steady write/read workload without
//! ever breaking the replay law (`baseline + wal == live`), splitting a
//! chained transaction, or dropping the only evidence of a 2PC outcome.

use esm_engine::testkit::seed_db;
use esm_engine::{
    DurabilityConfig, EngineError, EngineServer, ShardRouter, ShardedEngineServer, Wal, WalRecord,
};
use esm_relational::ViewDef;
use esm_store::{row, Delta, Operand, Predicate};

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
    let dropped = cut.truncate_through(3).unwrap();
    assert_eq!(dropped.len(), 3);
    assert_eq!(cut.start_seq(), 3);
    assert_eq!(cut.len(), 4);
    // A cut at or below the start is a no-op.
    assert!(cut.truncate_through(3).unwrap().is_empty());
}

#[test]
fn truncation_is_gated_on_the_laggard_view_cursor() {
    let engine = EngineServer::new(seed_db());
    let fast = engine.define_view("fast", "t", &ViewDef::base()).unwrap();
    let slow = engine
        .define_view(
            "slow",
            "t",
            &ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(40))),
        )
        .unwrap();
    // Both cursors sit at registration (seq 0): nothing can go.
    for i in 0..10i64 {
        engine
            .edit_view_optimistic("fast", 4, move |v| {
                v.upsert(row![200 + i, "g0", i])?;
                Ok(())
            })
            .unwrap();
    }
    assert_eq!(engine.truncate_wals().unwrap(), 0);
    assert_eq!(wal(&engine).len(), 10);

    // Only the fast view reads: the slow cursor still pins the log.
    fast.get().unwrap();
    assert_eq!(engine.truncate_wals().unwrap(), 0);

    // Once the laggard catches up the whole prefix drops…
    slow.get().unwrap();
    let dropped = engine.truncate_wals().unwrap();
    assert_eq!(dropped, 10);
    assert_eq!(wal(&engine).len(), 0);
    assert_eq!(wal(&engine).start_seq(), 10);
    let m = engine.metrics();
    assert_eq!(m.wal_truncations, 1);
    assert_eq!(m.wal_records_truncated, 10);

    // …and the replay law still holds: the baseline advanced in step.
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());

    // Life goes on: edits commit past the truncation point and views
    // keep maintaining incrementally (no spurious rebuild).
    let rebuilds = engine.metrics().view.rebuilds;
    engine
        .edit_view_optimistic("fast", 4, |v| {
            v.upsert(row![300, "g1", 1])?;
            Ok(())
        })
        .unwrap();
    assert_eq!(fast.get().unwrap().len(), 51);
    assert_eq!(engine.metrics().view.rebuilds, rebuilds);
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());
}

#[test]
fn truncation_respects_chained_transactions() {
    let engine = EngineServer::new(seed_db());
    let all = engine.define_view("all", "t", &ViewDef::base()).unwrap();
    // A multi-table transaction appends a chained group (seed_db has
    // one table, so force chains through two transact tables by using
    // single-table groups of several rows plus a plain edit).
    engine
        .transact(4, |db| {
            db.table_mut("t")?.upsert(row![500, "g0", 1])?;
            db.table_mut("t")?.upsert(row![501, "g0", 2])?;
            Ok(())
        })
        .unwrap();
    all.get().unwrap();
    let dropped = engine.truncate_wals().unwrap();
    assert!(dropped >= 1);
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());
}

#[test]
fn durable_truncation_waits_for_the_checkpoint() {
    let dir = std::env::temp_dir().join(format!("esm-trunc-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurabilityConfig::new(&dir)
        .checkpoint_every(6)
        .maintenance_interval_ms(0);
    let engine =
        ShardedEngineServer::with_durability(seed_db(), ShardRouter::single(), cfg).unwrap();
    let all = engine.define_view("all", "t", &ViewDef::base()).unwrap();
    for i in 0..4i64 {
        engine
            .edit_view_optimistic("all", 4, move |v| {
                v.upsert(row![400 + i, "g0", i])?;
                Ok(())
            })
            .unwrap();
    }
    all.get().unwrap();
    // The view cursor passed everything, but the durable checkpoint
    // (interval 6) has not: nothing may drop yet.
    assert_eq!(engine.truncate_wals().unwrap(), 0);

    for i in 4..8i64 {
        engine
            .edit_view_optimistic("all", 4, move |v| {
                v.upsert(row![400 + i, "g0", i])?;
                Ok(())
            })
            .unwrap();
    }
    all.get().unwrap();
    // run_maintenance checkpoints (8 records >= interval 6) and then
    // truncates below min(cursor, checkpoint).
    let checkpoints = engine.metrics().wal.checkpoints;
    engine.run_maintenance().unwrap();
    assert!(engine.metrics().wal.checkpoints > checkpoints);
    assert!(wal(&engine).start_seq() > 0);
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());
    drop(engine);

    // Crash-recover the directory: the durable history is intact even
    // though the in-memory log was truncated.
    let (recovered, _) = ShardedEngineServer::recover(&dir).unwrap();
    let snap = recovered.snapshot();
    assert_eq!(snap.table("t").unwrap().len(), 48);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sharded_truncation_drops_per_shard_prefixes() {
    let engine =
        ShardedEngineServer::with_router(seed_db(), ShardRouter::uniform_int(4, 0, 80).unwrap())
            .unwrap();
    let all = engine.define_view("all", "t", &ViewDef::base()).unwrap();
    // Disjoint single-shard commits plus one cross-shard 2PC.
    for i in 0..8i64 {
        let id = i * 10 + 1;
        engine
            .transact_keys(&[row![id]], 4, move |db| {
                db.table_mut("t")?.upsert(row![id, "g0", i])?;
                Ok(())
            })
            .unwrap();
    }
    engine
        .transact_keys(&[row![2], row![42]], 4, |db| {
            let t = db.table_mut("t")?;
            t.upsert(row![2, "g0", -1])?;
            t.upsert(row![42, "g1", 1])?;
            Ok(())
        })
        .unwrap();
    let before: usize = engine.shard_wals().iter().map(Wal::len).sum();
    assert!(before > 0);

    // The window cursor sits at registration until the view reads.
    all.get().unwrap();
    let dropped = engine.truncate_wals().unwrap();
    assert!(
        dropped as usize == before,
        "all settled records drop: {dropped} of {before}"
    );
    let after: usize = engine.shard_wals().iter().map(Wal::len).sum();
    assert_eq!(after, 0);
    assert_eq!(engine.metrics().wal_records_truncated, dropped);

    // Replay and maintenance laws survive.
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());
    let rebuilds = engine.metrics().view.rebuilds;
    engine
        .transact_keys(&[row![3]], 4, |db| {
            db.table_mut("t")?.upsert(row![3, "g1", 3])?;
            Ok(())
        })
        .unwrap();
    assert!(all.get().unwrap().contains(&row![3, "g1", 3]));
    assert_eq!(engine.metrics().view.rebuilds, rebuilds);
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());
}

#[test]
fn maintenance_keeps_the_log_bounded_under_steady_load() {
    let engine = EngineServer::new(seed_db());
    let all = engine.define_view("all", "t", &ViewDef::base()).unwrap();
    let mut max_len = 0;
    for round in 0..20i64 {
        for i in 0..10i64 {
            engine
                .edit_view_optimistic("all", 4, move |v| {
                    v.upsert(row![1000 + round * 10 + i, "g0", i])?;
                    Ok(())
                })
                .unwrap();
        }
        all.get().unwrap();
        engine.run_maintenance().unwrap();
        max_len = max_len.max(wal(&engine).len());
    }
    // 200 commits flowed through; the log never held more than one
    // round's worth.
    assert!(max_len <= 10, "log grew unbounded: {max_len}");
    assert_eq!(wal(&engine).start_seq(), 200);
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());
}
