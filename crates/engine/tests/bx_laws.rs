//! The paper's set-bx laws (GS, SG, SS) and entanglement, observed
//! through `EntangledView` get/put on every in-process host:
//! one shard, four durable shards split and merged between law steps, a
//! durable primary whose synced replica serves the same reads (and
//! refuses every write), and a replica promoted to primary. The remote
//! host runs the same suite in the esm-net crate's `remote_engine` tests.

use std::path::PathBuf;
use std::sync::Arc;

use esm_engine::testkit::{
    apply_op, check_bx_laws, check_bx_laws_with, decode_op, recompute, recovered_snapshot, seed_db,
    view_defs, KEYS,
};
use esm_engine::{
    DirWalSource, DurabilityConfig, Engine, EngineError, EngineServer, ReplicaConfig,
    ReplicaEngine, ShardRouter, ShardedEngineServer,
};
use esm_store::row;

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-bx-laws-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn bx_laws_hold_on_one_shard() {
    check_bx_laws(&EngineServer::new(seed_db()));
}

#[test]
fn bx_laws_hold_on_four_shards_across_splits_and_merges() {
    let dir = fresh_dir("rebalanced");
    let engine = ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::uniform_int(4, 0, KEYS).unwrap(),
        DurabilityConfig::new(&dir).maintenance_interval_ms(0),
    )
    .unwrap();
    // Alternate a split and a merge between law steps, so every law is
    // checked on windows a topology change invalidated.
    let mut step = 0u32;
    check_bx_laws_with(&engine, &mut || {
        step += 1;
        if step % 2 == 1 {
            engine
                .split_shard(row![1 + 2 * i64::from(step % 9)])
                .unwrap();
        } else {
            engine.merge_shards(0).unwrap();
        }
    });
    assert_eq!(engine.shard_count(), 4);
    assert!(engine.metrics().shard.splits > 0 && engine.metrics().shard.merges > 0);
    // Recovering the directory gives the live state, shard by shard.
    assert_eq!(recovered_snapshot(&engine).unwrap(), engine.snapshot());
    drop(engine);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn bx_laws_hold_on_a_durable_primary_and_its_synced_replica_reads_agree() {
    let dir = fresh_dir("synced-primary");
    let mirror = fresh_dir("synced-mirror");
    let config = DurabilityConfig::new(&dir)
        .group_commit(1)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    let primary = ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::uniform_int(2, 0, KEYS).unwrap(),
        config,
    )
    .unwrap();
    check_bx_laws(&primary);

    // The replica defines the same views over what it has shipped so
    // far, then syncs the commits the primary takes after that.
    let replica = ReplicaEngine::bootstrap(
        Arc::new(DirWalSource::new(&dir, "")),
        ReplicaConfig::new(&mirror).poll_interval_ms(0),
    )
    .unwrap();
    let defs = view_defs();
    for (name, def) in &defs {
        Engine::define_view(&replica, name, "t", def).unwrap();
    }
    for (kind, a) in (0u8..10).zip([3i64, 28, 41, 7, 66, 20, 13, 52, 35, 9]) {
        apply_op(&primary, decode_op(kind, a, a * 7));
    }
    replica.sync_once().unwrap();

    let base = primary.table("t").unwrap();
    assert_eq!(Engine::table(&replica, "t").unwrap(), base);
    for (name, def) in &defs {
        let read = Engine::read_view(&replica, name).unwrap();
        assert_eq!(
            read,
            primary.read_view(name).unwrap(),
            "replica read of {name}"
        );
        assert_eq!(read, recompute(def, &base), "replica read of {name}");
    }

    // Writes through the replica's handles are refused and change no read.
    let commits = primary.metrics().commits;
    for (name, _) in &defs {
        let view = Engine::view(&replica, name).unwrap();
        let before = view.get().unwrap();
        let mut emptied = before.clone();
        emptied.clear();
        assert!(matches!(
            view.put(emptied),
            Err(EngineError::NotPrimary { .. })
        ));
        assert!(matches!(
            view.edit(|window| {
                window.clear();
                Ok(())
            }),
            Err(EngineError::NotPrimary { .. })
        ));
        assert_eq!(view.get().unwrap(), before, "refused writes changed {name}");
    }
    replica.sync_once().unwrap();
    for (name, _) in &defs {
        assert_eq!(
            Engine::read_view(&replica, name).unwrap(),
            primary.read_view(name).unwrap()
        );
    }
    assert_eq!(primary.metrics().commits, commits);
    drop(replica);
    drop(primary);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&mirror).ok();
}

#[test]
fn bx_laws_hold_on_a_promoted_replica() {
    let dir = fresh_dir("primary");
    let mirror = fresh_dir("mirror");
    let config = DurabilityConfig::new(&dir)
        .group_commit(1)
        .checkpoint_every(0)
        .maintenance_interval_ms(0);
    let primary = ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::uniform_int(2, 0, KEYS).unwrap(),
        config,
    )
    .unwrap();
    primary
        .transact(4, |db| {
            db.table_mut("t")?.upsert(row![1, "g1", 1])?;
            Ok(())
        })
        .unwrap();
    let replica = ReplicaEngine::bootstrap(
        Arc::new(DirWalSource::new(&dir, "")),
        ReplicaConfig::new(&mirror).poll_interval_ms(0),
    )
    .unwrap();
    drop(primary);
    let promoted = replica.promote("").unwrap().engine;
    assert_eq!(
        Engine::snapshot(&promoted).unwrap(),
        Engine::snapshot(&replica).unwrap()
    );
    check_bx_laws(&promoted);
    assert!(promoted.metrics().wal.appends > 0, "the promoted host logs");
    drop(promoted);
    drop(replica);
    std::fs::remove_dir_all(&dir).ok();
    std::fs::remove_dir_all(&mirror).ok();
}
