//! The paper's set-bx laws (GS, SG, SS) and entanglement, observed
//! through `EntangledView` get/put on every in-process host:
//! one shard, four shards split and merged between law steps, and a
//! replica promoted to primary. The remote host runs the same suite in
//! the esm-net crate's `remote_engine` tests.

use std::path::PathBuf;
use std::sync::Arc;

use esm_engine::testkit::{check_bx_laws, check_bx_laws_with, seed_db, KEYS};
use esm_engine::{
    DirWalSource, DurabilityConfig, Engine, EngineServer, ReplicaConfig, ReplicaEngine,
    ShardRouter, ShardedEngineServer,
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
    let engine =
        ShardedEngineServer::with_router(seed_db(), ShardRouter::uniform_int(4, 0, KEYS).unwrap())
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
    assert_eq!(engine.recovered_database().unwrap(), engine.snapshot());
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
