//! The incremental/recompute equivalence law for materialized views.
//!
//! `read_view` serves a maintained window (deltas folded in since the
//! last read, shard-pruned under key bounds); the law says that after
//! *any* sequence of commits, shard splits and merges, that window
//! equals a fresh lens `get` over the assembled base — the two read
//! paths may never be observably different.
//!
//! The law body lives in [`esm_engine::testkit`] and is written against
//! `&dyn Engine`, so **one code path** checks every host: the proptests
//! here drive it against the engine on one to four shards; the `esm-net`
//! crate's suite drives the very same function against a `RemoteEngine`
//! over a loopback socket. A separate proptest keeps the topology churn
//! (splits/merges are operator surface, not `Engine` surface).

use proptest::prelude::*;

use esm_engine::testkit::{
    self, check_view_maintenance, decode_op, recompute, seed_db, view_defs, Op, KEYS,
};
use esm_engine::{Engine, EngineServer, ShardRouter, ShardedEngineServer};
use esm_store::row;

fn arb_ops() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..10, 0i64..10_000, 0i64..10_000), 1..30)
}

/// The engine over [`seed_db`], its key space cut into `shards` equal
/// ranges.
fn engine(shards: usize) -> ShardedEngineServer {
    ShardedEngineServer::with_router(
        seed_db(),
        ShardRouter::uniform_int(shards, 0, KEYS).expect("router"),
    )
    .expect("engine")
}

proptest! {
    #[test]
    fn views_equal_fresh_recompute(ops in arb_ops(), shards in 1usize..5) {
        let engine = engine(shards);
        check_view_maintenance(&engine, &ops);
        // With more than one shard the key-bounded views pruned shards
        // along the way (`low` never touches the last range).
        let pruned = Engine::metrics(&engine).expect("metrics").view.shards_pruned;
        prop_assert!(shards == 1 || pruned > 0);
    }

    /// Topology churn stays a sharded-only concern: interleave the
    /// scripted ops with online splits and merges and re-check the law
    /// after every step (epoch bumps invalidate windows; reads must
    /// rebuild correctly).
    #[test]
    fn sharded_views_survive_splits_and_merges(ops in arb_ops()) {
        let engine = engine(4);
        let defs = view_defs();
        for (name, def) in &defs {
            engine.define_view(*name, "t", def).expect("compiles");
        }

        for (i, &(kind, a, b)) in ops.iter().enumerate() {
            match kind {
                8 => {
                    // Splitting at an existing boundary is a scripted
                    // no-op, not a failure.
                    let _ = engine.split_shard(row![a.rem_euclid(KEYS)]);
                }
                9 => {
                    if engine.shard_count() > 1 {
                        let left =
                            (a.unsigned_abs() as usize) % (engine.shard_count() - 1);
                        engine.merge_shards(left).expect("adjacent shards merge");
                    }
                }
                _ => testkit::apply_op(&engine, decode_op(kind % 8, a, b)),
            }
            let snap = engine.snapshot();
            let base = snap.table("t").expect("exists");
            for (name, def) in &defs {
                prop_assert_eq!(
                    Engine::read_view(&engine, name).expect("readable"),
                    recompute(def, base),
                    "view {} diverged from recomputation at op {}", name, i
                );
            }
        }

        // Steady state: the topology is now stable, so repeated reads
        // rebuild nothing and apply nothing.
        let before = Engine::metrics(&engine).expect("metrics").view;
        for _ in 0..3 {
            for (name, _) in &defs {
                Engine::read_view(&engine, name).expect("readable");
            }
        }
        let after = Engine::metrics(&engine).expect("metrics").view;
        prop_assert_eq!(after.rebuilds, before.rebuilds);
        prop_assert_eq!(after.deltas_applied, before.deltas_applied);
    }

    /// The conformance suite also runs through `dyn Engine` handles —
    /// the exact shape the network server holds.
    #[test]
    fn dyn_engine_handles_satisfy_the_law(ops in arb_ops()) {
        let concrete = EngineServer::new(seed_db());
        let dynamic: esm_engine::ArcEngine = concrete.as_engine();
        check_view_maintenance(&*dynamic, &ops);
    }
}

/// Scripted (non-proptest) run so a plain `cargo test` exercises every
/// op shape deterministically on one shard and on four.
#[test]
fn scripted_ops_cover_all_shapes() {
    let script: Vec<(u8, i64, i64)> = (0..40u8)
        .map(|i| (i % 10, i as i64 * 7, i as i64 * 13))
        .collect();
    for shards in [1, 4] {
        check_view_maintenance(&engine(shards), &script);
    }
}

/// The trait-level concurrency oracle on one shard and on four: racing
/// optimistic editors over clones of one engine must lose no update.
#[test]
fn concurrent_editors_match_the_oracle_in_process() {
    for shards in [1, 4] {
        let engine = engine(shards).as_engine();
        let clients: Vec<esm_engine::ArcEngine> = (0..8).map(|_| engine.as_engine()).collect();
        let total = testkit::check_concurrent_edits(clients, 12);
        assert_eq!(total, 8 * 12);
    }
}

/// Decoded ops stay within the documented families.
#[test]
fn op_decoding_is_total() {
    for kind in 0..=255u8 {
        match decode_op(kind, 123, 456) {
            Op::Upsert { id, .. } | Op::Delete { id } | Op::Transfer { a: id, .. } => {
                assert!((0..KEYS).contains(&id));
            }
        }
    }
}
