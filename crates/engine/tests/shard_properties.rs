//! Property-based sharding laws: the router's key-range partitioning is
//! a bijection on keys — every key routes to exactly one shard, the
//! shard's range contains it (and no other shard's does), and the
//! ranges respect key order — and partitioning a database across a
//! sharded engine loses and duplicates nothing, nor does concatenating
//! its shards' view windows back into one read.

use proptest::prelude::*;

use esm_engine::{ShardRouter, ShardedEngineServer};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Row, Schema, Table, Value, ValueType};

/// Sorted, distinct split points from an arbitrary int set.
fn arb_splits() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::btree_set(-1000i64..1000, 0..8)
        .prop_map(|set| set.into_iter().map(|v| row![v]).collect())
}

fn arb_keys() -> impl Strategy<Value = Vec<Row>> {
    proptest::collection::vec((-1500i64..1500).prop_map(|v| row![v]), 1..64)
}

/// Is `key` inside the half-open range `[lo, hi)`?
fn in_range(key: &Row, lo: Option<&Row>, hi: Option<&Row>) -> bool {
    lo.is_none_or(|lo| lo <= key) && hi.is_none_or(|hi| key < hi)
}

proptest! {
    #[test]
    fn routing_is_a_bijection_on_keys(splits in arb_splits(), keys in arb_keys()) {
        let router = ShardRouter::from_splits(splits).expect("sorted distinct splits");
        for key in &keys {
            let shard = router.shard_of(key);
            // Total and in bounds.
            prop_assert!(shard < router.shard_count());
            // Deterministic.
            prop_assert_eq!(shard, router.shard_of(key));
            // The chosen shard's range contains the key…
            let (lo, hi) = router.range_of(shard).expect("in bounds");
            prop_assert!(in_range(key, lo, hi), "{key:?} outside its shard's range");
            // …and no other shard's range does: exactly one owner.
            for other in 0..router.shard_count() {
                if other != shard {
                    let (lo, hi) = router.range_of(other).expect("in bounds");
                    prop_assert!(
                        !in_range(key, lo, hi),
                        "{key:?} owned by both shard {shard} and {other}"
                    );
                }
            }
        }
        // Ranges are contiguous in key order: sorting by (shard, key)
        // equals sorting by key.
        let mut by_key = keys.clone();
        by_key.sort();
        let mut by_shard_then_key: Vec<(usize, Row)> =
            keys.iter().map(|k| (router.shard_of(k), k.clone())).collect();
        by_shard_then_key.sort();
        prop_assert_eq!(
            by_shard_then_key.into_iter().map(|(_, k)| k).collect::<Vec<_>>(),
            by_key
        );
    }

    #[test]
    fn split_refines_and_merge_coarsens_routing(
        splits in arb_splits(),
        keys in arb_keys(),
        at in -1500i64..1500,
    ) {
        let router = ShardRouter::from_splits(splits).expect("sorted distinct");
        let mut refined = router.clone();
        let at_key = row![at];
        match refined.split_at(at_key.clone()) {
            Err(_) => {
                // `at` was already a boundary: nothing changed.
                prop_assert_eq!(refined, router);
            }
            Ok(new_index) => {
                prop_assert_eq!(refined.shard_count(), router.shard_count() + 1);
                for key in &keys {
                    let old = router.shard_of(key);
                    let new = refined.shard_of(key);
                    // A split only renumbers: keys below `at` keep their
                    // relative shard, keys at/above it in the split
                    // shard move to the new one.
                    if old < new_index - 1 {
                        prop_assert_eq!(new, old);
                    } else if old == new_index - 1 {
                        let expected = if key < &at_key { old } else { new_index };
                        prop_assert_eq!(new, expected);
                    } else {
                        prop_assert_eq!(new, old + 1);
                    }
                }
                // Merging the pair back restores the original routing.
                let mut merged = refined.clone();
                merged.merge_into(new_index - 1).expect("adjacent pair");
                prop_assert_eq!(merged, router);
            }
        }
    }

    #[test]
    fn sharded_engines_partition_without_loss(
        splits in arb_splits(),
        ids in proptest::collection::btree_set(-1500i64..1500, 0..40),
    ) {
        let schema = Schema::build(
            &[("id", ValueType::Int), ("v", ValueType::Str)],
            &["id"],
        ).expect("valid schema");
        let rows: Vec<Row> = ids.iter().map(|&i| row![i, format!("r{i}")]).collect();
        let mut db = Database::new();
        db.create_table("kv", Table::from_rows(schema, rows).expect("valid")).expect("fresh");

        let router = ShardRouter::from_splits(splits).expect("sorted distinct");
        let engine = ShardedEngineServer::with_router(db.clone(), router.clone())
            .expect("sharded engine");
        // Nothing lost, nothing duplicated: the assembled snapshot is
        // the original database, and shard sizes sum to the row count.
        prop_assert_eq!(engine.snapshot(), db);
        let total: usize = engine.shard_wals().len();
        prop_assert_eq!(total, router.shard_count());
        // Every key reads back through a keyed transaction routed to
        // its shard.
        for &i in ids.iter().take(8) {
            let receipt = engine
                .transact_keys(&[row![i]], 1, |db| {
                    let t = db.table_mut("kv")?;
                    assert!(t.contains(&row![i, format!("r{i}")]));
                    t.upsert(row![i, "touched"])?;
                    Ok(())
                })
                .expect("commits");
            prop_assert_eq!(receipt.shards, vec![router.shard_of(&row![i])]);
        }
    }
}

/// Rows of the read-equality property: enough that every shard's window
/// spans several chunks.
const READ_ROWS: i64 = 2_000;

fn read_engine(router: ShardRouter) -> ShardedEngineServer {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("grp", ValueType::Int),
            ("v", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows = (0..READ_ROWS).map(|i| row![i, i % 7, i]);
    let mut db = Database::new();
    db.create_table("kv", Table::from_rows(schema, rows).expect("valid"))
        .expect("fresh");
    let engine = ShardedEngineServer::with_router(db, router).expect("engine");
    let views = [
        ("all", ViewDef::base()),
        (
            "grp3",
            ViewDef::base().select(Predicate::eq(Operand::col("grp"), Operand::val(3i64))),
        ),
        (
            "pairs",
            ViewDef::base()
                .select(Predicate::ge(Operand::col("v"), Operand::val(100i64)))
                .project(&["id", "v"], &[("grp", Value::Int(0))]),
        ),
    ];
    for (name, def) in views {
        engine.define_view(name, "kv", &def).expect("compiles");
    }
    engine
}

proptest! {
    /// A read of a 4-shard engine concatenates its shard windows chunk by
    /// chunk; it equals the read of a 1-shard engine over the same rows
    /// after random commits, a split and a merge.
    #[test]
    fn four_shard_reads_equal_one_shard_reads(
        commits in proptest::collection::vec((0i64..READ_ROWS + 50, 0i64..7, 0u8..4), 1..60),
        split in 1i64..READ_ROWS,
        merge in 0usize..4,
    ) {
        let one = read_engine(ShardRouter::single());
        let four = read_engine(ShardRouter::uniform_int(4, 0, READ_ROWS).expect("router"));
        let third = commits.len() / 3;
        for (step, &(id, grp, kind)) in commits.iter().enumerate() {
            if step == third {
                let _ = four.split_shard(row![split]);
            }
            if step == 2 * third && four.shard_count() > 1 {
                four.merge_shards(merge % (four.shard_count() - 1)).expect("adjacent shards merge");
            }
            for engine in [&one, &four] {
                engine
                    .transact(1, |db| {
                        let t = db.table_mut("kv")?;
                        if kind == 0 {
                            t.delete_by_key(&row![id]);
                        } else {
                            t.upsert(row![id, grp, id * 10 + kind as i64])?;
                        }
                        Ok(())
                    })
                    .expect("uncontended commits");
            }
            for name in ["all", "grp3", "pairs"] {
                prop_assert_eq!(
                    four.read_view(name).expect("readable"),
                    one.read_view(name).expect("readable"),
                    "view {} at step {}", name, step
                );
            }
        }
    }
}

#[test]
fn mixed_type_keys_still_partition_bijectively() {
    // Value's cross-variant total order (Bool < Int < Str) keeps the
    // bijection for heterogeneous keys too.
    let router = ShardRouter::from_splits(vec![row![false], row![0], row!["m"]]).unwrap();
    let keys = vec![
        row![true],
        row![false],
        row![-3],
        row![0],
        row![7],
        row![""],
        row!["m"],
        row!["zz"],
    ];
    for key in &keys {
        let shard = router.shard_of(key);
        let (lo, hi) = router.range_of(shard).unwrap();
        assert!(in_range(key, lo, hi));
    }
    assert_eq!(router.shard_of(&row![true]), 1); // false <= true < 0
    assert_eq!(router.shard_of(&row!["zz"]), 3);
}

#[test]
fn values_order_totally_across_variants() {
    // The premise the router rests on.
    let mut vals = vec![
        Value::str("a"),
        Value::Int(5),
        Value::Bool(true),
        Value::Int(-5),
        Value::Bool(false),
    ];
    vals.sort();
    assert_eq!(
        vals,
        vec![
            Value::Bool(false),
            Value::Bool(true),
            Value::Int(-5),
            Value::Int(5),
            Value::str("a"),
        ]
    );
}
