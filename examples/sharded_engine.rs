//! Key-range sharding: one entangled engine, many commit pipelines.
//!
//! The paper's equivalence of state- and predicate-transformer readings
//! licenses treating a *partitioned* store as one monolithic state: the
//! engine serves the same `EntangledView` handles on four shards as on
//! one, while under the hood every table is cut across shards
//! by key range, single-shard transactions commit with no coordination,
//! and cross-shard transactions run two-phase commit over the per-shard
//! write-ahead logs. The engine is durable (in a temporary directory),
//! so the replay law can be shown the way it holds: recovering the
//! directory gives the live state, shard by shard.
//!
//! Run with: `cargo run --example sharded_engine`

use esm::engine::testkit::recovered_snapshot;
use esm::engine::{DurabilityConfig, ShardRouter, ShardedEngineServer};
use esm::relational::ViewDef;
use esm::store::{row, Database, Operand, Predicate, Row, Schema, Table, ValueType};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // A bank of 4000 accounts, keyed by id.
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("owner", ValueType::Str),
            ("balance", ValueType::Int),
        ],
        &["id"],
    )?;
    let rows: Vec<Row> = (0..4000)
        .map(|i| row![i, format!("acct{i}"), 100])
        .collect();
    let mut db = Database::new();
    db.create_table("accounts", Table::from_rows(schema, rows)?)?;

    // Four shards, each owning a quarter of the key space, each logging
    // into its own directory under `dir`.
    let dir = std::env::temp_dir().join(format!("esm-sharded-example-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let engine = ShardedEngineServer::with_durability(
        db,
        ShardRouter::uniform_int(4, 0, 4000)?,
        DurabilityConfig::new(&dir),
    )?;
    println!("shards: {}", engine.shard_count());

    // A single-shard transaction: no coordination, one WAL.
    let receipt = engine.transact_keys(&[row![42]], 4, |db| {
        let t = db.table_mut("accounts")?;
        t.upsert(row![42, "acct42", 150])?;
        Ok(())
    })?;
    println!(
        "single-shard commit: stamp {}, shards {:?}",
        receipt.stamp, receipt.shards
    );

    // A cross-shard transfer: two-phase commit over both shards' WALs.
    let receipt = engine.transact_keys(&[row![10], row![3990]], 4, |db| {
        let t = db.table_mut("accounts")?;
        let from = t.get_by_key(&row![10]).unwrap()[2].as_int().unwrap();
        let to = t.get_by_key(&row![3990]).unwrap()[2].as_int().unwrap();
        t.upsert(row![10, "acct10", from - 25])?;
        t.upsert(row![3990, "acct3990", to + 25])?;
        Ok(())
    })?;
    println!(
        "cross-shard transfer: gtx {:?} across shards {:?}",
        receipt.gtx, receipt.shards
    );

    // Routing-oblivious entangled views: the window spans shards, the
    // client never sees them.
    let rich = engine.define_view(
        "rich",
        "accounts",
        &ViewDef::base().select(Predicate::ge(Operand::col("balance"), Operand::val(120))),
    )?;
    println!("rich accounts: {}", rich.get()?.len());
    rich.edit(|v| {
        v.upsert(row![7, "acct7", 500])?; // shard 0
        v.upsert(row![3500, "acct3500", 500])?; // shard 3
        Ok(())
    })?;

    // Online rebalance: split the hot first shard at the median key of
    // its range (`Table::key_at` picks split points by position), then
    // check nothing moved observably.
    let before = engine.snapshot();
    let accounts = engine.table("accounts")?;
    let split_at = accounts
        .key_at(accounts.len() / 8) // median of the first quarter
        .expect("the table is nonempty");
    let new_index = engine.split_shard(split_at.clone())?;
    println!(
        "split shard 0 at key {split_at:?} → new shard at index {new_index} ({} shards now)",
        engine.shard_count()
    );
    assert_eq!(engine.snapshot(), before, "a split changes no data");

    // The recovery law holds shard by shard: recovering a copy of the
    // directory gives every shard's live piece under the new key ranges,
    // and their union is the engine's snapshot.
    assert_eq!(recovered_snapshot(&engine)?, engine.snapshot());

    let m = engine.metrics();
    println!(
        "commits: {} ({} single-shard, {} cross-shard; {} prepares, {} splits)",
        m.commits,
        m.shard.single_shard_commits,
        m.shard.cross_shard_commits,
        m.shard.prepares,
        m.shard.splits,
    );
    drop(engine);
    std::fs::remove_dir_all(&dir)?;
    Ok(())
}
