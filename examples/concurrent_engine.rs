//! The engine subsystem end to end: one shared base table, four entangled
//! views, six writer threads committing interleaved transactions, then
//! recovery from the write-ahead log.
//!
//! Run with: `cargo run --release --example concurrent_engine`

use std::thread;

use esm::engine::{EngineServer, WAL_RETAINED_RECORDS};
use esm::relational::ViewDef;
use esm::store::{row, Database, Operand, Predicate, Schema, Table, Value, ValueType};

fn main() {
    // The hidden shared state: an accounts table.
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("region", ValueType::Str),
            ("owner", ValueType::Str),
            ("balance", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let accounts = Table::from_rows(
        schema,
        vec![
            row![0, "hq", "treasury", 0],
            row![1, "emea", "ada", 100],
            row![2, "apac", "alan", 200],
        ],
    )
    .expect("valid rows");
    let mut db = Database::new();
    db.create_table("accounts", accounts).expect("fresh table");

    // The engine: one shard, shared by handle-clone, WAL-backed. It holds
    // the one copy of the data; `db` stays as the seed the WAL replays
    // over (a clone shares every chunk with it).
    let engine = EngineServer::new(db.clone());

    // Entangled views: three regional selections plus a directory
    // projection that hides balances. Registering one builds its window
    // in one pass over the table; every later read folds in the commits
    // made since the last one.
    for region in ["emea", "apac", "amer"] {
        engine
            .define_view(
                region,
                "accounts",
                &ViewDef::base()
                    .select(Predicate::eq(Operand::col("region"), Operand::val(region))),
            )
            .expect("view compiles");
    }
    engine
        .define_view(
            "directory",
            "accounts",
            &ViewDef::base().project(
                &["id", "owner"],
                &[("region", Value::str("hq")), ("balance", Value::Int(0))],
            ),
        )
        .expect("view compiles");

    // Six clients: two per region, each committing 10 transactional edits
    // through its own entangled view of the shared table.
    let threads: Vec<_> = (0..6)
        .map(|t| {
            let region = ["emea", "apac", "amer"][t % 3];
            let view = engine.view(region).expect("registered");
            thread::spawn(move || {
                for i in 0..10i64 {
                    let id = 100 + (t as i64) * 10 + i;
                    let owner = format!("client-{t}");
                    let delta = view
                        .edit(|v| {
                            v.upsert(row![id, region, owner.as_str(), 10 * i])?;
                            Ok(())
                        })
                        .expect("edit commits");
                    assert_eq!(delta.inserted.len(), 1);
                }
            })
        })
        .collect();
    for t in threads {
        t.join().expect("no client panicked");
    }

    // Every write is visible through every entangled view.
    let table = engine.table("accounts").expect("exists");
    println!("base table now holds {} rows", table.len());
    let directory = engine.read_view("directory").expect("readable");
    println!(
        "directory view holds {} rows (balances hidden)",
        directory.len()
    );

    // The bx contract end to end: a projection edit preserves hidden data.
    let dir = engine.view("directory").expect("registered");
    dir.edit(|v| {
        v.upsert(row![1, "ada lovelace"])?;
        Ok(())
    })
    .expect("edit commits");
    let ada = engine
        .table("accounts")
        .expect("exists")
        .get_by_key(&row![1])
        .cloned();
    println!("after directory rename: {ada:?} (balance survived)");

    // Recovery: replay the WAL over the seed and compare to live. The
    // in-memory WAL keeps at most `WAL_RETAINED_RECORDS` records, far
    // more than this run commits, so it still starts at the seed.
    let wal = engine.shard_wals().swap_remove(0);
    println!(
        "wal holds {} committed deltas (retains at most {WAL_RETAINED_RECORDS})",
        wal.len()
    );
    let recovered = wal.replay(&db).expect("replays");
    assert_eq!(recovered, engine.snapshot());
    println!("recovery check: WAL replay == live state ✓");

    let m = engine.metrics();
    println!(
        "metrics: {} commits, {} conflicts, {} retries, {} view reads, {} rows written",
        m.commits, m.conflicts, m.retries, m.view_reads, m.rows_written
    );
}
