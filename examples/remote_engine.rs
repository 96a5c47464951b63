//! Entangled views over a wire, end to end: a [`NetServer`] fronting a
//! sharded engine on a loopback socket, remote clients on their own
//! connections defining and editing views through the same `Engine`
//! trait the in-process code uses — host-location-oblivious handles.
//!
//! Run with: `cargo run --release --example remote_engine`

use std::thread;

use esm::engine::{Engine, Session, ShardRouter, ShardedEngineServer};
use esm::net::{NetServer, NetServerConfig, RemoteEngine};
use esm::relational::ViewDef;
use esm::store::{row, Database, Operand, Predicate, Schema, Table, ValueType};

fn main() {
    // The hidden shared state: an orders table, partitioned over four
    // key-range shards.
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("customer", ValueType::Str),
            ("total", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let orders = Table::from_rows(
        schema,
        (0..40i64)
            .map(|i| row![i, format!("c{}", i % 7), i * 10])
            .collect::<Vec<_>>(),
    )
    .expect("valid rows");
    let mut db = Database::new();
    db.create_table("orders", orders).expect("fresh table");
    let engine =
        ShardedEngineServer::with_router(db, ShardRouter::uniform_int(4, 0, 40).expect("router"))
            .expect("sharded engine");

    // The network front end: one poller + a worker pool multiplexing
    // every connection onto the engine's shard pipelines.
    let server = NetServer::bind(
        engine.as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("serving a 4-shard engine on {addr}");

    // Client one (its own connection + session): define a view over the
    // big-ticket orders and edit it. The code below would be identical
    // against the in-process engine — EntangledView and Session
    // only ever see the Engine trait.
    let session = Session::new(RemoteEngine::connect(addr).expect("connect").as_engine());
    let big = session
        .define_view(
            "big",
            "orders",
            &ViewDef::base().select(Predicate::ge(Operand::col("total"), Operand::val(300))),
        )
        .expect("view compiles");
    println!(
        "big orders seen remotely: {}",
        big.get().expect("read").len()
    );

    let delta = session
        .edit("big", |v| {
            v.upsert(row![100, "c-new", 990])?;
            Ok(())
        })
        .expect("edit commits");
    println!("edit committed, base delta: +{} rows", delta.inserted.len());

    // A remote multi-key transaction: routed per key by the server (a
    // cross-shard write runs two-phase commit inside the engine).
    let receipt = session
        .transact(|db| {
            let t = db.table_mut("orders")?;
            t.upsert(row![2, "c2", 1000])?;
            t.upsert(row![38, "c3", 1200])?;
            Ok(())
        })
        .expect("transaction commits");
    println!(
        "cross-key transaction committed at stamp {} (shards {:?})",
        receipt.stamp, receipt.shards
    );

    // Sixteen more clients hammer the counter concurrently, each on its
    // own socket.
    let workers: Vec<_> = (0..16)
        .map(|i| {
            thread::spawn(move || {
                let remote = RemoteEngine::connect(addr).expect("connect");
                let view = remote.view("big").expect("registered");
                for j in 0..4 {
                    // Sixteen writers race one window: give the
                    // optimistic loop a contention-sized retry budget.
                    view.edit_with_attempts(4096, |v| {
                        v.upsert(row![200 + i * 10 + j, "swarm", 500 + j])?;
                        Ok(())
                    })
                    .expect("edit commits");
                }
            })
        })
        .collect();
    for w in workers {
        w.join().expect("worker finishes");
    }

    let remote = RemoteEngine::connect(addr).expect("connect");
    let window = remote.read_view("big").expect("read");
    let m = remote.metrics().expect("metrics over the wire");
    println!(
        "final big-order window: {} rows; engine commits={} cross_shard={} pruned={}",
        window.len(),
        m.commits,
        m.shard.cross_shard_commits,
        m.view.shards_pruned
    );
    let stats = server.stats();
    println!(
        "server: {} connections accepted, {} requests served",
        stats.accepted, stats.requests
    );
    // 10 seed rows with total >= 300, the session's insert, the
    // transaction's new qualifying row, and the swarm's 64.
    assert_eq!(window.len(), 10 + 1 + 1 + 16 * 4);
    server.shutdown();
    println!("server drained and shut down");
}
