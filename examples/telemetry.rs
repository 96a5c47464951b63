//! End-to-end telemetry: a 16-connection swarm hammers a sharded
//! engine through the network front end, then one more connection
//! fetches the server's phase-latency histograms over the wire with
//! the `STATS` verb — commit phases (snapshot, validate, WAL append,
//! fsync, lock hold), 2PC phases, view maintenance phases, and the
//! net layer's own frame-decode/queue-wait/handler/response-write
//! breakdown, all in one Prometheus-style exposition. Then a `TRACE`
//! fetch prints the server's slow-trace ring: every sampled request
//! slower than 1 ms, as its causal span tree.
//!
//! Run with: `cargo run --release --example telemetry`

use std::thread;

use esm::engine::{Engine, RetryPolicy, Session, ShardRouter, ShardedEngineServer};
use esm::net::{NetServer, NetServerConfig, RemoteEngine};
use esm::obs::{render_prometheus, render_trace, TelemetryConfig};
use esm::relational::ViewDef;
use esm::store::{row, Database, Operand, Predicate, Schema, Table, ValueType};

const CLIENTS: usize = 16;
const OPS_PER_CLIENT: i64 = 12;
const KEYS: i64 = 400;

fn main() {
    // A 4-shard engine behind a loopback socket.
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("owner", ValueType::Str),
            ("qty", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows = (0..KEYS)
        .map(|i| row![i, format!("o{}", i % CLIENTS as i64), 1i64])
        .collect::<Vec<_>>();
    let mut db = Database::new();
    db.create_table("stock", Table::from_rows(schema, rows).expect("valid rows"))
        .expect("fresh table");
    let engine =
        ShardedEngineServer::with_router(db, ShardRouter::uniform_int(4, 0, KEYS).expect("router"))
            .expect("sharded engine");
    // The server roots a trace for every request that carries a trace
    // context, and tail-captures those slower than 1 ms.
    let server = NetServer::bind(
        engine.as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default()
            .telemetry_config(TelemetryConfig::default().slow_threshold_ns(1_000_000)),
    )
    .expect("bind loopback");
    let addr = server.local_addr();
    println!("serving a 4-shard engine on {addr}; {CLIENTS} clients incoming\n");

    // A view so the swarm's reads exercise the maintenance phases too.
    let admin = RemoteEngine::connect(addr).expect("connect");
    admin
        .define_view(
            "low",
            "stock",
            &ViewDef::base().select(Predicate::lt(Operand::col("qty"), Operand::val(5))),
        )
        .expect("view compiles");

    // The swarm: each connection alternates cross-key transactions
    // (some spanning shards → 2PC) with view reads, through a session
    // that traces one operation in four.
    thread::scope(|scope| {
        for client in 0..CLIENTS {
            scope.spawn(move || {
                let remote = RemoteEngine::connect(addr).expect("connect");
                remote.telemetry_registry().set_trace_sample_every(4);
                let session = Session::with_retry(remote.as_engine(), RetryPolicy { attempts: 64 });
                for i in 0..OPS_PER_CLIENT {
                    let a = (client as i64 * 37 + i * 11) % KEYS;
                    let b = (a + KEYS / 2) % KEYS; // other half → other shards
                    session
                        .transact(move |db: &mut Database| {
                            let t = db.table_mut("stock")?;
                            t.upsert(row![a, format!("o{client}"), i])?;
                            t.upsert(row![b, format!("o{client}"), i + 1])?;
                            Ok(())
                        })
                        .expect("commits");
                    session.read("low").expect("readable");
                }
            });
        }
    });

    // One more round trip: the full phase breakdown over the wire.
    // Engine phases come from the engine's registry; the server folds
    // its own net-layer phases in before the snapshot crosses the
    // socket.
    let snapshot = admin.telemetry().expect("stats over the wire");
    println!("{}", render_prometheus("esm", &snapshot));

    // The slow-trace ring: each server-side tree names the phase that
    // held the request up.
    let slow = admin.traces().expect("traces over the wire").slow;
    if slow.is_empty() {
        println!("# no traced request crossed the 1ms slow threshold");
    } else {
        println!(
            "# slow-trace ring ({} captured), slowest three:",
            slow.len()
        );
        let mut slowest: Vec<_> = slow.iter().collect();
        slowest.sort_by_key(|t| std::cmp::Reverse(t.duration_ns));
        for trace in slowest.into_iter().take(3) {
            print!("{}", render_trace(trace));
        }
    }

    let stats = server.stats();
    println!(
        "\nserver lifetime: {} connections, {} requests, {} B in / {} B out",
        stats.accepted, stats.requests, stats.bytes_read, stats.bytes_written
    );
    server.shutdown();
}
