//! Integration: N writer threads × M entangled views over one engine.
//!
//! The acceptance contract for the engine subsystem:
//! * interleaved transactions from ≥4 threads through ≥3 entangled views
//!   commit with **no lost updates** (disjoint writes all land; contended
//!   read-modify-writes serialize via first-committer-wins retries);
//! * every committed write's `get` round-trips (the written rows are
//!   visible through the view that wrote them *and* through the other
//!   entangled views);
//! * replaying the WAL over the seed equals the live state, including
//!   across the segment encode/decode round-trip.

use std::thread;

use esm_engine::{EngineError, EngineServer, ShardedEngineServer};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Schema, Table, Value, ValueType};

fn accounts_db() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("shard", ValueType::Str),
            ("owner", ValueType::Str),
            ("balance", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows = vec![
        row![0, "counter", "system", 0],
        row![1, "a", "ada", 100],
        row![2, "b", "alan", 200],
        row![3, "c", "grace", 300],
    ];
    let mut db = Database::new();
    db.create_table(
        "accounts",
        Table::from_rows(schema, rows).expect("valid rows"),
    )
    .expect("fresh table");
    db
}

/// An engine with four entangled views over the one base table: three
/// shard selections plus a whole-table identity view.
/// The replay law on a one-shard engine seeded with [`accounts_db`]: its
/// in-memory WAL replayed over the seed.
fn replayed(engine: &EngineServer) -> Database {
    engine.shard_wals()[0]
        .replay(&accounts_db())
        .expect("replays")
}

fn engine_with_views() -> EngineServer {
    let engine = EngineServer::new(accounts_db());
    for shard in ["a", "b", "c"] {
        engine
            .define_view(
                format!("shard_{shard}"),
                "accounts",
                &ViewDef::base().select(Predicate::eq(Operand::col("shard"), Operand::val(shard))),
            )
            .expect("view compiles");
    }
    engine
        .define_view("all", "accounts", &ViewDef::base())
        .expect("view compiles");
    engine
}

#[test]
fn disjoint_writes_from_many_threads_all_land() {
    const THREADS: usize = 8;
    const WRITES_PER_THREAD: i64 = 25;

    let engine = engine_with_views();
    let shards = ["a", "b", "c"];

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let shard = shards[t % shards.len()];
            let view = engine.view(&format!("shard_{shard}")).expect("registered");
            thread::spawn(move || {
                for i in 0..WRITES_PER_THREAD {
                    let id = 1_000 + (t as i64) * WRITES_PER_THREAD + i;
                    let owner = format!("t{t}w{i}");
                    let delta = view
                        .edit(|v| {
                            v.upsert(row![id, shard, owner.as_str(), i])?;
                            Ok(())
                        })
                        .expect("edit commits");
                    // The committed delta reports exactly this write.
                    assert_eq!(delta.inserted, vec![row![id, shard, owner.as_str(), i]]);
                    // Round-trip: the row is immediately visible through
                    // the view that wrote it.
                    assert!(view.get().expect("readable").contains(&row![
                        id,
                        shard,
                        owner.as_str(),
                        i
                    ]));
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no writer panicked");
    }

    // No lost updates: every one of the THREADS × WRITES_PER_THREAD
    // distinct rows landed in the base table.
    let base = engine.table("accounts").expect("exists");
    assert_eq!(base.len(), 4 + THREADS * WRITES_PER_THREAD as usize);
    // And each is visible through the entangled whole-table view.
    let all = engine.read_view("all").expect("readable");
    for t in 0..THREADS {
        for i in 0..WRITES_PER_THREAD {
            let id = 1_000 + (t as i64) * WRITES_PER_THREAD + i;
            assert!(all.get_by_key(&row![id]).is_some(), "lost update: id {id}");
        }
    }

    // WAL replay over the seed reproduces the live state.
    assert_eq!(replayed(&engine), engine.snapshot());
    let m = engine.metrics();
    assert_eq!(m.commits, (THREADS as u64) * (WRITES_PER_THREAD as u64));
}

#[test]
fn contended_increments_never_lose_an_update() {
    const THREADS: usize = 6;
    const INCREMENTS: i64 = 20;

    let engine = engine_with_views();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let engine = engine.clone();
            thread::spawn(move || {
                for _ in 0..INCREMENTS {
                    // All threads hammer the same row through the same
                    // view: first-committer-wins + retry must serialize
                    // the read-modify-writes.
                    engine
                        .edit_view_optimistic("all", u32::MAX, |v| {
                            let cur = v.get_by_key(&row![0]).expect("counter row exists").clone();
                            let bumped = cur[3].as_int().expect("int balance") + 1;
                            v.upsert(row![0, "counter", "system", bumped])?;
                            Ok(())
                        })
                        .expect("eventually commits");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no incrementer panicked");
    }

    let base = engine.table("accounts").expect("exists");
    let counter = base.get_by_key(&row![0]).expect("counter row");
    assert_eq!(counter[3], Value::Int((THREADS as i64) * INCREMENTS));

    // Serialized outcome: commits == total increments; conflicts were
    // retried, not dropped.
    let m = engine.metrics();
    assert_eq!(m.commits, (THREADS as u64) * (INCREMENTS as u64));
    assert_eq!(
        m.retries, m.conflicts,
        "every conflict should have been retried"
    );

    assert_eq!(replayed(&engine), engine.snapshot());
}

/// Racing putters on `shards` shards: four threads each put the window
/// of one all-rows view back 100 times with the same two rows upserted
/// (rows 0 and 3, which sit on different shards when there are four).
/// Every put lands (last-writer-wins), every conflict is retried and
/// counted once, and every shard's log replays to the live state.
fn racing_puts_count_every_retry(shards: usize) {
    const THREADS: i64 = 4;
    const PUTS: i64 = 100;

    let engine = ShardedEngineServer::with_shards(accounts_db(), shards).expect("sharded");
    assert_eq!(engine.shard_count(), shards);
    let all = engine
        .define_view("all", "accounts", &ViewDef::base())
        .expect("view compiles");
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let all = all.clone();
            thread::spawn(move || {
                for i in 0..PUTS {
                    // Each put writes a value no other put (nor the
                    // seed) holds, so it changes both rows whatever
                    // landed before it.
                    let n = -1 - (t * PUTS + i);
                    let mut window = all.get().expect("readable");
                    window
                        .upsert(row![0, "counter", "system", n])
                        .expect("fits");
                    window.upsert(row![3, "c", "grace", n]).expect("fits");
                    let delta = all.put(window).expect("a put lands");
                    assert_eq!(delta.inserted.len(), 2, "{delta:?}");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no putter panicked");
    }

    let m = engine.metrics();
    assert_eq!(m.commits, (THREADS * PUTS) as u64);
    assert_eq!(
        m.retries, m.conflicts,
        "every put conflict should count one retry"
    );
    // The shards hold disjoint keys, so their logs replay in any order.
    let replayed = engine
        .shard_wals()
        .iter()
        .try_fold(accounts_db(), |db, wal| wal.replay(&db))
        .expect("replays");
    assert_eq!(replayed, engine.snapshot());
}

#[test]
fn racing_puts_count_every_retry_on_one_shard() {
    racing_puts_count_every_retry(1);
}

#[test]
fn racing_puts_count_every_retry_on_four_shards() {
    racing_puts_count_every_retry(4);
}

#[test]
fn mixed_view_traffic_stays_consistent_and_recoverable() {
    const ROUNDS: i64 = 15;

    let engine = engine_with_views();
    let writer = |shard: &'static str, offset: i64| {
        let view = engine.view(&format!("shard_{shard}")).expect("registered");
        thread::spawn(move || {
            for i in 0..ROUNDS {
                let id = offset + i;
                view.edit(move |v| {
                    v.upsert(row![id, shard, "writer", i])?;
                    if i % 3 == 2 {
                        v.delete_by_key(&row![id - 1]);
                    }
                    Ok(())
                })
                .expect("edit commits");
            }
        })
    };
    let reader = {
        let engine = engine.clone();
        thread::spawn(move || {
            for _ in 0..ROUNDS * 4 {
                // Readers must always see *some* consistent view state;
                // every visible row satisfies its view predicate.
                let v = engine.read_view("shard_a").expect("readable");
                assert!(v.rows().all(|r| r[1] == Value::str("a")));
            }
        })
    };

    let threads = vec![
        writer("a", 10_000),
        writer("b", 20_000),
        writer("c", 30_000),
        reader,
    ];
    for h in threads {
        h.join().expect("no thread panicked");
    }

    // Framing every record the way a durable segment does and decoding
    // the stream preserves recovery exactly (nothing was truncated, so
    // the log replays over the construction state).
    let wal = engine.shard_wals().swap_remove(0);
    let bytes: Vec<u8> = wal
        .records()
        .iter()
        .flat_map(esm_engine::encode_framed_binary)
        .collect();
    let prefix = esm_engine::decode_segment_prefix(&bytes);
    assert!(!prefix.torn && prefix.corrupt.is_none(), "{prefix:?}");
    let decoded = esm_engine::Wal::from_records(prefix.records);
    assert_eq!(decoded, wal);
    assert_eq!(
        decoded.replay(&accounts_db()).expect("replays"),
        engine.snapshot()
    );
}

#[test]
fn concurrent_transactions_serialize() {
    const THREADS: i64 = 4;
    const TXNS: i64 = 10;

    let engine = EngineServer::new(accounts_db());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let engine = engine.clone();
            thread::spawn(move || {
                for i in 0..TXNS {
                    // Disjoint insert + contended increment in one tx.
                    engine
                        .transact(u32::MAX, |db| {
                            let table = db.table_mut("accounts")?;
                            table.upsert(row![500 + t * TXNS + i, "tx", "txn", t])?;
                            let cur = table.get_by_key(&row![0]).expect("counter row exists")[3]
                                .as_int()
                                .expect("int");
                            table.upsert(row![0, "counter", "system", cur + 1])?;
                            Ok(())
                        })
                        .expect("transact eventually commits");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("no tx thread panicked");
    }

    let db = engine.snapshot();
    let accounts = db.table("accounts").expect("exists");
    assert_eq!(
        accounts.get_by_key(&row![0]).expect("counter")[3],
        Value::Int(THREADS * TXNS)
    );
    assert_eq!(accounts.len() as i64, 4 + THREADS * TXNS);
    assert_eq!(replayed(&engine), db);
    assert_eq!(engine.metrics().commits, (THREADS * TXNS) as u64);
}

#[test]
fn stale_committers_lose_first_committer_wins() {
    // A stale writer whose snapshot predates an overlapping commit must
    // abort with a conflict, and the first committer's write must stand.
    // The overlapping commit lands from another thread while the stale
    // transaction's body runs on its snapshot.
    let engine = EngineServer::new(accounts_db());
    let err = engine
        .transact(1, |db| {
            thread::scope(|s| {
                s.spawn(|| {
                    engine.transact(1, |db| {
                        db.table_mut("accounts")?.upsert(row![1, "a", "ada", 999])?;
                        Ok(())
                    })
                })
                .join()
                .expect("no panic")
            })
            .expect("first committer");
            db.table_mut("accounts")?.upsert(row![1, "a", "ada", 111])?;
            Ok(())
        })
        .expect_err("second committer must lose");
    assert!(matches!(err, EngineError::Conflict { ref table, .. } if table == "accounts"));
    assert!(engine
        .table("accounts")
        .expect("exists")
        .contains(&row![1, "a", "ada", 999]));
    assert_eq!(engine.metrics().conflicts, 1);
}
