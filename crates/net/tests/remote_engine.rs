//! The acceptance gate for the network front end: the *same*
//! engine-polymorphic conformance suite that runs against the
//! in-process engines ([`esm_engine::testkit`], driven by
//! `crates/engine/tests/view_maintenance.rs`) runs here, unmodified,
//! against a [`RemoteEngine`] speaking to a [`NetServer`] over a real
//! loopback socket — fronting both an unsharded and a sharded host —
//! plus a 64-connection concurrency run racing optimistic editors
//! against a single-threaded oracle.

use esm_engine::testkit::{self, check_view_maintenance, seed_db, KEYS};
use esm_engine::{
    ArcEngine, Engine, EngineError, EngineServer, Session, ShardRouter, ShardedEngineServer,
};
use esm_net::{NetServer, NetServerConfig, RemoteEngine};
use esm_relational::ViewDef;
use esm_store::{row, Delta, Operand, Predicate, Schema, Table, ValueType};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

fn serve(engine: ArcEngine) -> (NetServer, std::net::SocketAddr) {
    let server =
        NetServer::bind(engine, "127.0.0.1:0", NetServerConfig::default()).expect("loopback bind");
    let addr = server.local_addr();
    (server, addr)
}

fn connect(addr: std::net::SocketAddr) -> RemoteEngine {
    RemoteEngine::connect(addr).expect("loopback connect")
}

/// A deterministic script covering every op family (upserts, deletes,
/// cross-key transfers) — the same shape the in-process proptests draw
/// randomly.
fn script() -> Vec<(u8, i64, i64)> {
    (0..30u8)
        .map(|i| (i % 10, i as i64 * 7, i as i64 * 13))
        .collect()
}

#[test]
fn remote_engine_satisfies_the_view_maintenance_law_unsharded() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let remote = connect(addr);
    // The exact same suite body the in-process engines run.
    check_view_maintenance(&remote, &script());
    assert!(server.stats().requests > 0);
    server.shutdown();
}

#[test]
fn remote_engine_satisfies_the_view_maintenance_law_sharded() {
    let host = ShardedEngineServer::with_router(
        seed_db(),
        ShardRouter::uniform_int(4, 0, KEYS).expect("router"),
    )
    .expect("sharded engine");
    let (server, addr) = serve(host.as_engine());
    let remote = connect(addr);
    check_view_maintenance(&remote, &script());
    // The wire client's reads were served by shard-pruned windows and
    // its transfers committed through cross-shard 2PC.
    let m = remote.metrics().expect("metrics over the wire");
    assert!(m.shard.cross_shard_commits > 0, "transfers ran 2PC");
    assert!(m.view.shards_pruned > 0, "key-bounded views pruned shards");
    server.shutdown();
}

#[test]
fn bx_laws_hold_over_the_wire() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    testkit::check_bx_laws(&connect(addr));
    server.shutdown();
}

#[test]
fn sixty_four_connections_race_the_oracle_on_one_engine() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    // 64 independent client connections, multiplexed by the server onto
    // one engine; each runs concurrent optimistic edits. The oracle
    // (single-threaded re-execution of the successful commuting ops)
    // must match exactly — no lost updates across the wire.
    let clients: Vec<ArcEngine> = (0..64).map(|_| connect(addr).as_engine()).collect();
    let total = testkit::check_concurrent_edits(clients, 4);
    assert_eq!(total, 64 * 4);
    let stats = server.stats();
    assert!(
        stats.accepted >= 64,
        "{} connections accepted",
        stats.accepted
    );
    server.shutdown();
}

#[test]
fn sixty_four_connections_race_the_oracle_on_a_sharded_engine() {
    let host = ShardedEngineServer::with_router(
        seed_db(),
        ShardRouter::uniform_int(4, 0, KEYS).expect("router"),
    )
    .expect("sharded engine");
    let (server, addr) = serve(host.as_engine());
    let clients: Vec<ArcEngine> = (0..64).map(|_| connect(addr).as_engine()).collect();
    let total = testkit::check_concurrent_edits(clients, 3);
    assert_eq!(total, 64 * 3);
    server.shutdown();
}

#[test]
fn the_full_surface_works_end_to_end() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let remote = connect(addr);
    remote.ping().unwrap();
    testkit::check_surface_smoke(&remote);
    // checkpoint on an in-memory engine answers None over the wire.
    assert_eq!(remote.checkpoint().unwrap(), None);
    server.shutdown();
}

#[test]
fn sessions_and_views_are_host_location_oblivious() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());

    // A Session over a RemoteEngine — the same client code that runs
    // in-process.
    let session = Session::new(connect(addr).as_engine());
    let view = session
        .define_view(
            "low",
            "t",
            &ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(10))),
        )
        .unwrap();
    assert_eq!(view.name(), "low");
    let delta = session
        .edit("low", |v| Ok(v.upsert(row![3, "g1", 33]).map(|_| ())?))
        .unwrap();
    assert_eq!(delta.inserted, vec![row![3, "g1", 33]]);
    let receipt = session
        .transact(|db| {
            db.table_mut("t")?.upsert(row![5, "g0", 55])?;
            Ok(())
        })
        .unwrap();
    assert!(receipt.stamp > 0);
    assert_eq!(session.last_stamp(), receipt.stamp);

    // A second connection observes the entangled state.
    let other = connect(addr);
    let low = other.view("low").unwrap();
    let window = low.get().unwrap();
    assert!(window.contains(&row![3, "g1", 33]));
    assert!(window.contains(&row![5, "g0", 55]));
    // And the view handle exposes its (remote) host uniformly.
    assert_eq!(low.engine().table_names().expect("table names"), vec!["t"]);
    server.shutdown();
}

#[test]
fn structured_errors_cross_the_wire() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let remote = connect(addr);

    assert!(matches!(
        remote.read_view("ghost"),
        Err(EngineError::NoSuchView(name)) if name == "ghost"
    ));
    assert!(matches!(
        remote.table("ghost"),
        Err(EngineError::NoSuchTable(name)) if name == "ghost"
    ));
    remote.define_view("v", "t", &ViewDef::base()).unwrap();
    assert!(matches!(
        remote.define_view("v", "t", &ViewDef::base()),
        Err(EngineError::ViewExists(_))
    ));
    // An ill-fitting view write surfaces a store-side rejection without
    // wedging the server.
    let bad = Table::from_rows(
        Schema::build(&[("id", ValueType::Int)], &["id"]).unwrap(),
        vec![row![1]],
    )
    .unwrap();
    assert!(matches!(
        remote.write_view("v", bad),
        Err(EngineError::Store(_))
    ));
    assert_eq!(remote.read_view("v").unwrap().len(), 40);
    server.shutdown();
}

#[test]
fn a_dropped_connection_does_not_disturb_the_others() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let keeper = connect(addr);
    keeper.define_view("all", "t", &ViewDef::base()).unwrap();
    {
        let doomed = connect(addr);
        doomed.ping().unwrap();
        // Dropped here: the server reaps it on its next pass.
    }
    let delta = keeper
        .edit_view_optimistic("all", 8, &|v: &mut Table| {
            v.upsert(row![77, "g0", 7])?;
            Ok(())
        })
        .unwrap();
    assert_eq!(delta.inserted.len(), 1);
    assert!(keeper
        .read_view("all")
        .unwrap()
        .contains(&row![77, "g0", 7]));
    server.shutdown();
}

#[test]
fn remote_transactions_validate_against_pre_images() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let a = connect(addr);
    let b = connect(addr);

    // Client A and client B both read, then both try to bump the same
    // row; the retry loop makes both land, and the final value reflects
    // both increments (no lost update through the delta/pre-image path).
    let bump = |remote: &RemoteEngine| {
        remote
            .transact(16, &|db: &mut esm_store::Database| {
                let t = db.table_mut("t")?;
                let current = t
                    .get_by_key(&row![0])
                    .and_then(|r| match &r[2] {
                        esm_store::Value::Int(n) => Some(*n),
                        _ => None,
                    })
                    .unwrap_or(0);
                t.upsert(row![0, "g0", current + 1])?;
                Ok(())
            })
            .unwrap()
    };
    let r1 = bump(&a);
    let r2 = bump(&b);
    assert!(r2.stamp > r1.stamp, "stamps order the commits");
    let base = a.table("t").unwrap();
    assert_eq!(base.get_by_key(&row![0]), Some(&row![0, "g0", 2]));
    server.shutdown();
}

/// A remote `commit_checked` is one `Commit` request: it sends the
/// deltas and downloads nothing, however large the table. A pre-image
/// that went stale meanwhile comes back as a conflict.
#[test]
fn remote_commit_checked_is_one_request_at_16k_rows() {
    const ROWS: i64 = 16_384;
    let schema = Schema::build(&[("id", ValueType::Int), ("val", ValueType::Int)], &["id"])
        .expect("valid schema");
    let mut db = esm_store::Database::new();
    db.create_table(
        "kv",
        Table::from_rows(schema, (0..ROWS).map(|i| row![i, i])).expect("valid rows"),
    )
    .expect("fresh");
    let (server, addr) = serve(EngineServer::new(db).as_engine());
    let remote = connect(addr);
    let update = |id: i64, from: i64, to: i64| {
        vec![(
            "kv".to_string(),
            Delta {
                inserted: vec![row![id, to]],
                deleted: vec![row![id, from]],
            },
        )]
    };

    let before = server.stats().requests;
    let receipt = remote.commit_checked(&update(7, 7, -7)).expect("commits");
    assert_eq!(
        server.stats().requests - before,
        1,
        "one Commit request, no snapshot download"
    );
    assert_eq!(receipt.deltas["kv"], update(7, 7, -7)[0].1);
    assert_eq!(receipt.shards, vec![0]);

    // The same pre-image again: row 7 now holds -7, so it is stale.
    let stale = remote.commit_checked(&update(7, 7, 70));
    assert!(
        matches!(stale, Err(EngineError::Conflict { .. })),
        "stale pre-image must conflict, got {stale:?}"
    );
    let base = remote.table("kv").expect("readable");
    assert_eq!(base.get_by_key(&row![7]), Some(&row![7, -7]));
    assert_eq!(base.len() as i64, ROWS);
    server.shutdown();
}

/// A stale remote `commit_checked` is one first-committer-wins conflict
/// in the server's counters, whether one shard checks its pre-images or
/// a cross-shard transaction does.
#[test]
fn a_stale_remote_commit_counts_one_conflict_on_one_shard_and_across_two() {
    for router in [
        ShardRouter::single(),
        ShardRouter::uniform_int(2, 0, KEYS).expect("router"),
    ] {
        let shards = router.shard_count();
        let host = ShardedEngineServer::with_router(seed_db(), router).expect("engine");
        let (server, addr) = serve(host.as_engine());
        let remote = connect(addr);
        // Rows 0 and 78 sit on different shards when there are two; the
        // pre-image of row 0 is stale.
        let stale = vec![(
            "t".to_string(),
            Delta {
                inserted: vec![row![0, "x", 1], row![78, "x", 1]],
                deleted: vec![row![0, "g0", 99], row![78, "g3", 234]],
            },
        )];
        let before = host.metrics().conflicts;
        let refused = remote.commit_checked(&stale);
        assert!(
            matches!(refused, Err(EngineError::Conflict { .. })),
            "{shards} shards: {refused:?}"
        );
        assert_eq!(host.metrics().conflicts - before, 1, "{shards} shards");
        server.shutdown();
    }
}

/// A remote edit ships its window delta: the window read answers with
/// the whole window, and the edit's requests after it — its own read and
/// one `EDIT_VIEW_DELTA` carrying a one-row change — stay under 1% of
/// that answer at 16,384 rows.
#[test]
fn remote_edit_ships_a_window_delta_at_16k_rows() {
    const ROWS: i64 = 16_384;
    let schema = Schema::build(&[("id", ValueType::Int), ("val", ValueType::Int)], &["id"])
        .expect("valid schema");
    let mut db = esm_store::Database::new();
    db.create_table(
        "kv",
        Table::from_rows(schema, (0..ROWS).map(|i| row![i, i])).expect("valid rows"),
    )
    .expect("fresh");
    let (server, addr) = serve(EngineServer::new(db).as_engine());
    let remote = connect(addr);
    remote.define_view("all", "kv", &ViewDef::base()).unwrap();

    let before = server.stats();
    assert_eq!(remote.read_view("all").unwrap().len() as i64, ROWS);
    let read = server.stats();
    let window_bytes = read.bytes_written - before.bytes_written;
    let delta = remote
        .edit_view_optimistic("all", 4, &|v: &mut Table| {
            v.upsert(row![7, -7])?;
            Ok(())
        })
        .expect("commits");
    let edited = server.stats();
    assert_eq!(
        delta,
        Delta {
            inserted: vec![row![7, -7]],
            deleted: vec![row![7, 7]],
        }
    );
    assert_eq!(edited.requests - read.requests, 2, "a read, then the delta");
    let sent = edited.bytes_read - read.bytes_read;
    assert!(
        sent * 100 < window_bytes,
        "the edit sent {sent} bytes, the window read answered {window_bytes}"
    );
    server.shutdown();
}

/// Two connections edit different rows of one window, the second
/// between the first's read and its commit: both commit on their first
/// attempt, because each checks only the rows it touched.
#[test]
fn remote_edits_of_different_rows_of_one_window_both_commit() {
    let host = EngineServer::new(seed_db());
    let (server, addr) = serve(host.as_engine());
    let (a, b) = (connect(addr), connect(addr));
    a.define_view("all", "t", &ViewDef::base()).unwrap();
    let runs = AtomicUsize::new(0);
    a.edit_view_optimistic("all", 1, &|v: &mut Table| {
        if runs.fetch_add(1, Ordering::SeqCst) == 0 {
            b.edit_view_optimistic("all", 1, &|w: &mut Table| {
                w.upsert(row![2, "b", 2])?;
                Ok(())
            })
            .expect("b commits first time");
        }
        v.upsert(row![4, "a", 4])?;
        Ok(())
    })
    .expect("a commits first time");
    assert_eq!(runs.load(Ordering::SeqCst), 1);
    assert_eq!(host.metrics().conflicts, 0);
    let base = host.table("t").unwrap();
    assert_eq!(base.get_by_key(&row![2]), Some(&row![2, "b", 2]));
    assert_eq!(base.get_by_key(&row![4]), Some(&row![4, "a", 4]));
    server.shutdown();
}

/// Two connections increment one row, the second between the first's
/// read and its commit: the first's stale pre-image conflicts, it
/// retries from a fresh read, and neither increment is lost.
#[test]
fn remote_edits_of_one_row_from_two_connections_lose_no_update() {
    let host = EngineServer::new(seed_db());
    let (server, addr) = serve(host.as_engine());
    let (a, b) = (connect(addr), connect(addr));
    a.define_view("all", "t", &ViewDef::base()).unwrap();
    let bump = |v: &mut Table| -> Result<(), EngineError> {
        let current = v.get_by_key(&row![0]).and_then(|r| r[2].as_int());
        v.upsert(row![0, "g0", current.unwrap_or(0) + 1])?;
        Ok(())
    };
    let runs = AtomicUsize::new(0);
    a.edit_view_optimistic("all", 4, &|v: &mut Table| {
        if runs.fetch_add(1, Ordering::SeqCst) == 0 {
            b.edit_view_optimistic("all", 4, &bump).expect("b commits");
        }
        bump(v)
    })
    .expect("a commits on a retry");
    assert_eq!(
        runs.load(Ordering::SeqCst),
        2,
        "a retried from a fresh read"
    );
    assert_eq!(host.metrics().conflicts, 1);
    let base = host.table("t").unwrap();
    assert_eq!(base.get_by_key(&row![0]), Some(&row![0, "g0", 2]));
    server.shutdown();
}

/// Dropping a server is prompt: its push pump leaves its park on the
/// commit signal as soon as the server stops, instead of waiting out the
/// park's timeout.
#[test]
fn ten_servers_bind_connect_and_drop_within_250_ms() {
    let engine = EngineServer::new(seed_db()).as_engine();
    let start = Instant::now();
    for _ in 0..10 {
        let (server, addr) = serve(engine.clone());
        connect(addr).ping().expect("served");
        drop(server);
    }
    let took = start.elapsed();
    assert!(
        took < Duration::from_millis(250),
        "ten bind/connect/drop cycles took {took:?}"
    );
}

/// A warm remote `transact` ships what changed, not the database: the
/// first one-row transaction fills the process's cached snapshot of the
/// server (the whole table), the second catches up with `SNAPSHOT_SINCE`
/// and moves under 1% of the first's bytes. Another connection to the
/// same server shares the cache, so its first transaction is warm too.
#[test]
fn remote_transact_ships_deltas_at_16k_rows() {
    const ROWS: i64 = 16_384;
    let schema = Schema::build(&[("id", ValueType::Int), ("val", ValueType::Int)], &["id"])
        .expect("valid schema");
    let mut db = esm_store::Database::new();
    db.create_table(
        "kv",
        Table::from_rows(schema, (0..ROWS).map(|i| row![i, i])).expect("valid rows"),
    )
    .expect("fresh");
    let engine = EngineServer::new(db);
    let (server, addr) = serve(engine.as_engine());
    let bytes = || {
        let s = server.stats();
        s.bytes_read + s.bytes_written
    };
    let set = |remote: &RemoteEngine, id: i64, val: i64| {
        let before = bytes();
        remote
            .transact(4, &move |db: &mut esm_store::Database| {
                db.table_mut("kv")?.upsert(row![id, val])?;
                Ok(())
            })
            .expect("commits");
        bytes() - before
    };
    let remote = connect(addr);
    let cold = set(&remote, 7, -7);
    let warm = set(&remote, 9_000, -9);
    let other = connect(addr);
    let shared = set(&other, 12_000, -12);
    for moved in [warm, shared] {
        assert!(
            moved * 100 < cold,
            "a warm one-row transact moved {moved} bytes, the cold one {cold}"
        );
    }
    assert_eq!(remote.snapshot().expect("snapshot"), engine.snapshot());
    assert_eq!(other.snapshot().expect("snapshot"), engine.snapshot());
    server.shutdown();
}

/// A snapshot mark only means something to the server instance that
/// minted it: under this server's id a current stamp gets no changes,
/// under another instance's id (a server that once listened on the same
/// address) the same stamp gets the whole database.
#[test]
fn snapshot_marks_from_another_server_instance_get_the_whole_database() {
    use esm_engine::SnapshotChanges;
    use esm_net::{frame::read_frame, Request, Response, SnapshotMark};
    use std::io::Write;

    let engine = EngineServer::new(seed_db());
    let (server, addr) = serve(engine.as_engine());
    let mut wire = std::net::TcpStream::connect(addr).expect("loopback connect");
    let mut ask = |since: Option<SnapshotMark>| {
        let req = Request::SnapshotSince { since };
        wire.write_all(&req.framed_with_trace(None)).expect("sent");
        let payload = read_frame(&mut wire).expect("answered");
        match Response::decode(&payload).expect("decodes") {
            Response::SnapshotSince { server, answer } => (server, answer),
            other => panic!("unexpected answer {other:?}"),
        }
    };
    let (instance, first) = ask(None);
    assert_eq!(instance, server.instance());
    assert_eq!(first.changes, SnapshotChanges::Full(engine.snapshot()));
    let mark = SnapshotMark {
        server: instance,
        stamp: first.stamp,
    };
    let (_, current) = ask(Some(mark));
    assert_eq!(current.changes, SnapshotChanges::Deltas(Vec::new()));
    let foreign = SnapshotMark {
        server: instance ^ 1,
        ..mark
    };
    let (_, whole) = ask(Some(foreign));
    assert_eq!(whole.changes, SnapshotChanges::Full(engine.snapshot()));
    server.shutdown();
}

/// A small deterministic generator for the randomized schedules below.
struct XorShift(u64);

impl XorShift {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0 % n
    }
}

/// Keys `0..SUM_KEYS` hold a conserved sum; scratch keys from 1000 come
/// and go.
const SUM_KEYS: i64 = 64;

fn sum_db() -> esm_store::Database {
    let schema = Schema::build(&[("id", ValueType::Int), ("val", ValueType::Int)], &["id"])
        .expect("valid schema");
    let mut db = esm_store::Database::new();
    db.create_table(
        "kv",
        Table::from_rows(schema, (0..SUM_KEYS).map(|i| row![i, 100])).expect("valid rows"),
    )
    .expect("fresh");
    db
}

/// The conserved sum over keys `0..SUM_KEYS`.
fn conserved(db: &esm_store::Database) -> i64 {
    let t = db.table("kv").expect("kv exists");
    t.rows_in_key_range(None, Some(&row![SUM_KEYS]))
        .map(|r| r[1].as_int().expect("int val"))
        .sum()
}

/// One random transaction: a transfer between two keys (two-phase
/// commit when they live on different shards), or an insert or delete
/// of a scratch key.
fn random_commit(engine: &dyn Engine, rng: &mut XorShift) -> Result<(), String> {
    let (a, b) = (
        rng.below(SUM_KEYS as u64) as i64,
        rng.below(SUM_KEYS as u64) as i64,
    );
    let (kind, scratch) = (rng.below(3), 1000 + rng.below(32) as i64);
    engine
        .transact(64, &move |db: &mut esm_store::Database| {
            let t = db.table_mut("kv")?;
            let val = |t: &Table, id: i64| t.get_by_key(&row![id]).and_then(|r| r[1].as_int());
            match kind {
                0 if a != b => {
                    let (va, vb) = (val(t, a).unwrap_or(0), val(t, b).unwrap_or(0));
                    t.upsert(row![a, va - 1])?;
                    t.upsert(row![b, vb + 1])?;
                }
                1 => {
                    t.upsert(row![scratch, a])?;
                }
                _ => {
                    t.delete_by_key(&row![scratch]);
                }
            }
            Ok(())
        })
        .map(drop)
        .map_err(|e| format!("commit failed: {e}"))
}

const PHASES: usize = 4;
const OPS: usize = 30;

/// One participant's schedule: `PHASES` phases of `OPS` steps, meeting
/// the others twice between phases. After a step fails it only keeps
/// the meetings, so a failure comes back as an error instead of
/// stranding the others at the barrier.
fn run_phases(
    barrier: &std::sync::Barrier,
    mut step: impl FnMut() -> Result<(), String>,
) -> Result<(), String> {
    let mut outcome = Ok(());
    for _ in 0..PHASES {
        for _ in 0..OPS {
            if outcome.is_ok() {
                outcome = step();
            }
        }
        barrier.wait();
        barrier.wait();
    }
    outcome
}

/// What the main thread does between phases: split, merge, then flood
/// the shard owning the scratch keys with more than
/// `WAL_RETAINED_RECORDS` commits, trimming every stamp the clients hold
/// out of its log.
fn change_layout(host: &ShardedEngineServer, phase: usize) -> Result<(), EngineError> {
    match phase {
        0 => host.split_shard(row![SUM_KEYS / 2 + 1]).map(drop),
        1 => host.merge_shards(host.shard_of_key(&row![0])),
        2 => (0..esm_engine::WAL_RETAINED_RECORDS as i64 + 64).try_for_each(|i| {
            let row = row![1000 + i % 32, i];
            host.transact_keys(&[row![1000 + i % 32]], 4, |db| {
                db.table_mut("kv")?.upsert(row.clone())?;
                Ok(())
            })
            .map(drop)
        }),
        _ => Ok(()),
    }
}

/// Remote clients whose shared cached snapshot follows random concurrent
/// remote and in-process commits, 2PC transfers, a split, a merge and a
/// burst of more than `WAL_RETAINED_RECORDS` commits on one shard: every
/// refresh reads a consistent state, and once nothing is in flight every
/// client's snapshot equals the engine's.
fn check_cached_snapshots_follow(shards: usize, seed: u64) {
    let host = ShardedEngineServer::with_router(
        sum_db(),
        ShardRouter::uniform_int(shards, 0, SUM_KEYS).expect("router"),
    )
    .expect("sharded engine");
    let (server, addr) = serve(host.as_engine());
    let remotes: Vec<RemoteEngine> = (0..2).map(|_| connect(addr)).collect();
    // Workers (two remote, one in-process) and the main thread meet
    // between phases; the main thread changes the layout or floods one
    // shard's log while the workers hold their stamps.
    let barrier = std::sync::Barrier::new(remotes.len() + 2);
    let (workers, layout) = std::thread::scope(|scope| {
        let barrier = &barrier;
        let mut handles = Vec::new();
        for (w, remote) in remotes.iter().enumerate() {
            let mut rng = XorShift(seed * 31 + w as u64 + 1);
            handles.push(scope.spawn(move || {
                run_phases(barrier, || {
                    random_commit(remote, &mut rng)?;
                    let cached = remote.snapshot().map_err(|e| e.to_string())?;
                    match conserved(&cached) {
                        sum if sum == SUM_KEYS * 100 => Ok(()),
                        sum => Err(format!("a torn snapshot sums to {sum}")),
                    }
                })
            }));
        }
        let local = host.clone();
        let mut rng = XorShift(seed * 31 + 17);
        handles.push(scope.spawn(move || run_phases(barrier, || random_commit(&local, &mut rng))));
        let mut layout = Ok(());
        for phase in 0..PHASES {
            barrier.wait();
            if layout.is_ok() {
                layout = change_layout(&host, phase);
            }
            barrier.wait();
        }
        let workers: Vec<Result<(), String>> = handles
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (workers, layout)
    });
    layout.expect("split, merge and flood");
    for outcome in workers {
        outcome.expect("every step of every worker");
    }
    let settled = host.snapshot();
    assert_eq!(conserved(&settled), SUM_KEYS * 100);
    for remote in &remotes {
        assert_eq!(remote.snapshot().expect("snapshot"), settled);
    }
    server.shutdown();
}

#[test]
fn cached_snapshots_follow_commits_splits_merges_and_trims_on_one_shard() {
    for seed in 0..2 {
        check_cached_snapshots_follow(1, seed);
    }
}

#[test]
fn cached_snapshots_follow_commits_splits_merges_and_trims_on_four_shards() {
    for seed in 0..2 {
        check_cached_snapshots_follow(4, seed);
    }
}

#[test]
fn pipelined_requests_answer_in_order() {
    use esm_net::{decode_frame, encode_frame, Request, Response};
    use std::io::{Read, Write};

    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    // Fire several requests without waiting for any response — they
    // must come back in request order on this connection.
    let reqs = [
        Request::Ping,
        Request::TableNames,
        Request::ViewNames,
        Request::Ping,
    ];
    let mut bytes = Vec::new();
    for req in &reqs {
        bytes.extend_from_slice(&encode_frame(&req.encode()));
    }
    stream.write_all(&bytes).unwrap();

    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let mut got = Vec::new();
    while got.len() < reqs.len() {
        let n = stream.read(&mut chunk).unwrap();
        assert!(n > 0, "server closed early");
        buf.extend_from_slice(&chunk[..n]);
        while let Some((payload, consumed)) = decode_frame(&buf).unwrap() {
            buf.drain(..consumed);
            got.push(Response::decode(&payload).unwrap());
        }
    }
    assert!(matches!(got[0], Response::Unit));
    assert!(matches!(&got[1], Response::Names(names) if names == &vec!["t".to_string()]));
    assert!(matches!(&got[2], Response::Names(names) if names.is_empty()));
    assert!(matches!(got[3], Response::Unit));
    server.shutdown();
}

#[test]
fn a_malformed_frame_gets_an_error_and_the_server_keeps_serving() {
    use esm_net::frame::{read_frame, write_frame};
    use esm_net::{Request, Response};

    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    // 20 bytes in the shape of a text commit announcing 10^11 deltas.
    // The payload lacks the wire magic, so it is refused outright —
    // nothing is allocated from the count it announces.
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut stream, b"commit\t100000000000\n").unwrap();
    let reply = Response::decode(&read_frame(&mut stream).unwrap()).unwrap();
    assert!(
        matches!(reply, Response::Err(EngineError::Io(_))),
        "{reply:?}"
    );
    // The server still answers a normal request on a fresh connection.
    let mut fresh = std::net::TcpStream::connect(addr).unwrap();
    write_frame(&mut fresh, &Request::Ping.encode()).unwrap();
    let reply = Response::decode(&read_frame(&mut fresh).unwrap()).unwrap();
    assert_eq!(reply, Response::Unit);
    server.shutdown();
}

#[test]
fn malformed_commit_rows_error_without_killing_the_server() {
    use esm_net::{Request, Response};
    use esm_store::Delta;

    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let remote = connect(addr);

    // A delta whose rows are shorter than the schema (and one with the
    // wrong key type): decode succeeds — validation must reject them
    // with a structured error, not panic a worker thread.
    let short = Request::Commit {
        deltas: vec![(
            "t".into(),
            Delta {
                inserted: vec![vec![]],
                deleted: vec![row![1]],
            },
        )],
    };
    let ghost_table = Request::Commit {
        deltas: vec![(
            "nope".into(),
            Delta {
                inserted: vec![row![1, "g0", 1]],
                deleted: vec![],
            },
        )],
    };
    for req in [short, ghost_table] {
        let mut stream = std::net::TcpStream::connect(addr).unwrap();
        esm_net::frame::write_frame(&mut stream, &req.encode()).unwrap();
        let payload = esm_net::frame::read_frame(&mut stream).unwrap();
        assert!(
            matches!(Response::decode(&payload).unwrap(), Response::Err(_)),
            "malformed commit must answer a structured error"
        );
    }

    // The server (and its worker pool) is still fully alive.
    remote.ping().unwrap();
    let receipt = remote
        .transact(4, &|db: &mut esm_store::Database| {
            db.table_mut("t")?.upsert(row![70, "g0", 7])?;
            Ok(())
        })
        .unwrap();
    assert!(receipt.stamp > 0);
    server.shutdown();
}

#[test]
fn getters_surface_transport_failure_as_errors_not_panics() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let remote = connect(addr);
    remote.ping().expect("server alive before shutdown");

    // Kill the server out from under the connected client. Every
    // Engine getter must now return Err — never panic, and never
    // fabricate an empty answer that reads as "an engine with no
    // tables/views".
    server.shutdown();

    assert!(remote.table_names().is_err(), "table_names must error");
    assert!(remote.view_names().is_err(), "view_names must error");
    assert!(remote.snapshot().is_err(), "snapshot must error");
    assert!(remote.metrics().is_err(), "metrics must error");
    assert!(remote.telemetry().is_err(), "telemetry must error");

    // And through the trait object, exactly as callers hold it.
    let dyn_engine: ArcEngine = remote.as_engine();
    assert!(dyn_engine.table_names().is_err());
    assert!(dyn_engine.metrics().is_err());
}

/// Connections share one cached snapshot, yet each snapshot reflects
/// every commit that finished before it was asked for: a thread that
/// commits — remotely over its own connection, or in-process — and then
/// takes a snapshot over its connection always finds its row, however
/// the refreshes of the other connections interleave.
#[test]
fn shared_snapshots_see_every_commit_that_finished_before_them() {
    let engine = EngineServer::new(seed_db());
    let (server, addr) = serve(engine.as_engine());
    std::thread::scope(|scope| {
        for t in 0..8i64 {
            let remote = connect(addr);
            let engine = &engine;
            scope.spawn(move || {
                for i in 0..40i64 {
                    let id = 10_000 + t * 1_000 + i;
                    let row = row![id, format!("t{t}"), i];
                    if i % 2 == 0 {
                        let row = row.clone();
                        remote
                            .transact(8, &move |db: &mut esm_store::Database| {
                                db.table_mut("t")?.upsert(row.clone())?;
                                Ok(())
                            })
                            .expect("remote commit");
                    } else {
                        let row = row.clone();
                        engine
                            .transact_keys(&[row![id]], 8, move |db| {
                                db.table_mut("t")?.upsert(row.clone())?;
                                Ok(())
                            })
                            .expect("in-process commit");
                    }
                    let seen = remote.snapshot().expect("snapshot");
                    let table = seen.table("t").expect("table");
                    assert_eq!(table.get_by_key(&row![id]), Some(&row), "thread {t} op {i}");
                }
            });
        }
    });
    server.shutdown();
}
