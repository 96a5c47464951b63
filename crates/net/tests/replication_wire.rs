//! Replication over the wire end to end: a replica that has **never
//! shared a disk** with its primary feeds over a real loopback socket
//! (`repl_manifest` / `repl_fetch` via [`RemoteWalSource`]), serves
//! reads behind its own [`NetServer`], rejects writes and puts with the
//! `not_primary` redirect, and the client follows the redirect back to
//! the primary and commits.

use std::path::PathBuf;
use std::sync::Arc;

use esm_engine::{
    DurabilityConfig, Engine, EngineError, EngineServer, ReplicaConfig, ReplicaEngine, ShardRouter,
    ShardedEngineServer,
};
use esm_net::{redirect_addr, NetServer, NetServerConfig, RemoteEngine};
use esm_relational::ViewDef;
use esm_store::{row, Database, Delta, Schema, Table, ValueType};

fn fresh_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-replwire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn seed() -> Database {
    let schema = Schema::build(
        &[("id", ValueType::Int), ("balance", ValueType::Int)],
        &["id"],
    )
    .expect("valid schema");
    let rows: Vec<_> = (0..100i64).map(|i| row![i * 10, 100]).collect();
    let mut db = Database::new();
    db.create_table("accounts", Table::from_rows(schema, rows).expect("rows"))
        .expect("fresh");
    db
}

fn bump(engine: &dyn Engine, key: i64, by: i64) -> Result<(), EngineError> {
    let old = engine.table("accounts")?.get_by_key(&row![key]).cloned();
    let cur = old
        .as_ref()
        .map(|r| r[1].as_int().expect("int"))
        .unwrap_or(0);
    engine
        .commit_checked(&[(
            "accounts".to_string(),
            Delta {
                inserted: vec![row![key, cur + by]],
                deleted: old.into_iter().collect(),
            },
        )])
        .map(|_| ())
}

#[test]
fn replica_feeds_over_the_wire_and_redirects_writes_to_the_primary() {
    let dir = fresh_dir("primary");
    let mirror = fresh_dir("mirror");
    let primary = ShardedEngineServer::with_durability(
        seed(),
        ShardRouter::uniform_int(2, 0, 1000).expect("router"),
        DurabilityConfig::new(&dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0),
    )
    .expect("durable primary");

    let primary_front = NetServer::bind(
        primary.as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("primary bind");
    let primary_addr = primary_front.local_addr();
    primary.advertise(primary_addr.to_string());

    for i in 0..8 {
        bump(&primary, i * 10, i + 1).expect("primary takes writes");
    }
    primary.sync_wal().expect("sync");

    // The replica's only connection to the primary is the socket.
    let feed = RemoteEngine::connect(primary_addr).expect("feed connects");
    let replica = ReplicaEngine::bootstrap(
        Arc::new(feed.wal_source()),
        ReplicaConfig::new(&mirror).poll_interval_ms(0),
    )
    .expect("replica bootstraps over the wire");
    replica.sync_once().expect("ships");
    assert_eq!(
        replica.serving().snapshot(),
        primary.snapshot(),
        "replica converges over the socket"
    );

    // New commits ship incrementally.
    bump(&primary, 990, 5).expect("primary takes writes");
    primary.sync_wal().expect("sync");
    replica.sync_once().expect("ships the tail");
    assert_eq!(replica.serving().snapshot(), primary.snapshot());

    // Serve the replica behind its own front end: reads work, writes
    // come back as a typed redirect carrying the primary's address.
    let replica_front = NetServer::bind(
        replica.as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("replica bind");
    let reader = RemoteEngine::connect(replica_front.local_addr()).expect("reader connects");
    assert_eq!(
        reader
            .table("accounts")
            .expect("replica serves reads")
            .get_by_key(&row![990])
            .expect("shipped row")[1],
        esm_store::Value::Int(105)
    );
    let err = bump(&reader, 990, 1).expect_err("replicas take no writes");
    assert_eq!(redirect_addr(&err), Some(primary_addr.to_string().as_str()));
    // A put is an edit loop run by the client: putting back the window
    // it read changes nothing and commits nothing, and a changed window
    // is refused with the same redirect.
    let all = reader
        .define_view("all", "accounts", &ViewDef::base())
        .expect("replicas define views");
    let mut window = all.get().expect("replica serves the window");
    assert!(all
        .put(window.clone())
        .expect("nothing to write")
        .is_empty());
    window.upsert(row![990, 0]).expect("fits");
    let put_err = all.put(window).expect_err("replicas take no puts");
    assert_eq!(
        redirect_addr(&put_err),
        Some(primary_addr.to_string().as_str())
    );

    // Follow the redirect and the same write succeeds on the primary.
    let promoted_client = RemoteEngine::follow_redirect(&err)
        .expect("redirect carries an address")
        .expect("primary reachable");
    bump(&promoted_client, 990, 1).expect("primary commits after redirect");
    primary.sync_wal().expect("sync");
    replica.sync_once().expect("ships");
    assert_eq!(replica.serving().snapshot(), primary.snapshot());

    replica_front.shutdown();
    primary_front.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&mirror);
}

#[test]
fn repl_manifest_refuses_on_a_memory_only_engine() {
    let server = NetServer::bind(
        EngineServer::new(seed()).as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("bind");
    let remote = RemoteEngine::connect(server.local_addr()).expect("connect");
    let err = remote.repl_manifest().expect_err("nothing durable to ship");
    assert!(
        matches!(err, EngineError::Io(ref m) if m.contains("not durable")),
        "unexpected error: {err:?}"
    );
    server.shutdown();
}
