//! The `STATS` verb end to end: the telemetry codec round-trips a
//! snapshot bit-identically, and a loopback fetch returns exactly the
//! engine-side phase breakdown a direct `Engine::telemetry()` call
//! sees — plus the server's own net-layer phases, which exist *only*
//! in the wire-fetched copy (the engine registry never records them).

use esm_engine::testkit::seed_db;
use esm_engine::{ArcEngine, Engine, EngineServer, ShardRouter, ShardedEngineServer};
use esm_net::{NetServer, NetServerConfig, RemoteEngine, Request, Response};
use esm_obs::{Phase, Telemetry, TelemetrySnapshot};
use esm_store::{row, Database};

fn serve(engine: ArcEngine) -> (NetServer, std::net::SocketAddr) {
    let server =
        NetServer::bind(engine, "127.0.0.1:0", NetServerConfig::default()).expect("loopback bind");
    let addr = server.local_addr();
    (server, addr)
}

/// A snapshot exercising the codec's whole surface: sparse bins across
/// the full value range, a max that caps quantiles, a threshold, and
/// gauges with escapes in their names.
fn exercised_snapshot() -> TelemetrySnapshot {
    let tel = Telemetry::new();
    for phase in Phase::ALL {
        for v in [0u64, 1, 3, 4, 5, 1023, 1024, 1 << 33, u64::MAX] {
            tel.record(phase, v);
        }
    }
    tel.set_slow_threshold_ns(123_456_789);
    let mut snap = tel.snapshot();
    snap.set_gauge("repl_lag:ta\tb\\new\nline", u64::MAX);
    snap.set_gauge("bare", 0);
    snap
}

#[test]
fn the_stats_payload_round_trips_bit_identically() {
    let snap = exercised_snapshot();
    let encoded = Response::Stats(snap.clone()).encode();
    let Response::Stats(back) = Response::decode(&encoded).expect("decodes") else {
        panic!("stats decoded to a different shape");
    };
    assert_eq!(back.slow_threshold_ns, snap.slow_threshold_ns);
    assert_eq!(back.phases, snap.phases, "histograms mutated in flight");
    assert_eq!(back.gauges, snap.gauges, "gauges mutated in flight");
    assert_eq!(back, snap);
    // And the request side is a plain verb.
    assert_eq!(
        Request::decode(&Request::Stats.encode()).expect("decodes"),
        Request::Stats
    );
}

/// Drive commits + reads through the wire, then compare the remote
/// `STATS` fetch against the host's direct snapshot.
fn check_loopback_stats(host: ArcEngine) {
    let direct_host = host.clone();
    let (server, addr) = serve(host);
    let remote = RemoteEngine::connect(addr).expect("loopback connect");

    remote
        .define_view("all", "t", &esm_relational::ViewDef::base())
        .expect("view compiles");
    for i in 0..6i64 {
        remote
            .transact(4, &move |db: &mut Database| {
                db.table_mut("t")?.upsert(row![500 + i, "g1", i])?;
                Ok(())
            })
            .expect("commits");
        remote.read_view("all").expect("readable");
    }

    // Fetch over the wire FIRST: the STATS handler only reads the
    // engine's atomics, so the later direct snapshot sees identical
    // engine-phase state (nothing commits in between).
    let wire = remote.telemetry().expect("stats over the wire");
    let direct = direct_host.telemetry().expect("direct telemetry");

    // Engine-side phases: bit-identical between the two views.
    for (phase, hist) in &direct.phases {
        assert!(!phase.is_net(), "engine registry recorded a net phase");
        let over_wire = wire
            .phase(*phase)
            .unwrap_or_else(|| panic!("phase {} lost over the wire", phase.name()));
        assert_eq!(
            over_wire,
            hist,
            "phase {} diverged between wire and direct",
            phase.name()
        );
    }

    // Net-side phases: present only in the wire-fetched snapshot.
    for phase in [
        Phase::NetFrameDecode,
        Phase::NetQueueWait,
        Phase::NetHandler,
    ] {
        assert!(
            wire.count(phase) > 0,
            "wire snapshot missing net phase {}",
            phase.name()
        );
        assert_eq!(
            direct.count(phase),
            0,
            "net phase {} leaked into the engine registry",
            phase.name()
        );
    }
    // Commits above ran through the engine: its phases made the trip.
    assert!(wire.count(Phase::CommitLockHold) >= 6);
    server.shutdown();
}

#[test]
fn loopback_stats_match_direct_telemetry_unsharded() {
    check_loopback_stats(EngineServer::new(seed_db()).as_engine());
}

#[test]
fn loopback_stats_match_direct_telemetry_sharded() {
    let host = ShardedEngineServer::with_router(
        seed_db(),
        ShardRouter::uniform_int(4, 0, esm_engine::testkit::KEYS).expect("router"),
    )
    .expect("sharded engine");
    check_loopback_stats(host.as_engine());
}

#[test]
fn the_server_counts_bytes_both_ways() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let remote = RemoteEngine::connect(addr).expect("loopback connect");
    remote.ping().expect("pong");
    let _ = remote.table("t").expect("exists");
    // Poller-side counters lag the client's receipt of the response by
    // at most one flush; ping+table both completed, so both directions
    // have moved real bytes.
    let stats = server.stats();
    assert!(stats.bytes_read > 0, "no request bytes counted");
    assert!(stats.bytes_written > 0, "no response bytes counted");
    assert!(stats.requests >= 2);
    // The server's own registry has net phases and nothing else.
    let net_tel = server.telemetry();
    assert!(net_tel.count(Phase::NetHandler) >= 2);
    assert!(
        net_tel.phases.iter().all(|(p, _)| p.is_net()),
        "engine phase in the net registry"
    );
    server.shutdown();
}
