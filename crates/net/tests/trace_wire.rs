//! The `TRACE` verb end to end: a client-minted trace id crosses the
//! wire, the server roots its own span tree under it (frame decode,
//! queue wait, handler, and — for a durable cross-shard commit — the
//! full 2PC breakdown per participant), and a loopback `TRACE` fetch
//! returns both trees correlated by that id. Also the negative space:
//! sampled-out and refused requests must allocate no spans at all.

use std::path::PathBuf;

use esm_engine::testkit::seed_db;
use esm_engine::{
    ArcEngine, DurabilityConfig, Engine, EngineServer, Session, ShardRouter, ShardedEngineServer,
};
use esm_net::{NetServer, NetServerConfig, RemoteEngine, Response};
use esm_obs::{TelemetryConfig, TraceRecord};
use esm_store::row;
use esm_store::Database;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("esm-trace-wire-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn serve(engine: ArcEngine) -> (NetServer, std::net::SocketAddr) {
    let config = NetServerConfig::default()
        .telemetry_config(TelemetryConfig::default().trace_sample_every(1));
    let server = NetServer::bind(engine, "127.0.0.1:0", config).expect("loopback bind");
    let addr = server.local_addr();
    (server, addr)
}

/// The spans under `parent` (direct children only).
fn child_names(rec: &TraceRecord, parent: u32) -> Vec<&str> {
    rec.children(parent).map(|s| s.name.as_str()).collect()
}

#[test]
fn cross_shard_commit_traces_causally_over_loopback() {
    let dir = tmp_dir("twopc");
    let host = ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::uniform_int(2, 0, esm_engine::testkit::KEYS).expect("router"),
        DurabilityConfig::new(&dir)
            .telemetry_config(TelemetryConfig::default().trace_sample_every(1)),
    )
    .expect("durable sharded engine");
    let (server, addr) = serve(host.as_engine());
    let remote = RemoteEngine::connect(addr).expect("loopback connect");
    remote.telemetry_registry().set_trace_sample_every(1);

    // One commit touching both shards (ids 1 and KEYS-1 land on
    // different sides of the uniform split) — a genuine 2PC.
    let session = Session::new(remote.as_engine());
    let receipt = session
        .transact(|db: &mut Database| {
            db.table_mut("t")?.upsert(row![1, "g1", 10])?;
            db.table_mut("t")?
                .upsert(row![esm_engine::testkit::KEYS - 1, "g2", 20])?;
            Ok(())
        })
        .expect("cross-shard commit");
    assert_eq!(receipt.shards.len(), 2, "commit did not span two shards");

    let report = remote.traces().expect("TRACE over the wire");

    // Client side: the session minted the trace, and its round trips
    // are spans on the client-local record.
    let client_rec = report
        .recent
        .iter()
        .find(|r| r.root == "session:transact")
        .expect("client-side transact trace missing");
    assert!(
        client_rec.find("net_round_trip").is_some(),
        "round trips did not become spans on the client record"
    );

    // Server side: a `net:commit` tree under the SAME trace id.
    let server_rec = report
        .recent
        .iter()
        .find(|r| r.root == "net:commit" && r.id == client_rec.id)
        .expect("server-side commit tree missing or not correlated by trace id");

    // The wire plumbing filed its backdated spans.
    for name in ["net_frame_decode", "net_queue_wait", "net_handler_execute"] {
        assert!(
            server_rec.find(name).is_some(),
            "server tree lost its {name} span"
        );
    }

    // The 2PC breakdown: one umbrella per participant, each holding at
    // least a prepare and an fsync child, causally contained (the
    // umbrella lasts at least as long as the sum of its children —
    // prepare, fsync, resolve are sequential within one participant).
    let umbrellas: Vec<_> = server_rec
        .spans
        .iter()
        .filter(|s| s.name == "twopc_participant")
        .collect();
    assert_eq!(umbrellas.len(), 2, "expected one umbrella per shard");
    let mut tags: Vec<&str> = umbrellas.iter().map(|s| s.tag.as_str()).collect();
    tags.sort_unstable();
    assert_eq!(tags, ["shard:0", "shard:1"]);
    for umbrella in &umbrellas {
        let names = child_names(server_rec, umbrella.id);
        assert!(
            names.contains(&"twopc_prepare"),
            "participant {} lost its prepare span ({names:?})",
            umbrella.tag
        );
        assert!(
            names.contains(&"twopc_participant_fsync"),
            "participant {} lost its fsync span ({names:?})",
            umbrella.tag
        );
        let child_sum: u64 = server_rec
            .children(umbrella.id)
            .map(|s| s.duration_ns)
            .sum();
        assert!(
            umbrella.duration_ns >= child_sum,
            "umbrella {} ({}ns) shorter than its children ({child_sum}ns)",
            umbrella.tag,
            umbrella.duration_ns
        );
    }

    // Causal ordering: every span's parent exists and starts no later
    // than the span itself (the root is span 1 with parent 0).
    for span in &server_rec.spans {
        if span.parent == 0 {
            assert_eq!(span.id, 1, "non-root span without a parent");
            continue;
        }
        let parent = server_rec
            .span(span.parent)
            .unwrap_or_else(|| panic!("span {} orphaned (parent {})", span.name, span.parent));
        assert!(
            parent.start_ns <= span.start_ns,
            "span {} starts before its parent {}",
            span.name,
            parent.name
        );
    }

    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn untraced_requests_allocate_no_spans() {
    let host = EngineServer::new(seed_db()).as_engine();
    // Engine-side head sampling off: the only way a trace could exist
    // is a wire context, and none of the requests below carry one.
    host.telemetry_handle()
        .expect("in-process engines expose their registry")
        .set_trace_sample_every(0);
    let (server, addr) = serve(host);
    let remote = RemoteEngine::connect(addr).expect("loopback connect");
    remote.telemetry_registry().set_trace_sample_every(0);

    // Sampled-out binary requests.
    let session = Session::new(remote.as_engine());
    session
        .define_view("all", "t", &esm_relational::ViewDef::base())
        .expect("view compiles");
    for i in 0..4i64 {
        session
            .transact(move |db: &mut Database| {
                db.table_mut("t")?.upsert(row![500 + i, "g1", i])?;
                Ok(())
            })
            .expect("commits");
        session.read("all").expect("readable");
    }

    // A frame the server refuses (its payload lacks the wire magic)
    // is answered with an error and allocates no spans either.
    {
        use esm_net::frame::{read_frame, write_frame};
        let mut stream = std::net::TcpStream::connect(addr).expect("raw client connects");
        write_frame(&mut stream, b"ping\n").expect("frame written");
        let reply = read_frame(&mut stream).expect("response frame");
        assert!(matches!(
            Response::decode(&reply).expect("decodes"),
            Response::Err(_)
        ));
    }

    let report = remote.traces().expect("TRACE over the wire");
    assert!(
        report.recent.is_empty() && report.slow.is_empty(),
        "untraced requests still allocated spans: {report:?}"
    );
    server.shutdown();
}

#[test]
fn server_ping_answers_without_the_engine() {
    let (server, addr) = serve(EngineServer::new(seed_db()).as_engine());
    let remote = RemoteEngine::connect(addr).expect("loopback connect");
    let (uptime_ms, protocol_rev, workers) = remote.server_ping().expect("pong");
    assert_eq!(protocol_rev, esm_net::PROTOCOL_REV);
    assert!(workers >= 1, "worker pool cannot be empty");
    // Uptime only moves forward.
    let (later, _, _) = remote.server_ping().expect("pong again");
    assert!(later >= uptime_ms);
    // The response shape is ServerInfo, not Unit — a plain PING still
    // answers Unit (the two probes are distinct verbs).
    assert!(matches!(
        Response::decode(
            &Response::ServerInfo {
                uptime_ms,
                protocol_rev,
                workers
            }
            .encode()
        )
        .expect("decodes"),
        Response::ServerInfo { .. }
    ));
    server.shutdown();
}
