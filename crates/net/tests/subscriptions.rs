//! Loopback acceptance tests for the subscription push path: many
//! subscribers each receiving exactly the deltas past their cursor in
//! commit order, backpressure isolating a stalled subscriber without
//! touching the commit path or its peers, and unsubscribe actually
//! stopping the stream.

use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

use esm_engine::testkit::{seed_db, KEYS};
use esm_engine::{Engine, EngineError, ShardRouter, ShardedEngineServer};
use esm_net::{NetServer, NetServerConfig, PushEvent, RemoteEngine, SubscriptionClient};
use esm_relational::ViewDef;
use esm_store::Table;

/// A server over a `shards`-shard engine seeded with [`seed_db`].
fn serve(shards: usize, config: NetServerConfig) -> (NetServer, SocketAddr) {
    let router = ShardRouter::uniform_int(shards, 0, KEYS).expect("router");
    let engine = ShardedEngineServer::with_router(seed_db(), router).expect("engine");
    let server = NetServer::bind(engine.as_engine(), "127.0.0.1:0", config).expect("loopback bind");
    let addr = server.local_addr();
    (server, addr)
}

/// Follow one subscription from its initial resync until the local
/// replica equals `goal`, checking cursor contiguity along the way.
/// Returns (events seen, whether any post-initial resync arrived).
fn follow_until(
    sub: &mut SubscriptionClient,
    goal: &Table,
    deadline: Duration,
) -> (Vec<PushEvent>, Table) {
    let start = Instant::now();
    let first = sub
        .next_push(deadline)
        .expect("initial push")
        .expect("initial push arrives");
    assert!(
        first.resync.is_some(),
        "a from-now subscription opens with a full-window resync"
    );
    let mut local = Table::new(goal.schema().clone());
    first.apply(&mut local).expect("initial window applies");
    let mut cursor = first.to_seq;
    let mut events = vec![first];
    while &local != goal {
        let remaining = deadline
            .checked_sub(start.elapsed())
            .expect("subscriber converges before the deadline");
        let ev = sub
            .next_push(remaining)
            .expect("push stream healthy")
            .expect("push arrives before the deadline");
        if ev.resync.is_none() {
            // Delta pushes continue exactly where the subscriber
            // stands: no gap, no overlap, commit order.
            assert_eq!(
                ev.from_seq, cursor,
                "delta push must continue from the subscriber's cursor"
            );
        }
        assert!(ev.to_seq >= ev.from_seq, "cursor never moves backwards");
        ev.apply(&mut local).expect("push applies");
        cursor = ev.to_seq;
        events.push(ev);
    }
    (events, local)
}

#[test]
fn sixty_four_subscribers_receive_every_delta_in_commit_order() {
    // Drains are O(delta) on every shard count: both engines must
    // deliver delta pushes, not resyncs.
    for shards in [1, 4] {
        sixty_four_subscribers_on(shards);
    }
}

fn sixty_four_subscribers_on(shards: usize) {
    let (server, addr) = serve(shards, NetServerConfig::default());
    let writer = RemoteEngine::connect(addr).expect("writer connects");
    writer
        .define_view("all", "t", &ViewDef::base())
        .expect("view defined");

    let mut subs: Vec<SubscriptionClient> = (0..64)
        .map(|_| {
            let mut s = SubscriptionClient::connect(addr).expect("subscriber connects");
            s.subscribe("all", None).expect("suback");
            s
        })
        .collect();

    // 30 commits through the ordinary write path while everyone holds
    // an open subscription, spread over the first three shards' ranges.
    for i in 0..30i64 {
        writer
            .edit_view_optimistic("all", 8, &|t: &mut Table| {
                t.upsert(esm_store::row![2 * i + 1, format!("g{}", i % 5), i * 11])
                    .map(|_| ())
                    .map_err(EngineError::from)
            })
            .expect("commit succeeds");
    }
    let goal = writer.read_view("all").expect("final window");

    let handles: Vec<_> = subs
        .drain(..)
        .map(|mut sub| {
            let goal = goal.clone();
            std::thread::spawn(move || {
                let (events, local) = follow_until(&mut sub, &goal, Duration::from_secs(30));
                assert_eq!(local, goal, "replica reproduces the server-side view");
                // Real deltas flowed, not just the initial snapshot
                // (the 30 commits happened after the subscribe).
                assert!(
                    events.iter().skip(1).any(|e| e.resync.is_none()),
                    "subscriber received delta pushes"
                );
                events.len()
            })
        })
        .collect();
    for h in handles {
        let n = h.join().expect("subscriber thread");
        assert!(n >= 2, "at least the initial resync plus one delta push");
    }
    let stats = server.stats();
    assert!(
        stats.pushes >= 64 * 2,
        "push counter saw the fan-out: {stats:?}"
    );
    server.shutdown();
}

#[test]
fn stalled_subscriber_never_delays_commits_or_other_subscribers() {
    // Small output cap so the stall engages deterministically: half of
    // it (the push high-water mark) is far below what the workload
    // pushes, and single frames stay well below the drop limit.
    let (server, addr) = serve(1, NetServerConfig::default().outbuf_limit(1024 * 1024));
    let writer = RemoteEngine::connect(addr).expect("writer connects");
    writer
        .define_view("all", "t", &ViewDef::base())
        .expect("view defined");

    let mut fast_a = SubscriptionClient::connect(addr).expect("fast subscriber");
    let mut fast_b = SubscriptionClient::connect(addr).expect("fast subscriber");
    let mut stalled = SubscriptionClient::connect(addr).expect("stalled subscriber");
    fast_a.subscribe("all", None).expect("suback");
    fast_b.subscribe("all", None).expect("suback");
    stalled.subscribe("all", None).expect("suback");
    // The stalled subscriber reads nothing from here on; the kernel
    // buffers fill, the server's bounded outbuf crosses high water, and
    // the pump freezes its cursor instead of queueing on its behalf.

    // Fast subscribers drain concurrently with the writer, proving
    // their pushes flow while the stalled peer's socket is wedged. Each
    // maintains a local replica and exits once it matches the final
    // window (published after the writer finishes).
    let goal_slot: Arc<std::sync::Mutex<Option<Table>>> = Arc::new(std::sync::Mutex::new(None));
    let drainers: Vec<_> = [fast_a, fast_b]
        .into_iter()
        .map(|mut sub| {
            let goal_slot = Arc::clone(&goal_slot);
            std::thread::spawn(move || {
                let first = sub
                    .next_push(Duration::from_secs(10))
                    .expect("initial push")
                    .expect("initial resync");
                assert!(first.resync.is_some());
                let mut local = Table::new(first.resync.as_ref().unwrap().schema().clone());
                first.apply(&mut local).expect("window applies");
                let mut n = 0u64;
                let deadline = Instant::now() + Duration::from_secs(60);
                loop {
                    if let Some(goal) = goal_slot.lock().unwrap().as_ref() {
                        if &local == goal {
                            return n;
                        }
                    }
                    assert!(
                        Instant::now() < deadline,
                        "fast subscriber failed to converge while a peer was stalled"
                    );
                    if let Ok(Some(ev)) = sub.next_push(Duration::from_millis(100)) {
                        ev.apply(&mut local).expect("push applies");
                        n += 1;
                    }
                }
            })
        })
        .collect();

    // Each commit replaces one row with a fat payload, so the total
    // pushed volume (~400 × ~32 KiB) dwarfs kernel socket buffering —
    // the unread connection must hit the server-side high-water mark.
    let payload = "x".repeat(16 * 1024);
    for i in 0..400i64 {
        writer
            .edit_view_optimistic("all", 8, &|t: &mut Table| {
                t.upsert(esm_store::row![1000, payload.clone(), i])
                    .map(|_| ())
                    .map_err(EngineError::from)
            })
            .expect("commit succeeds while a subscriber is stalled");
    }
    let goal = writer.read_view("all").expect("final window");
    *goal_slot.lock().unwrap() = Some(goal.clone());

    for d in drainers {
        let n = d.join().expect("fast subscriber thread");
        assert!(n > 0, "fast subscriber received pushes during the stall");
    }

    // Now resume the stalled subscriber. Everything it missed was
    // dropped, not queued — it must recover via a resync push and still
    // converge to the exact final window.
    let (events, local) = follow_until(&mut stalled, &goal, Duration::from_secs(30));
    assert_eq!(
        local, goal,
        "stalled subscriber resynced to the final window"
    );
    assert!(
        events.iter().any(|e| e.resync.is_some()),
        "recovery after a stall goes through a resync push"
    );
    server.shutdown();
}

#[test]
fn unsubscribe_stops_the_stream() {
    let (server, addr) = serve(1, NetServerConfig::default());
    let writer = RemoteEngine::connect(addr).expect("writer connects");
    writer
        .define_view("all", "t", &ViewDef::base())
        .expect("view defined");

    let mut sub = SubscriptionClient::connect(addr).expect("subscriber connects");
    sub.subscribe("all", None).expect("suback");
    let first = sub
        .next_push(Duration::from_secs(10))
        .expect("initial push")
        .expect("initial resync");
    assert!(first.resync.is_some());

    sub.unsubscribe("all").expect("unsubscribed");
    // Drain pushes that raced the unsubscribe, then commit: nothing
    // new may arrive.
    while sub
        .next_push(Duration::from_millis(200))
        .expect("stream healthy")
        .is_some()
    {}
    writer
        .edit_view_optimistic("all", 8, &|t: &mut Table| {
            t.upsert(esm_store::row![2000, "gX".to_string(), 1])
                .map(|_| ())
                .map_err(EngineError::from)
        })
        .expect("commit succeeds");
    assert!(
        sub.next_push(Duration::from_millis(400))
            .expect("stream healthy")
            .is_none(),
        "no pushes after unsubscribe"
    );
    // The connection itself still works as a subscription socket.
    let cursor = sub.subscribe("all", None).expect("resubscribe works");
    let again = sub
        .next_push(Duration::from_secs(10))
        .expect("push stream healthy")
        .expect("resubscription resyncs");
    assert!(again.resync.is_some() && again.to_seq >= cursor);
    server.shutdown();
}
