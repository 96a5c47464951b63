//! Network front-end perf trajectory: view-read and commit (a one-row
//! delta-direct `transact` per op) throughput, in-process vs loopback
//! socket, at 1 / 16 / 256 concurrent clients, plus the subscription
//! push path against 64-client polling. Emits `BENCH_net.json`.
//!
//! What multiplexing buys: a single socket client is latency-bound —
//! every operation pays a full request/response round trip before the
//! next can start. With many connections, the server's readiness loop
//! overlaps those round trips and its worker pool executes requests in
//! parallel against the engine, so aggregate
//! throughput climbs past the one-client line. The acceptance gate
//! asserts 16 socket clients deliver ≥ 0.8x the read throughput of
//! one socket client — no collapse under multiplexing. The margin
//! used to be 1.2x, but that headroom was an artifact of the old
//! busy-poll loop: a single client paid the 200µs idle sleep per
//! round trip, so 16 clients amortizing the naps scaled 6x+. With
//! kernel readiness one client already runs near hardware speed, and
//! on a single-core runner 16 clients merely tie it (~1.1–1.3x);
//! the 256-client line records how far the loop scales.
//!
//! What the epoll loop buys: the old poller slept up to 200µs between
//! sweeps, so a single client's read paid the nap on top of the RTT —
//! p50 sat near 390µs. With kernel readiness the request's first byte
//! wakes the loop; the single-client read p50 gate holds it under
//! 100µs. And what push buys: 64 clients polling a view re-transfer
//! the whole window to learn of one changed row, while 64 subscribers
//! receive exactly the delta — the push path must deliver ≥ 2x the
//! aggregate update rate of polling.
//!
//! What the cached snapshot buys: a remote `transact` used to download
//! and decode the whole database on every attempt. A process now keeps
//! one snapshot per server, shared by all its connections, and catches
//! it up with `SNAPSHOT_SINCE`, so a warm one-row `transact` ships and
//! applies what changed since the process last asked. The sweep times
//! it at 256 and 65,536 rows with nothing committed in between (median
//! of 41 ops, best of 3 rounds that interleave the points), and its
//! gate holds the 65,536-row cost within 2x of the 256-row cost. A third
//! point has a writer in another process's place (in-process, so outside
//! the client's cache) commit 255 one-row transactions before each
//! timed op, so the sweep shows both sides of the property the cache
//! relies on: the cost follows the commits since the process last
//! asked, not the table. The 256-client commit line, all in this
//! process, shares one cache and catches up a few rows per op.
//!
//! Usage: `cargo run --release -p esm-bench --bin bench_net [dir]`

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use esm_bench::results::BenchResults;
use esm_engine::{ArcEngine, Engine, EngineServer};
use esm_net::{NetServer, NetServerConfig, RemoteEngine, SubscriptionClient};
use esm_obs::{Histogram, HistogramSnapshot};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Row, Schema, Table, ValueType};

/// Distinct views so readers do not serialize on one window mutex.
const VIEWS: i64 = 8;
/// 16 clients must hold at least 0.8x one client's aggregate read
/// throughput — multiplexing must not collapse. See the module doc
/// for why this is not the pre-epoll 1.2: that margin measured
/// busy-poll nap amortization, and a single-core runner now lands
/// anywhere from ~1.0x to ~1.3x run to run.
const GATE_MIN_SCALING: f64 = 0.8;
/// 256 clients must retain at least half the 16-client commit
/// throughput — the line that caught the 256-client collapse.
const GATE_MIN_COMMIT_RETENTION: f64 = 0.5;
/// A single socket client's read p50 must stay under 100µs — the line
/// that caught the poller's idle-sleep tax (p50 ~390µs pre-epoll).
const GATE_MAX_READ_P50_NS: u64 = 100_000;
/// At 64 subscribers, push must deliver at least twice the aggregate
/// update rate of 64 clients polling the same view.
const GATE_MIN_PUSH_OVER_POLL: f64 = 2.0;
const FANOUT_CLIENTS: usize = 64;
const FANOUT_SECS: f64 = 2.0;
/// The warm remote `transact` sweep's points: table rows, and commits
/// another writer lands before each timed op.
const TRANSACT_SWEEP: [(i64, usize); 3] = [(256, 0), (65_536, 0), (65_536, 255)];
const TRANSACT_SWEEP_OPS: usize = 41;
const TRANSACT_SWEEP_ROUNDS: usize = 3;
/// A warm one-row remote `transact` at 65,536 rows costs at most this
/// many times the same op at 256 rows: the cost follows the change, not
/// the table.
const GATE_MAX_TRANSACT_SLOPE: f64 = 2.0;

fn seed_db() -> Database {
    kv_db(VIEWS * 32)
}

/// `kv(id, band, val)` with `rows` rows, `band = id % VIEWS`.
fn kv_db(rows: i64) -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("band", ValueType::Int),
            ("val", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows = (0..rows).map(|i| row![i, i % VIEWS, i * 3]);
    let mut db = Database::new();
    db.create_table("kv", Table::from_rows(schema, rows).expect("valid rows"))
        .expect("fresh");
    db
}

fn engine_with_views() -> ArcEngine {
    let engine = EngineServer::new(seed_db());
    for b in 0..VIEWS {
        engine
            .define_view(
                format!("w{b}"),
                "kv",
                &ViewDef::base().select(Predicate::eq(Operand::col("band"), Operand::val(b))),
            )
            .expect("view compiles");
    }
    engine.as_engine()
}

/// Run `clients` worker threads, each holding its own engine handle
/// (an in-process clone or its own socket connection), and return
/// aggregate ops/second plus the per-op latency distribution (every
/// thread records into one lock-free histogram).
fn run_clients(
    handles: Vec<ArcEngine>,
    ops_per_client: usize,
    op: impl Fn(&dyn Engine, usize, usize) + Sync,
) -> (f64, HistogramSnapshot) {
    let op = &op;
    let latencies = Histogram::new();
    let latencies_ref = &latencies;
    let start = Instant::now();
    std::thread::scope(|scope| {
        for (client, handle) in handles.iter().enumerate() {
            scope.spawn(move || {
                for i in 0..ops_per_client {
                    let op_start = Instant::now();
                    op(&**handle, client, i);
                    latencies_ref
                        .record(u64::try_from(op_start.elapsed().as_nanos()).unwrap_or(u64::MAX));
                }
            });
        }
    });
    let total = handles.len() * ops_per_client;
    (
        total as f64 / start.elapsed().as_secs_f64(),
        latencies.snapshot(),
    )
}

fn read_op(engine: &dyn Engine, client: usize, _i: usize) {
    let view = format!("w{}", client as i64 % VIEWS);
    let t = engine.read_view(&view).expect("readable");
    assert!(!t.is_empty());
}

/// One delta-direct checked commit per op: each client writes its own
/// key range, so throughput measures the commit path (frame decode,
/// queue, pre-image validation, apply) rather than retry amplification
/// — 256 optimistic editors fighting over 8 windows would measure
/// conflict storms, not the server.
fn commit_op(engine: &dyn Engine, client: usize, i: usize) {
    let band = client as i64 % VIEWS;
    let id = 1_000_000 + (client * 10_000 + i) as i64;
    engine
        .transact(4, &move |db: &mut Database| {
            db.table_mut("kv")?.upsert(row![id, band, 1])?;
            Ok(())
        })
        .expect("commit lands");
}

fn inproc_handles(engine: &ArcEngine, n: usize) -> Vec<ArcEngine> {
    (0..n).map(|_| engine.as_engine()).collect()
}

fn socket_handles(addr: std::net::SocketAddr, n: usize) -> Vec<ArcEngine> {
    (0..n)
        .map(|_| Arc::new(RemoteEngine::connect(addr).expect("loopback connect")) as ArcEngine)
        .collect()
}

fn record(
    results: &mut BenchResults,
    id: String,
    ops_per_s: f64,
    latencies: &HistogramSnapshot,
    note: String,
) {
    let note = format!(
        "{note}, p50 {} p95 {} p99 {}",
        latencies.p50(),
        latencies.p95(),
        latencies.p99()
    );
    println!("  {note}");
    results.record_tailed(id, 1e9 / ops_per_s.max(1e-9), latencies, note);
}

/// One-row upsert number `i` into a `kv` table of `rows` rows, keys
/// spread over the table.
fn sweep_upsert(engine: &dyn Engine, rows: i64, i: usize) {
    let key = (i as i64 * 7_919) % rows;
    engine
        .transact(4, &move |db: &mut Database| {
            db.table_mut("kv")?
                .upsert(row![key, key % VIEWS, -(i as i64)])?;
            Ok(())
        })
        .expect("commits");
}

/// Median ns of a warm one-row remote `transact` at `rows` rows: one
/// connection to a server over a one-shard in-memory engine, whose first
/// `transact` fills the process's cached snapshot of it; then
/// [`TRANSACT_SWEEP_OPS`] one-row upserts spread over the table, each
/// catching the cache up with `SNAPSHOT_SINCE` before it commits. Before
/// each timed op an in-process writer commits `behind` one-row upserts,
/// which that catch-up ships.
fn transact_sweep_ns(rows: i64, behind: usize) -> f64 {
    let engine = EngineServer::new(kv_db(rows)).as_engine();
    let server = NetServer::bind(engine.clone(), "127.0.0.1:0", NetServerConfig::default())
        .expect("loopback bind");
    let remote = RemoteEngine::connect(server.local_addr()).expect("loopback connect");
    sweep_upsert(&remote, rows, TRANSACT_SWEEP_OPS);
    let mut other = 0;
    let mut samples: Vec<f64> = (0..TRANSACT_SWEEP_OPS)
        .map(|i| {
            for _ in 0..behind {
                other += 1;
                sweep_upsert(&*engine, rows, TRANSACT_SWEEP_OPS + other);
            }
            let start = Instant::now();
            sweep_upsert(&remote, rows, i);
            start.elapsed().as_nanos() as f64
        })
        .collect();
    server.shutdown();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

/// The update source both fan-out scenarios share: one writer
/// committing single-row upserts into band 0 (view `w0`) as fast as
/// the engine accepts them, until `stop`.
fn run_update_writer(addr: std::net::SocketAddr, stop: &AtomicBool) -> u64 {
    let writer = RemoteEngine::connect(addr).expect("writer connects");
    let mut commits = 0u64;
    let mut v = 0i64;
    while !stop.load(Ordering::Relaxed) {
        writer
            .transact(4, &move |db: &mut Database| {
                db.table_mut("kv")?.upsert(row![0i64, 0i64, v])?;
                Ok(())
            })
            .expect("update commits");
        commits += 1;
        v += 1;
    }
    commits
}

/// Read the marker row's value out of a `w0` window.
fn marker_val(t: &Table) -> Option<i64> {
    t.rows()
        .find(|r| r[0].as_int() == Some(0))
        .and_then(|r| r[2].as_int())
}

/// 64 clients polling `w0` in a tight loop, counting how many *new*
/// states each observes. Polling pays a full-window round trip per
/// probe, and most probes see nothing new.
fn poll_fanout_rate(addr: std::net::SocketAddr) -> (f64, u64) {
    let stop = AtomicBool::new(false);
    let observed = AtomicU64::new(0);
    let mut commits = 0u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| run_update_writer(addr, &stop));
        for _ in 0..FANOUT_CLIENTS {
            scope.spawn(|| {
                let remote = RemoteEngine::connect(addr).expect("poller connects");
                let mut last = None;
                while !stop.load(Ordering::Relaxed) {
                    let t = remote.read_view("w0").expect("readable");
                    let cur = marker_val(&t);
                    if cur != last && last.is_some() {
                        observed.fetch_add(1, Ordering::Relaxed);
                    }
                    last = cur;
                }
            });
        }
        std::thread::sleep(Duration::from_secs_f64(FANOUT_SECS));
        stop.store(true, Ordering::Relaxed);
        commits = writer.join().expect("writer thread");
    });
    (
        observed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64(),
        commits,
    )
}

/// 64 subscribers on `w0`, counting delivered pushes. Each push is a
/// coalesced delta past that subscriber's cursor — no window
/// re-transfer, no empty probes.
fn push_fanout_rate(addr: std::net::SocketAddr) -> (f64, u64) {
    let mut subs: Vec<SubscriptionClient> = (0..FANOUT_CLIENTS)
        .map(|_| {
            let mut s = SubscriptionClient::connect(addr).expect("subscriber connects");
            s.subscribe("w0", None).expect("suback");
            s.next_push(Duration::from_secs(10))
                .expect("stream healthy")
                .expect("initial resync");
            s
        })
        .collect();
    let stop = AtomicBool::new(false);
    let observed = AtomicU64::new(0);
    let mut commits = 0u64;
    let start = Instant::now();
    std::thread::scope(|scope| {
        let writer = scope.spawn(|| run_update_writer(addr, &stop));
        let stop = &stop;
        let observed = &observed;
        for mut sub in subs.drain(..) {
            scope.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match sub.next_push(Duration::from_millis(50)) {
                        Ok(Some(_)) => {
                            observed.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(None) => {}
                        Err(_) => break,
                    }
                }
            });
        }
        std::thread::sleep(Duration::from_secs_f64(FANOUT_SECS));
        stop.store(true, Ordering::Relaxed);
        commits = writer.join().expect("writer thread");
    });
    (
        observed.load(Ordering::Relaxed) as f64 / start.elapsed().as_secs_f64(),
        commits,
    )
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let mut results = BenchResults::new();

    // One shared in-process engine and one server fronting an identical
    // engine, so the two transports measure the same workload.
    let inproc = engine_with_views();
    let served = engine_with_views();
    let server =
        NetServer::bind(served, "127.0.0.1:0", NetServerConfig::default()).expect("loopback bind");
    let addr = server.local_addr();

    let mut socket_reads: Vec<(usize, f64)> = Vec::new();
    let mut single_read_p50_ns = u64::MAX;
    println!("view-read throughput (ops/s):");
    for &clients in &[1usize, 16, 256] {
        let ops = (4096 / clients).max(16);
        let (in_ops, in_lat) = run_clients(inproc_handles(&inproc, clients), ops, read_op);
        record(
            &mut results,
            format!("net/read/in_process/{clients}"),
            in_ops,
            &in_lat,
            format!("in-process read x{clients}: {in_ops:.0} ops/s"),
        );
        let (so_ops, so_lat) = run_clients(socket_handles(addr, clients), ops, read_op);
        record(
            &mut results,
            format!("net/read/socket/{clients}"),
            so_ops,
            &so_lat,
            format!("loopback-socket read x{clients}: {so_ops:.0} ops/s"),
        );
        socket_reads.push((clients, so_ops));
        if clients == 1 {
            single_read_p50_ns = so_lat.p50();
        }
    }

    let mut socket_commits: Vec<(usize, f64)> = Vec::new();
    println!("commit (delta-direct transact) throughput (ops/s):");
    for &clients in &[1usize, 16, 256] {
        let ops = (1024 / clients).max(4);
        let (in_ops, in_lat) = run_clients(inproc_handles(&inproc, clients), ops, commit_op);
        record(
            &mut results,
            format!("net/commit/in_process/{clients}"),
            in_ops,
            &in_lat,
            format!("in-process commit x{clients}: {in_ops:.0} ops/s"),
        );
        let (so_ops, so_lat) = run_clients(socket_handles(addr, clients), ops, commit_op);
        record(
            &mut results,
            format!("net/commit/socket/{clients}"),
            so_ops,
            &so_lat,
            format!("loopback-socket commit x{clients}: {so_ops:.0} ops/s"),
        );
        socket_commits.push((clients, so_ops));

        // Delete the freshly inserted rows so every client count
        // commits against the same-sized table — otherwise each run's
        // inserts grow the snapshots and validation the next, larger
        // run pays for, biasing the retention ratio.
        let cleanup = |engine: &dyn Engine| {
            engine
                .transact(4, &|db: &mut Database| {
                    let table = db.table_mut("kv")?;
                    let keys: Vec<Row> = table
                        .rows()
                        .filter(|r| r[0].as_int().is_some_and(|id| id >= 1_000_000))
                        .map(|r| row![r[0].clone()])
                        .collect();
                    for key in keys {
                        table.delete_by_key(&key);
                    }
                    Ok(())
                })
                .expect("cleanup commits");
        };
        cleanup(&*inproc);
        cleanup(&*socket_handles(addr, 1)[0]);
    }

    // The warm remote transact sweep: rounds interleave the points, and
    // each point keeps its best round, so a stretch of host contention
    // cannot land on one point alone.
    println!("warm one-row remote transact:");
    let mut transact_ns = [f64::INFINITY; TRANSACT_SWEEP.len()];
    for _ in 0..TRANSACT_SWEEP_ROUNDS {
        for (best, &(rows, behind)) in transact_ns.iter_mut().zip(&TRANSACT_SWEEP) {
            *best = best.min(transact_sweep_ns(rows, behind));
        }
    }
    for (&(rows, behind), &ns) in TRANSACT_SWEEP.iter().zip(&transact_ns) {
        let (id, after) = match behind {
            0 => (format!("net/transact/socket/{rows}"), String::new()),
            n => (
                format!("net/transact/socket/{rows}/behind_{n}"),
                format!(", {n} commits by another writer before each"),
            ),
        };
        let note = format!(
            "warm one-row remote transact, {rows} rows, one shard{after}: median of \
             {TRANSACT_SWEEP_OPS} ops, best of {TRANSACT_SWEEP_ROUNDS} rounds"
        );
        println!("  {rows:>6} rows, {behind:>3} behind: {:.1}µs", ns / 1e3);
        results.record(id, ns, note);
    }

    // Fan-out: the same update stream delivered to 64 clients by
    // polling, then by subscription push.
    println!("64-client fan-out (updates observed/s):");
    let (poll_rate, poll_commits) = poll_fanout_rate(addr);
    println!("  poll: {poll_rate:.0} updates/s observed ({poll_commits} commits)");
    let (push_rate, push_commits) = push_fanout_rate(addr);
    println!("  push: {push_rate:.0} updates/s delivered ({push_commits} commits)");

    let stats = server.stats();
    println!(
        "server lifetime: {} connections, {} requests, {} pushes",
        stats.accepted, stats.requests, stats.pushes
    );
    server.shutdown();

    // Every gate is checked and the artifact written before any failure
    // ends the run, so a failing gate's measurement is on record and no
    // gate hides behind another.
    let mut failed: Vec<String> = Vec::new();
    let mut gate = |ok: bool, failure: String| {
        if !ok {
            eprintln!("{failure}");
            failed.push(failure);
        }
    };

    // The latency gate: with the readiness loop parked in the kernel, a
    // lone client's read must not pay any poller nap on top of its RTT.
    results.record(
        "net/read/socket/p50_single_client",
        single_read_p50_ns as f64,
        format!(
            "single-client socket read p50 = {single_read_p50_ns}ns \
             (gate < {GATE_MAX_READ_P50_NS}ns)"
        ),
    );
    println!("single-client socket read p50: {single_read_p50_ns}ns");
    gate(
        single_read_p50_ns < GATE_MAX_READ_P50_NS,
        format!(
            "latency gate failed: single-client read p50 {single_read_p50_ns}ns \
             (need < {GATE_MAX_READ_P50_NS}ns)"
        ),
    );

    // The fan-out gate: push must beat polling by 2x on delivered
    // updates at 64 subscribers (it sends deltas on change instead of
    // answering full-window probes).
    let push_over_poll = push_rate / poll_rate.max(1e-9);
    results.record(
        "net/fanout/push_over_poll_64",
        push_over_poll * 1000.0,
        format!(
            "64-subscriber push / 64-client poll update rate = {push_over_poll:.2}x \
             (gate >= {GATE_MIN_PUSH_OVER_POLL}x)"
        ),
    );
    println!("64-subscriber push / poll update rate: {push_over_poll:.2}x");
    gate(
        push_over_poll >= GATE_MIN_PUSH_OVER_POLL,
        format!(
            "fan-out gate failed: push delivered only {push_over_poll:.2}x the polled \
             update rate at 64 subscribers (need >= {GATE_MIN_PUSH_OVER_POLL}x)"
        ),
    );

    // The gate: multiplexed socket clients must beat one socket client
    // on aggregate read throughput (RTT overlap is the whole point of
    // the non-blocking front end).
    let one = socket_reads
        .iter()
        .find(|(c, _)| *c == 1)
        .expect("measured")
        .1;
    let sixteen = socket_reads
        .iter()
        .find(|(c, _)| *c == 16)
        .expect("measured")
        .1;
    let scaling = sixteen / one;
    results.record(
        "net/read/socket/scaling_16_over_1",
        scaling * 1000.0,
        format!("16-client / 1-client socket read throughput = {scaling:.2}x (gate >= {GATE_MIN_SCALING}x)"),
    );
    println!("16-client / 1-client socket read scaling: {scaling:.2}x");
    gate(
        scaling >= GATE_MIN_SCALING,
        format!("multiplexing gate failed: 16 clients delivered only {scaling:.2}x one client's read throughput (need >= {GATE_MIN_SCALING}x)"),
    );

    // The overload gate: commit throughput must not collapse when the
    // connection count far exceeds the worker pool. 256 clients used to
    // deliver ~1/7th of the 16-client line (poller sleep + text codec
    // tax per queued request); with the wake-on-ready poller and binary
    // codec it must hold within 2x.
    let commits_16 = socket_commits
        .iter()
        .find(|(c, _)| *c == 16)
        .expect("measured")
        .1;
    let commits_256 = socket_commits
        .iter()
        .find(|(c, _)| *c == 256)
        .expect("measured")
        .1;
    let retained = commits_256 / commits_16;
    results.record(
        "net/commit/socket/retention_256_over_16",
        retained * 1000.0,
        format!(
            "256-client / 16-client socket commit throughput = {retained:.2}x \
             (gate >= {GATE_MIN_COMMIT_RETENTION}x)"
        ),
    );
    println!("256-client / 16-client socket commit retention: {retained:.2}x");
    gate(
        retained >= GATE_MIN_COMMIT_RETENTION,
        format!(
            "overload gate failed: 256 clients delivered only {retained:.2}x the \
             16-client commit throughput (need >= {GATE_MIN_COMMIT_RETENTION}x)"
        ),
    );

    // The transact gate: a warm one-row remote transaction costs the
    // change, not the table.
    let slope = transact_ns[1] / transact_ns[0];
    let (small, large) = (TRANSACT_SWEEP[0].0, TRANSACT_SWEEP[1].0);
    println!("warm remote transact at {large} / {small} rows: {slope:.2}x");
    gate(
        slope <= GATE_MAX_TRANSACT_SLOPE,
        format!(
            "transact gate failed: a warm one-row remote transact at {large} rows costs \
             {slope:.2}x the same op at {small} rows (need <= {GATE_MAX_TRANSACT_SLOPE}x)"
        ),
    );

    let path = results
        .write_json(dir, "net")
        .expect("write BENCH_net.json");
    println!("wrote {}", path.display());
    assert!(failed.is_empty(), "{}", failed.join("\n"));
}
