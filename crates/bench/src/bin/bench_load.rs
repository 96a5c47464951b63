//! Sustained-load chaos harness: a mixed read/commit workload against
//! the socket server with a **sync-stall fault window** injected
//! mid-run, verified through the causal trace layer. Emits
//! `BENCH_load.json`.
//!
//! The run is three acts: a clean warm third, a faulted middle third
//! (every disk fsync sleeps an extra `ESM_LOAD_SYNC_DELAY_US`, default
//! 5 ms, via the live [`DurabilityConfig::sync_delay_handle`] knob),
//! and a clean final third. Every request is traced (100% head
//! sampling), so the stall must show up in the slow-trace ring as
//! commit trees whose time sits in `commit_fsync` /
//! `group_commit_wait` spans — and the harness *asserts* that the
//! traces blame durability, not `net_queue_wait`: an observability
//! stack that misattributes a disk stall to queueing is worse than
//! none.
//!
//! Tuning (environment): `ESM_LOAD_DURATION_MS` (default 900),
//! `ESM_LOAD_CLIENTS` (default 8), `ESM_LOAD_READ_RATIO` (default
//! 0.7), `ESM_LOAD_SYNC_DELAY_US` (default 5000).
//!
//! Usage: `cargo run --release -p esm-bench --bin bench_load [dir]`

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use esm_bench::results::BenchResults;
use esm_engine::{DurabilityConfig, Engine, FailPoint, Session, ShardRouter, ShardedEngineServer};
use esm_net::{NetServer, NetServerConfig, RemoteEngine};
use esm_obs::{Histogram, TelemetryConfig, TraceRecord};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Row, Schema, Table, ValueType};

/// Distinct views so readers do not serialize on one window mutex.
const VIEWS: i64 = 4;
/// Traces totalling this long tail-capture into the slow ring — low
/// enough that every stalled commit is caught, high enough that the
/// clean thirds stay out of it.
const SLOW_THRESHOLD_NS: u64 = 2_000_000;

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn env_f64(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(default)
}

fn seed_db() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("band", ValueType::Int),
            ("val", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows: Vec<Row> = (0..VIEWS * 32).map(|i| row![i, i % VIEWS, i * 3]).collect();
    let mut db = Database::new();
    db.create_table("kv", Table::from_rows(schema, rows).expect("valid rows"))
        .expect("fresh");
    db
}

/// Nanoseconds of `names` spans in the trace, summed across the tree.
fn span_ns(rec: &TraceRecord, names: &[&str]) -> u64 {
    rec.spans
        .iter()
        .filter(|s| names.contains(&s.name.as_str()))
        .map(|s| s.duration_ns)
        .sum()
}

fn main() {
    let dir = std::env::args().nth(1).unwrap_or_else(|| ".".into());
    let duration = Duration::from_millis(env_u64("ESM_LOAD_DURATION_MS", 900));
    let clients = env_u64("ESM_LOAD_CLIENTS", 8).max(1) as usize;
    let read_ratio = env_f64("ESM_LOAD_READ_RATIO", 0.7).clamp(0.0, 1.0);
    let delay_ns = env_u64("ESM_LOAD_SYNC_DELAY_US", 5_000) * 1_000;
    let mut results = BenchResults::new();

    // A durable engine with the chaos knob installed and every request
    // traced; the slow threshold sits well under the injected delay.
    let wal_dir = std::env::temp_dir().join(format!("esm-bench-load-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);
    let sync_delay = Arc::new(AtomicU64::new(0));
    // The ring must hold the WHOLE fault window: with the default 32
    // slots the stalled commits get evicted by the backlog-drain
    // commits that follow the window (slow too, but queue-bound), and
    // the attribution check would read only the aftermath.
    let traced = TelemetryConfig::default()
        .slow_threshold_ns(SLOW_THRESHOLD_NS)
        .trace_capacity(512)
        .trace_sample_every(1);
    // `group_commit(1)` = durable-before-ack with the cross-session
    // group-commit gate: every committer either fsyncs (leader) or
    // parks on the gate (follower), so a sync stall is *visible* as
    // `commit_fsync` / `group_commit_wait` spans. (The lazy
    // `group_commit > 1` modes ack before syncing — a stall there shows
    // up as lock contention, which is exactly the misattribution this
    // harness exists to rule out on the durable path.)
    let durability = DurabilityConfig::new(&wal_dir)
        .group_commit(1)
        .telemetry_config(traced.clone())
        .sync_delay_handle(Arc::clone(&sync_delay));
    let engine = ShardedEngineServer::with_durability(seed_db(), ShardRouter::single(), durability)
        .expect("durable engine");
    for b in 0..VIEWS {
        engine
            .define_view(
                format!("w{b}"),
                "kv",
                &ViewDef::base().select(Predicate::eq(Operand::col("band"), Operand::val(b))),
            )
            .expect("view compiles");
    }
    let server = NetServer::bind(
        engine.as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default().telemetry_config(traced),
    )
    .expect("loopback bind");
    let addr = server.local_addr();

    let reads = Histogram::new();
    let commits = Histogram::new();
    let in_window = Arc::new(AtomicU64::new(0));
    let window = duration / 3;
    println!(
        "sustained load: {clients} clients, {:.0}% reads, {}ms total, \
         {}µs fsync stall in the middle {}ms",
        read_ratio * 100.0,
        duration.as_millis(),
        delay_ns / 1_000,
        window.as_millis()
    );

    let start = Instant::now();
    std::thread::scope(|scope| {
        // The fault controller: clean third, stalled third, clean third.
        let controller_delay = Arc::clone(&sync_delay);
        let controller_flag = Arc::clone(&in_window);
        scope.spawn(move || {
            std::thread::sleep(window);
            controller_flag.store(1, Ordering::SeqCst);
            controller_delay.store(delay_ns, Ordering::SeqCst);
            std::thread::sleep(window);
            controller_delay.store(0, Ordering::SeqCst);
            controller_flag.store(0, Ordering::SeqCst);
        });
        for client in 0..clients {
            let reads = &reads;
            let commits = &commits;
            scope.spawn(move || {
                let remote = RemoteEngine::connect(addr).expect("loopback connect");
                remote.telemetry_registry().set_trace_sample_every(1);
                let session = Session::new(remote.as_engine());
                let view = format!("w{}", client as i64 % VIEWS);
                let mut i: usize = 0;
                while start.elapsed() < duration {
                    let op_start = Instant::now();
                    // Deterministic read/commit interleave at the
                    // requested ratio, no RNG needed.
                    let reads_due = (i as f64 * read_ratio).floor() as usize;
                    let prior_reads = ((i.saturating_sub(1)) as f64 * read_ratio).floor() as usize;
                    if i > 0 && reads_due > prior_reads {
                        session.read(&view).expect("readable");
                        reads.record(
                            u64::try_from(op_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    } else {
                        let id = 1_000_000 + (client * 1_000_000 + i) as i64;
                        let band = client as i64 % VIEWS;
                        session
                            .transact(move |db: &mut Database| {
                                db.table_mut("kv")?.upsert(row![id, band, 1])?;
                                Ok(())
                            })
                            .expect("commit lands");
                        commits.record(
                            u64::try_from(op_start.elapsed().as_nanos()).unwrap_or(u64::MAX),
                        );
                    }
                    i += 1;
                }
            });
        }
    });
    let elapsed = start.elapsed();

    let read_lat = reads.snapshot();
    let commit_lat = commits.snapshot();
    let total_ops = read_lat.count + commit_lat.count;
    let ops_per_s = total_ops as f64 / elapsed.as_secs_f64();
    for (kind, lat) in [("read", &read_lat), ("commit", &commit_lat)] {
        println!(
            "  {kind}: {} ops, p50 {} p95 {} p99 {}",
            lat.count,
            lat.p50(),
            lat.p95(),
            lat.p99()
        );
        results.record_tailed(
            format!("load/{kind}"),
            lat.p50() as f64,
            lat,
            format!("{kind} under sustained load with mid-run fsync stall"),
        );
    }
    results.record(
        "load/throughput",
        1e9 / ops_per_s.max(1e-9),
        format!("{ops_per_s:.0} mixed ops/s across {clients} clients"),
    );

    // The chaos verdict, read from the traces: fetch the merged TRACE
    // report over the wire and demand the stall is attributed to
    // durability spans, not queueing.
    let probe = RemoteEngine::connect(addr).expect("probe connects");
    let report = probe.traces().expect("TRACE over the wire");
    let slow_commits: Vec<&TraceRecord> = report
        .slow
        .iter()
        .filter(|r| r.root == "net:commit")
        .collect();
    println!(
        "  slow ring: {} traces, {} of them commits",
        report.slow.len(),
        slow_commits.len()
    );
    if std::env::var("ESM_LOAD_DUMP").is_ok() {
        for r in slow_commits.iter().take(80) {
            println!(
                "    commit {} total {}us queue {}us fsync {}us gcw {}us wal {}us validate {}us snap {}us handler {}us",
                r.id,
                r.duration_ns / 1000,
                span_ns(r, &["net_queue_wait"]) / 1000,
                span_ns(r, &["commit_fsync"]) / 1000,
                span_ns(r, &["group_commit_wait"]) / 1000,
                span_ns(r, &["commit_wal_append"]) / 1000,
                span_ns(r, &["commit_validate"]) / 1000,
                span_ns(r, &["commit_snapshot"]) / 1000,
                span_ns(r, &["net_handler"]) / 1000,
            );
        }
    }
    assert!(
        !slow_commits.is_empty(),
        "the {delay_ns}ns fsync stall produced no slow commit traces — tail capture is broken"
    );
    let durability_ns: u64 = slow_commits
        .iter()
        .map(|r| span_ns(r, &["commit_fsync", "group_commit_wait"]))
        .sum();
    let queue_ns: u64 = slow_commits
        .iter()
        .map(|r| span_ns(r, &["net_queue_wait"]))
        .sum();
    assert!(
        durability_ns > queue_ns,
        "slow traces blame queueing ({queue_ns}ns) over durability ({durability_ns}ns) — \
         the stall was misattributed"
    );
    let deepest_stall = slow_commits
        .iter()
        .map(|r| span_ns(r, &["commit_fsync", "group_commit_wait"]))
        .max()
        .unwrap_or(0);
    assert!(
        deepest_stall >= delay_ns / 2,
        "no slow commit trace holds even half the injected {delay_ns}ns delay \
         in its fsync/group-commit spans (max {deepest_stall}ns)"
    );
    println!(
        "  stall attribution: {durability_ns}ns in fsync/group-commit spans vs \
         {queue_ns}ns queue wait across {} slow commits (deepest {deepest_stall}ns)",
        slow_commits.len()
    );
    results.record(
        "load/stall_attribution_ratio",
        (durability_ns as f64 / queue_ns.max(1) as f64).min(1e6),
        format!(
            "fsync-family ns / queue-wait ns in slow commit traces = \
             {:.1}x (gate > 1x)",
            durability_ns as f64 / queue_ns.max(1) as f64
        ),
    );

    server.shutdown();
    let _ = std::fs::remove_dir_all(&wal_dir);

    crash_under_load(&mut results, clients);

    let path = results
        .write_json(dir, "load")
        .expect("write BENCH_load.json");
    println!("wrote {}", path.display());
}

/// Act four: a coordinator crash in the middle of a full-stack commit
/// workload. Socket clients hammer a durable sharded engine; mid-run a
/// [`FailPoint::AfterPrepare`] wedges a cross-shard transaction between
/// its prepare and resolution fsyncs, and the whole process-side engine
/// is then abandoned without any orderly shutdown (`mem::forget`, so no
/// destructor gets to tidy the WAL). Recovery from the directory must
/// produce every commit a client saw acknowledged — settled means
/// settled — and must presume-abort the wedged in-doubt transaction.
fn crash_under_load(results: &mut BenchResults, clients: usize) {
    let crash_dir =
        std::env::temp_dir().join(format!("esm-bench-load-crash-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&crash_dir);
    const KEY_RANGE: i64 = 1_000_000;
    let engine = ShardedEngineServer::with_durability(
        seed_db(),
        ShardRouter::uniform_int(4, 0, KEY_RANGE).expect("router"),
        // Durable-before-ack: a client that saw its commit return is
        // entitled to find it after the crash.
        DurabilityConfig::new(&crash_dir)
            .group_commit(1)
            .checkpoint_every(0)
            .maintenance_interval_ms(0),
    )
    .expect("durable sharded engine");
    let server = NetServer::bind(
        engine.as_engine(),
        "127.0.0.1:0",
        NetServerConfig::default(),
    )
    .expect("loopback bind");
    let addr = server.local_addr();

    println!(
        "crash-under-load: {clients} clients committing, coordinator crash mid-run \
         (FailPoint::AfterPrepare, then abandon without shutdown)"
    );
    let acked: std::sync::Mutex<Vec<i64>> = std::sync::Mutex::new(Vec::new());
    let crashed = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let acked = &acked;
        let crashed = &crashed;
        for client in 0..clients {
            scope.spawn(move || {
                let remote = RemoteEngine::connect(addr).expect("loopback connect");
                let mut i = 0i64;
                while crashed.load(Ordering::SeqCst) == 0 {
                    let id = 1_000 + (client as i64) * 10_000 + i;
                    let committed = remote.transact(4, &move |db: &mut Database| {
                        db.table_mut("kv")?.upsert(row![id, id % VIEWS, 1])?;
                        Ok(())
                    });
                    match committed {
                        Ok(_) => acked.lock().expect("acked list").push(id),
                        // The crash severed the connection mid-request;
                        // that commit was never acknowledged.
                        Err(_) => break,
                    }
                    i += 1;
                }
            });
        }
        // Let the workload settle in, then crash the coordinator.
        std::thread::sleep(Duration::from_millis(300));
        let wedged = engine.transact_keys_failpoint(
            &[row![0i64], row![KEY_RANGE - 1]],
            1,
            FailPoint::AfterPrepare,
            |db| {
                let t = db.table_mut("kv")?;
                t.upsert(row![0i64, 0i64, -777i64])?;
                t.upsert(row![KEY_RANGE - 1, 0i64, -777i64])?;
                Ok(())
            },
        );
        assert!(wedged.is_err(), "the failpoint must wedge the transaction");
        crashed.store(1, Ordering::SeqCst);
    });
    // Kill the front end (clients are already stopping) and abandon the
    // engine with prejudice: no Drop, no final sync, exactly what a
    // crashed process leaves behind.
    server.shutdown();
    std::mem::forget(engine);

    let acked = acked.into_inner().expect("acked list");
    let (recovered, report) = ShardedEngineServer::recover(&crash_dir).expect("recovers");
    let table = recovered.table("kv").expect("table recovered");
    let missing: Vec<i64> = acked
        .iter()
        .copied()
        .filter(|id| table.get_by_key(&row![*id]).is_none())
        .collect();
    assert!(
        missing.is_empty(),
        "recovery lost {} of {} acknowledged commits (first missing id: {:?})",
        missing.len(),
        acked.len(),
        missing.first()
    );
    // The wedged transaction died between prepare and resolution:
    // presumed abort, on every shard.
    for key in [0i64, KEY_RANGE - 1] {
        if let Some(r) = table.get_by_key(&row![key]) {
            assert_ne!(
                r[2].as_int(),
                Some(-777),
                "the in-doubt transaction leaked a write through recovery"
            );
        }
    }
    assert!(
        report.aborted_in_doubt > 0,
        "recovery should have found (and aborted) the wedged in-doubt transaction"
    );
    println!(
        "  {} acked commits, all recovered; {} in-doubt aborted, {} finished",
        acked.len(),
        report.aborted_in_doubt,
        report.committed_in_doubt
    );
    results.record(
        "load/crash_acked_commits_recovered",
        acked.len() as f64,
        format!(
            "{} acknowledged commits all present after coordinator crash + recovery",
            acked.len()
        ),
    );
    let _ = std::fs::remove_dir_all(&crash_dir);
}
