//! `esm-perfbench`: one closed-loop workload of the esm engine, in its
//! own process. It sets the workload up several times (`setup_s` is the
//! median), drives it with two closed-loop clients for `--seconds` of
//! active time, checks the outputs, and prints one report line per fact
//! followed by a single JSON result line.
//!
//! Only set-up time and peak memory repeat on the shared host the
//! benchmark runs on, so they are the end-to-end metrics; throughput and
//! latencies are reported by the traced run (see `README.md`).
//!
//! Usage: `esm-perfbench --workload <wire-16k|wire-256|durable-1k>
//! --seed <n> --seconds <s> --trace <0|1> --work-dir <dir> [--out-dir <dir>]`
//!
//! With `--trace 0` every telemetry registry samples no traces and the
//! result carries the end-to-end metrics. With `--trace 1` every registry
//! samples every trace, the active time is cut into slices that alternate
//! sampling on and off, the clients pause after each slice for the
//! per-layer probes, and the result carries the per-layer metrics.

mod model;
mod probe;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use esm_engine::{testkit, EngineError, Phase, TelemetrySnapshot};

use crate::model::{val_sum, view_def, view_name, Layout, BANDS, CLIENTS, TABLE};
use crate::probe::ProbeAcc;
use crate::stats::{median, phase_p50_ms, ratio, telemetry_diff, Counters, Samples};
use crate::trace::Recorder;
use crate::workload::{
    restart, run_phase, Client, Spec, Stack, Stop, Transport, COMMIT, EDIT, KIND_NAMES, READ, TWOPC,
};

/// Slices of a traced run; even slices sample every trace, odd ones none.
const TRACED_SLICES: u32 = 6;
/// Slices of an untraced run: the pauses where the wire engines run
/// their maintenance pass.
const UNTRACED_SLICES: u32 = 60;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    work_dir: PathBuf,
    out_dir: Option<PathBuf>,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut work_dir, mut out_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            "--work-dir" => work_dir = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s: &f64| *s > 0.0)
            .ok_or("--seconds > 0 is required")?,
        trace: trace.ok_or("--trace is required")?,
        work_dir: work_dir.ok_or("--work-dir is required")?,
        out_dir,
    })
}

/// Public counters and phase histograms of the engine (and the server,
/// on the wire), read at a phase boundary.
struct Observed {
    tel: TelemetrySnapshot,
    ctr: Counters,
    net_requests: u64,
}

impl Observed {
    fn take(stack: &Stack) -> Result<Observed, EngineError> {
        let engine = stack.engine();
        let mut tel = engine.telemetry()?;
        let mut net_requests = 0;
        if let Stack::Wire(w) = stack {
            tel.merge(&w.server.telemetry());
            net_requests = w.server.stats().requests;
        }
        Ok(Observed {
            tel,
            ctr: Counters::of(&engine.metrics()?),
            net_requests,
        })
    }
}

/// Sums over the client phases of the measured window.
#[derive(Default)]
struct Window {
    tel: TelemetrySnapshot,
    ctr: Counters,
    net_requests: u64,
    ops: u64,
    active: Duration,
    /// CPU time the process used in the client phases, all threads;
    /// `None` when `/proc/self/stat` could not be read.
    cpu_s: Option<f64>,
    /// `(ops, time)` in untraced and traced slices of a traced run.
    by_sampling: [(u64, Duration); 2],
}

/// A metric's value is `None` when the run measured nothing for it (no
/// samples, or a ratio over nothing); such a run reports no result.
struct Metric {
    name: &'static str,
    value: Option<f64>,
    unit: &'static str,
    note: String,
}

fn metric(name: &'static str, value: Option<f64>, unit: &'static str, note: String) -> Metric {
    Metric {
        name,
        value: value.filter(|v| v.is_finite()),
        unit,
        note,
    }
}

fn completed(clients: &[Client]) -> u64 {
    clients.iter().map(Client::completed).sum()
}

fn main() {
    // Every registry below gets its sampling rate explicitly; none may
    // pick one up from the environment.
    std::env::remove_var("ESM_TRACE_SAMPLE_EVERY");
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("esm-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let code = match run(&args) {
        Ok(true) => 0,
        Ok(false) => 1,
        Err(e) => {
            eprintln!("esm-perfbench: {e}");
            2
        }
    };
    std::process::exit(code);
}

fn run(args: &Args) -> Result<bool, EngineError> {
    let spec = workload::spec(&args.workload)
        .ok_or_else(|| EngineError::Io(format!("unknown workload {}", args.workload)))?;
    let layout = Layout::new(spec.rows);
    let sample = u32::from(args.trace);
    std::fs::create_dir_all(&args.work_dir)?;
    println!(
        "workload {} seed {} seconds {} trace {} transport {:?} rows {} clients {CLIENTS} (closed loop)",
        spec.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        spec.transport,
        spec.rows
    );

    // Set up several times and keep the last; each set-up starts once the
    // previous stack and its directory are gone.
    let reps = if args.trace { 1 } else { spec.setup_reps };
    let mut setup_s = Vec::with_capacity(reps);
    let mut kept: Option<(Stack, PathBuf)> = None;
    for rep in 0..reps {
        if let Some((old, old_dir)) = kept.take() {
            drop(old);
            remove_dir(&old_dir)?;
        }
        let dir = args.work_dir.join(format!("engine-{rep}"));
        let start = Instant::now();
        let stack = Stack::setup(spec, layout, args.seed, sample, &dir)?;
        setup_s.push(start.elapsed().as_secs_f64());
        kept = Some((stack, dir));
    }
    let (mut stack, _) = kept.expect("at least one set-up");

    let mut clients: Vec<Client> = (0..CLIENTS)
        .map(|c| Client::new(c, spec.transport, layout, args.seed))
        .collect();
    let initial_sum = val_sum(layout, stack.engine().snapshot()?.table(TABLE)?);
    let rec = args.trace.then(Recorder::new);
    let mut acc = ProbeAcc::default();
    let mut window = Window {
        cpu_s: Some(0.0),
        ..Window::default()
    };
    let mut restarts = Vec::new();
    let commits = AtomicU64::new(0);
    let mut next_restart = match spec.transport {
        Transport::Durable => spec.restart_every,
        Transport::Wire => u64::MAX,
    };
    let slices = if args.trace {
        TRACED_SLICES
    } else {
        UNTRACED_SLICES
    };
    let slice_len = Duration::from_secs_f64(args.seconds / f64::from(slices));

    for slice in 0..slices {
        let sampled = args.trace && slice % 2 == 0;
        let slice_sample = u32::from(sampled);
        if args.trace {
            stack.set_sampling(slice_sample);
        }
        // A phase ends after the op in flight at its deadline, so each
        // slice runs until the window's active time reaches its share;
        // overruns come out of the next slice and the window stays at
        // `--seconds`.
        let mut left = (slice_len * (slice + 1)).saturating_sub(window.active);
        while !left.is_zero() {
            let before = Observed::take(&stack)?;
            let ops_before = completed(&clients);
            let stop = Stop {
                deadline: Instant::now() + left,
                commits: &commits,
                commit_limit: next_restart,
            };
            let cpu_before = stats::process_cpu_s();
            let took = run_phase(&mut clients, &stack, &stop, rec.as_ref());
            window.cpu_s = match (window.cpu_s, cpu_before, stats::process_cpu_s()) {
                (Some(sum), Some(before), Some(after)) => Some(sum + after - before),
                _ => None,
            };
            let after = Observed::take(&stack)?;
            let ops = completed(&clients) - ops_before;
            window.tel.merge(&telemetry_diff(&after.tel, &before.tel));
            window.ctr.add_diff(&after.ctr, &before.ctr);
            window.net_requests += after.net_requests - before.net_requests;
            window.ops += ops;
            window.active += took;
            let side = &mut window.by_sampling[usize::from(sampled)];
            side.0 += ops;
            side.1 += took;
            left = left.saturating_sub(took);
            if commits.load(Ordering::Relaxed) >= next_restart {
                stack = restart_durable(stack, layout, slice_sample, rec.as_ref(), &mut restarts)?;
                next_restart += spec.restart_every;
            }
        }
        // The in-memory wire engine has no maintenance thread. Its pass
        // runs between slices, as an embedder's would, so the in-memory
        // WAL (and the peak resident set) does not grow with how many
        // commits the host let the run make.
        if let Stack::Wire(w) = &stack {
            w.engine.run_maintenance()?;
        }
        if let Some(rec) = &rec {
            stack.set_sampling(1);
            probe::probe(
                &stack,
                layout,
                u64::from(slice),
                rec,
                &args.work_dir,
                &mut acc,
            )?;
            // Every probe pause restarts the durable engine too, so a
            // traced window always measures recovery.
            stack = restart_durable(stack, layout, 1, Some(rec), &mut restarts)?;
        }
    }

    // Output checks.
    let mut checks: Vec<(String, bool)> = Vec::new();
    let final_db = stack.engine().snapshot()?;
    let base = final_db.table(TABLE)?;
    let mut views_ok = true;
    for b in 0..BANDS {
        let seen = stack.sessions()[0].read(&view_name(b))?;
        views_ok &= seen == testkit::recompute(&view_def(b), base);
    }
    checks.push((
        format!("every view equals its ViewDef over the final base table ({BANDS} views)"),
        views_ok,
    ));
    let models: Vec<&model::Model> = clients.iter().map(|c| &c.model).collect();
    let bad = model::rows_mismatched(layout, &models, base);
    checks.push((
        format!("every row holds its writer's last acknowledged value ({bad} mismatched)"),
        bad == 0,
    ));
    if spec.transport == Transport::Durable {
        let sums_ok = val_sum(layout, base) == initial_sum
            && restarts.iter().all(|r| r.val_sum == initial_sum);
        checks.push((
            format!("sum(val) unchanged at the end and after every restart ({initial_sum})"),
            sums_ok,
        ));
        checks.push((
            format!(
                "every recovered engine equals its pre-drop snapshot ({} restarts)",
                restarts.len()
            ),
            restarts.iter().all(|r| r.same_state),
        ));
    }
    // Probe checks repeat at every pause: one line per check.
    let mut probe_checks: Vec<(&str, usize, usize)> = Vec::new();
    for &(name, ok) in &acc.checks {
        match probe_checks.iter_mut().find(|(n, _, _)| *n == name) {
            Some(entry) => {
                entry.1 += usize::from(ok);
                entry.2 += 1;
            }
            None => probe_checks.push((name, usize::from(ok), 1)),
        }
    }
    for (name, passed, total) in probe_checks {
        checks.push((format!("{name} ({passed}/{total} pauses)"), passed == total));
    }

    let attempted: u64 = clients.iter().map(|c| c.attempted).sum();
    let failed_ops: u64 = clients.iter().map(|c| c.failed).sum();
    let failed_checks = checks.iter().filter(|(_, ok)| !ok).count() as u64;
    let correct = failed_ops == 0 && failed_checks == 0;
    let mut lat: [Samples; 4] = Default::default();
    for c in &clients {
        for (all, mine) in lat.iter_mut().zip(c.lat.iter()) {
            all.extend(mine);
        }
    }
    for c in &clients {
        for e in &c.errors {
            println!("error client {}: {e}", c.index);
        }
    }

    let metrics = if args.trace {
        per_layer(
            spec,
            &window,
            &acc,
            rec.as_ref().expect("traced"),
            &lat,
            &restarts,
        )
    } else {
        end_to_end(&setup_s)
    };

    for (name, ok) in &checks {
        println!("check {}: {name}", if *ok { "ok" } else { "FAILED" });
    }
    for (k, s) in lat.iter().enumerate().filter(|(_, s)| s.len() > 0) {
        let q = |q: f64| s.quantile_ms(q).unwrap_or(f64::NAN);
        println!(
            "latency {} (whole window, n={}): p50 {:.3} p90 {:.3} p95 {:.3} p99 {:.3} max {:.3} ms",
            KIND_NAMES[k],
            s.len(),
            q(0.5),
            q(0.9),
            q(0.95),
            q(0.99),
            q(1.0)
        );
    }
    println!(
        "set-up: {} reps, {:?} s",
        setup_s.len(),
        setup_s
            .iter()
            .map(|s| (s * 1e4).round() / 1e4)
            .collect::<Vec<f64>>()
    );
    println!(
        "throughput: {:.1} ops/s over {:.3} s of active window ({} ops), {:.3} ms of process CPU per op",
        window.ops as f64 / window.active.as_secs_f64(),
        window.active.as_secs_f64(),
        window.ops,
        cpu_ms_per_op(&window).unwrap_or(f64::NAN)
    );
    if !restarts.is_empty() {
        let recover: Vec<f64> = restarts.iter().map(|r| r.recover_ms).collect();
        println!(
            "restarts: {}, recover p50 {:.3} ms, max {:.3} ms",
            restarts.len(),
            median(&recover).unwrap_or(0.0),
            recover.iter().copied().fold(0.0, f64::max)
        );
    }
    for m in &metrics {
        match m.value {
            Some(v) => println!("metric {} = {v} {} {}", m.name, m.unit, m.note),
            None => println!("metric {} not measured {}", m.name, m.note),
        }
    }
    if let (Some(rec), Some(out)) = (&rec, &args.out_dir) {
        std::fs::create_dir_all(out)?;
        let path = out.join(format!("spans-{}-seed{}.jsonl", spec.name, args.seed));
        let n = rec.write_jsonl(&path)?;
        println!("spans: {n} written to {}", path.display());
    }

    drop(stack);
    remove_dir(&args.work_dir)?;
    let missing: Vec<&str> = metrics
        .iter()
        .filter(|m| m.value.is_none())
        .map(|m| m.name)
        .collect();
    if !missing.is_empty() {
        return Err(EngineError::Io(format!(
            "no result: nothing measured for {}",
            missing.join(", ")
        )));
    }
    let body: Vec<String> = metrics
        .iter()
        .filter_map(|m| {
            m.value.map(|v| {
                format!(
                    "\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                    m.name, m.unit
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {}, \"metrics\": {{{}}}}}",
        failed_ops + failed_checks,
        body.join(", ")
    );
    Ok(correct)
}

/// Restart a durable stack from its directory and record what recovery
/// found; a wire stack has nothing to restart.
fn restart_durable(
    stack: Stack,
    layout: Layout,
    sample_every: u32,
    rec: Option<&Recorder>,
    restarts: &mut Vec<workload::Restart>,
) -> Result<Stack, EngineError> {
    match stack {
        Stack::Durable(d) => {
            let (d, r) = restart(d, layout, sample_every, rec, restarts.len() as u64)?;
            restarts.push(r);
            Ok(Stack::Durable(d))
        }
        wire => Ok(wire),
    }
}

fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

fn tail_label(q: f64) -> String {
    format!("p{}", (q * 100.0).round())
}

/// Set-up time and peak memory: the figures that repeat on a shared
/// host. Throughput and latencies are per-layer metrics of the traced
/// run, and the report lines above print them for this run too.
fn end_to_end(setup_s: &[f64]) -> Vec<Metric> {
    vec![
        metric(
            "setup_s",
            median(setup_s),
            "s",
            format!("(median of {} set-ups)", setup_s.len()),
        ),
        metric("peak_rss_mb", stats::peak_rss_mb(), "MiB", "(VmHWM)".into()),
    ]
}

/// CPU time of the whole process per completed op over the window.
fn cpu_ms_per_op(w: &Window) -> Option<f64> {
    w.cpu_s
        .zip(ratio(1, w.ops))
        .map(|(cpu, per_op)| cpu * 1e3 * per_op)
}

fn per_layer(
    spec: &Spec,
    w: &Window,
    acc: &ProbeAcc,
    rec: &Recorder,
    lat: &[Samples; 4],
    restarts: &[workload::Restart],
) -> Vec<Metric> {
    let spans = rec.self_times_ms();
    let span = |name: &str| {
        let v = spans.get(name).map(Vec::as_slice).unwrap_or_default();
        (median(v), format!("(span {name}, n={})", v.len()))
    };
    let ms = |name: &'static str, span_name: &str| {
        let (v, note) = span(span_name);
        metric(name, v, "ms", note)
    };
    // A phase's window median when the clients' path recorded it, else
    // the probes' (durable shadow, probe server).
    let phase = |name: &'static str, p: Phase| match phase_p50_ms(&w.tel, p) {
        Some(v) => metric(name, Some(v), "ms", format!("({} p50, window)", p.name())),
        None => metric(
            name,
            phase_p50_ms(&acc.tel, p),
            "ms",
            format!("({} p50, probe)", p.name()),
        ),
    };
    let (wal, wal_src) = if w.ctr.wal_appends > 0 {
        (w.ctr, "window")
    } else {
        (acc.shadow, "durable shadow")
    };
    let (requests_per_op, req_src) = if w.net_requests > 0 {
        (ratio(w.net_requests, w.ops), "window")
    } else {
        (ratio(acc.net_requests, acc.net_ops), "probe")
    };
    let shadow_twopc: Vec<f64> = spans.get("shard.twopc").cloned().unwrap_or_default();
    let (twopc_p50, twopc_tail, twopc_src) = if lat[TWOPC].len() > 0 {
        let q = spec.tail_q[TWOPC];
        (
            lat[TWOPC].median_ms(),
            lat[TWOPC].quantile_ms(q),
            format!(
                "(clients, p50 and {}, n={})",
                tail_label(q),
                lat[TWOPC].len()
            ),
        )
    } else {
        let mut v = shadow_twopc.clone();
        v.sort_by(f64::total_cmp);
        (
            median(&v),
            v.last().copied(),
            format!("(durable shadow, p50 and max, n={})", v.len()),
        )
    };
    let replayed: Vec<f64> = if restarts.is_empty() {
        acc.records_replayed.clone()
    } else {
        restarts.iter().map(|r| r.records_replayed as f64).collect()
    };
    let (untraced, traced) = (w.by_sampling[0], w.by_sampling[1]);
    let rate = |(ops, t): (u64, Duration)| ops as f64 / t.as_secs_f64();
    let count = |name: &'static str, v: Option<f64>, note: String| metric(name, v, "count", note);
    let tail = |name: &'static str, kind: usize| {
        let q = spec.tail_q[kind];
        metric(
            name,
            lat[kind].quantile_ms(q),
            "ms",
            format!("({}, traced window, n={})", tail_label(q), lat[kind].len()),
        )
    };
    let p50 = |name: &'static str, kind: usize| {
        metric(
            name,
            lat[kind].median_ms(),
            "ms",
            format!("(p50, traced window, n={})", lat[kind].len()),
        )
    };
    vec![
        metric(
            "ops_per_s",
            Some(w.ops as f64 / w.active.as_secs_f64()),
            "1/s",
            format!("(traced window, {} ops)", w.ops),
        ),
        metric(
            "cpu_ms_per_op",
            cpu_ms_per_op(w),
            "ms",
            format!("(process CPU, all threads, traced window, {} ops)", w.ops),
        ),
        p50("read_p50_ms", READ),
        p50("commit_p50_ms", COMMIT),
        p50("edit_p50_ms", EDIT),
        tail("read_tail_ms", READ),
        tail("commit_tail_ms", COMMIT),
        tail("edit_tail_ms", EDIT),
        ms("store.clone_ms", "store.clone"),
        ms("store.diff_ms", "store.diff"),
        ms("store.apply_ms", "store.apply"),
        ms("relational.put_ms", "relational.put"),
        ms("relational.get_delta_ms", "relational.get_delta"),
        ms("engine.snapshot_ms", "engine.snapshot"),
        ms("engine.commit_checked_ms", "engine.commit_checked"),
        ms("engine.read_view_ms", "engine.read_view"),
        ms("engine.edit_ms", "engine.edit"),
        phase("engine.lock_hold_ms", Phase::CommitLockHold),
        count(
            "engine.attempts_per_commit",
            ratio(
                w.ctr.commits + w.ctr.retries + w.ctr.conflicts,
                w.ctr.commits,
            ),
            format!("({} commits, window)", w.ctr.commits),
        ),
        count(
            "view.deltas_per_read",
            ratio(w.ctr.deltas_applied, w.ctr.materialized_reads),
            format!("({} reads, window)", w.ctr.materialized_reads),
        ),
        count(
            "view.rebuilds",
            Some(w.ctr.rebuilds as f64),
            "(window)".into(),
        ),
        ms("net.rtt_ms", "net.rtt"),
        ms("net.snapshot_ms", "net.snapshot"),
        ms("net.codec_ms", "net.codec"),
        metric(
            "net.bytes_per_read",
            median(&acc.net_bytes[0]),
            "B",
            "(probe)".into(),
        ),
        metric(
            "net.bytes_per_commit",
            median(&acc.net_bytes[1]),
            "B",
            "(probe)".into(),
        ),
        metric(
            "net.bytes_per_edit",
            median(&acc.net_bytes[2]),
            "B",
            "(probe)".into(),
        ),
        count(
            "net.requests_per_op",
            requests_per_op,
            format!("({req_src})"),
        ),
        phase("net.queue_wait_ms", Phase::NetQueueWait),
        phase("net.handler_ms", Phase::NetHandler),
        phase("wal.append_ms", Phase::CommitWalAppend),
        phase("wal.fsync_ms", Phase::CommitFsync),
        count(
            "wal.fsyncs_per_commit",
            ratio(wal.wal_syncs, wal.commits),
            format!("({wal_src})"),
        ),
        metric(
            "wal.bytes_per_commit",
            ratio(wal.wal_bytes, wal.commits),
            "B",
            format!("({wal_src})"),
        ),
        count(
            "wal.checkpoints",
            Some(wal.checkpoints as f64),
            format!("({wal_src})"),
        ),
        phase("shard.snapshot_ms", Phase::CommitSnapshot),
        phase("shard.prepare_ms", Phase::TwopcPrepare),
        phase("shard.resolve_ms", Phase::TwopcResolve),
        phase("shard.participant_fsync_ms", Phase::TwopcParticipantFsync),
        metric("twopc_p50_ms", twopc_p50, "ms", twopc_src.clone()),
        metric("twopc_tail_ms", twopc_tail, "ms", twopc_src),
        ms("recover_ms", "recovery.recover"),
        ms("recovery.checkpoint_load_ms", "recovery.checkpoint_load"),
        ms("recovery.segment_scan_ms", "recovery.segment_scan"),
        count(
            "recovery.records_replayed",
            median(&replayed),
            format!("(median of {})", replayed.len()),
        ),
        ms("repl.bootstrap_ms", "repl.bootstrap"),
        metric(
            "obs.trace_overhead_frac",
            Some(1.0 - rate(traced) / rate(untraced)),
            "frac",
            format!(
                "(traced {:.1} vs untraced {:.1} ops/s)",
                rate(traced),
                rate(untraced)
            ),
        ),
    ]
}
