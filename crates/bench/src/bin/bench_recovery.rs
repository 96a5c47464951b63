//! Recovery perf trajectory: replay-from-genesis vs checkpointed
//! recovery over the same committed history, and how many copies of its
//! data an engine keeps resident. Emits `BENCH_recovery.json` so
//! successive PRs can watch the replay shortcut stay a shortcut and the
//! engine stay at one copy.
//!
//! The copies gates: a `(id, band, val, tag)` table of 200,000 rows
//! takes one upsert per 128 keys, in two passes, then `run_maintenance`.
//! The metric is the process's resident-set growth (`VmRSS`) over that
//! whole run divided by the growth from building the table alone. Each
//! engine runs in its own child process, because the allocator keeps
//! freed memory resident. An in-memory engine must stay within 1.3
//! copies, and a durable one (maintenance thread off) within 1.6. The
//! growth from building the table, per row, is gated too: at most 185
//! resident bytes per row (in the in-memory engine's child).
//!
//! Usage: `cargo run --release -p esm-bench --bin bench_recovery [dir]`

use std::path::Path;
use std::process::Command;

use esm_bench::results::BenchResults;
use esm_bench::{fmt_ns, median_ns_per_call};
use esm_engine::{
    DurabilityConfig, EngineServer, RecoveryReport, ShardRouter, ShardedEngineServer,
};
use esm_relational::ViewDef;
use esm_store::{row, Database, Schema, Table, ValueType};

const COMMITS: usize = 400;
/// Rows of the copies probe's table.
const COPIES_ROWS: i64 = 200_000;
/// Keys between two writes of one probe pass (two per 256-row chunk).
const COPIES_STRIDE: usize = 128;
/// The flag that runs this binary as one probe child.
const PROBE_FLAG: &str = "--copies-probe";
const IN_MEMORY_MAX_COPIES: f64 = 1.3;
const DURABLE_MAX_COPIES: f64 = 1.6;
/// Resident bytes one row of the copies probe's table may cost.
const MAX_BYTES_PER_ROW: f64 = 185.0;

fn baseline() -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("owner", ValueType::Str),
            ("balance", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let mut db = Database::new();
    db.create_table(
        "accounts",
        Table::from_rows(schema, vec![row![0, "system", 0]]).expect("valid rows"),
    )
    .expect("fresh");
    db
}

/// Commit `COMMITS` records durably under `cfg` on a one-shard engine,
/// then return the live snapshot for the recovery equality check.
fn record_history(cfg: DurabilityConfig) -> Database {
    let engine = ShardedEngineServer::with_durability(baseline(), ShardRouter::single(), cfg)
        .expect("durable engine");
    engine
        .define_view("all", "accounts", &ViewDef::base())
        .expect("view compiles");
    for i in 0..COMMITS as i64 {
        engine
            .edit_view_optimistic("all", 1, |v| {
                v.upsert(row![1 + i, format!("owner{i}"), i % 97])?;
                if i % 5 == 4 {
                    v.delete_by_key(&row![1 + i - 4]);
                }
                Ok(())
            })
            .expect("commits");
    }
    engine.sync_wal().expect("syncs");
    engine.snapshot()
}

/// Recover the engine and time recoveries; the report is the one
/// shard's.
fn measure(cfg: &DurabilityConfig) -> (f64, RecoveryReport, Database) {
    let (engine, mut report) = ShardedEngineServer::recover_with(cfg.clone()).expect("recovers");
    let snapshot = engine.snapshot();
    drop(engine);
    let cfg = cfg.clone();
    let median = median_ns_per_call(7, 1, || {
        let (engine, _report) = ShardedEngineServer::recover_with(cfg.clone()).expect("recovers");
        std::hint::black_box(engine.snapshot());
    });
    (median, report.shards.swap_remove(0), snapshot)
}

/// This process's resident set in KiB (`VmRSS`).
fn rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("/proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmRSS:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmRSS in /proc/self/status")
}

/// The copies probe, run as a child process: resident copies of one
/// database an engine of `kind` (`in_memory` or `durable`, the latter
/// logging into `dir`) holds after the probe workload, and the resident
/// bytes per row of that one database.
fn copies_probe(kind: &str, dir: &Path) -> (f64, f64) {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("band", ValueType::Int),
            ("val", ValueType::Int),
            ("tag", ValueType::Str),
        ],
        &["id"],
    )
    .expect("valid schema");
    let before = rss_kib();
    let rows = (0..COPIES_ROWS).map(|i| row![i, i % 16, i, format!("tag{i}")]);
    let mut db = Database::new();
    db.create_table("kv", Table::from_rows(schema, rows).expect("valid rows"))
        .expect("fresh");
    let one_copy = rss_kib().saturating_sub(before).max(1);
    let engine = match kind {
        "in_memory" => EngineServer::new(db),
        "durable" => ShardedEngineServer::with_durability(
            db,
            ShardRouter::single(),
            DurabilityConfig::new(dir).maintenance_interval_ms(0),
        )
        .expect("durable engine"),
        other => panic!("unknown probe engine {other}"),
    };
    for pass in 0..2i64 {
        for key in (0..COPIES_ROWS).step_by(COPIES_STRIDE) {
            engine
                .transact_keys(&[row![key]], 1, |db| {
                    db.table_mut("kv")?.upsert(row![
                        key,
                        key % 16,
                        -1 - pass,
                        format!("pass{pass}")
                    ])?;
                    Ok(())
                })
                .expect("commits");
        }
    }
    engine.run_maintenance().expect("maintenance runs");
    let copies = rss_kib().saturating_sub(before) as f64 / one_copy as f64;
    (copies, (one_copy * 1024) as f64 / COPIES_ROWS as f64)
}

/// Run [`copies_probe`] for `kind` in a fresh child process.
fn copies_in_child(kind: &str, dir: &Path) -> (f64, f64) {
    let out = Command::new(std::env::current_exe().expect("own path"))
        .args([PROBE_FLAG, kind])
        .arg(dir)
        .output()
        .expect("probe child runs");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "{kind} probe failed: {stdout}{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let mut figures = stdout.split_whitespace().map(|f| f.parse().ok());
    match (figures.next().flatten(), figures.next().flatten()) {
        (Some(copies), Some(bytes_per_row)) => (copies, bytes_per_row),
        _ => panic!("the probe prints a ratio and bytes per row: {stdout}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.get(1).map(String::as_str) == Some(PROBE_FLAG) {
        let (copies, bytes_per_row) = copies_probe(&args[2], Path::new(&args[3]));
        println!("{copies} {bytes_per_row}");
        return;
    }
    let out_dir = args.get(1).cloned().unwrap_or_else(|| ".".to_string());
    let scratch = std::env::temp_dir().join(format!("esm-bench-recovery-{}", std::process::id()));
    let mut results = BenchResults::new();
    let mut replayed = Vec::new();

    for (label, checkpoint_every) in [("genesis", 0u64), ("checkpointed", 100u64)] {
        let dir = scratch.join(label);
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurabilityConfig::new(&dir)
            .segment_bytes(16 * 1024)
            .group_commit(8)
            .checkpoint_every(checkpoint_every);
        let live = record_history(cfg.clone());
        let (median, report, recovered) = measure(&cfg);
        assert_eq!(recovered, live, "recovery reproduces the live state");
        assert_eq!(report.last_seq as usize, COMMITS);
        results.record(
            format!("engine/recovery_{label}/{COMMITS}"),
            median,
            format!(
                "replayed {} of {} records (checkpoint at {})",
                report.records_replayed, report.last_seq, report.checkpoint_seq
            ),
        );
        println!(
            "recovery ({label:>12}): {} — replayed {} of {} records",
            fmt_ns(median),
            report.records_replayed,
            report.last_seq
        );
        replayed.push(report.records_replayed);
    }

    assert!(
        replayed[1] < replayed[0],
        "checkpointed recovery must replay strictly fewer records \
         ({} vs {})",
        replayed[1],
        replayed[0]
    );

    let mut copies = Vec::new();
    let mut row_bytes = 0.0;
    for (kind, gate) in [
        ("in_memory", IN_MEMORY_MAX_COPIES),
        ("durable", DURABLE_MAX_COPIES),
    ] {
        let dir = scratch.join(format!("copies-{kind}"));
        let _ = std::fs::remove_dir_all(&dir);
        let (ratio, bytes_per_row) = copies_in_child(kind, &dir);
        if kind == "in_memory" {
            results.record(
                format!("memory/bytes_per_row/{COPIES_ROWS}"),
                bytes_per_row,
                format!(
                    "resident growth from building one {COPIES_ROWS}-row (id, band, val, tag) \
                     table, per row, in bytes (gate <= {MAX_BYTES_PER_ROW})"
                ),
            );
            println!(
                "one copy: {bytes_per_row:.1} resident bytes per row (gate <= {MAX_BYTES_PER_ROW})"
            );
            row_bytes = bytes_per_row;
        }
        results.record(
            format!("memory/copies/{kind}/{COPIES_ROWS}"),
            ratio * 1000.0,
            format!(
                "resident growth = {ratio:.2} copies of one {COPIES_ROWS}-row database after \
                 two passes of one upsert per {COPIES_STRIDE} keys and run_maintenance \
                 (gate <= {gate})"
            ),
        );
        println!("copies ({kind:>12}): {ratio:.2} resident copies (gate <= {gate})");
        copies.push((kind, ratio, gate));
    }
    for (kind, ratio, gate) in copies {
        assert!(
            ratio <= gate,
            "the {kind} engine holds {ratio:.2} resident copies of its data (gate <= {gate})"
        );
    }
    assert!(
        row_bytes <= MAX_BYTES_PER_ROW,
        "one row of the {COPIES_ROWS}-row table costs {row_bytes:.1} resident bytes \
         (gate <= {MAX_BYTES_PER_ROW})"
    );

    std::fs::remove_dir_all(&scratch).ok();
    match results.write_json(&out_dir, "recovery") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write BENCH_recovery.json into {out_dir}: {e}");
            std::process::exit(1);
        }
    }
}
