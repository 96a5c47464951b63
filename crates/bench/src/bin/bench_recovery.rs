//! Recovery perf trajectory: replay-from-genesis vs checkpointed
//! recovery over the same committed history. Emits `BENCH_recovery.json`
//! so successive PRs can watch the replay shortcut stay a shortcut.
//!
//! Usage: `cargo run --release -p esm-bench --bin bench_recovery [dir]`

use esm_bench::results::BenchResults;
use esm_bench::{fmt_ns, median_ns_per_call};
use esm_engine::{DurabilityConfig, RecoveryReport, ShardRouter, ShardedEngineServer};
use esm_relational::ViewDef;
use esm_store::{row, Database, Schema, Table, ValueType};

const COMMITS: usize = 400;

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

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
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

    std::fs::remove_dir_all(&scratch).ok();
    match results.write_json(&out_dir, "recovery") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write BENCH_recovery.json into {out_dir}: {e}");
            std::process::exit(1);
        }
    }
}
