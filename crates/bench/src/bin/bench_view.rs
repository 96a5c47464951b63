//! Materialized-view perf trajectory: incremental delta-maintained reads
//! vs whole-base lens re-runs (10k / 100k rows), shard-pruned reads vs
//! whole-database assembly on 4 shards, and the cost of defining a view
//! against the cost of one copy of its base table. Emits
//! `BENCH_view.json` so successive PRs can watch the read path stay
//! incremental and view definition stay free of table copies.
//!
//! Why incremental wins: a lens `get` over a view with a projection
//! stage scans the whole base (O(rows)) per read, and the sharded read
//! path used to additionally clone and assemble every shard's database;
//! a maintained window folds in only the deltas committed since the
//! last read (O(changes)) and prunes untouched shards outright. The
//! acceptance gate asserts incremental reads beat full recomputation by
//! ≥ 5x at 100k rows.
//!
//! Defining a view compiles it against the table's schema and
//! materializes its window through the secondary index its select
//! stages ask for, so a select on an indexed column costs the rows it
//! selects, not the table. The second gate asserts such a define costs
//! at most half of one `engine.table(..)` copy at 100k rows.
//!
//! Usage: `cargo run --release -p esm-bench --bin bench_view [dir]`

use std::time::Instant;

use esm_bench::fmt_ns;
use esm_bench::results::BenchResults;
use esm_engine::{EngineServer, ShardRouter, ShardedEngineServer};
use esm_obs::{Histogram, HistogramSnapshot};
use esm_relational::ViewDef;
use esm_store::{row, Database, Operand, Predicate, Row, Schema, Table, Value, ValueType};

const READS: usize = 16;
const REPS: usize = 3;
const GATE_ROWS: i64 = 100_000;
const GATE_MIN_SPEEDUP: f64 = 5.0;
const DEFINE_REPS: usize = 5;
const DEFINE_GATE_MAX_COPIES: f64 = 0.5;

fn seed_db(rows: i64) -> Database {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("grp", ValueType::Int),
            ("val", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let rows: Vec<Row> = (0..rows).map(|i| row![i, i % 100, i * 7]).collect();
    let mut db = Database::new();
    db.create_table("kv", Table::from_rows(schema, rows).expect("valid rows"))
        .expect("fresh");
    db
}

/// A view whose lens `get` must scan the whole base: the projection
/// stage runs before the (selective) filter, so recomputation is
/// O(rows) while the maintained window stays at ~1% of the base.
fn view_def() -> ViewDef {
    ViewDef::base()
        .project(&["id", "grp"], &[("val", Value::Int(0))])
        .select(Predicate::eq(Operand::col("grp"), Operand::val(7i64)))
}

fn median(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    samples[samples.len() / 2]
}

/// Median ns per read over a commit-then-read loop: `materialized =
/// true` reads through the maintained window (`view.get()`),
/// `materialized = false` re-runs the compiled lens over a fresh base
/// snapshot — the deleted read path, measured as the baseline.
fn unsharded_read_ns(rows: i64, materialized: bool) -> (f64, HistogramSnapshot) {
    let per_read = Histogram::new();
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let engine = EngineServer::new(seed_db(rows));
            let def = view_def();
            let view = engine.define_view("hot", "kv", &def).expect("compiles");
            let lens = def
                .compile(&engine.table("kv").expect("exists"))
                .expect("compiles");
            view.get().expect("readable"); // warm the window
            let mut total = 0u128;
            for i in 0..READS as i64 {
                let key = (i * 131 + rep as i64) % rows;
                engine
                    .edit_view_optimistic("hot", 4, move |v| {
                        v.upsert(row![key, 7i64])?;
                        Ok(())
                    })
                    .expect("commits");
                let start = Instant::now();
                let window = if materialized {
                    view.get().expect("readable")
                } else {
                    lens.get(&engine.table("kv").expect("exists"))
                };
                let elapsed = start.elapsed().as_nanos();
                per_read.record(u64::try_from(elapsed).unwrap_or(u64::MAX));
                total += elapsed;
                assert!(
                    window.len() >= rows as usize / 100,
                    "window stayed populated"
                );
            }
            total as f64 / READS as f64
        })
        .collect();
    (median(samples), per_read.snapshot())
}

/// Median ns per read of a key-bounded view on a 4-shard engine:
/// `pruned = true` is the live path (one shard's maintained window),
/// `pruned = false` re-runs the lens over a whole-database assembly —
/// exactly what `read_view` used to do per read.
fn sharded_read_ns(rows: i64, pruned: bool) -> (f64, HistogramSnapshot) {
    let per_read = Histogram::new();
    let quarter = rows / 4;
    let samples: Vec<f64> = (0..REPS)
        .map(|rep| {
            let engine = ShardedEngineServer::with_router(
                seed_db(rows),
                ShardRouter::uniform_int(4, 0, rows).expect("router"),
            )
            .expect("sharded engine");
            let def =
                ViewDef::base().select(Predicate::lt(Operand::col("id"), Operand::val(quarter)));
            let view = engine.define_view("low", "kv", &def).expect("compiles");
            let lens = def
                .compile(&engine.table("kv").expect("exists"))
                .expect("compiles");
            view.get().expect("readable"); // warm the windows
            let mut total = 0u128;
            for i in 0..READS as i64 {
                let key = (i * 131 + rep as i64) % quarter;
                engine
                    .transact_keys(&[row![key]], 4, move |db| {
                        db.table_mut("kv")?.upsert(row![key, 7i64, -1])?;
                        Ok(())
                    })
                    .expect("commits");
                let start = Instant::now();
                let window = if pruned {
                    view.get().expect("readable")
                } else {
                    let snap = engine.snapshot();
                    lens.get(snap.table("kv").expect("exists"))
                };
                let elapsed = start.elapsed().as_nanos();
                per_read.record(u64::try_from(elapsed).unwrap_or(u64::MAX));
                total += elapsed;
                assert_eq!(window.len(), quarter as usize);
            }
            total as f64 / READS as f64
        })
        .collect();
    (median(samples), per_read.snapshot())
}

/// Median ns to define a select view on an already-indexed column
/// (`grp = 7` first builds the index, then `grp = 8` is timed), and
/// median ns of one `engine.table("kv")` copy, on a one-shard engine.
fn define_vs_copy_ns(rows: i64) -> (f64, f64) {
    let engine = EngineServer::new(seed_db(rows));
    let by_grp =
        |g: i64| ViewDef::base().select(Predicate::eq(Operand::col("grp"), Operand::val(g)));
    engine
        .define_view("grp7", "kv", &by_grp(7))
        .expect("compiles");
    let define: Vec<f64> = (0..DEFINE_REPS)
        .map(|rep| {
            let start = Instant::now();
            let view = engine
                .define_view(format!("grp8-{rep}"), "kv", &by_grp(8))
                .expect("compiles");
            let elapsed = start.elapsed().as_nanos() as f64;
            assert_eq!(view.get().expect("readable").len(), rows as usize / 100);
            elapsed
        })
        .collect();
    let copy: Vec<f64> = (0..DEFINE_REPS)
        .map(|_| {
            let start = Instant::now();
            let table = engine.table("kv").expect("exists");
            let elapsed = start.elapsed().as_nanos() as f64;
            assert_eq!(table.len(), rows as usize);
            elapsed
        })
        .collect();
    (median(define), median(copy))
}

fn main() {
    let out_dir = std::env::args().nth(1).unwrap_or_else(|| ".".to_string());
    let mut results = BenchResults::new();
    let mut gate_speedup = 0.0;

    for rows in [10_000i64, 100_000] {
        let (incremental, inc_hist) = unsharded_read_ns(rows, true);
        let (full, full_hist) = unsharded_read_ns(rows, false);
        let speedup = full / incremental;
        if rows == GATE_ROWS {
            gate_speedup = speedup;
        }
        for (label, ns, hist) in [
            ("incremental", incremental, &inc_hist),
            ("full_rerun", full, &full_hist),
        ] {
            results.record_tailed(
                format!("view/read/{label}/{rows}"),
                ns,
                hist,
                format!("{READS} commit+read cycles, ~1% window, {rows} rows"),
            );
        }
        println!(
            "unsharded {rows:>6} rows: incremental {}/read (p99 {}) vs full re-run {}/read ({speedup:.1}x)",
            fmt_ns(incremental),
            fmt_ns(inc_hist.p99() as f64),
            fmt_ns(full)
        );
    }

    let (pruned, pruned_hist) = sharded_read_ns(GATE_ROWS, true);
    let (assembled, assembled_hist) = sharded_read_ns(GATE_ROWS, false);
    results.record_tailed(
        format!("view/shard_read/pruned/{GATE_ROWS}"),
        pruned,
        &pruned_hist,
        "key-bounded view, 4 shards, 1 consulted".to_string(),
    );
    results.record_tailed(
        format!("view/shard_read/whole_assembly/{GATE_ROWS}"),
        assembled,
        &assembled_hist,
        "same view via whole-database assembly + lens get".to_string(),
    );
    println!(
        "sharded  {GATE_ROWS:>6} rows: pruned {}/read (p99 {}) vs whole-assembly {}/read ({:.1}x)",
        fmt_ns(pruned),
        fmt_ns(pruned_hist.p99() as f64),
        fmt_ns(assembled),
        assembled / pruned
    );

    let mut gate_define_copies = f64::INFINITY;
    for rows in [10_000i64, 100_000] {
        let (define, copy) = define_vs_copy_ns(rows);
        let copies = define / copy;
        if rows == GATE_ROWS {
            gate_define_copies = copies;
        }
        results.record(
            format!("view/define/{rows}"),
            define,
            format!("select on an indexed column (~1% window), {rows} rows, one shard"),
        );
        results.record(
            format!("view/table_clone/{rows}"),
            copy,
            format!("one engine.table copy, {rows} rows, one shard"),
        );
        println!(
            "define   {rows:>6} rows: define_view {} vs one table copy {} ({copies:.2} copies)",
            fmt_ns(define),
            fmt_ns(copy)
        );
    }

    // The acceptance gates: maintained windows must beat whole-base
    // recomputation by at least 5x at 100k rows, and defining a view on
    // an indexed column must cost at most half of one table copy.
    assert!(
        gate_speedup >= GATE_MIN_SPEEDUP,
        "incremental reads must be >= {GATE_MIN_SPEEDUP}x full recomputation at {GATE_ROWS} rows \
         (got {gate_speedup:.2}x)"
    );
    assert!(
        gate_define_copies <= DEFINE_GATE_MAX_COPIES,
        "defining an indexed select view must cost <= {DEFINE_GATE_MAX_COPIES} table copies at \
         {GATE_ROWS} rows (got {gate_define_copies:.2})"
    );

    match results.write_json(&out_dir, "view") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write BENCH_view.json into {out_dir}: {e}");
            std::process::exit(1);
        }
    }
}
