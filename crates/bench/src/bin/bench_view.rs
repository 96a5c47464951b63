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
//! materializes its window in one pass of `Table::select`, which builds
//! no index: a select on a non-key column scans the table, deciding
//! each row with the predicate bound to the schema once, and copies only
//! the rows it keeps. The second gate asserts such a define (`grp = 8`,
//! a 1% window) costs at most half of one deep copy of the table — a
//! rebuild from its rows — at 100k rows. (`engine.table(..)` shares the
//! table's chunks, so it is recorded as `view/table_clone` but is no
//! longer a copy to compare against.) A select that bounds the key
//! seeks instead: the third gate asserts that defining a 16-row
//! key-range view (`id >= lo and id < lo + 16`) as the first view of a
//! fresh engine costs at most 2x as much at 100k rows as at 10k.
//!
//! The sweep times one-row in-process ops on one table
//! `kv(id, band, val)` with a band view over 1/16 of the rows and a
//! 16-row key-bounded view, at 256, 4,096 and 65,536 rows: `transact`,
//! an edit through each view, a `write_view` of the band window (read
//! it, upsert one row, time only the put — the paper's `set`),
//! `read_view`, `snapshot` and `commit_checked` (with a snapshot held
//! across it, so the commit copies the chunk it writes). Each op is the
//! median of 41, and keeps its best of 3 rounds that interleave the
//! sizes. Its gates: a `transact` and a 16-row-window edit at 65,536
//! rows cost within 2x of 256 rows; a band edit and a band `write_view`
//! at 65,536 rows (a 4,096-row window) within 2x of 4,096 rows (a
//! 256-row window, the first that fills a chunk) — both run the one
//! edit loop, which ships and commits the window delta, so their cost
//! follows the change, not the window; `commit_checked` stays within 3x
//! across the sweep; and a `snapshot` at 65,536 rows costs at most 0.05
//! of a deep copy.
//!
//! Usage: `cargo run --release -p esm-bench --bin bench_view [dir]`

use std::time::Instant;

use esm_bench::fmt_ns;
use esm_bench::results::BenchResults;
use esm_engine::{Engine, EngineServer, ShardRouter, ShardedEngineServer};
use esm_obs::{Histogram, HistogramSnapshot};
use esm_relational::ViewDef;
use esm_store::{row, Database, Delta, Operand, Predicate, Row, Schema, Table, Value, ValueType};

const READS: usize = 16;
const REPS: usize = 3;
const GATE_ROWS: i64 = 100_000;
const GATE_MIN_SPEEDUP: f64 = 5.0;
const DEFINE_REPS: usize = 5;
const DEFINE_GATE_MAX_COPIES: f64 = 0.5;
/// Table sizes the key-range define is timed at, and the fresh engines
/// it is timed on per size.
const KEY_RANGE_ROWS: [i64; 2] = [10_000, 100_000];
const KEY_RANGE_ENGINES: usize = 7;
const KEY_RANGE_MAX_SLOPE: f64 = 2.0;
const SWEEP_ROWS: [i64; 3] = [256, 4_096, 65_536];
const SWEEP_OPS: usize = 41;
const SWEEP_ROUNDS: usize = 3;
const SWEEP_MAX_SLOPE: f64 = 2.0;
/// Looser than [`SWEEP_MAX_SLOPE`]: each swept `commit_checked` copies
/// its chunk away from the snapshot held across it, a chunk that is hot
/// in cache at 256 rows and cold at 65,536.
const COMMIT_CHECKED_MAX_SLOPE: f64 = 3.0;
const SNAPSHOT_GATE_MAX_COPIES: f64 = 0.05;
const BANDS: i64 = 16;

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

/// A deep copy of `table`: a rebuild from its rows, sharing nothing.
fn deep_copy(table: &Table) -> Table {
    Table::from_rows(table.schema().clone(), table.rows().cloned()).expect("rows fit their schema")
}

/// Median ns to define a select view on a non-key column (`grp = 8`, a
/// scan keeping 1% of the rows, after an untimed `grp = 7` define),
/// median ns of one deep copy of the table, and median ns of one
/// `engine.table("kv")` (a chunk-sharing clone), on a one-shard engine.
fn define_vs_copy_ns(rows: i64) -> (f64, f64, f64) {
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
    let table = engine.table("kv").expect("exists");
    let copy: Vec<f64> = (0..DEFINE_REPS)
        .map(|_| {
            let start = Instant::now();
            let copied = deep_copy(&table);
            let elapsed = start.elapsed().as_nanos() as f64;
            assert_eq!(copied.len(), rows as usize);
            elapsed
        })
        .collect();
    let clone: Vec<f64> = (0..DEFINE_REPS)
        .map(|_| {
            let start = Instant::now();
            let table = engine.table("kv").expect("exists");
            let elapsed = start.elapsed().as_nanos() as f64;
            assert_eq!(table.len(), rows as usize);
            elapsed
        })
        .collect();
    (median(define), median(copy), median(clone))
}

/// Median ns to define a 16-row key-range view (`id >= lo and
/// id < lo + 16`, mid-table) as the first view of a fresh one-shard
/// engine, at each of [`KEY_RANGE_ROWS`], over [`KEY_RANGE_ENGINES`]
/// engines per size. Every engine is built before any is timed, and the
/// defines alternate the sizes, so no size is timed just after a table
/// was built or dropped (the allocator's and the caches' state then
/// differ by size).
fn key_range_define_ns() -> [f64; 2] {
    let engines: Vec<(usize, EngineServer)> = (0..KEY_RANGE_ENGINES)
        .flat_map(|_| (0..2).map(|size| (size, EngineServer::new(seed_db(KEY_RANGE_ROWS[size])))))
        .collect();
    let mut samples = [Vec::new(), Vec::new()];
    for (size, engine) in &engines {
        let lo = KEY_RANGE_ROWS[*size] / 2;
        let def = ViewDef::base().select(
            Predicate::ge(Operand::col("id"), Operand::val(lo))
                .and(Predicate::lt(Operand::col("id"), Operand::val(lo + 16))),
        );
        let start = Instant::now();
        let view = engine.define_view("range", "kv", &def).expect("compiles");
        samples[*size].push(start.elapsed().as_nanos() as f64);
        assert_eq!(view.get().expect("readable").len(), 16);
    }
    samples.map(median)
}

/// The sweep's ops, in report order.
const SWEEP_NAMES: [&str; 8] = [
    "transact",
    "window_edit",
    "band_edit",
    "write_view",
    "read_view",
    "snapshot",
    "commit_checked",
    "deep_copy",
];

/// Median ns of each [`SWEEP_NAMES`] op at `rows` rows: `SWEEP_OPS`
/// one-row ops of each kind on a one-shard in-memory engine over
/// `kv(id, band, val)` (`band = id % 16`) with a band view `band = 3`
/// and a 16-row view on an `id` range. Each op writes a different row,
/// spread over the table.
fn sweep_ns(rows: i64) -> [f64; 8] {
    let schema = Schema::build(
        &[
            ("id", ValueType::Int),
            ("band", ValueType::Int),
            ("val", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid schema");
    let seed: Vec<Row> = (0..rows).map(|i| row![i, i % BANDS, i]).collect();
    let mut db = Database::new();
    db.create_table("kv", Table::from_rows(schema, seed).expect("valid rows"))
        .expect("fresh");
    let engine = EngineServer::new(db);
    let lo = rows / 2;
    let band = ViewDef::base().select(Predicate::eq(Operand::col("band"), Operand::val(3i64)));
    let window = ViewDef::base().select(
        Predicate::ge(Operand::col("id"), Operand::val(lo))
            .and(Predicate::lt(Operand::col("id"), Operand::val(lo + 16))),
    );
    engine.define_view("band", "kv", &band).expect("compiles");
    engine
        .define_view("window", "kv", &window)
        .expect("compiles");
    // Op `i` writes row `spread(i)`: a stride coprime to the table size
    // visits rows all over the key range.
    let spread = |i: usize| (i as i64 * 7_919) % rows;
    let time = |op: &mut dyn FnMut(usize)| -> f64 {
        let samples = (0..SWEEP_OPS)
            .map(|i| {
                let start = Instant::now();
                op(i);
                start.elapsed().as_nanos() as f64
            })
            .collect();
        median(samples)
    };
    let transact = time(&mut |i| {
        let key = spread(i);
        engine
            .transact(4, |db| {
                db.table_mut("kv")?
                    .upsert(row![key, key % BANDS, -(i as i64)])?;
                Ok(())
            })
            .expect("commits");
    });
    let window_edit = time(&mut |i| {
        let key = lo + i as i64 % 16;
        engine
            .edit_view_optimistic("window", 4, |v| {
                v.upsert(row![key, key % BANDS, -(i as i64) - 1_000])?;
                Ok(())
            })
            .expect("commits");
    });
    let band_edit = time(&mut |i| {
        let key = spread(i) / BANDS * BANDS + 3;
        engine
            .edit_view_optimistic("band", 4, |v| {
                v.upsert(row![key, 3i64, -(i as i64) - 2_000])?;
                Ok(())
            })
            .expect("commits");
    });
    let mut puts = Vec::with_capacity(SWEEP_OPS);
    for i in 0..SWEEP_OPS {
        let key = spread(i) / BANDS * BANDS + 3;
        let mut window = engine.read_view("band").expect("readable");
        window
            .upsert(row![key, 3i64, -(i as i64) - 4_000])
            .expect("fits");
        let start = Instant::now();
        engine.write_view("band", window).expect("commits");
        puts.push(start.elapsed().as_nanos() as f64);
    }
    let read_view = time(&mut |_| {
        let w = engine.read_view("band").expect("readable");
        assert_eq!(w.len() as i64, rows / BANDS);
    });
    let snapshot = time(&mut |_| {
        let snap = engine.snapshot();
        assert_eq!(snap.len(), 1);
    });
    let mut checked = Vec::with_capacity(SWEEP_OPS);
    for i in 0..SWEEP_OPS {
        let key = spread(i);
        let held = engine.snapshot();
        let old = held
            .table("kv")
            .expect("exists")
            .get_by_key(&row![key])
            .expect("seeded")
            .clone();
        let delta = Delta {
            inserted: vec![row![key, key % BANDS, -(i as i64) - 3_000]],
            deleted: vec![old],
        };
        let start = Instant::now();
        engine
            .commit_checked(&[("kv".to_string(), delta)])
            .expect("commits");
        checked.push(start.elapsed().as_nanos() as f64);
        drop(held);
    }
    let table = engine.table("kv").expect("exists");
    let deep = time(&mut |_| {
        assert_eq!(deep_copy(&table).len() as i64, rows);
    });
    [
        transact,
        window_edit,
        band_edit,
        median(puts),
        read_view,
        snapshot,
        median(checked),
        deep,
    ]
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
        let (define, copy, clone) = define_vs_copy_ns(rows);
        let copies = define / copy;
        if rows == GATE_ROWS {
            gate_define_copies = copies;
        }
        results.record(
            format!("view/define/{rows}"),
            define,
            format!("select on a non-key column (~1% window), {rows} rows, one shard"),
        );
        results.record(
            format!("view/table_deep_copy/{rows}"),
            copy,
            format!("one rebuild of the table from its rows, {rows} rows"),
        );
        results.record(
            format!("view/table_clone/{rows}"),
            clone,
            format!("one engine.table (shares the table's chunks), {rows} rows, one shard"),
        );
        println!(
            "define   {rows:>6} rows: define_view {} vs one deep copy {} ({copies:.2} copies); \
             engine.table {}",
            fmt_ns(define),
            fmt_ns(copy),
            fmt_ns(clone)
        );
    }

    let key_range_define = key_range_define_ns();
    for (rows, ns) in KEY_RANGE_ROWS.iter().zip(key_range_define) {
        results.record(
            format!("view/define_key_range/{rows}"),
            ns,
            format!(
                "16-row key-range select as the first view, median of {KEY_RANGE_ENGINES} \
                 fresh engines, {rows} rows, one shard"
            ),
        );
        println!(
            "define   {rows:>6} rows: 16-row key-range view {}",
            fmt_ns(ns)
        );
    }
    let key_range_slope = key_range_define[1] / key_range_define[0];

    // Rounds interleave the sizes, and each op keeps its best round, so
    // a stretch of host contention cannot land on one size alone.
    let mut sweep = vec![[f64::INFINITY; 8]; SWEEP_ROWS.len()];
    for _ in 0..SWEEP_ROUNDS {
        for (best, &rows) in sweep.iter_mut().zip(&SWEEP_ROWS) {
            for (b, ns) in best.iter_mut().zip(sweep_ns(rows)) {
                *b = b.min(ns);
            }
        }
    }
    for (rows, ops) in SWEEP_ROWS.iter().zip(&sweep) {
        for (name, ns) in SWEEP_NAMES.iter().zip(ops) {
            results.record(
                format!("view/sweep/{name}/{rows}"),
                *ns,
                format!(
                    "median of {SWEEP_OPS} one-row ops, best of {SWEEP_ROUNDS} rounds, \
                     {rows} rows, one shard"
                ),
            );
        }
        let line: Vec<String> = SWEEP_NAMES
            .iter()
            .zip(ops)
            .map(|(name, ns)| format!("{name} {}", fmt_ns(*ns)))
            .collect();
        println!("sweep    {rows:>6} rows: {}", line.join(", "));
    }
    let (small, large) = (&sweep[0], &sweep[SWEEP_ROWS.len() - 1]);
    let slope = |op: usize| large[op] / small[op];
    // The band window is 1/16 of the table, so at 256 rows the edit and
    // the put copy a 16-row chunk; their gates start at 4,096 rows, the
    // first size whose window fills a chunk.
    let band_slope = |op: usize| large[op] / sweep[1][op];
    let snapshot_copies = large[5] / large[7];

    // The acceptance gates: maintained windows must beat whole-base
    // recomputation by at least 5x at 100k rows, defining a view on a
    // non-key column must cost at most half of one table copy, and
    // defining a key-range view must cost its window, not the table.
    assert!(
        gate_speedup >= GATE_MIN_SPEEDUP,
        "incremental reads must be >= {GATE_MIN_SPEEDUP}x full recomputation at {GATE_ROWS} rows \
         (got {gate_speedup:.2}x)"
    );
    assert!(
        gate_define_copies <= DEFINE_GATE_MAX_COPIES,
        "defining a select view on a non-key column must cost <= {DEFINE_GATE_MAX_COPIES} deep \
         table copies at {GATE_ROWS} rows (got {gate_define_copies:.2})"
    );
    assert!(
        key_range_slope <= KEY_RANGE_MAX_SLOPE,
        "defining a 16-row key-range view at {} rows must cost <= {KEY_RANGE_MAX_SLOPE}x the \
         same define at {} rows (got {key_range_slope:.2}x)",
        KEY_RANGE_ROWS[1],
        KEY_RANGE_ROWS[0]
    );
    // The sweep gates: one-row commits and small-window edits cost the
    // change, not the table.
    for (op, name, bound) in [
        (0, "transact", SWEEP_MAX_SLOPE),
        (1, "16-row-window edit", SWEEP_MAX_SLOPE),
        (6, "commit_checked", COMMIT_CHECKED_MAX_SLOPE),
    ] {
        assert!(
            slope(op) <= bound,
            "a one-row {name} at {} rows must cost <= {bound}x the same op at {} rows \
             (got {:.2}x)",
            SWEEP_ROWS[2],
            SWEEP_ROWS[0],
            slope(op)
        );
    }
    for (op, name) in [(2, "band edit"), (3, "band write_view")] {
        assert!(
            band_slope(op) <= SWEEP_MAX_SLOPE,
            "a one-row {name} at {} rows must cost <= {SWEEP_MAX_SLOPE}x the same op at {} rows \
             (got {:.2}x)",
            SWEEP_ROWS[2],
            SWEEP_ROWS[1],
            band_slope(op)
        );
    }
    assert!(
        snapshot_copies <= SNAPSHOT_GATE_MAX_COPIES,
        "a snapshot at {} rows must cost <= {SNAPSHOT_GATE_MAX_COPIES} deep table copies \
         (got {snapshot_copies:.3})",
        SWEEP_ROWS[2]
    );

    match results.write_json(&out_dir, "view") {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("error: cannot write BENCH_view.json into {out_dir}: {e}");
            std::process::exit(1);
        }
    }
}
