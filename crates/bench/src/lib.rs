//! Shared workloads and a micro-timing harness for the experiment suite.
//!
//! Every table (T1–T4) and figure (F1–F3) of EXPERIMENTS.md has:
//! * a Criterion bench target in `benches/` (statistically careful), and
//! * a row/series printed by the `experiments` binary (quick medians,
//!   used to fill EXPERIMENTS.md reproducibly).
//!
//! Both consume the workload constructors in this library so they measure
//! the same code.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod results;

use std::time::Instant;

use esm_core::state::{SbxOps, StateBx};
use esm_lens::Lens;
use esm_relational::ViewDef;
use esm_store::{Database, Operand, Predicate, Table, Value};

/// A (quantity, unit-price) inventory record: the running example state.
pub type Item = (u32, u32);

/// The inventory bx as a monomorphic ops-level implementation (static
/// dispatch): A = quantity, B = total price.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct InventoryOps;

impl SbxOps<Item, u32, u32> for InventoryOps {
    fn view_a(&self, s: &Item) -> u32 {
        s.0
    }
    fn view_b(&self, s: &Item) -> u32 {
        s.0 * s.1
    }
    fn update_a(&self, s: Item, a: u32) -> Item {
        (a, s.1)
    }
    fn update_b(&self, s: Item, b: u32) -> Item {
        (b / s.1, s.1)
    }
}

/// The same inventory bx, type-erased (dynamic dispatch).
pub fn inventory_dyn() -> StateBx<Item, u32, u32> {
    StateBx::from_ops(InventoryOps)
}

/// A chain of `depth` invertible integer lenses (`x -> x + k` stages),
/// composed with [`Lens::then`]. `get`/`put` traverse every stage.
pub fn lens_chain(depth: usize) -> Lens<i64, i64> {
    let mut l = esm_lens::combinators::id::<i64>();
    for k in 0..depth {
        let k = k as i64 + 1;
        let stage: Lens<i64, i64> = Lens::new(move |s: &i64| s + k, move |_s, v| v - k);
        l = l.then(stage);
    }
    l
}

/// The transformation a `lens_chain(depth)` computes, fused into a single
/// lens (the baseline an optimising composition would produce).
pub fn fused_chain(depth: usize) -> Lens<i64, i64> {
    let total: i64 = (1..=depth as i64).sum();
    Lens::new(move |s: &i64| s + total, move |_s, v| v - total)
}

// ---------------------------------------------------------------------
// Engine workloads (E1): concurrent entangled views over one base table.
// ---------------------------------------------------------------------

/// A people table of `n` rows whose `age` column is selective: ids are
/// dense, ages cycle `0..100`.
pub fn people_table(n: usize) -> Table {
    esm_relational::testgen::gen_people(99, n)
}

/// The selective predicate the indexed-select benches probe: an equality
/// on `age` matching ~1% of rows.
pub fn selective_age_pred() -> Predicate {
    Predicate::eq(Operand::col("age"), Operand::val(41))
}

/// An engine over one `people` table of `n` rows, with one select view
/// per age band (`shards` bands over ages `0..100`) and a whole-table
/// view named `all`.
pub fn engine_with_shard_views(n: usize, shards: usize) -> esm_engine::EngineServer {
    let mut db = Database::new();
    db.create_table("people", people_table(n))
        .expect("fresh table");
    let engine = esm_engine::EngineServer::new(db);
    let band = 100 / shards.max(1) as i64;
    for s in 0..shards.max(1) {
        let lo = s as i64 * band;
        let hi = lo + band;
        engine
            .define_view(
                format!("band_{s}"),
                "people",
                &ViewDef::base().select(
                    Predicate::ge(Operand::col("age"), Operand::val(lo))
                        .and(Predicate::lt(Operand::col("age"), Operand::val(hi))),
                ),
            )
            .expect("view compiles");
    }
    engine
        .define_view("all", "people", &ViewDef::base())
        .expect("view compiles");
    engine
}

/// Run `writes` upserts of distinct keys through each of `threads`
/// workers, each via its own entangled view handle. Returns total commits.
pub fn run_concurrent_engine_workload(
    engine: &esm_engine::EngineServer,
    threads: usize,
    writes: usize,
) -> u64 {
    let before = engine.metrics().commits;
    let shards = engine
        .view_names()
        .into_iter()
        .filter(|v| v.starts_with("band_"))
        .count();
    std::thread::scope(|scope| {
        for t in 0..threads {
            let view = engine
                .view(&format!("band_{}", t % shards.max(1)))
                .expect("registered");
            scope.spawn(move || {
                let band = 100 / shards.max(1) as i64;
                let lo = ((t % shards.max(1)) as i64) * band;
                for i in 0..writes {
                    let id = 1_000_000 + (t * writes + i) as i64;
                    view.edit(|v| {
                        v.upsert(vec![
                            Value::Int(id),
                            Value::str(format!("w{t}_{i}")),
                            Value::Int(lo),
                        ])?;
                        Ok(())
                    })
                    .expect("edit commits");
                }
            });
        }
    });
    engine.metrics().commits - before
}

/// Median wall-clock nanoseconds per call of `f`, over `reps` batches of
/// `batch` calls (quick harness for the `experiments` binary; the
/// Criterion benches are the careful version).
pub fn median_ns_per_call(reps: usize, batch: usize, mut f: impl FnMut()) -> f64 {
    assert!(reps >= 1 && batch >= 1);
    let mut samples: Vec<f64> = (0..reps)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..batch {
                f();
            }
            start.elapsed().as_nanos() as f64 / batch as f64
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).expect("durations are finite"));
    samples[samples.len() / 2]
}

/// Render one markdown table row.
pub fn md_row(cells: &[String]) -> String {
    format!("| {} |", cells.join(" | "))
}

/// Format nanoseconds human-readably.
pub fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.0} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} µs", ns / 1_000.0)
    } else {
        format!("{:.2} ms", ns / 1_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_core::state::SbxOps;

    #[test]
    fn inventory_static_and_dyn_agree() {
        let s = (4u32, 25u32);
        let stat = InventoryOps;
        let dynb = inventory_dyn();
        assert_eq!(stat.view_b(&s), dynb.view_b(&s));
        assert_eq!(stat.update_b(s, 200), dynb.update_b(s, 200));
    }

    #[test]
    fn lens_chain_matches_fused_baseline() {
        for depth in [0, 1, 4, 16] {
            let chain = lens_chain(depth);
            let fused = fused_chain(depth);
            for s in [-3i64, 0, 10] {
                assert_eq!(chain.get(&s), fused.get(&s));
                assert_eq!(chain.put(s, 99), fused.put(s, 99));
            }
        }
    }

    #[test]
    fn median_timer_returns_positive_numbers() {
        let ns = median_ns_per_call(3, 10, || {
            std::hint::black_box(1 + 1);
        });
        assert!(ns >= 0.0);
    }

    #[test]
    fn engine_workload_commits_every_write() {
        let engine = engine_with_shard_views(200, 4);
        let commits = run_concurrent_engine_workload(&engine, 4, 5);
        assert_eq!(commits, 4 * 5);
        // The WAL replays over the seed to the live state.
        let mut seed = Database::new();
        seed.create_table("people", people_table(200)).unwrap();
        assert_eq!(
            engine.shard_wals()[0].replay(&seed).unwrap(),
            engine.snapshot()
        );
        // Registering the band views indexed no column of the base.
        assert!(engine.table("people").unwrap().indexed_columns().is_empty());
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_ns(12.0), "12 ns");
        assert_eq!(fmt_ns(2_500.0), "2.50 µs");
        assert_eq!(fmt_ns(3_000_000.0), "3.00 ms");
        assert_eq!(md_row(&["a".into(), "b".into()]), "| a | b |");
    }
}
