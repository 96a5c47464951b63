//! Differential properties of the copy-on-write storage: `CowMap` against
//! `std::collections::BTreeMap`, chunk-skipping diffs against diffs of
//! deep rebuilds, index probes against predicate scans, one-pass table
//! builds against per-row inserts, and coalesced delta runs against the
//! diff of their end points.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::{Bound, RangeBounds};

use proptest::prelude::*;

use esm_store::{
    CowMap, Delta, IndexProbe, Operand, Order, Predicate, Row, Schema, Table, Value, ValueType,
};

/// `(key, value)` pairs ordered by key: a `CowMap` from `i64` to `i64`.
#[derive(Clone, Copy, Default)]
struct ByKey;

impl Order<(i64, i64)> for ByKey {
    fn cmp(&self, a: &(i64, i64), b: &(i64, i64)) -> Ordering {
        a.0.cmp(&b.0)
    }
}

/// A `CowMap` from `i64` to `i64`.
type PairMap = CowMap<(i64, i64), ByKey>;

/// Rows ordered by their first cell.
#[derive(Clone, Copy, Default)]
struct ByFirstCell;

impl Order<Row> for ByFirstCell {
    fn cmp(&self, a: &Row, b: &Row) -> Ordering {
        a[0].cmp(&b[0])
    }
}

/// The `CowMap` probe seeking key `k`.
fn key(k: i64) -> impl Fn(&(i64, i64)) -> Ordering {
    move |e| e.0.cmp(&k)
}

/// Does key `k` sort before `bound`, taken as a range's start?
fn before_start(bound: Bound<i64>, k: i64) -> bool {
    match bound {
        Bound::Included(b) => k < b,
        Bound::Excluded(b) => k <= b,
        Bound::Unbounded => false,
    }
}

/// Does key `k` sort before `bound`, taken as a range's end?
fn before_end(bound: Bound<i64>, k: i64) -> bool {
    match bound {
        Bound::Included(b) => k <= b,
        Bound::Excluded(b) => k < b,
        Bound::Unbounded => true,
    }
}

/// Long enough, over a small enough key space, that chunks of 256 split
/// and fold many times per case.
fn arb_ops() -> impl Strategy<Value = Vec<(u8, i64, i64)>> {
    proptest::collection::vec((0u8..8, 0i64..1_500, 0i64..1_000), 0..3_000)
}

fn bound(kind: i64, k: i64) -> Bound<i64> {
    match kind % 3 {
        0 => Bound::Included(k),
        1 => Bound::Excluded(k),
        _ => Bound::Unbounded,
    }
}

fn schema() -> Schema {
    Schema::build(
        &[
            ("id", ValueType::Int),
            ("grp", ValueType::Int),
            ("score", ValueType::Int),
        ],
        &["id"],
    )
    .expect("valid")
}

/// A table of `n` rows with indexes on `grp` and `score`.
fn indexed_table(n: i64) -> Table {
    let rows = (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 5), Value::Int(i * 3 % 97)]);
    let mut t = Table::from_rows(schema(), rows).expect("distinct keys");
    t.create_index("grp").expect("column exists");
    t.create_index("score").expect("column exists");
    t
}

/// A deep copy: the same rows rebuilt into a fresh table, sharing
/// nothing and carrying no index.
fn rebuild(t: &Table) -> Table {
    Table::from_rows(t.schema().clone(), t.rows().cloned()).expect("rows fit")
}

/// Apply one generated edit to `t`.
fn edit(t: &mut Table, kind: u8, id: i64, v: i64) {
    match kind % 4 {
        0 | 1 => {
            t.upsert(vec![Value::Int(id), Value::Int(v % 5), Value::Int(v % 97)])
                .expect("row fits");
        }
        2 => {
            t.delete_by_key(&vec![Value::Int(id)]);
        }
        _ => {
            // Re-upsert the row as it is: a no-op write.
            if let Some(row) = t.get_by_key(&vec![Value::Int(id)]).cloned() {
                t.upsert(row).expect("row fits");
            }
        }
    }
}

/// A generated probe on `grp` or `score`, with the value range it
/// selects (equality is `[v, v]`).
fn probe_of(kind: u8, a: i64, b: i64) -> (IndexProbe, (Bound<Value>, Bound<Value>)) {
    let (col, range) = match kind % 4 {
        0 => ("grp", (Bound::Included(a % 5), Bound::Included(a % 5))),
        1 => ("score", (Bound::Included(a % 97), Bound::Included(a % 97))),
        2 => ("grp", (bound(a, a % 6), bound(b, b % 6))),
        _ => ("score", (bound(a, a % 100), bound(b, b % 100))),
    };
    let range = (range.0.map(Value::Int), range.1.map(Value::Int));
    let probe = match (kind % 4, &range.0) {
        (0 | 1, Bound::Included(v)) => IndexProbe::eq(col, v.clone()),
        _ => IndexProbe::range(col, range.0.clone(), range.1.clone()),
    };
    (probe, range)
}

/// Every probe serves exactly the keys a scan of the rows finds.
fn assert_probes_match_scans(t: &Table, probes: &[(u8, i64, i64)]) {
    for &(kind, a, b) in probes {
        let (probe, range) = probe_of(kind, a, b);
        let idx = t.index(&probe.column).expect("indexed");
        let mut served: Vec<Row> = idx.keys_for(&probe).map(<[Value]>::to_vec).collect();
        served.sort();
        let col = t.schema().index_of(&probe.column).expect("column exists");
        let scanned: Vec<Row> = t
            .rows()
            .filter(|r| range.contains(&r[col]))
            .map(|r| t.key_of(r))
            .collect();
        assert_eq!(served, scanned, "probe {probe:?}");
        assert_eq!(idx.entry_count(), t.len());
    }
}

proptest! {
    #[test]
    fn cow_map_matches_btree_map_and_clones_stay_put(ops in arb_ops()) {
        let mut map = PairMap::default();
        let mut model: BTreeMap<i64, i64> = BTreeMap::new();
        let mut clones: Vec<(PairMap, BTreeMap<i64, i64>)> = Vec::new();
        let pairs = |m: &BTreeMap<i64, i64>| m.iter().map(|(&k, &v)| (k, v)).collect::<Vec<_>>();
        for (step, &(kind, k, v)) in ops.iter().enumerate() {
            match kind {
                0 | 1 => prop_assert_eq!(map.insert((k, v)), model.insert(k, v).map(|old| (k, old))),
                2 => {
                    // An equal value writes nothing and comes back.
                    let v = if v % 2 == 0 { model.get(&k).copied().unwrap_or(v) } else { v };
                    let want = if model.get(&k) == Some(&v) {
                        Err((k, v))
                    } else {
                        Ok(model.insert(k, v).map(|old| (k, old)))
                    };
                    prop_assert_eq!(map.insert_changed((k, v)), want);
                }
                3 | 4 => prop_assert_eq!(map.remove(key(k)), model.remove(&k).map(|old| (k, old))),
                5 => {
                    // Bounds may cross: such a range selects nothing.
                    let range = (bound(v, k), bound(v / 3, k + v - 300));
                    let got: Vec<_> = map
                        .range(move |e| before_start(range.0, e.0), move |e| before_end(range.1, e.0))
                        .copied()
                        .collect();
                    let want: Vec<_> = model
                        .iter()
                        .filter(|(key, _)| range.contains(*key))
                        .map(|(&k, &v)| (k, v))
                        .collect();
                    prop_assert_eq!(got, want);
                }
                6 => {
                    if step % 7 == 0 {
                        // Keep the lower half, and check the upper one.
                        let upper = map.split_off(|e| e.0 < k);
                        let model_upper = model.split_off(&k);
                        prop_assert!(upper.iter().copied().eq(pairs(&model_upper)));
                        prop_assert_eq!(upper.len(), model_upper.len());
                    }
                }
                _ => clones.push((map.clone(), model.clone())),
            }
            prop_assert_eq!(map.len(), model.len());
            prop_assert_eq!(map.get(key(k)).map(|e| e.1), model.get(&k).copied());
        }
        prop_assert!(map.iter().copied().eq(pairs(&model)));
        let mid = model.len() / 2;
        prop_assert_eq!(map.entry_at(mid).map(|e| e.0), model.keys().nth(mid).copied());
        for (clone, expected) in &clones {
            prop_assert!(clone.iter().copied().eq(pairs(expected)));
            prop_assert_eq!(clone.len(), expected.len());
        }
        let rebuilt: PairMap = model.into_iter().collect();
        prop_assert_eq!(&map, &rebuilt);
    }

    #[test]
    fn shared_chunk_diffs_equal_deep_rebuild_diffs(
        n in 0i64..1_200,
        edits in proptest::collection::vec((0u8..4, 0i64..1_300, 0i64..1_000), 0..60),
    ) {
        let base = indexed_table(n);
        let before: Vec<Row> = base.to_rows();
        let mut edited = base.clone();
        for &(kind, id, v) in &edits {
            edit(&mut edited, kind, id, v);
        }
        let shared = Delta::between(&base, &edited).expect("same schema");
        let deep = Delta::between(&rebuild(&base), &rebuild(&edited)).expect("same schema");
        prop_assert_eq!(&shared, &deep);
        prop_assert_eq!(shared.apply(&base).expect("applies"), edited.clone());
        prop_assert_eq!(base.to_rows(), before, "editing the clone left the original alone");
        prop_assert_eq!(base == edited, deep.is_empty());
    }

    #[test]
    fn index_probes_match_predicate_scans(
        n in 0i64..1_200,
        edits in proptest::collection::vec((0u8..4, 0i64..1_300, 0i64..1_000), 0..60),
        probes in proptest::collection::vec((0u8..4, 0i64..120, 0i64..120), 1..8),
        at in 0i64..1_300,
    ) {
        let base = indexed_table(n);
        let mut t = base.clone();
        for &(kind, id, v) in &edits {
            edit(&mut t, kind, id, v);
        }
        assert_probes_match_scans(&t, &probes);
        assert_probes_match_scans(&base, &probes);
        let upper = t.split_off_key(&vec![Value::Int(at)]);
        assert_probes_match_scans(&t, &probes);
        assert_probes_match_scans(&upper, &probes);
        // The planner's indexed select agrees with a scan of a rebuild.
        for &(kind, a, b) in &probes {
            let pred = Predicate::ge(Operand::col("score"), Operand::val(a % 100))
                .and(Predicate::lt(Operand::col("score"), Operand::val(b % 100)))
                .and(Predicate::ne(Operand::col("grp"), Operand::val(i64::from(kind))));
            prop_assert_eq!(
                upper.select(&pred).expect("valid"),
                rebuild(&upper).select(&pred).expect("valid")
            );
        }
    }

    #[test]
    fn one_pass_builds_equal_per_row_inserts(
        n in 0i64..1_000,
        shape in 0u8..4,
        swaps in proptest::collection::vec((0usize..1_000, 0usize..1_000), 0..40),
        dup_at in 0usize..1_000,
    ) {
        // Ascending input, the same input shuffled, and each with one
        // row repeated identically or under its key with another value.
        let mut rows: Vec<Row> = (0..n)
            .map(|i| vec![Value::Int(i * 2), Value::Int(i % 5), Value::Int(i % 97)])
            .collect();
        if shape % 2 == 1 {
            for &(a, b) in &swaps {
                if !rows.is_empty() {
                    let len = rows.len();
                    rows.swap(a % len, b % len);
                }
            }
        }
        if shape >= 2 && !rows.is_empty() {
            let mut dup = rows[dup_at % rows.len()].clone();
            if shape == 3 {
                dup[2] = Value::Int(-1);
            }
            rows.insert(dup_at % (rows.len() + 1), dup);
        }
        let one_pass = Table::from_rows(schema(), rows.clone());
        let per_row = rows.iter().try_fold(Table::new(schema()), |mut t, row| {
            t.insert(row.clone()).map(|()| t)
        });
        prop_assert_eq!(&one_pass, &per_row);
        if let Ok(t) = &one_pass {
            prop_assert!(t.rows().eq(per_row.as_ref().expect("same outcome").rows()));
            // Derived tables built the same way agree with a rebuild.
            let keep = Predicate::ne(Operand::col("grp"), Operand::val(3i64));
            prop_assert_eq!(t.select(&keep).expect("valid"), rebuild(t).select(&keep).expect("valid"));
        }
        let map: CowMap<Row, ByFirstCell> = rows.iter().cloned().collect();
        let model: BTreeMap<Row, Row> = rows.iter().map(|r| (vec![r[0].clone()], r.clone())).collect();
        prop_assert!(map.iter().eq(model.values()));
        prop_assert_eq!(map.len(), model.len());
    }

    #[test]
    fn coalesced_runs_equal_the_diff_of_their_end_points(
        n in 0i64..600,
        steps in proptest::collection::vec(
            proptest::collection::vec((0u8..4, 0i64..700, 0i64..1_000), 0..12),
            0..24,
        ),
    ) {
        // A run of committed deltas over a small key space, so keys are
        // inserted, updated, deleted and restored many times over.
        let start = indexed_table(n);
        let mut t = start.clone();
        let mut run = Vec::new();
        for step in &steps {
            let before = t.clone();
            for &(kind, id, v) in step {
                edit(&mut t, kind, id, v);
            }
            run.push(Delta::between(&before, &t).expect("same schema"));
        }
        let key = start.schema().key_indices();
        let coalesced = Delta::coalesce(&run, key);
        prop_assert_eq!(&coalesced, &Delta::between(&start, &t).expect("same schema"));
        let mut applied = start.clone();
        coalesced.apply_owned(&mut applied).expect("applies");
        prop_assert_eq!(&applied, &t);
        let mut stepwise = start;
        for delta in &run {
            delta.apply_in_place(&mut stepwise).expect("applies");
        }
        prop_assert_eq!(stepwise, t);
    }
}
