//! Tables keyed off the leading column: a key on a later column, a
//! two-column key named out of schema order, and no declared key (the
//! whole row is the key). Each table runs a generated sequence of
//! operations against a `BTreeMap` keyed on the key projection, so a
//! table that orders or finds its rows by the wrong cells — say, always
//! by column 0 — disagrees with the model.

use std::collections::BTreeMap;
use std::ops::Bound;

use proptest::prelude::*;

use esm_store::{Delta, Operand, Predicate, Row, Schema, StoreError, Table, Value, ValueType};

/// The three schemas, each with the non-key column an index goes on.
fn schema(which: u8) -> (Schema, &'static str) {
    match which % 3 {
        0 => (
            Schema::build(
                &[
                    ("tag", ValueType::Str),
                    ("id", ValueType::Int),
                    ("val", ValueType::Int),
                ],
                &["id"],
            )
            .expect("valid"),
            "val",
        ),
        1 => (
            Schema::build(
                &[
                    ("x", ValueType::Int),
                    ("y", ValueType::Int),
                    ("z", ValueType::Int),
                ],
                &["z", "x"],
            )
            .expect("valid"),
            "y",
        ),
        _ => (
            Schema::build(&[("p", ValueType::Int), ("q", ValueType::Bool)], &[]).expect("valid"),
            "q",
        ),
    }
}

/// Distinct keys each schema draws from: enough for tables of several
/// chunks.
const KEYS: i64 = 700;

/// A row of schema `which` from a key number `a < KEYS` and two small
/// numbers. Key cells and the other cells vary independently, so rows
/// of different keys share leading cells and rows of one key differ
/// elsewhere.
fn row_of(which: u8, a: i64, b: i64, c: i64) -> Row {
    match which % 3 {
        0 => vec![
            Value::Str(format!("t{}", c % 7)),
            Value::Int(a),
            Value::Int(b % 11),
        ],
        1 => vec![
            Value::Int(a % (KEYS / 5)),
            Value::Int(b % 11),
            Value::Int(c % 5),
        ],
        _ => vec![Value::Int(a % (KEYS / 2)), Value::Bool(b % 2 == 0)],
    }
}

/// The model: rows keyed on their key projection.
type Model = BTreeMap<Row, Row>;

fn key(t: &Table, row: &Row) -> Row {
    t.key_of(row)
}

/// The same rows rebuilt into a fresh table, sharing nothing.
fn rebuild(t: &Table) -> Table {
    Table::from_rows(t.schema().clone(), t.rows().cloned()).expect("rows fit")
}

/// The table holds exactly the model's rows, in the model's key order.
fn assert_matches(t: &Table, model: &Model) {
    assert_eq!(t.len(), model.len());
    assert!(t.rows().eq(model.values()), "rows in key order");
}

proptest! {
    #[test]
    fn tables_order_and_find_rows_by_their_declared_key(
        which in 0u8..3,
        seed in proptest::collection::vec((0i64..KEYS, 0i64..40, 0i64..40), 0..1_200),
        ops in proptest::collection::vec((0u8..8, 0i64..KEYS, 0i64..40, 0i64..40), 0..300),
    ) {
        let (schema, indexed) = schema(which);
        let mut model = Model::new();
        let probe = Table::new(schema.clone());
        for &(a, b, c) in &seed {
            let row = row_of(which, a, b, c);
            model.insert(key(&probe, &row), row);
        }
        let mut t = Table::from_rows(schema, model.values().cloned()).expect("one row per key");
        t.create_index(indexed).expect("column exists");
        let base = t.clone();
        let base_model = model.clone();
        assert_matches(&t, &model);

        for &(kind, a, b, c) in &ops {
            let row = row_of(which, a, b, c);
            let k = key(&t, &row);
            match kind {
                0 => {
                    let got = t.insert(row.clone());
                    match model.get(&k) {
                        Some(old) if *old != row => {
                            prop_assert!(matches!(got, Err(StoreError::KeyViolation(_))));
                        }
                        _ => {
                            prop_assert!(got.is_ok());
                            model.insert(k, row);
                        }
                    }
                }
                1 => prop_assert_eq!(t.upsert(row.clone()).expect("row fits"), model.insert(k, row)),
                2 => {
                    let present = model.get(&k) == Some(&row);
                    prop_assert_eq!(t.contains(&row), present);
                    prop_assert_eq!(t.delete(&row), present);
                    if present {
                        model.remove(&k);
                    }
                }
                3 => prop_assert_eq!(t.delete_by_key(&k), model.remove(&k)),
                4 => prop_assert_eq!(t.get_by_key(&k), model.get(&k)),
                5 => {
                    // Bounds from two generated keys; either side may be
                    // open, and the two may cross.
                    let hi = key(&t, &row_of(which, (a * 7 + b) % KEYS, c, b));
                    let lo = (c % 3 != 0).then_some(&k);
                    let hi = (a % 3 != 0).then_some(&hi);
                    let got: Vec<&Row> = t.rows_in_key_range(lo, hi).collect();
                    let want: Vec<&Row> = model
                        .iter()
                        .filter(|(key, _)| lo.is_none_or(|lo| *key >= lo) && hi.is_none_or(|hi| *key < hi))
                        .map(|(_, row)| row)
                        .collect();
                    prop_assert_eq!(got, want);
                }
                6 => {
                    // Split at a generated key, check both halves, and
                    // append the upper half back.
                    let whole = t.clone();
                    let upper = t.split_off_key(&k);
                    let below: Vec<&Row> =
                        model.range::<Row, _>((Bound::Unbounded, Bound::Excluded(&k))).map(|(_, r)| r).collect();
                    prop_assert!(t.rows().eq(below));
                    prop_assert!(upper.rows().eq(model.range::<Row, _>(&k..).map(|(_, r)| r)));
                    t.append(&upper).expect("the upper half keys above the lower");
                    prop_assert_eq!(&t, &whole);
                    if !upper.is_empty() && !t.is_empty() {
                        prop_assert!(matches!(t.append(&upper), Err(StoreError::KeyViolation(_))));
                    }
                }
                _ => {
                    let at = (a as usize) % (model.len() + 1);
                    prop_assert_eq!(t.key_at(at), model.keys().nth(at).cloned());
                }
            }
            assert_matches(&t, &model);
        }

        // The chunk-skipping diff agrees with the diff of deep rebuilds,
        // and it (and its inverse) maps each end point to the other.
        let delta = Delta::between(&base, &t).expect("same schema");
        prop_assert_eq!(&delta, &Delta::between(&rebuild(&base), &rebuild(&t)).expect("same schema"));
        prop_assert_eq!(&delta.apply(&base).expect("applies"), &t);
        prop_assert_eq!(delta.invert().apply(&t).expect("applies"), base.clone());
        prop_assert!(base.rows().eq(base_model.values()), "the original kept its rows");

        // The index, maintained through every operation, serves the same
        // rows a scan of a rebuild finds.
        let (lo, hi) = (ops.len() as i64 % 7, ops.len() as i64 % 11);
        let pred = match which % 3 {
            2 => Predicate::eq(Operand::col(indexed), Operand::val(lo % 2 == 0)),
            _ => Predicate::ge(Operand::col(indexed), Operand::val(lo))
                .and(Predicate::le(Operand::col(indexed), Operand::val(hi))),
        };
        prop_assert_eq!(t.select(&pred).expect("valid"), rebuild(&t).select(&pred).expect("valid"));
    }
}
