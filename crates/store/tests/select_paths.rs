//! Every path `Table::select` can take, against the reference: the rows
//! of `rows()` that `Predicate::eval` accepts.
//!
//! The tables use the three key layouts of `key_order_properties.rs` (a
//! key on a later column, a two-column key named out of schema order,
//! and no declared key), with about 600 rows each, so they span several
//! chunks. Predicates are generated over every comparison, connective
//! and constant, with constants of every type and the odd unknown
//! column, so some fail to bind. Leaves favour the leading key cell and
//! the indexed column, so the seek, the index probe (equality and range)
//! and the scan are all taken:
//! - binding fails exactly where a reference type check does, with the
//!   error `validate` gives;
//! - the bound predicate agrees with `Predicate::eval` on every row;
//! - `select` on the table, and on a copy indexed on a non-key column,
//!   equals the reference;
//! - the seek (`rows_in_lead_range`) over the bounds the predicate
//!   implies on the leading key cell reads exactly the rows whose cell
//!   lies within them, inclusive and exclusive bounds alike.

use std::ops::Bound;

use proptest::prelude::*;

use esm_store::{Cmp, Operand, Predicate, Row, Schema, StoreError, Table, Value, ValueType};

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

/// Key numbers each table draws from: about 600 of 700 are kept.
const KEYS: i64 = 700;

/// splitmix64: the generator every case draws its table and predicates
/// from, seeded by the property's input.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn int(&mut self, lo: i64, hi: i64) -> i64 {
        lo + self.below((hi - lo) as u64) as i64
    }
}

/// The row of schema `which` for key number `k`; the other cells are
/// drawn from `rng`.
fn row_of(which: u8, k: i64, rng: &mut Rng) -> Row {
    match which % 3 {
        0 => vec![
            Value::Str(format!("t{}", rng.below(7))),
            Value::Int(k),
            Value::Int(rng.int(0, 11)),
        ],
        1 => vec![
            Value::Int(k / 5),
            Value::Int(rng.int(0, 11)),
            Value::Int(k % 5),
        ],
        _ => vec![Value::Int(k / 2), Value::Bool(k % 2 == 0)],
    }
}

fn table_of(which: u8, rng: &mut Rng) -> Table {
    let (schema, _) = schema(which);
    let mut rows = Vec::new();
    for k in 0..KEYS {
        if rng.below(7) != 0 {
            rows.push(row_of(which, k, rng));
        }
    }
    Table::from_rows(schema, rows).expect("one row per key")
}

/// A constant of type `ty`: half the time a cell of `column` from a
/// stored row, so comparisons land on stored values, else near the
/// stored range.
fn constant(t: &Table, column: usize, ty: ValueType, rng: &mut Rng) -> Value {
    let stored = (!t.is_empty() && rng.below(2) == 0)
        .then(|| t.rows().nth(rng.below(t.len() as u64) as usize))
        .flatten()
        .map(|r| r[column].clone())
        .filter(|v| v.value_type() == ty);
    stored.unwrap_or_else(|| match ty {
        ValueType::Int => Value::Int(rng.int(-3, KEYS + 3)),
        ValueType::Str => Value::Str(format!("t{}", rng.int(-1, 9))),
        ValueType::Bool => Value::Bool(rng.below(2) == 0),
    })
}

const OPS: [Cmp; 6] = [Cmp::Eq, Cmp::Ne, Cmp::Lt, Cmp::Le, Cmp::Gt, Cmp::Ge];
const TYPES: [ValueType; 3] = [ValueType::Int, ValueType::Str, ValueType::Bool];

/// One comparison leaf. The column is the leading key cell, the indexed
/// column, or any column, with the odd unknown one; the other side is a
/// constant, mostly of the column's type, or another column; either
/// side may come first.
fn leaf(t: &Table, indexed: &str, rng: &mut Rng) -> Predicate {
    let schema = t.schema();
    let names = schema.column_names();
    let lead = schema.key_indices()[0];
    let column = match rng.below(8) {
        0..=2 => lead,
        3..=4 => schema.index_of(indexed).expect("indexed column exists"),
        _ => rng.below(names.len() as u64) as usize,
    };
    let col = match rng.below(40) {
        0 => Operand::col("ghost"),
        _ => Operand::col(names[column]),
    };
    let own_type = schema.columns()[column].ty;
    let other = match rng.below(12) {
        0 => Operand::col(names[rng.below(names.len() as u64) as usize]),
        1 => {
            let ty = TYPES[rng.below(3) as usize];
            Operand::Const(constant(t, column, ty, rng))
        }
        _ => Operand::Const(constant(t, column, own_type, rng)),
    };
    let op = OPS[rng.below(6) as usize];
    match rng.below(4) {
        0 => Predicate::Compare(op, other, col),
        _ => Predicate::Compare(op, col, other),
    }
}

/// A predicate of at most `depth` connectives; `And` is the most common,
/// so conjunctions bound the leading key cell on both sides.
fn pred(t: &Table, indexed: &str, depth: u32, rng: &mut Rng) -> Predicate {
    let choice = if depth == 0 { 0 } else { rng.below(9) };
    match choice {
        0..=2 => leaf(t, indexed, rng),
        3..=5 => pred(t, indexed, depth - 1, rng).and(pred(t, indexed, depth - 1, rng)),
        6 => pred(t, indexed, depth - 1, rng).or(pred(t, indexed, depth - 1, rng)),
        7 => pred(t, indexed, depth - 1, rng).not(),
        _ => [Predicate::True, Predicate::False][rng.below(2) as usize].clone(),
    }
}

/// The reference type check: every column exists, and both sides of
/// each comparison have one type. Left before right, as written.
fn reference_check(p: &Predicate, schema: &Schema) -> Result<(), StoreError> {
    let ty = |o: &Operand| match o {
        Operand::Col(c) => Ok(schema.columns()[schema.index_of(c)?].ty),
        Operand::Const(v) => Ok(v.value_type()),
    };
    match p {
        Predicate::True | Predicate::False => Ok(()),
        Predicate::Compare(_, l, r) => {
            let (l, r) = (ty(l)?, ty(r)?);
            if l == r {
                Ok(())
            } else {
                Err(StoreError::BadQuery(format!("cannot compare {l} with {r}")))
            }
        }
        Predicate::And(l, r) | Predicate::Or(l, r) => {
            reference_check(l, schema)?;
            reference_check(r, schema)
        }
        Predicate::Not(p) => reference_check(p, schema),
    }
}

/// Is `v` within `lo` and `hi`?
fn within(v: &Value, lo: &Bound<Value>, hi: &Bound<Value>) -> bool {
    let above = match lo {
        Bound::Included(lo) => v >= lo,
        Bound::Excluded(lo) => v > lo,
        Bound::Unbounded => true,
    };
    let below = match hi {
        Bound::Included(hi) => v <= hi,
        Bound::Excluded(hi) => v < hi,
        Bound::Unbounded => true,
    };
    above && below
}

proptest! {
    #[test]
    fn every_select_path_equals_filtering_rows_with_eval(
        which in 0u8..3,
        seed in 0u64..1_000_000_000,
    ) {
        let mut rng = Rng(seed);
        let t = table_of(which, &mut rng);
        let (schema, indexed) = schema(which);
        prop_assert!(t.len() > 256, "the table spans several chunks");
        let mut with_index = t.clone();
        with_index.create_index(indexed).expect("column exists");
        let lead = schema.key_indices()[0];
        let lead_name = schema.column_names()[lead];

        for _ in 0..12 {
            let p = pred(&t, indexed, 3, &mut rng);
            let checked = reference_check(&p, &schema);
            let bound = p.bind(&schema);
            prop_assert_eq!(bound.as_ref().err(), checked.as_ref().err(), "{}", p);
            prop_assert_eq!(p.validate(&schema), checked.clone(), "{}", p);
            let Ok(bound) = bound else {
                let err = checked.err();
                prop_assert_eq!(t.select(&p).err(), err.clone(), "{}", p);
                prop_assert_eq!(with_index.select(&p).err(), err, "{}", p);
                continue;
            };

            let mut kept = Vec::new();
            for row in t.rows() {
                let want = p.eval(&schema, row).expect("a bound predicate evaluates");
                prop_assert_eq!(bound.eval(row), want, "{} on {:?}", p, row);
                if want {
                    kept.push(row.clone());
                }
            }
            let reference = Table::from_rows(schema.clone(), kept).expect("rows of the table");
            prop_assert_eq!(&t.select(&p).expect("binds"), &reference, "{}", p);
            prop_assert_eq!(&with_index.select(&p).expect("binds"), &reference, "{}", p);

            let (lo, hi) = p.value_bounds(lead_name);
            let sought: Vec<&Row> = t.rows_in_lead_range(lo.as_ref(), hi.as_ref()).collect();
            let want: Vec<&Row> = t.rows().filter(|r| within(&r[lead], &lo, &hi)).collect();
            prop_assert_eq!(sought, want, "{} seeks {:?}..{:?}", p, lo, hi);
        }
    }
}
