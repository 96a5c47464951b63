//! Secondary B-tree indexes on non-key columns.
//!
//! A [`ColumnIndex`] maps each distinct value of one column to the set of
//! primary keys of the rows holding that value, kept in a `BTreeMap` so
//! both point lookups (`=`) and ordered range probes (`<`, `<=`, `>`,
//! `>=`) are O(log n) seeks instead of full scans.
//!
//! Indexes live *inside* [`Table`](crate::Table) (see
//! [`Table::create_index`](crate::Table::create_index)) and are maintained
//! incrementally by every mutation: a cloned table keeps its indexes, and
//! the upserts and deletes a lens `put` performs on its copy of the base
//! keep them current. Freshly derived tables (`select`, `project`, …)
//! start with no indexes.
//!
//! [`IndexProbe`] is the planning half: given a predicate and the set of
//! indexed columns, [`crate::Predicate::index_probe`] extracts the
//! narrowest single-column constraint an index can serve; the residual
//! predicate is still evaluated on each candidate row, so an index only
//! ever *narrows* a scan — it can never change a query's meaning.

use std::collections::{BTreeMap, BTreeSet};
use std::ops::Bound;

use crate::row::Row;
use crate::value::Value;

/// A secondary index: one column's values mapped to the primary keys of
/// the rows holding them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnIndex {
    column: String,
    col_idx: usize,
    map: BTreeMap<Value, BTreeSet<Row>>,
    /// Total keys indexed (sum of all bucket sizes), maintained
    /// incrementally so selectivity estimates never rescan the map.
    entries: usize,
}

impl ColumnIndex {
    /// An empty index over column number `col_idx` named `column`.
    pub fn new(column: impl Into<String>, col_idx: usize) -> ColumnIndex {
        ColumnIndex {
            column: column.into(),
            col_idx,
            map: BTreeMap::new(),
            entries: 0,
        }
    }

    /// The indexed column's name.
    pub fn column(&self) -> &str {
        &self.column
    }

    /// The indexed column's position in the schema.
    pub fn col_idx(&self) -> usize {
        self.col_idx
    }

    /// Number of distinct values currently indexed.
    pub fn distinct_values(&self) -> usize {
        self.map.len()
    }

    /// Total number of keys indexed (rows of the owning table).
    pub fn entry_count(&self) -> usize {
        self.entries
    }

    /// Record `row` (stored under primary key `key`).
    pub fn add(&mut self, key: &Row, row: &Row) {
        if self
            .map
            .entry(row[self.col_idx].clone())
            .or_default()
            .insert(key.clone())
        {
            self.entries += 1;
        }
    }

    /// Forget `row` (stored under primary key `key`).
    pub fn remove(&mut self, key: &Row, row: &Row) {
        if let Some(keys) = self.map.get_mut(&row[self.col_idx]) {
            if keys.remove(key) {
                self.entries -= 1;
            }
            if keys.is_empty() {
                self.map.remove(&row[self.col_idx]);
            }
        }
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.map.clear();
        self.entries = 0;
    }

    /// Estimate how many keys `probe` would touch. Equality probes read
    /// their bucket size exactly (one map lookup); range probes count
    /// bucket sizes across the range, stopping early once the running
    /// total reaches `cap` — a candidate already worse than the best
    /// alternative needs no exact count. The cost-based planner
    /// ([`crate::Predicate::index_probe_with`]) feeds each candidate's
    /// estimate back in as the next one's cap.
    pub fn estimate(&self, probe: &IndexProbe, cap: usize) -> usize {
        match &probe.kind {
            ProbeKind::Eq(v) => self.map.get(v).map_or(0, BTreeSet::len),
            ProbeKind::Range { lo, hi } => {
                let mut n = 0;
                for (_, keys) in self.map.range::<Value, _>((as_bound(lo), as_bound(hi))) {
                    n += keys.len();
                    if n >= cap {
                        break;
                    }
                }
                n
            }
        }
    }

    /// Primary keys of rows whose indexed column equals `v`.
    pub fn keys_eq<'a>(&'a self, v: &Value) -> impl Iterator<Item = &'a Row> {
        self.map.get(v).into_iter().flatten()
    }

    /// Primary keys of rows whose indexed column lies in the given bounds,
    /// in column-value order.
    pub fn keys_range<'a>(
        &'a self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl Iterator<Item = &'a Row> {
        self.map
            .range::<Value, _>((lo, hi))
            .flat_map(|(_, keys)| keys)
    }

    /// Primary keys served by `probe`.
    pub fn keys_for<'a>(&'a self, probe: &IndexProbe) -> Box<dyn Iterator<Item = &'a Row> + 'a> {
        match &probe.kind {
            ProbeKind::Eq(v) => Box::new(self.keys_eq(v)),
            ProbeKind::Range { lo, hi } => Box::new(self.keys_range(as_bound(lo), as_bound(hi))),
        }
    }
}

fn as_bound(b: &Bound<Value>) -> Bound<&Value> {
    match b {
        Bound::Included(v) => Bound::Included(v),
        Bound::Excluded(v) => Bound::Excluded(v),
        Bound::Unbounded => Bound::Unbounded,
    }
}

/// A single-column constraint extracted from a predicate, servable by a
/// [`ColumnIndex`] on that column.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexProbe {
    /// The constrained column.
    pub column: String,
    pub(crate) kind: ProbeKind,
}

#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum ProbeKind {
    /// `column = v`.
    Eq(Value),
    /// `column` within the bounds.
    Range { lo: Bound<Value>, hi: Bound<Value> },
}

impl IndexProbe {
    /// An equality probe.
    pub fn eq(column: impl Into<String>, v: Value) -> IndexProbe {
        IndexProbe {
            column: column.into(),
            kind: ProbeKind::Eq(v),
        }
    }

    /// A range probe.
    pub fn range(column: impl Into<String>, lo: Bound<Value>, hi: Bound<Value>) -> IndexProbe {
        IndexProbe {
            column: column.into(),
            kind: ProbeKind::Range { lo, hi },
        }
    }

    /// Is this an equality probe (the narrowest kind)?
    pub fn is_eq(&self) -> bool {
        matches!(self.kind, ProbeKind::Eq(_))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    #[test]
    fn add_remove_and_lookup() {
        let mut idx = ColumnIndex::new("grp", 1);
        idx.add(&row![1], &row![1, 10]);
        idx.add(&row![2], &row![2, 10]);
        idx.add(&row![3], &row![3, 20]);
        assert_eq!(idx.distinct_values(), 2);
        let keys: Vec<_> = idx.keys_eq(&Value::Int(10)).cloned().collect();
        assert_eq!(keys, vec![row![1], row![2]]);

        idx.remove(&row![1], &row![1, 10]);
        let keys: Vec<_> = idx.keys_eq(&Value::Int(10)).cloned().collect();
        assert_eq!(keys, vec![row![2]]);
        idx.remove(&row![2], &row![2, 10]);
        assert_eq!(idx.distinct_values(), 1);
    }

    #[test]
    fn range_lookup_is_ordered_by_value() {
        let mut idx = ColumnIndex::new("age", 1);
        for (k, age) in [(1, 30), (2, 10), (3, 20), (4, 40)] {
            idx.add(&row![k], &row![k, age]);
        }
        let keys: Vec<_> = idx
            .keys_range(
                Bound::Included(&Value::Int(15)),
                Bound::Excluded(&Value::Int(40)),
            )
            .cloned()
            .collect();
        assert_eq!(keys, vec![row![3], row![1]]);
    }

    #[test]
    fn probes_drive_keys_for() {
        let mut idx = ColumnIndex::new("age", 1);
        for (k, age) in [(1, 30), (2, 10)] {
            idx.add(&row![k], &row![k, age]);
        }
        let eq = IndexProbe::eq("age", Value::Int(10));
        assert!(eq.is_eq());
        assert_eq!(idx.keys_for(&eq).count(), 1);
        let ge = IndexProbe::range("age", Bound::Included(Value::Int(0)), Bound::Unbounded);
        assert_eq!(idx.keys_for(&ge).count(), 2);
    }
}
