//! Secondary B-tree indexes on non-key columns.
//!
//! A [`ColumnIndex`] is one ordered set of `(value, primary key)` pairs
//! for one column, held in a [`CowMap`]: the pairs of one value form one
//! contiguous run, so both point lookups (`=`) and ordered range probes
//! (`<`, `<=`, `>`, `>=`) are O(log n) seeks instead of full scans.
//! Cloning an index shares its chunks, and one row's change touches the
//! one or two chunks holding its pairs, however many rows share its
//! value.
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

use std::ops::Bound;

use crate::cow_map::CowMap;
use crate::row::Row;
use crate::value::Value;

/// A secondary index: the `(value, primary key)` pairs of one column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnIndex {
    column: String,
    col_idx: usize,
    entries: CowMap<IndexKey, ()>,
}

/// One index entry. Entries order by value, then by primary key.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
struct IndexKey {
    value: Value,
    row_id: RowId,
}

/// A primary key, or a bound sorting before or after every key of a
/// value: the two ends of a value's run, which probes seek to. Only
/// keys are ever stored.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RowId {
    Before,
    Key(Row),
    After,
}

impl IndexKey {
    fn entry(key: &Row, row: &Row, col_idx: usize) -> IndexKey {
        IndexKey {
            value: row[col_idx].clone(),
            row_id: RowId::Key(key.clone()),
        }
    }

    fn bound(value: &Value, row_id: RowId) -> IndexKey {
        IndexKey {
            value: value.clone(),
            row_id,
        }
    }

    fn key(&self) -> Option<&Row> {
        match &self.row_id {
            RowId::Key(key) => Some(key),
            RowId::Before | RowId::After => None,
        }
    }
}

impl ColumnIndex {
    /// An empty index over column number `col_idx` named `column`.
    pub fn new(column: impl Into<String>, col_idx: usize) -> ColumnIndex {
        ColumnIndex {
            column: column.into(),
            col_idx,
            entries: CowMap::new(),
        }
    }

    /// An index over column number `col_idx` named `column`, holding
    /// the given `(primary key, row)` entries. Sorts the pairs first, so
    /// they load in order into packed chunks.
    pub(crate) fn build<'a>(
        column: impl Into<String>,
        col_idx: usize,
        rows: impl IntoIterator<Item = (&'a Row, &'a Row)>,
    ) -> ColumnIndex {
        let mut keys: Vec<IndexKey> = rows
            .into_iter()
            .map(|(key, row)| IndexKey::entry(key, row, col_idx))
            .collect();
        keys.sort_unstable();
        ColumnIndex {
            column: column.into(),
            col_idx,
            entries: keys.into_iter().map(|k| (k, ())).collect(),
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

    /// Number of distinct values currently indexed (a walk over every
    /// entry).
    pub fn distinct_values(&self) -> usize {
        let mut last: Option<&Value> = None;
        (self.entries.keys())
            .filter(|k| last.replace(&k.value) != Some(&k.value))
            .count()
    }

    /// Total number of keys indexed (rows of the owning table).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Record `row` (stored under primary key `key`).
    pub fn add(&mut self, key: &Row, row: &Row) {
        self.entries
            .insert(IndexKey::entry(key, row, self.col_idx), ());
    }

    /// Forget `row` (stored under primary key `key`).
    pub fn remove(&mut self, key: &Row, row: &Row) {
        self.entries
            .remove(&IndexKey::entry(key, row, self.col_idx));
    }

    /// Drop all entries.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Estimate how many keys `probe` would touch: its entries counted
    /// in order, stopping once the count reaches `cap` — a candidate
    /// already worse than the best alternative needs no exact count. The
    /// cost-based planner ([`crate::Predicate::index_probe_with`]) feeds
    /// each candidate's estimate back in as the next one's cap.
    pub fn estimate(&self, probe: &IndexProbe, cap: usize) -> usize {
        self.keys_for(probe).take(cap).count()
    }

    /// Primary keys of rows whose indexed column equals `v`.
    pub fn keys_eq<'a>(&'a self, v: &Value) -> impl Iterator<Item = &'a Row> {
        self.keys_range(Bound::Included(v), Bound::Included(v))
    }

    /// Primary keys of rows whose indexed column lies in the given bounds,
    /// in column-value order.
    pub fn keys_range<'a>(
        &'a self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl Iterator<Item = &'a Row> {
        let lo = match lo {
            Bound::Included(v) => Bound::Included(IndexKey::bound(v, RowId::Before)),
            Bound::Excluded(v) => Bound::Excluded(IndexKey::bound(v, RowId::After)),
            Bound::Unbounded => Bound::Unbounded,
        };
        let hi = match hi {
            Bound::Included(v) => Bound::Included(IndexKey::bound(v, RowId::After)),
            Bound::Excluded(v) => Bound::Excluded(IndexKey::bound(v, RowId::Before)),
            Bound::Unbounded => Bound::Unbounded,
        };
        self.entries.range((lo, hi)).filter_map(|(k, ())| k.key())
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
