//! Secondary indexes on non-key columns.
//!
//! A [`ColumnIndex`] is one ordered set of `(value, primary key)` pairs
//! for one column, held in a [`CowMap`]: the pairs of one value form one
//! contiguous run, so both point lookups (`=`) and ordered range probes
//! (`<`, `<=`, `>`, `>=`) are O(log n) seeks (`partition_point` on the
//! value) instead of full scans. A one-column primary key sits inline in
//! its pair, so adding a row's pair allocates nothing beyond the cells'
//! own strings. Cloning an index shares its chunks, and one row's change
//! touches the one or two chunks holding its pairs, however many rows
//! share its value.
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

use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Bound;

use crate::cow_map::{CowMap, Order};
use crate::row::Row;
use crate::value::Value;

/// A secondary index: the `(value, primary key)` pairs of one column.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ColumnIndex {
    column: String,
    col_idx: usize,
    entries: CowMap<Entry, ByValue>,
}

/// One index entry: a row's value in the indexed column and its
/// primary key.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Entry {
    value: Value,
    key: PrimaryKey,
}

/// A primary key as an index holds it: one cell inline, several in a
/// row of their own.
#[derive(Debug, Clone, PartialEq, Eq)]
enum PrimaryKey {
    One(Value),
    Cells(Row),
}

impl PrimaryKey {
    fn of(cells: &[Value]) -> PrimaryKey {
        match cells {
            [one] => PrimaryKey::One(one.clone()),
            cells => PrimaryKey::Cells(cells.to_vec()),
        }
    }

    fn cells(&self) -> &[Value] {
        match self {
            PrimaryKey::One(cell) => std::slice::from_ref(cell),
            PrimaryKey::Cells(cells) => cells,
        }
    }
}

/// Index entries order by value, then by primary-key cells.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
struct ByValue;

impl Order<Entry> for ByValue {
    fn cmp(&self, a: &Entry, b: &Entry) -> Ordering {
        (a.value.cmp(&b.value)).then_with(|| a.key.cells().cmp(b.key.cells()))
    }
}

impl ColumnIndex {
    /// An empty index over column number `col_idx` named `column`.
    pub fn new(column: impl Into<String>, col_idx: usize) -> ColumnIndex {
        ColumnIndex {
            column: column.into(),
            col_idx,
            entries: CowMap::default(),
        }
    }

    /// An index over column number `col_idx` named `column`, holding
    /// the given `(primary key, row)` pairs, which arrive in primary-key
    /// order: one stable sort on the value puts the entries in order,
    /// and they load into packed chunks.
    pub(crate) fn build<'a>(
        column: impl Into<String>,
        col_idx: usize,
        rows: impl IntoIterator<Item = (Cow<'a, [Value]>, &'a Row)>,
    ) -> ColumnIndex {
        let mut entries: Vec<Entry> = (rows.into_iter())
            .map(|(key, row)| Entry {
                value: row[col_idx].clone(),
                key: PrimaryKey::of(&key),
            })
            .collect();
        entries.sort_by(|a, b| a.value.cmp(&b.value));
        ColumnIndex {
            column: column.into(),
            col_idx,
            entries: CowMap::from_entries(ByValue, entries),
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
        (self.entries.iter())
            .filter(|e| last.replace(&e.value) != Some(&e.value))
            .count()
    }

    /// Total number of keys indexed (rows of the owning table).
    pub fn entry_count(&self) -> usize {
        self.entries.len()
    }

    /// Record `row`, whose primary key has the cells `key`.
    pub fn add(&mut self, key: &[Value], row: &Row) {
        self.entries.insert(Entry {
            value: row[self.col_idx].clone(),
            key: PrimaryKey::of(key),
        });
    }

    /// Forget `row`, whose primary key has the cells `key`.
    pub fn remove(&mut self, key: &[Value], row: &Row) {
        let value = &row[self.col_idx];
        (self.entries).remove(|e| e.value.cmp(value).then_with(|| e.key.cells().cmp(key)));
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

    /// Primary keys (their cells) of rows whose indexed column equals `v`.
    pub fn keys_eq<'a>(&'a self, v: &Value) -> impl Iterator<Item = &'a [Value]> {
        self.keys_range(Bound::Included(v), Bound::Included(v))
    }

    /// Primary keys (their cells) of rows whose indexed column lies in
    /// the given bounds, in column-value order: a seek past the values
    /// below `lo`, then a walk while the values stay within `hi`.
    pub fn keys_range<'a>(
        &'a self,
        lo: Bound<&Value>,
        hi: Bound<&Value>,
    ) -> impl Iterator<Item = &'a [Value]> {
        let (lo, hi) = (lo.cloned(), hi.cloned());
        (self.entries)
            .range(
                move |e| before_start(lo.as_ref(), &e.value),
                move |e| before_end(hi.as_ref(), &e.value),
            )
            .map(|e| e.key.cells())
    }

    /// Primary keys (their cells) served by `probe`.
    pub fn keys_for<'a>(
        &'a self,
        probe: &IndexProbe,
    ) -> Box<dyn Iterator<Item = &'a [Value]> + 'a> {
        match &probe.kind {
            ProbeKind::Eq(v) => Box::new(self.keys_eq(v)),
            ProbeKind::Range { lo, hi } => Box::new(self.keys_range(lo.as_ref(), hi.as_ref())),
        }
    }
}

/// Does `v` sort before the range whose lower bound is `lo`?
pub(crate) fn before_start(lo: Bound<&Value>, v: &Value) -> bool {
    match lo {
        Bound::Included(lo) => v < lo,
        Bound::Excluded(lo) => v <= lo,
        Bound::Unbounded => false,
    }
}

/// Does `v` sort before the end of the range whose upper bound is `hi`?
pub(crate) fn before_end(hi: Bound<&Value>, v: &Value) -> bool {
    match hi {
        Bound::Included(hi) => v <= hi,
        Bound::Excluded(hi) => v < hi,
        Bound::Unbounded => true,
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
        idx.add(&[Value::Int(1)], &row![1, 10]);
        idx.add(&[Value::Int(2)], &row![2, 10]);
        idx.add(&[Value::Int(3)], &row![3, 20]);
        assert_eq!(idx.distinct_values(), 2);
        let keys: Vec<_> = idx.keys_eq(&Value::Int(10)).collect();
        assert_eq!(keys, vec![row![1], row![2]]);

        idx.remove(&[Value::Int(1)], &row![1, 10]);
        let keys: Vec<_> = idx.keys_eq(&Value::Int(10)).collect();
        assert_eq!(keys, vec![row![2]]);
        idx.remove(&[Value::Int(2)], &row![2, 10]);
        assert_eq!(idx.distinct_values(), 1);
    }

    #[test]
    fn range_lookup_is_ordered_by_value() {
        let mut idx = ColumnIndex::new("age", 1);
        for (k, age) in [(1, 30), (2, 10), (3, 20), (4, 40)] {
            idx.add(&[Value::Int(k)], &row![k, age]);
        }
        let keys: Vec<_> = idx
            .keys_range(
                Bound::Included(&Value::Int(15)),
                Bound::Excluded(&Value::Int(40)),
            )
            .collect();
        assert_eq!(keys, vec![row![3], row![1]]);
    }

    #[test]
    fn probes_drive_keys_for() {
        let mut idx = ColumnIndex::new("age", 1);
        for (k, age) in [(1, 30), (2, 10)] {
            idx.add(&[Value::Int(k)], &row![k, age]);
        }
        let eq = IndexProbe::eq("age", Value::Int(10));
        assert!(eq.is_eq());
        assert_eq!(idx.keys_for(&eq).count(), 1);
        let ge = IndexProbe::range("age", Bound::Included(Value::Int(0)), Bound::Unbounded);
        assert_eq!(idx.keys_for(&ge).count(), 2);
    }
}
