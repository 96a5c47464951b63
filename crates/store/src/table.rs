//! Tables: schema-validated sets of rows with key-based indexing and the
//! relational algebra.
//!
//! A table's rows and its secondary indexes sit in copy-on-write
//! [`CowMap`]s, so a clone shares every chunk with the original: cloning
//! copies a pointer per map, and the first write to either copy
//! duplicates that map's chunk pointers and the one chunk it touches
//! (see [`crate::cow_map`]). Snapshots, transaction working copies and
//! lens `put` inputs are such clones.

use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use crate::cow_map::{AscendingLoad, CowMap, Order};
use crate::error::StoreError;
use crate::index::{before_end, before_start, ColumnIndex};
use crate::predicate::Predicate;
use crate::row::{project_row, Row};
use crate::schema::Schema;
use crate::value::Value;

/// A relational table: a [`Schema`] plus a set of rows indexed by their
/// key values.
///
/// Rows are stored once each, in a [`CowMap`] ordered by their
/// key-column cells compared in place (the whole row when the schema has
/// no declared key), giving set semantics, deterministic iteration
/// order, O(log n) point operations, clones that share every chunk, and
/// ordered diffs that skip the chunks two copies share.
///
/// A table may additionally carry secondary [`ColumnIndex`]es (see
/// [`Table::create_index`]); they are maintained by every mutation and
/// consulted by [`Table::select`] and [`Table::natural_join`], but are
/// *not* part of the table's value: two tables with equal schemas and rows
/// compare equal regardless of their indexes.
#[derive(Debug, Clone)]
pub struct Table {
    schema: Schema,
    rows: CowMap<Row, RowOrder>,
    indexes: Vec<ColumnIndex>,
}

/// How a table orders its rows: by the schema's key cells, read from
/// each row in place.
#[derive(Debug, Clone)]
pub(crate) enum RowOrder {
    /// One key column.
    Column(usize),
    /// Several key columns, compared in key order.
    Columns(Arc<[usize]>),
    /// No declared key: whole rows compare.
    Whole,
}

impl RowOrder {
    fn of(schema: &Schema) -> RowOrder {
        match schema.key() {
            [] => RowOrder::Whole,
            _ => RowOrder::on(schema.key_indices()),
        }
    }

    /// Rows ordered by their cells at `key_idx`, compared in that order.
    pub(crate) fn on(key_idx: &[usize]) -> RowOrder {
        match key_idx {
            [column] => RowOrder::Column(*column),
            columns => RowOrder::Columns(columns.into()),
        }
    }

    /// Compare `row`'s key cells with the key `key`.
    fn cmp_key(&self, row: &Row, key: &[Value]) -> Ordering {
        match self {
            RowOrder::Column(i) => match key {
                [cell] => row[*i].cmp(cell),
                _ => std::slice::from_ref(&row[*i]).cmp(key),
            },
            RowOrder::Columns(idx) => idx.iter().map(|&i| &row[i]).cmp(key),
            RowOrder::Whole => row.as_slice().cmp(key),
        }
    }

    /// `row`'s key cells: borrowed, but for a key of several columns.
    fn key<'a>(&self, row: &'a Row) -> std::borrow::Cow<'a, [Value]> {
        match self {
            RowOrder::Column(i) => std::slice::from_ref(&row[*i]).into(),
            RowOrder::Columns(idx) => project_row(row, idx).into(),
            RowOrder::Whole => row.as_slice().into(),
        }
    }
}

impl Order<Row> for RowOrder {
    fn cmp(&self, a: &Row, b: &Row) -> Ordering {
        match self {
            RowOrder::Column(i) => a[*i].cmp(&b[*i]),
            RowOrder::Columns(idx) => (idx.iter().map(|&i| &a[i])).cmp(idx.iter().map(|&i| &b[i])),
            RowOrder::Whole => a.cmp(b),
        }
    }
}

impl PartialEq for Table {
    fn eq(&self, other: &Table) -> bool {
        self.schema == other.schema && self.rows == other.rows
    }
}

impl Eq for Table {}

impl Table {
    /// An empty table with the given schema.
    pub fn new(schema: Schema) -> Table {
        let rows = CowMap::with_order(RowOrder::of(&schema));
        Table::derived(schema, rows)
    }

    /// Build a table from rows, validating each and rejecting key clashes,
    /// in one pass: rows arriving in ascending key order load chunk by
    /// chunk as they come ([`crate::cow_map`]); from the first row that
    /// does not ascend on, rows go through [`Table::insert`], so the
    /// result — or the [`StoreError::KeyViolation`] — is the same as
    /// inserting every row in turn.
    pub fn from_rows(
        schema: Schema,
        rows: impl IntoIterator<Item = Row>,
    ) -> Result<Table, StoreError> {
        let mut load = AscendingLoad::new(RowOrder::of(&schema));
        let mut rows = rows.into_iter();
        let mut stray = None;
        for row in rows.by_ref() {
            schema.check_row(&row)?;
            if let Err(row) = load.push(row) {
                stray = Some(row);
                break;
            }
        }
        let mut t = Table::derived(schema, load.finish());
        for row in stray.into_iter().chain(rows) {
            t.insert(row)?;
        }
        Ok(t)
    }

    /// A table of `schema` over `rows`, with no index.
    fn derived(schema: Schema, rows: CowMap<Row, RowOrder>) -> Table {
        Table {
            schema,
            rows,
            indexes: Vec::new(),
        }
    }

    /// A table of `schema` over `rows`, whose entries were already
    /// checked against it: the relational operators' output. They load
    /// in one pass, so rows emitted in key order fill whole chunks
    /// ([`crate::cow_map`]).
    fn collected(schema: Schema, rows: impl IntoIterator<Item = Row>) -> Table {
        let rows = CowMap::from_entries(RowOrder::of(&schema), rows);
        Table::derived(schema, rows)
    }

    /// The table's schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Is the table empty?
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Iterate rows in key order.
    pub fn rows(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter()
    }

    /// All rows, cloned, in key order.
    pub fn to_rows(&self) -> Vec<Row> {
        self.rows.iter().cloned().collect()
    }

    /// The key values of a row under this schema.
    pub fn key_of(&self, row: &Row) -> Row {
        project_row(row, self.schema.key_indices())
    }

    /// The stored row whose key cells equal `row`'s; a row of another
    /// arity has none.
    fn same_key(&self, row: &Row) -> Option<&Row> {
        if row.len() != self.schema.arity() {
            return None;
        }
        self.rows.get(|r| self.rows.order().cmp(r, row))
    }

    /// Does an identical row exist?
    pub fn contains(&self, row: &Row) -> bool {
        self.same_key(row) == Some(row)
    }

    /// Look up a row by its key values.
    pub fn get_by_key(&self, key: &(impl AsRef<[Value]> + ?Sized)) -> Option<&Row> {
        let key = key.as_ref();
        self.rows.get(|r| self.rows.order().cmp_key(r, key))
    }

    /// Insert a row. Inserting an identical row is a no-op; a row whose
    /// key matches a *different* existing row is a [`StoreError::KeyViolation`].
    pub fn insert(&mut self, row: Row) -> Result<(), StoreError> {
        self.schema.check_row(&row)?;
        match self.same_key(&row) {
            Some(existing) if *existing != row => Err(StoreError::KeyViolation(format!(
                "key {:?} already bound to a different row",
                self.key_of(&row)
            ))),
            Some(_) => Ok(()), // identical row: no-op, indexes already current
            None => {
                let key = self.rows.order().key(&row);
                for idx in &mut self.indexes {
                    idx.add(&key, &row);
                }
                drop(key);
                self.rows.insert(row);
                Ok(())
            }
        }
    }

    /// Insert or replace by key, returning the replaced row if any.
    /// Upserting an identical row writes nothing, and an index whose
    /// column kept its value is not touched.
    pub fn upsert(&mut self, row: Row) -> Result<Option<Row>, StoreError> {
        self.schema.check_row(&row)?;
        if self.indexes.is_empty() {
            return Ok(self.rows.insert_changed(row).unwrap_or_else(Some));
        }
        let order = self.rows.order();
        let old = self.rows.get(|r| order.cmp(r, &row));
        if old == Some(&row) {
            return Ok(Some(row));
        }
        let key = order.key(&row);
        for idx in &mut self.indexes {
            let c = idx.col_idx();
            match old {
                Some(old) if old[c] == row[c] => {}
                Some(old) => {
                    idx.remove(&key, old);
                    idx.add(&key, &row);
                }
                None => idx.add(&key, &row),
            }
        }
        drop(key);
        Ok(self.rows.insert(row))
    }

    /// Delete an identical row; returns whether it was present. Deleting
    /// an absent row writes nothing.
    pub fn delete(&mut self, row: &Row) -> bool {
        if !self.contains(row) {
            return false;
        }
        let order = self.rows.order().clone();
        let key = order.key(row);
        for idx in &mut self.indexes {
            idx.remove(&key, row);
        }
        self.rows.remove(|r| order.cmp(r, row));
        true
    }

    /// Delete by key values; returns the removed row if any.
    pub fn delete_by_key(&mut self, key: &Row) -> Option<Row> {
        let order = self.rows.order().clone();
        let removed = self.rows.remove(|r| order.cmp_key(r, key))?;
        for idx in &mut self.indexes {
            idx.remove(key, &removed);
        }
        Some(removed)
    }

    /// Remove all rows.
    pub fn clear(&mut self) {
        self.rows.clear();
        for idx in &mut self.indexes {
            idx.clear();
        }
    }

    // ------------------------------------------------------------------
    // Secondary indexes.
    // ------------------------------------------------------------------

    /// Create a secondary index on `column`. Idempotent: re-indexing an
    /// already-indexed column is a no-op. Indexing an unknown column is an
    /// error.
    pub fn create_index(&mut self, column: &str) -> Result<(), StoreError> {
        let col_idx = self.schema.index_of(column)?;
        if self.indexes.iter().any(|i| i.column() == column) {
            return Ok(());
        }
        let order = self.rows.order();
        let rows = self.rows.iter().map(|row| (order.key(row), row));
        let idx = ColumnIndex::build(column, col_idx, rows);
        self.indexes.push(idx);
        Ok(())
    }

    /// Drop the index on `column`; returns whether one existed.
    pub fn drop_index(&mut self, column: &str) -> bool {
        let before = self.indexes.len();
        self.indexes.retain(|i| i.column() != column);
        self.indexes.len() != before
    }

    /// Names of the indexed columns.
    pub fn indexed_columns(&self) -> Vec<&str> {
        self.indexes.iter().map(ColumnIndex::column).collect()
    }

    /// The index on `column`, if one exists.
    pub fn index(&self, column: &str) -> Option<&ColumnIndex> {
        self.indexes.iter().find(|i| i.column() == column)
    }

    // ------------------------------------------------------------------
    // Key ranges: ordered access for range sharding and rebalancing.
    // ------------------------------------------------------------------

    /// Iterate rows whose key lies in `[lo, hi)` (in key order; `None`
    /// leaves that side unbounded). Keys compare by the schema's key
    /// projection, so a sharding layer can slice a table into contiguous
    /// key ranges without scanning rows outside the range.
    pub fn rows_in_key_range<'a>(
        &'a self,
        lo: Option<&'a Row>,
        hi: Option<&'a Row>,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        let order = self.rows.order();
        let below = move |r: &Row, bound: Option<&Row>| {
            bound.is_some_and(|key| order.cmp_key(r, key).is_lt())
        };
        (self.rows).range(move |r| below(r, lo), move |r| hi.is_none() || below(r, hi))
    }

    /// Iterate rows whose leading key cell lies within `lo` and `hi`, in
    /// key order: a seek to the first, then a walk while the cell stays
    /// in bounds. The leading key cell is the first key column's, or
    /// column 0's when the schema declares no key; rows order by it
    /// first, so the rows within bounds are contiguous. Unlike
    /// [`Table::rows_in_key_range`], either bound may be inclusive or
    /// exclusive. A table of no columns has no cell to bound: every row
    /// is within.
    pub fn rows_in_lead_range<'a>(
        &'a self,
        lo: Bound<&'a Value>,
        hi: Bound<&'a Value>,
    ) -> impl Iterator<Item = &'a Row> + 'a {
        let lead = self.lead_column();
        (self.rows).range(
            move |r| lead.is_some_and(|c| before_start(lo, &r[c])),
            move |r| lead.is_none_or(|c| before_end(hi, &r[c])),
        )
    }

    /// The leading key cell's column: the first key column, or column 0
    /// when the schema declares no key (`None` for a table of no
    /// columns).
    fn lead_column(&self) -> Option<usize> {
        self.schema.key_indices().first().copied()
    }

    /// Split off the upper key range: rows with key `>= at` move into the
    /// returned table (same schema, secondary indexes rebuilt on both
    /// sides); rows with key `< at` stay. O(chunks) for the row split
    /// plus O(moved) index maintenance.
    pub fn split_off_key(&mut self, at: &Row) -> Table {
        let order = self.rows.order().clone();
        let moved = self.rows.split_off(|r| order.cmp_key(r, at).is_lt());
        for idx in &mut self.indexes {
            for row in moved.iter() {
                idx.remove(&order.key(row), row);
            }
        }
        let mut out = Table::derived(self.schema.clone(), moved);
        for column in self.indexed_columns() {
            out.create_index(column)
                .expect("column exists: it was indexed on the source table");
        }
        out
    }

    /// Append `other`'s rows, all keyed above this table's: the row
    /// chunks join this table's shared ([`CowMap::append`]), so the
    /// concatenation costs O(chunks). This table's secondary indexes
    /// take `other`'s rows one by one. Refused when the schemas differ
    /// or the key ranges overlap.
    pub fn append(&mut self, other: &Table) -> Result<(), StoreError> {
        if self.schema != other.schema {
            return Err(StoreError::SchemaMismatch(
                "append between different schemas".into(),
            ));
        }
        if !self.rows.append(&other.rows) {
            return Err(StoreError::KeyViolation(
                "appended rows must all key above the table's".into(),
            ));
        }
        let order = self.rows.order();
        for idx in &mut self.indexes {
            for row in other.rows.iter() {
                idx.add(&order.key(row), row);
            }
        }
        Ok(())
    }

    /// The key of the row at position `idx` in key order (`None` when out
    /// of bounds). A rebalancer picks split points with this: `key_at(len
    /// / 2)` is the median key.
    pub fn key_at(&self, idx: usize) -> Option<Row> {
        self.rows.entry_at(idx).map(|row| self.key_of(row))
    }

    /// The row map, for diffs that skip the chunks two tables share.
    pub(crate) fn row_map(&self) -> &CowMap<Row, RowOrder> {
        &self.rows
    }

    // ------------------------------------------------------------------
    // Relational algebra. Each operator returns a fresh table.
    // ------------------------------------------------------------------

    /// σ: the rows satisfying `pred`. Same schema.
    ///
    /// One pass: `pred` is bound to the schema once ([`Predicate::bind`]),
    /// and the bound predicate decides every row the pass reads, so the
    /// result is the same whichever rows it reads:
    /// - when `pred` bounds the leading key cell, a seek
    ///   ([`Table::rows_in_lead_range`]) reads the rows in those bounds;
    /// - otherwise, when the table carries a secondary index that `pred`
    ///   constrains ([`Table::create_index`]), an index probe reads the
    ///   rows it names: the planner picks the probe estimating the fewest
    ///   rows ([`Predicate::index_probe_with`]), and a range probe's rows
    ///   are put back in key order (an equality probe's arrive in it,
    ///   since index entries of one value order by key);
    /// - otherwise, a scan reads every row.
    pub fn select(&self, pred: &Predicate) -> Result<Table, StoreError> {
        let bound = pred.bind(&self.schema)?;
        let mut kept = Vec::new();
        let keep = |row: &Row| {
            if bound.eval(row) {
                kept.push(row.clone());
            }
        };
        let (lo, hi) = match self.lead_column() {
            Some(lead) => pred.value_bounds(&self.schema.columns()[lead].name),
            None => (Bound::Unbounded, Bound::Unbounded),
        };
        if (&lo, &hi) != (&Bound::Unbounded, &Bound::Unbounded) {
            self.rows_in_lead_range(lo.as_ref(), hi.as_ref())
                .for_each(keep);
        } else if let Some(probe) = pred.index_probe_with(&self.indexes) {
            let idx = (self.index(&probe.column)).expect("probe only names indexed columns");
            let mut candidates: Vec<&Row> = (idx.keys_for(&probe))
                .map(|key| self.get_by_key(key).expect("index keys name stored rows"))
                .collect();
            if !probe.is_eq() {
                candidates.sort_unstable_by(|a, b| self.rows.order().cmp(a, b));
            }
            candidates.into_iter().for_each(keep);
        } else {
            self.rows.iter().for_each(keep);
        }
        Ok(Table::collected(self.schema.clone(), kept))
    }

    /// π: project onto named columns, deduplicating (set semantics).
    ///
    /// If the projection drops key columns, the result is keyed on the
    /// whole row; duplicate projected rows collapse silently.
    pub fn project(&self, names: &[String]) -> Result<Table, StoreError> {
        let schema = self.schema.project(names)?;
        let indices = self.schema.indices_of(names)?;
        let rows = self.rows.iter().map(|row| project_row(row, &indices));
        Ok(Table::collected(schema, rows))
    }

    /// ρ: rename columns according to `(old, new)` pairs.
    pub fn rename(&self, renames: &[(String, String)]) -> Result<Table, StoreError> {
        let schema = self.schema.rename(renames)?;
        // Renaming keeps every key column in place, so the rows keep
        // their order, and the result shares every chunk.
        Ok(Table::derived(schema, self.rows.clone()))
    }

    /// ∪: set union. Schemas must match exactly; key clashes between
    /// distinct rows are a [`StoreError::KeyViolation`].
    pub fn union(&self, other: &Table) -> Result<Table, StoreError> {
        if !self.schema.same_columns(&other.schema) {
            return Err(StoreError::SchemaMismatch(
                "union of different schemas".into(),
            ));
        }
        let mut out = self.clone();
        for row in other.rows.iter() {
            out.insert(row.clone())?;
        }
        Ok(out)
    }

    /// ∖: set difference (rows of `self` not present in `other`).
    pub fn difference(&self, other: &Table) -> Result<Table, StoreError> {
        if !self.schema.same_columns(&other.schema) {
            return Err(StoreError::SchemaMismatch(
                "difference of different schemas".into(),
            ));
        }
        let rows = self.rows.iter().filter(|row| !other.contains(row));
        Ok(Table::collected(self.schema.clone(), rows.cloned()))
    }

    /// ∩: set intersection.
    pub fn intersect(&self, other: &Table) -> Result<Table, StoreError> {
        if !self.schema.same_columns(&other.schema) {
            return Err(StoreError::SchemaMismatch(
                "intersection of different schemas".into(),
            ));
        }
        let rows = self.rows.iter().filter(|row| other.contains(row));
        Ok(Table::collected(self.schema.clone(), rows.cloned()))
    }

    /// ⋈: natural join on the shared column names.
    ///
    /// The result schema is `self`'s columns followed by `other`'s
    /// non-shared columns; its key is the union of both keys (falling back
    /// to whole-row if either side had whole-row keying).
    pub fn natural_join(&self, other: &Table) -> Result<Table, StoreError> {
        let shared = self.schema.shared_columns(&other.schema)?;
        let left_shared = self.schema.indices_of(&shared)?;
        let right_shared = other.schema.indices_of(&shared)?;
        let right_rest: Vec<usize> = (0..other.schema.arity())
            .filter(|i| !right_shared.contains(i))
            .collect();

        // Result schema: left columns ++ right-only columns.
        let mut columns: Vec<crate::schema::Column> = self.schema.columns().to_vec();
        for &i in &right_rest {
            columns.push(other.schema.columns()[i].clone());
        }
        let key: Vec<String> = if self.schema.key().is_empty() || other.schema.key().is_empty() {
            Vec::new()
        } else {
            let mut k: Vec<String> = self.schema.key().to_vec();
            for kk in other.schema.key() {
                if !k.contains(kk) {
                    k.push(kk.clone());
                }
            }
            k
        };
        let schema = Schema::new(columns, key)?;

        // Join on shared values: reuse an existing secondary index on the
        // right table when the join is on exactly that one column;
        // otherwise build a transient map for this join.
        let reusable: Option<&ColumnIndex> = match shared.as_slice() {
            [only] => other.index(only),
            _ => None,
        };
        let mut right_index: BTreeMap<Row, Vec<&Row>> = BTreeMap::new();
        if reusable.is_none() {
            for row in other.rows.iter() {
                right_index
                    .entry(project_row(row, &right_shared))
                    .or_default()
                    .push(row);
            }
        }
        let matches_of = |lkey: &Row| -> Vec<&Row> {
            match reusable {
                Some(idx) => (idx.keys_eq(&lkey[0]))
                    .map(|key| other.get_by_key(key).expect("index keys name stored rows"))
                    .collect(),
                None => right_index.get(lkey).cloned().unwrap_or_default(),
            }
        };

        let mut out = Table::new(schema);
        for lrow in self.rows.iter() {
            let lkey = project_row(lrow, &left_shared);
            for rrow in matches_of(&lkey) {
                let mut joined = lrow.clone();
                for &i in &right_rest {
                    joined.push(rrow[i].clone());
                }
                if let Ok(Some(replaced)) = out.rows.insert_changed(joined) {
                    return Err(StoreError::KeyViolation(format!(
                        "join produced two rows with key {:?}",
                        out.key_of(&replaced)
                    )));
                }
            }
        }
        Ok(out)
    }

    /// Pretty-print the table with a header row.
    pub fn render(&self) -> String {
        let names = self.schema.column_names();
        let mut widths: Vec<usize> = names.iter().map(|n| n.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.iter().map(Value::to_string).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::from("|");
            for (c, w) in cells.iter().zip(widths) {
                line.push_str(&format!(" {c:w$} |"));
            }
            line
        };
        let header: Vec<String> = names.iter().map(|s| s.to_string()).collect();
        out.push_str(&fmt_row(&header, &widths));
        out.push('\n');
        out.push_str(&format!(
            "|{}|",
            widths
                .iter()
                .map(|w| "-".repeat(w + 2))
                .collect::<Vec<_>>()
                .join("|")
        ));
        for row in &rendered {
            out.push('\n');
            out.push_str(&fmt_row(row, &widths));
        }
        out
    }
}

impl std::fmt::Display for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.render())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::predicate::{Operand, Predicate};
    use crate::row;
    use crate::value::ValueType;

    fn people() -> Table {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("age", ValueType::Int),
            ],
            &["id"],
        )
        .unwrap();
        Table::from_rows(
            schema,
            vec![
                row![1, "ada", 36],
                row![2, "alan", 41],
                row![3, "grace", 85],
            ],
        )
        .unwrap()
    }

    #[test]
    fn insert_validates_types_and_keys() {
        let mut t = people();
        assert!(matches!(
            t.insert(row![1, "imposter", 1]),
            Err(StoreError::KeyViolation(_))
        ));
        assert!(matches!(
            t.insert(row!["x", "y", 1]),
            Err(StoreError::TypeMismatch { .. })
        ));
        // Re-inserting an identical row is a no-op.
        assert!(t.insert(row![1, "ada", 36]).is_ok());
        assert_eq!(t.len(), 3);
    }

    #[test]
    fn upsert_replaces_by_key() {
        let mut t = people();
        let old = t.upsert(row![1, "ada lovelace", 36]).unwrap();
        assert_eq!(old, Some(row![1, "ada", 36]));
        assert_eq!(
            t.get_by_key(&row![1]).unwrap()[1],
            Value::str("ada lovelace")
        );
    }

    #[test]
    fn delete_by_row_and_key() {
        let mut t = people();
        assert!(t.delete(&row![2, "alan", 41]));
        assert!(!t.delete(&row![2, "alan", 41]));
        assert_eq!(t.delete_by_key(&row![3]), Some(row![3, "grace", 85]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn select_filters_rows() {
        let t = people();
        let pred = Predicate::gt(Operand::col("age"), Operand::val(40));
        let s = t.select(&pred).unwrap();
        assert_eq!(s.len(), 2);
        assert!(s.rows().all(|r| r[2].as_int().unwrap() > 40));
    }

    #[test]
    fn project_deduplicates() {
        let schema = Schema::build(&[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap();
        let t = Table::from_rows(schema, vec![row![1, 10], row![1, 20], row![2, 10]]).unwrap();
        let p = t.project(&["a".to_string()]).unwrap();
        assert_eq!(p.len(), 2);
    }

    #[test]
    fn rename_changes_header_not_rows() {
        let t = people();
        let r = t
            .rename(&[("name".to_string(), "full_name".to_string())])
            .unwrap();
        assert!(r.schema().index_of("full_name").is_ok());
        assert_eq!(r.len(), 3);
        assert_eq!(r.to_rows(), t.to_rows());
    }

    #[test]
    fn union_difference_intersect_are_setlike() {
        let schema = Schema::build(&[("x", ValueType::Int)], &[]).unwrap();
        let t1 = Table::from_rows(schema.clone(), vec![row![1], row![2]]).unwrap();
        let t2 = Table::from_rows(schema, vec![row![2], row![3]]).unwrap();
        assert_eq!(t1.union(&t2).unwrap().len(), 3);
        assert_eq!(t1.difference(&t2).unwrap().to_rows(), vec![row![1]]);
        assert_eq!(t1.intersect(&t2).unwrap().to_rows(), vec![row![2]]);
    }

    #[test]
    fn natural_join_matches_on_shared_columns() {
        let orders = Table::from_rows(
            Schema::build(
                &[("oid", ValueType::Int), ("pid", ValueType::Int)],
                &["oid"],
            )
            .unwrap(),
            vec![row![100, 1], row![101, 2], row![102, 1]],
        )
        .unwrap();
        let products = Table::from_rows(
            Schema::build(
                &[("pid", ValueType::Int), ("pname", ValueType::Str)],
                &["pid"],
            )
            .unwrap(),
            vec![row![1, "widget"], row![2, "gadget"]],
        )
        .unwrap();
        let j = orders.natural_join(&products).unwrap();
        assert_eq!(j.len(), 3);
        assert_eq!(j.schema().column_names(), vec!["oid", "pid", "pname"]);
        let r = j.get_by_key(&row![100, 1]).unwrap();
        assert_eq!(r[2], Value::str("widget"));
    }

    #[test]
    fn join_with_no_matches_is_empty() {
        let t1 = Table::from_rows(
            Schema::build(&[("k", ValueType::Int)], &[]).unwrap(),
            vec![row![1]],
        )
        .unwrap();
        let t2 = Table::from_rows(
            Schema::build(&[("k", ValueType::Int)], &[]).unwrap(),
            vec![row![2]],
        )
        .unwrap();
        assert!(t1.natural_join(&t2).unwrap().is_empty());
    }

    #[test]
    fn algebra_identities_hold() {
        // σ_p(t1 ∪ t2) = σ_p(t1) ∪ σ_p(t2)
        let schema = Schema::build(&[("x", ValueType::Int)], &[]).unwrap();
        let t1 = Table::from_rows(schema.clone(), vec![row![1], row![5]]).unwrap();
        let t2 = Table::from_rows(schema, vec![row![3], row![7]]).unwrap();
        let p = Predicate::gt(Operand::col("x"), Operand::val(2));
        let lhs = t1.union(&t2).unwrap().select(&p).unwrap();
        let rhs = t1
            .select(&p)
            .unwrap()
            .union(&t2.select(&p).unwrap())
            .unwrap();
        assert_eq!(lhs, rhs);

        // π is idempotent.
        let cols = vec!["x".to_string()];
        let once = t1.project(&cols).unwrap();
        let twice = once.project(&cols).unwrap();
        assert_eq!(once, twice);
    }

    #[test]
    fn indexed_select_matches_full_scan() {
        let mut t = people();
        t.create_index("age").unwrap();
        assert_eq!(t.indexed_columns(), vec!["age"]);
        let preds = [
            Predicate::eq(Operand::col("age"), Operand::val(41)),
            Predicate::gt(Operand::col("age"), Operand::val(40)),
            Predicate::le(Operand::col("age"), Operand::val(41)),
            Predicate::lt(Operand::val(40), Operand::col("age")),
            Predicate::eq(Operand::col("age"), Operand::val(41))
                .and(Predicate::eq(Operand::col("name"), Operand::val("alan"))),
        ];
        let plain = people();
        for p in preds {
            assert_eq!(t.select(&p).unwrap(), plain.select(&p).unwrap(), "pred {p}");
        }
    }

    #[test]
    fn indexes_follow_mutations_and_clones() {
        let mut t = people();
        t.create_index("age").unwrap();
        t.create_index("age").unwrap(); // idempotent
        assert_eq!(t.indexed_columns().len(), 1);

        let eq41 = Predicate::eq(Operand::col("age"), Operand::val(41));
        t.upsert(row![2, "alan turing", 41]).unwrap(); // replace, same age
        t.upsert(row![1, "ada", 41]).unwrap(); // age moves 36 -> 41
        t.insert(row![4, "barbara", 41]).unwrap();
        t.delete(&row![3, "grace", 85]);
        let selected = t.select(&eq41).unwrap();
        assert_eq!(selected.len(), 3);

        // A clone keeps the index and diverges independently.
        let mut c = t.clone();
        c.delete_by_key(&row![4]);
        assert_eq!(c.select(&eq41).unwrap().len(), 2);
        assert_eq!(t.select(&eq41).unwrap().len(), 3);

        // Equality ignores indexes.
        let plain = {
            let mut p = Table::from_rows(t.schema().clone(), t.rows().cloned()).unwrap();
            assert!(p.indexed_columns().is_empty());
            p.drop_index("age");
            p
        };
        assert_eq!(t, plain);

        assert!(t.drop_index("age"));
        assert!(!t.drop_index("age"));
    }

    #[test]
    fn create_index_rejects_unknown_columns() {
        let mut t = people();
        assert!(t.create_index("ghost").is_err());
    }

    #[test]
    fn join_reuses_right_index() {
        let orders = Table::from_rows(
            Schema::build(
                &[("oid", ValueType::Int), ("pid", ValueType::Int)],
                &["oid"],
            )
            .unwrap(),
            vec![row![100, 1], row![101, 2], row![102, 1]],
        )
        .unwrap();
        let mut products = Table::from_rows(
            Schema::build(
                &[("pid", ValueType::Int), ("pname", ValueType::Str)],
                &["pid"],
            )
            .unwrap(),
            vec![row![1, "widget"], row![2, "gadget"]],
        )
        .unwrap();
        let plain = orders.natural_join(&products).unwrap();
        products.create_index("pid").unwrap();
        let indexed = orders.natural_join(&products).unwrap();
        assert_eq!(plain, indexed);
    }

    #[test]
    fn render_produces_aligned_ascii() {
        let t = people();
        let s = t.render();
        assert!(s.starts_with("| id | name"));
        assert!(s.contains("| 1  | ada"));
    }

    #[test]
    fn key_range_iteration_is_half_open() {
        let t = people();
        let ids = |lo: Option<Row>, hi: Option<Row>| -> Vec<i64> {
            t.rows_in_key_range(lo.as_ref(), hi.as_ref())
                .map(|r| r[0].clone())
                .filter_map(|v| match v {
                    Value::Int(i) => Some(i),
                    _ => None,
                })
                .collect()
        };
        assert_eq!(ids(None, None), vec![1, 2, 3]);
        assert_eq!(ids(Some(row![2]), None), vec![2, 3]);
        assert_eq!(ids(None, Some(row![2])), vec![1]);
        assert_eq!(ids(Some(row![2]), Some(row![3])), vec![2]);
        assert_eq!(ids(Some(row![9]), None), Vec::<i64>::new());
    }

    #[test]
    fn split_off_key_moves_the_upper_range_with_indexes() {
        let mut t = people();
        t.create_index("age").unwrap();
        let upper = t.split_off_key(&row![2]);
        assert_eq!(t.len(), 1);
        assert!(t.contains(&row![1, "ada", 36]));
        assert_eq!(upper.len(), 2);
        assert!(upper.contains(&row![2, "alan", 41]) && upper.contains(&row![3, "grace", 85]));
        // Both sides keep a consistent age index.
        assert_eq!(t.indexed_columns(), vec!["age"]);
        assert_eq!(upper.indexed_columns(), vec!["age"]);
        let hit = upper
            .select(&Predicate::eq(Operand::col("age"), Operand::val(41)))
            .unwrap();
        assert_eq!(hit.len(), 1);
        let miss = t
            .select(&Predicate::eq(Operand::col("age"), Operand::val(41)))
            .unwrap();
        assert!(miss.is_empty(), "moved rows left the source index");
    }

    #[test]
    fn append_undoes_a_split_and_refuses_overlaps() {
        let whole = people();
        let mut lower = whole.clone();
        lower.create_index("age").unwrap();
        let upper = lower.split_off_key(&row![2]);
        lower.append(&upper).unwrap();
        assert_eq!(lower, whole);
        // The lower side's index took the appended rows.
        let hit = lower
            .select(&Predicate::eq(Operand::col("age"), Operand::val(85)))
            .unwrap();
        assert_eq!(hit.to_rows(), vec![row![3, "grace", 85]]);
        assert!(matches!(
            lower.append(&upper),
            Err(StoreError::KeyViolation(_))
        ));
        assert_eq!(lower, whole, "a refused append changes nothing");
        let other = Table::new(Schema::build(&[("id", ValueType::Int)], &["id"]).unwrap());
        assert!(matches!(
            lower.append(&other),
            Err(StoreError::SchemaMismatch(_))
        ));
    }

    #[test]
    fn key_at_picks_split_points() {
        let t = people();
        assert_eq!(t.key_at(0), Some(row![1]));
        assert_eq!(t.key_at(1), Some(row![2]));
        assert_eq!(t.key_at(3), None);
    }
}
