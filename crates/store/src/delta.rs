//! Row-level deltas: the difference between two table states, applicable
//! and invertible. Used to report what a bx update actually changed.

use std::cmp::Ordering;

use crate::cow_map::Order;
use crate::error::StoreError;
use crate::row::Row;
use crate::table::{RowOrder, Table};

/// A set-difference delta between two table states.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Delta {
    /// Rows present in the new state but not the old.
    pub inserted: Vec<Row>,
    /// Rows present in the old state but not the new.
    pub deleted: Vec<Row>,
}

impl Delta {
    /// The empty delta.
    pub fn empty() -> Delta {
        Delta::default()
    }

    /// Is this a no-op?
    pub fn is_empty(&self) -> bool {
        self.inserted.is_empty() && self.deleted.is_empty()
    }

    /// Total number of row changes.
    pub fn len(&self) -> usize {
        self.inserted.len() + self.deleted.len()
    }

    /// Compute the delta taking `old` to `new`. Schemas must match.
    ///
    /// When the tables also agree on their declared key, this is a single
    /// ordered merge over the two key-ordered row maps that skips the
    /// chunks they share ([`crate::cow_map::CowMap::unshared`]): a table
    /// and an edited clone of it diff in O(chunks + the chunks the edit
    /// copied). Tables with equal columns but different key declarations
    /// sort their rows differently, so they fall back to the per-row
    /// containment scan (same result, O(n + m) lookups).
    pub fn between(old: &Table, new: &Table) -> Result<Delta, StoreError> {
        if !old.schema().same_columns(new.schema()) {
            return Err(StoreError::SchemaMismatch(
                "delta between different schemas".into(),
            ));
        }
        if old.schema().key() != new.schema().key() {
            let inserted = new.rows().filter(|r| !old.contains(r)).cloned().collect();
            let deleted = old.rows().filter(|r| !new.contains(r)).cloned().collect();
            return Ok(Delta { inserted, deleted });
        }
        let mut inserted = Vec::new();
        let mut deleted = Vec::new();
        let order = old.row_map().order();
        let (olds, news) = old.row_map().unshared(new.row_map());
        let (mut olds, mut news) = (olds.peekable(), news.peekable());
        loop {
            match (olds.peek(), news.peek()) {
                (Some(&orow), Some(&nrow)) => match order.cmp(orow, nrow) {
                    Ordering::Less => {
                        deleted.push(orow.clone());
                        olds.next();
                    }
                    Ordering::Greater => {
                        inserted.push(nrow.clone());
                        news.next();
                    }
                    Ordering::Equal => {
                        if orow != nrow {
                            deleted.push(orow.clone());
                            inserted.push(nrow.clone());
                        }
                        olds.next();
                        news.next();
                    }
                },
                (Some(_), None) => {
                    deleted.extend(olds.cloned());
                    break;
                }
                (None, Some(_)) => {
                    inserted.extend(news.cloned());
                    break;
                }
                (None, None) => break,
            }
        }
        Ok(Delta { inserted, deleted })
    }

    /// Apply to a table: delete `deleted`, then upsert `inserted`.
    pub fn apply(&self, table: &Table) -> Result<Table, StoreError> {
        let mut out = table.clone();
        self.apply_in_place(&mut out)?;
        Ok(out)
    }

    /// Apply to a table in place — the path for replay, commits and
    /// materialized views, which own their table and must not pay even a
    /// chunk copy for rows the delta leaves alone. A deleted row whose
    /// key an inserted row takes is not deleted first: the upsert
    /// replaces it, so an update leaves the indexes on columns it kept
    /// untouched. Same result as deleting every row, then upserting.
    pub fn apply_in_place(&self, table: &mut Table) -> Result<(), StoreError> {
        self.delete_unreplaced(table);
        for row in &self.inserted {
            table.upsert(row.clone())?;
        }
        Ok(())
    }

    /// [`Delta::apply_in_place`] for a delta the caller is done with:
    /// the inserted rows move into the table instead of being copied.
    pub fn apply_owned(self, table: &mut Table) -> Result<(), StoreError> {
        self.delete_unreplaced(table);
        for row in self.inserted {
            table.upsert(row)?;
        }
        Ok(())
    }

    /// The deleting half of an application: every deleted row whose key
    /// no inserted row takes.
    fn delete_unreplaced(&self, table: &mut Table) {
        if self.deleted.is_empty() {
            return;
        }
        let arity = table.schema().arity();
        let order = table.row_map().order().clone();
        let mut replaced: Vec<&Row> = (self.inserted.iter())
            .filter(|row| row.len() == arity)
            .collect();
        replaced.sort_unstable_by(|a, b| order.cmp(a, b));
        for row in &self.deleted {
            let taken =
                row.len() == arity && replaced.binary_search_by(|r| order.cmp(r, row)).is_ok();
            if !taken {
                table.delete(row);
            }
        }
    }

    /// Sequence two deltas into one: if `self` takes `t0` to `t1` and
    /// `later` takes `t1` to `t2`, the composition takes `t0` straight to
    /// `t2` under [`Delta::apply`]. Rows are matched by their key
    /// projection (`key_idx`, the schema's key column indices); an insert
    /// cancelled by a later delete of the same key drops out, and a
    /// delete-then-reinsert of an identical row nets to nothing.
    ///
    /// View maintenance coalesces a drained run of committed deltas with
    /// this (see [`Delta::coalesce`]) into one application against the
    /// materialized window.
    pub fn compose(&self, later: &Delta, key_idx: &[usize]) -> Delta {
        Delta::coalesce([self, later], key_idx)
    }

    /// Coalesce an ordered run of deltas into one (the empty run
    /// coalesces to the empty delta): applying the result equals
    /// applying the run in order, in a single pass over the target. One
    /// sort of the run's changes by key, then one sweep — O(total change
    /// · log) regardless of run length, building no key and copying only
    /// the rows that survive — so the materialized-view drains and
    /// snapshot catch-ups can fold an arbitrarily long pending run before
    /// touching their target. Rows are matched by their key projection
    /// (`key_idx`); an insert cancelled by a later delete of the same key
    /// drops out, and a delete-then-reinsert of an identical row nets to
    /// nothing.
    pub fn coalesce<'a>(deltas: impl IntoIterator<Item = &'a Delta>, key_idx: &[usize]) -> Delta {
        // Every change in application order (a delta deletes before it
        // inserts); the stable sort keeps that order within each key.
        let order = RowOrder::on(key_idx);
        let mut changes: Vec<(bool, &Row)> = Vec::new();
        for delta in deltas {
            changes.extend(delta.deleted.iter().map(|r| (false, r)));
            changes.extend(delta.inserted.iter().map(|r| (true, r)));
        }
        changes.sort_by(|a, b| order.cmp(a.1, b.1));
        let mut out = Delta::empty();
        for run in changes.chunk_by(|a, b| order.cmp(a.1, b.1).is_eq()) {
            // The key's row before the run — its first deletion, unless
            // an insert it cancels came first — and after it: its last
            // insertion, unless a later deletion cancelled it.
            let (mut before, mut after) = (None, None);
            for &(inserted, row) in run {
                if inserted {
                    after = Some(row);
                } else if after.take().is_none() {
                    before.get_or_insert(row);
                }
            }
            if before != after {
                out.deleted.extend(before.cloned());
                out.inserted.extend(after.cloned());
            }
        }
        out
    }

    /// The inverse delta (swaps inserts and deletes).
    pub fn invert(&self) -> Delta {
        Delta {
            inserted: self.deleted.clone(),
            deleted: self.inserted.clone(),
        }
    }
}

impl std::fmt::Display for Delta {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "delta: +{} -{}", self.inserted.len(), self.deleted.len())?;
        for r in &self.inserted {
            writeln!(f, "  + {r:?}")?;
        }
        for r in &self.deleted {
            writeln!(f, "  - {r:?}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn tbl(rows: Vec<Row>) -> Table {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        Table::from_rows(schema, rows).unwrap()
    }

    #[test]
    fn between_identifies_inserts_and_deletes() {
        let old = tbl(vec![row![1, "a"], row![2, "b"]]);
        let new = tbl(vec![row![2, "b"], row![3, "c"]]);
        let d = Delta::between(&old, &new).unwrap();
        assert_eq!(d.inserted, vec![row![3, "c"]]);
        assert_eq!(d.deleted, vec![row![1, "a"]]);
    }

    #[test]
    fn updates_appear_as_delete_plus_insert() {
        let old = tbl(vec![row![1, "a"]]);
        let new = tbl(vec![row![1, "a2"]]);
        let d = Delta::between(&old, &new).unwrap();
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn apply_roundtrips() {
        let old = tbl(vec![row![1, "a"], row![2, "b"]]);
        let new = tbl(vec![row![2, "b2"], row![3, "c"]]);
        let d = Delta::between(&old, &new).unwrap();
        assert_eq!(d.apply(&old).unwrap(), new);
        // And the inverse takes new back to old.
        assert_eq!(d.invert().apply(&new).unwrap(), old);
    }

    #[test]
    fn between_handles_differing_key_declarations() {
        // Same columns and rows, but one side keys on id and the other on
        // the whole row: the diff must still be empty / minimal.
        let keyed = tbl(vec![row![1, "a"], row![2, "b"]]);
        let unkeyed_schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &[]).unwrap();
        let unkeyed = Table::from_rows(unkeyed_schema, vec![row![1, "a"], row![2, "b"]]).unwrap();
        assert!(Delta::between(&keyed, &unkeyed).unwrap().is_empty());
        assert!(Delta::between(&unkeyed, &keyed).unwrap().is_empty());

        let unkeyed_plus = {
            let mut t = unkeyed.clone();
            t.insert(row![3, "c"]).unwrap();
            t
        };
        let d = Delta::between(&keyed, &unkeyed_plus).unwrap();
        assert_eq!(d.inserted, vec![row![3, "c"]]);
        assert!(d.deleted.is_empty());
    }

    #[test]
    fn apply_in_place_matches_apply() {
        let old = tbl(vec![row![1, "a"], row![2, "b"]]);
        let new = tbl(vec![row![2, "b2"], row![3, "c"]]);
        let d = Delta::between(&old, &new).unwrap();
        let mut in_place = old.clone();
        d.apply_in_place(&mut in_place).unwrap();
        assert_eq!(in_place, d.apply(&old).unwrap());
    }

    #[test]
    fn compose_sequences_two_deltas() {
        let t0 = tbl(vec![row![1, "a"], row![2, "b"]]);
        let t1 = tbl(vec![row![1, "a2"], row![3, "c"]]);
        let t2 = tbl(vec![row![1, "a2"], row![4, "d"]]);
        let d1 = Delta::between(&t0, &t1).unwrap();
        let d2 = Delta::between(&t1, &t2).unwrap();
        let key_idx = t0.schema().key_indices();
        let composed = d1.compose(&d2, key_idx);
        assert_eq!(composed.apply(&t0).unwrap(), t2);
        // The insert of row 3 was cancelled by its later delete.
        assert!(!composed.inserted.iter().any(|r| r[0] == 3.into()));
    }

    #[test]
    fn coalesce_equals_sequential_application() {
        let t0 = tbl(vec![row![1, "a"], row![2, "b"]]);
        let t1 = tbl(vec![row![1, "a2"], row![3, "c"]]);
        let t2 = tbl(vec![row![3, "c"], row![4, "d"]]);
        let t3 = tbl(vec![row![3, "c2"]]);
        let key_idx = t0.schema().key_indices();
        let run = vec![
            Delta::between(&t0, &t1).unwrap(),
            Delta::between(&t1, &t2).unwrap(),
            Delta::between(&t2, &t3).unwrap(),
        ];
        let combined = Delta::coalesce(&run, key_idx);
        assert_eq!(combined.apply(&t0).unwrap(), t3);
        assert!(Delta::coalesce([], key_idx).is_empty());
    }

    #[test]
    fn compose_drops_delete_reinsert_noops() {
        let t0 = tbl(vec![row![1, "a"]]);
        let t1 = tbl(vec![]);
        let d1 = Delta::between(&t0, &t1).unwrap();
        let d2 = Delta::between(&t1, &t0).unwrap(); // reinsert identical row
        let key_idx = t0.schema().key_indices();
        let composed = d1.compose(&d2, key_idx);
        assert!(composed.is_empty());
        // Composing with the empty delta is the identity either way.
        assert_eq!(d1.compose(&Delta::empty(), key_idx), d1);
        assert_eq!(Delta::empty().compose(&d1, key_idx), d1);
    }

    #[test]
    fn empty_delta_between_equal_tables() {
        let t = tbl(vec![row![1, "a"]]);
        let d = Delta::between(&t, &t).unwrap();
        assert!(d.is_empty());
        assert_eq!(d.apply(&t).unwrap(), t);
    }
}
