//! A named collection of tables, with snapshots.

use std::collections::BTreeMap;

use crate::error::StoreError;
use crate::table::Table;

/// A simple multi-table database: a name → [`Table`] map.
///
/// `Database` is a value type: [`Database::snapshot`] is just `clone`, so
/// callers can capture before/after states and diff them with
/// [`crate::Delta`]. A snapshot shares every table's row and index
/// chunks with the original — O(tables), not O(rows) — and a later
/// write to either side copies only the chunk it touches (see
/// [`crate::cow_map`]).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Database {
    tables: BTreeMap<String, Table>,
}

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Create a table under a fresh name. Re-using a name is an error (use
    /// [`Database::replace_table`] to overwrite).
    pub fn create_table(
        &mut self,
        name: impl Into<String>,
        table: Table,
    ) -> Result<(), StoreError> {
        let name = name.into();
        if self.tables.contains_key(&name) {
            return Err(StoreError::BadSchema(format!(
                "table {name} already exists"
            )));
        }
        self.tables.insert(name, table);
        Ok(())
    }

    /// Replace (or create) a table.
    pub fn replace_table(&mut self, name: impl Into<String>, table: Table) {
        self.tables.insert(name.into(), table);
    }

    /// Drop a table, returning it if it existed.
    pub fn drop_table(&mut self, name: &str) -> Option<Table> {
        self.tables.remove(name)
    }

    /// Read a table.
    pub fn table(&self, name: &str) -> Result<&Table, StoreError> {
        self.tables
            .get(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Mutable access to a table.
    pub fn table_mut(&mut self, name: &str) -> Result<&mut Table, StoreError> {
        self.tables
            .get_mut(name)
            .ok_or_else(|| StoreError::NoSuchTable(name.to_string()))
    }

    /// Table names, sorted.
    pub fn table_names(&self) -> Vec<&str> {
        self.tables.keys().map(String::as_str).collect()
    }

    /// Number of tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// Is the database empty?
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// An independent copy of the current state, sharing unchanged
    /// chunks with it.
    pub fn snapshot(&self) -> Database {
        self.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;
    use crate::schema::Schema;
    use crate::value::ValueType;

    fn t() -> Table {
        Table::from_rows(
            Schema::build(&[("id", ValueType::Int)], &["id"]).unwrap(),
            vec![row![1]],
        )
        .unwrap()
    }

    #[test]
    fn create_and_read_tables() {
        let mut db = Database::new();
        db.create_table("t", t()).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 1);
        assert!(matches!(db.table("nope"), Err(StoreError::NoSuchTable(_))));
    }

    #[test]
    fn duplicate_create_is_rejected() {
        let mut db = Database::new();
        db.create_table("t", t()).unwrap();
        assert!(db.create_table("t", t()).is_err());
        db.replace_table("t", t()); // but replace is fine
    }

    #[test]
    fn snapshots_are_independent() {
        let mut db = Database::new();
        db.create_table("t", t()).unwrap();
        let snap = db.snapshot();
        db.table_mut("t").unwrap().insert(row![2]).unwrap();
        assert_eq!(db.table("t").unwrap().len(), 2);
        assert_eq!(snap.table("t").unwrap().len(), 1);
    }

    #[test]
    fn drop_returns_the_table() {
        let mut db = Database::new();
        db.create_table("t", t()).unwrap();
        assert!(db.drop_table("t").is_some());
        assert!(db.drop_table("t").is_none());
        assert!(db.is_empty());
    }
}
