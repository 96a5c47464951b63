//! Schemas: named, typed columns with a candidate key.

use crate::error::StoreError;
use crate::row::Row;
use crate::value::ValueType;

/// One column: a name and a type.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Column {
    /// Column name, unique within a schema.
    pub name: String,
    /// Declared cell type.
    pub ty: ValueType,
}

impl Column {
    /// Construct a column.
    pub fn new(name: impl Into<String>, ty: ValueType) -> Column {
        Column {
            name: name.into(),
            ty,
        }
    }
}

/// A table schema: ordered columns plus a candidate key (a subset of the
/// column names; an empty key means "the whole row is the key", i.e. plain
/// set semantics).
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct Schema {
    columns: Vec<Column>,
    key: Vec<String>,
    /// Positions of the key columns (every column when `key` is empty),
    /// resolved once here: rows are keyed on every write and lookup.
    key_idx: Vec<usize>,
}

impl Schema {
    /// Build and validate a schema. The key must name existing columns,
    /// without duplicates.
    pub fn new(
        columns: impl IntoIterator<Item = Column>,
        key: impl IntoIterator<Item = String>,
    ) -> Result<Schema, StoreError> {
        let columns: Vec<Column> = columns.into_iter().collect();
        let key: Vec<String> = key.into_iter().collect();
        let mut seen = std::collections::BTreeSet::new();
        for c in &columns {
            if !seen.insert(&c.name) {
                return Err(StoreError::BadSchema(format!(
                    "duplicate column {}",
                    c.name
                )));
            }
        }
        let mut kseen = std::collections::BTreeSet::new();
        for k in &key {
            if !columns.iter().any(|c| &c.name == k) {
                return Err(StoreError::BadSchema(format!(
                    "key column {k} not in schema"
                )));
            }
            if !kseen.insert(k) {
                return Err(StoreError::BadSchema(format!("duplicate key column {k}")));
            }
        }
        let key_idx = if key.is_empty() {
            (0..columns.len()).collect()
        } else {
            (key.iter())
                .map(|k| columns.iter().position(|c| &c.name == k))
                .collect::<Option<_>>()
                .expect("key columns checked above")
        };
        Ok(Schema {
            columns,
            key,
            key_idx,
        })
    }

    /// Convenience constructor from `(name, type)` pairs and key names.
    pub fn build(cols: &[(&str, ValueType)], key: &[&str]) -> Result<Schema, StoreError> {
        Schema::new(
            cols.iter().map(|(n, t)| Column::new(*n, *t)),
            key.iter().map(|k| k.to_string()),
        )
    }

    /// The columns, in order.
    pub fn columns(&self) -> &[Column] {
        &self.columns
    }

    /// The key column names (possibly empty = whole row).
    pub fn key(&self) -> &[String] {
        &self.key
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Column names in order.
    pub fn column_names(&self) -> Vec<&str> {
        self.columns.iter().map(|c| c.name.as_str()).collect()
    }

    /// The index of a named column.
    pub fn index_of(&self, name: &str) -> Result<usize, StoreError> {
        self.columns
            .iter()
            .position(|c| c.name == name)
            .ok_or_else(|| StoreError::NoSuchColumn(name.to_string()))
    }

    /// Indices of several named columns, in the order given.
    pub fn indices_of(&self, names: &[String]) -> Result<Vec<usize>, StoreError> {
        names.iter().map(|n| self.index_of(n)).collect()
    }

    /// Indices of the key columns (all columns if the key is empty).
    pub fn key_indices(&self) -> &[usize] {
        &self.key_idx
    }

    /// Validate one row against this schema (arity and cell types).
    pub fn check_row(&self, row: &Row) -> Result<(), StoreError> {
        if row.len() != self.columns.len() {
            return Err(StoreError::Arity {
                expected: self.columns.len(),
                got: row.len(),
            });
        }
        for (cell, col) in row.iter().zip(&self.columns) {
            if cell.value_type() != col.ty {
                return Err(StoreError::TypeMismatch {
                    column: col.name.clone(),
                    expected: col.ty,
                    got: cell.value_type(),
                });
            }
        }
        Ok(())
    }

    /// The schema of a projection onto `names` (key becomes the projected
    /// columns that were key columns; if the original key is not fully
    /// retained, the projected schema falls back to whole-row keying).
    pub fn project(&self, names: &[String]) -> Result<Schema, StoreError> {
        let indices = self.indices_of(names)?;
        let columns: Vec<Column> = indices.iter().map(|&i| self.columns[i].clone()).collect();
        let key: Vec<String> = if self.key.iter().all(|k| names.contains(k)) {
            self.key.clone()
        } else {
            Vec::new()
        };
        Schema::new(columns, key)
    }

    /// Rename columns according to `(old, new)` pairs; unnamed columns are
    /// kept. Key names are renamed along.
    pub fn rename(&self, renames: &[(String, String)]) -> Result<Schema, StoreError> {
        let lookup = |n: &str| -> String {
            renames
                .iter()
                .find(|(old, _)| old == n)
                .map(|(_, new)| new.clone())
                .unwrap_or_else(|| n.to_string())
        };
        for (old, _) in renames {
            self.index_of(old)?;
        }
        Schema::new(
            self.columns
                .iter()
                .map(|c| Column::new(lookup(&c.name), c.ty)),
            self.key.iter().map(|k| lookup(k)),
        )
    }

    /// Do two schemas have identical columns (for union/difference)?
    pub fn same_columns(&self, other: &Schema) -> bool {
        self.columns == other.columns
    }

    /// The columns shared by name (and type) with `other` — the natural
    /// join attributes. A shared name with conflicting types is an error.
    pub fn shared_columns(&self, other: &Schema) -> Result<Vec<String>, StoreError> {
        let mut shared = Vec::new();
        for c in &self.columns {
            if let Some(oc) = other.columns.iter().find(|oc| oc.name == c.name) {
                if oc.ty != c.ty {
                    return Err(StoreError::SchemaMismatch(format!(
                        "column {} has type {} on one side and {} on the other",
                        c.name, c.ty, oc.ty
                    )));
                }
                shared.push(c.name.clone());
            }
        }
        Ok(shared)
    }
}

impl std::fmt::Display for Schema {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("(")?;
        for (i, c) in self.columns.iter().enumerate() {
            if i > 0 {
                f.write_str(", ")?;
            }
            let is_key = self.key.contains(&c.name);
            write!(f, "{}{}: {}", if is_key { "*" } else { "" }, c.name, c.ty)?;
        }
        f.write_str(")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn people() -> Schema {
        Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("active", ValueType::Bool),
            ],
            &["id"],
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_duplicates_and_bad_keys() {
        assert!(matches!(
            Schema::build(&[("a", ValueType::Int), ("a", ValueType::Str)], &[]),
            Err(StoreError::BadSchema(_))
        ));
        assert!(matches!(
            Schema::build(&[("a", ValueType::Int)], &["b"]),
            Err(StoreError::BadSchema(_))
        ));
    }

    #[test]
    fn row_validation_checks_arity_and_types() {
        let s = people();
        assert!(s.check_row(&row![1, "ada", true]).is_ok());
        assert!(matches!(
            s.check_row(&row![1, "ada"]),
            Err(StoreError::Arity { .. })
        ));
        assert!(matches!(
            s.check_row(&row![1, 2, true]),
            Err(StoreError::TypeMismatch { .. })
        ));
    }

    #[test]
    fn key_indices_default_to_whole_row() {
        let s = Schema::build(&[("a", ValueType::Int), ("b", ValueType::Int)], &[]).unwrap();
        assert_eq!(s.key_indices(), [0, 1]);
        assert_eq!(people().key_indices(), [0]);
    }

    #[test]
    fn projection_keeps_key_when_possible() {
        let s = people();
        let p = s.project(&["id".to_string(), "name".to_string()]).unwrap();
        assert_eq!(p.key(), &["id".to_string()]);
        // Dropping the key column loses the key.
        let p2 = s.project(&["name".to_string()]).unwrap();
        assert!(p2.key().is_empty());
    }

    #[test]
    fn rename_renames_key_too() {
        let s = people();
        let r = s.rename(&[("id".to_string(), "pid".to_string())]).unwrap();
        assert_eq!(r.key(), &["pid".to_string()]);
        assert!(r.index_of("pid").is_ok());
        assert!(r.index_of("id").is_err());
    }

    #[test]
    fn shared_columns_require_matching_types() {
        let s1 = Schema::build(&[("id", ValueType::Int), ("x", ValueType::Str)], &[]).unwrap();
        let s2 = Schema::build(&[("id", ValueType::Int), ("y", ValueType::Str)], &[]).unwrap();
        assert_eq!(s1.shared_columns(&s2).unwrap(), vec!["id".to_string()]);
        let s3 = Schema::build(&[("id", ValueType::Str)], &[]).unwrap();
        assert!(s1.shared_columns(&s3).is_err());
    }

    #[test]
    fn display_marks_key_columns() {
        assert_eq!(people().to_string(), "(*id: int, name: str, active: bool)");
    }
}
