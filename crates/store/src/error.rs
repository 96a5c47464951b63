//! Errors raised by the relational substrate.

use crate::value::ValueType;

/// Any failure of a store operation. All mutations validate their inputs
/// and return one of these instead of corrupting state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// A row had the wrong number of cells for its schema.
    Arity {
        /// Columns expected by the schema.
        expected: usize,
        /// Cells actually supplied.
        got: usize,
    },
    /// A cell had the wrong type for its column.
    TypeMismatch {
        /// The offending column name.
        column: String,
        /// The column's declared type.
        expected: ValueType,
        /// The supplied value's type.
        got: ValueType,
    },
    /// A column name was not found in the schema.
    NoSuchColumn(String),
    /// A table name was not found in the database.
    NoSuchTable(String),
    /// Inserting a row whose key collides with a different existing row.
    KeyViolation(String),
    /// The schema itself is malformed (duplicate columns, key not a subset
    /// of columns, …).
    BadSchema(String),
    /// Two schemas that had to agree (union, difference, join keys) do not.
    SchemaMismatch(String),
    /// A predicate or query was ill-typed for the schema it ran against.
    BadQuery(String),
    /// Encoded bytes (a binary cell, row, table, delta or database)
    /// failed to decode.
    Codec(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Arity { expected, got } => {
                write!(
                    f,
                    "arity mismatch: schema has {expected} columns, row has {got}"
                )
            }
            StoreError::TypeMismatch {
                column,
                expected,
                got,
            } => {
                write!(
                    f,
                    "type mismatch in column {column}: expected {expected}, got {got}"
                )
            }
            StoreError::NoSuchColumn(c) => write!(f, "no such column: {c}"),
            StoreError::NoSuchTable(t) => write!(f, "no such table: {t}"),
            StoreError::KeyViolation(k) => write!(f, "key violation: {k}"),
            StoreError::BadSchema(m) => write!(f, "bad schema: {m}"),
            StoreError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            StoreError::BadQuery(m) => write!(f, "bad query: {m}"),
            StoreError::Codec(m) => write!(f, "codec error: {m}"),
        }
    }
}

impl std::error::Error for StoreError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn errors_render_usefully() {
        let e = StoreError::TypeMismatch {
            column: "age".into(),
            expected: ValueType::Int,
            got: ValueType::Str,
        };
        assert_eq!(
            e.to_string(),
            "type mismatch in column age: expected int, got str"
        );
        assert_eq!(
            StoreError::NoSuchTable("t".into()).to_string(),
            "no such table: t"
        );
    }
}
