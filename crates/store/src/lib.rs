//! An in-memory relational database substrate.
//!
//! The paper's introduction motivates bx over "database tables … XML
//! files, abstract syntax trees, code". This crate supplies the database
//! tables: typed schemas with candidate keys, set-semantics tables,
//! a predicate language, relational algebra (select / project / join /
//! union / difference / rename), row-level deltas, secondary indexes
//! ([`index`]) turning predicate scans into seeks, and
//! multi-table databases with snapshots.
//!
//! `esm-relational` builds *relational lenses* on top of this substrate,
//! turning select/project/join view definitions into entangled state
//! monads.
//!
//! Design notes:
//! - Tables are **sets** of rows ordered by key: a copy-on-write
//!   [`CowMap`] of sorted chunks holds each row once, ordered by its key
//!   cells compared in place (the whole row when no key is declared), so
//!   iteration is deterministic, no key is stored beside a row, a clone
//!   shares its chunks with the original, and diffing a table against an
//!   edited clone skips the chunks they still share.
//! - Every mutation validates arity, column types and key uniqueness,
//!   returning [`StoreError`] rather than corrupting the table.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod codec;
pub mod cow_map;
pub mod csv;
pub mod database;
pub mod delta;
pub mod error;
pub mod index;
pub mod predicate;
pub mod query;
pub mod row;
pub mod schema;
pub mod table;
pub mod value;

pub use cow_map::{CowMap, Order};
pub use csv::{from_csv, to_csv};
pub use database::Database;
pub use delta::Delta;
pub use error::StoreError;
pub use index::{ColumnIndex, IndexProbe};
pub use predicate::{BoundPredicate, Cmp, Operand, Predicate};
pub use query::Query;
pub use row::Row;
pub use schema::{Column, Schema};
pub use table::Table;
pub use value::{Value, ValueType};
