//! The length-prefixed binary codec every machine-read artifact shares:
//! cells, rows, tables, deltas and whole databases.
//!
//! A cell is one tag byte (`0` bool, `1` int, `2` string) followed by
//! its payload — bools as one byte, ints as 8 little-endian bytes,
//! strings as a `u32` length prefix plus raw UTF-8 (no escaping: the
//! length delimits). On top of cells:
//!
//! ```text
//! row      := count u32, cell*
//! table    := ncols u32, (name str, type u8)*, nkey u32, key-name str*,
//!             nrows u32, row*                       (rows in key order)
//! delta    := ninserted u32, ndeleted u32, row*     (inserted, then deleted)
//! database := ntables u32, (name str, table)*       (tables in name order)
//! ```
//!
//! Decoding is cursor-based ([`BinReader`]) and rejects malformed input
//! with [`StoreError::Codec`] rather than panicking. Every item count is
//! read through [`BinReader::count`], which refuses a count larger than
//! the bytes left (each item takes at least one byte), so a corrupt
//! count can never size an allocation or drive a long loop. Secondary
//! indexes are derived data, not table value: they are not encoded, and
//! callers rebuild them after decoding.
//!
//! The engine's write-ahead-log records and checkpoints and the wire
//! protocol all build on these functions: one discipline, shared edge
//! cases.

use crate::database::Database;
use crate::delta::Delta;
use crate::error::StoreError;
use crate::row::Row;
use crate::schema::{Column, Schema};
use crate::table::Table;
use crate::value::{Value, ValueType};

const CELL_BOOL: u8 = 0;
const CELL_INT: u8 = 1;
const CELL_STR: u8 = 2;

/// Append a `u32` in little-endian.
pub fn put_u32(out: &mut Vec<u8>, n: u32) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Append a `u64` in little-endian.
pub fn put_u64(out: &mut Vec<u8>, n: u64) {
    out.extend_from_slice(&n.to_le_bytes());
}

/// Append a `u32`-length-prefixed byte blob.
pub fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    put_u32(out, bytes.len() as u32);
    out.extend_from_slice(bytes);
}

/// Append a `u32`-length-prefixed UTF-8 string.
pub fn put_str(out: &mut Vec<u8>, s: &str) {
    put_u32(out, s.len() as u32);
    out.extend_from_slice(s.as_bytes());
}

/// Append one binary cell: tag byte, then payload.
pub fn put_cell(out: &mut Vec<u8>, v: &Value) {
    match v {
        Value::Bool(b) => {
            out.push(CELL_BOOL);
            out.push(u8::from(*b));
        }
        Value::Int(i) => {
            out.push(CELL_INT);
            out.extend_from_slice(&i.to_le_bytes());
        }
        Value::Str(s) => {
            out.push(CELL_STR);
            put_str(out, s);
        }
    }
}

/// Append one binary row: `u32` cell count, then the cells.
pub fn put_row(out: &mut Vec<u8>, row: &Row) {
    put_u32(out, row.len() as u32);
    for v in row {
        put_cell(out, v);
    }
}

/// Append a column type as one byte (`0` bool, `1` int, `2` string).
pub fn put_value_type(out: &mut Vec<u8>, ty: ValueType) {
    out.push(match ty {
        ValueType::Bool => 0,
        ValueType::Int => 1,
        ValueType::Str => 2,
    });
}

/// Append a table: schema (typed columns, key columns), then its rows.
pub fn put_table(out: &mut Vec<u8>, table: &Table) {
    let cols = table.schema().columns();
    put_u32(out, cols.len() as u32);
    for c in cols {
        put_str(out, &c.name);
        put_value_type(out, c.ty);
    }
    let key = table.schema().key();
    put_u32(out, key.len() as u32);
    for k in key {
        put_str(out, k);
    }
    put_u32(out, table.len() as u32);
    for row in table.rows() {
        put_row(out, row);
    }
}

/// Append a delta: both counts, then the inserted and deleted rows.
pub fn put_delta(out: &mut Vec<u8>, delta: &Delta) {
    put_u32(out, delta.inserted.len() as u32);
    put_u32(out, delta.deleted.len() as u32);
    for row in delta.inserted.iter().chain(&delta.deleted) {
        put_row(out, row);
    }
}

/// Append a whole database, tables in name order.
pub fn put_database(out: &mut Vec<u8>, db: &Database) {
    let names = db.table_names();
    put_u32(out, names.len() as u32);
    for name in names {
        put_str(out, name);
        put_table(out, db.table(name).expect("name came from the database"));
    }
}

/// A bounds-checked cursor over a binary payload. Every read advances
/// the cursor; running past the end is a [`StoreError::Codec`], never a
/// panic — a torn or corrupt payload must decode to an error.
#[derive(Debug)]
pub struct BinReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> BinReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    pub fn new(bytes: &'a [u8]) -> BinReader<'a> {
        BinReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Error unless the whole payload was consumed.
    pub fn end(&self) -> Result<(), StoreError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(StoreError::Codec(format!(
                "{} trailing bytes after binary payload",
                self.remaining()
            )))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], StoreError> {
        if self.remaining() < n {
            return Err(StoreError::Codec(format!(
                "binary payload truncated: needed {n} bytes, had {}",
                self.remaining()
            )));
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Read one byte.
    pub fn u8(&mut self) -> Result<u8, StoreError> {
        Ok(self.take(1)?[0])
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, StoreError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4")))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, StoreError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8")))
    }

    /// Read a `u32` item count. Every encoded item takes at least one
    /// byte, so a count larger than the bytes left is corruption: it is
    /// refused here, before it can size an allocation or drive a loop.
    pub fn count(&mut self) -> Result<usize, StoreError> {
        let n = self.u32()? as usize;
        if n > self.remaining() {
            return Err(StoreError::Codec(format!(
                "binary payload announces {n} items, only {} bytes remain",
                self.remaining()
            )));
        }
        Ok(n)
    }

    /// Read a `u32`-length-prefixed byte blob.
    pub fn bytes(&mut self) -> Result<Vec<u8>, StoreError> {
        let len = self.u32()? as usize;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self) -> Result<String, StoreError> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| StoreError::Codec(format!("binary string not UTF-8: {e}")))
    }

    /// Read one binary cell.
    pub fn cell(&mut self) -> Result<Value, StoreError> {
        match self.u8()? {
            CELL_BOOL => match self.u8()? {
                0 => Ok(Value::Bool(false)),
                1 => Ok(Value::Bool(true)),
                b => Err(StoreError::Codec(format!("bad binary bool byte {b}"))),
            },
            CELL_INT => Ok(Value::Int(i64::from_le_bytes(
                self.take(8)?.try_into().expect("8"),
            ))),
            CELL_STR => Ok(Value::Str(self.str()?)),
            tag => Err(StoreError::Codec(format!("unknown binary cell tag {tag}"))),
        }
    }

    /// Read one binary row.
    pub fn row(&mut self) -> Result<Row, StoreError> {
        let n = self.count()?;
        let mut row = Vec::with_capacity(n);
        for _ in 0..n {
            row.push(self.cell()?);
        }
        Ok(row)
    }

    /// Read a column type byte.
    pub fn value_type(&mut self) -> Result<ValueType, StoreError> {
        Ok(match self.u8()? {
            0 => ValueType::Bool,
            1 => ValueType::Int,
            2 => ValueType::Str,
            t => return Err(StoreError::Codec(format!("unknown value-type tag {t}"))),
        })
    }

    /// Read a table written by [`put_table`]. Rows stream straight into
    /// [`Table::from_rows`] as they decode — checked against the schema,
    /// and loaded chunk by chunk since they arrive in key order — with no
    /// second copy of the table in between.
    pub fn table(&mut self) -> Result<Table, StoreError> {
        let mut columns = Vec::new();
        for _ in 0..self.count()? {
            let name = self.str()?;
            columns.push(Column::new(name, self.value_type()?));
        }
        let mut key = Vec::new();
        for _ in 0..self.count()? {
            key.push(self.str()?);
        }
        let schema = Schema::new(columns, key)?;
        let n = self.count()?;
        let mut failed = None;
        let rows = (0..n).map_while(|_| self.row().map_err(|e| failed = Some(e)).ok());
        let table = Table::from_rows(schema, rows)?;
        match failed {
            Some(e) => Err(e),
            None => Ok(table),
        }
    }

    /// Read a delta written by [`put_delta`].
    pub fn delta(&mut self) -> Result<Delta, StoreError> {
        let inserted = self.count()?;
        let deleted = self.count()?;
        let mut delta = Delta::empty();
        for _ in 0..inserted {
            delta.inserted.push(self.row()?);
        }
        for _ in 0..deleted {
            delta.deleted.push(self.row()?);
        }
        Ok(delta)
    }

    /// Read a database written by [`put_database`]. A repeated table
    /// name is corruption, not an overwrite.
    pub fn database(&mut self) -> Result<Database, StoreError> {
        let mut db = Database::new();
        for _ in 0..self.count()? {
            let name = self.str()?;
            let table = self.table()?;
            db.create_table(name, table)
                .map_err(|e| StoreError::Codec(format!("binary database: {e}")))?;
        }
        Ok(db)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::row;

    fn decode_all<'a, T>(
        bytes: &'a [u8],
        read: impl FnOnce(&mut BinReader<'a>) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        let mut r = BinReader::new(bytes);
        let value = read(&mut r)?;
        r.end()?;
        Ok(value)
    }

    fn sample() -> Database {
        let schema = Schema::build(
            &[
                ("id", ValueType::Int),
                ("name", ValueType::Str),
                ("ok", ValueType::Bool),
            ],
            &["id"],
        )
        .unwrap();
        let t = Table::from_rows(
            schema,
            vec![
                row![1, "ada", true],
                row![2, "tab\there\nand newline", false],
            ],
        )
        .unwrap();
        let unkeyed = Table::from_rows(
            Schema::build(&[("x", ValueType::Int)], &[]).unwrap(),
            vec![row![7], row![8]],
        )
        .unwrap();
        let mut db = Database::new();
        db.create_table("people", t).unwrap();
        db.create_table("odd\tname", unkeyed).unwrap();
        db.create_table("empty", Table::new(Schema::build(&[], &[]).unwrap()))
            .unwrap();
        db
    }

    fn encode_database(db: &Database) -> Vec<u8> {
        let mut out = Vec::new();
        put_database(&mut out, db);
        out
    }

    #[test]
    fn cells_round_trip() {
        for v in [
            Value::Bool(true),
            Value::Bool(false),
            Value::Int(-42),
            Value::Int(i64::MIN),
            Value::Int(i64::MAX),
            Value::str(""),
            Value::str("plain"),
            Value::str("tab\t nl\n cr\r bs\\ nul\0 λ done"),
        ] {
            let mut buf = Vec::new();
            put_cell(&mut buf, &v);
            assert_eq!(decode_all(&buf, BinReader::cell).unwrap(), v);
        }
    }

    #[test]
    fn rows_round_trip_including_empty() {
        for row in [row![], row![1, "a\tb", true, ""]] {
            let mut buf = Vec::new();
            put_row(&mut buf, &row);
            assert_eq!(decode_all(&buf, BinReader::row).unwrap(), row);
        }
    }

    #[test]
    fn binary_cells_and_rows_round_trip() {
        // Cells and rows are self-delimiting: written back to back into one
        // buffer, they read back in order with nothing left over.
        let cells = [
            Value::Bool(true),
            Value::Int(i64::MIN),
            Value::str(""),
            Value::str("tab\t nl\n cr\r bs\\ nul\0 done"),
        ];
        let rows = [row![], row![1, "a\tb", true, ""], row![]];
        let mut buf = Vec::new();
        for v in &cells {
            put_cell(&mut buf, v);
        }
        for row in &rows {
            put_row(&mut buf, row);
        }
        let mut r = BinReader::new(&buf);
        for v in &cells {
            assert_eq!(&r.cell().unwrap(), v);
        }
        for row in &rows {
            assert_eq!(&r.row().unwrap(), row);
        }
        r.end().unwrap();
    }

    #[test]
    fn malformed_cells_are_rejected() {
        for bad in [
            &[99][..],                     // unknown cell tag
            &[CELL_BOOL, 2],               // bool byte out of range
            &[CELL_INT, 1, 2, 3],          // truncated int
            &[CELL_STR, 1, 0, 0, 0, 0xff], // non-UTF-8 string
        ] {
            assert!(
                matches!(decode_all(bad, BinReader::cell), Err(StoreError::Codec(_))),
                "{bad:?} should not decode"
            );
        }
    }

    #[test]
    fn binary_primitives_round_trip() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX);
        put_u64(&mut buf, 0x0123_4567_89ab_cdef);
        put_str(&mut buf, "héllo");
        put_bytes(&mut buf, &[0, 0xff]);
        let mut r = BinReader::new(&buf);
        assert_eq!(r.u32().unwrap(), u32::MAX);
        assert_eq!(r.u64().unwrap(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.bytes().unwrap(), vec![0, 0xff]);
        r.end().unwrap();
    }

    #[test]
    fn malformed_binary_is_rejected_not_panicked() {
        // Truncations of a valid row at every byte boundary.
        let mut buf = Vec::new();
        put_row(&mut buf, &row![7, "seven", false]);
        for cut in 0..buf.len() {
            assert!(
                decode_all(&buf[..cut], BinReader::row).is_err(),
                "truncation at {cut} should not decode"
            );
        }
        // An absurd cell count is refused before anything is allocated.
        assert!(decode_all(&[0xff, 0xff, 0xff, 0xff], BinReader::row).is_err());
        // Trailing garbage is an error too.
        let mut buf = Vec::new();
        put_row(&mut buf, &row![1]);
        buf.push(0);
        assert!(decode_all(&buf, BinReader::row).is_err());
    }

    #[test]
    fn deltas_round_trip() {
        let delta = Delta {
            inserted: vec![row![1, "x"], row![]],
            deleted: vec![row![2, "y\n"]],
        };
        let mut buf = Vec::new();
        put_delta(&mut buf, &delta);
        assert_eq!(decode_all(&buf, BinReader::delta).unwrap(), delta);
    }

    #[test]
    fn database_round_trips() {
        let db = sample();
        assert_eq!(
            decode_all(&encode_database(&db), BinReader::database).unwrap(),
            db
        );
    }

    #[test]
    fn empty_database_round_trips() {
        let db = Database::new();
        assert_eq!(
            decode_all(&encode_database(&db), BinReader::database).unwrap(),
            db
        );
    }

    #[test]
    fn truncated_databases_are_rejected() {
        let bytes = encode_database(&sample());
        for cut in 0..bytes.len() {
            assert!(
                decode_all(&bytes[..cut], BinReader::database).is_err(),
                "truncation at {cut} should not decode"
            );
        }
        // A table name repeated is corruption, not an overwrite.
        let mut twice = Vec::new();
        put_u32(&mut twice, 2);
        for _ in 0..2 {
            put_str(&mut twice, "t");
            put_table(&mut twice, sample().table("people").unwrap());
        }
        assert!(decode_all(&twice, BinReader::database).is_err());
    }

    #[test]
    fn indexes_are_not_serialized() {
        let mut db = sample();
        db.table_mut("people")
            .unwrap()
            .create_index("name")
            .unwrap();
        let back = decode_all(&encode_database(&db), BinReader::database).unwrap();
        assert!(back.table("people").unwrap().indexed_columns().is_empty());
        assert_eq!(back, db); // equality ignores indexes
    }

    #[test]
    fn absurd_counts_are_refused_without_allocating() {
        // Each case stops right before a count field and announces
        // u32::MAX items with nothing behind them.
        type Read = fn(&mut BinReader<'_>) -> Result<(), StoreError>;
        let row: Read = |r| r.row().map(drop);
        let table: Read = |r| r.table().map(drop);
        let delta: Read = |r| r.delta().map(drop);
        let database: Read = |r| r.database().map(drop);
        let (zero, one) = (0u32.to_le_bytes(), 1u32.to_le_bytes());
        for (prefix, read) in [
            (vec![], row),
            (vec![], table),                     // columns
            (zero.to_vec(), table),              // key columns
            ([zero, zero].concat(), table),      // rows
            ([zero, zero, one].concat(), table), // the first row's cells
            (vec![], delta),                     // inserted rows
            (zero.to_vec(), delta),              // deleted rows
            (vec![], database),                  // tables
        ] {
            let mut bytes = prefix;
            put_u32(&mut bytes, u32::MAX);
            assert!(
                read(&mut BinReader::new(&bytes)).is_err(),
                "{bytes:?} must not decode"
            );
        }
    }
}
