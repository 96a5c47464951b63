//! Checkpoints: durable snapshots of the committed database at a known
//! WAL sequence number.
//!
//! A checkpoint file `checkpoint-<seq, zero-padded>.ckpt` is one sealed
//! file — a single CRC frame filling the file (see [`crate::segment`])
//! — whose body is the `seq` (`u64` LE) followed by the database in the
//! shared [`esm_store::codec`] form:
//!
//! ```text
//! [0xB6][body len: u32 LE][crc32 of body: u32 LE][seq: u64 LE][database]
//! ```
//!
//! Recovery loads the newest *valid* checkpoint and replays only WAL
//! records with `seq > checkpoint.seq`, instead of replaying from
//! genesis. Validity matters because a crash can interrupt a checkpoint:
//! files are written to a temporary name, fsynced, then renamed into
//! place (atomic on POSIX), and the seal's length and CRC32 guard
//! against filesystems that lie about rename atomicity and against bit
//! rot — a checkpoint that fails its seal is ignored and recovery falls
//! back to the previous one.
//!
//! Compaction follows from checkpoints: every segment whose records are
//! all covered by the newest checkpoint can be deleted (see
//! [`crate::DurableWal::checkpoint`]).

use std::path::{Path, PathBuf};

use esm_store::codec::{self, BinReader};
use esm_store::Database;

use crate::error::EngineError;
use crate::segment::{unseal, Sealer};

/// Filename extension of checkpoint files.
pub const CHECKPOINT_SUFFIX: &str = ".ckpt";

/// First byte of a sealed checkpoint file.
const CHECKPOINT_MAGIC: u8 = 0xB6;

/// The file name of the checkpoint covering `seq`.
pub fn checkpoint_file_name(seq: u64) -> String {
    format!("checkpoint-{seq:020}{CHECKPOINT_SUFFIX}")
}

/// Parse a checkpoint file name back to the sequence number it covers.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("checkpoint-")?
        .strip_suffix(CHECKPOINT_SUFFIX)?
        .parse()
        .ok()
}

/// A decoded checkpoint: the database state after applying every WAL
/// record with `seq <= seq`.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint {
    /// The WAL sequence number this snapshot covers.
    pub seq: u64,
    /// The committed database at that point.
    pub db: Database,
}

impl Checkpoint {
    /// Render the checkpoint file content, in one buffer: the body is
    /// encoded after the reserved seal header.
    pub fn encode(&self) -> Vec<u8> {
        let mut file = Sealer::new(CHECKPOINT_MAGIC);
        codec::put_u64(file.body(), self.seq);
        codec::put_database(file.body(), &self.db);
        file.finish()
    }

    /// Parse checkpoint file content, validating its seal.
    pub fn decode(bytes: &[u8]) -> Result<Checkpoint, EngineError> {
        let body = unseal("checkpoint", CHECKPOINT_MAGIC, bytes)?;
        let rot = |e: esm_store::StoreError| EngineError::WalCorrupt(format!("checkpoint: {e}"));
        let mut r = BinReader::new(body);
        let seq = r.u64().map_err(rot)?;
        let db = r.database().map_err(rot)?;
        r.end().map_err(rot)?;
        Ok(Checkpoint { seq, db })
    }

    /// Write this checkpoint into `dir` atomically: temp file, fsync,
    /// rename, fsync the directory. Returns the final path.
    pub fn write_atomic(&self, dir: &Path) -> Result<PathBuf, EngineError> {
        write_atomic(dir, &checkpoint_file_name(self.seq), &self.encode())
    }
}

/// Write `bytes` into `dir/name` atomically (temp file → fsync → rename
/// → directory fsync) — the discipline checkpoints use, shared with the
/// shard topology file. Returns the final path.
pub(crate) fn write_atomic(dir: &Path, name: &str, bytes: &[u8]) -> Result<PathBuf, EngineError> {
    let final_path = dir.join(name);
    let tmp_path = dir.join(format!("{name}.tmp"));
    {
        use std::io::Write as _;
        let mut f = std::fs::File::create(&tmp_path)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    sync_dir(dir)?;
    Ok(final_path)
}

/// fsync a directory so renames/creates/unlinks inside it are durable.
pub(crate) fn sync_dir(dir: &Path) -> Result<(), EngineError> {
    // Directory fsync is supported on Linux; on platforms where opening a
    // directory fails, fall back to best effort (the rename itself is
    // still atomic).
    if let Ok(d) = std::fs::File::open(dir) {
        d.sync_all().ok();
    }
    Ok(())
}

/// Load the newest valid checkpoint in `dir`, skipping unreadable, torn
/// or rotten ones (a crash mid-checkpoint must fall back, not fail
/// recovery). Returns the checkpoint and how many corrupt candidates
/// were skipped.
pub fn latest_valid_checkpoint(dir: &Path) -> Result<(Option<Checkpoint>, u64), EngineError> {
    let mut seqs: Vec<u64> = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            seqs.push(seq);
        }
    }
    seqs.sort_unstable();
    let mut skipped = 0;
    for seq in seqs.into_iter().rev() {
        let path = dir.join(checkpoint_file_name(seq));
        let parsed = std::fs::read(&path)
            .map_err(EngineError::from)
            .and_then(|bytes| Checkpoint::decode(&bytes));
        match parsed {
            Ok(ckpt) if ckpt.seq == seq => return Ok((Some(ckpt), skipped)),
            _ => skipped += 1,
        }
    }
    Ok((None, skipped))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{seal, FRAME_HEADER_BYTES};
    use esm_store::{row, Schema, Table, ValueType};

    fn db() -> Database {
        let schema =
            Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
        let mut db = Database::new();
        db.create_table(
            "t",
            Table::from_rows(schema, vec![row![1, "a"], row![2, "b"]]).unwrap(),
        )
        .unwrap();
        db
    }

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("esm-checkpoint-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn names_round_trip_and_sort() {
        assert_eq!(parse_checkpoint_name(&checkpoint_file_name(42)), Some(42));
        assert!(checkpoint_file_name(9) < checkpoint_file_name(10));
        assert_eq!(parse_checkpoint_name("wal-1.seg"), None);
    }

    #[test]
    fn encode_decode_round_trips() {
        let c = Checkpoint { seq: 7, db: db() };
        assert_eq!(Checkpoint::decode(&c.encode()).unwrap(), c);
        let empty = Checkpoint {
            seq: u64::MAX,
            db: Database::new(),
        };
        assert_eq!(Checkpoint::decode(&empty.encode()).unwrap(), empty);
    }

    #[test]
    fn one_buffer_encoding_equals_sealing_the_encoded_body() {
        // Random databases (sizes, keys and strings from a fixed-seed
        // xorshift): the checkpoint file must be exactly the body sealed
        // after the fact.
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move |bound: u64| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x % bound
        };
        for case in 0..24u64 {
            let schema =
                Schema::build(&[("id", ValueType::Int), ("v", ValueType::Str)], &["id"]).unwrap();
            let rows = (0..next(600)).map(|_| {
                let id = next(1 << 40) as i64;
                row![id, "é".repeat(next(5) as usize) + &id.to_string()]
            });
            let mut t = Table::new(schema);
            for r in rows {
                t.upsert(r).unwrap();
            }
            let mut db = Database::new();
            db.create_table("t", t).unwrap();
            let c = Checkpoint { seq: case, db };
            let mut body = Vec::new();
            codec::put_u64(&mut body, c.seq);
            codec::put_database(&mut body, &c.db);
            assert_eq!(c.encode(), seal(CHECKPOINT_MAGIC, &body), "case {case}");
        }
    }

    #[test]
    fn truncated_checkpoints_are_rejected() {
        let bytes = Checkpoint { seq: 7, db: db() }.encode();
        for cut in 0..bytes.len() {
            assert!(
                Checkpoint::decode(&bytes[..cut]).is_err(),
                "cut at {cut} must not decode"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_refused() {
        let bytes = Checkpoint { seq: 7, db: db() }.encode();
        for bit in 0..bytes.len() * 8 {
            let mut flipped = bytes.clone();
            flipped[bit / 8] ^= 1 << (bit % 8);
            assert!(
                matches!(
                    Checkpoint::decode(&flipped),
                    Err(EngineError::WalCorrupt(_))
                ),
                "flipping bit {bit} must not decode"
            );
        }
    }

    #[test]
    fn absurd_counts_are_refused_without_allocating() {
        // A correctly sealed body cut at every byte, with u32::MAX
        // announced there: every count in the database (tables, columns,
        // key columns, rows, cells, string lengths) sees an absurd count
        // at some cut. Decoding must refuse, or decode to a checkpoint
        // that re-encodes to exactly those bytes.
        let body = &Checkpoint { seq: 7, db: db() }.encode()[FRAME_HEADER_BYTES..];
        for cut in 0..=body.len() {
            let mut bad = body[..cut].to_vec();
            codec::put_u32(&mut bad, u32::MAX);
            let sealed = seal(CHECKPOINT_MAGIC, &bad);
            if let Ok(back) = Checkpoint::decode(&sealed) {
                assert_eq!(back.encode(), sealed, "cut at {cut}");
            }
        }
    }

    #[test]
    fn latest_valid_skips_torn_newer_checkpoints() {
        let dir = tmp_dir("skip-torn");
        Checkpoint { seq: 5, db: db() }.write_atomic(&dir).unwrap();
        // A newer checkpoint whose write was interrupted halfway.
        let newer = Checkpoint { seq: 9, db: db() }.encode();
        std::fs::write(dir.join(checkpoint_file_name(9)), &newer[..newer.len() / 2]).unwrap();
        let (found, skipped) = latest_valid_checkpoint(&dir).unwrap();
        assert_eq!(found.unwrap().seq, 5);
        assert_eq!(skipped, 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_dir_has_no_checkpoint() {
        let dir = tmp_dir("empty");
        let (found, skipped) = latest_valid_checkpoint(&dir).unwrap();
        assert!(found.is_none());
        assert_eq!(skipped, 0);
        std::fs::remove_dir_all(&dir).ok();
    }
}
