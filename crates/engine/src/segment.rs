//! WAL segment files: append-only chunks of the durable log.
//!
//! A segment is a file named `wal-<first_seq, zero-padded>.seg` holding
//! consecutive [`WalRecord`]s, each wrapped in one binary CRC frame:
//!
//! ```text
//! [0xB5][payload len: u32 LE][crc32 of payload: u32 LE][payload]
//! ```
//!
//! The payload is one record: a tag byte (`0` delta, `1` chained delta,
//! `2` prepare, `3` resolve), the `seq` as a `u64` LE, then the
//! variant's fields — strings length-prefixed, a delta in the shared
//! [`esm_store::codec`] delta form. The same frame, under its own magic
//! and filling a whole file, seals checkpoints and the shard topology
//! manifest.
//!
//! The durable log is the concatenation of all segments in name order;
//! rotation starts a fresh file once the current one passes the size
//! threshold, so checkpoint-covered history can be dropped file-by-file
//! (compaction) instead of rewriting one giant log.
//!
//! ## Crash tolerance vs bit rot
//!
//! The frame separates two very different failure modes:
//!
//! * **Torn tail** (a crash): the byte stream simply *stops* — inside a
//!   frame header or mid-payload. Everything before the incomplete frame
//!   is intact; [`decode_segment_prefix`] reports the complete-record
//!   prefix with `torn = true` and recovery truncates the tail. Crashes
//!   only ever shorten the stream, so a torn tail is always the *last*
//!   thing in a segment.
//! * **Corruption** (bit rot, a lying disk): a frame is *complete* but
//!   its payload no longer matches its CRC32, or a frame does not start
//!   with the magic byte. A crash only shortens a file, so it can never
//!   change a frame's first byte. That is not a crash artifact; silently
//!   truncating would discard committed records. The decode reports it in
//!   `corrupt` and recovery refuses the directory
//!   ([`crate::plan_recovery`] surfaces
//!   [`EngineError::WalCorrupt`](crate::EngineError::WalCorrupt)).
//!
//! The crash-recovery suite drives truncation at every byte offset of a
//! recorded run (always classified torn, never corrupt) and flips bytes
//! mid-stream (always corrupt, never silently dropped).
//!
//! ## Fault injection
//!
//! [`SegmentFile`] abstracts the byte sink so tests can swap the real
//! [`DiskFile`] for a [`SimFile`]: an in-memory file that only makes
//! bytes durable on `sync`, can tear a sync partway through, and exposes
//! exactly what would survive a crash.

use std::io::Write;
use std::path::Path;
use std::sync::{Arc, Mutex};

use esm_obs::{Phase, Span, Telemetry};
use esm_store::codec;

use crate::error::EngineError;
use crate::wal::{WalOp, WalRecord};

/// Filename extension of WAL segment files.
pub const SEGMENT_SUFFIX: &str = ".seg";

/// The file name of the segment whose first record is `first_seq`.
pub fn segment_file_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}{SEGMENT_SUFFIX}")
}

/// Parse a segment file name back to its first sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

// ---------------------------------------------------------------------
// CRC32 (IEEE 802.3 polynomial, slicing-by-8, tables built at compile
// time).
// ---------------------------------------------------------------------

/// `CRC32_TABLES[0]` is the classic byte-at-a-time table; table `k`
/// advances a byte's contribution through `k` further zero bytes, so
/// eight table lookups fold eight input bytes at once.
const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC32_TABLES: [[u32; 256]; 8] = crc32_tables();

/// CRC32 (IEEE) of a byte slice — the checksum of segment frames, sealed
/// files and wire frames. Eight bytes per step (slicing-by-8), then the
/// tail a byte at a time; the values are those of the bytewise loop.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = !0u32;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// First byte of every segment frame. A frame that starts with any
/// other byte is corrupt.
pub const BINARY_FRAME_MAGIC: u8 = 0xB5;

/// Bytes in a frame header: magic, payload len (u32 LE), crc32 (u32 LE).
pub(crate) const FRAME_HEADER_BYTES: usize = 9;

/// A CRC frame, `[magic][len u32 LE][crc32 u32 LE][payload]`, built in
/// one buffer: [`Sealer::new`] reserves the header, the payload is
/// appended to [`Sealer::body`], and [`Sealer::finish`] fills in its
/// length and CRC. Segment records are framed with
/// [`BINARY_FRAME_MAGIC`]; a checkpoint or the shard topology manifest
/// is one frame, under its own magic, filling its whole file — a
/// *sealed* file ([`unseal`]).
pub(crate) struct Sealer(Vec<u8>);

impl Sealer {
    /// A frame under `magic` with its header reserved.
    pub(crate) fn new(magic: u8) -> Sealer {
        let mut out = Vec::with_capacity(64);
        out.push(magic);
        out.resize(FRAME_HEADER_BYTES, 0);
        Sealer(out)
    }

    /// The buffer the payload is appended to (after the header).
    pub(crate) fn body(&mut self) -> &mut Vec<u8> {
        &mut self.0
    }

    /// The finished frame: the payload's length and CRC32 written into
    /// the reserved header.
    ///
    /// # Panics
    ///
    /// If the payload exceeds the `u32` length field.
    pub(crate) fn finish(mut self) -> Vec<u8> {
        let payload = &self.0[FRAME_HEADER_BYTES..];
        let len = u32::try_from(payload.len()).expect("a sealed payload fits its u32 length");
        let crc = crc32(payload);
        self.0[1..5].copy_from_slice(&len.to_le_bytes());
        self.0[5..9].copy_from_slice(&crc.to_le_bytes());
        self.0
    }
}

/// Wrap an already-encoded `payload` in a CRC frame: the reference
/// encoding every [`Sealer`] frame must equal byte for byte.
#[cfg(test)]
pub(crate) fn seal(magic: u8, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + payload.len());
    out.push(magic);
    codec::put_u32(&mut out, payload.len() as u32);
    codec::put_u32(&mut out, crc32(payload));
    out.extend_from_slice(payload);
    out
}

/// The payload length and CRC32 a frame header announces (`header`
/// holds at least [`FRAME_HEADER_BYTES`]).
fn frame_header(header: &[u8]) -> (usize, u32) {
    let len = u32::from_le_bytes(header[1..5].try_into().expect("4"));
    let crc = u32::from_le_bytes(header[5..9].try_into().expect("4"));
    (len as usize, crc)
}

/// The body of a sealed file: refused as
/// [`EngineError::WalCorrupt`] (its message prefixed with `what`) unless
/// the magic, the length (exactly the bytes present) and the CRC32 all
/// agree — a torn or rotten file never yields a body.
pub(crate) fn unseal<'a>(what: &str, magic: u8, bytes: &'a [u8]) -> Result<&'a [u8], EngineError> {
    let corrupt = |msg: String| Err(EngineError::WalCorrupt(format!("{what}: {msg}")));
    if bytes.len() < FRAME_HEADER_BYTES {
        return corrupt(format!("truncated at {} bytes", bytes.len()));
    }
    if bytes[0] != magic {
        return corrupt(format!(
            "starts with {:#04x}, expected {magic:#04x}",
            bytes[0]
        ));
    }
    let (len, crc) = frame_header(bytes);
    let body = &bytes[FRAME_HEADER_BYTES..];
    if body.len() != len {
        return corrupt(format!(
            "announces {len} body bytes, holds {} (torn write?)",
            body.len()
        ));
    }
    if crc32(body) != crc {
        return corrupt(format!("body fails its crc32 {crc:08x}"));
    }
    Ok(body)
}

const REC_DELTA: u8 = 0;
const REC_CHAINED: u8 = 1;
const REC_PREPARE: u8 = 2;
const REC_RESOLVE: u8 = 3;

/// Encode one record's binary payload (tag, seq, fields) — the bytes a
/// binary frame's CRC covers.
pub fn encode_record_binary(record: &WalRecord) -> Vec<u8> {
    let mut out = Vec::with_capacity(64);
    put_record_binary(&mut out, record);
    out
}

/// Append one record's binary payload to `out`.
fn put_record_binary(out: &mut Vec<u8>, record: &WalRecord) {
    match &record.op {
        WalOp::Delta {
            table,
            delta,
            chained,
        } => {
            out.push(if *chained { REC_CHAINED } else { REC_DELTA });
            codec::put_u64(out, record.seq);
            codec::put_str(out, table);
            codec::put_delta(out, delta);
        }
        WalOp::Prepare { gtx, records } => {
            out.push(REC_PREPARE);
            codec::put_u64(out, record.seq);
            codec::put_str(out, gtx);
            codec::put_u64(out, *records);
        }
        WalOp::Resolve { gtx, committed } => {
            out.push(REC_RESOLVE);
            codec::put_u64(out, record.seq);
            codec::put_str(out, gtx);
            out.push(u8::from(*committed));
        }
    }
}

/// Decode one binary record payload produced by [`encode_record_binary`].
pub fn decode_record_binary(payload: &[u8]) -> Result<WalRecord, EngineError> {
    let mut r = codec::BinReader::new(payload);
    let rot = |e: esm_store::StoreError| EngineError::WalCorrupt(e.to_string());
    let tag = r.u8().map_err(rot)?;
    let seq = r.u64().map_err(rot)?;
    let record = match tag {
        REC_DELTA | REC_CHAINED => {
            let table = r.str().map_err(rot)?;
            let delta = r.delta().map_err(rot)?;
            if tag == REC_CHAINED {
                WalRecord::chained(seq, table, delta)
            } else {
                WalRecord::delta(seq, table, delta)
            }
        }
        REC_PREPARE => {
            let gtx = r.str().map_err(rot)?;
            let records = r.u64().map_err(rot)?;
            WalRecord::prepare(seq, gtx, records)
        }
        REC_RESOLVE => {
            let gtx = r.str().map_err(rot)?;
            let committed = match r.u8().map_err(rot)? {
                0 => false,
                1 => true,
                b => {
                    return Err(EngineError::WalCorrupt(format!(
                        "bad resolve verdict byte {b}"
                    )))
                }
            };
            WalRecord::resolve(seq, gtx, committed)
        }
        tag => {
            return Err(EngineError::WalCorrupt(format!(
                "unknown binary record tag {tag}"
            )))
        }
    };
    r.end().map_err(rot)?;
    Ok(record)
}

/// Encode one record with its binary segment frame — exactly the bytes
/// [`SegmentWriter::append`] writes.
pub fn encode_framed_binary(record: &WalRecord) -> Vec<u8> {
    let mut frame = Sealer::new(BINARY_FRAME_MAGIC);
    put_record_binary(frame.body(), record);
    frame.finish()
}

/// An append-only byte sink with explicit durability points.
///
/// `append` buffers; only bytes written before a successful `sync` are
/// guaranteed to survive a crash (the OS may persist more, which recovery
/// tolerates as a torn tail).
pub trait SegmentFile: Send {
    /// Append bytes to the logical end of the file.
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError>;
    /// Make every appended byte durable.
    fn sync(&mut self) -> Result<(), EngineError>;
}

/// A real segment file on disk.
#[derive(Debug)]
pub struct DiskFile {
    file: std::fs::File,
    /// Live fault-injection knob: extra nanoseconds slept before every
    /// fsync. Shared with whoever configured it
    /// ([`crate::DurabilityConfig::sync_delay_handle`]) so a chaos
    /// harness can raise and drop the delay mid-run.
    sync_delay: Option<Arc<std::sync::atomic::AtomicU64>>,
}

impl DiskFile {
    /// Create (truncating) a segment file at `path`.
    pub fn create(path: &Path) -> Result<DiskFile, EngineError> {
        Ok(DiskFile {
            file: std::fs::File::create(path)?,
            sync_delay: None,
        })
    }

    /// Attach a live sync-delay knob (nanos slept before each fsync).
    pub fn set_sync_delay(&mut self, delay: Option<Arc<std::sync::atomic::AtomicU64>>) {
        self.sync_delay = delay;
    }
}

impl SegmentFile for DiskFile {
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.file.write_all(bytes)?;
        Ok(())
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        if let Some(delay) = &self.sync_delay {
            let ns = delay.load(std::sync::atomic::Ordering::Relaxed);
            if ns > 0 {
                std::thread::sleep(std::time::Duration::from_nanos(ns));
            }
        }
        self.file.sync_data()?;
        Ok(())
    }
}

/// The observable state of a [`SimFile`]: what is durable, what is only
/// buffered, and how many syncs ran.
#[derive(Debug, Default)]
pub struct SimDisk {
    durable: Vec<u8>,
    buffered: Vec<u8>,
    /// Number of successful syncs.
    pub syncs: u64,
    /// When set, the next sync persists only this many of the buffered
    /// bytes, then fails — a torn write.
    pub tear_next_sync_at: Option<usize>,
    /// When set, every sync stalls this long before persisting — a slow
    /// disk, for telemetry tests that need fsync time to dominate.
    pub sync_delay: Option<std::time::Duration>,
}

impl SimDisk {
    /// The bytes that would survive a crash right now.
    pub fn durable_bytes(&self) -> Vec<u8> {
        self.durable.clone()
    }

    /// Bytes appended but not yet durable.
    pub fn buffered_len(&self) -> usize {
        self.buffered.len()
    }
}

/// An in-memory [`SegmentFile`] with fault injection, for the
/// crash-recovery test harness. Cloning shares the underlying disk.
#[derive(Debug, Clone, Default)]
pub struct SimFile {
    disk: Arc<Mutex<SimDisk>>,
}

impl SimFile {
    /// A fresh, empty simulated file.
    pub fn new() -> SimFile {
        SimFile::default()
    }

    /// A handle onto the simulated disk, to inject faults and to inspect
    /// durable state after a "crash".
    pub fn disk(&self) -> Arc<Mutex<SimDisk>> {
        Arc::clone(&self.disk)
    }
}

impl SegmentFile for SimFile {
    fn append(&mut self, bytes: &[u8]) -> Result<(), EngineError> {
        self.disk
            .lock()
            .expect("sim disk lock")
            .buffered
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> Result<(), EngineError> {
        let mut disk = self.disk.lock().expect("sim disk lock");
        if let Some(delay) = disk.sync_delay {
            std::thread::sleep(delay);
        }
        if let Some(keep) = disk.tear_next_sync_at.take() {
            let keep = keep.min(disk.buffered.len());
            let torn: Vec<u8> = disk.buffered.drain(..keep).collect();
            disk.durable.extend_from_slice(&torn);
            disk.buffered.clear();
            return Err(EngineError::Io("simulated torn sync".into()));
        }
        let buffered = std::mem::take(&mut disk.buffered);
        disk.durable.extend_from_slice(&buffered);
        disk.syncs += 1;
        Ok(())
    }
}

/// An appender onto one segment: frames records with their CRC, counts
/// bytes and unsynced records. Group-commit policy (when to sync) lives
/// with the caller, [`crate::DurableWal`]. With a telemetry handle
/// attached, appends time into [`Phase::CommitWalAppend`] and issued
/// syncs into [`Phase::CommitFsync`] — this is the one place the two
/// costs are cleanly separable, which is what lets the histograms tell
/// a slow disk apart from a fat record.
#[derive(Debug)]
pub struct SegmentWriter<F: SegmentFile> {
    file: F,
    first_seq: u64,
    bytes: u64,
    pending: usize,
    telemetry: Option<Arc<Telemetry>>,
}

impl<F: SegmentFile> SegmentWriter<F> {
    /// Start a segment whose first record will be `first_seq`.
    pub fn new(file: F, first_seq: u64) -> SegmentWriter<F> {
        SegmentWriter {
            file,
            first_seq,
            bytes: 0,
            pending: 0,
            telemetry: None,
        }
    }

    /// Attach a telemetry registry: appends and syncs start recording
    /// their latency.
    pub fn set_telemetry(&mut self, telemetry: Option<Arc<Telemetry>>) {
        self.telemetry = telemetry;
    }

    /// Append one framed record (buffered until the next
    /// [`SegmentWriter::sync`]). Returns the appended size in bytes,
    /// frame included.
    pub fn append(&mut self, record: &WalRecord) -> Result<u64, EngineError> {
        let span = Span::start();
        let mut tspan = esm_obs::trace::span("commit_wal_append");
        let framed = encode_framed_binary(record);
        self.file.append(&framed)?;
        self.bytes += framed.len() as u64;
        self.pending += 1;
        if let Some(t) = tspan.as_mut() {
            t.set_bytes(framed.len() as u64);
        }
        if let Some(tel) = &self.telemetry {
            tel.record(Phase::CommitWalAppend, span.elapsed_ns());
        }
        Ok(framed.len() as u64)
    }

    /// Sync appended records to durable storage. Returns whether a sync
    /// was actually issued (no-op when nothing is pending).
    pub fn sync(&mut self) -> Result<bool, EngineError> {
        if self.pending == 0 {
            return Ok(false);
        }
        let span = Span::start();
        let _tspan = esm_obs::trace::span("commit_fsync");
        self.file.sync()?;
        if let Some(tel) = &self.telemetry {
            tel.record(Phase::CommitFsync, span.elapsed_ns());
        }
        self.pending = 0;
        Ok(true)
    }

    /// The first sequence number this segment holds.
    pub fn first_seq(&self) -> u64 {
        self.first_seq
    }

    /// Bytes appended so far (durable or not).
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Records appended since the last sync.
    pub fn pending(&self) -> usize {
        self.pending
    }
}

/// The result of decoding a (possibly crash-torn, possibly rotten)
/// segment.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentPrefix {
    /// The complete, checksum-valid records, in file order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past each record's frame (so recovery can
    /// truncate a file back to any record boundary).
    pub ends: Vec<usize>,
    /// How many leading bytes those records occupy.
    pub consumed: usize,
    /// Whether bytes past `consumed` remained that look like a crash
    /// artifact (an incomplete trailing frame).
    pub torn: bool,
    /// Set when the bytes past `consumed` are provably *not* a crash
    /// artifact: a complete frame whose payload fails its CRC or does not
    /// parse, or a garbled frame header. Mid-stream bit rot, not a torn
    /// tail — recovery must refuse, not truncate.
    pub corrupt: Option<String>,
}

/// Decode the longest prefix of complete, CRC-valid records from raw
/// segment bytes.
///
/// A record counts only when its frame header is complete, all its
/// promised payload bytes are present, the payload matches its CRC32 and
/// parses as exactly one record. An *incomplete* trailing frame is
/// reported as `torn` (what a crash leaves behind); a *complete but
/// invalid* frame, or one that does not start with
/// [`BINARY_FRAME_MAGIC`], is reported as `corrupt` (what bit rot leaves
/// behind).
pub fn decode_segment_prefix(bytes: &[u8]) -> SegmentPrefix {
    let mut records = Vec::new();
    let mut ends = Vec::new();
    let mut consumed = 0usize;
    let mut corrupt = None;
    while consumed < bytes.len() {
        let rest = &bytes[consumed..];
        if rest[0] != BINARY_FRAME_MAGIC {
            // Truncation only shortens a file; it never rewrites the
            // first byte of a frame. This is rot.
            corrupt = Some(format!(
                "frame at byte {consumed} starts with {:#04x}, not the frame magic",
                rest[0]
            ));
            break;
        }
        if rest.len() < FRAME_HEADER_BYTES {
            break; // incomplete frame header: torn
        }
        let (len, crc) = frame_header(rest);
        let payload_start = consumed + FRAME_HEADER_BYTES;
        if bytes.len() - payload_start < len {
            break; // incomplete payload: torn
        }
        let payload = &bytes[payload_start..payload_start + len];
        let actual = crc32(payload);
        if actual != crc {
            corrupt = Some(format!(
                "crc mismatch at byte {payload_start}: frame says {crc:08x}, payload is {actual:08x}"
            ));
            break;
        }
        match decode_record_binary(payload) {
            Ok(record) => {
                records.push(record);
                consumed = payload_start + len;
                ends.push(consumed);
            }
            Err(e) => {
                // CRC-valid but unparseable: the writer never produced
                // this, so the frame header itself lies — rot.
                corrupt = Some(format!("unparseable framed record: {e}"));
                break;
            }
        }
    }
    let torn = corrupt.is_none() && consumed < bytes.len();
    SegmentPrefix {
        records,
        ends,
        consumed,
        torn,
        corrupt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use esm_store::{row, Delta};

    fn rec(seq: u64, n: i64) -> WalRecord {
        WalRecord::delta(
            seq,
            "t",
            Delta {
                inserted: vec![row![n, "payload"]],
                deleted: if n % 2 == 0 {
                    vec![row![n - 1, "old"]]
                } else {
                    vec![]
                },
            },
        )
    }

    #[test]
    fn segment_names_round_trip_and_sort() {
        let names: Vec<String> = [1u64, 42, 100, 7_000_000_000]
            .iter()
            .map(|&s| segment_file_name(s))
            .collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(sorted, names, "zero padding keeps name order == seq order");
        for (i, &s) in [1u64, 42, 100, 7_000_000_000].iter().enumerate() {
            assert_eq!(parse_segment_name(&names[i]), Some(s));
        }
        assert_eq!(parse_segment_name("checkpoint-1.ckpt"), None);
        assert_eq!(parse_segment_name("wal-x.seg"), None);
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // The IEEE check value: crc32("123456789") == 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The byte-at-a-time CRC32 the sliced one must agree with.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC32_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bytewise_loop() {
        // Pseudo-random bytes, cut at every offset of a word and at many
        // lengths, so every alignment and every tail length is covered.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let bytes: Vec<u8> = (0..4096)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x as u8
            })
            .collect();
        for offset in 0..16 {
            for len in (0..300).chain([1000, 2047, 4096 - offset]) {
                let slice = &bytes[offset..offset + len];
                assert_eq!(
                    crc32(slice),
                    crc32_bytewise(slice),
                    "offset {offset}, len {len}"
                );
            }
        }
    }

    #[test]
    fn sealer_frames_equal_sealed_payloads() {
        for r in all_kinds() {
            let payload = encode_record_binary(&r);
            assert_eq!(encode_framed_binary(&r), seal(BINARY_FRAME_MAGIC, &payload));
        }
        assert_eq!(Sealer::new(0xB6).finish(), seal(0xB6, &[]));
    }

    /// Every record kind, with multi-byte strings a cut can split.
    fn all_kinds() -> Vec<WalRecord> {
        vec![
            rec(1, 1),
            rec(2, 2),
            WalRecord::chained(3, "tab\tle λ", rec(1, 1).delta_op().unwrap().1.clone()),
            WalRecord::delta(
                4,
                "t",
                Delta {
                    inserted: vec![row![4, "λambda 🦀"], row![]],
                    deleted: vec![],
                },
            ),
            WalRecord::delta(5, "t", Delta::empty()),
            WalRecord::prepare(6, "g1", 2),
            WalRecord::resolve(7, "g1", true),
            WalRecord::resolve(8, "gλ", false),
        ]
    }

    #[test]
    fn binary_frames_round_trip_all_record_kinds() {
        let records = all_kinds();
        let full: Vec<u8> = records.iter().flat_map(encode_framed_binary).collect();
        let p = decode_segment_prefix(&full);
        assert_eq!(p.records, records);
        assert!(!p.torn && p.corrupt.is_none());
    }

    #[test]
    fn binary_prefix_decode_at_every_byte_is_a_clean_record_prefix() {
        let records = all_kinds();
        let bytes: Vec<u8> = records.iter().flat_map(encode_framed_binary).collect();
        for cut in 0..=bytes.len() {
            let prefix = decode_segment_prefix(&bytes[..cut]);
            // Truncation is a crash artifact — even mid-code-point:
            // never classified as rot.
            assert_eq!(prefix.corrupt, None, "cut at {cut}");
            // The decoded records are exactly the complete ones.
            assert_eq!(
                prefix.records,
                records[..prefix.records.len()],
                "cut at {cut}"
            );
            assert!(prefix.consumed <= cut);
            assert_eq!(prefix.torn, prefix.consumed < cut);
            // consumed always sits on a frame boundary.
            let reencoded: Vec<u8> = prefix
                .records
                .iter()
                .flat_map(encode_framed_binary)
                .collect();
            assert_eq!(reencoded.len(), prefix.consumed);
            assert_eq!(prefix.ends.last().copied().unwrap_or(0), prefix.consumed);
        }
    }

    #[test]
    fn binary_bit_rot_is_corruption_not_a_torn_tail() {
        let clean: Vec<u8> = (1..=3)
            .flat_map(|i| encode_framed_binary(&rec(i, i as i64)))
            .collect();
        // Flip a byte inside the first record's payload.
        let mut rotten = clean.clone();
        rotten[FRAME_HEADER_BYTES + 3] ^= 0x40;
        let p = decode_segment_prefix(&rotten);
        assert!(p.corrupt.is_some(), "flipped payload byte: {p:?}");
        assert!(!p.torn);
        assert!(p.records.is_empty(), "rot cuts the decodable prefix short");
        // A CRC-valid payload with an unknown tag is corruption too.
        let mut payload = encode_record_binary(&rec(1, 1));
        payload[0] = 99;
        let p = decode_segment_prefix(&seal(BINARY_FRAME_MAGIC, &payload));
        assert!(p.corrupt.is_some());
    }

    #[test]
    fn bit_rot_is_corruption_not_a_torn_tail() {
        // A frame whose first byte is not the magic is corruption, even
        // when nothing follows it: a crash only shortens a file, so it
        // cannot rewrite the first byte of a frame.
        let clean: Vec<u8> = (1..=3)
            .flat_map(|i| encode_framed_binary(&rec(i, i as i64)))
            .collect();
        let first_len = encode_framed_binary(&rec(1, 1)).len();
        for (at, byte) in [(0, 0x00), (0, b'='), (first_len, 0xB4), (first_len, 0xFF)] {
            let mut garbled = clean.clone();
            garbled[at] = byte;
            let p = decode_segment_prefix(&garbled);
            assert!(p.corrupt.is_some() && !p.torn, "{byte:#04x} at {at}: {p:?}");
            assert_eq!(
                p.records.len(),
                usize::from(at > 0),
                "rot cuts the prefix short"
            );
            let p = decode_segment_prefix(&garbled[..at + 1]);
            assert!(p.corrupt.is_some() && !p.torn, "lone {byte:#04x}: {p:?}");
        }
        // A garbled length is corruption too once the frame it announces
        // is complete: the CRC no longer matches the bytes it covers.
        let mut garbled = clean;
        garbled[1] ^= 0x01;
        let p = decode_segment_prefix(&garbled);
        assert!(p.corrupt.is_some() && !p.torn, "{p:?}");
    }

    #[test]
    fn markers_and_chains_survive_framing() {
        // The writer's frames, back to back in one file, decode to every
        // record it appended — markers and chains included.
        let file = SimFile::new();
        let disk = file.disk();
        let mut w = SegmentWriter::new(file, 1);
        for r in all_kinds() {
            w.append(&r).unwrap();
        }
        w.sync().unwrap();
        let durable = disk.lock().unwrap().durable_bytes();
        assert_eq!(durable.len() as u64, w.bytes());
        let p = decode_segment_prefix(&durable);
        assert_eq!(p.records, all_kinds());
        assert!(!p.torn && p.corrupt.is_none());
    }

    #[test]
    fn prefix_decode_at_every_byte_is_a_clean_record_prefix() {
        // A sync torn at every byte offset of a batch — the crash the
        // simulated disk models — leaves exactly the records that landed
        // whole, and a torn tail only when a frame was cut.
        let records = all_kinds();
        let total: usize = records.iter().map(|r| encode_framed_binary(r).len()).sum();
        for keep in 0..=total {
            let file = SimFile::new();
            let disk = file.disk();
            let mut w = SegmentWriter::new(file, 1);
            for r in &records {
                w.append(r).unwrap();
            }
            disk.lock().unwrap().tear_next_sync_at = Some(keep);
            assert!(w.sync().is_err());
            let durable = disk.lock().unwrap().durable_bytes();
            assert_eq!(durable.len(), keep);
            let p = decode_segment_prefix(&durable);
            assert_eq!(p.corrupt, None, "keep {keep}");
            assert_eq!(p.records, records[..p.records.len()], "keep {keep}");
            assert_eq!(p.torn, p.consumed < keep, "keep {keep}");
        }
    }

    #[test]
    fn absurd_counts_are_refused_without_allocating() {
        // Cut each record payload at every byte and announce u32::MAX
        // there: every count field (the delta's two, each row's, each
        // string length) sees an absurd count at some cut. The decoder
        // must refuse, or — where the cut fell elsewhere — decode to a
        // record that re-encodes to exactly those bytes.
        for record in all_kinds() {
            let payload = encode_record_binary(&record);
            for cut in 0..=payload.len() {
                let mut bytes = payload[..cut].to_vec();
                codec::put_u32(&mut bytes, u32::MAX);
                if let Ok(back) = decode_record_binary(&bytes) {
                    assert_eq!(encode_record_binary(&back), bytes, "cut at {cut}");
                }
            }
        }
    }

    #[test]
    fn writer_tracks_bytes_and_pending() {
        let mut w = SegmentWriter::new(SimFile::new(), 1);
        let r = rec(1, 1);
        let n = w.append(&r).unwrap();
        assert_eq!(n, encode_framed_binary(&r).len() as u64);
        assert_eq!(w.bytes(), n);
        assert_eq!(w.pending(), 1);
        assert!(w.sync().unwrap());
        assert_eq!(w.pending(), 0);
        assert!(!w.sync().unwrap(), "sync with nothing pending is a no-op");
    }

    #[test]
    fn simfile_loses_unsynced_bytes_on_crash() {
        let file = SimFile::new();
        let disk = file.disk();
        let mut w = SegmentWriter::new(file, 1);
        for i in 1..=10 {
            w.append(&rec(i, i as i64)).unwrap();
            if i % 4 == 0 {
                w.sync().unwrap(); // group commit every 4 records
            }
        }
        // Crash now: only the 8 synced records survive.
        let durable = disk.lock().unwrap().durable_bytes();
        let p = decode_segment_prefix(&durable);
        assert_eq!(p.records.len(), 8);
        assert!(!p.torn, "synced batches end on record boundaries");
        assert_eq!(disk.lock().unwrap().syncs, 2);
        assert!(disk.lock().unwrap().buffered_len() > 0);
    }

    #[test]
    fn simfile_torn_sync_leaves_decodable_prefix() {
        let file = SimFile::new();
        let disk = file.disk();
        let mut w = SegmentWriter::new(file, 1);
        w.append(&rec(1, 1)).unwrap();
        w.append(&rec(2, 2)).unwrap();
        let first_len = encode_framed_binary(&rec(1, 1)).len();
        disk.lock().unwrap().tear_next_sync_at = Some(first_len + 7);
        assert!(matches!(w.sync(), Err(EngineError::Io(_))));
        let durable = disk.lock().unwrap().durable_bytes();
        let p = decode_segment_prefix(&durable);
        assert_eq!(p.records.len(), 1, "only the first record fully landed");
        assert!(p.torn, "the second record's first 7 bytes are a torn tail");
    }
}
