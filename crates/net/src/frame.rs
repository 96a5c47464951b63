//! Length-prefixed, CRC-checked wire frames.
//!
//! One frame carries one protocol message:
//!
//! ```text
//! [4 bytes big-endian payload length][4 bytes big-endian CRC32][payload]
//! ```
//!
//! The CRC covers the payload bytes and uses the same polynomial as the
//! engine's WAL segment framing ([`esm_engine::crc32`]): a torn prefix
//! (connection cut mid-frame) is *incomplete* and the reader waits for
//! more bytes, while a bit flip inside a complete frame is *corrupt*
//! and the connection is refused — the same torn-vs-rot classification
//! the durable log applies to segment files.

use std::io::{Read, Write};

use esm_engine::crc32;

/// Frame header size: 4 length bytes + 4 CRC bytes.
pub const HEADER_BYTES: usize = 8;

/// Hard per-frame payload cap (a whole-database snapshot fits; a
/// corrupt length prefix claiming gigabytes does not).
pub const MAX_FRAME_BYTES: u32 = 64 * 1024 * 1024;

/// Why a complete-looking frame was refused.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// The CRC over the payload did not match the header.
    Corrupt {
        /// CRC the header claimed.
        want: u32,
        /// CRC the payload hashed to.
        got: u32,
    },
    /// The length prefix exceeds [`MAX_FRAME_BYTES`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Corrupt { want, got } => {
                write!(
                    f,
                    "frame CRC mismatch: header {want:#010x}, payload {got:#010x}"
                )
            }
            FrameError::TooLarge(n) => {
                write!(f, "frame length {n} exceeds the {MAX_FRAME_BYTES}-byte cap")
            }
        }
    }
}

impl std::error::Error for FrameError {}

/// Wrap an already-encoded payload in a frame (a copy of it; protocol
/// messages build their frames in place with [`frame_buffer`]).
pub fn encode_frame(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() as u64 <= MAX_FRAME_BYTES as u64,
        "payload exceeds the frame cap"
    );
    let mut out = Vec::with_capacity(HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_be_bytes());
    out.extend_from_slice(&crc32(payload).to_be_bytes());
    out.extend_from_slice(payload);
    out
}

/// A buffer for one frame, its header reserved: append the payload,
/// then [`seal_frame`] it. The payload is encoded in place, never copied
/// into a second buffer.
pub fn frame_buffer() -> Vec<u8> {
    vec![0; HEADER_BYTES]
}

/// Fill in the header of a frame built on [`frame_buffer`] with the
/// length and CRC of everything after it: the same bytes
/// [`encode_frame`] makes of that payload.
pub fn seal_frame(mut frame: Vec<u8>) -> Vec<u8> {
    let payload = &frame[HEADER_BYTES..];
    assert!(
        payload.len() as u64 <= MAX_FRAME_BYTES as u64,
        "payload exceeds the frame cap"
    );
    let len = (payload.len() as u32).to_be_bytes();
    let crc = crc32(payload).to_be_bytes();
    frame[0..4].copy_from_slice(&len);
    frame[4..8].copy_from_slice(&crc);
    frame
}

/// Try to decode one frame from the front of `buf`.
///
/// * `Ok(None)` — incomplete: the buffer holds a (possibly empty)
///   proper prefix of a frame; read more bytes and try again. A torn
///   prefix is never an error.
/// * `Ok(Some((payload, consumed)))` — one whole frame; the caller
///   drains `consumed` bytes.
/// * `Err(_)` — the frame is structurally complete but corrupt (CRC
///   mismatch) or its claimed length is absurd; the connection should
///   be dropped.
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Vec<u8>, usize)>, FrameError> {
    if buf.len() < HEADER_BYTES {
        return Ok(None);
    }
    let len = u32::from_be_bytes(buf[0..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(FrameError::TooLarge(len));
    }
    let want = u32::from_be_bytes(buf[4..8].try_into().expect("4 bytes"));
    let total = HEADER_BYTES + len as usize;
    if buf.len() < total {
        return Ok(None);
    }
    let payload = &buf[HEADER_BYTES..total];
    let got = crc32(payload);
    if got != want {
        return Err(FrameError::Corrupt { want, got });
    }
    Ok(Some((payload.to_vec(), total)))
}

/// Blocking write of one frame around an already-encoded payload
/// ([`encode_frame`]); [`crate::RemoteEngine`] writes frames it built
/// in place instead.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> std::io::Result<()> {
    w.write_all(&encode_frame(payload))?;
    w.flush()
}

/// Blocking read of one frame (the synchronous client path). An EOF
/// mid-frame or a corrupt frame maps to `io::Error`.
pub fn read_frame(r: &mut impl Read) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_BYTES];
    r.read_exact(&mut header)?;
    let len = u32::from_be_bytes(header[0..4].try_into().expect("4 bytes"));
    if len > MAX_FRAME_BYTES {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::TooLarge(len).to_string(),
        ));
    }
    let want = u32::from_be_bytes(header[4..8].try_into().expect("4 bytes"));
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    let got = crc32(&payload);
    if got != want {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            FrameError::Corrupt { want, got }.to_string(),
        ));
    }
    Ok(payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        for payload in [
            &b""[..],
            b"x",
            b"hello \xf0\x9f\xa6\x80 frames\n\twith bytes",
        ] {
            let framed = encode_frame(payload);
            let (back, consumed) = decode_frame(&framed).unwrap().expect("complete");
            assert_eq!(back, payload);
            assert_eq!(consumed, framed.len());
        }
    }

    #[test]
    fn frames_built_in_place_equal_wrapped_payloads() {
        for payload in [&b""[..], b"x", &[0xB7; 1000]] {
            let mut frame = frame_buffer();
            frame.extend_from_slice(payload);
            assert_eq!(seal_frame(frame), encode_frame(payload));
        }
    }

    #[test]
    fn torn_prefixes_are_incomplete_not_errors() {
        let framed = encode_frame(b"some payload");
        for cut in 0..framed.len() {
            assert_eq!(
                decode_frame(&framed[..cut]).unwrap(),
                None,
                "cut at {cut} must read as incomplete"
            );
        }
    }

    #[test]
    fn bit_rot_is_corruption() {
        let mut framed = encode_frame(b"some payload");
        let last = framed.len() - 1;
        framed[last] ^= 0x40;
        assert!(matches!(
            decode_frame(&framed),
            Err(FrameError::Corrupt { .. })
        ));
    }

    #[test]
    fn absurd_lengths_are_refused() {
        let mut framed = encode_frame(b"x");
        framed[0] = 0xff; // claim a ~4GB payload
        assert!(matches!(
            decode_frame(&framed),
            Err(FrameError::TooLarge(_))
        ));
    }

    #[test]
    fn back_to_back_frames_decode_in_sequence() {
        let mut buf = encode_frame(b"first");
        buf.extend_from_slice(&encode_frame(b"second"));
        let (one, n) = decode_frame(&buf).unwrap().expect("complete");
        assert_eq!(one, b"first");
        let (two, m) = decode_frame(&buf[n..]).unwrap().expect("complete");
        assert_eq!(two, b"second");
        assert_eq!(n + m, buf.len());
    }
}
