//! On-disk record framing: length-prefixed, CRC32-guarded frames.
//!
//! Every WAL record (and every checkpoint body) is stored as one frame:
//!
//! ```text
//! +----------------+----------------+=====================+
//! | len: u32 LE    | crc32: u32 LE  | payload (len bytes) |
//! +----------------+----------------+=====================+
//! ```
//!
//! The CRC covers the four length bytes *and* the payload, so a frame
//! whose length prefix was damaged after the fact fails its checksum
//! even when the payload happens to survive. It is CRC-32/IEEE (the
//! zlib/Ethernet polynomial), computed slicing-by-8: eight const-built
//! 256-entry tables fold eight bytes per step, several times faster
//! than the bytewise loop and bit-identical to it. Every frame written
//! or read (WAL records, checkpoints, archives, history segments) pays
//! this checksum, so it is the floor under recovery and segment scans.
//!
//! ## The torn-tail rule
//!
//! An append-only log written by a single writer can be cut short by a
//! crash in exactly one place: its end. [`decode_all`] therefore
//! classifies a bad frame by *where* it sits:
//!
//! * an **incomplete** frame (header or payload runs past end-of-file),
//!   or a CRC mismatch on a frame that ends exactly at end-of-file, is a
//!   **torn tail** — the caller truncates at the frame's start offset
//!   and keeps serving;
//! * a CRC mismatch with more bytes *after* the frame is interior
//!   **corruption** — something other than a crash damaged the file, and
//!   recovery must fail loudly rather than silently drop records.
//!
//! (A corrupted length prefix in the interior desynchronizes parsing and
//! is reported as whatever the garbage decodes to — usually an
//! incomplete or checksum-failing frame; it cannot be distinguished from
//! a torn tail without resync markers, which this format omits.)

use std::path::Path;

use serde::{Deserialize, Serialize};

use crate::durability::io::SharedIo;
use crate::durability::wal::WalError;
use crate::error::OdeError;

/// Frame header size: 4 length bytes + 4 CRC bytes.
pub const HEADER_LEN: usize = 8;

/// Upper bound on a single frame's payload; longer lengths are treated
/// as damage, not as frames.
pub const MAX_FRAME: u32 = 64 * 1024 * 1024;

/// CRC-32 (IEEE 802.3, reflected) slicing-by-8 tables. `CRC_TABLES[0]`
/// is the classic bytewise table; `CRC_TABLES[k][b]` is the CRC state
/// after byte `b` followed by `k` zero bytes, so one lookup per table
/// folds eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut t = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut i = 0;
    while i < 256 {
        let mut k = 1;
        while k < 8 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            k += 1;
        }
        i += 1;
    }
    t
};

/// Fold `bytes` into a running (pre-inverted) CRC-32 state: eight bytes
/// per step through the slicing tables, then the tail bytewise. The one
/// CRC loop — [`crc32`] and the frame checksum both run it.
fn crc_update(mut c: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
    }
    c
}

/// CRC32 (IEEE) of `bytes`.
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc_update(!0, bytes)
}

fn frame_crc(len_le: [u8; 4], payload: &[u8]) -> u32 {
    !crc_update(crc_update(!0, &len_le), payload)
}

/// Encode one payload as a frame.
pub fn encode(payload: &[u8]) -> Vec<u8> {
    assert!(
        payload.len() <= MAX_FRAME as usize,
        "frame payload too large"
    );
    let len_le = (payload.len() as u32).to_le_bytes();
    let crc = frame_crc(len_le, payload);
    let mut out = Vec::with_capacity(HEADER_LEN + payload.len());
    out.extend_from_slice(&len_le);
    out.extend_from_slice(&crc.to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// How the scan of a frame stream ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Tail {
    /// Every byte belonged to a valid frame.
    Clean,
    /// The stream ends in a torn (incomplete or checksum-failing final)
    /// frame starting at this offset; truncate the file here.
    Torn {
        /// Byte offset of the torn frame's first header byte.
        offset: u64,
    },
}

/// Interior damage: a frame that fails its checksum with more data
/// following it. Unlike a torn tail this cannot be crash fallout.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CorruptFrame {
    /// Byte offset of the damaged frame.
    pub offset: u64,
    /// What was wrong with it.
    pub reason: String,
}

/// Decode a whole file's worth of frames, applying the torn-tail rule.
/// Returns the payloads, borrowed from `bytes`, plus how the stream
/// ended.
pub fn decode_all(bytes: &[u8]) -> Result<(Vec<&[u8]>, Tail), CorruptFrame> {
    let mut payloads = Vec::new();
    let mut off = 0usize;
    while off < bytes.len() {
        let rest = &bytes[off..];
        if rest.len() < HEADER_LEN {
            return Ok((payloads, Tail::Torn { offset: off as u64 }));
        }
        let len_le = [rest[0], rest[1], rest[2], rest[3]];
        let len = u32::from_le_bytes(len_le);
        let stored_crc = u32::from_le_bytes([rest[4], rest[5], rest[6], rest[7]]);
        if len > MAX_FRAME {
            // An absurd length prefix: if nothing verifiable follows,
            // treat it as a torn tail; a verifiable frame cannot follow
            // an unbounded length, so this is otherwise corruption.
            return Ok((payloads, Tail::Torn { offset: off as u64 }));
        }
        let end = HEADER_LEN + len as usize;
        if rest.len() < end {
            return Ok((payloads, Tail::Torn { offset: off as u64 }));
        }
        let payload = &rest[HEADER_LEN..end];
        if frame_crc(len_le, payload) != stored_crc {
            if off + end == bytes.len() {
                return Ok((payloads, Tail::Torn { offset: off as u64 }));
            }
            return Err(CorruptFrame {
                offset: off as u64,
                reason: "frame checksum mismatch with data following".to_string(),
            });
        }
        payloads.push(payload);
        off += end;
    }
    Ok((payloads, Tail::Clean))
}

/// Read a log of framed JSON records (the epoch table, the schema
/// log): a missing file is an empty log, a torn tail is truncated away
/// (a crash during an append), and interior damage or a record that
/// does not parse is [`WalError::Corrupt`], labelled with `what`.
pub(crate) fn read_json_log<T: Deserialize>(
    io: &SharedIo,
    path: &Path,
    what: &str,
) -> Result<Vec<T>, WalError> {
    let bytes = match io.with(|f| f.read(path)) {
        Ok(b) => b,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let (payloads, tail) = decode_all(&bytes)
        .map_err(|c| WalError::Corrupt(format!("{what} at {}: {}", c.offset, c.reason)))?;
    if let Tail::Torn { offset } = tail {
        io.with(|f| f.truncate(path, offset))?;
    }
    payloads
        .iter()
        .map(|p| {
            std::str::from_utf8(p)
                .map_err(|e| e.to_string())
                .and_then(|text| serde_json::from_str(text).map_err(|e| e.to_string()))
                .map_err(|e| WalError::Corrupt(format!("{what} record: {e}")))
        })
        .collect()
}

/// Durably append `records` to the framed JSON log at `path`: framed,
/// appended in one write, and fsynced.
pub(crate) fn append_json_log<T: Serialize>(
    io: &SharedIo,
    path: &Path,
    records: &[T],
) -> Result<(), WalError> {
    let mut framed = Vec::new();
    for rec in records {
        let payload = serde_json::to_string(rec)
            .map_err(|e| WalError::Logical(OdeError::Method(e.to_string())))?;
        framed.extend_from_slice(&encode(payload.as_bytes()));
    }
    io.with(|f| f.append(path, &framed))?;
    io.with(|f| f.fsync(path))?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The textbook bytewise CRC-32, kept as the reference the slicing
    /// loop must reproduce.
    fn bytewise_crc32(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn slicing_by_8_equals_bytewise_at_every_length_and_offset() {
        let buf: Vec<u8> = (0..300u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for off in 0..8 {
            for len in 0..=257 {
                let s = &buf[off..off + len];
                assert_eq!(crc32(s), bytewise_crc32(s), "len {len} offset {off}");
                if len >= 4 {
                    let len_le = [s[0], s[1], s[2], s[3]];
                    assert_eq!(frame_crc(len_le, &s[4..]), bytewise_crc32(s));
                }
            }
        }
    }

    #[test]
    fn round_trip_multiple_frames() {
        let mut stream = Vec::new();
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma gamma"];
        for p in &payloads {
            stream.extend_from_slice(&encode(p));
        }
        let (got, tail) = decode_all(&stream).unwrap();
        assert_eq!(tail, Tail::Clean);
        assert_eq!(got, payloads);
    }

    #[test]
    fn torn_header_and_torn_payload() {
        let mut stream = encode(b"first");
        let keep = stream.len();
        stream.extend_from_slice(&encode(b"second")[..3]); // partial header
        let (got, tail) = decode_all(&stream).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            tail,
            Tail::Torn {
                offset: keep as u64
            }
        );

        let mut stream = encode(b"first");
        let second = encode(b"second");
        stream.extend_from_slice(&second[..second.len() - 2]); // partial payload
        let (got, tail) = decode_all(&stream).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            tail,
            Tail::Torn {
                offset: keep as u64
            }
        );
    }

    #[test]
    fn bad_crc_at_eof_is_torn_but_interior_is_corrupt() {
        // Final frame with a flipped payload byte: torn tail.
        let mut stream = encode(b"first");
        let keep = stream.len();
        stream.extend_from_slice(&encode(b"second"));
        let flip = stream.len() - 1;
        stream[flip] ^= 0x40;
        let (got, tail) = decode_all(&stream).unwrap();
        assert_eq!(got.len(), 1);
        assert_eq!(
            tail,
            Tail::Torn {
                offset: keep as u64
            }
        );

        // Same flip, but with a valid frame after it: interior corruption.
        stream.extend_from_slice(&encode(b"third"));
        let err = decode_all(&stream).unwrap_err();
        assert_eq!(err.offset, keep as u64);
    }

    #[test]
    fn corrupted_length_prefix_is_detected() {
        let mut stream = encode(b"payload");
        stream[0] ^= 0x01; // length now wrong; CRC covers it
        stream.extend_from_slice(&encode(b"after"));
        // The damaged length desynchronizes parsing; whatever it decodes
        // to must NOT silently yield a wrong payload. An outright
        // corruption error is also acceptable.
        if let Ok((payloads, tail)) = decode_all(&stream) {
            assert!(payloads.is_empty());
            assert_ne!(tail, Tail::Clean);
        }
    }
}
