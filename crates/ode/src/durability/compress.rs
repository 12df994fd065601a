//! A dependency-free LZ77-class block compressor for WAL archives.
//!
//! Swept segments are archived compressed (see [`super::archive`]), and
//! nothing may be vendored for it, so this module implements a small
//! LZ4-style byte-oriented format: greedy hash-chain matching over
//! independent blocks, 16-bit match offsets, nibble-packed token bytes
//! with 255-run length extensions. It favors simplicity and safety over
//! ratio — WAL segments are JSON op lines, which repeat heavily, so
//! even a greedy matcher routinely shrinks them 3–6×.
//!
//! ## Stream layout
//!
//! ```text
//! +--------- block ---------+--------- block ---------+ ...
//! | raw_len: u32 LE         |
//! | stored:  u32 LE         |  high bit set => payload is compressed,
//! | payload (stored&!HI)    |  clear => payload is raw (incompressible)
//! +-------------------------+
//! ```
//!
//! Blocks are at most [`BLOCK`] bytes of input and compress
//! independently: a match never reaches across a block boundary, so a
//! decoder needs only the current block's output window.
//!
//! ## Compressed block layout (LZ4-flavored sequences)
//!
//! ```text
//! token: 1 byte = (literal_len: high nibble | match_len-4: low nibble)
//! [literal_len 255-run extension bytes if nibble == 15]
//! literals
//! offset: u16 LE (1..=65535, distance back into this block's output)
//! [match_len 255-run extension bytes if nibble == 15]
//! ```
//!
//! The final sequence of a block may end after its literals (no offset
//! follows when the input is exhausted) — exactly LZ4's convention.
//!
//! Decompression validates every offset and length against the output
//! produced so far and the declared `raw_len`; malformed input yields
//! an [`LzError`], never wrong bytes or a panic. (Bit flips
//! that happen to decode are caught one layer up: the archive frame's
//! CRC covers the compressed payload, and the archive metadata records
//! the raw length and CRC of the original segment.)

use std::fmt;

/// Maximum bytes of input per independently-compressed block.
pub const BLOCK: usize = 256 * 1024;

/// Shortest match worth encoding (the token's match nibble stores
/// `len - MIN_MATCH`).
const MIN_MATCH: usize = 4;

/// Farthest back a match may reach (16-bit offsets).
const MAX_OFFSET: usize = 65_535;

/// Hash table size for the greedy matcher (positions of 4-byte
/// prefixes), as a power of two.
const HASH_BITS: u32 = 13;

/// High bit of the block header's `stored` word: payload is compressed.
const COMPRESSED_BIT: u32 = 0x8000_0000;

/// Decompression failed: the input is not a valid stream (truncated,
/// bit-flipped, or never produced by [`compress`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct LzError(pub String);

impl fmt::Display for LzError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lz: malformed stream: {}", self.0)
    }
}

impl std::error::Error for LzError {}

fn malformed<T>(why: &str) -> Result<T, LzError> {
    Err(LzError(why.to_string()))
}

#[inline]
fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    (v.wrapping_mul(2654435761) >> (32 - HASH_BITS)) as usize
}

/// Append a nibble-overflow length as 255-run extension bytes.
fn push_ext(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// Compress one block (≤ [`BLOCK`] bytes) into `out`. Greedy: at each
/// position, the newest prior occurrence of the 4-byte prefix within
/// [`MAX_OFFSET`] is extended as far as it matches.
fn compress_block(input: &[u8], out: &mut Vec<u8>) {
    let mut table = [usize::MAX; 1 << HASH_BITS];
    let mut lit_start = 0usize;
    let mut i = 0usize;

    // Emit one sequence: the pending literals, then (unless this is the
    // block's end) a match.
    let emit = |out: &mut Vec<u8>, lits: &[u8], m: Option<(usize, usize)>| {
        let lit_nib = lits.len().min(15);
        let match_nib = m.map_or(0, |(len, _)| (len - MIN_MATCH).min(15));
        out.push(((lit_nib as u8) << 4) | match_nib as u8);
        if lit_nib == 15 {
            push_ext(out, lits.len() - 15);
        }
        out.extend_from_slice(lits);
        if let Some((len, offset)) = m {
            out.extend_from_slice(&(offset as u16).to_le_bytes());
            if match_nib == 15 {
                push_ext(out, len - MIN_MATCH - 15);
            }
        }
    };

    while i + MIN_MATCH <= input.len() {
        let h = hash4(&input[i..]);
        let cand = table[h];
        table[h] = i;
        let found = cand != usize::MAX
            && i - cand <= MAX_OFFSET
            && input[cand..cand + MIN_MATCH] == input[i..i + MIN_MATCH];
        if !found {
            i += 1;
            continue;
        }
        let mut len = MIN_MATCH;
        while i + len < input.len() && input[cand + len] == input[i + len] {
            len += 1;
        }
        emit(out, &input[lit_start..i], Some((len, i - cand)));
        // Seed the table inside the match so runs keep finding
        // themselves, but sparsely — every other position is plenty.
        let mut j = i + 1;
        while j + MIN_MATCH <= input.len() && j < i + len {
            table[hash4(&input[j..])] = j;
            j += 2;
        }
        i += len;
        lit_start = i;
    }
    emit(out, &input[lit_start..], None);
}

fn decompress_block(mut input: &[u8], raw_len: usize, out: &mut Vec<u8>) -> Result<(), LzError> {
    let base = out.len();
    let take = |input: &mut &[u8], n: usize| -> Result<Vec<u8>, LzError> {
        if input.len() < n {
            return malformed("sequence runs past the block payload");
        }
        let (head, rest) = input.split_at(n);
        *input = rest;
        Ok(head.to_vec())
    };
    let ext_len = |input: &mut &[u8]| -> Result<usize, LzError> {
        let mut total = 0usize;
        loop {
            let b = take(input, 1)?[0];
            total += b as usize;
            if b != 255 {
                return Ok(total);
            }
            if total > BLOCK {
                return malformed("length extension exceeds the block size");
            }
        }
    };

    while !input.is_empty() {
        let token = take(&mut input, 1)?[0];
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += ext_len(&mut input)?;
        }
        let lits = take(&mut input, lit_len)?;
        if out.len() - base + lits.len() > raw_len {
            return malformed("literals overflow the declared raw length");
        }
        out.extend_from_slice(&lits);
        if input.is_empty() {
            break; // final sequence: literals only
        }
        let off_bytes = take(&mut input, 2)?;
        let offset = u16::from_le_bytes([off_bytes[0], off_bytes[1]]) as usize;
        let mut match_len = (token & 0x0F) as usize + MIN_MATCH;
        if token & 0x0F == 15 {
            match_len += ext_len(&mut input)?;
        }
        let produced = out.len() - base;
        if offset == 0 || offset > produced {
            return malformed("match offset reaches before the block");
        }
        if produced + match_len > raw_len {
            return malformed("match overflows the declared raw length");
        }
        // Byte-at-a-time: overlapping matches (offset < len) are the
        // RLE idiom and must replicate the freshly-written bytes.
        let start = out.len() - offset;
        for k in 0..match_len {
            let b = out[start + k];
            out.push(b);
        }
    }
    if out.len() - base != raw_len {
        return malformed("block decoded to the wrong length");
    }
    Ok(())
}

/// Compress `input` into a self-describing block stream. Never fails;
/// incompressible blocks are stored raw (worst-case overhead is 8
/// bytes per [`BLOCK`]).
pub fn compress(input: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(input.len() / 2 + 16);
    let mut chunks = input.chunks(BLOCK).peekable();
    // An empty input still gets one header so decompress can tell
    // "empty" from "truncated before the first block".
    if chunks.peek().is_none() {
        out.extend_from_slice(&0u32.to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes());
        return out;
    }
    let mut scratch = Vec::new();
    for chunk in chunks {
        scratch.clear();
        compress_block(chunk, &mut scratch);
        let (stored, payload): (u32, &[u8]) = if scratch.len() < chunk.len() {
            (scratch.len() as u32 | COMPRESSED_BIT, &scratch)
        } else {
            (chunk.len() as u32, chunk)
        };
        out.extend_from_slice(&(chunk.len() as u32).to_le_bytes());
        out.extend_from_slice(&stored.to_le_bytes());
        out.extend_from_slice(payload);
    }
    out
}

/// Decompress a [`compress`]-produced stream. Truncation, stray
/// trailing bytes, bad offsets, and length mismatches all yield
/// [`LzError`]; no input decodes to wrong bytes silently at this layer
/// beyond what a CRC one level up exists to catch.
pub fn decompress(mut input: &[u8]) -> Result<Vec<u8>, LzError> {
    let mut out = Vec::new();
    if input.is_empty() {
        return malformed("empty stream (even empty input has a header)");
    }
    while !input.is_empty() {
        if input.len() < 8 {
            return malformed("truncated block header");
        }
        let raw_len = u32::from_le_bytes([input[0], input[1], input[2], input[3]]) as usize;
        let stored = u32::from_le_bytes([input[4], input[5], input[6], input[7]]);
        input = &input[8..];
        if raw_len > BLOCK {
            return malformed("block claims more than BLOCK raw bytes");
        }
        let compressed = stored & COMPRESSED_BIT != 0;
        let payload_len = (stored & !COMPRESSED_BIT) as usize;
        if input.len() < payload_len {
            return malformed("truncated block payload");
        }
        let (payload, rest) = input.split_at(payload_len);
        input = rest;
        if compressed {
            decompress_block(payload, raw_len, &mut out)?;
        } else {
            if payload.len() != raw_len {
                return malformed("raw block length mismatch");
            }
            out.extend_from_slice(payload);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) {
        let c = compress(data);
        assert_eq!(decompress(&c).expect("round trip"), data);
    }

    #[test]
    fn round_trips_edge_shapes() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abcd");
        round_trip(&[0u8; 1_000_000]); // RLE via overlapping matches
        round_trip("hello hello hello hello!".as_bytes());
        let mut mixed = Vec::new();
        for i in 0..300_000u32 {
            mixed.extend_from_slice(format!("{{\"op\":\"w\",\"k\":{}}}\n", i % 97).as_bytes());
        }
        round_trip(&mixed); // spans multiple blocks
    }

    #[test]
    fn json_like_input_actually_shrinks() {
        let mut data = Vec::new();
        for i in 0..2_000u32 {
            data.extend_from_slice(
                format!(
                    "{{\"Call\":{{\"txn\":{},\"method\":\"withdraw\"}}}}\n",
                    i % 13
                )
                .as_bytes(),
            );
        }
        let c = compress(&data);
        assert!(
            c.len() * 3 < data.len(),
            "repetitive JSON should shrink >3x: {} -> {}",
            data.len(),
            c.len()
        );
    }

    #[test]
    fn truncation_anywhere_is_malformed_or_detected() {
        let data: Vec<u8> = (0..10_000u32)
            .flat_map(|i| format!("rec-{}:", i % 50).into_bytes())
            .collect();
        let c = compress(&data);
        for cut in [0, 1, 7, 8, c.len() / 2, c.len() - 1] {
            match decompress(&c[..cut]) {
                Err(_) => {}
                Ok(got) => assert_ne!(got, data, "truncated at {cut} decoded to the original"),
            }
        }
    }

    #[test]
    fn incompressible_input_is_stored_with_bounded_overhead() {
        // A de-correlated pseudo-random buffer the matcher can't bite.
        let mut x = 0x12345678u64;
        let data: Vec<u8> = (0..100_000)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                (x >> 33) as u8
            })
            .collect();
        let c = compress(&data);
        assert!(c.len() <= data.len() + 8 * data.len().div_ceil(BLOCK));
        assert_eq!(decompress(&c).unwrap(), data);
    }
}
