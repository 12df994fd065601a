//! Columnar segment files with zone metadata.
//!
//! A segment is one immutable file holding a run of rows in store
//! order, laid out as two CRC32 frames (the WAL's framing,
//! [`crate::durability::frame`]):
//!
//! ```text
//! frame 0: JSON ZoneMeta   — rows, min/max seq|time|lsn|object,
//!                            class/kind bitmaps, dictionaries
//! frame 1: column body     — each column contiguous:
//!            seq, lsn, time, txn, object   zigzag-delta varints
//!            class, kind                   varints
//!            qual                          raw bytes
//!            args                          varint len + JSON (0 = no args)
//!            extra                         varint len+1 + bytes (0 = none)
//! ```
//!
//! The header frame is everything a query planner needs: a segment
//! whose zones exclude the query's class, kind, seq/time range or
//! object is skipped without reading the body. Files are written
//! tmp → fsync → rename → fsync-dir, the same atomic-publish dance the
//! checkpointer uses.

use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

use ode_core::Value;

use super::row::EventRow;
use super::store::HistError;
use crate::durability::frame;

/// Per-segment zone metadata; doubles as the on-disk header.
#[derive(Clone, Debug, serde::Serialize, serde::Deserialize)]
pub struct ZoneMeta {
    /// Rows in the segment.
    pub rows: u64,
    /// Minimum posting seq.
    pub min_seq: u64,
    /// Maximum posting seq.
    pub max_seq: u64,
    /// Minimum commit-time virtual clock.
    pub min_time: u64,
    /// Maximum commit-time virtual clock.
    pub max_time: u64,
    /// Minimum commit LSN.
    pub min_lsn: u64,
    /// Maximum commit LSN.
    pub max_lsn: u64,
    /// Minimum object id.
    pub min_object: u64,
    /// Maximum object id.
    pub max_object: u64,
    /// One past the last commit LSN folded into hist state when this
    /// segment sealed — the store's rebuild cursor.
    pub covered_lsn: u64,
    /// Bitmap over class codes present in the segment.
    pub class_bits: Vec<u64>,
    /// Bitmap over kind codes present in the segment.
    pub kind_bits: Vec<u64>,
    /// Full method dictionary as of seal (code order from
    /// [`super::row::FIRST_METHOD_KIND`]) — opening the store adopts
    /// the last sealed segment's copy.
    pub methods: Vec<String>,
    /// Class-name table snapshot (code order), for self-description.
    pub classes: Vec<String>,
}

/// Set bit `i` in a growable bitset.
pub fn bit_set(bits: &mut Vec<u64>, i: u32) {
    let w = (i / 64) as usize;
    if bits.len() <= w {
        bits.resize(w + 1, 0);
    }
    bits[w] |= 1 << (i % 64);
}

/// Test bit `i`.
pub fn bit_get(bits: &[u64], i: u32) -> bool {
    bits.get((i / 64) as usize)
        .is_some_and(|w| w & (1 << (i % 64)) != 0)
}

/// One sealed, immutable segment: zone metadata in memory, columns on
/// disk (decoded per query — zone skipping is what makes this cheap).
#[derive(Debug)]
pub struct Segment {
    /// Zone metadata / header.
    pub meta: ZoneMeta,
    /// The segment file.
    pub path: PathBuf,
    /// On-disk size in bytes.
    pub bytes: u64,
}

impl Segment {
    /// Does the segment hold a row at or past `lsn`? A store whose log
    /// ends (or was cut) at `lsn` must not keep it.
    pub fn reaches(&self, lsn: u64) -> bool {
        self.meta.rows > 0 && self.meta.max_lsn >= lsn
    }

    /// Read and decode the full column body.
    pub fn rows(&self) -> Result<Vec<EventRow>, HistError> {
        let bytes = fs::read(&self.path)?;
        let (_, rows) = decode_segment(&bytes)?;
        Ok(rows)
    }
}

fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

fn get_varint(bytes: &[u8], pos: &mut usize) -> Result<u64, HistError> {
    let mut v = 0u64;
    let mut shift = 0u32;
    loop {
        let b = *bytes
            .get(*pos)
            .ok_or_else(|| HistError::Corrupt("truncated varint".into()))?;
        *pos += 1;
        if shift >= 64 {
            return Err(HistError::Corrupt("varint overflow".into()));
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Ok(v);
        }
        shift += 7;
    }
}

fn zigzag(d: i64) -> u64 {
    ((d << 1) ^ (d >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

fn put_delta_column(out: &mut Vec<u8>, values: impl Iterator<Item = u64>) {
    let mut prev = 0u64;
    for v in values {
        put_varint(out, zigzag(v.wrapping_sub(prev) as i64));
        prev = v;
    }
}

fn get_delta_column(bytes: &[u8], pos: &mut usize, n: usize) -> Result<Vec<u64>, HistError> {
    let mut prev = 0u64;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        prev = prev.wrapping_add(unzigzag(get_varint(bytes, pos)?) as u64);
        out.push(prev);
    }
    Ok(out)
}

/// Compute zone metadata for a row run.
pub fn zone_meta(
    rows: &[EventRow],
    covered_lsn: u64,
    methods: Vec<String>,
    classes: Vec<String>,
) -> ZoneMeta {
    let mut m = ZoneMeta {
        rows: rows.len() as u64,
        min_seq: u64::MAX,
        max_seq: 0,
        min_time: u64::MAX,
        max_time: 0,
        min_lsn: u64::MAX,
        max_lsn: 0,
        min_object: u64::MAX,
        max_object: 0,
        covered_lsn,
        class_bits: Vec::new(),
        kind_bits: Vec::new(),
        methods,
        classes,
    };
    for r in rows {
        m.min_seq = m.min_seq.min(r.seq);
        m.max_seq = m.max_seq.max(r.seq);
        m.min_time = m.min_time.min(r.time);
        m.max_time = m.max_time.max(r.time);
        m.min_lsn = m.min_lsn.min(r.lsn);
        m.max_lsn = m.max_lsn.max(r.lsn);
        m.min_object = m.min_object.min(r.object);
        m.max_object = m.max_object.max(r.object);
        bit_set(&mut m.class_bits, r.class);
        bit_set(&mut m.kind_bits, r.kind);
    }
    m
}

/// Encode `rows` + `meta` as segment file bytes.
pub fn encode_segment(rows: &[EventRow], meta: &ZoneMeta) -> Vec<u8> {
    let header = serde_json::to_string(meta)
        .expect("ZoneMeta serializes")
        .into_bytes();
    let mut body = Vec::new();
    put_varint(&mut body, rows.len() as u64);
    put_delta_column(&mut body, rows.iter().map(|r| r.seq));
    put_delta_column(&mut body, rows.iter().map(|r| r.lsn));
    put_delta_column(&mut body, rows.iter().map(|r| r.time));
    put_delta_column(&mut body, rows.iter().map(|r| r.txn));
    put_delta_column(&mut body, rows.iter().map(|r| r.object));
    for r in rows {
        put_varint(&mut body, u64::from(r.class));
    }
    for r in rows {
        put_varint(&mut body, u64::from(r.kind));
    }
    for r in rows {
        body.push(r.qual);
    }
    for r in rows {
        if r.args.is_empty() {
            put_varint(&mut body, 0);
        } else {
            let json = serde_json::to_string(&r.args).expect("Values serialize");
            put_varint(&mut body, json.len() as u64);
            body.extend_from_slice(json.as_bytes());
        }
    }
    for r in rows {
        match &r.extra {
            None => put_varint(&mut body, 0),
            Some(s) => {
                put_varint(&mut body, s.len() as u64 + 1);
                body.extend_from_slice(s.as_bytes());
            }
        }
    }
    let mut out = frame::encode(&header);
    out.extend_from_slice(&frame::encode(&body));
    out
}

/// Decode a segment file: header + rows.
pub fn decode_segment(bytes: &[u8]) -> Result<(ZoneMeta, Vec<EventRow>), HistError> {
    let (frames, tail) = frame::decode_all(bytes)
        .map_err(|c| HistError::Corrupt(format!("segment frame at {}: {}", c.offset, c.reason)))?;
    if tail != frame::Tail::Clean || frames.len() != 2 {
        return Err(HistError::Corrupt("segment is torn or misframed".into()));
    }
    let header = std::str::from_utf8(&frames[0])
        .map_err(|_| HistError::Corrupt("segment header not utf-8".into()))?;
    let meta: ZoneMeta = serde_json::from_str(header)
        .map_err(|e| HistError::Corrupt(format!("segment header: {e}")))?;
    let body = &frames[1];
    let mut pos = 0usize;
    let n = get_varint(body, &mut pos)? as usize;
    if n as u64 != meta.rows {
        return Err(HistError::Corrupt("row count mismatch".into()));
    }
    let seq = get_delta_column(body, &mut pos, n)?;
    let lsn = get_delta_column(body, &mut pos, n)?;
    let time = get_delta_column(body, &mut pos, n)?;
    let txn = get_delta_column(body, &mut pos, n)?;
    let object = get_delta_column(body, &mut pos, n)?;
    let mut class = Vec::with_capacity(n);
    for _ in 0..n {
        class.push(get_varint(body, &mut pos)? as u32);
    }
    let mut kind = Vec::with_capacity(n);
    for _ in 0..n {
        kind.push(get_varint(body, &mut pos)? as u32);
    }
    if pos + n > body.len() {
        return Err(HistError::Corrupt("truncated qual column".into()));
    }
    let qual = body[pos..pos + n].to_vec();
    pos += n;
    let mut args: Vec<Vec<Value>> = Vec::with_capacity(n);
    for _ in 0..n {
        let len = get_varint(body, &mut pos)? as usize;
        if len == 0 {
            args.push(Vec::new());
        } else {
            let end = pos
                .checked_add(len)
                .filter(|e| *e <= body.len())
                .ok_or_else(|| HistError::Corrupt("truncated args column".into()))?;
            let json = std::str::from_utf8(&body[pos..end])
                .map_err(|_| HistError::Corrupt("args not utf-8".into()))?;
            let v: Vec<Value> = serde_json::from_str(json)
                .map_err(|e| HistError::Corrupt(format!("args json: {e}")))?;
            args.push(v);
            pos = end;
        }
    }
    let mut extra: Vec<Option<String>> = Vec::with_capacity(n);
    for _ in 0..n {
        let len = get_varint(body, &mut pos)? as usize;
        if len == 0 {
            extra.push(None);
        } else {
            let len = len - 1;
            let end = pos
                .checked_add(len)
                .filter(|e| *e <= body.len())
                .ok_or_else(|| HistError::Corrupt("truncated extra column".into()))?;
            let s = std::str::from_utf8(&body[pos..end])
                .map_err(|_| HistError::Corrupt("extra not utf-8".into()))?;
            extra.push(Some(s.to_string()));
            pos = end;
        }
    }
    let mut rows = Vec::with_capacity(n);
    for i in 0..n {
        rows.push(EventRow {
            seq: seq[i],
            lsn: lsn[i],
            time: time[i],
            txn: txn[i],
            object: object[i],
            class: class[i],
            qual: qual[i],
            kind: kind[i],
            args: std::mem::take(&mut args[i]),
            extra: extra[i].take(),
        });
    }
    Ok((meta, rows))
}

/// Segment file name for index `i`.
pub fn segment_file_name(i: u64) -> String {
    format!("seg-{i:06}.hist")
}

/// Parse a segment file name back to its index.
pub fn parse_segment_file_name(name: &str) -> Option<u64> {
    let rest = name.strip_prefix("seg-")?.strip_suffix(".hist")?;
    rest.parse().ok()
}

/// Write a sealed segment atomically: tmp → fsync → rename → fsync-dir.
pub fn write_segment(
    dir: &Path,
    index: u64,
    rows: &[EventRow],
    meta: &ZoneMeta,
) -> Result<Segment, HistError> {
    let bytes = encode_segment(rows, meta);
    let name = segment_file_name(index);
    let tmp = dir.join(format!("{name}.tmp"));
    let path = dir.join(&name);
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(&bytes)?;
        f.sync_all()?;
    }
    fs::rename(&tmp, &path)?;
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(Segment {
        meta: meta.clone(),
        path,
        bytes: bytes.len() as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_rows() -> Vec<EventRow> {
        (0..100u64)
            .map(|i| EventRow {
                seq: 10 + i,
                lsn: 5 + i / 3,
                time: 1000 + i * 7,
                txn: i % 4,
                object: i % 9,
                class: (i % 3) as u32,
                qual: (i % 2) as u8,
                kind: if i % 5 == 0 { 16 } else { 3 },
                args: if i % 4 == 0 {
                    vec![Value::Int(i as i64), Value::Str("x".into())]
                } else {
                    Vec::new()
                },
                extra: if i == 42 {
                    Some("{\"At\":{}}".into())
                } else {
                    None
                },
            })
            .collect()
    }

    #[test]
    fn encode_decode_round_trip() {
        let rows = sample_rows();
        let meta = zone_meta(&rows, 40, vec!["deposit".into()], vec!["Acct".into()]);
        let bytes = encode_segment(&rows, &meta);
        let (m2, r2) = decode_segment(&bytes).unwrap();
        assert_eq!(r2, rows);
        assert_eq!(m2.rows, 100);
        assert_eq!(m2.covered_lsn, 40);
        assert!(bit_get(&m2.kind_bits, 16));
        assert!(bit_get(&m2.kind_bits, 3));
        assert!(!bit_get(&m2.kind_bits, 4));
        assert!(bit_get(&m2.class_bits, 2));
    }

    #[test]
    fn corrupt_body_is_detected() {
        let rows = sample_rows();
        let meta = zone_meta(&rows, 40, Vec::new(), Vec::new());
        let mut bytes = encode_segment(&rows, &meta);
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xff;
        assert!(decode_segment(&bytes).is_err());
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(7), "seg-000007.hist");
        assert_eq!(parse_segment_file_name("seg-000007.hist"), Some(7));
        assert_eq!(parse_segment_file_name("seg-x.hist"), None);
    }
}
