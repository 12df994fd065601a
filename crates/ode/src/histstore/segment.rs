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
//!
//! ## The column-first scan
//!
//! A segment that survives zone pruning is read by `scan`, the one
//! decoder of the body; [`decode_segment`] is its select-all case.
//!
//! 1. Both frames are verified exactly as the WAL verifies records
//!    (CRC, clean tail) and the body's row count must equal the zone
//!    metadata's. The CRC covers every byte, including the args of
//!    rows the query never parses: it — not the JSON parser — is the
//!    corruption check.
//! 2. The fixed columns are walked in step, one cursor per column, and
//!    the plan's class, object, kind, qualifier, seq and time conjuncts
//!    select rows on them. No column is copied out: a scan's memory is
//!    the file buffer (kept per thread for the next segment) plus the
//!    rows it selects, so it evicts little of what the commits and
//!    firings sharing its cores keep in cache.
//! 3. The `args` and `extra` columns are walked by their length
//!    prefixes; only selected rows' args are JSON-parsed and tested
//!    against the argument predicates.
//! 4. An [`EventRow`] is built only for a row that passes, and the scan
//!    stops parsing once the query's limit is known to be exceeded.

use std::cell::RefCell;
use std::fs;
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use super::query::Plan;
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
/// disk, read per query by the column-first `scan` — zone pruning
/// skips the file, the column predicates skip the rows.
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
    /// Open a sealed segment file: both frames verified, the body's row
    /// count checked against the header, only the header parsed.
    pub fn open(path: &Path) -> Result<Segment, HistError> {
        let bytes = fs::read(path)?;
        let (header, body) = frames(&bytes)?;
        let meta = parse_header(header)?;
        row_count(body, meta.rows, &mut 0)?;
        Ok(Segment {
            meta,
            path: path.to_path_buf(),
            bytes: bytes.len() as u64,
        })
    }

    /// Does the segment hold a row at or past `lsn`? A store whose log
    /// ends (or was cut) at `lsn` must not keep it.
    pub fn reaches(&self, lsn: u64) -> bool {
        self.meta.rows > 0 && self.meta.max_lsn >= lsn
    }

    /// Read the file and `scan` it for `plan`, appending matches to
    /// `out`; `true` = a match past the plan's limit exists. The file is
    /// read into a buffer the calling thread keeps for its next segment,
    /// so a query touches the same memory for each one.
    pub(crate) fn scan(&self, plan: &Plan, out: &mut Vec<EventRow>) -> Result<bool, HistError> {
        thread_local! {
            static BUF: RefCell<Vec<u8>> = const { RefCell::new(Vec::new()) };
        }
        BUF.with(|buf| {
            let mut bytes = buf.borrow_mut();
            bytes.clear();
            fs::File::open(&self.path)?.read_to_end(&mut bytes)?;
            scan(&bytes, self.meta.rows, plan, out)
        })
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

/// The `len` bytes at `pos`, advancing past them.
fn take<'a>(
    bytes: &'a [u8],
    pos: &mut usize,
    len: usize,
    what: &str,
) -> Result<&'a [u8], HistError> {
    let end = pos
        .checked_add(len)
        .filter(|e| *e <= bytes.len())
        .ok_or_else(|| HistError::Corrupt(format!("truncated {what} column")))?;
    let out = &bytes[*pos..end];
    *pos = end;
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

/// The two CRC-verified frames of a segment file: header and body.
fn frames(bytes: &[u8]) -> Result<(&[u8], &[u8]), HistError> {
    let (frames, tail) = frame::decode_all(bytes)
        .map_err(|c| HistError::Corrupt(format!("segment frame at {}: {}", c.offset, c.reason)))?;
    match frames[..] {
        [header, body] if tail == frame::Tail::Clean => Ok((header, body)),
        _ => Err(HistError::Corrupt("segment is torn or misframed".into())),
    }
}

fn parse_header(header: &[u8]) -> Result<ZoneMeta, HistError> {
    let header = std::str::from_utf8(header)
        .map_err(|_| HistError::Corrupt("segment header not utf-8".into()))?;
    serde_json::from_str(header).map_err(|e| HistError::Corrupt(format!("segment header: {e}")))
}

/// Read the body's leading row count and check it against `rows`.
fn row_count(body: &[u8], rows: u64, pos: &mut usize) -> Result<usize, HistError> {
    if get_varint(body, pos)? != rows {
        return Err(HistError::Corrupt("row count mismatch".into()));
    }
    Ok(rows as usize)
}

/// Scan segment file `bytes` column-first (see the module docs): verify
/// both frames and the body's row count against `rows` (the in-memory
/// zone metadata's), then `scan_body`.
pub(crate) fn scan(
    bytes: &[u8],
    rows: u64,
    plan: &Plan,
    out: &mut Vec<EventRow>,
) -> Result<bool, HistError> {
    let (_, body) = frames(bytes)?;
    scan_body(body, rows, plan, out)
}

/// The one body decoder: select on the fixed columns, parse only
/// selected rows' args, and append the rows that pass `plan` to `out`
/// until it holds `plan.limit` rows. Returns `true` when a further
/// passing row exists (the result is truncated).
fn scan_body(
    body: &[u8],
    rows: u64,
    plan: &Plan,
    out: &mut Vec<EventRow>,
) -> Result<bool, HistError> {
    let mut pos = 0usize;
    let n = row_count(body, rows, &mut pos)?;
    // The seven varint columns (seq, lsn, time, txn, object deltas; class
    // and kind codes) are walked in step, one cursor each, so no column
    // is copied out: a first pass over each finds where the next begins.
    let mut cursors = [0usize; 7];
    for cursor in &mut cursors {
        *cursor = pos;
        for _ in 0..n {
            get_varint(body, &mut pos)?;
        }
    }
    let qual = take(body, &mut pos, n, "qual")?;
    // Selected rows with their row index; args and extra come later.
    let mut selected: Vec<(usize, EventRow)> = Vec::new();
    let mut deltas = [0u64; 5];
    for (i, &qual) in qual.iter().enumerate() {
        for (value, cursor) in deltas.iter_mut().zip(&mut cursors) {
            *value = value.wrapping_add(unzigzag(get_varint(body, cursor)?) as u64);
        }
        let [seq, lsn, time, txn, object] = deltas;
        let class = get_varint(body, &mut cursors[5])? as u32;
        let kind = get_varint(body, &mut cursors[6])? as u32;
        if plan.keeps(class, object, kind, qual, seq, time) {
            let row = EventRow {
                seq,
                lsn,
                time,
                txn,
                object,
                class,
                qual,
                kind,
                args: Vec::new(),
                extra: None,
            };
            selected.push((i, row));
        }
    }

    // Rows still wanted, plus one to learn whether the limit cuts.
    let room = plan.limit.saturating_sub(out.len());
    let mut passed: Vec<(usize, EventRow)> = Vec::new();
    let mut next = selected.into_iter().peekable();
    for i in 0..n {
        let len = get_varint(body, &mut pos)? as usize;
        let json = take(body, &mut pos, len, "args")?;
        let Some((_, mut row)) = next.next_if(|(p, _)| *p == i) else {
            continue;
        };
        if passed.len() > room {
            continue;
        }
        if len > 0 {
            let json = std::str::from_utf8(json)
                .map_err(|_| HistError::Corrupt("args not utf-8".into()))?;
            row.args = serde_json::from_str(json)
                .map_err(|e| HistError::Corrupt(format!("args json: {e}")))?;
        }
        if plan.args_hold(&row.args) {
            passed.push((i, row));
        }
    }
    let truncated = passed.len() > room;
    passed.truncate(room);

    let mut next = passed.into_iter().peekable();
    for i in 0..n {
        let len = get_varint(body, &mut pos)? as usize;
        let bytes = take(body, &mut pos, len.saturating_sub(1), "extra")?;
        let Some((_, mut row)) = next.next_if(|(p, _)| *p == i) else {
            continue;
        };
        row.extra = match len {
            0 => None,
            _ => Some(
                std::str::from_utf8(bytes)
                    .map_err(|_| HistError::Corrupt("extra not utf-8".into()))?
                    .to_string(),
            ),
        };
        out.push(row);
    }
    Ok(truncated)
}

/// Decode a segment file in full: header + every row. The select-all
/// case of the same body decoder `scan` runs.
pub fn decode_segment(bytes: &[u8]) -> Result<(ZoneMeta, Vec<EventRow>), HistError> {
    let (header, body) = frames(bytes)?;
    let meta = parse_header(header)?;
    let mut rows = Vec::new();
    scan_body(body, meta.rows, &Plan::all(), &mut rows)?;
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
    use super::super::query::{compile, ArgPred, CmpOp, HistQuery};
    use super::super::row::KindDict;
    use super::*;
    use ode_core::Value;

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

    /// Plans over `sample_rows()`: every conjunct alone and in pairs,
    /// args both parsed and skipped, and limits that cut mid-segment.
    fn plan_grid() -> Vec<HistQuery> {
        let classes = [None, Some("A"), Some("C"), Some("nosuch")];
        let kinds = [None, Some("deposit"), Some("update"), Some("time")];
        let args: [Vec<(usize, CmpOp, Value)>; 4] = [
            vec![],
            vec![(0, CmpOp::Ge, Value::Int(40))],
            vec![(0, CmpOp::Eq, Value::Float(48.0))],
            vec![(1, CmpOp::Eq, Value::Str("x".into()))],
        ];
        let bands = [None, Some((30, 70))];
        let limits = [None, Some(0), Some(1), Some(3), Some(20)];
        let mut out = Vec::new();
        for class in classes {
            for kind in kinds {
                for (a, args) in args.iter().enumerate() {
                    for band in bands {
                        for limit in limits {
                            out.push(HistQuery {
                                class: class.map(str::to_string),
                                kind: kind.map(str::to_string),
                                object: (a == 1).then_some(4),
                                qualifier: (a == 3).then_some(ode_core::Qualifier::After),
                                args: args
                                    .iter()
                                    .map(|(index, op, value)| ArgPred {
                                        index: *index,
                                        op: *op,
                                        value: value.clone(),
                                    })
                                    .collect(),
                                min_seq: band.map(|b| b.0),
                                max_seq: band.map(|b| b.1),
                                min_time: band.map(|_| 1100),
                                max_time: None,
                                limit,
                            });
                        }
                    }
                }
            }
        }
        out
    }

    #[test]
    fn selective_scan_equals_full_decode_plus_filter() {
        let rows = sample_rows();
        let classes: Vec<String> = ["A", "B", "C"].map(String::from).to_vec();
        let dict = KindDict::from_methods(vec!["deposit".into()]);
        let meta = zone_meta(&rows, 40, dict.methods().to_vec(), classes.clone());
        let bytes = encode_segment(&rows, &meta);
        let (_, all) = decode_segment(&bytes).unwrap();
        assert_eq!(all, rows);
        let (mut cut, mut extra_kept, mut extra_skipped) = (0, 0, 0);
        for q in plan_grid() {
            let plan = compile(&q, &classes, &dict);
            let matching: Vec<&EventRow> = all.iter().filter(|r| plan.matches(r)).collect();
            if matching.iter().any(|r| r.extra.is_some()) {
                extra_kept += 1;
            } else if !matching.is_empty() {
                extra_skipped += 1;
            }
            // A store scan appends to rows earlier segments returned.
            for earlier in [0usize, 2] {
                let mut out = rows[..earlier].to_vec();
                let truncated = scan(&bytes, meta.rows, &plan, &mut out).unwrap();
                let room = plan.limit.saturating_sub(earlier);
                let want: Vec<EventRow> = rows[..earlier]
                    .iter()
                    .chain(matching.iter().copied().take(room))
                    .cloned()
                    .collect();
                assert_eq!(out, want, "{q:?} after {earlier}");
                assert_eq!(truncated, matching.len() > room, "{q:?} after {earlier}");
                cut += usize::from(truncated && room > 0);
            }
        }
        // The grid reaches every case it is meant to.
        assert!(cut > 0 && extra_kept > 0 && extra_skipped > 0);
    }

    #[test]
    fn a_flipped_byte_anywhere_is_corrupt_for_every_plan() {
        let rows = sample_rows();
        let classes: Vec<String> = ["A", "B", "C"].map(String::from).to_vec();
        let dict = KindDict::from_methods(vec!["deposit".into()]);
        let meta = zone_meta(&rows, 40, dict.methods().to_vec(), classes.clone());
        let clean = encode_segment(&rows, &meta);
        let plans = [
            HistQuery::default(),
            HistQuery {
                kind: Some("deposit".into()),
                limit: Some(1),
                ..HistQuery::default()
            },
            // Selects no row: the fixed columns refute every one.
            HistQuery {
                min_seq: Some(10_000),
                ..HistQuery::default()
            },
            // Impossible: an unknown class.
            HistQuery {
                class: Some("nosuch".into()),
                ..HistQuery::default()
            },
        ]
        .map(|q| compile(&q, &classes, &dict));
        for at in 0..clean.len() {
            let mut bytes = clean.clone();
            bytes[at] ^= 0x20;
            for plan in &plans {
                assert!(
                    matches!(
                        scan(&bytes, meta.rows, plan, &mut Vec::new()),
                        Err(HistError::Corrupt(_))
                    ),
                    "flip at {at} went unnoticed by {plan:?}"
                );
            }
        }
        // The row count is checked against the caller's zone metadata.
        assert!(matches!(
            scan(&clean, meta.rows + 1, &plans[0], &mut Vec::new()),
            Err(HistError::Corrupt(_))
        ));
    }

    #[test]
    fn file_names_round_trip() {
        assert_eq!(segment_file_name(7), "seg-000007.hist");
        assert_eq!(parse_segment_file_name("seg-000007.hist"), Some(7));
        assert_eq!(parse_segment_file_name("seg-x.hist"), None);
    }
}
