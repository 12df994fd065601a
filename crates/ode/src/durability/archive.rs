//! Compressed WAL segment archives and point-in-time restore.
//!
//! A checkpoint supersedes the previous log generation and *retires*
//! its files to a queue; the retire drain
//! ([`super::wal::DiskWal::drain_retired`], on whatever thread its
//! caller picks — a server's background thread) is the one code path
//! that removes them, in both modes. Plain mode just unlinks each
//! retired segment, but that throws away the only replayable history of
//! the database. In archive mode the drain first compresses each
//! segment into `<wal-dir>/archive/`:
//!
//! ```text
//! archive/archive-0000000002-00003-0000000000000217.alz
//!         #        generation  seg     base LSN of the segment
//! ```
//!
//! An archive file is two [`frame`]-encoded records: a fixed binary
//! metadata payload, then the [`compress`]ed raw segment bytes. The
//! frame CRC covers the compressed payload; the metadata additionally
//! records the raw length, raw CRC32, and record count of the original
//! segment, so a decompression that "succeeds" on flipped bits still
//! cannot yield wrong bytes undetected.
//!
//! ## The never-unlink-before-durable invariant
//!
//! A retired segment is removed only after its archive has been
//! written to `archive/archive.tmp`, fsynced, renamed to its final
//! name, and the archive directory fsynced. A crash anywhere in that
//! sequence leaves the raw segment in place; re-opening the WAL
//! re-enqueues it and the (idempotent) archive write redoes the whole
//! sequence. Compression runs on the archiving thread with no WAL lock
//! held — never under the flusher or the engine lock.
//!
//! ## Point-in-time restore
//!
//! [`restore_to_lsn`] rebuilds a [`Recovery`] whose committed prefix is
//! byte-identical to what WAL recovery would have produced at `target`:
//! from the live checkpoint + segments when `target` is at or past the
//! live base LSN, or by replaying the archive chain from LSN 0 when it
//! is older. A gap in the chain (or a partially-written archive) fails
//! with [`ArchiveError::Truncated`] rather than silently serving a
//! shorter history.

use std::fmt;
use std::path::{Path, PathBuf};

use crate::oplog::LogOp;
use crate::persist::Snapshot;

use super::compress::{compress, decompress};
use super::frame;
use super::io::SharedIo;
use super::reader::{parse_checkpoint, parse_segment, SegmentReader, TMP_NAME};
use super::wal::{Recovery, RecoveryReport, WalError};

/// Subdirectory of a WAL directory holding the compressed archives.
pub const ARCHIVE_DIR: &str = "archive";

/// Name of the in-flight archive temp file.
pub(crate) const ARCHIVE_TMP: &str = "archive.tmp";

/// Magic prefix of an archive metadata payload.
const MAGIC: &[u8; 4] = b"OARC";

/// Archive-layer errors. `Truncated` is the typed "this archive (or
/// archive chain) is incomplete" verdict restore callers branch on.
#[derive(Clone, Debug)]
pub enum ArchiveError {
    /// An I/O operation failed.
    Io(String),
    /// An archive exists but its contents fail validation (bad magic,
    /// CRC mismatch, wrong decompressed length, bad frame interior).
    Corrupt(String),
    /// An archive file is partially written, or the archive chain does
    /// not cover the requested LSN range.
    Truncated(String),
}

impl fmt::Display for ArchiveError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArchiveError::Io(m) => write!(f, "archive io error: {m}"),
            ArchiveError::Corrupt(m) => write!(f, "archive corrupt: {m}"),
            ArchiveError::Truncated(m) => write!(f, "archive truncated: {m}"),
        }
    }
}

impl std::error::Error for ArchiveError {}

impl From<ArchiveError> for WalError {
    fn from(e: ArchiveError) -> Self {
        match e {
            ArchiveError::Io(m) => WalError::Io(m),
            ArchiveError::Corrupt(m) | ArchiveError::Truncated(m) => WalError::Corrupt(m),
        }
    }
}

impl From<WalError> for ArchiveError {
    fn from(e: WalError) -> Self {
        match e {
            WalError::Io(m) => ArchiveError::Io(m),
            other => ArchiveError::Corrupt(other.to_string()),
        }
    }
}

impl From<std::io::Error> for ArchiveError {
    fn from(e: std::io::Error) -> Self {
        ArchiveError::Io(e.to_string())
    }
}

/// What one archive file claims about the segment it preserves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ArchiveMeta {
    /// Generation of the archived segment.
    pub generation: u64,
    /// Segment index within its generation.
    pub seg_idx: u64,
    /// LSN of the segment's first record.
    pub base_lsn: u64,
    /// Framed records the segment holds.
    pub records: u64,
    /// Raw (uncompressed) segment size in bytes.
    pub raw_len: u64,
    /// CRC32 of the raw segment bytes.
    pub raw_crc: u32,
}

impl ArchiveMeta {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(4 + 5 * 8 + 4);
        out.extend_from_slice(MAGIC);
        for v in [
            self.generation,
            self.seg_idx,
            self.base_lsn,
            self.records,
            self.raw_len,
        ] {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.raw_crc.to_le_bytes());
        out
    }

    fn decode(bytes: &[u8]) -> Result<ArchiveMeta, ArchiveError> {
        if bytes.len() != 4 + 5 * 8 + 4 || &bytes[..4] != MAGIC {
            return Err(ArchiveError::Corrupt(
                "archive metadata: bad magic or length".to_string(),
            ));
        }
        let u = |i: usize| {
            let mut b = [0u8; 8];
            b.copy_from_slice(&bytes[4 + i * 8..4 + (i + 1) * 8]);
            u64::from_le_bytes(b)
        };
        let mut c = [0u8; 4];
        c.copy_from_slice(&bytes[44..48]);
        Ok(ArchiveMeta {
            generation: u(0),
            seg_idx: u(1),
            base_lsn: u(2),
            records: u(3),
            raw_len: u(4),
            raw_crc: u32::from_le_bytes(c),
        })
    }
}

/// One decoded archive: its metadata and the raw record payloads of
/// the segment it preserves, in LSN order from `meta.base_lsn`.
pub struct ArchiveSegment {
    /// The validated metadata.
    pub meta: ArchiveMeta,
    /// The segment's framed record payloads, decoded.
    pub records: Vec<Vec<u8>>,
}

pub(crate) fn archive_name(generation: u64, seg_idx: u64, base_lsn: u64) -> String {
    format!("archive-{generation:010}-{seg_idx:05}-{base_lsn:016}.alz")
}

/// Parse an archive file name into `(generation, seg_idx, base_lsn)`.
pub fn parse_archive(name: &str) -> Option<(u64, u64, u64)> {
    let rest = name.strip_prefix("archive-")?.strip_suffix(".alz")?;
    let mut parts = rest.splitn(3, '-');
    let generation = parts.next()?.parse().ok()?;
    let seg_idx = parts.next()?.parse().ok()?;
    let base_lsn = parts.next()?.parse().ok()?;
    Some((generation, seg_idx, base_lsn))
}

/// The archive subdirectory of a WAL directory.
pub fn archive_dir(wal_dir: &Path) -> PathBuf {
    wal_dir.join(ARCHIVE_DIR)
}

/// List archive files under `wal_dir`, sorted by `(generation,
/// seg_idx)`. A missing archive directory is an empty list.
pub fn list_archives(
    io: &SharedIo,
    wal_dir: &Path,
) -> Result<Vec<(u64, u64, u64, String)>, ArchiveError> {
    let dir = archive_dir(wal_dir);
    let names = match io.with(|f| f.list(&dir)) {
        Ok(names) => names,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut out: Vec<(u64, u64, u64, String)> = names
        .iter()
        .filter_map(|n| parse_archive(n).map(|(g, k, b)| (g, k, b, n.clone())))
        .collect();
    out.sort();
    Ok(out)
}

/// Decode and fully validate one archive file's bytes (the wire
/// bootstrap path hands these straight off a replication frame).
pub fn decode_archive_bytes(bytes: &[u8]) -> Result<ArchiveSegment, ArchiveError> {
    let (payloads, tail) = frame::decode_all(bytes).map_err(|c| {
        ArchiveError::Corrupt(format!(
            "archive frame at offset {}: {}",
            c.offset, c.reason
        ))
    })?;
    if tail != frame::Tail::Clean || payloads.len() != 2 {
        return Err(ArchiveError::Truncated(format!(
            "archive holds {} clean frame(s) of 2{}",
            payloads.len(),
            if tail == frame::Tail::Clean {
                ""
            } else {
                " and ends torn"
            }
        )));
    }
    let meta = ArchiveMeta::decode(payloads[0])?;
    let raw = decompress(payloads[1])
        .map_err(|e| ArchiveError::Corrupt(format!("archive payload: {e}")))?;
    if raw.len() as u64 != meta.raw_len || frame::crc32(&raw) != meta.raw_crc {
        return Err(ArchiveError::Corrupt(
            "archived segment does not match its recorded length/CRC".to_string(),
        ));
    }
    let (records, raw_tail) = frame::decode_all(&raw).map_err(|c| {
        ArchiveError::Corrupt(format!(
            "archived segment frame at {}: {}",
            c.offset, c.reason
        ))
    })?;
    if raw_tail != frame::Tail::Clean || records.len() as u64 != meta.records {
        return Err(ArchiveError::Corrupt(format!(
            "archived segment decodes to {} records, metadata says {}",
            records.len(),
            meta.records
        )));
    }
    Ok(ArchiveSegment {
        meta,
        records: records.into_iter().map(<[u8]>::to_vec).collect(),
    })
}

/// Read and validate one archive file.
pub fn read_archive(io: &SharedIo, path: &Path) -> Result<ArchiveSegment, ArchiveError> {
    let bytes = io.with(|f| f.read(path))?;
    decode_archive_bytes(&bytes)
}

/// Read only the metadata frame of an archive (cheap: no decompression).
pub fn read_archive_meta(io: &SharedIo, path: &Path) -> Result<ArchiveMeta, ArchiveError> {
    let bytes = io.with(|f| f.read(path))?;
    let (payloads, _) = frame::decode_all(&bytes).map_err(|c| {
        ArchiveError::Corrupt(format!(
            "archive frame at offset {}: {}",
            c.offset, c.reason
        ))
    })?;
    match payloads.first() {
        Some(p) => ArchiveMeta::decode(p),
        None => Err(ArchiveError::Truncated(
            "archive holds no metadata frame".to_string(),
        )),
    }
}

/// Raw bytes of one archive file (for shipping over the wire).
pub fn read_archive_bytes(
    io: &SharedIo,
    wal_dir: &Path,
    name: &str,
) -> Result<Vec<u8>, ArchiveError> {
    Ok(io.with(|f| f.read(&archive_dir(wal_dir).join(name)))?)
}

/// Durably write one segment's archive: tmp → fsync → rename → fsync
/// dir. Idempotent — a redo after a crash overwrites the previous
/// attempt. The caller unlinks the raw segment only after this
/// returns. Compression happens here, on the calling thread, with no
/// lock held.
fn write_archive(
    io: &SharedIo,
    wal_dir: &Path,
    meta: &ArchiveMeta,
    raw: &[u8],
) -> Result<u64, ArchiveError> {
    let dir = archive_dir(wal_dir);
    io.with(|f| f.create_dir_all(&dir))?;
    let compressed = compress(raw);
    let mut body = frame::encode(&meta.encode());
    body.extend_from_slice(&frame::encode(&compressed));
    let bytes = body.len() as u64;

    let tmp = dir.join(ARCHIVE_TMP);
    let names = io.with(|f| f.list(&dir))?;
    if names.iter().any(|n| n == ARCHIVE_TMP) {
        io.with(|f| f.remove(&tmp))?;
    }
    io.with(|f| f.append(&tmp, &body))?;
    io.with(|f| f.fsync(&tmp))?;
    let finalname = dir.join(archive_name(meta.generation, meta.seg_idx, meta.base_lsn));
    // `rename` must replace a half-validated earlier attempt; StdIo's
    // rename (std::fs) overwrites, but a leftover final name from a
    // crashed redo is removed first so the semantics hold for any io.
    if names.iter().any(|n| {
        parse_archive(n).is_some_and(|(g, k, _)| (g, k) == (meta.generation, meta.seg_idx))
    }) {
        for n in &names {
            if parse_archive(n).is_some_and(|(g, k, _)| (g, k) == (meta.generation, meta.seg_idx)) {
                io.with(|f| f.remove(&dir.join(n)))?;
            }
        }
    }
    io.with(|f| f.rename(&tmp, &finalname))?;
    io.with(|f| f.fsync_dir(&dir))?;
    Ok(bytes)
}

/// Progress counters from one drain of the retire queue.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Segments made archive-durable before their unlink (always 0 in
    /// plain mode).
    pub archived: u64,
    /// Total archive bytes written.
    pub bytes: u64,
    /// Retired files unlinked: segments, superseded checkpoints and the
    /// tmp file.
    pub removed: u64,
}

/// Unlink `path`; a file that is already gone counts as removed (a name
/// can be queued twice, and an earlier drain removed it).
fn unlink(io: &SharedIo, path: &Path) -> Result<(), WalError> {
    match io.with(|f| f.remove(path)) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e.into()),
        _ => Ok(()),
    }
}

/// Remove every retired file in `names`: segments oldest first, then
/// the superseded checkpoints and the tmp file. `archive` decides a
/// segment's fate — compress it, make the archive durable, then unlink
/// (archive mode), or just unlink (plain mode). Returns the drain
/// report plus the names *not* processed (so the caller can re-queue
/// them) and the error that stopped the drain, if any.
pub(crate) fn drain_retired(
    io: &SharedIo,
    wal_dir: &Path,
    names: Vec<String>,
    archive: bool,
) -> (DrainReport, Vec<String>, Option<WalError>) {
    let mut report = DrainReport::default();
    let mut segs: Vec<(u64, u64, String)> = Vec::new();
    let mut ckpts: Vec<(u64, u64, String)> = Vec::new();
    let mut tmps: Vec<String> = Vec::new();
    for n in names {
        if let Some((g, k)) = parse_segment(&n) {
            segs.push((g, k, n));
        } else if let Some((g, l)) = parse_checkpoint(&n) {
            ckpts.push((g, l, n));
        } else if n == TMP_NAME {
            tmps.push(n);
        }
        // Anything else was never retired; drop it.
    }
    segs.sort();
    ckpts.sort();

    // Base LSNs: generation g's segment 0 starts at gen-g's checkpoint
    // LSN (0 for generation 0), parsed from the checkpoint *filename* —
    // checkpoints are deleted only after all their segments archive, so
    // the name survives any crash that leaves a segment behind.
    let gen_base = |g: u64| -> Option<u64> {
        if g == 0 {
            return Some(0);
        }
        ckpts
            .iter()
            .find(|&&(cg, _, _)| cg == g)
            .map(|&(_, l, _)| l)
    };

    let mut err: Option<WalError> = None;
    // `(generation, next segment index, next base LSN)` carried across
    // consecutive segments of one generation within this drain.
    let mut chain: Option<(u64, u64, u64)> = None;
    let mut failed_at = segs.len();
    for (i, (g, k, name)) in segs.iter().enumerate() {
        let step = (|| -> Result<(), WalError> {
            let path = wal_dir.join(name);
            if !archive {
                return unlink(io, &path);
            }
            let raw = match io.with(|f| f.read(&path)) {
                // Queued twice (a checkpoint listed the directory while
                // an earlier drain was still at work): already archived
                // and unlinked.
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
                read => read?,
            };
            let base = match chain {
                Some((cg, ck, next)) if (cg, ck) == (*g, *k) => next,
                _ if *k == 0 => gen_base(*g).ok_or_else(|| {
                    WalError::Corrupt(format!(
                        "cannot archive {name}: no checkpoint names generation {g}'s base LSN"
                    ))
                })?,
                _ => {
                    // Resuming mid-generation: the predecessor was
                    // archived by an earlier drain; its metadata gives
                    // the chain position.
                    let prev =
                        archive_dir(wal_dir).join(pred_archive_name(io, wal_dir, *g, *k - 1)?);
                    let meta = read_archive_meta(io, &prev)?;
                    meta.base_lsn + meta.records
                }
            };
            let (payloads, tail) = frame::decode_all(&raw).map_err(|c| {
                WalError::Corrupt(format!("retired segment {name}: bad frame at {}", c.offset))
            })?;
            if tail != frame::Tail::Clean {
                return Err(WalError::Corrupt(format!(
                    "retired segment {name} ends torn; refusing to archive it"
                )));
            }
            let meta = ArchiveMeta {
                generation: *g,
                seg_idx: *k,
                base_lsn: base,
                records: payloads.len() as u64,
                raw_len: raw.len() as u64,
                raw_crc: frame::crc32(&raw),
            };
            let bytes = write_archive(io, wal_dir, &meta, &raw)?;
            report.archived += 1;
            report.bytes += bytes;
            chain = Some((*g, *k + 1, base + meta.records));
            // The invariant: the archive is fsync-durable; only now may
            // the raw segment go.
            unlink(io, &path)
        })();
        match step {
            Ok(()) => report.removed += 1,
            Err(e) => {
                err = Some(e);
                failed_at = i;
                break;
            }
        }
    }
    let mut remaining: Vec<String> = segs.into_iter().skip(failed_at).map(|s| s.2).collect();

    // Checkpoints and the tmp file go last — and only if every segment
    // made it, since their filenames carry the base-LSN chain.
    let mut rest = ckpts.into_iter().map(|c| c.2).chain(tmps);
    if err.is_none() {
        for name in rest.by_ref() {
            if let Err(e) = unlink(io, &wal_dir.join(&name)) {
                err = Some(e);
                remaining.push(name);
                break;
            }
            report.removed += 1;
        }
    }
    remaining.extend(rest);
    (report, remaining, err)
}

/// The archive file name of `(generation, seg_idx)`, found by listing
/// (its base LSN is part of the name and unknown to the caller).
fn pred_archive_name(
    io: &SharedIo,
    wal_dir: &Path,
    generation: u64,
    seg_idx: u64,
) -> Result<String, WalError> {
    for (g, k, _, name) in list_archives(io, wal_dir).map_err(WalError::from)? {
        if (g, k) == (generation, seg_idx) {
            return Ok(name);
        }
    }
    Err(WalError::Corrupt(format!(
        "archive chain broken: no archive for generation {generation} segment {seg_idx}"
    )))
}

/// Delete every archive file (fork healing: a reset abandons the
/// timeline the archives belong to). Best-effort.
pub(crate) fn purge_archives(io: &SharedIo, wal_dir: &Path) {
    let dir = archive_dir(wal_dir);
    if let Ok(names) = io.with(|f| f.list(&dir)) {
        for n in names {
            let _ = io.with(|f| f.remove(&dir.join(n)));
        }
    }
}

/// Rebuild the database state as of `target` (an LSN: the restored
/// prefix is exactly the records with LSN < `target`).
///
/// * `target >= live base LSN`: the live checkpoint plus live segment
///   records up to `target` — what WAL recovery would return, cut short.
/// * `target < live base LSN`: replay the archive chain from LSN 0
///   (no snapshot; the caller starts from a schema-bearing empty
///   database exactly like recovery of a never-checkpointed log).
///
/// Fails with [`ArchiveError::Truncated`] when `target` lies beyond
/// the live head or the archive chain has a gap below `target`.
pub fn restore_to_lsn(dir: &Path, io: &SharedIo, target: u64) -> Result<Recovery, ArchiveError> {
    let scan = SegmentReader::scan(dir, io).map_err(ArchiveError::from)?;
    if target > scan.head_lsn() {
        return Err(ArchiveError::Truncated(format!(
            "restore target {target} is beyond the live head {}",
            scan.head_lsn()
        )));
    }

    let parse_ops = |payloads: &[Vec<u8>]| -> Result<Vec<LogOp>, ArchiveError> {
        payloads
            .iter()
            .map(|p| {
                let line = std::str::from_utf8(p)
                    .map_err(|_| ArchiveError::Corrupt("restored record: not utf-8".to_string()))?;
                LogOp::from_json_line(line)
                    .map_err(|e| ArchiveError::Corrupt(format!("restored record: {e}")))
            })
            .collect()
    };

    if target >= scan.base_lsn {
        let snapshot = match &scan.checkpoint {
            Some(payload) => {
                let body = std::str::from_utf8(payload)
                    .map_err(|_| ArchiveError::Corrupt("checkpoint: not utf-8".to_string()))?;
                Some(
                    Snapshot::from_json(body)
                        .map_err(|e| ArchiveError::Corrupt(format!("checkpoint: {e}")))?,
                )
            }
            None => None,
        };
        let keep = (target - scan.base_lsn) as usize;
        let ops = parse_ops(&scan.records[..keep])?;
        return Ok(Recovery {
            snapshot,
            ops,
            base_lsn: scan.base_lsn,
            truncated_tail: false,
            segments: scan.segments.len(),
            report: RecoveryReport::default(),
        });
    }

    // Older than the live base: the archives must chain contiguously
    // from LSN 0 up to (at least) the target.
    let archives = list_archives(io, dir)?;
    let mut ops: Vec<LogOp> = Vec::new();
    let mut next_lsn = 0u64;
    let mut segments = 0usize;
    for (_, _, base, name) in &archives {
        if next_lsn >= target {
            break;
        }
        if *base != next_lsn {
            return Err(ArchiveError::Truncated(format!(
                "archive chain gap: {name} starts at LSN {base}, expected {next_lsn}"
            )));
        }
        let seg = read_archive(io, &archive_dir(dir).join(name))?;
        let mut payloads = seg.records;
        let have = payloads.len() as u64;
        if next_lsn + have > target {
            payloads.truncate((target - next_lsn) as usize);
        }
        ops.extend(parse_ops(&payloads)?);
        next_lsn += have;
        segments += 1;
    }
    if next_lsn < target {
        return Err(ArchiveError::Truncated(format!(
            "archive chain ends at LSN {next_lsn}, short of restore target {target}"
        )));
    }
    Ok(Recovery {
        snapshot: None,
        ops,
        base_lsn: 0,
        truncated_tail: false,
        segments,
        report: RecoveryReport::default(),
    })
}
