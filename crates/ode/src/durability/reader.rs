//! [`SegmentReader`]: a read-only, LSN-addressed view of a WAL
//! directory — the scanning half of recovery, extracted so the
//! replication shipper can iterate committed records without owning
//! (or mutating) the log.
//!
//! One scan resolves the directory's newest checkpoint generation, its
//! decoded checkpoint payload, and every framed record after it, each
//! addressed by its log sequence number. The scan *classifies* damage
//! but never repairs it: a torn final frame is reported in
//! [`SegmentReader::torn`] for the caller ([`super::wal::DiskWal`]'s
//! recovery) to truncate, while interior damage — a bad frame with
//! data after it, a torn frame in a non-final segment, a missing
//! segment index — fails the scan with [`WalError::Corrupt`], because
//! a single crash cannot explain it.

use std::path::Path;

use super::frame;
use super::io::SharedIo;
use super::wal::WalError;

/// Name of the in-flight checkpoint temp file (ignored by scans,
/// swept by recovery).
pub(crate) const TMP_NAME: &str = "checkpoint.tmp";

pub(crate) fn segment_name(generation: u64, idx: u64) -> String {
    format!("segment-{generation:010}-{idx:05}.wal")
}

pub(crate) fn checkpoint_name(generation: u64, lsn: u64) -> String {
    format!("checkpoint-{generation:010}-{lsn:016}.snap")
}

pub(crate) fn parse_segment(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("segment-")?.strip_suffix(".wal")?;
    let (generation, idx) = rest.split_once('-')?;
    Some((generation.parse().ok()?, idx.parse().ok()?))
}

pub(crate) fn parse_checkpoint(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("checkpoint-")?.strip_suffix(".snap")?;
    let (generation, lsn) = rest.split_once('-')?;
    Some((generation.parse().ok()?, lsn.parse().ok()?))
}

/// A torn final frame found at the end of the last live segment. The
/// bytes from `offset` on are crash fallout; recovery truncates them,
/// read-only users simply stop before them.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TornTail {
    /// File name (within the scanned directory) of the torn segment.
    pub name: String,
    /// Byte offset of the torn frame's first header byte.
    pub offset: u64,
}

/// The name-level resolution of one WAL directory: which generation is
/// live, where its base LSN sits, and which files belong to it — no
/// file bodies read. Shared by the serial scan and the parallel
/// recovery pipeline in [`super::wal::DiskWal`].
pub(crate) struct DirIndex {
    /// The generation the index resolved (the newest one with a
    /// checkpoint; 0 when the directory has never checkpointed).
    pub generation: u64,
    /// LSN the live checkpoint covers (0 without one).
    pub base_lsn: u64,
    /// The live checkpoint's file name, if any.
    pub checkpoint: Option<String>,
    /// Live segment file names, a contiguous run from index 0.
    pub segments: Vec<String>,
    /// Debris: the checkpoint temp file and files of other generations.
    pub stale: Vec<String>,
}

/// Resolve `dir`'s live generation from file names alone. Fails with
/// [`WalError::Corrupt`] when the live generation's segment indexes are
/// not contiguous from 0.
pub(crate) fn index_dir(dir: &Path, io: &SharedIo) -> Result<DirIndex, WalError> {
    let names = io.with(|f| f.list(dir))?;

    // Newest generation with a checkpoint wins; its filename gives
    // the base LSN.
    let mut checkpoints: Vec<(u64, u64, String)> = names
        .iter()
        .filter_map(|n| parse_checkpoint(n).map(|(g, l)| (g, l, n.clone())))
        .collect();
    checkpoints.sort();
    let (generation, base_lsn) = match checkpoints.last() {
        Some(&(g, l, _)) => (g, l),
        None => (0, 0),
    };

    // This generation's segments must be a contiguous run of
    // indexes starting at 0.
    let mut segs: Vec<(u64, String)> = names
        .iter()
        .filter_map(|n| parse_segment(n))
        .filter(|&(g, _)| g == generation)
        .map(|(_, idx)| (idx, segment_name(generation, idx)))
        .collect();
    segs.sort();
    for (want, &(idx, _)) in segs.iter().enumerate() {
        if idx != want as u64 {
            return Err(WalError::Corrupt(format!(
                "generation {generation}: segment {want} missing (found index {idx})"
            )));
        }
    }

    let stale: Vec<String> = names
        .iter()
        .filter(|n| {
            let stale_seg = parse_segment(n).is_some_and(|(g, _)| g != generation);
            let stale_ckpt = parse_checkpoint(n).is_some_and(|(g, _)| g != generation);
            n.as_str() == TMP_NAME || stale_seg || stale_ckpt
        })
        .cloned()
        .collect();

    Ok(DirIndex {
        generation,
        base_lsn,
        checkpoint: checkpoints.last().map(|(_, _, n)| n.clone()),
        segments: segs.into_iter().map(|(_, n)| n).collect(),
        stale,
    })
}

/// Read and unwrap a checkpoint file: exactly one clean frame (it was
/// written to a tmp file, fsynced, and renamed — it can never be
/// legitimately torn).
pub(crate) fn read_checkpoint(dir: &Path, io: &SharedIo, name: &str) -> Result<Vec<u8>, WalError> {
    let bytes = io.with(|f| f.read(&dir.join(name)))?;
    let (payloads, tail) = frame::decode_all(&bytes)
        .map_err(|c| WalError::Corrupt(format!("checkpoint {name}: bad frame at {}", c.offset)))?;
    if tail != frame::Tail::Clean || payloads.len() != 1 {
        return Err(WalError::Corrupt(format!(
            "checkpoint {name}: expected exactly one clean frame"
        )));
    }
    Ok(payloads[0].to_vec())
}

/// A decoded, read-only scan of one WAL directory: the newest
/// checkpoint plus every record after it, addressed by LSN.
pub struct SegmentReader {
    /// The generation the scan resolved (the newest one with a
    /// checkpoint; 0 when the directory has never checkpointed).
    pub generation: u64,
    /// LSN the checkpoint covers: the LSN of the first record in
    /// [`SegmentReader::records`] (0 without a checkpoint).
    pub base_lsn: u64,
    /// The checkpoint's decoded payload (a snapshot JSON body), if
    /// this generation has one.
    pub checkpoint: Option<Vec<u8>>,
    /// Record payloads after the checkpoint, in LSN order; the record
    /// at index `i` has LSN `base_lsn + i`.
    pub records: Vec<Vec<u8>>,
    /// A torn final frame, if the last live segment ends in one.
    pub torn: Option<TornTail>,
    /// Live segment file names, in index order.
    pub segments: Vec<String>,
    /// Debris a scan skips and recovery sweeps: the checkpoint temp
    /// file and files of superseded generations.
    pub stale: Vec<String>,
}

impl SegmentReader {
    /// Scan `dir` through `io`. Tolerates a torn tail (reported, not
    /// repaired); fails with [`WalError::Corrupt`] on damage a single
    /// crash cannot explain.
    pub fn scan(dir: &Path, io: &SharedIo) -> Result<SegmentReader, WalError> {
        let index = index_dir(dir, io)?;
        let checkpoint = match &index.checkpoint {
            Some(name) => Some(read_checkpoint(dir, io, name)?),
            None => None,
        };

        let mut records = Vec::new();
        let mut torn = None;
        let last = index.segments.len().saturating_sub(1);
        for (i, name) in index.segments.iter().enumerate() {
            let bytes = io.with(|f| f.read(&dir.join(name)))?;
            let (payloads, tail) = frame::decode_all(&bytes).map_err(|c| {
                WalError::Corrupt(format!("segment {name}: bad frame at offset {}", c.offset))
            })?;
            if let frame::Tail::Torn { offset } = tail {
                // Only the final segment of the live generation may be
                // torn; a short interior segment lost sealed records —
                // including a frame whose declared length overruns the
                // segment it sits in.
                if i != last {
                    return Err(WalError::Corrupt(format!(
                        "segment {name}: torn frame at offset {offset} before the final segment"
                    )));
                }
                torn = Some(TornTail {
                    name: name.clone(),
                    offset,
                });
            }
            records.extend(payloads.into_iter().map(<[u8]>::to_vec));
        }

        Ok(SegmentReader {
            generation: index.generation,
            base_lsn: index.base_lsn,
            checkpoint,
            records,
            torn,
            segments: index.segments,
            stale: index.stale,
        })
    }

    /// One past the last record's LSN — the directory's head.
    pub fn head_lsn(&self) -> u64 {
        self.base_lsn + self.records.len() as u64
    }

    /// Iterate `(lsn, payload)` pairs from `from_lsn` (clamped to
    /// `base_lsn`) to the head, transparently across the segment
    /// rotation the scan already flattened.
    pub fn records_from(&self, from_lsn: u64) -> impl Iterator<Item = (u64, &[u8])> + '_ {
        let skip = from_lsn.saturating_sub(self.base_lsn) as usize;
        self.records
            .iter()
            .enumerate()
            .skip(skip)
            .map(|(i, p)| (self.base_lsn + i as u64, p.as_slice()))
    }
}
