//! The on-disk write-ahead log: segmented, checksummed, checkpointed,
//! with one self-clocking flush pipeline.
//!
//! ## Layout
//!
//! A WAL directory holds, at any moment, files of one *generation* `G`
//! (plus possibly stale leftovers from a crash mid-checkpoint):
//!
//! ```text
//! checkpoint-0000000003-0000000000000217.snap   # gen 3, taken at LSN 217
//! segment-0000000003-00000.wal                  # ops 217.. of gen 3
//! segment-0000000003-00001.wal                  # rotated continuation
//! ```
//!
//! Segment files are streams of [`frame`]-encoded `LogOp` JSON lines; a
//! checkpoint file is a single frame wrapping a [`Snapshot`] JSON body.
//! The LSN (log sequence number) counts ops since the directory was
//! born; a checkpoint's filename records the LSN it covers, so recovery
//! knows the base without reading deleted generations.
//!
//! ## Two-phase append: buffer, then flush
//!
//! Every record takes the same two steps, so the fsync never runs under
//! the lock that orders the log:
//!
//! 1. **buffer + assign LSN** — [`DiskWal::append`] frames the record,
//!    stamps it with the next LSN and pushes it onto the in-memory
//!    pending queue. This step does no I/O; callers holding an engine
//!    lock pay only a queue push. The caller's lock still orders the
//!    LSN assignment, so the log stays deterministic.
//! 2. **flush** — one flush cycle steals *everything* pending, writes
//!    it with one coalesced append per segment, fsyncs at most once,
//!    and advances the published **durable watermark**. One fsync
//!    releases every committer waiting at or below the watermark.
//!
//! A flush becomes *due* when a **durability point** is queued. Which
//! records are durability points is the whole of [`FsyncPolicy`]: under
//! the default `OnCommit` they are the transaction-ending records
//! (commit, abort) and the records outside any transaction
//! (`AdvanceClock`, `EpochBump`). Mid-transaction records (`Begin`,
//! `Call`, `Prepare`, ...) only queue: recovery discards them without
//! their commit, so they ride in their transaction's own flush — one
//! write and one fsync per transaction.
//!
//! The due flush runs on the flusher thread when one is attached
//! ([`DiskWal::start_flusher`]), otherwise on the thread that queued
//! the durability point. The flusher is *self-clocking*: it sleeps
//! until a flush is due, flushes at once when idle, and whatever is
//! appended while its fsync is in flight becomes the next batch.
//! Batches therefore grow with load and shrink to one transaction at
//! idle; the device sets the batch size, not a knob.
//!
//! ## The durable watermark and the ack rule
//!
//! [`DiskWal::durable_lsn`] publishes one past the highest LSN a
//! completed flush covers: a record below the watermark is safe to
//! acknowledge and to ship (under [`FsyncPolicy::Never`], safe to that
//! policy's documented standard). Commit paths buffer under their own
//! lock, release it, then block on [`DiskWal::wait_durable`] — acking
//! only after the flush, with its cost shared by every transaction in
//! the batch. A waiter whose record is still queued with no durability
//! point behind it asks for the flush itself, so no LSN can be waited
//! on forever.
//!
//! ## Lock order
//!
//! Internally the WAL splits into three locks, always taken in this
//! order: `buf` (pending queue + LSN assignment) → `disk` (segment
//! files, rotation, checkpoint installation) → `durable` (the
//! watermark). Flushes steal the pending batch under `buf` + `disk`,
//! release `buf`, and do the I/O under `disk` alone — so appends
//! proceed while the fsync runs. [`DiskWal::frozen`] takes `buf` +
//! `disk` together, giving callers (the replication handshake) a moment
//! when no append, flush, or checkpoint is in flight.
//!
//! ## Checkpointing without a window of no-return
//!
//! `checkpoint()` first flushes (and ships) any pending records — the
//! replication stream must never skip an LSN — then writes the snapshot
//! to `checkpoint.tmp`, fsyncs, renames it to its final
//! generation-stamped name, fsyncs the directory, and only then
//! *retires* the previous generation's files to a queue. A crash
//! anywhere in that sequence leaves either (a) the old generation fully
//! intact (tmp is ignored by recovery) or (b) the new checkpoint
//! durable plus stale older files that recovery skips and re-retires.
//!
//! ## Retirement: one drain, two fates
//!
//! The retire queue is drained by [`DiskWal::drain_retired`] and
//! nothing else: segments oldest first, then the superseded checkpoints
//! and the tmp file; names it could not process go back to the front
//! of the queue. [`WalConfig::archive`] decides only a segment's fate —
//! compress it, make the archive durable, then unlink, or just unlink.
//! A checkpoint only queues; its caller picks when and where the drain
//! runs (the server: on its idle-priority background thread). So a
//! failed drain can never fail a checkpoint: the names stay queued and
//! the next drain retries.
//!
//! ## Recovery
//!
//! [`DiskWal::open`] *is* recovery: it finds the newest readable
//! checkpoint, decodes that generation's segments in order, applies the
//! torn-tail rule (truncate a damaged final frame, hard-error on
//! interior corruption), and returns a [`Recovery`] the caller feeds
//! into a schema-bearing [`Database`]. Opening an empty directory is
//! simply a recovery of nothing. Records that were buffered but never
//! flushed do not survive a crash — which is exactly why the ack rule
//! above waits for the watermark.

use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::sync_channel;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use crate::engine::Database;
use crate::error::OdeError;
use crate::oplog::LogOp;
use crate::persist::Snapshot;
use crate::replication::Applier;

use super::archive::{self, DrainReport};
use super::frame;
use super::io::SharedIo;
use super::reader::{
    checkpoint_name, index_dir, parse_checkpoint, parse_segment, read_checkpoint, segment_name,
    TMP_NAME,
};

/// Which appended records are *durability points* — records whose
/// arrival makes a flush due (see the module docs). Three points on one
/// axis; how many transactions share a flush is not a policy, it
/// follows the load.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// Every record is a durability point. Maximum durability, minimum
    /// speed.
    Always,
    /// Transaction-ending records (commit, abort) and records outside
    /// any transaction (`AdvanceClock`, `EpochBump`) are durability
    /// points: one write and one fsync per transaction. The default.
    OnCommit,
    /// The `OnCommit` schedule, but the flush skips its `fsync` call
    /// (rotation seals and checkpoints still sync). An OS crash can
    /// lose the unsynced suffix; a process crash cannot lose a
    /// committed transaction.
    Never,
}

impl FsyncPolicy {
    /// Does queueing `op` make a flush due?
    fn is_durability_point(self, op: &LogOp) -> bool {
        self == FsyncPolicy::Always
            || op.ends_txn()
            || matches!(op, LogOp::AdvanceClock { .. } | LogOp::EpochBump { .. })
    }

    /// Parse a `--fsync` operand: `always`, `commit` or `never`.
    pub fn parse(s: &str) -> Result<FsyncPolicy, String> {
        match s {
            "always" => Ok(FsyncPolicy::Always),
            "commit" => Ok(FsyncPolicy::OnCommit),
            "never" => Ok(FsyncPolicy::Never),
            _ => Err(format!(
                "fsync policy {s:?}: expected always|commit|never (batching is automatic; \
                 `group`, `group:BATCH:DELAYMS` and every-N were retired)"
            )),
        }
    }
}

/// Tuning knobs for a [`DiskWal`].
#[derive(Clone, Copy, Debug)]
pub struct WalConfig {
    /// Rotate to a new segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// Fsync policy for appends.
    pub fsync: FsyncPolicy,
    /// What the retire drain ([`DiskWal::drain_retired`]) does with
    /// each superseded segment: compress it under `archive/`, make the
    /// archive durable, then unlink it (`true`), or just unlink it.
    pub archive: bool,
}

impl Default for WalConfig {
    fn default() -> Self {
        Self {
            segment_bytes: 4 * 1024 * 1024,
            fsync: FsyncPolicy::OnCommit,
            archive: false,
        }
    }
}

/// Durability-layer errors.
#[derive(Debug)]
pub enum WalError {
    /// An I/O operation failed.
    Io(String),
    /// The log is damaged in a way a crash cannot explain.
    Corrupt(String),
    /// A previous failure latched the WAL read-only; the message names
    /// the original error.
    Poisoned(String),
    /// Snapshot/log (de)serialization or replay failed.
    Logical(OdeError),
    /// A checkpoint's serialized snapshot exceeds what one frame can
    /// hold. Refused before the log is touched: nothing was written
    /// and the WAL is not poisoned.
    SnapshotTooLarge {
        /// Serialized snapshot length.
        bytes: u64,
        /// The frame payload limit ([`frame::MAX_FRAME`]).
        max: u64,
    },
}

impl fmt::Display for WalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WalError::Io(m) => write!(f, "wal io error: {m}"),
            WalError::Corrupt(m) => write!(f, "wal corrupt: {m}"),
            WalError::Poisoned(m) => write!(f, "wal poisoned: {m}"),
            WalError::Logical(e) => write!(f, "wal logical error: {e}"),
            WalError::SnapshotTooLarge { bytes, max } => write!(
                f,
                "snapshot is {bytes} bytes serialized; a checkpoint frame holds at most {max}"
            ),
        }
    }
}

impl std::error::Error for WalError {}

impl From<std::io::Error> for WalError {
    fn from(e: std::io::Error) -> Self {
        WalError::Io(e.to_string())
    }
}

impl From<OdeError> for WalError {
    fn from(e: OdeError) -> Self {
        WalError::Logical(e)
    }
}

/// A checkpoint body must fit one frame; [`frame::encode`] asserts it.
fn check_snapshot_len(bytes: usize) -> Result<(), WalError> {
    if bytes > frame::MAX_FRAME as usize {
        return Err(WalError::SnapshotTooLarge {
            bytes: bytes as u64,
            max: frame::MAX_FRAME as u64,
        });
    }
    Ok(())
}

/// Serialize `snap` as one checkpoint frame, or refuse it as too large
/// — before any WAL lock is taken, so a refusal leaves the log exactly
/// as it was.
fn frame_snapshot(snap: &Snapshot) -> Result<Vec<u8>, WalError> {
    let body = snap.to_json()?;
    check_snapshot_len(body.len())?;
    Ok(frame::encode(body.as_bytes()))
}

/// If `name` is a segment or checkpoint file of a generation before
/// `generation`: whether it is a segment.
fn superseded(name: &str, generation: u64) -> Option<bool> {
    let old = |parsed: Option<(u64, u64)>| parsed.is_some_and(|(g, _)| g < generation);
    if old(parse_segment(name)) {
        Some(true)
    } else {
        old(parse_checkpoint(name)).then_some(false)
    }
}

/// Per-segment decode cost observed by recovery.
#[derive(Clone, Debug, Default)]
pub struct SegmentTiming {
    /// Segment file name.
    pub name: String,
    /// Records the segment decoded to.
    pub records: usize,
    /// Raw segment size in bytes.
    pub bytes: u64,
    /// Microseconds spent frame-decoding + JSON-parsing the segment.
    pub decode_us: u64,
}

/// How recovery spent its time (see `WireStats` on the server for the
/// aggregated view).
#[derive(Clone, Debug, Default)]
pub struct RecoveryReport {
    /// Wall-clock microseconds for the whole scan + decode + assemble.
    pub total_us: u64,
    /// Worker threads the segment decode ran on.
    pub threads: usize,
    /// Per-segment decode timings, in segment order.
    pub segments: Vec<SegmentTiming>,
}

/// What [`DiskWal::open`] reconstructed from disk.
pub struct Recovery {
    /// The checkpoint image, if any generation had one.
    pub snapshot: Option<Snapshot>,
    /// Ops logged after the checkpoint, in order.
    pub ops: Vec<LogOp>,
    /// LSN the snapshot covers (0 without a checkpoint). The recovered
    /// database's total op count is `base_lsn + ops.len()`.
    pub base_lsn: u64,
    /// Whether a torn final frame was truncated away.
    pub truncated_tail: bool,
    /// How many live segment files were replayed.
    pub segments: usize,
    /// Where recovery spent its time.
    pub report: RecoveryReport,
}

impl Recovery {
    /// True when the directory held no durable state at all.
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.ops.is_empty()
    }

    /// Apply this recovery to a database that already has the schema
    /// defined and an empty store: restore the snapshot (if any), then
    /// replay the tail. The database's emit output afterwards holds the
    /// firings regenerated by the tail replay (snapshots do not carry
    /// output); callers who only want post-recovery firings should drain
    /// it with `take_output`.
    pub fn restore_into(&self, db: &mut Database) -> Result<(), WalError> {
        Applier::bootstrap(db, self, |_, _| {}).map_err(OdeError::from)?;
        Ok(())
    }
}

/// One record made durable by a flush, as handed to the durable sink.
pub struct DurableRecord {
    /// The record's log sequence number.
    pub lsn: u64,
    /// The CRC-framed record bytes exactly as written to the segment.
    pub frame: Vec<u8>,
    /// Whether the record commits or aborts a transaction.
    pub ends_txn: bool,
}

/// Observer invoked (on the flushing thread, with the WAL's disk lock
/// held) after records become safe to ship — i.e. once the durable
/// watermark covers them. A replication shipper hangs off this: because
/// it only ever sees records at or below the watermark, a primary crash
/// can never have shipped a record that recovery then loses. The sink
/// must only enqueue; it must never call back into the WAL.
pub type DurableSink = Arc<dyn Fn(&[DurableRecord]) + Send + Sync>;

/// Counters describing the WAL's flush behavior (see `Stats` on the
/// server's wire protocol).
#[derive(Clone, Copy, Debug, Default)]
pub struct WalStats {
    /// Total fsyncs issued (flushes, segment seals, and checkpoint
    /// installation).
    pub fsyncs_total: u64,
    /// Flush cycles that wrote a batch.
    pub group_commit_batches: u64,
    /// The most txn-ending records (commits/aborts) ever made durable
    /// by a single flush cycle — >1 proves commits shared an fsync.
    pub group_commit_max_batch: u64,
    /// One past the highest LSN covered by the durable watermark.
    pub durable_lsn: u64,
}

/// What a checkpoint did, for operator-facing reporting.
#[derive(Clone, Copy, Debug)]
pub struct CheckpointReport {
    /// The LSN the checkpoint covers.
    pub lsn: u64,
    /// Superseded segment files the checkpoint queued for retirement;
    /// the retire drain unlinks them, after archiving each one in
    /// archive mode. ([`DiskWal::reset_to`] deletes them inline.)
    pub swept_segments: u64,
}

/// Lifetime retirement progress of one WAL (see `WireStats`).
#[derive(Clone, Copy, Debug, Default)]
pub struct ArchiveStats {
    /// Segments made archive-durable (and unlinked) so far; 0 in
    /// plain mode.
    pub segments_archived: u64,
    /// Total compressed archive bytes written.
    pub bytes_archived: u64,
    /// Retired segments not yet unlinked, in either mode: retire-queue
    /// depth plus any segment mid-drain right now.
    pub lag_segments: u64,
}

/// A framed record buffered between the assign-LSN step and its flush.
struct PendingRec {
    lsn: u64,
    frame: Vec<u8>,
    ends_txn: bool,
}

/// Pending queue + LSN assignment. Guarded by the first lock in the
/// order; held only for queue pushes and batch steals, never across
/// the I/O of a flush.
struct BufState {
    next_lsn: u64,
    pending: Vec<PendingRec>,
    /// A flush is due: a durability point is queued, or a
    /// `wait_durable` caller asked for a queued record.
    due: bool,
    stop: bool,
}

impl BufState {
    /// Take everything pending — the next flush's batch.
    fn steal(&mut self) -> Vec<PendingRec> {
        self.due = false;
        std::mem::take(&mut self.pending)
    }
}

/// Segment-file state. Guarded by the second lock; held across the
/// write + fsync of a flush, so flushes, checkpoints, and the
/// replication handshake serialize without blocking appends.
struct DiskState {
    generation: u64,
    seg_idx: u64,
    seg_bytes: u64,
    since_sync: u64,
}

/// The published watermark. Guarded by the last lock, paired with the
/// condvar that releases durability waiters.
struct DurableState {
    durable_lsn: u64,
    poison: Option<String>,
}

struct WalInner {
    io: SharedIo,
    dir: PathBuf,
    cfg: WalConfig,
    buf: Mutex<BufState>,
    /// Wakes the flusher thread; paired with `buf`.
    flush_cv: Condvar,
    disk: Mutex<DiskState>,
    durable: Mutex<DurableState>,
    /// Releases `wait_durable` callers; paired with `durable`.
    durable_cv: Condvar,
    on_durable: Mutex<Option<DurableSink>>,
    poisoned: AtomicBool,
    flusher_running: AtomicBool,
    fsyncs_total: AtomicU64,
    batches: AtomicU64,
    max_batch: AtomicU64,
    /// Files a checkpoint superseded, awaiting [`DiskWal::drain_retired`].
    /// Outside the buf/disk lock order: pushed under it at checkpoint
    /// time, drained with no WAL lock held.
    retired: Mutex<Vec<String>>,
    archived_segments: AtomicU64,
    archived_bytes: AtomicU64,
    /// Segments taken off the queue and being drained right now.
    draining: AtomicU64,
}

/// Non-poisoning lock helper (a panicked holder just releases).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|p| p.into_inner())
}

/// An open, append-ready on-disk WAL. Cheap to clone — clones share the
/// same directory, queue, and watermark. See the module docs for the
/// two-phase pipeline and crash-safety arguments.
#[derive(Clone)]
pub struct DiskWal {
    inner: Arc<WalInner>,
}

impl DiskWal {
    /// Open (and recover) a WAL directory, decoding segments on a
    /// worker pool sized like the reactor's
    /// ([`DiskWal::default_recovery_threads`]). Always succeeds on an
    /// empty or cleanly-shut-down directory; tolerates a torn tail;
    /// fails with [`WalError::Corrupt`] on interior damage.
    pub fn open(dir: &Path, cfg: WalConfig, io: SharedIo) -> Result<(DiskWal, Recovery), WalError> {
        Self::open_with_threads(dir, cfg, io, Self::default_recovery_threads())
    }

    /// The recovery pool's default width: one worker per core, capped
    /// at 8 — the same sizing idiom as the reactor's worker pool.
    pub fn default_recovery_threads() -> usize {
        std::thread::available_parallelism()
            .map_or(1, |n| n.get())
            .min(8)
    }

    /// [`DiskWal::open`] with an explicit decode-pool width (1 =
    /// serial, the pre-parallel behavior). Segment bodies are read in
    /// segment order; frame decoding and record parsing fan out to
    /// `threads` workers, and the decoded batches are applied in LSN
    /// order through a bounded channel.
    pub fn open_with_threads(
        dir: &Path,
        cfg: WalConfig,
        io: SharedIo,
        threads: usize,
    ) -> Result<(DiskWal, Recovery), WalError> {
        let t0 = Instant::now();
        io.with(|f| f.create_dir_all(dir))?;
        let index = index_dir(dir, &io)?;

        let snapshot = match &index.checkpoint {
            Some(name) => {
                let payload = read_checkpoint(dir, &io, name)?;
                let body = std::str::from_utf8(&payload)
                    .map_err(|_| WalError::Corrupt("checkpoint: not utf-8".to_string()))?;
                Some(Snapshot::from_json(body)?)
            }
            None => None,
        };

        let threads = threads.max(1).min(index.segments.len().max(1));
        let (ops, timings, torn) = decode_segments(dir, &io, &index.segments, threads)?;

        // Recovery repairs what the decode only classified: truncate
        // the torn tail so the damaged bytes never resurface.
        let truncated_tail = match &torn {
            Some((name, offset)) => {
                io.with(|f| f.truncate(&dir.join(name), *offset))?;
                true
            }
            None => false,
        };

        // Debris, which recovery already ignores by name. Superseded
        // segments and checkpoints are *retired* — a crash between a
        // checkpoint and its drain must not lose them — so the next
        // drain removes them exactly as it would have. Only the tmp
        // file and unexplainable future-generation files are deleted
        // here, best-effort.
        let mut retired: Vec<String> = Vec::new();
        for n in &index.stale {
            if superseded(n, index.generation).is_some() {
                retired.push(n.clone());
            } else {
                let _ = io.with(|f| f.remove(&dir.join(n)));
            }
        }

        let recovery = Recovery {
            snapshot,
            base_lsn: index.base_lsn,
            truncated_tail,
            segments: index.segments.len(),
            ops,
            report: RecoveryReport {
                total_us: t0.elapsed().as_micros() as u64,
                threads,
                segments: timings,
            },
        };
        let scan = index;
        let head = recovery.base_lsn + recovery.ops.len() as u64;
        // New appends go to a fresh segment so a truncated tail is
        // never appended into. Everything recovered is on disk, so the
        // watermark starts at the head.
        let wal = DiskWal {
            inner: Arc::new(WalInner {
                io,
                dir: dir.to_path_buf(),
                cfg,
                buf: Mutex::new(BufState {
                    next_lsn: head,
                    pending: Vec::new(),
                    due: false,
                    stop: false,
                }),
                flush_cv: Condvar::new(),
                disk: Mutex::new(DiskState {
                    generation: scan.generation,
                    seg_idx: scan.segments.len() as u64,
                    seg_bytes: 0,
                    since_sync: 0,
                }),
                durable: Mutex::new(DurableState {
                    durable_lsn: head,
                    poison: None,
                }),
                durable_cv: Condvar::new(),
                on_durable: Mutex::new(None),
                poisoned: AtomicBool::new(false),
                flusher_running: AtomicBool::new(false),
                fsyncs_total: AtomicU64::new(0),
                batches: AtomicU64::new(0),
                max_batch: AtomicU64::new(0),
                retired: Mutex::new(retired),
                archived_segments: AtomicU64::new(0),
                archived_bytes: AtomicU64::new(0),
                draining: AtomicU64::new(0),
            }),
        };
        Ok((wal, recovery))
    }

    /// Next LSN to be assigned (== total ops this directory has seen).
    pub fn lsn(&self) -> u64 {
        lock(&self.inner.buf).next_lsn
    }

    /// One past the highest LSN a completed flush covers. Records below
    /// this are safe to acknowledge and to ship to replicas.
    pub fn durable_lsn(&self) -> u64 {
        lock(&self.inner.durable).durable_lsn
    }

    /// Current checkpoint generation.
    pub fn generation(&self) -> u64 {
        lock(&self.inner.disk).generation
    }

    /// Flush-behavior counters plus the current watermark.
    pub fn stats(&self) -> WalStats {
        WalStats {
            fsyncs_total: self.inner.fsyncs_total.load(Ordering::Relaxed),
            group_commit_batches: self.inner.batches.load(Ordering::Relaxed),
            group_commit_max_batch: self.inner.max_batch.load(Ordering::Relaxed),
            durable_lsn: self.durable_lsn(),
        }
    }

    /// If a write or fsync has failed, the original error message. A
    /// poisoned WAL refuses further mutation; the database should be
    /// treated as read-only until re-opened.
    pub fn poisoned(&self) -> Option<String> {
        if !self.inner.poisoned.load(Ordering::SeqCst) {
            return None;
        }
        lock(&self.inner.durable).poison.clone()
    }

    /// Install (or clear) the durable sink (see [`DurableSink`]).
    pub fn set_durable_sink(&self, sink: Option<DurableSink>) {
        *lock(&self.inner.on_durable) = sink;
    }

    /// Run `f` while no append, flush, or checkpoint is in flight,
    /// passing the durable watermark. The replication handshake uses
    /// this to scan the log and register its subscriber without a gap
    /// or duplicate against the live shipping path.
    pub fn frozen<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let _buf = lock(&self.inner.buf);
        self.with_durable_head(f)
    }

    /// Run `f` while no flush, checkpoint or log reset is in flight —
    /// the durable sink cannot run and the log cannot be replaced —
    /// passing the durable watermark. Unlike [`DiskWal::frozen`],
    /// appends proceed: a reader that only needs a stable durable head
    /// must not hold writers up behind an in-flight fsync.
    pub fn with_durable_head<R>(&self, f: impl FnOnce(u64) -> R) -> R {
        let _disk = lock(&self.inner.disk);
        let head = lock(&self.inner.durable).durable_lsn;
        f(head)
    }

    fn check_poison(&self) -> Result<(), WalError> {
        match self.poisoned() {
            Some(m) => Err(WalError::Poisoned(m)),
            None => Ok(()),
        }
    }

    /// Latch the failure and wake everyone who could be waiting on
    /// progress that will never come.
    fn poison<T>(&self, e: WalError) -> Result<T, WalError> {
        {
            let mut d = lock(&self.inner.durable);
            if d.poison.is_none() {
                d.poison = Some(e.to_string());
            }
        }
        self.inner.poisoned.store(true, Ordering::SeqCst);
        self.inner.durable_cv.notify_all();
        self.inner.flush_cv.notify_all();
        Err(e)
    }

    /// Append one op and return its assigned LSN: frame it, stamp the
    /// next LSN, push it on the pending queue. No I/O happens here;
    /// durability arrives when a flush covers the record — ack only
    /// after [`DiskWal::wait_durable`]. A durability point (see
    /// [`FsyncPolicy`]) makes a flush due: the flusher is woken, or —
    /// with none attached — this thread runs the flush before
    /// returning, and its failure is this append's failure. Any I/O
    /// failure poisons the WAL: a record may be torn on disk, so no
    /// further appends are allowed (recovery will truncate it).
    pub fn append(&self, op: &LogOp) -> Result<u64, WalError> {
        self.check_poison()?;
        let line = op.to_json_line()?;
        let frame = frame::encode(line.as_bytes());
        let ends_txn = op.ends_txn();
        let point = self.inner.cfg.fsync.is_durability_point(op);

        let i = &*self.inner;
        let lsn = {
            let mut buf = lock(&i.buf);
            let lsn = buf.next_lsn;
            buf.next_lsn += 1;
            buf.pending.push(PendingRec {
                lsn,
                frame,
                ends_txn,
            });
            buf.due |= point;
            lsn
        };
        if point {
            if i.flusher_running.load(Ordering::SeqCst) {
                i.flush_cv.notify_all();
            } else {
                self.flush_once(false)?;
            }
        }
        Ok(lsn)
    }

    /// Write a batch of framed records: segment rotation with
    /// seal-syncs, one coalesced append per segment run, and optionally
    /// one final fsync (of whatever this or earlier batches left
    /// unsynced).
    fn write_batch(
        &self,
        disk: &mut DiskState,
        batch: &[PendingRec],
        final_fsync: bool,
    ) -> Result<(), WalError> {
        let i = &*self.inner;
        let mut run: Vec<u8> = Vec::new();
        for rec in batch {
            let projected = disk.seg_bytes + run.len() as u64 + rec.frame.len() as u64;
            if projected > i.cfg.segment_bytes && (disk.seg_bytes > 0 || !run.is_empty()) {
                // Seal the full segment: write the run, sync it, then
                // start the next.
                if !run.is_empty() {
                    let path = self.seg_path(disk);
                    i.io.with(|f| f.append(&path, &run))?;
                    disk.seg_bytes += run.len() as u64;
                    run.clear();
                }
                if i.cfg.fsync != FsyncPolicy::Never {
                    let path = self.seg_path(disk);
                    i.io.with(|f| f.fsync(&path))?;
                    i.fsyncs_total.fetch_add(1, Ordering::Relaxed);
                }
                disk.seg_idx += 1;
                disk.seg_bytes = 0;
                disk.since_sync = 0;
            }
            run.extend_from_slice(&rec.frame);
            disk.since_sync += 1;
        }
        if !run.is_empty() {
            let path = self.seg_path(disk);
            i.io.with(|f| f.append(&path, &run))?;
            disk.seg_bytes += run.len() as u64;
        }
        if final_fsync && disk.since_sync > 0 {
            let path = self.seg_path(disk);
            i.io.with(|f| f.fsync(&path))?;
            i.fsyncs_total.fetch_add(1, Ordering::Relaxed);
            disk.since_sync = 0;
        }
        Ok(())
    }

    /// Advance the watermark to `upto`, release durability waiters, and
    /// hand the newly-covered records to the durable sink. Runs with
    /// the disk lock held so shipping stays serialized against the
    /// replication handshake.
    fn publish(&self, _disk: &mut DiskState, upto: u64, batch: Vec<PendingRec>) {
        let i = &*self.inner;
        {
            let mut d = lock(&i.durable);
            if upto > d.durable_lsn {
                d.durable_lsn = upto;
            }
        }
        i.durable_cv.notify_all();
        if batch.is_empty() {
            return;
        }
        let sink = lock(&i.on_durable).clone();
        if let Some(sink) = sink {
            let records: Vec<DurableRecord> = batch
                .into_iter()
                .map(|r| DurableRecord {
                    lsn: r.lsn,
                    frame: r.frame,
                    ends_txn: r.ends_txn,
                })
                .collect();
            sink(&records);
        }
    }

    /// The flush proper, under the disk lock: one coalesced write of
    /// `batch`, at most one fsync (skipped under [`FsyncPolicy::Never`]
    /// unless `force_fsync`), then publish. The only code that writes
    /// segment bytes and the only place the policy's fsync rule lives.
    fn flush_batch(
        &self,
        disk: &mut DiskState,
        batch: Vec<PendingRec>,
        force_fsync: bool,
    ) -> Result<(), WalError> {
        let i = &*self.inner;
        let fsync = force_fsync || i.cfg.fsync != FsyncPolicy::Never;
        if let Err(e) = self.write_batch(disk, &batch, fsync) {
            return self.poison(e);
        }
        let Some(last) = batch.last() else {
            return Ok(());
        };
        let upto = last.lsn + 1;
        let ends = batch.iter().filter(|r| r.ends_txn).count() as u64;
        i.batches.fetch_add(1, Ordering::Relaxed);
        i.max_batch.fetch_max(ends, Ordering::Relaxed);
        self.publish(disk, upto, batch);
        Ok(())
    }

    /// One flush cycle: steal everything pending (under `buf` +
    /// `disk`), release `buf` so appends proceed during the I/O, then
    /// [`flush_batch`](Self::flush_batch) under `disk` alone.
    fn flush_once(&self, force_fsync: bool) -> Result<(), WalError> {
        self.check_poison()?;
        let i = &*self.inner;
        let mut buf = lock(&i.buf);
        let mut disk = lock(&i.disk);
        let batch = buf.steal();
        drop(buf);
        self.flush_batch(&mut disk, batch, force_fsync)
    }

    /// Block until the record at `lsn` is durable (the watermark passes
    /// it). With a flusher attached this waits to be released by a
    /// flush — asking for one first if the record is still queued with
    /// no durability point behind it; without one, the caller flushes
    /// the pending queue itself. Errors if the WAL poisons before the
    /// record is covered: the caller must not ack.
    pub fn wait_durable(&self, lsn: u64) -> Result<(), WalError> {
        let i = &*self.inner;
        if lsn >= self.lsn() {
            return Err(WalError::Io(format!(
                "wait_durable({lsn}) is beyond the head"
            )));
        }
        let mut asked = false;
        loop {
            {
                let mut d = lock(&i.durable);
                loop {
                    if let Some(m) = &d.poison {
                        return Err(WalError::Poisoned(m.clone()));
                    }
                    if d.durable_lsn > lsn {
                        return Ok(());
                    }
                    if !asked || !i.flusher_running.load(Ordering::SeqCst) {
                        break;
                    }
                    // The timeout is only a lost-wakeup backstop (the
                    // flusher going away mid-wait).
                    let (g, _) = i
                        .durable_cv
                        .wait_timeout(d, Duration::from_millis(250))
                        .unwrap_or_else(|p| p.into_inner());
                    d = g;
                }
            }
            if i.flusher_running.load(Ordering::SeqCst) {
                let mut buf = lock(&i.buf);
                if !buf.due && buf.pending.first().is_some_and(|r| r.lsn <= lsn) {
                    buf.due = true;
                    i.flush_cv.notify_all();
                }
                asked = true;
            } else {
                self.flush_once(false)?;
            }
        }
    }

    /// Force everything appended so far to stable storage regardless of
    /// policy: drain the pending queue and fsync.
    pub fn sync(&self) -> Result<(), WalError> {
        self.flush_once(true)
    }

    /// Spawn the dedicated flusher thread: from here on due flushes run
    /// on it instead of on the appending thread. Dropping (or
    /// `stop`ping) the handle drains the queue and joins the thread.
    pub fn start_flusher(&self) -> WalFlusher {
        lock(&self.inner.buf).stop = false;
        self.inner.flusher_running.store(true, Ordering::SeqCst);
        let wal = self.clone();
        let handle = std::thread::Builder::new()
            .name("wal-flusher".to_string())
            .spawn(move || run_flusher(wal))
            .expect("spawn wal flusher");
        WalFlusher {
            wal: self.clone(),
            handle: Some(handle),
        }
    }

    fn seg_path(&self, disk: &DiskState) -> PathBuf {
        self.inner
            .dir
            .join(segment_name(disk.generation, disk.seg_idx))
    }

    /// Durably install `snap` (typically `db.snapshot()` taken under
    /// the same lock that orders appends) as the new recovery base and
    /// retire the log generation it supersedes: its files go on the
    /// retire queue and stay on disk until the caller runs
    /// [`DiskWal::drain_retired`].
    pub fn checkpoint(&self, snap: &Snapshot) -> Result<CheckpointReport, WalError> {
        self.checkpoint_inner(snap, None)
    }

    /// Like [`DiskWal::checkpoint`], but stamp the checkpoint with an
    /// explicit LSN and adopt it as this log's position. A replica
    /// bootstrapping from a shipped snapshot uses this to jump its
    /// local log to the primary's LSN so subsequent appends line up.
    pub fn checkpoint_at(&self, snap: &Snapshot, lsn: u64) -> Result<CheckpointReport, WalError> {
        self.checkpoint_inner(snap, Some(lsn))
    }

    fn checkpoint_inner(
        &self,
        snap: &Snapshot,
        at: Option<u64>,
    ) -> Result<CheckpointReport, WalError> {
        self.check_poison()?;
        let i = &*self.inner;
        let framed = frame_snapshot(snap)?;

        // Hold `buf` for the whole installation: no append may
        // interleave with the generation switch.
        let mut buf = lock(&i.buf);
        let mut disk = lock(&i.disk);

        // First make the buffered tail durable — and shipped — so the
        // replication stream never skips an LSN the snapshot covers.
        let batch = buf.steal();
        self.flush_batch(&mut disk, batch, true)?;

        let lsn = at.unwrap_or(buf.next_lsn);
        let names = self.install_snapshot(&mut buf, &mut disk, &framed, lsn)?;

        // The new checkpoint supersedes everything older, but nothing
        // is unlinked under the WAL locks: superseded names go on the
        // retire queue for the drain.
        let mut swept = 0u64;
        {
            let mut q = lock(&i.retired);
            for n in names {
                if let Some(is_segment) = superseded(&n, disk.generation) {
                    if !q.contains(&n) {
                        swept += u64::from(is_segment);
                        q.push(n);
                    }
                }
            }
        }

        // The checkpoint itself is a durability point: everything at or
        // below its LSN is covered by the durable snapshot.
        self.publish(&mut disk, lsn, Vec::new());
        Ok(CheckpointReport {
            lsn,
            swept_segments: swept,
        })
    }

    /// Make `framed` the durable recovery base at `lsn` — write tmp →
    /// fsync → rename → fsync dir, so the checkpoint is either fully
    /// durable under its final name or invisible — then switch the log
    /// to the generation it opens. The caller holds `buf` + `disk` and
    /// has already dealt with the pending queue. Returns the directory
    /// listing taken before the install, for the caller to retire or
    /// delete what the new generation supersedes.
    fn install_snapshot(
        &self,
        buf: &mut BufState,
        disk: &mut DiskState,
        framed: &[u8],
        lsn: u64,
    ) -> Result<Vec<String>, WalError> {
        let i = &*self.inner;
        let tmp = i.dir.join(TMP_NAME);
        let finalname = i.dir.join(checkpoint_name(disk.generation + 1, lsn));
        let names = i.io.with(|f| f.list(&i.dir))?;
        let res = (|| -> Result<(), WalError> {
            // A leftover tmp from a crashed earlier attempt would
            // otherwise be appended after; clear it first.
            if names.iter().any(|n| n == TMP_NAME) {
                i.io.with(|f| f.remove(&tmp))?;
            }
            i.io.with(|f| f.append(&tmp, framed))?;
            i.io.with(|f| f.fsync(&tmp))?;
            i.fsyncs_total.fetch_add(1, Ordering::Relaxed);
            i.io.with(|f| f.rename(&tmp, &finalname))?;
            i.io.with(|f| f.fsync_dir(&i.dir))?;
            i.fsyncs_total.fetch_add(1, Ordering::Relaxed);
            Ok(())
        })();
        if let Err(e) = res {
            return self.poison(e);
        }
        disk.generation += 1;
        disk.seg_idx = 0;
        disk.seg_bytes = 0;
        disk.since_sync = 0;
        buf.next_lsn = lsn;
        Ok(names)
    }

    /// Abandon this log's history and restart it from `snap` at `lsn` —
    /// fork healing. Unlike [`DiskWal::checkpoint_at`], which treats the
    /// log as *correct* (flushes and ships the buffered tail, and never
    /// rewinds the durable watermark), a reset treats it as *wrong*:
    /// buffered records are dropped unwritten and unshipped, every
    /// existing segment and checkpoint is superseded, and the durable
    /// watermark is moved to `lsn` even when that is backwards. Any
    /// acked durability above `lsn` is deliberately forgotten — that is
    /// the point: those records were written on a deposed fork.
    pub fn reset_to(&self, snap: &Snapshot, lsn: u64) -> Result<CheckpointReport, WalError> {
        self.check_poison()?;
        let i = &*self.inner;
        let framed = frame_snapshot(snap)?;

        let mut buf = lock(&i.buf);
        let mut disk = lock(&i.disk);

        // Discard, don't flush: the pending tail is fork debris.
        drop(buf.steal());
        let names = self.install_snapshot(&mut buf, &mut disk, &framed, lsn)?;

        // A reset deletes inline (no retirement): the superseded files
        // are fork debris, and archiving a deposed fork's history would
        // poison later restores. For the same reason the retire queue
        // and any already-written archives (none in plain mode) are
        // purged.
        let mut swept = 0u64;
        for n in names {
            if let Some(is_segment) = superseded(&n, disk.generation) {
                let removed = i.io.with(|f| f.remove(&i.dir.join(n))).is_ok();
                swept += u64::from(removed && is_segment);
            }
        }
        lock(&i.retired).clear();
        archive::purge_archives(&i.io, &i.dir);

        // Rewind (not just advance) the watermark: durability claims
        // about the abandoned fork must not leak into the new history.
        {
            let mut d = lock(&i.durable);
            d.durable_lsn = lsn;
        }
        i.durable_cv.notify_all();
        Ok(CheckpointReport {
            lsn,
            swept_segments: swept,
        })
    }

    /// Drain the retire queue on this thread — the only code that
    /// removes superseded files: each retired segment, oldest first, is
    /// unlinked (in archive mode only after its compressed, CRC-framed
    /// archive is fsync-durable), then the superseded checkpoints and
    /// tmp file go. The caller picks the thread: the server runs it on
    /// its background thread at start-up (for the files recovery
    /// re-retired), after a checkpoint or a replica's snapshot jump, and
    /// at shutdown. Holds no lock but the
    /// (brief) retire-queue lock — compression never runs under the
    /// flusher or engine locks.
    pub fn drain_retired(&self) -> Result<DrainReport, WalError> {
        let i = &*self.inner;
        let batch = std::mem::take(&mut *lock(&i.retired));
        if batch.is_empty() {
            return Ok(DrainReport::default());
        }
        let queued_segs = batch.iter().filter(|n| parse_segment(n).is_some()).count() as u64;
        i.draining.store(queued_segs, Ordering::SeqCst);
        let (report, remaining, err) = archive::drain_retired(&i.io, &i.dir, batch, i.cfg.archive);
        i.archived_segments
            .fetch_add(report.archived, Ordering::Relaxed);
        i.archived_bytes.fetch_add(report.bytes, Ordering::Relaxed);
        i.draining.store(0, Ordering::SeqCst);
        if !remaining.is_empty() {
            // Splice the un-drained names back at the *front*: they are
            // older than anything a concurrent checkpoint queued since,
            // and the archive chain must be built oldest-first.
            let mut q = lock(&i.retired);
            let mut names = remaining;
            names.append(&mut q);
            *q = names;
        }
        match err {
            // A drain error must not latch the live log read-only: the
            // un-drained names are back on the queue and the next pass
            // retries.
            Some(e) => Err(e),
            None => Ok(report),
        }
    }

    /// Lifetime retirement progress (see [`ArchiveStats`]).
    pub fn archive_stats(&self) -> ArchiveStats {
        let i = &*self.inner;
        let queued = lock(&i.retired)
            .iter()
            .filter(|n| parse_segment(n).is_some())
            .count() as u64;
        ArchiveStats {
            segments_archived: i.archived_segments.load(Ordering::Relaxed),
            bytes_archived: i.archived_bytes.load(Ordering::Relaxed),
            lag_segments: queued + i.draining.load(Ordering::SeqCst),
        }
    }
}

/// One segment's decode result, produced on a recovery worker.
struct SegDecode {
    ops: Vec<LogOp>,
    /// Torn-frame offset, if the segment ends in one (whether that is
    /// tolerable depends on the segment's position — the caller rules).
    torn: Option<u64>,
    records: usize,
    bytes: u64,
    decode_us: u64,
}

/// Frame-decode and JSON-parse one segment body. Pure CPU — no I/O, no
/// locks — so it parallelizes perfectly.
fn decode_one(name: &str, bytes: &[u8]) -> Result<SegDecode, WalError> {
    let t = Instant::now();
    let (payloads, tail) = frame::decode_all(bytes).map_err(|c| {
        WalError::Corrupt(format!("segment {name}: bad frame at offset {}", c.offset))
    })?;
    let torn = match tail {
        frame::Tail::Torn { offset } => Some(offset),
        frame::Tail::Clean => None,
    };
    let mut ops = Vec::with_capacity(payloads.len());
    for p in &payloads {
        let line = std::str::from_utf8(p)
            .map_err(|_| WalError::Corrupt("segment record: not utf-8".to_string()))?;
        ops.push(LogOp::from_json_line(line)?);
    }
    Ok(SegDecode {
        records: ops.len(),
        ops,
        torn,
        bytes: bytes.len() as u64,
        decode_us: t.elapsed().as_micros() as u64,
    })
}

/// Decode the live segments on a pool of `threads` workers. Workers
/// claim segment indices from a shared counter, read the body (reads
/// serialize on the io lock; they are cheap next to the decode), and
/// send results through a bounded channel; the caller applies them in
/// LSN order via a reorder buffer. Returns the flattened ops, the
/// per-segment timings, and the torn tail (only the final segment may
/// carry one — anywhere else is [`WalError::Corrupt`]).
#[allow(clippy::type_complexity)]
fn decode_segments(
    dir: &Path,
    io: &SharedIo,
    segments: &[String],
    threads: usize,
) -> Result<(Vec<LogOp>, Vec<SegmentTiming>, Option<(String, u64)>), WalError> {
    let n = segments.len();
    let last = n.saturating_sub(1);
    let mut ops = Vec::new();
    let mut timings = Vec::with_capacity(n);
    let mut torn: Option<(String, u64)> = None;
    // The torn-tail rule, applied as segments arrive in order.
    let mut accept = |i: usize,
                      name: &str,
                      d: SegDecode,
                      ops: &mut Vec<LogOp>,
                      timings: &mut Vec<SegmentTiming>|
     -> Result<(), WalError> {
        if let Some(offset) = d.torn {
            if i != last {
                return Err(WalError::Corrupt(format!(
                    "segment {name}: torn frame at offset {offset} before the final segment"
                )));
            }
            torn = Some((name.to_string(), offset));
        }
        ops.extend(d.ops);
        timings.push(SegmentTiming {
            name: name.to_string(),
            records: d.records,
            bytes: d.bytes,
            decode_us: d.decode_us,
        });
        Ok(())
    };

    if threads <= 1 || n <= 1 {
        for (i, name) in segments.iter().enumerate() {
            let bytes = io.with(|f| f.read(&dir.join(name)))?;
            let d = decode_one(name, &bytes)?;
            accept(i, name, d, &mut ops, &mut timings)?;
        }
        return Ok((ops, timings, torn));
    }

    let next = AtomicUsize::new(0);
    let (res_tx, res_rx) = sync_channel::<(usize, Result<SegDecode, WalError>)>(threads * 2);
    let result = std::thread::scope(|s| {
        // Owned by this closure: dropped before the scope joins, so a
        // worker blocked on a full channel after the collector bails
        // sees a disconnect instead of deadlocking the join.
        let res_rx = res_rx;
        for _ in 0..threads {
            let res_tx = res_tx.clone();
            let next = &next;
            s.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    return;
                }
                let name = &segments[i];
                let out = io
                    .with(|f| f.read(&dir.join(name)))
                    .map_err(WalError::from)
                    .and_then(|bytes| decode_one(name, &bytes));
                if res_tx.send((i, out)).is_err() {
                    return; // the collector bailed on an earlier error
                }
            });
        }
        drop(res_tx);

        let mut reorder: BTreeMap<usize, SegDecode> = BTreeMap::new();
        let mut expected = 0usize;
        while expected < n {
            let (i, out) = match res_rx.recv() {
                Ok(msg) => msg,
                Err(_) => {
                    return Err(WalError::Corrupt(
                        "recovery worker died without reporting its segment".to_string(),
                    ))
                }
            };
            reorder.insert(i, out?);
            while let Some(d) = reorder.remove(&expected) {
                accept(expected, &segments[expected], d, &mut ops, &mut timings)?;
                expected += 1;
            }
        }
        Ok(())
    });
    result?;
    Ok((ops, timings, torn))
}

/// The dedicated flusher thread's loop. Self-clocking: park until a
/// flush is due, run one flush cycle, repeat — whatever was appended
/// while the fsync was in flight is the next batch. On stop, drain
/// what's left.
fn run_flusher(wal: DiskWal) {
    let i = Arc::clone(&wal.inner);
    loop {
        let stopping = {
            let mut buf = lock(&i.buf);
            // A poisoned WAL can flush nothing: park until stopped.
            while !buf.stop && (!buf.due || i.poisoned.load(Ordering::SeqCst)) {
                let (g, _) = i
                    .flush_cv
                    .wait_timeout(buf, Duration::from_millis(250))
                    .unwrap_or_else(|p| p.into_inner());
                buf = g;
            }
            buf.stop
        };
        // Flush errors poison the WAL and wake every waiter.
        let _ = wal.flush_once(false);
        if stopping {
            return;
        }
    }
}

/// Handle to the dedicated flusher thread. Dropping it stops the
/// thread after a final drain of the pending queue.
pub struct WalFlusher {
    wal: DiskWal,
    handle: Option<JoinHandle<()>>,
}

impl WalFlusher {
    /// Drain the pending queue, stop the thread, and join it.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        lock(&self.wal.inner.buf).stop = true;
        self.wal.inner.flush_cv.notify_all();
        let _ = handle.join();
        self.wal
            .inner
            .flusher_running
            .store(false, Ordering::SeqCst);
        // Waiters must re-evaluate: with the flusher gone they
        // self-serve (or observe the drained watermark).
        self.wal.inner.durable_cv.notify_all();
    }
}

impl Drop for WalFlusher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod policy_tests {
    use super::*;

    #[test]
    fn snapshot_length_is_checked_against_the_frame_limit() {
        let max = frame::MAX_FRAME as usize;
        assert!(check_snapshot_len(0).is_ok());
        assert!(check_snapshot_len(max).is_ok(), "the limit itself fits");
        match check_snapshot_len(max + 1) {
            Err(WalError::SnapshotTooLarge { bytes, max: m }) => {
                assert_eq!((bytes, m), (max as u64 + 1, max as u64));
            }
            other => panic!("expected SnapshotTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn parse_accepts_the_three_policies() {
        assert_eq!(FsyncPolicy::parse("always").unwrap(), FsyncPolicy::Always);
        assert_eq!(FsyncPolicy::parse("commit").unwrap(), FsyncPolicy::OnCommit);
        assert_eq!(FsyncPolicy::parse("never").unwrap(), FsyncPolicy::Never);
    }

    #[test]
    fn parse_rejects_retired_and_malformed_specs_naming_the_accepted_forms() {
        for bad in ["group", "group:8:2", "64", "0", "", "Always", "sometimes"] {
            let err = FsyncPolicy::parse(bad).unwrap_err();
            assert!(err.contains("always|commit|never"), "{bad:?}: {err}");
            assert!(err.contains("batching is automatic"), "{bad:?}: {err}");
        }
    }
}
