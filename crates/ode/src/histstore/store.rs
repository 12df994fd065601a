//! The store proper: durability-gated ingestion off the engine lock,
//! segment sealing, and query execution.
//!
//! ## Ingestion pipeline
//!
//! [`HistStore::submit`] (called from the engine's committed-event tap,
//! engine still locked) only pushes the batch on a queue. A dedicated
//! indexer thread drains it, but a batch is applied only once
//! [`HistStore::advance_durable_through`] has covered its LSN — sealed
//! state is therefore always a prefix of the durable WAL, and a store
//! that lost its tail rebuilds exactly by replaying `LogOp`s with the
//! tap installed (recovery replay re-posts the same events with the
//! same seqs, because the engine's posting seq is part of snapshots).
//!
//! ## Seal boundaries
//!
//! The active set seals into a segment when it reaches
//! [`HistConfig::segment_rows`] — but never between two batches that
//! share a commit LSN (a user transaction's batch and the `after
//! tcommit` system round it spawns): the sealed `covered_lsn` cursor
//! must imply "every batch at LSNs below me is sealed", because rebuild
//! skips whole batches below the cursor.
//!
//! ## Duplicates
//!
//! The only re-submissions are replays: recovery re-taps history that
//! the store sealed before it was opened. [`HistStore::submit`] drops a
//! batch below the *rebuild floor* — what the sealed segments covered at
//! [`HistStore::open`], lowered by [`HistStore::rebase`] — and nothing
//! else. The live cursor cannot be the test: the `after tcommit` round
//! is tapped after its commit's batch, with the same LSN, so the cursor
//! has already passed it.

use std::collections::VecDeque;
use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar};
use std::thread;

use ode_core::{BasicEvent, Value};
use parking_lot::{Mutex, MutexGuard, RwLock};

use super::query::{compile, row_matches, zone_may_match, HistQuery, QueryResult};
use super::row::{decode_basic, row_from_tap, EventRow, KindDict};
use super::segment::{parse_segment_file_name, write_segment, zone_meta, Segment};
use crate::engine::TapEvent;

/// History-store failure.
#[derive(Debug)]
pub enum HistError {
    /// An I/O error.
    Io(io::Error),
    /// A segment file is damaged.
    Corrupt(String),
}

impl fmt::Display for HistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HistError::Io(e) => write!(f, "histstore i/o: {e}"),
            HistError::Corrupt(m) => write!(f, "histstore corrupt: {m}"),
        }
    }
}

impl std::error::Error for HistError {}

impl From<io::Error> for HistError {
    fn from(e: io::Error) -> Self {
        HistError::Io(e)
    }
}

/// Store tuning.
#[derive(Clone, Copy, Debug)]
pub struct HistConfig {
    /// Active rows per sealed segment (a segment may run slightly over:
    /// batches are never split).
    pub segment_rows: usize,
}

impl Default for HistConfig {
    fn default() -> Self {
        HistConfig { segment_rows: 4096 }
    }
}

/// One committed transaction's tapped events plus commit context.
#[derive(Clone, Debug)]
pub struct Batch {
    /// WAL LSN of the commit record covering these events.
    pub lsn: u64,
    /// Committing transaction id.
    pub txn: u64,
    /// Virtual clock at commit.
    pub time: u64,
    /// The tapped postings, in posting order.
    pub events: Vec<TapEvent>,
}

/// Observability snapshot.
#[derive(Clone, Copy, Debug, Default)]
pub struct HistStats {
    /// Sealed segments.
    pub segments: u64,
    /// Total rows (sealed + active).
    pub rows: u64,
    /// Bytes across sealed segment files.
    pub disk_bytes: u64,
    /// One past the last commit LSN folded into the store.
    pub indexed_lsn: u64,
    /// Queries served.
    pub queries: u64,
    /// Rows returned across all queries.
    pub rows_returned: u64,
    /// Segments pruned by zone metadata across all queries.
    pub segments_skipped: u64,
    /// Retroactive replays served.
    pub retro_replays: u64,
}

/// Wait on a std condvar with the (std-backed) parking_lot guard.
fn cv_wait<'a, T>(cv: &Condvar, g: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
    match cv.wait(g) {
        Ok(g) => g,
        Err(p) => p.into_inner(),
    }
}

struct State {
    queue: VecDeque<Batch>,
    /// One past the highest WAL-durable LSN.
    durable_excl: u64,
    /// One past the highest submitted LSN.
    submitted_excl: u64,
    /// The rebuild floor: every batch below it is already in the store.
    floor_excl: u64,
    /// LSN of the first batch the indexer popped but has not yet
    /// applied; a rebase waits this out so no batch from before it lands
    /// after.
    applying_from: Option<u64>,
    stop: bool,
}

impl State {
    /// Whether a batch below `lsn` is still queued or being applied.
    fn pending_below(&self, lsn: u64) -> bool {
        self.applying_from.is_some_and(|l| l < lsn)
            || self.queue.front().is_some_and(|b| b.lsn < lsn)
    }
}

struct Indexed {
    sealed: Vec<Arc<Segment>>,
    active: Vec<EventRow>,
    dict: KindDict,
    /// One past the last applied commit LSN.
    applied_excl: u64,
    /// LSN of the most recently appended batch.
    last_batch_lsn: u64,
    /// Threshold reached; seal before the next higher-LSN batch.
    pending_seal: bool,
    next_seg_index: u64,
    rows_total: u64,
    disk_bytes: u64,
}

struct Inner {
    dir: PathBuf,
    cfg: HistConfig,
    classes: RwLock<Vec<String>>,
    state: Mutex<State>,
    /// Wakes the indexer (new work / durability / stop).
    work: Condvar,
    /// Wakes sync waiters (applied advanced).
    idle: Condvar,
    indexed: RwLock<Indexed>,
    failed: AtomicBool,
    queries: AtomicU64,
    rows_returned: AtomicU64,
    segments_skipped: AtomicU64,
    retro_replays: AtomicU64,
}

/// The event-history store. One per shard; dropping it stops and joins
/// the indexer thread (queued-but-unapplied batches are discarded —
/// they are rebuilt from the WAL on reopen).
pub struct HistStore {
    inner: Arc<Inner>,
    indexer: Option<thread::JoinHandle<()>>,
}

impl HistStore {
    /// Open (or create) the store under `dir`, dropping any sealed
    /// segment that reaches `valid_lsn_excl` or beyond — the caller
    /// passes one past the recovered WAL head (lowered further by 2PC
    /// demotions), so the store never claims history the log disowned.
    pub fn open(dir: &Path, cfg: HistConfig, valid_lsn_excl: u64) -> Result<HistStore, HistError> {
        fs::create_dir_all(dir)?;
        let mut files: Vec<(u64, PathBuf)> = Vec::new();
        for entry in fs::read_dir(dir)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if name.ends_with(".tmp") {
                let _ = fs::remove_file(entry.path());
                continue;
            }
            if let Some(i) = parse_segment_file_name(&name) {
                files.push((i, entry.path()));
            }
        }
        files.sort();
        let mut sealed: Vec<Arc<Segment>> = Vec::new();
        let mut drop_from: Option<usize> = None;
        for (pos, (index, path)) in files.iter().enumerate() {
            if *index != pos as u64 {
                drop_from = Some(pos);
                break;
            }
            match read_segment_meta(path) {
                Ok(seg) if seg.reaches(valid_lsn_excl) => {
                    drop_from = Some(pos);
                    break;
                }
                Ok(seg) => sealed.push(Arc::new(seg)),
                Err(_) => {
                    // The store's own torn tail: a crash mid-publish.
                    drop_from = Some(pos);
                    break;
                }
            }
        }
        if let Some(pos) = drop_from {
            for (_, path) in &files[pos..] {
                let _ = fs::remove_file(path);
            }
        }
        let (dict, classes, applied_excl) = match sealed.last() {
            Some(last) => (
                KindDict::from_methods(last.meta.methods.clone()),
                last.meta.classes.clone(),
                last.meta.covered_lsn,
            ),
            None => (KindDict::default(), Vec::new(), 0),
        };
        let next_seg_index = sealed.len() as u64;
        let rows_total: u64 = sealed.iter().map(|s| s.meta.rows).sum();
        let disk_bytes: u64 = sealed.iter().map(|s| s.bytes).sum();
        let inner = Arc::new(Inner {
            dir: dir.to_path_buf(),
            cfg,
            classes: RwLock::new(classes),
            state: Mutex::new(State {
                queue: VecDeque::new(),
                durable_excl: 0,
                submitted_excl: 0,
                floor_excl: applied_excl,
                applying_from: None,
                stop: false,
            }),
            work: Condvar::new(),
            idle: Condvar::new(),
            indexed: RwLock::new(Indexed {
                sealed,
                active: Vec::new(),
                dict,
                applied_excl,
                last_batch_lsn: applied_excl.saturating_sub(1),
                pending_seal: false,
                next_seg_index,
                rows_total,
                disk_bytes,
            }),
            failed: AtomicBool::new(false),
            queries: AtomicU64::new(0),
            rows_returned: AtomicU64::new(0),
            segments_skipped: AtomicU64::new(0),
            retro_replays: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let indexer = thread::Builder::new()
            .name("hist-indexer".into())
            .spawn(move || indexer_loop(&worker))
            .map_err(HistError::Io)?;
        Ok(HistStore {
            inner,
            indexer: Some(indexer),
        })
    }

    /// Re-base the live store on a log that was replaced underneath it
    /// (fork reset: `base_lsn` 0; snapshot jump: `base_lsn` past the
    /// cursor). Everything at or past `base_lsn` belongs to the
    /// discarded timeline and goes the way [`HistStore::open`] drops
    /// what the log disowns — sealed segments from the first one that
    /// reaches `base_lsn`, active rows and queued batches by LSN — and
    /// the cursors and the rebuild floor rewind to `base_lsn`, so
    /// batches submitted from there are indexed instead of being skipped
    /// as already seen. No submission may race the rebase (the caller is
    /// the shard's only writer, or holds its engine lock).
    pub fn rebase(&self, base_lsn: u64) {
        let mut st = self.inner.state.lock();
        while st.applying_from.is_some() && !st.stop {
            st = cv_wait(&self.inner.idle, st);
        }
        let mut idx = self.inner.indexed.write();
        let keep =
            (idx.sealed.iter().position(|s| s.reaches(base_lsn))).unwrap_or(idx.sealed.len());
        for seg in idx.sealed.split_off(keep) {
            let _ = fs::remove_file(&seg.path);
            idx.disk_bytes -= seg.bytes;
        }
        idx.next_seg_index = keep as u64;
        idx.active.retain(|r| r.lsn < base_lsn);
        idx.rows_total =
            idx.sealed.iter().map(|s| s.meta.rows).sum::<u64>() + idx.active.len() as u64;
        idx.applied_excl = idx.applied_excl.min(base_lsn);
        idx.last_batch_lsn = idx.last_batch_lsn.min(base_lsn.saturating_sub(1));
        idx.pending_seal = idx.active.len() >= self.inner.cfg.segment_rows;
        st.queue.retain(|b| b.lsn < base_lsn);
        st.durable_excl = st.durable_excl.min(base_lsn);
        st.submitted_excl = st.submitted_excl.min(base_lsn);
        st.floor_excl = st.floor_excl.min(base_lsn);
    }

    /// Record (or extend) the class-name table: `code` is the engine's
    /// `ClassId` ordinal.
    pub fn observe_class(&self, code: u32, name: &str) {
        let mut classes = self.inner.classes.write();
        if classes.len() <= code as usize {
            classes.resize(code as usize + 1, String::new());
        }
        classes[code as usize] = name.to_string();
    }

    /// The class-name table, code order.
    pub fn classes(&self) -> Vec<String> {
        self.inner.classes.read().clone()
    }

    /// Enqueue one committed batch (tap context: engine locked — this
    /// only pushes and notifies). Batches below the rebuild floor are
    /// dropped: recovery replay re-submits history the store already
    /// sealed.
    pub fn submit(&self, batch: Batch) {
        let mut st = self.inner.state.lock();
        if batch.lsn < st.floor_excl {
            return;
        }
        st.submitted_excl = st.submitted_excl.max(batch.lsn + 1);
        st.queue.push_back(batch);
        self.inner.work.notify_one();
    }

    /// Advance the WAL-durable watermark: every LSN `<= lsn` is on
    /// disk. Called from the WAL flusher's durable sink.
    pub fn advance_durable_through(&self, lsn: u64) {
        let mut st = self.inner.state.lock();
        if lsn + 1 > st.durable_excl {
            st.durable_excl = lsn + 1;
            self.inner.work.notify_one();
        }
    }

    /// Wait until every batch that was both submitted and durable when
    /// this call began has been applied — read-your-writes for any
    /// transaction whose commit was acknowledged (ack implies durable).
    pub fn sync(&self) {
        let mut st = self.inner.state.lock();
        let target = st.submitted_excl.min(st.durable_excl);
        while st.pending_below(target) && !st.stop {
            st = cv_wait(&self.inner.idle, st);
        }
    }

    /// Checkpoint barrier: wait until everything below `through_excl`
    /// is applied, then seal the active set. The caller must hold the
    /// engine lock (no new submissions) and have advanced durability
    /// through `through_excl - 1`.
    pub fn barrier_seal(&self, through_excl: u64) -> Result<(), HistError> {
        {
            let mut st = self.inner.state.lock();
            // Never wait past what was actually submitted: the caller
            // holds the engine lock, so no more submissions can arrive.
            let target = through_excl.min(st.submitted_excl);
            while st.pending_below(target) && !st.stop {
                st = cv_wait(&self.inner.idle, st);
            }
        }
        let mut idx = self.inner.indexed.write();
        if !idx.active.is_empty() {
            seal_locked(&self.inner, &mut idx)?;
        }
        Ok(())
    }

    /// Run a query. Call [`HistStore::sync`] first when read-your-writes
    /// matters. Results are in store order (= commit order, posting
    /// order within a transaction).
    pub fn query(&self, q: &HistQuery) -> Result<QueryResult, HistError> {
        self.inner.queries.fetch_add(1, Ordering::Relaxed);
        let (sealed, active, dict, classes) = {
            let idx = self.inner.indexed.read();
            (
                idx.sealed.clone(),
                idx.active.clone(),
                idx.dict.clone(),
                self.inner.classes.read().clone(),
            )
        };
        let plan = compile(q, &classes, &dict);
        let mut rows: Vec<EventRow> = Vec::new();
        let mut truncated = false;
        let mut scanned = 0usize;
        let mut skipped = 0usize;
        'collect: {
            for seg in &sealed {
                if !zone_may_match(&plan, &seg.meta) {
                    skipped += 1;
                    continue;
                }
                scanned += 1;
                for row in seg.rows()? {
                    if row_matches(&plan, &row) {
                        if rows.len() >= plan.limit {
                            truncated = true;
                            break 'collect;
                        }
                        rows.push(row);
                    }
                }
            }
            for row in active {
                if row_matches(&plan, &row) {
                    if rows.len() >= plan.limit {
                        truncated = true;
                        break 'collect;
                    }
                    rows.push(row);
                }
            }
        }
        self.inner
            .rows_returned
            .fetch_add(rows.len() as u64, Ordering::Relaxed);
        self.inner
            .segments_skipped
            .fetch_add(skipped as u64, Ordering::Relaxed);
        Ok(QueryResult {
            rows,
            truncated,
            segments_scanned: scanned,
            segments_skipped: skipped,
        })
    }

    /// Kind label for a row's kind code (for display on the wire).
    pub fn kind_label(&self, code: u32) -> String {
        self.inner.indexed.read().dict.kind_label(code)
    }

    /// Render a row's event in the paper's §3 surface syntax
    /// (`after withdraw`), decoding through the store's dictionaries.
    pub fn render_event(&self, row: &EventRow) -> String {
        let dict = &self.inner.indexed.read().dict;
        match decode_basic(row.qual, row.kind, row.extra.as_deref(), dict) {
            Some(b) => b.to_string(),
            None => format!("kind#{}", row.kind),
        }
    }

    /// Class name for a row's class code.
    pub fn class_label(&self, code: u32) -> String {
        self.inner
            .classes
            .read()
            .get(code as usize)
            .cloned()
            .unwrap_or_else(|| format!("class#{code}"))
    }

    /// The stored committed sub-history of one object, as
    /// `(seq, event, args)` triples in posting order — the input a
    /// retroactive trigger activation replays.
    pub fn object_events(
        &self,
        object: u64,
    ) -> Result<Vec<(u64, BasicEvent, Vec<Value>)>, HistError> {
        self.inner.retro_replays.fetch_add(1, Ordering::Relaxed);
        let q = HistQuery {
            object: Some(object),
            ..HistQuery::default()
        };
        let res = self.query(&q)?;
        let dict = self.inner.indexed.read().dict.clone();
        let mut out = Vec::with_capacity(res.rows.len());
        for r in res.rows {
            let basic = decode_basic(r.qual, r.kind, r.extra.as_deref(), &dict)
                .ok_or_else(|| HistError::Corrupt(format!("undecodable row seq {}", r.seq)))?;
            out.push((r.seq, basic, r.args));
        }
        Ok(out)
    }

    /// Observability snapshot.
    pub fn stats(&self) -> HistStats {
        let idx = self.inner.indexed.read();
        HistStats {
            segments: idx.sealed.len() as u64,
            rows: idx.rows_total,
            disk_bytes: idx.disk_bytes,
            indexed_lsn: idx.applied_excl,
            queries: self.inner.queries.load(Ordering::Relaxed),
            rows_returned: self.inner.rows_returned.load(Ordering::Relaxed),
            segments_skipped: self.inner.segments_skipped.load(Ordering::Relaxed),
            retro_replays: self.inner.retro_replays.load(Ordering::Relaxed),
        }
    }

    /// Whether the indexer hit an unrecoverable I/O failure (rows stay
    /// queryable in memory; sealing stopped).
    pub fn failed(&self) -> bool {
        self.inner.failed.load(Ordering::Relaxed)
    }
}

impl Drop for HistStore {
    fn drop(&mut self) {
        {
            let mut st = self.inner.state.lock();
            st.stop = true;
        }
        self.inner.work.notify_all();
        self.inner.idle.notify_all();
        if let Some(h) = self.indexer.take() {
            let _ = h.join();
        }
    }
}

fn read_segment_meta(path: &Path) -> Result<Segment, HistError> {
    let bytes = fs::read(path)?;
    let (meta, _) = super::segment::decode_segment(&bytes)?;
    Ok(Segment {
        meta,
        path: path.to_path_buf(),
        bytes: bytes.len() as u64,
    })
}

fn indexer_loop(inner: &Arc<Inner>) {
    loop {
        let ready: Vec<Batch> = {
            let mut st = inner.state.lock();
            loop {
                if st.stop {
                    return;
                }
                let runnable = st.queue.front().is_some_and(|b| b.lsn < st.durable_excl);
                if runnable {
                    break;
                }
                st = cv_wait(&inner.work, st);
            }
            let mut v = Vec::new();
            while st.queue.front().is_some_and(|b| b.lsn < st.durable_excl) {
                v.push(st.queue.pop_front().expect("front checked"));
            }
            st.applying_from = v.first().map(|b| b.lsn);
            v
        };
        apply_batches(inner, ready);
        inner.state.lock().applying_from = None;
        inner.idle.notify_all();
    }
}

fn apply_batches(inner: &Arc<Inner>, batches: Vec<Batch>) {
    let mut idx = inner.indexed.write();
    for b in batches {
        // Seal only at a batch boundary that crosses to a higher LSN:
        // equal-LSN batches (user txn + its tcommit system round) must
        // land in the same sealed prefix.
        if idx.pending_seal && b.lsn > idx.last_batch_lsn {
            if let Err(e) = seal_locked(inner, &mut idx) {
                if !inner.failed.swap(true, Ordering::Relaxed) {
                    eprintln!("histstore: seal failed, keeping rows in memory: {e}");
                }
                idx.pending_seal = false;
            }
        }
        for ev in &b.events {
            let row = row_from_tap(ev, b.lsn, b.time, b.txn, &mut idx.dict);
            idx.active.push(row);
        }
        idx.rows_total += b.events.len() as u64;
        idx.last_batch_lsn = b.lsn;
        idx.applied_excl = b.lsn + 1;
        if idx.active.len() >= inner.cfg.segment_rows {
            idx.pending_seal = true;
        }
    }
}

fn seal_locked(inner: &Arc<Inner>, idx: &mut Indexed) -> Result<(), HistError> {
    let meta = zone_meta(
        &idx.active,
        idx.applied_excl,
        idx.dict.methods().to_vec(),
        inner.classes.read().clone(),
    );
    let seg = write_segment(&inner.dir, idx.next_seg_index, &idx.active, &meta)?;
    idx.disk_bytes += seg.bytes;
    idx.sealed.push(Arc::new(seg));
    idx.next_seg_index += 1;
    idx.active.clear();
    idx.pending_seal = false;
    Ok(())
}
