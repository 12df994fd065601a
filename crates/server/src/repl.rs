//! The replica side of WAL-shipping replication: a background runner
//! that connects to an upstream, issues [`Command::Replicate`], and
//! tails the stream.
//!
//! ## Exactly-once
//!
//! Every shipped record carries its LSN and its CRC32 frame bytes; the
//! runner verifies the checksum end to end and hands the record to an
//! [`ode_db::replication::Applier`], which skips LSNs it has already
//! applied and refuses LSNs beyond its cursor. Any damage — a frame
//! that fails its checksum, a torn hex blob, an LSN gap, a dead socket
//! — collapses to one recovery action: drop the connection and
//! reconnect with `from_lsn = next unapplied LSN` under the client's
//! capped-jitter backoff. Retransmitted records are duplicates by LSN
//! and are skipped, so faults can reorder *delivery attempts* but never
//! the applied history.
//!
//! ## Cascading trees and re-parenting
//!
//! The upstream need not be the primary: any WAL-backed node re-logs
//! what it applies, so its own durable sink re-ships the stream to
//! *its* replicas, durable-watermark-gated exactly like the primary's.
//! The primary therefore holds O(1) streams regardless of tree width.
//! `sources` is an ordered upstream list: when the current upstream
//! dies, stops heartbeating for more than three intervals, or proves
//! stale, the runner rotates to the next entry under the same
//! capped-jitter backoff (re-parenting).
//!
//! ## Epochs and fork healing
//!
//! The handshake claims the replica's *history epoch* (the highest
//! `EpochBump` its own log holds); the upstream fences a claim whose
//! cursor runs past a bump it hasn't seen — the definition of holding
//! a deposed fork — by answering a `ReplSnapshot` with `fence_lsn`
//! set, upon which the runner discards the shard's entire local
//! history (engine, applier, local WAL, history-store rows, epoch-table
//! entries) and re-replicates it from zero. The same invariant is enforced
//! receiver-side: **an epoch bump is never a duplicate** — a bump
//! arriving *below* the cursor with an epoch above our history proves
//! the records we hold past it are fork debris (the upstream healed
//! underneath us), so the shard resets without waiting to be fenced.
//!
//! ## Catch-up and promotion
//!
//! Applied ops flow through the replica engine's own log sink into its
//! local WAL (when one is configured), so a restarted replica
//! bootstraps from its own directory and resumes the stream from where
//! its local log ends. `Promote` sets the stop flag; the runner drains
//! whatever the socket already holds, aborts transactions the stream
//! left open, and parks — after which the server durably bumps the
//! epoch and accepts writes.

use std::collections::HashMap;
use std::io::Write;
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ode_db::durability::archive::decode_archive_bytes;
use ode_db::durability::frame;
use ode_db::replication::{Applier, ApplyError};
use ode_db::{CheckpointReport, Database, DiskWal, LogOp, Snapshot, WalError};
use parking_lot::Mutex;

use crate::client::backoff_delay;
use crate::codec::{LineEvent, LineReader};
use crate::conn::Conn;
use crate::protocol::{hex_decode, Command, Reply, ReplyResult, Request, ServerMsg};
use crate::server::{append_schema, history_tap, load_schema, Shared};
use crate::spec::{compile_class, define_specs, ClassSpec};

/// A snapshot message must fit in one line; segments cap op frames far
/// below this.
const MAX_STREAM_LINE: usize = 256 * 1024 * 1024;

/// How often a serving session reports its durable heads to a
/// replication stream. The runner treats an upstream silent for more
/// than three intervals as dead and reconnects (possibly to the next
/// upstream on its list).
pub(crate) const HEARTBEAT_INTERVAL: Duration = Duration::from_millis(250);

/// Sweep tick: how often the event loop checks the shutdown flag, the
/// idle-transaction timers, and replication heartbeats when no socket
/// is ready; also the replica runner's read-timeout tick.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

/// Where a replica finds its upstream (the primary, or — in a
/// cascading tree — another replica).
#[derive(Clone, Debug)]
pub enum ReplSource {
    /// A TCP address (`host:port`).
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl ReplSource {
    /// Parse a `--replicate-from` operand: a leading `/` or `.` means a
    /// Unix socket path, anything else a TCP address.
    pub fn parse(s: &str) -> ReplSource {
        if s.starts_with('/') || s.starts_with('.') {
            ReplSource::Unix(PathBuf::from(s))
        } else {
            ReplSource::Tcp(s.to_string())
        }
    }

    fn connect(&self) -> std::io::Result<Conn> {
        match self {
            ReplSource::Tcp(addr) => {
                let s = TcpStream::connect(addr.as_str())?;
                let _ = s.set_nodelay(true);
                Ok(Conn::Tcp(s))
            }
            ReplSource::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        }
    }
}

/// A deterministic fault injected into the replication stream — the
/// network analogue of [`ode_db::FaultyIo`]'s disk faults. A plan maps
/// *received `ReplOp` count* (0-based, counted across reconnects) to
/// the fault to inject when that record arrives; tests use it to prove
/// the exactly-once property under damage.
#[derive(Clone, Copy, Debug)]
pub enum StreamFault {
    /// Drop the connection before applying the record (it retransmits
    /// after reconnect).
    Disconnect,
    /// Apply the record twice (the second apply must be a no-op).
    Duplicate,
    /// Flip a byte in the frame so the checksum fails.
    CorruptFrame,
    /// Truncate the frame mid-record, like a torn tail.
    TornFrame,
    /// Drop the connection *and refuse to reconnect* until shutdown or
    /// `Promote` — a network partition with a deterministic fork
    /// point: the replica holds exactly the records received before
    /// this one, however far ahead the upstream runs.
    Partition,
}

/// Shared replica status, read by `Stats` and flipped by `Promote`.
/// LSN cursors are per shard stream; `Stats` reports their sums (a
/// record count across the whole partitioned log).
pub(crate) struct ReplicaState {
    /// Per shard: one past the last applied LSN.
    pub(crate) applied: Vec<AtomicU64>,
    /// Per shard: the upstream's head LSN as last reported (ship or
    /// heartbeat).
    pub(crate) head: Vec<AtomicU64>,
    /// Whether the stream is currently established.
    pub(crate) connected: AtomicBool,
    /// Set by `Promote` before it takes effect.
    pub(crate) promoted: AtomicBool,
    /// Tells the runner to drain and park (promotion).
    pub(crate) stop: AtomicBool,
    /// Set once the runner has parked; `Promote` waits on it.
    pub(crate) finished: AtomicBool,
    /// When the runner last heard *anything* from its upstream —
    /// handshake reply, heartbeat, snapshot, or shipped record.
    last_contact: Mutex<Option<Instant>>,
}

impl ReplicaState {
    pub(crate) fn new(applied: Vec<u64>) -> ReplicaState {
        ReplicaState {
            head: applied.iter().map(|&a| AtomicU64::new(a)).collect(),
            applied: applied.into_iter().map(AtomicU64::new).collect(),
            connected: AtomicBool::new(false),
            promoted: AtomicBool::new(false),
            stop: AtomicBool::new(false),
            finished: AtomicBool::new(false),
            last_contact: Mutex::new(None),
        }
    }

    /// Total records applied across every shard stream.
    pub(crate) fn applied_sum(&self) -> u64 {
        self.applied.iter().map(|a| a.load(Ordering::SeqCst)).sum()
    }

    /// Total reported head across every shard stream.
    pub(crate) fn head_sum(&self) -> u64 {
        self.head
            .iter()
            .zip(&self.applied)
            .map(|(h, a)| h.load(Ordering::SeqCst).max(a.load(Ordering::SeqCst)))
            .sum()
    }

    fn note_contact(&self) {
        *self.last_contact.lock() = Some(Instant::now());
    }

    fn contact_age(&self) -> Option<Duration> {
        self.last_contact.lock().map(|t| t.elapsed())
    }

    /// Milliseconds since the upstream was last heard from, for
    /// `Stats`. `None` before first contact and after promotion (a
    /// primary has no upstream).
    pub(crate) fn heartbeat_age_ms(&self) -> Option<u64> {
        if self.promoted.load(Ordering::SeqCst) {
            return None;
        }
        self.contact_age().map(|d| d.as_millis() as u64)
    }
}

enum Flow {
    /// Keep reading the stream.
    Continue,
    /// Drop the connection and resync from the applier's cursor.
    Resync,
    /// The histories diverged (or shutdown); stop replicating for good.
    Fatal,
}

/// The replica runner thread: connect → handshake → tail, forever,
/// until shutdown or promotion. `rs` is the node's replica role;
/// `sources` is the ordered upstream list: the runner sticks with a
/// working entry and rotates to the next on every failed connect or
/// broken stream.
pub(crate) fn run_replica(
    inner: Arc<Shared>,
    rs: Arc<ReplicaState>,
    sources: Vec<ReplSource>,
    mut appliers: Vec<Applier>,
    plan: HashMap<u64, StreamFault>,
) {
    let mut attempt: u32 = 0;
    let mut ops_seen: u64 = 0;
    let mut src_idx: usize = 0;
    'outer: loop {
        if inner.shutdown.load(Ordering::SeqCst) || rs.stop.load(Ordering::SeqCst) {
            break;
        }
        let source = &sources[src_idx % sources.len()];
        let mut conn = match source.connect() {
            Ok(c) => c,
            Err(_) => {
                // Re-parent: this upstream is unreachable, try the
                // next on the list after one backoff step.
                src_idx += 1;
                if !sleep_backoff(&inner, &rs, &mut attempt) {
                    break 'outer;
                }
                continue;
            }
        };
        let _ = conn.set_blocking();
        let _ = conn.set_read_timeout(Some(POLL_INTERVAL));
        let mut lines = LineReader::new(MAX_STREAM_LINE);
        let req = Request {
            id: 1,
            cmd: Command::Replicate {
                from_lsns: appliers.iter().map(|a| a.next_lsn()).collect(),
                epoch: inner.epochs.history_epoch(),
            },
        };
        let handshake = serde_json::to_string(&req).expect("request encodes") + "\n";
        if conn.write_all(handshake.as_bytes()).is_err() {
            src_idx += 1;
            if !sleep_backoff(&inner, &rs, &mut attempt) {
                break 'outer;
            }
            continue;
        }
        loop {
            if inner.shutdown.load(Ordering::SeqCst) {
                break 'outer;
            }
            match lines.read_event(&mut conn) {
                Ok(LineEvent::Line(line)) => {
                    let Ok(msg) = serde_json::from_str::<ServerMsg>(&line) else {
                        break;
                    };
                    match handle_msg(
                        &inner,
                        &rs,
                        &mut appliers,
                        &plan,
                        &mut ops_seen,
                        &mut attempt,
                        msg,
                    ) {
                        Flow::Continue => {}
                        Flow::Resync => break,
                        Flow::Fatal => break 'outer,
                    }
                }
                // A tick means the socket has nothing buffered: if a
                // promotion is pending, the stream is drained.
                Ok(LineEvent::Tick) => {
                    if rs.stop.load(Ordering::SeqCst) {
                        break 'outer;
                    }
                    // Heartbeat staleness: a wedged upstream (half-open
                    // TCP, stalled flusher) goes silent long before the
                    // socket errors. Drop the link proactively — the
                    // reconnect may land on the next upstream.
                    if rs.connected.load(Ordering::SeqCst)
                        && rs
                            .contact_age()
                            .is_some_and(|age| age > 3 * HEARTBEAT_INTERVAL)
                    {
                        break;
                    }
                }
                Ok(LineEvent::Overlong) | Ok(LineEvent::Eof) | Err(_) => break,
            }
        }
        rs.connected.store(false, Ordering::SeqCst);
        conn.shutdown_both();
        // A broken or stale stream also rotates: if the upstream is
        // merely restarting we come back to it one backoff later.
        src_idx += 1;
        if !sleep_backoff(&inner, &rs, &mut attempt) {
            break 'outer;
        }
    }
    rs.connected.store(false, Ordering::SeqCst);
    // Transactions the stream left open will never see their commits;
    // release their locks before the server (if promoted) takes writes.
    for (s, applier) in appliers.iter_mut().enumerate() {
        inner.db.shard(s).with(|db| applier.abort_open(db));
    }
    rs.finished.store(true, Ordering::SeqCst);
}

/// Sleep one backoff step, polling for shutdown/stop. Returns `false`
/// when the runner should park instead of retrying.
fn sleep_backoff(inner: &Shared, rs: &ReplicaState, attempt: &mut u32) -> bool {
    *attempt += 1;
    let d = backoff_delay(
        *attempt,
        Duration::from_millis(10),
        Duration::from_millis(500),
        0xde13,
    );
    let deadline = Instant::now() + d;
    while Instant::now() < deadline {
        if inner.shutdown.load(Ordering::SeqCst) || rs.stop.load(Ordering::SeqCst) {
            return false;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    !(inner.shutdown.load(Ordering::SeqCst) || rs.stop.load(Ordering::SeqCst))
}

fn handle_msg(
    inner: &Arc<Shared>,
    rs: &ReplicaState,
    appliers: &mut [Applier],
    plan: &HashMap<u64, StreamFault>,
    ops_seen: &mut u64,
    attempt: &mut u32,
    msg: ServerMsg,
) -> Flow {
    match msg {
        ServerMsg::Reply {
            result: ReplyResult::Ok(Reply::Replicating { epoch, .. }),
            ..
        } => {
            if epoch < inner.epochs.history_epoch() {
                // The upstream's history is behind ours; following it
                // would rewind. Rotate to the next upstream.
                inner
                    .epochs
                    .stale_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Flow::Resync;
            }
            rs.note_contact();
            rs.connected.store(true, Ordering::SeqCst);
            *attempt = 0;
            Flow::Continue
        }
        ServerMsg::Reply {
            result: ReplyResult::Err(_),
            ..
        } => Flow::Resync,
        ServerMsg::Reply { .. } | ServerMsg::Firing(_) | ServerMsg::Rows { .. } => Flow::Continue,
        ServerMsg::ReplHeartbeat { shard, head, epoch } => {
            rs.note_contact();
            let Some(h) = rs.head.get(shard as usize) else {
                return Flow::Fatal;
            };
            h.store(head, Ordering::SeqCst);
            let mine = inner.epochs.history_epoch();
            if epoch > mine {
                // A newer primary exists up the tree. Latch the
                // observation (deposing any local write authority);
                // the bump record itself arrives in-band and clears
                // the latch by raising our history.
                if inner.epochs.observe(epoch).is_err() {
                    return Flow::Fatal;
                }
                Flow::Continue
            } else if epoch < mine {
                // A heartbeat from a deposed lineage: stop following.
                inner
                    .epochs
                    .stale_rejections
                    .fetch_add(1, Ordering::Relaxed);
                Flow::Resync
            } else {
                Flow::Continue
            }
        }
        ServerMsg::ReplSchema(spec) => {
            rs.note_contact();
            define_spec(inner, &spec)
        }
        ServerMsg::ReplSnapshot {
            shard,
            lsn,
            schema,
            snapshot,
            epoch: _,
            fence_lsn,
        } => {
            rs.note_contact();
            let s = shard as usize;
            if s >= appliers.len() {
                return Flow::Fatal;
            }
            for spec in &schema {
                if let Flow::Fatal = define_spec(inner, spec) {
                    return Flow::Fatal;
                }
            }
            if fence_lsn.is_some() {
                // The upstream proved our cursor runs past an epoch
                // bump we never applied: everything this shard holds
                // beyond the fence is debris from a deposed lineage.
                // Discard the shard wholesale and re-replicate from
                // zero — the records up to the fence are re-shipped
                // identically, the fork's tail is not.
                return reset_shard(inner, rs, appliers, s);
            }
            if lsn <= appliers[s].next_lsn() {
                // Pure log catch-up: this shard's stream continues from
                // where the replica already is.
                return Flow::Continue;
            }
            // Snapshot jump: the upstream no longer retains this
            // shard's records between our cursor and `lsn`. Rebuild
            // *that shard's* engine from the shipped snapshot
            // (`restore` needs an empty store); the other shards'
            // streams are negotiated independently and are not
            // disturbed.
            let Some(json) = snapshot else {
                return Flow::Resync;
            };
            let Ok(snap) = Snapshot::from_json(&json) else {
                return Flow::Fatal;
            };
            // Persisting the jump in the local log makes a restart
            // resume this shard from `lsn` instead of a stale local head.
            let applier = &mut appliers[s];
            let jumped = rebuild_shard(inner, applier, s, &schema, Some(&snap), lsn, |wal| {
                wal.checkpoint_at(&snap, lsn)
            });
            if jumped.is_err() {
                return Flow::Fatal;
            }
            // The jump carried us across any bumps in the skipped
            // range; adopt the node's fencing floor so the fresh cursor
            // doesn't accept stale stamps.
            applier.set_epoch(inner.epochs.history_epoch());
            rs.applied[s].store(lsn, Ordering::SeqCst);
            Flow::Continue
        }
        ServerMsg::ReplOp {
            shard,
            lsn,
            head,
            frame,
            epoch,
        } => {
            rs.note_contact();
            let s = shard as usize;
            if s >= appliers.len() {
                return Flow::Fatal;
            }
            rs.head[s].store(head, Ordering::SeqCst);
            if epoch < inner.epochs.history_epoch() {
                // A frame stamped from a deposed lineage; refuse it
                // before it touches the engine and re-negotiate.
                inner
                    .epochs
                    .stale_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Flow::Resync;
            }
            let fault = plan.get(ops_seen).copied();
            *ops_seen += 1;
            if let Some(StreamFault::Disconnect) = fault {
                return Flow::Resync;
            }
            if let Some(StreamFault::Partition) = fault {
                // A simulated network partition: drop the link and
                // refuse to reconnect until shutdown or promotion.
                // The record itself is never applied — it is the
                // first write the partition loses, pinning the fork
                // point exactly.
                rs.connected.store(false, Ordering::SeqCst);
                loop {
                    if inner.shutdown.load(Ordering::SeqCst) || rs.stop.load(Ordering::SeqCst) {
                        return Flow::Fatal;
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
            let Some(mut bytes) = hex_decode(&frame) else {
                return Flow::Resync;
            };
            match fault {
                Some(StreamFault::CorruptFrame) => {
                    if let Some(b) = bytes.last_mut() {
                        *b ^= 0xFF;
                    }
                }
                Some(StreamFault::TornFrame) => {
                    bytes.truncate(bytes.len().saturating_sub(3));
                }
                _ => {}
            }
            // End-to-end integrity: the frame must decode to exactly
            // one clean record, or the link resyncs.
            let Ok((payloads, tail)) = frame::decode_all(&bytes) else {
                return Flow::Resync;
            };
            if tail != frame::Tail::Clean || payloads.len() != 1 {
                return Flow::Resync;
            }
            let Ok(text) = std::str::from_utf8(payloads[0]) else {
                return Flow::Fatal;
            };
            let Ok(op) = LogOp::from_json_line(text) else {
                return Flow::Fatal;
            };
            let flow = apply_replayed(inner, rs, appliers, s, shard, lsn, &op);
            if matches!(
                (&flow, fault),
                (Flow::Continue, Some(StreamFault::Duplicate))
            ) {
                return apply_replayed(inner, rs, appliers, s, shard, lsn, &op);
            }
            flow
        }
        ServerMsg::ReplArchive {
            shard,
            base_lsn,
            records,
            data,
            epoch,
        } => {
            rs.note_contact();
            let s = shard as usize;
            if s >= appliers.len() {
                return Flow::Fatal;
            }
            if epoch < inner.epochs.history_epoch() {
                inner
                    .epochs
                    .stale_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Flow::Resync;
            }
            let Some(bytes) = hex_decode(&data) else {
                return Flow::Resync;
            };
            // Full end-to-end validation before anything touches the
            // engine: archive frame CRCs, decompression, the recorded
            // raw length/CRC, and the record count must all line up,
            // or the link resyncs (the retransmit re-negotiates).
            let Ok(seg) = decode_archive_bytes(&bytes) else {
                return Flow::Resync;
            };
            if seg.meta.base_lsn != base_lsn || seg.meta.records != records {
                return Flow::Resync;
            }
            for (i, payload) in seg.records.iter().enumerate() {
                let lsn = base_lsn + i as u64;
                let Ok(text) = std::str::from_utf8(payload) else {
                    return Flow::Fatal;
                };
                let Ok(op) = LogOp::from_json_line(text) else {
                    return Flow::Fatal;
                };
                match apply_replayed(inner, rs, appliers, s, shard, lsn, &op) {
                    Flow::Continue => {}
                    other => return other,
                }
            }
            Flow::Continue
        }
    }
}

/// Apply one shipped record — live (`ReplOp`) or replayed out of a
/// shipped archive: duplicate LSNs skip, a gap resyncs, and a fresh
/// epoch bump is re-appended to the local log and recorded in the epoch
/// table.
fn apply_replayed(
    inner: &Arc<Shared>,
    rs: &ReplicaState,
    appliers: &mut [Applier],
    s: usize,
    shard: u64,
    lsn: u64,
    op: &LogOp,
) -> Flow {
    // Receiver-side fork detection: an epoch bump is never a
    // duplicate. One landing below our cursor with an epoch above our
    // history proves the records we hold past it belong to a deposed
    // lineage (the upstream healed or was replaced underneath us while
    // our cursor let its rebuilt records duplicate-skip by). Discard
    // the shard.
    if let LogOp::EpochBump { epoch: bump } = op {
        if *bump > inner.epochs.history_epoch() && lsn < appliers[s].next_lsn() {
            inner
                .epochs
                .stale_rejections
                .fetch_add(1, Ordering::Relaxed);
            return reset_shard(inner, rs, appliers, s);
        }
    }
    let applier = &mut appliers[s];
    let fresh = lsn == applier.next_lsn();
    match inner.db.shard(s).with(|db| applier.apply(db, lsn, op)) {
        Ok(_) => {}
        Err(ApplyError::Gap { .. }) => return Flow::Resync,
        Err(_) => return Flow::Fatal,
    }
    rs.applied[s].store(applier.next_lsn(), Ordering::SeqCst);
    if fresh {
        if let LogOp::EpochBump { epoch: bump } = op {
            // The engine no-ops a bump, so the log sink never re-logs
            // it. Append it by hand to keep the local log
            // record-for-record identical with the upstream's — the
            // downstream tree depends on that 1:1 LSN alignment — then
            // record the durable start in the epoch table.
            if let Some(ws) = &inner.wal {
                match ws.wal.wal(s).append(op) {
                    Ok(got) if got == lsn => {}
                    _ => return Flow::Fatal,
                }
            }
            if inner.epochs.note_start(*bump, shard, lsn).is_err() {
                return Flow::Fatal;
            }
        }
    }
    Flow::Continue
}

/// Fork healing: discard shard `s`'s entire local history — engine,
/// applier, local WAL (durable watermark rewound to zero), history-store
/// rows, and epoch-table entries — so the next connect re-replicates
/// the shard from LSN 0. Classes survive: they are re-defined from the
/// local schema log (shared across shards), and the upstream re-ships
/// them on reconnect anyway.
fn reset_shard(inner: &Arc<Shared>, rs: &ReplicaState, appliers: &mut [Applier], s: usize) -> Flow {
    let mut specs: Vec<ClassSpec> = Vec::new();
    if let Some(ws) = &inner.wal {
        match load_schema(&ws.io, &ws.schema_path) {
            Ok(loaded) => specs = loaded,
            Err(_) => return Flow::Fatal,
        }
    }
    let Ok(empty) = Database::new().snapshot() else {
        return Flow::Fatal;
    };
    let reset = rebuild_shard(inner, &mut appliers[s], s, &specs, None, 0, |wal| {
        wal.reset_to(&empty, 0)
    });
    if reset.is_err() || inner.epochs.note_reset(s as u64).is_err() {
        return Flow::Fatal;
    }
    rs.applied[s].store(0, Ordering::SeqCst);
    rs.head[s].store(0, Ordering::SeqCst);
    Flow::Resync
}

/// The one way a replica abandons a shard's local history (snapshot
/// jump: `snapshot` at `base_lsn`; fork healing: nothing, at 0): swap in
/// a fresh engine — `specs` defined, `snapshot` restored, the server's
/// sinks and history tap re-installed — then, on a WAL node,
/// `install_log` moves the shard's local WAL to the new base (a drain of
/// what that retired is queued on the background thread), and the
/// history store re-bases there. `applier` is
/// replaced by one positioned at `base_lsn` over the new engine. The
/// open transactions' aborts still reach the *old* log (the engine goes
/// first), where `install_log` ships or discards them with the rest.
fn rebuild_shard(
    inner: &Shared,
    applier: &mut Applier,
    s: usize,
    specs: &[ClassSpec],
    snapshot: Option<&Snapshot>,
    base_lsn: u64,
    install_log: impl FnOnce(&DiskWal) -> Result<CheckpointReport, WalError>,
) -> Result<(), String> {
    let ws = inner.wal.as_deref();
    let hist = ws.and_then(|ws| ws.hist.get(s));
    inner.db.shard(s).with(|db| -> Result<(), String> {
        applier.abort_open(db);
        let mut fresh = Database::new();
        define_specs(&mut fresh, specs).map_err(|e| e.to_string())?;
        if let Some(snap) = snapshot {
            fresh.restore(snap).map_err(|e| e.to_string())?;
        }
        fresh.set_firing_sink(inner.firing_sinks.get(s).cloned());
        fresh.set_log_sink(inner.log_sinks.get(s).cloned());
        fresh.set_event_tap(hist.map(|store| history_tap(Arc::clone(store), s)));
        *applier = Applier::resume(&fresh, base_lsn);
        *db = fresh;
        Ok(())
    })?;
    if let Some(ws) = ws {
        install_log(ws.wal.wal(s)).map_err(|e| e.to_string())?;
        ws.queue_drain(s);
    }
    if let Some(store) = hist {
        store.rebase(base_lsn);
    }
    Ok(())
}

/// Define a shipped class on every shard engine (classes exist on all
/// shards in lockstep) if this replica doesn't have it yet, and record
/// it in the local `schema.wal` so a restart recovers it before the op
/// logs replay.
fn define_spec(inner: &Arc<Shared>, spec: &ClassSpec) -> Flow {
    let Ok(def) = compile_class(spec) else {
        return Flow::Fatal;
    };
    let mut fresh = false;
    for shard in inner.db.shards() {
        let flow = shard.with(|db| {
            match db.define_class(def.clone()) {
                Ok(_) => {
                    fresh = true;
                    Flow::Continue
                }
                // Already defined (schema catch-up re-ships everything).
                Err(ode_db::OdeError::ClassExists(_)) => Flow::Continue,
                Err(_) => Flow::Fatal,
            }
        });
        if let Flow::Fatal = flow {
            return Flow::Fatal;
        }
    }
    if fresh {
        if let Some(ws) = &inner.wal {
            let _ = append_schema(&ws.io, &ws.schema_path, spec);
            // Cascade: re-ship the class to our own downstream replicas
            // (idempotent at the receiver) before any op referencing it
            // can flow through our durable sink — mirroring the
            // primary's DefineClass ordering. A class learned from a
            // handshake's `ReplSnapshot` cascades too: a leaf that
            // registered before we had it must not meet its ops first.
            for s in 0..ws.wal.shard_count() {
                ws.wal.wal(s).frozen(|_| {
                    for rtx in ws.repl_subs[s].lock().values() {
                        let _ = rtx.send(ServerMsg::ReplSchema(spec.clone()));
                    }
                });
            }
        }
    }
    Flow::Continue
}
