//! The server node: configuration, assembly, and lifetime.
//!
//! [`ServerBuilder::start`] recovers the WAL directory (if any),
//! installs the engine's firing, log, and durable sinks, binds the
//! listeners, and hands them to the [`crate::reactor`] — one loop
//! thread owning every socket plus a pool of command workers. What a
//! connection may *say* lives in `crate::session`; how connections
//! are *served* lives in the reactor; this module only wires the parts
//! together and tears them down again.
//!
//! ## Session model
//!
//! Each connection is one *session* holding at most one open
//! transaction. The engine mutex is held only for the duration of each
//! individual command, so sessions interleave at transaction
//! granularity exactly like in-process users of
//! [`ShardedDatabase::run_txn`]: conflicting object access surfaces as a
//! retryable `lock_conflict` error (the engine never blocks on locks, so
//! there is no deadlock), and the client aborts and retries.
//!
//! ## Robustness
//!
//! * The loop sweeps every 25 ms even when no socket is ready, so
//!   shutdown is noticed promptly and idle transactions expire
//!   ([`ServerConfig::txn_idle_timeout`]) — partial lines survive
//!   across readiness events (see [`crate::codec::LineReader`]).
//! * Malformed or overlong lines answer with a structured `id: 0` error
//!   notice; the connection stays open and usable.
//! * A disconnect (or shutdown) aborts the session's open transaction,
//!   releasing its object locks.
//!
//! ## Firing fan-out
//!
//! The engine's firing sink runs with the engine locked, so it must
//! never touch a socket: it serializes the [`Firing`] once and pushes
//! the shared frame onto each subscribed connection's outbox ring. The
//! event loop drains rings to sockets as writability allows, so a slow
//! subscriber delays only itself. Failed deliveries (a closed ring, a
//! dead socket) are counted in the `subscriber_drops` stat rather than
//! silently discarded.
//!
//! ## Roles
//!
//! Durability, the event-history store and replication are roles a
//! node takes on once, here in [`ServerBuilder::start`]: the WAL role
//! (`WalState`, which owns the history stores too) and the replica
//! role (`ReplicaState`, which the replica runner receives at spawn).
//! The command layer never works them out again: a command that needs
//! a role borrows it through one typed lookup (`Shared::durable`,
//! `Shared::history`, `Shared::replica`) that refuses with the role's
//! wire code when the node lacks it.
//!
//! ## Durability
//!
//! With [`ServerBuilder::wal_dir`], the server recovers the directory
//! on startup (wire-defined classes from its [`ode_db::SchemaLog`], then the latest
//! checkpoint plus log tail via [`ode_db::DiskWal`]) and streams every
//! subsequent engine op back out through the engine's log sink. The
//! sink notes each append's LSN on the committing thread; that one
//! channel gives the `Commit` ack the records to wait for and pairs
//! each history batch with the commit record that makes it durable. A
//! WAL write or fsync failure degrades gracefully: the offending
//! session's transaction is aborted, the command answers a retryable
//! `wal` error, and the server latches **read-only** (mutating commands
//! are refused; reads, aborts, and subscriptions keep working) instead
//! of panicking or serving un-durable writes.

use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::os::unix::net::UnixListener;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use ode_db::engine::{EventTap, FiringSink, LogSink};
use ode_db::replication::Applier;
use ode_db::{
    recover_shard, shard_dir, Batch, Database, DurableRecord, EpochRecord, EpochTable,
    FiringNotice, HistConfig, HistStore, LogOp, SchemaLog, ShardedDatabase, ShardedWal,
    SharedDatabase, SharedIo, StdIo, TapEvent, TxnId, WalConfig, WalFlusher,
};
use parking_lot::Mutex;

use crate::background::Background;
use crate::protocol::{hex_encode, Firing, ServerMsg, WireError};
use crate::reactor::event_loop::{start as start_reactor, ListenSocket, ReactorHandle};
use crate::reactor::outbox::{broadcast, ConnOutbox};
use crate::repl::{run_replica, ReplSource, ReplicaState, StreamFault};
use crate::session::{note_commit_lsn, noted_lsn};

/// Server tuning knobs.
#[derive(Clone, Debug)]
pub struct ServerConfig {
    /// Maximum request-line length in bytes; longer lines are discarded
    /// with an `overlong` notice.
    pub max_line_bytes: usize,
    /// Abort a session's open transaction after this much inactivity
    /// (`None` disables the timer).
    pub txn_idle_timeout: Option<Duration>,
    /// Refuse connections past this count with a typed `server_full`
    /// notice instead of accepting and stalling (`None` = unlimited).
    pub max_conns: Option<u64>,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            max_line_bytes: 256 * 1024,
            txn_idle_timeout: None,
            max_conns: None,
        }
    }
}

/// Connections registered for a broadcast (firings, or one shard's
/// replication stream), keyed by connection id.
type Subscribers = Arc<Mutex<HashMap<u64, Arc<ConnOutbox>>>>;

/// The WAL role: the node's durability state and its event history
/// (present when started with a WAL dir).
pub(crate) struct WalState {
    /// One WAL stream per engine shard (internally synchronized; the
    /// engine lock is only ever held around the cheap buffer+assign-LSN
    /// step, never an fsync). Unsharded servers run a single stream in
    /// the legacy flat layout.
    pub(crate) wal: ShardedWal,
    pub(crate) io: SharedIo,
    /// The WAL root directory; `Replicate` handshakes re-scan the
    /// per-shard subdirectories under it.
    pub(crate) dir: PathBuf,
    /// The directory's schema log: one `ClassSpec` per wire-defined
    /// class, replayed (in `ClassId` order) before the op WAL on
    /// recovery, and held in memory since start, so a `Replicate`
    /// handshake never re-reads the file. Shared by every shard —
    /// classes are defined on all shards in lockstep.
    pub(crate) schema: Mutex<SchemaLog>,
    /// Latched after the first WAL write/fsync failure: mutating
    /// commands answer a retryable `wal` error until restart.
    pub(crate) read_only: AtomicBool,
    /// Replication subscribers, one map per shard: connections that
    /// sent `Replicate`. Each shard's durable sink ships its records to
    /// its own map (under that shard's disk lock), so live shipping
    /// serializes with that shard's `frozen` handshake and a primary
    /// crash can never have shipped a record recovery then loses. The
    /// maps are per shard because a handshake registers with each shard
    /// stream only after scanning *that* shard's history.
    pub(crate) repl_subs: Vec<Subscribers>,
    /// Wall-clock milliseconds startup recovery spent replaying the
    /// WAL (the slowest shard — shards recover in parallel).
    pub(crate) recovery_ms: u64,
    /// Segment files replayed by startup recovery, all shards.
    pub(crate) segments_replayed: u64,
    /// Where bulk work runs: history scans and the drains of the files
    /// checkpoints superseded (see [`crate::background`]).
    pub(crate) background: Background,
    /// Per-shard event-history stores, each fed by its shard engine's
    /// [`history_tap`]; empty unless started with
    /// [`ServerBuilder::history`]. History is part of the WAL role:
    /// ingestion waits for the log's durable watermark, and a store
    /// that lost its tail rebuilds from the log.
    pub(crate) hist: Vec<Arc<HistStore>>,
}

impl WalState {
    /// Queue one drain of shard `s`'s retire queue on the background
    /// thread. A failed drain leaves its names queued for the next one
    /// (`archive_lag_segments` counts them meanwhile).
    pub(crate) fn queue_drain(&self, s: usize) {
        let wal = self.wal.wal(s).clone();
        self.background.submit(move || {
            let _ = wal.drain_retired();
        });
    }

    /// [`WalState::queue_drain`] for every shard.
    pub(crate) fn queue_drains(&self) {
        for s in 0..self.wal.shard_count() {
            self.queue_drain(s);
        }
    }
}

/// The node's primary-election epoch state: the durable
/// [`EpochTable`] (when a WAL directory exists), an atomic mirror of
/// the node's *history* epoch for lock-free stamping on the shipping
/// path, and the deposed latch.
///
/// Two different epochs matter. The **history epoch** is the highest
/// `EpochBump` the node's own log contains — it describes the lineage
/// of the records the node holds and ships, so handshake claims,
/// `ReplOp` stamps, and fence arithmetic all use it. The **observed
/// epoch** additionally counts epochs the node has merely *heard of*
/// (a handshake claim, a heartbeat stamp, an explicit `Demote`);
/// when it runs ahead of the history epoch the node is *deposed*:
/// a newer primary exists whose history this node has not caught up
/// to, so its write authority is revoked and it refuses to serve
/// `Replicate` until it rejoins as a replica.
pub(crate) struct EpochState {
    /// Mirror of the table's history epoch (see above). Monotone.
    cell: Arc<AtomicU64>,
    /// `observed > history`: write authority revoked.
    deposed: AtomicBool,
    table: Mutex<EpochTable>,
    /// Where table records persist (`None` without a WAL directory —
    /// fencing still works, but only for the process lifetime).
    store: Option<(SharedIo, PathBuf)>,
    /// Frames and handshakes refused for carrying a stale epoch.
    pub(crate) stale_rejections: AtomicU64,
}

impl EpochState {
    fn new(table: EpochTable, store: Option<(SharedIo, PathBuf)>) -> EpochState {
        EpochState {
            cell: Arc::new(AtomicU64::new(table.history_epoch())),
            deposed: AtomicBool::new(table.is_deposed()),
            table: Mutex::new(table),
            store,
            stale_rejections: AtomicU64::new(0),
        }
    }

    /// The highest epoch whose bump record this node's history holds.
    pub(crate) fn history_epoch(&self) -> u64 {
        self.cell.load(Ordering::SeqCst)
    }

    /// The highest epoch this node has heard of by any means.
    pub(crate) fn observed_epoch(&self) -> u64 {
        self.table.lock().epoch()
    }

    pub(crate) fn is_deposed(&self) -> bool {
        self.deposed.load(Ordering::SeqCst)
    }

    /// A clone of the history-epoch cell for capture in sink closures.
    pub(crate) fn cell(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.cell)
    }

    fn refresh(&self, table: &EpochTable) {
        self.cell.store(table.history_epoch(), Ordering::SeqCst);
        self.deposed.store(table.is_deposed(), Ordering::SeqCst);
    }

    fn persist(&self, recs: &[EpochRecord]) -> Result<(), String> {
        if let Some((io, dir)) = &self.store {
            EpochTable::append(io, dir, recs).map_err(|e| e.to_string())?;
        }
        Ok(())
    }

    /// Record that `epoch` exists somewhere (handshake claim,
    /// heartbeat stamp, or explicit `Demote`). Latches the deposed
    /// flag *before* attempting persistence — losing the durable
    /// record on a crash is recoverable (the fence check catches the
    /// node when it rejoins), serving writes from a known-deposed
    /// node is not.
    pub(crate) fn observe(&self, epoch: u64) -> Result<(), String> {
        let mut table = self.table.lock();
        let Some(rec) = table.record_deposed(epoch) else {
            return Ok(());
        };
        self.refresh(&table);
        self.persist(&[rec])
    }

    /// Record a durable epoch start: `EpochBump { epoch }` sits at
    /// `lsn` in shard `shard`'s log.
    pub(crate) fn note_start(&self, epoch: u64, shard: u64, lsn: u64) -> Result<(), String> {
        let mut table = self.table.lock();
        if let Some(rec) = table.record_start(epoch, shard, lsn) {
            self.persist(&[rec])?;
        }
        self.refresh(&table);
        Ok(())
    }

    /// Record that fork healing discarded shard `shard`'s local log.
    pub(crate) fn note_reset(&self, shard: u64) -> Result<(), String> {
        let mut table = self.table.lock();
        let rec = table.record_reset(shard);
        self.refresh(&table);
        self.persist(&[rec])
    }

    /// The LSN of the first bump past `than_epoch` in shard `shard` —
    /// the last log position a `than_epoch` follower may share.
    pub(crate) fn fence_lsn(&self, shard: u64, than_epoch: u64) -> Option<u64> {
        self.table.lock().fence_lsn(shard, than_epoch)
    }
}

pub(crate) struct Shared {
    pub(crate) db: ShardedDatabase,
    pub(crate) config: ServerConfig,
    pub(crate) shutdown: AtomicBool,
    pub(crate) subs: Subscribers,
    pub(crate) next_conn: AtomicU64,
    /// The durability role (with the history store inside it), present
    /// when started with a WAL directory. Commands that need it borrow
    /// it through [`Shared::durable`] or [`Shared::history`].
    pub(crate) wal: Option<Arc<WalState>>,
    /// Primary-election epoch state (always present; durable when the
    /// server has a WAL directory).
    pub(crate) epochs: Arc<EpochState>,
    /// Firing notifications that never reached a subscriber (outbox
    /// gone or socket write failed).
    pub(crate) subscriber_drops: Arc<AtomicU64>,
    /// Live connections.
    pub(crate) conns_open: AtomicU64,
    /// Connections refused by the `max_conns` accept guard.
    pub(crate) conns_rejected: AtomicU64,
    /// The replica role when started with `replicate_from`; commands
    /// that need it borrow it through [`Shared::replica`].
    pub(crate) repl: Option<Arc<ReplicaState>>,
    /// The installed per-shard sinks, kept so the replica runner can
    /// re-install them after rebuilding a shard's engine for a
    /// snapshot jump.
    pub(crate) log_sinks: Vec<LogSink>,
    pub(crate) firing_sinks: Vec<FiringSink>,
}

impl Shared {
    /// The WAL role, or the `no_wal` refusal.
    pub(crate) fn durable(&self) -> Result<&WalState, WireError> {
        self.wal
            .as_deref()
            .ok_or_else(|| WireError::new("no_wal", "server was started without a WAL directory"))
    }

    /// The WAL role of a node that keeps event history, or the
    /// `no_history` refusal.
    pub(crate) fn history(&self) -> Result<&WalState, WireError> {
        self.wal
            .as_deref()
            .filter(|ws| !ws.hist.is_empty())
            .ok_or_else(|| {
                WireError::new(
                    "no_history",
                    "server was started without --history; the event-history store is off",
                )
            })
    }

    /// The replica role, or the `not_replica` refusal.
    pub(crate) fn replica(&self) -> Result<&ReplicaState, WireError> {
        self.repl.as_deref().ok_or_else(|| {
            WireError::new("not_replica", "this server was not started as a replica")
        })
    }
}

/// The engine event tap that feeds shard `s`'s history store. The
/// engine calls it on the committing thread, right after that thread's
/// log sink appended the commit record, so the LSN this thread last
/// noted for `s` is the commit record's: each history batch is paired
/// with the WAL position that makes it durable.
pub(crate) fn history_tap(store: Arc<HistStore>, s: usize) -> EventTap {
    Arc::new(move |txn: TxnId, now: u64, events: &[TapEvent]| {
        store.submit(Batch {
            lsn: noted_lsn(s),
            txn: txn.0,
            time: now,
            events: events.to_vec(),
        });
    })
}

/// Configures and starts a [`Server`].
pub struct ServerBuilder {
    db: SharedDatabase,
    shards: usize,
    config: ServerConfig,
    tcp: Option<String>,
    unix: Option<PathBuf>,
    wal_dir: Option<PathBuf>,
    wal_config: WalConfig,
    wal_io: Option<SharedIo>,
    replicate_from: Vec<ReplSource>,
    repl_fault_plan: HashMap<u64, StreamFault>,
    history: bool,
    hist_config: HistConfig,
}

impl ServerBuilder {
    /// Serve TCP on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral port;
    /// read the bound address back with [`Server::tcp_addr`]).
    pub fn tcp(mut self, addr: impl Into<String>) -> Self {
        self.tcp = Some(addr.into());
        self
    }

    /// Serve a Unix-domain socket at `path` (a stale socket file is
    /// removed first).
    pub fn unix(mut self, path: impl Into<PathBuf>) -> Self {
        self.unix = Some(path.into());
        self
    }

    /// Override the default [`ServerConfig`].
    pub fn config(mut self, config: ServerConfig) -> Self {
        self.config = config;
        self
    }

    /// Admit at most `n` concurrent connections; beyond that, new
    /// clients are answered with a retryable `server_full` notice and
    /// closed (counted in [`crate::WireStats::conns_rejected`]).
    pub fn max_conns(mut self, n: u64) -> Self {
        self.config.max_conns = Some(n);
        self
    }

    /// Hash-partition objects and trigger state into `n` engine shards,
    /// each with its own engine lock, WAL segment stream, and
    /// group-commit flusher, so single-shard transactions run fully
    /// parallel end to end. The database handle given to
    /// [`Server::builder`] becomes shard 0 (external clones of it stay
    /// live); shards 1..n start empty, so with `n > 1` define classes
    /// through the wire (or pre-populate every shard), not on the
    /// handle alone. A WAL directory written with one shard count
    /// refuses to reopen with another.
    pub fn shards(mut self, n: usize) -> Self {
        assert!(n > 0, "at least one shard");
        self.shards = n;
        self
    }

    /// Persist every engine op to a write-ahead log under `dir`. On
    /// start the directory is recovered first: wire-defined classes
    /// replay from its schema log ([`ode_db::SchemaLog`]), then the
    /// newest checkpoint restores
    /// and the log tail replays on top of it.
    pub fn wal_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.wal_dir = Some(dir.into());
        self
    }

    /// Override the default [`WalConfig`] (segment size, fsync policy).
    /// Only meaningful together with [`ServerBuilder::wal_dir`].
    pub fn wal_config(mut self, cfg: WalConfig) -> Self {
        self.wal_config = cfg;
        self
    }

    /// Archive the WAL segments a checkpoint supersedes (compressed,
    /// CRC-framed, under each shard directory's `archive/`) before
    /// unlinking them. The server's idle-priority background thread —
    /// which removes superseded files in either mode — does the
    /// compression, and unlinks a segment only once its archive is
    /// fsync-durable. Enables point-in-time restore and
    /// archive-based replica catch-up. Only meaningful together with
    /// [`ServerBuilder::wal_dir`].
    pub fn wal_archive(mut self, on: bool) -> Self {
        self.wal_config.archive = on;
        self
    }

    /// Override the WAL's I/O layer (fault injection in tests). Only
    /// meaningful together with [`ServerBuilder::wal_dir`].
    pub fn wal_io(mut self, io: SharedIo) -> Self {
        self.wal_io = Some(io);
        self
    }

    /// Maintain a per-shard append-only columnar store of the committed
    /// event stream (`hist/` under each shard's WAL directory), serving
    /// [`crate::Command::Query`] and retroactive trigger activation
    /// (`Activate { replay_history: true }`). Requires
    /// [`ServerBuilder::wal_dir`]: ingestion is gated on WAL
    /// durability, and a store that lost its tail rebuilds from the
    /// log. Off by default — without it the engine's event tap stays
    /// uninstalled and the commit path is untouched.
    pub fn history(mut self, on: bool) -> Self {
        self.history = on;
        self
    }

    /// Override the default [`HistConfig`] (rows per sealed segment).
    /// Only meaningful together with [`ServerBuilder::history`].
    pub fn hist_config(mut self, cfg: HistConfig) -> Self {
        self.hist_config = cfg;
        self
    }

    /// Run as a read replica of the node at `source`: refuse
    /// mutations with `read_only_replica`, tail the upstream's WAL
    /// stream, and serve reads, stats, and subscriptions from the
    /// applied state. Combine with [`ServerBuilder::wal_dir`] to give
    /// the replica a local log for catch-up restart.
    ///
    /// The upstream may itself be a replica (a cascading tree): any
    /// WAL-backed node re-serves `Replicate` from its re-logged local
    /// log. Call this repeatedly to list fallback upstreams; when the
    /// current one dies (or turns out stale), the runner rotates to
    /// the next under its capped-jitter backoff (re-parenting).
    pub fn replicate_from(mut self, source: ReplSource) -> Self {
        self.replicate_from.push(source);
        self
    }

    /// Inject deterministic faults into the replication stream, keyed
    /// by received-record count (see [`StreamFault`]). Test hook; only
    /// meaningful together with [`ServerBuilder::replicate_from`].
    pub fn repl_fault_plan(mut self, plan: HashMap<u64, StreamFault>) -> Self {
        self.repl_fault_plan = plan;
        self
    }

    /// Recover the WAL directory (if configured), install the firing
    /// and log sinks, bind the listeners, and start the reactor.
    pub fn start(self) -> std::io::Result<Server> {
        let is_replica = !self.replicate_from.is_empty();
        let n = self.shards;
        if self.history && self.wal_dir.is_none() {
            return Err(std::io::Error::other(
                "history requires a WAL directory: ingestion is durability-gated \
                 and a lost store tail rebuilds by replaying the log",
            ));
        }
        // Shard 0 is the caller's handle (its external clones stay
        // live); the rest start empty.
        let mut handles = vec![self.db];
        for _ in 1..n {
            handles.push(SharedDatabase::new(Database::new()));
        }
        // Recover *before* installing the log sinks: replayed ops must
        // not be re-appended to the logs they came from. Every shard
        // comes up through [`ode_db::recover_shard`]; a replica keeps the
        // returned appliers so the id maps of transactions its local
        // logs left open stay live for the stream to resume
        // mid-transaction.
        let mut appliers: Vec<Applier> = (0..n).map(|_| Applier::new()).collect();
        let mut epoch_table = EpochTable::new();
        let mut epoch_store: Option<(SharedIo, PathBuf)> = None;
        let wal = match &self.wal_dir {
            None => None,
            Some(dir) => {
                // An injected io (fault plans in tests) is shared by
                // every shard so the plan sees all traffic; the default
                // gives each shard its own handle, so shard flushers
                // fsync in parallel instead of queuing on one io mutex.
                let fresh_io = || SharedIo::new(StdIo::new());
                let ios: Vec<SharedIo> = (0..n)
                    .map(|_| self.wal_io.clone().unwrap_or_else(fresh_io))
                    .collect();
                let io = ios[0].clone();
                // A replica recovers without cross-shard reconciliation
                // (see [`ShardedWal::open`]).
                let (wal, recovery) = ShardedWal::open(dir, self.wal_config, ios, !is_replica)
                    .map_err(|e| std::io::Error::other(e.to_string()))?;
                // Shards recover in parallel, so the user-visible
                // recovery time is the slowest shard's, not the sum.
                let recovery_ms = recovery
                    .shards
                    .iter()
                    .map(|r| r.report.total_us / 1_000)
                    .max()
                    .unwrap_or(0);
                let segments_replayed = recovery
                    .shards
                    .iter()
                    .map(|r| r.report.segments.len() as u64)
                    .sum();
                // Load the epoch table and heal the promote crash
                // window: a bump that reached a shard WAL but not the
                // table (crash between the two appends) is merged back
                // in from the recovered ops, so the node always comes
                // back at the epoch its log proves — never an older
                // one.
                epoch_table =
                    EpochTable::load(&io, dir).map_err(|e| std::io::Error::other(e.to_string()))?;
                for (s, rec) in recovery.shards.iter().enumerate() {
                    let fresh = epoch_table.merge_bumps(s as u64, rec.base_lsn, &rec.ops);
                    EpochTable::append(&io, dir, &fresh)
                        .map_err(|e| std::io::Error::other(e.to_string()))?;
                }
                epoch_store = Some((io.clone(), dir.clone()));
                let schema =
                    SchemaLog::load(&io, dir).map_err(|e| std::io::Error::other(e.to_string()))?;
                let mut hist: Vec<Arc<HistStore>> = Vec::new();
                for (s, rec) in recovery.shards.iter().enumerate() {
                    let head = rec.base_lsn + rec.ops.len() as u64;
                    if self.history {
                        // A shard with a demoted Commit2pc had that
                        // record rewritten to an Abort in memory only —
                        // sealed history at or past the recovered base
                        // may contain the phantom commit, so rebuild
                        // everything the snapshot doesn't cover.
                        let demoted = recovery.report.demoted.iter().any(|(ds, _)| *ds == s);
                        let valid_excl = if demoted { rec.base_lsn } else { head };
                        let hdir = shard_dir(dir, s, n).join("hist");
                        let store = HistStore::open(&hdir, self.hist_config, valid_excl)
                            .map_err(|e| std::io::Error::other(e.to_string()))?;
                        // History backfill: the recovered tail is on
                        // disk by definition, so durability is
                        // pre-advanced over all of it; the tap goes in
                        // *before* replay so re-applied ops re-submit
                        // their batches — the store drops everything
                        // below its rebuild cursor, so only the lost
                        // suffix re-indexes, with identical rows.
                        if head > 0 {
                            store.advance_durable_through(head - 1);
                        }
                        hist.push(Arc::new(store));
                    }
                    // Replay notes each op's LSN where the tap reads it,
                    // as the log sink does for a live commit.
                    appliers[s] = handles[s]
                        .with(|db| -> Result<Applier, String> {
                            if let Some(store) = hist.get(s) {
                                db.set_event_tap(Some(history_tap(Arc::clone(store), s)));
                            }
                            let applier = recover_shard(db, schema.specs(), rec, |lsn| {
                                note_commit_lsn(s, lsn)
                            })
                            .map_err(|e| e.to_string())?;
                            if let Some(store) = hist.get(s) {
                                for (code, name) in db.class_names().iter().enumerate() {
                                    store.observe_class(code as u32, name);
                                }
                            }
                            Ok(applier)
                        })
                        .map_err(std::io::Error::other)?;
                }
                Some(Arc::new(WalState {
                    wal,
                    io,
                    dir: dir.clone(),
                    schema: Mutex::new(schema),
                    read_only: AtomicBool::new(false),
                    repl_subs: (0..n)
                        .map(|_| Arc::new(Mutex::new(HashMap::new())))
                        .collect(),
                    recovery_ms,
                    segments_replayed,
                    background: Background::spawn()?,
                    hist,
                }))
            }
        };
        // Checkpoints sweep bump records out of the log, so the
        // appliers' fencing cursors floor at the table's history
        // epoch rather than whatever bumps the recovered tail held.
        for a in appliers.iter_mut() {
            a.set_epoch(epoch_table.history_epoch());
        }
        let epochs = Arc::new(EpochState::new(epoch_table, epoch_store));
        // Wrap the recovered engines; the global commit sequence
        // resumes above every shard's recovered floor.
        let db = ShardedDatabase::from_shared(handles);

        let mut log_sinks: Vec<LogSink> = Vec::new();
        let mut wal_flushers = Vec::new();
        if let Some(ws) = &wal {
            for s in 0..n {
                // Shipping happens in each shard's durable sink:
                // records reach that shard's replication subscribers
                // only once its durable watermark covers them, so a
                // primary crash can never have shipped a record its own
                // recovery then loses. The sink runs under the shard
                // WAL's disk lock — the same lock its `frozen`
                // handshake holds — so the handoff from history to live
                // stream has no gap and no duplicate. Capturing only
                // the subscriber map (not the WalState) keeps the WAL
                // out of an Arc cycle.
                let sink_subs = Arc::clone(&ws.repl_subs[s]);
                let sink_hist = ws.hist.get(s).cloned();
                let sink_epoch = epochs.cell();
                let shard = s as u64;
                ws.wal.wal(s).set_durable_sink(Some(Arc::new(
                    move |records: &[DurableRecord]| {
                        // The history indexer applies a batch only once
                        // the WAL covers its LSN; this watermark bump is
                        // a mutex store + notify, cheap enough for the
                        // flushing thread.
                        if let (Some(store), Some(last)) = (&sink_hist, records.last()) {
                            store.advance_durable_through(last.lsn);
                        }
                        let subs = sink_subs.lock();
                        if subs.is_empty() || records.is_empty() {
                            return;
                        }
                        let head = records.last().expect("non-empty").lsn + 1;
                        let epoch = sink_epoch.load(Ordering::SeqCst);
                        for r in records {
                            // Serialized once per record no matter how
                            // many replicas tail this shard.
                            broadcast(
                                &subs,
                                &ServerMsg::ReplOp {
                                    shard,
                                    lsn: r.lsn,
                                    head,
                                    frame: hex_encode(&r.frame),
                                    epoch,
                                },
                            );
                        }
                    },
                )));
                // Runs with the shard's engine locked, on the
                // committing thread. It only buffers and assigns the
                // LSN — the write and fsync happen on the shard's
                // flusher thread, and the session waits for them
                // *outside* every lock (see `Command::Commit`). The
                // LSN is noted on this thread, the one channel both the
                // `Commit` ack and the history tap read. Errors poison
                // that shard's wal; the next mutating command surfaces
                // them from `handle_request`.
                let sink_wal = ws.wal.wal(s).clone();
                let sink: LogSink = Arc::new(move |op: &LogOp| {
                    if let Ok(lsn) = sink_wal.append(op) {
                        note_commit_lsn(s, lsn);
                    }
                });
                log_sinks.push(Arc::clone(&sink));
                db.shard(s).with(|db| db.set_log_sink(Some(sink)));
            }
            wal_flushers = ws.wal.start_flushers();
            // The files recovery re-retired.
            ws.queue_drains();
        }

        let subscriber_drops = Arc::new(AtomicU64::new(0));
        let subs: Subscribers = Arc::new(Mutex::new(HashMap::new()));
        let mut firing_sinks: Vec<FiringSink> = Vec::new();
        for s in 0..n {
            let sink_subs = Arc::clone(&subs);
            let sink_drops = Arc::clone(&subscriber_drops);
            let sink: FiringSink = Arc::new(move |notice: &FiringNotice| {
                // This closure runs with the engine locked: serialize
                // the frame once, then fan out pointer pushes only —
                // the event loop does the socket I/O.
                let subs = sink_subs.lock();
                if subs.is_empty() {
                    return;
                }
                let msg = ServerMsg::Firing(Firing::from_notice(notice, s, n));
                let refused = broadcast(&subs, &msg);
                if refused > 0 {
                    sink_drops.fetch_add(refused, Ordering::Relaxed);
                }
            });
            firing_sinks.push(Arc::clone(&sink));
            db.shard(s).with(|db| db.set_firing_sink(Some(sink)));
        }

        let repl = is_replica.then(|| {
            Arc::new(ReplicaState::new(
                appliers.iter().map(|a| a.next_lsn()).collect(),
            ))
        });
        let inner = Arc::new(Shared {
            db,
            config: self.config,
            shutdown: AtomicBool::new(false),
            subs,
            next_conn: AtomicU64::new(0),
            wal,
            epochs,
            subscriber_drops,
            conns_open: AtomicU64::new(0),
            conns_rejected: AtomicU64::new(0),
            repl: repl.clone(),
            log_sinks,
            firing_sinks,
        });

        let repl_thread = repl.map(|rs| {
            let inner = Arc::clone(&inner);
            let sources = self.replicate_from;
            let plan = self.repl_fault_plan;
            thread::spawn(move || run_replica(inner, rs, sources, appliers, plan))
        });

        // From here on a failure drops `server`, whose shutdown stops
        // every thread started above.
        let mut server = Server {
            inner,
            reactor: None,
            repl_thread,
            wal_flushers,
            tcp_addr: None,
            unix_path: None,
            stopped: false,
        };
        let mut listeners: Vec<ListenSocket> = Vec::new();
        if let Some(addr) = &self.tcp {
            let listener = TcpListener::bind(addr.as_str())?;
            listener.set_nonblocking(true)?;
            server.tcp_addr = Some(listener.local_addr()?);
            listeners.push(ListenSocket::Tcp(listener));
        }
        if let Some(path) = &self.unix {
            if path.exists() {
                let _ = std::fs::remove_file(path);
            }
            let listener = UnixListener::bind(path)?;
            server.unix_path = Some(path.clone());
            listener.set_nonblocking(true)?;
            listeners.push(ListenSocket::Unix(listener));
        }
        if !listeners.is_empty() {
            server.reactor = Some(start_reactor(Arc::clone(&server.inner), listeners)?);
        }
        Ok(server)
    }
}

/// A running server. Dropping it shuts it down (joining all threads).
pub struct Server {
    inner: Arc<Shared>,
    reactor: Option<ReactorHandle>,
    repl_thread: Option<JoinHandle<()>>,
    wal_flushers: Vec<WalFlusher>,
    tcp_addr: Option<SocketAddr>,
    unix_path: Option<PathBuf>,
    stopped: bool,
}

impl Server {
    /// Start configuring a server over `db`, which becomes shard 0 of
    /// [`Server::db`] (see [`ServerBuilder::shards`]). Installs the
    /// engine's firing sink on [`ServerBuilder::start`].
    pub fn builder(db: SharedDatabase) -> ServerBuilder {
        ServerBuilder {
            db,
            shards: 1,
            config: ServerConfig::default(),
            tcp: None,
            unix: None,
            wal_dir: None,
            wal_config: WalConfig::default(),
            wal_io: None,
            replicate_from: Vec::new(),
            repl_fault_plan: HashMap::new(),
            history: false,
            hist_config: HistConfig::default(),
        }
    }

    /// The bound TCP address, if TCP was requested.
    pub fn tcp_addr(&self) -> Option<SocketAddr> {
        self.tcp_addr
    }

    /// The Unix socket path, if one was requested.
    pub fn unix_path(&self) -> Option<&Path> {
        self.unix_path.as_deref()
    }

    /// The server's database: every shard, behind the same coordinator
    /// the sessions use.
    pub fn db(&self) -> &ShardedDatabase {
        &self.inner.db
    }

    /// A shard's event-history store (`None` when started without
    /// [`ServerBuilder::history`] or out of range). Test/bench hook.
    pub fn hist(&self, shard: usize) -> Option<Arc<HistStore>> {
        self.inner.wal.as_ref()?.hist.get(shard).cloned()
    }

    /// Graceful shutdown: stop accepting, wake every session (each
    /// aborts its open transaction), join all threads, uninstall the
    /// firing sink, and remove the Unix socket file.
    pub fn shutdown(&mut self) {
        if self.stopped {
            return;
        }
        self.stopped = true;
        self.inner.shutdown.store(true, Ordering::SeqCst);
        if let Some(h) = self.repl_thread.take() {
            let _ = h.join();
        }
        if let Some(r) = self.reactor.take() {
            r.stop();
        }
        for shard in self.inner.db.shards() {
            shard.with(|db| {
                db.set_firing_sink(None);
                db.set_log_sink(None);
                db.set_event_tap(None);
            });
        }
        // Every session is gone, so no more appends: drain the pending
        // queues (each flusher's stop does a final flush), then push
        // any `Never`-policy unsynced bytes to disk, best effort.
        for f in self.wal_flushers.drain(..) {
            f.stop();
        }
        // The background thread stops last (after the final sync), with
        // one more drain per shard queued: files retired by a late
        // checkpoint are still removed (archived first in archive mode)
        // before the process exits.
        if let Some(ws) = &self.inner.wal {
            let _ = ws.wal.sync_all();
            for w in ws.wal.wals() {
                w.set_durable_sink(None);
            }
            ws.queue_drains();
            ws.background.shutdown();
        }
        if let Some(p) = &self.unix_path {
            let _ = std::fs::remove_file(p);
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}
