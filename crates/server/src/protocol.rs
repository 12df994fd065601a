//! The wire protocol: newline-delimited JSON, one [`Request`] per line
//! from client to server, one [`ServerMsg`] per line back.
//!
//! Every request carries a client-chosen `id`; the server answers each
//! request with exactly one `Reply` echoing that id. Connections that
//! have sent [`Command::Subscribe`] additionally receive unsolicited
//! [`ServerMsg::Firing`] lines as triggers fire, interleaved between
//! replies. Unsolicited *error* notices (malformed line, line-length
//! overflow, idle-transaction timeout) are delivered as replies with
//! `id: 0` — clients never use 0 as a request id.
//!
//! All types serialize with serde's externally-tagged enum
//! representation: a unit variant is its name as a JSON string
//! (`"Ping"`), a payload variant is a one-key object
//! (`{"Begin":{"user":"alice"}}`).

use ode_core::{MaskError, Value};
use ode_db::OdeError;
use serde::{Deserialize, Serialize};

use crate::spec::ClassSpec;

/// A client request: a client-chosen correlation id (must be non-zero)
/// plus the command.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Request {
    /// Correlation id echoed in the reply. `0` is reserved for
    /// unsolicited server notices.
    pub id: u64,
    /// The command to execute.
    pub cmd: Command,
}

/// The command surface — the full paper API of the in-process engine.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Command {
    /// Liveness check.
    Ping,
    /// Define a class from a declarative spec (trigger events in the
    /// paper's §3 surface syntax, method bodies in the mask expression
    /// grammar).
    DefineClass(ClassSpec),
    /// Begin a transaction as `user`; the session may hold at most one
    /// open transaction. A `user` nested deeper than
    /// [`ode_core::MAX_VALUE_DEPTH`] records is refused (`bad_value`),
    /// as are such arguments of `New`, `Call` and `Activate`.
    Begin {
        /// The transaction's user value (readable through `user()`).
        user: Value,
    },
    /// Commit the session's open transaction.
    Commit,
    /// Abort the session's open transaction (idempotent: aborting a
    /// transaction the engine already finalized succeeds).
    Abort,
    /// Create an object (requires an open transaction).
    New {
        /// Class name.
        class: String,
        /// Field overrides applied over the class defaults.
        overrides: Vec<(String, Value)>,
    },
    /// Invoke a member function (requires an open transaction).
    Call {
        /// Target object id.
        object: u64,
        /// Method name.
        method: String,
        /// Positional arguments.
        args: Vec<Value>,
    },
    /// Delete an object (requires an open transaction).
    Delete {
        /// Target object id.
        object: u64,
    },
    /// Activate a trigger on an object (requires an open transaction).
    Activate {
        /// Target object id.
        object: u64,
        /// Trigger name.
        trigger: String,
        /// Activation parameters.
        params: Vec<Value>,
        /// Retroactive activation: replay the object's indexed event
        /// history through the trigger's automaton first, firing on
        /// past occurrences ([`ServerMsg::Firing`] lines with `retro`
        /// set) and installing the resulting monitoring state — as if
        /// the trigger had been active since inception. Requires the
        /// server to run with `--history`; the reply is
        /// [`Reply::Replayed`] instead of [`Reply::Unit`].
        replay_history: bool,
    },
    /// Deactivate a trigger on an object (requires an open transaction).
    Deactivate {
        /// Target object id.
        object: u64,
        /// Trigger name.
        trigger: String,
    },
    /// Advance the virtual clock by `ms` milliseconds.
    AdvanceClockBy {
        /// Milliseconds to advance by.
        ms: u64,
    },
    /// Advance the virtual clock to an absolute time.
    AdvanceClockTo {
        /// Target virtual time in milliseconds.
        ms: u64,
    },
    /// Snapshot the quiescent store to JSON.
    Snapshot,
    /// Restore a snapshot previously taken with [`Command::Snapshot`]
    /// (the classes must already be defined).
    Restore {
        /// The snapshot JSON.
        snapshot: String,
    },
    /// Durably checkpoint the store into the server's WAL directory and
    /// truncate the log it supersedes. Requires the server to have been
    /// started with a WAL (`--wal-dir`) and a quiescent engine (no open
    /// transactions).
    Checkpoint,
    /// Read the engine counters and clock.
    Stats,
    /// Start streaming trigger-firing notifications to this connection.
    Subscribe,
    /// Stop streaming trigger-firing notifications.
    Unsubscribe,
    /// Drain the database output log.
    TakeOutput,
    /// Read one field of an object without posting events.
    PeekField {
        /// Target object id.
        object: u64,
        /// Field name.
        field: String,
    },
    /// Turn this connection into a replication stream: the server (which
    /// must have a WAL) replies [`Reply::Replicating`] and then feeds the
    /// connection [`ServerMsg::ReplSnapshot`] followed by every WAL
    /// record from the negotiated start LSN onward, live, interleaved
    /// with [`ServerMsg::ReplHeartbeat`] lines. Sent by a replica server,
    /// not by ordinary clients.
    Replicate {
        /// Per-shard: the first LSN the replica still needs from that
        /// shard's stream (its local head). The vector length must
        /// match the primary's shard count, and no entry may exceed
        /// that shard's head. A single-shard replica sends one entry.
        from_lsns: Vec<u64>,
        /// The highest epoch the replica has observed. A claim *above*
        /// the server's own epoch deposes the server (another primary
        /// was elected past it); a claim *below* it triggers the
        /// per-shard fork fence check against the epoch table.
        epoch: u64,
    },
    /// Promote a replica to writable: stop the tailing loop, abort
    /// transactions the stream left open, durably bump the epoch
    /// (`LogOp::EpochBump` in every shard WAL + the epoch table), and
    /// accept mutations from then on. Fails with `not_replica` on a
    /// server that never replicated, and with `promote_lagging` when
    /// un-applied records are known to exist upstream unless `force`.
    Promote {
        /// Promote even when `replica_lag_lsn > 0`, accepting the loss
        /// of the un-applied tail.
        force: bool,
    },
    /// Tell a server it has been deposed: epoch `epoch` exists
    /// elsewhere. If `epoch` is above the server's own, it latches
    /// read-only (typed `deposed` on mutations) until its history
    /// catches up under a new parent. Idempotent; never mutates data.
    Demote {
        /// The higher epoch being announced.
        epoch: u64,
    },
    /// Query the committed event history (requires `--history`). Every
    /// field is a conjunct; `None`/empty means unconstrained. Matching
    /// rows stream back as [`ServerMsg::Rows`] chunks (in shard-major
    /// order, store order within a shard) followed by one
    /// [`Reply::QueryDone`]. Needs no open transaction and is allowed
    /// on read-only replicas.
    Query {
        /// Class name.
        class: Option<String>,
        /// Global object id.
        object: Option<u64>,
        /// Event kind: a fixed kind name (`create`, `delete`, `read`,
        /// `update`, `access`, `tbegin`, `tcomplete`, `tcommit`,
        /// `tabort`, `start`, `time`) or a method name.
        kind: Option<String>,
        /// Qualifier, `"before"` or `"after"`.
        qualifier: Option<String>,
        /// Argument predicates `(index, op, value)` with op one of
        /// `eq`, `ne`, `lt`, `le`, `gt`, `ge`; all must hold.
        args: Vec<(u64, String, Value)>,
        /// Minimum posting seq (inclusive).
        min_seq: Option<u64>,
        /// Maximum posting seq (inclusive).
        max_seq: Option<u64>,
        /// Minimum commit-time virtual clock ms (inclusive).
        min_time: Option<u64>,
        /// Maximum commit-time virtual clock ms (inclusive).
        max_time: Option<u64>,
        /// Row cap; the server also imposes its own ceiling.
        limit: Option<u64>,
    },
}

/// One server-to-client line.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ServerMsg {
    /// The answer to a request (or an unsolicited notice when `id` is 0).
    Reply {
        /// The request's correlation id.
        id: u64,
        /// Outcome.
        result: ReplyResult,
    },
    /// A trigger-firing notification (subscribed connections only).
    Firing(Firing),
    /// A chunk of matching history rows for an in-flight
    /// [`Command::Query`], delivered before its reply.
    Rows {
        /// The query request's correlation id.
        id: u64,
        /// The rows, in store order.
        rows: Vec<WireRow>,
    },
    /// First message of a replication stream: the primary's full schema
    /// and, when the replica's `from_lsn` predates the primary's oldest
    /// retained record, the checkpoint snapshot to bootstrap from.
    ReplSnapshot {
        /// Which shard stream this bootstrap belongs to (always `0`
        /// on a single-shard primary).
        shard: u64,
        /// The LSN the stream starts at. With a snapshot this is the
        /// LSN the snapshot covers; records follow from here.
        lsn: u64,
        /// Every class defined on the primary, in definition order. The
        /// replica defines the ones it doesn't have (schema catch-up on
        /// every reconnect).
        schema: Vec<ClassSpec>,
        /// Snapshot JSON to restore before applying records, or `None`
        /// when the log alone covers the replica's catch-up.
        snapshot: Option<String>,
        /// The server's epoch at handshake time.
        epoch: u64,
        /// Set when the replica's `from_lsn` proved it holds records
        /// from a deposed fork: the LSN of the first epoch bump past
        /// the replica's claimed epoch. Everything the replica holds
        /// beyond this LSN is fork debris — it must discard the shard's
        /// local history and re-replicate from scratch. No records
        /// follow a fencing bootstrap.
        fence_lsn: Option<u64>,
    },
    /// One shipped WAL record.
    ReplOp {
        /// Which shard's WAL stream the record belongs to (always `0`
        /// on a single-shard primary). LSNs are per-shard sequences.
        shard: u64,
        /// The record's log sequence number within its shard stream.
        lsn: u64,
        /// That shard's head LSN at ship time (drives lag reporting).
        head: u64,
        /// The record as a hex-encoded CRC32 frame
        /// ([`ode_db::durability::frame`]) — the replica verifies the
        /// checksum end to end before applying.
        frame: String,
        /// The shipper's epoch at ship time. A frame stamped below the
        /// receiver's observed epoch is from a deposed lineage and is
        /// rejected (`stale_epoch`) before it touches the engine.
        epoch: u64,
    },
    /// A compressed archive of WAL records, shipped during replica
    /// catch-up when the requested `from_lsn` predates the primary's
    /// live log but the archive chain still covers it. Cheaper than a
    /// snapshot bootstrap: the replica replays records instead of
    /// discarding its state.
    ReplArchive {
        /// Which shard stream the archived records belong to.
        shard: u64,
        /// The LSN of the archive's first record.
        base_lsn: u64,
        /// Records in the archive (the replica verifies the decoded
        /// count against this).
        records: u64,
        /// The archive file bytes (CRC-framed, LZ-compressed), hex
        /// encoded like [`ServerMsg::ReplOp`] frames.
        data: String,
        /// The shipper's epoch at ship time.
        epoch: u64,
    },
    /// A class defined on the primary mid-stream.
    ReplSchema(ClassSpec),
    /// Periodic head report so an idle replica still tracks lag and
    /// detects a dead link.
    ReplHeartbeat {
        /// Which shard stream the head report is for.
        shard: u64,
        /// That shard's current head LSN on the primary.
        head: u64,
        /// The sender's epoch. A heartbeat carrying a higher epoch than
        /// the receiver has observed deposes the receiver's own write
        /// authority (it learns a newer primary exists).
        epoch: u64,
    },
}

/// Request outcome. (The vendored serde has no `Result` impl, so the
/// protocol carries its own two-variant enum.)
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum ReplyResult {
    /// Success.
    Ok(Reply),
    /// Failure.
    Err(WireError),
}

/// Successful reply payloads.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum Reply {
    /// Command completed with nothing to return.
    Unit,
    /// Answer to [`Command::Ping`].
    Pong,
    /// A freshly created object.
    Object {
        /// The new object's id.
        id: u64,
    },
    /// A method return value or peeked field.
    Value(Value),
    /// A freshly begun transaction.
    Begun {
        /// The transaction id.
        txn: u64,
    },
    /// Engine counters (boxed: the stats block dwarfs every other
    /// reply; the wire format is unchanged).
    Stats(Box<WireStats>),
    /// A snapshot of the store.
    SnapshotTaken {
        /// The snapshot JSON (opaque to clients).
        json: String,
    },
    /// Drained output-log lines.
    Output(Vec<String>),
    /// A durable checkpoint completed.
    Checkpointed {
        /// The log sequence number the checkpoint covers.
        lsn: u64,
        /// Superseded segment files the checkpoint retired (the
        /// server's background thread unlinks them, archiving first
        /// under `--wal-archive`) — `0` here over and over means retention is
        /// not reclaiming, and Replicate handshakes will keep falling
        /// back to snapshot bootstraps.
        swept_segments: u64,
        /// How long the snapshot + checkpoint held the engine lock —
        /// every session stalls for this long. Retirement runs on the
        /// background thread, so its cost is not part of it.
        stall_ms: u64,
    },
    /// Answer to [`Command::Replicate`]: the stream is established.
    /// (The stream's first messages may already be queued before this
    /// reply; replicas must tolerate either order.)
    Replicating {
        /// Per shard: the LSN that shard's stream starts at (≥ the
        /// requested `from_lsns[s]` only when a snapshot bootstrap
        /// jumps past it; otherwise equal to it).
        start_lsns: Vec<u64>,
        /// Per shard: that shard's head LSN at handshake time.
        heads: Vec<u64>,
        /// The serving node's epoch at handshake time.
        epoch: u64,
    },
    /// Answer to [`Command::Promote`]: the replica is now writable.
    Promoted {
        /// The LSN of the last record applied before promotion — the
        /// point the new primary's history continues from.
        lsn: u64,
        /// The epoch the node was promoted into (durable before this
        /// reply is sent).
        epoch: u64,
    },
    /// Answer to [`Command::Demote`].
    Demoted {
        /// The server's epoch after processing the announcement.
        epoch: u64,
    },
    /// Answer to [`Command::Query`], after every [`ServerMsg::Rows`]
    /// chunk for the query has been delivered.
    QueryDone {
        /// Rows streamed back.
        rows: u64,
        /// The row cap cut matching short — more rows exist.
        truncated: bool,
        /// Segments whose bodies were decoded, across all shards.
        segments_scanned: u64,
        /// Segments pruned by zone metadata alone, across all shards.
        segments_skipped: u64,
    },
    /// Answer to a retroactive [`Command::Activate`] (`replay_history`).
    Replayed {
        /// Past occurrences the trigger fired on (each also streamed to
        /// subscribers as a retro [`ServerMsg::Firing`]).
        fired: u64,
        /// Stored events of the object that were replayed through the
        /// automaton.
        scanned: u64,
        /// Whether the trigger is still monitoring (`false` once a
        /// non-perpetual trigger consumed a past firing).
        active: bool,
    },
}

/// A structured protocol error.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireError {
    /// Stable machine-readable code (`lock_conflict`, `no_txn`, …).
    pub code: String,
    /// Human-readable description.
    pub message: String,
    /// Whether aborting and retrying the transaction may succeed.
    pub retryable: bool,
}

impl WireError {
    /// Build a non-retryable error.
    pub fn new(code: &str, message: impl Into<String>) -> WireError {
        WireError {
            code: code.to_string(),
            message: message.into(),
            retryable: false,
        }
    }

    /// A write-ahead-log failure: retryable, because a restart (or a
    /// retry against a healthy node) can succeed where this one did not.
    pub fn wal(e: impl std::fmt::Display) -> WireError {
        WireError {
            code: "wal".to_string(),
            message: e.to_string(),
            retryable: true,
        }
    }

    /// Map an engine error onto a wire error. Lock conflicts are
    /// retryable: the engine returns them immediately rather than
    /// blocking, so the client aborts and retries (no deadlock). So is a
    /// snapshot refused for a transaction in flight: it can succeed
    /// once that transaction ends.
    pub fn from_ode(e: &OdeError) -> WireError {
        let (code, retryable) = match e {
            OdeError::LockConflict { .. } => ("lock_conflict", true),
            OdeError::TxnInFlight(_) => ("txn_in_flight", true),
            OdeError::Aborted(_) => ("aborted", false),
            OdeError::ClassExists(_) => ("class_exists", false),
            OdeError::UnknownClass(_) => ("unknown_class", false),
            OdeError::UnknownObject(_) | OdeError::ObjectDeleted(_) => ("unknown_object", false),
            OdeError::UnknownMethod { .. } => ("unknown_method", false),
            OdeError::UnknownTrigger { .. } => ("unknown_trigger", false),
            OdeError::WrongArgCount { .. } => ("bad_args", false),
            OdeError::UnknownTxn(_) => ("unknown_txn", false),
            OdeError::Event(_) | OdeError::ImpossibleEvent { .. } => ("bad_event", false),
            OdeError::Mask(MaskError::TooDeep { .. }) => ("bad_value", false),
            OdeError::Mask(_) => ("bad_mask", false),
            OdeError::Method(_) => ("engine", false),
        };
        WireError {
            code: code.to_string(),
            message: e.to_string(),
            retryable,
        }
    }
}

/// Engine counters plus the virtual clock, as served by
/// [`Command::Stats`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireStats {
    /// Basic events posted to objects.
    pub events_posted: u64,
    /// Automaton steps taken.
    pub symbols_stepped: u64,
    /// Trigger firings (object and schema triggers).
    pub triggers_fired: u64,
    /// Committed transactions.
    pub txns_committed: u64,
    /// Aborted transactions.
    pub txns_aborted: u64,
    /// Current virtual time in milliseconds.
    pub clock_ms: u64,
    /// Firing notifications dropped because a subscriber's outbox or
    /// socket write failed.
    pub subscriber_drops: u64,
    /// Connections currently open (sessions live on the reactor loop).
    pub conns_open: u64,
    /// Connections refused by the `--max-conns` accept guard with a
    /// `server_full` notice since startup.
    pub conns_rejected: u64,
    /// Whether the server currently refuses mutations: latched after a
    /// WAL failure, or running as an unpromoted replica.
    pub read_only: bool,
    /// The WAL's next log sequence number (`None` when running without
    /// a WAL). On a replica this is the *local* WAL's head, which
    /// trails `last_applied_lsn` only by records not yet flushed.
    pub wal_lsn: Option<u64>,
    /// One past the highest LSN the WAL guarantees durable (`None`
    /// without a WAL). It trails `wal_lsn` by the records buffered for
    /// the next flush; commits are only acked at or below it.
    pub durable_lsn: Option<u64>,
    /// Total fsyncs the WAL has issued since startup (`0` without a
    /// WAL): about one per transaction at idle, fewer as concurrent
    /// committers share flushes.
    pub fsyncs_total: u64,
    /// WAL flush cycles that wrote a batch.
    pub group_commit_batches: u64,
    /// The most commits/aborts ever made durable by one fsync — `>1`
    /// proves batching engaged.
    pub group_commit_max_batch: u64,
    /// Whether this server was started as a replica
    /// (`--replicate-from`). Stays `true` after promotion.
    pub replica: bool,
    /// Whether the replication stream to the primary is currently
    /// established (`false` on non-replicas, while reconnecting, and
    /// after promotion).
    pub repl_connected: bool,
    /// One past the LSN of the last record this replica applied
    /// (`None` on non-replicas).
    pub last_applied_lsn: Option<u64>,
    /// How many records the primary is ahead: its last reported head
    /// minus `last_applied_lsn`. `None` on non-replicas and after
    /// promotion; `0` when caught up.
    pub replica_lag_lsn: Option<u64>,
    /// How many engine shards the server runs (`1` unless started with
    /// `--shards N`).
    pub shards: u64,
    /// Per shard: transactions committed wholly on that shard plus
    /// cross-shard commits it participated in. Skew here means the
    /// workload's objects hash unevenly.
    pub shard_commits: Vec<u64>,
    /// Per shard: cumulative microseconds sessions spent *waiting* for
    /// that shard's engine lock — the contention signal sharding is
    /// meant to drive down. Flat and near-zero at `--shards N` with a
    /// partitionable workload; one hot entry means a hot shard.
    pub shard_lock_wait_us: Vec<u64>,
    /// Whether the event-history store is on (`--history`).
    pub hist_enabled: bool,
    /// Sealed history segments, summed across shards.
    pub hist_segments: u64,
    /// History rows indexed (sealed + active), summed across shards.
    pub hist_rows: u64,
    /// Bytes across sealed history segment files, summed across shards.
    pub hist_disk_bytes: u64,
    /// Per shard: one past the last commit LSN folded into that shard's
    /// history store. Trails the shard's `durable_lsn` only by batches
    /// the background indexer has not drained yet.
    pub hist_indexed_lsns: Vec<u64>,
    /// History queries served, summed across shards.
    pub hist_queries: u64,
    /// Rows returned across all history queries.
    pub hist_rows_returned: u64,
    /// Segments pruned by zone metadata across all history queries —
    /// the segment-skipping win.
    pub hist_segments_skipped: u64,
    /// Retroactive trigger replays served from the history store.
    pub hist_retro_replays: u64,
    /// The node's current primary-election epoch: the highest it has
    /// observed by promotion, by applying a shipped `EpochBump`, or by
    /// being fenced/demoted.
    pub epoch: u64,
    /// Whether the node is deposed: it observed an epoch (handshake,
    /// heartbeat, or explicit `Demote`) that its own history has not
    /// caught up to. A deposed node refuses mutations (`deposed`) and
    /// refuses to serve `Replicate`.
    pub deposed: bool,
    /// Milliseconds since the replication runner last heard from its
    /// upstream (handshake reply, heartbeat, or shipped record).
    /// `None` on non-replicas, after promotion, and before the first
    /// contact. The runner itself reconnects when this exceeds three
    /// heartbeat intervals.
    pub repl_heartbeat_age_ms: Option<u64>,
    /// Frames and handshakes this node refused because they carried a
    /// stale epoch — nonzero means a deposed primary (or its subtree)
    /// tried to ship or rejoin with forked history.
    pub stale_epoch_rejections: u64,
    /// Wall-clock milliseconds startup recovery spent replaying the
    /// WAL (all shards; `0` without a WAL).
    pub recovery_ms: u64,
    /// Segment files replayed by startup recovery, summed across
    /// shards.
    pub segments_replayed: u64,
    /// Segments made archive-durable (and unlinked) since startup,
    /// summed across shards (`0` unless `--wal-archive`).
    pub archive_segments: u64,
    /// Compressed bytes written to the archive since startup, summed
    /// across shards.
    pub archive_bytes: u64,
    /// Segments retired by a checkpoint (or recovery) but not yet
    /// unlinked — the background thread's backlog, in either mode (under
    /// `--wal-archive` a segment leaves it only once its archive is
    /// durable). Persistently nonzero means retirement can't keep up
    /// with checkpoint cadence.
    pub archive_lag_segments: u64,
}

/// A trigger firing as streamed to subscribers — the wire image of
/// [`ode_db::FiringNotice`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Firing {
    /// The engine shard the firing was detected on (`0` unless the
    /// server runs sharded).
    pub shard: u64,
    /// Firing sequence number, strictly increasing and unique *within
    /// its shard* (each shard's engine numbers its own firings).
    pub seq: u64,
    /// The detecting transaction (firings of transactions that later
    /// abort are still streamed; correlate by this id).
    pub txn: u64,
    /// The object whose trigger fired.
    pub object: u64,
    /// The object's class.
    pub class: String,
    /// The trigger's name.
    pub trigger: String,
    /// The completing basic event, rendered in §3 syntax
    /// (`after withdraw`).
    pub event: String,
    /// Arguments of the completing event.
    pub args: Vec<Value>,
    /// Captured constituent-event arguments (capture-enabled triggers).
    pub captured: Vec<CapturedEvent>,
    /// A retroactive firing: produced by replaying stored history
    /// during a `replay_history` activation, with `seq` the original
    /// posting's seq. The trigger's action did not run.
    pub retro: bool,
}

/// One captured constituent event of a composite firing.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct CapturedEvent {
    /// The constituent basic event, rendered in §3 syntax.
    pub event: String,
    /// Its most recently captured arguments.
    pub args: Vec<Value>,
}

impl Firing {
    /// Convert an engine notice to its wire image. The notice's object
    /// id is shard-local; `shard`/`shard_count` translate it to the
    /// global id clients address (the identity map when unsharded).
    pub fn from_notice(n: &ode_db::FiringNotice, shard: usize, shard_count: usize) -> Firing {
        Firing {
            shard: shard as u64,
            seq: n.seq,
            txn: n.txn.0,
            object: ode_db::to_global(n.object, shard, shard_count).0,
            class: n.class.clone(),
            trigger: n.trigger.clone(),
            event: n.event.to_string(),
            args: n.args.clone(),
            captured: n
                .captured
                .iter()
                .map(|(b, a)| CapturedEvent {
                    event: b.to_string(),
                    args: a.clone(),
                })
                .collect(),
            retro: n.retro,
        }
    }
}

/// One committed history row as returned by [`Command::Query`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct WireRow {
    /// Engine posting seq (unique within its shard, stable across
    /// restarts).
    pub seq: u64,
    /// The engine shard the posting happened on.
    pub shard: u64,
    /// Virtual-clock milliseconds at commit time.
    pub time: u64,
    /// Committing transaction id.
    pub txn: u64,
    /// Global object id.
    pub object: u64,
    /// Class name.
    pub class: String,
    /// The basic event, rendered in §3 syntax (`after withdraw`).
    pub event: String,
    /// The posting's arguments.
    pub args: Vec<Value>,
}

/// Hex-encode bytes for embedding a binary frame in a JSON line.
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        s.push_str(&format!("{b:02x}"));
    }
    s
}

/// Decode [`hex_encode`] output; `None` on odd length or non-hex bytes.
pub fn hex_decode(s: &str) -> Option<Vec<u8>> {
    if s.len() % 2 != 0 {
        return None;
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16)?;
        let lo = (pair[1] as char).to_digit(16)?;
        out.push((hi * 16 + lo) as u8);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0u16..=255).map(|b| b as u8).collect();
        assert_eq!(hex_decode(&hex_encode(&bytes)).unwrap(), bytes);
        assert_eq!(hex_encode(&[]), "");
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_none(), "odd length");
        assert!(hex_decode("zz").is_none(), "non-hex");
    }

    #[test]
    fn request_round_trips() {
        let req = Request {
            id: 7,
            cmd: Command::Call {
                object: 3,
                method: "withdraw".into(),
                args: vec![Value::Str("bolt".into()), Value::Int(5)],
            },
        };
        let json = serde_json::to_string(&req).unwrap();
        let back: Request = serde_json::from_str(&json).unwrap();
        assert_eq!(back.id, 7);
        match back.cmd {
            Command::Call {
                object,
                method,
                args,
            } => {
                assert_eq!(object, 3);
                assert_eq!(method, "withdraw");
                assert_eq!(args.len(), 2);
            }
            other => panic!("wrong variant: {other:?}"),
        }
    }

    #[test]
    fn unit_commands_serialize_as_strings() {
        let json = serde_json::to_string(&Command::Ping).unwrap();
        assert_eq!(json, "\"Ping\"");
        let back: Command = serde_json::from_str("\"Commit\"").unwrap();
        assert!(matches!(back, Command::Commit));
    }

    #[test]
    fn reply_result_round_trips() {
        let msg = ServerMsg::Reply {
            id: 1,
            result: ReplyResult::Err(WireError::new("no_txn", "no open transaction")),
        };
        let json = serde_json::to_string(&msg).unwrap();
        let back: ServerMsg = serde_json::from_str(&json).unwrap();
        match back {
            ServerMsg::Reply { id, result } => {
                assert_eq!(id, 1);
                match result {
                    ReplyResult::Err(e) => assert_eq!(e.code, "no_txn"),
                    ReplyResult::Ok(_) => panic!("expected Err"),
                }
            }
            other => panic!("expected Reply, got {other:?}"),
        }
    }

    #[test]
    fn lock_conflict_maps_retryable() {
        let e = OdeError::LockConflict {
            object: ode_db::ObjectId(1),
            holder: ode_db::TxnId(2),
        };
        let w = WireError::from_ode(&e);
        assert_eq!(w.code, "lock_conflict");
        assert!(w.retryable);
    }
}
