//! The command layer: what one connection's session may say, and what
//! the node does about it.
//!
//! A [`Session`] is the state a connection carries between request
//! lines — its outbox, its open transaction, whether it is tailing the
//! replication stream. [`parse_line`] turns one framed line into a
//! [`Request`], once, on the loop thread. [`handle_request`] turns
//! state writers away when the node may not write ([`may_write`]),
//! runs the command against the [`Shared`] node state, applies the
//! WAL-degradation rule, and answers on the session's outbox.
//! [`runs_inline`] says where it runs: on the loop thread, or on the
//! worker pool when it may wait. How lines arrive and how the outbox
//! reaches the socket is the [`crate::reactor`]'s business; nothing
//! here touches a socket.

use std::cell::RefCell;
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ode_core::{Qualifier, Value};
use ode_db::durability::archive::{
    archive_dir, list_archives, read_archive_bytes, read_archive_meta,
};
use ode_db::durability::frame;
use ode_db::{
    shard_dir, shard_of, to_global, to_local, ArchiveStats, ArgPred, CmpOp, Database, HistError,
    HistQuery, LogOp, ObjectId, OdeError, SegmentReader, SharedIo, Snapshot, TxnId, WalError,
};

use crate::protocol::{
    hex_encode, Command, Reply, ReplyResult, Request, ServerMsg, WireError, WireRow, WireStats,
};
use crate::reactor::outbox::{broadcast, encode_frame, ConnOutbox};
use crate::repl::POLL_INTERVAL;
use crate::server::{Shared, WalState};
use crate::spec::compile_class;

/// One connection's session state. Owned by the reactor's per-
/// connection record; whichever thread runs a command (the loop or a
/// worker) holds it exclusively for the duration of that command.
pub(crate) struct Session {
    pub(crate) conn_id: u64,
    /// Where this session's replies, query rows, and stream records go.
    pub(crate) outbox: Arc<ConnOutbox>,
    pub(crate) open_txn: Option<TxnId>,
    /// Set once this connection sends `Replicate`; the loop then
    /// reports the durable heads periodically so an idle replica
    /// tracks lag.
    pub(crate) replicating: bool,
}

thread_local! {
    /// Per shard, the LSN of the last record this thread appended
    /// through that shard's log sink (or replayed, during recovery).
    /// The sinks run synchronously on the committing thread (with the
    /// shard's engine locked), so this one channel carries each commit
    /// record's LSN to both of its readers: the history tap, which the
    /// engine calls right after the append, and the `Commit` ack, which
    /// after `commit()` returns waits on every participating shard's
    /// entry — the merged durable watermark.
    static LAST_WAL_LSNS: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn lsns_clear() {
    LAST_WAL_LSNS.with(|c| c.borrow_mut().clear());
}

/// Called by shard `shard`'s log sink for every record it appends.
pub(crate) fn note_commit_lsn(shard: usize, lsn: u64) {
    LAST_WAL_LSNS.with(|c| {
        let mut v = c.borrow_mut();
        match v.iter_mut().find(|(s, _)| *s == shard) {
            Some(e) => e.1 = lsn,
            None => v.push((shard, lsn)),
        }
    });
}

/// The LSN this thread last noted for `shard` (0 if none).
pub(crate) fn noted_lsn(shard: usize) -> u64 {
    LAST_WAL_LSNS.with(|c| {
        c.borrow()
            .iter()
            .find(|(s, _)| *s == shard)
            .map_or(0, |e| e.1)
    })
}

fn lsns_take() -> Vec<(usize, u64)> {
    LAST_WAL_LSNS.with(|c| std::mem::take(&mut *c.borrow_mut()))
}

pub(crate) fn notice(code: &str, message: String) -> ServerMsg {
    ServerMsg::Reply {
        id: 0,
        result: ReplyResult::Err(WireError::new(code, message)),
    }
}

/// Parse one framed request line: `None` for a blank line, the `parse`
/// notice that answers it for a malformed one.
pub(crate) fn parse_line(line: &str) -> Option<Result<Request, ServerMsg>> {
    if line.trim().is_empty() {
        return None;
    }
    Some(serde_json::from_str(line).map_err(|e| notice("parse", format!("malformed request: {e}"))))
}

/// Execute one request, answering on the session's outbox.
pub(crate) fn handle_request(inner: &Shared, sess: &mut Session, req: Request) {
    let is_mutation = mutates(&req.cmd);
    let allowed = if is_mutation {
        may_write(inner, &req.cmd)
    } else {
        Ok(())
    };
    let mut result = match allowed.and_then(|()| execute(inner, sess, req.id, req.cmd)) {
        Ok(reply) => ReplyResult::Ok(reply),
        Err(e) => ReplyResult::Err(e),
    };
    // Degradation check: if a mutating command left the WAL poisoned,
    // the engine may have state the log does not. Latch read-only,
    // abort the session's transaction, and answer a retryable `wal`
    // error — even over an in-memory success: a commit whose log record
    // never reached disk will not survive recovery, so the client must
    // treat it as failed.
    let latched = matches!(&result, ReplyResult::Err(e) if e.code == "read_only");
    if is_mutation && !latched {
        if let Some(ws) = &inner.wal {
            if let Some(msg) = ws.wal.poisoned() {
                ws.read_only.store(true, Ordering::SeqCst);
                if let Some(t) = sess.open_txn.take() {
                    let _ = inner.db.abort(t);
                }
                result = ReplyResult::Err(WireError::wal(format_args!(
                    "write-ahead log failed; server is now read-only: {msg}"
                )));
            }
        }
    }
    let _ = sess.outbox.send(ServerMsg::Reply { id: req.id, result });
}

/// Commands the WAL must capture (state writers). Everything else —
/// reads, aborts, subscriptions — stays allowed in read-only mode:
/// aborts need no durability because recovery discards uncommitted
/// effects anyway.
fn mutates(cmd: &Command) -> bool {
    !matches!(
        cmd,
        Command::Ping
            | Command::Abort
            | Command::Snapshot
            | Command::Stats
            | Command::Subscribe
            | Command::Unsubscribe
            | Command::TakeOutput
            | Command::PeekField { .. }
            | Command::Replicate { .. }
            | Command::Promote { .. }
            | Command::Demote { .. }
            | Command::Query { .. }
    )
}

/// Whether `cmd` cannot block, so the reactor may run it on the loop
/// thread and write its reply in the same turn. Everything that waits on
/// the disk, on another thread or on a long scan runs on the worker
/// pool. `durable` is whether the server has a WAL, where `Commit` waits
/// for the flusher. No wildcard arm: a new command does not compile
/// until it is placed.
pub(crate) fn runs_inline(cmd: &Command, durable: bool) -> bool {
    match cmd {
        Command::Ping
        | Command::Begin { .. }
        | Command::Abort
        | Command::New { .. }
        | Command::Call { .. }
        | Command::Delete { .. }
        | Command::Deactivate { .. }
        | Command::AdvanceClockBy { .. }
        | Command::AdvanceClockTo { .. }
        | Command::Subscribe
        | Command::Unsubscribe
        | Command::TakeOutput
        | Command::PeekField { .. } => true,
        // `wait_durable` parks until a flush covers the commit record.
        Command::Commit => !durable,
        // A replay first waits for the history indexer (`store.sync`).
        Command::Activate { replay_history, .. } => !replay_history,
        // Disk writes (schema log, checkpoint, epoch table), `lock_all`
        // stalls, unbounded DFA compilation, stream drains and scans.
        Command::DefineClass(_)
        | Command::Query { .. }
        | Command::Checkpoint
        | Command::Snapshot
        | Command::Restore { .. }
        | Command::Replicate { .. }
        | Command::Promote { .. }
        | Command::Demote { .. }
        | Command::Stats => false,
    }
}

/// Whether this node may run the state writer `cmd` right now; the
/// error says why not.
fn may_write(inner: &Shared, cmd: &Command) -> Result<(), WireError> {
    if let Some(ws) = &inner.wal {
        if ws.read_only.load(Ordering::SeqCst) {
            return Err(WireError::new(
                "read_only",
                "server is read-only after a write-ahead log failure; restart to recover",
            ));
        }
    }
    // A deposed node's write authority is revoked: an epoch beyond
    // its history exists elsewhere, so anything committed here from
    // now on would be fork debris the fence discards on rejoin.
    if inner.epochs.is_deposed() {
        return Err(WireError::new(
            "deposed",
            format!(
                "this node was deposed at epoch {}; write through the new primary",
                inner.epochs.observed_epoch()
            ),
        ));
    }
    // An unpromoted replica refuses every state writer except its own
    // local `Checkpoint` (log maintenance): writes belong on the
    // primary, and the stream is the only mutation source here.
    if let Some(rs) = &inner.repl {
        if !rs.promoted.load(Ordering::SeqCst) && !matches!(cmd, Command::Checkpoint) {
            return Err(WireError::new(
                "read_only_replica",
                "this server is a read replica; write through the primary or Promote it",
            ));
        }
    }
    Ok(())
}

/// Build the `ReplArchive` messages that carry a shard's compressed
/// archive chain from `from_lsn` up to (at least) `upto` — replica
/// catch-up without a snapshot bootstrap. Returns `None` when the chain
/// has a gap, an unreadable file, or simply doesn't reach `upto`; the
/// caller then falls back to the snapshot. Best-effort by design: a
/// retire drain in progress, or archiving turned off, must never fail
/// a handshake.
fn archive_catchup(
    io: &SharedIo,
    dir: &Path,
    shard: u64,
    from_lsn: u64,
    upto: u64,
    epoch: u64,
) -> Option<Vec<ServerMsg>> {
    let entries = list_archives(io, dir).ok()?;
    let adir = archive_dir(dir);
    let mut msgs = Vec::new();
    let mut cov = from_lsn;
    for (_, _, _, name) in entries {
        if cov >= upto {
            break;
        }
        let meta = read_archive_meta(io, &adir.join(&name)).ok()?;
        let end = meta.base_lsn + meta.records;
        if end <= cov {
            continue; // wholly before the replica's cursor
        }
        if meta.base_lsn > cov {
            return None; // gap: chain doesn't reach back to the cursor
        }
        let bytes = read_archive_bytes(io, dir, &name).ok()?;
        msgs.push(ServerMsg::ReplArchive {
            shard,
            base_lsn: meta.base_lsn,
            records: meta.records,
            data: hex_encode(&bytes),
            epoch,
        });
        cov = end;
    }
    (cov >= upto).then_some(msgs)
}

/// Wait until shard `s`'s history store (in the WAL role `ws`) has
/// indexed every commit acked so far. The WAL releases a durable waiter
/// before its durable sink advances the store's watermark, so an ack
/// can overtake that advance: lift the watermark to the WAL's durable
/// head first, holding the WAL lock that the sink and a fork reset also
/// hold. Only that lock: a query must not stall the shard's appends
/// behind an in-flight fsync. And only when the store is behind: the
/// flusher holds that lock across every fsync, and a query queued on it
/// takes the processor from the flusher the moment it lets go, which
/// delays the next flush and every commit waiting for it.
fn sync_history(ws: &WalState, s: usize) {
    let store = &ws.hist[s];
    let wal = ws.wal.wal(s);
    // Every commit acked before this call is below `acked`.
    let acked = wal.durable_lsn();
    if store.durable_excl() < acked {
        wal.with_durable_head(|head| {
            if head > 0 {
                store.advance_durable_through(head - 1);
            }
        });
    }
    store.sync();
}

fn no_txn() -> WireError {
    WireError::new("no_txn", "no open transaction in this session")
}

/// Snapshot every locked shard (guard `s` is shard `s`). A shard with a
/// transaction in flight refuses with the retryable `txn_in_flight`,
/// naming the transaction by the handle its client knows.
fn snapshot_all<G: Deref<Target = Database>>(
    inner: &Shared,
    guards: &[G],
) -> Result<Vec<Snapshot>, WireError> {
    let refusal = |s: usize, e: OdeError| match e {
        OdeError::TxnInFlight(branch) => {
            let txn = inner.db.global_of(s, branch).unwrap_or(branch);
            WireError::from_ode(&OdeError::TxnInFlight(txn))
        }
        other => WireError::from_ode(&other),
    };
    guards
        .iter()
        .enumerate()
        .map(|(s, g)| g.snapshot().map_err(|e| refusal(s, e)))
        .collect()
}

/// Close out a transactional engine call: if the engine finalized the
/// transaction while failing (trigger-requested abort), forget it.
fn finish<T>(
    inner: &Shared,
    open_txn: &mut Option<TxnId>,
    t: TxnId,
    r: Result<T, OdeError>,
) -> Result<T, WireError> {
    match r {
        Ok(v) => Ok(v),
        Err(e) => {
            if !inner.db.txn_open(t) {
                *open_txn = None;
            }
            Err(WireError::from_ode(&e))
        }
    }
}

fn execute(
    inner: &Shared,
    sess: &mut Session,
    req_id: u64,
    cmd: Command,
) -> Result<Reply, WireError> {
    match cmd {
        Command::Ping => Ok(Reply::Pong),
        Command::DefineClass(spec) => {
            let def = compile_class(&spec).map_err(|e| WireError::from_ode(&e))?;
            // Define on every shard and, on a WAL node, append the
            // schema record while holding *all* engine locks (acquired
            // in shard order, like 2PC), so no shard can log an op that
            // references the class before the class record is durable.
            // A crash between the two tears the schema log's tail
            // harmlessly (truncated on recovery).
            let wal = inner.wal.as_deref();
            let mut guards = inner.db.lock_all();
            for (s, g) in guards.iter_mut().enumerate() {
                let cid = g
                    .define_class(def.clone())
                    .map_err(|e| WireError::from_ode(&e))?;
                if let Some(store) = wal.and_then(|ws| ws.hist.get(s)) {
                    store.observe_class(cid.0, &def.name);
                }
            }
            if let Some(ws) = wal {
                ws.schema.lock().append(&spec).map_err(|e| {
                    ws.read_only.store(true, Ordering::SeqCst);
                    WireError::wal(format_args!("schema log write failed: {e}"))
                })?;
                // Ship the new class while each shard's WAL is frozen so
                // it serializes with that shard's Replicate handshake
                // (which reads the held specs under the same freeze).
                let schema_msg = ServerMsg::ReplSchema(spec);
                for (s, subs) in ws.repl_subs.iter().enumerate() {
                    ws.wal.wal(s).frozen(|_| {
                        broadcast(&subs.lock(), &schema_msg);
                    });
                }
            }
            Ok(Reply::Unit)
        }
        Command::Begin { user } => {
            if sess.open_txn.is_some() {
                return Err(WireError::new(
                    "txn_open",
                    "session already has an open transaction",
                ));
            }
            user.check_depth()
                .map_err(|e| WireError::from_ode(&OdeError::Mask(e)))?;
            let t = inner.db.begin(user);
            sess.open_txn = Some(t);
            Ok(Reply::Begun { txn: t.0 })
        }
        Command::Commit => {
            let t = sess.open_txn.ok_or_else(no_txn)?;
            lsns_clear();
            let r = inner.db.commit(t);
            if !inner.db.txn_open(t) {
                sess.open_txn = None;
            }
            r.map_err(|e| WireError::from_ode(&e))?;
            // The in-memory commit is done and every engine mutex is
            // released; other sessions proceed. Ack only once each
            // participating shard's commit record is durable — the
            // merged-watermark rule. This blocks (outside every lock)
            // until each shard's flush covers its record, and one
            // fsync releases every session waiting on that shard.
            if let Some(ws) = &inner.wal {
                let acks = lsns_take();
                if !acks.is_empty() {
                    ws.wal.wait_durable(&acks).map_err(WireError::wal)?;
                }
            }
            Ok(Reply::Unit)
        }
        Command::Abort => {
            // Idempotent: a transaction the engine already finalized
            // (trigger abort, idle timeout) aborts to Unit as well.
            if let Some(t) = sess.open_txn.take() {
                let _ = inner.db.abort(t);
            }
            Ok(Reply::Unit)
        }
        Command::New { class, overrides } => {
            let t = sess.open_txn.ok_or_else(no_txn)?;
            let ovr: Vec<(&str, Value)> = overrides
                .iter()
                .map(|(k, v)| (k.as_str(), v.clone()))
                .collect();
            let r = inner.db.create_object(t, &class, &ovr);
            finish(inner, &mut sess.open_txn, t, r).map(|id| Reply::Object { id: id.0 })
        }
        Command::Call {
            object,
            method,
            args,
        } => {
            let t = sess.open_txn.ok_or_else(no_txn)?;
            let r = inner.db.call(t, ObjectId(object), &method, &args);
            finish(inner, &mut sess.open_txn, t, r).map(Reply::Value)
        }
        Command::Delete { object } => {
            let t = sess.open_txn.ok_or_else(no_txn)?;
            let r = inner.db.delete_object(t, ObjectId(object));
            finish(inner, &mut sess.open_txn, t, r).map(|()| Reply::Unit)
        }
        Command::Activate {
            object,
            trigger,
            params,
            replay_history,
        } => {
            let t = sess.open_txn.ok_or_else(no_txn)?;
            if !replay_history {
                let r = inner
                    .db
                    .activate_trigger(t, ObjectId(object), &trigger, &params);
                return finish(inner, &mut sess.open_txn, t, r).map(|()| Reply::Unit);
            }
            let ws = inner.history()?;
            if object == 0 {
                return Err(WireError::new("unknown_object", "object ids start at 1"));
            }
            let n = inner.db.shard_count();
            let obj = ObjectId(object);
            let s = shard_of(obj, n);
            let store = &ws.hist[s];
            // The replay input must cover everything this server has
            // acked (bounded — acked commits are durable already).
            sync_history(ws, s);
            let events = store
                .object_events(to_local(obj, n).0)
                .map_err(|e| WireError::new("history", e.to_string()))?;
            let scanned = events.len() as u64;
            let r = inner
                .db
                .activate_trigger_retro(t, obj, &trigger, &params, &events);
            finish(inner, &mut sess.open_txn, t, r).map(|replay| Reply::Replayed {
                fired: replay.firings.len() as u64,
                scanned,
                active: replay.active,
            })
        }
        Command::Deactivate { object, trigger } => {
            let t = sess.open_txn.ok_or_else(no_txn)?;
            let r = inner.db.deactivate_trigger(t, ObjectId(object), &trigger);
            finish(inner, &mut sess.open_txn, t, r).map(|()| Reply::Unit)
        }
        Command::AdvanceClockBy { ms } => {
            inner.db.advance_clock_by(ms);
            Ok(Reply::Unit)
        }
        Command::AdvanceClockTo { ms } => {
            inner.db.advance_clock_to(ms);
            Ok(Reply::Unit)
        }
        Command::Snapshot => {
            // Lock every shard (in shard order) so the snapshot is one
            // consistent cut across the whole partitioned store. A
            // single shard serializes to the legacy flat snapshot; more
            // serialize to a JSON array of per-shard snapshots.
            let shard_count = inner.db.shard_count();
            let snaps = snapshot_all(inner, &inner.db.lock_all())?;
            let mut parts = snaps
                .iter()
                .map(Snapshot::to_json)
                .collect::<Result<Vec<_>, _>>()
                .map_err(|e| WireError::from_ode(&e))?;
            let json = if shard_count == 1 {
                parts.pop().expect("one shard")
            } else {
                serde_json::to_string(&parts)
                    .map_err(|e| WireError::new("engine", e.to_string()))?
            };
            Ok(Reply::SnapshotTaken { json })
        }
        Command::Restore { snapshot } => {
            if inner.wal.is_some() {
                // A state jump the log never saw would desync replay.
                return Err(WireError::new(
                    "restore_unsupported",
                    "Restore is not allowed on a WAL-backed server; use Checkpoint and recovery",
                ));
            }
            let shard_count = inner.db.shard_count();
            let parts: Vec<String> = if shard_count == 1 {
                vec![snapshot]
            } else {
                serde_json::from_str(&snapshot).map_err(|e| {
                    WireError::new(
                        "bad_snapshot",
                        format!("a {shard_count}-shard server restores a JSON array of {shard_count} per-shard snapshots: {e}"),
                    )
                })?
            };
            if parts.len() != shard_count {
                return Err(WireError::new(
                    "bad_snapshot",
                    format!(
                        "snapshot has {} shard part(s), server runs {shard_count}",
                        parts.len()
                    ),
                ));
            }
            let mut snaps = Vec::with_capacity(shard_count);
            for p in &parts {
                snaps.push(Snapshot::from_json(p).map_err(|e| WireError::from_ode(&e))?);
            }
            let mut guards = inner.db.lock_all();
            for (g, snap) in guards.iter_mut().zip(&snaps) {
                g.restore(snap).map_err(|e| WireError::from_ode(&e))?;
            }
            Ok(Reply::Unit)
        }
        Command::Checkpoint => {
            let ws = inner.durable()?;
            // Snapshot and checkpoint each shard while holding *all*
            // engine locks (in shard order), so every shard's
            // checkpoint LSN matches one consistent cut (lock order
            // engine → wal, same as the log sinks). That means every
            // session stalls for the duration — measure and report it
            // so operators see the cost. Every snapshot is taken before
            // the first install, so a refusal touches no shard. The
            // superseded files stay queued until the drains queued below
            // run on the background thread.
            let started = Instant::now();
            let guards = inner.db.lock_all();
            let snaps = snapshot_all(inner, &guards)?;
            let mut lsn_max = 0u64;
            let mut swept = 0u64;
            for (s, snap) in snaps.iter().enumerate() {
                if let Some(store) = ws.hist.get(s) {
                    // Seal the history store's active set behind the
                    // checkpoint barrier *before* the WAL truncates:
                    // with all engine locks held no new batches can
                    // arrive, so after an fsync + watermark bump the
                    // indexer drains everything below the head and the
                    // seal leaves `covered_lsn` at or past the
                    // checkpoint — WAL truncation never strands
                    // unsealed rows.
                    let head = ws.wal.wal(s).lsn();
                    if head > 0 {
                        ws.wal.wal(s).sync().map_err(WireError::wal)?;
                        store.advance_durable_through(head - 1);
                        store
                            .barrier_seal(head)
                            .map_err(|e| WireError::new("history", e.to_string()))?;
                    }
                }
                let report = ws.wal.wal(s).checkpoint(snap).map_err(|e| {
                    // Refused before the log was touched: the WAL is not
                    // poisoned and the node keeps serving writes.
                    if matches!(e, WalError::SnapshotTooLarge { .. }) {
                        WireError::new("snapshot_too_large", e.to_string())
                    } else {
                        WireError::wal(e)
                    }
                })?;
                lsn_max = lsn_max.max(report.lsn);
                swept += report.swept_segments;
            }
            drop(guards);
            let stall = started.elapsed();
            ws.queue_drains();
            eprintln!(
                "checkpoint: lsn {lsn_max} in {stall:?} (engine stalled), \
                 retired {swept} segment file(s)"
            );
            Ok(Reply::Checkpointed {
                lsn: lsn_max,
                swept_segments: swept,
                stall_ms: stall.as_millis() as u64,
            })
        }
        Command::Stats => {
            // Engine counters sum across shards; the clock is the max
            // (shards advance in lockstep, but a broadcast in flight
            // may have reached only a prefix).
            let shard_count = inner.db.shard_count();
            let mut events_posted = 0;
            let mut symbols_stepped = 0;
            let mut triggers_fired = 0;
            let mut txns_committed = 0;
            let mut txns_aborted = 0;
            let mut clock_ms = 0;
            for shard in inner.db.shards() {
                let (s, now) = shard.with(|db| (db.stats(), db.now()));
                events_posted += s.events_posted;
                symbols_stepped += s.symbols_stepped;
                triggers_fired += s.triggers_fired;
                txns_committed += s.txns_committed;
                txns_aborted += s.txns_aborted;
                clock_ms = clock_ms.max(now);
            }
            // WAL counters likewise sum across shard streams (LSNs are
            // per-shard sequences, so the sums are record counts).
            let (mut read_only, mut wal_lsn, mut durable_lsn) = (false, None, None);
            let (mut fsyncs_total, mut batches, mut max_batch) = (0, 0, 0);
            let (mut recovery_ms, mut segments_replayed) = (0, 0);
            let mut archive = ArchiveStats::default();
            let mut hist_segments = 0;
            let mut hist_rows = 0;
            let mut hist_disk_bytes = 0;
            let mut hist_indexed_lsns = Vec::new();
            let mut hist_queries = 0;
            let mut hist_rows_returned = 0;
            let mut hist_segments_skipped = 0;
            let mut hist_retro_replays = 0;
            if let Some(ws) = &inner.wal {
                read_only = ws.read_only.load(Ordering::SeqCst);
                recovery_ms = ws.recovery_ms;
                segments_replayed = ws.segments_replayed;
                archive = ws.wal.archive_stats();
                let mut lsn_sum = 0;
                let mut durable_sum = 0;
                for w in ws.wal.wals() {
                    let st = w.stats();
                    lsn_sum += w.lsn();
                    durable_sum += st.durable_lsn;
                    fsyncs_total += st.fsyncs_total;
                    batches += st.group_commit_batches;
                    max_batch = max_batch.max(st.group_commit_max_batch);
                }
                wal_lsn = Some(lsn_sum);
                durable_lsn = Some(durable_sum);
                for store in &ws.hist {
                    let hs = store.stats();
                    hist_segments += hs.segments;
                    hist_rows += hs.rows;
                    hist_disk_bytes += hs.disk_bytes;
                    hist_indexed_lsns.push(hs.indexed_lsn);
                    hist_queries += hs.queries;
                    hist_rows_returned += hs.rows_returned;
                    hist_segments_skipped += hs.segments_skipped;
                    hist_retro_replays += hs.retro_replays;
                }
            }
            let (replica, repl_connected, last_applied_lsn, replica_lag_lsn, heartbeat_age) =
                match &inner.repl {
                    Some(rs) => {
                        let applied = rs.applied_sum();
                        let head = rs.head_sum().max(applied);
                        let promoted = rs.promoted.load(Ordering::SeqCst);
                        read_only = read_only || !promoted;
                        (
                            true,
                            rs.connected.load(Ordering::SeqCst),
                            Some(applied),
                            if promoted { None } else { Some(head - applied) },
                            rs.heartbeat_age_ms(),
                        )
                    }
                    None => (false, false, None, None, None),
                };
            let shard_stats = inner.db.stats();
            Ok(Reply::Stats(Box::new(WireStats {
                events_posted,
                symbols_stepped,
                triggers_fired,
                txns_committed,
                txns_aborted,
                clock_ms,
                subscriber_drops: inner.subscriber_drops.load(Ordering::Relaxed),
                conns_open: inner.conns_open.load(Ordering::SeqCst),
                conns_rejected: inner.conns_rejected.load(Ordering::SeqCst),
                read_only,
                wal_lsn,
                durable_lsn,
                fsyncs_total,
                group_commit_batches: batches,
                group_commit_max_batch: max_batch,
                replica,
                repl_connected,
                last_applied_lsn,
                replica_lag_lsn,
                shards: shard_count as u64,
                shard_commits: shard_stats.commits,
                shard_lock_wait_us: shard_stats
                    .lock_wait_ns
                    .iter()
                    .map(|ns| ns / 1_000)
                    .collect(),
                hist_enabled: !hist_indexed_lsns.is_empty(),
                hist_segments,
                hist_rows,
                hist_disk_bytes,
                hist_indexed_lsns,
                hist_queries,
                hist_rows_returned,
                hist_segments_skipped,
                hist_retro_replays,
                epoch: inner.epochs.observed_epoch(),
                deposed: inner.epochs.is_deposed(),
                repl_heartbeat_age_ms: heartbeat_age,
                stale_epoch_rejections: inner.epochs.stale_rejections.load(Ordering::Relaxed),
                recovery_ms,
                segments_replayed,
                archive_segments: archive.segments_archived,
                archive_bytes: archive.bytes_archived,
                archive_lag_segments: archive.lag_segments,
            })))
        }
        Command::Subscribe => {
            inner
                .subs
                .lock()
                .insert(sess.conn_id, Arc::clone(&sess.outbox));
            Ok(Reply::Unit)
        }
        Command::Unsubscribe => {
            inner.subs.lock().remove(&sess.conn_id);
            Ok(Reply::Unit)
        }
        Command::TakeOutput => Ok(Reply::Output(inner.db.take_output())),
        Command::PeekField { object, field } => {
            let v = inner
                .db
                .with_obj(ObjectId(object), |db, local| db.peek_field(local, &field));
            Ok(Reply::Value(v.unwrap_or(Value::Null)))
        }
        Command::Replicate { from_lsns, epoch } => {
            let ws = inner.durable()?;
            let shard_count = ws.wal.shard_count();
            if from_lsns.len() != shard_count {
                return Err(WireError::new(
                    "shard_mismatch",
                    format!(
                        "replica negotiated {} shard stream(s); this primary runs {shard_count}",
                        from_lsns.len()
                    ),
                ));
            }
            let my_epoch = inner.epochs.history_epoch();
            if epoch > my_epoch {
                // The follower has seen a primary elected past us:
                // this node is deposed, and serving its (possibly
                // forked) history downstream would spread the fork.
                inner
                    .epochs
                    .observe(epoch)
                    .map_err(|e| WireError::new("wal", e))?;
                inner
                    .epochs
                    .stale_rejections
                    .fetch_add(1, Ordering::Relaxed);
                return Err(WireError::new(
                    "stale_epoch",
                    format!("serving node is at epoch {my_epoch}, behind the stream's {epoch}"),
                ));
            }
            if inner.epochs.is_deposed() {
                return Err(WireError::new(
                    "deposed",
                    format!(
                        "this node was deposed at epoch {}; replicate from the new primary",
                        inner.epochs.observed_epoch()
                    ),
                ));
            }
            // Per shard stream: freeze that shard's WAL across scan +
            // registration. Each shard's durable sink ships under the
            // disk lock its freeze holds, so the handoff from
            // historical records to live shipping has no gap and no
            // duplicate per stream. The freeze's head is the durable
            // watermark — exactly what the on-disk scan contains, and
            // the most a primary may ever ship. Streams are negotiated
            // independently: a shard past the catch-up window
            // bootstraps from its own checkpoint snapshot.
            let mut start_lsns = Vec::with_capacity(shard_count);
            let mut heads = Vec::with_capacity(shard_count);
            for (s, &from_lsn) in from_lsns.iter().enumerate() {
                let dir = shard_dir(&ws.dir, s, shard_count);
                let (start_lsn, head) =
                    ws.wal
                        .wal(s)
                        .frozen(|head| -> Result<(u64, u64), WireError> {
                            // Fork fence, checked before the head
                            // bound: a follower claiming an older
                            // epoch whose cursor is past the first
                            // bump it hasn't seen holds records of a
                            // deposed lineage (a shared prefix would
                            // end at the bump). Tell it to discard
                            // the shard and re-replicate from zero; a
                            // cursor at or below the fence is shared
                            // history and streams normally — the bump
                            // record itself teaches the new epoch
                            // in-band.
                            if epoch < my_epoch {
                                if let Some(f) = inner.epochs.fence_lsn(s as u64, epoch) {
                                    if from_lsn > f {
                                        inner
                                            .epochs
                                            .stale_rejections
                                            .fetch_add(1, Ordering::Relaxed);
                                        let _ = sess.outbox.send(ServerMsg::ReplSnapshot {
                                            shard: s as u64,
                                            lsn: 0,
                                            schema: ws.schema.lock().specs().to_vec(),
                                            snapshot: None,
                                            epoch: my_epoch,
                                            fence_lsn: Some(f),
                                        });
                                        return Ok((0, head));
                                    }
                                }
                            }
                            if from_lsn > head {
                                return Err(WireError::new(
                                    "bad_lsn",
                                    format!(
                                "shard {s}: requested lsn {from_lsn} is beyond the durable head {head}"
                            ),
                                ));
                            }
                            let scan = SegmentReader::scan(&dir, &ws.io).map_err(|e| {
                                WireError::new("wal", format!("shard {s} log scan failed: {e}"))
                            })?;
                            let schema = ws.schema.lock().specs().to_vec();
                            let mut archive_msgs: Vec<ServerMsg> = Vec::new();
                            let (start_lsn, snapshot) = if from_lsn < scan.base_lsn {
                                // The live log before the checkpoint is
                                // gone. Prefer archive catch-up: when
                                // the compressed archive chain still
                                // covers [from_lsn, base), ship those
                                // archives and let the replica *replay*
                                // instead of discarding its state for a
                                // snapshot bootstrap.
                                match archive_catchup(
                                    &ws.io,
                                    &dir,
                                    s as u64,
                                    from_lsn,
                                    scan.base_lsn,
                                    my_epoch,
                                ) {
                                    Some(msgs) => {
                                        archive_msgs = msgs;
                                        (from_lsn, None)
                                    }
                                    None => {
                                        let bytes =
                                            scan.checkpoint.clone().ok_or_else(|| {
                                                WireError::new(
                                        "wal",
                                        format!(
                                    "shard {s} log starts past the requested lsn with no checkpoint"
                                ),
                                    )
                                            })?;
                                        let json = String::from_utf8(bytes).map_err(|e| {
                                            WireError::new(
                                                "wal",
                                                format!("checkpoint not utf-8: {e}"),
                                            )
                                        })?;
                                        (scan.base_lsn, Some(json))
                                    }
                                }
                            } else {
                                (from_lsn, None)
                            };
                            let _ = sess.outbox.send(ServerMsg::ReplSnapshot {
                                shard: s as u64,
                                lsn: start_lsn,
                                schema,
                                snapshot,
                                epoch: my_epoch,
                                fence_lsn: None,
                            });
                            for m in archive_msgs {
                                let _ = sess.outbox.send(m);
                            }
                            for (lsn, payload) in scan.records_from(start_lsn) {
                                let _ = sess.outbox.send(ServerMsg::ReplOp {
                                    shard: s as u64,
                                    lsn,
                                    head,
                                    frame: hex_encode(&frame::encode(payload)),
                                    epoch: my_epoch,
                                });
                            }
                            ws.repl_subs[s].lock().insert(sess.conn_id, Arc::clone(&sess.outbox));
                            Ok((start_lsn, head))
                        })?;
                start_lsns.push(start_lsn);
                heads.push(head);
            }
            sess.replicating = true;
            Ok(Reply::Replicating {
                start_lsns,
                heads,
                epoch: my_epoch,
            })
        }
        Command::Promote { force } => {
            let rs = inner.replica()?;
            if !rs.promoted.load(Ordering::SeqCst) {
                // Refuse a lagging promote: records the old primary
                // acked would silently vanish from the new lineage.
                // `force` accepts that loss — the fence demotes them
                // on every surviving node when the old primary's
                // subtree rejoins.
                if !force {
                    let applied = rs.applied_sum();
                    let head = rs.head_sum();
                    if head > applied {
                        return Err(WireError {
                            code: "promote_lagging".to_string(),
                            message: format!(
                                "replica is {} record(s) behind the last reported upstream \
                                 head; let it catch up or Promote with force:true",
                                head - applied
                            ),
                            retryable: true,
                        });
                    }
                }
                rs.stop.store(true, Ordering::SeqCst);
                let deadline = Instant::now() + Duration::from_secs(10);
                while !rs.finished.load(Ordering::SeqCst) {
                    if Instant::now() >= deadline {
                        return Err(WireError {
                            code: "promote_timeout".to_string(),
                            message: "replication stream did not drain in time; retry Promote"
                                .to_string(),
                            retryable: true,
                        });
                    }
                    thread::sleep(POLL_INTERVAL);
                }
                // Bump the epoch *durably* before the first write is
                // accepted: the bump record lands in every shard WAL
                // (where it ships downstream and fences the old
                // lineage) and then in the epoch table (where it
                // survives checkpoint sweeps). A crash between the
                // two is healed by `merge_bumps` on recovery, so the
                // node can never come back writable at the old epoch.
                let new_epoch = inner.epochs.history_epoch() + 1;
                if let Some(ws) = &inner.wal {
                    let mut acks = Vec::with_capacity(ws.wal.shard_count());
                    for s in 0..ws.wal.shard_count() {
                        let lsn = ws
                            .wal
                            .wal(s)
                            .append(&LogOp::EpochBump { epoch: new_epoch })
                            .map_err(WireError::wal)?;
                        acks.push((s, lsn));
                    }
                    ws.wal.wait_durable(&acks).map_err(WireError::wal)?;
                    for &(s, lsn) in &acks {
                        inner
                            .epochs
                            .note_start(new_epoch, s as u64, lsn)
                            .map_err(|e| WireError::new("wal", e))?;
                    }
                } else {
                    for (s, applied) in rs.applied.iter().enumerate() {
                        inner
                            .epochs
                            .note_start(new_epoch, s as u64, applied.load(Ordering::SeqCst))
                            .map_err(|e| WireError::new("wal", e))?;
                    }
                }
                rs.promoted.store(true, Ordering::SeqCst);
            }
            Ok(Reply::Promoted {
                lsn: rs.applied_sum(),
                epoch: inner.epochs.history_epoch(),
            })
        }
        Command::Demote { epoch } => {
            // An announcement, not a mutation: record that `epoch`
            // exists. If that's news beyond this node's own history,
            // the deposed latch flips and mutations start answering
            // `deposed`.
            inner
                .epochs
                .observe(epoch)
                .map_err(|e| WireError::new("wal", e))?;
            Ok(Reply::Demoted {
                epoch: inner.epochs.observed_epoch(),
            })
        }
        Command::Query {
            class,
            object,
            kind,
            qualifier,
            args,
            min_seq,
            max_seq,
            min_time,
            max_time,
            limit,
        } => {
            let ws = inner.history()?;
            let qualifier = match qualifier.as_deref() {
                None => None,
                Some("before") => Some(Qualifier::Before),
                Some("after") => Some(Qualifier::After),
                Some(other) => {
                    return Err(WireError::new(
                        "bad_query",
                        format!("unknown qualifier {other:?}; use \"before\" or \"after\""),
                    ))
                }
            };
            let mut preds = Vec::with_capacity(args.len());
            for (index, op, value) in &args {
                let op = CmpOp::parse(op).ok_or_else(|| {
                    WireError::new(
                        "bad_query",
                        format!("unknown arg predicate op {op:?}; use eq|ne|lt|le|gt|ge"),
                    )
                })?;
                preds.push(ArgPred {
                    index: *index as usize,
                    op,
                    value: value.clone(),
                });
            }
            // A hard server-side ceiling bounds the stream even when
            // the client asks for everything; `truncated` tells them
            // to narrow the query.
            const MAX_QUERY_ROWS: usize = 10_000;
            let cap = limit
                .map(|l| l as usize)
                .unwrap_or(MAX_QUERY_ROWS)
                .min(MAX_QUERY_ROWS);
            let n = inner.db.shard_count();
            // An object filter pins the owning shard; object ids start
            // at 1, so a 0 filter matches nothing.
            let shards: Vec<usize> = match object {
                Some(0) => Vec::new(),
                Some(o) => vec![shard_of(ObjectId(o), n)],
                None => (0..n).collect(),
            };
            let mut sent = 0usize;
            let mut truncated = false;
            let mut scanned = 0u64;
            let mut skipped = 0u64;
            for &s in &shards {
                let store = &ws.hist[s];
                // Read-your-writes: anything acked before this query
                // was durable, so the indexer wait is bounded.
                sync_history(ws, s);
                let q = HistQuery {
                    class: class.clone(),
                    object: object.map(|o| to_local(ObjectId(o), n).0),
                    kind: kind.clone(),
                    qualifier,
                    args: preds.clone(),
                    min_seq,
                    max_seq,
                    min_time,
                    max_time,
                    // One past the remaining budget: a full result
                    // proves more rows exist without streaming them.
                    limit: Some(cap - sent + 1),
                };
                let prepared = store.prepare(&q);
                let budget = cap - sent;
                let store = Arc::clone(store);
                // The segment reads and the rows' wire encoding run on the
                // background thread; this worker only queues the frames.
                let scan = move || {
                    let mut res = prepared.run()?;
                    let rows = std::mem::take(&mut res.rows);
                    let take = rows.len().min(budget);
                    res.truncated |= rows.len() > budget;
                    let frames: Vec<Arc<[u8]>> = rows[..take]
                        .chunks(256)
                        .filter_map(|chunk| {
                            let rows: Vec<WireRow> = chunk
                                .iter()
                                .map(|r| WireRow {
                                    seq: r.seq,
                                    shard: s as u64,
                                    time: r.time,
                                    txn: r.txn,
                                    object: to_global(ObjectId(r.object), s, n).0,
                                    class: store.class_label(r.class),
                                    event: store.render_event(r),
                                    args: r.args.clone(),
                                })
                                .collect();
                            encode_frame(&ServerMsg::Rows { id: req_id, rows })
                        })
                        .collect();
                    Ok((res, take, frames))
                };
                let (res, take, frames) = ws
                    .background
                    .run(scan)
                    .map_err(|e: HistError| WireError::new("history", e.to_string()))?;
                scanned += res.segments_scanned as u64;
                skipped += res.segments_skipped as u64;
                truncated |= res.truncated;
                for frame in frames {
                    let _ = sess.outbox.push(frame, false);
                }
                sent += take;
                if truncated {
                    break;
                }
            }
            Ok(Reply::QueryDone {
                rows: sent as u64,
                truncated,
                segments_scanned: scanned,
                segments_skipped: skipped,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::stockroom_spec;

    /// Every command with its placement `(without a WAL, with one)`:
    /// `true` runs on the loop thread, `false` on the worker pool.
    #[test]
    fn every_command_has_its_placement() {
        let query = Command::Query {
            class: None,
            object: None,
            kind: None,
            qualifier: None,
            args: Vec::new(),
            min_seq: None,
            max_seq: None,
            min_time: None,
            max_time: None,
            limit: None,
        };
        let activate = |replay_history| Command::Activate {
            object: 1,
            trigger: "T1".into(),
            params: Vec::new(),
            replay_history,
        };
        let table = [
            (Command::Ping, true, true),
            (Command::DefineClass(stockroom_spec()), false, false),
            (Command::Begin { user: Value::Null }, true, true),
            (Command::Commit, true, false),
            (Command::Abort, true, true),
            (
                Command::New {
                    class: "room".into(),
                    overrides: Vec::new(),
                },
                true,
                true,
            ),
            (
                Command::Call {
                    object: 1,
                    method: "deposit".into(),
                    args: Vec::new(),
                },
                true,
                true,
            ),
            (Command::Delete { object: 1 }, true, true),
            (activate(false), true, true),
            (activate(true), false, false),
            (
                Command::Deactivate {
                    object: 1,
                    trigger: "T1".into(),
                },
                true,
                true,
            ),
            (Command::AdvanceClockBy { ms: 1 }, true, true),
            (Command::AdvanceClockTo { ms: 1 }, true, true),
            (Command::Snapshot, false, false),
            (
                Command::Restore {
                    snapshot: String::new(),
                },
                false,
                false,
            ),
            (Command::Checkpoint, false, false),
            (Command::Stats, false, false),
            (Command::Subscribe, true, true),
            (Command::Unsubscribe, true, true),
            (Command::TakeOutput, true, true),
            (
                Command::PeekField {
                    object: 1,
                    field: "items".into(),
                },
                true,
                true,
            ),
            (
                Command::Replicate {
                    from_lsns: vec![0],
                    epoch: 0,
                },
                false,
                false,
            ),
            (Command::Promote { force: false }, false, false),
            (Command::Demote { epoch: 1 }, false, false),
            (query, false, false),
        ];
        for (cmd, in_memory, durable) in &table {
            assert_eq!(runs_inline(cmd, false), *in_memory, "{cmd:?} without a WAL");
            assert_eq!(runs_inline(cmd, true), *durable, "{cmd:?} with a WAL");
        }
    }
}
