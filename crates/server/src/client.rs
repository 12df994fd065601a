//! A blocking client for the wire protocol, with typed helpers and a
//! [`Client::txn`] retry loop mirroring
//! [`ode_db::ShardedDatabase::run_txn`].
//!
//! Trigger-firing notifications ([`crate::protocol::Firing`]) arrive
//! interleaved with replies on subscribed connections; the client
//! buffers any firing it reads while waiting for a reply, and
//! [`Client::poll_firing`] / [`Client::next_firing`] drain that buffer
//! before touching the socket.

use std::collections::VecDeque;
use std::fmt;
use std::io::Write;
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

use ode_core::Value;

use crate::codec::{LineEvent, LineReader};
use crate::conn::Conn;
use crate::protocol::{
    Command, Firing, Reply, ReplyResult, Request, ServerMsg, WireError, WireRow, WireStats,
};
use crate::spec::ClassSpec;

/// Client-side history-query parameters, mirroring
/// [`Command::Query`] field for field (every field a conjunct;
/// `None`/empty = unconstrained). `QuerySpec::default()` matches
/// everything up to the server's row cap.
#[derive(Clone, Debug, Default)]
pub struct QuerySpec {
    /// Class name.
    pub class: Option<String>,
    /// Global object id.
    pub object: Option<u64>,
    /// Event kind (fixed kind name or method name).
    pub kind: Option<String>,
    /// `"before"` or `"after"`.
    pub qualifier: Option<String>,
    /// Argument predicates `(index, op, value)`.
    pub args: Vec<(u64, String, Value)>,
    /// Minimum posting seq (inclusive).
    pub min_seq: Option<u64>,
    /// Maximum posting seq (inclusive).
    pub max_seq: Option<u64>,
    /// Minimum commit-time ms (inclusive).
    pub min_time: Option<u64>,
    /// Maximum commit-time ms (inclusive).
    pub max_time: Option<u64>,
    /// Row cap.
    pub limit: Option<u64>,
}

/// Outcome of [`Client::query`]: the streamed rows plus the summary
/// from the [`Reply::QueryDone`] line.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// Matching rows, in the order the server streamed them.
    pub rows: Vec<WireRow>,
    /// The row cap cut matching short — more rows exist.
    pub truncated: bool,
    /// Segments decoded across all shards.
    pub segments_scanned: u64,
    /// Segments pruned by zone metadata alone.
    pub segments_skipped: u64,
}

/// Client-side errors.
#[derive(Debug)]
pub enum ClientError {
    /// Socket failure.
    Io(std::io::Error),
    /// The server sent something the protocol does not allow here.
    Protocol(String),
    /// The server answered the request with a structured error.
    Server(WireError),
    /// [`Client::txn`] gave up: every attempt failed with a retryable
    /// error.
    RetriesExhausted {
        /// Transaction attempts made (initial try plus retries).
        attempts: u32,
        /// The last retryable server error.
        last: WireError,
    },
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(e) => write!(f, "i/o error: {e}"),
            ClientError::Protocol(m) => write!(f, "protocol error: {m}"),
            ClientError::Server(e) => write!(f, "server error [{}]: {}", e.code, e.message),
            ClientError::RetriesExhausted { attempts, last } => write!(
                f,
                "transaction failed after {attempts} attempts; last error [{}]: {}",
                last.code, last.message
            ),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Io(e)
    }
}

/// A connected protocol client (one session on the server).
pub struct Client {
    write: Conn,
    read: Conn,
    lines: LineReader,
    next_id: u64,
    pending: VecDeque<Firing>,
    notices: Vec<WireError>,
    /// How long [`Client::request`] waits for its reply.
    pub request_timeout: Duration,
    /// Retry budget for [`Client::txn`].
    pub max_retries: u32,
    /// First-retry backoff of [`Client::txn`]; doubles per attempt.
    pub backoff_base: Duration,
    /// Upper bound on any single [`Client::txn`] backoff sleep.
    pub backoff_cap: Duration,
    /// Seed decorrelating this client's backoff jitter from its
    /// neighbors'. Defaults to the process id; tests pin it.
    pub backoff_seed: u64,
}

/// The delay before retry `attempt` (1-based): exponential doubling
/// from `base`, capped at `cap`, with deterministic "equal jitter" — a
/// hash of `(seed, attempt)` picks a point in `[d/2, d]`, so clients
/// that collided on a lock spread out instead of colliding again.
pub fn backoff_delay(attempt: u32, base: Duration, cap: Duration, seed: u64) -> Duration {
    let shift = attempt.saturating_sub(1).min(20);
    let ceiling = base.checked_mul(1u32 << shift).map_or(cap, |d| d.min(cap));
    let nanos = ceiling.as_nanos() as u64;
    if nanos == 0 {
        return Duration::ZERO;
    }
    // splitmix64 of the (seed, attempt) pair.
    let mut z = seed ^ u64::from(attempt).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let floor = nanos / 2;
    Duration::from_nanos(floor + z % (nanos - floor + 1))
}

impl Client {
    /// Connect over TCP.
    pub fn connect_tcp(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let s = TcpStream::connect(addr)?;
        let _ = s.set_nodelay(true);
        Client::from_conn(Conn::Tcp(s))
    }

    /// Connect over a Unix-domain socket.
    pub fn connect_unix(path: impl AsRef<Path>) -> std::io::Result<Client> {
        let s = UnixStream::connect(path)?;
        Client::from_conn(Conn::Unix(s))
    }

    fn from_conn(write: Conn) -> std::io::Result<Client> {
        let read = write.try_clone()?;
        Ok(Client {
            write,
            read,
            lines: LineReader::new(16 * 1024 * 1024),
            next_id: 0,
            pending: VecDeque::new(),
            notices: Vec::new(),
            request_timeout: Duration::from_secs(30),
            max_retries: 64,
            backoff_base: Duration::from_micros(50),
            backoff_cap: Duration::from_millis(5),
            backoff_seed: u64::from(std::process::id()),
        })
    }

    /// Send a command and wait for its reply, buffering any firings
    /// that arrive in between.
    pub fn request(&mut self, cmd: Command) -> Result<Reply, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let mut line = serde_json::to_string(&Request { id, cmd })
            .map_err(|e| ClientError::Protocol(format!("encode failed: {e}")))?;
        line.push('\n');
        self.write.write_all(line.as_bytes())?;
        self.read.set_read_timeout(Some(self.request_timeout))?;
        loop {
            match self.read_msg()? {
                Some(ServerMsg::Firing(f)) => self.pending.push_back(f),
                Some(ServerMsg::Reply { id: rid, result }) => {
                    if rid == id {
                        return match result {
                            ReplyResult::Ok(r) => Ok(r),
                            ReplyResult::Err(e) => Err(ClientError::Server(e)),
                        };
                    } else if rid == 0 {
                        if let ReplyResult::Err(e) = result {
                            self.notices.push(e);
                        }
                    } else {
                        return Err(ClientError::Protocol(format!(
                            "unexpected reply id {rid} (awaiting {id})"
                        )));
                    }
                }
                // Replication stream messages are handled by the
                // replica runner, not this client; skip them.
                Some(_) => {}
                None => {
                    return Err(ClientError::Protocol(
                        "timed out waiting for the reply".to_string(),
                    ))
                }
            }
        }
    }

    /// Read one server message; `None` on read timeout.
    fn read_msg(&mut self) -> Result<Option<ServerMsg>, ClientError> {
        match self.lines.read_event(&mut self.read)? {
            LineEvent::Line(l) => {
                let msg: ServerMsg = serde_json::from_str(&l)
                    .map_err(|e| ClientError::Protocol(format!("bad server line: {e}")))?;
                Ok(Some(msg))
            }
            LineEvent::Tick => Ok(None),
            LineEvent::Eof => Err(ClientError::Protocol(
                "server closed the connection".to_string(),
            )),
            LineEvent::Overlong => Err(ClientError::Protocol(
                "server line exceeded the client-side cap".to_string(),
            )),
        }
    }

    /// The next buffered or incoming firing, waiting up to `timeout`.
    pub fn poll_firing(&mut self, timeout: Duration) -> Result<Option<Firing>, ClientError> {
        if let Some(f) = self.pending.pop_front() {
            return Ok(Some(f));
        }
        let deadline = Instant::now() + timeout;
        loop {
            let remaining = deadline.saturating_duration_since(Instant::now());
            if remaining.is_zero() {
                return Ok(None);
            }
            self.read.set_read_timeout(Some(remaining))?;
            match self.read_msg()? {
                Some(ServerMsg::Firing(f)) => return Ok(Some(f)),
                Some(ServerMsg::Reply { id, result }) => {
                    if id == 0 {
                        if let ReplyResult::Err(e) = result {
                            self.notices.push(e);
                        }
                    } else {
                        return Err(ClientError::Protocol(format!(
                            "unsolicited reply id {id} while polling firings"
                        )));
                    }
                }
                Some(_) => {}
                None => return Ok(None),
            }
        }
    }

    /// Like [`Client::poll_firing`] but errors on timeout.
    pub fn next_firing(&mut self, timeout: Duration) -> Result<Firing, ClientError> {
        self.poll_firing(timeout)?.ok_or_else(|| {
            ClientError::Protocol("timed out waiting for a trigger firing".to_string())
        })
    }

    /// Drain unsolicited server error notices (`id: 0` replies:
    /// overlong lines, parse failures, idle-transaction timeouts).
    pub fn drain_notices(&mut self) -> Vec<WireError> {
        std::mem::take(&mut self.notices)
    }

    // ------------------------------------------------------ typed helpers

    /// `Ping`.
    pub fn ping(&mut self) -> Result<(), ClientError> {
        match self.request(Command::Ping)? {
            Reply::Pong => Ok(()),
            other => Err(unexpected("Pong", &other)),
        }
    }

    /// `DefineClass`.
    pub fn define_class(&mut self, spec: ClassSpec) -> Result<(), ClientError> {
        unit(self.request(Command::DefineClass(spec))?)
    }

    /// `Begin` as `user`; returns the transaction id.
    pub fn begin(&mut self, user: impl Into<Value>) -> Result<u64, ClientError> {
        match self.request(Command::Begin { user: user.into() })? {
            Reply::Begun { txn } => Ok(txn),
            other => Err(unexpected("Begun", &other)),
        }
    }

    /// `Commit`.
    pub fn commit(&mut self) -> Result<(), ClientError> {
        unit(self.request(Command::Commit)?)
    }

    /// `Abort` (idempotent).
    pub fn abort(&mut self) -> Result<(), ClientError> {
        unit(self.request(Command::Abort)?)
    }

    /// `New`; returns the object id.
    pub fn new_object(
        &mut self,
        class: &str,
        overrides: &[(&str, Value)],
    ) -> Result<u64, ClientError> {
        let overrides = overrides
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect();
        match self.request(Command::New {
            class: class.to_string(),
            overrides,
        })? {
            Reply::Object { id } => Ok(id),
            other => Err(unexpected("Object", &other)),
        }
    }

    /// `Call`; returns the method's value.
    pub fn call(
        &mut self,
        object: u64,
        method: &str,
        args: &[Value],
    ) -> Result<Value, ClientError> {
        match self.request(Command::Call {
            object,
            method: method.to_string(),
            args: args.to_vec(),
        })? {
            Reply::Value(v) => Ok(v),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// `Delete`.
    pub fn delete(&mut self, object: u64) -> Result<(), ClientError> {
        unit(self.request(Command::Delete { object })?)
    }

    /// `Activate`.
    pub fn activate(
        &mut self,
        object: u64,
        trigger: &str,
        params: &[Value],
    ) -> Result<(), ClientError> {
        unit(self.request(Command::Activate {
            object,
            trigger: trigger.to_string(),
            params: params.to_vec(),
            replay_history: false,
        })?)
    }

    /// Retroactive `Activate` (`replay_history: true`): the server
    /// replays the object's indexed history through the trigger first,
    /// firing on past occurrences. Returns `(fired, scanned, active)`.
    pub fn activate_replay(
        &mut self,
        object: u64,
        trigger: &str,
        params: &[Value],
    ) -> Result<(u64, u64, bool), ClientError> {
        match self.request(Command::Activate {
            object,
            trigger: trigger.to_string(),
            params: params.to_vec(),
            replay_history: true,
        })? {
            Reply::Replayed {
                fired,
                scanned,
                active,
            } => Ok((fired, scanned, active)),
            other => Err(unexpected("Replayed", &other)),
        }
    }

    /// `Query`: run a history query and collect the streamed row
    /// chunks until the terminating [`Reply::QueryDone`] arrives.
    /// Firings that interleave with the row stream are buffered for
    /// [`Client::poll_firing`] as usual.
    pub fn query(&mut self, spec: QuerySpec) -> Result<QueryOutcome, ClientError> {
        self.next_id += 1;
        let id = self.next_id;
        let cmd = Command::Query {
            class: spec.class,
            object: spec.object,
            kind: spec.kind,
            qualifier: spec.qualifier,
            args: spec.args,
            min_seq: spec.min_seq,
            max_seq: spec.max_seq,
            min_time: spec.min_time,
            max_time: spec.max_time,
            limit: spec.limit,
        };
        let mut line = serde_json::to_string(&Request { id, cmd })
            .map_err(|e| ClientError::Protocol(format!("encode failed: {e}")))?;
        line.push('\n');
        self.write.write_all(line.as_bytes())?;
        self.read.set_read_timeout(Some(self.request_timeout))?;
        let mut rows = Vec::new();
        loop {
            match self.read_msg()? {
                Some(ServerMsg::Firing(f)) => self.pending.push_back(f),
                Some(ServerMsg::Rows {
                    id: rid,
                    rows: chunk,
                }) => {
                    if rid == id {
                        rows.extend(chunk);
                    }
                }
                Some(ServerMsg::Reply { id: rid, result }) => {
                    if rid == id {
                        return match result {
                            ReplyResult::Ok(Reply::QueryDone {
                                truncated,
                                segments_scanned,
                                segments_skipped,
                                ..
                            }) => Ok(QueryOutcome {
                                rows,
                                truncated,
                                segments_scanned,
                                segments_skipped,
                            }),
                            ReplyResult::Ok(other) => Err(unexpected("QueryDone", &other)),
                            ReplyResult::Err(e) => Err(ClientError::Server(e)),
                        };
                    } else if rid == 0 {
                        if let ReplyResult::Err(e) = result {
                            self.notices.push(e);
                        }
                    } else {
                        return Err(ClientError::Protocol(format!(
                            "unexpected reply id {rid} (awaiting {id})"
                        )));
                    }
                }
                Some(_) => {}
                None => {
                    return Err(ClientError::Protocol(
                        "timed out waiting for the reply".to_string(),
                    ))
                }
            }
        }
    }

    /// `Deactivate`.
    pub fn deactivate(&mut self, object: u64, trigger: &str) -> Result<(), ClientError> {
        unit(self.request(Command::Deactivate {
            object,
            trigger: trigger.to_string(),
        })?)
    }

    /// `AdvanceClockBy`.
    pub fn advance_clock_by(&mut self, ms: u64) -> Result<(), ClientError> {
        unit(self.request(Command::AdvanceClockBy { ms })?)
    }

    /// `AdvanceClockTo`.
    pub fn advance_clock_to(&mut self, ms: u64) -> Result<(), ClientError> {
        unit(self.request(Command::AdvanceClockTo { ms })?)
    }

    /// `Snapshot`; returns the snapshot JSON.
    pub fn snapshot(&mut self) -> Result<String, ClientError> {
        match self.request(Command::Snapshot)? {
            Reply::SnapshotTaken { json } => Ok(json),
            other => Err(unexpected("SnapshotTaken", &other)),
        }
    }

    /// `Restore`.
    pub fn restore(&mut self, snapshot: String) -> Result<(), ClientError> {
        unit(self.request(Command::Restore { snapshot })?)
    }

    /// `Stats`.
    pub fn stats(&mut self) -> Result<WireStats, ClientError> {
        match self.request(Command::Stats)? {
            Reply::Stats(s) => Ok(*s),
            other => Err(unexpected("Stats", &other)),
        }
    }

    /// `Subscribe`.
    pub fn subscribe(&mut self) -> Result<(), ClientError> {
        unit(self.request(Command::Subscribe)?)
    }

    /// `Unsubscribe`.
    pub fn unsubscribe(&mut self) -> Result<(), ClientError> {
        unit(self.request(Command::Unsubscribe)?)
    }

    /// `TakeOutput`.
    pub fn take_output(&mut self) -> Result<Vec<String>, ClientError> {
        match self.request(Command::TakeOutput)? {
            Reply::Output(lines) => Ok(lines),
            other => Err(unexpected("Output", &other)),
        }
    }

    /// `Promote`: flip a replica writable; returns the LSN its history
    /// continues from. Refuses with `promote_lagging` when un-applied
    /// upstream records are known to exist — see
    /// [`Client::promote_force`].
    pub fn promote(&mut self) -> Result<u64, ClientError> {
        match self.request(Command::Promote { force: false })? {
            Reply::Promoted { lsn, .. } => Ok(lsn),
            other => Err(unexpected("Promoted", &other)),
        }
    }

    /// `Promote` with `force: true`: promote even when the replica
    /// lags its upstream, accepting the loss of the un-applied tail
    /// (the fence demotes it everywhere on rejoin). Returns the
    /// continuation LSN and the new epoch.
    pub fn promote_force(&mut self) -> Result<(u64, u64), ClientError> {
        match self.request(Command::Promote { force: true })? {
            Reply::Promoted { lsn, epoch } => Ok((lsn, epoch)),
            other => Err(unexpected("Promoted", &other)),
        }
    }

    /// `Demote`: announce to the server that `epoch` exists elsewhere.
    /// If that is above the server's own epoch it latches read-only
    /// (typed `deposed` on mutations). Returns the server's epoch
    /// after the announcement.
    pub fn demote(&mut self, epoch: u64) -> Result<u64, ClientError> {
        match self.request(Command::Demote { epoch })? {
            Reply::Demoted { epoch } => Ok(epoch),
            other => Err(unexpected("Demoted", &other)),
        }
    }

    /// `PeekField`.
    pub fn peek_field(&mut self, object: u64, field: &str) -> Result<Value, ClientError> {
        match self.request(Command::PeekField {
            object,
            field: field.to_string(),
        })? {
            Reply::Value(v) => Ok(v),
            other => Err(unexpected("Value", &other)),
        }
    }

    /// Run `f` inside a transaction as `user`: begin, run, commit.
    /// Retryable server errors (`lock_conflict`, `wal`) abort and rerun
    /// `f` after a capped, jittered exponential backoff
    /// ([`backoff_delay`]), up to [`Client::max_retries`] retries — the
    /// wire analogue of [`ode_db::ShardedDatabase::run_txn`]. An
    /// exhausted budget returns [`ClientError::RetriesExhausted`] with
    /// the attempt count and the last retryable error.
    pub fn txn<T>(
        &mut self,
        user: &str,
        mut f: impl FnMut(&mut Client) -> Result<T, ClientError>,
    ) -> Result<T, ClientError> {
        let mut attempts: u32 = 0;
        loop {
            attempts += 1;
            self.begin(user)?;
            let r = f(self).and_then(|v| self.commit().map(|()| v));
            match r {
                Ok(v) => return Ok(v),
                Err(ClientError::Server(e)) if e.retryable => {
                    self.abort()?;
                    if attempts > self.max_retries {
                        return Err(ClientError::RetriesExhausted { attempts, last: e });
                    }
                    std::thread::sleep(backoff_delay(
                        attempts,
                        self.backoff_base,
                        self.backoff_cap,
                        self.backoff_seed,
                    ));
                }
                Err(e) => {
                    let _ = self.abort();
                    return Err(e);
                }
            }
        }
    }
}

fn unit(r: Reply) -> Result<(), ClientError> {
    match r {
        Reply::Unit => Ok(()),
        other => Err(unexpected("Unit", &other)),
    }
}

fn unexpected(wanted: &str, got: &Reply) -> ClientError {
    ClientError::Protocol(format!("expected {wanted} reply, got {got:?}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    const BASE: Duration = Duration::from_micros(50);
    const CAP: Duration = Duration::from_millis(5);

    /// The un-jittered ceiling the schedule doubles toward.
    fn ceiling(attempt: u32) -> Duration {
        (BASE * 2u32.pow((attempt - 1).min(20))).min(CAP)
    }

    /// Simulate a client's whole retry schedule on a mock clock: sum
    /// the delays [`Client::txn`] would sleep instead of sleeping them.
    #[test]
    fn schedule_is_jittered_exponential_with_cap() {
        let mut mock_clock = Duration::ZERO;
        for attempt in 1..=30 {
            let d = backoff_delay(attempt, BASE, CAP, 42);
            let c = ceiling(attempt);
            assert!(
                c / 2 <= d && d <= c,
                "attempt {attempt}: {d:?} outside [{:?}, {c:?}]",
                c / 2
            );
            mock_clock += d;
        }
        // 30 attempts: 7 doubling steps to the 5ms cap, then flat. The
        // whole schedule is bounded by 30 caps and jitter keeps it over
        // half the ceilings' sum.
        assert!(mock_clock <= CAP * 30);
        assert!(mock_clock >= (1..=30).map(ceiling).sum::<Duration>() / 2);
    }

    #[test]
    fn schedule_is_deterministic_per_seed_and_decorrelated_across_seeds() {
        for attempt in 1..=10 {
            assert_eq!(
                backoff_delay(attempt, BASE, CAP, 7),
                backoff_delay(attempt, BASE, CAP, 7),
            );
        }
        let differs = (1..=10).any(|attempt| {
            backoff_delay(attempt, BASE, CAP, 7) != backoff_delay(attempt, BASE, CAP, 8)
        });
        assert!(differs, "two seeds produced identical 10-step schedules");
    }

    #[test]
    fn late_attempts_saturate_at_the_cap() {
        for attempt in [8, 20, 1000, u32::MAX] {
            let d = backoff_delay(attempt, BASE, CAP, 3);
            assert!(CAP / 2 <= d && d <= CAP, "attempt {attempt}: {d:?}");
        }
    }

    #[test]
    fn zero_base_never_sleeps() {
        for attempt in 1..=5 {
            assert_eq!(
                backoff_delay(attempt, Duration::ZERO, Duration::ZERO, 9),
                Duration::ZERO
            );
        }
    }
}
