//! The reactor event loop and its command worker pool.
//!
//! One loop thread owns every socket: it accepts (refusing past
//! `max_conns` with a typed `server_full` notice), reads framed lines
//! (partial lines carried across readiness events by
//! [`crate::codec::LineReader`]) and parses each one exactly once,
//! drains outbox rings with write-interest-driven flushing, emits
//! replication heartbeats, and expires idle transactions.
//!
//! ## Run to completion
//!
//! A command that cannot block ([`runs_inline`]: `Begin`, `Call`, an
//! in-memory `Commit`, `PeekField`, …) executes right on the loop
//! thread when its connection is idle, and its reply — with any firing
//! it caused — is written before the loop polls again: the loop's own
//! outbox pushes mark connections dirty without ringing the waker, and
//! every turn ends by draining the dirty list (a mark that drain leaves
//! behind makes the next poll return at once).
//! Everything that may wait (a durable `Commit`'s fsync, `Query`,
//! `Checkpoint`, a `Promote` stream drain, …) runs on a small worker
//! pool. The loop blocks on nothing but the poller, with one documented
//! exception: while a worker holds every shard lock (`Checkpoint`,
//! `Snapshot`, a durable `DefineClass`), an inline command waits for
//! its shard on the loop thread — the stall that already pauses every
//! session.
//!
//! ## Per-connection command FIFO
//!
//! A request runs inline only when nothing of its connection is queued
//! or running on the pool. Otherwise it, and every line after it, is
//! queued per connection — `parse` and `overlong` notices included —
//! and the connection is *dispatched* to the pool only when it isn't
//! already running there. So one connection's replies always leave in
//! arrival order (the session contract) while distinct connections
//! interleave freely. A connection runs at most [`READ_HIGH_WATER`]
//! lines inline per read; the rest queue, so a firehosing client
//! cannot hold the loop. If a client pipelines past that mark the loop
//! gates the socket's read interest **off** (level-triggered pollers
//! would otherwise spin on the un-consumed readiness) and re-arms it
//! when the worker drains the queue.
//!
//! ## One teardown path
//!
//! Shutdown, peer disconnect, and socket errors all converge on
//! [`EventLoop::teardown`]: deregister, close the outbox ring
//! (counting stranded firings as `subscriber_drops`), drop the
//! subscription and replication-stream registrations, decrement
//! `conns_open`, and release the session's open transaction — either
//! inline, or deferred to the worker mid-command via the
//! `closed`/`running` handshake so a lock is never leaked and never
//! double-aborted. A clean EOF with queued work or unflushed replies
//! defers teardown until both drain, so half-closing clients still
//! receive every answer.

use std::collections::HashMap;
use std::net::TcpListener;
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixListener;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

use super::outbox::{encode_frame, ConnOutbox, Notify};
use super::poller::{Event, Interest, Poller};
use crate::codec::{LineEvent, LineReader};
use crate::conn::Conn;
use crate::protocol::{ReplyResult, Request, ServerMsg, WireError};
use crate::repl::HEARTBEAT_INTERVAL;
use crate::server::Shared;
use crate::session::{handle_request, notice, parse_line, runs_inline, Session};

/// A bound listener handed to the loop.
pub(crate) enum ListenSocket {
    /// TCP listener (non-blocking).
    Tcp(TcpListener),
    /// Unix-domain listener (non-blocking).
    Unix(UnixListener),
}

impl ListenSocket {
    fn raw_fd(&self) -> RawFd {
        match self {
            ListenSocket::Tcp(l) => l.as_raw_fd(),
            ListenSocket::Unix(l) => l.as_raw_fd(),
        }
    }

    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            // Replies are small separate writes: without this, Nagle
            // holds one back until the peer's delayed ACK.
            ListenSocket::Tcp(l) => l.accept().map(|(s, _)| {
                let _ = s.set_nodelay(true);
                Conn::Tcp(s)
            }),
            ListenSocket::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }
}

/// One framed line, parsed once on the loop: a request to execute, or
/// the notice (`parse`, `overlong`) that answers a line that is not one.
type Queued = Result<Request, ServerMsg>;

/// Execute one queued item against its session.
fn run_item(inner: &Shared, sess: &mut Session, item: Queued) {
    match item {
        Ok(req) => handle_request(inner, sess, req),
        Err(msg) => {
            let _ = sess.outbox.send(msg);
        }
    }
}

/// The per-connection command FIFO and its dispatch latch.
struct CmdQueue {
    items: std::collections::VecDeque<Queued>,
    /// A worker currently owns this connection's session (it is either
    /// executing a command or about to re-check the queue).
    running: bool,
}

/// State shared between the loop and the workers for one connection.
pub(crate) struct ConnState {
    /// The loop's handle on the ring the session writes to, reachable
    /// without the session lock (a worker may hold that for seconds).
    outbox: Arc<ConnOutbox>,
    /// Teardown has begun: workers stop executing queued lines and the
    /// survivor of the `closed`/`running` handshake releases the
    /// session.
    closed: AtomicBool,
    /// The session's transaction has been released (idempotence guard
    /// for the reap race — both sides of the handshake may qualify).
    reaped: AtomicBool,
    /// Locked by the loop or a worker for the duration of each command.
    session: Mutex<Session>,
    queue: Mutex<CmdQueue>,
}

impl ConnState {
    /// Take the connection's next item, in arrival order. It runs here,
    /// on the loop thread, if `inline` allows and the connection is idle
    /// (nothing queued, no worker owns the session) — so FIFO holds
    /// across the inline/worker boundary. Otherwise it is queued, and
    /// the connection is dispatched to the pool unless a worker already
    /// owns it. Returns the queue length.
    fn submit(
        self: &Arc<Self>,
        inner: &Shared,
        injector: &mpsc::Sender<Arc<ConnState>>,
        item: Queued,
        inline: bool,
    ) -> usize {
        let mut q = self.queue.lock();
        if inline && !q.running && q.items.is_empty() {
            drop(q);
            run_item(inner, &mut self.session.lock(), item);
            return 0;
        }
        q.items.push_back(item);
        let len = q.items.len();
        let dispatch = !std::mem::replace(&mut q.running, true);
        drop(q);
        if dispatch {
            let _ = injector.send(Arc::clone(self));
        }
        len
    }
}

/// Release the session's transaction exactly once, from whichever side
/// of the teardown handshake ran last. A no-op while a worker still
/// owns the session — that worker calls back in when its batch ends.
fn try_reap(inner: &Shared, st: &ConnState) {
    if st.queue.lock().running {
        return;
    }
    if st.reaped.swap(true, Ordering::SeqCst) {
        return;
    }
    let txn = st.session.lock().open_txn.take();
    if let Some(t) = txn {
        let _ = inner.db.abort(t);
    }
}

fn worker_loop(
    inner: Arc<Shared>,
    notify: Arc<Notify>,
    rx: Arc<Mutex<mpsc::Receiver<Arc<ConnState>>>>,
) {
    loop {
        let st = {
            let g = rx.lock();
            match g.recv() {
                Ok(s) => s,
                Err(_) => break,
            }
        };
        run_batch(&inner, &st);
        // Wake the loop: flush whatever the batch wrote, re-arm a
        // gated read, finalize a deferred EOF teardown.
        notify.mark(st.outbox.conn_id);
    }
}

/// Execute this connection's queued items until the queue is empty,
/// then hand the dispatch latch back.
fn run_batch(inner: &Shared, st: &ConnState) {
    loop {
        let item = {
            let mut q = st.queue.lock();
            match q.items.pop_front() {
                Some(item) => item,
                None => {
                    q.running = false;
                    break;
                }
            }
        };
        if st.closed.load(Ordering::SeqCst) {
            continue; // drain and drop: the peer is gone
        }
        run_item(inner, &mut st.session.lock(), item);
    }
    if st.closed.load(Ordering::SeqCst) {
        try_reap(inner, st);
    }
}

/// Handle to the running reactor: the doorbell plus the threads to
/// join on shutdown.
pub(crate) struct ReactorHandle {
    notify: Arc<Notify>,
    loop_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl ReactorHandle {
    /// Wake the loop so it notices the shutdown flag; it tears down
    /// every connection and exits, dropping the worker injector; the
    /// workers then drain and exit.
    pub(crate) fn stop(self) {
        self.notify.waker.wake();
        let _ = self.loop_thread.join();
        join_all(self.workers);
    }
}

fn join_all(threads: Vec<JoinHandle<()>>) {
    for h in threads {
        let _ = h.join();
    }
}

/// Register the listeners, then spawn the worker pool and the loop
/// thread. The loop is built on the calling thread so a poller or
/// registration failure is the caller's error, not a server that
/// silently never accepts.
pub(crate) fn start(
    inner: Arc<Shared>,
    listeners: Vec<ListenSocket>,
) -> std::io::Result<ReactorHandle> {
    let notify = Arc::new(Notify::new()?);
    let (inj_tx, inj_rx) = mpsc::channel::<Arc<ConnState>>();
    let mut el = EventLoop::new(Arc::clone(&inner), listeners, Arc::clone(&notify), inj_tx)?;
    let inj_rx = Arc::new(Mutex::new(inj_rx));
    let mut workers = Vec::new();
    let spawned = (0..inner.config.workers.max(1))
        .try_for_each(|i| {
            let (w_inner, w_notify, w_rx) =
                (Arc::clone(&inner), Arc::clone(&notify), Arc::clone(&inj_rx));
            let worker = thread::Builder::new()
                .name(format!("ode-worker-{i}"))
                .spawn(move || worker_loop(w_inner, w_notify, w_rx))?;
            workers.push(worker);
            Ok(())
        })
        .and_then(|()| {
            thread::Builder::new()
                .name("ode-reactor".into())
                .spawn(move || el.run())
        });
    match spawned {
        Ok(loop_thread) => Ok(ReactorHandle {
            notify,
            loop_thread,
            workers,
        }),
        // Either failed spawn dropped the closure that owned the loop,
        // and with it the injector the running workers block on.
        Err(e) => {
            join_all(workers);
            Err(e)
        }
    }
}

/// Stop reading a connection once this many lines are queued unexecuted;
/// re-arm when the worker drains them. Bounds per-connection memory
/// under hostile pipelining without ever stalling other connections.
/// Also the most lines one read runs inline before the rest queue.
const READ_HIGH_WATER: usize = 128;

struct Entry {
    conn: Conn,
    reader: LineReader,
    state: Arc<ConnState>,
    last_activity: Instant,
    last_heartbeat: Instant,
    /// Read interest currently disarmed (queue over high water).
    read_gated: bool,
    /// Write interest currently armed (partial flush pending).
    write_interest: bool,
    /// Clean EOF seen; teardown deferred until queued commands execute
    /// and their replies flush.
    peer_eof: bool,
}

struct EventLoop {
    inner: Arc<Shared>,
    poller: Poller,
    notify: Arc<Notify>,
    injector: mpsc::Sender<Arc<ConnState>>,
    listeners: Vec<ListenSocket>,
    conns: HashMap<RawFd, Entry>,
    by_id: HashMap<u64, RawFd>,
    last_sweep: Instant,
}

impl EventLoop {
    fn new(
        inner: Arc<Shared>,
        listeners: Vec<ListenSocket>,
        notify: Arc<Notify>,
        injector: mpsc::Sender<Arc<ConnState>>,
    ) -> std::io::Result<EventLoop> {
        let mut poller = Poller::new()?;
        poller.register(notify.waker.fd(), Interest::READ)?;
        for l in &listeners {
            poller.register(l.raw_fd(), Interest::READ)?;
        }
        Ok(EventLoop {
            inner,
            poller,
            notify,
            injector,
            listeners,
            conns: HashMap::new(),
            by_id: HashMap::new(),
            last_sweep: Instant::now(),
        })
    }

    fn run(&mut self) {
        self.notify.claim_loop();
        let mut events: Vec<Event> = Vec::new();
        let tick = self.inner.config.poll_interval;
        while !self.inner.shutdown.load(Ordering::SeqCst) {
            // The loop's own marks (an inline command run while draining,
            // a sweep notice) rang no waker: while one is pending, poll
            // without waiting.
            let timeout = if self.notify.pending() {
                Duration::ZERO
            } else {
                tick
            };
            if self.poller.wait(&mut events, timeout).is_err() {
                break;
            }
            for ev in std::mem::take(&mut events) {
                if ev.fd == self.notify.waker.fd() {
                    self.notify.waker.drain();
                } else if let Some(idx) = self.listeners.iter().position(|l| l.raw_fd() == ev.fd) {
                    self.accept_ready(idx);
                } else {
                    if ev.writable {
                        self.flush(ev.fd);
                    }
                    if ev.readable {
                        self.read_lines(ev.fd);
                    }
                    self.maybe_finalize(ev.fd);
                }
            }
            for conn_id in self.notify.take() {
                if let Some(&fd) = self.by_id.get(&conn_id) {
                    self.flush(fd);
                    self.rearm_read(fd);
                    self.maybe_finalize(fd);
                }
            }
            if self.last_sweep.elapsed() >= tick {
                self.last_sweep = Instant::now();
                self.sweep();
            }
        }
        // Shutdown: one teardown path for every live connection.
        for fd in self.conns.keys().copied().collect::<Vec<_>>() {
            self.teardown(fd);
        }
    }

    /// Periodic per-connection duties: replication heartbeats and the
    /// idle-transaction timer.
    fn sweep(&mut self) {
        let idle_limit = self.inner.config.txn_idle_timeout;
        for entry in self.conns.values_mut() {
            let beat = entry.last_heartbeat.elapsed() >= HEARTBEAT_INTERVAL;
            let idle = idle_limit.is_some_and(|limit| entry.last_activity.elapsed() >= limit);
            if !(beat || idle) {
                continue;
            }
            // `try_lock`: a held session lock means a command is
            // mid-execution — not idle, and about to answer anyway.
            let Some(mut sess) = entry.state.session.try_lock() else {
                continue;
            };
            if beat {
                entry.last_heartbeat = Instant::now();
                if let (true, Some(ws)) = (sess.replicating, &self.inner.wal) {
                    // The heads a replica should chase are the durable
                    // ones: buffered-but-unflushed records aren't
                    // shippable yet. One report per shard stream.
                    let epoch = self.inner.epochs.history_epoch();
                    for (s, wal) in ws.wal.wals().iter().enumerate() {
                        let _ = sess.outbox.send(ServerMsg::ReplHeartbeat {
                            shard: s as u64,
                            head: wal.durable_lsn(),
                            epoch,
                        });
                    }
                }
            }
            if idle {
                if let Some(t) = sess.open_txn.take() {
                    let _ = self.inner.db.abort(t);
                    let _ = sess.outbox.send(notice(
                        "txn_timeout",
                        "open transaction aborted after idle timeout".to_string(),
                    ));
                }
            }
        }
    }

    fn accept_ready(&mut self, idx: usize) {
        // Stops on WouldBlock, or any transient accept error.
        while let Ok(conn) = self.listeners[idx].accept() {
            self.admit(conn);
        }
    }

    fn admit(&mut self, conn: Conn) {
        if let Some(max) = self.inner.config.max_conns {
            if self.inner.conns_open.load(Ordering::SeqCst) >= max {
                self.inner.conns_rejected.fetch_add(1, Ordering::SeqCst);
                reject_full(conn, max);
                return;
            }
        }
        if conn.set_nonblocking(true).is_err() {
            return;
        }
        let fd = conn.as_raw_fd();
        let conn_id = self.inner.next_conn.fetch_add(1, Ordering::SeqCst) + 1;
        let outbox = Arc::new(ConnOutbox::new(conn_id, Arc::clone(&self.notify)));
        let state = Arc::new(ConnState {
            outbox: Arc::clone(&outbox),
            closed: AtomicBool::new(false),
            reaped: AtomicBool::new(false),
            session: Mutex::new(Session {
                conn_id,
                outbox,
                open_txn: None,
                replicating: false,
            }),
            queue: Mutex::new(CmdQueue {
                items: std::collections::VecDeque::new(),
                running: false,
            }),
        });
        if self.poller.register(fd, Interest::READ).is_err() {
            conn.shutdown_both();
            return;
        }
        self.inner.conns_open.fetch_add(1, Ordering::SeqCst);
        self.by_id.insert(conn_id, fd);
        let now = Instant::now();
        self.conns.insert(
            fd,
            Entry {
                conn,
                reader: LineReader::new(self.inner.config.max_line_bytes),
                state,
                last_activity: now,
                last_heartbeat: now,
                read_gated: false,
                write_interest: false,
                peer_eof: false,
            },
        );
    }

    /// Drain readable bytes into framed lines, parse each once, and run
    /// or queue it ([`ConnState::submit`]).
    fn read_lines(&mut self, fd: RawFd) {
        let Some(entry) = self.conns.get_mut(&fd) else {
            return;
        };
        if entry.read_gated || entry.peer_eof {
            return;
        }
        let durable = self.inner.wal.is_some();
        let mut inline_budget = READ_HIGH_WATER;
        let mut dead = false;
        loop {
            let item = match entry.reader.read_event(&mut entry.conn) {
                Ok(LineEvent::Line(line)) => {
                    entry.last_activity = Instant::now();
                    match parse_line(&line) {
                        Some(item) => item,
                        None => continue,
                    }
                }
                Ok(LineEvent::Overlong) => Err(notice(
                    "overlong",
                    format!(
                        "request line exceeds {} bytes",
                        self.inner.config.max_line_bytes
                    ),
                )),
                Ok(LineEvent::Tick) => break,
                Ok(LineEvent::Eof) => {
                    entry.peer_eof = true;
                    break;
                }
                Err(_) => {
                    dead = true;
                    break;
                }
            };
            let inline = inline_budget > 0
                && match &item {
                    Ok(req) => runs_inline(&req.cmd, durable),
                    Err(_) => true,
                };
            inline_budget -= usize::from(inline);
            let queued = entry
                .state
                .submit(&self.inner, &self.injector, item, inline);
            if queued >= READ_HIGH_WATER {
                entry.read_gated = true;
                break;
            }
        }
        if dead {
            self.teardown(fd);
        } else {
            self.update_interest(fd);
        }
    }

    /// Re-arm a gated read once the worker drained the queue (pulling
    /// any lines already framed in the reader's carry buffer too).
    fn rearm_read(&mut self, fd: RawFd) {
        let Some(entry) = self.conns.get_mut(&fd) else {
            return;
        };
        if !entry.read_gated {
            return;
        }
        if entry.state.queue.lock().items.len() < READ_HIGH_WATER {
            entry.read_gated = false;
            self.update_interest(fd);
            self.read_lines(fd);
        }
    }

    /// Write the outbox ring to the socket until drained or the kernel
    /// pushes back; arm write interest exactly while a flush is
    /// pending.
    fn flush(&mut self, fd: RawFd) {
        let Some(entry) = self.conns.get_mut(&fd) else {
            return;
        };
        let mut blocked = false;
        let mut dead = false;
        loop {
            // Peek-clone the front frame so producers (who push under
            // the engine lock) never wait on a write syscall.
            let front = {
                let mut g = entry.state.outbox.inner.lock();
                match g.queue.front() {
                    None => {
                        g.scheduled = false;
                        None
                    }
                    Some(f) => Some((Arc::clone(&f.bytes), g.front_off)),
                }
            };
            let Some((bytes, off)) = front else { break };
            match std::io::Write::write(&mut entry.conn, &bytes[off..]) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    let mut g = entry.state.outbox.inner.lock();
                    g.front_off += n;
                    if g.front_off >= bytes.len() {
                        g.queue.pop_front();
                        g.front_off = 0;
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    blocked = true;
                    break;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.teardown(fd);
            return;
        }
        if entry_write_interest(self.conns.get_mut(&fd), blocked) {
            self.update_interest(fd);
        }
    }

    /// Finalize a deferred clean-EOF teardown: every queued command
    /// has executed and every reply has flushed.
    fn maybe_finalize(&mut self, fd: RawFd) {
        let Some(entry) = self.conns.get(&fd) else {
            return;
        };
        if !entry.peer_eof {
            return;
        }
        let busy = {
            let q = entry.state.queue.lock();
            q.running || !q.items.is_empty()
        };
        let unflushed = {
            let g = entry.state.outbox.inner.lock();
            !g.queue.is_empty()
        };
        if !busy && !unflushed {
            self.teardown(fd);
        }
    }

    fn update_interest(&mut self, fd: RawFd) {
        let Some(entry) = self.conns.get(&fd) else {
            return;
        };
        let interest = Interest {
            read: !entry.read_gated && !entry.peer_eof,
            write: entry.write_interest,
        };
        let _ = self.poller.reregister(fd, interest);
    }

    /// The one teardown path: shutdown, peer disconnect, and socket
    /// errors all come through here (idle timeouts only abort the
    /// transaction and keep the connection). Idempotent per fd —
    /// the map removal makes a second call a no-op.
    fn teardown(&mut self, fd: RawFd) {
        let Some(entry) = self.conns.remove(&fd) else {
            return;
        };
        let st = &entry.state;
        let conn_id = st.outbox.conn_id;
        self.by_id.remove(&conn_id);
        let _ = self.poller.deregister(fd);
        st.closed.store(true, Ordering::SeqCst);
        let stranded = st.outbox.close();
        if stranded > 0 {
            self.inner
                .subscriber_drops
                .fetch_add(stranded, Ordering::Relaxed);
        }
        self.inner.subs.lock().remove(&conn_id);
        if let Some(ws) = &self.inner.wal {
            for subs in &ws.repl_subs {
                subs.lock().remove(&conn_id);
            }
        }
        self.inner.conns_open.fetch_sub(1, Ordering::SeqCst);
        entry.conn.shutdown_both();
        try_reap(&self.inner, st);
        // `entry.conn` drops here, closing the fd after deregistration.
    }
}

/// Update `write_interest` on the entry; returns whether it changed.
fn entry_write_interest(entry: Option<&mut Entry>, want: bool) -> bool {
    match entry {
        Some(e) if e.write_interest != want => {
            e.write_interest = want;
            true
        }
        _ => false,
    }
}

/// Refuse a connection over `--max-conns` with a typed notice: a
/// best-effort non-blocking write of one `server_full` line (the
/// socket's send buffer is empty, so it virtually always lands), then
/// close.
fn reject_full(conn: Conn, max: u64) {
    let msg = ServerMsg::Reply {
        id: 0,
        result: ReplyResult::Err(WireError {
            code: "server_full".to_string(),
            message: format!("connection limit ({max}) reached; retry later"),
            retryable: true,
        }),
    };
    let mut conn = conn;
    if let Some(frame) = encode_frame(&msg) {
        let _ = conn.set_nonblocking(true);
        let _ = std::io::Write::write(&mut conn, &frame);
    }
    conn.shutdown_both();
}
