//! The measured run: two generator threads driving the bed's
//! connections over the wire.
//!
//! Each thread blocks in one `poll(2)` over its sockets — its writer,
//! its share of the subscribers, the reader, a wake-up socket — stamps
//! the moment `poll` returns, and feeds every line that became
//! readable to the state machine owning that socket. Writers and the
//! reader are closed loops: the next request is written only when the
//! previous reply has been read.

use std::collections::HashSet;
use std::io::{self, Read, Write};
use std::os::unix::io::AsRawFd;
use std::os::unix::net::UnixStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use ode_core::Value;
use ode_server::{Command, Firing, Reply, ReplyResult, ServerMsg};

use crate::bed::{begin, refresh_queries, Model, Preloaded, TCOMMIT};
use crate::net::{Line, PollSet};
use crate::span::{Recorder, ROOT};
use crate::stats::Samples;
use crate::workload::{tag_of, Method, Planner, TxnPlan, Workload, PROBE};

/// How long after the last commit a delivery may still arrive before
/// it counts as failed.
const DELIVERY_GRACE_NS: u64 = 2_000_000_000;

/// State the two generator threads share. Everything here is either a
/// statistic or a monotone counter read for a bound, except
/// `delivered`, which publishes nothing but its own value.
pub struct Shared {
    pub epoch: Instant,
    /// The measurement ends this many ns after `epoch`.
    pub deadline_ns: u64,
    /// Spans are recorded from this many ns after `epoch` (traced runs
    /// leave the first third untraced to measure the overhead).
    pub spans_from_ns: u64,
    /// `closed_on_delivery`: per writer, the highest call ordinal that
    /// every subscriber has received.
    delivered: Vec<AtomicU64>,
    /// Writers that have finished, the probe firings they caused, and
    /// when the last of them committed.
    writers_done: AtomicU64,
    withdraws: AtomicU64,
    last_commit_ns: AtomicU64,
}

impl Shared {
    pub fn new(seconds: u64, trace: bool, writers: usize) -> Shared {
        let deadline_ns = seconds * 1_000_000_000;
        Shared {
            epoch: Instant::now(),
            deadline_ns,
            spans_from_ns: if trace { deadline_ns / 3 } else { u64::MAX },
            delivered: (0..writers).map(|_| AtomicU64::new(0)).collect(),
            writers_done: AtomicU64::new(0),
            withdraws: AtomicU64::new(0),
            last_commit_ns: AtomicU64::new(0),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn window(&self, ns: u64) -> u32 {
        (ns / 1_000_000_000) as u32
    }
}

/// What a writer remembers about each call it sent, indexed by the
/// call's ordinal − 1: when it was written, the span it belongs to and
/// the transaction ordinal.
#[derive(Clone, Copy)]
pub struct CallSent {
    pub sent_ns: u64,
    pub span: u32,
    pub txn_no: u64,
}

enum WState {
    Begin,
    Call(usize),
    Commit,
    Peek(u64),
    /// Committed; waiting until every subscriber has the firing.
    Delivery,
    Done,
}

pub struct Writer {
    pub id: usize,
    line: Line,
    planner: Planner,
    state: WState,
    txn: TxnPlan,
    pub txn_no: u64,
    t_begin: u64,
    t_req: u64,
    txn_span: u32,
    call_span: u32,
    pub calls: Vec<CallSent>,
    pub txn_lat: Samples,
    pub read_lat: Samples,
    /// Commits per one-second window.
    pub commits: Vec<u64>,
    pub reads: u64,
    pub withdraws: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    /// Calls on the sampled objects, in request order, with the
    /// transaction ordinal (for the detection oracle).
    pub sampled_log: Vec<(u64, crate::workload::CallPlan)>,
    sampled: HashSet<u64>,
    closed_on_delivery: bool,
    pub spans: Recorder,
}

impl Writer {
    pub fn new(
        id: usize,
        wl: &'static Workload,
        seed: u64,
        line: Line,
        sampled: HashSet<u64>,
    ) -> Writer {
        let mut planner = Planner::new(wl, seed, id);
        let txn = planner.next_txn();
        Writer {
            id,
            line,
            planner,
            state: WState::Begin,
            txn,
            txn_no: 1,
            t_begin: 0,
            t_req: 0,
            txn_span: ROOT,
            call_span: ROOT,
            calls: Vec::new(),
            txn_lat: Samples::default(),
            read_lat: Samples::default(),
            commits: Vec::new(),
            reads: 0,
            withdraws: 0,
            failed: 0,
            wrong: Vec::new(),
            sampled_log: Vec::new(),
            sampled,
            closed_on_delivery: wl.closed_on_delivery,
            spans: Recorder::default(),
        }
    }

    pub fn bytes(&self) -> u64 {
        self.line.bytes_in + self.line.bytes_out
    }

    fn request_id(&self) -> u64 {
        (self.id as u64) << 32 | self.txn_no
    }

    /// Write the first request of the current transaction.
    fn start_txn(&mut self, sh: &Shared) -> io::Result<()> {
        let now = sh.now_ns();
        self.spans.on = now >= sh.spans_from_ns;
        self.t_begin = now;
        self.t_req = now;
        self.txn_span = self.spans.open("txn", now, ROOT, self.request_id());
        self.state = WState::Begin;
        self.line.send(begin())
    }

    fn send_call(&mut self, k: usize, sh: &Shared) -> io::Result<()> {
        let call = &self.txn.calls[k];
        let line = self.line.encode(call.command());
        let now = sh.now_ns();
        self.t_req = now;
        // The call span is opened now so deliveries can name it as
        // their parent; it is closed when the reply is read.
        let span = self
            .spans
            .open("call", now, self.txn_span, self.request_id());
        self.call_span = span;
        self.calls.push(CallSent {
            sent_ns: now,
            span,
            txn_no: self.txn_no,
        });
        debug_assert_eq!(call.tag, tag_of(self.id as u64, self.calls.len() as u64));
        self.state = WState::Call(k);
        self.line.send_line(&line)
    }

    fn finish_txn(&mut self, now: u64, sh: &Shared, model: &mut Model) {
        let w = sh.window(now) as usize;
        if self.commits.len() <= w {
            self.commits.resize(w + 1, 0);
        }
        self.commits[w] += 1;
        self.txn_lat.push(w as u32, now - self.t_begin);
        model.apply(&self.txn);
        for c in &self.txn.calls {
            if c.method == Method::Withdraw {
                self.withdraws += 1;
            }
            if self.sampled.contains(&c.object) {
                self.sampled_log.push((self.txn_no, c.clone()));
            }
        }
    }

    /// Start the next transaction, or stop when the measurement is over.
    fn next_or_stop(&mut self, now: u64, sh: &Shared) -> io::Result<()> {
        self.spans.close(self.txn_span, now);
        if now >= sh.deadline_ns {
            self.stop(now, sh);
            return Ok(());
        }
        self.txn = self.planner.next_txn();
        self.txn_no += 1;
        self.start_txn(sh)
    }

    /// Leave the loop and tell the subscribers' thread what to expect.
    fn stop(&mut self, now: u64, sh: &Shared) {
        self.state = WState::Done;
        sh.withdraws.fetch_add(self.withdraws, Ordering::SeqCst);
        sh.last_commit_ns.fetch_max(now, Ordering::SeqCst);
        sh.writers_done.fetch_add(1, Ordering::SeqCst);
    }

    fn after_commit(&mut self, now: u64, sh: &Shared) -> io::Result<()> {
        if let Some(object) = self.txn.peek {
            self.t_req = sh.now_ns();
            self.state = WState::Peek(object);
            return self.line.send(Command::PeekField {
                object,
                field: "items".into(),
            });
        }
        self.after_read(now, sh)
    }

    fn after_read(&mut self, now: u64, sh: &Shared) -> io::Result<()> {
        if self.closed_on_delivery
            && sh.delivered[self.id].load(Ordering::SeqCst) < self.calls.len() as u64
        {
            self.state = WState::Delivery;
            return Ok(());
        }
        self.next_or_stop(now, sh)
    }

    /// The subscribers' thread reported progress.
    fn on_wake(&mut self, now: u64, sh: &Shared) -> io::Result<()> {
        if matches!(self.state, WState::Delivery)
            && sh.delivered[self.id].load(Ordering::SeqCst) >= self.calls.len() as u64
        {
            self.next_or_stop(now, sh)?;
        }
        Ok(())
    }

    fn on_reply(
        &mut self,
        result: ReplyResult,
        now: u64,
        sh: &Shared,
        model: &mut Model,
    ) -> io::Result<()> {
        let reply = match result {
            ReplyResult::Ok(r) => r,
            ReplyResult::Err(e) => {
                // No workload is built to fail; a refusal ends this
                // writer and fails the run.
                self.failed += 1;
                self.wrong
                    .push(format!("writer {}: {} ({})", self.id, e.message, e.code));
                self.stop(now, sh);
                return Ok(());
            }
        };
        let rid = self.request_id();
        match self.state {
            WState::Begin => {
                self.spans
                    .push("begin", self.t_req, now, self.txn_span, rid);
                self.send_call(0, sh)
            }
            WState::Call(k) => {
                self.spans.close(self.call_span, now);
                if k + 1 < self.txn.calls.len() {
                    self.send_call(k + 1, sh)
                } else {
                    self.t_req = sh.now_ns();
                    self.state = WState::Commit;
                    self.line.send(Command::Commit)
                }
            }
            WState::Commit => {
                self.spans
                    .push("commit", self.t_req, now, self.txn_span, rid);
                self.finish_txn(now, sh, model);
                self.after_commit(now, sh)
            }
            WState::Peek(object) => {
                self.spans.push("read", self.t_req, now, ROOT, rid);
                self.reads += 1;
                self.read_lat.push(sh.window(now), now - self.t_req);
                let want = model.record(object);
                if !matches!(&reply, Reply::Value(v) if *v == want) {
                    self.wrong
                        .push(format!("object {object}: read {reply:?}, model {want:?}"));
                }
                self.after_read(now, sh)
            }
            WState::Delivery | WState::Done => Ok(()),
        }
    }

    fn done(&self) -> bool {
        matches!(self.state, WState::Done)
    }
}

/// One delivery of a probe firing to one subscriber: which call, when.
#[derive(Clone, Copy)]
pub struct Delivery {
    pub tag: u64,
    pub at_ns: u64,
}

/// What one subscriber socket saw.
pub struct Subscriber {
    line: Line,
    /// Probe firings, in arrival order.
    pub deliveries: Vec<Delivery>,
    /// Every firing (any trigger): count, and a running hash of the
    /// `(shard, seq)` sequence for the exactly-once comparison.
    pub firings: u64,
    pub seq_hash: u64,
    last_seq: Vec<u64>,
    pub wrong: Vec<String>,
    /// Firings on the sampled objects, in arrival order (kept by the
    /// first subscriber only).
    pub sampled_firings: Vec<Firing>,
}

impl Subscriber {
    fn new(line: Line) -> Subscriber {
        Subscriber {
            line,
            deliveries: Vec::new(),
            firings: 0,
            seq_hash: 0xcbf2_9ce4_8422_2325,
            last_seq: Vec::new(),
            wrong: Vec::new(),
            sampled_firings: Vec::new(),
        }
    }

    pub fn bytes(&self) -> u64 {
        self.line.bytes_in + self.line.bytes_out
    }

    fn on_firing(&mut self, f: Firing, now: u64, sampled: Option<&HashSet<u64>>) -> Option<u64> {
        self.firings += 1;
        let shard = f.shard as usize;
        if self.last_seq.len() <= shard {
            self.last_seq.resize(shard + 1, 0);
        }
        // Exactly once, in order: a shard's seqs must strictly increase.
        if f.seq <= self.last_seq[shard] && self.wrong.len() < 8 {
            self.wrong.push(format!(
                "shard {shard}: firing seq {} after {}",
                f.seq, self.last_seq[shard]
            ));
        }
        self.last_seq[shard] = f.seq;
        for word in [f.shard, f.seq] {
            self.seq_hash = (self.seq_hash ^ word).wrapping_mul(0x0000_0100_0000_01b3);
        }
        let mut probe_tag = None;
        if f.trigger == PROBE {
            match f.args.last() {
                Some(Value::Int(tag)) => {
                    self.deliveries.push(Delivery {
                        tag: *tag as u64,
                        at_ns: now,
                    });
                    probe_tag = Some(*tag as u64);
                }
                other => self
                    .wrong
                    .push(format!("probe firing without a tag: {other:?}")),
            }
        }
        if sampled.is_some_and(|s| s.contains(&f.object)) {
            self.sampled_firings.push(f);
        }
        probe_tag
    }
}

enum RState {
    Query(usize),
    Done,
}

/// The closed-loop reader of `hist_mixed`: one refresh is the three
/// queries in sequence.
pub struct Reader {
    line: Line,
    queries: [String; 3],
    expect: Preloaded,
    state: RState,
    t_refresh: u64,
    t_req: u64,
    rows_streamed: u64,
    /// `after tcommit` rows among them.
    tcommits_streamed: u64,
    pub refresh_lat: Samples,
    pub refreshes: u64,
    pub failed: u64,
    pub wrong: Vec<String>,
    pub spans: Recorder,
}

impl Reader {
    fn new(mut line: Line, expect: Preloaded) -> Reader {
        // Query ids are not checked, so one encoding serves every refresh.
        let queries = refresh_queries(&expect).map(|q| line.encode(q));
        Reader {
            line,
            queries,
            expect,
            state: RState::Done,
            t_refresh: 0,
            t_req: 0,
            rows_streamed: 0,
            tcommits_streamed: 0,
            refresh_lat: Samples::default(),
            refreshes: 0,
            failed: 0,
            wrong: Vec::new(),
            spans: Recorder::default(),
        }
    }

    pub fn bytes(&self) -> u64 {
        self.line.bytes_in + self.line.bytes_out
    }

    fn send_query(&mut self, k: usize, sh: &Shared) -> io::Result<()> {
        let now = sh.now_ns();
        if k == 0 {
            self.spans.on = now >= sh.spans_from_ns;
            self.t_refresh = now;
        }
        self.t_req = now;
        self.rows_streamed = 0;
        self.tcommits_streamed = 0;
        self.state = RState::Query(k);
        self.line.send_line(&self.queries[k])
    }

    fn on_msg(&mut self, msg: ServerMsg, now: u64, sh: &Shared) -> io::Result<()> {
        let RState::Query(k) = self.state else {
            return Ok(());
        };
        let result = match msg {
            ServerMsg::Rows { rows, .. } => {
                self.rows_streamed += rows.len() as u64;
                self.tcommits_streamed += rows.iter().filter(|r| r.event == TCOMMIT).count() as u64;
                return Ok(());
            }
            ServerMsg::Reply { result, .. } => result,
            _ => return Ok(()),
        };
        let rows = match result {
            ReplyResult::Ok(Reply::QueryDone {
                rows, truncated, ..
            }) if !truncated && rows == self.rows_streamed => rows,
            other => {
                self.failed += 1;
                self.wrong.push(format!("query {k}: {other:?}"));
                self.state = RState::Done;
                return Ok(());
            }
        };
        // Row counts against the model; all three are fixed by the
        // preload (the writer sends no `audit`). The shipped history store
        // drops the system round's `after tcommit` batch (it shares its
        // commit's LSN and is taken for already applied — see the
        // README's observations), so those rows may be all there or
        // all missing; every other row must be there.
        let tcommits = self.tcommits_streamed;
        let ok = match k {
            0 => rows == self.expect.audits,
            1 => {
                rows - tcommits == self.expect.band_rows
                    && (tcommits == 0 || tcommits == self.expect.band_tcommits)
            }
            _ => rows == self.expect.scan_rows,
        };
        if !ok && self.wrong.len() < 8 {
            self.wrong.push(format!(
                "query {k} returned {rows} rows, {tcommits} of them `{TCOMMIT}` (model: audits \
                 {}, band {} + {}, scan {})",
                self.expect.audits,
                self.expect.band_rows,
                self.expect.band_tcommits,
                self.expect.scan_rows
            ));
        }
        const NAMES: [&str; 3] = ["query_rare", "query_band", "query_scan"];
        self.spans
            .push(NAMES[k], self.t_req, now, ROOT, self.refreshes + 1);
        if k + 1 < 3 {
            return self.send_query(k + 1, sh);
        }
        self.refreshes += 1;
        self.refresh_lat.push(sh.window(now), now - self.t_refresh);
        self.spans
            .push("read", self.t_refresh, now, ROOT, self.refreshes);
        if now >= sh.deadline_ns {
            self.state = RState::Done;
            Ok(())
        } else {
            self.send_query(0, sh)
        }
    }

    fn done(&self) -> bool {
        matches!(self.state, RState::Done)
    }
}

/// Everything one generator thread owns.
pub struct Lane {
    pub writers: Vec<Writer>,
    pub reader: Option<Reader>,
    pub subs: Vec<Subscriber>,
    /// Read end of the wake-up pair (the writer's thread) and write end
    /// (the subscribers' thread) of a `closed_on_delivery` workload.
    wake_rx: Option<UnixStream>,
    wake_tx: Option<UnixStream>,
    /// Objects whose firings the first subscriber keeps.
    sampled: Option<HashSet<u64>>,
    /// Subscribers in the whole run (for the all-delivered test).
    total_subs: usize,
    total_writers: u64,
    /// Per writer and call ordinal: subscribers that have its firing.
    arrived: Vec<Vec<u16>>,
}

enum Role {
    Writer(usize),
    Reader,
    Sub(usize),
    Wake,
}

/// Build the two lanes from a bed's connections. `sampled[w]` are the
/// objects of writer `w` the detection oracle follows.
pub fn lanes(
    wl: &'static Workload,
    seed: u64,
    writers: Vec<Line>,
    subs: [Vec<Line>; 2],
    reader: Option<Line>,
    preloaded: &Preloaded,
    sampled: &[HashSet<u64>],
) -> io::Result<[Lane; 2]> {
    let all_sampled: HashSet<u64> = sampled.iter().flatten().copied().collect();
    let (wake_rx, wake_tx) = if wl.closed_on_delivery {
        let (a, b) = UnixStream::pair()?;
        a.set_nonblocking(true)?;
        (Some(a), Some(b))
    } else {
        (None, None)
    };
    // Writer w drives from generator thread w mod 2.
    let mut hosted: [Vec<Writer>; 2] = [Vec::new(), Vec::new()];
    for (id, line) in writers.into_iter().enumerate() {
        hosted[id % 2].push(Writer::new(id, wl, seed, line, sampled[id].clone()));
    }
    let [writers0, writers1] = hosted;
    let [subs0, subs1] = subs;
    let first_sub_on_0 = !subs0.is_empty();
    let lane = |writers, reader, subs: Vec<Line>, wake_rx, wake_tx, keeps_sampled: bool| Lane {
        writers,
        reader,
        subs: subs.into_iter().map(Subscriber::new).collect(),
        wake_rx,
        wake_tx,
        sampled: keeps_sampled.then(|| all_sampled.clone()),
        total_subs: wl.subscribers(),
        total_writers: wl.writers as u64,
        arrived: vec![Vec::new(); wl.writers],
    };
    let lane0 = lane(writers0, None, subs0, wake_rx, None, first_sub_on_0);
    let lane1 = lane(
        writers1,
        reader.map(|l| Reader::new(l, preloaded.clone())),
        subs1,
        None,
        wake_tx,
        !first_sub_on_0,
    );
    Ok([lane0, lane1])
}

impl Lane {
    /// Drive this lane's sockets until its writer and reader have
    /// stopped and its subscribers have every delivery (or the grace
    /// period after the last commit has passed).
    pub fn run(&mut self, sh: &Shared, model: &mut Model) -> io::Result<()> {
        let mut fds = Vec::new();
        let mut roles = Vec::new();
        for (i, w) in self.writers.iter().enumerate() {
            fds.push(w.line.fd());
            roles.push(Role::Writer(i));
        }
        if let Some(r) = &self.reader {
            fds.push(r.line.fd());
            roles.push(Role::Reader);
        }
        for (i, s) in self.subs.iter().enumerate() {
            fds.push(s.line.fd());
            roles.push(Role::Sub(i));
        }
        if let Some(rx) = &self.wake_rx {
            fds.push(rx.as_raw_fd());
            roles.push(Role::Wake);
        }
        let mut poll = PollSet::new(&fds);
        for w in &mut self.writers {
            w.start_txn(sh)?;
        }
        if let Some(r) = &mut self.reader {
            r.line.quick_ack();
            r.send_query(0, sh)?;
        }
        let mut ready = Vec::new();
        while !self.finished(sh) {
            ready.clear();
            poll.wait(20, |i| ready.push(i))?;
            let now = sh.now_ns();
            for &i in &ready {
                match roles[i] {
                    Role::Writer(k) => {
                        let w = &mut self.writers[k];
                        if !w.line.fill()? {
                            return Err(io::ErrorKind::UnexpectedEof.into());
                        }
                        while let Some(msg) = w.line.next_msg()? {
                            if let ServerMsg::Reply { result, .. } = msg {
                                w.on_reply(result, now, sh, model)?;
                            }
                        }
                    }
                    Role::Reader => {
                        let r = self.reader.as_mut().expect("role implies reader");
                        if !r.line.fill()? {
                            return Err(io::ErrorKind::UnexpectedEof.into());
                        }
                        r.line.quick_ack();
                        while let Some(msg) = r.line.next_msg()? {
                            r.on_msg(msg, now, sh)?;
                        }
                    }
                    Role::Sub(j) => {
                        // This lane's own writers need no wake-up byte.
                        if self.on_sub_readable(j, now, sh)? {
                            for w in &mut self.writers {
                                w.on_wake(now, sh)?;
                            }
                        }
                    }
                    Role::Wake => {
                        let mut sink = [0u8; 256];
                        let rx = self.wake_rx.as_mut().expect("role implies wake socket");
                        while matches!(rx.read(&mut sink), Ok(n) if n > 0) {}
                        for w in &mut self.writers {
                            w.on_wake(now, sh)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Returns whether some call has now reached every subscriber.
    fn on_sub_readable(&mut self, j: usize, now: u64, sh: &Shared) -> io::Result<bool> {
        let keep = if j == 0 { self.sampled.as_ref() } else { None };
        let sub = &mut self.subs[j];
        if !sub.line.fill()? {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        let mut progressed = false;
        while let Some(msg) = sub.line.next_msg()? {
            let ServerMsg::Firing(f) = msg else { continue };
            let Some(tag) = sub.on_firing(f, now, keep) else {
                continue;
            };
            if self.wake_tx.is_none() {
                continue;
            }
            // closed_on_delivery: count arrivals per call.
            let (writer, ordinal) = ((tag >> 32) as usize, (tag & 0xffff_ffff) as usize);
            let Some(arrived) = self.arrived.get_mut(writer) else {
                continue; // reported as an unknown tag after the run
            };
            if arrived.len() < ordinal {
                arrived.resize(ordinal, 0);
            }
            arrived[ordinal - 1] += 1;
            if arrived[ordinal - 1] as usize == self.total_subs {
                sh.delivered[writer].fetch_max(ordinal as u64, Ordering::SeqCst);
                progressed = true;
            }
        }
        if progressed {
            if let Some(tx) = &mut self.wake_tx {
                tx.write_all(&[1])?;
            }
        }
        Ok(progressed)
    }

    /// After the run: keep reading this lane's subscriber sockets until
    /// each has seen `fired` firings (the server's own count) or the
    /// grace period after the last commit is over. The run loop ends on
    /// the last *probe* firing; firings of other triggers caused by the
    /// same last transactions (its `after tcommit` round) may still be
    /// on their way.
    /// Returns how many firings that took.
    pub fn drain_firings(&mut self, fired: u64, sh: &Shared) -> io::Result<u64> {
        let seen = |subs: &[Subscriber]| subs.iter().map(|s| s.firings).sum::<u64>();
        let before = seen(&self.subs);
        let fds: Vec<_> = self.subs.iter().map(|s| s.line.fd()).collect();
        let mut poll = PollSet::new(&fds);
        let deadline = sh.last_commit_ns.load(Ordering::SeqCst) + DELIVERY_GRACE_NS;
        let mut ready = Vec::new();
        while self.subs.iter().any(|s| s.firings < fired) && sh.now_ns() < deadline {
            ready.clear();
            poll.wait(20, |i| ready.push(i))?;
            let now = sh.now_ns();
            for &j in &ready {
                self.on_sub_readable(j, now, sh)?;
            }
        }
        Ok(seen(&self.subs) - before)
    }

    fn finished(&self, sh: &Shared) -> bool {
        if self.writers.iter().any(|w| !w.done()) {
            return false;
        }
        if self.reader.as_ref().is_some_and(|r| !r.done()) {
            return false;
        }
        if self.subs.is_empty() {
            return true;
        }
        // Subscribers outlive the writers: wait for every probe firing
        // the writers caused, at most the grace period.
        if sh.writers_done.load(Ordering::SeqCst) < self.total_writers {
            return false;
        }
        let expected = sh.withdraws.load(Ordering::SeqCst) as usize;
        self.subs.iter().all(|s| s.deliveries.len() >= expected)
            || sh.now_ns() > sh.last_commit_ns.load(Ordering::SeqCst) + DELIVERY_GRACE_NS
    }
}
