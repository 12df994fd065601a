//! E18 — reactor event loop and hierarchical timer wheel at scale.
//!
//! Two questions, answered with numbers:
//!
//! * **Fan-out** — how fast does one poll-loop thread deliver trigger
//!   firings to 1k and 10k live subscriber connections? (The retired
//!   thread-per-connection front end's 1k figure is kept in the
//!   committed `BENCH_e18_evloop.json` and EXPERIMENTS.md E18.)
//! * **Timer wheel** — is the cost of one `advance-clock` tick flat in
//!   the number of armed-but-not-due timers? The naive sorted scan it
//!   replaced is measured alongside for reference (capped where a
//!   linear scan per tick would take minutes).
//!
//! Results are printed as a table and written to
//! `BENCH_e18_evloop.json` at the repository root.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::time::Instant;

use ode_core::{TimeEvent, TimeSpec, Value};
use ode_db::clock::{Clock, Recurrence, Timer, TimerScope};
use ode_db::{Database, ObjectId, SharedDatabase};
use ode_server::reactor::raise_nofile_limit;
use ode_server::spec::stockroom_spec;
use ode_server::{Client, ReplyResult, Server, ServerMsg};

const FIRINGS: usize = 20;

/// A raw nonblocking subscriber polled from this thread.
struct RawSub {
    stream: TcpStream,
    buf: Vec<u8>,
    subscribed: bool,
    firings: usize,
}

impl RawSub {
    fn connect(addr: std::net::SocketAddr) -> RawSub {
        let mut stream = TcpStream::connect(addr).expect("connect subscriber");
        stream
            .write_all(b"{\"id\":1,\"cmd\":\"Subscribe\"}\n")
            .expect("send subscribe");
        stream.set_nonblocking(true).expect("nonblocking");
        RawSub {
            stream,
            buf: Vec::new(),
            subscribed: false,
            firings: 0,
        }
    }

    fn pump(&mut self) {
        let mut chunk = [0u8; 4096];
        loop {
            match self.stream.read(&mut chunk) {
                Ok(0) => panic!("server closed a live subscriber"),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => panic!("subscriber read: {e}"),
            }
        }
        while let Some(nl) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=nl).collect();
            let text = std::str::from_utf8(&line[..nl]).expect("utf8");
            match serde_json::from_str::<ServerMsg>(text).expect("server message") {
                ServerMsg::Reply {
                    id: 1,
                    result: ReplyResult::Ok(_),
                } => self.subscribed = true,
                ServerMsg::Firing(_) => self.firings += 1,
                other => panic!("unexpected message: {other:?}"),
            }
        }
    }
}

/// Deliver `FIRINGS` firings to `fleet` subscribers; returns
/// (deliveries/sec, seconds).
fn run_fanout(fleet: usize) -> (f64, f64) {
    let db = SharedDatabase::new(Database::new());
    let mut server = Server::builder(db)
        .tcp("127.0.0.1:0")
        .start()
        .expect("bind");
    let addr = server.tcp_addr().expect("tcp addr");

    let mut admin = Client::connect_tcp(addr).expect("connect admin");
    let mut spec = stockroom_spec();
    spec.fields[0].default = Value::record([("bolt", Value::Int(1_000_000))]);
    admin.define_class(spec).expect("define");
    let room = admin
        .txn("admin", |c| c.new_object("room", &[]))
        .expect("create room");

    let mut subs: Vec<RawSub> = (0..fleet).map(|_| RawSub::connect(addr)).collect();
    while subs.iter().any(|s| !s.subscribed) {
        for s in subs.iter_mut().filter(|s| !s.subscribed) {
            s.pump();
        }
    }

    let t0 = Instant::now();
    for _ in 0..FIRINGS {
        // q=130 trips T6 once per committed withdrawal.
        admin
            .txn("admin", |c| {
                c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(130)])
            })
            .expect("withdraw commits");
    }
    while subs.iter().any(|s| s.firings < FIRINGS) {
        for s in subs.iter_mut().filter(|s| s.firings < FIRINGS) {
            s.pump();
        }
    }
    let secs = t0.elapsed().as_secs_f64();
    drop(subs);
    server.shutdown();
    ((fleet * FIRINGS) as f64 / secs, secs)
}

/// Arm `n` far-future timers, then measure the cost of one 1ms tick
/// that fires nothing. Returns ns/tick.
fn wheel_tick_ns(n: usize, ticks: usize) -> f64 {
    let mut clock = Clock::default();
    for i in 0..n {
        // Spread the armed set across upper wheel levels: due in
        // roughly 17 minutes to 12 days, none inside the tick window.
        clock.schedule(
            1_000_000 + (i as u64 * 997) % 1_000_000_000,
            Timer {
                object: ObjectId(i as u64 + 1),
                scope: TimerScope::Object,
                event: TimeEvent::After(TimeSpec::default()),
                recurrence: Recurrence::OneShot,
            },
        );
    }
    let t0 = Instant::now();
    for _ in 0..ticks {
        let fired = clock.advance_to(clock.now() + 1);
        assert!(fired.is_empty(), "ticks must stay before the armed window");
    }
    t0.elapsed().as_nanos() as f64 / ticks as f64
}

/// The pre-wheel reference: a flat vector min-scanned per tick.
fn naive_tick_ns(n: usize, ticks: usize) -> f64 {
    let entries: Vec<(u64, u64)> = (0..n)
        .map(|i| (1_000_000 + (i as u64 * 997) % 1_000_000_000, i as u64))
        .collect();
    let t0 = Instant::now();
    for now in 1..=ticks as u64 {
        let due = entries
            .iter()
            .min_by_key(|(d, c)| (*d, *c))
            .map(|(d, _)| *d <= now)
            .unwrap_or(false);
        assert!(!due);
    }
    t0.elapsed().as_nanos() as f64 / ticks as f64
}

fn main() {
    let limit = raise_nofile_limit();
    let max_fleet = 10_000.min((limit.saturating_sub(256) / 2) as usize);

    let mut json = String::from("{\n  \"experiment\": \"e18_evloop\",\n");
    json.push_str(&format!("  \"firings_per_run\": {FIRINGS},\n"));
    json.push_str(&format!("  \"nofile_limit\": {limit},\n"));

    eprintln!("\n== E18: reactor fan-out (TCP loopback) ==");
    json.push_str("  \"fanout\": [\n");
    let mut first = true;
    for want in [1_000usize, 10_000] {
        let fleet = want.min(max_fleet);
        let (dps, secs) = run_fanout(fleet);
        eprintln!("reactor {fleet:>6} subscribers: {dps:>10.0} deliveries/sec  ({secs:.2}s)");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"mode\": \"reactor\", \"subscribers\": {fleet}, \"deliveries_per_sec\": {dps:.0}, \"secs\": {secs:.3}}}"
        ));
    }
    json.push_str("\n  ],\n");

    eprintln!("\n== E18: timer-wheel tick cost vs armed timers ==");
    json.push_str("  \"timer_tick\": [\n");
    let mut first = true;
    for &armed in &[1_000usize, 100_000, 1_000_000] {
        let wheel = wheel_tick_ns(armed, 100_000);
        // A linear scan per tick at 1M armed timers takes milliseconds
        // each; 1k ticks keeps the reference measurement honest but
        // bounded.
        let naive = naive_tick_ns(armed, 1_000);
        eprintln!(
            "{armed:>9} armed: wheel {wheel:>8.0} ns/tick   naive scan {naive:>10.0} ns/tick"
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"armed_timers\": {armed}, \"wheel_ns_per_tick\": {wheel:.0}, \"naive_ns_per_tick\": {naive:.0}}}"
        ));
    }
    json.push_str("\n  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e18_evloop.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("\nwrote {path}");
}
