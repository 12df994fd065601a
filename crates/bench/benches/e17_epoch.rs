//! E17 — cascading replica trees: what a fleet costs the primary when
//! the fan-out moves off it.
//!
//! E13 showed the per-replica tax of flat shipping: every follower is
//! one more durable-sink stream the primary serves. Epoch-fenced
//! cascading lets any WAL-backed replica re-serve the stream, so a
//! depth-2 tree (1 primary → 2 mid-tier replicas → 4 leaves) puts six
//! downstream nodes behind the primary at the streaming cost of two.
//!
//! Three topologies run the E13 write burst:
//!
//! * **flat-2** — two direct replicas: the cost the tree should match.
//! * **flat-4** — four direct replicas: flat shipping at fleet size.
//! * **tree-2x2** — 1 → 2 → 4: six downstream nodes, two primary
//!   streams.
//!
//! Measured per topology: primary commit throughput, peak lag of the
//! *deepest* tier, and drain time until every node (leaves included)
//! has applied the primary's head. Results are printed as a table and
//! written to `BENCH_e17_epoch.json` at the repository root, including
//! the tree-vs-flat-2 throughput ratio the acceptance bar reads.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use ode_core::Value;
use ode_db::{Database, FsyncPolicy, SharedDatabase, WalConfig};
use ode_server::spec::stockroom_spec;
use ode_server::{Client, ReplSource, Server};

const TXNS: usize = 400;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-e17-epoch-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn start_primary(dir: &Path) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(WalConfig::default())
        .start()
        .expect("primary starts")
}

/// Replicas skip the fsync call (`Never`): every topology shares one
/// bench machine and one disk, so per-commit fsyncs on the followers
/// would serialize against the primary's and measure disk contention,
/// not stream-serving cost. (A real fleet keeps followers on their own
/// spindles.) Downstream shipping stays watermark-gated — a follower
/// forwards a transaction once its commit's flush has written it. The
/// primary keeps the default per-commit durability.
fn start_replica(dir: &Path, upstream: SocketAddr) -> Server {
    Server::builder(SharedDatabase::new(Database::new()))
        .tcp("127.0.0.1:0")
        .wal_dir(dir)
        .wal_config(WalConfig {
            fsync: FsyncPolicy::Never,
            ..WalConfig::default()
        })
        .replicate_from(ReplSource::Tcp(upstream.to_string()))
        .start()
        .expect("replica starts")
}

fn wait_applied(addr: SocketAddr, target: u64) {
    let mut c = Client::connect_tcp(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let stats = c.stats().expect("stats");
        if stats.last_applied_lsn == Some(target) {
            return;
        }
        assert!(Instant::now() < deadline, "node never reached LSN {target}");
        thread::sleep(Duration::from_millis(1));
    }
}

/// A topology: how many replicas hang directly off the primary, and
/// how many leaves hang off each of those.
struct Topology {
    name: &'static str,
    mids: usize,
    leaves_per_mid: usize,
}

impl Topology {
    fn downstream(&self) -> usize {
        self.mids + self.mids * self.leaves_per_mid
    }
}

struct Row {
    name: &'static str,
    downstream: usize,
    primary_streams: usize,
    txns_per_sec: f64,
    peak_deep_lag: u64,
    drain_ms: f64,
}

fn run_topology(topo: &Topology) -> Row {
    let pdir = tmp_dir(&format!("{}-p", topo.name));
    let primary = start_primary(&pdir);
    let paddr = primary.tcp_addr().expect("tcp");
    let mut pc = Client::connect_tcp(paddr).expect("connect");
    pc.define_class(stockroom_spec()).expect("define");
    let room = pc
        .txn("admin", |c| {
            c.new_object(
                "room",
                &[(
                    "items",
                    Value::record([
                        ("bolt", Value::Int(100_000_000)),
                        ("gear", Value::Int(100_000_000)),
                    ]),
                )],
            )
        })
        .expect("room");

    let mut dirs: Vec<PathBuf> = Vec::new();
    let mut mids: Vec<Server> = Vec::new();
    let mut leaves: Vec<Server> = Vec::new();
    for m in 0..topo.mids {
        let mdir = tmp_dir(&format!("{}-m{m}", topo.name));
        let mid = start_replica(&mdir, paddr);
        let maddr = mid.tcp_addr().expect("tcp");
        dirs.push(mdir);
        for l in 0..topo.leaves_per_mid {
            let ldir = tmp_dir(&format!("{}-m{m}-l{l}", topo.name));
            leaves.push(start_replica(&ldir, maddr));
            dirs.push(ldir);
        }
        mids.push(mid);
    }
    // The deepest tier: the leaves when there are any, the mid-tier
    // replicas otherwise (a flat topology).
    let deep_addrs: Vec<SocketAddr> = if leaves.is_empty() { &mids } else { &leaves }
        .iter()
        .map(|s| s.tcp_addr().expect("tcp"))
        .collect();
    let all_addrs: Vec<SocketAddr> = mids
        .iter()
        .chain(&leaves)
        .map(|s| s.tcp_addr().expect("tcp"))
        .collect();
    let head0 = pc.stats().expect("stats").wal_lsn.expect("wal");
    for &a in &all_addrs {
        wait_applied(a, head0);
    }

    // Lag samplers on the deepest tier only: the figure that shows the
    // extra hop's cost.
    let stop = Arc::new(AtomicBool::new(false));
    let peak = Arc::new(AtomicU64::new(0));
    let samplers: Vec<thread::JoinHandle<()>> = deep_addrs
        .iter()
        .map(|&addr| {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            thread::spawn(move || {
                let mut c = Client::connect_tcp(addr).expect("connect");
                while !stop.load(Ordering::Relaxed) {
                    if let Ok(stats) = c.stats() {
                        peak.fetch_max(stats.replica_lag_lsn.unwrap_or(0), Ordering::Relaxed);
                    }
                    thread::sleep(Duration::from_millis(10));
                }
            })
        })
        .collect();

    let t0 = Instant::now();
    for k in 0..TXNS {
        let q = if k % 8 == 0 { 150 } else { 1 };
        pc.txn("alice", |c| {
            c.call(room, "withdraw", &[Value::from("bolt"), Value::Int(q)])
        })
        .expect("withdraw");
    }
    let commit_secs = t0.elapsed().as_secs_f64();

    let head = pc.stats().expect("stats").wal_lsn.expect("wal");
    let t1 = Instant::now();
    for &a in &all_addrs {
        wait_applied(a, head);
    }
    let drain_ms = t1.elapsed().as_secs_f64() * 1e3;
    stop.store(true, Ordering::Relaxed);
    for h in samplers {
        h.join().expect("sampler");
    }

    for mut s in leaves.into_iter().chain(mids) {
        s.shutdown();
    }
    let mut primary = primary;
    primary.shutdown();
    let _ = std::fs::remove_dir_all(&pdir);
    for d in &dirs {
        let _ = std::fs::remove_dir_all(d);
    }

    Row {
        name: topo.name,
        downstream: topo.downstream(),
        primary_streams: topo.mids,
        txns_per_sec: TXNS as f64 / commit_secs,
        peak_deep_lag: peak.load(Ordering::Relaxed),
        drain_ms,
    }
}

fn main() {
    eprintln!("\n== E17: cascading replica trees (burst of {TXNS} withdraw txns) ==\n");

    let topologies = [
        Topology {
            name: "flat-2",
            mids: 2,
            leaves_per_mid: 0,
        },
        Topology {
            name: "flat-4",
            mids: 4,
            leaves_per_mid: 0,
        },
        Topology {
            name: "tree-2x2",
            mids: 2,
            leaves_per_mid: 2,
        },
    ];

    let mut json = String::from("{\n  \"experiment\": \"e17_epoch\",\n");
    json.push_str(&format!("  \"txns\": {TXNS},\n"));
    json.push_str("  \"configs\": [\n");

    let mut rows = Vec::new();
    for (i, topo) in topologies.iter().enumerate() {
        // Best of three trials: every topology shares one bench core,
        // so a single run's throughput is hostage to scheduler noise;
        // the best run is the least-interfered estimate of each
        // topology's cost.
        let row = (0..3)
            .map(|_| run_topology(topo))
            .max_by(|a, b| a.txns_per_sec.total_cmp(&b.txns_per_sec))
            .expect("three trials");
        eprintln!(
            "{:>8}: {:>2} downstream / {} primary stream(s)  {:>7.0} txns/sec  \
             peak deep lag {:>4} records  drain {:>6.1}ms",
            row.name,
            row.downstream,
            row.primary_streams,
            row.txns_per_sec,
            row.peak_deep_lag,
            row.drain_ms,
        );
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"downstream_nodes\": {}, \"primary_streams\": {}, \
             \"txns_per_sec\": {:.0}, \"peak_deep_lag_lsn\": {}, \"drain_ms\": {:.1}}}{}\n",
            row.name,
            row.downstream,
            row.primary_streams,
            row.txns_per_sec,
            row.peak_deep_lag,
            row.drain_ms,
            if i + 1 == topologies.len() { "" } else { "," },
        ));
        rows.push(row);
    }
    json.push_str("  ],\n");

    // The acceptance figure: six downstream nodes behind two primary
    // streams should cost the primary about what two direct replicas
    // do (the tree's extra fan-out rides the mid-tier).
    let flat2 = rows.iter().find(|r| r.name == "flat-2").expect("flat-2");
    let tree = rows.iter().find(|r| r.name == "tree-2x2").expect("tree");
    let ratio = tree.txns_per_sec / flat2.txns_per_sec;
    json.push_str(&format!("  \"tree_vs_flat2_tps_ratio\": {ratio:.3}\n}}\n"));
    eprintln!(
        "\ntree-2x2 primary tps is {:.1}% of flat-2 ({} downstream nodes at 2-stream cost)",
        ratio * 100.0,
        tree.downstream,
    );

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e17_epoch.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("wrote {path}");
}
