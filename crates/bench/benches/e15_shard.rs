//! E15 — sharded engines and per-shard WAL streams: throughput vs
//! shard count and committer count, with the ack-after-durable rule
//! held throughout.
//!
//! Concurrent committers share one stream's fsyncs — but one engine
//! lock and one WAL stream still serialize everything behind a single
//! flusher. This experiment measures what
//! hash-partitioning buys: N committer threads run deposit+withdraw
//! transactions against rooms spread over S shards, each shard with its
//! own engine lock, WAL stream, and flusher. Two workloads:
//!
//! * `disjoint` — every committer owns one room, so with enough shards
//!   each transaction runs detection → log → fsync → ack entirely
//!   inside one shard, in parallel with every other committer.
//! * `cross`   — every transaction touches the committer's room *and*
//!   its neighbor's, so commits run the ordered 2PC and ack on the
//!   merged watermark across both participants' streams.
//!
//! Disk fsync latency is modeled (a `WalIo` wrapper sleeps
//! `FSYNC_LATENCY` per fsync, commodity-disk grade) so the experiment
//! measures the *protocol* — how many fsync barriers sit on the ack
//! path and how many proceed in parallel — rather than the host's
//! filesystem cache. Each shard gets an independent io handle, exactly
//! like a production server.
//!
//! Results are printed as a table and written to `BENCH_e15_shard.json`
//! at the repository root. Each run ends with a recovery pass asserted
//! equal to the live state — acked durability is checked, not assumed.

use std::cell::RefCell;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ode_core::Value;
use ode_db::{
    demo, Database, LogOp, ObjectId, ShardedDatabase, ShardedWal, SharedIo, StdIo, WalConfig, WalIo,
};

const TXNS_PER_COMMITTER: usize = 60;
/// Modeled device fsync latency — commodity spinning disk / networked
/// block storage grade.
const FSYNC_LATENCY: Duration = Duration::from_millis(2);

/// A [`WalIo`] that charges `FSYNC_LATENCY` for every fsync, delegating
/// everything to [`StdIo`]. The sleep runs while the shard's io mutex
/// is held — exactly the serialization a real device imposes on one
/// stream — so S shards can have S fsyncs in flight, one stream only
/// ever one.
struct SlowIo(StdIo);

impl WalIo for SlowIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.0.create_dir_all(dir)
    }
    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.0.list(dir)
    }
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.0.read(path)
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.0.append(path, bytes)
    }
    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        std::thread::sleep(FSYNC_LATENCY);
        self.0.fsync(path)
    }
    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()> {
        std::thread::sleep(FSYNC_LATENCY);
        self.0.fsync_dir(dir)
    }
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.0.rename(from, to)
    }
    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.0.remove(path)
    }
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.0.truncate(path, len)
    }
}

thread_local! {
    /// Per-shard commit-record LSNs captured by the log sinks on the
    /// committing thread — the merged-watermark ack set.
    static ACKS: RefCell<Vec<(usize, u64)>> = const { RefCell::new(Vec::new()) };
}

fn ack_note(shard: usize, lsn: u64) {
    ACKS.with(|a| {
        let mut a = a.borrow_mut();
        match a.iter_mut().find(|(s, _)| *s == shard) {
            Some(e) => e.1 = lsn,
            None => a.push((shard, lsn)),
        }
    });
}

fn ack_take() -> Vec<(usize, u64)> {
    ACKS.with(|a| std::mem::take(&mut *a.borrow_mut()))
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-e15-shard-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn bolt(db: &Database, room: ObjectId) -> i64 {
    db.peek_field(room, "items")
        .expect("items")
        .member("bolt")
        .and_then(Value::as_int)
        .expect("bolt is an int")
}

/// One measured run. Returns (acked txns/sec, total fsyncs, max batch).
fn run(tag: &str, shards: usize, committers: usize, cross: bool) -> (f64, u64, u64) {
    let root = tmp_dir(tag);
    let cfg = WalConfig::default();
    let ios: Vec<SharedIo> = (0..shards)
        .map(|_| SharedIo::new(SlowIo(StdIo::new())))
        .collect();
    let (wal, recovery) = ShardedWal::open(&root, cfg, ios, true).expect("open");
    assert!(recovery.report.demoted.is_empty());

    let db = ShardedDatabase::new(shards);
    db.define_class(&demo::stockroom_class()).unwrap();
    for s in 0..shards {
        let shard_wal = wal.wal(s).clone();
        db.shard(s).with(|d| {
            d.set_log_sink(Some(Arc::new(move |op: &LogOp| {
                if let Ok(lsn) = shard_wal.append(op) {
                    ack_note(s, lsn);
                }
            })));
        });
    }
    let flushers = wal.start_flushers();

    // One room per committer, round-robin over the shards, each primed
    // with a deep bolt buffer so no trigger threshold is crossed while
    // the workload churns.
    let rooms: Vec<ObjectId> = (0..committers)
        .map(|i| {
            let (room, _) = db
                .run_txn("admin", |db, t| {
                    let room = db.create_object_on(t, i % shards, "stockRoom", &[])?;
                    db.call(
                        t,
                        room,
                        "deposit",
                        &[Value::Str("bolt".into()), Value::Int(1_000_000)],
                    )?;
                    Ok(room)
                })
                .expect("room creates");
            room
        })
        .collect();
    ack_take();
    wal.sync_all().expect("setup durable");

    let t0 = Instant::now();
    std::thread::scope(|s| {
        for (i, &room) in rooms.iter().enumerate() {
            let db = db.clone();
            let wal = &wal;
            let peer = rooms[(i + 1) % committers];
            s.spawn(move || {
                for _ in 0..TXNS_PER_COMMITTER {
                    db.run_txn("alice", |db, t| {
                        db.call(
                            t,
                            room,
                            "deposit",
                            &[Value::Str("bolt".into()), Value::Int(5)],
                        )?;
                        let target = if cross { peer } else { room };
                        db.call(
                            t,
                            target,
                            "withdraw",
                            &[Value::Str("bolt".into()), Value::Int(5)],
                        )
                    })
                    .expect("txn commits");
                    // The ack rule: the transaction counts only once
                    // every participating shard's durable watermark
                    // covers its commit record.
                    let acks = ack_take();
                    assert!(!acks.is_empty(), "commit was logged");
                    wal.wait_durable(&acks).expect("commit durable");
                }
            });
        }
    });
    let secs = t0.elapsed().as_secs_f64();

    for f in flushers {
        f.stop();
    }
    wal.sync_all().expect("final sync");
    assert!(wal.poisoned().is_none());
    let (fsyncs, max_batch) = wal
        .wals()
        .iter()
        .map(|w| w.stats())
        .fold((0, 0), |(f, b), s| {
            (f + s.fsyncs_total, b.max(s.group_commit_max_batch))
        });

    // Recovery must reproduce every acked transaction exactly, on every
    // shard.
    let reopen_ios = vec![SharedIo::new(StdIo::new()); shards];
    let (_wal2, recovery) = ShardedWal::open(&root, cfg, reopen_ios, true).expect("reopen");
    assert!(
        recovery.report.demoted.is_empty(),
        "clean shutdown demotes nothing"
    );
    let engines: Vec<Database> = recovery
        .shards
        .iter()
        .map(|rec| {
            let mut fresh = Database::new();
            fresh.define_class(demo::stockroom_class()).unwrap();
            rec.restore_into(&mut fresh).expect("restore");
            fresh
        })
        .collect();
    for &room in &rooms {
        let live = db.with_obj(room, |d, local| bolt(d, local));
        let s = db.shard_of(room);
        let local = ode_db::to_local(room, shards);
        assert_eq!(bolt(&engines[s], local), live, "recovery is exact");
    }

    let _ = std::fs::remove_dir_all(&root);
    (
        (committers * TXNS_PER_COMMITTER) as f64 / secs,
        fsyncs,
        max_batch,
    )
}

fn main() {
    eprintln!("\n== E15: sharded engines — shards x committers, ack-after-durable ==\n");
    eprintln!("{TXNS_PER_COMMITTER} txns per committer; modeled fsync latency {FSYNC_LATENCY:?}\n");

    let mut json = String::from("{\n  \"experiment\": \"e15_shard\",\n");
    json.push_str(&format!(
        "  \"txns_per_committer\": {TXNS_PER_COMMITTER},\n  \
         \"modeled_fsync_latency_ms\": {},\n  \"runs\": [\n",
        FSYNC_LATENCY.as_millis()
    ));

    let mut rows = Vec::new();
    // (1-shard, 8-shard) tps at 8 committers, disjoint.
    let mut head = (0.0, 0.0);
    for (workload, cross) in [("disjoint", false), ("cross", true)] {
        for &committers in &[1usize, 4, 8] {
            let mut base_tps = 0.0;
            for &shards in &[1usize, 2, 4, 8] {
                let tag = format!("{workload}-c{committers}-s{shards}");
                let (tps, fsyncs, max_batch) = run(&tag, shards, committers, cross);
                if shards == 1 {
                    base_tps = tps;
                }
                if workload == "disjoint" && committers == 8 {
                    if shards == 1 {
                        head.0 = tps;
                    } else if shards == 8 {
                        head.1 = tps;
                    }
                }
                let speedup = tps / base_tps;
                eprintln!(
                    "{workload:>8} {committers} committer(s) {shards} shard(s): \
                     {tps:>8.0} txns/sec ({speedup:.2}x vs 1 shard, \
                     {fsyncs} fsyncs, max batch {max_batch})",
                );
                rows.push(format!(
                    "    {{\"workload\": \"{workload}\", \
                     \"committers\": {committers}, \"shards\": {shards}, \
                     \"txns_per_sec\": {tps:.0}, \"speedup_vs_1_shard\": {speedup:.2}, \
                     \"fsyncs_total\": {fsyncs}, \"group_commit_max_batch\": {max_batch}}}"
                ));
            }
            eprintln!();
        }
    }
    json.push_str(&rows.join(",\n"));
    // A lone stream already coalesces concurrent committers into shared
    // fsyncs, so on a single-core host the 1-shard baseline is close to
    // fsync-optimal; S streams keep S fsyncs in flight, and the sharded
    // win grows in the multi-core regime where the single engine lock
    // (not the fsync) saturates.
    json.push_str(&format!(
        "\n  ],\n  \"headline_disjoint_8c_8shards_vs_1shard\": {:.2},\n  \
         \"cores\": {}\n}}\n",
        head.1 / head.0,
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    ));

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e15_shard.json");
    std::fs::write(path, &json).unwrap();
    eprintln!(
        "headline (8 committers, disjoint): 8 shards = {:.2}x 1 shard",
        head.1 / head.0,
    );
    eprintln!("wrote {path}");
}
