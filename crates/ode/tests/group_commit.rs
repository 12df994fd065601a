//! The flush pipeline's schedule, counted by the program itself.
//!
//! Group-commit contention regression: N threads committing to one
//! shared stock room through the self-clocking flusher must (a)
//! actually batch — at least one fsync covers more than one commit —
//! (b) fire exactly the same trigger sequence a serial replay of the
//! log fires, and (c) recover to a state identical to the live one,
//! proving ack-after-durable held for every committed transaction.
//! Then the schedule itself: one flush per transaction, nothing
//! stranded in the queue, and `Always` flushing every record.

use std::cell::Cell;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;

use ode_core::Value;

use ode_db::{
    demo, Database, DiskWal, DurableRecord, FsyncPolicy, LogOp, SharedDatabase, SharedIo, StdIo,
    WalConfig, WalIo,
};

const THREADS: usize = 8;
const TXNS_PER_THREAD: usize = 24;

thread_local! {
    /// LSN of the last record this thread appended through the log
    /// sink — after a commit returns, the commit record's LSN.
    static LAST_LSN: Cell<Option<u64>> = const { Cell::new(None) };
}

fn fresh() -> Database {
    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    db
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-group-commit-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `StdIo` behind a device model: every fsync takes `fsync_delay`, and
/// segment appends and fsyncs are counted.
struct DeviceIo {
    inner: StdIo,
    fsync_delay: Duration,
    seg_appends: Arc<AtomicU64>,
    fsyncs: Arc<AtomicU64>,
}

impl DeviceIo {
    /// The io plus its (segment appends, fsyncs) counters.
    fn shared(fsync_delay: Duration) -> (SharedIo, Arc<AtomicU64>, Arc<AtomicU64>) {
        let (seg_appends, fsyncs) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
        let io = DeviceIo {
            inner: StdIo::new(),
            fsync_delay,
            seg_appends: Arc::clone(&seg_appends),
            fsyncs: Arc::clone(&fsyncs),
        };
        (SharedIo::new(io), seg_appends, fsyncs)
    }
}

impl WalIo for DeviceIo {
    fn create_dir_all(&mut self, dir: &Path) -> std::io::Result<()> {
        self.inner.create_dir_all(dir)
    }
    fn list(&mut self, dir: &Path) -> std::io::Result<Vec<String>> {
        self.inner.list(dir)
    }
    fn read(&mut self, path: &Path) -> std::io::Result<Vec<u8>> {
        self.inner.read(path)
    }
    fn append(&mut self, path: &Path, bytes: &[u8]) -> std::io::Result<()> {
        if path.extension().is_some_and(|e| e == "wal") {
            self.seg_appends.fetch_add(1, Ordering::SeqCst);
        }
        self.inner.append(path, bytes)
    }
    fn fsync(&mut self, path: &Path) -> std::io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::SeqCst);
        std::thread::sleep(self.fsync_delay);
        self.inner.fsync(path)
    }
    fn fsync_dir(&mut self, dir: &Path) -> std::io::Result<()> {
        self.inner.fsync_dir(dir)
    }
    fn rename(&mut self, from: &Path, to: &Path) -> std::io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&mut self, path: &Path) -> std::io::Result<()> {
        self.inner.remove(path)
    }
    fn truncate(&mut self, path: &Path, len: u64) -> std::io::Result<()> {
        self.inner.truncate(path, len)
    }
}

/// A segment no test here fills: rotation would add seal fsyncs to the
/// counts.
fn roomy(fsync: FsyncPolicy) -> WalConfig {
    WalConfig {
        segment_bytes: 16 * 1024 * 1024,
        fsync,
        archive: false,
    }
}

#[test]
fn concurrent_commits_batch_fsyncs_and_match_serial_firings() {
    // Serial ground truth: the same committed transactions, one thread,
    // no WAL. Each deposit+withdraw of q=150 deterministically fires T6
    // (withdrawal over 100) and T8 (deposit-then-withdraw same txn).
    let serial_firings: Vec<String> = {
        let mut db = fresh();
        let t = db.begin_as(Value::Str("alice".into()));
        let room = db.create_object(t, "stockRoom", &[]).unwrap();
        db.commit(t).unwrap();
        for _ in 0..THREADS * TXNS_PER_THREAD {
            demo::deposit_withdraw_txn(&mut db, "alice", room, "bolt", 150).unwrap();
        }
        db.take_output()
    };

    // Concurrent run: the default policy with a real flusher thread
    // over a device whose fsync takes ~1 ms. Nothing configures the
    // batch: commits pile up while the previous fsync is in flight.
    let dir = tmp_dir("contended");
    let cfg = WalConfig {
        segment_bytes: 64 * 1024,
        ..WalConfig::default()
    };
    let (io, _, _) = DeviceIo::shared(Duration::from_millis(1));
    let (wal, recovery) = DiskWal::open(&dir, cfg, io).unwrap();
    assert!(recovery.is_empty());
    let flusher = wal.start_flusher();

    // Each transaction runs whole under the engine lock, as one shard
    // of a server runs a client's; the fsync wait happens outside it.
    let shared = SharedDatabase::new(fresh());
    let sink_wal = wal.clone();
    shared.with(|db| {
        db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
            if let Ok(lsn) = sink_wal.append(op) {
                LAST_LSN.with(|c| c.set(Some(lsn)));
            }
        })))
    });

    let room = shared.with(|db| {
        let t = db.begin_as(Value::Str("alice".into()));
        let room = db.create_object(t, "stockRoom", &[]).unwrap();
        db.commit(t).unwrap();
        room
    });
    wal.wait_durable(LAST_LSN.with(|c| c.get()).expect("creation logged"))
        .expect("setup commit becomes durable");

    std::thread::scope(|s| {
        for _ in 0..THREADS {
            let shared = shared.clone();
            let wal = wal.clone();
            s.spawn(move || {
                for _ in 0..TXNS_PER_THREAD {
                    let committed = shared
                        .with(|db| demo::deposit_withdraw_txn(db, "alice", room, "bolt", 150));
                    assert_eq!(committed, Ok(true), "contended txn commits");
                    // Ack-after-durable: the transaction only counts
                    // once a batch fsync covers its commit record.
                    let lsn = LAST_LSN.with(|c| c.get()).expect("commit logged");
                    wal.wait_durable(lsn).expect("commit becomes durable");
                }
            });
        }
    });

    flusher.stop();
    wal.sync().expect("final drain");
    assert!(wal.poisoned().is_none());

    let stats = wal.stats();
    assert_eq!(stats.durable_lsn, wal.lsn(), "everything drained durable");
    assert!(stats.group_commit_batches >= 1, "the flusher ran batches");
    assert!(
        stats.group_commit_max_batch >= 2,
        "batching never engaged: every fsync covered a single commit \
         ({} batches for {} committed txns)",
        stats.group_commit_batches,
        THREADS * TXNS_PER_THREAD,
    );
    assert!(
        stats.fsyncs_total < (THREADS * TXNS_PER_THREAD) as u64,
        "{} fsyncs for {} committed txns: commits did not share them",
        stats.fsyncs_total,
        THREADS * TXNS_PER_THREAD,
    );

    let live_firings = shared.with(|db| db.take_output());
    let live_print = shared.with(|db| {
        let mut objs: Vec<String> = db
            .objects()
            .map(|o| format!("{:?} {:?}", o.id, o.fields))
            .collect();
        objs.sort();
        objs.join("\n")
    });
    // The committed work matches serial execution exactly: every
    // transaction holds the engine lock from begin to commit, so the
    // firings (txn ids included) are the serial run's.
    assert_eq!(live_firings, serial_firings, "firing content diverges");

    // Serial replay of the recovered log must reproduce the live run
    // record for record: identical firing sequence (ids included) and
    // identical final state. This is the determinism the buffer step's
    // under-the-engine-lock LSN assignment preserves.
    drop(wal);
    let (_wal2, recovery) = DiskWal::open(&dir, cfg, SharedIo::new(StdIo::new())).unwrap();
    let mut recovered = fresh();
    recovery.restore_into(&mut recovered).expect("restore");
    let replay_firings = recovered.take_output();
    assert_eq!(
        replay_firings, live_firings,
        "serial replay fired a different sequence than the live run"
    );
    let recovered_print = {
        let mut objs: Vec<String> = recovered
            .objects()
            .map(|o| format!("{:?} {:?}", o.id, o.fields))
            .collect();
        objs.sort();
        objs.join("\n")
    };
    assert_eq!(recovered_print, live_print, "recovered state diverges");
    let _ = std::fs::remove_dir_all(&dir);
}

fn begin(txn: u64) -> LogOp {
    LogOp::Begin {
        txn,
        user: Value::Str("alice".into()),
    }
}

fn call(txn: u64) -> LogOp {
    LogOp::Call {
        txn,
        obj: 1,
        method: "withdraw".into(),
        args: vec![Value::Str("bolt".into()), Value::Int(1)],
    }
}

#[test]
fn one_writer_gets_exactly_one_flush_per_transaction() {
    const K: u64 = 20;
    let dir = tmp_dir("one-flush");
    // A device slow enough that a flush of the lone Begin would still
    // be in flight when the Commit arrives, and cost a second fsync.
    let (io, seg_appends, fsyncs) = DeviceIo::shared(Duration::from_micros(200));
    let (wal, _) = DiskWal::open(&dir, roomy(FsyncPolicy::OnCommit), io).unwrap();
    let flusher = wal.start_flusher();

    let before = wal.stats();
    for txn in 0..K {
        wal.append(&begin(txn)).unwrap();
        wal.append(&call(txn)).unwrap();
        wal.append(&call(txn)).unwrap();
        let lsn = wal.append(&LogOp::Commit { txn }).unwrap();
        wal.wait_durable(lsn).unwrap();
    }
    let after = wal.stats();
    assert_eq!(after.durable_lsn, 4 * K);
    // The Begin gets no flush of its own: the whole transaction is one
    // batch, one write, one fsync.
    assert_eq!(after.fsyncs_total - before.fsyncs_total, K);
    assert_eq!(after.group_commit_batches - before.group_commit_batches, K);
    assert_eq!(seg_appends.load(Ordering::SeqCst), K);
    assert_eq!(fsyncs.load(Ordering::SeqCst), K);
    assert_eq!(after.group_commit_max_batch, 1);
    flusher.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn records_outside_a_transaction_are_never_stranded_and_open_ones_wait() {
    let dir = tmp_dir("stranded");
    let (io, seg_appends, _) = DeviceIo::shared(Duration::ZERO);
    let (wal, _) = DiskWal::open(&dir, roomy(FsyncPolicy::OnCommit), io).unwrap();
    // Every published batch's (first, last) LSN, as the flusher hands
    // it over — the test waits on flushes, it does not poll for them.
    let (tx, flushed) = mpsc::channel::<(u64, u64)>();
    wal.set_durable_sink(Some(Arc::new(move |recs: &[DurableRecord]| {
        let _ = tx.send((recs[0].lsn, recs[recs.len() - 1].lsn));
    })));
    let flusher = wal.start_flusher();
    let bounded = Duration::from_secs(10);

    // No wait_durable, no later traffic: each is flushed on its own.
    let clock = wal.append(&LogOp::AdvanceClock { to: 5 }).unwrap();
    assert_eq!(flushed.recv_timeout(bounded), Ok((clock, clock)));
    let bump = wal.append(&LogOp::EpochBump { epoch: 1 }).unwrap();
    assert_eq!(flushed.recv_timeout(bounded), Ok((bump, bump)));
    assert_eq!(wal.durable_lsn(), bump + 1);

    // An open transaction's records only queue...
    let first = wal.append(&begin(1)).unwrap();
    wal.append(&call(1)).unwrap();
    assert!(
        flushed.recv_timeout(Duration::from_millis(200)).is_err(),
        "a Begin + Call was flushed with no durability point behind it"
    );
    assert_eq!(wal.durable_lsn(), first);
    assert_eq!(seg_appends.load(Ordering::SeqCst), 2);
    // ...until its commit arrives: one batch carries all three.
    let commit = wal.append(&LogOp::Commit { txn: 1 }).unwrap();
    assert_eq!(flushed.recv_timeout(bounded), Ok((first, commit)));

    // ...or until someone forces them out.
    let first = wal.append(&begin(2)).unwrap();
    let last = wal.append(&call(2)).unwrap();
    wal.sync().unwrap();
    assert_eq!(flushed.recv_timeout(bounded), Ok((first, last)));
    assert_eq!(wal.durable_lsn(), wal.lsn());

    // A waiter on a queued mid-transaction record asks for its flush.
    let lone = wal.append(&call(2)).unwrap();
    wal.wait_durable(lone).unwrap();
    assert_eq!(flushed.recv_timeout(bounded), Ok((lone, lone)));
    flusher.stop();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn always_without_a_flusher_writes_and_fsyncs_every_append() {
    let dir = tmp_dir("always");
    let (io, seg_appends, fsyncs) = DeviceIo::shared(Duration::ZERO);
    let (wal, _) = DiskWal::open(&dir, roomy(FsyncPolicy::Always), io).unwrap();
    let ops = [begin(1), call(1), LogOp::Commit { txn: 1 }, begin(2)];
    for (n, op) in ops.iter().enumerate() {
        let lsn = wal.append(op).unwrap();
        let n = n as u64 + 1;
        assert_eq!(
            seg_appends.load(Ordering::SeqCst),
            n,
            "one write per append"
        );
        assert_eq!(fsyncs.load(Ordering::SeqCst), n, "one fsync per append");
        assert_eq!(wal.durable_lsn(), lsn + 1, "durable before append returns");
    }
    assert_eq!(wal.stats().fsyncs_total, ops.len() as u64);
    let _ = std::fs::remove_dir_all(&dir);
}
