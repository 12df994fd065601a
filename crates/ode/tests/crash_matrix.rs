//! The crash matrix: kill the process at *every* I/O operation of a
//! scripted stockroom session and prove recovery is exact.
//!
//! One clean run with in-memory logging produces the ground-truth op
//! list. Then, for each mutating-I/O index `k`, the same session runs
//! against a `DiskWal` over a `FaultyIo` that dies permanently at op
//! `k` (appends tear mid-frame, like a power cut). Recovery with a
//! healthy io must then yield a database identical to an oracle built
//! by replaying a *prefix* of the ground-truth ops — fields, trigger
//! automaton words, firing counts, captured params, histories, output,
//! stats deltas, and the clock all compared byte for byte.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ode_core::event::calendar::HR;
use ode_core::Value;
use parking_lot::Mutex;

use ode_db::{
    demo, replay, shard_dir, Database, DiskWal, EpochRecord, EpochTable, FaultyIo, FsyncPolicy,
    LogOp, ObjectId, ShardedDatabase, ShardedWal, SharedIo, Stats, StdIo, TxnId, WalConfig,
};

/// Tiny segments + fsync-per-op maximize the number of distinct I/O
/// operations (and therefore crash points) the session generates.
fn cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 256,
        fsync: FsyncPolicy::Always,
        archive: false,
    }
}

fn fresh() -> Database {
    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    db
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-crash-matrix-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The scripted session: object creation, an unauthorized abort (T1),
/// big withdrawals (T6), a reorder cascade (T2), a trigger
/// deactivate/reactivate, clock advances through the 17:00 timer (T3),
/// and a transaction left open at the kill point. `mid_checkpoint` runs
/// at a quiescent moment roughly halfway through.
fn script(db: &mut Database, mut mid_checkpoint: impl FnMut(&mut Database)) {
    db.advance_clock_to(9 * HR);
    let txn = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(txn, "stockRoom", &[]).unwrap();
    db.commit(txn).unwrap();

    let _ = demo::withdraw_txn(db, "mallory", room, "bolt", 10); // T1 aborts
    for _ in 0..3 {
        demo::withdraw_txn(db, "alice", room, "bolt", 120).unwrap(); // T6: q > 100
    }
    demo::withdraw_txn(db, "bob", room, "gear", 30).unwrap();

    mid_checkpoint(db);

    demo::deposit_withdraw_txn(db, "alice", room, "shim", 25).unwrap(); // T2 + T8
    let t = db.begin_as(Value::Str("bob".into()));
    db.deactivate_trigger(t, room, "T6").unwrap();
    db.commit(t).unwrap();
    demo::withdraw_txn(db, "alice", room, "bolt", 120).unwrap(); // T6 silent
    let t = db.begin_as(Value::Str("bob".into()));
    db.activate_trigger(t, room, "T6", &[]).unwrap();
    db.commit(t).unwrap();
    db.advance_clock_to(17 * HR); // T3 fires
    demo::withdraw_txn(db, "bob", room, "gear", 10).unwrap();

    // Crash with a transaction in flight: its ops are logged but its
    // commit never arrives.
    let t = db.begin_as(Value::Str("alice".into()));
    let _ = db.call(
        t,
        room,
        "withdraw",
        &[Value::Str("bolt".into()), Value::Int(1)],
    );
}

/// Everything observable about a database, rendered deterministically.
fn fingerprint(db: &Database) -> String {
    let mut s = format!("clock={}\n", db.now());
    let mut objs: Vec<_> = db.objects().collect();
    objs.sort_by_key(|o| o.id.0);
    for o in objs {
        s.push_str(&format!(
            "obj {} class {} deleted {}\n",
            o.id.0, o.class.0, o.deleted
        ));
        for (k, v) in &o.fields {
            s.push_str(&format!("  field {k} = {v:?}\n"));
        }
        for t in &o.triggers {
            s.push_str(&format!(
                "  trig {} active={} state={} fired={} params={:?} captured={:?}\n",
                t.def_index, t.active, t.state, t.fired, t.params, t.captured
            ));
        }
    }
    s
}

fn stats_delta(before: Stats, after: Stats) -> (u64, u64, u64, u64, u64) {
    (
        after.events_posted - before.events_posted,
        after.symbols_stepped - before.symbols_stepped,
        after.triggers_fired - before.triggers_fired,
        after.txns_committed - before.txns_committed,
        after.txns_aborted - before.txns_aborted,
    )
}

/// Run the session against a WAL in `dir` over `io`. Returns the number
/// of mutating I/O ops issued.
fn run_session(dir: &Path, io: FaultyIo) -> u64 {
    let ops = io.op_counter();
    let shared = SharedIo::new(io);
    let (wal, recovery) =
        DiskWal::open(dir, cfg(), shared).expect("open on an empty dir cannot fail");
    assert!(recovery.is_empty());
    let wal = Arc::new(Mutex::new(wal));

    let mut db = fresh();
    let sink_wal = Arc::clone(&wal);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        // The sink swallows errors: the WAL poisons itself and the
        // session (like a real server) keeps running un-durably until
        // someone checks its health.
        let _ = sink_wal.lock().append(op);
    })));

    script(&mut db, |db| {
        if let Ok(snap) = db.snapshot() {
            let _ = wal.lock().checkpoint(&snap);
        }
    });
    ops.load(Ordering::SeqCst)
}

/// Oracle: fresh database, replay `all[..base]` (drain output, note
/// stats), then `all[base..m]`. Returns the database, its pre-tail
/// stats, and the tail output.
fn oracle(all: &[LogOp], base: usize, m: usize) -> (Database, Stats) {
    let mut db = fresh();
    replay(&mut db, &all[..base]).expect("oracle prefix replays");
    db.take_output();
    let s0 = db.stats();
    replay(&mut db, &all[base..m]).expect("oracle tail replays");
    (db, s0)
}

#[test]
fn crash_at_every_io_op_recovers_a_consistent_prefix() {
    // Ground truth: the same session recorded purely in memory.
    let mut truth = fresh();
    let all_ops = demo::record_ops(&mut truth);
    script(&mut truth, |_| {});
    let all_ops = all_ops.lock().clone();
    assert!(
        all_ops.len() > 30,
        "script is non-trivial: {}",
        all_ops.len()
    );

    // Size the matrix with a fault-free counting run.
    let dir = tmp_dir("count");
    let total_io_ops = run_session(&dir, FaultyIo::counting());
    assert!(
        total_io_ops > 60,
        "tiny segments + Always fsync yield many crash points, got {total_io_ops}"
    );

    // The fault-free run must recover everything, through the mid-run
    // checkpoint plus the tail.
    {
        let io = SharedIo::new(StdIo::new());
        let (_wal, recovery) = DiskWal::open(&dir, cfg(), io).expect("clean recovery");
        assert!(recovery.snapshot.is_some(), "the mid-script checkpoint ran");
        assert!(!recovery.truncated_tail, "clean shutdown tears nothing");
        let base = recovery.base_lsn as usize;
        let m = base + recovery.ops.len();
        assert_eq!(m, all_ops.len(), "clean shutdown loses nothing");
        let mut got = fresh();
        recovery.restore_into(&mut got).expect("clean restore");
        let (want, _) = oracle(&all_ops, base, m);
        assert_eq!(fingerprint(&got), fingerprint(&want));
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The matrix proper.
    let mut recovered_counts = Vec::new();
    for k in 0..total_io_ops {
        let dir = tmp_dir(&format!("k{k}"));
        run_session(&dir, FaultyIo::crash_at(k));

        let io = SharedIo::new(StdIo::new());
        let (_wal, recovery) = DiskWal::open(&dir, cfg(), io)
            .unwrap_or_else(|e| panic!("crash point {k}: recovery failed: {e}"));
        let base = recovery.base_lsn as usize;
        let m = base + recovery.ops.len();
        assert!(
            m <= all_ops.len(),
            "crash point {k}: recovered {m} ops, session only issued {}",
            all_ops.len()
        );

        let mut got = fresh();
        recovery
            .restore_into(&mut got)
            .unwrap_or_else(|e| panic!("crash point {k}: restore failed: {e}"));

        let (want, s0) = oracle(&all_ops, base, m);
        assert_eq!(
            fingerprint(&got),
            fingerprint(&want),
            "crash point {k} (base {base}, m {m}): state diverges from oracle"
        );
        assert_eq!(
            got.output(),
            want.output(),
            "crash point {k}: tail firing output diverges"
        );
        assert_eq!(
            stats_delta(Stats::default(), got.stats()),
            stats_delta(s0, want.stats()),
            "crash point {k}: tail stats diverge"
        );
        recovered_counts.push(m);
        let _ = std::fs::remove_dir_all(&dir);
    }

    // Later crash points never recover fewer ops than earlier ones did:
    // durability is monotone in how far the session got.
    for w in recovered_counts.windows(2) {
        assert!(w[1] >= w[0], "durability regressed: {recovered_counts:?}");
    }
    // And the matrix actually spans the session: early crashes recover
    // nothing, late crashes recover almost everything.
    assert_eq!(recovered_counts[0], 0);
    assert!(*recovered_counts.last().unwrap() >= all_ops.len() - 1);
}

// ---------------------------------------------------------------------
// Group-commit injection points: the two-phase append adds a new place
// to die — after buffer/assign-LSN but before the batch fsync — and a
// new shape of partial write — a multi-record batch torn mid-flush.
// The invariant under test: the recovered prefix always contains every
// *acked* transaction (one `wait_durable` returned Ok for) and the
// harness is never told an unacked suffix made it (the wait/sync that
// would have acked it errors).
// ---------------------------------------------------------------------

/// The default policy with no flusher thread: a transaction's records
/// queue in memory until its commit record arrives, and that commit's
/// own flush — run on the committing thread — writes the whole
/// transaction as one batch. Every faulted run therefore sees the same
/// deterministic I/O sequence.
fn group_cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 256,
        fsync: FsyncPolicy::OnCommit,
        archive: false,
    }
}

/// What the group-commit session observed before the (simulated) crash.
struct GroupRun {
    /// One past the last LSN an `Ok` from `wait_durable` acked.
    acked_head: u64,
    /// One past the last LSN the session buffered (acked or not).
    buffered_head: u64,
    /// Whether the ack wait succeeded.
    wait_ok: bool,
    /// Whether the tail's commit flush succeeded (`None`: the tail was
    /// left open, never committed).
    sync_ok: Option<bool>,
    /// Mutating-I/O count right before / right after the tail's commit
    /// — the faulted runs aim their crash between these.
    ops_before_sync: u64,
    ops_after_sync: u64,
}

/// The unacked tail both the live session and the ground truth run: an
/// open transaction of two withdrawals (the second fires T6).
fn open_tail(db: &mut Database, room: ObjectId) -> TxnId {
    let t = db.begin_as(Value::Str("bob".into()));
    for (item, q) in [("gear", 30), ("bolt", 120)] {
        db.call(
            t,
            room,
            "withdraw",
            &[Value::Str(item.into()), Value::Int(q)],
        )
        .unwrap();
    }
    t
}

/// The group-commit session: one acked withdrawal, then a buffered
/// unacked tail — an open transaction — then (optionally) its commit,
/// whose flush writes the whole transaction as one multi-record batch.
fn run_group_session(dir: &Path, io: FaultyIo, do_sync: bool) -> GroupRun {
    let ops = io.op_counter();
    let shared = SharedIo::new(io);
    let (wal, recovery) = DiskWal::open(dir, group_cfg(), shared).expect("open empty dir");
    assert!(recovery.is_empty());

    let mut db = fresh();
    let sink_wal = wal.clone();
    let last = Arc::new(AtomicU64::new(0));
    let sink_last = Arc::clone(&last);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        if let Ok(lsn) = sink_wal.append(op) {
            sink_last.store(lsn + 1, Ordering::SeqCst);
        }
    })));

    db.advance_clock_to(9 * HR);
    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    demo::withdraw_txn(&mut db, "alice", room, "bolt", 120).unwrap(); // T6

    // Ack point: everything so far must be durable before we proceed.
    let acked_head = last.load(Ordering::SeqCst);
    let wait_ok = wal.wait_durable(acked_head - 1).is_ok();
    let ops_before_sync = ops.load(Ordering::SeqCst);

    // Unacked tail: buffered + LSN-assigned, never flushed — nothing
    // in it is a durability point.
    let t = open_tail(&mut db, room);
    assert_eq!(
        ops.load(Ordering::SeqCst),
        ops_before_sync,
        "an open transaction performs no I/O"
    );

    // The commit's own flush carries the whole transaction. The sink
    // swallows its error, so ask the WAL: a dead flush poisoned it.
    let sync_ok = do_sync.then(|| {
        db.commit(t).unwrap();
        wal.sync().is_ok()
    });
    let buffered_head = last.load(Ordering::SeqCst);
    GroupRun {
        acked_head,
        buffered_head,
        wait_ok,
        sync_ok,
        ops_before_sync,
        ops_after_sync: ops.load(Ordering::SeqCst),
    }
}

/// The in-memory ground truth for the same session, with the tail
/// transaction committed or left open.
fn group_truth(commit_tail: bool) -> Vec<LogOp> {
    let mut db = fresh();
    let ops = demo::record_ops(&mut db);
    db.advance_clock_to(9 * HR);
    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    demo::withdraw_txn(&mut db, "alice", room, "bolt", 120).unwrap();
    let t = open_tail(&mut db, room);
    if commit_tail {
        db.commit(t).unwrap();
    }
    let ops = ops.lock().clone();
    ops
}

/// Recover `dir` with healthy I/O and check it against the truth
/// prefix-oracle. Returns the recovered op count.
fn recover_and_check(dir: &Path, all_ops: &[LogOp], tag: &str) -> u64 {
    let io = SharedIo::new(StdIo::new());
    let (_wal, recovery) = DiskWal::open(dir, group_cfg(), io)
        .unwrap_or_else(|e| panic!("{tag}: recovery failed: {e}"));
    assert_eq!(recovery.base_lsn, 0, "{tag}: no checkpoint in this test");
    let m = recovery.ops.len();
    assert!(m <= all_ops.len(), "{tag}: recovered more ops than issued");
    let mut got = fresh();
    recovery
        .restore_into(&mut got)
        .unwrap_or_else(|e| panic!("{tag}: restore failed: {e}"));
    let (want, _) = oracle(all_ops, 0, m);
    assert_eq!(
        fingerprint(&got),
        fingerprint(&want),
        "{tag}: recovered state diverges from the op-prefix oracle"
    );
    m as u64
}

/// Crash point: after buffer/assign-LSN, before any flush. A process
/// death here (modeled by dropping the WAL — the pending queue is
/// memory) must lose exactly the unacked buffered suffix and nothing
/// the ack wait covered.
#[test]
fn group_commit_crash_between_buffer_and_flush_loses_only_the_unacked_tail() {
    let all_ops = group_truth(false);
    let dir = tmp_dir("group-buffered");
    let run = run_group_session(&dir, FaultyIo::counting(), false);
    assert!(run.wait_ok, "healthy io: the ack wait flushes and succeeds");
    assert!(
        run.buffered_head > run.acked_head,
        "the tail was buffered past the ack point"
    );
    assert_eq!(
        run.buffered_head,
        all_ops.len() as u64,
        "the live session logged exactly the ground-truth ops"
    );

    let m = recover_and_check(&dir, &all_ops, "buffered-tail crash");
    // Exactly the acked prefix: nothing acked is lost, and none of the
    // unacked suffix is resurrected (its records never reached disk).
    assert_eq!(
        m, run.acked_head,
        "recovery must return precisely the acked prefix"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Crash points *inside* the batch flush: for every mutating I/O op of
/// the tail commit's multi-record flush (segment appends, rotation
/// seal-fsyncs, the final fsync), die there and prove the recovered
/// prefix never loses an acked transaction and the harness was never
/// told the batch made it (the WAL is poisoned and `sync` errors, so
/// nothing in it was acked).
#[test]
fn group_commit_crash_mid_batch_flush_never_loses_an_acked_txn() {
    let all_ops = group_truth(true);

    // Fault-free counting run sizes the injection window.
    let dir = tmp_dir("group-count");
    let clean = run_group_session(&dir, FaultyIo::counting(), true);
    assert!(clean.wait_ok && clean.sync_ok == Some(true));
    assert!(
        clean.ops_after_sync > clean.ops_before_sync + 2,
        "the batch flush spans several I/O ops (got {} .. {})",
        clean.ops_before_sync,
        clean.ops_after_sync
    );
    // A clean run persists everything.
    let m = recover_and_check(&dir, &all_ops, "clean group run");
    assert_eq!(m, clean.buffered_head);
    let _ = std::fs::remove_dir_all(&dir);

    let mut recovered_counts = Vec::new();
    for k in clean.ops_before_sync..clean.ops_after_sync {
        let dir = tmp_dir(&format!("group-k{k}"));
        let run = run_group_session(&dir, FaultyIo::crash_at(k), true);
        assert!(
            run.wait_ok,
            "crash point {k} lies after the ack wait's flush"
        );
        assert_eq!(
            run.sync_ok,
            Some(false),
            "crash point {k}: the dying batch flush must not report success"
        );

        let m = recover_and_check(&dir, &all_ops, &format!("mid-batch crash {k}"));
        assert!(
            m >= run.acked_head,
            "crash point {k}: an acked txn was lost (recovered {m}, acked {})",
            run.acked_head
        );
        recovered_counts.push(m);
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Deterministic I/O order makes durability monotone in the crash
    // point, exactly like the main matrix.
    for w in recovered_counts.windows(2) {
        assert!(
            w[1] >= w[0],
            "group-commit durability regressed: {recovered_counts:?}"
        );
    }
    // The window actually spans the batch: the earliest crash tears
    // the batch write partway (a half-written coalesced run keeps at
    // most a prefix, never the whole batch), while the last one (the
    // fsync died after the write landed) keeps everything.
    assert!(
        recovered_counts[0] < clean.buffered_head,
        "the first mid-batch crash must not persist the full batch: {recovered_counts:?}"
    );
    assert_eq!(*recovered_counts.last().unwrap(), clean.buffered_head);
}

// ---------------------------------------------------------------------
// Per-shard injection points: with N WAL streams a crash can now take
// down *one* shard's flusher while its siblings keep flushing. The
// invariants under test: an *acked* cross-shard transaction (both
// participants' watermarks covered it) survives on every shard; an
// unacked one is all-or-nothing after reconciliation — never applied on
// one shard only — and repeated recoveries of the same directory reach
// the identical verdict (presumed abort is deterministic).
// ---------------------------------------------------------------------

/// What the two-shard group-commit session observed.
struct ShardedRun {
    /// The merged-watermark ack for the gear withdrawal succeeded.
    acked_ok: bool,
    /// Whether shard 1's final batch flush succeeded.
    sync1_ok: bool,
    /// Shard 1's mutating-I/O count just before / after its final
    /// flush — the faulted runs aim their crash between these.
    ops_before_sync: u64,
    ops_after_sync: u64,
}

/// The session: one cross-shard txn creating a room on each shard, an
/// *acked* cross-shard gear withdrawal, then an *unacked* cross-shard
/// bolt withdrawal whose records stay buffered on both shards until its
/// two-phase commit. That commit stamps shard 0 first — healthy, so its
/// flush lands its half of the unacked transaction — then shard 1 (the
/// crash target), whose flush carries its whole half as one batch.
fn run_sharded_session(root: &Path, io0: FaultyIo, io1: FaultyIo) -> ShardedRun {
    let ops1 = io1.op_counter();
    let (wal0, rec0) =
        DiskWal::open(&shard_dir(root, 0, 2), group_cfg(), SharedIo::new(io0)).expect("shard 0");
    let (wal1, rec1) =
        DiskWal::open(&shard_dir(root, 1, 2), group_cfg(), SharedIo::new(io1)).expect("shard 1");
    assert!(rec0.is_empty() && rec1.is_empty());

    let db = ShardedDatabase::new(2);
    db.define_class(&demo::stockroom_class()).unwrap();
    let lasts: [Arc<AtomicU64>; 2] = [Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0))];
    for (s, wal) in [wal0.clone(), wal1.clone()].into_iter().enumerate() {
        let last = Arc::clone(&lasts[s]);
        db.shard(s).with(|d| {
            d.set_log_sink(Some(Arc::new(move |op: &LogOp| {
                if let Ok(lsn) = wal.append(op) {
                    last.store(lsn + 1, Ordering::SeqCst);
                }
            })));
        });
    }

    // One room per shard, created in a single cross-shard transaction.
    let (rooms, parts) = db
        .run_txn("alice", |db, t| {
            let a = db.create_object_on(t, 0, "stockRoom", &[])?;
            let b = db.create_object_on(t, 1, "stockRoom", &[])?;
            Ok((a, b))
        })
        .unwrap();
    assert_eq!(parts, vec![0, 1]);

    // The acked transaction: withdraw 5 gear from each room, then hold
    // the ack until *both* shards' durable watermarks cover their
    // commit records (the merged-watermark rule).
    db.run_txn("alice", |db, t| {
        db.call(
            t,
            rooms.0,
            "withdraw",
            &[Value::Str("gear".into()), Value::Int(5)],
        )?;
        db.call(
            t,
            rooms.1,
            "withdraw",
            &[Value::Str("gear".into()), Value::Int(5)],
        )
    })
    .unwrap();
    let acked_ok = [&wal0, &wal1].iter().zip(&lasts).all(|(wal, last)| {
        let head = last.load(Ordering::SeqCst);
        head > 0 && wal.wait_durable(head - 1).is_ok()
    });

    // The unacked tail: withdraw 7 bolts from each room. Buffered and
    // LSN-assigned on both shards, never waited on.
    let t = db.begin("alice");
    for room in [rooms.0, rooms.1] {
        db.call(
            t,
            room,
            "withdraw",
            &[Value::Str("bolt".into()), Value::Int(7)],
        )
        .unwrap();
    }
    let ops_before_sync = ops1.load(Ordering::SeqCst);

    // The sinks swallow a dying flush's error, so ask shard 1's WAL: a
    // dead flush poisoned it.
    db.commit(t).unwrap();
    let sync1_ok = wal1.sync().is_ok();
    let ops_after_sync = ops1.load(Ordering::SeqCst);
    // Shard 0 was untouched by the fault: it landed its whole stream,
    // including its half of the unacked transaction.
    wal0.sync().expect("shard 0's io is healthy");

    ShardedRun {
        acked_ok,
        sync1_ok,
        ops_before_sync,
        ops_after_sync,
    }
}

/// Recover the two-shard root with healthy I/O twice (the second pass
/// proves the presumed-abort verdict is deterministic), then report
/// `(gear, bolt)` for each room plus the demotions the reconciliation
/// pass made.
fn recover_sharded_rooms(root: &Path, tag: &str) -> ([i64; 2], [i64; 2], Vec<(usize, u64)>) {
    let open = || {
        let io = SharedIo::new(StdIo::new());
        let (_wal, recovery) = ShardedWal::open(root, group_cfg(), vec![io; 2], true)
            .unwrap_or_else(|e| panic!("{tag}: sharded recovery failed: {e}"));
        let engines: Vec<Database> = recovery
            .shards
            .iter()
            .enumerate()
            .map(|(s, rec)| {
                let mut db = fresh();
                rec.restore_into(&mut db)
                    .unwrap_or_else(|e| panic!("{tag}: shard {s} restore failed: {e}"));
                db
            })
            .collect();
        (engines, recovery.report.demoted)
    };
    let (engines, demoted) = open();
    let (again, demoted2) = open();
    assert_eq!(demoted, demoted2, "{tag}: reconciliation not deterministic");
    for (s, (a, b)) in engines.iter().zip(&again).enumerate() {
        assert_eq!(
            fingerprint(a),
            fingerprint(b),
            "{tag}: shard {s} recovers differently on the second pass"
        );
    }
    // Each room is its shard's first local object.
    let item = |s: usize, name: &str| {
        engines[s]
            .peek_field(ObjectId(1), "items")
            .expect("room exists on every recovery")
            .member(name)
            .and_then(Value::as_int)
            .expect("item count")
    };
    (
        [item(0, "gear"), item(1, "gear")],
        [item(0, "bolt"), item(1, "bolt")],
        demoted,
    )
}

#[test]
fn sharded_crash_in_one_flusher_keeps_acked_cross_shard_txns_atomic() {
    // Fault-free counting run: sizes shard 1's injection window and
    // pins down the fully-durable end state.
    let root = tmp_dir("shard-count");
    let clean = run_sharded_session(&root, FaultyIo::counting(), FaultyIo::counting());
    assert!(clean.acked_ok, "healthy io acks the gear withdrawal");
    assert!(clean.sync1_ok);
    assert!(
        clean.ops_after_sync > clean.ops_before_sync,
        "shard 1's final flush performs mutating I/O"
    );
    let (gear, bolt, demoted) = recover_sharded_rooms(&root, "clean");
    assert_eq!(gear, [95, 95]);
    assert_eq!(bolt, [493, 493]);
    assert!(
        demoted.is_empty(),
        "a clean run demotes nothing: {demoted:?}"
    );
    let _ = std::fs::remove_dir_all(&root);

    // The matrix: kill shard 1's I/O at every op of its final flush.
    let mut saw_demotion = false;
    let mut last_bolt = 0;
    for k in clean.ops_before_sync..clean.ops_after_sync {
        let root = tmp_dir(&format!("shard-k{k}"));
        let run = run_sharded_session(&root, FaultyIo::counting(), FaultyIo::crash_at(k));
        assert!(
            run.acked_ok,
            "crash point {k} lies after the merged-watermark ack"
        );
        assert!(
            !run.sync1_ok,
            "crash point {k}: the dying flush must not report success"
        );

        let (gear, bolt, demoted) = recover_sharded_rooms(&root, &format!("crash {k}"));
        // The acked transaction is durable on *both* shards, no matter
        // where shard 1's flusher died.
        assert_eq!(
            gear,
            [95, 95],
            "crash point {k}: an acked cross-shard txn was lost"
        );
        // The unacked transaction is atomic: shard 0 flushed its half,
        // but reconciliation demotes it unless shard 1's copy landed
        // too — it must never be applied on one room only.
        assert_eq!(
            bolt[0], bolt[1],
            "crash point {k}: unacked cross-shard txn applied on one shard only"
        );
        assert!(
            bolt[0] == 500 || bolt[0] == 493,
            "crash point {k}: bolts are pre- or post-txn, got {bolt:?}"
        );
        if !demoted.is_empty() {
            saw_demotion = true;
            assert_eq!(
                bolt,
                [500, 500],
                "crash point {k}: a demoted txn must not leave effects"
            );
        }
        last_bolt = bolt[0];
        let _ = std::fs::remove_dir_all(&root);
    }
    assert!(
        saw_demotion,
        "the window never exercised the demotion path — the matrix lost its teeth"
    );
    // The final crash point dies after shard 1's batch hit the disk:
    // everything recovers, exactly like the clean run.
    assert_eq!(last_bolt, 493, "the last crash point keeps the full batch");
}

// ---------------------------------------------------------------------
// Promote injection points: a promotion is a two-step durability dance
// — append `EpochBump` to the shard log, wait for it, then record the
// epoch start in `epochs.wal` — followed by the first commit of the
// new reign. A crash anywhere in that window must recover writable at
// exactly one epoch: the new one iff the bump record survived in the
// log, the old one otherwise — never the new epoch without the bump
// (the epoch table must not run ahead of the log it summarizes), and
// never a deposed latch.
// ---------------------------------------------------------------------

/// What the promote session observed before the (simulated) crash.
struct PromoteRun {
    /// The bump's LSN, if its append + durability wait both succeeded.
    bump_ok: Option<u64>,
    /// Whether the `epochs.wal` append succeeded.
    table_ok: bool,
    /// Mutating-I/O count just before the bump append / just after the
    /// first post-promote commit — the faulted runs aim between these.
    ops_before_bump: u64,
    ops_after_commit: u64,
}

/// Epoch-0 history, then the promote sequence, then the first commit
/// of epoch 1 — the exact ordering the server uses, flattened to one
/// shard so every I/O op is a crash point.
fn run_promote_session(dir: &Path, io: FaultyIo) -> PromoteRun {
    let ops = io.op_counter();
    let shared = SharedIo::new(io);
    let (wal, recovery) = DiskWal::open(dir, cfg(), shared.clone()).expect("open empty dir");
    assert!(recovery.is_empty());

    let mut db = fresh();
    let sink_wal = wal.clone();
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        let _ = sink_wal.append(op);
    })));

    db.advance_clock_to(9 * HR);
    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    demo::withdraw_txn(&mut db, "alice", room, "bolt", 10).unwrap();

    // The promote sequence: the bump must be durable in the shard log
    // *before* the table append — a recovered table claiming an epoch
    // the log cannot prove would break every fence computation.
    let ops_before_bump = ops.load(Ordering::SeqCst);
    let bump_ok = wal
        .append(&LogOp::EpochBump { epoch: 1 })
        .ok()
        .filter(|&lsn| wal.wait_durable(lsn).is_ok());
    let table_ok = match bump_ok {
        Some(lsn) => EpochTable::append(
            &shared,
            dir,
            &[EpochRecord::Start {
                epoch: 1,
                shard: 0,
                lsn,
            }],
        )
        .is_ok(),
        None => false,
    };

    // The first commit of the new reign.
    demo::withdraw_txn(&mut db, "alice", room, "gear", 3).unwrap();
    PromoteRun {
        bump_ok,
        table_ok,
        ops_before_bump,
        ops_after_commit: ops.load(Ordering::SeqCst),
    }
}

/// The in-memory ground truth for the same session's *engine* ops (the
/// bump is appended by hand, not logged by the engine).
fn promote_truth() -> Vec<LogOp> {
    let mut db = fresh();
    let ops = demo::record_ops(&mut db);
    db.advance_clock_to(9 * HR);
    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    demo::withdraw_txn(&mut db, "alice", room, "bolt", 10).unwrap();
    demo::withdraw_txn(&mut db, "alice", room, "gear", 3).unwrap();
    let ops = ops.lock().clone();
    ops
}

#[test]
fn promote_crash_window_recovers_writable_at_exactly_one_epoch() {
    let all_ops = promote_truth();

    // Fault-free counting run sizes the injection window and pins the
    // fully-durable end state.
    let dir = tmp_dir("promote-count");
    let clean = run_promote_session(&dir, FaultyIo::counting());
    let bump_lsn = clean.bump_ok.expect("healthy io lands the bump");
    assert!(clean.table_ok, "healthy io lands the table append");
    assert!(
        clean.ops_after_commit > clean.ops_before_bump + 2,
        "the window spans several I/O ops (got {} .. {})",
        clean.ops_before_bump,
        clean.ops_after_commit
    );
    {
        let io = SharedIo::new(StdIo::new());
        let (_wal, recovery) = DiskWal::open(&dir, cfg(), io.clone()).expect("clean recovery");
        let table = EpochTable::load(&io, &dir).expect("clean table");
        assert_eq!(table.history_epoch(), 1);
        assert!(!table.is_deposed());
        assert_eq!(table.fence_lsn(0, 0), Some(bump_lsn));
        assert_eq!(
            recovery.ops.len(),
            all_ops.len() + 1,
            "every engine op plus the bump"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);

    // The matrix: die at every mutating I/O op of the promote window.
    let mut bump_history = Vec::new();
    for k in clean.ops_before_bump..clean.ops_after_commit {
        let dir = tmp_dir(&format!("promote-k{k}"));
        run_promote_session(&dir, FaultyIo::crash_at(k));

        let io = SharedIo::new(StdIo::new());
        let (_wal, recovery) = DiskWal::open(&dir, cfg(), io.clone())
            .unwrap_or_else(|e| panic!("crash point {k}: recovery failed: {e}"));
        let mut table = EpochTable::load(&io, &dir)
            .unwrap_or_else(|e| panic!("crash point {k}: table load failed: {e}"));

        let recovered_bump = recovery
            .ops
            .iter()
            .position(|op| matches!(op, LogOp::EpochBump { .. }))
            .map(|i| recovery.base_lsn + i as u64);

        // The table never runs ahead of the log: if it already claims
        // epoch 1, the bump record is durable at the recorded LSN.
        if table.history_epoch() == 1 {
            assert_eq!(
                recovered_bump,
                Some(bump_lsn),
                "crash point {k}: the table claims an epoch the log does not hold"
            );
        }

        // Heal the window exactly like server startup: fold log bumps
        // the table missed into it and persist the difference.
        let fresh_recs = table.merge_bumps(0, recovery.base_lsn, &recovery.ops);
        EpochTable::append(&io, &dir, &fresh_recs)
            .unwrap_or_else(|e| panic!("crash point {k}: heal append failed: {e}"));

        // Writable at exactly one epoch: the new one iff the bump is in
        // the recovered log, the old one otherwise. Never deposed.
        let want = u64::from(recovered_bump.is_some());
        assert_eq!(
            table.history_epoch(),
            want,
            "crash point {k}: recovered at the wrong epoch"
        );
        assert!(
            !table.is_deposed(),
            "crash point {k}: recovery must come back writable"
        );
        if let Some(lsn) = recovered_bump {
            assert_eq!(
                table.fence_lsn(0, 0),
                Some(lsn),
                "crash point {k}: the fence does not point at the bump"
            );
        }

        // The heal is itself durable: a second load agrees with no
        // merge at all.
        let again = EpochTable::load(&io, &dir).expect("reload");
        assert_eq!(
            again.history_epoch(),
            table.history_epoch(),
            "crash point {k}: the healed table did not persist"
        );

        // And the engine state is still the op-prefix oracle's — the
        // bump is an engine no-op, so the oracle replays the recovered
        // ops with it filtered out.
        let engine_ops: Vec<LogOp> = recovery
            .ops
            .iter()
            .filter(|op| !matches!(op, LogOp::EpochBump { .. }))
            .cloned()
            .collect();
        let m = engine_ops.len();
        assert!(m <= all_ops.len(), "crash point {k}: phantom ops");
        let mut got = fresh();
        recovery
            .restore_into(&mut got)
            .unwrap_or_else(|e| panic!("crash point {k}: restore failed: {e}"));
        let (want_db, _) = oracle(&all_ops, 0, m);
        assert_eq!(
            fingerprint(&got),
            fingerprint(&want_db),
            "crash point {k}: state diverges from the oracle"
        );

        bump_history.push(recovered_bump.is_some());
        let _ = std::fs::remove_dir_all(&dir);
    }
    // Durability of the bump is monotone in the crash point, and the
    // window genuinely spans both verdicts.
    for w in bump_history.windows(2) {
        assert!(w[0] <= w[1], "bump durability regressed: {bump_history:?}");
    }
    assert!(
        !bump_history[0],
        "the earliest crash point must still be at epoch 0"
    );
    assert!(
        *bump_history.last().unwrap(),
        "the last crash point must be at epoch 1"
    );
}

// ---------------------------------------------------------------------
// Retirement injection points: a checkpoint installs its snapshot,
// retires the superseded generation, and the caller then drains the
// retire queue (here at once, on the same thread). The drain is one
// code path in both modes; only a segment's fate differs:
// plain mode unlinks it, archive mode compresses it into `archive/` —
// tmp append, fsync, rename, dir fsync, THEN unlink. Die at every
// mutating I/O op of the checkpoint, install and drain, in both modes:
// (1) recovery is exact and no file of the live generation is ever
// removed; (2) archive mode never unlinks before durable — a retired
// segment is gone from the wal dir only if a fully-validating archive
// holds it — and a mid-crash restore below the base either succeeds
// exactly or fails with the *typed* `ArchiveError::Truncated`; (3)
// nothing is ever lost — re-opening re-queues the leftovers, a healthy
// drain removes them, and (archive mode) point-in-time restore then
// reproduces the ground-truth oracle at every probed LSN.
// ---------------------------------------------------------------------

use ode_db::durability::{archive_dir, list_archives, read_archive, restore_to_lsn, ArchiveError};

fn retire_cfg(archive: bool) -> WalConfig {
    WalConfig { archive, ..cfg() }
}

/// `segment-{gen:010}-{idx:05}.wal` → `(gen, idx)`.
fn parse_seg_name(name: &str) -> Option<(u64, u64)> {
    let rest = name.strip_prefix("segment-")?.strip_suffix(".wal")?;
    let (g, k) = rest.split_once('-')?;
    Some((g.parse().ok()?, k.parse().ok()?))
}

/// Segment and checkpoint files in `dir` of a generation before `live`.
fn superseded_files(dir: &Path, live: u64) -> Vec<String> {
    let generation = |n: &str| -> Option<u64> {
        let rest = n
            .strip_prefix("segment-")
            .or_else(|| n.strip_prefix("checkpoint-"))?;
        rest.split('-').next()?.parse().ok()
    };
    let mut names: Vec<String> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| generation(n).is_some_and(|g| g < live))
        .collect();
    names.sort();
    names
}

/// The scripted session whose mid-script checkpoint is followed at once
/// by a drain of the retire queue. Returns the generation-0 files the
/// checkpoint retired and the mutating-I/O count before the checkpoint
/// and after the drain.
fn run_retire_session(dir: &Path, io: FaultyIo, archive: bool) -> (Vec<String>, u64, u64) {
    let ops = io.op_counter();
    let shared = SharedIo::new(io);
    let (wal, recovery) = DiskWal::open(dir, retire_cfg(archive), shared).expect("open empty dir");
    assert!(recovery.is_empty());
    let mut db = fresh();
    let sink_wal = wal.clone();
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        let _ = sink_wal.append(op);
    })));
    let mut window = (Vec::new(), 0, 0);
    script(&mut db, |db| {
        if let Ok(snap) = db.snapshot() {
            window.0 = superseded_files(dir, 1);
            window.1 = ops.load(Ordering::SeqCst);
            let _ = wal.checkpoint(&snap);
            let _ = wal.drain_retired();
            window.2 = ops.load(Ordering::SeqCst);
        }
    });
    window
}

#[test]
fn retire_crash_at_every_io_op_never_loses_a_swept_segment() {
    // Ground truth: the same session recorded purely in memory.
    let mut truth = fresh();
    let all_ops = demo::record_ops(&mut truth);
    script(&mut truth, |_| {});
    let all_ops = all_ops.lock().clone();
    let io = SharedIo::new(StdIo::new());

    for archive in [false, true] {
        let mode = if archive { "archive" } else { "plain" };
        let cfg = retire_cfg(archive);

        // Fault-free counting run: sizes the checkpoint's injection
        // window and pins the expected base.
        let dir = tmp_dir(&format!("{mode}-count"));
        let (retired, before, after) = run_retire_session(&dir, FaultyIo::counting(), archive);
        assert!(
            retired.len() > 4,
            "{mode}: the checkpoint retired a generation"
        );
        assert!(
            after > before + retired.len() as u64,
            "{mode}: the drain spans an I/O op per retired file (got {before} .. {after})"
        );
        assert!(
            superseded_files(&dir, 1).is_empty(),
            "{mode}: the drain removed every retired file"
        );
        let (w, rec) = DiskWal::open(&dir, cfg, io.clone()).expect("clean reopen");
        let base = rec.base_lsn;
        assert!(base > 0 && base + rec.ops.len() as u64 == all_ops.len() as u64);
        let live_ckpt = format!("checkpoint-{:010}-{base:016}.snap", 1);
        drop(w);
        let _ = std::fs::remove_dir_all(&dir);

        let probe_targets = {
            let mut t = vec![0, 1, base / 2, base - 1, base];
            t.dedup();
            t
        };
        let restores_exactly = |dir: &Path, target: u64, what: &str| {
            let rec = restore_to_lsn(dir, &io, target)
                .unwrap_or_else(|e| panic!("{what}: restore to {target}: {e}"));
            let mut got = fresh();
            rec.restore_into(&mut got)
                .unwrap_or_else(|e| panic!("{what}: restore_into {target}: {e}"));
            got.take_output();
            let (mut want, _) = oracle(&all_ops, target as usize, target as usize);
            want.take_output();
            assert_eq!(
                fingerprint(&got),
                fingerprint(&want),
                "{what}: restore to {target} diverges from the oracle"
            );
        };

        // The matrix: die at every mutating I/O op of the checkpoint and the drain.
        let mut first_installed = None;
        for k in before..after {
            let what = format!("{mode} crash point {k}");
            let dir = tmp_dir(&format!("{mode}-k{k}"));
            let (retired_k, _, _) = run_retire_session(&dir, FaultyIo::crash_at(k), archive);
            assert_eq!(retired_k, retired, "{what}: deterministic session");

            // No file of the live generation is ever removed: once the
            // install is durable, every later crash point still has it.
            let installed = dir.join(&live_ckpt).exists();
            if installed {
                first_installed.get_or_insert(k);
            }
            assert!(
                installed || first_installed.is_none(),
                "{what}: the live checkpoint was removed"
            );

            if archive {
                // Never unlink before durable: a retired segment missing
                // from the wal dir has a fully-validating archive.
                let archives = list_archives(&io, &dir).unwrap();
                for name in retired.iter().filter(|n| !dir.join(n).exists()) {
                    let Some((g, s)) = parse_seg_name(name) else {
                        continue;
                    };
                    let durable = archives.iter().any(|(ag, ak, _, aname)| {
                        (*ag, *ak) == (g, s)
                            && read_archive(&io, &archive_dir(&dir).join(aname)).is_ok()
                    });
                    assert!(
                        durable,
                        "{what}: {name} was unlinked before its archive was durable"
                    );
                }
                // Mid-crash, restore is all-or-Truncated: the chain may
                // be incomplete, but it never serves wrong data.
                for &target in &probe_targets {
                    match restore_to_lsn(&dir, &io, target) {
                        Ok(_) => restores_exactly(&dir, target, &what),
                        Err(ArchiveError::Truncated(_)) => {}
                        Err(e) => panic!("{what}, target {target}: untyped failure: {e}"),
                    }
                }
            }

            // Recovery is exact: the crash lost no durable record (the
            // session flushed everything before checkpointing, and the
            // dead io wrote nothing after).
            let (wal, rec) = DiskWal::open(&dir, cfg, io.clone())
                .unwrap_or_else(|e| panic!("{what}: recovery failed: {e}"));
            let m = rec.base_lsn as usize + rec.ops.len();
            assert_eq!(m as u64, base, "{what}: recovery lost records");
            assert_eq!(rec.base_lsn, if installed { base } else { 0 });
            let mut got = fresh();
            rec.restore_into(&mut got)
                .unwrap_or_else(|e| panic!("{what}: restore failed: {e}"));
            let (want, _) = oracle(&all_ops, rec.base_lsn as usize, m);
            assert_eq!(
                fingerprint(&got),
                fingerprint(&want),
                "{what}: state diverges from oracle"
            );

            // Nothing is lost: re-opening re-queued exactly the
            // leftover segments, and a healthy drain removes them all.
            let leftovers = superseded_files(&dir, wal.generation());
            let leftover_segs = leftovers.iter().filter(|n| n.starts_with("segment-"));
            assert_eq!(
                wal.archive_stats().lag_segments,
                leftover_segs.count() as u64,
                "{what}: reopening re-queues the leftovers {leftovers:?}"
            );
            wal.drain_retired()
                .unwrap_or_else(|e| panic!("{what}: re-drain failed: {e}"));
            drop(wal);
            assert!(
                superseded_files(&dir, u64::from(installed)).is_empty(),
                "{what}: the re-drain left superseded files"
            );
            if archive {
                for &target in &probe_targets {
                    restores_exactly(&dir, target, &format!("{what} post-heal"));
                }
            } else {
                assert!(
                    list_archives(&io, &dir).unwrap().is_empty(),
                    "{what}: plain mode archives nothing"
                );
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
        let first = first_installed.expect("some crash point follows the install");
        assert!(
            after - first >= retired.len() as u64,
            "{mode}: the matrix covers every op of the drain"
        );
    }
}
