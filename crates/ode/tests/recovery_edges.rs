//! Recovery edge cases the crash matrix doesn't isolate: empty
//! directories, zero-tail checkpoints, duplicate checkpoint files,
//! idempotent re-recovery, interior corruption, fsync-failure
//! poisoning, an oversized checkpoint refused without poisoning, and a
//! property test that random `LogOp` sequences survive the framed round
//! trip bit for bit.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ode_core::Value;
use parking_lot::Mutex;
use proptest::prelude::*;

use ode_db::durability::frame;
use ode_db::persist::ObjectSnapshot;
use ode_db::{
    demo, Database, DiskWal, Fault, FaultyIo, FsyncPolicy, LogOp, SharedIo, StdIo, WalConfig,
    WalError,
};

fn cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 512,
        fsync: FsyncPolicy::OnCommit,
        archive: false,
    }
}

fn std_io() -> SharedIo {
    SharedIo::new(StdIo::new())
}

fn fresh() -> Database {
    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    db
}

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-recovery-edges-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Open a WAL in `dir`, hook it to a fresh database, run a short
/// session (optionally checkpointing and draining at the end), and drop
/// everything.
fn run_short_session(dir: &Path, checkpoint_at_end: bool) {
    let (wal, recovery) = DiskWal::open(dir, cfg(), std_io()).unwrap();
    let wal = Arc::new(Mutex::new(wal));
    let mut db = fresh();
    recovery.restore_into(&mut db).unwrap();
    let sink_wal = Arc::clone(&wal);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        let _ = sink_wal.lock().append(op);
    })));

    let txn = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(txn, "stockRoom", &[]).unwrap();
    db.commit(txn).unwrap();
    demo::withdraw_txn(&mut db, "alice", room, "bolt", 30).unwrap();
    demo::withdraw_txn(&mut db, "bob", room, "gear", 5).unwrap();

    if checkpoint_at_end {
        let snap = db.snapshot().unwrap();
        let wal = wal.lock();
        wal.checkpoint(&snap).unwrap();
        wal.drain_retired().unwrap();
    }
}

#[test]
fn empty_dir_recovers_to_nothing() {
    let dir = tmp_dir("empty");
    let (wal, recovery) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert!(recovery.is_empty());
    assert!(recovery.snapshot.is_none());
    assert_eq!(recovery.base_lsn, 0);
    assert_eq!(recovery.segments, 0);
    assert!(!recovery.truncated_tail);
    assert_eq!(wal.lsn(), 0);
    // Restoring "nothing" into a fresh database is a no-op.
    let mut db = fresh();
    recovery.restore_into(&mut db).unwrap();
    assert_eq!(db.objects().count(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_with_zero_tail_recovers_from_snapshot_alone() {
    let dir = tmp_dir("zero-tail");
    run_short_session(&dir, true);

    let (wal, recovery) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert!(recovery.snapshot.is_some());
    assert_eq!(recovery.ops.len(), 0, "checkpoint consumed the whole log");
    assert_eq!(recovery.segments, 0, "sealed segments were truncated away");
    assert!(recovery.base_lsn > 0);
    assert_eq!(wal.lsn(), recovery.base_lsn);

    let mut db = fresh();
    recovery.restore_into(&mut db).unwrap();
    let room = db.objects().next().expect("room survived").id;
    assert_eq!(
        db.peek_field(room, "items").unwrap().member("bolt"),
        Some(&Value::Int(470))
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn duplicate_checkpoint_files_newest_generation_wins() {
    let dir = tmp_dir("dup-ckpt");
    // Session 1 checkpoints (gen 1); session 2 appends a tail and
    // checkpoints again (gen 2).
    run_short_session(&dir, true);
    run_short_session(&dir, true);

    // Fake the stale leftovers of a crash mid-sweep: resurrect an older
    // checkpoint file alongside the real one.
    let names: Vec<String> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    let newest = names
        .iter()
        .find(|n| n.starts_with("checkpoint-"))
        .expect("a checkpoint exists");
    let stale = dir.join("checkpoint-0000000001-0000000000000003.snap");
    std::fs::copy(dir.join(newest), &stale).unwrap();

    let (wal, recovery) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert!(recovery.snapshot.is_some());
    // Both sessions ran two withdrawals plus creation; the newest
    // checkpoint covers both sessions' rooms.
    let mut db = fresh();
    recovery.restore_into(&mut db).unwrap();
    assert_eq!(db.objects().count(), 2, "both sessions' rooms recovered");
    // Recovery retired the stale duplicate; the next drain removes it.
    assert!(stale.exists(), "recovery unlinks nothing inline");
    assert_eq!(wal.drain_retired().unwrap().removed, 1);
    assert!(!stale.exists(), "the drain sweeps stale generations");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn recovery_is_idempotent() {
    let dir = tmp_dir("idem");
    run_short_session(&dir, false);

    let (_, first) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    let mut db1 = fresh();
    first.restore_into(&mut db1).unwrap();

    // Recover again without writing anything: identical result.
    let (_, second) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert_eq!(first.base_lsn, second.base_lsn);
    assert_eq!(first.ops.len(), second.ops.len());
    let mut db2 = fresh();
    second.restore_into(&mut db2).unwrap();

    let room = db1.objects().next().unwrap().id;
    assert_eq!(db1.peek_field(room, "items"), db2.peek_field(room, "items"));
    assert_eq!(db1.output(), db2.output());
    assert_eq!(db1.stats().events_posted, db2.stats().events_posted);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn torn_tail_is_truncated_and_subsequent_recovery_is_clean() {
    let dir = tmp_dir("torn");
    run_short_session(&dir, false);

    // Tear the last segment mid-frame.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains("segment-"))
        .max()
        .expect("a segment exists");
    let bytes = std::fs::read(&seg).unwrap();
    std::fs::write(&seg, &bytes[..bytes.len() - 3]).unwrap();

    let (_, recovery) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert!(recovery.truncated_tail, "the torn frame was truncated");
    let recovered = recovery.ops.len();
    assert!(recovered > 0);

    // After truncation the directory is clean again.
    let (_, again) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert!(!again.truncated_tail);
    assert_eq!(again.ops.len(), recovered);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn interior_corruption_is_a_hard_error() {
    let dir = tmp_dir("corrupt");
    run_short_session(&dir, false);

    // Flip a byte in the middle of the FIRST segment's first frame.
    let seg = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.to_string_lossy().contains("segment-"))
        .min()
        .expect("a segment exists");
    let mut bytes = std::fs::read(&seg).unwrap();
    assert!(bytes.len() > 20, "segment holds multiple frames");
    bytes[12] ^= 0x20; // inside the first frame's payload
    std::fs::write(&seg, &bytes).unwrap();

    let err = match DiskWal::open(&dir, cfg(), std_io()) {
        Err(e) => e,
        Ok(_) => panic!("interior corruption must not recover"),
    };
    let msg = err.to_string();
    assert!(msg.contains("corrupt"), "loud corruption error, got: {msg}");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn fsync_failure_poisons_the_wal_but_keeps_prior_records() {
    let dir = tmp_dir("fsync-fail");
    // OnCommit policy: Begin and Create only queue; the Commit's flush
    // is op 0 = one coalesced append, op 1 = fsync <- fail it.
    let io = FaultyIo::new(std::collections::HashMap::from([(1, Fault::FailOp)]));
    let (wal, _) = DiskWal::open(&dir, cfg(), SharedIo::new(io)).unwrap();
    let begin = LogOp::Begin {
        txn: 1,
        user: Value::Str("alice".into()),
    };
    let create = LogOp::Create {
        txn: 1,
        obj: 1,
        class: "stockRoom".into(),
        overrides: vec![],
    };
    wal.append(&begin).unwrap();
    wal.append(&create).unwrap();
    let err = wal.append(&LogOp::Commit { txn: 1 }).unwrap_err();
    assert!(err.to_string().contains("io error"), "{err}");
    assert!(wal.poisoned().is_some(), "fsync failure latches");
    // Poisoned: everything refuses, including checkpoints.
    assert!(wal.append(&begin).is_err());
    let snap = fresh().snapshot().unwrap();
    assert!(wal.checkpoint(&snap).is_err());
    drop(wal);

    // The appended records themselves survive for recovery.
    let (_, recovery) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert_eq!(recovery.ops.len(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn oversized_checkpoint_is_refused_without_poisoning_the_wal() {
    let dir = tmp_dir("oversized-ckpt");
    let (wal, _) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    let begin = LogOp::Begin {
        txn: 1,
        user: Value::Str("alice".into()),
    };
    wal.append(&begin).unwrap();

    // One field whose serialized form alone is past the frame limit.
    let mut snap = fresh().snapshot().unwrap();
    snap.objects.push(ObjectSnapshot {
        id: 1,
        class: "stockRoom".into(),
        fields: [(
            "blob".to_string(),
            Value::Str("x".repeat(frame::MAX_FRAME as usize + 1)),
        )]
        .into(),
        deleted: false,
        triggers: vec![],
        history: vec![],
    });
    match wal.checkpoint(&snap) {
        Err(WalError::SnapshotTooLarge { bytes, max }) => {
            assert_eq!(max, frame::MAX_FRAME as u64);
            assert!(bytes > max);
        }
        other => panic!("expected SnapshotTooLarge, got {other:?}"),
    }
    drop(snap);

    // Nothing was written and nothing latched: the log keeps working.
    assert!(
        wal.poisoned().is_none(),
        "a refused checkpoint is not a fault"
    );
    let lsn = wal.append(&LogOp::Commit { txn: 1 }).unwrap();
    wal.wait_durable(lsn).unwrap();
    drop(wal);

    let (_, recovery) = DiskWal::open(&dir, cfg(), std_io()).unwrap();
    assert!(recovery.snapshot.is_none(), "no checkpoint was installed");
    assert_eq!(recovery.ops.len(), 2);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------- proptest

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        "[a-zA-Z0-9 _-]{0,12}".prop_map(Value::from),
    ]
}

fn arb_op() -> impl Strategy<Value = LogOp> {
    let txn = 1u64..8;
    let obj = 1u64..8;
    prop_oneof![
        (txn.clone(), arb_value()).prop_map(|(txn, user)| LogOp::Begin { txn, user }),
        (
            txn.clone(),
            obj.clone(),
            "[a-z]{1,10}",
            prop::collection::vec(("[a-z]{1,6}", arb_value()), 0..3)
        )
            .prop_map(|(txn, obj, class, overrides)| LogOp::Create {
                txn,
                obj,
                class,
                overrides
            }),
        (txn.clone(), obj.clone()).prop_map(|(txn, obj)| LogOp::Delete { txn, obj }),
        (
            txn.clone(),
            obj.clone(),
            "[a-z]{1,10}",
            prop::collection::vec(arb_value(), 0..3)
        )
            .prop_map(|(txn, obj, method, args)| LogOp::Call {
                txn,
                obj,
                method,
                args
            }),
        (
            txn.clone(),
            obj.clone(),
            "T[1-8]",
            prop::collection::vec(arb_value(), 0..2)
        )
            .prop_map(|(txn, obj, trigger, params)| LogOp::Activate {
                txn,
                obj,
                trigger,
                params
            }),
        (txn.clone(), obj, "T[1-8]").prop_map(|(txn, obj, trigger)| LogOp::Deactivate {
            txn,
            obj,
            trigger
        }),
        txn.clone().prop_map(|txn| LogOp::Commit { txn }),
        txn.prop_map(|txn| LogOp::Abort { txn }),
        (0u64..1_000_000).prop_map(|to| LogOp::AdvanceClock { to }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 64, ..ProptestConfig::default() })]

    /// Any op sequence framed record by record decodes back to the same
    /// sequence, with a clean tail.
    #[test]
    fn random_ops_survive_framed_round_trip(ops in prop::collection::vec(arb_op(), 0..40)) {
        let mut stream = Vec::new();
        for op in &ops {
            stream.extend_from_slice(&frame::encode(op.to_json_line().unwrap().as_bytes()));
        }
        let (payloads, tail) = frame::decode_all(&stream).unwrap();
        prop_assert_eq!(tail, frame::Tail::Clean);
        prop_assert_eq!(payloads.len(), ops.len());
        for (payload, op) in payloads.iter().zip(&ops) {
            let line = std::str::from_utf8(payload).unwrap();
            let back = LogOp::from_json_line(line).unwrap();
            // LogOp has no PartialEq; compare canonical JSON.
            prop_assert_eq!(back.to_json_line().unwrap(), op.to_json_line().unwrap());
        }
    }

    /// Truncating the stream at any byte boundary never yields an
    /// error: the cut is always classified as a clean prefix plus a
    /// torn tail, and the decoded prefix is exact.
    #[test]
    fn any_truncation_is_a_torn_tail(ops in prop::collection::vec(arb_op(), 1..12), cut_ppm in 0u32..1_000_000) {
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for op in &ops {
            stream.extend_from_slice(&frame::encode(op.to_json_line().unwrap().as_bytes()));
            boundaries.push(stream.len());
        }
        let cut = (stream.len() as u64 * cut_ppm as u64 / 1_000_000) as usize;
        let (payloads, tail) = frame::decode_all(&stream[..cut]).unwrap();
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(payloads.len(), whole);
        if cut == *boundaries.last().unwrap() {
            prop_assert_eq!(tail, frame::Tail::Clean);
        } else {
            prop_assert_eq!(tail, frame::Tail::Torn { offset: boundaries[whole] as u64 });
        }
    }
}
