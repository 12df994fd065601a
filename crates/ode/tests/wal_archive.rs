//! WAL lifecycle integration tests: background compressed archiving of
//! checkpoint-swept segments and point-in-time restore.
//!
//! Covers the archive-mode contract end to end with real file I/O:
//!
//! * a checkpoint in archive mode *retires* superseded segments instead
//!   of deleting them, and a drain compresses each into
//!   `<dir>/archive/` before unlinking it;
//! * `restore_to_lsn` rebuilds the database at **every** committed LSN
//!   — through the archive chain below the live base, through the
//!   checkpoint + live tail at or above it — identical to an oracle
//!   replay of the ground-truth op prefix;
//! * a truncated or missing archive fails restore with the typed
//!   [`ArchiveError::Truncated`], never wrong data;
//! * the dedicated archiver thread drains the queue on its own once
//!   `finish_sweep` nudges it;
//! * in plain (no-archive) mode `checkpoint_deferred` leaves the
//!   unlink work off the checkpoint path until `finish_sweep` runs.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ode_core::Value;
use parking_lot::Mutex;

use ode_db::durability::{archive_dir, list_archives, read_archive, restore_to_lsn, ArchiveError};
use ode_db::{
    demo, replay, Database, DiskWal, FsyncPolicy, LogOp, RedoLog, SharedIo, StdIo, WalConfig,
};

/// Tiny segments so the session spans many files; archiving on.
fn archive_cfg() -> WalConfig {
    WalConfig {
        segment_bytes: 256,
        fsync: FsyncPolicy::Always,
        archive: true,
    }
}

fn plain_cfg() -> WalConfig {
    WalConfig {
        archive: false,
        ..archive_cfg()
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
        "ode-wal-archive-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Everything observable about a database, rendered deterministically
/// (same shape the crash matrix compares).
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
        for r in &o.history {
            s.push_str(&format!(
                "  hist seq={} txn={} {:?} {:?} {:?}\n",
                r.seq, r.txn.0, r.basic, r.args, r.status
            ));
        }
    }
    s
}

/// Run the scripted session against a WAL in `dir` with `cfg`: several
/// committed txns, a checkpoint halfway, more committed txns. Returns
/// the ground-truth op list and the checkpoint's base LSN.
fn run_session(dir: &Path, cfg: WalConfig, deferred_checkpoint: bool) -> (Vec<LogOp>, u64) {
    let (wal, recovery) = DiskWal::open(dir, cfg, std_io()).unwrap();
    assert!(recovery.is_empty());
    let mut db = fresh();
    let truth: Arc<Mutex<Vec<LogOp>>> = Arc::new(Mutex::new(Vec::new()));
    let (sink_wal, sink_truth) = (wal.clone(), Arc::clone(&truth));
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        sink_truth.lock().push(op.clone());
        let _ = sink_wal.append(op);
    })));

    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    for _ in 0..4 {
        demo::withdraw_txn(&mut db, "alice", room, "bolt", 30).unwrap();
    }

    let snap = db.snapshot().unwrap();
    let report = if deferred_checkpoint {
        wal.checkpoint_deferred(&snap).unwrap()
    } else {
        wal.checkpoint(&snap).unwrap()
    };
    let base = report.lsn;
    assert_eq!(base as usize, truth.lock().len());

    for _ in 0..3 {
        demo::withdraw_txn(&mut db, "bob", room, "gear", 5).unwrap();
    }
    db.set_log_sink(None);
    let all = truth.lock().clone();
    (all, base)
}

/// Oracle: fresh database, replay the first `m` ground-truth ops.
fn oracle(all: &[LogOp], m: usize) -> Database {
    let mut db = fresh();
    replay(
        &mut db,
        &RedoLog {
            ops: all[..m].to_vec(),
        },
    )
    .expect("oracle replays");
    db
}

fn segment_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("segment-"))
        .collect()
}

#[test]
fn archive_mode_checkpoint_retires_then_drain_archives_and_unlinks() {
    let dir = tmp_dir("drain");
    let (_all, base) = run_session(&dir, archive_cfg(), false);
    assert!(base > 0);

    // The session's checkpoint retired the generation-0 segments but
    // (no archiver thread ran) deleted nothing: the raw files survive
    // the process "exit" for re-open to re-enqueue.
    let gen0: Vec<String> = segment_files(&dir)
        .into_iter()
        .filter(|n| n.starts_with("segment-0000000000-"))
        .collect();
    assert!(!gen0.is_empty(), "retired segments still on disk");
    assert!(list_archives(&std_io(), &dir).unwrap().is_empty());

    // Re-open re-enqueues the stale generation; a synchronous drain
    // archives every retired segment and only then unlinks it.
    let (wal, _) = DiskWal::open(&dir, archive_cfg(), std_io()).unwrap();
    let lag_before = wal.archive_stats().lag_segments;
    assert_eq!(lag_before as usize, gen0.len(), "queue holds the stale gen");
    let report = wal.archive_now().unwrap();
    assert_eq!(report.segments as usize, gen0.len());
    assert!(report.bytes > 0);

    let archives = list_archives(&std_io(), &dir).unwrap();
    assert_eq!(archives.len(), gen0.len(), "one archive per segment");
    for n in &gen0 {
        assert!(!dir.join(n).exists(), "{n} unlinked after archiving");
    }
    let stats = wal.archive_stats();
    assert_eq!(stats.segments_archived as usize, gen0.len());
    assert_eq!(stats.lag_segments, 0);
    assert!(stats.bytes_archived > 0);

    // The archive chain is contiguous from LSN 0 and every archive
    // validates (meta CRC over the decompressed raw segment).
    let mut next = 0u64;
    for (_, _, archive_base, name) in &archives {
        let seg = read_archive(&std_io(), &archive_dir(&dir).join(name)).unwrap();
        assert_eq!(*archive_base, next, "chain gap at {name}");
        assert_eq!(seg.meta.base_lsn, next);
        next += seg.meta.records;
    }
    assert_eq!(next, base, "archives cover exactly the checkpointed prefix");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn restore_reproduces_every_committed_prefix() {
    let dir = tmp_dir("restore");
    let (all, base) = run_session(&dir, archive_cfg(), false);
    let head = all.len() as u64;
    assert!(base > 0 && head > base, "checkpoint splits the session");

    let (wal, _) = DiskWal::open(&dir, archive_cfg(), std_io()).unwrap();
    wal.archive_now().unwrap();
    drop(wal);

    // Every prefix: below the base it replays the archive chain from
    // LSN 0; at or above it, the checkpoint snapshot plus the live
    // tail. Either way the state equals the ground-truth oracle.
    let io = std_io();
    for target in 0..=head {
        let rec = restore_to_lsn(&dir, &io, target)
            .unwrap_or_else(|e| panic!("restore to {target} failed: {e}"));
        assert_eq!(rec.base_lsn + rec.ops.len() as u64, target);
        let mut got = fresh();
        rec.restore_into(&mut got)
            .unwrap_or_else(|e| panic!("restore_into at {target}: {e}"));
        got.take_output();
        let mut want = oracle(&all, target as usize);
        want.take_output();
        assert_eq!(
            fingerprint(&got),
            fingerprint(&want),
            "restore to LSN {target} diverges from the oracle"
        );
    }

    // Beyond the head there is nothing to restore: typed refusal.
    assert!(matches!(
        restore_to_lsn(&dir, &io, head + 5),
        Err(ArchiveError::Truncated(_))
    ));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn partial_or_missing_archives_fail_restore_with_truncated() {
    let dir = tmp_dir("truncated");
    let (_all, base) = run_session(&dir, archive_cfg(), false);
    let (wal, _) = DiskWal::open(&dir, archive_cfg(), std_io()).unwrap();
    wal.archive_now().unwrap();
    drop(wal);

    let io = std_io();
    let archives = list_archives(&io, &dir).unwrap();
    assert!(!archives.is_empty());
    let first = archive_dir(&dir).join(&archives[0].3);

    // A partially-written archive (torn second frame): restore below
    // the live base must fail *typed*, not serve short history.
    let whole = std::fs::read(&first).unwrap();
    std::fs::write(&first, &whole[..whole.len() - 3]).unwrap();
    match restore_to_lsn(&dir, &io, base.saturating_sub(1)) {
        Err(ArchiveError::Truncated(_)) => {}
        Err(other) => panic!("partial archive must be Truncated, got {other}"),
        Ok(_) => panic!("partial archive must not restore"),
    }

    // A hole in the chain (first archive gone entirely): same verdict.
    std::fs::remove_file(&first).unwrap();
    match restore_to_lsn(&dir, &io, base.saturating_sub(1)) {
        Err(ArchiveError::Truncated(_)) => {}
        Err(other) => panic!("chain gap must be Truncated, got {other}"),
        Ok(_) => panic!("chain gap must not restore"),
    }

    // Restores that never touch the broken chain still work.
    assert!(restore_to_lsn(&dir, &io, base).is_ok());
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn background_archiver_drains_after_checkpoint() {
    let dir = tmp_dir("thread");
    let (wal, recovery) = DiskWal::open(&dir, archive_cfg(), std_io()).unwrap();
    assert!(recovery.is_empty());
    let archiver = wal.start_archiver().expect("archive mode spawns");

    let mut db = fresh();
    let sink_wal = wal.clone();
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        let _ = sink_wal.append(op);
    })));
    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    for _ in 0..4 {
        demo::withdraw_txn(&mut db, "alice", room, "bolt", 30).unwrap();
    }

    // checkpoint() = checkpoint_inner + finish_sweep: in archive mode
    // the sweep just nudges the archiver, which drains on its own.
    let snap = db.snapshot().unwrap();
    wal.checkpoint(&snap).unwrap();
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let stats = wal.archive_stats();
        if stats.lag_segments == 0 && stats.segments_archived > 0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "archiver did not drain: {stats:?}"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    archiver.stop();

    assert!(!list_archives(&std_io(), &dir).unwrap().is_empty());
    assert!(
        segment_files(&dir)
            .iter()
            .all(|n| !n.starts_with("segment-0000000000-")),
        "the stale generation was archived and unlinked"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn plain_mode_has_no_archiver_and_a_deferred_sweep() {
    let dir = tmp_dir("deferred");
    // checkpoint_deferred leaves the superseded files on disk...
    let (wal, recovery) = DiskWal::open(&dir, plain_cfg(), std_io()).unwrap();
    assert!(recovery.is_empty());
    assert!(wal.start_archiver().is_none(), "plain mode: no archiver");
    let mut db = fresh();
    let sink_wal = wal.clone();
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        let _ = sink_wal.append(op);
    })));
    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    for _ in 0..4 {
        demo::withdraw_txn(&mut db, "alice", room, "bolt", 30).unwrap();
    }
    let snap = db.snapshot().unwrap();
    let report = wal.checkpoint_deferred(&snap).unwrap();
    assert!(report.swept_segments > 0, "the session sealed segments");
    let stale = segment_files(&dir)
        .into_iter()
        .filter(|n| n.starts_with("segment-0000000000-"))
        .count() as u64;
    assert_eq!(
        stale, report.swept_segments,
        "deferred: superseded segments still on disk"
    );

    // ...until finish_sweep deletes exactly those files.
    let removed = wal.finish_sweep();
    assert_eq!(removed, report.swept_segments);
    assert_eq!(
        segment_files(&dir)
            .iter()
            .filter(|n| n.starts_with("segment-0000000000-"))
            .count(),
        0
    );
    // And nothing was archived — plain mode deletes.
    assert!(list_archives(&std_io(), &dir).unwrap().is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}
