//! WAL lifecycle integration tests: retirement of checkpoint-superseded
//! files, compressed archiving, and point-in-time restore.
//!
//! Covers the lifecycle contract end to end with real file I/O:
//!
//! * a checkpoint *retires* superseded files, and the drain compresses
//!   each segment into `<dir>/archive/` before unlinking it (archive
//!   mode) or just unlinks it (plain mode);
//! * `restore_to_lsn` rebuilds the database at **every** committed LSN
//!   — through the archive chain below the live base, through the
//!   checkpoint + live tail at or above it — identical to an oracle
//!   replay of the ground-truth op prefix;
//! * a truncated or missing archive fails restore with the typed
//!   [`ArchiveError::Truncated`], never wrong data;
//! * a checkpoint only queues; one drain leaves the old generation
//!   gone in both modes.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ode_core::Value;
use parking_lot::Mutex;

use ode_db::durability::{archive_dir, list_archives, read_archive, restore_to_lsn, ArchiveError};
use ode_db::{
    demo, replay, CheckpointReport, Database, DiskWal, DrainReport, FsyncPolicy, LogOp, SharedIo,
    StdIo, WalConfig,
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

fn open_empty(dir: &Path, cfg: WalConfig) -> DiskWal {
    let (wal, recovery) = DiskWal::open(dir, cfg, std_io()).unwrap();
    assert!(recovery.is_empty());
    wal
}

/// Run the scripted session against `wal`: several committed txns, a
/// checkpoint halfway, more committed txns. Returns the ground-truth op
/// list and the checkpoint's report.
fn run_session(wal: &DiskWal) -> (Vec<LogOp>, CheckpointReport) {
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

    let report = wal.checkpoint(&db.snapshot().unwrap()).unwrap();
    assert_eq!(report.lsn as usize, truth.lock().len());

    for _ in 0..3 {
        demo::withdraw_txn(&mut db, "bob", room, "gear", 5).unwrap();
    }
    db.set_log_sink(None);
    let all = truth.lock().clone();
    (all, report)
}

/// [`run_session`], then drain what the checkpoint retired.
fn run_drained_session(wal: &DiskWal) -> (Vec<LogOp>, CheckpointReport) {
    let session = run_session(wal);
    wal.drain_retired().expect("drain");
    session
}

/// Oracle: fresh database, replay the first `m` ground-truth ops.
fn oracle(all: &[LogOp], m: usize) -> Database {
    let mut db = fresh();
    replay(&mut db, &all[..m]).expect("oracle replays");
    db
}

fn segment_files(dir: &Path) -> Vec<String> {
    std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with("segment-"))
        .collect()
}

fn gen0_segments(dir: &Path) -> Vec<String> {
    segment_files(dir)
        .into_iter()
        .filter(|n| n.starts_with("segment-0000000000-"))
        .collect()
}

#[test]
fn archive_mode_checkpoint_retires_then_drain_archives_and_unlinks() {
    let dir = tmp_dir("drain");
    let wal = open_empty(&dir, archive_cfg());
    let (_all, report) = run_drained_session(&wal);
    let base = report.lsn;
    assert!(base > 0 && report.swept_segments > 0);

    // Every retired segment was archived, then unlinked.
    assert!(gen0_segments(&dir).is_empty(), "retired segments unlinked");
    let archives = list_archives(&std_io(), &dir).unwrap();
    assert_eq!(
        archives.len() as u64,
        report.swept_segments,
        "one archive per segment"
    );
    let stats = wal.archive_stats();
    assert_eq!(stats.segments_archived, report.swept_segments);
    assert_eq!(stats.lag_segments, 0);
    assert!(stats.bytes_archived > 0);
    drop(wal);

    // Re-open finds nothing left to retire.
    let (wal, _) = DiskWal::open(&dir, archive_cfg(), std_io()).unwrap();
    assert_eq!(wal.archive_stats().lag_segments, 0);
    assert_eq!(wal.drain_retired().unwrap(), DrainReport::default());

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
    let (all, report) = run_drained_session(&open_empty(&dir, archive_cfg()));
    let (head, base) = (all.len() as u64, report.lsn);
    assert!(base > 0 && head > base, "checkpoint splits the session");

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
    let base = run_drained_session(&open_empty(&dir, archive_cfg())).1.lsn;

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

/// One lifecycle, both modes: the checkpoint only queues the
/// superseded generation, and one drain removes it.
#[test]
fn a_drain_removes_the_superseded_generation_in_both_modes() {
    for (mode, cfg) in [("plain", plain_cfg()), ("archive", archive_cfg())] {
        let dir = tmp_dir(&format!("drain-{mode}"));
        let wal = open_empty(&dir, cfg);
        let (_all, report) = run_session(&wal);
        assert!(
            report.swept_segments > 0,
            "{mode}: the session sealed segments"
        );
        assert_eq!(
            gen0_segments(&dir).len() as u64,
            report.swept_segments,
            "{mode}: the checkpoint removed nothing"
        );
        assert_eq!(wal.archive_stats().lag_segments, report.swept_segments);
        wal.drain_retired().expect("drain");

        assert!(
            gen0_segments(&dir).is_empty(),
            "{mode}: the superseded generation is gone"
        );
        let stats = wal.archive_stats();
        assert_eq!(stats.lag_segments, 0, "{mode}: nothing left queued");
        let archived = if cfg.archive {
            report.swept_segments
        } else {
            0
        };
        assert_eq!(stats.segments_archived, archived, "{mode}");
        assert_eq!(
            !list_archives(&std_io(), &dir).unwrap().is_empty(),
            cfg.archive,
            "{mode}: archives exist iff archive mode"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A name can be queued twice: a checkpoint lists the directory while
/// an earlier drain is still removing the same files. A retired file
/// that is already gone is done, in both modes — it must not fail (and
/// so re-queue) every later drain.
#[test]
fn a_retired_file_already_gone_does_not_wedge_the_drain() {
    for (mode, cfg) in [("plain", plain_cfg()), ("archive", archive_cfg())] {
        let dir = tmp_dir(&format!("gone-{mode}"));
        run_drained_session(&open_empty(&dir, cfg));
        // A stale generation-0 segment for recovery to retire, which then
        // disappears before the drain reaches it.
        let stale = dir.join("segment-0000000000-00000.wal");
        std::fs::write(&stale, b"").unwrap();
        let (wal, _) = DiskWal::open(&dir, cfg, std_io()).unwrap();
        assert_eq!(wal.archive_stats().lag_segments, 1, "{mode}: retired");
        std::fs::remove_file(&stale).unwrap();
        wal.drain_retired()
            .unwrap_or_else(|e| panic!("{mode}: drain failed: {e}"));
        assert_eq!(wal.archive_stats().lag_segments, 0, "{mode}: not re-queued");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
