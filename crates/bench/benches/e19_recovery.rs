//! E19 — the WAL lifecycle: segment-parallel recovery speedup,
//! checkpoint-sweep stall with and without background archiving, and
//! the archive compressor's ratio on real log segments.
//!
//! Three measurements over one multi-segment log build:
//!
//! 1. **Parallel recovery** — `DiskWal::open_with_threads` with 1
//!    worker (the pre-parallel behavior) vs the default pool, same
//!    directory, best of three cold passes each. The decoded op lists
//!    must agree record for record.
//! 2. **Checkpoint stall** — wall-clock of `checkpoint()` over a log
//!    with many sealed segments, plain mode vs archive mode. In both a
//!    retire thread is attached, so the checkpoint only queues the
//!    superseded files; the drain (unlinks, plus compression in archive
//!    mode) finishes by the retire thread's `stop()`, timed separately.
//!    Archiving must not add measurable stall to the checkpoint path.
//! 3. **Archive ratio** — raw retired bytes vs compressed archive
//!    bytes from that drain.
//!
//! Results are printed as a table and written to
//! `BENCH_e19_recovery.json` at the repository root. The recovery runs
//! double as a smoke test: serial and parallel recoveries must decode
//! identical op streams.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ode_core::Value;
use ode_db::{demo, Database, DiskWal, FsyncPolicy, LogOp, SharedIo, StdIo, WalConfig};

const TXNS: usize = 12_000;

/// The stall phase replays fewer txns (its checkpoint serializes the
/// whole database — object histories included — into one frame) over
/// smaller segments, so the sweep still has 8+ files to retire.
const STALL_TXNS: usize = 1_500;

/// Decode-pool width for the parallel leg. Requested explicitly (not
/// via `default_recovery_threads`, which is capped by the visible
/// cores) so the bench exercises the fan-out path everywhere; the
/// wall-clock speedup it can show is bounded by `cpus` below.
const PAR_THREADS: usize = 8;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ode-e19-recovery-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn std_io() -> SharedIo {
    SharedIo::new(StdIo::new())
}

fn cfg(archive: bool, segment_bytes: u64) -> WalConfig {
    WalConfig {
        segment_bytes,
        fsync: FsyncPolicy::Never,
        archive,
    }
}

/// 256 KiB segments: the recovery workload seals well over 8 of them,
/// so the decode pool has real fan-out to chew on.
fn recovery_cfg() -> WalConfig {
    cfg(false, 256 * 1024)
}

/// Build a log in `dir`: `txns` committed withdrawals (one in eight
/// fires T6, so records carry trigger traffic). Returns the live
/// database for later snapshotting.
fn build_log(dir: &Path, config: WalConfig, txns: usize) -> (DiskWal, Database) {
    let (wal, recovery) = DiskWal::open(dir, config, std_io()).expect("open");
    assert!(recovery.is_empty());
    let shared = Arc::new(Mutex::new(wal.clone()));

    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    let sink_wal = Arc::clone(&shared);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        let _ = sink_wal.lock().unwrap().append(op);
    })));
    let t = db.begin_as(Value::Str("admin".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    for k in 0..txns {
        let q = if k % 8 == 0 { 150 } else { 5 };
        demo::withdraw_txn(&mut db, "alice", room, "bolt", q).unwrap();
    }
    wal.sync().expect("final sync");
    (wal, db)
}

fn segment_count(dir: &Path) -> usize {
    std::fs::read_dir(dir)
        .expect("dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("segment-")
        })
        .count()
}

/// Cold recovery with an explicit pool width, best of `reps`. Returns
/// (seconds, recovered op count, threads the report says it used).
fn time_recovery(dir: &Path, threads: usize, reps: usize) -> (f64, usize, usize) {
    let mut best = f64::MAX;
    let mut ops = 0;
    let mut used = 0;
    for _ in 0..reps {
        let t0 = Instant::now();
        let (_wal, recovery) =
            DiskWal::open_with_threads(dir, recovery_cfg(), std_io(), threads).expect("recover");
        best = best.min(t0.elapsed().as_secs_f64());
        ops = recovery.ops.len();
        used = recovery.report.threads;
    }
    (best, ops, used)
}

fn main() {
    eprintln!("\n== E19: WAL lifecycle (parallel recovery, archive stall, restore) ==\n");

    // ---- 1. Parallel recovery ------------------------------------------
    let dir = tmp_dir("recovery");
    let (wal, _db) = build_log(&dir, recovery_cfg(), TXNS);
    drop(wal);
    let segments = segment_count(&dir);
    assert!(
        segments >= 8,
        "need 8+ segments for the headline, got {segments}"
    );

    let cpus = std::thread::available_parallelism().map_or(1, |n| n.get());
    let (serial_s, serial_ops, _) = time_recovery(&dir, 1, 3);
    let (par_s, par_ops, used) = time_recovery(&dir, PAR_THREADS, 3);
    assert_eq!(serial_ops, par_ops, "serial and parallel recovery agree");
    let speedup = serial_s / par_s;
    eprintln!(
        "recovery: {segments} segments, {serial_ops} records, {cpus} cpu(s); \
         serial {:.1}ms, {used} threads {:.1}ms ({speedup:.2}x)",
        serial_s * 1e3,
        par_s * 1e3,
    );
    let _ = std::fs::remove_dir_all(&dir);

    // ---- 2. Checkpoint stall: plain vs archive -------------------------
    // Same workload in each mode; the stall is the wall-clock the
    // engine-visible checkpoint() call takes over a log with many
    // sealed segments to sweep.
    let plain_dir = tmp_dir("stall-plain");
    let (plain_wal, plain_db) = build_log(&plain_dir, cfg(false, 24 * 1024), STALL_TXNS);
    let snap = plain_db.snapshot().expect("snapshot");
    let retirer = plain_wal.start_retirer();
    let t0 = Instant::now();
    let plain_report = plain_wal.checkpoint(&snap).expect("plain checkpoint");
    let plain_stall_s = t0.elapsed().as_secs_f64();
    retirer.stop();
    assert!(plain_report.swept_segments >= 8);
    assert_eq!(plain_wal.archive_stats().lag_segments, 0);
    drop(plain_wal);
    let _ = std::fs::remove_dir_all(&plain_dir);

    let arch_dir = tmp_dir("stall-archive");
    let (arch_wal, arch_db) = build_log(&arch_dir, cfg(true, 24 * 1024), STALL_TXNS);
    let raw_bytes: u64 = std::fs::read_dir(&arch_dir)
        .expect("dir")
        .filter(|e| {
            e.as_ref()
                .unwrap()
                .file_name()
                .to_string_lossy()
                .starts_with("segment-")
        })
        .map(|e| e.unwrap().metadata().unwrap().len())
        .sum();
    let snap = arch_db.snapshot().expect("snapshot");
    let retirer = arch_wal.start_retirer();
    let t0 = Instant::now();
    let arch_report = arch_wal.checkpoint(&snap).expect("archive checkpoint");
    let arch_stall_s = t0.elapsed().as_secs_f64();
    assert_eq!(arch_report.swept_segments, plain_report.swept_segments);

    // The compression happens on the retire thread, off the checkpoint
    // path; its final drain ends by the time `stop` returns.
    retirer.stop();
    let drain_s = t0.elapsed().as_secs_f64() - arch_stall_s;
    let stats = arch_wal.archive_stats();
    assert_eq!(stats.segments_archived, arch_report.swept_segments);
    assert_eq!(stats.lag_segments, 0);
    let ratio = raw_bytes as f64 / stats.bytes_archived.max(1) as f64;
    eprintln!(
        "checkpoint stall: plain {:.2}ms, archive {:.2}ms \
         (drain {:.1}ms off-path, {} -> {} bytes, {ratio:.1}x)",
        plain_stall_s * 1e3,
        arch_stall_s * 1e3,
        drain_s * 1e3,
        raw_bytes,
        stats.bytes_archived,
    );
    drop(arch_wal);
    let _ = std::fs::remove_dir_all(&arch_dir);

    // ---- emit ----------------------------------------------------------
    let json = format!(
        "{{\n  \"experiment\": \"e19_recovery\",\n  \"txns\": {TXNS},\n  \"cpus\": {cpus},\n  \
         \"segments\": {segments},\n  \"records\": {serial_ops},\n  \
         \"recovery_threads\": {used},\n  \"serial_recovery_ms\": {:.2},\n  \
         \"parallel_recovery_ms\": {:.2},\n  \"parallel_speedup\": {speedup:.2},\n  \
         \"checkpoint_stall_plain_ms\": {:.3},\n  \
         \"checkpoint_stall_archive_ms\": {:.3},\n  \"archive_drain_ms\": {:.2},\n  \
         \"swept_segments\": {},\n  \"raw_segment_bytes\": {raw_bytes},\n  \
         \"archive_bytes\": {},\n  \"compression_ratio\": {ratio:.2}\n}}\n",
        serial_s * 1e3,
        par_s * 1e3,
        plain_stall_s * 1e3,
        arch_stall_s * 1e3,
        drain_s * 1e3,
        arch_report.swept_segments,
        stats.bytes_archived,
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e19_recovery.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("\nwrote {path}");
}
