//! E9 (ablation) — the persistence substrate: snapshot, restore, and
//! logical-log replay.
//!
//! Not a paper claim per se, but the quantitative face of Section 2
//! ("persistent objects … continue to exist after the program creating
//! them has terminated") combined with Section 5's one-word monitoring
//! state: how big is a checkpoint, how fast is recovery, and how does
//! replay compare to live execution?

use std::time::Duration;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use ode_core::event::calendar;
use ode_db::demo::{self, stockroom_class};
use ode_db::{oplog, Database, LogOp};

/// A recorded session: n committed withdraw transactions.
fn record_session(txns: usize) -> (Database, Vec<LogOp>) {
    let (mut db, room) = demo::setup();
    let ops = demo::record_ops(&mut db);
    db.advance_clock_to(9 * calendar::HR);
    for k in 0..txns {
        let q = if k % 4 == 0 { 150 } else { 20 };
        demo::withdraw_txn(&mut db, "alice", room, "bolt", q).unwrap();
    }
    let log = ops.lock().clone();
    (db, log)
}

fn bench_persistence(c: &mut Criterion) {
    eprintln!("\n== E9 (ablation): snapshot / restore / replay ==");

    let mut group = c.benchmark_group("e9_persistence");
    group
        .sample_size(10)
        .warm_up_time(Duration::from_millis(200))
        .measurement_time(Duration::from_millis(800));

    for &txns in &[50usize, 200] {
        let (db, log) = record_session(txns);
        let snap = db.snapshot().unwrap();
        let snap_json = snap.to_json().unwrap();
        // The WAL's format: one JSON line per op.
        let log_bytes: usize = log
            .iter()
            .map(|op| op.to_json_line().unwrap().len() + 1)
            .sum();
        eprintln!(
            "{txns:>4} txns: snapshot {} bytes ({} objects, {} history records), \
             log {} bytes ({} ops)",
            snap_json.len(),
            snap.objects.len(),
            snap.objects.iter().map(|o| o.history.len()).sum::<usize>(),
            log_bytes,
            log.len(),
        );

        group.bench_with_input(BenchmarkId::new("snapshot", txns), &db, |b, db| {
            b.iter(|| std::hint::black_box(db.snapshot().unwrap()))
        });

        group.bench_with_input(BenchmarkId::new("restore", txns), &snap, |b, snap| {
            b.iter(|| {
                let mut db2 = Database::new();
                db2.define_class(stockroom_class()).unwrap();
                db2.restore(snap).unwrap();
                std::hint::black_box(db2.now())
            })
        });

        group.bench_with_input(BenchmarkId::new("replay_log", txns), &log, |b, log| {
            b.iter(|| {
                let (mut db2, _room) = demo::setup();
                oplog::replay(&mut db2, log).unwrap();
                std::hint::black_box(db2.stats().txns_committed)
            })
        });

        group.bench_with_input(
            BenchmarkId::new("live_execution", txns),
            &txns,
            |b, &txns| {
                b.iter(|| {
                    let (db, _log) = record_session(txns);
                    std::hint::black_box(db.stats().txns_committed)
                })
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_persistence);
criterion_main!(benches);
