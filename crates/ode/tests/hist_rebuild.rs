//! Crash-matrix companion for the event-history store: lose the
//! store's tail, rebuild from the (logical) WAL, and prove the result
//! is identical — row for row, seq for seq.
//!
//! The store is a derived index over the op log, so its crash story is
//! "re-derive": segments are dropped back to a trusted prefix on open
//! (`valid_lsn_excl`), and replaying the ops re-submits every batch;
//! already-sealed prefixes are deduplicated by LSN. Posting seqs are
//! regenerated by replay (they are a function of the op stream), which
//! is what makes retroactive firing seqs stable across restarts.
//!
//! A replica's store can also lose its *log* while it is running (fork
//! reset, snapshot jump): `rebase` re-runs the same pruning on the live
//! store and rewinds its cursors.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ode_core::Value;
use ode_db::{
    demo, Applier, Batch, Database, EventTap, HistConfig, HistQuery, HistStore, LogOp, LogSink,
    ObjectId, TapEvent, TxnId,
};
use parking_lot::Mutex;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-hist-rebuild-{tag}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

const ITEMS: [&str; 3] = ["bolt", "gear", "shim"];

/// A deterministic stockroom session: withdrawals (including a
/// mallory-triggered abort), composite deposit+withdraw transactions,
/// and clock advances (time events ride the op stream too).
fn script(db: &mut Database, room: ObjectId) {
    for i in 0..14u64 {
        let user = ["alice", "bob"][(i % 2) as usize];
        demo::withdraw_txn(db, user, room, ITEMS[(i % 3) as usize], 3 + (i as i64) * 7).unwrap();
        if i % 5 == 0 {
            let to = db.now() + 3_600_000;
            db.advance_clock_to(to);
        }
    }
    // T1 aborts mallory's withdrawals — aborted transactions must not
    // contribute rows, in the original run or the rebuild.
    let _ = demo::withdraw_txn(db, "mallory", room, "bolt", 1);
    demo::deposit_withdraw_txn(db, "alice", room, "gear", 20).unwrap();
}

/// The log sink + event tap pair, wired the way the server wires them:
/// the sink stamps the LSN of the last appended op, the tap pairs each
/// committed batch with it (both run under the engine lock, and the
/// commit record is the last append before tap delivery). Returns one
/// past the last LSN and the seq of every tapped posting, in order.
fn wire(
    db: &mut Database,
    store: &Arc<HistStore>,
    ops: &Arc<Mutex<Vec<LogOp>>>,
) -> (Arc<AtomicU64>, Arc<Mutex<Vec<u64>>>) {
    let next = Arc::new(AtomicU64::new(0));
    let tapped = Arc::new(Mutex::new(Vec::new()));
    let cur = Arc::new(AtomicU64::new(0));
    let sink: LogSink = {
        let next = Arc::clone(&next);
        let cur = Arc::clone(&cur);
        let ops = Arc::clone(ops);
        Arc::new(move |op: &LogOp| {
            let l = next.fetch_add(1, Ordering::SeqCst);
            cur.store(l, Ordering::SeqCst);
            ops.lock().push(op.clone());
        })
    };
    db.set_log_sink(Some(sink));
    let tap: EventTap = {
        let store = Arc::clone(store);
        let cur = Arc::clone(&cur);
        let tapped = Arc::clone(&tapped);
        Arc::new(move |txn: TxnId, now: u64, events: &[TapEvent]| {
            tapped.lock().extend(events.iter().map(|e| e.seq));
            store.submit(Batch {
                lsn: cur.load(Ordering::SeqCst),
                txn: txn.0,
                time: now,
                events: events.to_vec(),
            });
        })
    };
    db.set_event_tap(Some(tap));
    (next, tapped)
}

fn all_rows(store: &HistStore) -> Vec<ode_db::EventRow> {
    store.query(&HistQuery::default()).unwrap().rows
}

/// Replay the recorded ops into a fresh store, stamping per-op LSNs the
/// way server recovery does, and return the synced store.
fn rebuild(dir: &Path, ops: &[LogOp], valid_lsn_excl: u64) -> HistStore {
    let store =
        Arc::new(HistStore::open(dir, HistConfig { segment_rows: 4 }, valid_lsn_excl).unwrap());
    let (mut db, _room) = demo::setup();
    for (i, name) in db.class_names().iter().enumerate() {
        store.observe_class(i as u32, name);
    }
    let cur = Arc::new(AtomicU64::new(0));
    let tap: EventTap = {
        let store = Arc::clone(&store);
        let cur = Arc::clone(&cur);
        Arc::new(move |txn: TxnId, now: u64, events: &[TapEvent]| {
            store.submit(Batch {
                lsn: cur.load(Ordering::SeqCst),
                txn: txn.0,
                time: now,
                events: events.to_vec(),
            });
        })
    };
    db.set_event_tap(Some(tap));
    let head = ops.len() as u64;
    if head > 0 {
        store.advance_durable_through(head - 1);
    }
    let mut a = Applier::resume(&db, 0);
    for (i, op) in ops.iter().enumerate() {
        cur.store(i as u64, Ordering::SeqCst);
        a.apply(&mut db, i as u64, op).unwrap();
    }
    db.set_event_tap(None);
    store.sync();
    assert!(!store.failed());
    Arc::try_unwrap(store)
        .ok()
        .expect("sole owner after tap drop")
}

#[test]
fn store_rebuilds_from_wal_after_tail_loss() {
    let dir = tmp_dir("tail");

    // Original session.
    let ops: Arc<Mutex<Vec<LogOp>>> = Arc::new(Mutex::new(Vec::new()));
    let truth: Vec<ode_db::EventRow>;
    let head: u64;
    {
        let (mut db, room) = demo::setup();
        let store = Arc::new(HistStore::open(&dir, HistConfig { segment_rows: 4 }, 0).unwrap());
        for (i, name) in db.class_names().iter().enumerate() {
            store.observe_class(i as u32, name);
        }
        let (next, tapped) = wire(&mut db, &store, &ops);
        script(&mut db, room);
        db.set_event_tap(None);
        db.set_log_sink(None);

        head = next.load(Ordering::SeqCst);
        assert!(head > 0);
        store.advance_durable_through(head - 1);
        store.sync();
        assert!(!store.failed());
        truth = all_rows(&store);
        // The live store holds every tapped posting — `after tcommit`
        // rounds included, though they share their commit's LSN — so
        // the rebuilds below are compared against the whole stream.
        let seqs: Vec<u64> = truth.iter().map(|r| r.seq).collect();
        assert_eq!(seqs, *tapped.lock(), "live store == tapped stream");
        let st = store.stats();
        assert!(st.segments >= 2, "script seals several tiny segments");
        // Dropping the store abandons whatever the indexer had not yet
        // sealed — the active tail is genuinely lost here.
    }

    // Aggravate the crash: tear off the newest sealed segment too.
    let mut segs: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|x| x == "hist"))
        .collect();
    segs.sort();
    let torn = segs.pop().expect("at least one sealed segment");
    std::fs::remove_file(&torn).unwrap();

    // The surviving prefix alone must be missing rows (the test would
    // otherwise prove nothing).
    {
        let survivor = HistStore::open(&dir, HistConfig { segment_rows: 4 }, head).unwrap();
        let partial = all_rows(&survivor);
        assert!(
            partial.len() < truth.len(),
            "tail loss dropped rows: {} vs {}",
            partial.len(),
            truth.len()
        );
    }

    // Rebuild by replaying the op log; sealed prefix is kept, the rest
    // is re-derived. Rows — including posting seqs — are identical.
    let ops = ops.lock().clone();
    let rebuilt = rebuild(&dir, &ops, head);
    assert_eq!(all_rows(&rebuilt), truth);
    drop(rebuilt);

    // Demotion-style full rebuild: distrust every segment
    // (valid_lsn_excl = 0 drops them all) and re-derive from scratch.
    let rebuilt = rebuild(&dir, &ops, 0);
    assert_eq!(all_rows(&rebuilt), truth);
    let st = rebuilt.stats();
    assert_eq!(st.rows, truth.len() as u64);
    drop(rebuilt);

    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn retro_firing_seqs_stable_across_rebuild() {
    let dir = tmp_dir("seqs");
    let ops: Arc<Mutex<Vec<LogOp>>> = Arc::new(Mutex::new(Vec::new()));
    let room_events: Vec<(u64, ode_core::BasicEvent, Vec<Value>)>;
    let head: u64;
    let room_id;
    {
        let (mut db, room) = demo::setup();
        room_id = room;
        let store = Arc::new(HistStore::open(&dir, HistConfig { segment_rows: 4 }, 0).unwrap());
        for (i, name) in db.class_names().iter().enumerate() {
            store.observe_class(i as u32, name);
        }
        let (next, _) = wire(&mut db, &store, &ops);
        script(&mut db, room);
        db.set_event_tap(None);
        db.set_log_sink(None);
        head = next.load(Ordering::SeqCst);
        store.advance_durable_through(head - 1);
        store.sync();
        room_events = store.object_events(room.0).unwrap();
        assert!(!room_events.is_empty());
    }

    // Wipe the store entirely and rebuild from the ops: the replayed
    // sub-history (the input to retroactive activation) is identical,
    // so retro firing seqs assigned after a restart are too.
    let _ = std::fs::remove_dir_all(&dir);
    let ops = ops.lock().clone();
    let rebuilt = rebuild(&dir, &ops, 0);
    let again = rebuilt.object_events(room_id.0).unwrap();
    assert_eq!(again, room_events);
    drop(rebuilt);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A live store whose log is replaced underneath it: everything at or
/// past the new base is dropped, and batches submitted from the new
/// base are indexed rather than skipped as already seen.
#[test]
fn rebase_drops_the_discarded_timeline_and_indexes_from_the_new_base() {
    let dir = tmp_dir("rebase");
    let store = Arc::new(HistStore::open(&dir, HistConfig { segment_rows: 4 }, 0).unwrap());
    // One timeline: a fresh engine running the script with LSNs from 0.
    let run = |store: &Arc<HistStore>| -> (Database, ObjectId, Arc<AtomicU64>) {
        let (mut db, room) = demo::setup();
        for (i, name) in db.class_names().iter().enumerate() {
            store.observe_class(i as u32, name);
        }
        let (next, _) = wire(&mut db, store, &Arc::new(Mutex::new(Vec::new())));
        script(&mut db, room);
        store.advance_durable_through(next.load(Ordering::SeqCst) - 1);
        store.sync();
        (db, room, next)
    };
    let (old_db, _, _) = run(&store);
    drop(old_db);
    let truth = all_rows(&store);
    assert!(store.stats().segments >= 2 && !truth.is_empty());

    // Fork reset: the log restarts at 0. Nothing of the old timeline
    // survives, in memory or on disk.
    store.rebase(0);
    assert!(all_rows(&store).is_empty());
    let st = store.stats();
    assert_eq!((st.rows, st.segments, st.indexed_lsn), (0, 0, 0));
    assert!(std::fs::read_dir(&dir).unwrap().next().is_none());

    // The re-shipped timeline reuses the same LSNs; the rebase lowered
    // the rebuild floor to 0, so every one of these batches is indexed.
    let (mut db, room, next) = run(&store);
    assert_eq!(all_rows(&store), truth);
    let head = next.load(Ordering::SeqCst);

    // Snapshot jump: the base lies past the cursor. What is held stays
    // (a suffix of history is missing before the base) and indexing
    // resumes at the base.
    let jump = head + 10;
    store.rebase(jump);
    assert_eq!(all_rows(&store), truth);
    next.store(jump, Ordering::SeqCst);
    demo::withdraw_txn(&mut db, "alice", room, "bolt", 1).unwrap();
    store.advance_durable_through(next.load(Ordering::SeqCst) - 1);
    store.sync();
    let rows = all_rows(&store);
    assert!(rows.len() > truth.len());
    assert_eq!(rows[..truth.len()], truth[..]);
    assert!(rows[truth.len()..].iter().all(|r| r.lsn >= jump));

    // A base inside the held history cuts it there.
    let mid = head / 2;
    store.rebase(mid);
    let rows = all_rows(&store);
    assert!(!rows.is_empty() && rows.len() < truth.len());
    assert!(rows.iter().all(|r| r.lsn < mid));
    assert_eq!(rows[..], truth[..rows.len()]);
    assert!(store.stats().indexed_lsn <= mid);

    db.set_event_tap(None);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
