//! Frozen on-disk formats.
//!
//! History segments, WAL segments, checkpoints and `.alz` archives carry
//! no version byte, so nothing but these tests notices when a decoder or
//! the frame CRC drifts from what earlier builds wrote. The files under
//! `tests/fixtures/` were written once, by an earlier build, from
//! [`session`]: a WAL directory in archive mode (one generation-0
//! segment archived by a mid-session checkpoint, then a live tail) and
//! a history store sealed into one segment at the end. They are never
//! regenerated; a test here failing means the on-disk format changed.
//!
//! Each fixture must decode, query, recover and restore to exactly what
//! the same session produces in memory today, and re-encoding what was
//! decoded must give the files back byte for byte.
//!
//! The checkpoint was written while objects still recorded their
//! postings, so each object in it carries a `history` array. Readers
//! ignore that key: the checkpoint must parse and re-serialize to the
//! snapshot today's session checkpoints.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use ode_core::{BasicEvent, Value};
use ode_db::durability::frame;
use ode_db::durability::{decompress, read_archive, restore_to_lsn};
use ode_db::histstore::row::{decode_basic, KindDict};
use ode_db::histstore::segment::{decode_segment, encode_segment};
use ode_db::{
    demo, replay, CmpOp, Database, DiskWal, FsyncPolicy, HistConfig, HistQuery, HistStore, LogOp,
    SharedIo, Snapshot, StdIo, TapEvent, TxnId, WalConfig,
};
use parking_lot::Mutex;

const ITEMS: [&str; 3] = ["bolt", "gear", "shim"];

/// The scripted session the fixtures record: withdrawals by two users,
/// a composite deposit+withdraw, a mallory withdrawal that T1 aborts,
/// clock advances past 17:00 (T3's time event), and a checkpoint
/// between the two halves.
fn session(db: &mut Database, checkpoint: &mut dyn FnMut(&mut Database)) {
    let t = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(t, "stockRoom", &[]).unwrap();
    db.commit(t).unwrap();
    for i in 0..6u64 {
        let user = ["alice", "bob"][(i % 2) as usize];
        demo::withdraw_txn(db, user, room, ITEMS[(i % 3) as usize], 5 + 7 * i as i64).unwrap();
        if i == 2 {
            let to = db.now() + 20 * 3_600_000;
            db.advance_clock_to(to);
        }
    }
    demo::deposit_withdraw_txn(db, "alice", room, "gear", 20).unwrap();
    let _ = demo::withdraw_txn(db, "mallory", room, "bolt", 1);
    checkpoint(db);
    for i in 0..3 {
        demo::withdraw_txn(db, "bob", room, "shim", 4 + i).unwrap();
    }
    let to = db.now() + 10 * 3_600_000;
    db.advance_clock_to(to);
    demo::withdraw_txn(db, "alice", room, "bolt", 2).unwrap();
}

/// What the session produces in memory today.
struct Truth {
    /// Every logged op, in LSN order.
    ops: Vec<LogOp>,
    /// Every committed posting, with its commit's txn and clock.
    tapped: Vec<(u64, u64, TapEvent)>,
    /// The snapshot JSON the checkpoint was taken from.
    checkpoint_json: String,
    /// The snapshot JSON at the end of the session.
    end_json: String,
}

fn fresh() -> Database {
    let mut db = Database::new();
    db.define_class(demo::stockroom_class()).unwrap();
    db
}

fn run_session() -> Truth {
    let mut db = fresh();
    let ops = Arc::new(Mutex::new(Vec::new()));
    let tapped = Arc::new(Mutex::new(Vec::new()));
    {
        let ops = Arc::clone(&ops);
        db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
            ops.lock().push(op.clone())
        })));
    }
    {
        let tapped = Arc::clone(&tapped);
        db.set_event_tap(Some(Arc::new(
            move |txn: TxnId, now: u64, events: &[TapEvent]| {
                let mut t = tapped.lock();
                t.extend(events.iter().map(|e| (txn.0, now, e.clone())));
            },
        )));
    }
    let mut checkpoint_json = String::new();
    session(&mut db, &mut |db| {
        checkpoint_json = db.snapshot().unwrap().to_json().unwrap();
    });
    db.set_log_sink(None);
    db.set_event_tap(None);
    let ops = ops.lock().clone();
    let tapped = tapped.lock().clone();
    Truth {
        ops,
        tapped,
        checkpoint_json,
        end_json: db.snapshot().unwrap().to_json().unwrap(),
    }
}

fn fixture(rel: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(rel)
}

/// Copy a fixture directory somewhere writable: opening a store or a
/// WAL may tidy its directory, and the fixtures must stay as written.
fn scratch_copy(rel: &str, tag: &str) -> PathBuf {
    fn copy_dir(from: &Path, to: &Path) {
        std::fs::create_dir_all(to).unwrap();
        for entry in std::fs::read_dir(from).unwrap() {
            let entry = entry.unwrap();
            let dest = to.join(entry.file_name());
            if entry.file_type().unwrap().is_dir() {
                copy_dir(&entry.path(), &dest);
            } else {
                std::fs::copy(entry.path(), dest).unwrap();
            }
        }
    }
    let dir =
        std::env::temp_dir().join(format!("ode-format-fixtures-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    copy_dir(&fixture(rel), &dir);
    dir
}

/// The frames of a framed file, which must re-encode to its bytes.
fn frames_reencoding(bytes: &[u8]) -> Vec<&[u8]> {
    let (payloads, tail) = frame::decode_all(bytes).unwrap();
    assert_eq!(tail, frame::Tail::Clean);
    let again: Vec<u8> = payloads.iter().flat_map(|p| frame::encode(p)).collect();
    assert_eq!(again, bytes, "frames re-encode byte for byte");
    payloads
}

fn op_lines(ops: &[LogOp]) -> Vec<String> {
    ops.iter().map(|op| op.to_json_line().unwrap()).collect()
}

fn utf8_lines(payloads: &[&[u8]]) -> Vec<String> {
    payloads
        .iter()
        .map(|p| String::from_utf8(p.to_vec()).unwrap())
        .collect()
}

/// Everything observable about a database, rendered deterministically
/// (a prefix may end inside a transaction, where a snapshot refuses).
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

/// The database after replaying `ops` from scratch.
fn replayed(ops: &[LogOp]) -> String {
    let mut db = fresh();
    replay(&mut db, ops).unwrap();
    fingerprint(&db)
}

/// Session ops: 28 before the checkpoint, 41 in all.
const BASE_LSN: u64 = 28;
const HEAD_LSN: u64 = 41;
/// Committed postings the history segment holds.
const HIST_ROWS: u64 = 196;

#[test]
fn history_segment_decodes_and_queries() {
    let truth = run_session();
    let bytes = std::fs::read(fixture("hist/seg-000000.hist")).unwrap();
    let (meta, rows) = decode_segment(&bytes).unwrap();
    assert_eq!(meta.rows, HIST_ROWS);
    assert_eq!(meta.covered_lsn, HEAD_LSN);
    assert_eq!(meta.classes, vec!["stockRoom".to_string()]);
    assert_eq!(
        encode_segment(&rows, &meta),
        bytes,
        "segment bytes unchanged"
    );

    // Row for row, the committed postings of the session.
    let dict = KindDict::from_methods(meta.methods.clone());
    assert_eq!(rows.len(), truth.tapped.len());
    for (row, (txn, now, ev)) in rows.iter().zip(&truth.tapped) {
        assert_eq!(
            (row.seq, row.txn, row.time, row.object, row.class),
            (ev.seq, *txn, *now, ev.object.0, ev.class.0)
        );
        assert_eq!(row.args, ev.args);
        let basic = decode_basic(row.qual, row.kind, row.extra.as_deref(), &dict);
        assert_eq!(basic.as_ref(), Some(&ev.basic));
    }
    let times = rows.iter().filter(|r| r.extra.is_some()).count();
    assert!(times > 0, "the segment carries time-event rows");

    // Opened as a store, the segment answers queries: a pruned kind, an
    // argument predicate parsed from the JSON args column, and a limit
    // that cuts inside the segment.
    let dir = scratch_copy("hist", "hist");
    let store = HistStore::open(&dir, HistConfig::default(), u64::MAX).unwrap();
    assert_eq!((store.stats().segments, store.stats().rows), (1, HIST_ROWS));
    let count = |q: HistQuery| store.query(&q).unwrap();
    let time_rows = count(HistQuery {
        kind: Some("time".into()),
        ..HistQuery::default()
    });
    assert_eq!(time_rows.rows.len(), times);
    assert!(time_rows
        .rows
        .iter()
        .all(|r| matches!(store.render_event(r).as_str(), s if s.starts_with("at time"))));
    let big = count(HistQuery {
        kind: Some("withdraw".into()),
        args: vec![ode_db::ArgPred {
            index: 1,
            op: CmpOp::Gt,
            value: Value::Float(20.0),
        }],
        ..HistQuery::default()
    });
    let want = truth
        .tapped
        .iter()
        .filter(|(_, _, e)| {
            matches!(&e.basic, BasicEvent::Db(_, k) if k.to_string() == "withdraw")
                && e.args
                    .get(1)
                    .and_then(Value::as_float)
                    .is_some_and(|q| q > 20.0)
        })
        .count();
    assert_eq!(big.rows.len(), want);
    assert!(want > 0);
    let cut = count(HistQuery {
        limit: Some(5),
        ..HistQuery::default()
    });
    assert!(cut.truncated);
    assert_eq!(cut.rows, rows[..5]);
    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn archive_decodes_to_the_checkpointed_prefix() {
    let truth = run_session();
    let path = fixture("wal/archive/archive-0000000000-00000-0000000000000000.alz");
    let bytes = std::fs::read(&path).unwrap();
    let payloads = frames_reencoding(&bytes);
    assert_eq!(payloads.len(), 2);

    let seg = read_archive(&SharedIo::new(StdIo::new()), &path).unwrap();
    assert_eq!(
        (seg.meta.generation, seg.meta.seg_idx, seg.meta.base_lsn),
        (0, 0, 0)
    );
    assert_eq!(seg.meta.records, BASE_LSN);
    // The archived raw segment is itself a framed WAL segment whose
    // CRC the metadata recorded.
    let raw = decompress(payloads[1]).unwrap();
    assert_eq!(raw.len() as u64, seg.meta.raw_len);
    assert_eq!(frame::crc32(&raw), seg.meta.raw_crc);
    let records = frames_reencoding(&raw);
    assert_eq!(
        utf8_lines(&records),
        op_lines(&truth.ops[..BASE_LSN as usize])
    );
}

#[test]
fn wal_directory_recovers_and_restores() {
    let truth = run_session();
    assert_eq!(truth.ops.len() as u64, HEAD_LSN);

    // Byte level: the checkpoint is one frame around the snapshot JSON,
    // the live segment one frame per op of the tail. The frozen JSON
    // still carries the ignored `history` arrays.
    let ckpt = std::fs::read(fixture("wal/checkpoint-0000000001-0000000000000028.snap")).unwrap();
    let body = utf8_lines(&frames_reencoding(&ckpt));
    assert_eq!(body.len(), 1);
    assert!(body[0].contains("\"history\":[{"));
    let snap = Snapshot::from_json(&body[0]).unwrap();
    assert_eq!(snap.to_json().unwrap(), truth.checkpoint_json);
    let tail = std::fs::read(fixture("wal/segment-0000000001-00000.wal")).unwrap();
    assert_eq!(
        utf8_lines(&frames_reencoding(&tail)),
        op_lines(&truth.ops[BASE_LSN as usize..])
    );

    // Recovery: checkpoint + tail is the whole session.
    let dir = scratch_copy("wal", "wal");
    let io = SharedIo::new(StdIo::new());
    let cfg = WalConfig {
        segment_bytes: 1 << 20,
        fsync: FsyncPolicy::Always,
        archive: true,
    };
    let (wal, rec) = DiskWal::open(&dir, cfg, io.clone()).unwrap();
    assert_eq!(rec.base_lsn, BASE_LSN);
    assert_eq!(rec.ops.len() as u64, HEAD_LSN - BASE_LSN);
    assert!(!rec.truncated_tail);
    let mut db = fresh();
    rec.restore_into(&mut db).unwrap();
    assert_eq!(db.snapshot().unwrap().to_json().unwrap(), truth.end_json);
    assert_eq!(fingerprint(&db), replayed(&truth.ops));
    drop(wal);

    // Point-in-time restore at every LSN: the archive below the base,
    // the checkpoint and tail from it on.
    for target in 0..=HEAD_LSN {
        let rec = restore_to_lsn(&dir, &io, target).unwrap();
        let mut db = fresh();
        rec.restore_into(&mut db).unwrap();
        assert_eq!(
            fingerprint(&db),
            replayed(&truth.ops[..target as usize]),
            "restore to LSN {target}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
