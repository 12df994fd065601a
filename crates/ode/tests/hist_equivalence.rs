//! Event-history store equivalence properties.
//!
//! 1. **Columnar query == naive scan**: for random stockroom scripts,
//!    every committed posting the engine's event tap delivers is
//!    recorded twice — once into a [`HistStore`] (tiny segments, so
//!    zone pruning actually runs) and once into a plain in-memory
//!    vector. Random [`HistQuery`]s over the store must return exactly
//!    the rows a naive filter over the vector selects, in the same
//!    order, with the same truncation verdict — also under limits
//!    chosen to cut inside a sealed segment, at the sealed/active seam
//!    and inside the active set.
//!
//! 2. **Retro == live-since-inception**: activating a trigger with a
//!    replayed history fires on exactly the committed occurrences a
//!    trigger activated before the first event would have fired on,
//!    and installs the same automaton word.
//!
//! 3. **Router-skipped classes are captured**: a class with no
//!    triggers at all (the strongest `needs_history == false` case —
//!    detection never records postings for it) still has its full
//!    committed event stream indexed.
//!
//! Batches carry LSNs the way the server assigns them: the LSN of the
//! last logged op, so a commit's `after tcommit` round shares its
//! commit record's LSN.

use std::collections::HashSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use ode_core::{BasicEvent, EventKind, Qualifier, Value};
use ode_db::histstore::segment::decode_segment;
use ode_db::{
    demo, Action, Batch, ClassDef, CmpOp, Database, EventTap, HistConfig, HistQuery, HistStore,
    LogOp, MethodKind, ObjectId, TxnId,
};
use parking_lot::Mutex;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

static DIR_SEQ: AtomicU64 = AtomicU64::new(0);

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ode-hist-equiv-{tag}-{}-{}",
        std::process::id(),
        DIR_SEQ.fetch_add(1, Ordering::SeqCst)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The naive mirror of one tapped posting.
#[derive(Clone, Debug)]
struct NaiveRow {
    seq: u64,
    time: u64,
    txn: u64,
    object: u64,
    class: String,
    basic: BasicEvent,
    args: Vec<Value>,
}

/// Number every logged op as the server's WAL does. Returns one past
/// the last LSN (the head) and the last LSN itself, which is what a tap
/// delivery pairs its batch with: the commit record, for a committed
/// transaction and for the `after tcommit` round it spawns.
fn stamp_lsns(db: &mut Database) -> (Arc<AtomicU64>, Arc<AtomicU64>) {
    let (next, last) = (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let (n, l) = (Arc::clone(&next), Arc::clone(&last));
    db.set_log_sink(Some(Arc::new(move |_: &LogOp| {
        l.store(n.fetch_add(1, Ordering::SeqCst), Ordering::SeqCst);
    })));
    (next, last)
}

/// Install a tap that feeds both the store (one batch per delivery, at
/// the `last` LSN of [`stamp_lsns`]) and the naive vector.
fn dual_tap(
    store: Arc<HistStore>,
    last: Arc<AtomicU64>,
    naive: Arc<Mutex<Vec<NaiveRow>>>,
    classes: Vec<String>,
) -> EventTap {
    Arc::new(move |txn: TxnId, now: u64, events: &[ode_db::TapEvent]| {
        store.submit(Batch {
            lsn: last.load(Ordering::SeqCst),
            txn: txn.0,
            time: now,
            events: events.to_vec(),
        });
        let mut n = naive.lock();
        for e in events {
            n.push(NaiveRow {
                seq: e.seq,
                time: now,
                txn: txn.0,
                object: e.object.0,
                class: classes[e.class.0 as usize].clone(),
                basic: e.basic.clone(),
                args: e.args.clone(),
            });
        }
    })
}

/// The kind name a query would use for this event (mirrors the store's
/// fixed-kind table and method interning by *name*, independently of
/// the store's code assignment).
fn kind_name(basic: &BasicEvent) -> &str {
    match basic {
        BasicEvent::Db(_, k) => match k {
            EventKind::Create => "create",
            EventKind::Delete => "delete",
            EventKind::Read => "read",
            EventKind::Update => "update",
            EventKind::Access => "access",
            EventKind::TBegin => "tbegin",
            EventKind::TComplete => "tcomplete",
            EventKind::TCommit => "tcommit",
            EventKind::TAbort => "tabort",
            EventKind::Method(m) => m,
        },
        BasicEvent::Time(_) => "time",
        BasicEvent::Start => "start",
    }
}

fn qual_of(basic: &BasicEvent) -> Option<Qualifier> {
    match basic {
        BasicEvent::Db(q, _) => Some(*q),
        _ => None,
    }
}

fn num_cmp(v: &Value, rhs: &Value) -> Option<std::cmp::Ordering> {
    match (v, rhs) {
        (Value::Int(x), Value::Int(y)) => Some(x.cmp(y)),
        (Value::Float(x), Value::Float(y)) => x.partial_cmp(y),
        (Value::Int(x), Value::Float(y)) => (*x as f64).partial_cmp(y),
        (Value::Float(x), Value::Int(y)) => x.partial_cmp(&(*y as f64)),
        (Value::Str(x), Value::Str(y)) => Some(x.cmp(y)),
        (Value::Bool(x), Value::Bool(y)) => Some(x.cmp(y)),
        _ => None,
    }
}

/// Equality as a §3.2 mask sees it: ints and floats compare by value.
fn num_eq(v: &Value, rhs: &Value) -> bool {
    match (v, rhs) {
        (Value::Int(x), Value::Float(y)) => *x as f64 == *y,
        (Value::Float(x), Value::Int(y)) => *x == *y as f64,
        _ => v == rhs,
    }
}

fn pred_holds(index: usize, op: CmpOp, rhs: &Value, args: &[Value]) -> bool {
    use std::cmp::Ordering as O;
    let Some(v) = args.get(index) else {
        return false;
    };
    match op {
        CmpOp::Eq => num_eq(v, rhs),
        CmpOp::Ne => !num_eq(v, rhs),
        CmpOp::Lt => num_cmp(v, rhs) == Some(O::Less),
        CmpOp::Le => matches!(num_cmp(v, rhs), Some(O::Less | O::Equal)),
        CmpOp::Gt => num_cmp(v, rhs) == Some(O::Greater),
        CmpOp::Ge => matches!(num_cmp(v, rhs), Some(O::Greater | O::Equal)),
    }
}

/// A randomly generated query, in test-model terms.
#[derive(Clone, Debug)]
struct QSpec {
    class: Option<String>,
    object: Option<u64>,
    kind: Option<String>,
    qualifier: Option<Qualifier>,
    args: Vec<(usize, CmpOp, Value)>,
    /// Fractional positions into the observed seq range, resolved at
    /// evaluation time (`None` = unconstrained).
    seq_band: Option<(u8, u8)>,
    time_band: Option<(u8, u8)>,
    limit: Option<usize>,
}

fn naive_eval(rows: &[NaiveRow], q: &QSpec, seq_lo: u64, seq_hi: u64) -> (Vec<NaiveRow>, bool) {
    let (min_seq, max_seq) = resolve_band(q.seq_band, seq_lo, seq_hi);
    let (min_time, max_time) = resolve_band(
        q.time_band,
        rows.iter().map(|r| r.time).min().unwrap_or(0),
        rows.iter().map(|r| r.time).max().unwrap_or(0),
    );
    let limit = q.limit.unwrap_or(usize::MAX);
    let mut out = Vec::new();
    let mut truncated = false;
    for r in rows {
        let ok = q.class.as_ref().map_or(true, |c| *c == r.class)
            && q.object.map_or(true, |o| o == r.object)
            && q.kind.as_ref().map_or(true, |k| k == kind_name(&r.basic))
            && q.qualifier.map_or(true, |qu| qual_of(&r.basic) == Some(qu))
            && r.seq >= min_seq
            && r.seq <= max_seq
            && r.time >= min_time
            && r.time <= max_time
            && q.args
                .iter()
                .all(|(i, op, v)| pred_holds(*i, *op, v, &r.args));
        if ok {
            if out.len() == limit {
                truncated = true;
                break;
            }
            out.push(r.clone());
        }
    }
    (out, truncated)
}

/// Map a `(lo_pct, hi_pct)` band onto `[lo, hi]`, inclusive.
fn resolve_band(band: Option<(u8, u8)>, lo: u64, hi: u64) -> (u64, u64) {
    match band {
        None => (0, u64::MAX),
        Some((a, b)) => {
            let span = hi.saturating_sub(lo);
            let p = |pct: u8| lo + span * u64::from(pct.min(100)) / 100;
            let (x, y) = (p(a.min(b)), p(a.max(b)));
            (x, y)
        }
    }
}

fn qspec_strategy() -> impl Strategy<Value = QSpec> {
    let class = prop_oneof![
        3 => Just(None),
        2 => Just(Some("stockroom".to_string())),
        1 => Just(Some("no_such_class".to_string())),
    ];
    let object = prop_oneof![
        3 => Just(None),
        2 => Just(Some(1u64)),
        1 => Just(Some(77u64)),
    ];
    let kind = prop_oneof![
        4 => Just(None),
        1 => Just(Some("withdraw".to_string())),
        1 => Just(Some("deposit".to_string())),
        1 => Just(Some("tcommit".to_string())),
        1 => Just(Some("create".to_string())),
        1 => Just(Some("time".to_string())),
        1 => Just(Some("no_such_kind".to_string())),
    ];
    let qualifier = prop_oneof![
        3 => Just(None),
        1 => Just(Some(Qualifier::Before)),
        1 => Just(Some(Qualifier::After)),
    ];
    // Stockroom method args are (item: Str, quantity: Int); predicate
    // over either position, plus a deliberately out-of-range index.
    let pred = (
        prop_oneof![3 => Just(0usize), 3 => Just(1usize), 1 => Just(4usize)],
        prop_oneof![
            Just(CmpOp::Eq),
            Just(CmpOp::Ne),
            Just(CmpOp::Lt),
            Just(CmpOp::Le),
            Just(CmpOp::Gt),
            Just(CmpOp::Ge),
        ],
        prop_oneof![
            3 => (1i64..60).prop_map(Value::Int),
            2 => (1i64..60).prop_map(|q| Value::Float(q as f64)),
            1 => (1i64..60).prop_map(|q| Value::Float(q as f64 + 0.5)),
            2 => prop_oneof![Just("bolt"), Just("gear"), Just("shim")]
                .prop_map(|s| Value::Str(s.into())),
        ],
    );
    let band = || prop::option::of((0u8..=100, 0u8..=100));
    (
        (class, object, kind, qualifier),
        (
            prop::collection::vec(pred, 0..3),
            band(),
            band(),
            prop::option::of(1usize..8),
        ),
    )
        .prop_map(
            |((class, object, kind, qualifier), (args, seq_band, time_band, limit))| QSpec {
                class,
                object,
                kind,
                qualifier,
                args,
                seq_band,
                time_band,
                limit,
            },
        )
}

// ---- random stockroom scripts (same shape as wal_roundtrip.rs) ----

#[derive(Clone, Debug)]
enum Op {
    Withdraw { user: usize, item: usize, q: i64 },
    DepositWithdraw { item: usize, q: i64 },
    Advance { ms: u64 },
    AbortedWithdraw { item: usize, q: i64 },
}

const USERS: [&str; 3] = ["alice", "bob", "mallory"];
const ITEMS: [&str; 3] = ["bolt", "gear", "shim"];

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        5 => (0usize..3, 0usize..3, 1i64..60).prop_map(|(user, item, q)| Op::Withdraw {
            user,
            item,
            q
        }),
        2 => (0usize..3, 1i64..40).prop_map(|(item, q)| Op::DepositWithdraw { item, q }),
        2 => (1u64..5_000_000).prop_map(|ms| Op::Advance { ms }),
        2 => (0usize..3, 1i64..30).prop_map(|(item, q)| Op::AbortedWithdraw { item, q }),
    ]
}

fn apply(db: &mut Database, room: ObjectId, op: &Op) {
    match op {
        Op::Withdraw { user, item, q } => {
            demo::withdraw_txn(db, USERS[*user], room, ITEMS[*item], *q).unwrap();
        }
        Op::DepositWithdraw { item, q } => {
            demo::deposit_withdraw_txn(db, "alice", room, ITEMS[*item], *q).unwrap();
        }
        Op::Advance { ms } => {
            let to = db.now() + ms;
            db.advance_clock_to(to);
        }
        Op::AbortedWithdraw { item, q } => {
            let txn = db.begin_as(Value::Str("bob".into()));
            let r = db.call(
                txn,
                room,
                "withdraw",
                &[Value::Str(ITEMS[*item].into()), Value::Int(*q)],
            );
            if r.is_ok() {
                let _ = db.abort(txn);
            }
        }
    }
}

/// What one store-vs-naive comparison exercised.
#[derive(Debug, Default)]
struct Coverage {
    time_selected: bool,
    time_rejected: bool,
    no_args_selected: bool,
    no_args_rejected: bool,
    cut_in_sealed: bool,
    cut_in_active: bool,
}

/// Seqs of every row sealed into a segment file under `dir`.
fn sealed_seqs(dir: &std::path::Path) -> HashSet<u64> {
    let mut seqs = HashSet::new();
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        if path.extension().is_some_and(|x| x == "hist") {
            let (_, rows) = decode_segment(&std::fs::read(&path).unwrap()).unwrap();
            seqs.extend(rows.iter().map(|r| r.seq));
        }
    }
    seqs
}

/// Run `ops` into a store and a naive mirror, then check every query —
/// under its own limit and under limits that cut inside a sealed
/// segment, at the sealed/active seam and inside the active set.
fn check_against_naive(ops: &[Op], queries: &[QSpec]) -> Result<Coverage, TestCaseError> {
    let dir = tmp_dir("scan");
    let mut cov = Coverage::default();
    {
        let (mut db, room) = demo::setup();
        // Tiny segments: even short scripts seal several, so zone
        // pruning and the sealed/active seam are both exercised.
        let store = Arc::new(HistStore::open(&dir, HistConfig { segment_rows: 7 }, 0).unwrap());
        for (i, name) in db.class_names().iter().enumerate() {
            store.observe_class(i as u32, name);
        }
        let (next, last) = stamp_lsns(&mut db);
        let naive = Arc::new(Mutex::new(Vec::new()));
        db.set_event_tap(Some(dual_tap(
            Arc::clone(&store),
            last,
            Arc::clone(&naive),
            db.class_names(),
        )));

        for op in ops {
            apply(&mut db, room, op);
        }
        db.set_event_tap(None);

        // Everything logged is durable in this test. (A script of
        // bare clock advances may tap nothing at all.)
        let head = next.load(Ordering::SeqCst);
        if head > 0 {
            store.advance_durable_through(head - 1);
            store.sync();
        }
        prop_assert!(!store.failed());

        let naive = naive.lock().clone();
        let sealed = sealed_seqs(&dir);
        let seq_lo = naive.iter().map(|r| r.seq).min().unwrap_or(0);
        let seq_hi = naive.iter().map(|r| r.seq).max().unwrap_or(0);
        let time_lo = naive.iter().map(|r| r.time).min().unwrap_or(0);
        let time_hi = naive.iter().map(|r| r.time).max().unwrap_or(0);

        for q in queries {
            let unlimited = QSpec {
                limit: None,
                ..q.clone()
            };
            let (all, _) = naive_eval(&naive, &unlimited, seq_lo, seq_hi);
            let selected: HashSet<u64> = all.iter().map(|r| r.seq).collect();
            for r in &naive {
                let hit = selected.contains(&r.seq);
                if matches!(r.basic, BasicEvent::Time(_)) {
                    cov.time_selected |= hit;
                    cov.time_rejected |= !hit;
                }
                if r.args.is_empty() {
                    cov.no_args_selected |= hit;
                    cov.no_args_rejected |= !hit;
                }
            }
            // Store order is sealed rows, then active ones.
            let in_sealed = all.iter().filter(|r| sealed.contains(&r.seq)).count();
            let mut limits = vec![q.limit];
            if in_sealed > 0 {
                limits.push(Some(in_sealed - 1));
                cov.cut_in_sealed = true;
            }
            if all.len() > in_sealed {
                limits.push(Some(in_sealed));
                limits.push(Some(all.len() - 1));
                cov.cut_in_active = true;
            }

            let (min_seq, max_seq) = resolve_band(q.seq_band, seq_lo, seq_hi);
            let (min_time, max_time) = resolve_band(q.time_band, time_lo, time_hi);
            for limit in limits {
                let q = QSpec { limit, ..q.clone() };
                let hq = HistQuery {
                    class: q.class.clone(),
                    object: q.object,
                    kind: q.kind.clone(),
                    qualifier: q.qualifier,
                    args: q
                        .args
                        .iter()
                        .map(|(i, op, v)| ode_db::ArgPred {
                            index: *i,
                            op: *op,
                            value: v.clone(),
                        })
                        .collect(),
                    min_seq: q.seq_band.map(|_| min_seq),
                    max_seq: q.seq_band.map(|_| max_seq),
                    min_time: q.time_band.map(|_| min_time),
                    max_time: q.time_band.map(|_| max_time),
                    limit: q.limit,
                };
                let res = store.query(&hq).unwrap();
                let (want, want_trunc) = naive_eval(&naive, &q, seq_lo, seq_hi);

                prop_assert_eq!(res.rows.len(), want.len(), "row count diverged for {:?}", q);
                prop_assert_eq!(res.truncated, want_trunc, "truncation for {:?}", q);
                for (got, exp) in res.rows.iter().zip(&want) {
                    prop_assert_eq!(got.seq, exp.seq);
                    prop_assert_eq!(got.time, exp.time);
                    prop_assert_eq!(got.txn, exp.txn);
                    prop_assert_eq!(got.object, exp.object);
                    prop_assert_eq!(&got.args, &exp.args);
                    prop_assert_eq!(store.class_label(got.class), exp.class.clone());
                    prop_assert_eq!(store.render_event(got), exp.basic.to_string());
                }
            }
        }
        drop(store);
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(cov)
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 48, ..ProptestConfig::default() })]

    #[test]
    fn columnar_query_equals_naive_scan(
        ops in prop::collection::vec(op_strategy(), 1..30),
        queries in prop::collection::vec(qspec_strategy(), 1..6),
    ) {
        check_against_naive(&ops, &queries)?;
    }
}

/// A fixed script whose queries put time-event rows (the `extra`
/// column) and no-args rows on both sides of the selection, and whose
/// limits cut both inside a sealed segment and inside the active set —
/// the cases the random run is not guaranteed to reach.
#[test]
fn columnar_query_equals_naive_scan_on_a_covering_script() {
    let mut ops = Vec::new();
    for i in 0..12 {
        ops.push(Op::Withdraw {
            user: i % 2,
            item: i % 3,
            q: 5 + 4 * i as i64,
        });
        if i % 4 == 3 {
            ops.push(Op::Advance { ms: 4 * 3_600_000 });
        }
        if i % 5 == 4 {
            ops.push(Op::DepositWithdraw { item: i % 3, q: 7 });
            ops.push(Op::AbortedWithdraw { item: 1, q: 3 });
        }
    }
    let q = |kind: Option<&str>, args: Vec<(usize, CmpOp, Value)>| QSpec {
        class: None,
        object: None,
        kind: kind.map(str::to_string),
        qualifier: None,
        args,
        seq_band: None,
        time_band: None,
        limit: None,
    };
    let queries = [
        q(None, vec![]),
        q(Some("time"), vec![]),
        q(Some("withdraw"), vec![(1, CmpOp::Ge, Value::Float(20.0))]),
        q(None, vec![(1, CmpOp::Eq, Value::Float(13.0))]),
    ];
    let cov = check_against_naive(&ops, &queries).unwrap();
    assert!(
        cov.time_selected
            && cov.time_rejected
            && cov.no_args_selected
            && cov.no_args_rejected
            && cov.cut_in_sealed
            && cov.cut_in_active,
        "{cov:?}"
    );
}

/// Every committed transaction's `after tcommit` row is indexed, though
/// its batch reaches the store after the commit's own batch with the
/// same LSN — and the whole store is the naive list, row for row.
#[test]
fn after_tcommit_rows_share_their_commit_lsn_and_are_indexed() {
    let dir = tmp_dir("tcommit");
    let (mut db, room) = demo::setup();
    let store = Arc::new(HistStore::open(&dir, HistConfig { segment_rows: 7 }, 0).unwrap());
    for (i, name) in db.class_names().iter().enumerate() {
        store.observe_class(i as u32, name);
    }
    let (next, last) = stamp_lsns(&mut db);
    let naive = Arc::new(Mutex::new(Vec::new()));
    db.set_event_tap(Some(dual_tap(
        Arc::clone(&store),
        last,
        Arc::clone(&naive),
        db.class_names(),
    )));
    for i in 0..12 {
        demo::withdraw_txn(&mut db, "alice", room, ITEMS[i % 3], 5).unwrap();
    }
    demo::deposit_withdraw_txn(&mut db, "bob", room, "gear", 20).unwrap();
    db.set_event_tap(None);
    store.advance_durable_through(next.load(Ordering::SeqCst) - 1);
    store.sync();

    let naive = naive.lock().clone();
    let after_tcommit = BasicEvent::Db(Qualifier::After, EventKind::TCommit);
    let want_tcommits = naive.iter().filter(|r| r.basic == after_tcommit).count();
    assert_eq!(want_tcommits, 13, "one per committed transaction");
    let tcommits = store
        .query(&HistQuery {
            kind: Some("tcommit".into()),
            qualifier: Some(Qualifier::After),
            ..HistQuery::default()
        })
        .unwrap();
    assert_eq!(tcommits.rows.len(), want_tcommits);

    let rows = store.query(&HistQuery::default()).unwrap().rows;
    let got: Vec<(u64, u64, String)> = rows
        .iter()
        .map(|r| (r.seq, r.txn, store.render_event(r)))
        .collect();
    let want: Vec<(u64, u64, String)> = naive
        .iter()
        .map(|r| (r.seq, r.txn, r.basic.to_string()))
        .collect();
    assert_eq!(got, want);
    assert!(store.stats().segments >= 2, "rows crossed seal boundaries");

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- retro vs live-since-inception ----

/// A masked, composite-triggered class with *no* mask functions and no
/// committed-monitoring triggers: `needs_history` is false, so live
/// detection runs the router fast path — exactly the configuration the
/// tap must still capture for retro replay to work.
fn meter_class(activate: bool) -> ClassDef {
    let mut b = ClassDef::builder("meter")
        .field("n", 0i64)
        .method("bump", MethodKind::Update, &["amt"], |ctx| {
            let n = ctx.get_required("n")?.as_int().unwrap_or(0);
            let amt = ctx.arg(0)?.as_int().unwrap_or(0);
            ctx.set("n", n + amt);
            Ok(Value::Null)
        })
        .method("reset", MethodKind::Update, &[], |ctx| {
            ctx.set("n", 0);
            Ok(Value::Null)
        })
        .trigger(
            "big",
            true,
            "after bump(amt) && amt > 10",
            Action::Emit("big bump".into()),
        )
        .trigger(
            "combo",
            true,
            "after reset; after bump",
            Action::Emit("bump after reset".into()),
        )
        .trigger(
            "once",
            false,
            "after bump",
            Action::Emit("first bump".into()),
        );
    if activate {
        b = b.activate_on_create(&["big", "combo", "once"]);
    }
    b.build().unwrap()
}

fn meter_script(db: &mut Database, obj: ObjectId) {
    let calls: [(&str, Option<i64>); 8] = [
        ("bump", Some(3)),
        ("bump", Some(25)),
        ("reset", None),
        ("bump", Some(7)),
        ("bump", Some(40)),
        ("reset", None),
        ("reset", None),
        ("bump", Some(11)),
    ];
    for chunk in calls.chunks(3) {
        let t = db.begin();
        for (m, amt) in chunk {
            let args: Vec<Value> = amt.iter().map(|a| Value::Int(*a)).collect();
            db.call(t, obj, m, &args).unwrap();
        }
        db.commit(t).unwrap();
    }
    // An aborted transaction: its postings must influence neither side.
    let t = db.begin();
    db.call(t, obj, "bump", &[Value::Int(99)]).unwrap();
    db.abort(t).unwrap();
}

/// One live firing: `(txn, trigger, completing event, its args)`.
type LiveFiring = (u64, String, String, Vec<Value>);

/// `(def_index, state, active)` per instance. The per-instance `fired`
/// counter is deliberately left out: live notices are emitted at fire
/// time even when the transaction later aborts (and the counter keeps
/// them), while retro replay only ever sees committed postings.
fn trigger_states(db: &Database, obj: ObjectId) -> Vec<(usize, u32, bool)> {
    let mut v: Vec<_> = db
        .object(obj)
        .unwrap()
        .triggers
        .iter()
        .map(|t| (t.def_index, t.state, t.active))
        .collect();
    v.sort();
    v
}

#[test]
fn retro_activation_matches_live_since_inception() {
    // Live side: triggers active from creation; collect committed
    // firings (notices carry the completing event + args).
    let firings: Arc<Mutex<Vec<LiveFiring>>> = Arc::new(Mutex::new(Vec::new()));
    let committed_txns: Arc<Mutex<std::collections::HashSet<u64>>> =
        Arc::new(Mutex::new(std::collections::HashSet::new()));
    let mut live = Database::new();
    live.define_class(meter_class(true)).unwrap();
    {
        let firings = Arc::clone(&firings);
        live.set_firing_sink(Some(Arc::new(move |n: &ode_db::FiringNotice| {
            firings.lock().push((
                n.txn.0,
                n.trigger.clone(),
                n.event.to_string(),
                n.args.clone(),
            ));
        })));
    }
    {
        // The tap only fires for committed transactions — use it to
        // know which live firings survived.
        let committed = Arc::clone(&committed_txns);
        live.set_event_tap(Some(Arc::new(
            move |txn: TxnId, _now, _ev: &[ode_db::TapEvent]| {
                committed.lock().insert(txn.0);
            },
        )));
    }
    let t = live.begin();
    let obj_live = live.create_object(t, "meter", &[]).unwrap();
    live.commit(t).unwrap();
    meter_script(&mut live, obj_live);

    // Retro side: same script, triggers never activated; events go to
    // the history store instead.
    let dir = tmp_dir("retro");
    let store = Arc::new(HistStore::open(&dir, HistConfig { segment_rows: 5 }, 0).unwrap());
    let mut retro = Database::new();
    retro.define_class(meter_class(false)).unwrap();
    for (i, name) in retro.class_names().iter().enumerate() {
        store.observe_class(i as u32, name);
    }
    let lsn = Arc::new(AtomicU64::new(0));
    {
        let store = Arc::clone(&store);
        let lsn = Arc::clone(&lsn);
        retro.set_event_tap(Some(Arc::new(
            move |txn: TxnId, now, events: &[ode_db::TapEvent]| {
                let l = lsn.fetch_add(1, Ordering::SeqCst);
                store.submit(Batch {
                    lsn: l,
                    txn: txn.0,
                    time: now,
                    events: events.to_vec(),
                });
            },
        )));
    }
    let t = retro.begin();
    let obj = retro.create_object(t, "meter", &[]).unwrap();
    retro.commit(t).unwrap();
    assert_eq!(obj, obj_live);
    meter_script(&mut retro, obj);

    let head = lsn.load(Ordering::SeqCst);
    store.advance_durable_through(head - 1);
    store.sync();
    let events = store.object_events(obj.0).unwrap();
    assert!(!events.is_empty());

    // Replay each trigger retroactively, in activation order.
    let t = retro.begin();
    let mut retro_firings: Vec<(String, String, Vec<Value>)> = Vec::new();
    for name in ["big", "combo", "once"] {
        let replay = retro
            .activate_trigger_retro(t, obj, name, &[], &events)
            .unwrap();
        for f in &replay.firings {
            retro_firings.push((name.to_string(), f.event.to_string(), f.args.clone()));
        }
        // Firing seqs are the completing postings' seqs: strictly
        // increasing and drawn from the replayed history.
        let mut seqs: Vec<u64> = replay.firings.iter().map(|f| f.seq).collect();
        let sorted = {
            let mut s = seqs.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(seqs, sorted, "{name}: retro firing seqs are ordered");
        seqs.dedup();
        assert!(
            seqs.iter().all(|s| events.iter().any(|(es, _, _)| es == s)),
            "{name}: every firing seq is a replayed posting seq"
        );
    }
    retro.commit(t).unwrap();

    // The live committed firing sequence (per trigger, order kept).
    // Notices are emitted at fire time even if the transaction later
    // aborts, so correlate through the tap's committed-transaction set
    // — the retro side only ever sees committed postings.
    let committed = committed_txns.lock();
    let live_committed: Vec<(String, String, Vec<Value>)> = firings
        .lock()
        .iter()
        .filter(|(txn, _, _, _)| committed.contains(txn))
        .map(|(_, n, e, a)| (n.clone(), e.clone(), a.clone()))
        .collect();
    drop(committed);

    // Group both sides per trigger and compare.
    for name in ["big", "combo", "once"] {
        let want: Vec<_> = live_committed
            .iter()
            .filter(|(n, _, _)| n == name)
            .cloned()
            .collect();
        let got: Vec<_> = retro_firings
            .iter()
            .filter(|(n, _, _)| n == name)
            .cloned()
            .collect();
        assert_eq!(got, want, "trigger {name}: retro != live firings");
    }

    // After installation the retro object's automaton words equal the
    // live object's.
    assert_eq!(trigger_states(&retro, obj), trigger_states(&live, obj_live));

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---- router-skipped (triggerless) classes are still captured ----

#[test]
fn triggerless_class_events_are_indexed() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("plain")
            .field("v", 0i64)
            .method("set", MethodKind::Update, &["x"], |ctx| {
                let x = ctx.arg(0)?.clone();
                ctx.set("v", x);
                Ok(Value::Null)
            })
            .build()
            .unwrap(),
    )
    .unwrap();

    let dir = tmp_dir("plain");
    let store = Arc::new(HistStore::open(&dir, HistConfig::default(), 0).unwrap());
    for (i, name) in db.class_names().iter().enumerate() {
        store.observe_class(i as u32, name);
    }
    let lsn = Arc::new(AtomicU64::new(0));
    {
        let store = Arc::clone(&store);
        let lsn = Arc::clone(&lsn);
        db.set_event_tap(Some(Arc::new(
            move |txn: TxnId, now, events: &[ode_db::TapEvent]| {
                let l = lsn.fetch_add(1, Ordering::SeqCst);
                store.submit(Batch {
                    lsn: l,
                    txn: txn.0,
                    time: now,
                    events: events.to_vec(),
                });
            },
        )));
    }

    let t = db.begin();
    let obj = db.create_object(t, "plain", &[]).unwrap();
    db.call(t, obj, "set", &[Value::Int(7)]).unwrap();
    db.commit(t).unwrap();

    let head = lsn.load(Ordering::SeqCst);
    store.advance_durable_through(head - 1);
    store.sync();

    // No triggers → the router records nothing live, yet the store has
    // the full stream: before/after create, before/after set, and the
    // system `after tcommit` round.
    let res = store
        .query(&HistQuery {
            class: Some("plain".into()),
            ..HistQuery::default()
        })
        .unwrap();
    let events: Vec<String> = res.rows.iter().map(|r| store.render_event(r)).collect();
    assert!(events.iter().any(|e| e.contains("create")), "{events:?}");
    assert!(events.iter().any(|e| e.contains("set")), "{events:?}");
    assert!(events.iter().any(|e| e.contains("tcommit")), "{events:?}");
    let set_rows = store
        .query(&HistQuery {
            kind: Some("set".into()),
            qualifier: Some(Qualifier::After),
            ..HistQuery::default()
        })
        .unwrap();
    assert_eq!(set_rows.rows.len(), 1);
    assert_eq!(set_rows.rows[0].args, vec![Value::Int(7)]);

    drop(store);
    let _ = std::fs::remove_dir_all(&dir);
}
