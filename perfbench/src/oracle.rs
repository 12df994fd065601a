//! The correctness oracle: what `correct` in the result line means.
//!
//! The harness does not trust the automata it is timing. It keeps its
//! own model of what the requests it sent must have done — field
//! values, the events the engine posts to an object, the rows those
//! events become in the history store — and checks the server's
//! outputs against it: every read, a final sweep of every object,
//! every firing on a sample of objects (replayed through
//! `ode_baselines::NaiveDetector`, which evaluates the §4 semantics
//! over the whole history and shares no automaton code), the
//! subscribers' streams against each other, and the state recovered
//! from the run's write-ahead log.

use std::collections::{BTreeMap, HashSet};
use std::io;
use std::path::Path;

use ode_baselines::NaiveDetector;
use ode_core::{BasicEvent, EventKind, MaskEnv, Value};
use ode_db::{recover_sharded, ObjectId, SharedIo, StdIo, WalConfig};
use ode_server::spec::compile_class;
use ode_server::{Command, Firing, Reply};

use crate::bed::{Model, CREATE_BATCH};
use crate::net::Line;
use crate::rng::Rng;
use crate::workload::{class_spec, CallPlan, Method, TxnPlan, Workload, BULK_ABOVE};

/// Objects per writer whose firings are replayed through the naive
/// detector.
pub const SAMPLED_PER_WRITER: usize = 8;

/// The naive detector re-evaluates its whole history on every posting,
/// so each (object, trigger) replay stops once the detector has seen
/// this many relevant events; firings up to that point are compared.
const NAIVE_HISTORY_CAP: usize = 96;

/// The sampled objects of each writer: its first object (the hottest
/// under Zipf) and seeded picks from the rest of its range.
pub fn sampled_objects(wl: &Workload, seed: u64) -> Vec<HashSet<u64>> {
    (0..wl.writers)
        .map(|w| {
            let base = 1 + (w * wl.objects_per_writer) as u64;
            let mut rng = Rng::new(seed, 1000 + w as u64);
            let mut set = HashSet::from([base]);
            while set.len() < SAMPLED_PER_WRITER.min(wl.objects_per_writer) {
                set.insert(base + rng.below(wl.objects_per_writer as u64));
            }
            set
        })
        .collect()
}

/// One basic event the engine posts to an object.
#[derive(Clone, Debug, PartialEq)]
pub struct Posting {
    pub basic: BasicEvent,
    pub args: Vec<Value>,
}

fn posting(basic: BasicEvent, args: &[Value]) -> Posting {
    Posting {
        basic,
        args: args.to_vec(),
    }
}

/// What creating an object posts to it. The first event precedes the
/// constructor's trigger activations, so the history store records it
/// but no trigger sees it.
pub fn creation_postings() -> (Posting, Vec<Posting>) {
    (
        posting(BasicEvent::after(EventKind::TBegin), &[]),
        vec![
            posting(BasicEvent::after(EventKind::Create), &[]),
            posting(BasicEvent::before(EventKind::TComplete), &[]),
            posting(BasicEvent::after(EventKind::TCommit), &[]),
        ],
    )
}

/// What one committed transaction posts to one object it called
/// `calls` on, in order (§3.1): `after tbegin` before the first access,
/// the six-event envelope of each call, `before tcomplete` at commit
/// and `after tcommit` from the system transaction.
pub fn txn_postings(calls: &[&CallPlan]) -> Vec<Posting> {
    let mut out = vec![posting(BasicEvent::after(EventKind::TBegin), &[])];
    for c in calls {
        let args = c.args();
        let kind = match c.method {
            Method::Audit => EventKind::Read,
            _ => EventKind::Update,
        };
        out.extend([
            posting(BasicEvent::before(EventKind::Access), &args),
            posting(BasicEvent::before(kind.clone()), &args),
            posting(BasicEvent::before_method(c.method.name()), &args),
            posting(BasicEvent::after_method(c.method.name()), &args),
            posting(BasicEvent::after(kind), &args),
            posting(BasicEvent::after(EventKind::Access), &args),
        ]);
    }
    out.push(posting(BasicEvent::before(EventKind::TComplete), &[]));
    out.push(posting(BasicEvent::after(EventKind::TCommit), &[]));
    out
}

/// Walk every posting a single-shard engine makes, in posting order,
/// while `objects` objects are created [`CREATE_BATCH`] to a
/// transaction and `txns` then run one after another: `visit(seq,
/// object, posting)` with the engine's global posting seq, which
/// starts at 1 and is the `seq` of the posting's history row.
pub fn walk_postings(objects: u64, txns: &[TxnPlan], mut visit: impl FnMut(u64, u64, &Posting)) {
    let mut seq = 0;
    let mut post = |object: u64, p: &Posting| {
        seq += 1;
        visit(seq, object, p);
    };
    let (before_activation, after_activation) = creation_postings();
    let (created, commit) = after_activation.split_at(1);
    let mut first = 1;
    while first <= objects {
        let batch = first..(first + CREATE_BATCH as u64).min(objects + 1);
        for object in batch.clone() {
            post(object, &before_activation);
            post(object, &created[0]);
        }
        // `before tcomplete` goes to every accessed object, then the
        // system transaction posts `after tcommit` to each.
        for p in commit {
            for object in batch.clone() {
                post(object, p);
            }
        }
        first = batch.end;
    }
    for t in txns {
        let mut accessed: Vec<u64> = Vec::new();
        for c in &t.calls {
            let envelope = txn_postings(&[c]);
            let body = &envelope[1..envelope.len() - 2];
            if !accessed.contains(&c.object) {
                accessed.push(c.object);
                post(c.object, &envelope[0]);
            }
            for p in body {
                post(c.object, p);
            }
        }
        for p in commit {
            for &object in &accessed {
                post(object, p);
            }
        }
    }
}

/// Masks of the benchmark's classes read only the call's parameters
/// and the `bulk` mask function.
pub struct OracleEnv;

impl MaskEnv for OracleEnv {
    fn param(&self, _: &str) -> Option<Value> {
        None
    }
    fn field(&self, _: &str) -> Option<Value> {
        None
    }
    fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
        match (name, args) {
            ("bulk", [Value::Int(q)]) => Some(Value::Bool(*q > BULK_ABOVE)),
            _ => None,
        }
    }
}

/// Replay the sampled objects' posting histories through one naive
/// detector per (object, trigger) and compare, trigger by trigger and
/// position by position, with the firings a subscriber received.
///
/// `setup` are the transactions sent before any subscriber existed
/// (the preload): their firings are replayed but were not observed.
/// `run` is every writer's `(transaction ordinal, call)` log of calls
/// on sampled objects, in request order.
pub fn check_firings(
    wl: &Workload,
    sampled: &[HashSet<u64>],
    setup: &[TxnPlan],
    run: &[Vec<(u64, CallPlan)>],
    observed: &[Firing],
) -> Vec<String> {
    let class = compile_class(&class_spec(wl.class)).expect("the benchmark's classes compile");
    let mut seen: BTreeMap<(u64, &str), Vec<&Firing>> = BTreeMap::new();
    for f in observed {
        seen.entry((f.object, f.trigger.as_str()))
            .or_default()
            .push(f);
    }
    let mut wrong = Vec::new();
    for (writer, objects) in sampled.iter().enumerate() {
        for &object in objects {
            // The object's whole posting history, and where the
            // observed part of it starts.
            let mut history = creation_postings().1;
            for t in setup {
                let calls: Vec<&CallPlan> = t.calls.iter().filter(|c| c.object == object).collect();
                if !calls.is_empty() {
                    history.extend(txn_postings(&calls));
                }
            }
            let observed_from = history.len();
            let log = &run[writer];
            let mut i = 0;
            while i < log.len() {
                let txn_no = log[i].0;
                let mut calls = Vec::new();
                while i < log.len() && log[i].0 == txn_no {
                    if log[i].1.object == object {
                        calls.push(&log[i].1);
                    }
                    i += 1;
                }
                if !calls.is_empty() {
                    history.extend(txn_postings(&calls));
                }
            }
            for t in &class.triggers {
                let mut naive = NaiveDetector::new(&t.expr).expect("trigger compiled above");
                naive
                    .activate(&OracleEnv)
                    .expect("start has no failing mask");
                let mut expected: Vec<&Posting> = Vec::new();
                let mut capped = false;
                for (pos, p) in history.iter().enumerate() {
                    if naive.history_len() >= NAIVE_HISTORY_CAP {
                        capped = true;
                        break;
                    }
                    let fired = naive
                        .post(&p.basic, &p.args, &OracleEnv)
                        .expect("oracle masks evaluate");
                    if fired && pos >= observed_from {
                        expected.push(p);
                    }
                }
                let got = seen
                    .get(&(object, t.name.as_str()))
                    .map(Vec::as_slice)
                    .unwrap_or(&[]);
                // A replay that stopped at the cap vouches for a prefix.
                if got.len() < expected.len() || (!capped && got.len() > expected.len()) {
                    wrong.push(format!(
                        "object {object} trigger {}: {} firings received, the §4 replay has {}{}",
                        t.name,
                        got.len(),
                        if capped { "at least " } else { "" },
                        expected.len()
                    ));
                    continue;
                }
                for (n, (want, have)) in expected.iter().zip(got).enumerate() {
                    if have.event != want.basic.to_string() || have.args != want.args {
                        wrong.push(format!(
                            "object {object} trigger {} firing {n}: received {} {:?}, the §4 replay has {} {:?}",
                            t.name, have.event, have.args, want.basic, want.args
                        ));
                        break;
                    }
                }
            }
        }
    }
    wrong
}

/// Read every object's `items` over the wire and compare with the
/// model.
pub fn sweep_fields(admin: &mut Line, model: &Model) -> io::Result<Vec<String>> {
    let mut wrong = Vec::new();
    for object in 1..=model.items.len() as u64 {
        let got = admin.call(Command::PeekField {
            object,
            field: "items".into(),
        })?;
        let want = model.record(object);
        if !matches!(&got, Reply::Value(v) if *v == want) && wrong.len() < 8 {
            wrong.push(format!(
                "object {object}: server has {got:?}, model {want:?}"
            ));
        }
    }
    Ok(wrong)
}

/// Recover the run's write-ahead log into fresh engines and compare
/// every object with the acknowledged model.
pub fn check_recovery(wl: &Workload, wal_root: &Path, model: &Model) -> Vec<String> {
    let def = compile_class(&class_spec(wl.class)).expect("the benchmark's classes compile");
    let recovered = recover_sharded(
        wal_root,
        wl.shards,
        WalConfig::default(),
        SharedIo::new(StdIo::new()),
        |db| db.define_class(def.clone()).map(|_| ()),
    );
    let db = match recovered {
        Ok((_wal, db, report)) if report.demoted.is_empty() => db,
        Ok((_, _, report)) => {
            return vec![format!(
                "recovery demoted {} acknowledged cross-shard commits",
                report.demoted.len()
            )]
        }
        Err(e) => return vec![format!("recovery failed: {e}")],
    };
    let mut wrong = Vec::new();
    for object in 1..=model.items.len() as u64 {
        let got = db.with_obj(ObjectId(object), |db, local| db.peek_field(local, "items"));
        let want = model.record(object);
        if got.as_ref() != Some(&want) && wrong.len() < 8 {
            wrong.push(format!(
                "object {object}: recovered {got:?}, acknowledged {want:?}"
            ));
        }
    }
    wrong
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{find, ClassKind, Planner, WORKLOADS};
    use ode_db::{Database, TapEvent};
    use std::sync::{Arc, Mutex};

    /// The posting model must be what the engine really posts: run
    /// planned transactions in process with the committed-event tap
    /// installed and compare, object by object.
    #[test]
    fn posting_model_matches_the_engine() {
        for kind in [ClassKind::Light, ClassKind::Dense] {
            let wl = WORKLOADS.iter().find(|w| w.class == kind).unwrap();
            let mut db = Database::new();
            db.define_class(compile_class(&class_spec(kind)).unwrap())
                .unwrap();
            let tapped: Arc<Mutex<Vec<TapEvent>>> = Arc::default();
            let sink = Arc::clone(&tapped);
            db.set_event_tap(Some(Arc::new(move |_, _, events: &[TapEvent]| {
                sink.lock().unwrap().extend_from_slice(events);
            })));

            let mut left = wl.objects_per_writer;
            while left > 0 {
                let t = db.begin();
                for _ in 0..left.min(CREATE_BATCH) {
                    db.create_object(t, "room", &[]).unwrap();
                }
                db.commit(t).unwrap();
                left -= left.min(CREATE_BATCH);
            }
            let mut planner = Planner::new(wl, 9, 0);
            let txns: Vec<TxnPlan> = (0..300).map(|_| planner.next_txn()).collect();
            for plan in &txns {
                let t = db.begin();
                for c in &plan.calls {
                    db.call(t, ObjectId(c.object), c.method.name(), &c.args())
                        .unwrap();
                }
                db.commit(t).unwrap();
            }

            let tapped = tapped.lock().unwrap();
            for object in [1u64, 2, 3, wl.objects_per_writer as u64] {
                let engine: Vec<Posting> = tapped
                    .iter()
                    .filter(|e| e.object == ObjectId(object))
                    .map(|e| posting(e.basic.clone(), &e.args))
                    .collect();
                let (first, rest) = creation_postings();
                let mut model = vec![first];
                model.extend(rest);
                for plan in &txns {
                    let calls: Vec<&CallPlan> =
                        plan.calls.iter().filter(|c| c.object == object).collect();
                    if !calls.is_empty() {
                        model.extend(txn_postings(&calls));
                    }
                }
                assert_eq!(engine, model, "{kind:?} object {object}");
            }
            // The same postings, with the engine's seqs, from the walk.
            let mut walked = Vec::new();
            walk_postings(wl.objects_per_writer as u64, &txns, |seq, object, p| {
                walked.push((seq, ObjectId(object), p.clone()));
            });
            let engine: Vec<(u64, ObjectId, Posting)> = tapped
                .iter()
                .map(|e| (e.seq, e.object, posting(e.basic.clone(), &e.args)))
                .collect();
            assert_eq!(walked.len(), engine.len(), "{kind:?}");
            assert!(
                walked == engine,
                "{kind:?}: walk differs from the engine's tap"
            );
        }
    }

    #[test]
    fn sampled_objects_are_the_writers_own_and_seeded() {
        let wl = find("trigger_dense").unwrap();
        let a = sampled_objects(wl, 4);
        assert_eq!(a, sampled_objects(wl, 4));
        assert_ne!(a, sampled_objects(wl, 5));
        for (w, set) in a.iter().enumerate() {
            assert_eq!(set.len(), SAMPLED_PER_WRITER);
            let lo = 1 + (w * wl.objects_per_writer) as u64;
            assert!(set.iter().all(|o| (lo..lo + 256).contains(o)));
        }
    }
}
