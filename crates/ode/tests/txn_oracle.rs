//! Transactional integrity under random operation scripts: the engine's
//! committed state must always equal a shadow oracle that applies only
//! committed writes, and every history record's status must match its
//! transaction's outcome.

use std::collections::HashMap;

use ode_core::event::calendar;
use ode_core::Value;
use ode_db::{Action, ClassDef, Database, MethodKind, ObjectId, OdeError, PostStatus, TxnId};
use proptest::prelude::*;

#[derive(Clone, Debug)]
enum Op {
    Begin,
    /// Write `value` to cell `obj` within the open transaction.
    Set {
        obj: usize,
        value: i64,
    },
    /// Increment cell `obj`.
    Incr {
        obj: usize,
    },
    Commit,
    Abort,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        2 => Just(Op::Begin),
        4 => (0usize..3, -100i64..100).prop_map(|(obj, value)| Op::Set { obj, value }),
        4 => (0usize..3).prop_map(|obj| Op::Incr { obj }),
        2 => Just(Op::Commit),
        1 => Just(Op::Abort),
    ]
}

fn cell_class() -> ClassDef {
    ClassDef::builder("cell")
        .field("v", 0i64)
        .method("set", MethodKind::Update, &["x"], |ctx| {
            let x = ctx.arg(0)?;
            ctx.set("v", x);
            Ok(Value::Null)
        })
        .method("incr", MethodKind::Update, &[], |ctx| {
            let v = ctx.get_required("v")?.as_int().unwrap_or(0);
            ctx.set("v", v + 1);
            Ok(Value::Null)
        })
        .build()
        .unwrap()
}

/// One step of an interleaved script over up to three concurrent
/// transactions, addressed by slot.
#[derive(Clone, Debug)]
enum Step {
    Begin,
    Call {
        slot: usize,
        obj: usize,
    },
    Commit {
        slot: usize,
    },
    Abort {
        slot: usize,
    },
    /// `prepare`, then `commit_sharded` (`commit`) or `abort`.
    TwoPhase {
        slot: usize,
        commit: bool,
    },
    /// Advance the virtual clock by this many quarter hours.
    Tick {
        quarters: u64,
    },
}

fn step_strategy() -> impl Strategy<Value = Step> {
    prop_oneof![
        2 => Just(Step::Begin),
        5 => (0usize..3, 0usize..3).prop_map(|(slot, obj)| Step::Call { slot, obj }),
        2 => (0usize..3).prop_map(|slot| Step::Commit { slot }),
        1 => (0usize..3).prop_map(|slot| Step::Abort { slot }),
        1 => (0usize..3, any::<bool>()).prop_map(|(slot, commit)| Step::TwoPhase { slot, commit }),
        2 => (1u64..=6).prop_map(|quarters| Step::Tick { quarters }),
    ]
}

/// A cell whose class records history (one committed-history monitor)
/// and receives hourly system postings, which land between a
/// transaction's `begin` and its first access.
fn audited_cell_class() -> ClassDef {
    ClassDef::builder("cell")
        .field("v", 0i64)
        .method("incr", MethodKind::Update, &[], |ctx| {
            let v = ctx.get_required("v")?.as_int().unwrap_or(0);
            ctx.set("v", v + 1);
            Ok(Value::Null)
        })
        .trigger("audit", true, "after tcommit", Action::Emit("audit".into()))
        .trigger(
            "hourly",
            true,
            "every time(HR=1)",
            Action::Emit("hour".into()),
        )
        .activate_on_create(&["audit", "hourly"])
        .build()
        .unwrap()
}

/// Every record of every object carries the status its transaction's
/// outcome implies: `Committed` for committed or system transactions,
/// `Aborted` for aborted ones, `Pending` for ones still open.
fn check_statuses(
    db: &Database,
    objs: &[ObjectId],
    outcomes: &HashMap<TxnId, PostStatus>,
    open: &[Option<TxnId>],
) -> Result<(), TestCaseError> {
    for obj in objs {
        for r in &db.object(*obj).unwrap().history {
            let want = if open.contains(&Some(r.txn)) {
                PostStatus::Pending
            } else {
                outcomes
                    .get(&r.txn)
                    .copied()
                    .unwrap_or(PostStatus::Committed)
            };
            prop_assert_eq!(r.status, want, "record {:?} on {}", r, obj);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

    #[test]
    fn committed_state_matches_shadow_oracle(ops in prop::collection::vec(op_strategy(), 0..60)) {
        let mut db = Database::new();
        db.define_class(cell_class()).unwrap();
        let setup = db.begin();
        let objs: Vec<ObjectId> = (0..3)
            .map(|_| db.create_object(setup, "cell", &[]).unwrap())
            .collect();
        db.commit(setup).unwrap();

        // Shadow state: committed values, plus the open txn's overlay.
        let mut committed = [0i64; 3];
        let mut overlay: Option<[i64; 3]> = None;
        let mut txn = None;

        for op in &ops {
            match op {
                Op::Begin => {
                    if txn.is_none() {
                        txn = Some(db.begin());
                        overlay = Some(committed);
                    }
                }
                Op::Set { obj, value } => {
                    if let (Some(t), Some(ov)) = (txn, overlay.as_mut()) {
                        db.call(t, objs[*obj], "set", &[Value::Int(*value)]).unwrap();
                        ov[*obj] = *value;
                    }
                }
                Op::Incr { obj } => {
                    if let (Some(t), Some(ov)) = (txn, overlay.as_mut()) {
                        db.call(t, objs[*obj], "incr", &[]).unwrap();
                        ov[*obj] += 1;
                    }
                }
                Op::Commit => {
                    if let Some(t) = txn.take() {
                        db.commit(t).unwrap();
                        committed = overlay.take().unwrap();
                    }
                }
                Op::Abort => {
                    if let Some(t) = txn.take() {
                        db.abort(t).unwrap();
                        overlay = None;
                    }
                }
            }
        }
        // Abandon any still-open transaction.
        if let Some(t) = txn {
            db.abort(t).unwrap();
        }

        for (i, obj) in objs.iter().enumerate() {
            prop_assert_eq!(
                db.peek_field(*obj, "v"),
                Some(Value::Int(committed[i])),
                "cell {} diverged after {:?}", i, ops
            );
        }
    }

    /// Nested engine misuse never panics: operations without an open
    /// transaction return clean errors.
    #[test]
    fn misuse_errors_cleanly(ops in prop::collection::vec(op_strategy(), 0..30)) {
        let mut db = Database::new();
        db.define_class(cell_class()).unwrap();
        let setup = db.begin();
        let obj = db.create_object(setup, "cell", &[]).unwrap();
        db.commit(setup).unwrap();

        // Replay the script against a single possibly-finished txn id,
        // accepting errors but never panics.
        let t = db.begin();
        for op in &ops {
            let r: Result<_, OdeError> = match op {
                Op::Begin => Ok(Value::Null),
                Op::Set { value, .. } => db.call(t, obj, "set", &[Value::Int(*value)]),
                Op::Incr { .. } => db.call(t, obj, "incr", &[]),
                Op::Commit => db.commit(t).map(|_| Value::Null),
                Op::Abort => db.abort(t).map(|_| Value::Null),
            };
            let _ = r; // errors are fine; panics are not
        }
    }

    /// Record status ⇔ transaction outcome, checked after every step of
    /// an interleaving of concurrent transactions, two-phase commits and
    /// clock advances.
    #[test]
    fn record_status_matches_txn_outcome(steps in prop::collection::vec(step_strategy(), 0..60)) {
        let mut db = Database::new();
        db.define_class(audited_cell_class()).unwrap();
        let setup = db.begin();
        let objs: Vec<ObjectId> = (0..3)
            .map(|_| db.create_object(setup, "cell", &[]).unwrap())
            .collect();
        db.commit(setup).unwrap();

        let mut outcomes: HashMap<TxnId, PostStatus> = HashMap::new();
        outcomes.insert(setup, PostStatus::Committed);
        let mut open: [Option<TxnId>; 3] = [None; 3];
        let mut gtxn = 0u64;

        for step in &steps {
            match *step {
                Step::Begin => {
                    if let Some(slot) = open.iter().position(Option::is_none) {
                        open[slot] = Some(db.begin());
                    }
                }
                Step::Call { slot, obj } => {
                    if let Some(t) = open[slot] {
                        match db.call(t, objs[obj], "incr", &[]) {
                            Ok(_) | Err(OdeError::LockConflict { .. }) => {}
                            Err(e) => panic!("call failed: {e}"),
                        }
                    }
                }
                Step::Commit { slot } => {
                    if let Some(t) = open[slot].take() {
                        db.commit(t).unwrap();
                        outcomes.insert(t, PostStatus::Committed);
                    }
                }
                Step::Abort { slot } => {
                    if let Some(t) = open[slot].take() {
                        db.abort(t).unwrap();
                        outcomes.insert(t, PostStatus::Aborted);
                    }
                }
                Step::TwoPhase { slot, commit } => {
                    if let Some(t) = open[slot].take() {
                        db.prepare(t).unwrap();
                        if commit {
                            gtxn += 1;
                            db.commit_sharded(t, gtxn, &[0, 1]).unwrap();
                            outcomes.insert(t, PostStatus::Committed);
                        } else {
                            db.abort(t).unwrap();
                            outcomes.insert(t, PostStatus::Aborted);
                        }
                    }
                }
                Step::Tick { quarters } => db.advance_clock_by(quarters * 15 * calendar::MIN),
            }
            check_statuses(&db, &objs, &outcomes, &open)?;
        }
    }
}
