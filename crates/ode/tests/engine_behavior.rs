//! Behavioral tests for the active-database engine: transaction
//! lifecycle, posting order, trigger firing/deactivation, rollback
//! semantics (Section 6), the `before tcomplete` fixpoint, system
//! transactions, time events, and locking.

use std::sync::{Arc, Mutex};

use ode_core::{BasicEvent, EventKind, Value};
use ode_db::{Action, ClassDef, Database, MethodKind, ObjectId, OdeError, TxnId};

/// A minimal "account" class: deposit/withdraw adjust `balance`.
fn account_class() -> ClassDef {
    ClassDef::builder("account")
        .field("balance", 0i64)
        .method("depositCash", MethodKind::Update, &["amt"], |ctx| {
            let b = ctx.get_required("balance")?.as_int().unwrap_or(0);
            let amt = ctx.arg(0)?.as_int().unwrap_or(0);
            ctx.set("balance", b + amt);
            Ok(Value::Null)
        })
        .method("withdrawCash", MethodKind::Update, &["amt"], |ctx| {
            let b = ctx.get_required("balance")?.as_int().unwrap_or(0);
            let amt = ctx.arg(0)?.as_int().unwrap_or(0);
            ctx.set("balance", b - amt);
            Ok(Value::Null)
        })
        .method("check", MethodKind::Read, &[], |ctx| {
            ctx.get_required("balance")
        })
        .build()
        .unwrap()
}

fn db_with_account() -> (Database, TxnId, ObjectId) {
    let mut db = Database::new();
    db.define_class(account_class()).unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "account", &[]).unwrap();
    (db, txn, obj)
}

/// Committed postings as `(txn, object, event)`, in delivery order.
type TapLog = Arc<Mutex<Vec<(TxnId, ObjectId, BasicEvent)>>>;

/// Install an event tap on `db` that collects every committed posting.
fn tap(db: &mut Database) -> TapLog {
    let log = TapLog::default();
    let sink = Arc::clone(&log);
    db.set_event_tap(Some(Arc::new(move |txn, _, events| {
        let mut sink = sink.lock().unwrap();
        sink.extend(events.iter().map(|e| (txn, e.object, e.basic.clone())));
    })));
    log
}

/// The committed postings `txn` made on `obj`.
fn tapped(log: &TapLog, txn: TxnId, obj: ObjectId) -> Vec<BasicEvent> {
    let log = log.lock().unwrap();
    log.iter()
        .filter(|(t, o, _)| *t == txn && *o == obj)
        .map(|(_, _, e)| e.clone())
        .collect()
}

/// [`db_with_account`] with a [`tap`] installed before the creating
/// transaction begins.
fn tapped_account() -> (Database, TapLog, TxnId, ObjectId) {
    let mut db = Database::new();
    db.define_class(account_class()).unwrap();
    let log = tap(&mut db);
    let txn = db.begin();
    let obj = db.create_object(txn, "account", &[]).unwrap();
    (db, log, txn, obj)
}

#[test]
fn method_calls_mutate_fields() {
    let (mut db, txn, obj) = db_with_account();
    db.call(txn, obj, "depositCash", &[Value::Int(100)])
        .unwrap();
    db.call(txn, obj, "withdrawCash", &[Value::Int(30)])
        .unwrap();
    let v = db.call(txn, obj, "check", &[]).unwrap();
    assert_eq!(v, Value::Int(70));
    db.commit(txn).unwrap();
    assert_eq!(db.peek_field(obj, "balance"), Some(Value::Int(70)));
}

#[test]
fn abort_rolls_back_fields() {
    let (mut db, txn, obj) = db_with_account();
    db.commit(txn).unwrap();
    let txn2 = db.begin();
    db.call(txn2, obj, "depositCash", &[Value::Int(500)])
        .unwrap();
    assert_eq!(db.peek_field(obj, "balance"), Some(Value::Int(500)));
    db.abort(txn2).unwrap();
    assert_eq!(db.peek_field(obj, "balance"), Some(Value::Int(0)));
}

#[test]
fn abort_removes_created_objects() {
    let mut db = Database::new();
    db.define_class(account_class()).unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "account", &[]).unwrap();
    db.abort(txn).unwrap();
    assert!(db.object(obj).is_none());
    let txn2 = db.begin();
    assert!(matches!(
        db.call(txn2, obj, "check", &[]),
        Err(OdeError::UnknownObject(_))
    ));
}

#[test]
fn abort_restores_deleted_objects() {
    let (mut db, txn, obj) = db_with_account();
    db.commit(txn).unwrap();
    let txn2 = db.begin();
    db.delete_object(txn2, obj).unwrap();
    assert!(db.object(obj).unwrap().deleted);
    db.abort(txn2).unwrap();
    assert!(!db.object(obj).unwrap().deleted);
}

#[test]
fn posting_order_within_a_call() {
    let (mut db, log, txn, obj) = tapped_account();
    db.call(txn, obj, "depositCash", &[Value::Int(1)]).unwrap();
    db.commit(txn).unwrap();
    let events: Vec<String> = log
        .lock()
        .unwrap()
        .iter()
        .filter(|(_, o, _)| *o == obj)
        .map(|(_, _, e)| e.to_string())
        .collect();
    // creation: tbegin, create; call: before access/update/method, then
    // after method/update/access; commit: tcomplete round + system
    // tcommit.
    let expected_prefix = vec![
        "after tbegin",
        "after create",
        "before access",
        "before update",
        "before depositCash",
        "after depositCash",
        "after update",
        "after access",
        "before tcomplete",
        "after tcommit",
    ];
    assert_eq!(events, expected_prefix);
}

#[test]
fn lock_conflicts_are_reported() {
    let (mut db, txn, obj) = db_with_account();
    db.commit(txn).unwrap();
    let t1 = db.begin();
    let t2 = db.begin();
    db.call(t1, obj, "check", &[]).unwrap();
    let err = db.call(t2, obj, "check", &[]).unwrap_err();
    assert!(matches!(err, OdeError::LockConflict { .. }));
    db.commit(t1).unwrap();
    // lock released: t2 can proceed now
    db.call(t2, obj, "check", &[]).unwrap();
    db.commit(t2).unwrap();
}

#[test]
fn trigger_fires_and_ordinary_deactivates() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger("once", false, "after poke", Action::Emit("poked".into()))
            .activate_on_create(&["once"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "watched", &[]).unwrap();
    db.call(txn, obj, "poke", &[]).unwrap();
    db.call(txn, obj, "poke", &[]).unwrap();
    db.commit(txn).unwrap();
    let fired = db.output().iter().filter(|l| l.contains("poked")).count();
    assert_eq!(fired, 1, "ordinary trigger must deactivate after firing");
    assert!(!db.object(obj).unwrap().triggers[0].active);
}

#[test]
fn perpetual_trigger_keeps_firing() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger("forever", true, "after poke", Action::Emit("poked".into()))
            .activate_on_create(&["forever"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "watched", &[]).unwrap();
    for _ in 0..3 {
        db.call(txn, obj, "poke", &[]).unwrap();
    }
    db.commit(txn).unwrap();
    assert_eq!(
        db.output().iter().filter(|l| l.contains("poked")).count(),
        3
    );
}

#[test]
fn trigger_t1_unauthorized_abort() {
    // Paper T1: perpetual before withdraw && !authorized(user()) ==> tabort
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("stockRoom")
            .field("qty", 100i64)
            .method("withdraw", MethodKind::Update, &["i", "q"], |ctx| {
                let qty = ctx.get_required("qty")?.as_int().unwrap_or(0);
                let q = ctx.arg(1)?.as_int().unwrap_or(0);
                ctx.set("qty", qty - q);
                Ok(Value::Null)
            })
            .mask_fn("authorized", |args, _| {
                let alice = matches!(args.first(), Some(Value::Str(s)) if s == "alice");
                Ok(Value::Bool(alice))
            })
            .trigger(
                "T1",
                true,
                "before withdraw && !authorized(user())",
                Action::Abort,
            )
            .activate_on_create(&["T1"])
            .build()
            .unwrap(),
    )
    .unwrap();

    // set up committed stock room as alice
    let setup = db.begin_as(Value::Str("alice".into()));
    let obj = db.create_object(setup, "stockRoom", &[]).unwrap();
    db.commit(setup).unwrap();

    // mallory's withdrawal aborts before the update happens
    let bad = db.begin_as(Value::Str("mallory".into()));
    let err = db
        .call(bad, obj, "withdraw", &[Value::Null, Value::Int(10)])
        .unwrap_err();
    assert!(matches!(err, OdeError::Aborted(_)), "{err}");
    assert_eq!(db.peek_field(obj, "qty"), Some(Value::Int(100)));

    // alice's goes through
    let good = db.begin_as(Value::Str("alice".into()));
    db.call(good, obj, "withdraw", &[Value::Null, Value::Int(10)])
        .unwrap();
    db.commit(good).unwrap();
    assert_eq!(db.peek_field(obj, "qty"), Some(Value::Int(90)));
}

#[test]
fn committed_monitoring_rolls_back_automaton_state() {
    // Event = relative(after poke, after poke): two pokes. First poke in
    // an aborted txn must NOT count (committed monitoring).
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger(
                "two",
                true,
                "relative(after poke, after poke)",
                Action::Emit("two pokes".into()),
            )
            .activate_on_create(&["two"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let setup = db.begin();
    let obj = db.create_object(setup, "watched", &[]).unwrap();
    db.commit(setup).unwrap();

    let t1 = db.begin();
    db.call(t1, obj, "poke", &[]).unwrap();
    db.abort(t1).unwrap();

    let t2 = db.begin();
    db.call(t2, obj, "poke", &[]).unwrap();
    db.commit(t2).unwrap();
    assert!(
        !db.output().iter().any(|l| l.contains("two pokes")),
        "aborted poke must not count toward the composite event"
    );

    let t3 = db.begin();
    db.call(t3, obj, "poke", &[]).unwrap();
    db.commit(t3).unwrap();
    assert!(db.output().iter().any(|l| l.contains("two pokes")));
}

#[test]
fn full_history_monitoring_keeps_aborted_events() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger(
                "two",
                true,
                "relative(after poke, after poke)",
                Action::Emit("two pokes".into()),
            )
            .full_history()
            .activate_on_create(&["two"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let setup = db.begin();
    let obj = db.create_object(setup, "watched", &[]).unwrap();
    db.commit(setup).unwrap();

    let t1 = db.begin();
    db.call(t1, obj, "poke", &[]).unwrap();
    db.abort(t1).unwrap();

    // Full-history: the aborted poke counts, so the second poke fires.
    let t2 = db.begin();
    db.call(t2, obj, "poke", &[]).unwrap();
    db.commit(t2).unwrap();
    assert!(db.output().iter().any(|l| l.contains("two pokes")));
}

#[test]
fn before_tcomplete_fixpoint_runs_actions_then_converges() {
    // A once-only trigger on before tcomplete: its action runs during
    // commit; the next round sees no firing and the commit completes.
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .field("finalized", false)
            .update_method("poke", &[])
            .method("finalize", MethodKind::Update, &[], |ctx| {
                ctx.set("finalized", true);
                Ok(Value::Null)
            })
            .trigger(
                "atCommit",
                false,
                "before tcomplete",
                Action::Call("finalize".into()),
            )
            .activate_on_create(&["atCommit"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let log = tap(&mut db);
    let txn = db.begin();
    let obj = db.create_object(txn, "watched", &[]).unwrap();
    db.call(txn, obj, "poke", &[]).unwrap();
    assert_eq!(db.peek_field(obj, "finalized"), Some(Value::Bool(false)));
    db.commit(txn).unwrap();
    assert_eq!(db.peek_field(obj, "finalized"), Some(Value::Bool(true)));
    // `before tcomplete` was posted at least twice (firing round + quiet
    // round).
    let tcompletes = tapped(&log, txn, obj)
        .iter()
        .filter(|e| **e == BasicEvent::before(EventKind::TComplete))
        .count();
    assert!(tcompletes >= 2, "got {tcompletes}");
}

#[test]
fn divergent_tcomplete_triggers_abort_the_txn() {
    // A perpetual trigger that pokes on every before tcomplete never
    // converges: the engine must abort with TCompleteDivergence.
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger(
                "diverge",
                true,
                "before tcomplete",
                Action::Call("poke".into()),
            )
            .activate_on_create(&["diverge"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let _obj = db.create_object(txn, "watched", &[]).unwrap();
    let err = db.commit(txn).unwrap_err();
    assert!(
        matches!(
            err,
            OdeError::Aborted(ode_db::AbortReason::TCompleteDivergence)
        ),
        "{err}"
    );
}

#[test]
fn after_tcommit_runs_in_system_transaction() {
    // immediate-dependent-ish: trigger on after tcommit, action emits.
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger(
                "postCommit",
                true,
                "fa(after poke, after tcommit, after tbegin)",
                Action::Emit("committed".into()),
            )
            .activate_on_create(&["postCommit"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "watched", &[]).unwrap();
    db.call(txn, obj, "poke", &[]).unwrap();
    assert!(!db.output().iter().any(|l| l.contains("committed")));
    db.commit(txn).unwrap();
    assert!(db.output().iter().any(|l| l.contains("committed")));
}

#[test]
fn after_tabort_event_fires_independent_couplings() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger(
                "either",
                true,
                "fa(after poke, after tcommit | after tabort, after tbegin)",
                Action::Emit("finished".into()),
            )
            .full_history() // must survive the abort rollback
            .activate_on_create(&["either"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let setup = db.begin();
    let obj = db.create_object(setup, "watched", &[]).unwrap();
    db.commit(setup).unwrap();

    let txn = db.begin();
    db.call(txn, obj, "poke", &[]).unwrap();
    db.abort(txn).unwrap();
    assert!(
        db.output().iter().any(|l| l.contains("finished")),
        "output: {:?}",
        db.output()
    );
}

#[test]
fn cascade_overflow_aborts() {
    // Trigger whose action re-pokes, perpetually: infinite cascade.
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger("loop", true, "after poke", Action::Call("poke".into()))
            .activate_on_create(&["loop"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "watched", &[]).unwrap();
    let err = db.call(txn, obj, "poke", &[]).unwrap_err();
    assert!(
        matches!(err, OdeError::Aborted(ode_db::AbortReason::CascadeOverflow)),
        "{err}"
    );
}

#[test]
fn time_events_fire_through_virtual_clock() {
    use ode_core::event::calendar;
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("daily")
            .trigger(
                "dayEnd",
                true,
                "at time(HR=17)",
                Action::Emit("summary".into()),
            )
            .activate_on_create(&["dayEnd"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let _obj = db.create_object(txn, "daily", &[]).unwrap();
    db.commit(txn).unwrap();

    db.advance_clock_to(2 * calendar::DAY);
    let fired = db.output().iter().filter(|l| l.contains("summary")).count();
    assert_eq!(fired, 2, "daily 17:00 over two days fires twice");
}

#[test]
fn after_time_fires_once_after_activation() {
    use ode_core::event::calendar;
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("delayed")
            .trigger(
                "later",
                true,
                "after time(HR=2, M=30)",
                Action::Emit("ding".into()),
            )
            .activate_on_create(&["later"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    db.create_object(txn, "delayed", &[]).unwrap();
    db.commit(txn).unwrap();
    db.advance_clock_by(2 * calendar::HR);
    assert!(db.output().iter().all(|l| !l.contains("ding")));
    db.advance_clock_by(calendar::HR);
    assert_eq!(db.output().iter().filter(|l| l.contains("ding")).count(), 1);
    db.advance_clock_by(calendar::DAY);
    assert_eq!(db.output().iter().filter(|l| l.contains("ding")).count(), 1);
}

#[test]
fn every_time_fires_periodically() {
    use ode_core::event::calendar;
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("periodic")
            .trigger(
                "tick",
                true,
                "every time(M=15)",
                Action::Emit("tick".into()),
            )
            .activate_on_create(&["tick"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    db.create_object(txn, "periodic", &[]).unwrap();
    db.commit(txn).unwrap();
    db.advance_clock_by(calendar::HR);
    assert_eq!(db.output().iter().filter(|l| l.contains("tick")).count(), 4);
}

#[test]
fn trigger_reactivation_restarts_monitoring() {
    // T2-style: ordinary trigger whose action reactivates itself.
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("watched")
            .update_method("poke", &[])
            .trigger(
                "selfheal",
                false,
                "after poke",
                Action::Native(std::sync::Arc::new(|ctx| {
                    ctx.emit("fired");
                    ctx.activate("selfheal", &[])
                })),
            )
            .activate_on_create(&["selfheal"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "watched", &[]).unwrap();
    for _ in 0..3 {
        db.call(txn, obj, "poke", &[]).unwrap();
    }
    db.commit(txn).unwrap();
    assert_eq!(
        db.output().iter().filter(|l| l.contains("fired")).count(),
        3
    );
}

#[test]
fn in_txn_helper_commits_and_aborts() {
    let mut db = Database::new();
    db.define_class(account_class()).unwrap();
    let obj = db
        .in_txn(|db, txn| db.create_object(txn, "account", &[]))
        .unwrap();
    assert!(db.object(obj).is_some());

    let r: Result<(), OdeError> = db.in_txn(|db, txn| {
        db.call(txn, obj, "depositCash", &[Value::Int(9)])?;
        Err(OdeError::Method("boom".into()))
    });
    assert!(r.is_err());
    assert_eq!(db.peek_field(obj, "balance"), Some(Value::Int(0)));
}

#[test]
fn stats_accumulate() {
    let (mut db, txn, obj) = db_with_account();
    db.call(txn, obj, "depositCash", &[Value::Int(1)]).unwrap();
    db.commit(txn).unwrap();
    let s = db.stats();
    assert!(s.events_posted >= 10);
    assert_eq!(s.txns_committed, 1);
    assert_eq!(s.txns_aborted, 0);
}

#[test]
fn wrong_arity_and_unknown_names_error_cleanly() {
    let (mut db, txn, obj) = db_with_account();
    assert!(matches!(
        db.call(txn, obj, "depositCash", &[]),
        Err(OdeError::WrongArgCount { .. })
    ));
    assert!(matches!(
        db.call(txn, obj, "nope", &[]),
        Err(OdeError::UnknownMethod { .. })
    ));
    assert!(matches!(
        db.activate_trigger(txn, obj, "nope", &[]),
        Err(OdeError::UnknownTrigger { .. })
    ));
    db.commit(txn).unwrap();
    let bad_txn = TxnId(9999);
    assert!(matches!(
        db.call(bad_txn, obj, "check", &[]),
        Err(OdeError::UnknownTxn(_))
    ));
}

// ------------------------------------------------ committed postings
//
// Objects keep no record of their postings; the event tap delivers a
// transaction's postings when it commits and never when it aborts.
// These cases pin that at the commit/abort edges.

#[test]
fn abort_behind_a_later_commit_delivers_only_the_commit() {
    let (mut db, log, setup, obj) = tapped_account();
    db.commit(setup).unwrap();
    let t1 = db.begin();
    let t2 = db.begin();
    db.call(t2, obj, "depositCash", &[Value::Int(5)]).unwrap();
    db.commit(t2).unwrap();
    db.call(t1, obj, "depositCash", &[Value::Int(7)]).unwrap();
    db.abort(t1).unwrap();

    assert!(tapped(&log, t1, obj).is_empty());
    assert!(tapped(&log, t2, obj).contains(&BasicEvent::after_method("depositCash")));
    assert_eq!(db.peek_field(obj, "balance"), Some(Value::Int(5)));
}

#[test]
fn trigger_abort_inside_tcomplete_fixpoint_delivers_nothing() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("guarded")
            .field("n", 0i64)
            .method("poke", MethodKind::Update, &[], |ctx| {
                let n = ctx.get_required("n")?.as_int().unwrap_or(0);
                ctx.set("n", n + 1);
                Ok(Value::Null)
            })
            .trigger("veto", false, "before tcomplete", Action::Abort)
            .build()
            .unwrap(),
    )
    .unwrap();
    let log = tap(&mut db);
    let setup = db.begin();
    let obj = db.create_object(setup, "guarded", &[]).unwrap();
    db.commit(setup).unwrap();

    let t = db.begin();
    db.call(t, obj, "poke", &[]).unwrap();
    db.activate_trigger(t, obj, "veto", &[]).unwrap();
    let err = db.commit(t).unwrap_err();
    assert!(
        matches!(
            err,
            OdeError::Aborted(ode_db::AbortReason::TriggerAbort { .. })
        ),
        "{err}"
    );
    assert!(tapped(&log, t, obj).is_empty());
    assert!(!tapped(&log, setup, obj).is_empty());
    assert_eq!(db.peek_field(obj, "n"), Some(Value::Int(0)));
}

#[test]
fn prepare_then_commit_sharded_delivers_at_commit() {
    let (mut db, log, setup, obj) = tapped_account();
    db.commit(setup).unwrap();
    let t = db.begin();
    db.call(t, obj, "depositCash", &[Value::Int(3)]).unwrap();
    db.prepare(t).unwrap();
    assert!(tapped(&log, t, obj).is_empty());
    db.commit_sharded(t, 1, &[0, 1]).unwrap();
    assert!(tapped(&log, t, obj).contains(&BasicEvent::before(EventKind::TComplete)));
    assert_eq!(db.gtxn_floor(), 1);
}

#[test]
fn object_created_by_the_committing_txn_is_covered() {
    let (mut db, log, setup, first) = tapped_account();
    db.commit(setup).unwrap();
    let t = db.begin();
    db.call(t, first, "depositCash", &[Value::Int(1)]).unwrap();
    let fresh = db.create_object(t, "account", &[]).unwrap();
    db.call(t, fresh, "depositCash", &[Value::Int(2)]).unwrap();
    db.commit(t).unwrap();
    let fresh_events = tapped(&log, t, fresh);
    assert!(fresh_events.contains(&BasicEvent::after(EventKind::Create)));
    assert!(fresh_events.contains(&BasicEvent::after_method("depositCash")));
}
