//! Engine edge cases: deletion semantics, timers of deleted objects,
//! cross-object trigger actions, and error surfaces.

use std::sync::{Arc, Mutex};

use ode_core::event::calendar;
use ode_core::{BasicEvent, EventKind, Value};
use ode_db::{Action, ClassDef, Database, MethodKind, ObjectId, OdeError};

fn timed_class() -> ClassDef {
    ClassDef::builder("timed")
        .update_method("poke", &[])
        .trigger(
            "tick",
            true,
            "every time(M=10)",
            Action::Emit("tick".into()),
        )
        .activate_on_create(&["tick"])
        .build()
        .unwrap()
}

#[test]
fn calls_on_deleted_objects_fail() {
    let mut db = Database::new();
    db.define_class(timed_class()).unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "timed", &[]).unwrap();
    db.delete_object(txn, obj).unwrap();
    let err = db.call(txn, obj, "poke", &[]).unwrap_err();
    assert!(matches!(err, OdeError::ObjectDeleted(_)), "{err}");
    db.commit(txn).unwrap();
    // still deleted after commit
    let txn2 = db.begin();
    assert!(matches!(
        db.call(txn2, obj, "poke", &[]),
        Err(OdeError::ObjectDeleted(_))
    ));
    db.abort(txn2).unwrap();
}

#[test]
fn committed_deletion_cancels_timers() {
    let mut db = Database::new();
    db.define_class(timed_class()).unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "timed", &[]).unwrap();
    db.commit(txn).unwrap();

    db.advance_clock_by(25 * calendar::MIN);
    let before = db.output().iter().filter(|l| l.contains("tick")).count();
    assert_eq!(before, 2);

    let txn = db.begin();
    db.delete_object(txn, obj).unwrap();
    db.commit(txn).unwrap();

    db.advance_clock_by(60 * calendar::MIN);
    let after = db.output().iter().filter(|l| l.contains("tick")).count();
    assert_eq!(after, before, "no ticks after committed deletion");
}

#[test]
fn aborted_deletion_keeps_timers_alive() {
    let mut db = Database::new();
    db.define_class(timed_class()).unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "timed", &[]).unwrap();
    db.commit(txn).unwrap();

    let txn = db.begin();
    db.delete_object(txn, obj).unwrap();
    db.abort(txn).unwrap();

    db.advance_clock_by(25 * calendar::MIN);
    let ticks = db.output().iter().filter(|l| l.contains("tick")).count();
    assert_eq!(ticks, 2, "the un-deleted object keeps ticking");
}

#[test]
fn trigger_action_touching_a_second_object() {
    // A trigger on `primary` whose action pokes `mirror`; the mirror's
    // own trigger then fires — a two-object cascade within one txn.
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("mirror")
            .update_method("reflect", &[])
            .trigger(
                "seen",
                true,
                "after reflect",
                Action::Emit("reflected".into()),
            )
            .activate_on_create(&["seen"])
            .build()
            .unwrap(),
    )
    .unwrap();
    db.define_class(
        ClassDef::builder("primary")
            .update_method("poke", &[])
            .trigger(
                "relay",
                true,
                "after poke",
                Action::Native(Arc::new(|ctx| {
                    let mirror_id = ctx
                        .field("mirror")
                        .and_then(|v| v.as_int())
                        .expect("mirror field");
                    ctx.call_on(ObjectId(mirror_id as u64), "reflect", &[])?;
                    Ok(())
                })),
            )
            .field("mirror", 0i64)
            .activate_on_create(&["relay"])
            .build()
            .unwrap(),
    )
    .unwrap();

    let tcommits: Arc<Mutex<Vec<ObjectId>>> = Arc::default();
    let sink = Arc::clone(&tcommits);
    db.set_event_tap(Some(Arc::new(move |_, _, events| {
        let mut sink = sink.lock().unwrap();
        sink.extend(
            events
                .iter()
                .filter(|e| e.basic == BasicEvent::after(EventKind::TCommit))
                .map(|e| e.object),
        );
    })));
    let txn = db.begin();
    let mirror = db.create_object(txn, "mirror", &[]).unwrap();
    let primary = db
        .create_object(txn, "primary", &[("mirror", Value::Int(mirror.0 as i64))])
        .unwrap();
    db.call(txn, primary, "poke", &[]).unwrap();
    db.commit(txn).unwrap();
    assert!(db.output().iter().any(|l| l.contains("reflected")));

    // Both objects were accessed by the transaction, so both got the
    // after-tcommit posting.
    let mut tcommits = tcommits.lock().unwrap().clone();
    tcommits.sort();
    assert_eq!(tcommits, [mirror, primary]);
}

#[test]
fn cross_object_abort_rolls_both_back() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("cell")
            .field("v", 0i64)
            .method("set", MethodKind::Update, &["x"], |ctx| {
                let x = ctx.arg(0)?;
                ctx.set("v", x);
                Ok(Value::Null)
            })
            .build()
            .unwrap(),
    )
    .unwrap();
    let setup = db.begin();
    let a = db.create_object(setup, "cell", &[]).unwrap();
    let b = db.create_object(setup, "cell", &[]).unwrap();
    db.commit(setup).unwrap();

    let txn = db.begin();
    db.call(txn, a, "set", &[Value::Int(1)]).unwrap();
    db.call(txn, b, "set", &[Value::Int(2)]).unwrap();
    db.abort(txn).unwrap();
    assert_eq!(db.peek_field(a, "v"), Some(Value::Int(0)));
    assert_eq!(db.peek_field(b, "v"), Some(Value::Int(0)));
}

#[test]
fn double_commit_and_double_abort_error() {
    let mut db = Database::new();
    db.define_class(timed_class()).unwrap();
    let txn = db.begin();
    db.commit(txn).unwrap();
    assert!(matches!(db.commit(txn), Err(OdeError::UnknownTxn(_))));
    assert!(matches!(db.abort(txn), Err(OdeError::UnknownTxn(_))));
}

#[test]
fn method_errors_do_not_poison_the_txn() {
    // A method body error surfaces but the transaction can continue
    // (O++ semantics: the call failed; the application decides).
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("picky")
            .field("n", 0i64)
            .method("must_be_positive", MethodKind::Update, &["x"], |ctx| {
                let x = ctx.arg(0)?.as_int().unwrap_or(0);
                if x <= 0 {
                    return Err(OdeError::Method("not positive".into()));
                }
                ctx.set("n", x);
                Ok(Value::Null)
            })
            .build()
            .unwrap(),
    )
    .unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "picky", &[]).unwrap();
    assert!(db
        .call(txn, obj, "must_be_positive", &[Value::Int(-1)])
        .is_err());
    db.call(txn, obj, "must_be_positive", &[Value::Int(7)])
        .unwrap();
    db.commit(txn).unwrap();
    assert_eq!(db.peek_field(obj, "n"), Some(Value::Int(7)));
}

#[test]
fn output_log_helpers() {
    let mut db = Database::new();
    db.emit("hello");
    db.emit("world");
    assert_eq!(db.output().len(), 2);
    let drained = db.take_output();
    assert_eq!(drained, vec!["hello".to_string(), "world".to_string()]);
    assert!(db.output().is_empty());
}

#[test]
fn objects_iterator_skips_deleted() {
    let mut db = Database::new();
    db.define_class(timed_class()).unwrap();
    let txn = db.begin();
    let a = db.create_object(txn, "timed", &[]).unwrap();
    let _b = db.create_object(txn, "timed", &[]).unwrap();
    db.delete_object(txn, a).unwrap();
    db.commit(txn).unwrap();
    assert_eq!(db.objects().count(), 1);
}
