//! The paper's Section 3.5 `stockRoom` example, packaged for reuse by
//! integration tests and the benchmark harness (experiments E2 and E7).
//!
//! The runnable, annotated version lives in `examples/stockroom.rs`; this
//! module builds the same class (triggers T1–T8) and provides a scripted
//! day-cycle workload driver.

use std::sync::Arc;

use ode_core::{parse_event, Value};
use parking_lot::Mutex;

use crate::class::{Action, ClassDef, MethodKind};
use crate::engine::Database;
use crate::error::OdeError;
use crate::ids::ObjectId;
use crate::oplog::LogOp;

/// Economic order quantity per item (trigger T2's threshold).
pub fn eoq(item: &str) -> i64 {
    match item {
        "bolt" => 50,
        "gear" => 20,
        _ => 10,
    }
}

/// Build the `stockRoom` class with triggers T1–T8 (Section 3.5).
pub fn stockroom_class() -> ClassDef {
    ClassDef::builder("stockRoom")
        .field(
            "items",
            Value::record([
                ("bolt", Value::Int(500)),
                ("gear", Value::Int(100)),
                ("shim", Value::Int(30)),
            ]),
        )
        .field("ops", 0i64)
        .method("deposit", MethodKind::Update, &["i", "q"], |ctx| {
            adjust_item(ctx, 1)
        })
        .method("withdraw", MethodKind::Update, &["i", "q"], |ctx| {
            adjust_item(ctx, -1)
        })
        .method("order", MethodKind::Update, &["i"], |ctx| {
            let item = ctx.arg(0)?;
            ctx.emit(format!("order({item})"));
            Ok(Value::Null)
        })
        .method("log", MethodKind::Update, &[], |ctx| {
            ctx.emit("log()".to_string());
            Ok(Value::Null)
        })
        .method("printLog", MethodKind::Read, &[], |ctx| {
            ctx.emit("printLog()".to_string());
            Ok(Value::Null)
        })
        .method("report", MethodKind::Read, &[], |ctx| {
            ctx.emit("report()".to_string());
            Ok(Value::Null)
        })
        .method("summary", MethodKind::Read, &[], |ctx| {
            ctx.emit("summary()".to_string());
            Ok(Value::Null)
        })
        .method("updateAverages", MethodKind::Update, &[], |ctx| {
            let ops = ctx.get_required("ops")?.as_int().unwrap_or(0);
            ctx.set("ops", ops + 1);
            ctx.emit("updateAverages()".to_string());
            Ok(Value::Null)
        })
        .mask_fn("authorized", |_ctx, args| {
            let user = args.first()?;
            Some(Value::Bool(matches!(
                user,
                Value::Str(s) if s == "alice" || s == "bob"
            )))
        })
        .mask_fn("stock", |ctx, args| {
            let item = match args.first()? {
                Value::Str(s) => s.clone(),
                _ => return None,
            };
            ctx.fields.get("items")?.member(&item).cloned()
        })
        .mask_fn("reorder", |_ctx, args| {
            let item = match args.first()? {
                Value::Str(s) => s.clone(),
                _ => return None,
            };
            Some(Value::Int(eoq(&item)))
        })
        .trigger(
            "T1",
            true,
            "before withdraw && !authorized(user())",
            Action::Abort,
        )
        .trigger_expr(
            "T2",
            false,
            parse_event("after withdraw(i, q) && stock(i) < reorder(i)").unwrap(),
            Action::Native(Arc::new(|ctx| {
                let item = ctx.event_args().first().cloned().unwrap_or(Value::Null);
                ctx.call("order", &[item])?;
                ctx.activate("T2", &[])
            })),
        )
        .trigger("T3", true, "at time(HR=17)", Action::Call("summary".into()))
        .trigger(
            "T4",
            true,
            "relative(at time(HR=9), \
             prior(choose 5 (after tcommit), after tcommit) \
             & !prior(at time(HR=9), after tcommit))",
            Action::Call("report".into()),
        )
        .trigger(
            "T5",
            true,
            "every 5 (after access)",
            Action::Call("updateAverages".into()),
        )
        .trigger(
            "T6",
            true,
            "after withdraw(i, q) && q > 100",
            Action::Call("log".into()),
        )
        .trigger(
            "T7",
            true,
            "fa(at time(HR=9), choose 5 (after withdraw(i, q) && q > 100), at time(HR=9))",
            Action::Call("summary".into()),
        )
        .trigger(
            "T8",
            true,
            "after deposit; before withdraw; after withdraw",
            Action::Call("printLog".into()),
        )
        .activate_on_create(&["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"])
        .build()
        .expect("stockRoom class builds")
}

fn adjust_item(ctx: &mut crate::class::MethodCtx<'_>, sign: i64) -> Result<Value, OdeError> {
    let item = match ctx.arg(0)? {
        Value::Str(s) => s,
        other => return Err(OdeError::Method(format!("bad item {other}"))),
    };
    let q = ctx.arg(1)?.as_int().unwrap_or(0);
    let mut items = match ctx.get_required("items")? {
        Value::Record(m) => m,
        _ => return Err(OdeError::Method("items must be a record".into())),
    };
    let cur = items.get(&item).and_then(Value::as_int).unwrap_or(0);
    items.insert(item, Value::Int(cur + sign * q));
    ctx.set("items", Value::Record(items));
    Ok(Value::Null)
}

/// One withdrawal transaction by `user`. Returns `Ok(false)` if it was
/// aborted (e.g. by trigger T1), `Ok(true)` on commit.
pub fn withdraw_txn(
    db: &mut Database,
    user: &str,
    room: ObjectId,
    item: &str,
    q: i64,
) -> Result<bool, OdeError> {
    let txn = db.begin_as(Value::Str(user.into()));
    let r = db
        .call(
            txn,
            room,
            "withdraw",
            &[Value::Str(item.into()), Value::Int(q)],
        )
        .and_then(|_| db.commit(txn));
    match r {
        Ok(()) => Ok(true),
        Err(OdeError::Aborted(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// One deposit-then-withdraw transaction (drives trigger T8).
pub fn deposit_withdraw_txn(
    db: &mut Database,
    user: &str,
    room: ObjectId,
    item: &str,
    q: i64,
) -> Result<bool, OdeError> {
    let txn = db.begin_as(Value::Str(user.into()));
    let r = db
        .call(
            txn,
            room,
            "deposit",
            &[Value::Str(item.into()), Value::Int(q)],
        )
        .and_then(|_| {
            db.call(
                txn,
                room,
                "withdraw",
                &[Value::Str(item.into()), Value::Int(q)],
            )
        })
        .and_then(|_| db.commit(txn));
    match r {
        Ok(()) => Ok(true),
        Err(OdeError::Aborted(_)) => Ok(false),
        Err(e) => Err(e),
    }
}

/// Install a log sink on `db` that collects every op it logs from now
/// on, replacing any sink installed before: an in-memory op log to
/// [`crate::replay`] or compare against a WAL.
pub fn record_ops(db: &mut Database) -> Arc<Mutex<Vec<LogOp>>> {
    let ops = Arc::new(Mutex::new(Vec::new()));
    let sink = Arc::clone(&ops);
    db.set_log_sink(Some(Arc::new(move |op: &LogOp| {
        sink.lock().push(op.clone())
    })));
    ops
}

/// Set up a database with one stock room, committed.
pub fn setup() -> (Database, ObjectId) {
    let mut db = Database::new();
    db.define_class(stockroom_class()).expect("class defines");
    let txn = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(txn, "stockRoom", &[]).expect("creates");
    db.commit(txn).expect("commits");
    db.take_output();
    (db, room)
}
