//! The paper's Section 3.5 `stockRoom` example, packaged for reuse by
//! integration tests, the examples and the benchmarks (experiments E2
//! and E7).
//!
//! The class, with triggers T1–T8, is written once, as data:
//! [`paper_stockroom_spec`] is a [`ClassSpec`] and [`stockroom_class`]
//! compiles it. `examples/stockroom.rs` annotates it against the paper
//! and drives it through two simulated days; this module also provides
//! the transaction helpers that workload uses.

use std::sync::Arc;

use ode_core::Value;
use parking_lot::Mutex;

use crate::class::ClassDef;
use crate::engine::Database;
use crate::error::OdeError;
use crate::ids::ObjectId;
use crate::oplog::LogOp;
use crate::spec::{
    compile_class, ActionSpec, ClassSpec, FieldSpec, MaskFnSpec, MethodOp, MethodSpec, TriggerSpec,
};

/// The `stockRoom` class of Section 3.5 with triggers T1–T8, as a
/// [`ClassSpec`]. Stock lives in the `items` record; `reorder(i)` is
/// each item's economic order quantity (bolt 50, gear 20, else 10); only
/// `alice` and `bob` are authorized to withdraw.
pub fn paper_stockroom_spec() -> ClassSpec {
    let names = |list: &[&str]| list.iter().map(|n| n.to_string()).collect::<Vec<_>>();
    let method = |name: &str, update: bool, params: &[&str], body: Vec<MethodOp>| MethodSpec {
        name: name.into(),
        update,
        params: names(params),
        body,
    };
    let adjust = |op: &str| {
        vec![
            MethodOp::Require {
                expr: r#"type(i) == "string""#.into(),
                message: "bad item {i}".into(),
            },
            MethodOp::Set {
                field: "items".into(),
                expr: format!("put(items, i, get(items, i, 0) {op} q)"),
            },
        ]
    };
    let emit = |text: &str| MethodOp::Emit { text: text.into() };
    let mask = |name: &str, param: &str, expr: &str| MaskFnSpec {
        name: name.into(),
        params: names(&[param]),
        expr: expr.into(),
    };
    let trigger = |name: &str, perpetual: bool, event: &str, action: ActionSpec| TriggerSpec {
        name: name.into(),
        perpetual,
        event: event.into(),
        action,
        capture: false,
        full_history: false,
    };
    let call = |method: &str| ActionSpec::Call(method.into());
    ClassSpec {
        name: "stockRoom".into(),
        fields: vec![
            FieldSpec {
                name: "items".into(),
                default: Value::record([
                    ("bolt", Value::Int(500)),
                    ("gear", Value::Int(100)),
                    ("shim", Value::Int(30)),
                ]),
            },
            FieldSpec {
                name: "ops".into(),
                default: Value::Int(0),
            },
        ],
        methods: vec![
            method("deposit", true, &["i", "q"], adjust("+")),
            method("withdraw", true, &["i", "q"], adjust("-")),
            method("order", true, &["i"], vec![emit("order({i})")]),
            method("log", true, &[], vec![emit("log()")]),
            method("printLog", false, &[], vec![emit("printLog()")]),
            method("report", false, &[], vec![emit("report()")]),
            method("summary", false, &[], vec![emit("summary()")]),
            method(
                "updateAverages",
                true,
                &[],
                vec![
                    MethodOp::Set {
                        field: "ops".into(),
                        expr: "ops + 1".into(),
                    },
                    emit("updateAverages()"),
                ],
            ),
        ],
        masks: vec![
            mask("authorized", "u", r#"u == "alice" || u == "bob""#),
            mask("stock", "i", "get(items, i)"),
            mask(
                "reorder",
                "i",
                r#"ifelse(i == "bolt", 50, ifelse(i == "gear", 20, 10))"#,
            ),
        ],
        triggers: vec![
            trigger(
                "T1",
                true,
                "before withdraw && !authorized(user())",
                ActionSpec::Abort,
            ),
            // Ordinary: the action reactivates it after placing the order.
            trigger(
                "T2",
                false,
                "after withdraw(i, q) && stock(i) < reorder(i)",
                ActionSpec::Seq(vec![
                    ActionSpec::CallWithEventArgsAt {
                        method: "order".into(),
                        positions: vec![0],
                    },
                    ActionSpec::Reactivate,
                ]),
            ),
            trigger("T3", true, "at time(HR=17)", call("summary")),
            trigger(
                "T4",
                true,
                "relative(at time(HR=9), \
                 prior(choose 5 (after tcommit), after tcommit) \
                 & !prior(at time(HR=9), after tcommit))",
                call("report"),
            ),
            trigger("T5", true, "every 5 (after access)", call("updateAverages")),
            trigger("T6", true, "after withdraw(i, q) && q > 100", call("log")),
            trigger(
                "T7",
                true,
                "fa(at time(HR=9), choose 5 (after withdraw(i, q) && q > 100), at time(HR=9))",
                call("summary"),
            ),
            trigger(
                "T8",
                true,
                "after deposit; before withdraw; after withdraw",
                call("printLog"),
            ),
        ],
        activate_on_create: names(&["T1", "T2", "T3", "T4", "T5", "T6", "T7", "T8"]),
    }
}

/// Compile [`paper_stockroom_spec`]: the `stockRoom` class with
/// triggers T1–T8 (Section 3.5).
pub fn stockroom_class() -> ClassDef {
    compile_class(&paper_stockroom_spec()).expect("stockRoom class builds")
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
