//! A banking scenario exercising the library's extension features on top
//! of the paper's core model:
//!
//! * **class inheritance** — `savings` extends `account`, inheriting its
//!   audit trigger and overriding `deposit`;
//! * **parameter capture** (§9 future work) — a suspicious-pattern
//!   trigger reports the amounts of *both* constituent events;
//! * **counting without a history** (§4) — a velocity check fires on the
//!   fourth withdrawal and every later one with `relative 4`, and a
//!   `withdrawals` field counts committed withdrawals (rolled back with
//!   the rest of an aborted transaction's writes);
//! * **database-scope events** (§3) — a schema trigger watches object
//!   creation across the whole bank.
//!
//! Run with `cargo run --example banking`.

use std::sync::Arc;

use ode_core::{parse_event, BasicEvent, Value};
use ode_db::{Action, ClassDef, Database, MethodKind, OdeError, SchemaTrigger};

fn account_class() -> ClassDef {
    ClassDef::builder("account")
        .field("balance", 0i64)
        .field("withdrawals", 0i64)
        .method("deposit", MethodKind::Update, &["amt"], |ctx| {
            let b = ctx.get_required("balance")?.as_int().unwrap_or(0);
            ctx.set("balance", b + ctx.arg(0)?.as_int().unwrap_or(0));
            Ok(Value::Null)
        })
        .method("withdraw", MethodKind::Update, &["amt"], |ctx| {
            let b = ctx.get_required("balance")?.as_int().unwrap_or(0);
            let amt = ctx.arg(0)?.as_int().unwrap_or(0);
            if amt > b {
                return Err(OdeError::Method("insufficient funds".into()));
            }
            ctx.set("balance", b - amt);
            let n = ctx.get_required("withdrawals")?.as_int().unwrap_or(0);
            ctx.set("withdrawals", n + 1);
            Ok(Value::Null)
        })
        // inherited by every account type: audit large movements
        .trigger(
            "audit",
            true,
            "after withdraw(amt) && amt > 500",
            Action::Emit("AUDIT: large withdrawal".into()),
        )
        // velocity check: the fourth withdrawal and every later one
        .trigger(
            "velocity",
            true,
            "relative 4 (after withdraw)",
            Action::Emit("VELOCITY: frequent withdrawals".into()),
        )
        // §9 capture: a large deposit immediately followed by a large
        // withdrawal smells like layering; report both amounts.
        .trigger_expr(
            "layering",
            true,
            parse_event("after deposit(amt) && amt > 1000; after withdraw(amt) && amt > 1000")
                .unwrap(),
            Action::Native(Arc::new(|ctx| {
                let deposited = ctx
                    .captured(&BasicEvent::after_method("deposit"))
                    .and_then(|a| a.first().cloned())
                    .unwrap_or(Value::Null);
                let withdrawn = ctx.event_args().first().cloned().unwrap_or(Value::Null);
                ctx.emit(format!(
                    "LAYERING? deposited {deposited} then immediately withdrew {withdrawn}"
                ));
                Ok(())
            })),
        )
        .capture_params()
        .activate_on_create(&["audit", "velocity", "layering"])
        .build()
        .expect("account builds")
}

fn savings_class() -> ClassDef {
    ClassDef::builder("savings")
        .extends("account")
        .field("rate_bp", 150i64) // basis points
        // override: deposits earn an immediate 1% bonus
        .method("deposit", MethodKind::Update, &["amt"], |ctx| {
            let b = ctx.get_required("balance")?.as_int().unwrap_or(0);
            let amt = ctx.arg(0)?.as_int().unwrap_or(0);
            ctx.set("balance", b + amt + amt / 100);
            Ok(Value::Null)
        })
        .build()
        .expect("savings builds")
}

fn main() {
    let mut db = Database::new();

    // Database-scope trigger: watch the account population.
    db.define_schema_trigger(
        SchemaTrigger::new(
            "census",
            true,
            &parse_event("every 2 (after createObject)").unwrap(),
            Arc::new(|ctx| {
                ctx.emit("CENSUS: another two accounts opened".to_string());
                Ok(())
            }),
        )
        .unwrap(),
    );

    db.define_class(account_class()).unwrap();
    db.define_class(savings_class()).unwrap();

    let txn = db.begin_as(Value::Str("teller".into()));
    let checking = db
        .create_object(txn, "account", &[("balance", Value::Int(100))])
        .unwrap();
    let savings = db
        .create_object(txn, "savings", &[("balance", Value::Int(100))])
        .unwrap();
    db.commit(txn).unwrap();

    // Normal activity on the savings account (inherits all triggers).
    let txn = db.begin_as(Value::Str("alice".into()));
    db.call(txn, savings, "deposit", &[Value::Int(2000)])
        .unwrap(); // +1% bonus
    db.call(txn, savings, "withdraw", &[Value::Int(1500)])
        .unwrap(); // layering + audit
    db.commit(txn).unwrap();

    // Rapid-fire withdrawals on checking: velocity trigger.
    let txn = db.begin_as(Value::Str("bob".into()));
    for _ in 0..4 {
        db.call(txn, checking, "withdraw", &[Value::Int(10)])
            .unwrap();
    }
    db.commit(txn).unwrap();

    // A failed withdrawal aborts nothing by itself (method error).
    let txn = db.begin_as(Value::Str("bob".into()));
    match db.call(txn, checking, "withdraw", &[Value::Int(10_000)]) {
        Err(e) => println!("rejected as expected: {e}"),
        Ok(_) => unreachable!(),
    }
    db.abort(txn).unwrap();

    println!(
        "\nbalances: checking = {}, savings = {}",
        db.peek_field(checking, "balance").unwrap(),
        db.peek_field(savings, "balance").unwrap()
    );

    println!("\ntrigger output:");
    for line in db.output() {
        println!("  {line}");
    }

    println!(
        "\ncommitted withdrawals on checking: {}",
        db.peek_field(checking, "withdrawals").unwrap()
    );
}
