//! The paper's Section 3.5 worked example: `class stockRoom` with all
//! eight triggers T1–T8, driven through a simulated two-day workload.
//!
//! ```text
//! #define dayBegin   at time(HR=9)
//! #define dayEnd     at time(HR=17)
//! #define 5thLrgWdrl choose 5 (after withdraw(i, q) && q > 100)
//!
//! T1: perpetual before withdraw && !authorized(user())          ==> tabort
//! T2:           after withdraw(i, q) && stock(i) < reorder(i)   ==> order(i)
//! T3: perpetual dayEnd                                          ==> summary()
//! T4: perpetual relative(dayBegin,
//!         prior(choose 5 (after tcommit), after tcommit)
//!         & !prior(dayBegin, after tcommit))                    ==> report()
//! T5: perpetual every 5 (after access)                          ==> updateAverages()
//! T6: perpetual after withdraw(i, q) && q > 100                 ==> log()
//! T7: perpetual fa(dayBegin, 5thLrgWdrl, dayBegin)              ==> summary()
//! T8: perpetual after deposit; before withdraw; after withdraw  ==> printLog()
//! ```
//!
//! (One adaptation: the paper's T2 mask reads `i.balance < reorder(i)`;
//! here the stock level lives in the object, so the mask calls the
//! registered function `stock(i)` — same evaluation-time semantics,
//! "evaluated as of the time at which the basic event occurred".)
//!
//! The class is written once, as data: `ode_db::demo::paper_stockroom_spec`
//! is the `ClassSpec` above (fields, methods, the three mask functions
//! and the eight triggers, each event in the paper's text), and
//! `demo::stockroom_class` compiles it. Each action method prints its
//! own name, e.g. `order("shim")`, `log()`, `summary()`.
//!
//! Run with `cargo run --example stockroom`.

use ode_core::event::calendar;
use ode_core::Value;
use ode_db::demo::stockroom_class;
use ode_db::{Database, ObjectId};

fn txn_withdraw(db: &mut Database, user: &str, room: ObjectId, item: &str, q: i64) {
    let txn = db.begin_as(Value::Str(user.into()));
    let result = db
        .call(
            txn,
            room,
            "withdraw",
            &[Value::Str(item.into()), Value::Int(q)],
        )
        .and_then(|_| db.commit(txn));
    match result {
        Ok(()) => println!("  {user} withdrew {q} {item}"),
        Err(e) => println!("  {user} withdrawing {q} {item} failed: {e}"),
    }
}

fn txn_deposit_withdraw(db: &mut Database, user: &str, room: ObjectId, item: &str, q: i64) {
    let txn = db.begin_as(Value::Str(user.into()));
    let result = db
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
    match result {
        Ok(()) => println!("  {user} deposited then withdrew {q} {item}"),
        Err(e) => println!("  {user} deposit/withdraw of {item} failed: {e}"),
    }
}

fn main() {
    let mut db = Database::new();
    db.define_class(stockroom_class()).unwrap();

    let setup = db.begin_as(Value::Str("alice".into()));
    let room = db.create_object(setup, "stockRoom", &[]).unwrap();
    db.commit(setup).unwrap();

    println!("== day 1 ==");
    db.advance_clock_to(9 * calendar::HR); // dayBegin posts

    // An unauthorized withdrawal: T1 aborts it.
    txn_withdraw(&mut db, "mallory", room, "bolt", 10);

    // Seven transactions; the 6th and 7th of the day trip T4.
    for k in 0..7 {
        txn_withdraw(&mut db, "alice", room, "bolt", 20 + k);
    }

    // Large withdrawals: T6 logs each; the 5th in a day trips T7.
    for _ in 0..5 {
        txn_withdraw(&mut db, "bob", room, "gear", 150);
    }

    // Deposit immediately followed by a withdrawal: T8.
    txn_deposit_withdraw(&mut db, "alice", room, "shim", 5);

    // Shim stock below its EOQ of 10: T2 orders more.
    txn_withdraw(&mut db, "bob", room, "shim", 28);

    db.advance_clock_to(17 * calendar::HR); // dayEnd: T3 summary

    println!("\n== day 2 ==");
    db.advance_clock_to(calendar::DAY + 9 * calendar::HR);
    // Only two large withdrawals today: T7 stays quiet.
    txn_withdraw(&mut db, "alice", room, "gear", 200);
    txn_withdraw(&mut db, "bob", room, "gear", 200);
    db.advance_clock_to(calendar::DAY + 17 * calendar::HR);

    println!("\n== trigger output ==");
    for line in db.output() {
        println!("  {line}");
    }

    println!("\n== final stock ==");
    println!("  {}", db.peek_field(room, "items").unwrap());
    let s = db.stats();
    println!(
        "\n{} events posted, {} automaton steps, {} trigger firings, {} commits, {} aborts",
        s.events_posted, s.symbols_stepped, s.triggers_fired, s.txns_committed, s.txns_aborted
    );
}
