//! E10 — class-level event router: classify once per posting, fan out.
//!
//! Three measurements of `Engine::post` through the router:
//!
//! * **Irrelevant-trigger scaling** — one trigger monitors the posted
//!   method, the rest monitor methods that are never called. The
//!   per-event-kind relevance index must keep posting cost flat as the
//!   irrelevant population grows.
//! * **Relevant-trigger scaling** — every trigger monitors the posted
//!   method; cost should grow linearly (one table-indexed step per
//!   relevant trigger, per Section 5).
//! * **Mask memoization** — many triggers sharing one distinct
//!   composite mask versus each carrying its own. An atomic counter
//!   inside the mask functions verifies that each *distinct* mask is
//!   evaluated exactly once per posting, independent of how many
//!   triggers reference it.
//!
//! Results are printed as a table and written to
//! `BENCH_e10_router.json` at the repository root.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

use ode_core::Value;
use ode_db::{Action, ClassDef, Database, ObjectId};

const BATCH: usize = 100;
const WARMUP_CALLS: usize = 200;
const MEASURE_CALLS: usize = 2000;

fn hot_args() -> Vec<Value> {
    vec![Value::Str("i".into()), Value::Int(7)]
}

/// Drive `calls` invocations of `hot` in batched transactions and
/// return (seconds, posted events).
fn drive(db: &mut Database, obj: ObjectId, calls: usize) -> (f64, u64) {
    let args = hot_args();
    let before = db.stats().events_posted;
    let t0 = Instant::now();
    let mut done = 0;
    while done < calls {
        let n = BATCH.min(calls - done);
        let txn = db.begin();
        for _ in 0..n {
            db.call(txn, obj, "hot", &args).unwrap();
        }
        db.commit(txn).unwrap();
        db.take_output();
        done += n;
    }
    let secs = t0.elapsed().as_secs_f64();
    (secs, db.stats().events_posted - before)
}

fn setup(class: ClassDef) -> (Database, ObjectId) {
    let mut db = Database::new();
    db.define_class(class).unwrap();
    let txn = db.begin();
    let obj = db.create_object(txn, "c", &[]).unwrap();
    db.commit(txn).unwrap();
    db.take_output();
    (db, obj)
}

/// ns per `call` (each call posts a before/after envelope).
fn measure(db: &mut Database, obj: ObjectId) -> (f64, f64) {
    drive(db, obj, WARMUP_CALLS);
    let (secs, events) = drive(db, obj, MEASURE_CALLS);
    (secs * 1e9 / MEASURE_CALLS as f64, events as f64 / secs)
}

/// One relevant trigger (`after hot`), `total - 1` triggers on methods
/// that are never called.
fn irrelevant_class(total: usize) -> ClassDef {
    let mut b = ClassDef::builder("c").update_method("hot", &["i", "q"]);
    let mut names = vec!["rel".to_string()];
    b = b.trigger("rel", true, "after hot", Action::Emit("hot".into()));
    for i in 0..total - 1 {
        b = b.update_method(format!("cold{i}"), &[]);
        let name = format!("irr{i}");
        b = b.trigger(
            name.clone(),
            true,
            &format!("after cold{i}"),
            Action::Emit("cold".into()),
        );
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    b.activate_on_create(&refs).build().unwrap()
}

/// Every trigger monitors the posted method.
fn relevant_class(total: usize) -> ClassDef {
    let mut b = ClassDef::builder("c").update_method("hot", &["i", "q"]);
    let mut names = Vec::new();
    for i in 0..total {
        let name = format!("rel{i}");
        b = b.trigger(name.clone(), true, "after hot", Action::Emit("hot".into()));
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    b.activate_on_create(&refs).build().unwrap()
}

/// `total` masked triggers over `distinct` distinct composite masks;
/// every mask function bumps the shared counter when evaluated.
fn masked_class(total: usize, distinct: usize, evals: Arc<AtomicU64>) -> ClassDef {
    let mut b = ClassDef::builder("c").update_method("hot", &["i", "q"]);
    for m in 0..distinct {
        let evals = Arc::clone(&evals);
        b = b.mask_fn(format!("probe{m}"), move |_, _| {
            evals.fetch_add(1, Ordering::Relaxed);
            Ok(Value::Bool(true))
        });
    }
    let mut names = Vec::new();
    for i in 0..total {
        let name = format!("t{i}");
        b = b.trigger(
            name.clone(),
            true,
            &format!("after hot(i, q) && probe{}()", i % distinct),
            Action::Emit("hit".into()),
        );
        names.push(name);
    }
    let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
    b.activate_on_create(&refs).build().unwrap()
}

fn main() {
    let mut json = String::from("{\n  \"experiment\": \"e10_router\",\n");

    eprintln!("\n== E10: class-level event router ==");

    // ---------------------------------------------- irrelevant scaling
    eprintln!("\n-- posting cost vs irrelevant active triggers --");
    json.push_str("  \"irrelevant_scaling\": [\n");
    let mut first = true;
    for &t in &[4usize, 8, 16, 32, 64] {
        let (mut db, obj) = setup(irrelevant_class(t));
        let (ns, eps) = measure(&mut db, obj);
        eprintln!("{t:>4} triggers (1 relevant): {ns:>8.0} ns/call  {eps:>9.0} events/sec");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"triggers\": {t}, \"relevant\": 1, \"ns_per_call\": {ns:.1}, \"events_per_sec\": {eps:.0}}}"
        ));
    }
    json.push_str("\n  ],\n");

    // ------------------------------------------------ relevant scaling
    eprintln!("\n-- posting cost vs relevant active triggers --");
    json.push_str("  \"relevant_scaling\": [\n");
    first = true;
    for &t in &[4usize, 8, 16, 32, 64] {
        let (mut db, obj) = setup(relevant_class(t));
        let (ns, eps) = measure(&mut db, obj);
        eprintln!("{t:>4} triggers (all relevant): {ns:>8.0} ns/call  {eps:>9.0} events/sec");
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"triggers\": {t}, \"relevant\": {t}, \"ns_per_call\": {ns:.1}, \"events_per_sec\": {eps:.0}}}"
        ));
    }
    json.push_str("\n  ],\n");

    // ------------------------------------------------ mask memoization
    eprintln!("\n-- distinct-mask evaluations per posting --");
    json.push_str("  \"mask_memoization\": [\n");
    first = true;
    for &(total, distinct) in &[(16usize, 1usize), (16, 4), (16, 16), (64, 1), (64, 8)] {
        let evals = Arc::new(AtomicU64::new(0));
        let (mut db, obj) = setup(masked_class(total, distinct, Arc::clone(&evals)));
        drive(&mut db, obj, WARMUP_CALLS);
        evals.store(0, Ordering::Relaxed);
        let t0 = Instant::now();
        drive(&mut db, obj, MEASURE_CALLS);
        let secs = t0.elapsed().as_secs_f64();
        let ns = secs * 1e9 / MEASURE_CALLS as f64;
        let per_call = evals.load(Ordering::Relaxed) as f64 / MEASURE_CALLS as f64;
        // The acceptance claim: each distinct mask is evaluated exactly
        // once per posting that reaches its group, regardless of how
        // many triggers share it.
        assert_eq!(
            per_call, distinct as f64,
            "{total} triggers / {distinct} distinct masks: expected {distinct} evals per call"
        );
        eprintln!(
            "{total:>4} triggers, {distinct:>2} distinct masks: {per_call:>4.1} evals/call  {ns:>8.0} ns/call"
        );
        if !first {
            json.push_str(",\n");
        }
        first = false;
        json.push_str(&format!(
            "    {{\"triggers\": {total}, \"distinct_masks\": {distinct}, \"mask_evals_per_call\": {per_call:.2}, \"ns_per_call\": {ns:.1}}}"
        ));
    }
    json.push_str("\n  ]\n}\n");

    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_e10_router.json");
    std::fs::write(path, &json).unwrap();
    eprintln!("\nwrote {path}");
}
