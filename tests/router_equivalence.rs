//! Property test for the class-level event router: the engine now
//! classifies each posted basic event **once per class** and fans
//! precomputed symbol remaps out to the relevant triggers. That fast
//! path must be observationally identical to the seed path — every
//! trigger running its own independent `Detector` over the object's
//! posted event stream.
//!
//! We build classes with random trigger subsets (mixed perpetual and
//! one-shot, parameterized masks included), drive them with random
//! call streams interleaved with activate/deactivate toggles, each
//! committed in its own transaction, and after every operation replay
//! the postings the event tap delivered for it through the per-trigger
//! oracle detectors, comparing firing counts and active flags at each
//! step.

use std::sync::{Arc, Mutex};

use ode_core::{BasicEvent, Detector, EmptyEnv, Value};
use ode_db::{Action, ClassDef, Database};
use proptest::prelude::*;

/// Candidate trigger expressions over the class's three methods. Masks
/// read only event parameters, so the oracle can replay them with an
/// empty environment.
const POOL: &[&str] = &[
    "after m0",
    "before m1",
    "relative(after m0, after m1)",
    "after m0 | after m2",
    "after m0 & !after m1",
    "choose 2 (after m2)",
    "every 2 (after m1)",
    "after m2(i, q) && q > 100",
    "after m2(i, q) && q > 50",
    "after m1; after m2",
    "prior(after m0, after m2)",
];

/// One step of the simulated workload.
#[derive(Clone, Debug)]
enum Op {
    M0,
    M1,
    /// `m2(i, q)` with a random quantity (drives the parameter masks).
    M2(i64),
    /// Flip the activation of trigger `n % trigger_count`.
    Toggle(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        Just(Op::M0),
        Just(Op::M1),
        (0i64..200).prop_map(Op::M2),
        (0i64..200).prop_map(Op::M2),
        (0usize..16).prop_map(Op::Toggle),
    ]
}

/// One committed posting as the event tap delivered it.
type Posting = (BasicEvent, Vec<Value>);

/// The seed-path reference: one independent detector per trigger.
struct Oracle {
    det: Detector,
    active: bool,
    fired: u64,
}

proptest! {
    #![proptest_config(ProptestConfig {
        cases: 32,
        ..ProptestConfig::default()
    })]

    #[test]
    fn router_matches_independent_per_trigger_detectors(
        picks in prop::collection::vec((0..POOL.len(), any::<bool>()), 1..=POOL.len()),
        ops in prop::collection::vec(op_strategy(), 0..40),
    ) {
        // -- class with the picked trigger subset ---------------------
        let mut builder = ClassDef::builder("acct")
            .update_method("m0", &[])
            .update_method("m1", &[])
            .update_method("m2", &["i", "q"]);
        let mut names = Vec::new();
        for (i, &(p, perpetual)) in picks.iter().enumerate() {
            let name = format!("t{i}");
            builder = builder.trigger(
                name.clone(),
                perpetual,
                POOL[p],
                Action::Emit(format!("{name} fired")),
            );
            names.push(name);
        }
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let class_def = builder
            .activate_on_create(&name_refs)
            .build()
            .map_err(|e| TestCaseError::fail(format!("class build failed: {e}")))?;

        let mut db = Database::new();
        db.define_class(class_def).unwrap();
        let setup = db.begin();
        let obj = db.create_object(setup, "acct", &[]).unwrap();
        db.commit(setup).unwrap();

        // -- oracle: fresh per-trigger detectors ----------------------
        // The pool has no global (parameterless composite) masks, so
        // activation and replay need no field environment.
        let class = Arc::clone(db.class(db.object(obj).unwrap().class));
        let mut oracle: Vec<Oracle> = class
            .triggers
            .iter()
            .map(|t| {
                let mut det = Detector::new(Arc::clone(&t.event));
                det.activate(&EmptyEnv).unwrap();
                Oracle { det, active: true, fired: 0 }
            })
            .collect();
        // The oracle's event source: every committed posting after the
        // setup. The transaction markers each operation's own
        // transaction adds (tbegin, access, tcomplete, tcommit, ...) are
        // outside every pool alphabet, as the setup's are, so neither
        // side steps on them.
        let tapped: Arc<Mutex<Vec<Posting>>> = Arc::default();
        let sink = Arc::clone(&tapped);
        db.set_event_tap(Some(Arc::new(move |_, _, events| {
            let mut sink = sink.lock().unwrap();
            sink.extend(events.iter().map(|e| (e.basic.clone(), e.args.clone())));
        })));

        // -- random workload, lock-step comparison --------------------
        for op in &ops {
            let txn = db.begin();
            match op {
                Op::M0 => {
                    db.call(txn, obj, "m0", &[]).unwrap();
                }
                Op::M1 => {
                    db.call(txn, obj, "m1", &[]).unwrap();
                }
                Op::M2(q) => {
                    db.call(txn, obj, "m2", &[Value::Str("i".into()), Value::Int(*q)])
                        .unwrap();
                }
                Op::Toggle(n) => {
                    let i = n % oracle.len();
                    if oracle[i].active {
                        db.deactivate_trigger(txn, obj, &names[i]).unwrap();
                        oracle[i].active = false;
                    } else {
                        db.activate_trigger(txn, obj, &names[i], &[]).unwrap();
                        let mut det = Detector::new(Arc::clone(&class.triggers[i].event));
                        det.activate(&EmptyEnv).unwrap();
                        oracle[i].det = det;
                        oracle[i].active = true;
                    }
                }
            }
            db.commit(txn).unwrap();

            // Replay the postings this operation committed.
            let fresh = std::mem::take(&mut *tapped.lock().unwrap());
            for (basic, args) in &fresh {
                for (i, orc) in oracle.iter_mut().enumerate() {
                    if !orc.active {
                        continue;
                    }
                    if orc.det.post(basic, args, &EmptyEnv).unwrap() {
                        orc.fired += 1;
                        if !class.triggers[i].perpetual {
                            orc.active = false;
                        }
                    }
                }
            }

            // Compare every trigger after every operation.
            let o = db.object(obj).unwrap();
            for (i, orc) in oracle.iter().enumerate() {
                let inst = o.trigger_instance(i).unwrap();
                prop_assert_eq!(
                    inst.active,
                    orc.active,
                    "active flag diverged: trigger {} (`{}`) after {:?}",
                    i,
                    POOL[picks[i].0],
                    op
                );
                prop_assert_eq!(
                    inst.fired,
                    orc.fired,
                    "firing count diverged: trigger {} (`{}`) after {:?}",
                    i,
                    POOL[picks[i].0],
                    op
                );
            }
        }
    }
}
