//! Section 6 ("Dealing with Transactions"): three implementations of
//! committed-history monitoring must agree —
//!
//! 1. the **pair-construction automaton** `A'` reading the *full*
//!    history (the paper's Claim),
//! 2. the original automaton `A` reading the *filtered* committed
//!    history,
//! 3. the engine's committed-mode trigger (automaton state as object
//!    data, rolled back on abort).
//!
//! Also: full-history monitoring really does see aborted transactions'
//! events, and the `A'` state count respects the `|Q|²` bound.

use std::sync::Arc;

use ode_automata::committed::{committed_filter, committed_view, TxnSymbols};
use ode_core::{parse_event, CompiledEvent};
use ode_db::{Action, ClassDef, Database};
use rand::{rngs::StdRng, RngExt, SeedableRng};

/// Build a compiled event whose alphabet covers poke + txn markers, and
/// return (compiled, symbols for tbegin/tcommit/tabort/poke).
fn compiled_with_txn_alphabet(event_src: &str) -> (Arc<CompiledEvent>, TxnSymbols, u32) {
    // Mention the transaction events in the expression so they are part
    // of the alphabet; `& !empty` keeps the language unchanged.
    let padded =
        format!("({event_src}) & !(empty & (after tbegin | after tcommit | after tabort))");
    let expr = parse_event(&padded).unwrap();
    let compiled = Arc::new(CompiledEvent::compile(&expr).unwrap());
    let alphabet = compiled.alphabet();
    let sym = |src: &str| {
        let e = parse_event(src).unwrap();
        let le = match e {
            ode_core::EventExpr::Logical(le) => le,
            other => panic!("not logical: {other:?}"),
        };
        alphabet.symbols_for_logical(&le).unwrap()[0]
    };
    let syms = TxnSymbols {
        tbegin: sym("after tbegin"),
        tcommit: sym("after tcommit"),
        tabort: sym("after tabort"),
    };
    let poke = sym("after poke");
    (compiled, syms, poke)
}

#[test]
fn pair_construction_agrees_with_filtering_on_random_histories() {
    let mut rng = StdRng::seed_from_u64(1992);
    for src in [
        "relative(after poke, after poke)",
        "choose 3 (after poke)",
        "after poke; after poke",
        "prior(after tbegin, after poke)",
    ] {
        let (compiled, syms, poke) = compiled_with_txn_alphabet(src);
        let a = compiled.dfa();
        let a_prime = committed_view(a, syms);
        assert!(
            a_prime.num_states() <= a.num_states() * a.num_states(),
            "{src}: A' has {} states, A has {}",
            a_prime.num_states(),
            a.num_states()
        );

        for trial in 0..100 {
            // well-formed per-object serial transaction history
            let mut h = Vec::new();
            for _ in 0..rng.random_range(0..6) {
                h.push(syms.tbegin);
                for _ in 0..rng.random_range(0..4) {
                    h.push(poke);
                }
                h.push(if rng.random_bool(0.4) {
                    syms.tabort
                } else {
                    syms.tcommit
                });
            }
            for cut in 0..=h.len() {
                let prefix = &h[..cut];
                let via_pair = a_prime.run(prefix.iter().copied());
                let filtered = committed_filter(prefix, syms);
                let via_filter = a.run(filtered.iter().copied());
                assert_eq!(
                    via_pair, via_filter,
                    "{src}, trial {trial}, prefix {prefix:?} (filtered {filtered:?})"
                );
            }
        }
    }
}

/// The engine's committed-mode trigger must fire exactly when `A` over
/// the committed (filtered) history accepts.
#[test]
fn engine_committed_mode_matches_filtered_replay() {
    let mut rng = StdRng::seed_from_u64(77);

    for _ in 0..20 {
        let mut db = Database::new();
        db.define_class(
            ClassDef::builder("w")
                .update_method("poke", &[])
                .trigger(
                    "two",
                    true,
                    "relative(after poke, after poke)",
                    Action::Emit("fired".into()),
                )
                .build()
                .unwrap(),
        )
        .unwrap();
        let setup = db.begin();
        let obj = db.create_object(setup, "w", &[]).unwrap();
        db.activate_trigger(setup, obj, "two", &[]).unwrap();
        db.commit(setup).unwrap();
        db.take_output();

        // Random serial transactions; track committed pokes ourselves.
        let mut committed_pokes = 0u32;
        let mut expected_firings = 0u32;
        for _ in 0..rng.random_range(1..8) {
            let txn = db.begin();
            let pokes = rng.random_range(0..4);
            for _ in 0..pokes {
                db.call(txn, obj, "poke", &[]).unwrap();
            }
            if rng.random_bool(0.4) {
                db.abort(txn).unwrap();
            } else {
                db.commit(txn).unwrap();
                // each committed poke beyond the first fires the
                // (perpetual) trigger: relative(poke, poke) labels every
                // poke from the second onward.
                for _ in 0..pokes {
                    committed_pokes += 1;
                    if committed_pokes >= 2 {
                        expected_firings += 1;
                    }
                }
            }
        }
        let fired = db.output().iter().filter(|l| l.contains("fired")).count() as u32;
        // Provisional firings inside aborted transactions execute (their
        // data effects roll back, but the Emit log is diagnostics), so
        // the engine may log extra firings from aborted txns; committed
        // ones must match exactly. Recompute: filter output lines by the
        // txn that would have committed is intractable here, so assert
        // the lower bound and the post-state instead.
        assert!(
            fired >= expected_firings,
            "fired {fired} < {expected_firings}"
        );
        // The decisive check: after everything, post two committed pokes
        // and make sure the monitor state reflects only committed events.
        let probe = db.begin();
        db.take_output();
        db.call(probe, obj, "poke", &[]).unwrap();
        let fired_now = db.output().iter().any(|l| l.contains("fired"));
        db.commit(probe).unwrap();
        let should_fire_now = committed_pokes >= 1;
        assert_eq!(
            fired_now, should_fire_now,
            "committed_pokes={committed_pokes}"
        );
    }
}

/// Full-history monitoring counts aborted events; committed monitoring
/// does not. Drive both side by side.
#[test]
fn committed_and_full_history_modes_diverge_exactly_on_aborts() {
    let mut db = Database::new();
    db.define_class(
        ClassDef::builder("w")
            .update_method("poke", &[])
            .trigger(
                "committedTwo",
                true,
                "relative(after poke, after poke)",
                Action::Emit("committed-mode fired".into()),
            )
            .trigger(
                "fullTwo",
                true,
                "relative(after poke, after poke)",
                Action::Emit("full-mode fired".into()),
            )
            .full_history()
            .activate_on_create(&["committedTwo", "fullTwo"])
            .build()
            .unwrap(),
    )
    .unwrap();
    let setup = db.begin();
    let obj = db.create_object(setup, "w", &[]).unwrap();
    db.commit(setup).unwrap();

    // poke in an aborted txn
    let t1 = db.begin();
    db.call(t1, obj, "poke", &[]).unwrap();
    db.abort(t1).unwrap();
    db.take_output();

    // poke in a committed txn: full-history sees 2 pokes, committed sees 1
    let t2 = db.begin();
    db.call(t2, obj, "poke", &[]).unwrap();
    db.commit(t2).unwrap();
    assert!(db.output().iter().any(|l| l.contains("full-mode fired")));
    assert!(!db
        .output()
        .iter()
        .any(|l| l.contains("committed-mode fired")));

    // one more committed poke: now committed-mode fires too
    db.take_output();
    let t3 = db.begin();
    db.call(t3, obj, "poke", &[]).unwrap();
    db.commit(t3).unwrap();
    assert!(db
        .output()
        .iter()
        .any(|l| l.contains("committed-mode fired")));
}
