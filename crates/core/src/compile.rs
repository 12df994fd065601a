//! Compilation of event expressions into finite automata (Section 5).
//!
//! Every operator maps to a construction on *occurrence languages*
//! `O(E) ⊆ Σ*` — the histories whose last point `E` labels:
//!
//! | operator            | language                                     |
//! |---------------------|----------------------------------------------|
//! | logical event `a`   | `Σ*·a`                                       |
//! | `E \| F`            | `O(E) ∪ O(F)`                                |
//! | `E & F`             | `O(E) ∩ O(F)`                                |
//! | `!E`                | `Σ⁺ \ O(E)`                                  |
//! | `relative(E, F)`    | `O(E)·O(F)`                                  |
//! | `relative+(E)`      | `O(E)⁺`                                      |
//! | `relative n (E)`    | `O(E)ⁿ`                                      |
//! | `prior(E, F)`       | `O(F) ∩ O(E)·Σ⁺`                             |
//! | `sequence(E, F)`    | `O(F) ∩ O(E)·Σ`                              |
//! | `choose n (E)`      | counting product (exactly n-th)              |
//! | `every n (E)`       | counting product (each n-th)                 |
//! | `fa(E, F, G)`       | `O(E)·(O(F) \ (O(F) ∪ O(G))·Σ⁺)`             |
//! | `faAbs(E, F, G)`    | custom product (absolute guard tracking)     |
//!
//! The result is determinized and Hopcroft-minimized, giving the shared
//! per-class transition table; each object then stores a single
//! [`ode_automata::StateId`] per active trigger — "one word per active
//! trigger per object".

use ode_automata::{
    choose_product, determinize, every_product, minimize, Dfa, Nfa, StateId, Symbol,
};

use crate::error::EventError;
use crate::lower::SymExpr;

/// The largest count `relative n`, `prior n`, `sequence n`, `choose n`
/// and `every n` accept. Each builds about `n` copies of its operand's
/// automaton, so an unbounded count lets one event expression exhaust
/// memory. At this cap each compiles over a one-event operand in under
/// 0.2 s (`prior 256`, the slowest, in a release build on a 2-vCPU
/// x86-64 host); the largest count any bench or example uses is 64.
pub const MAX_COUNT: u32 = 256;

/// Compile a lowered expression over `alphabet_len` symbols into a
/// minimal DFA for its occurrence language.
pub fn compile(expr: &SymExpr, alphabet_len: usize) -> Result<Dfa, EventError> {
    let nfa = compile_nfa(expr, alphabet_len)?;
    Ok(minimize(&determinize(&nfa)))
}

/// Compile to an NFA (intermediate; exposed for size instrumentation in
/// experiment E3).
pub fn compile_nfa(expr: &SymExpr, k: usize) -> Result<Nfa, EventError> {
    Ok(match expr {
        SymExpr::Empty => Nfa::reject(k),
        SymExpr::Atom(syms) => Nfa::ends_with(k, syms),
        SymExpr::Or(a, b) => compile_nfa(a, k)?.union(&compile_nfa(b, k)?),
        SymExpr::And(a, b) => {
            let da = to_dfa(&compile_nfa(a, k)?);
            let db = to_dfa(&compile_nfa(b, k)?);
            da.intersect(&db).to_nfa()
        }
        SymExpr::Not(a) => to_dfa(&compile_nfa(a, k)?).complement_sigma_plus().to_nfa(),
        SymExpr::Relative(list) => {
            check_nonempty(list, "relative")?;
            let mut cur = compile_nfa(&list[0], k)?;
            for e in &list[1..] {
                cur = cur.concat(&compile_nfa(e, k)?);
            }
            cur
        }
        SymExpr::RelativePlus(a) => compile_nfa(a, k)?.plus(),
        SymExpr::RelativeN(n, a) => {
            check_count(*n, "relative")?;
            compile_nfa(a, k)?.repeat(*n)
        }
        SymExpr::Prior(list) => {
            check_nonempty(list, "prior")?;
            let mut cur = compile_nfa(&list[0], k)?;
            for e in &list[1..] {
                cur = prior_pair(&cur, &compile_nfa(e, k)?, k);
            }
            cur
        }
        SymExpr::PriorN(n, a) => {
            check_count(*n, "prior")?;
            let inner = compile_nfa(a, k)?;
            let mut cur = inner.clone();
            for _ in 1..*n {
                cur = prior_pair(&cur, &inner, k);
            }
            cur
        }
        SymExpr::Sequence(list) => {
            check_nonempty(list, "sequence")?;
            let mut cur = compile_nfa(&list[0], k)?;
            for e in &list[1..] {
                cur = sequence_pair(&cur, &compile_nfa(e, k)?, k);
            }
            cur
        }
        SymExpr::SequenceN(n, a) => {
            check_count(*n, "sequence")?;
            let inner = compile_nfa(a, k)?;
            let mut cur = inner.clone();
            for _ in 1..*n {
                cur = sequence_pair(&cur, &inner, k);
            }
            cur
        }
        SymExpr::Choose(n, a) => {
            check_count(*n, "choose")?;
            choose_product(&to_dfa(&compile_nfa(a, k)?), *n).to_nfa()
        }
        SymExpr::Every(n, a) => {
            check_count(*n, "every")?;
            every_product(&to_dfa(&compile_nfa(a, k)?), *n).to_nfa()
        }
        SymExpr::Fa(e, f, g) => {
            // O(E)·(O(F) \ (O(F) ∪ O(G))·Σ⁺): the first F in the
            // truncated context, with no G (truncated context) strictly
            // before it.
            let ne = compile_nfa(e, k)?;
            let nf = compile_nfa(f, k)?;
            let ng = compile_nfa(g, k)?;
            let df = to_dfa(&nf);
            let blocked = to_dfa(&nf.union(&ng).concat(&Nfa::sigma_plus(k)));
            let first_f = df.difference(&blocked);
            ne.concat(&first_f.to_nfa())
        }
        SymExpr::FaAbs(e, f, g) => {
            let de = to_dfa(&compile_nfa(e, k)?);
            let df = to_dfa(&compile_nfa(f, k)?);
            let dg = to_dfa(&compile_nfa(g, k)?);
            fa_abs_product(&de, &df, &dg, k)
        }
    })
}

fn to_dfa(n: &Nfa) -> Dfa {
    minimize(&determinize(n))
}

/// `prior(A, B)`: `O(B) ∩ O(A)·Σ⁺` — B's point with some earlier A point
/// (both judged in the full context).
fn prior_pair(a: &Nfa, b: &Nfa, k: usize) -> Nfa {
    let a_then_more = to_dfa(&a.clone().concat(&Nfa::sigma_plus(k)));
    let db = to_dfa(b);
    db.intersect(&a_then_more).to_nfa()
}

/// `sequence(A, B)`: `O(B) ∩ O(A)·Σ` — B occurs exactly at the next
/// point after A.
fn sequence_pair(a: &Nfa, b: &Nfa, k: usize) -> Nfa {
    let a_then_one = to_dfa(&a.clone().concat(&Nfa::any_symbol(k)));
    let db = to_dfa(b);
    db.intersect(&a_then_one).to_nfa()
}

/// `faAbs(E, F, G)`: accepts `w·y` with `w ∈ O(E)`, `y ∈ O(F)`, no
/// proper nonempty prefix `y'` of `y` with `y' ∈ O(F)` (first F in the
/// truncated context) or `w·y' ∈ O(G)` (no *absolute* G strictly between
/// E's point and F's point).
///
/// Built as an NFA product: phase 1 runs `DFA(E) × DFA(G)`; whenever E
/// accepts, an ε-edge forks into phase 2 which runs `DFA(F)` from scratch
/// while `DFA(G)` keeps tracking absolutely. Phase-2 states where F or G
/// has accepted are terminal (the F case accepts, the G case is dead);
/// the phase-2 *entry* state is exempt because G holding at E's own point
/// is not "intervening".
fn fa_abs_product(de: &Dfa, df: &Dfa, dg: &Dfa, k: usize) -> Nfa {
    let ne = de.num_states();
    let nf = df.num_states();
    let ng = dg.num_states();
    let phase1 = ne * ng;
    let p1 = |qe: StateId, qg: StateId| qe * ng as StateId + qg;
    let p2 = |qf: StateId, qg: StateId, entry: bool| {
        (phase1 + ((qf as usize * ng) + qg as usize) * 2 + usize::from(entry)) as StateId
    };

    let mut nfa = Nfa::builder(k);
    for _ in 0..phase1 + nf * ng * 2 {
        nfa.add_state(false);
    }

    // Phase 1: searching for an E occurrence while tracking G absolutely.
    for qe in 0..ne as StateId {
        for qg in 0..ng as StateId {
            for sym in 0..k as Symbol {
                nfa.add_transition(p1(qe, qg), sym, p1(de.step(qe, sym), dg.step(qg, sym)));
            }
            if de.is_accepting(qe) {
                nfa.add_epsilon(p1(qe, qg), p2(df.start(), qg, true));
            }
        }
    }

    // Phase 2: first-F search with absolute-G tracking.
    for qf in 0..nf as StateId {
        for qg in 0..ng as StateId {
            for entry in [true, false] {
                let id = p2(qf, qg, entry);
                let terminal = !entry && (df.is_accepting(qf) || dg.is_accepting(qg));
                if !terminal {
                    for sym in 0..k as Symbol {
                        nfa.add_transition(id, sym, p2(df.step(qf, sym), dg.step(qg, sym), false));
                    }
                }
                if !entry && df.is_accepting(qf) {
                    nfa.set_accepting(id, true);
                }
            }
        }
    }

    nfa.set_start(p1(de.start(), dg.start()));
    nfa
}

fn check_nonempty(list: &[SymExpr], operator: &'static str) -> Result<(), EventError> {
    if list.is_empty() {
        Err(EventError::EmptyOperands { operator })
    } else {
        Ok(())
    }
}

pub(crate) fn check_count(n: u32, operator: &'static str) -> Result<(), EventError> {
    if n == 0 || n > MAX_COUNT {
        Err(EventError::InvalidCount { operator, count: n })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::semantics::occurrences;

    fn atom(s: Symbol) -> SymExpr {
        SymExpr::Atom(vec![s])
    }

    /// Cross-check: the compiled DFA accepts H[..=p] exactly when the
    /// reference semantics labels p, over all words up to `max_len`.
    fn agree_exhaustive(expr: &SymExpr, k: usize, max_len: usize) {
        let dfa = compile(expr, k).unwrap();
        let mut frontier: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..max_len {
            let mut next = Vec::new();
            for w in &frontier {
                for s in 0..k as Symbol {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            for w in &next {
                let occ = occurrences(expr, w);
                let semantic = occ.contains(&(w.len() - 1));
                let automaton = dfa.run(w.iter().copied());
                assert_eq!(semantic, automaton, "expr {expr:?} word {w:?}");
            }
            frontier = next;
        }
    }

    #[test]
    fn atom_agrees() {
        agree_exhaustive(&atom(0), 2, 4);
    }

    #[test]
    fn boolean_ops_agree() {
        agree_exhaustive(&SymExpr::Or(Box::new(atom(0)), Box::new(atom(1))), 3, 3);
        agree_exhaustive(&SymExpr::Not(Box::new(atom(0))), 2, 4);
        agree_exhaustive(
            &SymExpr::And(
                Box::new(SymExpr::Not(Box::new(atom(0)))),
                Box::new(SymExpr::Or(Box::new(atom(1)), Box::new(atom(2)))),
            ),
            3,
            3,
        );
    }

    #[test]
    fn relative_agrees() {
        agree_exhaustive(&SymExpr::Relative(vec![atom(0), atom(1)]), 2, 5);
        agree_exhaustive(&SymExpr::Relative(vec![atom(0), atom(1), atom(0)]), 2, 5);
    }

    #[test]
    fn relative_plus_and_n_agree() {
        agree_exhaustive(&SymExpr::RelativePlus(Box::new(atom(0))), 2, 5);
        agree_exhaustive(&SymExpr::RelativeN(2, Box::new(atom(0))), 2, 5);
        agree_exhaustive(
            &SymExpr::RelativeN(2, Box::new(SymExpr::Relative(vec![atom(0), atom(1)]))),
            2,
            5,
        );
    }

    #[test]
    fn prior_agrees() {
        agree_exhaustive(&SymExpr::Prior(vec![atom(0), atom(1)]), 2, 5);
        // the paper's composite example
        let e = SymExpr::Relative(vec![atom(0), atom(1)]);
        let f = SymExpr::Relative(vec![atom(0), atom(0)]);
        agree_exhaustive(&SymExpr::Prior(vec![e, f]), 2, 5);
    }

    #[test]
    fn sequence_agrees() {
        agree_exhaustive(&SymExpr::Sequence(vec![atom(0), atom(1)]), 2, 5);
        agree_exhaustive(&SymExpr::Sequence(vec![atom(0), atom(1), atom(1)]), 2, 5);
    }

    #[test]
    fn counting_agrees() {
        agree_exhaustive(&SymExpr::Choose(2, Box::new(atom(0))), 2, 5);
        agree_exhaustive(&SymExpr::Every(2, Box::new(atom(0))), 2, 5);
        agree_exhaustive(
            &SymExpr::Choose(2, Box::new(SymExpr::Relative(vec![atom(0), atom(1)]))),
            2,
            5,
        );
    }

    #[test]
    fn fa_agrees() {
        agree_exhaustive(
            &SymExpr::Fa(Box::new(atom(0)), Box::new(atom(1)), Box::new(atom(2))),
            3,
            4,
        );
    }

    #[test]
    fn fa_abs_agrees() {
        agree_exhaustive(
            &SymExpr::FaAbs(Box::new(atom(0)), Box::new(atom(1)), Box::new(atom(2))),
            3,
            4,
        );
        // composite G where fa and faAbs differ
        let g = SymExpr::Relative(vec![atom(2), atom(2)]);
        agree_exhaustive(
            &SymExpr::FaAbs(Box::new(atom(0)), Box::new(atom(1)), Box::new(g)),
            3,
            4,
        );
    }

    #[test]
    fn paper_law_prior_plus_equals_e() {
        // prior+(E) ≡ E, demonstrated via prior(E, E) ⊆ E (Section 3.4).
        let e = SymExpr::Relative(vec![atom(0), atom(1)]);
        let de = compile(&e, 2).unwrap();
        let dpe = compile(&SymExpr::Prior(vec![e.clone(), e.clone()]), 2).unwrap();
        // prior(E,E) ∪ E ≡ E
        assert!(dpe.union(&de).equivalent(&de));
        // sequence(E,E) ⊆ E as well
        let dse = compile(&SymExpr::Sequence(vec![e.clone(), e]), 2).unwrap();
        assert!(dse.union(&de).equivalent(&de));
    }

    #[test]
    fn singleton_lists_are_identity() {
        let e = atom(0);
        let de = compile(&e, 2).unwrap();
        for wrapped in [
            SymExpr::Relative(vec![e.clone()]),
            SymExpr::Prior(vec![e.clone()]),
            SymExpr::Sequence(vec![e.clone()]),
        ] {
            assert!(compile(&wrapped, 2).unwrap().equivalent(&de));
        }
    }

    #[test]
    fn relative_n_one_is_identity() {
        let e = SymExpr::Relative(vec![atom(0), atom(1)]);
        let d1 = compile(&SymExpr::RelativeN(1, Box::new(e.clone())), 2).unwrap();
        assert!(d1.equivalent(&compile(&e, 2).unwrap()));
    }

    #[test]
    fn curried_relative_equals_nested() {
        let abc = SymExpr::Relative(vec![atom(0), atom(1), atom(0)]);
        let nested = SymExpr::Relative(vec![SymExpr::Relative(vec![atom(0), atom(1)]), atom(0)]);
        assert!(compile(&abc, 2)
            .unwrap()
            .equivalent(&compile(&nested, 2).unwrap()));
    }

    #[test]
    fn empty_language_detected() {
        let d = compile(&SymExpr::Empty, 2).unwrap();
        assert!(d.is_empty_language());
        // E & !E is empty too
        let contradiction =
            SymExpr::And(Box::new(atom(0)), Box::new(SymExpr::Not(Box::new(atom(0)))));
        assert!(compile(&contradiction, 2).unwrap().is_empty_language());
    }

    #[test]
    fn zero_counts_rejected() {
        assert!(compile(&SymExpr::Choose(0, Box::new(atom(0))), 2).is_err());
        assert!(compile(&SymExpr::RelativeN(0, Box::new(atom(0))), 2).is_err());
    }

    #[test]
    fn empty_operand_lists_rejected() {
        assert!(compile(&SymExpr::Relative(vec![]), 2).is_err());
        assert!(compile(&SymExpr::Prior(vec![]), 2).is_err());
    }

    /// Randomized agreement over random expressions and histories — the
    /// central correctness property of the whole pipeline.
    #[test]
    fn randomized_semantics_agreement() {
        use rand::{rngs::StdRng, RngExt, SeedableRng};
        let mut rng = StdRng::seed_from_u64(2024);
        let k = 3usize;

        fn random_expr(rng: &mut StdRng, depth: u32) -> SymExpr {
            let leaf = depth == 0 || rng.random_bool(0.35);
            if leaf {
                return SymExpr::Atom(vec![rng.random_range(0..3)]);
            }
            match rng.random_range(0..12) {
                0 => SymExpr::Or(
                    Box::new(random_expr(rng, depth - 1)),
                    Box::new(random_expr(rng, depth - 1)),
                ),
                1 => SymExpr::And(
                    Box::new(random_expr(rng, depth - 1)),
                    Box::new(random_expr(rng, depth - 1)),
                ),
                2 => SymExpr::Not(Box::new(random_expr(rng, depth - 1))),
                3 => SymExpr::Relative(vec![
                    random_expr(rng, depth - 1),
                    random_expr(rng, depth - 1),
                ]),
                4 => SymExpr::RelativePlus(Box::new(random_expr(rng, depth - 1))),
                5 => SymExpr::RelativeN(
                    rng.random_range(1..4),
                    Box::new(random_expr(rng, depth - 1)),
                ),
                6 => SymExpr::Prior(vec![
                    random_expr(rng, depth - 1),
                    random_expr(rng, depth - 1),
                ]),
                7 => SymExpr::Sequence(vec![
                    random_expr(rng, depth - 1),
                    random_expr(rng, depth - 1),
                ]),
                8 => SymExpr::Choose(
                    rng.random_range(1..4),
                    Box::new(random_expr(rng, depth - 1)),
                ),
                9 => SymExpr::Every(
                    rng.random_range(1..4),
                    Box::new(random_expr(rng, depth - 1)),
                ),
                10 => SymExpr::Fa(
                    Box::new(random_expr(rng, depth - 1)),
                    Box::new(random_expr(rng, depth - 1)),
                    Box::new(random_expr(rng, depth - 1)),
                ),
                _ => SymExpr::FaAbs(
                    Box::new(random_expr(rng, depth - 1)),
                    Box::new(random_expr(rng, depth - 1)),
                    Box::new(random_expr(rng, depth - 1)),
                ),
            }
        }

        for trial in 0..60 {
            let expr = random_expr(&mut rng, 3);
            let dfa = compile(&expr, k).unwrap();
            for _ in 0..20 {
                let len = rng.random_range(0..10);
                let w: Vec<Symbol> = (0..len).map(|_| rng.random_range(0..k as u32)).collect();
                let occ = occurrences(&expr, &w);
                for cut in 1..=w.len() {
                    let prefix = &w[..cut];
                    assert_eq!(
                        occ.contains(&(cut - 1)),
                        dfa.run(prefix.iter().copied()),
                        "trial {trial} expr {expr:?} prefix {prefix:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn counts_past_the_cap_are_refused() {
        let op = |name: &str, n: u32| {
            let a = Box::new(atom(0));
            match name {
                "relative" => SymExpr::RelativeN(n, a),
                "prior" => SymExpr::PriorN(n, a),
                "sequence" => SymExpr::SequenceN(n, a),
                "choose" => SymExpr::Choose(n, a),
                _ => SymExpr::Every(n, a),
            }
        };
        for name in ["relative", "prior", "sequence", "choose", "every"] {
            match compile(&op(name, MAX_COUNT + 1), 2) {
                Err(EventError::InvalidCount { operator, count }) => {
                    assert_eq!((operator, count), (name, MAX_COUNT + 1));
                }
                other => panic!(
                    "{name} {} not refused: {:?}",
                    MAX_COUNT + 1,
                    other.map(|dfa| dfa.num_states())
                ),
            }
            let dfa = compile(&op(name, MAX_COUNT), 2).unwrap();
            assert!(dfa.num_states() > MAX_COUNT as usize, "{name}");
        }
    }
}
