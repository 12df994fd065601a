use ode_automata::*;
use rand::{rngs::StdRng, RngExt, SeedableRng};

fn random_dfa(rng: &mut StdRng, max_states: usize, k: usize) -> Dfa {
    let n = rng.random_range(1..=max_states);
    let accepting: Vec<bool> = (0..n).map(|_| rng.random_bool(0.4)).collect();
    let table: Vec<StateId> = (0..n * k)
        .map(|_| rng.random_range(0..n as StateId))
        .collect();
    let start = rng.random_range(0..n as StateId);
    Dfa::from_parts(k, start, accepting, table)
}

// Brute-force language sample comparison up to length L over alphabet k.
fn agree_exhaustive(a: &Dfa, b: &Dfa, k: usize, max_len: usize) -> Option<Vec<Symbol>> {
    let mut frontier: Vec<Vec<Symbol>> = vec![vec![]];
    for _ in 0..=max_len {
        for w in &frontier {
            if a.run(w.iter().copied()) != b.run(w.iter().copied()) {
                return Some(w.clone());
            }
        }
        let mut next = Vec::new();
        for w in &frontier {
            for s in 0..k as Symbol {
                let mut w2 = w.clone();
                w2.push(s);
                next.push(w2);
            }
        }
        frontier = next;
    }
    None
}

#[test]
fn fuzz_minimize_random_dfas() {
    let mut rng = StdRng::seed_from_u64(123);
    for trial in 0..3000 {
        let k = rng.random_range(1..=3);
        let d = random_dfa(&mut rng, 8, k);
        let m = minimize(&d);
        assert!(m.equivalent(&d), "trial {trial} minimize changed language");
        if let Some(w) = agree_exhaustive(&d, &m, k, 7) {
            panic!("trial {trial} word {w:?}");
        }
        // canonical size check: minimize twice
        let m2 = minimize(&m);
        assert_eq!(
            m.num_states(),
            m2.num_states(),
            "trial {trial} not idempotent"
        );
        // Moore brute force: count distinguishable states of trimmed d
        let dt = d.trim_unreachable();
        let n = dt.num_states();
        let mut dist = vec![false; n * n];
        for i in 0..n {
            for j in 0..n {
                if dt.is_accepting(i as StateId) != dt.is_accepting(j as StateId) {
                    dist[i * n + j] = true;
                }
            }
        }
        loop {
            let mut changed = false;
            for i in 0..n {
                for j in 0..n {
                    if !dist[i * n + j] {
                        for sym in 0..k as Symbol {
                            let ti = dt.step(i as StateId, sym) as usize;
                            let tj = dt.step(j as StateId, sym) as usize;
                            if dist[ti * n + tj] {
                                dist[i * n + j] = true;
                                changed = true;
                                break;
                            }
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
        // number of equivalence classes
        let mut reps: Vec<usize> = Vec::new();
        for i in 0..n {
            if !reps.iter().any(|&r| !dist[r * n + i]) {
                reps.push(i);
            }
        }
        assert_eq!(
            m.num_states(),
            reps.len(),
            "trial {trial}: hopcroft {} vs moore {}",
            m.num_states(),
            reps.len()
        );
    }
}

#[test]
fn fuzz_regex_roundtrip_random_dfas() {
    let mut rng = StdRng::seed_from_u64(7);
    for trial in 0..400 {
        let k = rng.random_range(1..=3);
        let d = random_dfa(&mut rng, 6, k);
        let r = dfa_to_regex(&d);
        let back = minimize(&determinize(&r.to_nfa(k)));
        if let Some(w) = agree_exhaustive(&d, &back, k, 7) {
            panic!("trial {trial} regex {r} word {w:?}");
        }
        assert!(back.equivalent(&d), "trial {trial} regex {r}");
    }
}

#[test]
fn fuzz_determinize_random_nfas() {
    let mut rng = StdRng::seed_from_u64(99);
    for trial in 0..800 {
        let k = rng.random_range(1..=3);
        let n = rng.random_range(1..=6);
        let mut nfa = Nfa::builder(k);
        for _ in 0..n {
            nfa.add_state(rng.random_bool(0.3));
        }
        let edges = rng.random_range(0..=2 * n);
        for _ in 0..edges {
            nfa.add_transition(
                rng.random_range(0..n as StateId),
                rng.random_range(0..k as Symbol),
                rng.random_range(0..n as StateId),
            );
        }
        let eps = rng.random_range(0..=n);
        for _ in 0..eps {
            nfa.add_epsilon(
                rng.random_range(0..n as StateId),
                rng.random_range(0..n as StateId),
            );
        }
        nfa.set_start(rng.random_range(0..n as StateId));
        let dfa = determinize(&nfa);
        // exhaustive words to length 6
        let mut frontier: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..=6 {
            for w in &frontier {
                assert_eq!(
                    nfa.accepts(w.iter().copied()),
                    dfa.run(w.iter().copied()),
                    "trial {trial} word {w:?}"
                );
            }
            let mut next = Vec::new();
            for w in &frontier {
                for s in 0..k as Symbol {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            frontier = next;
        }
    }
}

// Reference implementations of choose/every by replaying the word through inner.
fn ref_choose(inner: &Dfa, n: u32, w: &[Symbol]) -> bool {
    let mut count = 0u32;
    let mut s = inner.start();
    let mut last_is_occ = false;
    for &sym in w {
        s = inner.step(s, sym);
        last_is_occ = inner.is_accepting(s);
        if last_is_occ {
            count += 1;
        }
    }
    !w.is_empty() && last_is_occ && count == n
}
fn ref_every(inner: &Dfa, n: u32, w: &[Symbol]) -> bool {
    let mut count = 0u32;
    let mut s = inner.start();
    let mut last_is_occ = false;
    for &sym in w {
        s = inner.step(s, sym);
        last_is_occ = inner.is_accepting(s);
        if last_is_occ {
            count += 1;
        }
    }
    !w.is_empty() && last_is_occ && count % n == 0
}

#[test]
fn fuzz_counting_random_inner() {
    let mut rng = StdRng::seed_from_u64(5);
    for trial in 0..1000 {
        let k = rng.random_range(1..=3);
        let inner = random_dfa(&mut rng, 5, k);
        let n = rng.random_range(1..=4);
        let ch = choose_product(&inner, n);
        let ev = every_product(&inner, n);
        let mut frontier: Vec<Vec<Symbol>> = vec![vec![]];
        for _ in 0..=7 {
            for w in &frontier {
                assert_eq!(
                    ref_choose(&inner, n, w),
                    ch.run(w.iter().copied()),
                    "choose trial {trial} n {n} word {w:?} inner_eps {}",
                    inner.is_accepting(inner.start())
                );
                assert_eq!(
                    ref_every(&inner, n, w),
                    ev.run(w.iter().copied()),
                    "every trial {trial} n {n} word {w:?} inner_eps {}",
                    inner.is_accepting(inner.start())
                );
            }
            let mut next = Vec::new();
            for w in &frontier {
                for s in 0..k as Symbol {
                    let mut w2 = w.clone();
                    w2.push(s);
                    next.push(w2);
                }
            }
            frontier = next;
        }
    }
}

use ode_automata::committed::{committed_filter, committed_view, TxnSymbols};

#[test]
fn fuzz_committed_wellformed() {
    let mut rng = StdRng::seed_from_u64(11);
    let sy = TxnSymbols {
        tbegin: 1,
        tcommit: 2,
        tabort: 3,
    };
    for trial in 0..500 {
        let a = random_dfa(&mut rng, 5, 4);
        let ap = committed_view(&a, sy);
        // well-formed histories
        let mut h: Vec<Symbol> = Vec::new();
        for _ in 0..rng.random_range(0..6) {
            h.push(sy.tbegin);
            let inner_len = rng.random_range(0..4);
            h.extend(std::iter::repeat_n(0, inner_len));
            h.push(if rng.random_bool(0.4) {
                sy.tabort
            } else {
                sy.tcommit
            });
        }
        for cut in 0..=h.len() {
            let p = &h[..cut];
            let f = committed_filter(p, sy);
            assert_eq!(
                ap.run(p.iter().copied()),
                a.run(f.iter().copied()),
                "trial {trial} prefix {p:?} filtered {f:?}"
            );
        }
    }
}
