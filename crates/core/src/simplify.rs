//! Algebraic simplification of event expressions.
//!
//! A light rewrite pass a caller may run before compiling (the compiler
//! does not run it): it shrinks the intermediate NFA by folding the
//! identities the Section 4 model guarantees (`∅` absorption, singleton
//! curried forms, `relative 1`, idempotent union, double negation, …).
//! Every rewrite preserves the occurrence language — property-tested
//! against the compiler.

use crate::expr::EventExpr;

/// Simplify an expression. The result denotes the same event.
pub fn simplify(expr: &EventExpr) -> EventExpr {
    use EventExpr::*;
    match expr {
        Empty | Logical(_) => expr.clone(),
        Or(a, b) => {
            let a = simplify(a);
            let b = simplify(b);
            match (a, b) {
                (Empty, x) | (x, Empty) => x,
                (a, b) if a == b => a,
                (a, b) => a.or(b),
            }
        }
        And(a, b) => {
            let a = simplify(a);
            let b = simplify(b);
            match (a, b) {
                (Empty, _) | (_, Empty) => Empty,
                (a, b) if a == b => a,
                (a, b) => a.and(b),
            }
        }
        Not(a) => {
            let a = simplify(a);
            match a {
                // !!E ≡ E (complement is an involution on point sets)
                Not(inner) => *inner,
                a => a.not(),
            }
        }
        Relative(list) => {
            let list: Vec<EventExpr> = list.iter().map(simplify).collect();
            if list.iter().any(|e| matches!(e, Empty)) {
                return Empty; // a component that never occurs blocks the chain
            }
            match list.len() {
                0 => Empty,
                1 => list.into_iter().next().expect("len checked"),
                _ => {
                    // flatten nested relative chains (associativity)
                    let mut flat = Vec::new();
                    for e in list {
                        match e {
                            Relative(inner) => flat.extend(inner),
                            other => flat.push(other),
                        }
                    }
                    Relative(flat)
                }
            }
        }
        RelativePlus(a) => {
            let a = simplify(a);
            match a {
                Empty => Empty,
                // (E⁺)⁺ ≡ E⁺
                RelativePlus(inner) => RelativePlus(inner),
                a => a.relative_plus(),
            }
        }
        RelativeN(n, a) => {
            let a = simplify(a);
            match (n, a) {
                (_, Empty) => Empty,
                (1, a) => a,
                (n, a) => a.relative_n(*n),
            }
        }
        Prior(list) => {
            let list: Vec<EventExpr> = list.iter().map(simplify).collect();
            if list.iter().any(|e| matches!(e, Empty)) {
                return Empty;
            }
            match list.len() {
                0 => Empty,
                1 => list.into_iter().next().expect("len checked"),
                _ => Prior(list),
            }
        }
        PriorN(n, a) => {
            let a = simplify(a);
            match (n, a) {
                (_, Empty) => Empty,
                (1, a) => a,
                (n, a) => a.prior_n(*n),
            }
        }
        Sequence(list) => {
            let list: Vec<EventExpr> = list.iter().map(simplify).collect();
            if list.iter().any(|e| matches!(e, Empty)) {
                return Empty;
            }
            match list.len() {
                0 => Empty,
                1 => list.into_iter().next().expect("len checked"),
                _ => {
                    // Only a leading sequence flattens: a nested
                    // sequence occurs at its last event, so anywhere
                    // else its first event need not follow its
                    // predecessor immediately (`sequence(a, sequence(b,
                    // c))` never occurs; `sequence(a, b, c)` does).
                    let mut rest = list.into_iter();
                    let mut flat = match rest.next() {
                        Some(Sequence(inner)) => inner,
                        first => first.into_iter().collect(),
                    };
                    flat.extend(rest);
                    Sequence(flat)
                }
            }
        }
        SequenceN(n, a) => {
            let a = simplify(a);
            match (n, a) {
                (_, Empty) => Empty,
                (1, a) => a,
                (n, a) => a.sequence_n(*n),
            }
        }
        Choose(n, a) => {
            let a = simplify(a);
            match a {
                Empty => Empty,
                a => a.choose(*n),
            }
        }
        Every(n, a) => {
            let a = simplify(a);
            match (n, a) {
                (_, Empty) => Empty,
                (1, a) => a, // every 1 (E) ≡ E
                (n, a) => a.every(*n),
            }
        }
        Fa(e, f, g) => {
            let e = simplify(e);
            let f = simplify(f);
            let g = simplify(g);
            if matches!(e, Empty) || matches!(f, Empty) {
                return Empty;
            }
            EventExpr::fa(e, f, g)
        }
        FaAbs(e, f, g) => {
            let e = simplify(e);
            let f = simplify(f);
            let g = simplify(g);
            if matches!(e, Empty) || matches!(f, Empty) {
                return Empty;
            }
            EventExpr::fa_abs(e, f, g)
        }
        Masked(a, m) => {
            let a = simplify(a);
            match a {
                Empty => Empty,
                a => a.masked(m.clone()),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_event;

    fn simp(src: &str) -> EventExpr {
        simplify(&parse_event(src).unwrap())
    }

    #[test]
    fn identities_fold() {
        assert_eq!(simp("after a | empty"), parse_event("after a").unwrap());
        assert_eq!(simp("after a & empty"), EventExpr::Empty);
        assert_eq!(simp("relative(after a, empty)"), EventExpr::Empty);
        assert_eq!(simp("relative(after a)"), parse_event("after a").unwrap());
        assert_eq!(
            simp("relative 1 (after a)"),
            parse_event("after a").unwrap()
        );
        assert_eq!(simp("every 1 (after a)"), parse_event("after a").unwrap());
        assert_eq!(simp("!!after a"), parse_event("after a").unwrap());
        assert_eq!(simp("after a | after a"), parse_event("after a").unwrap());
    }

    #[test]
    fn relative_chains_flatten() {
        let flat = simp("relative(relative(after a, after b), after c)");
        assert!(matches!(flat, EventExpr::Relative(ref v) if v.len() == 3));
    }

    #[test]
    fn choose_one_is_not_folded() {
        // choose 1 (E) is the FIRST occurrence — not E itself.
        let e = simp("choose 1 (after a)");
        assert!(matches!(e, EventExpr::Choose(1, _)));
    }

    #[test]
    fn simplification_preserves_language() {
        use crate::detector::CompiledEvent;
        let sources = [
            "relative(after a | empty, relative(after b, after c))",
            "!(!(after a)) & (after b | after b)",
            "fa(after a, after b | empty, empty)",
            "sequence(sequence(after a, after b), after c)",
            "sequence(after a, sequence(after b, after c))",
            "every 1 (prior(after a, after b))",
            "relative 1 (choose 2 (after a))",
            "(after a & empty) | after b",
        ];
        for src in sources {
            let original = parse_event(src).unwrap();
            let simplified = simplify(&original);
            // Compile both against the ORIGINAL's alphabet so symbol
            // identities line up even when simplification drops events.
            let alphabet = crate::alphabet::Alphabet::build(&original).unwrap();
            let c1 = CompiledEvent::compile_with_alphabet(&original, alphabet.clone()).unwrap();
            let c2 = CompiledEvent::compile_with_alphabet(&simplified, alphabet).unwrap();
            assert!(
                c1.dfa().equivalent(c2.dfa()),
                "simplification changed `{src}` -> `{simplified}`"
            );
            assert!(simplified.size() <= original.size(), "{src}");
        }
    }

    #[test]
    fn simplify_is_idempotent() {
        for src in [
            "relative(relative(after a, after b), relative(after c, after a))",
            "!!(!after a)",
            "after a | (after b | after a)",
        ] {
            let once = simp(src);
            let twice = simplify(&once);
            assert_eq!(once, twice, "{src}");
        }
    }
}
