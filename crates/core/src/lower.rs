//! Lowering: [`EventExpr`] → [`SymExpr`], the purely symbolic core form.
//!
//! Lowering resolves every logical event to its disjoint symbol set
//! (Section 5's mask-minterm rewrite, performed by [`Alphabet`]) and
//! folds composite masks into symbol-set intersections. What remains is
//! an expression over an abstract alphabet — exactly the "core event
//! specification language" of Section 4 plus the derived operators, ready
//! for both the reference set semantics and the automaton compiler.

use ode_automata::Symbol;

use crate::alphabet::Alphabet;
use crate::error::EventError;
use crate::expr::EventExpr;

/// An event expression over bare alphabet symbols.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SymExpr {
    /// `∅` — never occurs.
    Empty,
    /// A disjunction of symbols occurring at the labelled point (a
    /// logical event after minterm expansion).
    Atom(Vec<Symbol>),
    /// Union.
    Or(Box<SymExpr>, Box<SymExpr>),
    /// Intersection.
    And(Box<SymExpr>, Box<SymExpr>),
    /// Complement.
    Not(Box<SymExpr>),
    /// Curried truncated-context sequencing.
    Relative(Vec<SymExpr>),
    /// Unlimited repetition.
    RelativePlus(Box<SymExpr>),
    /// n-fold chained repetition.
    RelativeN(u32, Box<SymExpr>),
    /// Full-context ordering.
    Prior(Vec<SymExpr>),
    /// n-fold `prior`.
    PriorN(u32, Box<SymExpr>),
    /// Immediate succession.
    Sequence(Vec<SymExpr>),
    /// n-fold `sequence`.
    SequenceN(u32, Box<SymExpr>),
    /// Exactly the n-th occurrence.
    Choose(u32, Box<SymExpr>),
    /// Every n-th occurrence.
    Every(u32, Box<SymExpr>),
    /// First-after with relative guard.
    Fa(Box<SymExpr>, Box<SymExpr>, Box<SymExpr>),
    /// First-after with absolute guard.
    FaAbs(Box<SymExpr>, Box<SymExpr>, Box<SymExpr>),
}

impl SymExpr {
    /// AST node count.
    pub fn size(&self) -> usize {
        match self {
            SymExpr::Empty | SymExpr::Atom(_) => 1,
            SymExpr::Or(a, b) | SymExpr::And(a, b) => 1 + a.size() + b.size(),
            SymExpr::Not(a)
            | SymExpr::RelativePlus(a)
            | SymExpr::RelativeN(_, a)
            | SymExpr::PriorN(_, a)
            | SymExpr::SequenceN(_, a)
            | SymExpr::Choose(_, a)
            | SymExpr::Every(_, a) => 1 + a.size(),
            SymExpr::Relative(l) | SymExpr::Prior(l) | SymExpr::Sequence(l) => {
                1 + l.iter().map(SymExpr::size).sum::<usize>()
            }
            SymExpr::Fa(a, b, c) | SymExpr::FaAbs(a, b, c) => 1 + a.size() + b.size() + c.size(),
        }
    }
}

/// Lower an event expression against an alphabet. The expression must
/// already be validated.
pub fn lower(expr: &EventExpr, alphabet: &Alphabet) -> Result<SymExpr, EventError> {
    Ok(match expr {
        EventExpr::Empty => SymExpr::Empty,
        EventExpr::Logical(le) => {
            let syms = alphabet.symbols_for_logical(le)?;
            if syms.is_empty() {
                SymExpr::Empty
            } else {
                SymExpr::Atom(syms)
            }
        }
        EventExpr::Or(a, b) => {
            SymExpr::Or(Box::new(lower(a, alphabet)?), Box::new(lower(b, alphabet)?))
        }
        EventExpr::And(a, b) => {
            SymExpr::And(Box::new(lower(a, alphabet)?), Box::new(lower(b, alphabet)?))
        }
        EventExpr::Not(a) => SymExpr::Not(Box::new(lower(a, alphabet)?)),
        EventExpr::Relative(l) => SymExpr::Relative(lower_list(l, alphabet)?),
        EventExpr::RelativePlus(a) => SymExpr::RelativePlus(Box::new(lower(a, alphabet)?)),
        EventExpr::RelativeN(n, a) => SymExpr::RelativeN(*n, Box::new(lower(a, alphabet)?)),
        EventExpr::Prior(l) => SymExpr::Prior(lower_list(l, alphabet)?),
        EventExpr::PriorN(n, a) => SymExpr::PriorN(*n, Box::new(lower(a, alphabet)?)),
        EventExpr::Sequence(l) => SymExpr::Sequence(lower_list(l, alphabet)?),
        EventExpr::SequenceN(n, a) => SymExpr::SequenceN(*n, Box::new(lower(a, alphabet)?)),
        EventExpr::Choose(n, a) => SymExpr::Choose(*n, Box::new(lower(a, alphabet)?)),
        EventExpr::Every(n, a) => SymExpr::Every(*n, Box::new(lower(a, alphabet)?)),
        EventExpr::Fa(a, b, c) => SymExpr::Fa(
            Box::new(lower(a, alphabet)?),
            Box::new(lower(b, alphabet)?),
            Box::new(lower(c, alphabet)?),
        ),
        EventExpr::FaAbs(a, b, c) => SymExpr::FaAbs(
            Box::new(lower(a, alphabet)?),
            Box::new(lower(b, alphabet)?),
            Box::new(lower(c, alphabet)?),
        ),
        EventExpr::Masked(e, m) => {
            // `E && C`: the composite mask becomes an intersection with
            // the set of symbols carrying C's truth bit (Section 3.3 —
            // C sees only the current database state).
            let syms = alphabet.symbols_for_composite_mask(m);
            SymExpr::And(
                Box::new(lower(e, alphabet)?),
                Box::new(if syms.is_empty() {
                    SymExpr::Empty
                } else {
                    SymExpr::Atom(syms)
                }),
            )
        }
    })
}

fn lower_list(list: &[EventExpr], alphabet: &Alphabet) -> Result<Vec<SymExpr>, EventError> {
    list.iter().map(|e| lower(e, alphabet)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mask::MaskExpr;

    #[test]
    fn logical_event_becomes_atom() {
        let e = EventExpr::after_method("a");
        let alpha = Alphabet::build(&e).unwrap();
        let s = lower(&e, &alpha).unwrap();
        assert!(matches!(s, SymExpr::Atom(ref v) if v.len() == 1));
    }

    #[test]
    fn composite_mask_becomes_intersection() {
        let e = EventExpr::after_method("a").masked(MaskExpr::lt("x", 1i64));
        let alpha = Alphabet::build(&e).unwrap();
        let s = lower(&e, &alpha).unwrap();
        match s {
            SymExpr::And(inner, bit) => {
                assert!(matches!(*inner, SymExpr::Atom(_)));
                assert!(matches!(*bit, SymExpr::Atom(ref v) if v.len() == 2));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn size_counts_nodes() {
        let e = EventExpr::after_method("a").or(EventExpr::after_method("b"));
        let alpha = Alphabet::build(&e).unwrap();
        assert_eq!(lower(&e, &alpha).unwrap().size(), 3);
    }
}
