//! Incremental detection: the runtime artifact of Section 5.
//!
//! A [`CompiledEvent`] bundles the alphabet (mask minterms + composite
//! mask bits) with the minimal DFA for the event's occurrence language.
//! It is immutable and shared — "for each trigger definition, the
//! transition table of the trigger automaton is kept once (for the
//! class)".
//!
//! A [`Detector`] is the per-object, per-active-trigger monitor: it
//! stores exactly one [`StateId`] — "only a single (integer) variable is
//! required for storing the state … one word per active trigger per
//! object". Posting a basic event costs one mask evaluation per relevant
//! mask plus one table lookup.

use std::sync::Arc;

use ode_automata::{Dfa, StateId, Symbol};

use crate::alphabet::Alphabet;
use crate::error::{EventError, MaskError};
use crate::event::BasicEvent;
use crate::expr::EventExpr;
use crate::lower::{lower, SymExpr};
use crate::mask::Scope;
use crate::value::Value;

/// Compilation statistics, reported by experiment E3.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompileStats {
    /// Alphabet size (symbols).
    pub alphabet_len: usize,
    /// States in the intermediate NFA.
    pub nfa_states: usize,
    /// States in the minimal DFA.
    pub dfa_states: usize,
    /// AST node count of the source expression.
    pub expr_size: usize,
}

/// A fully compiled composite event: shareable, immutable.
#[derive(Clone, Debug)]
pub struct CompiledEvent {
    alphabet: Alphabet,
    dfa: Dfa,
    stats: CompileStats,
}

impl CompiledEvent {
    /// Validate, build the alphabet, lower, and compile `expr`.
    pub fn compile(expr: &EventExpr) -> Result<Self, EventError> {
        expr.validate()?;
        let alphabet = Alphabet::build(expr)?;
        Self::compile_with_alphabet(expr, alphabet)
    }

    /// Compile against a caller-supplied alphabet (which must cover the
    /// expression's logical events — typically a class-wide alphabet so
    /// several triggers can share classification work).
    pub fn compile_with_alphabet(expr: &EventExpr, alphabet: Alphabet) -> Result<Self, EventError> {
        expr.validate()?;
        let lowered = lower(expr, &alphabet)?;
        let nfa = crate::compile::compile_nfa(&lowered, alphabet.len())?;
        let dfa = ode_automata::nfa_to_min_dfa(&nfa);
        let stats = CompileStats {
            alphabet_len: alphabet.len(),
            nfa_states: nfa.num_states(),
            dfa_states: dfa.num_states(),
            expr_size: expr.size(),
        };
        Ok(CompiledEvent {
            alphabet,
            dfa,
            stats,
        })
    }

    /// The symbol alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// The minimal detection DFA.
    pub fn dfa(&self) -> &Dfa {
        &self.dfa
    }

    /// Compilation statistics.
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// True if this event can never occur (its occurrence language is
    /// empty) — a specification bug worth surfacing at activation time.
    pub fn never_occurs(&self) -> bool {
        self.dfa.is_empty_language()
    }

    /// Lower `expr` against this compiled event's alphabet (used by the
    /// naive baseline to evaluate the same symbol stream).
    pub fn lower_expr(&self, expr: &EventExpr) -> Result<SymExpr, EventError> {
        lower(expr, &self.alphabet)
    }
}

/// The per-object monitor: an `Arc` to the shared table plus one word.
#[derive(Clone, Debug)]
pub struct Detector {
    compiled: Arc<CompiledEvent>,
    state: StateId,
}

impl Detector {
    /// Create a monitor positioned at the DFA start state. Call
    /// [`Detector::activate`] to feed the distinguished `start` point
    /// before posting real events (Section 3.4).
    pub fn new(compiled: Arc<CompiledEvent>) -> Self {
        let state = compiled.dfa.start();
        Detector { compiled, state }
    }

    /// Feed the `start` point, evaluating composite masks against the
    /// activation-time state. Never reports an occurrence (start "is
    /// placed just prior to the first user specified logical event").
    pub fn activate<E: Scope + ?Sized>(&mut self, env: &E) -> Result<(), MaskError> {
        let sym = self.compiled.alphabet.start_symbol(env)?;
        self.state = self.compiled.dfa.step(self.state, sym);
        Ok(())
    }

    /// Post a basic event. Returns `Ok(true)` exactly when the composite
    /// event occurs at this point. Events outside the trigger's alphabet
    /// are invisible and leave the state untouched.
    pub fn post<E: Scope + ?Sized>(
        &mut self,
        basic: &BasicEvent,
        args: &[Value],
        env: &E,
    ) -> Result<bool, MaskError> {
        match self.compiled.alphabet.classify(basic, args, env)? {
            Some(sym) => Ok(self.step_symbol(sym)),
            None => Ok(false),
        }
    }

    /// Step on a pre-classified symbol (used by replay tooling and by
    /// benches that want to exclude mask evaluation from the timing).
    pub fn step_symbol(&mut self, sym: Symbol) -> bool {
        self.state = self.compiled.dfa.step(self.state, sym);
        self.compiled.dfa.is_accepting(self.state)
    }

    /// The single word of monitoring state.
    pub fn state(&self) -> StateId {
        self.state
    }

    /// Restore a previously saved state — transaction rollback for
    /// committed-history monitoring (Section 6: "the automaton state is
    /// considered part of the object data structure and hence will be
    /// restored correctly upon abort").
    pub fn set_state(&mut self, state: StateId) {
        self.state = state;
    }

    /// The shared compiled event.
    pub fn compiled(&self) -> &Arc<CompiledEvent> {
        &self.compiled
    }

    /// Whether the monitor currently sits in an accepting state.
    pub fn occurred_now(&self) -> bool {
        self.compiled.dfa.is_accepting(self.state)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::mask::{EmptyEnv, MaskExpr};

    fn detector_for(expr: &EventExpr) -> Detector {
        let compiled = Arc::new(CompiledEvent::compile(expr).unwrap());
        let mut d = Detector::new(compiled);
        d.activate(&EmptyEnv).unwrap();
        d
    }

    #[test]
    fn detects_simple_sequence() {
        // after deposit; before withdraw; after withdraw  (trigger T8)
        let expr = EventExpr::sequence([
            EventExpr::after_method("deposit"),
            EventExpr::before_method("withdraw"),
            EventExpr::after_method("withdraw"),
        ]);
        let mut d = detector_for(&expr);
        assert!(!d
            .post(&BasicEvent::after_method("deposit"), &[], &EmptyEnv)
            .unwrap());
        assert!(!d
            .post(&BasicEvent::before_method("withdraw"), &[], &EmptyEnv)
            .unwrap());
        assert!(d
            .post(&BasicEvent::after_method("withdraw"), &[], &EmptyEnv)
            .unwrap());
    }

    #[test]
    fn irrelevant_events_do_not_advance() {
        let expr = EventExpr::sequence([
            EventExpr::after_method("deposit"),
            EventExpr::after_method("withdraw"),
        ]);
        let mut d = detector_for(&expr);
        d.post(&BasicEvent::after_method("deposit"), &[], &EmptyEnv)
            .unwrap();
        let before = d.state();
        // a read of some unrelated method is invisible to this trigger
        d.post(&BasicEvent::after_method("audit"), &[], &EmptyEnv)
            .unwrap();
        assert_eq!(d.state(), before);
        assert!(d
            .post(&BasicEvent::after_method("withdraw"), &[], &EmptyEnv)
            .unwrap());
    }

    #[test]
    fn mask_selects_minterm() {
        // choose 5 (after withdraw(i, q) && q > 100)  — "5thLrgWdrl"
        let big = EventExpr::Logical(
            crate::expr::LogicalEvent::bare(BasicEvent::after_method("withdraw"))
                .with_params(["i", "q"])
                .with_mask(MaskExpr::gt("q", 100i64)),
        );
        let mut d = detector_for(&big.choose(5));
        let w = BasicEvent::after_method("withdraw");
        for i in 0..4 {
            let fired = d
                .post(&w, &[Value::Null, Value::Int(200)], &EmptyEnv)
                .unwrap();
            assert!(!fired, "large withdrawal {i} should not fire yet");
            // small withdrawals never count
            assert!(!d
                .post(&w, &[Value::Null, Value::Int(50)], &EmptyEnv)
                .unwrap());
        }
        assert!(d
            .post(&w, &[Value::Null, Value::Int(500)], &EmptyEnv)
            .unwrap());
        // the 6th does NOT fire (choose, not every)
        assert!(!d
            .post(&w, &[Value::Null, Value::Int(500)], &EmptyEnv)
            .unwrap());
    }

    #[test]
    fn state_is_one_word() {
        assert_eq!(std::mem::size_of::<StateId>(), 4);
        let expr = EventExpr::after_method("a");
        let d = detector_for(&expr);
        // Detector = Arc + u32 state
        let _ = d;
    }

    #[test]
    fn set_state_rolls_back() {
        let expr =
            EventExpr::relative([EventExpr::after_method("a"), EventExpr::after_method("b")]);
        let mut d = detector_for(&expr);
        let saved = d.state();
        d.post(&BasicEvent::after_method("a"), &[], &EmptyEnv)
            .unwrap();
        d.set_state(saved);
        // without the `a`, `b` does not complete the event
        assert!(!d
            .post(&BasicEvent::after_method("b"), &[], &EmptyEnv)
            .unwrap());
    }

    #[test]
    fn never_occurs_flags_contradictions() {
        let a = EventExpr::after_method("a");
        let contradiction = a.clone().and(a.not());
        let c = CompiledEvent::compile(&contradiction).unwrap();
        assert!(c.never_occurs());
        let fine = CompiledEvent::compile(&EventExpr::after_method("a")).unwrap();
        assert!(!fine.never_occurs());
    }

    #[test]
    fn compile_rejects_invalid_events() {
        let bad = EventExpr::basic(BasicEvent::before(EventKind::TCommit));
        assert!(CompiledEvent::compile(&bad).is_err());
    }

    #[test]
    fn stats_are_populated() {
        let expr =
            EventExpr::relative([EventExpr::after_method("a"), EventExpr::after_method("b")]);
        let c = CompiledEvent::compile(&expr).unwrap();
        let s = c.stats();
        assert!(s.dfa_states >= 2);
        assert!(s.nfa_states >= s.dfa_states.min(4));
        assert_eq!(s.alphabet_len, 3); // start + a + b
        assert_eq!(s.expr_size, 3);
    }

    #[test]
    fn detectors_share_compiled_tables() {
        let expr = EventExpr::after_method("a");
        let compiled = Arc::new(CompiledEvent::compile(&expr).unwrap());
        let d1 = Detector::new(Arc::clone(&compiled));
        let d2 = Detector::new(Arc::clone(&compiled));
        assert!(Arc::ptr_eq(d1.compiled(), d2.compiled()));
    }

    #[test]
    fn a_mask_missing_from_the_alphabet_is_an_error_not_a_panic() {
        // `after w` is in the alphabet, `after w(q) && q > 100` is not.
        let base = EventExpr::after_method("w");
        let masked = EventExpr::Logical(
            crate::expr::LogicalEvent::bare(BasicEvent::after_method("w"))
                .with_params(["q"])
                .with_mask(MaskExpr::gt("q", 100i64)),
        );
        let missing = |r: Result<(), EventError>| match r {
            Err(EventError::MaskNotInAlphabet { event }) => {
                assert!(event.contains("w") && event.contains("q > 100"), "{event}")
            }
            other => panic!("expected MaskNotInAlphabet, got {other:?}"),
        };
        let compiled = CompiledEvent::compile(&base).unwrap();
        missing(compiled.lower_expr(&masked).map(drop));
        let alphabet = Alphabet::build(&base).unwrap();
        missing(CompiledEvent::compile_with_alphabet(&masked, alphabet).map(drop));
        // An unknown basic event still lowers to the empty event.
        let other = EventExpr::after_method("v");
        assert_eq!(compiled.lower_expr(&other).unwrap(), SymExpr::Empty);
    }
}
