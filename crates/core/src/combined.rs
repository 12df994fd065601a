//! The footnote-5 optimization: one automaton per class.
//!
//! > "The above description assumes one automaton definition per
//! > trigger. In many cases such automata may be combined into one,
//! > resulting in a more efficient monitoring; we regard this item as
//! > merely one of many possible optimizations." (Section 5, footnote 5)
//!
//! [`CombinedEvent`] compiles several event expressions against a single
//! shared alphabet and runs their product DFA: per posted event, one
//! mask-classification pass and **one** table lookup serve every
//! trigger. Acceptance is a bitmask — bit *i* set means trigger *i*'s
//! composite event occurs at this point. The monitoring state is still
//! one word per object (for all the triggers together), at the price of
//! a product-sized table; the E2 ablation bench quantifies the trade.

use std::sync::Arc;

use ode_automata::{determinize, minimize, Dfa, StateId, Symbol};

use crate::alphabet::Alphabet;
use crate::detector::CompileStats;
use crate::error::{EventError, MaskError};
use crate::event::BasicEvent;
use crate::expr::{EventExpr, LogicalEvent};
use crate::lower::lower;
use crate::mask::{MaskExpr, Scope};
use crate::value::Value;

/// Several composite events compiled into one product automaton over a
/// shared alphabet. Supports up to 32 events (`u32` firing bitmask).
#[derive(Clone, Debug)]
pub struct CombinedEvent {
    alphabet: Alphabet,
    /// Product DFA table, row-major `states × symbols`.
    table: Vec<StateId>,
    /// Firing bitmask per product state.
    accepting: Vec<u32>,
    start: StateId,
    stats: CompileStats,
    num_events: usize,
}

impl CombinedEvent {
    /// Compile `exprs` against the union of their alphabets.
    pub fn compile(exprs: &[EventExpr]) -> Result<Self, EventError> {
        assert!(
            (1..=32).contains(&exprs.len()),
            "CombinedEvent supports 1..=32 events"
        );
        // Shared alphabet: union of all logical events and composite
        // masks, in first-appearance order.
        let mut logical: Vec<LogicalEvent> = Vec::new();
        let mut masks: Vec<MaskExpr> = Vec::new();
        for e in exprs {
            e.validate()?;
            for le in e.logical_events() {
                if !logical.contains(&le) {
                    logical.push(le);
                }
            }
            for m in e.composite_masks() {
                if !masks.contains(&m) {
                    masks.push(m);
                }
            }
        }
        let alphabet = Alphabet::build_from_parts(&logical, &masks)?;
        let k = alphabet.len();

        // Compile each expression to its own minimal DFA over the shared
        // alphabet, then build the product lazily from the start tuple.
        let dfas: Vec<Dfa> = exprs
            .iter()
            .map(|e| {
                let lowered = lower(e, &alphabet)?;
                let nfa = crate::compile::compile_nfa(&lowered, k)?;
                Ok(minimize(&determinize(&nfa)))
            })
            .collect::<Result<_, EventError>>()?;

        let mut index = std::collections::HashMap::new();
        let mut tuples: Vec<Vec<StateId>> = Vec::new();
        let mut table: Vec<StateId> = Vec::new();
        let mut accepting: Vec<u32> = Vec::new();
        let start_tuple: Vec<StateId> = dfas.iter().map(|d| d.start()).collect();
        let accept_of = |tuple: &[StateId]| -> u32 {
            tuple
                .iter()
                .zip(&dfas)
                .enumerate()
                .filter(|(_, (s, d))| d.is_accepting(**s))
                .fold(0u32, |m, (i, _)| m | (1 << i))
        };
        index.insert(start_tuple.clone(), 0 as StateId);
        accepting.push(accept_of(&start_tuple));
        tuples.push(start_tuple);
        table.resize(k, 0);

        let mut next = 0usize;
        while next < tuples.len() {
            for sym in 0..k as Symbol {
                let t: Vec<StateId> = tuples[next]
                    .iter()
                    .zip(&dfas)
                    .map(|(s, d)| d.step(*s, sym))
                    .collect();
                let id = match index.get(&t) {
                    Some(&id) => id,
                    None => {
                        let id = tuples.len() as StateId;
                        accepting.push(accept_of(&t));
                        index.insert(t.clone(), id);
                        tuples.push(t);
                        table.resize(table.len() + k, 0);
                        id
                    }
                };
                table[next * k + sym as usize] = id;
            }
            next += 1;
        }

        let stats = CompileStats {
            alphabet_len: k,
            nfa_states: dfas.iter().map(Dfa::num_states).sum(),
            dfa_states: tuples.len(),
            expr_size: exprs.iter().map(EventExpr::size).sum(),
        };
        Ok(CombinedEvent {
            alphabet,
            table,
            accepting,
            start: 0,
            stats,
            num_events: exprs.len(),
        })
    }

    /// The shared alphabet.
    pub fn alphabet(&self) -> &Alphabet {
        &self.alphabet
    }

    /// Number of product states.
    pub fn num_states(&self) -> usize {
        self.accepting.len()
    }

    /// Number of combined events.
    pub fn num_events(&self) -> usize {
        self.num_events
    }

    /// Compilation statistics (here `nfa_states` reports the *sum* of
    /// the individual minimal DFAs — the storage the combined table
    /// replaces).
    pub fn stats(&self) -> CompileStats {
        self.stats
    }

    /// Start state.
    pub fn start(&self) -> StateId {
        self.start
    }

    /// One product step.
    #[inline]
    pub fn step(&self, state: StateId, sym: Symbol) -> (StateId, u32) {
        let next = self.table[state as usize * self.alphabet.len() + sym as usize];
        (next, self.accepting[next as usize])
    }
}

/// The per-object monitor over a [`CombinedEvent`]: still one word of
/// state — for *all* the class's triggers together.
#[derive(Clone, Debug)]
pub struct CombinedDetector {
    compiled: Arc<CombinedEvent>,
    state: StateId,
}

impl CombinedDetector {
    /// Create a monitor at the product start state.
    pub fn new(compiled: Arc<CombinedEvent>) -> Self {
        let state = compiled.start();
        CombinedDetector { compiled, state }
    }

    /// Feed the `start` point (never fires).
    pub fn activate<E: Scope + ?Sized>(&mut self, env: &E) -> Result<(), MaskError> {
        let sym = self.compiled.alphabet.start_symbol(env)?;
        self.state = self.compiled.step(self.state, sym).0;
        Ok(())
    }

    /// Post a basic event; returns the firing bitmask (bit *i* = event
    /// *i* occurred).
    pub fn post<E: Scope + ?Sized>(
        &mut self,
        basic: &BasicEvent,
        args: &[Value],
        env: &E,
    ) -> Result<u32, MaskError> {
        match self.compiled.alphabet.classify(basic, args, env)? {
            Some(sym) => {
                let (next, fired) = self.compiled.step(self.state, sym);
                self.state = next;
                Ok(fired)
            }
            None => Ok(0),
        }
    }

    /// The single word of state.
    pub fn state(&self) -> StateId {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::{CompiledEvent, Detector};
    use crate::mask::EmptyEnv;
    use crate::parser::parse_event;

    fn exprs() -> Vec<EventExpr> {
        [
            "after a; after b",
            "choose 3 (after a)",
            "relative(after b, after c)",
            "every 2 (after c | after a)",
        ]
        .iter()
        .map(|s| parse_event(s).unwrap())
        .collect()
    }

    #[test]
    fn combined_agrees_with_individual_detectors() {
        let es = exprs();
        let combined = Arc::new(CombinedEvent::compile(&es).unwrap());
        let mut cd = CombinedDetector::new(Arc::clone(&combined));
        cd.activate(&EmptyEnv).unwrap();
        let mut individual: Vec<Detector> = es
            .iter()
            .map(|e| {
                let c = Arc::new(CompiledEvent::compile(e).unwrap());
                let mut d = Detector::new(c);
                d.activate(&EmptyEnv).unwrap();
                d
            })
            .collect();

        let stream = ["a", "b", "c", "a", "a", "b", "c", "c", "a", "b"];
        for m in stream {
            let ev = BasicEvent::after_method(m);
            let mask = cd.post(&ev, &[], &EmptyEnv).unwrap();
            for (i, d) in individual.iter_mut().enumerate() {
                let fired = d.post(&ev, &[], &EmptyEnv).unwrap();
                assert_eq!(fired, mask & (1 << i) != 0, "event {i} disagrees at `{m}`");
            }
        }
    }

    #[test]
    fn state_is_still_one_word() {
        let combined = Arc::new(CombinedEvent::compile(&exprs()).unwrap());
        let d = CombinedDetector::new(combined);
        assert_eq!(std::mem::size_of_val(&d.state()), 4);
    }

    #[test]
    fn product_size_is_bounded_by_individual_product() {
        let es = exprs();
        let combined = CombinedEvent::compile(&es).unwrap();
        let product_bound: usize = es
            .iter()
            .map(|e| CompiledEvent::compile(e).unwrap().stats().dfa_states)
            .product();
        assert!(combined.num_states() <= product_bound);
        assert!(combined.num_states() >= 2);
    }

    #[test]
    fn too_many_events_rejected() {
        let many: Vec<EventExpr> = (0..33)
            .map(|i| EventExpr::after_method(format!("m{i}")))
            .collect();
        let r = std::panic::catch_unwind(|| CombinedEvent::compile(&many));
        assert!(r.is_err());
    }
}
