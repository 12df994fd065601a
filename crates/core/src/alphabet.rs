//! The symbol alphabet of a compiled trigger: disjoint logical events.
//!
//! Section 5 of the paper requires "that the logical events used in a
//! particular trigger definition all be disjoint so that no two logical
//! events occur simultaneously … We ensure that the masks for the basic
//! events are disjoint. If the masks are not disjoint, their Boolean
//! combinations must be disjoint, and we define new logical events using
//! these Boolean combinations."
//!
//! This module performs that rewrite mechanically:
//!
//! * Basic events are grouped; a group carrying `k` distinct masks
//!   expands into `2^k` **minterm symbols** (one per Boolean combination
//!   of mask outcomes). A logical event `basic && mᵢ` denotes the set of
//!   minterms whose `i`-th bit is set; a bare `basic` denotes all of
//!   them.
//! * **Composite masks** (`(E) && C`, Section 3.3) are evaluated against
//!   the current database state at *every* posted point, so each distinct
//!   composite mask contributes one further bit to *every* symbol. The
//!   event `E && C` then compiles to `E ∩ Σ*·{symbols with the C bit}`.
//! * The distinguished `start` point (Section 3.4) owns raw symbol 0.
//!
//! Every mask is bound once, when the alphabet is built
//! ([`MaskExpr::resolve`]): a declared event parameter becomes its
//! position. At run time, [`Alphabet::classify`] turns one posted basic
//! event into exactly one symbol by evaluating each relevant mask once,
//! by reference against a [`Scope`] — this is the entire per-event cost
//! of mask handling, measured by experiment E4.

use std::collections::HashMap;

use ode_automata::Symbol;

use crate::error::{EventError, MaskError};
use crate::event::BasicEvent;
use crate::expr::{EventExpr, LogicalEvent};
use crate::mask::{MaskExpr, Resolved, Scope};
use crate::value::Value;

/// Maximum distinct masks on one basic event (`2^k` minterms).
pub const MAX_GROUP_MASKS: usize = 10;
/// Maximum distinct composite masks (each doubles the alphabet).
pub const MAX_GLOBAL_MASKS: usize = 8;
/// Maximum total alphabet size.
pub const MAX_ALPHABET: usize = 1 << 14;

/// One basic event together with the distinct masks applied to it; each
/// mask keeps the parameter names its logical event declared (arguments
/// are bound positionally at classification time).
#[derive(Clone, Debug)]
pub struct Group {
    /// The basic event.
    pub basic: BasicEvent,
    /// Distinct `(declared-params, mask)` pairs.
    pub masks: Vec<(Vec<String>, MaskExpr)>,
    /// First raw symbol of this group's `2^k` minterm block.
    base: usize,
    /// `masks`, bound once.
    pub(crate) lowered: Vec<Resolved>,
}

impl Group {
    /// Number of minterm symbols in this group.
    pub fn width(&self) -> usize {
        1 << self.masks.len()
    }

    /// First raw symbol of this group's minterm block (before the
    /// global-mask refinement shifts it left). Exposed so the class-level
    /// router can rebuild symbols without re-hashing the basic event.
    pub fn base_symbol(&self) -> usize {
        self.base
    }
}

/// The compiled alphabet of one trigger.
#[derive(Clone, Debug)]
pub struct Alphabet {
    groups: Vec<Group>,
    group_index: HashMap<BasicEvent, usize>,
    global_masks: Vec<MaskExpr>,
    /// `global_masks`, bound once (they take no parameters).
    pub(crate) global_lowered: Vec<Resolved>,
    /// `1 (start) + Σ 2^kᵢ` raw symbols before global-mask refinement.
    raw_count: usize,
}

impl Alphabet {
    /// Build the alphabet for an event expression: collect its logical
    /// events, group by basic event, gather distinct masks per group and
    /// distinct composite masks globally.
    pub fn build(expr: &EventExpr) -> Result<Alphabet, EventError> {
        Self::build_from_parts(&expr.logical_events(), &expr.composite_masks())
    }

    /// Build from explicit parts (used when one automaton must serve an
    /// alphabet wider than a single expression).
    pub fn build_from_parts(
        logical: &[LogicalEvent],
        composite_masks: &[MaskExpr],
    ) -> Result<Alphabet, EventError> {
        let mut groups: Vec<Group> = Vec::new();
        let mut group_index: HashMap<BasicEvent, usize> = HashMap::new();
        for le in logical {
            let gi = *group_index.entry(le.basic.clone()).or_insert_with(|| {
                groups.push(Group {
                    basic: le.basic.clone(),
                    masks: Vec::new(),
                    base: 0,
                    lowered: Vec::new(),
                });
                groups.len() - 1
            });
            if let Some(mask) = &le.mask {
                let key = (le.params.clone(), mask.clone());
                if !groups[gi].masks.contains(&key) {
                    groups[gi].masks.push(key);
                }
            }
        }
        for g in &groups {
            if g.masks.len() > MAX_GROUP_MASKS {
                return Err(EventError::TooManyMasks {
                    event: g.basic.to_string(),
                    masks: g.masks.len(),
                    max: MAX_GROUP_MASKS,
                });
            }
        }
        let mut global_masks: Vec<MaskExpr> = Vec::new();
        for m in composite_masks {
            if !global_masks.contains(m) {
                global_masks.push(m.clone());
            }
        }
        if global_masks.len() > MAX_GLOBAL_MASKS {
            return Err(EventError::TooManyMasks {
                event: "(composite)".into(),
                masks: global_masks.len(),
                max: MAX_GLOBAL_MASKS,
            });
        }

        // Assign raw symbol bases: 0 = start, then each group's block.
        let mut next = 1usize;
        for g in &mut groups {
            g.base = next;
            next += g.width();
            g.lowered = g.masks.iter().map(|(p, m)| m.resolve(p)).collect();
        }
        let alphabet = Alphabet {
            groups,
            group_index,
            global_lowered: global_masks.iter().map(|m| m.resolve(&[])).collect(),
            global_masks,
            raw_count: next,
        };
        if alphabet.len() > MAX_ALPHABET {
            return Err(EventError::AlphabetTooLarge {
                size: alphabet.len(),
                max: MAX_ALPHABET,
            });
        }
        Ok(alphabet)
    }

    /// Total number of symbols: `raw_count × 2^globals`.
    pub fn len(&self) -> usize {
        self.raw_count << self.global_masks.len()
    }

    /// Whether the alphabet is the trivial start-only alphabet.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// The groups (basic events with their mask blocks).
    pub fn groups(&self) -> &[Group] {
        &self.groups
    }

    /// Position of the group owning `basic`, if the event is in the
    /// alphabet (one hash lookup — the index the router's dense
    /// per-trigger capture slots are keyed by).
    pub fn group_position(&self, basic: &BasicEvent) -> Option<usize> {
        self.group_index.get(basic).copied()
    }

    /// The composite masks refining every symbol.
    pub fn global_masks(&self) -> &[MaskExpr] {
        &self.global_masks
    }

    fn finalize(&self, raw: usize, global_bits: usize) -> Symbol {
        ((raw << self.global_masks.len()) | global_bits) as Symbol
    }

    /// All final symbols for a given raw symbol (any global-bit pattern).
    fn all_globals(&self, raw: usize) -> Vec<Symbol> {
        (0..(1usize << self.global_masks.len()))
            .map(|bits| self.finalize(raw, bits))
            .collect()
    }

    /// The symbols denoted by a logical event: its group's minterms
    /// (restricted to those where its own mask bit is set), with any
    /// global-bit pattern. Returns an empty set if the basic event is not
    /// in the alphabet (can only happen when compiling against a wider
    /// alphabet built from other parts), and
    /// [`EventError::MaskNotInAlphabet`] if the basic event is but its
    /// mask is not.
    pub fn symbols_for_logical(&self, le: &LogicalEvent) -> Result<Vec<Symbol>, EventError> {
        let Some(&gi) = self.group_index.get(&le.basic) else {
            return Ok(Vec::new());
        };
        let g = &self.groups[gi];
        let bit = le
            .mask
            .as_ref()
            .map(|m| {
                let key = (le.params.clone(), m.clone());
                g.masks.iter().position(|k| *k == key).ok_or_else(|| {
                    EventError::MaskNotInAlphabet {
                        event: le.to_string(),
                    }
                })
            })
            .transpose()?;
        let mut out = Vec::new();
        for minterm in 0..g.width() {
            if let Some(b) = bit {
                if minterm & (1 << b) == 0 {
                    continue;
                }
            }
            out.extend(self.all_globals(g.base + minterm));
        }
        Ok(out)
    }

    /// The symbols carrying a given composite-mask bit (used to compile
    /// `E && C` into an intersection).
    pub fn symbols_for_composite_mask(&self, mask: &MaskExpr) -> Vec<Symbol> {
        let Some(bit) = self.global_masks.iter().position(|m| m == mask) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        for raw in 0..self.raw_count {
            for bits in 0..(1usize << self.global_masks.len()) {
                if bits & (1 << bit) != 0 {
                    out.push(self.finalize(raw, bits));
                }
            }
        }
        out
    }

    /// Classify a posted basic event into a symbol, or `None` when the
    /// event is invisible to this trigger ("for each active trigger for
    /// which a logical event has occurred, we move the automaton to the
    /// next state" — Section 5: other events do not advance it).
    ///
    /// `args` are the positional arguments of a method event; `env`
    /// supplies object fields, the user and the class's mask functions.
    /// Each group mask is evaluated once with its own declared
    /// parameters bound to `args`; each composite mask is evaluated once
    /// with *no* parameters.
    pub fn classify<E: Scope + ?Sized>(
        &self,
        basic: &BasicEvent,
        args: &[Value],
        env: &E,
    ) -> Result<Option<Symbol>, MaskError> {
        let raw = match basic {
            BasicEvent::Start => 0,
            _ => {
                let Some(&gi) = self.group_index.get(basic) else {
                    return Ok(None);
                };
                let g = &self.groups[gi];
                g.base + minterm(&g.lowered, args, env)?
            }
        };
        let global_bits = minterm(&self.global_lowered, &[], env)?;
        Ok(Some(self.finalize(raw, global_bits)))
    }

    /// The symbol of the distinguished `start` point, with composite
    /// masks evaluated at activation time.
    pub fn start_symbol<E: Scope + ?Sized>(&self, env: &E) -> Result<Symbol, MaskError> {
        Ok(self
            .classify(&BasicEvent::Start, &[], env)?
            .expect("start is always classifiable"))
    }

    /// Human-readable description of a symbol (debugging, DOT export).
    pub fn describe(&self, sym: Symbol) -> String {
        let g = self.global_masks.len();
        let raw = (sym as usize) >> g;
        let bits = (sym as usize) & ((1 << g) - 1);
        let mut s = if raw == 0 {
            "start".to_string()
        } else {
            match self
                .groups
                .iter()
                .find(|grp| raw >= grp.base && raw < grp.base + grp.width())
            {
                Some(grp) => {
                    let minterm = raw - grp.base;
                    let mut s = grp.basic.to_string();
                    for (i, (_, m)) in grp.masks.iter().enumerate() {
                        if minterm & (1 << i) != 0 {
                            s.push_str(&format!(" && {m}"));
                        } else {
                            s.push_str(&format!(" && !({m})"));
                        }
                    }
                    s
                }
                None => format!("raw{raw}"),
            }
        };
        for (i, m) in self.global_masks.iter().enumerate() {
            if bits & (1 << i) != 0 {
                s.push_str(&format!(" [{m}]"));
            } else {
                s.push_str(&format!(" [!({m})]"));
            }
        }
        s
    }
}

/// The minterm of `masks`' outcomes: bit `i` is set when mask `i` holds.
fn minterm<E: Scope + ?Sized>(
    masks: &[Resolved],
    args: &[Value],
    env: &E,
) -> Result<usize, MaskError> {
    let mut bits = 0;
    for (i, mask) in masks.iter().enumerate() {
        if mask.eval_bool(args, env)? {
            bits |= 1 << i;
        }
    }
    Ok(bits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::mask::{EmptyEnv, MaskEnv};

    fn withdraw_gt(n: i64) -> LogicalEvent {
        LogicalEvent::bare(BasicEvent::after_method("withdraw"))
            .with_params(["i", "q"])
            .with_mask(MaskExpr::gt("q", n))
    }

    struct FieldEnv(f64);
    impl MaskEnv for FieldEnv {
        fn param(&self, _: &str) -> Option<Value> {
            None
        }
        fn field(&self, name: &str) -> Option<Value> {
            (name == "balance").then_some(Value::Float(self.0))
        }
        fn call(&self, _: &str, _: &[Value]) -> Option<Value> {
            None
        }
    }

    #[test]
    fn unmasked_event_has_one_symbol() {
        let e = EventExpr::after_method("deposit");
        let a = Alphabet::build(&e).unwrap();
        assert_eq!(a.len(), 2); // start + deposit
        let syms = a
            .symbols_for_logical(&LogicalEvent::bare(BasicEvent::after_method("deposit")))
            .unwrap();
        assert_eq!(syms.len(), 1);
    }

    #[test]
    fn two_masks_make_four_minterms() {
        // after withdraw && q>100  |  after withdraw && q>1000
        let e = EventExpr::Logical(withdraw_gt(100)).or(EventExpr::Logical(withdraw_gt(1000)));
        let a = Alphabet::build(&e).unwrap();
        assert_eq!(a.len(), 1 + 4); // start + 2^2 minterms
        let s100 = a.symbols_for_logical(&withdraw_gt(100)).unwrap();
        let s1000 = a.symbols_for_logical(&withdraw_gt(1000)).unwrap();
        assert_eq!(s100.len(), 2); // minterms with bit0 set
        assert_eq!(s1000.len(), 2); // minterms with bit1 set
                                    // exactly one shared minterm (both masks true)
        let shared: Vec<_> = s100.iter().filter(|s| s1000.contains(s)).collect();
        assert_eq!(shared.len(), 1);
    }

    #[test]
    fn bare_and_masked_coexist() {
        let bare = LogicalEvent::bare(BasicEvent::after_method("withdraw"));
        let e = EventExpr::Logical(bare.clone()).or(EventExpr::Logical(withdraw_gt(100)));
        let a = Alphabet::build(&e).unwrap();
        assert_eq!(a.len(), 3); // start + 2 minterms
        assert_eq!(a.symbols_for_logical(&bare).unwrap().len(), 2); // both minterms
        assert_eq!(a.symbols_for_logical(&withdraw_gt(100)).unwrap().len(), 1);
    }

    #[test]
    fn classification_picks_minterm_by_mask_truth() {
        let e = EventExpr::Logical(withdraw_gt(100)).or(EventExpr::Logical(withdraw_gt(1000)));
        let a = Alphabet::build(&e).unwrap();
        let big = a
            .classify(
                &BasicEvent::after_method("withdraw"),
                &[Value::Null, Value::Int(5000)],
                &EmptyEnv,
            )
            .unwrap()
            .unwrap();
        // q=5000: both masks true → in both logical events' symbol sets
        assert!(a
            .symbols_for_logical(&withdraw_gt(100))
            .unwrap()
            .contains(&big));
        assert!(a
            .symbols_for_logical(&withdraw_gt(1000))
            .unwrap()
            .contains(&big));
        let mid = a
            .classify(
                &BasicEvent::after_method("withdraw"),
                &[Value::Null, Value::Int(500)],
                &EmptyEnv,
            )
            .unwrap()
            .unwrap();
        assert!(a
            .symbols_for_logical(&withdraw_gt(100))
            .unwrap()
            .contains(&mid));
        assert!(!a
            .symbols_for_logical(&withdraw_gt(1000))
            .unwrap()
            .contains(&mid));
        assert_ne!(big, mid);
    }

    #[test]
    fn irrelevant_events_are_invisible() {
        let e = EventExpr::after_method("deposit");
        let a = Alphabet::build(&e).unwrap();
        let r = a
            .classify(&BasicEvent::after_method("withdraw"), &[], &EmptyEnv)
            .unwrap();
        assert_eq!(r, None);
        let r = a
            .classify(&BasicEvent::after(EventKind::TCommit), &[], &EmptyEnv)
            .unwrap();
        assert_eq!(r, None);
    }

    #[test]
    fn composite_masks_double_the_alphabet() {
        let e = EventExpr::after_method("deposit").masked(MaskExpr::lt("balance", 500.0));
        let a = Alphabet::build(&e).unwrap();
        assert_eq!(a.len(), 4); // (start + deposit) × 2
        let low = a
            .classify(&BasicEvent::after_method("deposit"), &[], &FieldEnv(400.0))
            .unwrap()
            .unwrap();
        let high = a
            .classify(&BasicEvent::after_method("deposit"), &[], &FieldEnv(600.0))
            .unwrap()
            .unwrap();
        assert_ne!(low, high);
        let with_bit = a.symbols_for_composite_mask(&MaskExpr::lt("balance", 500.0));
        assert!(with_bit.contains(&low));
        assert!(!with_bit.contains(&high));
    }

    #[test]
    fn start_symbol_carries_global_bits() {
        let e = EventExpr::after_method("deposit").masked(MaskExpr::lt("balance", 500.0));
        let a = Alphabet::build(&e).unwrap();
        let s_low = a.start_symbol(&FieldEnv(100.0)).unwrap();
        let s_high = a.start_symbol(&FieldEnv(900.0)).unwrap();
        assert_ne!(s_low, s_high);
    }

    #[test]
    fn mask_evaluation_error_propagates() {
        let e = EventExpr::Logical(withdraw_gt(100));
        let a = Alphabet::build(&e).unwrap();
        // no args bound → unknown param error
        let r = a.classify(&BasicEvent::after_method("withdraw"), &[], &EmptyEnv);
        assert!(r.is_err());
    }

    #[test]
    fn too_many_global_masks_rejected() {
        let mut e = EventExpr::after_method("a");
        for i in 0..(MAX_GLOBAL_MASKS + 1) {
            e = e.masked(MaskExpr::gt("x", i as i64));
        }
        assert!(matches!(
            Alphabet::build(&e),
            Err(EventError::TooManyMasks { .. })
        ));
    }

    #[test]
    fn describe_names_minterms() {
        let e = EventExpr::Logical(withdraw_gt(100));
        let a = Alphabet::build(&e).unwrap();
        let syms = a.symbols_for_logical(&withdraw_gt(100)).unwrap();
        let d = a.describe(syms[0]);
        assert!(d.contains("withdraw"), "{d}");
        assert!(d.contains("q > 100"), "{d}");
        assert!(a
            .describe(a.start_symbol(&EmptyEnv).unwrap())
            .contains("start"));
    }
}
