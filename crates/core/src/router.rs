//! Class-level event routing: classify each posted basic event once,
//! fan dense symbols out to the relevant triggers.
//!
//! Section 5 keeps one transition table per trigger ("the transition
//! table of the trigger automaton is kept once, for the class") and one
//! word of state per active trigger per object. The naive posting loop,
//! however, pays per *trigger* for work that is really per *class*:
//!
//! * every trigger re-hashes the posted [`BasicEvent`] in its private
//!   alphabet's `HashMap` just to discover relevance, and
//! * triggers whose logical events share masks re-evaluate those masks.
//!
//! A [`ClassRouter`] is built once, at class-registration time, from the
//! alphabets of all the class's trigger definitions:
//!
//! * basic events are interned into dense [`EventCode`]s
//!   ([`EventInterner`]) — resolving a posted event costs one hash
//!   lookup *per posting* (or none, when the caller pre-resolved the
//!   code at registration time), not one per trigger;
//! * a relevance index maps each code to the [`Route`]s of the triggers
//!   that mention it — irrelevant triggers are skipped without any work;
//! * group masks and composite masks are deduplicated class-wide, each
//!   kept in the form its alphabet bound once, and a per-posting
//!   [`MaskMemo`] guarantees each *distinct* mask is evaluated at most
//!   once per posting;
//! * each route carries a precomputed remap (class mask ids in the
//!   trigger's own bit order, plus the trigger's group base and global
//!   shift), so the class-level mask outcomes translate into each
//!   trigger's private symbol with a few shifts and ors.
//!
//! The routed symbol is bit-for-bit identical to what the trigger's own
//! [`Alphabet::classify`] would produce, so detection semantics — and
//! the "one `StateId` word per active trigger per object" invariant —
//! are untouched; only the classification cost model changes.

use std::collections::HashMap;

use ode_automata::Symbol;

use crate::alphabet::Alphabet;
use crate::error::MaskError;
use crate::event::BasicEvent;
use crate::mask::{MaskExpr, Resolved, Scope};
use crate::value::Value;

/// Dense identifier of a basic event within one class's union alphabet.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct EventCode(u32);

impl EventCode {
    /// The dense index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Interns basic events into dense [`EventCode`]s.
#[derive(Clone, Debug, Default)]
pub struct EventInterner {
    index: HashMap<BasicEvent, u32>,
    events: Vec<BasicEvent>,
}

impl EventInterner {
    /// Intern `basic`, returning its (possibly pre-existing) code.
    pub fn intern(&mut self, basic: &BasicEvent) -> EventCode {
        if let Some(&i) = self.index.get(basic) {
            return EventCode(i);
        }
        let i = self.events.len() as u32;
        self.index.insert(basic.clone(), i);
        self.events.push(basic.clone());
        EventCode(i)
    }

    /// Resolve a basic event to its code — one hash lookup, `None` when
    /// no trigger of the class mentions the event.
    pub fn code(&self, basic: &BasicEvent) -> Option<EventCode> {
        self.index.get(basic).map(|&i| EventCode(i))
    }

    /// The interned event for a code.
    pub fn event(&self, code: EventCode) -> &BasicEvent {
        &self.events[code.index()]
    }

    /// Number of interned events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// All interned events with their codes (registration-time scan —
    /// engines build qualifier/kind-indexed resolve tables from this).
    pub fn iter(&self) -> impl Iterator<Item = (EventCode, &BasicEvent)> {
        self.events
            .iter()
            .enumerate()
            .map(|(i, e)| (EventCode(i as u32), e))
    }

    /// Whether nothing has been interned.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// One trigger's stake in one basic event: everything needed to rebuild
/// the symbol its private alphabet would classify the posting into.
#[derive(Clone, Debug)]
pub struct Route {
    /// Caller-supplied trigger identifier (the engine passes the
    /// trigger's definition index within its class).
    pub trigger: usize,
    /// Position of the event's group within the trigger's own alphabet
    /// (dense per-trigger slot — used to key captured-argument storage).
    pub slot: usize,
    /// First raw symbol of the group's minterm block in the trigger's
    /// alphabet.
    base: usize,
    /// Class-wide mask ids, in the group's own bit order: bit `i` of the
    /// minterm is the outcome of class mask `group_bits[i]`.
    group_bits: Vec<u32>,
    /// Class-wide composite-mask ids, in the trigger's global-bit order.
    global_bits: Vec<u32>,
    /// The trigger's global-mask count (raw symbols shift left by this).
    shift: u32,
}

/// Per-posting memo: each distinct class-wide mask is evaluated at most
/// once per posting. Epoch-stamped so the buffer can be reused across
/// postings without clearing.
#[derive(Clone, Debug, Default)]
pub struct MaskMemo {
    group: Vec<(u64, Result<bool, MaskError>)>,
    global: Vec<(u64, Result<bool, MaskError>)>,
    epoch: u64,
}

impl MaskMemo {
    /// Start a new posting: all memoized outcomes become stale.
    pub fn begin(&mut self, router: &ClassRouter) {
        self.epoch += 1;
        if self.group.len() < router.group_masks.len() {
            self.group.resize(router.group_masks.len(), (0, Ok(false)));
        }
        if self.global.len() < router.global_masks.len() {
            self.global
                .resize(router.global_masks.len(), (0, Ok(false)));
        }
    }

    fn eval_group<E: Scope + ?Sized>(
        &mut self,
        router: &ClassRouter,
        id: u32,
        args: &[Value],
        env: &E,
    ) -> Result<bool, MaskError> {
        let slot = &mut self.group[id as usize];
        if slot.0 != self.epoch {
            *slot = (
                self.epoch,
                router.group_masks[id as usize].1.eval_bool(args, env),
            );
        }
        slot.1.clone()
    }

    fn eval_global<E: Scope + ?Sized>(
        &mut self,
        router: &ClassRouter,
        id: u32,
        env: &E,
    ) -> Result<bool, MaskError> {
        let slot = &mut self.global[id as usize];
        if slot.0 != self.epoch {
            *slot = (
                self.epoch,
                router.global_masks[id as usize].1.eval_bool(&[], env),
            );
        }
        slot.1.clone()
    }
}

/// The class-level router: relevance index + mask dedup + symbol remaps
/// over the alphabets of all the class's trigger definitions.
#[derive(Clone, Debug, Default)]
pub struct ClassRouter {
    interner: EventInterner,
    /// Distinct `(declared-params, mask)` pairs across all groups of all
    /// trigger alphabets, each with its bound form.
    group_masks: Vec<((Vec<String>, MaskExpr), Resolved)>,
    /// Distinct composite masks across all trigger alphabets, each with
    /// its bound form.
    global_masks: Vec<(MaskExpr, Resolved)>,
    /// Routes per event code, in trigger registration order.
    routes: Vec<Vec<Route>>,
}

impl ClassRouter {
    /// Build a router over `(trigger-id, alphabet)` pairs. Trigger ids
    /// are opaque to the router and come back on each [`Route`]; the
    /// iteration order fixes the fan-out order per event (and thereby
    /// the mask-error precedence, matching a per-trigger classify loop).
    pub fn build<'a>(triggers: impl IntoIterator<Item = (usize, &'a Alphabet)>) -> ClassRouter {
        let mut router = ClassRouter::default();
        for (trigger, alphabet) in triggers {
            let global_bits: Vec<u32> = alphabet
                .global_masks()
                .iter()
                .zip(&alphabet.global_lowered)
                .map(|(m, r)| intern(&mut router.global_masks, m, r))
                .collect();
            let shift = global_bits.len() as u32;
            for (slot, group) in alphabet.groups().iter().enumerate() {
                let code = router.interner.intern(&group.basic);
                let group_bits = group
                    .masks
                    .iter()
                    .zip(&group.lowered)
                    .map(|(key, r)| intern(&mut router.group_masks, key, r))
                    .collect();
                if router.routes.len() <= code.index() {
                    router.routes.resize_with(code.index() + 1, Vec::new);
                }
                router.routes[code.index()].push(Route {
                    trigger,
                    slot,
                    base: group.base_symbol(),
                    group_bits,
                    global_bits: global_bits.clone(),
                    shift,
                });
            }
        }
        router
    }

    /// The event interner (pre-resolve codes at registration time).
    pub fn interner(&self) -> &EventInterner {
        &self.interner
    }

    /// Resolve a posted basic event — `None` means no trigger of the
    /// class mentions it, so the posting is invisible to every trigger.
    pub fn code(&self, basic: &BasicEvent) -> Option<EventCode> {
        self.interner.code(basic)
    }

    /// The routes of the triggers that mention `code`, in registration
    /// order.
    pub fn routes(&self, code: EventCode) -> &[Route] {
        self.routes
            .get(code.index())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Number of distinct group masks across the class.
    pub fn distinct_group_masks(&self) -> usize {
        self.group_masks.len()
    }

    /// Number of distinct composite masks across the class.
    pub fn distinct_global_masks(&self) -> usize {
        self.global_masks.len()
    }

    /// Compute the symbol `route`'s trigger would classify this posting
    /// into: evaluate the route's masks (memoized class-wide) and remap
    /// the outcomes into the trigger's private minterm and global bits.
    ///
    /// Equals `alphabet.classify(basic, args, env)` of the route's
    /// trigger, bit for bit.
    pub fn symbol<E: Scope + ?Sized>(
        &self,
        route: &Route,
        args: &[Value],
        env: &E,
        memo: &mut MaskMemo,
    ) -> Result<Symbol, MaskError> {
        let mut minterm = 0usize;
        for (bit, &id) in route.group_bits.iter().enumerate() {
            if memo.eval_group(self, id, args, env)? {
                minterm |= 1 << bit;
            }
        }
        let mut global = 0usize;
        for (bit, &id) in route.global_bits.iter().enumerate() {
            if memo.eval_global(self, id, env)? {
                global |= 1 << bit;
            }
        }
        Ok((((route.base + minterm) << route.shift) | global) as Symbol)
    }
}

/// The id of `key` among the distinct masks `masks`, adding it with its
/// bound form `lowered` if it is new.
fn intern<K: Clone + PartialEq>(
    masks: &mut Vec<(K, Resolved)>,
    key: &K,
    lowered: &Resolved,
) -> u32 {
    match masks.iter().position(|(k, _)| k == key) {
        Some(i) => i as u32,
        None => {
            masks.push((key.clone(), lowered.clone()));
            (masks.len() - 1) as u32
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;
    use crate::expr::{EventExpr, LogicalEvent};
    use crate::mask::{EmptyEnv, MaskEnv};
    use std::cell::Cell;

    fn masked_withdraw(n: i64) -> EventExpr {
        EventExpr::Logical(
            LogicalEvent::bare(BasicEvent::after_method("withdraw"))
                .with_params(["i", "q"])
                .with_mask(MaskExpr::gt("q", n)),
        )
    }

    /// Env counting how often masks read the `balance` field.
    struct CountingEnv {
        balance: f64,
        reads: Cell<u32>,
    }

    impl MaskEnv for CountingEnv {
        fn param(&self, _: &str) -> Option<Value> {
            None
        }
        fn field(&self, name: &str) -> Option<Value> {
            self.reads.set(self.reads.get() + 1);
            (name == "balance").then_some(Value::Float(self.balance))
        }
        fn call(&self, _: &str, _: &[Value]) -> Option<Value> {
            None
        }
    }

    fn alphabets(exprs: &[EventExpr]) -> Vec<Alphabet> {
        exprs.iter().map(|e| Alphabet::build(e).unwrap()).collect()
    }

    #[test]
    fn routes_only_to_relevant_triggers() {
        let exprs = [
            EventExpr::after_method("deposit"),
            EventExpr::after_method("withdraw"),
            EventExpr::after_method("deposit").or(EventExpr::after_method("audit")),
        ];
        let alphas = alphabets(&exprs);
        let router = ClassRouter::build(alphas.iter().enumerate());
        let dep = router.code(&BasicEvent::after_method("deposit")).unwrap();
        let hit: Vec<usize> = router.routes(dep).iter().map(|r| r.trigger).collect();
        assert_eq!(hit, [0, 2]);
        assert!(router.code(&BasicEvent::after_method("transfer")).is_none());
        assert!(router
            .code(&BasicEvent::after(EventKind::TCommit))
            .is_none());
    }

    #[test]
    fn routed_symbol_matches_per_trigger_classify() {
        // Three triggers with overlapping masked groups and a composite
        // mask: the routed symbol must equal each trigger's own
        // classification bit for bit.
        let exprs = [
            masked_withdraw(100).or(masked_withdraw(1000)),
            masked_withdraw(100),
            EventExpr::after_method("withdraw")
                .or(masked_withdraw(1000))
                .masked(MaskExpr::lt("balance", 500.0)),
        ];
        let alphas = alphabets(&exprs);
        let router = ClassRouter::build(alphas.iter().enumerate());
        let ev = BasicEvent::after_method("withdraw");
        let mut memo = MaskMemo::default();
        for q in [5i64, 500, 5000] {
            for balance in [100.0, 900.0] {
                let env = CountingEnv {
                    balance,
                    reads: Cell::new(0),
                };
                let args = [Value::Null, Value::Int(q)];
                memo.begin(&router);
                let code = router.code(&ev).unwrap();
                for route in router.routes(code) {
                    let routed = router.symbol(route, &args, &env, &mut memo).unwrap();
                    let direct = alphas[route.trigger]
                        .classify(&ev, &args, &env)
                        .unwrap()
                        .unwrap();
                    assert_eq!(
                        routed, direct,
                        "trigger {} q={q} bal={balance}",
                        route.trigger
                    );
                }
            }
        }
    }

    #[test]
    fn distinct_masks_evaluated_at_most_once_per_posting() {
        // Five triggers sharing one composite mask that reads `balance`:
        // the field must be read exactly once per posting, not five times.
        let exprs: Vec<EventExpr> = (0..5)
            .map(|_| EventExpr::after_method("m").masked(MaskExpr::lt("balance", 500.0)))
            .collect();
        let alphas = alphabets(&exprs);
        let router = ClassRouter::build(alphas.iter().enumerate());
        assert_eq!(router.distinct_global_masks(), 1);
        let env = CountingEnv {
            balance: 100.0,
            reads: Cell::new(0),
        };
        let mut memo = MaskMemo::default();
        memo.begin(&router);
        let code = router.code(&BasicEvent::after_method("m")).unwrap();
        assert_eq!(router.routes(code).len(), 5);
        for route in router.routes(code) {
            router.symbol(route, &[], &env, &mut memo).unwrap();
        }
        assert_eq!(env.reads.get(), 1, "shared mask must be memoized");
        // A new posting re-evaluates.
        memo.begin(&router);
        for route in router.routes(code) {
            router.symbol(route, &[], &env, &mut memo).unwrap();
        }
        assert_eq!(env.reads.get(), 2);
    }

    #[test]
    fn group_masks_memoize_across_triggers() {
        // Two triggers using the identical (params, mask) pair: one
        // evaluation serves both; a trigger with different declared
        // params is a distinct mask.
        let exprs = [
            masked_withdraw(100),
            masked_withdraw(100),
            EventExpr::Logical(
                LogicalEvent::bare(BasicEvent::after_method("withdraw"))
                    .with_params(["x", "q"])
                    .with_mask(MaskExpr::gt("q", 100)),
            ),
        ];
        let alphas = alphabets(&exprs);
        let router = ClassRouter::build(alphas.iter().enumerate());
        assert_eq!(router.distinct_group_masks(), 2);
    }

    #[test]
    fn mask_errors_propagate_and_stay_memoized() {
        let exprs = [masked_withdraw(100), masked_withdraw(100)];
        let alphas = alphabets(&exprs);
        let router = ClassRouter::build(alphas.iter().enumerate());
        let mut memo = MaskMemo::default();
        memo.begin(&router);
        let code = router.code(&BasicEvent::after_method("withdraw")).unwrap();
        // No args bound: `q` is unknown — both routes must report the
        // same error without re-evaluating.
        for route in router.routes(code) {
            assert!(router.symbol(route, &[], &EmptyEnv, &mut memo).is_err());
        }
    }

    #[test]
    fn empty_router_is_inert() {
        let router = ClassRouter::build(std::iter::empty());
        assert!(router.code(&BasicEvent::after_method("m")).is_none());
        assert!(router.interner().is_empty());
    }
}
