//! Composite event expressions — the Section 3.3 algebra.
//!
//! ```text
//! logical-composite-event = composite-event [&& mask]
//! composite-event = logical-event
//!   | (composite-event)
//!   | composite-event & composite-event
//!   | composite-event | composite-event
//!   | ! composite-event
//!   | relative (composite-event-list)
//!   | relative+ (composite-event)
//!   | relative const-int (composite-event)
//!   | prior (composite-event-list)
//!   | prior const-int (composite-event)
//!   | composite-event ; composite-event
//!   | sequence (composite-event-list)
//!   | sequence const-int (composite-event)
//!   | choose const-int (composite-event)
//!   | every const-int (composite-event)
//!   | fa (composite-event, composite-event, composite-event)
//!   | faAbs (composite-event, composite-event, composite-event)
//! logical-event = basic-event [&& mask]
//! ```
//!
//! Curried n-ary forms (`prior(E, F, G)` ≡ `prior(prior(E, F), G)`) are
//! kept in the AST and normalized during compilation; singleton forms
//! (`prior(E)` ≡ `E`) are honoured per Section 3.4.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::compile::check_count;
use crate::error::EventError;
use crate::event::{BasicEvent, EventKind};
use crate::mask::MaskExpr;

/// A logical event: a basic event, its declared parameter names (binding
/// the posted positional arguments for mask evaluation), and an optional
/// mask (Section 3.2).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LogicalEvent {
    /// The underlying basic event.
    pub basic: BasicEvent,
    /// Declared parameter names (`after withdraw(i, q)` declares
    /// `["i", "q"]`), bound positionally to the posted arguments.
    pub params: Vec<String>,
    /// Optional mask predicate.
    pub mask: Option<MaskExpr>,
}

impl LogicalEvent {
    /// An unmasked logical event.
    pub fn bare(basic: BasicEvent) -> Self {
        LogicalEvent {
            basic,
            params: Vec::new(),
            mask: None,
        }
    }

    /// Attach declared parameter names.
    pub fn with_params<S: Into<String>>(mut self, params: impl IntoIterator<Item = S>) -> Self {
        self.params = params.into_iter().map(Into::into).collect();
        self
    }

    /// Attach a mask.
    pub fn with_mask(mut self, mask: MaskExpr) -> Self {
        self.mask = Some(mask);
        self
    }
}

impl fmt::Display for LogicalEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.basic)?;
        if !self.params.is_empty() {
            write!(f, "({})", self.params.join(", "))?;
        }
        if let Some(m) = &self.mask {
            write!(f, " && {m}")?;
        }
        Ok(())
    }
}

/// A composite event expression (Section 3.3 BNF).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub enum EventExpr {
    /// The empty event — never occurs (Section 4 item 1).
    Empty,
    /// A logical event.
    Logical(LogicalEvent),
    /// Union `E | F`.
    Or(Box<EventExpr>, Box<EventExpr>),
    /// Intersection `E & F` — both occur at the same point.
    And(Box<EventExpr>, Box<EventExpr>),
    /// Complement `!E` — every point not labelled by `E`.
    Not(Box<EventExpr>),
    /// `relative(E₁, …, Eₙ)` — curried truncated-context sequencing.
    Relative(Vec<EventExpr>),
    /// `relative+ (E)` — unlimited repetition.
    RelativePlus(Box<EventExpr>),
    /// `relative n (E)` — the n-th and subsequent chained occurrences.
    RelativeN(u32, Box<EventExpr>),
    /// `prior(E₁, …, Eₙ)` — last-point-before-last-point sequencing in
    /// the *full* context.
    Prior(Vec<EventExpr>),
    /// `prior n (E)`.
    PriorN(u32, Box<EventExpr>),
    /// `sequence(E₁, …, Eₙ)` / `E₁; E₂` — Eₖ occurs at the point
    /// immediately following Eₖ₋₁'s point.
    Sequence(Vec<EventExpr>),
    /// `sequence n (E)`.
    SequenceN(u32, Box<EventExpr>),
    /// `choose n (E)` — exactly the n-th occurrence.
    Choose(u32, Box<EventExpr>),
    /// `every n (E)` — every n-th occurrence.
    Every(u32, Box<EventExpr>),
    /// `fa(E, F, G)` — first `F` after `E` with no intervening `G`
    /// (F and G relative to E's occurrence point).
    Fa(Box<EventExpr>, Box<EventExpr>, Box<EventExpr>),
    /// `faAbs(E, F, G)` — as `fa`, but `G` is judged against the whole
    /// history.
    FaAbs(Box<EventExpr>, Box<EventExpr>, Box<EventExpr>),
    /// `E && mask` — a composite event refined by a predicate on the
    /// *current* database state (Section 3.3).
    Masked(Box<EventExpr>, MaskExpr),
}

impl EventExpr {
    /// A logical event expression.
    pub fn logical(ev: LogicalEvent) -> EventExpr {
        EventExpr::Logical(ev)
    }

    /// An unmasked basic event.
    pub fn basic(b: BasicEvent) -> EventExpr {
        EventExpr::Logical(LogicalEvent::bare(b))
    }

    /// `after method`.
    pub fn after_method(name: impl Into<String>) -> EventExpr {
        EventExpr::basic(BasicEvent::after_method(name))
    }

    /// `before method`.
    pub fn before_method(name: impl Into<String>) -> EventExpr {
        EventExpr::basic(BasicEvent::before_method(name))
    }

    /// The method-name shorthand: `m` ≡ `(before m | after m)`
    /// (Section 3.3).
    pub fn method(name: impl Into<String>) -> EventExpr {
        let name = name.into();
        EventExpr::before_method(name.clone()).or(EventExpr::after_method(name))
    }

    /// The object-state shorthand: a bare boolean expression `P` over the
    /// object state means `(after update | after create) && P`
    /// (Section 3.3 — "the only sort of event allowed in Ode prior to
    /// the work described in this paper").
    pub fn state(mask: MaskExpr) -> EventExpr {
        EventExpr::basic(BasicEvent::after(EventKind::Update))
            .or(EventExpr::basic(BasicEvent::after(EventKind::Create)))
            .masked(mask)
    }

    /// `self | other`.
    pub fn or(self, other: EventExpr) -> EventExpr {
        EventExpr::Or(Box::new(self), Box::new(other))
    }

    /// `self & other`.
    pub fn and(self, other: EventExpr) -> EventExpr {
        EventExpr::And(Box::new(self), Box::new(other))
    }

    /// `!self`.
    #[allow(clippy::should_implement_trait)]
    pub fn not(self) -> EventExpr {
        EventExpr::Not(Box::new(self))
    }

    /// `self && mask` (composite mask).
    pub fn masked(self, mask: MaskExpr) -> EventExpr {
        EventExpr::Masked(Box::new(self), mask)
    }

    /// `relative(list…)`.
    pub fn relative(events: impl IntoIterator<Item = EventExpr>) -> EventExpr {
        EventExpr::Relative(events.into_iter().collect())
    }

    /// `relative+ (self)`.
    pub fn relative_plus(self) -> EventExpr {
        EventExpr::RelativePlus(Box::new(self))
    }

    /// `relative n (self)`.
    pub fn relative_n(self, n: u32) -> EventExpr {
        EventExpr::RelativeN(n, Box::new(self))
    }

    /// `prior(list…)`.
    pub fn prior(events: impl IntoIterator<Item = EventExpr>) -> EventExpr {
        EventExpr::Prior(events.into_iter().collect())
    }

    /// `prior n (self)`.
    pub fn prior_n(self, n: u32) -> EventExpr {
        EventExpr::PriorN(n, Box::new(self))
    }

    /// `sequence(list…)`.
    pub fn sequence(events: impl IntoIterator<Item = EventExpr>) -> EventExpr {
        EventExpr::Sequence(events.into_iter().collect())
    }

    /// `sequence n (self)`.
    pub fn sequence_n(self, n: u32) -> EventExpr {
        EventExpr::SequenceN(n, Box::new(self))
    }

    /// `self ; other` — sugar for `sequence(self, other)`.
    pub fn then(self, other: EventExpr) -> EventExpr {
        EventExpr::Sequence(vec![self, other])
    }

    /// `choose n (self)`.
    pub fn choose(self, n: u32) -> EventExpr {
        EventExpr::Choose(n, Box::new(self))
    }

    /// `every n (self)`.
    pub fn every(self, n: u32) -> EventExpr {
        EventExpr::Every(n, Box::new(self))
    }

    /// `fa(e, f, g)`.
    pub fn fa(e: EventExpr, f: EventExpr, g: EventExpr) -> EventExpr {
        EventExpr::Fa(Box::new(e), Box::new(f), Box::new(g))
    }

    /// `faAbs(e, f, g)`.
    pub fn fa_abs(e: EventExpr, f: EventExpr, g: EventExpr) -> EventExpr {
        EventExpr::FaAbs(Box::new(e), Box::new(f), Box::new(g))
    }

    /// Validate the expression: qualifier rules on every basic event,
    /// operator arities and counts (Section 3.1 / 3.4 rules).
    pub fn validate(&self) -> Result<(), EventError> {
        self.walk(&mut |e| match e {
            EventExpr::Logical(le) => le.basic.validate(),
            EventExpr::Relative(list) | EventExpr::Prior(list) | EventExpr::Sequence(list) => {
                if list.is_empty() {
                    Err(EventError::EmptyOperands {
                        operator: match e {
                            EventExpr::Relative(_) => "relative",
                            EventExpr::Prior(_) => "prior",
                            _ => "sequence",
                        },
                    })
                } else {
                    Ok(())
                }
            }
            EventExpr::RelativeN(n, _) => check_count(*n, "relative"),
            EventExpr::PriorN(n, _) => check_count(*n, "prior"),
            EventExpr::SequenceN(n, _) => check_count(*n, "sequence"),
            EventExpr::Choose(n, _) => check_count(*n, "choose"),
            EventExpr::Every(n, _) => check_count(*n, "every"),
            _ => Ok(()),
        })
    }

    /// Pre-order traversal applying `f` to every node, short-circuiting
    /// on the first error.
    pub fn walk(
        &self,
        f: &mut impl FnMut(&EventExpr) -> Result<(), EventError>,
    ) -> Result<(), EventError> {
        f(self)?;
        match self {
            EventExpr::Empty | EventExpr::Logical(_) => Ok(()),
            EventExpr::Or(a, b) | EventExpr::And(a, b) => {
                a.walk(f)?;
                b.walk(f)
            }
            EventExpr::Not(a)
            | EventExpr::RelativePlus(a)
            | EventExpr::RelativeN(_, a)
            | EventExpr::PriorN(_, a)
            | EventExpr::SequenceN(_, a)
            | EventExpr::Choose(_, a)
            | EventExpr::Every(_, a)
            | EventExpr::Masked(a, _) => a.walk(f),
            EventExpr::Relative(list) | EventExpr::Prior(list) | EventExpr::Sequence(list) => {
                for e in list {
                    e.walk(f)?;
                }
                Ok(())
            }
            EventExpr::Fa(a, b, c) | EventExpr::FaAbs(a, b, c) => {
                a.walk(f)?;
                b.walk(f)?;
                c.walk(f)
            }
        }
    }

    /// Collect every distinct logical event in the expression, in
    /// first-appearance order — the trigger's alphabet of interest.
    pub fn logical_events(&self) -> Vec<LogicalEvent> {
        let mut out: Vec<LogicalEvent> = Vec::new();
        let _ = self.walk(&mut |e| {
            if let EventExpr::Logical(le) = e {
                if !out.contains(le) {
                    out.push(le.clone());
                }
            }
            Ok(())
        });
        out
    }

    /// Collect every distinct composite mask, in first-appearance order.
    pub fn composite_masks(&self) -> Vec<MaskExpr> {
        let mut out: Vec<MaskExpr> = Vec::new();
        let _ = self.walk(&mut |e| {
            if let EventExpr::Masked(_, m) = e {
                if !out.contains(m) {
                    out.push(m.clone());
                }
            }
            Ok(())
        });
        out
    }

    /// Number of AST nodes — a complexity metric for the E3 experiment.
    pub fn size(&self) -> usize {
        let mut n = 0;
        let _ = self.walk(&mut |_| {
            n += 1;
            Ok(())
        });
        n
    }
}

impl fmt::Display for EventExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        // Precedence: Or(1) < And(2) < Sequence-;(3) < Not/atoms.
        fn list(f: &mut fmt::Formatter<'_>, name: &str, items: &[EventExpr]) -> fmt::Result {
            write!(f, "{name}(")?;
            for (i, e) in items.iter().enumerate() {
                if i > 0 {
                    write!(f, ", ")?;
                }
                go(e, f, 0)?;
            }
            write!(f, ")")
        }
        fn go(e: &EventExpr, f: &mut fmt::Formatter<'_>, prec: u8) -> fmt::Result {
            match e {
                EventExpr::Empty => write!(f, "empty"),
                EventExpr::Logical(le) => {
                    // A masked logical event binds tighter than event
                    // operators only inside parens.
                    if le.mask.is_some() && prec > 0 {
                        write!(f, "({le})")
                    } else {
                        write!(f, "{le}")
                    }
                }
                EventExpr::Or(a, b) => {
                    let need = prec > 1;
                    if need {
                        write!(f, "(")?;
                    }
                    go(a, f, 1)?;
                    write!(f, " | ")?;
                    // right operand one level tighter: a right-nested Or
                    // must parenthesize so parsing (left-associative)
                    // rebuilds the same tree
                    go(b, f, 2)?;
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                EventExpr::And(a, b) => {
                    let need = prec > 2;
                    if need {
                        write!(f, "(")?;
                    }
                    go(a, f, 2)?;
                    write!(f, " & ")?;
                    go(b, f, 3)?;
                    if need {
                        write!(f, ")")?;
                    }
                    Ok(())
                }
                EventExpr::Not(a) => {
                    write!(f, "!")?;
                    go(a, f, 4)
                }
                EventExpr::Relative(items) => list(f, "relative", items),
                EventExpr::RelativePlus(a) => {
                    write!(f, "relative+(")?;
                    go(a, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::RelativeN(n, a) => {
                    write!(f, "relative {n} (")?;
                    go(a, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::Prior(items) => list(f, "prior", items),
                EventExpr::PriorN(n, a) => {
                    write!(f, "prior {n} (")?;
                    go(a, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::Sequence(items) => list(f, "sequence", items),
                EventExpr::SequenceN(n, a) => {
                    write!(f, "sequence {n} (")?;
                    go(a, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::Choose(n, a) => {
                    write!(f, "choose {n} (")?;
                    go(a, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::Every(n, a) => {
                    write!(f, "every {n} (")?;
                    go(a, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::Fa(a, b, c) => {
                    write!(f, "fa(")?;
                    go(a, f, 0)?;
                    write!(f, ", ")?;
                    go(b, f, 0)?;
                    write!(f, ", ")?;
                    go(c, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::FaAbs(a, b, c) => {
                    write!(f, "faAbs(")?;
                    go(a, f, 0)?;
                    write!(f, ", ")?;
                    go(b, f, 0)?;
                    write!(f, ", ")?;
                    go(c, f, 0)?;
                    write!(f, ")")
                }
                EventExpr::Masked(a, m) => {
                    // Composite masks always parenthesize the event to
                    // keep mask `&&` unambiguous with event `&`.
                    write!(f, "(")?;
                    go(a, f, 0)?;
                    write!(f, ") && {m}")
                }
            }
        }
        go(self, f, 0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::Qualifier;

    fn after_a() -> EventExpr {
        EventExpr::after_method("a")
    }
    fn after_b() -> EventExpr {
        EventExpr::after_method("b")
    }

    #[test]
    fn builders_produce_expected_shapes() {
        let e = EventExpr::relative([after_a(), after_b()]);
        assert!(matches!(e, EventExpr::Relative(ref v) if v.len() == 2));
        let e = after_a().choose(5);
        assert!(matches!(e, EventExpr::Choose(5, _)));
    }

    #[test]
    fn method_shorthand_expands() {
        let e = EventExpr::method("deposit");
        match e {
            EventExpr::Or(a, b) => {
                assert!(matches!(
                    *a,
                    EventExpr::Logical(LogicalEvent {
                        basic: BasicEvent::Db(Qualifier::Before, EventKind::Method(ref m)),
                        ..
                    }) if m == "deposit"
                ));
                assert!(matches!(
                    *b,
                    EventExpr::Logical(LogicalEvent {
                        basic: BasicEvent::Db(Qualifier::After, EventKind::Method(ref m)),
                        ..
                    }) if m == "deposit"
                ));
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn state_shorthand_expands() {
        let e = EventExpr::state(MaskExpr::lt("balance", 500.0));
        assert!(matches!(e, EventExpr::Masked(_, _)));
        let inner_events = e.logical_events();
        assert_eq!(inner_events.len(), 2);
    }

    #[test]
    fn validate_rejects_before_tcommit_deep_in_tree() {
        let bad = EventExpr::relative([
            after_a(),
            EventExpr::basic(BasicEvent::before(EventKind::TCommit)),
        ]);
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validate_rejects_zero_counts() {
        assert!(after_a().choose(0).validate().is_err());
        assert!(after_a().every(0).validate().is_err());
        assert!(after_a().relative_n(0).validate().is_err());
        assert!(after_a().choose(1).validate().is_ok());
    }

    #[test]
    fn validate_rejects_empty_lists() {
        assert!(EventExpr::Relative(vec![]).validate().is_err());
        assert!(EventExpr::Prior(vec![]).validate().is_err());
        assert!(EventExpr::Sequence(vec![]).validate().is_err());
    }

    #[test]
    fn logical_events_deduplicate() {
        let e = after_a().or(after_a()).and(after_b());
        assert_eq!(e.logical_events().len(), 2);
    }

    #[test]
    fn distinct_masks_are_distinct_logical_events() {
        let a1 = EventExpr::Logical(
            LogicalEvent::bare(BasicEvent::after_method("w"))
                .with_params(["q"])
                .with_mask(MaskExpr::gt("q", 100i64)),
        );
        let a2 = EventExpr::Logical(
            LogicalEvent::bare(BasicEvent::after_method("w"))
                .with_params(["q"])
                .with_mask(MaskExpr::gt("q", 1000i64)),
        );
        let e = a1.or(a2);
        assert_eq!(e.logical_events().len(), 2);
    }

    #[test]
    fn composite_masks_collected() {
        let m = MaskExpr::lt("x", 1i64);
        let e = after_a().masked(m.clone()).or(after_b().masked(m));
        assert_eq!(e.composite_masks().len(), 1);
    }

    #[test]
    fn display_shapes() {
        assert_eq!(
            EventExpr::relative([after_a(), after_b()]).to_string(),
            "relative(after a, after b)"
        );
        assert_eq!(after_a().choose(5).to_string(), "choose 5 (after a)");
        assert_eq!(
            EventExpr::fa(after_a(), after_b(), after_a()).to_string(),
            "fa(after a, after b, after a)"
        );
        assert_eq!(
            after_a().or(after_b()).and(after_a()).to_string(),
            "(after a | after b) & after a"
        );
        assert_eq!(after_a().not().to_string(), "!after a");
    }

    #[test]
    fn size_counts_nodes() {
        assert_eq!(after_a().size(), 1);
        assert_eq!(after_a().or(after_b()).size(), 3);
    }
}
