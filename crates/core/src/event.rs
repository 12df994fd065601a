//! Basic events — the alphabet the paper's Section 3.1 starts from.
//!
//! > "Each event specification system must start with an alphabet of
//! > basic events that the system supports."
//!
//! The basic events of an object-oriented database such as Ode:
//!
//! 1. **Object state events** — after `create`, before `delete`,
//!    before/after `update` / `read` / `access` through a public member
//!    function.
//! 2. **Method execution events** — before/after a named member function.
//! 3. **Time events** — `at time(...)`, `every time(...)`,
//!    `after time(...)` (posted only to "relevant" objects).
//! 4. **Transaction events** — after `tbegin`, before `tcomplete`, after
//!    `tcommit`, before/after `tabort`. `before tcommit` is *not allowed*
//!    "because we cannot be sure that a transaction is going to commit
//!    until it actually does so".

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::error::EventError;

/// `before` / `after` qualifier on a basic event.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Qualifier {
    /// Immediately before the happening.
    Before,
    /// Immediately after the happening.
    After,
}

impl fmt::Display for Qualifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Qualifier::Before => write!(f, "before"),
            Qualifier::After => write!(f, "after"),
        }
    }
}

/// A `time(YR=…, MO=…, DAY=…, HR=…, M=…, SEC=…, MS=…)` literal, with any
/// field optionally omitted (Section 3.1 item 3).
///
/// The simulation calendar is deliberately simple and deterministic:
/// 1 year = 12 months, 1 month = 30 days, 1 day = 24 h. Virtual time is
/// milliseconds since epoch 0.
#[derive(
    Clone, Copy, Debug, Default, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize,
)]
pub struct TimeSpec {
    /// Year (0-based in the simulation calendar).
    pub yr: Option<u32>,
    /// Month `1..=12`.
    pub mo: Option<u32>,
    /// Day of month `1..=30`.
    pub day: Option<u32>,
    /// Hour `0..=23`.
    pub hr: Option<u32>,
    /// Minute `0..=59`.
    pub min: Option<u32>,
    /// Second `0..=59`.
    pub sec: Option<u32>,
    /// Millisecond `0..=999`.
    pub ms: Option<u32>,
}

/// Milliseconds per simulation-calendar unit.
pub mod calendar {
    /// ms per second.
    pub const SEC: u64 = 1_000;
    /// ms per minute.
    pub const MIN: u64 = 60 * SEC;
    /// ms per hour.
    pub const HR: u64 = 60 * MIN;
    /// ms per day.
    pub const DAY: u64 = 24 * HR;
    /// ms per month (30-day simulation months).
    pub const MO: u64 = 30 * DAY;
    /// ms per year (12-month simulation years).
    pub const YR: u64 = 12 * MO;
}

impl TimeSpec {
    /// A spec with only the hour set — `time(HR=h)`.
    pub fn at_hour(h: u32) -> TimeSpec {
        TimeSpec {
            hr: Some(h),
            ..Default::default()
        }
    }

    /// Interpret the spec as a *duration* in virtual ms (used by
    /// `every time(…)` periods and `after time(…)` delays): each field
    /// contributes `field × unit`.
    pub fn as_duration_ms(&self) -> u64 {
        let f = |v: Option<u32>, unit: u64| v.map_or(0, |x| x as u64 * unit);
        f(self.yr, calendar::YR)
            + f(self.mo, calendar::MO)
            + f(self.day, calendar::DAY)
            + f(self.hr, calendar::HR)
            + f(self.min, calendar::MIN)
            + f(self.sec, calendar::SEC)
            + f(self.ms, 1)
    }

    /// Does the absolute virtual time `t` (ms since epoch) match this
    /// calendar pattern?
    ///
    /// Fields *coarser* than the coarsest specified field are wildcards
    /// (so `time(HR=9)` recurs daily); unspecified fields at or below
    /// that grain pin to their minimum (so `time(HR=9)` means 09:00:00.000
    /// sharp). An empty spec matches nothing.
    pub fn matches(&self, t: u64) -> bool {
        let parts = CalendarParts::from_ms(t);
        let fields: [(Option<u64>, u64, u64); 7] = [
            (self.yr.map(u64::from), parts.yr, 0),
            (self.mo.map(u64::from), parts.mo, 1),
            (self.day.map(u64::from), parts.day, 1),
            (self.hr.map(u64::from), parts.hr, 0),
            (self.min.map(u64::from), parts.min, 0),
            (self.sec.map(u64::from), parts.sec, 0),
            (self.ms.map(u64::from), parts.ms, 0),
        ];
        let Some(coarsest) = fields.iter().position(|(s, _, _)| s.is_some()) else {
            return false;
        };
        fields
            .iter()
            .enumerate()
            .all(|(i, (spec, actual, min))| match spec {
                Some(v) => v == actual,
                None => i < coarsest || actual == min,
            })
    }

    /// The earliest virtual time strictly after `t` that matches this
    /// pattern, or `None` if the pattern cannot match again (fully
    /// specified and already past, or empty).
    pub fn next_match_after(&self, t: u64) -> Option<u64> {
        // Offset of the match within one recurrence period starting at
        // `base` (unspecified finer fields pin to their minimum).
        let offset = |base: u64| -> u64 {
            base + self.mo.map_or(0, |v| (v.max(1) as u64 - 1) * calendar::MO)
                + self
                    .day
                    .map_or(0, |v| (v.max(1) as u64 - 1) * calendar::DAY)
                + self.hr.map_or(0, |v| v as u64 * calendar::HR)
                + self.min.map_or(0, |v| v as u64 * calendar::MIN)
                + self.sec.map_or(0, |v| v as u64 * calendar::SEC)
                + self.ms.map_or(0, |v| v as u64)
        };

        if let Some(yr) = self.yr {
            // Fully anchored: one-shot.
            let cand = offset(yr as u64 * calendar::YR);
            return (cand > t).then_some(cand);
        }
        // Recurrence period = one unit above the coarsest specified field.
        let period = if self.mo.is_some() {
            calendar::YR
        } else if self.day.is_some() {
            calendar::MO
        } else if self.hr.is_some() {
            calendar::DAY
        } else if self.min.is_some() {
            calendar::HR
        } else if self.sec.is_some() {
            calendar::MIN
        } else if self.ms.is_some() {
            calendar::SEC
        } else {
            return None; // empty spec
        };
        let base = (t / period) * period;
        for k in 0..=1u64 {
            let cand = offset(base + k * period);
            if cand > t {
                return Some(cand);
            }
        }
        None
    }
}

/// Decomposition of a virtual timestamp into simulation-calendar parts.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CalendarParts {
    /// Year (0-based).
    pub yr: u64,
    /// Month `1..=12`.
    pub mo: u64,
    /// Day `1..=30`.
    pub day: u64,
    /// Hour `0..=23`.
    pub hr: u64,
    /// Minute.
    pub min: u64,
    /// Second.
    pub sec: u64,
    /// Millisecond.
    pub ms: u64,
}

impl CalendarParts {
    /// Split `t` ms into calendar parts.
    pub fn from_ms(t: u64) -> Self {
        CalendarParts {
            yr: t / calendar::YR,
            mo: (t % calendar::YR) / calendar::MO + 1,
            day: (t % calendar::MO) / calendar::DAY + 1,
            hr: (t % calendar::DAY) / calendar::HR,
            min: (t % calendar::HR) / calendar::MIN,
            sec: (t % calendar::MIN) / calendar::SEC,
            ms: t % calendar::SEC,
        }
    }
}

impl fmt::Display for TimeSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "time(")?;
        let mut first = true;
        let mut item = |f: &mut fmt::Formatter<'_>, name: &str, v: Option<u32>| {
            if let Some(v) = v {
                if !first {
                    write!(f, ", ")?;
                }
                first = false;
                write!(f, "{name}={v}")?;
            }
            Ok(())
        };
        item(f, "YR", self.yr)?;
        item(f, "MO", self.mo)?;
        item(f, "DAY", self.day)?;
        item(f, "HR", self.hr)?;
        item(f, "M", self.min)?;
        item(f, "SEC", self.sec)?;
        item(f, "MS", self.ms)?;
        write!(f, ")")
    }
}

/// A time event (Section 3.1 item 3).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum TimeEvent {
    /// `at time(…)` — fires whenever virtual time matches the pattern.
    At(TimeSpec),
    /// `every time(…)` — fires periodically, period = the spec read as a
    /// duration, measured from trigger activation.
    Every(TimeSpec),
    /// `after time(…)` — fires once, the spec-duration after trigger
    /// activation ("from the current time, when the trigger is armed").
    After(TimeSpec),
}

impl fmt::Display for TimeEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TimeEvent::At(s) => write!(f, "at {s}"),
            TimeEvent::Every(s) => write!(f, "every {s}"),
            TimeEvent::After(s) => write!(f, "after {s}"),
        }
    }
}

/// The happening a basic event qualifies (Section 3.1).
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum EventKind {
    /// Object creation (`after create` only).
    Create,
    /// Object deletion (`before delete` only).
    Delete,
    /// Update through any public member function.
    Update,
    /// Read through any public member function.
    Read,
    /// Any access through a public member function.
    Access,
    /// Execution of the named member function.
    Method(String),
    /// Transaction begin (`after tbegin` only; posted to an object
    /// immediately before the transaction first accesses it).
    TBegin,
    /// Transaction code complete, about to attempt commit
    /// (`before tcomplete` only; may be posted repeatedly, Section 6).
    TComplete,
    /// Transaction commit (`after tcommit` only; posted by a system
    /// transaction).
    TCommit,
    /// Transaction abort (before or after; `after tabort` posted by a
    /// system transaction).
    TAbort,
}

impl fmt::Display for EventKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EventKind::Create => write!(f, "create"),
            EventKind::Delete => write!(f, "delete"),
            EventKind::Update => write!(f, "update"),
            EventKind::Read => write!(f, "read"),
            EventKind::Access => write!(f, "access"),
            EventKind::Method(m) => write!(f, "{m}"),
            EventKind::TBegin => write!(f, "tbegin"),
            EventKind::TComplete => write!(f, "tcomplete"),
            EventKind::TCommit => write!(f, "tcommit"),
            EventKind::TAbort => write!(f, "tabort"),
        }
    }
}

/// A basic event: a happening of interest posted to an object.
///
/// The distinguished [`BasicEvent::Start`] point is "a unique 'first'
/// logical event, called start, … placed at the beginning of the history
/// just prior to the first user specified logical event" (Section 3.4).
/// It is fed to every trigger automaton at activation time and never
/// fires triggers itself.
#[derive(Clone, Debug, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum BasicEvent {
    /// A qualified database happening.
    Db(Qualifier, EventKind),
    /// A time event.
    Time(TimeEvent),
    /// The distinguished history-start point.
    Start,
}

impl BasicEvent {
    /// `before kind`.
    pub fn before(kind: EventKind) -> BasicEvent {
        BasicEvent::Db(Qualifier::Before, kind)
    }

    /// `after kind`.
    pub fn after(kind: EventKind) -> BasicEvent {
        BasicEvent::Db(Qualifier::After, kind)
    }

    /// `before method-name`.
    pub fn before_method(name: impl Into<String>) -> BasicEvent {
        BasicEvent::Db(Qualifier::Before, EventKind::Method(name.into()))
    }

    /// `after method-name`.
    pub fn after_method(name: impl Into<String>) -> BasicEvent {
        BasicEvent::Db(Qualifier::After, EventKind::Method(name.into()))
    }

    /// Validate the qualifier/kind combination per Section 3.1:
    ///
    /// * `before tcommit` rejected — "we cannot be sure that a
    ///   transaction is going to commit until it actually does so";
    /// * `before tbegin`, `after tcomplete` rejected — the posting model
    ///   defines only `after tbegin` and `before tcomplete`;
    /// * `before create`, `after delete` rejected — the object does not
    ///   exist at those instants.
    pub fn validate(&self) -> Result<(), EventError> {
        if let BasicEvent::Db(q, kind) = self {
            let bad = matches!(
                (q, kind),
                (Qualifier::Before, EventKind::TCommit)
                    | (Qualifier::Before, EventKind::TBegin)
                    | (Qualifier::After, EventKind::TComplete)
                    | (Qualifier::Before, EventKind::Create)
                    | (Qualifier::After, EventKind::Delete)
            );
            if bad {
                return Err(EventError::InvalidQualifier {
                    event: self.to_string(),
                    reason: match (q, kind) {
                        (Qualifier::Before, EventKind::TCommit) => {
                            "a transaction is not known to commit until it actually does \
                             (paper, Section 3.1)"
                        }
                        (Qualifier::Before, EventKind::TBegin) => {
                            "tbegin is posted to an object only after the transaction began"
                        }
                        (Qualifier::After, EventKind::TComplete) => {
                            "tcomplete marks the instant just before a commit attempt"
                        }
                        (Qualifier::Before, EventKind::Create) => {
                            "the object does not exist before its creation"
                        }
                        _ => "the object no longer exists after its deletion",
                    },
                });
            }
        }
        Ok(())
    }
}

impl fmt::Display for BasicEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BasicEvent::Db(q, k) => write!(f, "{q} {k}"),
            BasicEvent::Time(t) => write!(f, "{t}"),
            BasicEvent::Start => write!(f, "start"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn before_tcommit_is_rejected() {
        let e = BasicEvent::before(EventKind::TCommit);
        let err = e.validate().unwrap_err();
        assert!(err.to_string().contains("tcommit"));
    }

    #[test]
    fn legal_transaction_events_pass() {
        for e in [
            BasicEvent::after(EventKind::TBegin),
            BasicEvent::before(EventKind::TComplete),
            BasicEvent::after(EventKind::TCommit),
            BasicEvent::before(EventKind::TAbort),
            BasicEvent::after(EventKind::TAbort),
        ] {
            e.validate().unwrap();
        }
    }

    #[test]
    fn illegal_object_lifecycle_qualifiers_rejected() {
        assert!(BasicEvent::before(EventKind::Create).validate().is_err());
        assert!(BasicEvent::after(EventKind::Delete).validate().is_err());
        assert!(BasicEvent::after(EventKind::Create).validate().is_ok());
        assert!(BasicEvent::before(EventKind::Delete).validate().is_ok());
    }

    #[test]
    fn display_round_trips_keywords() {
        assert_eq!(
            BasicEvent::after(EventKind::TBegin).to_string(),
            "after tbegin"
        );
        assert_eq!(
            BasicEvent::before_method("withdraw").to_string(),
            "before withdraw"
        );
        assert_eq!(BasicEvent::Start.to_string(), "start");
    }

    #[test]
    fn duration_arithmetic() {
        let s = TimeSpec {
            hr: Some(2),
            min: Some(30),
            ..Default::default()
        };
        assert_eq!(s.as_duration_ms(), 2 * calendar::HR + 30 * calendar::MIN);
    }

    #[test]
    fn calendar_parts_round_trip() {
        let t = calendar::YR + 2 * calendar::MO + 3 * calendar::DAY + 4 * calendar::HR + 5;
        let p = CalendarParts::from_ms(t);
        assert_eq!(p.yr, 1);
        assert_eq!(p.mo, 3); // 1-based
        assert_eq!(p.day, 4); // 1-based
        assert_eq!(p.hr, 4);
        assert_eq!(p.ms, 5);
    }

    #[test]
    fn at_hour_matches_daily() {
        let nine = TimeSpec::at_hour(9);
        assert!(nine.matches(9 * calendar::HR));
        assert!(nine.matches(calendar::DAY + 9 * calendar::HR));
        assert!(!nine.matches(10 * calendar::HR));
        // unspecified finer fields pin to zero
        assert!(!nine.matches(9 * calendar::HR + 1));
    }

    #[test]
    fn next_match_after_recurs_daily() {
        let nine = TimeSpec::at_hour(9);
        assert_eq!(nine.next_match_after(0), Some(9 * calendar::HR));
        assert_eq!(
            nine.next_match_after(9 * calendar::HR),
            Some(calendar::DAY + 9 * calendar::HR)
        );
        assert_eq!(
            nine.next_match_after(10 * calendar::HR),
            Some(calendar::DAY + 9 * calendar::HR)
        );
    }

    #[test]
    fn next_match_fully_specified_is_one_shot() {
        let spec = TimeSpec {
            yr: Some(0),
            hr: Some(9),
            ..Default::default()
        };
        assert_eq!(spec.next_match_after(0), Some(9 * calendar::HR));
        assert_eq!(spec.next_match_after(9 * calendar::HR), None);
    }

    #[test]
    fn timespec_display() {
        let s = TimeSpec {
            hr: Some(2),
            min: Some(30),
            ..Default::default()
        };
        assert_eq!(s.to_string(), "time(HR=2, M=30)");
    }
}
