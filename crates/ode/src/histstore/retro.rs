//! Retroactive trigger replay: feed a stored committed sub-history
//! through a fresh automaton, as if the trigger had been active since
//! inception.
//!
//! The equivalence this module leans on: per object, the committed
//! event stream the history store holds is exactly the sequence of
//! postings a live, immediately-monitored trigger saw take effect —
//! object-level locks serialize postings per object, and aborted
//! transactions both roll back automaton state and deliver no tap
//! batch. So replaying the stored rows through [`Detector`] visits the
//! same states, and fires at the same postings, as a trigger activated
//! before the first event would have.
//!
//! Two deliberate limitations, both surfaced as typed errors or
//! documented gaps rather than silently-wrong answers:
//!
//! * masks that read **object fields**, `user()` or a mask function
//!   replay against [`EmptyEnv`] and fail with [`OdeError::Mask`] —
//!   historical field values and users are not recorded, and evaluating
//!   against current ones, or a placeholder, would be wrong. Masks over
//!   the posting's own arguments work, builtins included: the alphabet
//!   binds them from the stored `args`.
//! * trigger **actions do not run** for past occurrences — a
//!   retroactive firing is a notification (with the firing seq of the
//!   completing posting), not a re-execution of history.

use std::sync::Arc;

use ode_core::{BasicEvent, Detector, EmptyEnv, Value};

use crate::class::TriggerDef;
use crate::error::OdeError;

/// One firing produced by replaying history.
#[derive(Clone, Debug)]
pub struct RetroFiring {
    /// The engine posting seq of the completing event — the
    /// deterministic firing seq (stable across restarts, because
    /// posting seqs are snapshot-carried and replay-stable).
    pub seq: u64,
    /// The completing basic event.
    pub event: BasicEvent,
    /// Its arguments.
    pub args: Vec<Value>,
}

/// Outcome of a replay: the past firings plus the automaton state a
/// live since-inception instance would hold now — installable directly
/// as the instance's monitoring word.
#[derive(Clone, Debug)]
pub struct RetroReplay {
    /// Firings on past occurrences, in seq order.
    pub firings: Vec<RetroFiring>,
    /// Final automaton state.
    pub state: ode_automata::StateId,
    /// Whether the instance is still monitoring (`false` once a
    /// non-perpetual trigger fired).
    pub active: bool,
}

/// The installable part of a [`RetroReplay`] — exactly what
/// [`crate::oplog::LogOp::ActivateRetro`] records, so recovery can
/// re-install the outcome without recomputing the replay.
#[derive(Clone, Copy, Debug)]
pub struct RetroOutcome {
    /// Final automaton state.
    pub state: ode_automata::StateId,
    /// Whether the instance is still monitoring.
    pub active: bool,
    /// Past firings to add to the instance's counter.
    pub fired: u64,
}

impl RetroReplay {
    /// The installable outcome.
    pub fn outcome(&self) -> RetroOutcome {
        RetroOutcome {
            state: self.state,
            active: self.active,
            fired: self.firings.len() as u64,
        }
    }
}

/// Replay `(seq, event, args)` triples — an object's stored committed
/// sub-history in posting order — through `tdef`'s automaton.
///
/// Mirrors the live engine exactly: a perpetual trigger keeps stepping
/// from the accepting state (it fires again on every accepting step); a
/// non-perpetual trigger deactivates at its first firing, freezing its
/// state there.
pub fn replay_trigger(
    events: &[(u64, BasicEvent, Vec<Value>)],
    tdef: &TriggerDef,
) -> Result<RetroReplay, OdeError> {
    let mut det = Detector::new(Arc::clone(&tdef.event));
    det.activate(&EmptyEnv).map_err(OdeError::Mask)?;
    let mut firings = Vec::new();
    let mut active = true;
    for (seq, basic, args) in events {
        if det.post(basic, args, &EmptyEnv).map_err(OdeError::Mask)? {
            firings.push(RetroFiring {
                seq: *seq,
                event: basic.clone(),
                args: args.clone(),
            });
            if !tdef.perpetual {
                active = false;
                break;
            }
        }
    }
    Ok(RetroReplay {
        firings,
        state: det.state(),
        active,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{Action, ClassDef};
    use ode_core::MaskError;

    /// Replay knows no user and no past field: a mask that reads either
    /// is refused, as it is by a detector over [`EmptyEnv`]; a builtin
    /// over the posting's own arguments replays.
    #[test]
    fn replay_refuses_what_history_does_not_record() {
        let trigger = |event: &str| {
            let class = ClassDef::builder("c")
                .field("f", 1i64)
                .update_method("m", &["x"])
                .trigger("T", true, event, Action::Emit("hit".into()))
                .build()
                .unwrap();
            class.triggers[0].clone()
        };
        let m = BasicEvent::after_method("m");
        let events = [(7, m.clone(), vec![Value::record([("k", Value::Int(3))])])];
        let unknown_user = MaskError::UnknownFunction("user".into());
        for (event, want) in [
            ("after m && user() == \"alice\"", unknown_user.clone()),
            ("(after m) && user() == \"alice\"", unknown_user.clone()),
            ("after m && f > 0", MaskError::UnknownField("f".into())),
        ] {
            match replay_trigger(&events, &trigger(event)) {
                Err(OdeError::Mask(e)) => assert_eq!(e, want, "{event}"),
                other => panic!("{event}: expected a mask error, got {other:?}"),
            }
        }
        let mut det = Detector::new(trigger("after m && user() == \"alice\"").event);
        det.activate(&EmptyEnv).unwrap();
        assert_eq!(det.post(&m, &[], &EmptyEnv), Err(unknown_user));

        let replay = replay_trigger(&events, &trigger("after m(x) && get(x, \"k\") == 3")).unwrap();
        assert_eq!(
            replay.firings.iter().map(|f| f.seq).collect::<Vec<_>>(),
            [7]
        );
    }
}
