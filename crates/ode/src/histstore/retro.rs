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
//! * masks that read **object fields** (or call mask functions)
//!   replay against [`EmptyEnv`] and fail with
//!   [`OdeError::Mask`] — historical field values are not recorded,
//!   and evaluating against current fields would be wrong. Masks over
//!   the posting's own arguments work: the alphabet binds them from
//!   the stored `args`.
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
