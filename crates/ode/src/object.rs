//! Persistent objects and their trigger instances.

use std::collections::BTreeMap;

use ode_automata::StateId;
use ode_core::{BasicEvent, Value};
use serde::{Deserialize, Serialize};

use crate::ids::{ClassId, ObjectId, TxnId};

/// Commit status of a posted event: the element status of the
/// never-written [`Object::history`], kept only until that field goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Serialize, Deserialize)]
pub enum PostStatus {
    /// Posted by a still-running transaction.
    Pending,
    /// The posting transaction committed (or was the system transaction).
    Committed,
    /// The posting transaction aborted.
    Aborted,
}

/// One posted event: the element type of the never-written
/// [`Object::history`], kept only until that field goes. Postings reach
/// observers through [`crate::engine::Database::set_event_tap`].
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct PostedRecord {
    /// Global sequence number (total order across the database).
    pub seq: u64,
    /// Posting transaction.
    pub txn: TxnId,
    /// The basic event.
    pub basic: BasicEvent,
    /// Method arguments, if any.
    pub args: Vec<Value>,
    /// Commit status (updated when the transaction finishes).
    pub status: PostStatus,
}

/// The monitoring state of one activated trigger on one object: the
/// Section 5 "one word per active trigger per object", plus bookkeeping.
#[derive(Clone, Debug)]
pub struct TriggerInstance {
    /// Index into the class's trigger list.
    pub def_index: usize,
    /// Whether the trigger is currently active.
    pub active: bool,
    /// The single word of automaton state.
    pub state: StateId,
    /// Activation parameters (available to actions).
    pub params: Vec<Value>,
    /// How many times this trigger has fired (diagnostic).
    pub fired: u64,
    /// Last-seen arguments per constituent basic event, indexed by the
    /// trigger alphabet's group position (only populated for triggers
    /// built with `capture_params`; `None` = constituent not yet seen).
    pub captured: Vec<Option<Vec<Value>>>,
}

/// Position in `triggers` of the instance monitoring definition
/// `def_index`. Instances are created in definition order, so the fast
/// path is a direct index; a linear scan covers stores where the orders
/// diverge (e.g. a permuted restore).
pub(crate) fn instance_position(triggers: &[TriggerInstance], def_index: usize) -> Option<usize> {
    match triggers.get(def_index) {
        Some(t) if t.def_index == def_index => Some(def_index),
        _ => triggers.iter().position(|t| t.def_index == def_index),
    }
}

/// A persistent object.
#[derive(Clone, Debug)]
pub struct Object {
    /// Identity.
    pub id: ObjectId,
    /// Class.
    pub class: ClassId,
    /// Named fields.
    pub fields: BTreeMap<String, Value>,
    /// Tombstone flag (set by `delete`).
    pub deleted: bool,
    /// Trigger instances, parallel to the class's trigger list.
    pub triggers: Vec<TriggerInstance>,
    /// Always empty: the engine records no postings on an object (an
    /// object is its fields plus one word per trigger, Section 5; the
    /// event tap and the event-history store are the record of
    /// postings). The field remains only because the `perfbench`
    /// harness still reads its length; it goes once that reader does.
    pub history: Vec<PostedRecord>,
}

impl Object {
    /// Bytes of *monitoring* state this object carries: the Section 5
    /// storage claim measured by experiment E2 — one `u32` per trigger
    /// instance.
    pub fn monitoring_bytes(&self) -> usize {
        self.triggers.iter().filter(|t| t.active).count() * std::mem::size_of::<StateId>()
    }

    /// The instance monitoring trigger definition `def_index`, wherever
    /// it sits in the store.
    pub fn trigger_instance(&self, def_index: usize) -> Option<&TriggerInstance> {
        instance_position(&self.triggers, def_index).map(|pos| &self.triggers[pos])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monitoring_bytes_counts_active_triggers() {
        let mut o = Object {
            id: ObjectId(1),
            class: ClassId(0),
            fields: BTreeMap::new(),
            deleted: false,
            triggers: vec![
                TriggerInstance {
                    def_index: 0,
                    active: true,
                    state: 0,
                    params: vec![],
                    fired: 0,
                    captured: vec![],
                },
                TriggerInstance {
                    def_index: 1,
                    active: false,
                    state: 0,
                    params: vec![],
                    fired: 0,
                    captured: vec![],
                },
            ],
            history: vec![],
        };
        assert_eq!(o.monitoring_bytes(), 4);
        o.triggers[1].active = true;
        assert_eq!(o.monitoring_bytes(), 8);
    }
}
