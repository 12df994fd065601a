//! Persistence: snapshot and restore the object store.
//!
//! > "Persistent objects are allocated in persistent memory and they
//! > continue to exist after the program creating them has terminated."
//! > (Section 2)
//!
//! A [`Snapshot`] captures everything about the database that is *data*:
//! object identities, fields, activated triggers with their **one word
//! of monitoring state** each, pending timers, and the virtual clock.
//! Objects keep no event history, so snapshots carry none; one written
//! by an older build carries a `history` array per object, which
//! deserialization ignores. Classes — code: method bodies, mask
//! functions, trigger actions — are schema and must be re-defined before
//! restoring, exactly as an Ode program re-links its class definitions
//! against the persistent store.
//!
//! The payoff is the Section 5 storage story made durable: a composite
//! event that is *halfway matched* when the process exits resumes
//! exactly where it was, because the entire monitoring state is that one
//! integer per active trigger per object.
//!
//! Trigger instances are matched back to their class by **trigger
//! name**; a snapshot taken under one schema restores only into a
//! database whose classes define the same (or a superset of the same)
//! triggers.

use std::collections::BTreeMap;

use ode_automata::StateId;
use ode_core::{BasicEvent, Value};
use serde::{Deserialize, Serialize};

use crate::clock::Timer;
use crate::error::OdeError;

/// Serialized state of one activated trigger instance.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct TriggerSnapshot {
    /// Trigger name (resolved against the class at restore time).
    pub name: String,
    /// Whether the trigger is active.
    pub active: bool,
    /// The single word of automaton state.
    pub state: StateId,
    /// Activation parameters.
    pub params: Vec<Value>,
    /// Firing count (diagnostic).
    pub fired: u64,
    /// Captured constituent arguments (if `capture_params`).
    pub captured: Vec<(BasicEvent, Vec<Value>)>,
}

/// Serialized state of one object.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct ObjectSnapshot {
    /// Object identity (preserved across restore — Section 2's "unique
    /// identifier").
    pub id: u64,
    /// Class, by name.
    pub class: String,
    /// Fields.
    pub fields: BTreeMap<String, Value>,
    /// Tombstone flag.
    pub deleted: bool,
    /// Trigger instances.
    pub triggers: Vec<TriggerSnapshot>,
}

/// A full database snapshot.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Snapshot {
    /// Next object id to allocate.
    pub next_object: u64,
    /// Next transaction id.
    pub next_txn: u64,
    /// Global event sequence counter.
    pub seq: u64,
    /// Virtual clock (ms).
    pub clock_now: u64,
    /// Pending timers `(due, timer)`.
    pub timers: Vec<(u64, Timer)>,
    /// Highest cross-shard commit sequence (`gtxn` of a
    /// [`crate::oplog::LogOp::Commit2pc`]) this store has applied. Sharded
    /// recovery treats any cross-shard commit at or below a
    /// participant's floor as present even after a checkpoint pruned the
    /// record itself. `0` when no cross-shard commit ever ran.
    pub gtxn_floor: u64,
    /// All objects, including tombstones.
    pub objects: Vec<ObjectSnapshot>,
}

impl Snapshot {
    /// Serialize to compact JSON (the simplest self-describing on-disk
    /// format; any serde format works). Checkpoint frames, `Snapshot`
    /// replies and replication snapshots all carry it, so it wastes no
    /// bytes on layout.
    pub fn to_json(&self) -> Result<String, OdeError> {
        serde_json::to_string(self)
            .map_err(|e| OdeError::Method(format!("snapshot serialization failed: {e}")))
    }

    /// Deserialize from JSON.
    pub fn from_json(json: &str) -> Result<Snapshot, OdeError> {
        serde_json::from_str(json)
            .map_err(|e| OdeError::Method(format!("snapshot deserialization failed: {e}")))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{Action, ClassDef, MethodKind};
    use crate::engine::Database;
    use ode_core::event::calendar;

    fn counter_class() -> ClassDef {
        ClassDef::builder("counter")
            .field("n", 0i64)
            .method("incr", MethodKind::Update, &[], |ctx| {
                let n = ctx.get_required("n")?.as_int().unwrap_or(0);
                ctx.set("n", n + 1);
                Ok(Value::Null)
            })
            .trigger(
                "pair",
                true,
                "relative(after incr, after incr)",
                Action::Emit("pair".into()),
            )
            .trigger("daily", true, "at time(HR=9)", Action::Emit("nine".into()))
            .activate_on_create(&["pair", "daily"])
            .build()
            .unwrap()
    }

    #[test]
    fn snapshot_round_trips_through_json() {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "counter", &[]).unwrap();
        db.call(txn, obj, "incr", &[]).unwrap();
        db.commit(txn).unwrap();

        let snap = db.snapshot().unwrap();
        let json = snap.to_json().unwrap();
        let back = Snapshot::from_json(&json).unwrap();
        assert_eq!(back.objects.len(), snap.objects.len());
        assert_eq!(back.seq, snap.seq);
        assert_eq!(back.timers.len(), snap.timers.len());
    }

    fn one_counter_snapshot() -> Snapshot {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "counter", &[]).unwrap();
        db.call(txn, obj, "incr", &[]).unwrap();
        db.commit(txn).unwrap();
        db.snapshot().unwrap()
    }

    #[test]
    fn snapshot_json_is_compact() {
        let json = one_counter_snapshot().to_json().unwrap();
        assert!(!json.contains('\n'), "no layout whitespace: {json}");
    }

    /// Checkpoints written before the switch to compact JSON carry a
    /// pretty-printed body; they must keep recovering.
    #[test]
    fn pretty_printed_snapshots_still_load() {
        let snap = one_counter_snapshot();
        let pretty = serde_json::to_string_pretty(&snap).unwrap();
        assert!(pretty.contains('\n'));
        let back = Snapshot::from_json(&pretty).unwrap();
        assert_eq!(back.to_json().unwrap(), snap.to_json().unwrap());
    }

    /// The headline property: a half-matched composite event survives a
    /// "restart" — the first `incr` happened before the snapshot, the
    /// second after the restore, and the trigger fires.
    #[test]
    fn half_matched_composite_survives_restart() {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "counter", &[]).unwrap();
        db.call(txn, obj, "incr", &[]).unwrap(); // first half of `pair`
        db.commit(txn).unwrap();
        assert!(!db.output().iter().any(|l| l.contains("pair")));
        let snap = db.snapshot().unwrap();
        drop(db); // "program terminates"

        // New process: re-define the schema, restore the store.
        let mut db2 = Database::new();
        db2.define_class(counter_class()).unwrap();
        db2.restore(&snap).unwrap();

        let txn = db2.begin();
        db2.call(txn, obj, "incr", &[]).unwrap(); // completes the pair
        db2.commit(txn).unwrap();
        assert!(
            db2.output().iter().any(|l| l.contains("pair")),
            "monitoring state must survive the restart: {:?}",
            db2.output()
        );
    }

    #[test]
    fn fields_and_ids_survive() {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "counter", &[]).unwrap();
        db.call(txn, obj, "incr", &[]).unwrap();
        db.call(txn, obj, "incr", &[]).unwrap();
        db.commit(txn).unwrap();
        let snap = db.snapshot().unwrap();

        let mut db2 = Database::new();
        db2.define_class(counter_class()).unwrap();
        db2.restore(&snap).unwrap();
        assert_eq!(db2.peek_field(obj, "n"), Some(Value::Int(2)));

        // new objects get fresh ids after the restored ones
        let txn = db2.begin();
        let obj2 = db2.create_object(txn, "counter", &[]).unwrap();
        db2.commit(txn).unwrap();
        assert!(obj2.0 > obj.0);
    }

    #[test]
    fn timers_survive_restart() {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        let _obj = db.create_object(txn, "counter", &[]).unwrap();
        db.commit(txn).unwrap();
        db.advance_clock_to(5 * calendar::HR);
        let snap = db.snapshot().unwrap();

        let mut db2 = Database::new();
        db2.define_class(counter_class()).unwrap();
        db2.restore(&snap).unwrap();
        assert_eq!(db2.now(), 5 * calendar::HR);
        db2.advance_clock_to(10 * calendar::HR); // 9:00 passes
        assert!(db2.output().iter().any(|l| l.contains("nine")));
    }

    #[test]
    fn snapshot_rejects_active_transactions() {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        let _obj = db.create_object(txn, "counter", &[]).unwrap();
        assert!(db.snapshot().is_err());
        db.commit(txn).unwrap();
        assert!(db.snapshot().is_ok());
    }

    #[test]
    fn restore_requires_schema_and_empty_store() {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "counter", &[]).unwrap();
        db.commit(txn).unwrap();
        let snap = db.snapshot().unwrap();

        // missing class
        let mut empty = Database::new();
        assert!(matches!(
            empty.restore(&snap),
            Err(OdeError::UnknownClass(_))
        ));

        // non-empty store
        let mut occupied = Database::new();
        occupied.define_class(counter_class()).unwrap();
        let t = occupied.begin();
        occupied.create_object(t, "counter", &[]).unwrap();
        occupied.commit(t).unwrap();
        assert!(occupied.restore(&snap).is_err());
        let _ = obj;
    }

    #[test]
    fn unknown_trigger_in_snapshot_rejected() {
        let mut db = Database::new();
        db.define_class(counter_class()).unwrap();
        let txn = db.begin();
        db.create_object(txn, "counter", &[]).unwrap();
        db.commit(txn).unwrap();
        let mut snap = db.snapshot().unwrap();
        snap.objects[0].triggers[0].name = "renamed".into();

        let mut db2 = Database::new();
        db2.define_class(counter_class()).unwrap();
        assert!(matches!(
            db2.restore(&snap),
            Err(OdeError::UnknownTrigger { .. })
        ));
    }
}
