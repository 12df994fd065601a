//! Logical operation logging and replay — the recovery half of the
//! Section 2 persistence story.
//!
//! [`crate::persist::Snapshot`] captures a quiescent store; the
//! [`LogOp`]s a [`crate::engine::LogSink`] streams capture the
//! *operations* applied since (transaction begins, method calls,
//! activations, clock advances, commits/aborts) at the application
//! level. Because method bodies, mask functions, and
//! trigger actions are deterministic (they see only object state, event
//! parameters, and virtual time), replaying the log against the same
//! schema reproduces the database exactly — fields, histories, trigger
//! automaton states, firing output, everything. `snapshot + redo log` is
//! the classic checkpoint-plus-WAL recovery pair, in logical form.
//!
//! Aborted transactions are logged and replayed too: full-history
//! triggers (Section 6) observe aborted events, so exact state
//! reproduction requires re-running them.

use ode_core::Value;
use serde::{Deserialize, Serialize};

use crate::engine::Database;
use crate::error::OdeError;
use crate::replication::Applier;

/// One logged operation. `txn` fields carry the *recording-time* ids;
/// replay maps them onto fresh ids.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub enum LogOp {
    /// `begin_as(user)`.
    Begin {
        /// Recording-time transaction id.
        txn: u64,
        /// The transaction's user value.
        user: Value,
    },
    /// `create_object`.
    Create {
        /// Transaction.
        txn: u64,
        /// Recording-time object id assigned.
        obj: u64,
        /// Class name.
        class: String,
        /// Field overrides.
        overrides: Vec<(String, Value)>,
    },
    /// `delete_object`.
    Delete {
        /// Transaction.
        txn: u64,
        /// Object.
        obj: u64,
    },
    /// `call`.
    Call {
        /// Transaction.
        txn: u64,
        /// Object.
        obj: u64,
        /// Method name.
        method: String,
        /// Arguments.
        args: Vec<Value>,
    },
    /// `activate_trigger`.
    Activate {
        /// Transaction.
        txn: u64,
        /// Object.
        obj: u64,
        /// Trigger name.
        trigger: String,
        /// Activation parameters.
        params: Vec<Value>,
    },
    /// `deactivate_trigger`.
    Deactivate {
        /// Transaction.
        txn: u64,
        /// Object.
        obj: u64,
        /// Trigger name.
        trigger: String,
    },
    /// `commit`.
    Commit {
        /// Transaction.
        txn: u64,
    },
    /// `prepare` — phase one of a cross-shard commit: the `before
    /// tcomplete` fixpoint runs (and may abort the transaction), but the
    /// commit decision is deferred to a later [`LogOp::Commit2pc`].
    Prepare {
        /// Transaction.
        txn: u64,
    },
    /// Phase two of a cross-shard commit: the local branch `txn` of
    /// global transaction `gtxn` commits. `parts` names every shard that
    /// participated — recovery treats the commit as effective only when
    /// *all* participants' logs carry the matching record (all-or-nothing
    /// across shard WALs).
    Commit2pc {
        /// Local (per-shard) transaction.
        txn: u64,
        /// Global transaction id, shared by all participating shards.
        gtxn: u64,
        /// Indices of every participating shard, in ascending order.
        parts: Vec<u64>,
    },
    /// `activate_trigger_retro` — the replay *outcome* is recorded, not
    /// recomputed: recovery re-installs the state without needing the
    /// history store (which may itself be mid-rebuild).
    ActivateRetro {
        /// Transaction.
        txn: u64,
        /// Object.
        obj: u64,
        /// Trigger name.
        trigger: String,
        /// Activation parameters.
        params: Vec<Value>,
        /// Automaton state after replaying history.
        state: u32,
        /// Whether the instance is still monitoring.
        active: bool,
        /// Firings the replay produced (folded into the instance's
        /// diagnostic counter).
        fired: u64,
    },
    /// A primary-election epoch (term) bump. Appended durably to every
    /// shard's log when a node is promoted, *before* it accepts writes,
    /// and shipped downstream like any other record — so the whole
    /// replica tree learns the new epoch in-band, at a defined LSN.
    /// Replaying it is an engine no-op; its consumers are the epoch
    /// table ([`crate::durability::EpochTable`]) and the applier's
    /// fencing cursor.
    EpochBump {
        /// The new epoch. Strictly greater than every epoch recorded
        /// earlier in the same log.
        epoch: u64,
    },
    /// `abort`.
    Abort {
        /// Transaction.
        txn: u64,
    },
    /// `advance_clock_to`.
    AdvanceClock {
        /// Target virtual time (ms).
        to: u64,
    },
}

impl LogOp {
    /// Serialize one operation as a single JSON line (no interior
    /// newlines) — the streaming unit used by the on-disk WAL.
    pub fn to_json_line(&self) -> Result<String, OdeError> {
        let line = serde_json::to_string(self)
            .map_err(|e| OdeError::Method(format!("log op serialization failed: {e}")))?;
        debug_assert!(!line.contains('\n'));
        Ok(line)
    }

    /// Parse one operation from a JSON line.
    pub fn from_json_line(line: &str) -> Result<LogOp, OdeError> {
        serde_json::from_str(line)
            .map_err(|e| OdeError::Method(format!("log op deserialization failed: {e}")))
    }

    /// Does this op end a transaction? (Commit or abort — the points an
    /// `OnCommit` fsync policy must make durable.)
    pub fn ends_txn(&self) -> bool {
        matches!(
            self,
            LogOp::Commit { .. } | LogOp::Commit2pc { .. } | LogOp::Abort { .. }
        )
    }
}

/// Replay logged `ops` against `db` (same schema defined, typically a freshly
/// restored snapshot or an empty store). Individual operation *failures*
/// are replayed faithfully (an operation that failed while recording
/// fails again); structural impossibilities (unknown mapped ids) abort
/// the replay with an error.
pub fn replay(db: &mut Database, ops: &[LogOp]) -> Result<(), OdeError> {
    // An Applier resumed at LSN 0 identity-maps the objects that existed
    // before the log started (snapshot-restored), then applies the ops
    // in order — replay is the one-shot form of streaming application.
    let mut applier = Applier::resume(db, 0);
    for (i, op) in ops.iter().enumerate() {
        applier.apply(db, i as u64, op)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;

    /// Record a stockroom session, replay it, and compare everything
    /// observable.
    #[test]
    fn replay_reproduces_a_stockroom_session() {
        use ode_core::event::calendar;

        let (mut db, room) = demo::setup();
        let log = demo::record_ops(&mut db);
        db.advance_clock_to(9 * calendar::HR);
        let _ = demo::withdraw_txn(&mut db, "mallory", room, "bolt", 10); // aborted by T1
        for _ in 0..6 {
            demo::withdraw_txn(&mut db, "alice", room, "bolt", 30).unwrap();
        }
        for _ in 0..5 {
            demo::withdraw_txn(&mut db, "bob", room, "gear", 150).unwrap();
        }
        demo::deposit_withdraw_txn(&mut db, "alice", room, "shim", 5).unwrap();
        db.advance_clock_to(17 * calendar::HR);
        // Through the WAL's line format and back.
        let parsed: Vec<LogOp> = log
            .lock()
            .iter()
            .map(|op| LogOp::from_json_line(&op.to_json_line().unwrap()).unwrap())
            .collect();

        // "recovery": fresh store, same schema, replay.
        let (mut db2, room2) = demo::setup();
        assert_eq!(room2, room, "demo setup is deterministic");
        replay(&mut db2, &parsed).unwrap();

        assert_eq!(db.peek_field(room, "items"), db2.peek_field(room, "items"));
        assert_eq!(db.output(), db2.output(), "firing output must match");
        assert_eq!(
            db.object(room).unwrap().history.len(),
            db2.object(room).unwrap().history.len()
        );
        let s1 = db.stats();
        let s2 = db2.stats();
        assert_eq!(s1.events_posted, s2.events_posted);
        assert_eq!(s1.triggers_fired, s2.triggers_fired);
        assert_eq!(s1.txns_aborted, s2.txns_aborted);
        // trigger automaton states match word for word
        let t1: Vec<u32> = db
            .object(room)
            .unwrap()
            .triggers
            .iter()
            .map(|t| t.state)
            .collect();
        let t2: Vec<u32> = db2
            .object(room)
            .unwrap()
            .triggers
            .iter()
            .map(|t| t.state)
            .collect();
        assert_eq!(t1, t2);
    }

    /// Snapshot + log = point-in-time recovery: snapshot mid-session,
    /// keep logging, replay only the tail onto the restored snapshot.
    #[test]
    fn snapshot_plus_log_tail_recovers() {
        let (mut db, room) = demo::setup();
        demo::withdraw_txn(&mut db, "alice", room, "bolt", 30).unwrap();
        let checkpoint = db.snapshot().unwrap();
        let tail = demo::record_ops(&mut db);
        demo::withdraw_txn(&mut db, "bob", room, "gear", 150).unwrap();
        demo::withdraw_txn(&mut db, "alice", room, "shim", 25).unwrap();

        let mut db2 = crate::engine::Database::new();
        db2.define_class(demo::stockroom_class()).unwrap();
        db2.restore(&checkpoint).unwrap();
        db2.take_output();
        replay(&mut db2, &tail.lock()).unwrap();

        assert_eq!(db.peek_field(room, "items"), db2.peek_field(room, "items"));
        let t1: Vec<u32> = db
            .object(room)
            .unwrap()
            .triggers
            .iter()
            .map(|t| t.state)
            .collect();
        let t2: Vec<u32> = db2
            .object(room)
            .unwrap()
            .triggers
            .iter()
            .map(|t| t.state)
            .collect();
        assert_eq!(t1, t2);
    }

    #[test]
    fn nested_action_calls_are_not_double_logged() {
        // T2's action calls order() and re-activates itself; those nested
        // operations re-run automatically during replay, so the log must
        // contain only the outer call.
        let (mut db, room) = demo::setup();
        let log = demo::record_ops(&mut db);
        // shim 30 - 25 = 5 < EOQ 10 -> T2 fires, action calls order()
        demo::withdraw_txn(&mut db, "alice", room, "shim", 25).unwrap();
        let log = log.lock();
        let calls: Vec<&LogOp> = log
            .iter()
            .filter(|op| matches!(op, LogOp::Call { .. }))
            .collect();
        assert_eq!(calls.len(), 1, "only the user's withdraw: {log:?}");
        assert!(db.output().iter().any(|l| l.contains("order(")));
    }

    #[test]
    fn log_json_round_trip() {
        let ops = [
            LogOp::Begin {
                txn: 1,
                user: Value::Str("alice".into()),
            },
            LogOp::Call {
                txn: 1,
                obj: 1,
                method: "withdraw".into(),
                args: vec![Value::Str("bolt".into()), Value::Int(3)],
            },
            LogOp::Commit { txn: 1 },
        ];
        for op in &ops {
            let line = op.to_json_line().unwrap();
            let back = LogOp::from_json_line(&line).unwrap();
            assert_eq!(back.to_json_line().unwrap(), line);
        }
    }
}
