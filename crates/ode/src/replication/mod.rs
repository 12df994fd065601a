//! Replication: applying a shipped committed history to a follower
//! engine, exactly once.
//!
//! The paper's Section 6 claim is that trigger detection is a function
//! of the *committed history* — so a replica that applies the
//! primary's logged operations in LSN order reproduces the primary's
//! automaton states and trigger firings exactly. The [`Applier`] is
//! the engine-side entry point for that: a stateful, incremental
//! re-application of [`LogOp`]s that
//!
//! * keeps the recording-id → local-id maps **alive between calls**, so
//!   a stream can be applied op by op as it arrives, across
//!   transactions that span many network messages;
//! * enforces **exactly-once** application by LSN: an op below the
//!   cursor is a duplicate (skipped — retransmission after a
//!   reconnect), an op above it is a gap (refused — the stream must
//!   resync), and only the op *at* the cursor advances it;
//! * is the one interpreter of a [`Recovery`]: [`Applier::bootstrap`]
//!   restores the snapshot, applies the recovered tail and keeps the
//!   maps. Primary restart, replica restart (which resumes the stream
//!   from there, even when it was cut mid-transaction), sharded
//!   recovery and point-in-time restore all bring an engine up through
//!   it.
//!
//! Operation *failures* are part of the history (a trigger-aborted
//! call must abort on the replica too, and full-history triggers
//! observe aborted events), so a failing op applies "successfully":
//! the failure is replayed, not reported.

use std::collections::HashMap;
use std::fmt;

use crate::durability::Recovery;
use crate::engine::Database;
use crate::error::OdeError;
use crate::ids::{ObjectId, TxnId};
use crate::oplog::LogOp;

/// What [`Applier::apply`] did with an op.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Applied {
    /// The op was at the cursor and was applied; the cursor advanced.
    Applied,
    /// The op's LSN was below the cursor: already applied, skipped.
    /// Retransmissions after a reconnect land here.
    Duplicate,
}

/// Why [`Applier::apply`] refused an op.
#[derive(Debug)]
pub enum ApplyError {
    /// The op's LSN is ahead of the cursor: records are missing and
    /// the stream must resync from [`Applier::next_lsn`].
    Gap {
        /// The LSN the applier expected next.
        expected: u64,
        /// The LSN that actually arrived.
        got: u64,
    },
    /// The stream's claimed epoch is below the epoch this applier has
    /// already observed durably: the sender is a deposed primary (or a
    /// replica of one) and its records must not be applied.
    StaleEpoch {
        /// The epoch the applier has observed.
        current: u64,
        /// The lower epoch the stream claimed.
        got: u64,
    },
    /// A structural impossibility: the op names a recording-time
    /// transaction or object this applier never saw. The histories
    /// have diverged and re-application cannot continue.
    Logical(OdeError),
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::Gap { expected, got } => {
                write!(f, "lsn gap: expected {expected}, got {got}")
            }
            ApplyError::StaleEpoch { current, got } => {
                write!(f, "stale epoch: stream claims {got}, observed {current}")
            }
            ApplyError::Logical(e) => write!(f, "apply failed: {e}"),
        }
    }
}

impl std::error::Error for ApplyError {}

impl From<OdeError> for ApplyError {
    fn from(e: OdeError) -> Self {
        ApplyError::Logical(e)
    }
}

impl From<ApplyError> for OdeError {
    fn from(e: ApplyError) -> Self {
        match e {
            ApplyError::Logical(e) => e,
            other => OdeError::Method(other.to_string()),
        }
    }
}

/// An id no engine gives a transaction (they count from 1): ops on a
/// closed transaction are applied to it, and fail.
const CLOSED_TXN: TxnId = TxnId(0);

/// A stateful, exactly-once re-applier of logged operations. See the
/// module docs for the contract.
pub struct Applier {
    next_lsn: u64,
    epoch: u64,
    /// The open transactions, by recording-time id.
    txn_map: HashMap<u64, TxnId>,
    /// The highest recording-time id a `Begin` has mapped.
    last_begun: Option<u64>,
    obj_map: HashMap<u64, ObjectId>,
}

impl Default for Applier {
    fn default() -> Self {
        Applier::new()
    }
}

impl Applier {
    /// An applier at LSN 0 with no mapped ids — for a follower starting
    /// from an empty store.
    pub fn new() -> Applier {
        Applier {
            next_lsn: 0,
            epoch: 0,
            txn_map: HashMap::new(),
            last_begun: None,
            obj_map: HashMap::new(),
        }
    }

    /// An applier positioned at `next_lsn` over a store that already
    /// holds state (a restored snapshot): every existing object keeps
    /// its identity, so ops that reference it map straight through.
    pub fn resume(db: &Database, next_lsn: u64) -> Applier {
        let mut a = Applier::new();
        a.next_lsn = next_lsn;
        for o in db.objects() {
            a.obj_map.insert(o.id.0, o.id);
        }
        a
    }

    /// Bring an engine up from a [`Recovery`] — the single
    /// implementation of "snapshot + replay the logged ops". `db` has
    /// the schema defined and an empty store: restore the snapshot (if
    /// any), apply the recovered tail in LSN order (`observe` sees each
    /// op's LSN and the engine just before the op is applied), and
    /// return the applier
    /// positioned at the recovery's head — with the id maps of any
    /// transaction the tail left open still live, so a stream can
    /// resume mid-transaction. The firing lines the tail regenerates
    /// are left in `db`'s output (snapshots do not carry output); a
    /// caller that serves output must drain them first.
    pub fn bootstrap(
        db: &mut Database,
        recovery: &Recovery,
        mut observe: impl FnMut(u64, &Database),
    ) -> Result<Applier, ApplyError> {
        if let Some(snap) = &recovery.snapshot {
            db.restore(snap)?;
        }
        let mut a = Applier::resume(db, recovery.base_lsn);
        for (lsn, op) in (recovery.base_lsn..).zip(&recovery.ops) {
            observe(lsn, db);
            a.apply(db, lsn, op)?;
        }
        Ok(a)
    }

    /// The LSN the next applied op must carry (== ops applied so far
    /// when starting from zero).
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// The highest epoch this applier has applied (via
    /// [`LogOp::EpochBump`]) or been told about ([`Applier::set_epoch`]).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Raise the applier's epoch floor to `epoch` (never lowers it) —
    /// used at startup when the durable epoch table knows an epoch whose
    /// bump record was absorbed into a checkpoint.
    pub fn set_epoch(&mut self, epoch: u64) {
        self.epoch = self.epoch.max(epoch);
    }

    /// Fencing check for a shipped frame: a stream stamped with an epoch
    /// *below* what this applier has observed comes from a deposed
    /// lineage and must be rejected before it touches the engine.
    /// Higher-or-equal stamps pass — an epoch is learned in-band by
    /// applying its [`LogOp::EpochBump`], not by trusting the stamp.
    pub fn check_stream_epoch(&self, stream_epoch: u64) -> Result<(), ApplyError> {
        if stream_epoch < self.epoch {
            return Err(ApplyError::StaleEpoch {
                current: self.epoch,
                got: stream_epoch,
            });
        }
        Ok(())
    }

    /// Apply one logged op at `lsn`. Exactly-once by LSN: below the
    /// cursor is a [`Applied::Duplicate`] no-op, above it is an
    /// [`ApplyError::Gap`], at it the op runs against the engine and
    /// the cursor advances. A recorded failure re-fails silently; only
    /// structural impossibilities surface as errors.
    pub fn apply(
        &mut self,
        db: &mut Database,
        lsn: u64,
        op: &LogOp,
    ) -> Result<Applied, ApplyError> {
        if lsn < self.next_lsn {
            return Ok(Applied::Duplicate);
        }
        if lsn > self.next_lsn {
            return Err(ApplyError::Gap {
                expected: self.next_lsn,
                got: lsn,
            });
        }
        self.apply_inner(db, op)?;
        // Forget the transactions the op closed: by commit, by abort, or
        // by a trigger's `tabort`, which logs no `Abort`.
        self.txn_map.retain(|_, t| db.txn_open(*t));
        self.next_lsn += 1;
        Ok(Applied::Applied)
    }

    /// The engine transaction of recording-time id `t`. One that was
    /// begun and has since closed maps to [`CLOSED_TXN`], so an op the
    /// recording engine refused for that reason fails here the same way.
    fn map_txn(&self, t: u64) -> Result<TxnId, ApplyError> {
        match self.txn_map.get(&t) {
            Some(&id) => Ok(id),
            None if t == CLOSED_TXN.0 || self.last_begun.is_some_and(|b| t <= b) => Ok(CLOSED_TXN),
            None => Err(ApplyError::Logical(OdeError::UnknownTxn(TxnId(t)))),
        }
    }

    fn map_obj(&self, o: u64) -> Result<ObjectId, ApplyError> {
        self.obj_map
            .get(&o)
            .copied()
            .ok_or(ApplyError::Logical(OdeError::UnknownObject(ObjectId(o))))
    }

    fn apply_inner(&mut self, db: &mut Database, op: &LogOp) -> Result<(), ApplyError> {
        match op {
            LogOp::Begin { txn, user } => {
                let t = db.begin_as(user.clone());
                self.txn_map.insert(*txn, t);
                self.last_begun = self.last_begun.max(Some(*txn));
            }
            LogOp::Create {
                txn,
                obj,
                class,
                overrides,
            } => {
                let t = self.map_txn(*txn)?;
                let ovr: Vec<(&str, ode_core::Value)> = overrides
                    .iter()
                    .map(|(k, v)| (k.as_str(), v.clone()))
                    .collect();
                match db.create_object(t, class, &ovr) {
                    Ok(id) => {
                        self.obj_map.insert(*obj, id);
                    }
                    Err(_) => { /* recorded failure replays as failure */ }
                }
            }
            LogOp::Delete { txn, obj } => {
                let t = self.map_txn(*txn)?;
                let o = self.map_obj(*obj)?;
                let _ = db.delete_object(t, o);
            }
            LogOp::Call {
                txn,
                obj,
                method,
                args,
            } => {
                let t = self.map_txn(*txn)?;
                let o = self.map_obj(*obj)?;
                let _ = db.call(t, o, method, args);
            }
            LogOp::Activate {
                txn,
                obj,
                trigger,
                params,
            } => {
                let t = self.map_txn(*txn)?;
                let o = self.map_obj(*obj)?;
                let _ = db.activate_trigger(t, o, trigger, params);
            }
            LogOp::ActivateRetro {
                txn,
                obj,
                trigger,
                params,
                state,
                active,
                fired,
            } => {
                let t = self.map_txn(*txn)?;
                let o = self.map_obj(*obj)?;
                let outcome = crate::histstore::RetroOutcome {
                    state: *state,
                    active: *active,
                    fired: *fired,
                };
                let _ = db.apply_activate_retro(t, o, trigger, params, outcome);
            }
            LogOp::Deactivate { txn, obj, trigger } => {
                let t = self.map_txn(*txn)?;
                let o = self.map_obj(*obj)?;
                let _ = db.deactivate_trigger(t, o, trigger);
            }
            LogOp::Commit { txn } => {
                let t = self.map_txn(*txn)?;
                let _ = db.commit(t);
            }
            LogOp::Prepare { txn } => {
                let t = self.map_txn(*txn)?;
                let _ = db.prepare(t);
            }
            LogOp::Commit2pc { txn, gtxn, parts } => {
                let t = self.map_txn(*txn)?;
                let _ = db.commit_sharded(t, *gtxn, parts);
            }
            LogOp::Abort { txn } => {
                let t = self.map_txn(*txn)?;
                let _ = db.abort(t);
            }
            LogOp::AdvanceClock { to } => db.advance_clock_to(*to),
            // Engine no-op: the record's job is to pin the epoch change
            // at a defined LSN in every shard's history.
            LogOp::EpochBump { epoch } => self.epoch = self.epoch.max(*epoch),
        }
        Ok(())
    }

    /// Abort every transaction the stream left open — a promotion (the
    /// primary's commits will never arrive) or a snapshot jump must
    /// release their object locks. Returns how many were aborted.
    pub fn abort_open(&mut self, db: &mut Database) -> usize {
        let mut aborted = 0;
        for (_, t) in self.txn_map.drain() {
            if db.txn_open(t) && db.abort(t).is_ok() {
                aborted += 1;
            }
        }
        aborted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use ode_core::Value;

    /// Record a primary session's log; apply it op-by-op through an
    /// Applier and check duplicates and gaps behave as specified.
    #[test]
    fn exactly_once_by_lsn() {
        let (mut primary, room) = demo::setup();
        let log = demo::record_ops(&mut primary);
        demo::withdraw_txn(&mut primary, "alice", room, "bolt", 30).unwrap();
        demo::withdraw_txn(&mut primary, "bob", room, "gear", 150).unwrap();
        let log = log.lock().clone();

        let (mut replica, _) = demo::setup();
        // setup() pre-creates the room, so the applier resumes over it.
        let mut a = Applier::resume(&replica, 0);
        for (i, op) in log.iter().enumerate() {
            let lsn = i as u64;
            // A gap is refused before the op arrives in order.
            match a.apply(&mut replica, lsn + 1, op) {
                Err(ApplyError::Gap { expected, got }) => {
                    assert_eq!((expected, got), (lsn, lsn + 1));
                }
                other => panic!("expected gap, got {other:?}"),
            }
            assert_eq!(a.apply(&mut replica, lsn, op).unwrap(), Applied::Applied);
            // A retransmission is skipped without touching the engine.
            assert_eq!(a.apply(&mut replica, lsn, op).unwrap(), Applied::Duplicate);
        }
        assert_eq!(a.next_lsn(), log.len() as u64);
        assert_eq!(
            primary.peek_field(room, "items"),
            replica.peek_field(room, "items")
        );
        assert_eq!(primary.output(), replica.output());
    }

    /// A transaction left open by the stream holds its locks until
    /// abort_open releases them.
    #[test]
    fn abort_open_releases_stream_transactions() {
        let (mut primary, room) = demo::setup();
        let log = demo::record_ops(&mut primary);
        // An open transaction: begin + call, no commit yet.
        let t = primary.begin_as(Value::Str("alice".into()));
        primary
            .call(
                t,
                room,
                "withdraw",
                &[Value::Str("bolt".into()), Value::Int(1)],
            )
            .unwrap();
        let log = log.lock().clone();

        let (mut replica, _) = demo::setup();
        let mut a = Applier::resume(&replica, 0);
        for (i, op) in log.iter().enumerate() {
            a.apply(&mut replica, i as u64, op).unwrap();
        }
        assert_eq!(a.abort_open(&mut replica), 1);
        assert_eq!(a.abort_open(&mut replica), 0, "drained");
        // The room is unlocked again: a fresh transaction can use it.
        demo::withdraw_txn(&mut replica, "bob", room, "gear", 5).unwrap();
    }

    /// The applier forgets a transaction once it is closed, whether by
    /// its `Commit` or by a trigger's `tabort` (which logs no `Abort`);
    /// an op later logged on a closed transaction fails again, and a
    /// transaction the log leaves open keeps its mapping.
    #[test]
    fn closed_transactions_are_forgotten() {
        let (mut primary, room) = demo::setup();
        let log = demo::record_ops(&mut primary);
        let bolt = [Value::Str("bolt".into()), Value::Int(1)];
        for i in 0..50 {
            if i % 10 == 0 {
                // T1 aborts mallory's withdrawal; her commit is refused.
                let t = primary.begin_as(Value::Str("mallory".into()));
                assert!(primary.call(t, room, "withdraw", &bolt).is_err());
                assert!(primary.commit(t).is_err());
            } else {
                assert!(demo::withdraw_txn(&mut primary, "alice", room, "bolt", 1).unwrap());
            }
        }
        let (mut replica, _) = demo::setup();
        let mut a = Applier::resume(&replica, 0);
        let apply_all = |a: &mut Applier, replica: &mut Database, from: usize| {
            for (i, op) in log.lock().iter().enumerate().skip(from) {
                a.apply(replica, i as u64, op).unwrap();
            }
        };
        apply_all(&mut a, &mut replica, 0);
        assert!(a.txn_map.is_empty(), "{} mapped", a.txn_map.len());
        assert_eq!(
            primary.peek_field(room, "items"),
            replica.peek_field(room, "items")
        );
        assert_eq!(a.abort_open(&mut replica), 0);

        let applied = log.lock().len();
        let open = primary.begin_as(Value::Str("alice".into()));
        primary.call(open, room, "withdraw", &bolt).unwrap();
        apply_all(&mut a, &mut replica, applied);
        assert_eq!(a.txn_map.keys().collect::<Vec<_>>(), [&open.0]);
        assert_eq!(a.abort_open(&mut replica), 1);
    }

    /// Applying an EpochBump raises the applier's epoch; streams stamped
    /// below it are then refused, equal-or-above stamps pass.
    #[test]
    fn epoch_bump_fences_lower_stamps() {
        let (mut db, _) = demo::setup();
        let mut a = Applier::resume(&db, 0);
        assert_eq!(a.epoch(), 0);
        a.check_stream_epoch(0).unwrap();

        a.apply(&mut db, 0, &LogOp::EpochBump { epoch: 2 }).unwrap();
        assert_eq!(a.epoch(), 2);
        assert_eq!(a.next_lsn(), 1, "the bump occupies an LSN");

        match a.check_stream_epoch(1) {
            Err(ApplyError::StaleEpoch { current, got }) => {
                assert_eq!((current, got), (2, 1));
            }
            other => panic!("expected stale epoch, got {other:?}"),
        }
        a.check_stream_epoch(2).unwrap();
        a.check_stream_epoch(3).unwrap();

        // A *duplicate* bump (below the cursor) is skipped like any
        // other retransmitted record and does not disturb the epoch.
        assert_eq!(
            a.apply(&mut db, 0, &LogOp::EpochBump { epoch: 1 }).unwrap(),
            Applied::Duplicate
        );
        assert_eq!(a.epoch(), 2);
    }

    /// set_epoch is a floor: it never lowers an epoch learned in-band.
    #[test]
    fn set_epoch_never_lowers() {
        let mut a = Applier::new();
        a.set_epoch(3);
        assert_eq!(a.epoch(), 3);
        a.set_epoch(1);
        assert_eq!(a.epoch(), 3);
    }
}
