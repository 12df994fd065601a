//! The active-database engine: objects, transactions, event posting, and
//! trigger firing — Sections 2, 5, 6 and 7 of the paper, operational.
//!
//! ## Posting model
//!
//! Every happening of interest is *posted* to an object as a basic
//! event. A member-function call posts, in order:
//!
//! ```text
//! after tbegin            (once, immediately before the txn's first access)
//! before access
//! before read|update      (per the method's kind)
//! before <method>(args)
//!     …body…
//! after <method>(args)
//! after read|update
//! after access
//! ```
//!
//! Each posting advances the automata of the active triggers whose
//! alphabets contain the event ("for each active trigger for which a
//! logical event has occurred, we move the automaton to the next state",
//! Section 5); events outside a trigger's alphabet are invisible to it.
//! When automata accept, the engine first deactivates every fired
//! *ordinary* trigger ("an ordinary trigger is automatically deactivated
//! the moment it fires"), then executes the fired actions immediately,
//! within the same transaction — the E-A model (Section 7).
//!
//! ## Transactions
//!
//! Object-level locking (Section 6's assumption). `commit` runs the
//! `before tcomplete` fixpoint: the event is posted to every accessed
//! object, repeatedly, until no trigger fires (Section 6), then the
//! transaction commits and a *system transaction* posts `after tcommit`
//! ("the events must be posted by a special 'system' transaction, and if
//! a trigger fires, the action part is executed as part of this 'system'
//! transaction"). Aborts undo field writes, object creation/deletion,
//! trigger activations — and, for triggers monitoring the *committed*
//! history, the automaton state itself; full-history triggers keep their
//! state (Section 6's two implementation options).
//!
//! Objects keep no record of their postings: an object is its fields plus
//! one word of automaton state per trigger. The committed postings reach
//! observers through the event tap ([`Database::set_event_tap`]), which
//! feeds the event-history store.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::sync::Arc;

use ode_automata::StateId;
use ode_core::{BasicEvent, ClassRouter, EventKind, MaskEnv, MaskMemo, Qualifier, Value};

use crate::class::{
    Action, ActionCtx, ClassDef, ClassRuntime, MaskFnCtx, MethodCtx, MethodKind, Monitoring,
};
use crate::clock::{Clock, TimerScope};
use crate::error::{AbortReason, OdeError};
use crate::ids::{ClassId, ObjectId, TxnId};
use crate::object::{Object, TriggerInstance};
use crate::oplog::LogOp;

/// Maximum trigger-cascade depth before the transaction aborts.
const MAX_CASCADE_DEPTH: u32 = 32;

/// Maximum `before tcomplete` rounds before the commit aborts
/// (Section 6's fixpoint, bounded).
const MAX_TCOMPLETE_ROUNDS: u32 = 16;

/// Lines the output log keeps. Only [`Database::take_output`] drains
/// it, so a long-lived database nobody drains would otherwise grow it
/// without bound.
pub(crate) const MAX_OUTPUT_LINES: usize = 1 << 16;

/// The output log (method `emit`s, trigger `Emit` actions, abort
/// notices, diagnostics), capped at [`MAX_OUTPUT_LINES`]: a line that
/// would pass the cap first drops the oldest half, so the newest lines
/// always survive at amortized constant cost.
#[derive(Default)]
pub(crate) struct OutputLog(Vec<String>);

impl OutputLog {
    pub(crate) fn push(&mut self, line: String) {
        if self.0.len() >= MAX_OUTPUT_LINES {
            self.0.drain(..MAX_OUTPUT_LINES / 2);
        }
        self.0.push(line);
    }
}

/// One trigger firing, reported to the registered [`FiringSink`] at the
/// moment the trigger fires — after the automaton accepted and the
/// ordinary-trigger deactivation rule ran, but *before* the action
/// executes. This is the observation hook the network front end
/// (`ode-server`) streams to `subscribe`d connections.
///
/// Notices are emitted at fire time, inside the detecting transaction:
/// if that transaction later aborts, the firing still happened (and was
/// reported) — consumers that care about durability must correlate by
/// [`FiringNotice::txn`].
#[derive(Clone, Debug)]
pub struct FiringNotice {
    /// Global firing sequence number (the value of
    /// [`Stats::triggers_fired`] after this firing): strictly increasing
    /// and unique across the database's lifetime.
    pub seq: u64,
    /// The transaction the firing occurred in.
    pub txn: TxnId,
    /// The object whose trigger fired.
    pub object: ObjectId,
    /// The object's class name.
    pub class: String,
    /// The trigger's name.
    pub trigger: String,
    /// The basic event whose posting completed the composite event.
    pub event: BasicEvent,
    /// The arguments of that completing event.
    pub args: Vec<Value>,
    /// Captured constituent-event arguments (only populated for triggers
    /// built with `capture_params`): the most recent arguments of every
    /// constituent basic event seen so far.
    pub captured: Vec<(BasicEvent, Vec<Value>)>,
    /// `true` for a firing on a *past* occurrence reported by a
    /// retroactive activation — `seq` is then the completing posting's
    /// event seq, not a fresh firing ordinal.
    pub retro: bool,
}

/// A callback invoked on every object-trigger firing (see
/// [`Database::set_firing_sink`]). Called synchronously with the engine
/// locked — implementations must not block or re-enter the engine.
pub type FiringSink = Arc<dyn Fn(&FiringNotice) + Send + Sync>;

/// One basic event captured by the committed-event tap (see
/// [`Database::set_event_tap`]): the posting exactly as an object saw
/// it, stamped with the engine's global posting sequence. Because the
/// sequence counter is carried by snapshots and replay regenerates the
/// same postings from the same ops, `seq` is stable across crash
/// recovery — the property the event-history store's retroactive
/// triggers lean on.
#[derive(Clone, Debug)]
pub struct TapEvent {
    /// Global posting sequence (the engine's `seq` after this post).
    pub seq: u64,
    /// The object the event was posted to.
    pub object: ObjectId,
    /// The class of that object.
    pub class: ClassId,
    /// The basic event.
    pub basic: BasicEvent,
    /// The posting's arguments.
    pub args: Vec<Value>,
}

/// The committed-event tap: a callback handed, at each transaction
/// commit, every basic event that transaction posted — the one record of
/// postings, since objects keep none — including the `after tcommit` /
/// `after tabort` rounds (delivered from the system transaction that
/// posts them, immediately after the user transaction's batch). Aborted
/// transactions deliver nothing, so the concatenated batches are exactly
/// the committed event stream. The `u64` is the virtual clock at commit.
/// Called synchronously with the engine locked — implementations must
/// only enqueue.
pub type EventTap = Arc<dyn Fn(TxnId, u64, &[TapEvent]) + Send + Sync>;

/// A callback invoked on every outermost logged operation (see
/// [`Database::set_log_sink`]) — the hook a write-ahead log hangs off.
/// Called synchronously with the engine locked, in exactly the order the
/// operations take effect, so the callback observes a serializable op
/// stream. Implementations must not block or re-enter the engine; they
/// swallow their own errors (a disk WAL latches failures internally and
/// the caller checks its health out of band).
pub type LogSink = Arc<dyn Fn(&LogOp) + Send + Sync>;

/// Engine counters (used by the experiment harness).
#[derive(Clone, Copy, Debug, Default)]
pub struct Stats {
    /// Basic events posted to objects.
    pub events_posted: u64,
    /// Automaton steps taken (relevant classifications).
    pub symbols_stepped: u64,
    /// Trigger firings.
    pub triggers_fired: u64,
    /// Committed transactions (excluding system transactions).
    pub txns_committed: u64,
    /// Aborted transactions.
    pub txns_aborted: u64,
}

#[derive(Debug)]
enum UndoOp {
    FieldSet {
        obj: ObjectId,
        field: String,
        old: Option<Value>,
    },
    Created(ObjectId),
    Deleted(ObjectId),
    TriggerState {
        obj: ObjectId,
        idx: usize,
        old: StateId,
    },
    TriggerSnapshot {
        obj: ObjectId,
        idx: usize,
        old_active: bool,
        old_state: StateId,
        old_params: Vec<Value>,
    },
}

#[derive(Debug)]
struct TxnState {
    user: Value,
    is_system: bool,
    accessed: Vec<ObjectId>,
    undo: Vec<UndoOp>,
    aborted: Option<AbortReason>,
    /// The `before tcomplete` fixpoint already ran ([`Database::prepare`]);
    /// a later commit must not run it again.
    prepared: bool,
    /// Events buffered for the committed-event tap (filled only while a
    /// tap is installed; dropped wholesale on abort).
    tap: Vec<TapEvent>,
}

/// The database: classes, objects, transactions, clock, triggers.
pub struct Database {
    classes: Vec<Arc<ClassDef>>,
    /// Per-class routers and resolve tables, parallel to `classes`.
    runtimes: Vec<Arc<ClassRuntime>>,
    class_index: HashMap<String, ClassId>,
    objects: HashMap<u64, Object>,
    next_object: u64,
    next_txn: u64,
    /// Highest cross-shard commit sequence applied here (see
    /// [`Database::commit_sharded`]); carried by snapshots so sharded
    /// recovery can vouch for checkpoint-pruned `Commit2pc` records.
    gtxn_floor: u64,
    txns: HashMap<u64, TxnState>,
    locks: HashMap<ObjectId, TxnId>,
    clock: Clock,
    seq: u64,
    entry_depth: u32,
    cascade_depth: u32,
    output: OutputLog,
    stats: Stats,
    at_timer_registry: HashSet<(ObjectId, ode_core::TimeEvent)>,
    schema_triggers: Vec<crate::schema::SchemaTrigger>,
    /// Router over the schema triggers' alphabets (rebuilt when one is
    /// defined — rare).
    schema_router: ClassRouter,
    /// Mask-memo scratch for object postings (epoch-stamped; reused
    /// across postings without clearing).
    router_memo: MaskMemo,
    /// Mask-memo scratch for schema postings.
    schema_memo: MaskMemo,
    /// Streaming observer for logged operations (see [`LogSink`]).
    log_sink: Option<LogSink>,
    /// Observer for object-trigger firings (see [`FiringNotice`]).
    firing_sink: Option<FiringSink>,
    /// Observer for committed event batches (see [`EventTap`]).
    event_tap: Option<EventTap>,
}

impl Default for Database {
    fn default() -> Self {
        Self::new()
    }
}

impl Database {
    /// A fresh, empty database.
    pub fn new() -> Self {
        Database {
            classes: Vec::new(),
            runtimes: Vec::new(),
            class_index: HashMap::new(),
            objects: HashMap::new(),
            next_object: 1,
            next_txn: 1,
            gtxn_floor: 0,
            txns: HashMap::new(),
            locks: HashMap::new(),
            clock: Clock::default(),
            seq: 0,
            entry_depth: 0,
            cascade_depth: 0,
            output: OutputLog::default(),
            stats: Stats::default(),
            at_timer_registry: HashSet::new(),
            schema_triggers: Vec::new(),
            schema_router: ClassRouter::default(),
            router_memo: MaskMemo::default(),
            schema_memo: MaskMemo::default(),
            log_sink: None,
            firing_sink: None,
            event_tap: None,
        }
    }

    /// Install (or clear) the firing sink: a callback invoked
    /// synchronously on every object-trigger firing, after the trigger
    /// automaton accepts and before the action runs. Schema-trigger
    /// firings are *not* reported (they are engine bookkeeping, not part
    /// of the paper's per-object trigger model), so consumers may observe
    /// gaps in [`FiringNotice::seq`].
    pub fn set_firing_sink(&mut self, sink: Option<FiringSink>) {
        self.firing_sink = sink;
    }

    /// Install (or clear) the committed-event tap: a callback handed
    /// every committed transaction's posted events at commit time (see
    /// [`EventTap`]). The tap sees *every* class's events — it is the
    /// analytic feed the event-history store ([`crate::histstore`])
    /// ingests — but costs nothing when none is installed (the
    /// per-posting buffer push is skipped entirely).
    pub fn set_event_tap(&mut self, tap: Option<EventTap>) {
        self.event_tap = tap;
    }

    /// Class names in `ClassId` order — the table an event-history
    /// store uses to translate the `ClassId` carried on each
    /// [`TapEvent`] to a stable, self-describing name.
    pub fn class_names(&self) -> Vec<String> {
        self.classes.iter().map(|c| c.name.clone()).collect()
    }

    /// Install (or clear) the log sink: a callback invoked synchronously
    /// on every outermost logged operation (see [`crate::oplog`]) — the
    /// one way to capture them. When recovering from a WAL, install the
    /// sink only *after* replaying — otherwise every replayed op would
    /// be re-appended.
    pub fn set_log_sink(&mut self, sink: Option<LogSink>) {
        self.log_sink = sink;
    }

    /// Record an operation — only outermost (application-level)
    /// operations are observed; nested trigger-action calls re-run
    /// automatically during replay.
    fn log_op(&mut self, op: impl FnOnce() -> LogOp) {
        if self.entry_depth != 0 {
            return;
        }
        if let Some(sink) = &self.log_sink {
            sink(&op());
        }
    }

    // ------------------------------------------------------------ schema

    /// Define a class. If the definition names a base class
    /// ([`crate::class::ClassBuilder::extends`]), the base must already
    /// be defined here; the new class is stored *flattened* — inherited
    /// fields, methods, mask functions, triggers, and constructor
    /// activations are materialized, with the subclass's methods and
    /// mask functions overriding same-named inherited ones (triggers may
    /// not be redefined).
    pub fn define_class(&mut self, def: ClassDef) -> Result<ClassId, OdeError> {
        if self.class_index.contains_key(&def.name) {
            return Err(OdeError::ClassExists(def.name));
        }
        let def = match &def.parent {
            None => def,
            Some(parent_name) => {
                let parent_id = self
                    .class_id(parent_name)
                    .ok_or_else(|| OdeError::UnknownClass(parent_name.clone()))?;
                let parent = Arc::clone(self.class(parent_id));
                flatten_inheritance(&parent, def)?
            }
        };
        let id = ClassId(self.classes.len() as u32);
        let name = def.name.clone();
        self.class_index.insert(name.clone(), id);
        // Registration-time routing: intern the class's events, dedup
        // its masks, and index trigger relevance — the posting hot path
        // classifies once per posting against these tables.
        self.runtimes.push(Arc::new(ClassRuntime::build(&def)));
        self.classes.push(Arc::new(def));
        // Database-scope event: schema modification (Section 3).
        self.post_schema(&crate::schema::events::define_class(), &[Value::Str(name)]);
        Ok(id)
    }

    /// Register a database-scope trigger (Section 3's database-scope
    /// events: schema modification, object population changes).
    pub fn define_schema_trigger(&mut self, trigger: crate::schema::SchemaTrigger) {
        self.schema_triggers.push(trigger);
        self.schema_router = ClassRouter::build(
            self.schema_triggers
                .iter()
                .enumerate()
                .map(|(i, t)| (i, t.detector.compiled().alphabet())),
        );
    }

    /// Post a schema event to the database-scope triggers: resolve the
    /// event once, fan out to the triggers that mention it.
    fn post_schema(&mut self, basic: &ode_core::BasicEvent, args: &[Value]) {
        use ode_core::EmptyEnv;
        let Some(code) = self.schema_router.code(basic) else {
            return; // invisible to every schema trigger
        };
        self.schema_memo.begin(&self.schema_router);
        let mut fired = Vec::new();
        for route in self.schema_router.routes(code) {
            let t = &mut self.schema_triggers[route.trigger];
            if !t.active {
                continue;
            }
            match self
                .schema_router
                .symbol(route, args, &EmptyEnv, &mut self.schema_memo)
            {
                Ok(sym) => {
                    if t.detector.step_symbol(sym) {
                        fired.push(route.trigger);
                    }
                }
                Err(e) => {
                    self.output
                        .push(format!("schema trigger `{}` mask error: {e}", t.name));
                }
            }
        }
        for i in fired {
            if !self.schema_triggers[i].perpetual {
                self.schema_triggers[i].active = false;
            }
            let action = Arc::clone(&self.schema_triggers[i].action);
            let name = self.schema_triggers[i].name.clone();
            self.stats.triggers_fired += 1;
            let mut ctx = crate::schema::SchemaCtx {
                db: self,
                trigger: &name,
                event: basic,
                args,
            };
            if let Err(e) = action(&mut ctx) {
                self.emit(format!("schema trigger `{name}` action failed: {e}"));
            }
        }
    }

    /// Look up a class id by name.
    pub fn class_id(&self, name: &str) -> Option<ClassId> {
        self.class_index.get(name).copied()
    }

    /// All defined class ids, in definition order.
    pub fn class_ids(&self) -> impl Iterator<Item = ClassId> + '_ {
        (0..self.classes.len() as u32).map(ClassId)
    }

    /// The class definition.
    pub fn class(&self, id: ClassId) -> &Arc<ClassDef> {
        &self.classes[id.0 as usize]
    }

    // -------------------------------------------------------- txn lifecycle

    /// Begin a transaction (anonymous user).
    pub fn begin(&mut self) -> TxnId {
        self.begin_as(Value::Str("anonymous".into()))
    }

    /// Begin a transaction on behalf of `user` (readable through the
    /// `user()` mask function, as in trigger T1).
    pub fn begin_as(&mut self, user: Value) -> TxnId {
        let id = TxnId(self.next_txn);
        self.log_op(|| LogOp::Begin {
            txn: id.0,
            user: user.clone(),
        });
        self.next_txn += 1;
        self.txns.insert(
            id.0,
            TxnState {
                user,
                is_system: false,
                accessed: Vec::new(),
                undo: Vec::new(),
                aborted: None,
                prepared: false,
                tap: Vec::new(),
            },
        );
        id
    }

    fn begin_system(&mut self) -> TxnId {
        let id = TxnId(self.next_txn);
        self.next_txn += 1;
        self.txns.insert(
            id.0,
            TxnState {
                user: Value::Str("system".into()),
                is_system: true,
                accessed: Vec::new(),
                undo: Vec::new(),
                aborted: None,
                prepared: false,
                tap: Vec::new(),
            },
        );
        id
    }

    /// Commit: run the `before tcomplete` fixpoint, make effects durable,
    /// then post `after tcommit` from a system transaction.
    pub fn commit(&mut self, txn: TxnId) -> Result<(), OdeError> {
        self.log_op(|| LogOp::Commit { txn: txn.0 });
        self.user_entry(txn, |db| db.commit_inner(txn))
    }

    /// Phase one of a two-phase (cross-shard) commit: run the `before
    /// tcomplete` fixpoint now, but defer the commit decision. On `Ok`
    /// the transaction is *prepared* — every trigger that wanted to veto
    /// has had its chance, so a following [`Database::commit_sharded`]
    /// cannot fail. On `Err` the transaction has aborted (exactly as a
    /// failing [`Database::commit`] would have).
    ///
    /// The `Prepare` record is logged *before* the fixpoint runs,
    /// mirroring [`Database::commit`]: replay re-attempts the fixpoint
    /// and reproduces even an aborted outcome deterministically.
    pub fn prepare(&mut self, txn: TxnId) -> Result<(), OdeError> {
        self.log_op(|| LogOp::Prepare { txn: txn.0 });
        self.user_entry(txn, |db| {
            let state = db.txn_state(txn)?;
            if !state.is_system && !state.prepared {
                db.tcomplete_fixpoint(txn)?;
            }
            db.txns.get_mut(&txn.0).expect("open above").prepared = true;
            Ok(())
        })
    }

    /// Phase two of a two-phase commit: commit the local branch `txn` of
    /// global transaction `gtxn`, logging a [`LogOp::Commit2pc`]
    /// record naming every participating shard. The caller must have
    /// [`Database::prepare`]d the transaction first; the fixpoint is then
    /// skipped and the commit cannot fail.
    pub fn commit_sharded(&mut self, txn: TxnId, gtxn: u64, parts: &[u64]) -> Result<(), OdeError> {
        self.log_op(|| LogOp::Commit2pc {
            txn: txn.0,
            gtxn,
            parts: parts.to_vec(),
        });
        self.gtxn_floor = self.gtxn_floor.max(gtxn);
        self.user_entry(txn, |db| db.commit_inner(txn))
    }

    /// Highest cross-shard commit sequence applied here (see
    /// [`Database::commit_sharded`]).
    pub fn gtxn_floor(&self) -> u64 {
        self.gtxn_floor
    }

    /// Explicitly abort the transaction.
    pub fn abort(&mut self, txn: TxnId) -> Result<(), OdeError> {
        self.txn_state(txn)?;
        self.log_op(|| LogOp::Abort { txn: txn.0 });
        self.finish_abort(txn, AbortReason::Explicit);
        Ok(())
    }

    /// Is `txn` currently open (begun, not yet committed or aborted)?
    pub fn txn_open(&self, txn: TxnId) -> bool {
        self.txns.contains_key(&txn.0)
    }

    /// Every open user transaction, in id order — the transactions a
    /// crash-recovered log left unfinished (still holding their object
    /// locks) that a coordinator may want to abort.
    pub fn open_user_txns(&self) -> Vec<TxnId> {
        let mut open: Vec<TxnId> = self
            .txns
            .iter()
            .filter(|(_, s)| !s.is_system)
            .map(|(id, _)| TxnId(*id))
            .collect();
        open.sort();
        open
    }

    /// Run `f` inside a fresh transaction, committing on `Ok` and
    /// aborting on `Err`.
    pub fn in_txn<T>(
        &mut self,
        f: impl FnOnce(&mut Database, TxnId) -> Result<T, OdeError>,
    ) -> Result<T, OdeError> {
        self.in_txn_as(Value::Str("anonymous".into()), f)
    }

    /// [`Database::in_txn`] with an explicit user.
    pub fn in_txn_as<T>(
        &mut self,
        user: Value,
        f: impl FnOnce(&mut Database, TxnId) -> Result<T, OdeError>,
    ) -> Result<T, OdeError> {
        let txn = self.begin_as(user);
        match f(self, txn) {
            Ok(v) => {
                self.commit(txn)?;
                Ok(v)
            }
            Err(e) => {
                if self.txns.contains_key(&txn.0) {
                    let _ = self.abort(txn);
                }
                Err(e)
            }
        }
    }

    /// Section 6: post `before tcomplete` until no triggers fire. The
    /// accessed set may grow between rounds if actions touch new
    /// objects.
    fn tcomplete_fixpoint(&mut self, txn: TxnId) -> Result<(), OdeError> {
        let mut rounds = 0u32;
        loop {
            let accessed = self.txn_state(txn)?.accessed.clone();
            let mut fired = 0u32;
            for obj in accessed {
                fired += self.post(
                    txn,
                    obj,
                    &BasicEvent::before(EventKind::TComplete),
                    &[],
                    None,
                )?;
            }
            if fired == 0 {
                return Ok(());
            }
            rounds += 1;
            if rounds > MAX_TCOMPLETE_ROUNDS {
                return self
                    .request_abort(txn, AbortReason::TCompleteDivergence)
                    .map(|_| ());
            }
        }
    }

    fn commit_inner(&mut self, txn: TxnId) -> Result<(), OdeError> {
        let state = self.txn_state(txn)?;
        // System transactions post only their payload events, so they
        // skip the fixpoint; prepared transactions already ran it.
        if !state.is_system && !state.prepared {
            self.tcomplete_fixpoint(txn)?;
        }

        // Commit proper.
        let state = self.txns.remove(&txn.0).expect("checked above");
        for obj in &state.accessed {
            if self.objects.get(&obj.0).is_some_and(|o| o.deleted) {
                self.clock.cancel_object(*obj);
            }
        }
        self.locks.retain(|_, holder| *holder != txn);
        // Deliver the committed batch before the `after tcommit` system
        // round below, so tap batches arrive in posting-seq order (the
        // system transaction's events have higher seqs and are delivered
        // from its own commit).
        if let Some(tap) = self.event_tap.clone() {
            if !state.tap.is_empty() {
                tap(txn, self.clock.now(), &state.tap);
            }
        }
        if !state.is_system {
            self.stats.txns_committed += 1;
            // System transaction posts `after tcommit` to every object
            // the committed transaction accessed.
            self.system_round(&state.accessed, &BasicEvent::after(EventKind::TCommit));
        }
        Ok(())
    }

    /// Mark the transaction aborted and unwind with an error; the
    /// outermost entry point performs the actual rollback.
    pub(crate) fn request_abort(
        &mut self,
        txn: TxnId,
        reason: AbortReason,
    ) -> Result<(), OdeError> {
        if let Some(state) = self.txns.get_mut(&txn.0) {
            if state.aborted.is_none() {
                state.aborted = Some(reason.clone());
            }
        }
        Err(OdeError::Aborted(reason))
    }

    fn finish_abort(&mut self, txn: TxnId, reason: AbortReason) {
        if !self.txns.contains_key(&txn.0) {
            return;
        }
        // Post `before tabort` inside the aborting transaction (its
        // effects — and, for committed-mode triggers, the automaton
        // steps themselves — are undone below).
        let accessed = self.txns[&txn.0].accessed.clone();
        for obj in &accessed {
            let _ = self.post(txn, *obj, &BasicEvent::before(EventKind::TAbort), &[], None);
        }

        let state = self.txns.remove(&txn.0).expect("checked above");
        // Undo in reverse order.
        for op in state.undo.into_iter().rev() {
            match op {
                UndoOp::FieldSet { obj, field, old } => {
                    if let Some(o) = self.objects.get_mut(&obj.0) {
                        match old {
                            Some(v) => o.fields.insert(field, v),
                            None => o.fields.remove(&field),
                        };
                    }
                }
                UndoOp::Created(obj) => {
                    self.objects.remove(&obj.0);
                    self.clock.cancel_object(obj);
                    self.at_timer_registry.retain(|(o, _)| *o != obj);
                }
                UndoOp::Deleted(obj) => {
                    if let Some(o) = self.objects.get_mut(&obj.0) {
                        o.deleted = false;
                    }
                }
                UndoOp::TriggerState { obj, idx, old } => {
                    if let Some(o) = self.objects.get_mut(&obj.0) {
                        if let Some(t) = o.triggers.get_mut(idx) {
                            t.state = old;
                        }
                    }
                }
                UndoOp::TriggerSnapshot {
                    obj,
                    idx,
                    old_active,
                    old_state,
                    old_params,
                } => {
                    if let Some(o) = self.objects.get_mut(&obj.0) {
                        if let Some(t) = o.triggers.get_mut(idx) {
                            t.active = old_active;
                            t.state = old_state;
                            t.params = old_params;
                        }
                    }
                }
            }
        }
        self.locks.retain(|_, holder| *holder != txn);
        if !state.is_system {
            self.stats.txns_aborted += 1;
            self.emit(format!("{txn} aborted: {reason}"));
            // System transaction posts `after tabort`.
            self.system_round(&accessed, &BasicEvent::after(EventKind::TAbort));
        }
    }

    /// Public entry wrapper: the outermost engine call finalizes a
    /// requested abort (nested calls — trigger actions — just unwind).
    fn user_entry<T>(
        &mut self,
        txn: TxnId,
        f: impl FnOnce(&mut Database) -> Result<T, OdeError>,
    ) -> Result<T, OdeError> {
        if self.entry_depth > 0 {
            return f(self);
        }
        self.entry_depth += 1;
        let result = f(self);
        self.entry_depth -= 1;
        // Finalize a pending abort, whether it surfaced as an error or
        // was swallowed by an action.
        let pending = self.txns.get(&txn.0).and_then(|s| s.aborted.clone());
        if let Some(reason) = pending {
            self.finish_abort(txn, reason.clone());
            return Err(OdeError::Aborted(reason));
        }
        result
    }

    fn txn_state(&self, txn: TxnId) -> Result<&TxnState, OdeError> {
        let state = self.txns.get(&txn.0).ok_or(OdeError::UnknownTxn(txn))?;
        if let Some(reason) = &state.aborted {
            return Err(OdeError::Aborted(reason.clone()));
        }
        Ok(state)
    }

    // ---------------------------------------------------------- objects

    /// Create an object of `class_name`, overriding field defaults,
    /// auto-activating the class's constructor triggers, and posting
    /// `after create`. An override nested deeper than
    /// [`ode_core::MAX_VALUE_DEPTH`] records is refused
    /// ([`ode_core::MaskError::TooDeep`]) before anything happens.
    pub fn create_object(
        &mut self,
        txn: TxnId,
        class_name: &str,
        overrides: &[(&str, Value)],
    ) -> Result<ObjectId, OdeError> {
        check_depth(overrides.iter().map(|(_, v)| v))?;
        let result = self.user_entry(txn, |db| db.create_object_inner(txn, class_name, overrides));
        let obj = result.as_ref().map(|id| id.0).unwrap_or(0);
        self.log_op(|| LogOp::Create {
            txn: txn.0,
            obj,
            class: class_name.to_string(),
            overrides: overrides
                .iter()
                .map(|(k, v)| (k.to_string(), v.clone()))
                .collect(),
        });
        result
    }

    fn create_object_inner(
        &mut self,
        txn: TxnId,
        class_name: &str,
        overrides: &[(&str, Value)],
    ) -> Result<ObjectId, OdeError> {
        self.txn_state(txn)?;
        let class_id = self
            .class_id(class_name)
            .ok_or_else(|| OdeError::UnknownClass(class_name.to_string()))?;
        let class = Arc::clone(self.class(class_id));
        let id = ObjectId(self.next_object);
        self.next_object += 1;

        let mut fields = class.fields.clone();
        for (k, v) in overrides {
            fields.insert((*k).to_string(), v.clone());
        }
        let triggers = class
            .triggers
            .iter()
            .enumerate()
            .map(|(i, t)| TriggerInstance {
                def_index: i,
                active: false,
                state: t.event.dfa().start(),
                params: Vec::new(),
                fired: 0,
                captured: Vec::new(),
            })
            .collect();
        self.objects.insert(
            id.0,
            Object {
                id,
                class: class_id,
                fields,
                deleted: false,
                triggers,
                history: Vec::new(),
            },
        );
        if let Some(state) = self.txns.get_mut(&txn.0) {
            state.undo.push(UndoOp::Created(id));
        }
        // Creation is this transaction's first access to the object.
        self.ensure_locked(txn, id)?;
        // Constructor body: activate the declared triggers, then the
        // `after create` event is posted.
        let auto = class.auto_activate.clone();
        for t in &auto {
            self.activate_trigger_inner(txn, id, t, &[])?;
        }
        self.post(txn, id, &BasicEvent::after(EventKind::Create), &[], None)?;
        self.post_schema(
            &crate::schema::events::create_object(),
            &[Value::Str(class.name.clone())],
        );
        Ok(id)
    }

    /// Delete an object: posts `before delete`, then tombstones it.
    pub fn delete_object(&mut self, txn: TxnId, obj: ObjectId) -> Result<(), OdeError> {
        self.log_op(|| LogOp::Delete {
            txn: txn.0,
            obj: obj.0,
        });
        self.user_entry(txn, |db| {
            db.txn_state(txn)?;
            db.ensure_locked(txn, obj)?;
            let class_name = {
                let o = db.live_object(obj)?;
                db.class(o.class).name.clone()
            };
            db.post_schema(
                &crate::schema::events::delete_object(),
                &[Value::Str(class_name)],
            );
            db.post(txn, obj, &BasicEvent::before(EventKind::Delete), &[], None)?;
            let o = db
                .objects
                .get_mut(&obj.0)
                .ok_or(OdeError::UnknownObject(obj))?;
            o.deleted = true;
            if let Some(state) = db.txns.get_mut(&txn.0) {
                state.undo.push(UndoOp::Deleted(obj));
            }
            Ok(())
        })
    }

    fn live_object(&self, obj: ObjectId) -> Result<&Object, OdeError> {
        let o = self
            .objects
            .get(&obj.0)
            .ok_or(OdeError::UnknownObject(obj))?;
        if o.deleted {
            return Err(OdeError::ObjectDeleted(obj));
        }
        Ok(o)
    }

    /// Inspect a field without locking or posting events (tooling only —
    /// real access goes through member functions).
    pub fn peek_field(&self, obj: ObjectId, name: &str) -> Option<Value> {
        self.objects.get(&obj.0)?.fields.get(name).cloned()
    }

    /// Inspect an object (tests, baselines, examples).
    pub fn object(&self, obj: ObjectId) -> Option<&Object> {
        self.objects.get(&obj.0)
    }

    /// Iterate over all live objects.
    pub fn objects(&self) -> impl Iterator<Item = &Object> {
        self.objects.values().filter(|o| !o.deleted)
    }

    // ---------------------------------------------------------- methods

    /// Invoke a public member function: the paper's object access path,
    /// posting the full before/after event envelope and firing triggers.
    /// Arguments nested too deep are refused as in
    /// [`Database::create_object`].
    pub fn call(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, OdeError> {
        check_depth(args)?;
        self.log_op(|| LogOp::Call {
            txn: txn.0,
            obj: obj.0,
            method: method.to_string(),
            args: args.to_vec(),
        });
        self.user_entry(txn, |db| db.call_inner(txn, obj, method, args))
    }

    fn call_inner(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, OdeError> {
        self.txn_state(txn)?;
        let o = self.live_object(obj)?;
        let class = Arc::clone(self.class(o.class));
        let mdef = class
            .methods
            .get(method)
            .ok_or_else(|| OdeError::UnknownMethod {
                class: class.name.clone(),
                method: method.to_string(),
            })?
            .clone();
        if mdef.params.len() != args.len() {
            return Err(OdeError::WrongArgCount {
                method: method.to_string(),
                expected: mdef.params.len(),
                got: args.len(),
            });
        }
        self.ensure_locked(txn, obj)?;

        let kind_event = match mdef.kind {
            MethodKind::Read => EventKind::Read,
            MethodKind::Update => EventKind::Update,
        };
        // Before events: access, read|update, method.
        self.post(txn, obj, &BasicEvent::before(EventKind::Access), args, None)?;
        self.post(
            txn,
            obj,
            &BasicEvent::before(kind_event.clone()),
            args,
            None,
        )?;
        self.post(txn, obj, &BasicEvent::before_method(method), args, None)?;

        // Body, with undo-logged field writes.
        let mut dirty: Vec<(String, Option<Value>)> = Vec::new();
        let result = {
            let o = self
                .objects
                .get_mut(&obj.0)
                .ok_or(OdeError::UnknownObject(obj))?;
            let mut ctx = MethodCtx {
                object: obj,
                fields: &mut o.fields,
                dirty: &mut dirty,
                args,
                output: &mut self.output,
            };
            (mdef.body)(&mut ctx)
        };
        if let Some(state) = self.txns.get_mut(&txn.0) {
            for (field, old) in dirty {
                state.undo.push(UndoOp::FieldSet { obj, field, old });
            }
        }
        let result = result?;

        // After events: method, read|update, access.
        self.post(txn, obj, &BasicEvent::after_method(method), args, None)?;
        self.post(txn, obj, &BasicEvent::after(kind_event), args, None)?;
        self.post(txn, obj, &BasicEvent::after(EventKind::Access), args, None)?;
        Ok(result)
    }

    fn ensure_locked(&mut self, txn: TxnId, obj: ObjectId) -> Result<(), OdeError> {
        match self.locks.get(&obj) {
            Some(holder) if *holder != txn => {
                return Err(OdeError::LockConflict {
                    object: obj,
                    holder: *holder,
                })
            }
            Some(_) => return Ok(()),
            None => {
                self.locks.insert(obj, txn);
            }
        }
        let state = self.txns.get_mut(&txn.0).ok_or(OdeError::UnknownTxn(txn))?;
        let first_access = !state.accessed.contains(&obj);
        let is_system = state.is_system;
        if first_access {
            state.accessed.push(obj);
            // "the 'after tbegin' event is posted to an object only
            // immediately before the object is first accessed by the
            // transaction" (Section 3.1). System transactions post only
            // their payload events.
            if !is_system {
                self.post(txn, obj, &BasicEvent::after(EventKind::TBegin), &[], None)?;
            }
        }
        Ok(())
    }

    // --------------------------------------------------------- triggers

    /// Activate a trigger "by invoking its name, along with parameter
    /// values, just as an ordinary member function is invoked"
    /// (Section 2). Resets the monitor to the automaton start state and
    /// feeds the distinguished `start` point. Parameters nested too deep
    /// are refused as in [`Database::create_object`].
    pub fn activate_trigger(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        name: &str,
        params: &[Value],
    ) -> Result<(), OdeError> {
        check_depth(params)?;
        self.log_op(|| LogOp::Activate {
            txn: txn.0,
            obj: obj.0,
            trigger: name.to_string(),
            params: params.to_vec(),
        });
        self.user_entry(txn, |db| db.activate_trigger_inner(txn, obj, name, params))
    }

    fn activate_trigger_inner(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        name: &str,
        params: &[Value],
    ) -> Result<(), OdeError> {
        self.txn_state(txn)?;
        self.ensure_locked(txn, obj)?;
        let o = self.live_object(obj)?;
        let class = Arc::clone(self.class(o.class));
        let idx = class
            .trigger_index(name)
            .ok_or_else(|| OdeError::UnknownTrigger {
                class: class.name.clone(),
                trigger: name.to_string(),
            })?;
        let tdef = &class.triggers[idx];
        let user = self.txns[&txn.0].user.clone();

        // Snapshot for rollback, mutate, feed `start`.
        {
            let o = self
                .objects
                .get_mut(&obj.0)
                .ok_or(OdeError::UnknownObject(obj))?;
            let pos = crate::object::instance_position(&o.triggers, idx).ok_or_else(|| {
                OdeError::UnknownTrigger {
                    class: class.name.clone(),
                    trigger: name.to_string(),
                }
            })?;
            let inst = &mut o.triggers[pos];
            let snapshot = UndoOp::TriggerSnapshot {
                obj,
                idx: pos,
                old_active: inst.active,
                old_state: inst.state,
                old_params: inst.params.clone(),
            };
            inst.active = true;
            inst.params = params.to_vec();
            let env = EngineEnv {
                fields: &o.fields,
                class: class.as_ref(),
                user: &user,
            };
            let start_sym = tdef.event.alphabet().start_symbol(&env)?;
            inst.state = tdef.event.dfa().step(tdef.event.dfa().start(), start_sym);
            if let Some(state) = self.txns.get_mut(&txn.0) {
                state.undo.push(snapshot);
            }
        }

        // Register timers for the time events in this trigger's alphabet.
        let now = self.clock.now();
        for group in tdef.event.alphabet().groups() {
            if let BasicEvent::Time(te) = &group.basic {
                let scope = match te {
                    ode_core::TimeEvent::At(_) => {
                        // Absolute patterns: one object-wide timer per
                        // (object, pattern).
                        if !self.at_timer_registry.insert((obj, te.clone())) {
                            continue;
                        }
                        TimerScope::Object
                    }
                    _ => TimerScope::Trigger(idx),
                };
                self.clock.schedule_event(obj, scope, te, now);
            }
        }
        Ok(())
    }

    /// Retroactively activate a trigger: replay the object's stored
    /// committed sub-history (from
    /// [`HistStore::object_events`](crate::histstore::HistStore::object_events))
    /// through the trigger's automaton, report firings on the past
    /// occurrences, and install the resulting monitoring state — as if
    /// the trigger had been active since inception. The computed
    /// outcome, not the computation, is logged
    /// ([`LogOp::ActivateRetro`]), so recovery re-installs
    /// it while the history store is itself still rebuilding. Retro
    /// firings are reported through the firing sink with
    /// [`FiringNotice::retro`] set and `seq` = the completing posting's
    /// event seq (deterministic and stable across restarts); trigger
    /// actions are *not* re-executed for past occurrences.
    pub fn activate_trigger_retro(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        name: &str,
        params: &[Value],
        events: &[(u64, BasicEvent, Vec<Value>)],
    ) -> Result<crate::histstore::RetroReplay, OdeError> {
        check_depth(params)?;
        let (replay, class_name) = {
            let o = self.live_object(obj)?;
            let class = Arc::clone(self.class(o.class));
            let idx = class
                .trigger_index(name)
                .ok_or_else(|| OdeError::UnknownTrigger {
                    class: class.name.clone(),
                    trigger: name.to_string(),
                })?;
            (
                crate::histstore::replay_trigger(events, &class.triggers[idx])?,
                class.name.clone(),
            )
        };
        self.apply_activate_retro(txn, obj, name, params, replay.outcome())?;
        if let Some(sink) = self.firing_sink.clone() {
            for f in &replay.firings {
                sink(&FiringNotice {
                    seq: f.seq,
                    txn,
                    object: obj,
                    class: class_name.clone(),
                    trigger: name.to_string(),
                    event: f.event.clone(),
                    args: f.args.clone(),
                    captured: Vec::new(),
                    retro: true,
                });
            }
        }
        Ok(replay)
    }

    /// Install a recorded retroactive-activation outcome — the logged
    /// form of [`Database::activate_trigger_retro`], also the replay
    /// path for [`LogOp::ActivateRetro`].
    pub fn apply_activate_retro(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        name: &str,
        params: &[Value],
        outcome: crate::histstore::RetroOutcome,
    ) -> Result<(), OdeError> {
        self.log_op(|| LogOp::ActivateRetro {
            txn: txn.0,
            obj: obj.0,
            trigger: name.to_string(),
            params: params.to_vec(),
            state: outcome.state,
            active: outcome.active,
            fired: outcome.fired,
        });
        self.user_entry(txn, |db| {
            db.install_retro_inner(txn, obj, name, params, outcome)
        })
    }

    fn install_retro_inner(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        name: &str,
        params: &[Value],
        outcome: crate::histstore::RetroOutcome,
    ) -> Result<(), OdeError> {
        self.txn_state(txn)?;
        self.ensure_locked(txn, obj)?;
        let o = self.live_object(obj)?;
        let class = Arc::clone(self.class(o.class));
        let idx = class
            .trigger_index(name)
            .ok_or_else(|| OdeError::UnknownTrigger {
                class: class.name.clone(),
                trigger: name.to_string(),
            })?;
        let tdef = &class.triggers[idx];
        {
            let o = self
                .objects
                .get_mut(&obj.0)
                .ok_or(OdeError::UnknownObject(obj))?;
            let pos = crate::object::instance_position(&o.triggers, idx).ok_or_else(|| {
                OdeError::UnknownTrigger {
                    class: class.name.clone(),
                    trigger: name.to_string(),
                }
            })?;
            let inst = &mut o.triggers[pos];
            let snapshot = UndoOp::TriggerSnapshot {
                obj,
                idx: pos,
                old_active: inst.active,
                old_state: inst.state,
                old_params: inst.params.clone(),
            };
            inst.active = outcome.active;
            inst.state = outcome.state;
            inst.params = params.to_vec();
            inst.fired += outcome.fired;
            if let Some(s) = self.txns.get_mut(&txn.0) {
                s.undo.push(snapshot);
            }
        }
        // A still-monitoring instance needs the same timers a live
        // activation registers for the time events in its alphabet.
        if outcome.active {
            let now = self.clock.now();
            for group in tdef.event.alphabet().groups() {
                if let BasicEvent::Time(te) = &group.basic {
                    let scope = match te {
                        ode_core::TimeEvent::At(_) => {
                            if !self.at_timer_registry.insert((obj, te.clone())) {
                                continue;
                            }
                            TimerScope::Object
                        }
                        _ => TimerScope::Trigger(idx),
                    };
                    self.clock.schedule_event(obj, scope, te, now);
                }
            }
        }
        Ok(())
    }

    /// Explicitly deactivate a trigger.
    pub fn deactivate_trigger(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        name: &str,
    ) -> Result<(), OdeError> {
        self.log_op(|| LogOp::Deactivate {
            txn: txn.0,
            obj: obj.0,
            trigger: name.to_string(),
        });
        self.user_entry(txn, |db| {
            db.txn_state(txn)?;
            db.ensure_locked(txn, obj)?;
            let o = db.live_object(obj)?;
            let class = Arc::clone(db.class(o.class));
            let idx = class
                .trigger_index(name)
                .ok_or_else(|| OdeError::UnknownTrigger {
                    class: class.name.clone(),
                    trigger: name.to_string(),
                })?;
            let o = db
                .objects
                .get_mut(&obj.0)
                .ok_or(OdeError::UnknownObject(obj))?;
            let pos = crate::object::instance_position(&o.triggers, idx).ok_or_else(|| {
                OdeError::UnknownTrigger {
                    class: class.name.clone(),
                    trigger: name.to_string(),
                }
            })?;
            let inst = &mut o.triggers[pos];
            let snapshot = UndoOp::TriggerSnapshot {
                obj,
                idx: pos,
                old_active: inst.active,
                old_state: inst.state,
                old_params: inst.params.clone(),
            };
            inst.active = false;
            if let Some(state) = db.txns.get_mut(&txn.0) {
                state.undo.push(snapshot);
            }
            Ok(())
        })
    }

    // ---------------------------------------------------------- posting

    /// Post a basic event to an object: resolve the event's class-level
    /// code **once**, fan the routed symbols out to the relevant active
    /// triggers, then fire. Returns the number of triggers fired.
    fn post(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        basic: &BasicEvent,
        args: &[Value],
        scope: Option<usize>,
    ) -> Result<u32, OdeError> {
        let Some(o) = self.objects.get(&obj.0) else {
            return Ok(0); // object vanished (aborted create) — drop
        };
        if o.deleted && !matches!(basic, BasicEvent::Db(Qualifier::Before, EventKind::Delete)) {
            return Ok(0);
        }
        let class_id = o.class;
        let class = Arc::clone(self.class(o.class));
        let runtime = Arc::clone(&self.runtimes[o.class.0 as usize]);
        let user = match self.txns.get(&txn.0) {
            Some(s) => s.user.clone(),
            None => Value::Str("system".into()),
        };

        self.seq += 1;
        self.stats.events_posted += 1;
        let seq = self.seq;

        // Committed-event tap: buffer the posting on its transaction (the
        // buffer is delivered at commit, dropped on abort). Skipped
        // entirely when no tap is installed, preserving the zero-cost
        // default.
        if self.event_tap.is_some() {
            if let Some(state) = self.txns.get_mut(&txn.0) {
                state.tap.push(TapEvent {
                    seq,
                    object: obj,
                    class: class_id,
                    basic: basic.clone(),
                    args: args.to_vec(),
                });
            }
        }

        // Phase A+B under one object borrow: route the symbols against
        // the fields (split borrow) and step the automata, collecting
        // firings as (instance position, def index) pairs — actions and
        // deactivation go by definition, rollback by store position.
        let mut fired: Vec<(usize, usize)> = Vec::new();
        {
            let Some(code) = runtime.resolve(basic) else {
                return Ok(0); // invisible to every trigger of the class
            };
            let Object {
                fields, triggers, ..
            } = self.objects.get_mut(&obj.0).expect("checked above");
            let env = EngineEnv {
                fields,
                class: class.as_ref(),
                user: &user,
            };
            let mut txn_undo = self.txns.get_mut(&txn.0).map(|s| &mut s.undo);
            self.router_memo.begin(&runtime.router);
            for route in runtime.router.routes(code) {
                if let Some(only) = scope {
                    if only != route.trigger {
                        continue;
                    }
                }
                let Some(pos) = crate::object::instance_position(triggers, route.trigger) else {
                    continue;
                };
                let inst = &mut triggers[pos];
                if !inst.active {
                    continue;
                }
                let tdef = &class.triggers[route.trigger];
                let sym = runtime
                    .router
                    .symbol(route, args, &env, &mut self.router_memo)?;
                // Committed-history monitoring: the automaton state is
                // object data, undone on abort (Section 6).
                if tdef.monitoring == Monitoring::Committed {
                    if let Some(undo) = txn_undo.as_deref_mut() {
                        undo.push(UndoOp::TriggerState {
                            obj,
                            idx: pos,
                            old: inst.state,
                        });
                    }
                }
                if tdef.capture {
                    if inst.captured.len() <= route.slot {
                        inst.captured.resize(route.slot + 1, None);
                    }
                    inst.captured[route.slot] = Some(args.to_vec());
                }
                inst.state = tdef.event.dfa().step(inst.state, sym);
                self.stats.symbols_stepped += 1;
                if tdef.event.dfa().is_accepting(inst.state) && !matches!(basic, BasicEvent::Start)
                {
                    fired.push((pos, route.trigger));
                }
            }
        }

        if fired.is_empty() {
            return Ok(0);
        }

        // "We determine all the trigger events that have occurred, and
        // then we fire the triggers": first deactivate every fired
        // ordinary trigger, then execute the actions in declaration
        // order.
        let fired_count = fired.len() as u32;
        let sink = self.firing_sink.clone();
        let mut notices: Vec<FiringNotice> = Vec::new();
        for &(pos, def) in &fired {
            let tdef = &class.triggers[def];
            let o = self.objects.get_mut(&obj.0).expect("present");
            let inst = &mut o.triggers[pos];
            inst.fired += 1;
            self.stats.triggers_fired += 1;
            if sink.is_some() {
                let alphabet = tdef.event.alphabet();
                let captured = inst
                    .captured
                    .iter()
                    .enumerate()
                    .filter_map(|(slot, v)| {
                        let cap_args = v.as_ref()?;
                        let cap_basic = alphabet.groups().get(slot)?.basic.clone();
                        Some((cap_basic, cap_args.clone()))
                    })
                    .collect();
                notices.push(FiringNotice {
                    seq: self.stats.triggers_fired,
                    txn,
                    object: obj,
                    class: class.name.clone(),
                    trigger: tdef.name.clone(),
                    event: basic.clone(),
                    args: args.to_vec(),
                    captured,
                    retro: false,
                });
            }
            if !tdef.perpetual {
                let snapshot = UndoOp::TriggerSnapshot {
                    obj,
                    idx: pos,
                    old_active: inst.active,
                    old_state: inst.state,
                    old_params: inst.params.clone(),
                };
                inst.active = false;
                if tdef.monitoring == Monitoring::Committed {
                    if let Some(state) = self.txns.get_mut(&txn.0) {
                        state.undo.push(snapshot);
                    }
                }
            }
        }
        if let Some(sink) = &sink {
            for notice in &notices {
                sink(notice);
            }
        }
        for (_, def) in fired {
            self.run_action(txn, obj, &class, def, basic, args)?;
        }
        Ok(fired_count)
    }

    fn run_action(
        &mut self,
        txn: TxnId,
        obj: ObjectId,
        class: &Arc<ClassDef>,
        idx: usize,
        basic: &BasicEvent,
        args: &[Value],
    ) -> Result<(), OdeError> {
        if self.cascade_depth >= MAX_CASCADE_DEPTH {
            return self.request_abort(txn, AbortReason::CascadeOverflow);
        }
        self.cascade_depth += 1;
        let tdef = &class.triggers[idx];
        let action = tdef.action.clone();
        let name = tdef.name.clone();
        let result = match action {
            Action::Abort => self.request_abort(
                txn,
                AbortReason::TriggerAbort {
                    trigger: name.clone(),
                },
            ),
            Action::Call(method) => self.call_inner(txn, obj, &method, &[]).map(|_| ()),
            Action::Emit(line) => {
                let rendered = format!("[{txn} {obj} {name}] {line}");
                self.output.push(rendered);
                Ok(())
            }
            Action::Native(f) => {
                let mut ctx = ActionCtx {
                    db: self,
                    txn,
                    object: obj,
                    trigger: &name,
                    event: basic,
                    event_args: args,
                };
                f(&mut ctx)
            }
        };
        self.cascade_depth -= 1;
        result
    }

    /// Post events to a set of objects inside a fresh system transaction
    /// (`after tcommit`, `after tabort`, time events).
    fn system_round(&mut self, objects: &[ObjectId], basic: &BasicEvent) {
        let sys = self.begin_system();
        for obj in objects {
            // Best effort: a failing trigger action in a system round is
            // reported, not propagated.
            if let Err(e) = self.post(sys, *obj, basic, &[], None) {
                self.emit(format!("system posting failed on {obj}: {e}"));
            }
        }
        let _ = self.commit_inner(sys);
    }

    // ------------------------------------------------------------ clock

    /// Current virtual time (ms).
    pub fn now(&self) -> u64 {
        self.clock.now()
    }

    /// Advance the virtual clock, posting due time events inside system
    /// transactions (time events are "posted only to the relevant
    /// objects", Section 3.1).
    pub fn advance_clock_to(&mut self, target: u64) {
        self.log_op(|| LogOp::AdvanceClock { to: target });
        let due = self.clock.advance_to(target);
        for (_, timer) in due {
            let alive = self
                .objects
                .get(&timer.object.0)
                .map(|o| !o.deleted)
                .unwrap_or(false);
            if !alive {
                continue;
            }
            let scope = match timer.scope {
                TimerScope::Object => None,
                TimerScope::Trigger(i) => Some(i),
            };
            let sys = self.begin_system();
            if let Err(e) = self.post(
                sys,
                timer.object,
                &BasicEvent::Time(timer.event.clone()),
                &[],
                scope,
            ) {
                self.emit(format!("time event failed on {}: {e}", timer.object));
            }
            let _ = self.commit_inner(sys);
        }
    }

    /// Advance the clock by a delta.
    pub fn advance_clock_by(&mut self, delta: u64) {
        self.advance_clock_to(self.clock.now() + delta);
    }

    // ----------------------------------------------------- persistence

    /// Capture a [`crate::persist::Snapshot`] of the object store.
    /// Requires quiescence: no transactions may be in flight (Section 2's
    /// persistent store outlives programs, not transactions).
    pub fn snapshot(&self) -> Result<crate::persist::Snapshot, OdeError> {
        if let Some(&id) = self.txns.keys().next() {
            return Err(OdeError::TxnInFlight(TxnId(id)));
        }
        let mut objects: Vec<crate::persist::ObjectSnapshot> = self
            .objects
            .values()
            .map(|o| {
                let class = self.class(o.class);
                crate::persist::ObjectSnapshot {
                    id: o.id.0,
                    class: class.name.clone(),
                    fields: o.fields.clone(),
                    deleted: o.deleted,
                    triggers: o
                        .triggers
                        .iter()
                        .map(|t| {
                            // Capture slots are keyed by the trigger
                            // alphabet's group positions in memory; the
                            // snapshot format keeps the self-describing
                            // (event, args) pairs.
                            let alphabet = class.triggers[t.def_index].event.alphabet();
                            crate::persist::TriggerSnapshot {
                                name: class.triggers[t.def_index].name.clone(),
                                active: t.active,
                                state: t.state,
                                params: t.params.clone(),
                                fired: t.fired,
                                captured: t
                                    .captured
                                    .iter()
                                    .enumerate()
                                    .filter_map(|(slot, v)| {
                                        let args = v.as_ref()?;
                                        let basic = alphabet.groups().get(slot)?.basic.clone();
                                        Some((basic, args.clone()))
                                    })
                                    .collect(),
                            }
                        })
                        .collect(),
                }
            })
            .collect();
        objects.sort_by_key(|o| o.id);
        Ok(crate::persist::Snapshot {
            next_object: self.next_object,
            next_txn: self.next_txn,
            seq: self.seq,
            clock_now: self.clock.now(),
            timers: self.clock.export_timers(),
            gtxn_floor: self.gtxn_floor,
            objects,
        })
    }

    /// Restore a snapshot into this database. The store must be empty
    /// and every class (with every trigger) named by the snapshot must
    /// already be defined — classes are code and are re-linked, not
    /// persisted.
    pub fn restore(&mut self, snap: &crate::persist::Snapshot) -> Result<(), OdeError> {
        if !self.objects.is_empty() {
            return Err(OdeError::Method(
                "restore requires an empty object store".into(),
            ));
        }
        if !self.txns.is_empty() {
            return Err(OdeError::Method(
                "restore requires no transactions in flight".into(),
            ));
        }
        for os in &snap.objects {
            let class_id = self
                .class_id(&os.class)
                .ok_or_else(|| OdeError::UnknownClass(os.class.clone()))?;
            let class = Arc::clone(self.class(class_id));
            // Rebuild instances in class-trigger order, then apply the
            // snapshot's per-name state.
            let mut triggers: Vec<crate::object::TriggerInstance> = class
                .triggers
                .iter()
                .enumerate()
                .map(|(i, t)| crate::object::TriggerInstance {
                    def_index: i,
                    active: false,
                    state: t.event.dfa().start(),
                    params: Vec::new(),
                    fired: 0,
                    captured: Vec::new(),
                })
                .collect();
            for ts in &os.triggers {
                let idx =
                    class
                        .trigger_index(&ts.name)
                        .ok_or_else(|| OdeError::UnknownTrigger {
                            class: class.name.clone(),
                            trigger: ts.name.clone(),
                        })?;
                let alphabet = class.triggers[idx].event.alphabet();
                let inst = &mut triggers[idx];
                inst.active = ts.active;
                inst.state = ts.state;
                inst.params = ts.params.clone();
                inst.fired = ts.fired;
                inst.captured = Vec::new();
                for (basic, cargs) in &ts.captured {
                    if let Some(slot) = alphabet.group_position(basic) {
                        if inst.captured.len() <= slot {
                            inst.captured.resize(slot + 1, None);
                        }
                        inst.captured[slot] = Some(cargs.clone());
                    }
                }
            }
            self.objects.insert(
                os.id,
                Object {
                    id: ObjectId(os.id),
                    class: class_id,
                    fields: os.fields.clone(),
                    deleted: os.deleted,
                    triggers,
                    history: Vec::new(),
                },
            );
        }
        self.next_object = snap.next_object;
        self.next_txn = snap.next_txn.max(self.next_txn);
        self.gtxn_floor = self.gtxn_floor.max(snap.gtxn_floor);
        self.seq = snap.seq;
        self.clock.import(snap.clock_now, snap.timers.clone());
        // Rebuild the at-pattern dedup registry from the live timers.
        self.at_timer_registry = snap
            .timers
            .iter()
            .filter(|(_, t)| t.scope == crate::clock::TimerScope::Object)
            .map(|(_, t)| (t.object, t.event.clone()))
            .collect();
        Ok(())
    }

    // ------------------------------------------------------------ misc

    /// Append a line to the output log.
    pub fn emit(&mut self, line: impl Into<String>) {
        self.output.push(line.into());
    }

    /// The output log (method `emit`s, trigger `Emit` actions, abort
    /// notices, diagnostics): the newest lines, at most
    /// 65 536 of them.
    pub fn output(&self) -> &[String] {
        &self.output.0
    }

    /// Drain the output log.
    pub fn take_output(&mut self) -> Vec<String> {
        std::mem::take(&mut self.output.0)
    }

    /// Engine counters.
    pub fn stats(&self) -> Stats {
        self.stats
    }
}

/// Refuse values that enter the engine nested deeper than
/// [`ode_core::MAX_VALUE_DEPTH`] records, before anything is logged: a
/// log record or checkpoint holding one could not be read back.
fn check_depth<'v>(values: impl IntoIterator<Item = &'v Value>) -> Result<(), OdeError> {
    values
        .into_iter()
        .try_for_each(Value::check_depth)
        .map_err(OdeError::Mask)
}

/// Merge a subclass definition over its (already flattened) parent.
fn flatten_inheritance(parent: &ClassDef, child: ClassDef) -> Result<ClassDef, OdeError> {
    let mut fields = parent.fields.clone();
    fields.extend(child.fields);
    let mut methods = parent.methods.clone();
    methods.extend(child.methods); // child overrides by name
    let mut mask_fns = parent.mask_fns.clone();
    mask_fns.extend(child.mask_fns);
    let mut triggers = parent.triggers.clone();
    for t in child.triggers {
        if triggers.iter().any(|p| p.name == t.name) {
            return Err(OdeError::Method(format!(
                "class `{}` redefines inherited trigger `{}`",
                child.name, t.name
            )));
        }
        triggers.push(t);
    }
    let mut auto_activate = parent.auto_activate.clone();
    for a in child.auto_activate {
        if !auto_activate.contains(&a) {
            auto_activate.push(a);
        }
    }
    Ok(ClassDef {
        name: child.name,
        parent: child.parent,
        fields,
        methods,
        mask_fns,
        triggers,
        auto_activate,
    })
}

/// Mask environment backed by an object's fields, the class's mask
/// functions, and the transaction user. Event parameters are layered on
/// top by the alphabet's classification (positional binding).
struct EngineEnv<'a> {
    fields: &'a BTreeMap<String, Value>,
    class: &'a ClassDef,
    user: &'a Value,
}

impl MaskEnv for EngineEnv<'_> {
    fn param(&self, _name: &str) -> Option<Value> {
        None
    }
    fn field(&self, name: &str) -> Option<Value> {
        self.fields.get(name).cloned()
    }
    fn call(&self, name: &str, args: &[Value]) -> Option<Value> {
        if name == "user" && args.is_empty() {
            return Some(self.user.clone());
        }
        let f = self.class.mask_fns.get(name)?;
        f(
            &MaskFnCtx {
                fields: self.fields,
                user: self.user,
            },
            args,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Each user abort appends a line and nothing drains the log but
    /// `take_output`: past the cap the oldest lines go, never the newest.
    #[test]
    fn output_log_is_capped_and_drops_the_oldest_lines() {
        let mut db = Database::new();
        let aborts = MAX_OUTPUT_LINES + 10;
        let txns: Vec<TxnId> = (0..aborts)
            .map(|_| {
                let txn = db.begin();
                db.abort(txn).unwrap();
                txn
            })
            .collect();
        let line = |t: &TxnId| format!("{t} aborted: explicit abort");
        let out = db.output();
        assert!(out.len() <= MAX_OUTPUT_LINES, "{} lines kept", out.len());
        assert_eq!(out.last(), txns.last().map(line).as_ref());
        assert!(!out.contains(&line(&txns[0])), "the oldest line went first");
        assert_eq!(db.stats().txns_aborted, aborts as u64);
    }

    /// Regression for a latent index inconsistency: classification went
    /// by an instance's `def_index` while the fire loop indexed the
    /// class's trigger list by the instance's *store position*. With a
    /// store whose instance order differs from definition order, the
    /// wrong trigger's action ran.
    #[test]
    fn firing_goes_by_definition_index_not_store_position() {
        let mut db = Database::new();
        let class = ClassDef::builder("c")
            .update_method("a", &[])
            .update_method("b", &[])
            .trigger("TA", true, "after a", Action::Emit("A fired".into()))
            .trigger("TB", true, "after b", Action::Emit("B fired".into()))
            .activate_on_create(&["TA", "TB"])
            .build()
            .unwrap();
        db.define_class(class).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "c", &[]).unwrap();
        db.commit(txn).unwrap();

        // Adversarial store layout: instance order ≠ definition order.
        db.objects.get_mut(&obj.0).unwrap().triggers.reverse();

        let txn = db.begin();
        db.call(txn, obj, "b", &[]).unwrap();
        db.commit(txn).unwrap();
        let out = db.take_output().join("\n");
        assert!(out.contains("B fired"), "{out}");
        assert!(!out.contains("A fired"), "{out}");

        // Activation and deactivation also resolve by definition.
        let txn = db.begin();
        db.deactivate_trigger(txn, obj, "TB").unwrap();
        db.call(txn, obj, "b", &[]).unwrap();
        db.call(txn, obj, "a", &[]).unwrap();
        db.commit(txn).unwrap();
        let out = db.take_output().join("\n");
        assert!(!out.contains("B fired"), "{out}");
        assert!(out.contains("A fired"), "{out}");
    }

    /// Five triggers sharing one mask: the router memoizes the outcome,
    /// so the mask function runs exactly once per posting.
    #[test]
    fn shared_mask_evaluated_once_per_posting() {
        let calls = Arc::new(AtomicUsize::new(0));
        let probe = Arc::clone(&calls);
        let mut builder =
            ClassDef::builder("c")
                .update_method("m", &[])
                .mask_fn("probe", move |_, _| {
                    probe.fetch_add(1, Ordering::SeqCst);
                    Some(Value::Bool(true))
                });
        let names: Vec<String> = (0..5).map(|i| format!("T{i}")).collect();
        for name in &names {
            builder = builder.trigger(
                name.clone(),
                true,
                "after m && probe()",
                Action::Emit("hit".into()),
            );
        }
        let name_refs: Vec<&str> = names.iter().map(String::as_str).collect();
        let class = builder.activate_on_create(&name_refs).build().unwrap();
        let mut db = Database::new();
        db.define_class(class).unwrap();
        let txn = db.begin();
        let obj = db.create_object(txn, "c", &[]).unwrap();

        calls.store(0, Ordering::SeqCst);
        db.call(txn, obj, "m", &[]).unwrap();
        assert_eq!(
            calls.load(Ordering::SeqCst),
            1,
            "one distinct mask, one posting of `after m` — one evaluation"
        );
        db.commit(txn).unwrap();
        // All five triggers still fired on that one evaluation.
        let hits = db.output().iter().filter(|l| l.contains("hit")).count();
        assert_eq!(hits, 5);
    }

    /// An object is its fields plus one word per trigger (Section 5), and
    /// committed-history monitoring needs no history (Section 6): a
    /// thousand committed transactions that write the same value leave
    /// every object's snapshot as long as ten did — for a plain class, a
    /// class with a mask function and a class with a committed monitor.
    /// The store-wide counters (`seq`, `next_txn`) grow by design, so
    /// they are zeroed before measuring.
    #[test]
    fn object_state_stays_flat_over_committed_transactions() {
        let set_x = |b: crate::class::ClassBuilder| {
            b.field("x", 0i64)
                .method("m", MethodKind::Update, &[], |ctx| {
                    ctx.set("x", 1i64);
                    Ok(Value::Null)
                })
        };
        let mut db = Database::new();
        db.define_class(set_x(ClassDef::builder("plain")).build().unwrap())
            .unwrap();
        // Neither trigger below ever fires, so its firing count stays put.
        let masked = set_x(ClassDef::builder("masked"))
            .mask_fn("big", |ctx, _| {
                Some(Value::Bool(ctx.fields.get("x") == Some(&Value::Int(9))))
            })
            .trigger("T", true, "after m && big()", Action::Emit("big".into()))
            .full_history()
            .activate_on_create(&["T"])
            .build()
            .unwrap();
        db.define_class(masked).unwrap();
        let committed = set_x(ClassDef::builder("cm"))
            .trigger("T", true, "after m && x > 5", Action::Emit("cm".into()))
            .activate_on_create(&["T"])
            .build()
            .unwrap();
        db.define_class(committed).unwrap();

        let txn = db.begin();
        let objs: Vec<ObjectId> = ["plain", "masked", "cm"]
            .iter()
            .map(|c| db.create_object(txn, c, &[]).unwrap())
            .collect();
        db.commit(txn).unwrap();
        let snapshot_len = |db: &Database| {
            let mut snap = db.snapshot().unwrap();
            snap.seq = 0;
            snap.next_txn = 0;
            snap.to_json().unwrap().len()
        };
        let mut after_tenth = 0;
        for i in 1..=1000 {
            db.in_txn(|db, txn| {
                for &obj in &objs {
                    db.call(txn, obj, "m", &[])?;
                }
                Ok(())
            })
            .unwrap();
            if i == 10 {
                after_tenth = snapshot_len(&db);
            }
        }
        assert_eq!(snapshot_len(&db), after_tenth);
        assert!(db.output().is_empty(), "{:?}", db.output());
    }
}
