//! Sharded engine coordinator: hash-partitioned objects, per-shard
//! engine locks, and an ordered two-phase commit for cross-shard
//! transactions.
//!
//! The paper's per-object event detection (Sections 3–4) is naturally
//! partitionable: an object's trigger automata consume only events
//! posted *to that object*, so two transactions over disjoint objects
//! never need to observe each other. [`ShardedDatabase`] exploits that
//! by running `N` independent [`Database`] engines, each behind its own
//! mutex — a single-shard transaction (the common case) runs fully
//! parallel end-to-end: detection, logging, fsync, and ack never touch
//! another shard.
//!
//! # Partitioning
//!
//! Objects are assigned to shards by id arithmetic: a *global* object
//! id `g` lives on shard `(g - 1) % N` and maps to *local* id
//! `(g - 1) / N + 1` inside that shard's engine. The mapping is a pure
//! function of the id — stable across runs and restarts, which recovery
//! and replication both depend on: each shard's WAL replay regenerates
//! exactly the local ids that produced those globals. With `N = 1` the
//! mapping is the identity, so an unsharded deployment is bit-for-bit
//! the old single-engine behavior. New objects are placed round-robin.
//!
//! # Cross-shard commit (ordered 2PC)
//!
//! A global transaction lazily opens one *branch* (a plain engine
//! transaction) per shard it touches. Commit with a single participant
//! is a plain engine commit. With several, the coordinator:
//!
//! 1. acquires every participant's engine lock **in ascending shard
//!    order** (the deadlock-freedom rule),
//! 2. *prepares* each branch — [`Database::prepare`] runs the `before
//!    tcomplete` fixpoint, the only fallible part of a commit; any
//!    failure aborts every branch and nothing commits,
//! 3. assigns a global commit sequence (`gtxn`) **while holding all
//!    participant locks** — so two cross-shard commits that share a
//!    shard carry `gtxn`s in that shard's log order — and stamps one
//!    [`crate::oplog::LogOp::Commit2pc`] record, naming every
//!    participant, into each shard's stream via the per-shard log sink.
//!
//! A commit is acknowledged only once every participating shard's
//! record is durable (the *merged watermark*: the max over the
//! participants' per-shard durable LSNs must cover the transaction).
//! Recovery treats a `Commit2pc` as effective only when **all**
//! participants have it ([`reconcile_cross_shard`]), so an acked
//! cross-shard transaction is all-or-nothing even when individual shard
//! WALs crashed mid-batch.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use ode_core::Value;

use crate::class::ClassDef;
use crate::durability::{
    ArchiveStats, DiskWal, Recovery, SharedIo, WalConfig, WalError, WalFlusher,
};
use crate::engine::Database;
use crate::error::OdeError;
use crate::ids::{ClassId, ObjectId, TxnId};
use crate::oplog::LogOp;
use crate::replication::{Applier, ApplyError};
use crate::shared::SharedDatabase;
use crate::spec::{define_specs, ClassSpec};

// ------------------------------------------------------------ id mapping

/// Which shard a global object id lives on. Pure and total for
/// `obj.0 >= 1` — the same id maps to the same shard on every run,
/// every restart, and every replica.
pub fn shard_of(obj: ObjectId, shards: usize) -> usize {
    debug_assert!(shards > 0);
    debug_assert!(obj.0 >= 1, "object ids start at 1");
    ((obj.0 - 1) % shards as u64) as usize
}

/// The shard-local id a global object id decodes to.
pub fn to_local(obj: ObjectId, shards: usize) -> ObjectId {
    ObjectId((obj.0 - 1) / shards as u64 + 1)
}

/// The global id a shard-local object id encodes to. Inverse of
/// [`to_local`] + [`shard_of`]; with `shards == 1` it is the identity.
pub fn to_global(local: ObjectId, shard: usize, shards: usize) -> ObjectId {
    debug_assert!(shard < shards);
    ObjectId((local.0 - 1) * shards as u64 + shard as u64 + 1)
}

// ------------------------------------------------------------ coordinator

/// One global transaction's per-shard branches.
struct GlobalTxn {
    user: Value,
    /// `parts[s]` is the branch transaction open on shard `s`, if any.
    parts: Vec<Option<TxnId>>,
}

#[derive(Default)]
struct ShardCounters {
    commits: AtomicU64,
    lock_wait_ns: AtomicU64,
}

/// A snapshot of the coordinator's contention counters.
#[derive(Clone, Debug, Default)]
pub struct ShardStats {
    /// Branch commits applied per shard (a cross-shard commit counts
    /// once on every participant).
    pub commits: Vec<u64>,
    /// Cumulative time threads spent waiting for shard engine locks,
    /// per shard, in nanoseconds.
    pub lock_wait_ns: Vec<u64>,
}

impl ShardStats {
    /// Total engine-lock wait across all shards, nanoseconds.
    pub fn total_lock_wait_ns(&self) -> u64 {
        self.lock_wait_ns.iter().sum()
    }
}

/// Stripe count for the open-transaction map. Every data-plane call
/// consults the map, so a single mutex would re-serialize the very
/// threads the per-shard engine locks set free; striping by handle id
/// lets concurrent sessions (distinct handles) proceed without touching
/// the same lock.
const OPEN_STRIPES: usize = 16;

/// Lock-conflict retries [`ShardedDatabase::run_txn`] makes before it
/// returns the conflict.
const MAX_RETRIES: u32 = 64;

struct Coord {
    next_handle: AtomicU64,
    /// Global commit sequence for cross-shard commits; assigned while
    /// holding every participant's engine lock, so values appear in
    /// each shard's log in increasing order.
    next_gtxn: AtomicU64,
    /// Round-robin placement cursor for new objects.
    place: AtomicU64,
    /// Open global transactions, striped by handle id.
    open: Vec<Mutex<HashMap<u64, GlobalTxn>>>,
    counters: Vec<ShardCounters>,
}

/// A cloneable handle over `N` independently locked engines. See the
/// module docs for the partitioning and commit protocol.
#[derive(Clone)]
pub struct ShardedDatabase {
    shards: Arc<Vec<SharedDatabase>>,
    coord: Arc<Coord>,
}

impl ShardedDatabase {
    /// `n` fresh engines.
    pub fn new(n: usize) -> Self {
        Self::from_engines((0..n).map(|_| Database::new()).collect())
    }

    /// Wrap recovered engines (one per shard). The global commit
    /// sequence resumes above the highest [`Database::gtxn_floor`] any
    /// shard has applied, so recovered ids are never reused.
    pub fn from_engines(engines: Vec<Database>) -> Self {
        Self::from_shared(engines.into_iter().map(SharedDatabase::new).collect())
    }

    /// Wrap existing shareable engine handles (one per shard) — for
    /// callers (the network server) whose sessions already hold clones
    /// of the same handles. The global commit sequence resumes above
    /// the highest [`Database::gtxn_floor`] any shard has applied.
    pub fn from_shared(shards: Vec<SharedDatabase>) -> Self {
        assert!(!shards.is_empty(), "at least one shard");
        let floor = shards
            .iter()
            .map(|s| s.with(|db| db.gtxn_floor()))
            .max()
            .unwrap_or(0);
        let n = shards.len();
        ShardedDatabase {
            shards: Arc::new(shards),
            coord: Arc::new(Coord {
                next_handle: AtomicU64::new(1),
                next_gtxn: AtomicU64::new(floor + 1),
                place: AtomicU64::new(0),
                open: (0..OPEN_STRIPES)
                    .map(|_| Mutex::new(HashMap::new()))
                    .collect(),
                counters: (0..n).map(|_| ShardCounters::default()).collect(),
            }),
        }
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The per-shard engine handles (for sink installation and direct
    /// shard-local inspection).
    pub fn shards(&self) -> &[SharedDatabase] {
        &self.shards
    }

    /// One shard's engine handle.
    pub fn shard(&self, s: usize) -> &SharedDatabase {
        &self.shards[s]
    }

    /// Lock every shard's engine, in shard order — the same order the
    /// two-phase commit takes its guards, so whole-database operations
    /// (consistent snapshot, checkpoint, schema change) cannot deadlock
    /// against it. Guard `i` is shard `i`.
    pub fn lock_all(&self) -> Vec<MutexGuard<'_, Database>> {
        self.shards.iter().map(SharedDatabase::lock).collect()
    }

    /// Which shard a global object id lives on.
    pub fn shard_of(&self, obj: ObjectId) -> usize {
        shard_of(obj, self.shards.len())
    }

    /// Contention counters: per-shard commit counts and cumulative
    /// engine-lock wait.
    pub fn stats(&self) -> ShardStats {
        ShardStats {
            commits: self
                .coord
                .counters
                .iter()
                .map(|c| c.commits.load(Ordering::Relaxed))
                .collect(),
            lock_wait_ns: self
                .coord
                .counters
                .iter()
                .map(|c| c.lock_wait_ns.load(Ordering::Relaxed))
                .collect(),
        }
    }

    fn open_map(&self, g: u64) -> MutexGuard<'_, HashMap<u64, GlobalTxn>> {
        self.coord.open[(g % OPEN_STRIPES as u64) as usize].lock()
    }

    fn lock_shard(&self, s: usize) -> MutexGuard<'_, Database> {
        let (guard, waited) = self.shards[s].lock_timed();
        self.coord.counters[s]
            .lock_wait_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
        guard
    }

    // ------------------------------------------------------ broadcast ops

    /// Define a class on every shard (schema is replicated; data is
    /// partitioned). Returns the class id, identical on every shard.
    pub fn define_class(&self, def: &ClassDef) -> Result<ClassId, OdeError> {
        let mut id = None;
        for s in 0..self.shards.len() {
            let got = self.lock_shard(s).define_class(def.clone())?;
            let prev = *id.get_or_insert(got);
            debug_assert_eq!(prev, got, "shards define classes in lockstep");
        }
        id.ok_or_else(|| OdeError::Method("no shards".into()))
    }

    /// Advance every shard's virtual clock to `to` (clocks tick in
    /// lockstep; timer firings stay shard-local).
    pub fn advance_clock_to(&self, to: u64) {
        for s in 0..self.shards.len() {
            self.lock_shard(s).advance_clock_to(to);
        }
    }

    /// Advance every shard's virtual clock by `ms`. The shards started
    /// at the same origin and tick in lockstep, so a relative advance
    /// keeps them aligned.
    pub fn advance_clock_by(&self, ms: u64) {
        for s in 0..self.shards.len() {
            self.lock_shard(s).advance_clock_by(ms);
        }
    }

    /// Drain every shard's output log, in shard order.
    pub fn take_output(&self) -> Vec<String> {
        let mut out = Vec::new();
        for s in 0..self.shards.len() {
            out.extend(self.lock_shard(s).take_output());
        }
        out
    }

    // --------------------------------------------------- txn lifecycle

    /// Begin a global transaction as `user`; branches open lazily on
    /// first touch of a shard. The returned id is a coordinator handle,
    /// not any engine's transaction id.
    pub fn begin(&self, user: impl Into<Value>) -> TxnId {
        let id = self.coord.next_handle.fetch_add(1, Ordering::Relaxed);
        self.open_map(id).insert(
            id,
            GlobalTxn {
                user: user.into(),
                parts: vec![None; self.shards.len()],
            },
        );
        TxnId(id)
    }

    /// Is the global transaction still open?
    pub fn txn_open(&self, g: TxnId) -> bool {
        self.open_map(g.0).contains_key(&g.0)
    }

    /// The branch transaction open for `g` on shard `s`, if any.
    pub fn branch_of(&self, g: TxnId, s: usize) -> Option<TxnId> {
        self.open_map(g.0).get(&g.0).and_then(|gt| gt.parts[s])
    }

    /// The global transaction whose branch on shard `s` is `branch`, if
    /// any. The coordinator maps are leaf locks, so this is safe with
    /// engine locks held.
    pub fn global_of(&self, s: usize, branch: TxnId) -> Option<TxnId> {
        self.coord.open.iter().find_map(|stripe| {
            let open = stripe.lock();
            let found = open.iter().find(|(_, gt)| gt.parts[s] == Some(branch));
            found.map(|(&g, _)| TxnId(g))
        })
    }

    /// The branch for `g` on shard `s`, opening one (and logging its
    /// `Begin` to that shard's stream) if this is the first touch.
    fn branch(&self, g: TxnId, s: usize) -> Result<TxnId, OdeError> {
        let user = {
            let open = self.open_map(g.0);
            let gt = open.get(&g.0).ok_or(OdeError::UnknownTxn(g))?;
            if let Some(t) = gt.parts[s] {
                return Ok(t);
            }
            gt.user.clone()
        };
        // Begin on the shard without holding the coordinator map (the
        // map is never held across an engine lock).
        let t = self.lock_shard(s).begin_as(user);
        let mut open = self.open_map(g.0);
        match open.get_mut(&g.0) {
            Some(gt) => match gt.parts[s] {
                // Raced with another thread of the same session: keep
                // theirs, discard ours.
                Some(existing) => {
                    drop(open);
                    let _ = self.lock_shard(s).abort(t);
                    Ok(existing)
                }
                None => {
                    gt.parts[s] = Some(t);
                    Ok(t)
                }
            },
            // The global transaction vanished while we began: roll the
            // stray branch back.
            None => {
                drop(open);
                let _ = self.lock_shard(s).abort(t);
                Err(OdeError::UnknownTxn(g))
            }
        }
    }

    /// Abort the global transaction: every branch rolls back.
    pub fn abort(&self, g: TxnId) -> Result<(), OdeError> {
        let gt = self
            .open_map(g.0)
            .remove(&g.0)
            .ok_or(OdeError::UnknownTxn(g))?;
        let mut result = Ok(());
        for (s, t) in gt.parts.iter().enumerate() {
            if let Some(t) = t {
                if let Err(e) = self.lock_shard(s).abort(*t) {
                    result = Err(e);
                }
            }
        }
        result
    }

    /// Commit the global transaction and return the participating shard
    /// indices (empty for a read-nothing transaction). Single-shard
    /// transactions commit exactly as an unsharded engine would;
    /// cross-shard transactions run the ordered two-phase protocol from
    /// the module docs. On `Err` every branch has aborted.
    ///
    /// Durability is the caller's contract: ack only after every
    /// returned shard's WAL watermark covers the commit record its log
    /// sink captured (the merged watermark).
    pub fn commit(&self, g: TxnId) -> Result<Vec<usize>, OdeError> {
        let gt = self
            .open_map(g.0)
            .remove(&g.0)
            .ok_or(OdeError::UnknownTxn(g))?;
        // Ascending shard order by construction.
        let parts: Vec<(usize, TxnId)> = gt
            .parts
            .iter()
            .enumerate()
            .filter_map(|(s, t)| t.map(|t| (s, t)))
            .collect();
        match parts.len() {
            0 => Ok(Vec::new()),
            1 => {
                let (s, t) = parts[0];
                self.lock_shard(s).commit(t)?;
                self.coord.counters[s]
                    .commits
                    .fetch_add(1, Ordering::Relaxed);
                Ok(vec![s])
            }
            _ => self.commit_cross(&parts),
        }
    }

    /// The ordered two-phase commit over `parts` (ascending shard
    /// order, len >= 2).
    fn commit_cross(&self, parts: &[(usize, TxnId)]) -> Result<Vec<usize>, OdeError> {
        // Acquire every participant's engine lock in index order — the
        // global ordering rule that makes cross-shard commits
        // deadlock-free against each other.
        let mut guards: Vec<MutexGuard<'_, Database>> = Vec::with_capacity(parts.len());
        for &(s, _) in parts {
            guards.push(self.lock_shard(s));
        }

        // Phase 1: prepare every branch. All the fallible trigger work
        // (the tcomplete fixpoint, trigger-requested aborts) happens
        // here, before anything is decided.
        for (k, &(_, t)) in parts.iter().enumerate() {
            if let Err(e) = guards[k].prepare(t) {
                // Branch k aborted itself inside prepare; roll back the
                // rest so the global transaction is atomic in failure.
                for (j, &(_, t2)) in parts.iter().enumerate() {
                    if j != k {
                        let _ = guards[j].abort(t2);
                    }
                }
                return Err(e);
            }
        }

        // Phase 2: decided. Assign the commit sequence while holding
        // every participant lock (per-shard log order == gtxn order),
        // stamp one Commit2pc per shard, release.
        let gtxn = self.coord.next_gtxn.fetch_add(1, Ordering::Relaxed);
        let part_ids: Vec<u64> = parts.iter().map(|&(s, _)| s as u64).collect();
        for (k, &(s, t)) in parts.iter().enumerate() {
            guards[k]
                .commit_sharded(t, gtxn, &part_ids)
                .expect("a prepared branch commit cannot fail");
            self.coord.counters[s]
                .commits
                .fetch_add(1, Ordering::Relaxed);
        }
        Ok(parts.iter().map(|&(s, _)| s).collect())
    }

    /// Abort every open user transaction on every shard — the branches
    /// a crash-recovered log left holding locks. Returns how many were
    /// aborted. Call with log sinks installed so the aborts are logged
    /// (keeping replicas and the next recovery consistent).
    pub fn abort_orphans(&self) -> usize {
        let mut aborted = 0;
        for s in 0..self.shards.len() {
            let mut db = self.lock_shard(s);
            for t in db.open_user_txns() {
                if db.abort(t).is_ok() {
                    aborted += 1;
                }
            }
        }
        aborted
    }

    // ------------------------------------------------------- data plane

    /// Run an engine op on `g`'s branch on shard `s`. If the op fails
    /// *and* the engine finalized the branch while failing (a
    /// trigger-requested abort), the whole global transaction is
    /// doomed: roll back every surviving branch and retire the handle —
    /// mirroring the single-engine behavior where a trigger abort
    /// finalizes the transaction then and there.
    fn on_branch<T>(
        &self,
        g: TxnId,
        s: usize,
        f: impl FnOnce(&mut Database, TxnId) -> Result<T, OdeError>,
    ) -> Result<T, OdeError> {
        let t = self.branch(g, s)?;
        let (r, branch_dead) = {
            let mut db = self.lock_shard(s);
            let r = f(&mut db, t);
            let dead = r.is_err() && !db.txn_open(t);
            (r, dead)
        };
        if branch_dead {
            self.finalize_doomed(g, s);
        }
        r
    }

    /// Shard `dead_shard`'s engine already finalized its branch of `g`;
    /// abort the others and forget the coordinator handle.
    fn finalize_doomed(&self, g: TxnId, dead_shard: usize) {
        let Some(gt) = self.open_map(g.0).remove(&g.0) else {
            return;
        };
        for (s, t) in gt.parts.iter().enumerate() {
            if s == dead_shard {
                continue;
            }
            if let Some(t) = t {
                let _ = self.lock_shard(s).abort(*t);
            }
        }
    }

    /// Create an object (round-robin shard placement) and return its
    /// global id.
    pub fn create_object(
        &self,
        g: TxnId,
        class: &str,
        overrides: &[(&str, Value)],
    ) -> Result<ObjectId, OdeError> {
        let n = self.shards.len() as u64;
        let s = (self.coord.place.fetch_add(1, Ordering::Relaxed) % n) as usize;
        self.create_object_on(g, s, class, overrides)
    }

    /// Create an object on an explicit shard (benchmarks and tests that
    /// need controlled placement).
    pub fn create_object_on(
        &self,
        g: TxnId,
        s: usize,
        class: &str,
        overrides: &[(&str, Value)],
    ) -> Result<ObjectId, OdeError> {
        let local = self.on_branch(g, s, |db, t| db.create_object(t, class, overrides))?;
        Ok(to_global(local, s, self.shards.len()))
    }

    /// Delete an object by global id.
    pub fn delete_object(&self, g: TxnId, obj: ObjectId) -> Result<(), OdeError> {
        let (s, local) = self.route(obj);
        self.on_branch(g, s, |db, t| db.delete_object(t, local))
    }

    /// Call a method on an object by global id.
    pub fn call(
        &self,
        g: TxnId,
        obj: ObjectId,
        method: &str,
        args: &[Value],
    ) -> Result<Value, OdeError> {
        let (s, local) = self.route(obj);
        self.on_branch(g, s, |db, t| db.call(t, local, method, args))
    }

    /// Activate a trigger on an object by global id.
    pub fn activate_trigger(
        &self,
        g: TxnId,
        obj: ObjectId,
        trigger: &str,
        params: &[Value],
    ) -> Result<(), OdeError> {
        let (s, local) = self.route(obj);
        self.on_branch(g, s, |db, t| db.activate_trigger(t, local, trigger, params))
    }

    /// Activate a trigger retroactively: replay `events` (the object's
    /// indexed event history) through the trigger's automaton before
    /// installing it, so occurrences that happened before activation
    /// fire now. Routes to the owning shard like
    /// [`ShardedDatabase::activate_trigger`].
    pub fn activate_trigger_retro(
        &self,
        g: TxnId,
        obj: ObjectId,
        trigger: &str,
        params: &[Value],
        events: &[(u64, ode_core::BasicEvent, Vec<Value>)],
    ) -> Result<crate::histstore::RetroReplay, OdeError> {
        let (s, local) = self.route(obj);
        self.on_branch(g, s, |db, t| {
            db.activate_trigger_retro(t, local, trigger, params, events)
        })
    }

    /// Deactivate a trigger on an object by global id.
    pub fn deactivate_trigger(
        &self,
        g: TxnId,
        obj: ObjectId,
        trigger: &str,
    ) -> Result<(), OdeError> {
        let (s, local) = self.route(obj);
        self.on_branch(g, s, |db, t| db.deactivate_trigger(t, local, trigger))
    }

    /// Run `f` on the engine that owns `obj`, handing it the
    /// shard-local id. For reads and inspection — the closure runs
    /// under that single shard's lock only.
    pub fn with_obj<T>(&self, obj: ObjectId, f: impl FnOnce(&mut Database, ObjectId) -> T) -> T {
        let (s, local) = self.route(obj);
        f(&mut self.lock_shard(s), local)
    }

    /// Run `f` on shard `s`'s engine.
    pub fn with_shard<T>(&self, s: usize, f: impl FnOnce(&mut Database) -> T) -> T {
        f(&mut self.lock_shard(s))
    }

    fn route(&self, obj: ObjectId) -> (usize, ObjectId) {
        let n = self.shards.len();
        (shard_of(obj, n), to_local(obj, n))
    }

    /// Execute `f` inside a global transaction as `user`: commit on
    /// `Ok`, abort on `Err` (unless a trigger already finalized the
    /// abort), retry on [`OdeError::LockConflict`] with all engine locks
    /// released in between — the standard discipline for lock-based
    /// transaction processing. A retry first yields; after a few it
    /// sleeps (capped exponential backoff), because the lock holder is
    /// then most likely off-CPU, and yielding alone can spend the whole
    /// budget before it runs again. Returns the closure's value plus the
    /// participating shards of the final (committed) attempt.
    pub fn run_txn<T>(
        &self,
        user: impl Into<Value>,
        mut f: impl FnMut(&ShardedDatabase, TxnId) -> Result<T, OdeError>,
    ) -> Result<(T, Vec<usize>), OdeError> {
        let user = user.into();
        let mut attempts = 0;
        loop {
            let g = self.begin(user.clone());
            let result = match f(self, g) {
                Ok(v) => self.commit(g).map(|parts| (v, parts)),
                Err(e) => {
                    if self.txn_open(g) {
                        let _ = self.abort(g);
                    }
                    Err(e)
                }
            };
            match result {
                Err(OdeError::LockConflict { .. }) if attempts < MAX_RETRIES => {
                    attempts += 1;
                    if attempts < 4 {
                        std::thread::yield_now();
                    } else {
                        let us = 1u64 << attempts.min(10);
                        std::thread::sleep(std::time::Duration::from_micros(us));
                    }
                }
                other => return other,
            }
        }
    }
}

// --------------------------------------------------------- sharded WAL

/// Name of the shard-count marker a multi-shard WAL root carries.
pub const SHARDS_META: &str = "shards.meta";

/// The directory one shard's [`DiskWal`] lives in. A single-shard
/// root *is* the WAL directory — the pre-sharding on-disk layout —
/// so existing deployments reopen unchanged.
pub fn shard_dir(root: &Path, s: usize, shards: usize) -> PathBuf {
    if shards == 1 {
        root.to_path_buf()
    } else {
        root.join(format!("shard-{s:03}"))
    }
}

/// One [`DiskWal`] per shard under a common root. `N = 1` is the
/// legacy flat layout; `N > 1` keeps each stream in `shard-NNN/`
/// plus a `shards.meta` marker, validated on reopen — a directory
/// written with one shard count never silently reopens with
/// another (the id arithmetic would scramble every object).
#[derive(Clone)]
pub struct ShardedWal {
    wals: Vec<DiskWal>,
}

/// What [`recover_sharded`] reconstructed.
pub struct ShardedRecovery {
    /// Per-shard recoveries, after cross-shard reconciliation.
    pub shards: Vec<Recovery>,
    /// What the reconciliation pass decided.
    pub report: ReconcileReport,
}

/// What [`reconcile_cross_shard`] decided.
#[derive(Clone, Debug, Default)]
pub struct ReconcileReport {
    /// `(shard, gtxn)` of every `Commit2pc` demoted to an abort
    /// because a participant's log lacked the matching record.
    pub demoted: Vec<(usize, u64)>,
    /// Highest cross-shard commit sequence seen anywhere (logs or
    /// snapshot floors).
    pub max_gtxn: u64,
}

impl ShardedWal {
    /// Open (or create) one WAL stream per entry of `ios` under
    /// `root` and recover each on its own thread. `ios[s]` serves
    /// shard `s` (`ios[0]` also maintains the root marker): a
    /// [`SharedIo`] is a mutex around a single io, so clones of one
    /// handle serialize every shard's fsyncs behind it, while
    /// independent handles let the flushers hit the disk in
    /// parallel.
    ///
    /// `reconcile` runs the cross-shard pass
    /// ([`reconcile_cross_shard`]) over the recovered tails. A
    /// primary needs it; a replica must skip it: every record in a
    /// replica's local log was shipped by a primary that had
    /// already decided commit, so demoting a `Commit2pc` whose
    /// sibling hasn't arrived yet would fork the replica's history
    /// from the primary's.
    pub fn open(
        root: &Path,
        cfg: WalConfig,
        ios: Vec<SharedIo>,
        reconcile: bool,
    ) -> Result<(ShardedWal, ShardedRecovery), WalError> {
        let shards = ios.len();
        assert!(shards > 0, "at least one shard");
        ios[0].with(|f| f.create_dir_all(root))?;
        Self::check_meta(root, shards, &ios[0])?;

        // Shard streams already recover on parallel threads; split
        // the decode-pool budget between them so S shards opening
        // at once don't oversubscribe the machine S × 8 ways.
        let per_shard_threads = (DiskWal::default_recovery_threads() / shards).max(1);
        let mut opened: Vec<Option<Result<(DiskWal, Recovery), WalError>>> =
            (0..shards).map(|_| None).collect();
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for (s, io) in ios.into_iter().enumerate() {
                let dir = shard_dir(root, s, shards);
                handles.push(
                    scope.spawn(move || {
                        DiskWal::open_with_threads(&dir, cfg, io, per_shard_threads)
                    }),
                );
            }
            for (s, h) in handles.into_iter().enumerate() {
                opened[s] = Some(h.join().expect("shard recovery thread panicked"));
            }
        });
        let mut wals = Vec::with_capacity(shards);
        let mut recoveries = Vec::with_capacity(shards);
        for r in opened {
            let (wal, rec) = r.expect("filled above")?;
            wals.push(wal);
            recoveries.push(rec);
        }
        let report = if reconcile {
            reconcile_cross_shard(&mut recoveries)
        } else {
            ReconcileReport::default()
        };
        Ok((
            ShardedWal { wals },
            ShardedRecovery {
                shards: recoveries,
                report,
            },
        ))
    }

    fn check_meta(root: &Path, shards: usize, io: &SharedIo) -> Result<(), WalError> {
        let meta = root.join(SHARDS_META);
        match io.with(|f| f.read(&meta)) {
            Ok(bytes) => {
                let text = String::from_utf8_lossy(&bytes);
                let found: usize = text.trim().parse().map_err(|_| {
                    WalError::Corrupt(format!("unreadable {SHARDS_META}: {text:?}"))
                })?;
                if found != shards {
                    return Err(WalError::Corrupt(format!(
                        "wal root was written with {found} shard(s), reopened with {shards}"
                    )));
                }
                Ok(())
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                if shards == 1 {
                    return Ok(()); // legacy flat layout, no marker
                }
                // Refuse to shard a directory that already holds an
                // unsharded stream.
                let existing = io.with(|f| f.list(root)).unwrap_or_default();
                if existing.iter().any(|n| n.ends_with(".wal")) {
                    return Err(WalError::Corrupt(
                        "wal root holds an unsharded stream; cannot reopen with shards > 1".into(),
                    ));
                }
                io.with(|f| {
                    f.append(&meta, format!("{shards}\n").as_bytes())?;
                    f.fsync(&meta)?;
                    f.fsync_dir(root)
                })?;
                Ok(())
            }
            Err(e) => Err(e.into()),
        }
    }

    /// Number of shard streams.
    pub fn shard_count(&self) -> usize {
        self.wals.len()
    }

    /// One shard's WAL.
    pub fn wal(&self, s: usize) -> &DiskWal {
        &self.wals[s]
    }

    /// All shard WALs.
    pub fn wals(&self) -> &[DiskWal] {
        &self.wals
    }

    /// Start one flusher thread per shard.
    pub fn start_flushers(&self) -> Vec<WalFlusher> {
        self.wals.iter().map(|w| w.start_flusher()).collect()
    }

    /// Retirement progress summed across shards.
    pub fn archive_stats(&self) -> ArchiveStats {
        let mut total = ArchiveStats::default();
        for w in &self.wals {
            let s = w.archive_stats();
            total.segments_archived += s.segments_archived;
            total.bytes_archived += s.bytes_archived;
            total.lag_segments += s.lag_segments;
        }
        total
    }

    /// Block until every `(shard, lsn)` ack is covered by that
    /// shard's durable watermark — the merged-watermark ack rule: a
    /// cross-shard transaction is acknowledged only when the max
    /// over its participants' watermarks covers it.
    pub fn wait_durable(&self, acks: &[(usize, u64)]) -> Result<(), WalError> {
        for &(s, lsn) in acks {
            self.wals[s].wait_durable(lsn)?;
        }
        Ok(())
    }

    /// Flush every shard stream to disk.
    pub fn sync_all(&self) -> Result<(), WalError> {
        for w in &self.wals {
            w.sync()?;
        }
        Ok(())
    }

    /// The first poisoned shard stream's failure message, if any —
    /// one bad stream makes the whole sharded log unreliable.
    pub fn poisoned(&self) -> Option<String> {
        self.wals.iter().find_map(|w| w.poisoned())
    }
}

/// Enforce all-or-nothing across shard WALs: a `Commit2pc` record
/// is *effective* only if every participant shard either still has
/// the matching record in its recovered tail or has absorbed it
/// into a checkpoint (its snapshot's `gtxn_floor` covers the
/// sequence). Non-effective records — some participant crashed
/// before its copy was durable, so the transaction was never
/// acknowledged — are demoted to aborts in place, before replay.
///
/// The demotion is a pure function of the recovered logs, so
/// repeated crash/recover cycles reach the same verdict every time
/// (presumed abort).
pub fn reconcile_cross_shard(recoveries: &mut [Recovery]) -> ReconcileReport {
    let n = recoveries.len();
    let floors: Vec<u64> = recoveries
        .iter()
        .map(|r| r.snapshot.as_ref().map(|s| s.gtxn_floor).unwrap_or(0))
        .collect();
    let mut present: Vec<HashSet<u64>> = vec![HashSet::new(); n];
    let mut max_gtxn = floors.iter().copied().max().unwrap_or(0);
    for (s, r) in recoveries.iter().enumerate() {
        for op in &r.ops {
            if let LogOp::Commit2pc { gtxn, .. } = op {
                present[s].insert(*gtxn);
                max_gtxn = max_gtxn.max(*gtxn);
            }
        }
    }
    let mut report = ReconcileReport {
        demoted: Vec::new(),
        max_gtxn,
    };
    for (s, r) in recoveries.iter_mut().enumerate() {
        for op in r.ops.iter_mut() {
            let LogOp::Commit2pc { txn, gtxn, parts } = op else {
                continue;
            };
            let effective = parts.iter().all(|&p| {
                let p = p as usize;
                p == s || (p < n && (present[p].contains(gtxn) || *gtxn <= floors[p]))
            });
            if !effective {
                report.demoted.push((s, *gtxn));
                *op = LogOp::Abort { txn: *txn };
            }
        }
    }
    report
}

/// Bring one shard engine up from its WAL directory's schema and its
/// [`Recovery`]: define `specs` (a [`crate::durability::SchemaLog`]'s,
/// in order), restore and replay through [`Applier::bootstrap`]
/// (`observe` sees each replayed op's LSN), and drain the firing lines
/// the replay regenerated so they are not served as fresh output. A
/// server's start (primary and replica) and its one-shot point-in-time
/// restore come up through this.
pub fn recover_shard(
    db: &mut Database,
    specs: &[ClassSpec],
    rec: &Recovery,
    observe: impl FnMut(u64),
) -> Result<Applier, ApplyError> {
    define_specs(db, specs)?;
    let applier = Applier::bootstrap(db, rec, observe)?;
    db.take_output();
    Ok(applier)
}

/// Open + recover a full sharded deployment in one call: open every
/// shard stream ([`ShardedWal::open`] over clones of `io`,
/// reconciled), then build one
/// engine per shard — `schema` defines classes into each fresh
/// engine, recovery restores and replays — again on parallel
/// threads, and wrap them in a [`ShardedDatabase`]. Log sinks are
/// *not* installed; the caller wires each shard's sink after
/// recovery (else replayed ops would re-append).
pub fn recover_sharded(
    root: &Path,
    shards: usize,
    cfg: WalConfig,
    io: SharedIo,
    schema: impl Fn(&mut Database) -> Result<(), OdeError> + Sync,
) -> Result<(ShardedWal, ShardedDatabase, ReconcileReport), WalError> {
    let (wal, recovery) = ShardedWal::open(root, cfg, vec![io; shards], true)?;
    let schema = &schema;
    let mut engines: Vec<Option<Result<Database, WalError>>> = (0..shards).map(|_| None).collect();
    std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for rec in &recovery.shards {
            handles.push(scope.spawn(move || {
                let mut db = Database::new();
                schema(&mut db)?;
                rec.restore_into(&mut db)?;
                db.take_output();
                Ok(db)
            }));
        }
        for (s, h) in handles.into_iter().enumerate() {
            engines[s] = Some(h.join().expect("shard replay thread panicked"));
        }
    });
    let mut built = Vec::with_capacity(shards);
    for e in engines {
        built.push(e.expect("filled above")?);
    }
    Ok((wal, ShardedDatabase::from_engines(built), recovery.report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::demo;
    use crate::error::AbortReason;

    #[test]
    fn id_mapping_round_trips_and_is_stable() {
        for shards in [1usize, 2, 3, 8, 16] {
            for g in 1..=256u64 {
                let gid = ObjectId(g);
                let s = shard_of(gid, shards);
                assert!(s < shards);
                let l = to_local(gid, shards);
                assert_eq!(to_global(l, s, shards), gid, "round trip {g} @ {shards}");
            }
            // locals are dense per shard
            for s in 0..shards {
                for l in 1..=32u64 {
                    let g = to_global(ObjectId(l), s, shards);
                    assert_eq!(shard_of(g, shards), s);
                    assert_eq!(to_local(g, shards), ObjectId(l));
                }
            }
        }
    }

    #[test]
    fn single_shard_mapping_is_identity() {
        for g in 1..=64u64 {
            assert_eq!(shard_of(ObjectId(g), 1), 0);
            assert_eq!(to_local(ObjectId(g), 1), ObjectId(g));
            assert_eq!(to_global(ObjectId(g), 0, 1), ObjectId(g));
        }
    }

    #[test]
    fn cross_shard_txn_commits_atomically() {
        let db = ShardedDatabase::new(4);
        db.define_class(&demo::stockroom_class()).unwrap();
        let (rooms, parts) = db
            .run_txn("admin", |db, g| {
                let a = db.create_object_on(g, 0, "stockRoom", &[])?;
                let b = db.create_object_on(g, 3, "stockRoom", &[])?;
                Ok((a, b))
            })
            .unwrap();
        assert_eq!(parts, vec![0, 3]);
        assert_eq!(db.shard_of(rooms.0), 0);
        assert_eq!(db.shard_of(rooms.1), 3);

        // A withdrawal touching both rooms commits on both shards.
        let ((), parts) = db
            .run_txn("alice", |db, g| {
                db.call(
                    g,
                    rooms.0,
                    "withdraw",
                    &[Value::Str("bolt".into()), Value::Int(5)],
                )?;
                db.call(
                    g,
                    rooms.1,
                    "withdraw",
                    &[Value::Str("bolt".into()), Value::Int(7)],
                )?;
                Ok(())
            })
            .unwrap();
        assert_eq!(parts, vec![0, 3]);
        let bolts_a = db.with_obj(rooms.0, |d, o| d.peek_field(o, "items").unwrap());
        let bolts_b = db.with_obj(rooms.1, |d, o| d.peek_field(o, "items").unwrap());
        assert_eq!(bolts_a.member("bolt").unwrap().as_int(), Some(495));
        assert_eq!(bolts_b.member("bolt").unwrap().as_int(), Some(493));

        let stats = db.stats();
        assert_eq!(stats.commits[0], 2);
        assert_eq!(stats.commits[3], 2);
        assert_eq!(stats.commits[1] + stats.commits[2], 0);
    }

    /// A class whose trigger vetoes at the `before tcomplete` fixpoint —
    /// the fallible phase that a cross-shard commit runs in *prepare*.
    fn capped_class() -> ClassDef {
        use crate::class::{Action, MethodKind};
        ClassDef::builder("capped")
            .field("n", 0i64)
            .method("incr", MethodKind::Update, &[], |ctx| {
                let n = ctx.get_required("n")?.as_int().unwrap_or(0);
                ctx.set("n", n + 1);
                Ok(Value::Null)
            })
            .trigger("cap", true, "before tcomplete && n > 2", Action::Abort)
            .activate_on_create(&["cap"])
            .build()
            .unwrap()
    }

    #[test]
    fn prepare_phase_abort_rolls_back_every_branch() {
        // Veto on the first-prepared shard and on a later one — both
        // orders must leave every branch rolled back and every lock
        // free.
        for veto_shard in [0usize, 1] {
            let db = ShardedDatabase::new(2);
            db.define_class(&capped_class()).unwrap();
            let (objs, _) = db
                .run_txn("admin", |db, g| {
                    Ok((
                        db.create_object_on(g, 0, "capped", &[])?,
                        db.create_object_on(g, 1, "capped", &[])?,
                    ))
                })
                .unwrap();
            let objs = [objs.0, objs.1];
            // Push the vetoing shard's object over the cap inside the
            // cross-shard transaction.
            let r = db.run_txn("alice", |db, g| {
                for _ in 0..3 {
                    db.call(g, objs[veto_shard], "incr", &[])?;
                }
                db.call(g, objs[1 - veto_shard], "incr", &[])?;
                Ok(())
            });
            assert!(r.is_err(), "cap trigger vetoes at prepare");
            for obj in objs {
                let n = db.with_obj(obj, |d, o| d.peek_field(o, "n").unwrap());
                assert_eq!(n, Value::Int(0), "no branch's effects survive");
            }
            // Both engines are clean: a fresh cross-shard transaction can
            // lock both objects and commit.
            db.run_txn("alice", |db, g| {
                db.call(g, objs[0], "incr", &[])?;
                db.call(g, objs[1], "incr", &[])
            })
            .unwrap();
            assert_eq!(
                db.with_obj(objs[0], |d, o| d.peek_field(o, "n").unwrap()),
                Value::Int(1)
            );
        }
    }

    /// A counter whose `cap` trigger aborts the transaction, then and
    /// there, on the increment that takes `n` past 2.
    fn counter_class() -> ClassDef {
        use crate::class::{Action, MethodKind};
        ClassDef::builder("counter")
            .field("n", 0i64)
            .method("incr", MethodKind::Update, &[], |ctx| {
                let n = ctx.get_required("n")?.as_int().unwrap_or(0);
                ctx.set("n", n + 1);
                Ok(Value::Null)
            })
            .trigger("cap", true, "after incr && n > 2", Action::Abort)
            .build()
            .unwrap()
    }

    /// Three counters, one per shard when `db` has three.
    fn three_counters(db: &ShardedDatabase) -> Vec<ObjectId> {
        db.run_txn("admin", |db, g| {
            (0..3)
                .map(|_| db.create_object(g, "counter", &[]))
                .collect()
        })
        .unwrap()
        .0
    }

    #[test]
    fn run_txn_commits_on_ok_and_aborts_on_err() {
        for shards in [1usize, 3] {
            let db = ShardedDatabase::new(shards);
            db.define_class(&counter_class()).unwrap();
            let objs = three_counters(&db);
            let n_of = |obj| db.with_obj(obj, |d, o| d.peek_field(o, "n").unwrap());
            db.run_txn("alice", |db, g| {
                db.activate_trigger(g, objs[0], "cap", &[])?;
                db.call(g, objs[0], "incr", &[])
            })
            .unwrap();

            // `Err` from the closure aborts every branch it opened.
            let r = db.run_txn("alice", |db, g| {
                for &obj in &objs {
                    db.call(g, obj, "incr", &[])?;
                }
                Err::<(), _>(OdeError::Method("nope".into()))
            });
            assert!(matches!(r, Err(OdeError::Method(_))), "{shards}: {r:?}");

            // A trigger abort inside the closure finalizes the
            // transaction before `run_txn` sees the error.
            let r = db.run_txn("alice", |db, g| {
                db.call(g, objs[1], "incr", &[])?;
                for _ in 0..2 {
                    db.call(g, objs[0], "incr", &[])?;
                }
                Ok(())
            });
            assert!(
                matches!(r, Err(OdeError::Aborted(AbortReason::TriggerAbort { .. }))),
                "{shards}: {r:?}"
            );
            assert_eq!(
                objs.iter().map(|&o| n_of(o)).collect::<Vec<_>>(),
                [Value::Int(1), Value::Int(0), Value::Int(0)],
                "{shards}: only the first transaction's effects survive"
            );

            // No lock was left behind: one transaction over every
            // counter commits.
            let ((), parts) = db
                .run_txn("alice", |db, g| {
                    for &obj in &objs {
                        db.call(g, obj, "incr", &[])?;
                    }
                    Ok(())
                })
                .unwrap();
            assert_eq!(parts.len(), shards);
            assert_eq!(n_of(objs[2]), Value::Int(1));
        }
    }

    #[test]
    fn concurrent_increments_all_land() {
        for shards in [1usize, 3] {
            let db = ShardedDatabase::new(shards);
            db.define_class(&counter_class()).unwrap();
            let objs = three_counters(&db);
            std::thread::scope(|s| {
                for tid in 0..6 {
                    let db = db.clone();
                    let objs = &objs;
                    s.spawn(move || {
                        for k in 0..40 {
                            let obj = objs[(tid + k) % objs.len()];
                            db.run_txn("worker", |db, g| db.call(g, obj, "incr", &[]))
                                .expect("retry exhausts only under pathological contention");
                        }
                    });
                }
            });
            let total: i64 = objs
                .iter()
                .map(|&obj| db.with_obj(obj, |d, o| d.peek_field(o, "n").unwrap()))
                .map(|n| n.as_int().unwrap())
                .sum();
            assert_eq!(total, 6 * 40, "{shards} shard(s)");
        }
    }
}
