//! A thread-shareable database handle with transaction retry.
//!
//! The core [`Database`] is single-writer (`&mut self`), faithful to the
//! paper's object-level-locking model where the interesting concurrency
//! is *between transactions*, not between engine calls. This wrapper
//! provides the multi-threaded application view: a cloneable handle
//! whose [`SharedDatabase::run_txn`] executes a closure inside a
//! transaction, committing on success, aborting on error, and
//! transparently **retrying on object-lock conflicts** — the standard
//! discipline for lock-based transaction processing.
//!
//! The engine mutex is released between retries so other threads can
//! finish the conflicting transactions.

use std::sync::Arc;

use parking_lot::Mutex;

use crate::engine::{Database, FiringSink};
use crate::error::OdeError;
use crate::ids::TxnId;
use ode_core::Value;

/// A cloneable, thread-safe database handle.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<Mutex<Database>>,
    max_retries: u32,
}

/// The transaction view a [`SharedDatabase::run_txn`] closure receives:
/// engine access plus the transaction id.
pub struct SharedTxn<'a> {
    /// The locked engine.
    pub db: &'a mut Database,
    /// The open transaction.
    pub txn: TxnId,
}

impl SharedDatabase {
    /// Wrap a database.
    pub fn new(db: Database) -> Self {
        SharedDatabase {
            inner: Arc::new(Mutex::new(db)),
            max_retries: 64,
        }
    }

    /// Change the lock-conflict retry budget.
    pub fn with_max_retries(mut self, retries: u32) -> Self {
        self.max_retries = retries;
        self
    }

    /// Run `f` on the raw engine under the mutex (schema definition,
    /// inspection, clock control).
    pub fn with<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        f(&mut self.inner.lock())
    }

    /// Acquire the engine mutex and return the raw guard. For
    /// coordinators that must hold several engines at once (the sharded
    /// two-phase commit acquires shard guards in index order); everything
    /// else should go through [`SharedDatabase::with`].
    pub fn lock(&self) -> parking_lot::MutexGuard<'_, Database> {
        self.inner.lock()
    }

    /// Like [`SharedDatabase::lock`], but also reports how long the
    /// caller waited for the mutex — the engine-lock contention signal
    /// surfaced by sharded stats.
    pub fn lock_timed(&self) -> (parking_lot::MutexGuard<'_, Database>, std::time::Duration) {
        let t0 = std::time::Instant::now();
        let guard = self.inner.lock();
        (guard, t0.elapsed())
    }

    /// Execute `f` inside a transaction as `user`. Commits on `Ok`,
    /// aborts on `Err`. [`OdeError::LockConflict`] aborts and retries
    /// (up to the retry budget) with the engine lock released in
    /// between; other errors propagate after the abort.
    pub fn run_txn<T>(
        &self,
        user: impl Into<Value>,
        mut f: impl FnMut(&mut SharedTxn<'_>) -> Result<T, OdeError>,
    ) -> Result<T, OdeError> {
        let user = user.into();
        let mut attempts = 0;
        loop {
            let result = {
                let mut db = self.inner.lock();
                let txn = db.begin_as(user.clone());
                let r = f(&mut SharedTxn { db: &mut db, txn });
                match r {
                    Ok(v) => db.commit(txn).map(|()| v),
                    Err(e) => {
                        // the engine may have finalized the abort already
                        // (e.g. a trigger tabort)
                        let _ = db.abort(txn);
                        Err(e)
                    }
                }
            };
            match result {
                Err(OdeError::LockConflict { .. }) if attempts < self.max_retries => {
                    attempts += 1;
                    std::thread::yield_now();
                }
                other => return other,
            }
        }
    }

    /// Install (or clear) the engine's firing sink (see
    /// [`crate::engine::FiringNotice`]). The sink runs with the engine
    /// mutex held — it must only enqueue, never block or call back into
    /// this handle.
    pub fn set_firing_sink(&self, sink: Option<FiringSink>) {
        self.inner.lock().set_firing_sink(sink);
    }

    /// Install (or clear) the engine's log sink (see
    /// [`crate::engine::LogSink`]). The sink runs with the engine mutex
    /// held, so the op stream it observes is exactly the serialization
    /// order — which is what makes a WAL hung off it recoverable.
    #[cfg(feature = "persistence")]
    pub fn set_log_sink(&self, sink: Option<crate::engine::LogSink>) {
        self.inner.lock().set_log_sink(sink);
    }

    /// Install (or clear) the engine's committed-event tap (see
    /// [`crate::engine::EventTap`]). The tap runs with the engine mutex
    /// held — it must only enqueue, never block or call back into this
    /// handle.
    pub fn set_event_tap(&self, tap: Option<crate::engine::EventTap>) {
        self.inner.lock().set_event_tap(tap);
    }

    /// Begin a long-lived *session* transaction as `user` and return its
    /// id. Unlike [`SharedDatabase::run_txn`], the transaction stays open
    /// across engine-lock releases — the caller (e.g. a network session)
    /// is responsible for eventually calling [`SharedDatabase::commit`]
    /// or [`SharedDatabase::abort`].
    pub fn begin(&self, user: impl Into<Value>) -> TxnId {
        self.inner.lock().begin_as(user.into())
    }

    /// Commit a session transaction begun with [`SharedDatabase::begin`].
    pub fn commit(&self, txn: TxnId) -> Result<(), OdeError> {
        self.inner.lock().commit(txn)
    }

    /// Abort a session transaction begun with [`SharedDatabase::begin`].
    /// Aborting a transaction the engine already finalized (e.g. after a
    /// trigger-requested abort surfaced as an error) returns `Err`.
    pub fn abort(&self, txn: TxnId) -> Result<(), OdeError> {
        self.inner.lock().abort(txn)
    }

    /// Is `txn` still open?
    pub fn txn_open(&self, txn: TxnId) -> bool {
        self.inner.lock().txn_open(txn)
    }

    /// Consume the handle, returning the database if this is the last
    /// clone.
    pub fn try_unwrap(self) -> Result<Database, SharedDatabase> {
        match Arc::try_unwrap(self.inner) {
            Ok(m) => Ok(m.into_inner()),
            Err(inner) => Err(SharedDatabase {
                inner,
                max_retries: self.max_retries,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::{ClassDef, MethodKind};
    use crate::ids::ObjectId;

    fn counter_class() -> ClassDef {
        ClassDef::builder("counter")
            .field("n", 0i64)
            .method("incr", MethodKind::Update, &[], |ctx| {
                let n = ctx.get_required("n")?.as_int().unwrap_or(0);
                ctx.set("n", n + 1);
                Ok(Value::Null)
            })
            .build()
            .unwrap()
    }

    #[test]
    fn run_txn_commits_on_ok_and_aborts_on_err() {
        let shared = SharedDatabase::new(Database::new());
        shared.with(|db| db.define_class(counter_class()).unwrap());
        let obj = shared
            .run_txn("alice", |t| t.db.create_object(t.txn, "counter", &[]))
            .unwrap();
        shared
            .run_txn("alice", |t| t.db.call(t.txn, obj, "incr", &[]))
            .unwrap();
        let r: Result<(), OdeError> = shared.run_txn("alice", |t| {
            t.db.call(t.txn, obj, "incr", &[])?;
            Err(OdeError::Method("nope".into()))
        });
        assert!(r.is_err());
        assert_eq!(
            shared.with(|db| db.peek_field(obj, "n")),
            Some(Value::Int(1))
        );
    }

    #[test]
    fn concurrent_increments_all_land() {
        let shared = SharedDatabase::new(Database::new());
        shared.with(|db| db.define_class(counter_class()).unwrap());
        let objs: Vec<ObjectId> = shared.with(|db| {
            let t = db.begin();
            let v = (0..3)
                .map(|_| db.create_object(t, "counter", &[]).unwrap())
                .collect();
            db.commit(t).unwrap();
            v
        });

        std::thread::scope(|s| {
            for tid in 0..6 {
                let shared = shared.clone();
                let objs = &objs;
                s.spawn(move || {
                    for k in 0..40 {
                        let obj = objs[(tid + k) % objs.len()];
                        shared
                            .run_txn("worker", |t| t.db.call(t.txn, obj, "incr", &[]))
                            .expect("retry exhausts only under pathological contention");
                    }
                });
            }
        });

        let total: i64 = shared.with(|db| {
            objs.iter()
                .map(|o| db.peek_field(*o, "n").unwrap().as_int().unwrap())
                .sum()
        });
        assert_eq!(total, 6 * 40);
    }

    #[test]
    fn try_unwrap_returns_database() {
        let shared = SharedDatabase::new(Database::new());
        let db = shared.try_unwrap().ok().expect("sole owner");
        drop(db);
    }
}
