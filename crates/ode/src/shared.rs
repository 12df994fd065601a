//! One engine shard's lock.
//!
//! The core [`Database`] is single-writer (`&mut self`), faithful to the
//! paper's object-level-locking model where the interesting concurrency
//! is *between transactions*, not between engine calls. A
//! [`SharedDatabase`] is that engine behind a mutex: the slot
//! [`crate::ShardedDatabase`] holds one of per shard. It has no
//! transaction API of its own — transactions, lock-conflict retry and
//! the two-phase commit are [`crate::ShardedDatabase`]'s (at `N = 1`
//! that is the whole database).
//!
//! It stays a public type because it is how a caller hands an engine to
//! a coordinator: [`crate::ShardedDatabase::from_shared`] and the
//! network server's `Server::builder` both take it, and the `perfbench`
//! harness starts its server that way.

use std::sync::Arc;
use std::time::{Duration, Instant};

use parking_lot::{Mutex, MutexGuard};

use crate::engine::Database;

/// A cloneable, thread-safe handle to one engine.
#[derive(Clone)]
pub struct SharedDatabase {
    inner: Arc<Mutex<Database>>,
}

impl SharedDatabase {
    /// Wrap a database.
    pub fn new(db: Database) -> Self {
        SharedDatabase {
            inner: Arc::new(Mutex::new(db)),
        }
    }

    /// Run `f` on the raw engine under the mutex (schema definition,
    /// inspection, clock control, sink installation).
    pub fn with<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        f(&mut self.inner.lock())
    }

    /// Acquire the engine mutex and return the raw guard. For
    /// coordinators that must hold several engines at once (the sharded
    /// two-phase commit acquires shard guards in index order); everything
    /// else should go through [`SharedDatabase::with`].
    pub fn lock(&self) -> MutexGuard<'_, Database> {
        self.inner.lock()
    }

    /// Like [`SharedDatabase::lock`], but also reports how long the
    /// caller waited for the mutex — the engine-lock contention signal
    /// surfaced by sharded stats.
    pub fn lock_timed(&self) -> (MutexGuard<'_, Database>, Duration) {
        let t0 = Instant::now();
        let guard = self.inner.lock();
        (guard, t0.elapsed())
    }
}
