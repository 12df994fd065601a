//! # ode-db — an active object-oriented database in the style of Ode/O++
//!
//! The substrate the SIGMOD 1992 composite-event paper assumes: persistent
//! objects with identity, classes with public member functions,
//! transactions with object-level locking and rollback, and — the point
//! of the exercise — **triggers** whose composite events are monitored by
//! finite automata with one word of state per active trigger per object.
//!
//! ```
//! use ode_db::{Action, ClassDef, Database, MethodKind};
//! use ode_core::Value;
//!
//! let mut db = Database::new();
//! db.define_class(
//!     ClassDef::builder("account")
//!         .field("balance", 0i64)
//!         .method("depositCash", MethodKind::Update, &["amt"], |ctx| {
//!             let b = ctx.get_required("balance")?.as_int().unwrap_or(0);
//!             let amt = ctx.arg(0)?.as_int().unwrap_or(0);
//!             ctx.set("balance", b + amt);
//!             Ok(Value::Null)
//!         })
//!         // fire on every deposit that leaves the balance below 500
//!         .trigger(
//!             "low",
//!             true,
//!             "after depositCash && balance < 500",
//!             Action::Emit("balance still low".into()),
//!         )
//!         .activate_on_create(&["low"])
//!         .build()
//!         .unwrap(),
//! )
//! .unwrap();
//!
//! let txn = db.begin();
//! let acct = db.create_object(txn, "account", &[]).unwrap();
//! db.call(txn, acct, "depositCash", &[Value::Int(100)]).unwrap();
//! db.commit(txn).unwrap();
//! assert!(db.output().iter().any(|l| l.contains("balance still low")));
//! ```

#![warn(missing_docs)]

pub mod class;
pub mod clock;
pub mod coupling;
pub mod demo;
pub mod durability;
pub mod engine;
pub mod error;
pub mod histstore;
pub mod ids;
pub mod object;
pub mod oplog;
pub mod persist;
pub mod replication;
pub mod report;
pub mod schema;
pub mod sharded;
pub mod shared;
pub mod spec;

pub use class::{
    Action, ActionCtx, ActionFn, ClassBuilder, ClassDef, MaskFn, MethodBody, MethodCtx, MethodDef,
    MethodKind, Monitoring, TriggerDef,
};
pub use clock::{Clock, Recurrence, Timer, TimerScope};
pub use durability::{
    restore_to_lsn, ArchiveError, ArchiveMeta, ArchiveSegment, ArchiveStats, CheckpointReport,
    DiskWal, DrainReport, DurableRecord, DurableSink, EpochRecord, EpochTable, Fault, FaultyIo,
    FsyncPolicy, Recovery, RecoveryReport, SchemaLog, SegmentReader, SegmentTiming, SharedIo,
    StdIo, TornTail, WalConfig, WalError, WalFlusher, WalIo, WalStats, EPOCHS_FILE, SCHEMA_FILE,
};
pub use engine::{Database, EventTap, FiringNotice, FiringSink, LogSink, Stats, TapEvent};
pub use error::{AbortReason, OdeError};
pub use histstore::{
    ArgPred, Batch, CmpOp, EventRow, HistConfig, HistError, HistQuery, HistStats, HistStore,
    PreparedQuery, QueryResult, RetroFiring, RetroOutcome, RetroReplay,
};
pub use ids::{ClassId, ObjectId, TxnId};
pub use object::{Object, PostStatus, PostedRecord, TriggerInstance};
pub use oplog::{replay, LogOp};
pub use persist::Snapshot;
pub use replication::{Applied, Applier, ApplyError};
pub use report::describe;
pub use schema::{SchemaAction, SchemaCtx, SchemaTrigger};
pub use sharded::{
    reconcile_cross_shard, recover_shard, recover_sharded, shard_dir, shard_of, to_global,
    to_local, ReconcileReport, ShardStats, ShardedDatabase, ShardedRecovery, ShardedWal,
    SHARDS_META,
};
pub use shared::SharedDatabase;
