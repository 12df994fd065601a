//! An append-only columnar event-history store.
//!
//! The paper's Section 9 names "explicit manipulation of event
//! histories" as the missing half of event specification: detection
//! (Sections 3–6) answers "did this pattern just complete on this
//! object?", but nothing answers "which `deposit` events with
//! `amount > 10000` happened anywhere, in the last hour?". This module
//! is that other half — a cross-object, queryable record of every
//! *committed* basic event, kept off the engine lock. Objects keep no
//! record of their postings, so this store (fed by the event tap) is the
//! one record of them.
//!
//! ## REPLAY vs QUERY
//!
//! Detection never replays history: a trigger's automaton carries one
//! word of state forward (Section 5). The history store is the
//! complementary REPLAY substrate: it can re-feed any stored
//! sub-history through a fresh automaton — which is exactly how
//! retroactive trigger activation ([`replay_trigger`]) is built — and
//! it can answer ad-hoc QUERY predicates (class, kind, qualifier,
//! argument comparisons, seq/time ranges) that no automaton was
//! watching for when the events happened.
//!
//! ## Feeding
//!
//! The engine's committed-event tap ([`crate::engine::EventTap`])
//! delivers, at each commit and with the engine still locked, the
//! batch of basic events that transaction posted. The server's tap
//! closure pairs the batch with the commit's WAL LSN and enqueues it
//! ([`HistStore::submit`]) — nothing else happens under the engine
//! lock. A dedicated indexer thread drains the queue, but only applies
//! a batch once the WAL flusher has reported its LSN durable
//! ([`HistStore::advance_durable_through`]): every row the store ever
//! seals is therefore covered by the durable WAL, and a lost store
//! tail can always be rebuilt by replaying `LogOp`s.
//!
//! ## Layout
//!
//! Rows accumulate in an in-memory active set; when it reaches
//! [`HistConfig::segment_rows`] (and the next batch has a higher LSN —
//! a segment never splits the batches of one commit) it is sealed into
//! an immutable columnar segment file. Each segment carries zone
//! metadata — min/max seq, time, LSN and object id, plus class and
//! kind bitmaps — so selective queries skip whole segments without
//! decoding them; inside a segment that is read, only the rows its
//! fixed columns select have their args parsed. See [`segment`] for
//! the on-disk format and the column-first scan.

pub mod query;
pub mod retro;
pub mod row;
pub mod segment;
pub mod store;

pub use query::{ArgPred, CmpOp, HistQuery, QueryResult};
pub use retro::{replay_trigger, RetroFiring, RetroOutcome, RetroReplay};
pub use row::{EventRow, KindDict};
pub use segment::ZoneMeta;
pub use store::{Batch, HistConfig, HistError, HistStats, HistStore, PreparedQuery};
