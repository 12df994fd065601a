//! Durability: an on-disk write-ahead log with checkpointing, crash
//! recovery, and deterministic fault injection.
//!
//! The paper's triggers are persistent — a half-matched composite event
//! must survive a shutdown — so the logical recovery pair the repo
//! already had ([`crate::persist::Snapshot`] + the [`crate::LogOp`]s a
//! log sink streams) gains a disk-backed implementation here:
//!
//! * [`frame`] — length-prefixed CRC32 record framing and the
//!   torn-tail rule;
//! * [`io`] — the [`io::WalIo`] file-system trait, its production
//!   [`io::StdIo`] impl, and the deterministic [`io::FaultyIo`] fault
//!   injector the crash-matrix test drives;
//! * [`reader`] — [`reader::SegmentReader`]: a read-only LSN-addressed
//!   scan of a log directory, shared by recovery and the replication
//!   shipper;
//! * [`wal`] — [`wal::DiskWal`]: segmented appends, fsync policies,
//!   atomic checkpoints, and `open()`-as-recovery;
//! * [`mod@compress`] — a dependency-free LZ77-class block compressor for
//!   archived segments;
//! * [`archive`] — compressed, CRC-framed archives of swept segments
//!   and [`archive::restore_to_lsn`]: point-in-time restore from
//!   checkpoint + archive chain + live segments;
//! * [`epoch`] and [`schema_log`] — the two small logs beside the shard
//!   streams: the primary-election epoch table, and the classes the
//!   ops refer to, as [`crate::spec::ClassSpec`] data.

pub mod archive;
pub mod compress;
pub mod epoch;
pub mod frame;
pub mod io;
pub mod reader;
pub mod schema_log;
pub mod wal;

pub use archive::{
    archive_dir, decode_archive_bytes, list_archives, parse_archive, read_archive,
    read_archive_bytes, read_archive_meta, restore_to_lsn, ArchiveError, ArchiveMeta,
    ArchiveSegment, DrainReport,
};
pub use compress::{compress, decompress, LzError};
pub use epoch::{EpochRecord, EpochTable, EPOCHS_FILE};
pub use io::{Fault, FaultyIo, SharedIo, StdIo, WalIo};
pub use reader::{SegmentReader, TornTail};
pub use schema_log::{SchemaLog, SCHEMA_FILE};
pub use wal::{
    ArchiveStats, CheckpointReport, DiskWal, DurableRecord, DurableSink, FsyncPolicy, Recovery,
    RecoveryReport, SegmentTiming, WalConfig, WalError, WalFlusher, WalStats,
};
