//! The schema log: every class a WAL directory's op logs refer to, as
//! [`ClassSpec`] data, in definition order.
//!
//! Op-log records name classes but do not carry their code, so a WAL
//! directory is recoverable on its own only if its classes are data.
//! The schema log is that data: one framed `ClassSpec` JSON record per
//! class, in `schema.wal` beside the shard logs and the epoch table.
//! Recovery defines the logged classes (in order, so `ClassId`s come
//! back identical) before any op replays, through
//! [`crate::recover_shard`]. Whoever defines a class on a WAL-backed
//! database appends its spec here first-durable: a server's
//! `DefineClass` does so with every engine locked, so no shard can log
//! an op on the class before its record is on disk.
//!
//! The log is read once, when its directory opens (the torn tail of a
//! crash during an append is truncated then), and is held in memory
//! from that point: [`SchemaLog::specs`] never touches the disk.

use std::path::{Path, PathBuf};

use crate::durability::frame;
use crate::durability::io::SharedIo;
use crate::durability::wal::WalError;
use crate::spec::ClassSpec;

/// File name of the schema log, stored in the WAL root directory
/// (beside `shard-NNN/` and [`crate::durability::EPOCHS_FILE`]).
pub const SCHEMA_FILE: &str = "schema.wal";

/// A WAL directory's schema log: its specs, loaded once and appended
/// durably.
pub struct SchemaLog {
    io: SharedIo,
    path: PathBuf,
    specs: Vec<ClassSpec>,
}

impl SchemaLog {
    /// Load `dir/schema.wal`. A missing file is an empty log; a torn
    /// tail is truncated away (crash during an append); interior damage
    /// is a hard [`WalError::Corrupt`].
    pub fn load(io: &SharedIo, dir: &Path) -> Result<SchemaLog, WalError> {
        let path = dir.join(SCHEMA_FILE);
        let specs = frame::read_json_log(io, &path, "schema log")?;
        Ok(SchemaLog {
            io: io.clone(),
            path,
            specs,
        })
    }

    /// Every logged class, in definition order.
    pub fn specs(&self) -> &[ClassSpec] {
        &self.specs
    }

    /// Durably append `spec` (framed and fsynced), then hold it. On
    /// error nothing is held, and the file may end in a torn record that
    /// the next [`SchemaLog::load`] truncates. Unlike the epoch table's
    /// append this does not fsync the directory: that would be a second
    /// fsync on the first `DefineClass` of every fresh directory, and
    /// the benchmark's `setup_s` @ `durable_commit` read +25 % with it
    /// (2-vCPU host, harness pinned to one).
    pub fn append(&mut self, spec: &ClassSpec) -> Result<(), WalError> {
        frame::append_json_log(&self.io, &self.path, std::slice::from_ref(spec))?;
        self.specs.push(spec.clone());
        Ok(())
    }
}
