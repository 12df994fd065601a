//! File I/O abstraction for the WAL, plus a deterministic fault injector.
//!
//! Every byte the durability layer reads or writes goes through
//! [`WalIo`]. Production uses [`StdIo`] (plain `std::fs`); tests use
//! [`FaultyIo`], which counts mutating operations and injects a scripted
//! fault — a short write, a failed fsync, or a hard crash — at a chosen
//! operation index. Because the engine's op stream is deterministic, the
//! same fault plan always lands on the same byte of the same file, which
//! is what makes the crash-matrix test exhaustive rather than flaky.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// The file operations the WAL needs, path-addressed so fault injection
/// and production share one shape.
pub trait WalIo {
    /// Create `dir` and any missing parents.
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()>;
    /// File names (not paths) of directory entries that are plain files.
    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>>;
    /// Read a whole file.
    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>>;
    /// Append `bytes` to `path`, creating it if absent.
    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()>;
    /// Flush `path`'s data and metadata to stable storage.
    fn fsync(&mut self, path: &Path) -> io::Result<()>;
    /// Flush the directory entry itself (durable renames/creates).
    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()>;
    /// Atomically rename `from` to `to`.
    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()>;
    /// Delete a file.
    fn remove(&mut self, path: &Path) -> io::Result<()>;
    /// Truncate `path` to `len` bytes (torn-tail repair).
    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()>;
}

/// Production implementation over `std::fs`. Append handles are cached
/// so a hot segment is opened once, not per record.
#[derive(Default)]
pub struct StdIo {
    handles: HashMap<PathBuf, File>,
}

impl StdIo {
    /// A fresh production io with no cached handles.
    pub fn new() -> Self {
        Self::default()
    }

    fn handle(&mut self, path: &Path) -> io::Result<&mut File> {
        if !self.handles.contains_key(path) {
            let file = OpenOptions::new()
                .create(true)
                .append(true)
                .read(true)
                .open(path)?;
            self.handles.insert(path.to_path_buf(), file);
        }
        Ok(self.handles.get_mut(path).expect("just inserted"))
    }

    fn drop_handle(&mut self, path: &Path) {
        self.handles.remove(path);
    }
}

impl WalIo for StdIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)
    }

    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let entry = entry?;
            if entry.file_type()?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        // Read through any cached append handle so unflushed-but-written
        // bytes are visible, then restore its append position.
        if let Some(file) = self.handles.get_mut(path) {
            let mut buf = Vec::new();
            file.seek(SeekFrom::Start(0))?;
            file.read_to_end(&mut buf)?;
            file.seek(SeekFrom::End(0))?;
            return Ok(buf);
        }
        std::fs::read(path)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.handle(path)?.write_all(bytes)
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        self.handle(path)?.sync_all()
    }

    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()> {
        // Directories cannot be opened for append; use a fresh handle.
        File::open(dir)?.sync_all()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.drop_handle(from);
        self.drop_handle(to);
        std::fs::rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.drop_handle(path);
        std::fs::remove_file(path)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.drop_handle(path);
        let file = OpenOptions::new().write(true).open(path)?;
        file.set_len(len)?;
        file.sync_all()
    }
}

/// What [`FaultyIo`] does when the op counter hits a planned index.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Simulated power loss: an append writes only half its bytes, any
    /// other op takes no effect, and every subsequent op fails — the
    /// process is "dead" until the io is rebuilt.
    Crash,
    /// The append writes half its bytes and reports an error, but the
    /// io stays alive (a transient disk hiccup).
    ShortWrite,
    /// The op reports an error without taking effect (e.g. a failed
    /// fsync). The io stays alive.
    FailOp,
}

/// Deterministic fault injector wrapping [`StdIo`].
///
/// Only *mutating* ops (append, fsync, fsync_dir, rename, remove,
/// truncate) advance the op counter; reads and listings are free, so a
/// fault plan indexes the durable-effect sequence directly.
pub struct FaultyIo {
    inner: StdIo,
    plan: HashMap<u64, Fault>,
    ops: Arc<AtomicU64>,
    crashed: Arc<AtomicBool>,
}

impl FaultyIo {
    /// An injector executing `plan`: op index → fault.
    pub fn new(plan: HashMap<u64, Fault>) -> Self {
        Self {
            inner: StdIo::new(),
            plan,
            ops: Arc::new(AtomicU64::new(0)),
            crashed: Arc::new(AtomicBool::new(false)),
        }
    }

    /// A fault-free injector that still counts ops — used to size the
    /// crash matrix.
    pub fn counting() -> Self {
        Self::new(HashMap::new())
    }

    /// Crash (die permanently) at mutating op index `at`.
    pub fn crash_at(at: u64) -> Self {
        Self::new(HashMap::from([(at, Fault::Crash)]))
    }

    /// Shared view of the mutating-op counter.
    pub fn op_counter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.ops)
    }

    /// Whether a planned `Crash` has fired. Storing `true` kills the io
    /// from outside, at a moment the caller chooses.
    pub fn crashed_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.crashed)
    }

    fn dead_err() -> io::Error {
        io::Error::other("faulty io: crashed")
    }

    /// Advance the counter; return the fault planned for this op, if any.
    fn tick(&mut self) -> io::Result<Option<Fault>> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Self::dead_err());
        }
        let idx = self.ops.fetch_add(1, Ordering::SeqCst);
        match self.plan.get(&idx).copied() {
            Some(Fault::Crash) => {
                self.crashed.store(true, Ordering::SeqCst);
                Ok(Some(Fault::Crash))
            }
            other => Ok(other),
        }
    }

    fn mutate<F>(&mut self, f: F) -> io::Result<()>
    where
        F: FnOnce(&mut StdIo) -> io::Result<()>,
    {
        match self.tick()? {
            None => f(&mut self.inner),
            Some(Fault::Crash) => Err(Self::dead_err()),
            Some(Fault::ShortWrite) | Some(Fault::FailOp) => {
                Err(io::Error::other("faulty io: injected failure"))
            }
        }
    }
}

impl WalIo for FaultyIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Self::dead_err());
        }
        self.inner.create_dir_all(dir)
    }

    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Self::dead_err());
        }
        self.inner.list(dir)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        if self.crashed.load(Ordering::SeqCst) {
            return Err(Self::dead_err());
        }
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        match self.tick()? {
            None => self.inner.append(path, bytes),
            Some(Fault::Crash) | Some(Fault::ShortWrite) => {
                // Half the bytes reach the file — the torn tail.
                let _ = self.inner.append(path, &bytes[..bytes.len() / 2]);
                Err(if self.crashed.load(Ordering::SeqCst) {
                    Self::dead_err()
                } else {
                    io::Error::other("faulty io: short write")
                })
            }
            Some(Fault::FailOp) => Err(io::Error::other("faulty io: injected failure")),
        }
    }

    fn fsync(&mut self, path: &Path) -> io::Result<()> {
        self.mutate(|io| io.fsync(path))
    }

    fn fsync_dir(&mut self, dir: &Path) -> io::Result<()> {
        self.mutate(|io| io.fsync_dir(dir))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.mutate(|io| io.rename(from, to))
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.mutate(|io| io.remove(path))
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.mutate(|io| io.truncate(path, len))
    }
}

/// Clonable, thread-safe handle to a `WalIo` so a server can share one
/// io (and one fault plan) between the op WAL and the schema WAL.
#[derive(Clone)]
pub struct SharedIo(Arc<parking_lot::Mutex<Box<dyn WalIo + Send>>>);

impl SharedIo {
    /// Wrap an io in a clonable, lockable handle.
    pub fn new(io: impl WalIo + Send + 'static) -> Self {
        Self(Arc::new(parking_lot::Mutex::new(Box::new(io))))
    }

    /// Run `f` with exclusive access to the underlying io.
    pub fn with<R>(&self, f: impl FnOnce(&mut dyn WalIo) -> R) -> R {
        let mut guard = self.0.lock();
        f(guard.as_mut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "ode-io-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn std_io_append_read_truncate() {
        let dir = tmp_dir("std");
        let path = dir.join("a.wal");
        let mut io = StdIo::new();
        io.append(&path, b"hello ").unwrap();
        io.append(&path, b"world").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"hello world");
        io.truncate(&path, 5).unwrap();
        assert_eq!(io.read(&path).unwrap(), b"hello");
        // Appends keep working after a truncate dropped the handle.
        io.append(&path, b"!").unwrap();
        assert_eq!(io.read(&path).unwrap(), b"hello!");
        assert_eq!(io.list(&dir).unwrap(), vec!["a.wal".to_string()]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_crash_leaves_half_write_then_dies() {
        let dir = tmp_dir("crash");
        let path = dir.join("a.wal");
        let mut io = FaultyIo::crash_at(1);
        io.append(&path, b"first!").unwrap(); // op 0: fine
        let err = io.append(&path, b"second").unwrap_err(); // op 1: crash
        assert!(err.to_string().contains("crashed"));
        // Dead from here on, including reads.
        assert!(io.append(&path, b"x").is_err());
        assert!(io.read(&path).is_err());
        assert!(io.crashed_flag().load(Ordering::SeqCst));
        // The half write is on disk for a fresh io to find.
        assert_eq!(std::fs::read(&path).unwrap(), b"first!sec");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn faulty_short_write_and_fail_op_stay_alive() {
        let dir = tmp_dir("short");
        let path = dir.join("a.wal");
        let mut io = FaultyIo::new(HashMap::from([(0, Fault::ShortWrite), (2, Fault::FailOp)]));
        assert!(io.append(&path, b"abcd").is_err()); // op 0: half lands
        assert_eq!(io.read(&path).unwrap(), b"ab");
        io.append(&path, b"ok").unwrap(); // op 1: fine
        assert!(io.fsync(&path).is_err()); // op 2: fails, no death
        io.fsync(&path).unwrap(); // op 3: fine
        assert_eq!(io.op_counter().load(Ordering::SeqCst), 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
