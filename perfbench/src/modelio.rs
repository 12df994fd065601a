//! A counting [`WalIo`] with a modeled flush.
//!
//! Every call is forwarded to a real [`StdIo`] and happens on the real
//! file system inside the run directory — except `fsync`/`fsync_dir`,
//! which block the caller for a fixed [`MODELED_FLUSH`] instead of the
//! device's flush time. On this sandbox a real fsync swings run to run
//! by more than any change to the program would; with the flush
//! modeled, the durable workloads measure what the program does — how
//! many flushes it asks for, how it batches them, how waiters are
//! woken — and the device's own number is recorded next to it by
//! [`real_fsync_us`].

use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ode_db::{StdIo, WalIo};

/// What one `fsync`/`fsync_dir` costs under the model.
pub const MODELED_FLUSH: Duration = Duration::from_micros(200);

/// Calls seen by a [`ModelIo`], readable while the io is in use.
#[derive(Default)]
pub struct IoCounters {
    /// `append` calls.
    pub writes: AtomicU64,
    /// Bytes handed to `append`.
    pub bytes: AtomicU64,
    /// `fsync` + `fsync_dir` calls.
    pub flushes: AtomicU64,
    /// Every other call (directory, read, rename, remove, truncate).
    pub other: AtomicU64,
}

/// A point-in-time copy of [`IoCounters`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IoCounts {
    pub writes: u64,
    pub bytes: u64,
    pub flushes: u64,
    pub other: u64,
}

impl IoCounters {
    // Relaxed: the counters are statistics and publish no other data.
    pub fn snapshot(&self) -> IoCounts {
        IoCounts {
            writes: self.writes.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
            other: self.other.load(Ordering::Relaxed),
        }
    }
}

pub struct ModelIo {
    inner: StdIo,
    counters: Arc<IoCounters>,
}

impl ModelIo {
    pub fn new() -> (ModelIo, Arc<IoCounters>) {
        let counters = Arc::new(IoCounters::default());
        let io = ModelIo {
            inner: StdIo::new(),
            counters: Arc::clone(&counters),
        };
        (io, counters)
    }

    fn other(&self) {
        self.counters.other.fetch_add(1, Ordering::Relaxed);
    }

    fn flush(&self) -> io::Result<()> {
        self.counters.flushes.fetch_add(1, Ordering::Relaxed);
        // Sleep rather than spin: a flush blocks its caller without
        // using the processor, and so does the model.
        std::thread::sleep(MODELED_FLUSH);
        Ok(())
    }
}

impl WalIo for ModelIo {
    fn create_dir_all(&mut self, dir: &Path) -> io::Result<()> {
        self.other();
        self.inner.create_dir_all(dir)
    }

    fn list(&mut self, dir: &Path) -> io::Result<Vec<String>> {
        self.other();
        self.inner.list(dir)
    }

    fn read(&mut self, path: &Path) -> io::Result<Vec<u8>> {
        self.other();
        self.inner.read(path)
    }

    fn append(&mut self, path: &Path, bytes: &[u8]) -> io::Result<()> {
        self.counters.writes.fetch_add(1, Ordering::Relaxed);
        self.counters
            .bytes
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.inner.append(path, bytes)
    }

    fn fsync(&mut self, _path: &Path) -> io::Result<()> {
        self.flush()
    }

    fn fsync_dir(&mut self, _dir: &Path) -> io::Result<()> {
        self.flush()
    }

    fn rename(&mut self, from: &Path, to: &Path) -> io::Result<()> {
        self.other();
        self.inner.rename(from, to)
    }

    fn remove(&mut self, path: &Path) -> io::Result<()> {
        self.other();
        self.inner.remove(path)
    }

    fn truncate(&mut self, path: &Path, len: u64) -> io::Result<()> {
        self.other();
        self.inner.truncate(path, len)
    }
}

/// Calibration: the median of up to 200 real `StdIo` fsyncs, each
/// after a 4 KiB append, in `dir` — the sandbox's own flush time, for
/// the record next to the modeled one. Stops early after a second so
/// a slow device cannot stall the run (never below 20 samples).
pub fn real_fsync_us(dir: &Path) -> io::Result<f64> {
    let mut io = StdIo::new();
    io.create_dir_all(dir)?;
    let path = dir.join("fsync-calibration.bin");
    let block = [0x5au8; 4096];
    let started = Instant::now();
    let mut samples = Vec::with_capacity(200);
    while samples.len() < 200 && (samples.len() < 20 || started.elapsed() < Duration::from_secs(1))
    {
        io.append(&path, &block)?;
        let t = Instant::now();
        io.fsync(&path)?;
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    io.remove(&path)?;
    Ok(crate::stats::median(&samples))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn forwards_every_call_and_counts_it() {
        let dir = std::env::temp_dir().join(format!("perfbench-modelio-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let (mut io, counters) = ModelIo::new();

        io.create_dir_all(&dir).unwrap();
        let a = dir.join("a.wal");
        let b = dir.join("b.wal");
        io.append(&a, b"hello ").unwrap();
        io.append(&a, b"world").unwrap();
        assert_eq!(io.read(&a).unwrap(), b"hello world");
        assert_eq!(std::fs::read(&a).unwrap(), b"hello world", "real write");

        let t = Instant::now();
        io.fsync(&a).unwrap();
        io.fsync_dir(&dir).unwrap();
        assert!(
            t.elapsed() >= 2 * MODELED_FLUSH,
            "flushes block for the model"
        );

        io.truncate(&a, 5).unwrap();
        assert_eq!(io.read(&a).unwrap(), b"hello");
        io.rename(&a, &b).unwrap();
        assert_eq!(io.list(&dir).unwrap(), vec!["b.wal".to_string()]);
        io.remove(&b).unwrap();
        assert!(io.list(&dir).unwrap().is_empty());

        assert_eq!(
            counters.snapshot(),
            IoCounts {
                writes: 2,
                bytes: 11,
                flushes: 2,
                // create_dir_all, read x2, truncate, rename, list x2, remove
                other: 8,
            }
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
