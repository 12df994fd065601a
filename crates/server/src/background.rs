//! The background thread: where a server's bulk work runs — a `Query`'s
//! segment reads and the wire encoding of its rows, and the drains of
//! the WAL files a checkpoint superseded.
//!
//! Bulk work reads, decodes, compresses or unlinks files for as long as
//! it needs. The commits, calls and firing deliveries it shares cores
//! with are short and latency-bound. So every job runs, one at a time
//! in submission order, on one thread at the OS's idle scheduling
//! priority (`SCHED_IDLE` on Linux): a commit or firing that becomes
//! runnable preempts a job at once, and a job gets the CPU only when
//! nothing else wants it. A query waits for its job on its worker
//! ([`Background::run`]), as it would for a fsync; a drain is queued and
//! forgotten ([`Background::submit`]).
//!
//! The segment reads hold no lock of the store
//! ([`ode_db::PreparedQuery`]): the store-locked part of a query runs on
//! the worker, at normal priority, so a preempted scan does not hold up
//! the indexer. (Rendering a row's class and event for the wire takes
//! the store's read locks for one dictionary lookup each.) A drain holds
//! no WAL lock ([`ode_db::DiskWal::drain_retired`]). Where the priority
//! cannot be set, jobs still run here, at normal priority.

use std::sync::mpsc;
use std::thread::{self, JoinHandle};

use parking_lot::Mutex;

type Job = Box<dyn FnOnce() + Send>;

/// Handle to the background thread (named `ode-background`); dropping
/// it shuts the thread down. Once [`Background::shutdown`] has run, or
/// the thread has died, work runs on the caller's thread instead.
pub(crate) struct Background {
    /// The job queue and the thread that drains it; `None` once shut
    /// down.
    thread: Mutex<Option<(mpsc::Sender<Job>, JoinHandle<()>)>>,
}

impl Background {
    /// Start the thread.
    pub(crate) fn spawn() -> std::io::Result<Background> {
        let (jobs, rx) = mpsc::channel::<Job>();
        let thread = thread::Builder::new()
            .name("ode-background".into())
            .spawn(move || {
                set_idle_priority();
                while let Ok(job) = rx.recv() {
                    job();
                }
            })?;
        Ok(Background {
            thread: Mutex::new(Some((jobs, thread))),
        })
    }

    /// Queue `work` behind every job already submitted and return.
    pub(crate) fn submit(&self, work: impl FnOnce() + Send + 'static) {
        let job: Job = Box::new(work);
        let refused = match &*self.thread.lock() {
            Some((jobs, _)) => jobs.send(job).err().map(|mpsc::SendError(job)| job),
            None => Some(job),
        };
        if let Some(job) = refused {
            job();
        }
    }

    /// Run `work` on the background thread and wait for its result.
    pub(crate) fn run<T: Send + 'static>(&self, work: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::sync_channel(1);
        self.submit(move || {
            let _ = tx.send(work());
        });
        rx.recv().expect("a background job panicked")
    }

    /// Take no more jobs, finish every job already queued, and join the
    /// thread.
    pub(crate) fn shutdown(&self) {
        let running = self.thread.lock().take();
        if let Some((jobs, thread)) = running {
            drop(jobs);
            let _ = thread.join();
        }
    }
}

impl Drop for Background {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(target_os = "linux")]
fn set_idle_priority() {
    const SCHED_IDLE: i32 = 5;
    /// `struct sched_param` from `<sched.h>`.
    #[repr(C)]
    struct SchedParam {
        sched_priority: i32,
    }
    extern "C" {
        fn sched_setscheduler(pid: i32, policy: i32, param: *const SchedParam) -> i32;
    }
    let param = SchedParam { sched_priority: 0 };
    // SAFETY: `param` is a live `struct sched_param` that the kernel only
    // reads, and pid 0 names the calling thread. On failure the thread
    // keeps its normal priority.
    unsafe {
        sched_setscheduler(0, SCHED_IDLE, &param);
    }
}

#[cfg(not(target_os = "linux"))]
fn set_idle_priority() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;

    #[test]
    fn runs_work_and_returns_its_result() {
        let bg = Background::spawn().unwrap();
        let name = bg.run(|| thread::current().name().map(str::to_string));
        assert_eq!(name.as_deref(), Some("ode-background"));
        assert_eq!(bg.run(|| 6 * 7), 42);
    }

    #[test]
    fn jobs_run_in_submission_order() {
        let bg = Background::spawn().unwrap();
        let log = Arc::new(Mutex::new(Vec::new()));
        for i in 0..100 {
            let log = Arc::clone(&log);
            bg.submit(move || log.lock().push(i));
        }
        let blocking = Arc::clone(&log);
        bg.run(move || blocking.lock().push(100));
        assert_eq!(*log.lock(), (0..=100).collect::<Vec<_>>());
    }

    #[test]
    fn shutdown_returns_after_every_submitted_job() {
        let bg = Background::spawn().unwrap();
        let done = Arc::new(Mutex::new(Vec::new()));
        for i in 0..5 {
            let done = Arc::clone(&done);
            bg.submit(move || {
                thread::sleep(Duration::from_millis(20));
                done.lock().push(i);
            });
        }
        bg.shutdown();
        assert_eq!(*done.lock(), vec![0, 1, 2, 3, 4]);
        // The thread is gone: work now runs on the caller's thread.
        let here = thread::current().id();
        assert_eq!(bg.run(move || thread::current().id()), here);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_thread_runs_at_idle_priority() {
        extern "C" {
            fn sched_getscheduler(pid: i32) -> i32;
        }
        let bg = Background::spawn().unwrap();
        // SAFETY: pid 0 names the calling thread; no memory is passed.
        let policy = bg.run(|| unsafe { sched_getscheduler(0) });
        assert_eq!(policy, 5, "SCHED_IDLE");
    }
}
