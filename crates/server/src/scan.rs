//! The history scan thread: where a `Query`'s segment reads and the
//! wire encoding of its rows run.
//!
//! A history scan is bulk CPU work: it reads and decodes sealed segment
//! files for as long as the query needs. The commits, calls and firing
//! deliveries it shares cores with are short and latency-bound. So the
//! scans of every connection run, one at a time, on one thread at the
//! OS's idle scheduling priority (`SCHED_IDLE` on Linux): a commit or
//! firing that becomes runnable preempts a scan at once, and a scan gets
//! the CPU only when nothing else wants it. The command that asked
//! waits on its worker, as it would for a fsync.
//!
//! The segment reads hold no lock of the store
//! ([`ode_db::PreparedQuery`]): the store-locked part of a query runs on
//! the worker, at normal priority, so a preempted scan does not hold up
//! the indexer. (Rendering a row's class and event for the wire takes
//! the store's read locks for one dictionary lookup each.) Where the
//! priority cannot be set, scans still run here, at normal priority.

use std::sync::mpsc;
use std::thread;

type Job = Box<dyn FnOnce() + Send>;

/// Handle to the scan thread; the thread exits when this is dropped.
pub(crate) struct ScanThread {
    jobs: mpsc::Sender<Job>,
}

impl ScanThread {
    /// Start the thread (named `ode-scan`).
    pub(crate) fn spawn() -> std::io::Result<ScanThread> {
        let (jobs, rx) = mpsc::channel::<Job>();
        thread::Builder::new()
            .name("ode-scan".into())
            .spawn(move || {
                set_idle_priority();
                while let Ok(job) = rx.recv() {
                    job();
                }
            })?;
        Ok(ScanThread { jobs })
    }

    /// Run `work` on the scan thread and wait for its result. If the
    /// thread is gone, `work` runs on the caller's thread instead.
    pub(crate) fn run<T: Send + 'static>(&self, work: impl FnOnce() -> T + Send + 'static) -> T {
        let (tx, rx) = mpsc::sync_channel(1);
        let job: Job = Box::new(move || {
            let _ = tx.send(work());
        });
        if let Err(mpsc::SendError(job)) = self.jobs.send(job) {
            job();
        }
        rx.recv().expect("the scan thread panicked")
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

    #[test]
    fn runs_work_and_returns_its_result() {
        let scans = ScanThread::spawn().unwrap();
        let name = scans.run(|| thread::current().name().map(str::to_string));
        assert_eq!(name.as_deref(), Some("ode-scan"));
        assert_eq!(scans.run(|| 6 * 7), 42);
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn the_thread_runs_at_idle_priority() {
        extern "C" {
            fn sched_getscheduler(pid: i32) -> i32;
        }
        let scans = ScanThread::spawn().unwrap();
        // SAFETY: pid 0 names the calling thread; no memory is passed.
        let policy = scans.run(|| unsafe { sched_getscheduler(0) });
        assert_eq!(policy, 5, "SCHED_IDLE");
    }
}
