//! The reactor subsystem: the server's connection front end — a
//! poll/epoll-driven event loop over non-blocking sockets plus a pool
//! of command workers. This is the only module that knows how
//! connections are served: one loop thread that also runs every command
//! that cannot block, `workers` executors for the rest, producers →
//! outbox ring → socket, one teardown path.
//!
//! Layout:
//!
//! * [`poller`] — readiness polling (epoll on Linux, poll(2) on other
//!   unix) plus the cross-thread [`poller::Waker`], declared as direct
//!   FFI since the workspace carries no libc/mio dependency.
//! * [`outbox`] — per-connection outbox rings and encode-once
//!   broadcast: every message a connection receives is enqueued here.
//! * [`event_loop`] — the loop itself: accept and admission, framed
//!   non-blocking reads with partial-line carry, write-interest-driven
//!   flushing, replication heartbeats, idle-transaction expiry, inline
//!   execution, the command worker pool, and the single
//!   connection-teardown path.

pub(crate) mod event_loop;
pub(crate) mod outbox;
pub mod poller;

pub use poller::raise_nofile_limit;
