//! Per-connection outbox rings: how every message leaves the server.
//!
//! Producers — the loop or a worker answering a command, the engine's
//! firing sink running under the engine lock, each shard WAL's durable
//! sink — enqueue *pre-serialized* frames on a connection's [`ConnOutbox`];
//! the event loop drains them to the socket with write-interest-driven
//! flushing. Fan-out ([`broadcast`]) serializes a message **once** and
//! enqueues the same `Arc<[u8]>` into every subscriber's ring, so a
//! firing's cost under the engine lock is one JSON encode plus N
//! pointer pushes — no socket I/O at all, and no encode at all when
//! nobody is subscribed.
//!
//! The ring is unbounded: every accepted message is eventually written
//! or accounted. The only messages ever *dropped* are
//! [`ServerMsg::Firing`] notifications enqueued after the connection
//! closed (or stranded in the ring when it dies); both count in
//! `subscriber_drops`.

use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, OnceLock};
use std::thread::{self, ThreadId};

use parking_lot::Mutex;

use super::poller::Waker;
use crate::protocol::ServerMsg;

/// One wire frame: a full serialized line (newline included).
pub(crate) struct Frame {
    pub(crate) bytes: Arc<[u8]>,
    /// Firing notifications are the droppable class — when they can't
    /// be delivered they count in `subscriber_drops` instead of
    /// erroring.
    pub(crate) firing: bool,
}

pub(crate) struct OutboxInner {
    pub(crate) queue: VecDeque<Frame>,
    /// Byte offset already written of the front frame (partial-write
    /// carry).
    pub(crate) front_off: usize,
    /// The loop has been told about pending output and hasn't drained
    /// to empty yet; pushes while set skip the redundant wake.
    pub(crate) scheduled: bool,
    /// Closed by teardown: further pushes are refused.
    pub(crate) closed: bool,
}

/// Cross-thread doorbell for the event loop: connections with freshly
/// dirty state (new output, a finished command batch) plus the waker
/// that interrupts `Poller::wait`.
pub(crate) struct Notify {
    dirty: Mutex<Vec<u64>>,
    pub(crate) waker: Waker,
    /// The loop thread, once it runs. It drains `dirty` at the end of
    /// every turn, so its own marks need no wake.
    loop_thread: OnceLock<ThreadId>,
}

impl Notify {
    pub(crate) fn new() -> std::io::Result<Notify> {
        Ok(Notify {
            dirty: Mutex::new(Vec::new()),
            waker: Waker::new()?,
            loop_thread: OnceLock::new(),
        })
    }

    /// Claim the calling thread as the loop that drains this doorbell.
    pub(crate) fn claim_loop(&self) {
        let _ = self.loop_thread.set(thread::current().id());
    }

    /// Mark `conn_id` dirty, and wake the loop unless this is the loop.
    pub(crate) fn mark(&self, conn_id: u64) {
        self.dirty.lock().push(conn_id);
        if self.loop_thread.get() != Some(&thread::current().id()) {
            self.waker.wake();
        }
    }

    /// Whether any connection is marked dirty (loop side).
    pub(crate) fn pending(&self) -> bool {
        !self.dirty.lock().is_empty()
    }

    /// Take the dirty list (loop side).
    pub(crate) fn take(&self) -> Vec<u64> {
        std::mem::take(&mut *self.dirty.lock())
    }
}

/// A connection's outbox ring. Shared between the producers and the
/// event loop; the loop is the only consumer.
pub(crate) struct ConnOutbox {
    pub(crate) conn_id: u64,
    notify: Arc<Notify>,
    pub(crate) inner: Mutex<OutboxInner>,
}

impl ConnOutbox {
    pub(crate) fn new(conn_id: u64, notify: Arc<Notify>) -> ConnOutbox {
        ConnOutbox {
            conn_id,
            notify,
            inner: Mutex::new(OutboxInner {
                queue: VecDeque::new(),
                front_off: 0,
                scheduled: false,
                closed: false,
            }),
        }
    }

    /// Enqueue a frame; `Err(())` if the ring is closed (the caller
    /// counts a drop if the message was a firing).
    pub(crate) fn push(&self, bytes: Arc<[u8]>, firing: bool) -> Result<(), ()> {
        let wake = {
            let mut g = self.inner.lock();
            if g.closed {
                return Err(());
            }
            g.queue.push_back(Frame { bytes, firing });
            if g.scheduled {
                false
            } else {
                g.scheduled = true;
                true
            }
        };
        if wake {
            self.notify.mark(self.conn_id);
        }
        Ok(())
    }

    /// Serialize and enqueue one message for this connection. `Err(())`
    /// means the connection is gone (ring closed).
    pub(crate) fn send(&self, msg: ServerMsg) -> Result<(), ()> {
        match encode_frame(&msg) {
            Some(bytes) => self.push(bytes, matches!(msg, ServerMsg::Firing(_))),
            None => Ok(()),
        }
    }

    /// Close the ring (teardown): refuse future pushes and return how
    /// many queued firing notifications were stranded — they'll never
    /// reach the peer, so they count as subscriber drops.
    pub(crate) fn close(&self) -> u64 {
        let mut g = self.inner.lock();
        g.closed = true;
        let stranded = g.queue.iter().filter(|f| f.firing).count() as u64;
        g.queue.clear();
        g.front_off = 0;
        stranded
    }
}

/// Serialize a message as one wire frame (line + newline). `None` if
/// serialization fails; such a message is skipped, not an error.
pub(crate) fn encode_frame(msg: &ServerMsg) -> Option<Arc<[u8]>> {
    let mut line = serde_json::to_string(msg).ok()?;
    line.push('\n');
    Some(Arc::from(line.into_bytes().into_boxed_slice()))
}

/// Fan `msg` out to every ring in `subs`: encoded once and shared by
/// `Arc` clone, or not at all when `subs` is empty. Returns how many
/// rings refused the frame (already closed).
pub(crate) fn broadcast(subs: &HashMap<u64, Arc<ConnOutbox>>, msg: &ServerMsg) -> u64 {
    if subs.is_empty() {
        return 0;
    }
    let Some(bytes) = encode_frame(msg) else {
        return 0;
    };
    let firing = matches!(msg, ServerMsg::Firing(_));
    subs.values()
        .filter(|ring| ring.push(Arc::clone(&bytes), firing).is_err())
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_close_strands_firings_only() {
        let notify = Arc::new(Notify::new().unwrap());
        let ring = ConnOutbox::new(7, Arc::clone(&notify));
        let frame: Arc<[u8]> = Arc::from(&b"x\n"[..]);
        ring.push(Arc::clone(&frame), false).unwrap();
        ring.push(Arc::clone(&frame), true).unwrap();
        ring.push(Arc::clone(&frame), true).unwrap();
        assert_eq!(notify.take(), vec![7], "one wake per scheduling edge");
        assert_eq!(ring.close(), 2, "two stranded firings");
        assert!(ring.push(frame, true).is_err(), "closed ring refuses");
    }

    #[test]
    fn only_marks_from_other_threads_ring_the_waker() {
        use super::super::poller::{Interest, Poller};
        use std::time::Duration;

        let notify = Arc::new(Notify::new().unwrap());
        let mut poller = Poller::new().unwrap();
        poller.register(notify.waker.fd(), Interest::READ).unwrap();
        let mut rung = || {
            let mut events = Vec::new();
            poller.wait(&mut events, Duration::ZERO).unwrap();
            notify.waker.drain();
            !events.is_empty()
        };
        notify.mark(1);
        assert!(rung(), "with no loop claimed, every mark wakes");
        notify.claim_loop();
        notify.mark(2);
        assert!(!rung(), "the loop's own mark only queues");
        let other = Arc::clone(&notify);
        thread::spawn(move || other.mark(3)).join().unwrap();
        assert!(rung(), "another thread's mark wakes the loop");
        assert!(notify.pending());
        assert_eq!(notify.take(), vec![1, 2, 3]);
        assert!(!notify.pending());
    }

    #[test]
    fn broadcast_encodes_once_and_matches_send() {
        let msg = ServerMsg::Reply {
            id: 3,
            result: crate::protocol::ReplyResult::Ok(crate::protocol::Reply::Pong),
        };
        assert_eq!(broadcast(&HashMap::new(), &msg), 0, "nobody subscribed");

        let notify = Arc::new(Notify::new().unwrap());
        let subs: HashMap<u64, Arc<ConnOutbox>> = (1..=3)
            .map(|id| (id, Arc::new(ConnOutbox::new(id, Arc::clone(&notify)))))
            .collect();
        subs[&3].close();
        assert_eq!(broadcast(&subs, &msg), 1, "the closed ring refuses");

        let front = |id: u64| Arc::clone(&subs[&id].inner.lock().queue[0].bytes);
        let (a, b) = (front(1), front(2));
        assert!(Arc::ptr_eq(&a, &b), "one encoding shared by every ring");
        assert_eq!(&*a, &*encode_frame(&msg).unwrap());
        assert_eq!(a.last(), Some(&b'\n'));

        subs[&1].send(msg).unwrap();
        let q = subs[&1].inner.lock();
        assert_eq!(&*q.queue[1].bytes, &*a, "send and broadcast frame alike");
    }
}
