//! The generator's side of the wire: NDJSON connections multiplexed
//! with `poll(2)`.
//!
//! A generator thread owns several sockets (its writer, its share of
//! the subscribers, a reader) and must stamp a line when it becomes
//! readable, not when the thread next gets round to that socket — so
//! it blocks in one `poll` over all of them and takes the time the
//! moment `poll` returns. The server's own epoll wrapper is not used:
//! the instrument must not change when the program under test does.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::raw::{c_int, c_ulong};
use std::os::unix::io::{AsRawFd, RawFd};

use ode_server::{Command, Reply, ReplyResult, Request, ServerMsg};

const POLLIN: i16 = 0x001;
const POLLERR: i16 = 0x008;
const POLLHUP: i16 = 0x010;

/// `struct pollfd` from `<poll.h>`.
#[repr(C)]
#[derive(Clone, Copy)]
struct PollFd {
    fd: c_int,
    events: i16,
    revents: i16,
}

/// `cpu_set_t` from `<sched.h>`: 1024 processors, one bit each.
type CpuSet = [u64; 16];

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout_ms: c_int) -> c_int;
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_int, len: u32) -> c_int;
    fn sched_getaffinity(pid: c_int, cpusetsize: usize, mask: *mut CpuSet) -> c_int;
    fn sched_setaffinity(pid: c_int, cpusetsize: usize, mask: *const CpuSet) -> c_int;
}

/// Pin the calling thread — and so every thread it goes on to spawn,
/// the server's included — to the first processor it is allowed on, and
/// return that processor's number.
///
/// On the two-vCPU guest this benchmark was built on, a wake-up that
/// crosses processors costs tens of microseconds, and where the
/// scheduler happened to place the generator, reactor and worker threads
/// decided every number: the same code ran `wire_light` at 5–6 k
/// transactions a second spread over both processors and at 13 k on one,
/// and ten runs spread three times wider unpinned. One processor gives
/// every run the same placement. (The price: effects that need real
/// parallelism are not measured; see the README.)
pub fn pin_to_one_cpu() -> io::Result<usize> {
    let mut set: CpuSet = [0; 16];
    let size = std::mem::size_of::<CpuSet>();
    // SAFETY: `set` is a live, writable CpuSet and `size` is its size in
    // bytes, so the kernel writes only inside it.
    if unsafe { sched_getaffinity(0, size, &mut set) } != 0 {
        return Err(io::Error::last_os_error());
    }
    let (word, bits) = set
        .iter()
        .enumerate()
        .find(|(_, bits)| **bits != 0)
        .ok_or_else(|| io::Error::other("empty processor affinity mask"))?;
    let bit = bits.trailing_zeros() as usize;
    let mut one: CpuSet = [0; 16];
    one[word] = 1 << bit;
    // SAFETY: `one` is a live CpuSet of the size passed; the kernel only
    // reads it.
    if unsafe { sched_setaffinity(0, size, &one) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(word * 64 + bit)
}

/// A reusable read-interest poll set.
pub struct PollSet {
    fds: Vec<PollFd>,
}

impl PollSet {
    pub fn new(fds: &[RawFd]) -> PollSet {
        PollSet {
            fds: fds
                .iter()
                .map(|&fd| PollFd {
                    fd,
                    events: POLLIN,
                    revents: 0,
                })
                .collect(),
        }
    }

    /// Block until at least one descriptor is readable (or has hung
    /// up) or `timeout_ms` passes; calls `ready` with the position of
    /// each such descriptor in the slice given to [`PollSet::new`].
    pub fn wait(&mut self, timeout_ms: i32, mut ready: impl FnMut(usize)) -> io::Result<()> {
        for f in &mut self.fds {
            f.revents = 0;
        }
        // SAFETY: `fds` is a live, exclusively borrowed Vec of
        // `#[repr(C)]` pollfd records and `nfds` is exactly its length,
        // so the kernel reads and writes only memory this Vec owns.
        let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as c_ulong, timeout_ms) };
        if n < 0 {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                return Ok(());
            }
            return Err(e);
        }
        for (i, f) in self.fds.iter().enumerate() {
            if f.revents & (POLLIN | POLLERR | POLLHUP) != 0 {
                ready(i);
            }
        }
        Ok(())
    }
}

/// One NDJSON connection. The socket stays in blocking mode: requests
/// are single small lines (a write never fills the send buffer), and
/// reads happen only after `poll` reported the socket readable, so
/// neither call blocks in practice.
pub struct Line {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Bytes of `buf` already handed out as lines.
    consumed: usize,
    /// Landing area for one `read`.
    scratch: Box<[u8; 64 * 1024]>,
    next_id: u64,
    pub bytes_out: u64,
    pub bytes_in: u64,
}

impl Line {
    pub fn connect(addr: SocketAddr) -> io::Result<Line> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Line {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            consumed: 0,
            scratch: Box::new([0; 64 * 1024]),
            next_id: 1,
            bytes_out: 0,
            bytes_in: 0,
        })
    }

    pub fn fd(&self) -> RawFd {
        self.stream.as_raw_fd()
    }

    /// Serialize `cmd` as the next request of this connection. Ids
    /// count up from 1, so a connection's request stream is a pure
    /// function of its commands.
    pub fn encode(&mut self, cmd: Command) -> String {
        let id = self.next_id;
        self.next_id += 1;
        encode_request(id, cmd)
    }

    /// Write one already-encoded request line.
    pub fn send_line(&mut self, line: &str) -> io::Result<()> {
        self.bytes_out += line.len() as u64;
        self.stream.write_all(line.as_bytes())
    }

    pub fn send(&mut self, cmd: Command) -> io::Result<()> {
        let line = self.encode(cmd);
        self.send_line(&line)
    }

    /// Ask the kernel to acknowledge what this socket receives at once
    /// (`TCP_QUICKACK`) instead of waiting up to 40 ms (adaptively up to
    /// 200 ms) for a reply to piggyback on. The kernel takes the flag
    /// back after a while, so it is set again after every read.
    ///
    /// Only the history reader uses this: its replies are two small
    /// writes on a socket the server leaves Nagle's algorithm on for, so
    /// the second waits for the ACK of the first, and that timer — a
    /// heuristic of the *client's* kernel, in 40 ms quanta — would
    /// otherwise be most of `read_p50_us` and all of its spread.
    pub fn quick_ack(&self) {
        const IPPROTO_TCP: c_int = 6;
        const TCP_QUICKACK: c_int = 12;
        let on: c_int = 1;
        // SAFETY: `on` is a live c_int and its size is the length passed;
        // the kernel only reads it. A failure merely leaves the default
        // behaviour, so the result is ignored.
        unsafe {
            setsockopt(self.fd(), IPPROTO_TCP, TCP_QUICKACK, &on, 4);
        }
    }

    /// One `read` into the line buffer; `Ok(false)` on end of stream.
    /// Call after `poll` reported the socket readable.
    pub fn fill(&mut self) -> io::Result<bool> {
        if self.consumed > 0 && self.consumed == self.buf.len() {
            self.buf.clear();
            self.consumed = 0;
        }
        let n = loop {
            match self.stream.read(&mut self.scratch[..]) {
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                other => break other?,
            }
        };
        self.buf.extend_from_slice(&self.scratch[..n]);
        self.bytes_in += n as u64;
        Ok(n > 0)
    }

    /// The next complete buffered line, parsed; `None` when only a
    /// partial line (or nothing) is left.
    pub fn next_msg(&mut self) -> io::Result<Option<ServerMsg>> {
        let rest = &self.buf[self.consumed..];
        let Some(nl) = rest.iter().position(|&b| b == b'\n') else {
            if self.consumed > 0 {
                self.buf.drain(..self.consumed);
                self.consumed = 0;
            }
            return Ok(None);
        };
        let text = std::str::from_utf8(&rest[..nl])
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
        let msg = serde_json::from_str::<ServerMsg>(text).map_err(|e| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad server line {text:?}: {e}"),
            )
        })?;
        self.consumed += nl + 1;
        Ok(Some(msg))
    }

    /// Block for the next message (set-up and verification paths, where
    /// nothing is being timed).
    pub fn recv(&mut self) -> io::Result<ServerMsg> {
        loop {
            if let Some(m) = self.next_msg()? {
                return Ok(m);
            }
            if !self.fill()? {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "server closed the connection",
                ));
            }
        }
    }

    /// Block for the next reply, skipping pushed lines; an error reply
    /// becomes an `Err`.
    pub fn recv_reply(&mut self) -> io::Result<Reply> {
        loop {
            if let ServerMsg::Reply { result, .. } = self.recv()? {
                return reply_ok(result);
            }
        }
    }

    /// Send one command and block for its reply.
    pub fn call(&mut self, cmd: Command) -> io::Result<Reply> {
        self.send(cmd)?;
        self.recv_reply()
    }
}

pub fn encode_request(id: u64, cmd: Command) -> String {
    let mut line = serde_json::to_string(&Request { id, cmd }).expect("requests always serialize");
    line.push('\n');
    line
}

/// Unwrap a reply; the workloads are built so that no request fails,
/// so a wire error is reported as an I/O error by the blocking paths.
pub fn reply_ok(result: ReplyResult) -> io::Result<Reply> {
    match result {
        ReplyResult::Ok(r) => Ok(r),
        ReplyResult::Err(e) => Err(io::Error::other(format!(
            "server refused a request: {} ({})",
            e.message, e.code
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    #[test]
    fn poll_reports_only_the_readable_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut a = Line::connect(addr).unwrap();
        let (mut a_peer, _) = listener.accept().unwrap();
        let b = Line::connect(addr).unwrap();
        let (_b_peer, _) = listener.accept().unwrap();

        let mut set = PollSet::new(&[a.fd(), b.fd()]);
        let mut ready = Vec::new();
        set.wait(0, |i| ready.push(i)).unwrap();
        assert!(ready.is_empty(), "nothing sent yet");

        // One and a half lines: the first parses, the rest waits.
        let first = b"{\"Reply\":{\"id\":1,\"result\":{\"Ok\":\"Pong\"}}}\n{\"Reply\"";
        let second = b":{\"id\":2,\"result\":{\"Ok\":\"Unit\"}}}\n";
        a_peer.write_all(first).unwrap();
        set.wait(1000, |i| ready.push(i)).unwrap();
        assert_eq!(ready, vec![0]);
        assert!(a.fill().unwrap());
        assert!(matches!(
            a.next_msg().unwrap(),
            Some(ServerMsg::Reply {
                id: 1,
                result: ReplyResult::Ok(Reply::Pong)
            })
        ));
        assert!(a.next_msg().unwrap().is_none(), "partial line is kept");
        a_peer.write_all(second).unwrap();
        assert!(matches!(a.recv_reply().unwrap(), Reply::Unit));
        assert_eq!(a.bytes_in, (first.len() + second.len()) as u64);
    }

    #[test]
    fn request_ids_count_from_one() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut c = Line::connect(listener.local_addr().unwrap()).unwrap();
        assert_eq!(c.encode(Command::Ping), "{\"id\":1,\"cmd\":\"Ping\"}\n");
        assert_eq!(c.encode(Command::Commit), "{\"id\":2,\"cmd\":\"Commit\"}\n");
    }
}
