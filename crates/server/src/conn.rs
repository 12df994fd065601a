//! A socket that is either TCP or Unix-domain, with the small uniform
//! surface the server and client need (clone, timeouts, shutdown).

use std::io::{self, IoSlice, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};
use std::os::unix::net::UnixStream;
use std::time::Duration;

/// A connected stream socket.
pub enum Conn {
    /// TCP.
    Tcp(TcpStream),
    /// Unix-domain.
    Unix(UnixStream),
}

impl Conn {
    /// Clone the handle (shared underlying socket).
    pub fn try_clone(&self) -> io::Result<Conn> {
        Ok(match self {
            Conn::Tcp(s) => Conn::Tcp(s.try_clone()?),
            Conn::Unix(s) => Conn::Unix(s.try_clone()?),
        })
    }

    /// Set (or clear) the read timeout.
    pub fn set_read_timeout(&self, t: Option<Duration>) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_read_timeout(t),
            Conn::Unix(s) => s.set_read_timeout(t),
        }
    }

    /// Force blocking mode (accepted sockets may inherit the listener's
    /// non-blocking flag on some platforms).
    pub fn set_blocking(&self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(false),
            Conn::Unix(s) => s.set_nonblocking(false),
        }
    }

    /// Switch non-blocking mode (the reactor runs every socket
    /// non-blocking and multiplexes readiness instead).
    pub fn set_nonblocking(&self, on: bool) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.set_nonblocking(on),
            Conn::Unix(s) => s.set_nonblocking(on),
        }
    }

    /// The raw descriptor, for readiness registration.
    pub fn as_raw_fd(&self) -> RawFd {
        match self {
            Conn::Tcp(s) => s.as_raw_fd(),
            Conn::Unix(s) => s.as_raw_fd(),
        }
    }

    /// Shut down both directions.
    pub fn shutdown_both(&self) {
        let _ = match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Both),
            Conn::Unix(s) => s.shutdown(Shutdown::Both),
        };
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            Conn::Unix(s) => s.write(buf),
        }
    }
    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write_vectored(bufs),
            Conn::Unix(s) => s.write_vectored(bufs),
        }
    }
    fn flush(&mut self) -> io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            Conn::Unix(s) => s.flush(),
        }
    }
}
