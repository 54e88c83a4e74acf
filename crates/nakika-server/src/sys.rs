//! Readiness notification for the reactor, over a thin `extern "C"` FFI
//! onto the platform's polling facility.
//!
//! This build environment has no route to a crate registry, so instead of
//! `mio`/`libc` the reactor talks to the kernel directly: `epoll(7)` on
//! Linux, portable `poll(2)` on other Unixes.  The surface is deliberately
//! tiny — a [`Poller`] owns one kernel readiness object and exposes
//! add/modify/remove/wait over `(fd, token, interest)` triples — and it is
//! the only module in the crate allowed to use `unsafe` (the crate is
//! `#![deny(unsafe_code)]`; this module opts back in locally).
//!
//! Level-triggered semantics on both backends: a ready fd keeps being
//! reported until the reactor drains it, which keeps the connection state
//! machine simple (no starvation bookkeeping for edge-triggered wakeups).
//!
//! Two more calls live here for the same reason: a non-blocking IPv4
//! connect, and [`release_free_memory`] for a server that stopped.

#![allow(unsafe_code)]

use std::io;
use std::os::raw::c_int;
use std::os::unix::io::RawFd;

/// One readiness report: the registered token plus which directions fired.
/// Errors and hang-ups are folded into `readable` so the state machine
/// discovers them from the subsequent `read` returning 0 or an error.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    /// The token the fd was registered under.
    pub token: u64,
    /// The fd is readable (or in an error/hang-up state).
    pub readable: bool,
    /// The fd is writable.
    pub writable: bool,
}

/// The interest set for a registered fd.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    /// Wake when the fd becomes readable.
    pub readable: bool,
    /// Wake when the fd becomes writable.
    pub writable: bool,
}

impl Interest {
    /// Read-only interest — the steady state of a keep-alive connection.
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };

    /// Write-only interest — an upstream connection with a request to send.
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
}

#[cfg(target_os = "linux")]
mod backend {
    use super::*;

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLL_CTL_MOD: c_int = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// Mirror of the kernel's `struct epoll_event`.  On x86-64 the kernel
    /// ABI packs it to 12 bytes; other architectures use natural alignment.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn close(fd: c_int) -> c_int;
    }

    /// An `epoll(7)` instance.
    pub struct Poller {
        epfd: RawFd,
    }

    fn check(rc: c_int) -> io::Result<c_int> {
        if rc < 0 {
            Err(io::Error::last_os_error())
        } else {
            Ok(rc)
        }
    }

    fn event_for(interest: Interest, token: u64) -> EpollEvent {
        let mut events = 0;
        if interest.readable {
            // RDHUP rides along with read interest only: once a connection
            // stops reading (write-only drain), a peer's SHUT_WR must not
            // keep waking the reactor — its level-triggered condition never
            // clears and would busy-spin the whole event loop.
            events |= EPOLLIN | EPOLLRDHUP;
        }
        if interest.writable {
            events |= EPOLLOUT;
        }
        EpollEvent {
            events,
            data: token,
        }
    }

    impl Poller {
        /// Creates the epoll instance (`EPOLL_CLOEXEC`).
        pub fn new() -> io::Result<Poller> {
            let epfd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
            Ok(Poller { epfd })
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = event_for(interest, token);
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) }).map(|_| ())
        }

        /// Changes the interest set of a registered fd.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = event_for(interest, token);
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_MOD, fd, &mut ev) }).map(|_| ())
        }

        /// Deregisters `fd`.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            let mut ev = event_for(Interest::READ, 0);
            check(unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) }).map(|_| ())
        }

        /// Blocks until at least one registered fd is ready (`timeout_ms < 0`
        /// waits forever), filling `out` with the ready set.
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            out.clear();
            let mut events = [EpollEvent { events: 0, data: 0 }; 64];
            let n = loop {
                match check(unsafe {
                    epoll_wait(
                        self.epfd,
                        events.as_mut_ptr(),
                        events.len() as c_int,
                        timeout_ms as c_int,
                    )
                }) {
                    Ok(n) => break n,
                    Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                    Err(e) => return Err(e),
                }
            };
            for ev in &events[..n as usize] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: bits & EPOLLOUT != 0,
                });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod backend {
    use super::*;
    use parking_lot::Mutex;
    use std::collections::HashMap;
    use std::os::raw::c_short;

    const POLLIN: c_short = 0x001;
    const POLLOUT: c_short = 0x004;
    const POLLERR: c_short = 0x008;
    const POLLHUP: c_short = 0x010;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: c_int) -> c_int;
    }

    /// A `poll(2)`-backed poller for non-Linux Unixes: the registration
    /// table lives in userspace and is replayed on every wait.
    pub struct Poller {
        registered: Mutex<HashMap<RawFd, (u64, Interest)>>,
    }

    impl Poller {
        /// Creates the poller.
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Mutex::new(HashMap::new()),
            })
        }

        /// Registers `fd` under `token` with the given interest.
        pub fn add(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.lock().insert(fd, (token, interest));
            Ok(())
        }

        /// Changes the interest set of a registered fd.
        pub fn modify(&self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.add(fd, token, interest)
        }

        /// Deregisters `fd`.
        pub fn remove(&self, fd: RawFd) -> io::Result<()> {
            self.registered.lock().remove(&fd);
            Ok(())
        }

        /// Blocks until at least one registered fd is ready.
        pub fn wait(&self, out: &mut Vec<PollEvent>, timeout_ms: i32) -> io::Result<()> {
            out.clear();
            let (mut fds, tokens): (Vec<PollFd>, Vec<u64>) = {
                let registered = self.registered.lock();
                registered
                    .iter()
                    .map(|(fd, (token, interest))| {
                        let mut events = 0;
                        if interest.readable {
                            events |= POLLIN;
                        }
                        if interest.writable {
                            events |= POLLOUT;
                        }
                        (
                            PollFd {
                                fd: *fd,
                                events,
                                revents: 0,
                            },
                            *token,
                        )
                    })
                    .unzip()
            };
            let n = loop {
                let rc = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, timeout_ms as c_int) };
                if rc >= 0 {
                    break rc;
                }
                let e = io::Error::last_os_error();
                if e.kind() != io::ErrorKind::Interrupted {
                    return Err(e);
                }
            };
            if n == 0 {
                return Ok(());
            }
            for (pfd, token) in fds.iter().zip(tokens) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: pfd.revents & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: pfd.revents & POLLOUT != 0,
                });
            }
            Ok(())
        }
    }
}

pub use backend::Poller;

/// Starts a TCP connect without blocking the event loop.  Returns the
/// non-blocking stream plus whether the connect already completed: `false`
/// means it is in progress and the caller must wait for *writability* (then
/// check `take_error`) before using the socket — the reactor registers it
/// with write interest and finishes the handshake from the poller.
#[cfg(target_os = "linux")]
pub(crate) fn connect_nonblocking_v4(
    addr: std::net::SocketAddrV4,
) -> io::Result<(std::net::TcpStream, bool)> {
    use std::os::unix::io::FromRawFd;

    const AF_INET: c_int = 2;
    const SOCK_STREAM: c_int = 1;
    const SOCK_CLOEXEC: c_int = 0o2000000;
    const SOCK_NONBLOCK: c_int = 0o4000;
    const EINPROGRESS: i32 = 115;

    /// Mirror of the kernel's `struct sockaddr_in` (port and address in
    /// network byte order, padded to 16 bytes).
    #[repr(C)]
    struct SockaddrIn {
        sin_family: u16,
        sin_port: u16,
        sin_addr: u32,
        sin_zero: [u8; 8],
    }

    extern "C" {
        fn socket(domain: c_int, ty: c_int, protocol: c_int) -> c_int;
        fn connect(fd: c_int, addr: *const SockaddrIn, len: u32) -> c_int;
    }

    let fd = unsafe { socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC | SOCK_NONBLOCK, 0) };
    if fd < 0 {
        return Err(io::Error::last_os_error());
    }
    // From here the fd is owned by the TcpStream: error paths close it.
    let stream = unsafe { std::net::TcpStream::from_raw_fd(fd) };
    let sockaddr = SockaddrIn {
        sin_family: AF_INET as u16,
        sin_port: addr.port().to_be(),
        sin_addr: u32::from_ne_bytes(addr.ip().octets()),
        sin_zero: [0; 8],
    };
    let rc = unsafe { connect(fd, &sockaddr, std::mem::size_of::<SockaddrIn>() as u32) };
    if rc == 0 {
        return Ok((stream, true));
    }
    let err = io::Error::last_os_error();
    if err.raw_os_error() == Some(EINPROGRESS) {
        return Ok((stream, false));
    }
    Err(err)
}

/// Portable fallback: a bounded blocking connect, switched to non-blocking
/// afterwards.  Reports the connect as already complete, so the reactor's
/// state machine skips its `Connecting` state on these platforms.
#[cfg(all(unix, not(target_os = "linux")))]
pub(crate) fn connect_nonblocking_v4(
    addr: std::net::SocketAddrV4,
) -> io::Result<(std::net::TcpStream, bool)> {
    let stream = std::net::TcpStream::connect_timeout(
        &std::net::SocketAddr::V4(addr),
        std::time::Duration::from_secs(10),
    )?;
    stream.set_nonblocking(true)?;
    Ok((stream, true))
}

/// Hands the heap memory the allocator holds free back to the kernel
/// (glibc's `malloc_trim(3)`), for a server that just stopped.  glibc keeps
/// what a thread allocated in that thread's arena and trims an arena only
/// when a later free in it happens to trigger it; once a server's reactor
/// threads are gone, nothing may ever free into their arenas again, and
/// everything they allocated — a whole cache's worth of bodies — would stay
/// resident in a process that goes on without them.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
pub(crate) fn release_free_memory() {
    extern "C" {
        fn malloc_trim(pad: usize) -> c_int;
    }
    // SAFETY: malloc_trim takes no pointers and touches only allocator
    // state, which it walks under the allocator's own locks.
    unsafe {
        malloc_trim(0);
    }
}

/// Other allocators return freed memory by their own policy.
#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
pub(crate) fn release_free_memory() {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::unix::io::AsRawFd;

    #[test]
    fn poller_reports_readability_and_writability() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(client.as_raw_fd(), 7, Interest::READ).unwrap();

        // Nothing to read yet: a zero-timeout wait reports no events.
        let mut events = Vec::new();
        poller.wait(&mut events, 0).unwrap();
        assert!(events.iter().all(|e| e.token != 7 || !e.readable));

        server.write_all(b"ping").unwrap();
        poller.wait(&mut events, 1000).unwrap();
        let ev = events
            .iter()
            .find(|e| e.token == 7)
            .expect("readable event");
        assert!(ev.readable);

        // Switching interest to writable fires immediately on an idle socket.
        poller
            .modify(
                client.as_raw_fd(),
                7,
                Interest {
                    readable: true,
                    writable: true,
                },
            )
            .unwrap();
        poller.wait(&mut events, 1000).unwrap();
        assert!(events.iter().any(|e| e.token == 7 && e.writable));

        let mut buf = [0u8; 8];
        let mut c = &client;
        assert_eq!(c.read(&mut buf).unwrap(), 4);
        poller.remove(client.as_raw_fd()).unwrap();
    }

    #[test]
    fn nonblocking_connect_completes_under_the_poller() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = match listener.local_addr().unwrap() {
            std::net::SocketAddr::V4(v4) => v4,
            other => panic!("unexpected addr {other}"),
        };
        let (stream, connected) = connect_nonblocking_v4(addr).unwrap();
        if !connected {
            // In-progress: writability signals completion, take_error the
            // verdict — exactly the sequence the reactor runs.
            let poller = Poller::new().unwrap();
            poller
                .add(
                    stream.as_raw_fd(),
                    1,
                    Interest {
                        readable: false,
                        writable: true,
                    },
                )
                .unwrap();
            let mut events = Vec::new();
            poller.wait(&mut events, 2000).unwrap();
            assert!(events.iter().any(|e| e.token == 1 && e.writable));
        }
        assert!(stream.take_error().unwrap().is_none());
        // The socket really is connected: the listener sees the peer.
        let (mut server, _) = listener.accept().unwrap();
        server.write_all(b"ok").unwrap();
        drop(server);
        stream.set_nonblocking(false).unwrap();
        let mut buf = Vec::new();
        let mut s = &stream;
        s.read_to_end(&mut buf).unwrap();
        assert_eq!(buf, b"ok");
    }

    #[test]
    fn nonblocking_connect_to_refused_port_reports_the_error() {
        // Bind-then-drop guarantees a port with no listener.
        let addr = {
            let l = TcpListener::bind("127.0.0.1:0").unwrap();
            match l.local_addr().unwrap() {
                std::net::SocketAddr::V4(v4) => v4,
                other => panic!("unexpected addr {other}"),
            }
        };
        match connect_nonblocking_v4(addr) {
            Err(_) => {} // refused synchronously (portable fallback)
            Ok((stream, connected)) => {
                assert!(!connected, "connect to a dead port cannot complete");
                let poller = Poller::new().unwrap();
                poller
                    .add(
                        stream.as_raw_fd(),
                        1,
                        Interest {
                            readable: false,
                            writable: true,
                        },
                    )
                    .unwrap();
                let mut events = Vec::new();
                poller.wait(&mut events, 2000).unwrap();
                assert!(
                    stream.take_error().unwrap().is_some() || stream.peer_addr().is_err(),
                    "failed connect must surface through take_error/peer_addr"
                );
            }
        }
    }

    #[test]
    fn closed_peer_reports_readable_for_eof_discovery() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (server, _) = listener.accept().unwrap();
        client.set_nonblocking(true).unwrap();

        let poller = Poller::new().unwrap();
        poller.add(client.as_raw_fd(), 3, Interest::READ).unwrap();
        drop(server);
        let mut events = Vec::new();
        poller.wait(&mut events, 1000).unwrap();
        assert!(
            events.iter().any(|e| e.token == 3 && e.readable),
            "hang-up surfaces as readability so read() can observe EOF"
        );
    }
}
