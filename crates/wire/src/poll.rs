//! Readiness polling without a dependency: a thin wrapper over the
//! OS's level-triggered readiness syscalls, declared `extern "C"`
//! against the libc that `std` already links (the crate keeps its
//! zero-dependency stance — no `libc` crate, no `mio`).
//!
//! Linux gets `epoll` (`epoll_create1`/`epoll_ctl`/`epoll_wait`),
//! which is O(ready) per wait and what every event-driven server on
//! the platform uses. Every other unix gets a portable `poll(2)`
//! fallback that rebuilds its `pollfd` array per wait — O(registered),
//! fine for the fd counts the fallback will ever see.
//!
//! Both backends are *level-triggered*: a socket with unread bytes (or
//! writable space) reports ready on every wait until drained. The
//! event loop leans on that — partial reads/writes never need to
//! re-arm anything.

use std::io;
use std::os::unix::io::RawFd;
use std::time::Duration;

/// What to watch an fd for. Readable is always watched; writable only
/// when a write queue is non-empty.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interest {
    pub readable: bool,
    pub writable: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        readable: true,
        writable: false,
    };
    pub const WRITE: Interest = Interest {
        readable: false,
        writable: true,
    };
    pub const BOTH: Interest = Interest {
        readable: true,
        writable: true,
    };
}

/// One readiness report. `token` is whatever the caller registered;
/// `error`/`hangup` fold EPOLLERR/EPOLLHUP (POLLERR/POLLHUP) — the
/// caller should try a read, which surfaces the real `io::Error` or
/// EOF.
#[derive(Debug, Clone, Copy)]
pub struct PollEvent {
    pub token: u64,
    pub readable: bool,
    pub writable: bool,
    pub error: bool,
    pub hangup: bool,
}

const MAX_EVENTS: usize = 256;

fn last_os_error() -> io::Error {
    io::Error::last_os_error()
}

fn millis(timeout: Option<Duration>) -> i32 {
    match timeout {
        // Round up so a 100µs timeout doesn't busy-spin at 0ms.
        Some(t) => {
            t.as_millis().min(i32::MAX as u128) as i32
                + i32::from(t.subsec_nanos() % 1_000_000 != 0)
        }
        None => -1,
    }
}

// ---------------------------------------------------------------------
// Linux: epoll
// ---------------------------------------------------------------------

#[cfg(target_os = "linux")]
mod imp {
    use super::*;

    // x86-64's epoll_event is packed (12 bytes); other ABIs use
    // natural alignment. Matching the kernel layout here is what the
    // `libc` crate does too.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0o2000000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;

    /// Level-triggered epoll instance.
    pub struct Poller {
        epfd: i32,
        buf: Vec<EpollEvent>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; MAX_EVENTS],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                return Err(last_os_error());
            }
            Ok(())
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            // The event argument is ignored for DEL (must be non-null
            // only on kernels < 2.6.9; pass one anyway).
            self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ)
        }

        pub fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            out.clear();
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    millis(timeout),
                )
            };
            if n < 0 {
                let e = last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for ev in &self.buf[..n as usize] {
                let bits = ev.events;
                out.push(PollEvent {
                    token: ev.data,
                    readable: bits & EPOLLIN != 0,
                    writable: bits & EPOLLOUT != 0,
                    error: bits & EPOLLERR != 0,
                    hangup: bits & EPOLLHUP != 0,
                });
            }
            Ok(n as usize)
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            unsafe { close(self.epfd) };
        }
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = 0;
        if interest.readable {
            m |= EPOLLIN;
        }
        if interest.writable {
            m |= EPOLLOUT;
        }
        m
    }
}

// ---------------------------------------------------------------------
// Other unix: poll(2)
// ---------------------------------------------------------------------

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::*;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// Registry-backed `poll(2)` poller: the pollfd array is rebuilt
    /// from the registration table on every wait.
    pub struct Poller {
        registered: Vec<(RawFd, u64, Interest)>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: Vec::new(),
            })
        }

        pub fn register(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            if self.registered.iter().any(|&(f, _, _)| f == fd) {
                return Err(io::Error::new(
                    io::ErrorKind::AlreadyExists,
                    "fd already registered",
                ));
            }
            self.registered.push((fd, token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            for entry in &mut self.registered {
                if entry.0 == fd {
                    entry.1 = token;
                    entry.2 = interest;
                    return Ok(());
                }
            }
            Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"))
        }

        pub fn deregister(&mut self, fd: RawFd) -> io::Result<()> {
            let before = self.registered.len();
            self.registered.retain(|&(f, _, _)| f != fd);
            if self.registered.len() == before {
                return Err(io::Error::new(io::ErrorKind::NotFound, "fd not registered"));
            }
            Ok(())
        }

        pub fn wait(
            &mut self,
            out: &mut Vec<PollEvent>,
            timeout: Option<Duration>,
        ) -> io::Result<usize> {
            out.clear();
            let mut fds: Vec<PollFd> = self
                .registered
                .iter()
                .map(|&(fd, _, interest)| PollFd {
                    fd,
                    events: {
                        let mut e = 0;
                        if interest.readable {
                            e |= POLLIN;
                        }
                        if interest.writable {
                            e |= POLLOUT;
                        }
                        e
                    },
                    revents: 0,
                })
                .collect();
            let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as u64, millis(timeout)) };
            if n < 0 {
                let e = last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(0);
                }
                return Err(e);
            }
            for (pfd, &(_, token, _)) in fds.iter().zip(&self.registered) {
                if pfd.revents == 0 {
                    continue;
                }
                out.push(PollEvent {
                    token,
                    readable: pfd.revents & POLLIN != 0,
                    writable: pfd.revents & POLLOUT != 0,
                    error: pfd.revents & POLLERR != 0,
                    hangup: pfd.revents & POLLHUP != 0,
                });
            }
            Ok(out.len())
        }
    }
}

#[cfg(unix)]
pub use imp::Poller;

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::os::unix::io::AsRawFd;
    use std::os::unix::net::UnixStream;

    #[test]
    fn readable_after_peer_writes() {
        let (mut a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 7, Interest::READ).unwrap();

        let mut events = Vec::new();
        // Nothing pending yet: a short wait times out empty.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0, "spurious readiness: {events:?}");

        a.write_all(b"x").unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);

        // Level-triggered: still readable until drained.
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        let mut buf = [0u8; 8];
        let got = (&b).read(&mut buf).unwrap();
        assert_eq!(got, 1);
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);
    }

    #[test]
    fn writable_when_asked_and_interest_changes_apply() {
        let (a, _b) = UnixStream::pair().unwrap();
        a.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(a.as_raw_fd(), 1, Interest::BOTH).unwrap();
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        assert!(events[0].writable);
        assert!(!events[0].readable);

        // Drop write interest: an idle socket reports nothing.
        poller.modify(a.as_raw_fd(), 1, Interest::READ).unwrap();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(10)))
            .unwrap();
        assert_eq!(n, 0);

        poller.deregister(a.as_raw_fd()).unwrap();
    }

    #[test]
    fn hangup_or_readable_on_peer_close() {
        let (a, b) = UnixStream::pair().unwrap();
        b.set_nonblocking(true).unwrap();
        let mut poller = Poller::new().unwrap();
        poller.register(b.as_raw_fd(), 9, Interest::READ).unwrap();
        drop(a);
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 1);
        // A closed peer shows up as hangup and/or readable-EOF; either
        // way the caller's read sees it.
        assert!(events[0].readable || events[0].hangup);
    }

    #[test]
    fn tokens_distinguish_many_fds() {
        let pairs: Vec<(UnixStream, UnixStream)> =
            (0..8).map(|_| UnixStream::pair().unwrap()).collect();
        let mut poller = Poller::new().unwrap();
        for (i, (_, b)) in pairs.iter().enumerate() {
            b.set_nonblocking(true).unwrap();
            poller
                .register(b.as_raw_fd(), 100 + i as u64, Interest::READ)
                .unwrap();
        }
        // Write on pairs 2 and 5 only.
        for &i in &[2usize, 5] {
            (&pairs[i].0).write_all(b"y").unwrap();
        }
        let mut events = Vec::new();
        let n = poller
            .wait(&mut events, Some(Duration::from_millis(1000)))
            .unwrap();
        assert_eq!(n, 2);
        let mut tokens: Vec<u64> = events.iter().map(|e| e.token).collect();
        tokens.sort_unstable();
        assert_eq!(tokens, vec![102, 105]);
    }
}
