//! The four Linux system calls behind the reactor — `epoll_create1`,
//! `epoll_ctl`, `epoll_wait`, `eventfd` — declared against the C library
//! `std` already links (no `libc` crate is vendored). Descriptors come back
//! as [`OwnedFd`]s, so closing them is `std`'s job, and the eventfd is a
//! `File`: its 8-byte reads and writes need no FFI. All of this crate's
//! `unsafe` is here.

use std::fs::File;
use std::io::{self, ErrorKind};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};

#[cfg(not(target_os = "linux"))]
compile_error!("ntx-serve's reactor is epoll + eventfd: Linux only");

pub(crate) const EPOLLIN: u32 = 0x001;
pub(crate) const EPOLLOUT: u32 = 0x004;
/// Reported whether asked for or not, like [`EPOLLHUP`].
pub(crate) const EPOLLERR: u32 = 0x008;
pub(crate) const EPOLLHUP: u32 = 0x010;

const EPOLL_CTL_ADD: i32 = 1;
const EPOLL_CTL_DEL: i32 = 2;
const EPOLL_CTL_MOD: i32 = 3;
/// `EPOLL_CLOEXEC` and `EFD_CLOEXEC` are both `O_CLOEXEC`.
const CLOEXEC: i32 = 0o2_000_000;
const EFD_NONBLOCK: i32 = 0o4_000;

/// `struct epoll_event`; the kernel ABI packs it on x86_64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub(crate) struct Event {
    /// The `EPOLL*` bits watched for, or found ready.
    pub(crate) events: u32,
    /// Whatever the descriptor was registered under.
    pub(crate) token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut Event) -> i32;
    fn epoll_wait(epfd: i32, events: *mut Event, maxevents: i32, timeout: i32) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

fn cvt(ret: i32) -> io::Result<i32> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// Take ownership of the descriptor a system call just returned.
fn owned(ret: i32) -> io::Result<OwnedFd> {
    let fd = cvt(ret)?;
    // SAFETY: `fd` is non-negative, so the call that returned it opened it,
    // and nothing else has seen it: this is its only owner.
    Ok(unsafe { OwnedFd::from_raw_fd(fd) })
}

/// A level-triggered epoll set.
pub(crate) struct Epoll(OwnedFd);

impl Epoll {
    pub(crate) fn new() -> io::Result<Epoll> {
        // SAFETY: takes no pointer; `owned` checks the return value.
        owned(unsafe { epoll_create1(CLOEXEC) }).map(Epoll)
    }

    fn ctl(&self, op: i32, fd: &impl AsRawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = Event { events, token };
        // SAFETY: `ev` is a live `epoll_event` for the whole call, and the
        // kernel copies it before returning (`EPOLL_CTL_DEL` ignores it).
        cvt(unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd.as_raw_fd(), &mut ev) }).map(drop)
    }

    /// Start watching `fd` for `events`, reported under `token`.
    pub(crate) fn add(&self, fd: &impl AsRawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Replace the events `fd` is watched for.
    pub(crate) fn modify(&self, fd: &impl AsRawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Stop watching `fd` (closing its last descriptor does the same).
    pub(crate) fn delete(&self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    /// Block, with no timeout, until something watched is ready; fills the
    /// front of `buf` and returns how many events that is.
    pub(crate) fn wait(&self, buf: &mut [Event]) -> io::Result<usize> {
        let cap = i32::try_from(buf.len()).unwrap_or(i32::MAX);
        loop {
            // SAFETY: `buf` is writable for `cap <= buf.len()` events and
            // the kernel writes at most `cap` of them.
            match cvt(unsafe { epoll_wait(self.0.as_raw_fd(), buf.as_mut_ptr(), cap, -1) }) {
                Ok(n) => return Ok(n as usize),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }
}

/// A non-blocking eventfd, counter 0: writing a `u64` makes it readable,
/// reading it resets it.
pub(crate) fn new_eventfd() -> io::Result<File> {
    // SAFETY: takes no pointer; `owned` checks the return value.
    owned(unsafe { eventfd(0, CLOEXEC | EFD_NONBLOCK) }).map(File::from)
}
