//! The reactor's one system call: `poll(2)`, declared by hand (the
//! workspace takes no `libc` dependency).  This is the only `unsafe` code
//! in the crate; the crate root denies it everywhere else.

use std::ffi::{c_int, c_short};
use std::io;
use std::time::Duration;

/// Readable (or, on a listener, a connection to accept).
pub(crate) const POLLIN: c_short = 0x1;
/// Writable without blocking.
pub(crate) const POLLOUT: c_short = 0x4;

/// `nfds_t`: `unsigned long` on Linux, `unsigned int` on macOS and the BSDs.
#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// `struct pollfd`.
#[repr(C)]
pub(crate) struct PollFd {
    pub fd: c_int,
    pub events: c_short,
    pub revents: c_short,
}

impl PollFd {
    pub(crate) fn new(fd: c_int, events: c_short) -> PollFd {
        PollFd {
            fd,
            events,
            revents: 0,
        }
    }
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: NfdsT, timeout: c_int) -> c_int;
}

/// Block until one of `fds` is ready or `timeout` (rounded up to whole
/// milliseconds) passes; returns how many entries have `revents` set.  A
/// signal ending the wait early counts as a timeout.
pub(crate) fn wait(fds: &mut [PollFd], timeout: Duration) -> io::Result<usize> {
    let millis = timeout.as_micros().div_ceil(1000).min(c_int::MAX as u128) as c_int;
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // `pollfd`s and `nfds` is its length, so the kernel reads and writes
    // only inside it for the duration of the call.  A descriptor that was
    // closed concurrently is reported as `POLLNVAL`, not undefined
    // behaviour.
    let n = unsafe { poll(fds.as_mut_ptr(), fds.len() as NfdsT, millis) };
    if n < 0 {
        let e = io::Error::last_os_error();
        return if e.kind() == io::ErrorKind::Interrupted {
            Ok(0)
        } else {
            Err(e)
        };
    }
    Ok(n as usize)
}
