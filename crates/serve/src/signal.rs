//! SIGTERM/SIGINT → a graceful-shutdown flag the server polls.
//!
//! The CI serve-oracle lane asserts that `kill -TERM` produces a clean
//! exit (code 0) — which requires actually catching the signal. `std`
//! exposes no signal API and the workspace is dependency-free, so this
//! module declares the two libc calls it needs (`signal(2)`,
//! `raise(3)`) itself. This is — deliberately — the only `unsafe`
//! outside `tagdist-dataset`'s mmap module.
//!
//! # Safety
//!
//! The FFI surface is kept trivially auditable:
//!
//! 1. `signal` and `raise` are declared with their C prototypes
//!    (handlers passed as `sighandler_t`, here `usize`); both are in
//!    libc, which `std` already links on every unix target.
//! 2. The installed handler does exactly one async-signal-safe thing:
//!    a relaxed-to-SeqCst store to a `static AtomicBool`. No
//!    allocation, no locks, no formatting — nothing that could
//!    deadlock or reenter the runtime from signal context.
//! 3. The flag is only ever *read* by ordinary threads
//!    ([`shutdown_flag`]); a missed store is impossible to observe as
//!    corruption, at worst the loop polls once more.

#![allow(unsafe_code)]

use std::sync::atomic::{AtomicBool, Ordering};

/// The process-wide shutdown flag the handler stores into.
static SHUTDOWN: AtomicBool = AtomicBool::new(false);

/// The flag [`install`] wires SIGTERM/SIGINT to. Servers poll it;
/// anything (tests included) may set it directly to request shutdown.
pub fn shutdown_flag() -> &'static AtomicBool {
    &SHUTDOWN
}

#[cfg(unix)]
mod unix {
    use super::{Ordering, SHUTDOWN};
    use std::ffi::c_int;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;
    /// `SIG_ERR` is `(sighandler_t)-1`.
    const SIG_ERR: usize = usize::MAX;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    #[cfg(test)]
    extern "C" {
        fn raise(signum: c_int) -> c_int;
    }

    /// The handler: one atomic store, nothing else (async-signal-safe
    /// by construction — see the module's `# Safety` notes).
    extern "C" fn on_signal(_signum: c_int) {
        SHUTDOWN.store(true, Ordering::SeqCst);
    }

    /// Routes SIGTERM and SIGINT to the shutdown flag. Returns `false`
    /// if the OS rejected either registration (the caller may still
    /// serve; Ctrl-C then kills instead of draining).
    pub fn install() -> bool {
        let handler: extern "C" fn(c_int) = on_signal;
        // SAFETY: `signal` is the documented libc prototype; the
        // handler passed is a valid `extern "C"` fn for the whole
        // program lifetime and touches only an atomic (obligation 2).
        let term = unsafe { signal(SIGTERM, handler as usize) };
        // SAFETY: as above, for SIGINT.
        let int = unsafe { signal(SIGINT, handler as usize) };
        term != SIG_ERR && int != SIG_ERR
    }

    /// Sends SIGTERM to the current process — test-only plumbing to
    /// prove the handler path end to end.
    #[cfg(test)]
    pub fn raise_sigterm() {
        // SAFETY: `raise(3)` with a valid signal number is always safe
        // to call; the installed handler only stores to an atomic.
        let _ = unsafe { raise(SIGTERM) };
    }
}

/// Routes SIGTERM/SIGINT to [`shutdown_flag`]; `false` when the
/// platform has no signals (non-unix) or registration failed.
pub fn install() -> bool {
    #[cfg(unix)]
    {
        unix::install()
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;

    #[test]
    fn sigterm_sets_the_flag_instead_of_killing_us() {
        assert!(install());
        assert!(!shutdown_flag().load(Ordering::SeqCst));
        unix::raise_sigterm();
        assert!(shutdown_flag().load(Ordering::SeqCst));
        // Leave the flag clean for any other test in this process.
        shutdown_flag().store(false, Ordering::SeqCst);
    }
}
