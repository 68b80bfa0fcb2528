//! Minimal SIGINT/SIGTERM latch, hand-rolled (no libc crate): the handler
//! only sets an atomic flag; `serve`'s main thread looks at it between
//! timed waits for shutdown and runs the same drain-and-flush path a wire
//! `Shutdown` takes.

use std::sync::atomic::{AtomicBool, Ordering};

static SIGNALED: AtomicBool = AtomicBool::new(false);

/// Has SIGINT/SIGTERM arrived since [`install`]?
pub fn triggered() -> bool {
    SIGNALED.load(Ordering::SeqCst)
}

#[cfg(unix)]
mod imp {
    use std::os::raw::c_int;
    use std::sync::atomic::Ordering;

    const SIGINT: c_int = 2;
    const SIGTERM: c_int = 15;

    extern "C" {
        fn signal(signum: c_int, handler: usize) -> usize;
    }

    extern "C" fn on_signal(_sig: c_int) {
        // Only async-signal-safe work here: set the flag, nothing else.
        super::SIGNALED.store(true, Ordering::SeqCst);
    }

    pub fn install() {
        unsafe {
            let handler = on_signal as *const () as usize;
            signal(SIGINT, handler);
            signal(SIGTERM, handler);
        }
    }
}

#[cfg(not(unix))]
mod imp {
    pub fn install() {}
}

/// Installs the handlers (idempotent).
pub fn install() {
    imp::install()
}
