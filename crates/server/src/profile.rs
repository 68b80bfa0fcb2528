//! An opt-in CPU sampler for `dss serve`, hand-rolled like `signal.rs` (no
//! libc crate). Nothing is armed unless [`ENV`] names a directory: then
//! `setitimer(ITIMER_PROF)` delivers SIGPROF as the process burns CPU, and
//! the handler records where it interrupted — the instruction pointer plus
//! the first words above the stack pointer that point into this
//! executable's text, i.e. likely return addresses — and what the
//! interrupted thread does ([`Thread`], set by [`label`]). Only samples taken
//! while a run's sources play ([`window`], from `StartSources` to
//! `Teardown`) are kept: a whole-life profile is mostly boot and
//! registration. On `Stop` the samples and the executable mappings of
//! `/proc/self/maps` are written to `<dir>/<peer>-<pid>.prof` ([`dump`]),
//! which `scripts/profile_fleet.sh` resolves into a bucket table.
//!
//! A sample is a timer tick, not a fixed slice of CPU: the kernel fires the
//! profiling timer at most once per scheduler tick, and a process holds one
//! pending SIGPROF at a time, so compare shares, or counts per session.

use std::cell::Cell;
use std::path::Path;

/// What a thread of `dss serve` does, as its samples are labelled; an
/// unlabelled thread's are `other`.
#[derive(Debug, Clone, Copy)]
pub enum Thread {
    /// Reads one connection: parses frames, hands batches to the plane.
    Reader = 1,
    /// Runs one hosted node's passes.
    Worker = 2,
    /// Replays a hosted source.
    Source = 3,
}

/// The labels a sample's thread is written with, by [`Thread`] value.
const THREADS: [&str; 4] = ["other", "reader", "worker", "source"];

thread_local! {
    /// This thread's [`Thread`]: a plain cell without a destructor, so the
    /// signal handler reads it without initialising anything.
    static ROLE: Cell<u8> = const { Cell::new(0) };
}

/// Labels the calling thread's samples.
pub fn label(thread: Thread) {
    ROLE.with(|role| role.set(thread as u8));
}

/// The environment variable that arms the sampler: the directory the
/// samples are written to.
const ENV: &str = "DSS_PROFILE_DIR";

/// Arms the sampler if [`ENV`] is set; a sampler that cannot be armed is
/// reported and left off.
pub fn arm_from_env() {
    if let Some(dir) = std::env::var_os(ENV) {
        if let Err(e) = imp::arm(Path::new(&dir)) {
            eprintln!("dss serve: cannot arm the CPU sampler ({e}); running without it");
        }
    }
}

/// Opens (a run's `StartSources`) or closes (its `Teardown`) the window in
/// which samples are kept.
pub fn window(open: bool) {
    imp::window(open)
}

/// Stops the timer and writes the samples, if the sampler is armed.
pub fn dump(peer: &str) {
    if let Err(e) = imp::dump(peer) {
        eprintln!("dss serve: writing the CPU samples failed: {e}");
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use std::ffi::c_void;
    use std::fmt::Write as _;
    use std::io;
    use std::os::raw::{c_int, c_ulong};
    use std::path::{Path, PathBuf};
    use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering::Relaxed};
    use std::sync::OnceLock;

    /// Addresses per sample: the interrupted instruction, then up to seven
    /// return addresses.
    const FRAMES: usize = 8;
    /// Samples a process keeps; later ones are counted as dropped.
    const CAP: usize = 1 << 15;
    /// Stack words a sample scans for return addresses.
    const SCAN_WORDS: usize = 256;
    const PAGE: u64 = 4096;

    static RING: [AtomicU64; CAP * FRAMES] = [const { AtomicU64::new(0) }; CAP * FRAMES];
    /// Per sample, the interrupted thread's [`super::Thread`].
    static ROLES: [AtomicU8; CAP] = [const { AtomicU8::new(0) }; CAP];
    static NEXT: AtomicUsize = AtomicUsize::new(0);
    static DROPPED: AtomicU64 = AtomicU64::new(0);
    static KEEP: AtomicBool = AtomicBool::new(false);
    /// This executable's text: `[TEXT_LO, TEXT_HI)`.
    static TEXT_LO: AtomicU64 = AtomicU64::new(0);
    static TEXT_HI: AtomicU64 = AtomicU64::new(0);
    static DIR: OnceLock<PathBuf> = OnceLock::new();

    const SIGPROF: c_int = 27;
    const ITIMER_PROF: c_int = 2;
    const SA_SIGINFO: c_int = 4;
    const SA_RESTART: c_int = 0x1000_0000;
    /// Byte offsets of `uc_mcontext.gregs[REG_RSP]` and `[REG_RIP]` in the
    /// x86-64 Linux `ucontext_t` a handler is handed.
    const UC_RSP: usize = 160;
    const UC_RIP: usize = 168;

    #[repr(C)]
    struct TimeVal {
        sec: i64,
        usec: i64,
    }

    #[repr(C)]
    struct ITimerVal {
        interval: TimeVal,
        value: TimeVal,
    }

    /// glibc's `struct sigaction` on x86-64.
    #[repr(C)]
    struct SigAction {
        action: usize,
        mask: [u64; 16],
        flags: c_int,
        restorer: usize,
    }

    #[repr(C)]
    struct IoVec {
        base: *mut c_void,
        len: usize,
    }

    extern "C" {
        fn sigaction(sig: c_int, act: *const SigAction, old: *mut SigAction) -> c_int;
        fn setitimer(which: c_int, new: *const ITimerVal, old: *mut ITimerVal) -> c_int;
        fn getpid() -> c_int;
        fn process_vm_readv(
            pid: c_int,
            local: *const IoVec,
            local_count: c_ulong,
            remote: *const IoVec,
            remote_count: c_ulong,
            flags: c_ulong,
        ) -> isize;
    }

    /// The SIGPROF handler: async-signal-safe work only — atomic stores, a
    /// read of the thread's label, and one `process_vm_readv`, which reads
    /// this process's own stack and fails instead of faulting where it is
    /// not mapped.
    extern "C" fn on_prof(_sig: c_int, _info: *mut c_void, context: *mut c_void) {
        if !KEEP.load(Relaxed) {
            return;
        }
        let slot = NEXT.fetch_add(1, Relaxed);
        if slot >= CAP {
            DROPPED.fetch_add(1, Relaxed);
            return;
        }
        let context = context.cast::<u8>();
        // SAFETY: the kernel hands a SA_SIGINFO handler a valid ucontext_t.
        let (rsp, rip) = unsafe {
            let reg = |at: usize| context.add(at).cast::<u64>().read_unaligned();
            (reg(UC_RSP), reg(UC_RIP))
        };
        let mut stack = [0u64; SCAN_WORDS];
        // Two pieces split at a page boundary: a read that runs off the
        // stack's last page still returns the first.
        let split = ((rsp / PAGE + 1) * PAGE - rsp).min(8 * SCAN_WORDS as u64) as usize;
        let local = IoVec {
            base: stack.as_mut_ptr().cast(),
            len: 8 * SCAN_WORDS,
        };
        let remote = [
            IoVec {
                base: rsp as *mut c_void,
                len: split,
            },
            IoVec {
                base: (rsp + split as u64) as *mut c_void,
                len: 8 * SCAN_WORDS - split,
            },
        ];
        // SAFETY: `local` covers `stack`; the kernel checks `remote`.
        let read = unsafe { process_vm_readv(getpid(), &local, 1, remote.as_ptr(), 2, 0) };
        let words = read.max(0) as usize / 8;
        let text = TEXT_LO.load(Relaxed)..TEXT_HI.load(Relaxed);
        let role = super::ROLE.try_with(|role| role.get()).unwrap_or(0);
        ROLES[slot].store(role, Relaxed);
        let out = &RING[slot * FRAMES..(slot + 1) * FRAMES];
        out[0].store(rip, Relaxed);
        let calls = stack[..words].iter().filter(|w| text.contains(w));
        for (cell, &word) in out[1..].iter().zip(calls) {
            cell.store(word, Relaxed);
        }
    }

    /// The `r-xp` lines of `/proc/self/maps`.
    fn text_maps() -> io::Result<Vec<String>> {
        let maps = std::fs::read_to_string("/proc/self/maps")?;
        Ok(maps
            .lines()
            .filter(|l| l.split_whitespace().nth(1) == Some("r-xp"))
            .map(str::to_string)
            .collect())
    }

    pub fn arm(dir: &Path) -> io::Result<()> {
        std::fs::create_dir_all(dir)?;
        let exe = std::fs::read_link("/proc/self/exe")?;
        for line in text_maps()? {
            let mut fields = line.split_whitespace();
            let range = fields.next().unwrap_or_default();
            if fields.nth(4).map(Path::new) != Some(exe.as_path()) {
                continue;
            }
            let mut ends = range.split('-').map(|x| u64::from_str_radix(x, 16));
            if let (Some(Ok(lo)), Some(Ok(hi))) = (ends.next(), ends.next()) {
                TEXT_LO.store(lo, Relaxed);
                TEXT_HI.store(hi, Relaxed);
            }
        }
        let _ = DIR.set(dir.to_path_buf());
        let action = SigAction {
            action: on_prof as *const () as usize,
            mask: [0; 16],
            flags: SA_SIGINFO | SA_RESTART,
            restorer: 0,
        };
        let every = || TimeVal { sec: 0, usec: 1000 };
        let timer = ITimerVal {
            interval: every(),
            value: every(),
        };
        // SAFETY: plain FFI calls with valid pointers.
        unsafe {
            if sigaction(SIGPROF, &action, std::ptr::null_mut()) != 0
                || setitimer(ITIMER_PROF, &timer, std::ptr::null_mut()) != 0
            {
                return Err(io::Error::last_os_error());
            }
        }
        Ok(())
    }

    pub fn window(open: bool) {
        KEEP.store(open, Relaxed);
    }

    pub fn dump(peer: &str) -> io::Result<()> {
        let Some(dir) = DIR.get() else {
            return Ok(());
        };
        KEEP.store(false, Relaxed);
        let off = ITimerVal {
            interval: TimeVal { sec: 0, usec: 0 },
            value: TimeVal { sec: 0, usec: 0 },
        };
        // SAFETY: a plain FFI call with a valid pointer.
        unsafe { setitimer(ITIMER_PROF, &off, std::ptr::null_mut()) };
        let pid = std::process::id();
        let mut out = format!("# dss serve CPU samples: peer {peer}, pid {pid}\n");
        let _ = writeln!(out, "dropped {}", DROPPED.load(Relaxed));
        for line in text_maps()? {
            let _ = writeln!(out, "map {line}");
        }
        for slot in 0..NEXT.load(Relaxed).min(CAP) {
            let frames = &RING[slot * FRAMES..(slot + 1) * FRAMES];
            let thread = super::THREADS.get(ROLES[slot].load(Relaxed) as usize);
            let _ = write!(out, "sample {}", thread.unwrap_or(&"other"));
            for cell in frames
                .iter()
                .map(|c| c.load(Relaxed))
                .take_while(|&a| a != 0)
            {
                let _ = write!(out, " {cell:x}");
            }
            out.push('\n');
        }
        std::fs::write(dir.join(format!("{peer}-{pid}.prof")), out)
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use std::io;
    use std::path::Path;

    pub fn arm(_dir: &Path) -> io::Result<()> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "the sampler needs x86-64 Linux",
        ))
    }

    pub fn window(_open: bool) {}

    pub fn dump(_peer: &str) -> io::Result<()> {
        Ok(())
    }
}
