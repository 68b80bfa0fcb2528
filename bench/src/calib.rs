//! The benchmark's yardstick for how fast the machine is *right now*.
//!
//! The benchmark runs on a few virtual cores of a shared host, and the
//! host is not steady. Measured on it while this benchmark was written:
//! for one to two minutes at a time, code like the product's — short-lived
//! allocations, small trees of strings, a high instruction rate — runs up
//! to 1.6× slower, while a dependent chain of multiplications or a random
//! walk through 64 MB does not slow at all (a neighbour on the cores' other
//! hardware threads); in other spells the hypervisor takes a third of the
//! CPU time away (`steal` in `/proc/stat`). A wall time taken in such a
//! spell says more about the neighbour than about the program: ten-second
//! windows of the very same `simulate` calls differed by a factor of two,
//! and two sets of runs of the same code then disagree by more than any
//! bound worth having.
//!
//! So every time an end-to-end metric reports is divided by the slowdown
//! of a fixed kernel of the benchmark's own ([`reading`]), measured right
//! before and after the operation: the metric reads what the operation
//! would have taken on the quiet machine ([`NOMINAL_MS`]). On the windows
//! above that brought the largest difference between two windows from
//! 116 % down to 14 %. The kernel is benchmark code and never calls the
//! product, so a change to the product moves the metric and not the
//! yardstick. The slowdown itself is reported (`run.host_slowdown`, and in
//! every run's heading): metric × slowdown is what the wall clock read.
//!
//! The match is not exact. `register_grid_10k`'s planner walks a
//! 10 000-subscription catalogue and waits on memory more than the kernel
//! does; in some spells it slows only a third as much, and scaling then
//! overshoots by up to 15 %. Unscaled, its throughput differed by 37 %
//! between two sets of ten runs.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// What one [`reading`] takes on this benchmark's reference machine (the
/// 2-vCPU sandbox it was written on) while the host is quiet, in ms. Only
/// the scale of the scaled times depends on it: parent and change are
/// always measured against the same constant.
pub const NOMINAL_MS: f64 = 1.4;

/// A small element tree, the shape of the data the product handles.
struct Elem {
    name: String,
    text: Option<String>,
    kids: Vec<Elem>,
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

fn grow(depth: u32, x: &mut u64) -> Elem {
    let r = xorshift(x);
    if depth == 0 {
        return Elem {
            name: format!("f{}", r % 13),
            text: Some(format!("{}.{}", r % 1000, r % 97)),
            kids: Vec::new(),
        };
    }
    let kids = 2 + (r % 3) as u32;
    Elem {
        name: format!("e{}", r % 7),
        text: None,
        kids: (0..kids).map(|_| grow(depth - 1, x)).collect(),
    }
}

fn serialize(e: &Elem, out: &mut String) {
    out.push('<');
    out.push_str(&e.name);
    out.push('>');
    if let Some(t) = &e.text {
        out.push_str(t);
    }
    for k in &e.kids {
        serialize(k, out);
    }
    out.push_str("</");
    out.push_str(&e.name);
    out.push('>');
}

/// The kernel: grow a fixed forest of element trees, serialize each, drop
/// them. Always the same work; returns the time it took, in ms.
fn kernel() -> f64 {
    let t0 = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let forest: Vec<Elem> = (0..KERNEL_TREES).map(|_| grow(4, &mut x)).collect();
    let mut bytes = 0;
    for tree in &forest {
        let mut s = String::new();
        serialize(tree, &mut s);
        bytes += s.len();
    }
    black_box(bytes);
    drop(forest);
    t0.elapsed().as_secs_f64() * 1e3
}

const KERNEL_TREES: usize = 64;

/// Kernel runs per core in one reading. The middle one counts: a run
/// that an interrupt or the last operation's clean-up disturbed does not
/// read as a slow machine, a slow spell, which outlasts all three, does.
const KERNEL_REPEATS: usize = 3;

fn middle_kernel() -> f64 {
    let runs: Vec<f64> = (0..KERNEL_REPEATS).map(|_| kernel()).collect();
    stats::median(&runs)
}

/// One reading of the machine's speed: the kernel on every core at once
/// (the product's work lands on all of them), mean of the cores' times.
/// Take it only while no product code runs, in this process or a child:
/// the product's own work must never read as a slow machine.
pub fn reading() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let times: Vec<f64> = std::thread::scope(|scope| {
        let threads: Vec<_> = (0..cores).map(|_| scope.spawn(middle_kernel)).collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("the calibration kernel does not panic"))
            .collect()
    });
    stats::mean(&times)
}

/// Readings taken between the operations of a run. [`Pace::lap`] closes
/// the interval since the previous reading and returns the factor that
/// converts a wall time measured inside it into quiet-machine time.
pub struct Pace {
    readings: Vec<f64>,
}

impl Pace {
    pub fn start() -> Pace {
        // The first kernel run of a process pays for its heap growing.
        reading();
        Pace {
            readings: vec![reading()],
        }
    }

    pub fn lap(&mut self) -> f64 {
        let before = *self.readings.last().expect("start() took a reading");
        let now = reading();
        self.readings.push(now);
        NOMINAL_MS / ((before + now) / 2.0)
    }

    /// Median reading over the nominal one: 1.0 on the quiet reference
    /// machine, 1.5 when the run's wall times were half as long again.
    pub fn slowdown(&self) -> f64 {
        stats::median(&self.readings) / NOMINAL_MS
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_does_the_same_work_every_time() {
        let forest = |seed: u64| {
            let mut x = seed;
            let mut s = String::new();
            serialize(&grow(4, &mut x), &mut s);
            s
        };
        assert_eq!(forest(7), forest(7));
        assert!(forest(7).starts_with("<e"));
        assert!(middle_kernel() > 0.0);
    }

    #[test]
    fn a_lap_scales_by_the_readings_around_it() {
        let mut pace = Pace::start();
        let factor = pace.lap();
        let around = (pace.readings[0] + pace.readings[1]) / 2.0;
        assert_eq!(factor, NOMINAL_MS / around);
        assert_eq!(pace.readings.len(), 2);
        assert!(pace.slowdown() > 0.0);
    }
}
