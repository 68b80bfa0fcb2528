//! Scoped worker threads for the batch simulator's level-parallel
//! sharing groups. No external dependencies: plain `std::thread`.
//!
//! Determinism contract: results come back indexed by input position, so
//! callers observe the same ordering however the OS schedules the
//! workers. Any worker panic propagates to the caller.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::thread;

/// Worker-thread budget for this host (at least 1).
pub fn max_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs `f` over `items` on up to `threads` scoped worker threads and
/// returns the results in input order. Runs inline when parallelism cannot
/// help (a single item or a single thread).
pub fn run_scoped<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    if n <= 1 || threads <= 1 {
        return items.into_iter().map(f).collect();
    }
    let slots: Vec<Mutex<Option<T>>> = items.into_iter().map(|t| Mutex::new(Some(t))).collect();
    let results: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let workers = threads.min(n);
    // `thread::scope` joins all workers before returning and re-raises any
    // worker panic on this thread.
    thread::scope(|s| {
        for _ in 0..workers {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let item = slots[i].lock().unwrap().take().expect("slot taken once");
                let r = f(item);
                *results[i].lock().unwrap() = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|m| m.into_inner().unwrap().expect("worker filled slot"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scoped_results_in_input_order() {
        let items: Vec<usize> = (0..100).collect();
        let out = run_scoped(items.clone(), 4, |i| i * 3);
        assert_eq!(out, items.iter().map(|i| i * 3).collect::<Vec<_>>());
    }

    #[test]
    fn scoped_inline_paths() {
        assert_eq!(run_scoped(vec![7usize], 8, |i| i + 1), vec![8]);
        assert_eq!(run_scoped(vec![1, 2, 3], 1, |i| i * 2), vec![2, 4, 6]);
        assert!(run_scoped(Vec::<usize>::new(), 4, |i| i).is_empty());
    }

    #[test]
    #[should_panic]
    fn scoped_worker_panic_propagates() {
        run_scoped(vec![1usize, 2, 3], 2, |i| {
            assert_ne!(i, 2, "boom");
            i
        });
    }
}
