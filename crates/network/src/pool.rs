//! The batch simulator's worker threads: a forest of jobs, each started as
//! soon as its parent has finished. No external dependencies: plain
//! `std::thread`, and the only module of this crate that starts threads.
//!
//! The workers are spawned once per call and take the most recently
//! readied job first, so a forest runs depth-first and a parent's result
//! is usually read on the core that produced it.
//!
//! Determinism contract: results come back indexed by job, so callers
//! observe the same ordering however the OS schedules the workers. A
//! panicking job stops every worker from starting another, and its panic
//! is re-raised on the caller once all of them have returned.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::{Condvar, Mutex, OnceLock};
use std::thread;

/// Worker-thread budget for this host (at least 1).
pub fn max_parallelism() -> usize {
    thread::available_parallelism().map_or(1, |n| n.get())
}

/// Runs a forest of jobs on up to `threads` workers — the caller and
/// `threads - 1` scoped threads — and returns the results by job index.
/// `jobs[i]` is `(parent, job)`: a job with a parent starts after the
/// parent has finished, and `f` receives the parent's result with it.
///
/// # Panics
/// Panics if a parent's index is not smaller than its child's (which
/// rules out cycles, so the forest always drains), and re-raises the
/// first panic of `f`.
pub fn run_forest<J, R, F>(jobs: Vec<(Option<usize>, J)>, threads: usize, f: F) -> Vec<R>
where
    J: Send,
    R: Send + Sync,
    F: Fn(J, Option<&R>) -> R + Sync,
{
    let n = jobs.len();
    let (parents, jobs): (Vec<_>, Vec<_>) = jobs.into_iter().map(|(p, j)| (p, Some(j))).unzip();
    let mut children = vec![Vec::new(); n];
    let mut ready = Vec::new();
    // Backwards, so that every list is descending and, taken from the
    // back, starts with its first job.
    for (i, parent) in parents.iter().enumerate().rev() {
        match *parent {
            Some(p) => {
                assert!(p < i, "job {i}'s parent {p} is not an earlier job");
                children[p].push(i);
            }
            None => ready.push(i),
        }
    }
    // Set once, by the worker that ran the job; read by its children.
    let results: Vec<OnceLock<R>> = (0..n).map(|_| OnceLock::new()).collect();
    let state = Mutex::new(State {
        ready,
        jobs,
        left: n,
        panic: None,
    });
    // Signalled when jobs become ready, when the last one finishes and
    // when one panics.
    let wake = Condvar::new();
    const UNPOISONED: &str = "no job runs under the forest's lock, so none poisons it";
    let lock = || state.lock().expect(UNPOISONED);

    // One worker: starts ready jobs until every job has finished or one
    // has panicked.
    let work = || {
        let mut st = lock();
        loop {
            if st.left == 0 || st.panic.is_some() {
                return;
            }
            let Some(i) = st.ready.pop() else {
                st = wake.wait(st).expect(UNPOISONED);
                continue;
            };
            let job = st.jobs[i].take().expect("a job starts once");
            drop(st);
            let parent = parents[i].map(|p| results[p].get().expect("parent finished"));
            let ran = panic::catch_unwind(AssertUnwindSafe(|| {
                // The job started once, so its cell is still empty.
                let _ = results[i].set(f(job, parent));
            }));
            st = lock();
            match ran {
                Ok(()) => {
                    st.left -= 1;
                    st.ready.extend(&children[i]);
                }
                Err(payload) => {
                    st.panic.get_or_insert(payload);
                }
            }
            // This worker takes one ready job itself; wake the others for
            // the rest, or to return.
            if st.ready.len() > 1 || st.left == 0 || st.panic.is_some() {
                wake.notify_all();
            }
        }
    };
    thread::scope(|s| {
        for _ in 1..threads.min(n) {
            s.spawn(work);
        }
        work();
    });

    let state = state.into_inner().expect(UNPOISONED);
    if let Some(payload) = state.panic {
        panic::resume_unwind(payload);
    }
    results
        .into_iter()
        .map(|r| r.into_inner().expect("every job ran"))
        .collect()
}

struct State<J> {
    /// Jobs whose parent has finished, the most recently readied last.
    ready: Vec<usize>,
    /// Taken by the worker that starts the job.
    jobs: Vec<Option<J>>,
    /// Jobs not finished yet.
    left: usize,
    /// The first panic of a job: no job starts after it.
    panic: Option<Box<dyn Any + Send>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::TestRng;
    use std::sync::mpsc;
    use std::time::Duration;

    /// A random forest of `n` jobs: each job's parent, if any, is an
    /// earlier one.
    fn forest(rng: &mut TestRng, n: usize) -> Vec<Option<usize>> {
        (0..n)
            .map(|i| (i > 0 && rng.usize_below(4) != 0).then(|| rng.usize_below(i)))
            .collect()
    }

    /// A job's result folds its own value into its parent's, so a job that
    /// ran before its parent finished could not produce it.
    fn fold(i: usize, parent: Option<&(usize, u64)>) -> (usize, u64) {
        let base = parent.map_or(17, |&(_, v)| v);
        (i, base.wrapping_mul(31).wrapping_add(i as u64))
    }

    #[test]
    fn forest_results_equal_a_sequential_run() {
        let mut rng = TestRng::from_seed(0x5eed);
        for case in 0..60 {
            let parents = forest(&mut rng, case);
            let mut want: Vec<(usize, u64)> = Vec::new();
            for (i, p) in parents.iter().enumerate() {
                let r = fold(i, p.map(|p| &want[p]));
                want.push(r);
            }
            for threads in [1, 2, 8] {
                let jobs = parents.iter().copied().zip(0..case).collect();
                let got = run_forest(jobs, threads, |i, parent: Option<&(usize, u64)>| {
                    // Every job sees exactly its own parent's result.
                    assert_eq!(parent.map(|r| r.0), parents[i]);
                    if i % 3 == 0 {
                        thread::yield_now();
                    }
                    fold(i, parent)
                });
                assert_eq!(got, want, "{case} jobs on {threads} threads");
            }
        }
    }

    /// The panicking job has siblings and children of its own; none of
    /// that may keep the caller waiting. Each run happens on a helper
    /// thread, so a hang fails the test instead of wedging the suite.
    #[test]
    fn a_job_panic_is_raised_on_the_caller() {
        let parents = [None, Some(0), Some(0), Some(2), Some(2), None, Some(5)];
        for threads in [1, 2, 8] {
            let (tx, rx) = mpsc::channel();
            thread::spawn(move || {
                let jobs = parents.iter().copied().zip(0..parents.len()).collect();
                let ran = panic::catch_unwind(|| {
                    run_forest(jobs, threads, |i, _: Option<&usize>| {
                        assert_ne!(i, 2, "boom");
                        i
                    })
                });
                let message = ran.map_err(|p| p.downcast_ref::<String>().cloned());
                tx.send(message).unwrap();
            });
            let ran = rx
                .recv_timeout(Duration::from_secs(5))
                .unwrap_or_else(|_| panic!("run_forest hung on {threads} threads"));
            let message = ran.expect_err("the job's panic reaches the caller");
            assert!(
                message.is_some_and(|m| m.contains("boom")),
                "{threads} threads"
            );
        }
    }

    #[test]
    #[should_panic(expected = "not an earlier job")]
    fn a_parent_after_its_child_is_rejected() {
        run_forest(vec![(Some(1), ()), (None, ())], 2, |_, _: Option<&()>| ());
    }
}
