//! A std-only scoped-thread job pool for embarrassingly parallel runs.
//!
//! Every experiment in this repository is a set of *independent*
//! simulations: each job owns its seed, builds its own system, and
//! touches no shared mutable state. This module fans such jobs out
//! across OS threads and collects the results **in input order**, so a
//! parallel run is byte-identical to the serial one — the schedule of
//! workers affects only wall-clock time, never results.
//!
//! The pool is deliberately minimal: [`std::thread::scope`] plus an
//! atomic work index. No channels, no queues, no external crates. Jobs
//! here are whole bus simulations (milliseconds to seconds each), so
//! per-job overhead is irrelevant and work-stealing granularity of one
//! job is ideal.

use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Number of hardware threads available to this process (at least 1).
fn available_jobs() -> usize {
    std::thread::available_parallelism().map(NonZeroUsize::get).unwrap_or(1)
}

/// Resolves a requested job count: `0` means "use all available
/// hardware parallelism", any other value is taken literally.
pub fn resolve_jobs(requested: usize) -> usize {
    if requested == 0 {
        available_jobs()
    } else {
        requested
    }
}

/// Applies `f` to every input and returns the outputs in input order.
///
/// `jobs` is the worker-thread count (`0` = all available cores). With
/// one worker (or one input) the map runs inline on the caller's
/// thread — no threads are spawned, which keeps `--jobs 1` a true
/// serial baseline. Workers claim inputs through an atomic cursor, so
/// slow jobs do not convoy fast ones.
///
/// # Panics
///
/// Propagates the panic of any job (the scope joins all workers first).
///
/// ```
/// let squares = socsim::pool::parallel_map(4, &[1, 2, 3, 4], |_, &x| x * x);
/// assert_eq!(squares, vec![1, 4, 9, 16]);
/// ```
pub fn parallel_map<I, T, F>(jobs: usize, inputs: &[I], f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let workers = resolve_jobs(jobs).min(inputs.len().max(1));
    if workers <= 1 {
        return inputs.iter().enumerate().map(|(i, input)| f(i, input)).collect();
    }
    let cursor = AtomicUsize::new(0);
    // One uncontended mutex per result slot (each slot is written by
    // exactly one worker, read only after the scope joins).
    let slots: Vec<Mutex<Option<T>>> = inputs.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                let Some(input) = inputs.get(i) else { break };
                let value = f(i, input);
                *slots[i].lock().expect("result slot poisoned") = Some(value);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot poisoned")
                .expect("scope joined, every slot filled")
        })
        .collect()
}

/// Runs two independent closures, concurrently when `jobs > 1`
/// (`0` = auto), and returns both results.
///
/// ```
/// let (a, b) = socsim::pool::join(2, || 6 * 7, || "done");
/// assert_eq!((a, b), (42, "done"));
/// ```
pub fn join<A, B, FA, FB>(jobs: usize, fa: FA, fb: FB) -> (A, B)
where
    A: Send,
    B: Send,
    FA: FnOnce() -> A + Send,
    FB: FnOnce() -> B + Send,
{
    if resolve_jobs(jobs) <= 1 {
        return (fa(), fb());
    }
    std::thread::scope(|scope| {
        let handle = scope.spawn(fb);
        let a = fa();
        let b = match handle.join() {
            Ok(b) => b,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        (a, b)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn preserves_input_order_regardless_of_worker_count() {
        let inputs: Vec<u64> = (0..100).collect();
        let serial = parallel_map(1, &inputs, |i, &x| (i as u64) * 1000 + x);
        for jobs in [2, 3, 8, 64] {
            let parallel = parallel_map(jobs, &inputs, |i, &x| (i as u64) * 1000 + x);
            assert_eq!(parallel, serial, "jobs={jobs}");
        }
    }

    #[test]
    fn runs_every_job_exactly_once() {
        let counter = AtomicU64::new(0);
        let inputs: Vec<u32> = (0..57).collect();
        let out = parallel_map(4, &inputs, |_, &x| {
            counter.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(out.len(), 57);
        assert_eq!(counter.load(Ordering::Relaxed), 57);
    }

    #[test]
    fn degenerate_shapes_are_fine() {
        let empty: Vec<u32> = Vec::new();
        assert!(parallel_map(8, &empty, |_, &x: &u32| x).is_empty());
        assert_eq!(parallel_map(8, &[7], |_, &x| x + 1), vec![8]);
        // More workers than jobs: the pool clamps.
        assert_eq!(parallel_map(64, &[1, 2], |_, &x| x), vec![1, 2]);
    }

    #[test]
    fn zero_means_available_parallelism() {
        assert_eq!(resolve_jobs(0), available_jobs());
        assert_eq!(resolve_jobs(3), 3);
        assert!(available_jobs() >= 1);
        let out = parallel_map(0, &[1, 2, 3], |_, &x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn join_returns_both_results() {
        assert_eq!(join(0, || 1, || 2), (1, 2));
        assert_eq!(join(1, || 1, || 2), (1, 2));
        assert_eq!(join(4, || "a".to_owned(), || vec![1]), ("a".to_owned(), vec![1]));
    }

    #[test]
    #[should_panic(expected = "scoped thread panicked")]
    fn job_panics_propagate() {
        let inputs: Vec<u32> = (0..32).collect();
        let _ = parallel_map(4, &inputs, |_, &x| {
            if x == 13 {
                panic!("job panicked on {x}");
            }
            x
        });
    }
}
