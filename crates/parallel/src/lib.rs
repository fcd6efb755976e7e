#![forbid(unsafe_code)]
// Unit tests panic by design; the clippy panic-path lints mirror
// hyflex-lint rule E1, which exempts test code the same way.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # hyflex-parallel
//!
//! One parallel primitive for the whole workspace: [`JobPool::par_map`], a
//! scoped, chunk-claiming map that returns its results in input order.
//!
//! The gradient-redistribution layer factorization
//! (`GradientRedistribution::factorize_model_pooled`) and the noise sweeps
//! (`hyflex_runtime::par_noise_sweep`) are its production callers; the
//! figure binaries size their pools with `--threads`.
//!
//! ## Execution
//!
//! Each call opens a [`std::thread::scope`], so jobs may borrow the
//! caller's environment without `unsafe` (invariant D4). The calling thread
//! is worker 0: a `workers = N` pool spawns `N − 1` scoped helpers per call
//! and a single-worker pool spawns nothing. Workers claim fixed-size chunks
//! of the input from one shared atomic cursor, so long and short jobs
//! rebalance without per-worker queues.
//!
//! Nested calls never over-subscribe: a job already running on a pool
//! worker that re-enters `par_map` executes inline and serially on that
//! worker (tracked by a thread-local), so a `par_map` of jobs that each
//! `par_map` internally costs exactly one level of parallelism, never `W²`
//! threads.
//!
//! ## Determinism contract
//!
//! [`JobPool::par_map`] returns results **in input order**, so its output
//! is bit-identical to the serial `iter().map().collect()` for every worker
//! count and any claim schedule. Jobs must not share mutable state, and
//! every per-job RNG must be seeded from the job's own input (as
//! `NoiseSimulator::evaluate` and the per-layer-name SVD seeds do), never
//! from a shared stream.
//!
//! `hyflex-runtime` re-exports [`JobPool`] at its crate root.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

thread_local! {
    /// True while this thread is executing `par_map` chunks (a scoped
    /// helper or the participating caller). Nested calls run inline when
    /// set.
    static IN_POOL: Cell<bool> = const { Cell::new(false) };
}

/// Marks the current thread as a pool worker until dropped, then restores
/// the previous flag — also when a job unwinds, so a caller that catches a
/// job's panic keeps its parallelism.
struct PoolEntry {
    was: bool,
}

impl PoolEntry {
    fn enter() -> Self {
        PoolEntry {
            was: IN_POOL.with(|c| c.replace(true)),
        }
    }
}

impl Drop for PoolEntry {
    fn drop(&mut self) {
        // `try_with`: a drop must not panic, even during thread teardown.
        let _ = IN_POOL.try_with(|c| c.set(self.was));
    }
}

/// A fixed-width pool handle: a plain `Copy` worker count. Threads exist
/// only for the duration of a [`JobPool::par_map`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPool {
    workers: usize,
}

impl Default for JobPool {
    fn default() -> Self {
        JobPool::with_default_parallelism()
    }
}

impl JobPool {
    /// A pool with exactly `workers` worker threads (clamped to ≥ 1).
    pub fn new(workers: usize) -> Self {
        JobPool {
            workers: workers.max(1),
        }
    }

    /// A single-worker pool that runs every job inline on the calling thread
    /// without spawning. This is the zero-overhead default for library entry
    /// points that accept a pool but are usually called serially.
    pub fn serial() -> Self {
        JobPool::new(1)
    }

    /// A pool sized to the machine (`std::thread::available_parallelism`).
    pub fn with_default_parallelism() -> Self {
        JobPool::new(thread::available_parallelism().map_or(1, NonZeroUsize::get))
    }

    /// Number of worker threads this pool runs.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Applies `f` to every element of `items` in parallel and returns the
    /// results in input order (bit-identical to the serial map).
    ///
    /// The work is split into chunks claimed dynamically by the workers, so
    /// long and short jobs rebalance; the calling thread claims chunks too,
    /// so a `workers = N` pool spawns only `N − 1` scoped helpers per call.
    /// A panic in `f` is re-raised on the caller once every worker has
    /// stopped, as with [`std::thread::scope`].
    pub fn par_map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        if self.workers == 1 || items.len() <= 1 || IN_POOL.with(Cell::get) {
            return items.iter().map(f).collect();
        }
        // Chunked dynamic claiming: small enough chunks that uneven job costs
        // rebalance, large enough that the atomic claim is not the hot path.
        let chunk = items.len().div_ceil(self.workers * 4).max(1);
        let next = AtomicUsize::new(0);
        let (tx, rx) = mpsc::channel::<(usize, Vec<R>)>();
        let f = &f;
        let next = &next;
        let claim_chunks = |sink: mpsc::Sender<(usize, Vec<R>)>| {
            let _entry = PoolEntry::enter();
            loop {
                let start = next.fetch_add(chunk, Ordering::Relaxed);
                if start >= items.len() {
                    break;
                }
                let end = (start + chunk).min(items.len());
                let results: Vec<R> = items[start..end].iter().map(f).collect();
                if sink.send((start, results)).is_err() {
                    break;
                }
            }
        };
        let helpers = self.workers.min(items.len()) - 1;
        let pieces = thread::scope(|s| {
            for _ in 0..helpers {
                let tx = tx.clone();
                s.spawn(move || claim_chunks(tx));
            }
            // The caller is worker 0: claim chunks until the range is
            // exhausted, then drain what the helpers produced.
            claim_chunks(tx);
            rx.iter().collect()
        });
        assemble_in_order(pieces, items.len()).unwrap_or_else(|| items.iter().map(f).collect())
    }
}

/// Reassembles order-tagged chunks into a single in-order vector.
///
/// Returns `None` when the pieces do not cover every input element, so the
/// caller decides how to recover instead of panicking on a missing slot.
fn assemble_in_order<R>(mut pieces: Vec<(usize, Vec<R>)>, expected: usize) -> Option<Vec<R>> {
    pieces.sort_unstable_by_key(|(start, _)| *start);
    let mut out = Vec::with_capacity(expected);
    for (start, piece) in pieces {
        if start != out.len() {
            return None;
        }
        out.extend(piece);
    }
    (out.len() == expected).then_some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[test]
    fn par_map_matches_serial_order_for_every_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = items.iter().map(|x| x.wrapping_mul(2654435761)).collect();
        for workers in [1, 2, 3, 8, 64] {
            let pool = JobPool::new(workers);
            let got = pool.par_map(&items, |x| x.wrapping_mul(2654435761));
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn par_map_handles_empty_and_singleton_inputs() {
        let pool = JobPool::new(4);
        assert_eq!(pool.par_map(&[] as &[i32], |x| *x), Vec::<i32>::new());
        assert_eq!(pool.par_map(&[41], |x| x + 1), vec![42]);
    }

    #[test]
    fn scope_jobs_may_borrow_from_the_environment() {
        // par_map runs on a scoped session, so its jobs may borrow
        // non-'static state of the caller, including shared slots.
        let pool = JobPool::new(2);
        let inputs = [1usize, 2, 3, 4];
        let results: Vec<Mutex<usize>> = inputs.iter().map(|_| Mutex::new(0)).collect();
        let slots: Vec<(&usize, &Mutex<usize>)> = inputs.iter().zip(&results).collect();
        pool.par_map(&slots, |(input, slot)| {
            *slot.lock().unwrap() = *input * *input;
        });
        let values: Vec<usize> = results.iter().map(|m| *m.lock().unwrap()).collect();
        assert_eq!(values, vec![1, 4, 9, 16]);
    }

    #[test]
    fn nested_parallel_calls_run_inline_without_thread_explosion() {
        let pool = JobPool::new(4);
        let items: Vec<u64> = (0..40).collect();
        // Each outer job runs a nested par_map, which executes inline on the
        // worker that claimed the outer chunk.
        let expected: Vec<u64> = items.iter().map(|x| 3 * x + 1).collect();
        let got = pool.par_map(&items, |&x| {
            let inner = pool.par_map(&[x, x, x], |y| {
                assert!(IN_POOL.with(Cell::get), "nested call left the pool");
                *y
            });
            1 + inner.iter().sum::<u64>()
        });
        assert_eq!(got, expected);
        assert!(!IN_POOL.with(Cell::get), "caller flag restored");
    }

    #[test]
    fn a_panicking_job_reaches_the_caller_and_the_pool_stays_usable() {
        let pool = JobPool::new(3);
        let items: Vec<u64> = (0..64).collect();
        let caught = std::panic::catch_unwind(|| {
            pool.par_map(&items, |&x| {
                assert!(x != 33, "job 33 fails");
                x
            })
        });
        assert!(caught.is_err());
        assert!(!IN_POOL.with(Cell::get));
        assert_eq!(pool.par_map(&items, |&x| x + 1)[63], 64);
    }

    #[test]
    fn assemble_in_order_detects_missing_chunks() {
        assert_eq!(
            assemble_in_order(vec![(2, vec![3, 4]), (0, vec![1, 2])], 4),
            Some(vec![1, 2, 3, 4])
        );
        assert_eq!(assemble_in_order(vec![(1, vec![2])], 2), None::<Vec<i32>>);
        assert_eq!(assemble_in_order(vec![(0, vec![1])], 2), None::<Vec<i32>>);
        assert_eq!(
            assemble_in_order(Vec::<(usize, Vec<i32>)>::new(), 0),
            Some(vec![])
        );
    }

    #[test]
    fn pool_reports_workers_and_clamps_zero() {
        assert_eq!(JobPool::new(0).workers(), 1);
        assert_eq!(JobPool::serial().workers(), 1);
        assert!(JobPool::with_default_parallelism().workers() >= 1);
        assert!(JobPool::default().workers() >= 1);
    }
}
