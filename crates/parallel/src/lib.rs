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
//! The workspace's one worker pool, [`JobPool`], with two entry points on
//! one claiming engine:
//!
//! * [`JobPool::par_map`], a scoped, chunk-claiming map that returns its
//!   results in input order. The gradient-redistribution layer
//!   factorization (`GradientRedistribution::factorize_model_pooled`) and
//!   the noise sweeps (`hyflex_runtime::par_noise_sweep`) call it.
//! * [`JobPool::map_fold_in_order`], a map with per-worker state whose
//!   results are folded strictly in input order, at most one item in
//!   flight per worker. The data-parallel `Trainer` calls it: each worker
//!   runs samples on its own model replica and adds the sample's gradients
//!   into the master when the sample's turn comes.
//!
//! The figure binaries size their pools with `--threads`.
//!
//! ## Execution
//!
//! Each call opens a [`std::thread::scope`], so jobs may borrow the
//! caller's environment without `unsafe` (invariant D4). The calling thread
//! is worker 0: a `workers = N` pool spawns `N − 1` scoped helpers per call
//! and a single-worker pool spawns nothing. Workers claim ranges of the
//! input from one shared atomic cursor, so long and short jobs rebalance
//! without per-worker queues.
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
//! count and any claim schedule; [`JobPool::map_fold_in_order`] makes its
//! fold calls in input order, so it is the serial map-then-fold loop. Jobs must not share mutable state, and
//! every per-job RNG must be seeded from the job's own input (as
//! `NoiseSimulator::evaluate` and the per-layer-name SVD seeds do), never
//! from a shared stream.
//!
//! `hyflex-runtime` re-exports [`JobPool`] at its crate root.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

thread_local! {
    /// True while this thread is executing claimed work (a scoped helper or
    /// the participating caller). Nested calls run inline when set.
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
/// only for the duration of a [`JobPool::par_map`] or
/// [`JobPool::map_fold_in_order`] call.
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

    /// How many workers a call over `items` items runs on: 1 when the call
    /// runs inline (a single-worker pool, at most one item, or a call nested
    /// inside a running pool job), otherwise `min(workers, items)`.
    pub fn workers_for(&self, items: usize) -> usize {
        if self.workers == 1 || items <= 1 || IN_POOL.with(Cell::get) {
            1
        } else {
            self.workers.min(items)
        }
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
        let width = self.workers_for(items.len());
        if width == 1 {
            return items.iter().map(f).collect();
        }
        // Chunked dynamic claiming: small enough chunks that uneven job costs
        // rebalance, large enough that the atomic claim is not the hot path.
        let chunk = items.len().div_ceil(self.workers * 4).max(1);
        // Each worker keeps its own order-tagged pieces.
        let mut pieces: Vec<Vec<(usize, Vec<R>)>> = (0..width).map(|_| Vec::new()).collect();
        claim_ranges(items.len(), chunk, &mut pieces, &|out, range| {
            let start = range.start;
            out.push((start, items[range].iter().map(&f).collect()));
        });
        let pieces = pieces.into_iter().flatten().collect();
        assemble_in_order(pieces, items.len()).unwrap_or_else(|| items.iter().map(f).collect())
    }

    /// Maps every element of `items` on the workers and folds each item
    /// with its result, **strictly in input order**, with `fold`.
    ///
    /// Worker `w` owns `states[w]` for the whole call: `map` runs with it,
    /// and so does `fold` for that worker's item, once every earlier item
    /// has been folded. A worker holds one item at a time, so at most
    /// `workers` items are in flight and no result waits in a queue; the
    /// fold sequence is the serial `for item { fold(map(item)) }` for every
    /// worker count. That is what lets a worker hand its state's contents
    /// over to the fold instead of returning a record per item.
    ///
    /// Runs on `min(workers_for(items.len()), states.len())` workers. On
    /// one worker — in exactly the cases [`JobPool::par_map`] runs inline —
    /// it maps and folds item by item on the caller with `states[0]`, since
    /// waiting for a turn needs workers that run concurrently. With no
    /// state nothing is mapped. A panic in `map` or `fold` is re-raised on
    /// the caller once every worker has stopped, as with
    /// [`JobPool::par_map`].
    pub fn map_fold_in_order<T, S, R, M, F>(
        &self,
        items: &[T],
        states: &mut [S],
        map: M,
        mut fold: F,
    ) where
        T: Sync,
        S: Send,
        M: Fn(&mut S, &T) -> R + Sync,
        F: FnMut(&mut S, &T, R) + Send,
    {
        let width = self.workers_for(items.len()).min(states.len());
        if width <= 1 {
            if let Some(state) = states.first_mut() {
                for item in items {
                    let result = map(state, item);
                    fold(state, item, result);
                }
            }
            return;
        }
        let turn = Turn {
            next: Mutex::new((0usize, fold)),
            advanced: Condvar::new(),
            abandoned: AtomicBool::new(false),
        };
        // One item per claim: a worker never holds an item it cannot fold.
        claim_ranges(items.len(), 1, &mut states[..width], &|state, range| {
            let _abandon_on_unwind = AbandonOnUnwind(&turn);
            for index in range {
                if turn.abandoned.load(Ordering::Relaxed) {
                    return;
                }
                let result = map(state, &items[index]);
                let mut next = turn.next.lock().unwrap_or_else(PoisonError::into_inner);
                while next.0 != index {
                    if turn.abandoned.load(Ordering::Relaxed) {
                        return;
                    }
                    next = turn
                        .advanced
                        .wait(next)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                (next.1)(state, &items[index], result);
                next.0 += 1;
                drop(next);
                turn.advanced.notify_all();
            }
        });
    }
}

/// The fold turn of [`JobPool::map_fold_in_order`]: the index of the next
/// item to fold (with the fold itself, so only its holder can call it), a
/// wake-up for the workers waiting on it, and whether a worker has
/// panicked, so the others stop instead of waiting for a turn that will
/// never come.
struct Turn<F> {
    next: Mutex<(usize, F)>,
    advanced: Condvar,
    abandoned: AtomicBool,
}

/// Marks the turn abandoned and wakes every waiter when a worker unwinds.
struct AbandonOnUnwind<'a, F>(&'a Turn<F>);

impl<F> Drop for AbandonOnUnwind<'_, F> {
    fn drop(&mut self) {
        if thread::panicking() {
            self.0.abandoned.store(true, Ordering::Relaxed);
            // Taking the lock orders the flag before any waiter's next check.
            drop(self.0.next.lock());
            self.0.advanced.notify_all();
        }
    }
}

/// The pool's one claiming engine: runs `work` on `states.len()` workers —
/// the caller is worker 0, the rest are scoped helpers — each with its own
/// state. Workers claim `chunk`-sized ranges of `0..len` from one shared
/// cursor until it is exhausted, with the pool flag set so nested calls run
/// inline.
fn claim_ranges<S, W>(len: usize, chunk: usize, states: &mut [S], work: &W)
where
    S: Send,
    W: Fn(&mut S, Range<usize>) + Sync,
{
    let next = AtomicUsize::new(0);
    let claim = |state: &mut S| {
        let _entry = PoolEntry::enter();
        loop {
            let start = next.fetch_add(chunk, Ordering::Relaxed);
            if start >= len {
                break;
            }
            work(state, start..(start + chunk).min(len));
        }
    };
    let claim = &claim;
    let Some((first, helpers)) = states.split_first_mut() else {
        return;
    };
    thread::scope(|s| {
        for state in helpers {
            s.spawn(move || claim(state));
        }
        claim(first);
    });
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

    /// A deliberately uneven job: item `x` spins for `(x * 7) % 13` rounds.
    fn uneven(x: u64) -> u64 {
        (0..(x * 7) % 13 * 200).fold(x, |acc, k| acc.wrapping_mul(31).wrapping_add(k))
    }

    #[test]
    fn map_fold_in_order_equals_the_serial_fold_for_every_worker_count() {
        let items: Vec<u64> = (0..97).collect();
        // A fold that records its call order and mixes non-commutatively.
        let serial = items
            .iter()
            .fold((0u64, Vec::new()), |(acc, mut seen), &x| {
                seen.push(x);
                (acc.wrapping_mul(1_000_003) ^ uneven(x), seen)
            });
        for workers in [1, 2, 3, 8] {
            let pool = JobPool::new(workers);
            let mut states = vec![0u64; workers];
            let (mut acc, mut seen) = (0u64, Vec::new());
            pool.map_fold_in_order(
                &items,
                &mut states,
                |mapped, &x| {
                    *mapped += 1;
                    (x, uneven(x))
                },
                |_, &x, (id, y)| {
                    assert_eq!(x, id);
                    acc = acc.wrapping_mul(1_000_003) ^ y;
                    seen.push(x);
                },
            );
            assert_eq!((acc, &seen), (serial.0, &serial.1), "workers = {workers}");
            assert_eq!(states.iter().sum::<u64>(), 97, "workers = {workers}");
        }
    }

    #[test]
    fn map_fold_in_order_hands_the_fold_the_mapping_workers_state() {
        // Each worker leaves its item in its state; the fold must see it
        // there, in turn, before the worker claims another item.
        let pool = JobPool::new(3);
        let items: Vec<u64> = (0..50).collect();
        let mut states = vec![None; 3];
        let mut folded = Vec::new();
        pool.map_fold_in_order(
            &items,
            &mut states,
            |slot, &x| {
                *slot = Some(uneven(x));
                x
            },
            |slot, _, x| folded.push((x, slot.take() == Some(uneven(x)))),
        );
        assert_eq!(folded, items.iter().map(|&x| (x, true)).collect::<Vec<_>>());
    }

    #[test]
    fn map_fold_in_order_nested_in_a_par_map_job_runs_inline() {
        let pool = JobPool::new(2);
        let outer: Vec<u64> = (0..6).collect();
        let got = pool.par_map(&outer, |&x| {
            assert_eq!(pool.workers_for(3), 1, "nested calls run inline");
            let mut states = vec![0u64; 2];
            let mut sum = 0;
            pool.map_fold_in_order(
                &[x, x + 1, x + 2],
                &mut states,
                |_, y| *y,
                |_, _, y| sum += y,
            );
            (sum, states[1])
        });
        let expected: Vec<(u64, u64)> = outer.iter().map(|x| (3 * x + 3, 0)).collect();
        assert_eq!(got, expected, "only the first state is used inline");
    }

    #[test]
    fn map_fold_in_order_keeps_at_most_one_item_per_worker_in_flight() {
        use std::sync::atomic::AtomicUsize;
        for workers in [2, 3, 4] {
            let pool = JobPool::new(workers);
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let items: Vec<u64> = (0..64).collect();
            let mut states = vec![(); workers];
            pool.map_fold_in_order(
                &items,
                &mut states,
                |_, &x| {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    uneven(x)
                },
                |_, _, _| {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                },
            );
            assert_eq!(in_flight.load(Ordering::SeqCst), 0);
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= workers,
                "{peak} items in flight on {workers} workers"
            );
        }
    }

    #[test]
    fn a_panicking_map_fold_job_reaches_the_caller_and_the_pool_stays_usable() {
        let pool = JobPool::new(3);
        let items: Vec<u64> = (0..64).collect();
        for failing_in_fold in [false, true] {
            let caught = std::panic::catch_unwind(|| {
                let mut states = vec![0u64; 3];
                pool.map_fold_in_order(
                    &items,
                    &mut states,
                    |_, &x| {
                        assert!(failing_in_fold || x != 33, "job 33 fails");
                        x
                    },
                    |_, _, x| assert!(!failing_in_fold || x != 20, "fold 20 fails"),
                );
            });
            assert!(caught.is_err(), "fold failing: {failing_in_fold}");
            assert!(!IN_POOL.with(Cell::get));
        }
        let mut states = vec![0u64; 3];
        let mut sum = 0;
        pool.map_fold_in_order(&items, &mut states, |_, &x| x, |_, _, x| sum += x);
        assert_eq!(sum, 63 * 64 / 2);
    }

    #[test]
    fn map_fold_in_order_without_state_maps_nothing() {
        let mut calls = 0;
        JobPool::new(2).map_fold_in_order(
            &[1, 2, 3],
            &mut [] as &mut [u8],
            |_, x| *x,
            |_, _, _| calls += 1,
        );
        assert_eq!(calls, 0);
    }

    #[test]
    fn workers_for_caps_at_the_item_count() {
        let pool = JobPool::new(4);
        assert_eq!(pool.workers_for(0), 1);
        assert_eq!(pool.workers_for(1), 1);
        assert_eq!(pool.workers_for(3), 3);
        assert_eq!(pool.workers_for(100), 4);
        assert_eq!(JobPool::serial().workers_for(100), 1);
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
