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
//! The workspace's one worker pool, [`JobPool`], with two entry points:
//!
//! * [`JobPool::par_map`], a scoped map that claims one item at a time and
//!   returns its results in input order. The gradient-redistribution layer
//!   factorization (`GradientRedistribution::factorize_model_pooled`), the
//!   noise sweeps (`hyflex_runtime::par_noise_sweep`) and pooled
//!   evaluation (`hyflex_transformer::evaluate_model`) call it.
//! * [`JobPool::map_fold_rounds`], a map with per-worker state whose
//!   results are folded in rounds: each worker maps one item, then every
//!   worker folds the round's items, in input order, into its own parts of
//!   the output; optional [`Batches`] boundaries end each batch on every
//!   part and refresh each state from the parts. The data-parallel
//!   `Trainer` calls it: each worker runs one sample on its own model
//!   replica, then adds every replica's gradients into its own share of the
//!   master model's parameters, steps AdamW on that share at the end of a
//!   batch, and copies the new values into its replica.
//!
//! The figure binaries size their pools with `--threads`.
//!
//! ## Execution
//!
//! Each call opens a [`std::thread::scope`], so jobs may borrow the
//! caller's environment without `unsafe` (invariant D4). The calling thread
//! is worker 0: a `workers = N` pool spawns `N − 1` scoped helpers per call
//! and a single-worker pool spawns nothing. `par_map`'s workers claim items
//! from one shared atomic cursor, so long and short jobs rebalance without
//! per-worker queues; in round `r` of a batch, `map_fold_rounds` hands the
//! batch's item `r·N + w` to worker `w`, and it separates its map and fold
//! phases with a barrier that spins briefly before it yields and then
//! parks.
//!
//! Nested calls never over-subscribe: a job already running on a pool
//! worker that re-enters the pool executes inline and serially on that
//! worker (tracked by a thread-local), so a `par_map` of jobs that each
//! `par_map` internally costs exactly one level of parallelism, never `W²`
//! threads.
//!
//! ## Determinism contract
//!
//! [`JobPool::par_map`] returns results **in input order**, so its output
//! is bit-identical to the serial `iter().map().collect()` for every worker
//! count and any claim schedule; [`JobPool::map_fold_rounds`] folds each
//! part with the items in input order, so every part sees the calls of the
//! serial map-then-fold loop. Jobs must not share mutable state, and every
//! per-job RNG must be seeded from the job's own input (as
//! `NoiseSimulator::evaluate` does with each sweep point's seed), never
//! from a shared stream.
//!
//! `hyflex-runtime` re-exports [`JobPool`] at its crate root.

use std::cell::Cell;
use std::num::NonZeroUsize;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Condvar, Mutex, PoisonError, RwLock};
use std::thread;

thread_local! {
    /// True while this thread is executing pool work (a scoped helper or
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
/// [`JobPool::map_fold_rounds`] call.
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
    /// Workers claim one item at a time, so long and short jobs rebalance
    /// down to a single item; the calling thread claims items too, so a
    /// `workers = N` pool spawns only `N − 1` scoped helpers per call. A
    /// panic in `f` is re-raised on the caller once every worker has
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
        // Each worker keeps its own index-tagged results.
        let mut pieces: Vec<Vec<(usize, R)>> = (0..width).map(|_| Vec::new()).collect();
        let next = AtomicUsize::new(0);
        on_workers(&mut pieces, &|out| loop {
            // Relaxed: the cursor only hands out indices; the results travel
            // back through the scope's join.
            let index = next.fetch_add(1, Ordering::Relaxed);
            let Some(item) = items.get(index) else {
                break;
            };
            out.push((index, f(item)));
        });
        let pieces = pieces.into_iter().flatten().collect();
        assemble_in_order(pieces, items.len()).unwrap_or_else(|| items.iter().map(f).collect())
    }

    /// Maps every element of `items` with a worker's own state and folds
    /// each result into `parts` in input order, a round of one item per
    /// worker at a time, with [`Batches`] boundaries. The serial loop it
    /// equals is
    ///
    /// ```text
    /// for batch in items.chunks(batches.size) {
    ///     for item in batch {
    ///         let result = map(state, item)?;
    ///         for part in parts { fold(part, state, item, &result) }
    ///     }
    ///     for part in parts { (batches.end)(part, batch) }
    ///     for part in parts { (batches.refresh)(state, part) }
    /// }
    /// ```
    ///
    /// On `N = min(workers_for(items.len()), states.len())` workers, round
    /// `r` of a batch maps its item `r·N + w` with `states[w]`; after a
    /// barrier, worker `w` folds every item of the round, in input order,
    /// into each of its parts (`parts[w]`, `parts[w + N]`, …), reading the
    /// state that mapped the item, and ends the batch on them after its
    /// last round; a second barrier ends the round. After each batch,
    /// worker `w` refreshes `states[w]` from every part. So at most `N`
    /// items are in flight, each part sees exactly the serial sequence of
    /// calls, and `fold` may read what `map` left in the state: a state is
    /// written only by its own worker and only read by the folds.
    ///
    /// The first item whose map fails ends the call with its error: every
    /// item before it is folded, no item after it, and its batch does not
    /// end. On one worker — in exactly the cases [`JobPool::par_map`] runs
    /// inline — the serial loop runs on the caller with `states[0]`; with
    /// no state nothing is mapped. A panic in any closure is re-raised on
    /// the caller once every worker has stopped, as with
    /// [`JobPool::par_map`].
    ///
    /// # Errors
    ///
    /// Returns the error of the first item, in input order, whose map
    /// fails.
    pub fn map_fold_rounds<T, S, P, R, E, M, F, B, U>(
        &self,
        items: &[T],
        batches: Batches<B, U>,
        states: &mut [S],
        parts: &mut [P],
        map: M,
        fold: F,
    ) -> Result<(), E>
    where
        T: Sync,
        S: Send + Sync,
        P: Send + Sync,
        R: Send + Sync,
        E: Send + Sync,
        M: Fn(&mut S, &T) -> Result<R, E> + Sync,
        F: Fn(&mut P, &S, &T, &R) + Sync,
        B: Fn(&mut P, &[T]) + Sync,
        U: Fn(&mut S, &P) + Sync,
    {
        let size = batches.size.max(1);
        let width = self.workers_for(items.len()).min(states.len());
        if width <= 1 {
            let Some(state) = states.first_mut() else {
                return Ok(());
            };
            for batch in items.chunks(size) {
                for item in batch {
                    let result = map(state, item)?;
                    for part in parts.iter_mut() {
                        fold(part, state, item, &result);
                    }
                }
                for part in parts.iter_mut() {
                    (batches.end)(part, batch);
                }
                for part in parts.iter() {
                    (batches.refresh)(state, part);
                }
            }
            return Ok(());
        }
        // Worker `w`'s state and its latest map result, written only by
        // `w` and read by every fold of the round.
        let slots: Vec<_> = states[..width]
            .iter_mut()
            .map(|state| RwLock::new((state, None)))
            .collect();
        // Written only by their owning worker, read by every refresh.
        let parts: Vec<RwLock<&mut P>> = parts.iter_mut().map(RwLock::new).collect();
        let barrier = RoundBarrier::new(width);
        let mut workers: Vec<usize> = (0..width).collect();
        on_workers(&mut workers, &|&mut w| {
            let _seat = barrier.seat();
            let own_parts = || parts.iter().skip(w).step_by(width);
            for batch in items.chunks(size) {
                let rounds = batch.len().div_ceil(width);
                for (r, round) in batch.chunks(width).enumerate() {
                    if let Some(item) = round.get(w) {
                        let mut slot = slots[w].write().unwrap_or_else(PoisonError::into_inner);
                        let result = map(&mut *slot.0, item);
                        slot.1 = Some(result);
                    }
                    if !barrier.wait() {
                        return;
                    }
                    for (slot, item) in slots.iter().zip(round) {
                        let slot = slot.read().unwrap_or_else(PoisonError::into_inner);
                        let Some(Ok(result)) = &slot.1 else {
                            // Every worker sees the same failed item here
                            // and stops before the next barrier.
                            return;
                        };
                        for part in own_parts() {
                            let mut part = part.write().unwrap_or_else(PoisonError::into_inner);
                            fold(&mut part, &*slot.0, item, result);
                        }
                    }
                    if r + 1 == rounds {
                        for part in own_parts() {
                            let mut part = part.write().unwrap_or_else(PoisonError::into_inner);
                            (batches.end)(&mut part, batch);
                        }
                    }
                    if !barrier.wait() {
                        return;
                    }
                }
                // Every part has ended the batch, and no fold reads a state
                // again before the next round's first barrier.
                let mut slot = slots[w].write().unwrap_or_else(PoisonError::into_inner);
                for part in &parts {
                    let part = part.read().unwrap_or_else(PoisonError::into_inner);
                    (batches.refresh)(&mut *slot.0, &part);
                }
            }
        });
        // The slots hold the last round mapped; a failure can only be there,
        // and its first failed slot is its first failed item.
        for slot in slots {
            let (_, result) = slot.into_inner().unwrap_or_else(PoisonError::into_inner);
            if let Some(Err(e)) = result {
                return Err(e);
            }
        }
        Ok(())
    }
}

/// The batch boundaries of a [`JobPool::map_fold_rounds`] call: after
/// every `size` items, and after the last, `end(part, batch)` runs on every
/// part, and then `refresh(state, part)` updates each state from every
/// part in turn. A data-parallel trainer steps its optimizer in `end` and
/// copies the new parameter values into its replicas in `refresh`.
#[derive(Debug, Clone, Copy)]
pub struct Batches<B, U> {
    /// Items per batch (a zero size counts as 1).
    pub size: usize,
    /// Ends a batch on one part, after its last fold.
    pub end: B,
    /// Updates one state from one part, once every part has ended the
    /// batch.
    pub refresh: U,
}

impl<T, S, P> Batches<fn(&mut P, &[T]), fn(&mut S, &P)> {
    /// All items in one batch, with nothing to do at its end.
    pub fn whole() -> Self {
        Batches {
            size: usize::MAX,
            end: |_, _| {},
            refresh: |_, _| {},
        }
    }
}

/// Spin checks a barrier waiter makes before it starts yielding.
const BARRIER_SPINS: u32 = 1 << 12;
/// Yields a barrier waiter makes before it parks.
const BARRIER_YIELDS: u32 = 64;

/// The reusable barrier between the phases of [`JobPool::map_fold_rounds`].
/// A round's map and fold each take tens of microseconds, so a waiter first
/// spins, then yields (more workers than cores must still make progress),
/// and only then parks on the condition variable. A worker that unwinds
/// abandons the barrier, so the others stop instead of waiting for it.
struct RoundBarrier {
    width: usize,
    /// Workers arrived in the current generation.
    arrived: AtomicUsize,
    /// Completed generations; a waiter leaves when it moves.
    generation: AtomicUsize,
    abandoned: AtomicBool,
    lock: Mutex<()>,
    released: Condvar,
}

impl RoundBarrier {
    fn new(width: usize) -> Self {
        RoundBarrier {
            width,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            abandoned: AtomicBool::new(false),
            lock: Mutex::new(()),
            released: Condvar::new(),
        }
    }

    /// Waits until all `width` workers have arrived. Returns `false` when
    /// the barrier was abandoned, in which case the caller stops. All
    /// atomics are `SeqCst`: the generation bump publishes the reset of
    /// `arrived` and every write the workers made before arriving.
    fn wait(&self) -> bool {
        let generation = self.generation.load(Ordering::SeqCst);
        if self.arrived.fetch_add(1, Ordering::SeqCst) + 1 == self.width {
            self.arrived.store(0, Ordering::SeqCst);
            // Bumped under the lock, so a parked waiter cannot miss it.
            let guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
            self.generation.fetch_add(1, Ordering::SeqCst);
            drop(guard);
            self.released.notify_all();
            return !self.abandoned.load(Ordering::SeqCst);
        }
        let released = || {
            self.generation.load(Ordering::SeqCst) != generation
                || self.abandoned.load(Ordering::SeqCst)
        };
        let mut checks = 0;
        while !released() {
            if checks < BARRIER_SPINS {
                std::hint::spin_loop();
            } else if checks < BARRIER_SPINS + BARRIER_YIELDS {
                thread::yield_now();
            } else {
                let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                while !released() {
                    guard = self
                        .released
                        .wait(guard)
                        .unwrap_or_else(PoisonError::into_inner);
                }
                break;
            }
            checks += 1;
        }
        !self.abandoned.load(Ordering::SeqCst)
    }

    /// A worker's place at the barrier for the whole call: dropping it
    /// while the worker unwinds abandons the barrier.
    fn seat(&self) -> Seat<'_> {
        Seat(self)
    }
}

/// See [`RoundBarrier::seat`].
struct Seat<'a>(&'a RoundBarrier);

impl Drop for Seat<'_> {
    fn drop(&mut self) {
        if thread::panicking() {
            let barrier = self.0;
            barrier.abandoned.store(true, Ordering::SeqCst);
            // Taking the lock orders the flag before any parked waiter's
            // check.
            drop(barrier.lock.lock());
            barrier.released.notify_all();
        }
    }
}

/// Runs `work` on `states.len()` workers — the caller is worker 0, the
/// rest are scoped helpers — each with its own state and with the pool flag
/// set, so nested calls run inline.
fn on_workers<S, W>(states: &mut [S], work: &W)
where
    S: Send,
    W: Fn(&mut S) + Sync,
{
    let run = |state: &mut S| {
        let _entry = PoolEntry::enter();
        work(state);
    };
    let run = &run;
    let Some((first, helpers)) = states.split_first_mut() else {
        return;
    };
    thread::scope(|s| {
        for state in helpers {
            s.spawn(move || run(state));
        }
        run(first);
    });
}

/// Reassembles index-tagged results into a single in-order vector.
///
/// Returns `None` when the results do not cover every input index exactly
/// once, so the caller decides how to recover instead of panicking on a
/// missing slot.
fn assemble_in_order<R>(mut pieces: Vec<(usize, R)>, expected: usize) -> Option<Vec<R>> {
    pieces.sort_unstable_by_key(|(index, _)| *index);
    let complete = pieces.len() == expected && pieces.iter().enumerate().all(|(k, (i, _))| k == *i);
    complete.then(|| pieces.into_iter().map(|(_, r)| r).collect())
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
    fn par_map_claims_one_item_at_a_time() {
        // Item 0 finishes only after every other item has, which needs the
        // other worker to take all of them while item 0 runs: a worker that
        // claimed item 0 together with its neighbours would hold them back.
        let pool = JobPool::new(2);
        let items: Vec<usize> = (0..21).collect();
        let done = AtomicUsize::new(0);
        let got = pool.par_map(&items, |&x| {
            if x == 0 {
                let mut yields = 0;
                while done.load(Ordering::SeqCst) < items.len() - 1 && yields < 1_000_000 {
                    thread::yield_now();
                    yields += 1;
                }
                return done.load(Ordering::SeqCst);
            }
            done.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(got[0], 20, "the items after item 0 waited behind it");
        assert_eq!(&got[1..], &items[1..]);
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
        // worker that claimed the outer item.
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

    /// One part of a round fold in the tests: a non-commutative mix of the
    /// folded results and the items in the order they were folded.
    #[derive(Debug, Clone, Default, PartialEq)]
    struct Part {
        id: u64,
        acc: u64,
        seen: Vec<u64>,
    }

    impl Part {
        fn fold(&mut self, x: u64, y: u64) {
            self.acc = self.acc.wrapping_mul(1_000_003) ^ y.wrapping_add(self.id);
            self.seen.push(x);
        }
    }

    fn parts(n: u64) -> Vec<Part> {
        (0..n)
            .map(|id| Part {
                id,
                ..Part::default()
            })
            .collect()
    }

    #[test]
    fn map_fold_rounds_equals_the_serial_fold_for_every_width() {
        for len in [0u64, 1, 2, 7, 13, 97] {
            let items: Vec<u64> = (0..len).collect();
            let mut serial = parts(5);
            for &x in &items {
                for part in &mut serial {
                    part.fold(x, uneven(x));
                }
            }
            for workers in 1..=8 {
                let pool = JobPool::new(workers);
                let mut states = vec![0u64; workers];
                let mut pooled = parts(5);
                pool.map_fold_rounds(
                    &items,
                    Batches::whole(),
                    &mut states,
                    &mut pooled,
                    |mapped, &x| -> Result<_, ()> {
                        *mapped += 1;
                        Ok((x, uneven(x)))
                    },
                    |part, _, &x, &(id, y)| {
                        assert_eq!(x, id);
                        part.fold(x, y);
                    },
                )
                .unwrap();
                assert_eq!(pooled, serial, "{len} items on {workers} workers");
                assert_eq!(states.iter().sum::<u64>(), len, "{len} items mapped once");
            }
        }
    }

    #[test]
    fn map_fold_rounds_ends_batches_and_refreshes_states_like_the_serial_loop() {
        // Parts fold items and take a step at each batch end; a state is
        // refreshed with every part's step count and hash, and its map
        // mixes what it was refreshed with into its result, so a missed or
        // early refresh changes every later fold.
        let end = |part: &mut Part, batch: &[u64]| part.fold(u64::MAX, batch.len() as u64);
        let refresh = |state: &mut u64, part: &Part| {
            *state = state
                .wrapping_mul(31)
                .wrapping_add(part.acc ^ part.seen.len() as u64);
        };
        let map =
            |state: &mut u64, &x: &u64| -> Result<(u64, u64), ()> { Ok((x, uneven(x) ^ *state)) };
        let fold = |part: &mut Part, _: &u64, &x: &u64, &(_, y): &(u64, u64)| part.fold(x, y);
        for len in [1u64, 9, 13, 40] {
            let items: Vec<u64> = (0..len).collect();
            for size in [1, 3, 5, 16] {
                for workers in 1..=6 {
                    let width = JobPool::new(workers).workers_for(items.len());
                    // The serial loop, with every state refreshed as the
                    // call refreshes the states it maps with.
                    let mut serial = parts(3);
                    let mut serial_states = vec![0u64; width];
                    for batch in items.chunks(size) {
                        for (k, x) in batch.iter().enumerate() {
                            let result = map(&mut serial_states[k % width], x).unwrap();
                            serial
                                .iter_mut()
                                .for_each(|part| fold(part, &0, x, &result));
                        }
                        serial.iter_mut().for_each(|part| end(part, batch));
                        for state in &mut serial_states {
                            serial.iter().for_each(|part| refresh(state, part));
                        }
                    }
                    let mut pooled = parts(3);
                    let mut states = vec![0u64; workers];
                    let batches = Batches { size, end, refresh };
                    JobPool::new(workers)
                        .map_fold_rounds(&items, batches, &mut states, &mut pooled, map, fold)
                        .unwrap();
                    let context = format!("{len} items, batches of {size}, {workers} workers");
                    assert_eq!(pooled, serial, "{context}");
                    assert_eq!(states[..width], serial_states[..], "{context}");
                }
            }
        }
    }

    #[test]
    fn map_fold_rounds_hands_every_fold_the_mapping_workers_state() {
        // Each worker leaves its item's value in its state; every part's
        // fold must find it there, whichever worker folds that part.
        let pool = JobPool::new(3);
        let items: Vec<u64> = (0..50).collect();
        let mut states = vec![None; 3];
        let mut folded = vec![Vec::new(); 4];
        pool.map_fold_rounds(
            &items,
            Batches::whole(),
            &mut states,
            &mut folded,
            |slot, &x| -> Result<_, ()> {
                *slot = Some(uneven(x));
                Ok(x)
            },
            |part, slot, _, &x| part.push((x, *slot == Some(uneven(x)))),
        )
        .unwrap();
        let expected: Vec<(u64, bool)> = items.iter().map(|&x| (x, true)).collect();
        assert!(folded.iter().all(|part| *part == expected), "{folded:?}");
    }

    #[test]
    fn map_fold_rounds_keeps_at_most_one_item_per_worker_in_flight() {
        for workers in [2, 3, 4] {
            let pool = JobPool::new(workers);
            let in_flight = AtomicUsize::new(0);
            let peak = AtomicUsize::new(0);
            let items: Vec<u64> = (0..64).collect();
            let mut states = vec![(); workers];
            // One part: its fold retires each item once.
            let mut retired = [0usize];
            pool.map_fold_rounds(
                &items,
                Batches::whole(),
                &mut states,
                &mut retired,
                |_, &x| -> Result<_, ()> {
                    let now = in_flight.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    Ok(uneven(x))
                },
                |count, _, _, _| {
                    in_flight.fetch_sub(1, Ordering::SeqCst);
                    *count += 1;
                },
            )
            .unwrap();
            assert_eq!((in_flight.load(Ordering::SeqCst), retired[0]), (0, 64));
            let peak = peak.load(Ordering::SeqCst);
            assert!(
                peak <= workers,
                "{peak} items in flight on {workers} workers"
            );
        }
    }

    #[test]
    fn map_fold_rounds_stops_at_the_first_failure_like_the_serial_loop() {
        // Items 17 and 19 fail in the same round at width 4 (and 18 maps
        // fine between them), 30 fails in a later one: the error is 17's,
        // and every part has folded exactly the items before it.
        let items: Vec<u64> = (0..40).collect();
        for workers in 1..=5 {
            let pool = JobPool::new(workers);
            let mut states = vec![(); workers];
            let mut folded = vec![Vec::new(); 3];
            let result = pool.map_fold_rounds(
                &items,
                Batches::whole(),
                &mut states,
                &mut folded,
                |_, &x| {
                    if [17, 19, 30].contains(&x) {
                        Err(x)
                    } else {
                        Ok(uneven(x))
                    }
                },
                |part, _, &x, _| part.push(x),
            );
            assert_eq!(result, Err(17), "workers = {workers}");
            let before: Vec<u64> = (0..17).collect();
            assert!(
                folded.iter().all(|part| *part == before),
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn map_fold_rounds_nested_in_a_par_map_job_runs_inline() {
        let pool = JobPool::new(2);
        let outer: Vec<u64> = (0..6).collect();
        let got = pool.par_map(&outer, |&x| {
            assert_eq!(pool.workers_for(3), 1, "nested calls run inline");
            let mut states = vec![0u64; 2];
            let mut sums = [0u64; 2];
            pool.map_fold_rounds(
                &[x, x + 1, x + 2],
                Batches::whole(),
                &mut states,
                &mut sums,
                |mapped, y| -> Result<_, ()> {
                    *mapped += 1;
                    Ok(*y)
                },
                |sum, _, _, y| *sum += y,
            )
            .unwrap();
            (sums, states)
        });
        let expected: Vec<([u64; 2], Vec<u64>)> =
            outer.iter().map(|x| ([3 * x + 3; 2], vec![3, 0])).collect();
        assert_eq!(got, expected, "only the first state is used inline");
    }

    #[test]
    fn a_panicking_map_fold_job_reaches_the_caller_and_the_pool_stays_usable() {
        let items: Vec<u64> = (0..64).collect();
        for workers in [2, 3, 4] {
            let pool = JobPool::new(workers);
            for failing_in_fold in [false, true] {
                let caught = std::panic::catch_unwind(|| {
                    let mut states = vec![0u64; workers];
                    let mut parts = vec![0u64; workers];
                    pool.map_fold_rounds(
                        &items,
                        Batches::whole(),
                        &mut states,
                        &mut parts,
                        |_, &x| -> Result<_, ()> {
                            assert!(failing_in_fold || x != 33, "job 33 fails");
                            Ok(x)
                        },
                        |_, _, _, &x| assert!(!failing_in_fold || x != 20, "fold 20 fails"),
                    )
                });
                assert!(caught.is_err(), "fold failing: {failing_in_fold}");
                assert!(!IN_POOL.with(Cell::get));
            }
            let mut states = vec![0u64; workers];
            let mut sums = vec![0u64; workers];
            pool.map_fold_rounds(
                &items,
                Batches::whole(),
                &mut states,
                &mut sums,
                |_, &x| -> Result<_, ()> { Ok(x) },
                |sum, _, _, x| *sum += x,
            )
            .unwrap();
            assert!(sums.iter().all(|&s| s == 63 * 64 / 2), "{sums:?}");
        }
    }

    #[test]
    fn map_fold_rounds_without_state_maps_nothing() {
        let mut folds = [0u32];
        JobPool::new(2)
            .map_fold_rounds(
                &[1, 2, 3],
                Batches::whole(),
                &mut [] as &mut [u8],
                &mut folds,
                |_, x| -> Result<i32, ()> { Ok(*x) },
                |count, _, _, _| *count += 1,
            )
            .unwrap();
        assert_eq!(folds, [0]);
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
            assemble_in_order(vec![(2, 3), (0, 1), (1, 2)], 3),
            Some(vec![1, 2, 3])
        );
        assert_eq!(assemble_in_order(vec![(1, 2)], 2), None::<Vec<i32>>);
        assert_eq!(assemble_in_order(vec![(0, 1)], 2), None::<Vec<i32>>);
        assert_eq!(assemble_in_order(vec![(0, 1), (0, 1)], 2), None::<Vec<i32>>);
        assert_eq!(
            assemble_in_order(Vec::<(usize, i32)>::new(), 0),
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
