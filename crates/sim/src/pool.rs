//! A reusable buffer pool for simulator states.
//!
//! The trajectory-tree ensemble engine forks every distinct noisy
//! trajectory from an ideal checkpoint: clone the frontier state, apply
//! the trajectory's first fault, replay its suffix, measure, discard.
//! Allocating a fresh state per fork would put an `O(2ⁿ)` (or `O(n²)`
//! for the tableau) allocation on the hot path for every unique
//! trajectory; the [`StatePool`] instead recycles returned buffers
//! through [`SimBackend::copy_from`], so steady-state forking is a
//! `memcpy` and the allocation count is bounded by the peak number of
//! simultaneously live forks — a number the engine controls (one in
//! serial mode, one replay wave in parallel mode), not the shot count.
//!
//! The pool is deliberately dumb: a mutex-guarded free list. Checkouts
//! happen once per *unique trajectory* (not per shot, not per gate), so
//! contention is negligible next to the suffix replay each checkout
//! pays for.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::backend::SimBackend;

/// A free list of backend states, recycled across trajectory forks.
///
/// ```
/// use qdb_sim::{pool::StatePool, SimBackend, State};
///
/// let checkpoint = State::zero(3);
/// let pool: StatePool<State> = StatePool::new();
/// let fork = pool.acquire_copy(&checkpoint);   // allocates (pool empty)
/// pool.release(fork);
/// let fork = pool.acquire_copy(&checkpoint);   // recycles: no allocation
/// assert_eq!(fork, checkpoint);
/// assert_eq!(pool.states_allocated(), 1);
/// # pool.release(fork);
/// ```
#[derive(Debug, Default)]
pub struct StatePool<B> {
    free: Mutex<Vec<B>>,
    allocated: AtomicUsize,
    outstanding: AtomicUsize,
}

impl<B: SimBackend> StatePool<B> {
    /// An empty pool.
    #[must_use]
    pub fn new() -> Self {
        Self {
            free: Mutex::new(Vec::new()),
            allocated: AtomicUsize::new(0),
            outstanding: AtomicUsize::new(0),
        }
    }

    /// Check out a state holding an exact copy of `source`.
    ///
    /// Reuses a released buffer via [`SimBackend::copy_from`] when one
    /// is available, otherwise clones `source` fresh (counted by
    /// [`states_allocated`](StatePool::states_allocated)). Either way
    /// the result is bit-for-bit `source`.
    pub fn acquire_copy(&self, source: &B) -> B {
        self.outstanding.fetch_add(1, Ordering::Relaxed);
        let recycled = self.free.lock().expect("state pool lock").pop();
        match recycled {
            Some(mut state) => {
                state.copy_from(source);
                state
            }
            None => {
                self.allocated.fetch_add(1, Ordering::Relaxed);
                source.clone()
            }
        }
    }

    /// Return a state to the free list for future
    /// [`acquire_copy`](StatePool::acquire_copy) calls to recycle.
    pub fn release(&self, state: B) {
        self.outstanding.fetch_sub(1, Ordering::Relaxed);
        self.free.lock().expect("state pool lock").push(state);
    }

    /// Number of fresh allocations this pool has performed — its peak
    /// simultaneous checkout count. The trajectory-tree benchmarks
    /// assert this stays `O(1)` in the shot count.
    #[must_use]
    pub fn states_allocated(&self) -> usize {
        self.allocated.load(Ordering::Relaxed)
    }

    /// Number of states currently checked out (acquired but not yet
    /// released). The execution-governor tests assert this census
    /// returns to zero on every exit path — normal completion, budget
    /// trips, and injected faults alike — proving no fork buffer leaks
    /// when a run is cut short.
    #[must_use]
    pub fn outstanding(&self) -> usize {
        self.outstanding.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::state::State;

    #[test]
    fn pool_recycles_instead_of_allocating() {
        let mut checkpoint = State::zero(4);
        checkpoint.apply_1q(0, &gates::h());
        let pool: StatePool<State> = StatePool::new();
        for round in 0..16 {
            let fork = pool.acquire_copy(&checkpoint);
            assert_eq!(fork, checkpoint, "round {round}");
            pool.release(fork);
        }
        assert_eq!(pool.states_allocated(), 1);
    }

    #[test]
    fn pool_copies_are_bit_exact_and_independent() {
        let mut checkpoint = State::zero(3);
        checkpoint.apply_1q(1, &gates::h());
        checkpoint.apply_1q(1, &gates::t());
        let pool: StatePool<State> = StatePool::new();
        let mut fork = pool.acquire_copy(&checkpoint);
        for i in 0..checkpoint.dim() {
            assert_eq!(
                fork.amplitude(i).re.to_bits(),
                checkpoint.amplitude(i).re.to_bits()
            );
            assert_eq!(
                fork.amplitude(i).im.to_bits(),
                checkpoint.amplitude(i).im.to_bits()
            );
        }
        // Counters ride along (a fork has undergone the prefix's work).
        assert_eq!(fork.gate_ops(), checkpoint.gate_ops());
        // Mutating the fork leaves the checkpoint alone.
        fork.apply_1q(0, &gates::x());
        assert!((checkpoint.probability(1) - 0.0).abs() < 1e-12);
        pool.release(fork);
    }

    #[test]
    fn pool_handles_mixed_sizes() {
        // A recycled buffer of the wrong size is simply overwritten.
        let small = State::zero(2);
        let big = State::zero(5);
        let pool: StatePool<State> = StatePool::new();
        let fork = pool.acquire_copy(&small);
        pool.release(fork);
        let fork = pool.acquire_copy(&big);
        assert_eq!(fork, big);
        pool.release(fork);
        let fork = pool.acquire_copy(&small);
        assert_eq!(fork, small);
        pool.release(fork);
        assert_eq!(pool.states_allocated(), 1);
    }

    #[test]
    fn outstanding_census_tracks_checkouts() {
        let checkpoint = State::zero(3);
        let pool: StatePool<State> = StatePool::new();
        assert_eq!(pool.outstanding(), 0);
        let a = pool.acquire_copy(&checkpoint);
        let b = pool.acquire_copy(&checkpoint);
        assert_eq!(pool.outstanding(), 2);
        pool.release(a);
        assert_eq!(pool.outstanding(), 1);
        pool.release(b);
        assert_eq!(pool.outstanding(), 0);
    }

    #[test]
    fn concurrent_checkouts_allocate_at_peak() {
        let checkpoint = State::zero(3);
        let pool: StatePool<State> = StatePool::new();
        let a = pool.acquire_copy(&checkpoint);
        let b = pool.acquire_copy(&checkpoint);
        assert_eq!(pool.states_allocated(), 2);
        pool.release(a);
        pool.release(b);
        let c = pool.acquire_copy(&checkpoint);
        let d = pool.acquire_copy(&checkpoint);
        assert_eq!(pool.states_allocated(), 2);
        pool.release(c);
        pool.release(d);
    }
}
