//! Shared exact-oracle verdict cache.
//!
//! The exact cross-check is a deterministic, RNG-free function of the
//! program and the tolerance: it reads the ideal state's exact outcome
//! distribution and compares it against the asserted state class,
//! consuming no randomness from the ensemble stream. That makes its
//! verdicts safe to cache across sessions — a warm resubmission runs
//! with cross-checking *disabled* (the engine still simulates the ideal
//! state to sample from it, but skips the oracle's
//! `outcome_distribution` scans) and splices the cached verdicts into
//! its reports, leaving every statistical bit unchanged.
//!
//! Keys are `(program fingerprint, tolerance bits)`; noisy sessions
//! bypass the cache entirely (their engines interleave the check with
//! noise plumbing, so the server does not assume reuse is sound).
//! Same LRU + counter shape as
//! [`PlanCache`](qdb_circuit::PlanCache).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use qdb_core::Verdict;

#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct OracleKey {
    fingerprint: u64,
    tol_bits: u64,
}

#[derive(Debug)]
struct Slot {
    verdicts: Vec<Option<Verdict>>,
    touched: u64,
}

#[derive(Debug, Default)]
struct Shelf {
    slots: HashMap<OracleKey, Slot>,
    tick: u64,
}

/// LRU cache of exact-oracle verdict vectors, shared by every session
/// of one server. Hit/miss counters are cumulative and monotone.
#[derive(Debug)]
pub struct OracleCache {
    shelf: Mutex<Shelf>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl OracleCache {
    /// A cache holding at most `capacity` verdict vectors (clamped to
    /// at least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            shelf: Mutex::new(Shelf::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The cached verdict vector for `(fingerprint, tol)`, bumping its
    /// recency; `None` (and a miss) when cold.
    #[must_use]
    pub fn get(&self, fingerprint: u64, tol: f64) -> Option<Vec<Option<Verdict>>> {
        let key = OracleKey {
            fingerprint,
            tol_bits: tol.to_bits(),
        };
        let mut shelf = self.shelf.lock().expect("oracle cache poisoned");
        shelf.tick += 1;
        let tick = shelf.tick;
        match shelf.slots.get_mut(&key) {
            Some(slot) => {
                slot.touched = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(slot.verdicts.clone())
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Record the verdict vector a completed cross-checked run
    /// produced, evicting the least-recently-used entry at capacity.
    pub fn insert(&self, fingerprint: u64, tol: f64, verdicts: Vec<Option<Verdict>>) {
        let key = OracleKey {
            fingerprint,
            tol_bits: tol.to_bits(),
        };
        let mut shelf = self.shelf.lock().expect("oracle cache poisoned");
        shelf.tick += 1;
        let tick = shelf.tick;
        if !shelf.slots.contains_key(&key) && shelf.slots.len() >= self.capacity {
            if let Some(evict) = shelf
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.touched)
                .map(|(k, _)| *k)
            {
                shelf.slots.remove(&evict);
            }
        }
        shelf.slots.insert(
            key,
            Slot {
                verdicts,
                touched: tick,
            },
        );
    }

    /// Cumulative lookups answered from the cache.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cumulative lookups that found nothing.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently cached.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shelf
            .lock()
            .expect("oracle cache poisoned")
            .slots
            .len()
    }

    /// `true` when nothing is cached.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn warm_lookup_hits_and_counts() {
        let cache = OracleCache::new(4);
        assert_eq!(cache.get(1, 1e-6), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert(1, 1e-6, vec![Some(Verdict::Pass), None]);
        assert_eq!(cache.get(1, 1e-6), Some(vec![Some(Verdict::Pass), None]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A different tolerance is a different key.
        assert_eq!(cache.get(1, 1e-7), None);
    }

    #[test]
    fn lru_evicts_coldest() {
        let cache = OracleCache::new(2);
        cache.insert(1, 0.0, vec![Some(Verdict::Pass)]);
        cache.insert(2, 0.0, vec![Some(Verdict::Fail)]);
        assert!(cache.get(1, 0.0).is_some()); // 1 is now warmer than 2
        cache.insert(3, 0.0, vec![None]);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(2, 0.0).is_none(), "coldest entry was evicted");
        assert!(cache.get(1, 0.0).is_some());
        assert!(cache.get(3, 0.0).is_some());
    }
}
