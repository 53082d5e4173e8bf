//! A bounded, thread-safe least-recently-used map with hit/miss
//! counters: the one cache shape behind the compiled-plan cache
//! ([`PlanCache`](crate::PlanCache)) and the session server's
//! exact-oracle verdict cache.
//!
//! Only plain values move in and out under the lock (a lookup clones
//! the value out; an insert moves it in), so a panic elsewhere can
//! never leave an entry half-written, and a poisoned lock is simply
//! taken over.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// The entries, each stamped with its last-touch tick.
#[derive(Debug)]
struct Shelf<K, V> {
    slots: HashMap<K, (V, u64)>,
    tick: u64,
}

/// A bounded LRU map shared by reference: all methods take `&self`.
/// Hit and miss counters are cumulative and monotone.
///
/// ```
/// use qdb_circuit::Lru;
///
/// let cache: Lru<u64, &str> = Lru::new(1);
/// assert_eq!(cache.get(&1), None);
/// cache.insert(1, "one");
/// assert_eq!(cache.get(&1), Some("one"));
/// cache.insert(2, "two"); // evicts 1, the least recently used
/// assert_eq!(cache.get(&1), None);
/// assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 2, 1));
/// ```
#[derive(Debug)]
pub struct Lru<K, V> {
    shelf: Mutex<Shelf<K, V>>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl<K: Eq + Hash + Clone, V: Clone> Lru<K, V> {
    /// An empty cache holding at most `capacity` entries (clamped to at
    /// least 1).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            shelf: Mutex::new(Shelf {
                slots: HashMap::new(),
                tick: 0,
            }),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    fn shelf(&self) -> MutexGuard<'_, Shelf<K, V>> {
        self.shelf.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// A copy of the value under `key`, marking it most recently used
    /// and counting a hit; `None` (and a miss) when absent.
    #[must_use]
    pub fn get(&self, key: &K) -> Option<V> {
        let mut shelf = self.shelf();
        shelf.tick += 1;
        let tick = shelf.tick;
        let Some((value, touched)) = shelf.slots.get_mut(key) else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        *touched = tick;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(value.clone())
    }

    /// Store `value` under `key` as the most recently used entry,
    /// evicting the least recently used one when a new key finds the
    /// cache full.
    pub fn insert(&self, key: K, value: V) {
        let mut shelf = self.shelf();
        shelf.tick += 1;
        let tick = shelf.tick;
        if shelf.slots.len() >= self.capacity && !shelf.slots.contains_key(&key) {
            if let Some(coldest) = shelf
                .slots
                .iter()
                .min_by_key(|(_, (_, touched))| *touched)
                .map(|(key, _)| key.clone())
            {
                shelf.slots.remove(&coldest);
            }
        }
        shelf.slots.insert(key, (value, tick));
    }

    /// Lookups answered from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that found nothing so far.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries currently held.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shelf().slots.len()
    }

    /// `true` when nothing is held.
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
        let cache: Lru<(u64, u64), Vec<u8>> = Lru::new(4);
        assert_eq!(cache.get(&(1, 6)), None);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
        cache.insert((1, 6), vec![1, 0]);
        assert_eq!(cache.get(&(1, 6)), Some(vec![1, 0]));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        // A key differing in one part is a different key.
        assert_eq!(cache.get(&(1, 7)), None);
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let cache: Lru<u64, u64> = Lru::new(2);
        cache.insert(1, 10);
        cache.insert(2, 20);
        assert!(cache.get(&1).is_some()); // 1 is now warmer than 2
        cache.insert(3, 30);
        assert_eq!(cache.len(), 2);
        assert!(cache.get(&2).is_none(), "the coldest entry was evicted");
        assert_eq!(cache.get(&1), Some(10));
        assert_eq!(cache.get(&3), Some(30));
        // Re-inserting a held key at capacity replaces it and evicts
        // nothing.
        cache.insert(3, 31);
        assert_eq!((cache.get(&1), cache.get(&3)), (Some(10), Some(31)));
    }

    #[test]
    fn zero_capacity_keeps_one_entry() {
        let cache: Lru<u64, u64> = Lru::new(0);
        assert!(cache.is_empty());
        cache.insert(1, 1);
        cache.insert(2, 2);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.get(&2), Some(2));
    }
}
