//! A shared LRU cache of compiled plans keyed by content fingerprint.
//!
//! Lowering a circuit ([`CompiledCircuit::compile`]) is pure: the plan
//! is a function of the instruction stream alone. That makes compiled
//! plans safely shareable across sessions, threads, and repeated
//! submissions of the same program — the common case for a long-lived
//! debugging service. [`PlanCache`] memoizes them under the program's
//! content fingerprint with least-recently-used eviction and hit/miss
//! counters, so a
//! warm resubmission skips compilation entirely and the saving is
//! *observable* (the counters are how tests and benches assert it).
//!
//! The cache never changes results: a cached plan is the same value a
//! fresh [`CompiledCircuit::compile`] call would produce, so every
//! bit-stability guarantee of the engines is preserved verbatim.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::compile::{CompiledCircuit, OptLevel};
use crate::program::Program;

/// One cache slot, stamped with its last-touch tick for LRU eviction.
#[derive(Debug)]
struct Slot {
    plan: Arc<CompiledCircuit>,
    touched: u64,
}

#[derive(Debug, Default)]
struct Shelf {
    /// Slots keyed by [`Program::fingerprint`].
    slots: HashMap<u64, Slot>,
    tick: u64,
}

/// A bounded, thread-safe memo of compiled plans (see the module docs).
///
/// Shared by `Arc`: clone the handle into every runner/worker that
/// should hit the same cache. All methods take `&self`.
#[derive(Debug)]
pub struct PlanCache {
    shelf: Mutex<Shelf>,
    capacity: usize,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl PlanCache {
    /// An empty cache holding at most `capacity` plans (at least one
    /// slot is always kept, so a zero capacity degenerates to a
    /// one-slot cache rather than a divide-by-zero of usefulness).
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            shelf: Mutex::new(Shelf::default()),
            capacity: capacity.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
        }
    }

    /// The plan for `program` ([`Program::compile`]), cached under the
    /// program fingerprint.
    #[must_use]
    pub fn plan_for_program(&self, program: &Program) -> Arc<CompiledCircuit> {
        let key = program.fingerprint();
        {
            let mut shelf = self.shelf.lock().unwrap_or_else(|e| e.into_inner());
            shelf.tick += 1;
            let tick = shelf.tick;
            if let Some(slot) = shelf.slots.get_mut(&key) {
                slot.touched = tick;
                self.hits.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(&slot.plan);
            }
        }
        // Compile outside the lock: lowering can be milliseconds of
        // work and must not serialize unrelated sessions. Two racing
        // misses both compile; the values are identical, so last-write
        // wins is harmless (one redundant compile, never a wrong plan).
        self.misses.fetch_add(1, Ordering::Relaxed);
        let plan = Arc::new(program.compile(OptLevel::Specialize));
        let mut shelf = self.shelf.lock().unwrap_or_else(|e| e.into_inner());
        shelf.tick += 1;
        let tick = shelf.tick;
        if shelf.slots.len() >= self.capacity && !shelf.slots.contains_key(&key) {
            if let Some(&evict) = shelf
                .slots
                .iter()
                .min_by_key(|(_, slot)| slot.touched)
                .map(|(key, _)| key)
            {
                shelf.slots.remove(&evict);
            }
        }
        shelf.slots.insert(
            key,
            Slot {
                plan: Arc::clone(&plan),
                touched: tick,
            },
        );
        plan
    }

    /// Lookups served from the cache so far.
    #[must_use]
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that had to compile.
    #[must_use]
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Plans currently resident.
    #[must_use]
    pub fn len(&self) -> usize {
        self.shelf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .slots
            .len()
    }

    /// `true` when no plan is resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for PlanCache {
    /// A cache sized for a small working set of live programs.
    fn default() -> Self {
        Self::new(64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateSink;

    fn program(angle: f64) -> Program {
        let mut p = Program::new();
        let q = p.alloc_register("q", 2);
        p.h(q.bit(0));
        p.rz(q.bit(1), angle);
        p.assert_superposition(&q);
        p
    }

    #[test]
    fn warm_lookup_hits_and_shares_the_plan() {
        let cache = PlanCache::new(8);
        let p = program(0.25);
        let first = cache.plan_for_program(&p);
        let second = cache.plan_for_program(&p);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn programs_differing_only_in_breakpoints_key_separately() {
        let cache = PlanCache::new(8);
        let p = program(0.25);
        let mut q = p.clone();
        q.assert_superposition(&q.registers()[0].clone());
        assert_eq!(p.circuit(), q.circuit());
        let _ = cache.plan_for_program(&p);
        let _ = cache.plan_for_program(&q);
        assert_eq!(cache.misses(), 2);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn lru_evicts_the_coldest_plan() {
        let cache = PlanCache::new(2);
        let a = program(0.1);
        let b = program(0.2);
        let c = program(0.3);
        let _ = cache.plan_for_program(&a);
        let _ = cache.plan_for_program(&b);
        let _ = cache.plan_for_program(&a); // touch a
        let _ = cache.plan_for_program(&c); // evicts b
        assert_eq!(cache.len(), 2);
        let hits = cache.hits();
        let _ = cache.plan_for_program(&a);
        assert_eq!(cache.hits(), hits + 1, "a stayed resident");
        let misses = cache.misses();
        let _ = cache.plan_for_program(&b);
        assert_eq!(cache.misses(), misses + 1, "b was evicted");
    }

    #[test]
    fn cached_plan_is_value_identical_to_fresh_compile() {
        let cache = PlanCache::new(4);
        let p = program(1.75);
        let cached = cache.plan_for_program(&p);
        let fresh = p.compile(OptLevel::Specialize);
        assert_eq!(cached.ops().len(), fresh.ops().len());
        assert_eq!(cached.num_qubits(), fresh.num_qubits());
        assert_eq!(cached.source_len(), fresh.source_len());
    }
}
