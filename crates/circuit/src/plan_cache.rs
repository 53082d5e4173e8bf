//! A shared LRU cache of compiled plans keyed by content fingerprint.
//!
//! Lowering a circuit ([`CompiledCircuit::compile`]) is pure: the plan
//! is a function of the instruction stream, the [`OptLevel`], and the
//! breakpoint cut list alone. That makes compiled plans safely
//! shareable across sessions, threads, and repeated submissions of the
//! same program — the common case for a long-lived debugging service.
//! [`PlanCache`] memoizes them under a `(fingerprint, opt level, cuts?)`
//! key with least-recently-used eviction and hit/miss counters, so a
//! warm resubmission skips compilation entirely and the saving is
//! *observable* (the counters are how tests and benches assert it).
//!
//! The cache never changes results: a cached plan is the same value a
//! fresh [`CompiledCircuit::compile`] call would produce, so every
//! bit-stability guarantee of the engines is preserved verbatim.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::circuit::Circuit;
use crate::compile::{CompiledCircuit, OptLevel};
use crate::program::Program;

/// Cache key: content fingerprint, lowering level, and whether the plan
/// was compiled with breakpoint cuts (program plans) or without
/// (whole-circuit plans for the trajectory engines). The fingerprint
/// domains already separate programs from circuits; the flag keeps the
/// key self-describing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct PlanKey {
    fingerprint: u64,
    opt: u8,
    with_cuts: bool,
}

fn opt_code(opt: OptLevel) -> u8 {
    match opt {
        OptLevel::Specialize => 0,
        OptLevel::FuseExact => 1,
    }
}

/// One cache slot, stamped with its last-touch tick for LRU eviction.
#[derive(Debug)]
struct Slot {
    plan: Arc<CompiledCircuit>,
    touched: u64,
}

#[derive(Debug, Default)]
struct Shelf {
    slots: HashMap<PlanKey, Slot>,
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

    /// The plan for `program` at `opt`, compiled **with** breakpoint
    /// cuts ([`Program::compile`]) — cached under the program
    /// fingerprint.
    #[must_use]
    pub fn plan_for_program(&self, program: &Program, opt: OptLevel) -> Arc<CompiledCircuit> {
        let key = PlanKey {
            fingerprint: program.fingerprint(),
            opt: opt_code(opt),
            with_cuts: true,
        };
        self.get_or_insert(key, || program.compile(opt))
    }

    /// The plan for a bare `circuit` at `opt`, compiled without cuts
    /// ([`CompiledCircuit::compile`]) — cached under the circuit
    /// fingerprint.
    #[must_use]
    pub fn plan_for_circuit(&self, circuit: &Circuit, opt: OptLevel) -> Arc<CompiledCircuit> {
        let key = PlanKey {
            fingerprint: circuit.fingerprint(),
            opt: opt_code(opt),
            with_cuts: false,
        };
        self.get_or_insert(key, || CompiledCircuit::compile(circuit, opt))
    }

    fn get_or_insert(
        &self,
        key: PlanKey,
        compile: impl FnOnce() -> CompiledCircuit,
    ) -> Arc<CompiledCircuit> {
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
        let plan = Arc::new(compile());
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
        let first = cache.plan_for_program(&p, OptLevel::Specialize);
        let second = cache.plan_for_program(&p, OptLevel::Specialize);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn opt_level_and_cut_domain_key_separately() {
        let cache = PlanCache::new(8);
        let p = program(0.25);
        let _ = cache.plan_for_program(&p, OptLevel::Specialize);
        let _ = cache.plan_for_program(&p, OptLevel::FuseExact);
        let _ = cache.plan_for_circuit(p.circuit(), OptLevel::Specialize);
        assert_eq!(cache.misses(), 3);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_evicts_the_coldest_plan() {
        let cache = PlanCache::new(2);
        let a = program(0.1);
        let b = program(0.2);
        let c = program(0.3);
        let _ = cache.plan_for_program(&a, OptLevel::Specialize);
        let _ = cache.plan_for_program(&b, OptLevel::Specialize);
        let _ = cache.plan_for_program(&a, OptLevel::Specialize); // touch a
        let _ = cache.plan_for_program(&c, OptLevel::Specialize); // evicts b
        assert_eq!(cache.len(), 2);
        let hits = cache.hits();
        let _ = cache.plan_for_program(&a, OptLevel::Specialize);
        assert_eq!(cache.hits(), hits + 1, "a stayed resident");
        let misses = cache.misses();
        let _ = cache.plan_for_program(&b, OptLevel::Specialize);
        assert_eq!(cache.misses(), misses + 1, "b was evicted");
    }

    #[test]
    fn cached_plan_is_value_identical_to_fresh_compile() {
        let cache = PlanCache::new(4);
        let p = program(1.75);
        let cached = cache.plan_for_program(&p, OptLevel::Specialize);
        let fresh = p.compile(OptLevel::Specialize);
        assert_eq!(cached.ops().len(), fresh.ops().len());
        assert_eq!(cached.opt(), fresh.opt());
        assert_eq!(cached.num_qubits(), fresh.num_qubits());
        assert_eq!(cached.source_len(), fresh.source_len());
    }
}
