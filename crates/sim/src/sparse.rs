//! A sparse amplitude-map statevector backend.
//!
//! The dense [`State`](crate::State) stores all `2ⁿ` amplitudes and
//! therefore stops at [`MAX_QUBITS`](crate::state::MAX_QUBITS) = 26
//! qubits; the stabilizer tableau scales to hundreds of qubits but only
//! for Clifford circuits.
//! The workloads the assertion debugger actually cares about past the
//! dense ceiling — Shor-style modular arithmetic, fault-injected error
//! correction codes — are non-Clifford but keep *exponentially sparse
//! support*: at any prefix the state is a superposition of far fewer
//! basis states than `2ⁿ`. [`SparseState`] stores exactly that support
//! as a sorted `(basis index, amplitude)` vector and implements the full
//! [`SimBackend`] contract, so every engine above it (sweep, trajectory
//! tree and its forks, exact verdicts) works unchanged at 30–60
//! qubits.
//!
//! ## Cost model
//!
//! With `s` the live support size, every kernel is `O(s)` (the general
//! 2×2 kernel is `O(s log s)` for the re-sort) and memory is `O(s)`.
//! Diagonal and permutation kernels (phase gates, X/CX chains, swaps)
//! never grow `s`; only a general kernel (H, rotations about X/Y) can
//! double it. A program whose branching gates act on a bounded set of
//! qubits therefore stays cheap at any width.
//!
//! ## Determinism
//!
//! [`measure_qubit`](SimBackend::measure_qubit) mirrors the dense
//! backend's draw order exactly: one uniform per measurement, compared
//! against `P(1)`, then a deterministic projection. Within this backend,
//! equal seeds give bit-identical runs; across backends only the
//! distributions agree (floating-point summation order differs).

use std::collections::HashMap;

use rand::Rng;

use crate::backend::{KernelOp, SimBackend, SimOp};
use crate::complex::Complex;
use crate::error::SimError;
use crate::gates::Matrix2;
use crate::measure::extract_bits;
use crate::readout::{self, Collapse, Rule};
use crate::state::Pauli;

/// Hard cap on qubit count: basis indices are packed into a `u64`.
pub const MAX_QUBITS: usize = 64;

/// Amplitudes with squared magnitude at or below this are pruned after a
/// branching kernel — they are numeric zeros (e.g. the cancelled branch
/// of `H·H`), and keeping them would make "support size" meaningless.
pub const PRUNE_EPSILON: f64 = 1e-32;

/// A pure state stored as its basis-state support: a sorted vector of
/// `(index, amplitude)` pairs.
///
/// ```
/// use qdb_sim::{SimBackend, SparseState};
///
/// // 40 qubits is far beyond the dense engine's 26-qubit ceiling, but
/// // |0…0⟩ is a single entry here.
/// let s = SparseState::zero(40).unwrap();
/// assert_eq!(s.num_qubits(), 40);
/// assert_eq!(s.support_len(), 1);
/// assert!((s.prob_one(39) - 0.0).abs() < 1e-15);
/// ```
#[derive(Debug, Clone)]
pub struct SparseState {
    num_qubits: usize,
    /// Sorted by basis index; invariant: indices strictly increasing,
    /// no entry with `norm_sqr == 0` surviving a branching kernel.
    amps: Vec<(u64, Complex)>,
    gate_ops: u64,
    max_support: usize,
}

impl SparseState {
    /// The all-zeros state `|0…0⟩` (one support entry).
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidDimension`] when `num_qubits == 0`;
    /// * [`SimError::TooManyQubits`] above [`MAX_QUBITS`] (64).
    pub fn zero(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits == 0 {
            return Err(SimError::InvalidDimension(0));
        }
        if num_qubits > MAX_QUBITS {
            return Err(SimError::TooManyQubits(num_qubits));
        }
        Ok(Self {
            num_qubits,
            amps: vec![(0, Complex::ONE)],
            gate_ops: 0,
            max_support: 1,
        })
    }

    /// Number of basis states currently carrying amplitude.
    #[must_use]
    pub fn support_len(&self) -> usize {
        self.amps.len()
    }

    /// High-water mark of [`support_len`](SparseState::support_len) over
    /// the state's history — the peak working-set size, recorded for the
    /// scaling benchmarks.
    #[must_use]
    pub fn max_support(&self) -> usize {
        self.max_support
    }

    /// Number of lowered ops and Paulis applied (the sparse sibling of
    /// [`State::gate_ops`](crate::State::gate_ops); a `clone()` inherits
    /// the count).
    #[must_use]
    pub fn gate_ops(&self) -> u64 {
        self.gate_ops
    }

    fn check_qubit(&self, q: usize) {
        assert!(
            q < self.num_qubits,
            "qubit {q} out of range for {}-qubit sparse state",
            self.num_qubits
        );
    }

    /// Sum of `|amp|²` — 1 for a valid state up to float error.
    #[must_use]
    pub fn norm_sqr(&self) -> f64 {
        self.amps.iter().map(|(_, a)| a.norm_sqr()).sum()
    }
}

/// `amps[idx]` if present (binary search on the sorted invariant).
fn lookup(amps: &[(u64, Complex)], idx: u64) -> Option<Complex> {
    amps.binary_search_by_key(&idx, |&(i, _)| i)
        .ok()
        .map(|pos| amps[pos].1)
}

/// `diag(d0, d1)` on the control-satisfying entries: in-place scalar
/// multiplies, order preserved.
fn apply_diagonal(amps: &mut [(u64, Complex)], cmask: u64, tmask: u64, d0: Complex, d1: Complex) {
    for (idx, amp) in amps.iter_mut() {
        if *idx & cmask == cmask {
            *amp *= if *idx & tmask == 0 { d0 } else { d1 };
        }
    }
}

/// Anti-diagonal `[[0, a01], [a10, 0]]`: each satisfying entry flips its
/// target bit (bit 0 → 1 with factor `a10`, bit 1 → 0 with `a01`).
fn apply_antidiagonal(
    amps: &mut [(u64, Complex)],
    cmask: u64,
    tmask: u64,
    a01: Complex,
    a10: Complex,
) {
    for (idx, amp) in amps.iter_mut() {
        if *idx & cmask == cmask {
            *amp *= if *idx & tmask == 0 { a10 } else { a01 };
            *idx ^= tmask;
        }
    }
    amps.sort_unstable_by_key(|&(i, _)| i);
}

/// (Controlled) swap: satisfying entries with differing target/other
/// bits flip both.
fn apply_swap(amps: &mut [(u64, Complex)], cmask: u64, tmask: u64, omask: u64) {
    for (idx, _) in amps.iter_mut() {
        if *idx & cmask == cmask {
            let differ = ((*idx & tmask) == 0) != ((*idx & omask) == 0);
            if differ {
                *idx ^= tmask | omask;
            }
        }
    }
    amps.sort_unstable_by_key(|&(i, _)| i);
}

/// Dense 2×2 on the control-satisfying subspace — the only kernel that
/// can grow the support. Entries are paired through their target bit:
/// a bit-0 entry computes both output amplitudes (using its bit-1
/// partner's amplitude, or zero); a bit-1 entry acts alone only when no
/// bit-0 partner exists. Outputs below [`PRUNE_EPSILON`] are dropped.
fn apply_general(amps: &mut Vec<(u64, Complex)>, cmask: u64, tmask: u64, m: &Matrix2) {
    let m = m.0;
    let mut out: Vec<(u64, Complex)> = Vec::with_capacity(amps.len() * 2);
    fn push(out: &mut Vec<(u64, Complex)>, idx: u64, amp: Complex) {
        if amp.norm_sqr() > PRUNE_EPSILON {
            out.push((idx, amp));
        }
    }
    for &(idx, amp) in amps.iter() {
        if idx & cmask != cmask {
            out.push((idx, amp));
            continue;
        }
        if idx & tmask == 0 {
            let partner = lookup(amps, idx | tmask).unwrap_or(Complex::ZERO);
            push(&mut out, idx, m[0][0] * amp + m[0][1] * partner);
            push(&mut out, idx | tmask, m[1][0] * amp + m[1][1] * partner);
        } else if lookup(amps, idx & !tmask).is_none() {
            // No bit-0 partner: this entry is a pair of its own.
            push(&mut out, idx & !tmask, m[0][1] * amp);
            push(&mut out, idx, m[1][1] * amp);
        }
        // A bit-1 entry whose bit-0 partner exists was already emitted
        // by the partner's branch above.
    }
    out.sort_unstable_by_key(|&(i, _)| i);
    *amps = out;
}

impl SimBackend for SparseState {
    const NAME: &'static str = "sparse";

    fn zero(num_qubits: usize) -> Result<Self, SimError> {
        SparseState::zero(num_qubits)
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>() + self.amps.capacity() * std::mem::size_of::<(u64, Complex)>()
    }

    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn copy_from(&mut self, source: &Self) {
        self.num_qubits = source.num_qubits;
        self.gate_ops = source.gate_ops;
        self.max_support = source.max_support;
        self.amps.clone_from(&source.amps);
    }

    fn apply_op(&mut self, op: &SimOp) {
        let mut cmask = 0u64;
        for &c in op.controls() {
            self.check_qubit(c);
            assert!(c != op.target(), "control {c} equals target");
            cmask |= 1 << c;
        }
        let target = op.target();
        self.check_qubit(target);
        let tmask = 1u64 << target;
        if let KernelOp::Swap { other } = op.kernel() {
            self.check_qubit(*other);
            if *other == target {
                return; // swap(q, q): no work, no count (matches dense)
            }
        }
        self.gate_ops += 1;
        let amps = &mut self.amps;
        match op.kernel() {
            KernelOp::Diagonal { d0, d1 } => apply_diagonal(amps, cmask, tmask, *d0, *d1),
            KernelOp::AntiDiagonal { a01, a10 } => {
                apply_antidiagonal(amps, cmask, tmask, *a01, *a10);
            }
            KernelOp::Swap { other } => apply_swap(amps, cmask, tmask, 1u64 << *other),
            KernelOp::General(m) => {
                apply_general(amps, cmask, tmask, m);
                self.max_support = self.max_support.max(amps.len());
            }
        }
    }

    fn apply_pauli(&mut self, q: usize, p: Pauli) {
        self.check_qubit(q);
        if p == Pauli::I {
            return; // identity: no work, no count (matches dense)
        }
        self.gate_ops += 1;
        let tmask = 1u64 << q;
        let amps = &mut self.amps;
        match p {
            Pauli::I => unreachable!(),
            // X = [[0, 1], [1, 0]], Y = [[0, −i], [i, 0]]: both are
            // anti-diagonal, i.e. a bit flip with per-branch phases.
            Pauli::X => apply_antidiagonal(amps, 0, tmask, Complex::ONE, Complex::ONE),
            Pauli::Y => apply_antidiagonal(amps, 0, tmask, -Complex::I, Complex::I),
            Pauli::Z => apply_diagonal(amps, 0, tmask, Complex::ONE, -Complex::ONE),
        }
    }

    fn prob_one(&self, q: usize) -> f64 {
        self.check_qubit(q);
        let mask = 1u64 << q;
        self.amps
            .iter()
            .filter(|(idx, _)| idx & mask != 0)
            .map(|(_, a)| a.norm_sqr())
            .sum()
    }

    fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        readout::measure(self, q, rng)
    }

    fn sample_each<'r, R: Rng + ?Sized + 'r>(
        &self,
        qubits: &[usize],
        rngs: impl IntoIterator<Item = &'r mut R>,
    ) -> Vec<u64> {
        readout::sample_each(self, qubits, rngs)
    }

    fn outcome_distribution(&self, qubits: &[usize]) -> HashMap<u64, f64> {
        assert!(qubits.len() <= 64, "cannot pack more than 64 qubits");
        for &q in qubits {
            self.check_qubit(q);
        }
        let mut dist: HashMap<u64, f64> = HashMap::new();
        for &(idx, a) in &self.amps {
            let p = a.norm_sqr();
            if p > 0.0 {
                *dist.entry(extract_bits(idx, qubits)).or_insert(0.0) += p;
            }
        }
        dist
    }
}

impl Collapse for SparseState {
    /// One uniform per measurement, always, even when `P(1)` is `0` or
    /// `1`: the same stream contract as the dense backend.
    fn rule(&self, q: usize) -> Rule {
        Rule::Draw(self.prob_one(q))
    }

    /// Keep the entries agreeing with `bit`, then renormalize.
    ///
    /// # Panics
    ///
    /// Panics if the kept entries have zero norm.
    fn project(&mut self, q: usize, bit: bool) {
        let mask = 1u64 << q;
        self.amps.retain(|(idx, _)| (idx & mask != 0) == bit);
        let norm_sqr = self.norm_sqr();
        assert!(
            norm_sqr > 1e-12,
            "projection onto outcome {} of qubit {q} has zero norm",
            u8::from(bit)
        );
        let scale = norm_sqr.sqrt().recip();
        for (_, a) in &mut self.amps {
            *a = a.scale(scale);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::CliffordOp;
    use crate::gates;
    use crate::state::State;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn h_op(target: usize) -> SimOp {
        SimOp::new(vec![], target, KernelOp::General(gates::h()))
    }

    fn x_op(controls: Vec<usize>, target: usize) -> SimOp {
        SimOp::new(
            controls,
            target,
            KernelOp::AntiDiagonal {
                a01: Complex::ONE,
                a10: Complex::ONE,
            },
        )
    }

    fn t_op(target: usize) -> SimOp {
        let m = gates::t().0;
        SimOp::new(
            vec![],
            target,
            KernelOp::Diagonal {
                d0: m[0][0],
                d1: m[1][1],
            },
        )
    }

    fn assert_dist_eq(a: &HashMap<u64, f64>, b: &HashMap<u64, f64>, tol: f64) {
        for key in a.keys().chain(b.keys()) {
            let pa = a.get(key).copied().unwrap_or(0.0);
            let pb = b.get(key).copied().unwrap_or(0.0);
            assert!(
                (pa - pb).abs() <= tol,
                "outcome {key:#b}: {pa} vs {pb} (diff {})",
                (pa - pb).abs()
            );
        }
    }

    #[test]
    fn zero_state_guards_and_shape() {
        assert!(matches!(
            SparseState::zero(0),
            Err(SimError::InvalidDimension(0))
        ));
        assert!(matches!(
            SparseState::zero(65),
            Err(SimError::TooManyQubits(65))
        ));
        let s = SparseState::zero(64).unwrap();
        assert_eq!(s.num_qubits(), 64);
        assert_eq!(s.support_len(), 1);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn bell_state_support_and_distribution() {
        let mut s = SparseState::zero(2).unwrap();
        s.apply_op(&h_op(0));
        s.apply_op(&x_op(vec![0], 1));
        assert_eq!(s.support_len(), 2);
        let dist = s.outcome_distribution(&[0, 1]);
        assert_eq!(dist.len(), 2);
        assert!((dist[&0b00] - 0.5).abs() < 1e-12);
        assert!((dist[&0b11] - 0.5).abs() < 1e-12);
    }

    #[test]
    fn cancelled_branches_are_pruned() {
        // H·H = I: the |1⟩ branch cancels to a numeric zero and must
        // not linger in the support.
        let mut s = SparseState::zero(8).unwrap();
        s.apply_op(&h_op(3));
        assert_eq!(s.support_len(), 2);
        s.apply_op(&h_op(3));
        assert_eq!(s.support_len(), 1);
        assert_eq!(s.max_support(), 2);
        let dist = s.outcome_distribution(&[3]);
        assert!((dist[&0] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn general_kernel_handles_lone_bit1_entries() {
        // Put all amplitude on |1⟩ (no bit-0 partner), then H: must
        // produce (|0⟩ − |1⟩)/√2 via the lone-entry branch.
        let mut s = SparseState::zero(1).unwrap();
        s.apply_pauli(0, Pauli::X);
        s.apply_op(&h_op(0));
        let dist = s.outcome_distribution(&[0]);
        assert!((dist[&0] - 0.5).abs() < 1e-12);
        assert!((dist[&1] - 0.5).abs() < 1e-12);
        // And the phases are right: a second H restores |1⟩.
        s.apply_op(&h_op(0));
        let dist = s.outcome_distribution(&[0]);
        assert!((dist[&1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn matches_dense_backend_on_random_circuits() {
        // Random mixed circuits on 6 qubits: the sparse backend must
        // produce the same full-register distribution as the dense one.
        let n = 6;
        let all: Vec<usize> = (0..n).collect();
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut sparse = SparseState::zero(n).unwrap();
            let mut dense = <State as SimBackend>::zero(n).unwrap();
            for _ in 0..40 {
                let target = rng.gen_range(0..n);
                let op = match rng.gen_range(0..6u32) {
                    0 => h_op(target),
                    1 => t_op(target),
                    2 => SimOp::new(vec![], target, KernelOp::General(gates::ry(0.37))),
                    3 | 4 => {
                        let mut c = rng.gen_range(0..n - 1);
                        if c >= target {
                            c += 1;
                        }
                        x_op(vec![c], target)
                    }
                    _ => {
                        let mut other = rng.gen_range(0..n - 1);
                        if other >= target {
                            other += 1;
                        }
                        SimOp::new(vec![], target, KernelOp::Swap { other })
                    }
                };
                sparse.apply_op(&op);
                dense.apply_op(&op);
            }
            assert_dist_eq(
                &sparse.outcome_distribution(&all),
                &dense.outcome_distribution(&all),
                1e-9,
            );
            for q in 0..n {
                assert!((sparse.prob_one(q) - dense.prob_one(q)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn paulis_match_dense_backend() {
        let mut sparse = SparseState::zero(3).unwrap();
        let mut dense = <State as SimBackend>::zero(3).unwrap();
        for op in [h_op(0), x_op(vec![0], 1), t_op(2)] {
            sparse.apply_op(&op);
            dense.apply_op(&op);
        }
        for (q, p) in [(0, Pauli::X), (1, Pauli::Y), (2, Pauli::Z), (0, Pauli::I)] {
            sparse.apply_pauli(q, p);
            SimBackend::apply_pauli(&mut dense, q, p);
        }
        let all = [0, 1, 2];
        assert_dist_eq(
            &sparse.outcome_distribution(&all),
            &dense.outcome_distribution(&all),
            1e-12,
        );
        // I draws no gate count, the three real Paulis do.
        assert_eq!(sparse.gate_ops(), 3 + 3);
    }

    #[test]
    fn measurement_collapses_and_renormalizes() {
        let mut rng = StdRng::seed_from_u64(11);
        for _ in 0..50 {
            let mut s = SparseState::zero(2).unwrap();
            s.apply_op(&h_op(0));
            s.apply_op(&x_op(vec![0], 1));
            let bit = s.measure_qubit(0, &mut rng);
            // Bell state: the partner qubit must agree.
            assert_eq!(s.support_len(), 1);
            assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
            assert!((s.prob_one(1) - f64::from(bit)).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_once_respects_support() {
        let mut s = SparseState::zero(40).unwrap();
        s.apply_op(&h_op(7));
        s.apply_op(&x_op(vec![7], 39));
        let mut rng = StdRng::seed_from_u64(3);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let o = s.sample_once(&[7, 39], &mut rng);
            assert!(o == 0b00 || o == 0b11, "impossible outcome {o:#b}");
            seen.insert(o);
        }
        assert_eq!(seen.len(), 2, "both branches should appear in 100 shots");
    }

    #[test]
    fn saturated_support_stays_exact() {
        // H on every qubit of an 8-qubit state: the support fills all
        // 256 basis states and the uniform distribution stays exact.
        let n = 8;
        let mut s = SparseState::zero(n).unwrap();
        for q in 0..n {
            s.apply_op(&h_op(q));
        }
        assert_eq!(s.support_len(), 256);
        let all: Vec<usize> = (0..n).collect();
        let dist = s.outcome_distribution(&all);
        assert_eq!(dist.len(), 256);
        for p in dist.values() {
            assert!((p - 1.0 / 256.0).abs() < 1e-12);
        }
        // Ops keep working (and counting) on the saturated support.
        let ops_before = s.gate_ops();
        s.apply_op(&t_op(0));
        s.apply_pauli(1, Pauli::X);
        assert_eq!(s.gate_ops(), ops_before + 2);
        // Measurement projects and renormalizes.
        let mut rng = StdRng::seed_from_u64(5);
        let _ = s.measure_qubit(0, &mut rng);
        assert_eq!(s.support_len(), 128);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn wide_states_hold_only_their_support() {
        // 40 qubits, far past the dense ceiling: six H gates give a
        // support of 64 entries.
        let mut s = SparseState::zero(40).unwrap();
        for q in 0..6 {
            s.apply_op(&h_op(q));
        }
        assert_eq!(s.support_len(), 64);
    }

    #[test]
    fn copy_from_copies_support_and_width() {
        let mut a = SparseState::zero(4).unwrap();
        a.apply_op(&h_op(0));
        a.apply_op(&x_op(vec![0], 2));

        // Sparse → sparse.
        let mut b = SparseState::zero(4).unwrap();
        b.copy_from(&a);
        assert_eq!(b.gate_ops(), a.gate_ops());
        assert_eq!(b.support_len(), a.support_len());
        assert_dist_eq(
            &a.outcome_distribution(&[0, 1, 2, 3]),
            &b.outcome_distribution(&[0, 1, 2, 3]),
            0.0,
        );

        // Mismatched qubit counts.
        let mut wide = SparseState::zero(30).unwrap();
        wide.copy_from(&a);
        assert_eq!(wide.num_qubits(), 4);
    }

    #[test]
    fn controlled_swap_and_diagonal_respect_controls() {
        // |101⟩: control (qubit 2) set → swap qubits 0, 1 → |110⟩.
        let mut s = SparseState::zero(3).unwrap();
        s.apply_pauli(0, Pauli::X);
        s.apply_pauli(2, Pauli::X);
        s.apply_op(&SimOp::new(vec![2], 0, KernelOp::Swap { other: 1 }));
        let dist = s.outcome_distribution(&[0, 1, 2]);
        assert!((dist[&0b110] - 1.0).abs() < 1e-12);
        // Clear the control → swap must not fire.
        s.apply_pauli(2, Pauli::X);
        s.apply_op(&SimOp::new(vec![2], 0, KernelOp::Swap { other: 1 }));
        let dist = s.outcome_distribution(&[0, 1, 2]);
        assert!((dist[&0b010] - 1.0).abs() < 1e-12);
        // swap(q, q) is a no-op and counts nothing.
        let ops = s.gate_ops();
        s.apply_op(&SimOp::new(vec![], 1, KernelOp::Swap { other: 1 }));
        assert_eq!(s.gate_ops(), ops);
    }

    #[test]
    fn applies_every_op_shape() {
        let mut s = SparseState::zero(2).unwrap();
        let clifford = x_op(vec![0], 1).with_clifford(Some(CliffordOp::Cx {
            control: 0,
            target: 1,
        }));
        s.apply_op(&h_op(0));
        s.apply_op(&clifford);
        assert_eq!(s.gate_ops(), 2);
        assert_eq!(SparseState::NAME, "sparse");
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_target_panics() {
        let mut s = SparseState::zero(2).unwrap();
        s.apply_op(&h_op(2));
    }
}
