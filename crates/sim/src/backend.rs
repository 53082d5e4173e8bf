//! The simulator backend abstraction.
//!
//! Everything above `qdb-sim` — the lowering layer in `qdb-circuit`, the
//! sweep/ensemble engines in `qdb-core` — used to be hard-wired to the
//! dense [`State`] vector, capping every workflow at
//! [`MAX_QUBITS`](crate::state::MAX_QUBITS) qubits. This module factors
//! the contract those layers actually rely on into the [`SimBackend`]
//! trait so specialized engines can slot in underneath an unchanged
//! programming model:
//!
//! * [`State`] — the dense statevector, the reference engine; exact
//!   for arbitrary circuits, exponential in qubit count.
//! * [`StabilizerState`](crate::stabilizer::StabilizerState) — an
//!   Aaronson–Gottesman tableau engine; polynomial in qubit count but
//!   restricted to Clifford circuits.
//! * [`SparseState`](crate::sparse::SparseState) — a sorted map of the
//!   nonzero amplitudes; exact up to 64 qubits, cost scaling with the
//!   live support.
//!
//! The unit of work is a [`SimOp`]: one lowered gate, carrying both its
//! dense kernel form (what the statevector backend executes) and — when
//! the source instruction is a recognized Clifford gate — its
//! [`CliffordOp`] form (what the tableau backend executes). Lowering
//! (and therefore Clifford *classification*) happens once per compiled
//! circuit in `qdb-circuit`; backends never parse matrices.
//!
//! ## Determinism
//!
//! Every probabilistic entry point takes a caller-seeded RNG and draws
//! from it in a documented order, so any two runs given the same seeds
//! agree bit for bit *within* a backend. Across backends only the
//! *distributions* agree: each backend consumes randomness its own way.

use std::collections::HashMap;

use rand::Rng;

use crate::complex::Complex;
use crate::error::SimError;
use crate::gates::Matrix2;
use crate::kernels::BLOCK_QUBITS;
use crate::measure::extract_bits;
use crate::state::{Pauli, State};

/// A single-qubit Clifford gate the stabilizer backend understands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliffordGate1 {
    /// Hadamard.
    H,
    /// Phase gate `S = diag(1, i)`.
    S,
    /// `S†`.
    Sdg,
    /// Pauli-X.
    X,
    /// Pauli-Y.
    Y,
    /// Pauli-Z.
    Z,
}

/// A backend-neutral Clifford operation.
///
/// This is the instruction set of the tableau backend: the single-qubit
/// Cliffords, the controlled Paulis, and the qubit swap. Anything else
/// (T gates, rotations, multiply-controlled gates) is not Clifford and
/// has no representation here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CliffordOp {
    /// An uncontrolled single-qubit Clifford on `target`.
    Gate1 {
        /// Which gate.
        gate: CliffordGate1,
        /// Target qubit.
        target: usize,
    },
    /// Controlled-X (CNOT).
    Cx {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled-Y.
    Cy {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Controlled-Z.
    Cz {
        /// Control qubit.
        control: usize,
        /// Target qubit.
        target: usize,
    },
    /// Swap two qubits.
    Swap {
        /// First qubit.
        a: usize,
        /// Second qubit.
        b: usize,
    },
}

/// The dense kernel form of a lowered gate — which specialized
/// [`kernels`](crate::kernels) entry point the statevector backend
/// dispatches to, with the precomputed matrix data.
#[derive(Debug, Clone, PartialEq)]
pub enum KernelOp {
    /// `diag(d0, d1)` — two scalar multiplies per pair.
    Diagonal {
        /// Top-left entry.
        d0: Complex,
        /// Bottom-right entry.
        d1: Complex,
    },
    /// Anti-diagonal — amplitude permutation with per-branch phases.
    AntiDiagonal {
        /// Top-right entry.
        a01: Complex,
        /// Bottom-left entry.
        a10: Complex,
    },
    /// Dense 2×2 on the control-satisfying subspace.
    General(Matrix2),
    /// (Controlled) swap with the second swapped qubit.
    Swap {
        /// The qubit swapped with the op's target.
        other: usize,
    },
}

/// One lowered simulator operation: control wiring, target, the dense
/// kernel form, and — when the source instruction is a recognized
/// Clifford gate — the [`CliffordOp`] the tableau backend executes.
///
/// Built by the lowering layer in `qdb-circuit`
/// (`CompiledCircuit::compile`); consumed by [`SimBackend::apply_op`].
#[derive(Debug, Clone, PartialEq)]
pub struct SimOp {
    controls: Vec<usize>,
    target: usize,
    kernel: KernelOp,
    clifford: Option<CliffordOp>,
}

impl SimOp {
    /// Lower a (controlled) gate into its kernel form. The Clifford
    /// classification is attached separately with
    /// [`SimOp::with_clifford`] because it derives from the source IR,
    /// not from the matrix.
    #[must_use]
    pub fn new(controls: Vec<usize>, target: usize, kernel: KernelOp) -> Self {
        Self {
            controls,
            target,
            kernel,
            clifford: None,
        }
    }

    /// Attach the Clifford classification of the source instruction.
    #[must_use]
    pub fn with_clifford(mut self, clifford: Option<CliffordOp>) -> Self {
        self.clifford = clifford;
        self
    }

    /// Control qubits in source order.
    #[must_use]
    pub fn controls(&self) -> &[usize] {
        &self.controls
    }

    /// Target qubit (for swaps: the first swapped qubit).
    #[must_use]
    pub fn target(&self) -> usize {
        self.target
    }

    /// The dense kernel form.
    #[must_use]
    pub fn kernel(&self) -> &KernelOp {
        &self.kernel
    }

    /// The Clifford form, when the source instruction is one of the
    /// gates in [`CliffordOp`]'s instruction set.
    #[must_use]
    pub fn clifford(&self) -> Option<&CliffordOp> {
        self.clifford.as_ref()
    }

    /// Visit every qubit this op touches, in the source instruction's
    /// order (controls first) — the qubit sequence noisy replay walks.
    pub fn for_each_qubit(&self, mut f: impl FnMut(usize)) {
        for &c in &self.controls {
            f(c);
        }
        f(self.target);
        if let KernelOp::Swap { other } = &self.kernel {
            f(*other);
        }
    }
}

/// The contract every simulation engine offers the ensemble machinery:
/// construction from `|0…0⟩`, application of lowered ops, marginal
/// measurement probabilities, seeded collapse, ensemble sampling, and
/// exact outcome distributions over qubit subsets.
///
/// Implementations: [`State`] (dense statevector, exact and universal,
/// ≤ [`MAX_QUBITS`](crate::state::MAX_QUBITS) qubits),
/// [`StabilizerState`](crate::stabilizer::StabilizerState) (tableau,
/// Clifford-only, hundreds of qubits) and
/// [`SparseState`](crate::sparse::SparseState) (nonzero amplitudes
/// only, exact up to 64 qubits at a cost that scales with the support).
pub trait SimBackend: Sized + Clone + Send + Sync {
    /// Human-readable engine name (for error messages and reports).
    const NAME: &'static str;

    /// The all-zeros state `|0…0⟩` on `num_qubits` qubits, with any
    /// large buffer allocated *fallibly*: the dense statevector reserves
    /// its `2ⁿ` amplitudes with `try_reserve`, so a request the
    /// allocator refuses returns [`SimError::AllocationFailed`] (which
    /// the execution governor turns into a partial report) instead of
    /// aborting the process.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidDimension`] when `num_qubits == 0`;
    /// * [`SimError::TooManyQubits`] beyond the backend's capacity;
    /// * [`SimError::AllocationFailed`] when the buffer cannot be
    ///   allocated.
    fn zero(num_qubits: usize) -> Result<Self, SimError>;

    /// Bytes of memory this state currently holds resident (buffers
    /// plus header). The execution governor polls this against its
    /// `max_resident_bytes` budget; an estimate is fine as long as it
    /// tracks the dominant buffer, so the default — the struct header
    /// alone — is only acceptable for backends with no heap state.
    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
    }

    /// Number of qubits.
    fn num_qubits(&self) -> usize;

    /// Overwrite `self` with an exact copy of `source`, reusing
    /// `self`'s allocations where possible.
    ///
    /// Semantically identical to `*self = source.clone()` (and that is
    /// the default implementation) — bit-for-bit, including any
    /// instrumentation counters — but backends override it to recycle
    /// their buffers: forking a trajectory from a checkpoint into a
    /// recycled state then costs one `memcpy`, not an allocation. `self`
    /// need not match `source`'s qubit count; after the call it is a
    /// copy of `source` regardless.
    fn copy_from(&mut self, source: &Self) {
        *self = source.clone();
    }

    /// Opt this state in to (or out of) amplitude-parallel kernels.
    ///
    /// A *policy* switch, not a semantic one: backends with chunked
    /// kernels (the dense statevector) produce bit-identical results at
    /// any thread count and merely spread the work; backends without
    /// them ignore the call entirely (the default is a no-op). Callers
    /// that fan out *across* states must leave the fanned-out states
    /// opted out so parallelism never nests.
    fn set_intra_parallel(&mut self, enabled: bool) {
        let _ = enabled;
    }

    /// Apply one lowered op.
    ///
    /// # Panics
    ///
    /// Panics if the backend cannot execute the op (the tableau runs
    /// only ops carrying a [`CliffordOp`] classification) or the op
    /// touches a qubit out of range.
    fn apply_op(&mut self, op: &SimOp);

    /// Apply a batch of lowered ops in order.
    ///
    /// Equivalent to calling [`apply_op`](SimBackend::apply_op) on each
    /// op in turn — the same state, bit for bit, and the same
    /// instrumentation counters — and that is the default. The dense
    /// statevector overrides it to apply runs of ops block by block on
    /// states larger than one cache block (see
    /// [`kernels`](crate::kernels)). Only a batch that panics can end in
    /// a different state: the ops of a blocked run are all validated
    /// before any of them is applied.
    ///
    /// # Panics
    ///
    /// As [`apply_op`](SimBackend::apply_op), for any op in the batch.
    fn apply_ops(&mut self, ops: &[SimOp]) {
        for op in ops {
            self.apply_op(op);
        }
    }

    /// Apply a single-qubit Pauli (the *Pauli* noise-channel primitive:
    /// Pauli conjugation is Clifford, so stochastic-Pauli trajectories
    /// replay on any backend).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    fn apply_pauli(&mut self, q: usize, p: Pauli);

    /// Unravel one Kraus-channel site on qubit `q`: compute the branch
    /// norms `pᵢ = ‖Kᵢ|ψ⟩‖²`, draw branch `i` with probability `pᵢ`
    /// (exactly **one** uniform from `rng`, drawn before any state
    /// work; zero draws for a single-operator set), apply `Kᵢ/√pᵢ`,
    /// and return the chosen branch index.
    ///
    /// # Panics
    ///
    /// The default panics: only the dense statevector has the
    /// amplitudes branch norms need (tableau and support-map
    /// representations don't offer them).
    fn apply_kraus<R: Rng + ?Sized>(&mut self, q: usize, ops: &[Matrix2], rng: &mut R) -> usize {
        let _ = (q, ops, rng);
        panic!(
            "the {} backend cannot unravel Kraus channels (no amplitude \
             access for branch norms); route Kraus noise to the dense backend",
            Self::NAME
        );
    }

    /// Marginal probability that qubit `q` measures `1`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    fn prob_one(&self, q: usize) -> f64;

    /// Measure qubit `q` in the computational basis, collapsing the
    /// state; the caller seeds the RNG (seeded collapse).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8;

    /// Draw one joint outcome of the listed qubits per RNG of `rngs`, in
    /// order, without disturbing `self`, packing the observed bit of
    /// `qubits[i]` into bit `i` of each outcome. The joint distribution
    /// is the Born rule marginal on `qubits`.
    ///
    /// This is the one sampling method a backend implements; each
    /// documents how a shot draws from its RNG, and a shot's outcome and
    /// its RNG's position afterwards depend only on `self`, `qubits` and
    /// that RNG. The dense statevector draws one uniform per RNG and maps
    /// them all in one scan of its amplitudes
    /// ([`State::sample_uniforms`]). The tableau and the support map
    /// measure the qubits in list order on a working copy, and prepare
    /// that readout once for all the shots: a shot makes the same draws,
    /// but copies the state only when its outcomes leave the prefixes
    /// earlier shots reached.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or `qubits.len() > 64`: the
    /// dense statevector whatever the RNGs, the other backends once
    /// there is an RNG.
    fn sample_each<'r, R: Rng + ?Sized + 'r>(
        &self,
        qubits: &[usize],
        rngs: impl IntoIterator<Item = &'r mut R>,
    ) -> Vec<u64>;

    /// Draw one joint outcome of the listed qubits: the one-shot case of
    /// [`sample_each`](SimBackend::sample_each),
    /// `self.sample_each(qubits, [rng])[0]`.
    ///
    /// # Panics
    ///
    /// As [`sample_each`](SimBackend::sample_each).
    fn sample_once<R: Rng + ?Sized>(&self, qubits: &[usize], rng: &mut R) -> u64 {
        self.sample_each(qubits, [rng])[0]
    }

    /// The exact joint Born distribution of the listed qubits, keyed by
    /// the packed outcome (bit `i` ← qubit `qubits[i]`). Outcomes with
    /// zero probability are omitted.
    ///
    /// This is the *measurement probabilities* entry point behind the
    /// exact assertion cross-check: the statevector backend scans its
    /// `2ⁿ` amplitudes; the tableau backend enumerates the (at most
    /// `2^|qubits|`) branches of its affine outcome space in polynomial
    /// time per branch.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or `qubits.len() > 64`.
    fn outcome_distribution(&self, qubits: &[usize]) -> HashMap<u64, f64>;
}

impl SimBackend for State {
    const NAME: &'static str = "statevector";

    fn zero(num_qubits: usize) -> Result<Self, SimError> {
        State::basis(num_qubits, 0)
    }

    fn resident_bytes(&self) -> usize {
        State::resident_bytes(self)
    }

    fn num_qubits(&self) -> usize {
        State::num_qubits(self)
    }

    fn copy_from(&mut self, source: &Self) {
        State::copy_from(self, source);
    }

    fn set_intra_parallel(&mut self, enabled: bool) {
        State::set_intra_parallel(self, enabled);
    }

    fn apply_op(&mut self, op: &SimOp) {
        self.apply_sim_op(op);
    }

    fn apply_ops(&mut self, ops: &[SimOp]) {
        if self.num_qubits() <= BLOCK_QUBITS {
            for op in ops {
                self.apply_sim_op(op);
            }
        } else {
            self.apply_ops_blocked(ops, BLOCK_QUBITS);
        }
    }

    fn apply_pauli(&mut self, q: usize, p: Pauli) {
        // The kernel lowering picks for the Pauli's matrix: X and Y are
        // anti-diagonal, Z is a phase-type diagonal.
        let m = p.matrix().0;
        let kernel = match p {
            Pauli::I => return,
            Pauli::X | Pauli::Y => KernelOp::AntiDiagonal {
                a01: m[0][1],
                a10: m[1][0],
            },
            Pauli::Z => KernelOp::Diagonal {
                d0: m[0][0],
                d1: m[1][1],
            },
        };
        self.apply_sim_op(&SimOp::new(Vec::new(), q, kernel));
    }

    fn apply_kraus<R: Rng + ?Sized>(&mut self, q: usize, ops: &[Matrix2], rng: &mut R) -> usize {
        State::apply_kraus(self, q, ops, rng)
    }

    fn prob_one(&self, q: usize) -> f64 {
        State::prob_one(self, q)
    }

    fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        State::measure_qubit(self, q, rng)
    }

    /// One uniform per RNG, all mapped to full-register outcomes by one
    /// ascending scan ([`State::sample_uniforms`]), then packed over
    /// `qubits`.
    fn sample_each<'r, R: Rng + ?Sized + 'r>(
        &self,
        qubits: &[usize],
        rngs: impl IntoIterator<Item = &'r mut R>,
    ) -> Vec<u64> {
        assert!(qubits.len() <= 64, "cannot pack more than 64 qubits");
        for &q in qubits {
            self.check_qubit(q);
        }
        let uniforms: Vec<f64> = rngs.into_iter().map(|rng| rng.gen()).collect();
        self.sample_uniforms(&uniforms)
            .into_iter()
            .map(|outcome| extract_bits(outcome, qubits))
            .collect()
    }

    fn outcome_distribution(&self, qubits: &[usize]) -> HashMap<u64, f64> {
        assert!(qubits.len() <= 64, "cannot pack more than 64 qubits");
        for &q in qubits {
            self.check_qubit(q);
        }
        let mut dist: HashMap<u64, f64> = HashMap::new();
        for i in 0..self.dim() {
            let p = self.probability(i);
            if p > 0.0 {
                *dist.entry(extract_bits(i as u64, qubits)).or_insert(0.0) += p;
            }
        }
        dist
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn bell() -> State {
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_controlled_1q(&[0], 1, &gates::x());
        s
    }

    #[test]
    fn state_apply_op_matches_kernel_entry_points() {
        let op = SimOp::new(
            vec![0],
            1,
            KernelOp::AntiDiagonal {
                a01: Complex::ONE,
                a10: Complex::ONE,
            },
        )
        .with_clifford(Some(CliffordOp::Cx {
            control: 0,
            target: 1,
        }));
        let mut via_trait = State::zero(2);
        via_trait.apply_1q(0, &gates::h());
        via_trait.apply_op(&op);
        assert_eq!(via_trait, bell());
        assert_eq!(
            op.clifford(),
            Some(&CliffordOp::Cx {
                control: 0,
                target: 1
            })
        );
    }

    #[test]
    fn sim_op_visits_qubits_in_source_order() {
        let op = SimOp::new(vec![3, 1], 0, KernelOp::Swap { other: 2 });
        let mut seen = Vec::new();
        op.for_each_qubit(|q| seen.push(q));
        assert_eq!(seen, vec![3, 1, 0, 2]);
    }

    #[test]
    fn outcome_distribution_matches_probabilities() {
        let s = bell();
        let full = s.outcome_distribution(&[0, 1]);
        assert_eq!(full.len(), 2);
        assert!((full[&0b00] - 0.5).abs() < 1e-12);
        assert!((full[&0b11] - 0.5).abs() < 1e-12);
        // Marginal of one qubit: uniform.
        let marginal = s.outcome_distribution(&[1]);
        assert!((marginal[&0] - 0.5).abs() < 1e-12);
        assert!((marginal[&1] - 0.5).abs() < 1e-12);
        // Qubit order controls bit packing.
        let mut one = State::zero(2);
        one.apply_1q(0, &gates::x());
        let swapped = one.outcome_distribution(&[1, 0]);
        assert!((swapped[&0b10] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn sample_once_respects_support_and_packing() {
        let s = bell();
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let o = SimBackend::sample_once(&s, &[0, 1], &mut rng);
            assert!(o == 0b00 || o == 0b11, "impossible outcome {o:#b}");
        }
    }

    #[test]
    fn trait_zero_matches_basis_and_guards() {
        let z = <State as SimBackend>::zero(3).unwrap();
        assert_eq!(z, State::zero(3));
        assert!(<State as SimBackend>::zero(0).is_err());
    }

    #[test]
    fn apply_pauli_matches_apply_1q() {
        // On a 5-qubit state with every amplitude nonzero, at every
        // target: the run walk (targets 3, 4) and the tile walk.
        let mut spread = State::zero(5);
        for q in 0..5 {
            spread.apply_1q(q, &gates::h());
            spread.apply_1q(q, &gates::rz(0.3 + q as f64));
        }
        for p in [Pauli::X, Pauli::Y, Pauli::Z] {
            for q in 0..5 {
                let mut a = spread.clone();
                SimBackend::apply_pauli(&mut a, q, p);
                let mut b = spread.clone();
                b.apply_1q(q, &p.matrix());
                assert_eq!(a, b, "{p:?} on {q}");
                assert_eq!(a.gate_ops(), b.gate_ops(), "{p:?} on {q}");
                assert_eq!(a.index_ops(), b.index_ops(), "{p:?} on {q}");
            }
        }
        // Identity is a no-op (and counts no gate).
        let mut a = bell();
        let ops_before = a.gate_ops();
        SimBackend::apply_pauli(&mut a, 0, Pauli::I);
        assert_eq!(a.gate_ops(), ops_before);
    }
}
