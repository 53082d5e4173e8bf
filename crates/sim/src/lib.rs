//! # qdb-sim — dense, stabilizer and sparse quantum simulators
//!
//! The ISCA 2019 statistical-assertions paper ran its ensembles on the QX
//! simulator; this crate is the from-scratch Rust replacement: three
//! engines (dense statevector, stabilizer tableau, sparse amplitude map)
//! behind one [`SimBackend`] contract. It provides everything the
//! assertion machinery needs:
//!
//! * [`complex`] — a self-contained double-precision complex number type.
//! * [`gates`] — standard single-qubit gate matrices (H, X, Y, Z, S, T,
//!   rotations, phase) as 2×2 unitaries.
//! * [`state`] — the dense state vector: gate application (single-qubit,
//!   multiply-controlled, arbitrary k-qubit unitaries), inner products,
//!   fidelity, tensor products.
//! * [`kernels`] — specialized gate kernels (diagonal, anti-diagonal,
//!   control-subspace enumeration, blocked gate runs) behind the dense
//!   statevector's [`SimBackend::apply_op`] and
//!   [`SimBackend::apply_ops`], the compiled hot path of `qdb-circuit`;
//!   the generic [`state`] entry points remain the reference semantics.
//! * [`backend`] — the [`SimBackend`] trait abstracting simulation
//!   engines behind one contract (fallible `|0…0⟩` construction,
//!   lowered-op application, Pauli faults and Kraus unraveling,
//!   measurement probabilities, sampling, seeded collapse), with the
//!   dense [`State`] as the reference engine.
//! * [`stabilizer`] — an Aaronson–Gottesman Clifford tableau backend:
//!   polynomial-time simulation of H/S/CX-class circuits at hundreds of
//!   qubits, where the dense backend cannot even allocate.
//! * [`sparse`] — a sorted amplitude-support-map backend for structured
//!   *non-Clifford* programs past the dense ceiling (30–60 qubits):
//!   cost scales with the live support size, not `2ⁿ`.
//! * [`measure`] — ensemble sampling (one ascending scan of the
//!   amplitudes per ensemble, checked against a cumulative-distribution
//!   sampler) and collapsing mid-circuit measurement, as needed for
//!   iterative phase estimation.
//! * [`density`] — reduced density matrices by partial trace, purity, and
//!   von Neumann entropy: the *exact* (non-statistical) entanglement
//!   oracle used to cross-validate the paper's statistical verdicts.
//! * [`linalg`] — a cyclic-Jacobi Hermitian eigensolver used by the
//!   density-matrix entropy computation and by the quantum-chemistry
//!   benchmark's exact diagonalization.
//!
//! ## Qubit ordering
//!
//! Qubit `k` is the *k-th least significant bit* of a basis-state index.
//! This matches the paper's Scaffold listings, which initialize registers
//! with `PrepZ(reg[i], (val >> i) & 1)` — `reg[0]` is the least significant
//! bit of the integer value.
//!
//! # Example
//!
//! ```
//! use qdb_sim::{gates, State};
//!
//! // Bell state: H on qubit 0, then CNOT(0 → 1). (Figure 1 of the paper.)
//! let mut state = State::zero(2);
//! state.apply_1q(0, &gates::h());
//! state.apply_controlled_1q(&[0], 1, &gates::x());
//! assert!((state.probability(0b00) - 0.5).abs() < 1e-12);
//! assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
//! assert!(state.probability(0b01) < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod backend;
pub mod complex;
pub mod density;
pub mod gates;
pub mod kernels;
pub mod linalg;
pub mod measure;
pub mod noise;
pub mod sparse;
pub mod stabilizer;
pub mod state;

mod error;
mod readout;

pub use backend::{CliffordGate1, CliffordOp, KernelOp, SimBackend, SimOp};
pub use complex::Complex;
pub use error::SimError;
pub use gates::Matrix2;
pub use measure::Sampler;
pub use noise::{KrausSet, NoiseChannel, NoiseModel, ReadoutError, CPTP_TOL, MAX_KRAUS_OPS};
pub use sparse::SparseState;
pub use stabilizer::StabilizerState;
pub use state::{Pauli, State};
