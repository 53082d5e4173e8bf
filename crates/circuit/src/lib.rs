//! # qdb-circuit — quantum program IR and language front-end
//!
//! This crate stands in for the paper's Scaffold language and ScaffCC
//! compiler layers:
//!
//! * [`instruction`] — the gate instruction set (multiply-controlled
//!   single-qubit gates and swaps).
//! * [`circuit`] — gate sequences with composition, [`Circuit::adjoint`]
//!   (the §4.5 *mirroring* pattern), [`Circuit::controlled`] (the §4.4
//!   *recursion* pattern), simulation, and dense-unitary extraction for
//!   cross-validation against closed forms.
//! * [`compile`] — lowering: [`CompiledCircuit`] precomputes every
//!   gate matrix once and classifies each instruction into a
//!   specialized `qdb-sim` kernel, so the ensemble engine's hot path
//!   stops rebuilding rotations and scanning control-unsatisfied
//!   indices.
//! * [`register`] — named quantum variables mapped onto qubits (the
//!   paper's footnote-3 bookkeeping).
//! * [`program`] — assertion-annotated programs: circuits plus
//!   `assert_classical` / `assert_superposition` / `assert_entangled` /
//!   `assert_product` breakpoints, with per-breakpoint prefix extraction
//!   (ScaffCC's one-OpenQASM-per-assertion compilation).
//! * [`scopes`] — ProjectQ-style `Control` and compute/uncompute
//!   combinators (Table 4's higher-level language features).
//! * [`qasm`] — OpenQASM 2.0 emission and parsing.
//!
//! # Example
//!
//! ```
//! use qdb_circuit::{GateSink, Program};
//!
//! let mut program = Program::new();
//! let reg = program.alloc_register("reg", 2);
//! program.prep_int(&reg, 0);
//! program.h(reg.bit(0));
//! program.cx(reg.bit(0), reg.bit(1));
//! // Mark a breakpoint: the two halves of the Bell pair are entangled.
//! let a = qdb_circuit::QReg::new("m0", vec![reg.bit(0)]);
//! let b = qdb_circuit::QReg::new("m1", vec![reg.bit(1)]);
//! program.assert_entangled(&a, &b);
//! assert_eq!(program.breakpoints().len(), 1);
//! ```

#![warn(missing_docs)]

pub mod circuit;
pub mod compile;
pub mod instruction;
pub mod plan_cache;
pub mod program;
pub mod qasm;
pub mod register;
pub mod scaffold;
pub mod scopes;

mod error;
mod fingerprint;

pub use circuit::{Circuit, GateSink};
pub use compile::{CompiledCircuit, CompiledOp, FaultEvent, KernelClass, OptLevel};
pub use error::CircuitError;
pub use instruction::{GateKind, Instruction};
pub use plan_cache::PlanCache;
pub use program::{Breakpoint, BreakpointKind, Program, Segment};
pub use qasm::{from_qasm, to_qasm, ParsedQasm};
pub use register::QReg;
pub use scaffold::parse_scaffold;
