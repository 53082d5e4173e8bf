//! # qdb-core — statistical quantum program assertions
//!
//! The primary contribution of the ISCA 2019 paper, reimplemented as a
//! library: given an assertion-annotated [`Program`](qdb_circuit::Program),
//! QDB
//!
//! 1. **splits** the program at each breakpoint into a prefix circuit
//!    (what ScaffCC did by emitting one OpenQASM file per assertion),
//! 2. **simulates** each prefix and draws an *ensemble* of early
//!    measurements (what the QX cluster runs did), and
//! 3. **decides** each assertion with a chi-square statistical test
//!    (point-mass test for `assert_classical`, uniformity test for
//!    `assert_superposition`, contingency-table independence test for
//!    `assert_entangled` / `assert_product`).
//!
//! Every statistical verdict can be cross-checked against an *exact*
//! verdict computed from the simulator amplitudes
//! ([`checker::exact_verdict_on`]), replacing the paper's cross-validation
//! against LIQUi|>, ProjectQ, and Q#.
//!
//! Every engine — the checkpointed sweep, the per-prefix replay, the
//! noisy trajectory tree and per-shot trajectories — replays one compiled
//! plan ([`qdb_circuit::CompiledCircuit`]) through the execution
//! [`governor`], which polls the session's [`RunBudget`] after every op
//! batch; and every report's test runs through one dispatch on
//! [`BreakpointKind`](qdb_circuit::BreakpointKind), the one
//! [`checker::check_breakpoint_with`] also uses.
//!
//! ```
//! use qdb_circuit::{GateSink, Program, QReg};
//! use qdb_core::{Debugger, EnsembleConfig};
//!
//! // Figure 1: Bell pair with an entanglement assertion.
//! let mut p = Program::new();
//! let q = p.alloc_register("q", 2);
//! p.h(q.bit(0));
//! p.cx(q.bit(0), q.bit(1));
//! let m0 = QReg::new("m0", vec![q.bit(0)]);
//! let m1 = QReg::new("m1", vec![q.bit(1)]);
//! p.assert_entangled(&m0, &m1);
//!
//! let report = Debugger::new(EnsembleConfig::default()).run(&p)?;
//! assert!(report.all_passed());
//! # Ok::<(), qdb_core::CoreError>(())
//! ```

#![warn(missing_docs)]

pub mod checker;
pub mod debugger;
#[cfg(any(test, feature = "faultinject"))]
pub mod faultinject;
pub mod governor;
pub mod report;
pub mod runner;
pub mod sweep;
pub mod trajectory;

mod error;
mod layout;

pub use checker::{check_breakpoint_with, exact_verdict_on, IndependenceMethod};
pub use debugger::{DebugReport, Debugger};
pub use error::CoreError;
pub use governor::{CancelToken, InterruptCause, RunBudget};
pub use report::{AssertionReport, PartialReport, TestKind, Verdict};
pub use runner::{
    BackendChoice, EnsembleConfig, EnsembleConfigBuilder, EnsembleRunner, ExecutionStrategy,
    MeasuredEnsemble,
};
pub use sweep::SweepRunner;
pub use trajectory::{NoisySessionStats, TrajectoryStats};

// The (single-valued) lowering level lives in `qdb-circuit`; it is
// re-exported beside `EnsembleConfig`, whose `opt` field names it.
// Likewise the backend trait and engines live in `qdb-sim` but are
// selected per session via `BackendChoice`.
pub use qdb_circuit::OptLevel;
pub use qdb_sim::{SimBackend, StabilizerState};
