//! Split a session across the layers by re-executing its parts through
//! each layer's public API, as child spans of the session span.
//!
//! The parts are the plan compile (`qdb-circuit`), the ideal sweep walk
//! (`qdb-core` engine over the `qdb-sim` kernels), the ensemble draw
//! (`qdb-sim` sampler), the statistical test and the exact oracle
//! (`qdb-core::checker` over `qdb-stats`). For dense ideal sessions the
//! re-executed tests must reproduce the session's p-values and
//! statistics bit for bit: that is what shows the split measures the
//! same work. Every session must reproduce its exact verdicts.

use rand::rngs::StdRng;
use rand::SeedableRng;

use qdb_circuit::{BreakpointKind, OptLevel, Program};
use qdb_core::checker::{
    check_breakpoint_with, check_classical, check_entangled_with, check_product_with,
    check_superposition, exact_verdict_on, CheckOutcome,
};
use qdb_core::{AssertionReport, BackendChoice, CoreError, EnsembleConfig, SweepRunner};
use qdb_sim::{Sampler, SimBackend, SparseState, StabilizerState, State};

use crate::trace::Tracer;
use crate::workloads::Job;

/// Work counters read off the walked state after its last breakpoint.
#[derive(Debug, Clone, Copy, Default)]
pub struct WalkCounters {
    /// Gate applications.
    pub gate_ops: u64,
    /// Basis-index loop iterations (dense states only).
    pub index_ops: u64,
    /// Amplitude chunks dispatched to the parallel runtime.
    pub par_chunks: u64,
}

/// A backend the walk can run on: the counters it keeps, and the dense
/// state when it is one (dense sessions draw from one CDF over the full
/// register, the others shot by shot over the asserted qubits).
trait Walked: SimBackend {
    fn counters(&self) -> WalkCounters;
    fn dense(&self) -> Option<&State> {
        None
    }
}

impl Walked for State {
    fn counters(&self) -> WalkCounters {
        WalkCounters {
            gate_ops: self.gate_ops(),
            index_ops: self.index_ops(),
            par_chunks: self.par_chunks(),
        }
    }
    fn dense(&self) -> Option<&State> {
        Some(self)
    }
}

impl Walked for StabilizerState {
    fn counters(&self) -> WalkCounters {
        WalkCounters {
            gate_ops: self.gate_ops(),
            ..WalkCounters::default()
        }
    }
}

impl Walked for SparseState {
    fn counters(&self) -> WalkCounters {
        WalkCounters {
            gate_ops: self.gate_ops(),
            ..WalkCounters::default()
        }
    }
}

/// Which engine `EnsembleRunner` routes a session to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// Dense statevector.
    Dense,
    /// Stabilizer tableau.
    Stabilizer,
    /// Sparse amplitude map.
    Sparse,
}

/// Mirror of the runner's backend resolution for the programs the
/// workloads use (Pauli noise only, everything fits some backend).
#[must_use]
pub fn route(job: &Job) -> Route {
    let n = job.program.num_qubits();
    match job.config.backend {
        BackendChoice::Stabilizer => Route::Stabilizer,
        BackendChoice::Sparse => Route::Sparse,
        BackendChoice::Statevector => Route::Dense,
        BackendChoice::Auto if job.program.circuit().is_clifford() => Route::Stabilizer,
        BackendChoice::Auto if n <= qdb_sim::state::MAX_QUBITS => Route::Dense,
        BackendChoice::Auto => Route::Sparse,
    }
}

fn breakpoint_qubits(kind: &BreakpointKind) -> Vec<usize> {
    match kind {
        BreakpointKind::Classical { register, .. } | BreakpointKind::Superposition { register } => {
            register.qubits().to_vec()
        }
        BreakpointKind::Entangled { a, b } | BreakpointKind::Product { a, b } => {
            a.qubits().iter().chain(b.qubits()).copied().collect()
        }
    }
}

/// The statistical test a non-dense session runs on packed outcomes of
/// the breakpoint's qubits.
fn check_packed(
    kind: &BreakpointKind,
    outcomes: &[u64],
    config: &EnsembleConfig,
) -> Result<CheckOutcome, CoreError> {
    let pairs = |a_width: usize| -> Vec<(u64, u64)> {
        let mask = if a_width >= 64 {
            u64::MAX
        } else {
            (1u64 << a_width) - 1
        };
        outcomes.iter().map(|&o| (o & mask, o >> a_width)).collect()
    };
    match kind {
        BreakpointKind::Classical { expected, .. } => {
            check_classical(outcomes, *expected, config.alpha)
        }
        BreakpointKind::Superposition { register } => {
            check_superposition(outcomes, register.width(), config.alpha)
        }
        BreakpointKind::Entangled { a, .. } => {
            check_entangled_with(&pairs(a.width()), config.alpha, config.independence)
        }
        BreakpointKind::Product { a, .. } => {
            check_product_with(&pairs(a.width()), config.alpha, config.independence)
        }
    }
}

/// What a decomposition found besides its spans.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// The walk's work counters.
    pub counters: WalkCounters,
    /// Mismatches between re-executed tests and the session's reports
    /// (tests of dense ideal sessions; exact verdicts of every session).
    pub mismatches: Vec<String>,
    /// Span of the walk (its children are the per-breakpoint parts).
    pub walk_span: usize,
}

/// Re-execute the parts of session `session` (already timed as span
/// `root`) as child spans.
///
/// # Errors
///
/// Errors from the re-executed library calls.
pub fn split(
    tracer: &mut Tracer,
    session: u64,
    root: usize,
    job: &Job,
    reports: &[AssertionReport],
) -> Result<Split, CoreError> {
    let route = route(job);
    let config = &job.config;
    // The plan the session's engine executes: the configured opt level
    // for the ideal dense sweep, `Specialize` everywhere else (noise
    // insertion points and tableau/sparse lowering).
    let opt = if route == Route::Dense && config.noise.is_none() {
        config.opt
    } else {
        OptLevel::Specialize
    };
    let (plan, _) = tracer.time(session, "circuit.compile", Some(root), || {
        job.program.compile(opt)
    });
    match route {
        Route::Dense => walk::<State>(tracer, session, root, job, &plan, reports),
        Route::Stabilizer => walk::<StabilizerState>(tracer, session, root, job, &plan, reports),
        Route::Sparse => walk::<SparseState>(tracer, session, root, job, &plan, reports),
    }
}

fn walk<B: Walked>(
    tracer: &mut Tracer,
    session: u64,
    root: usize,
    job: &Job,
    plan: &qdb_circuit::CompiledCircuit,
    reports: &[AssertionReport],
) -> Result<Split, CoreError> {
    let config = &job.config;
    let program: &Program = &job.program;
    let ideal = config.noise.is_none();
    let mut out = Split {
        walk_span: tracer.open(session, "sim.walk", Some(root)),
        ..Split::default()
    };
    let walk_span = out.walk_span;
    let mut sampler = Sampler::default();
    let walker = SweepRunner::new(config.clone());
    let result = walker.walk_backend::<B, ()>(program, plan, |index, bp, state| {
        // A noisy session draws its ensemble inside the trajectory tree;
        // here the draw and the test run on the ideal state at the same
        // shot count, which is the same amount of work.
        // Off the dense backend the draws come from one stream of their
        // own: the same number of `sample_once` calls as the session
        // makes, though not the session's outcomes.
        let sample = tracer.open(session, "sim.sample", Some(walk_span));
        let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(index as u64));
        let outcomes: Vec<u64> = match state.dense() {
            Some(dense) => {
                sampler.rebuild(dense);
                sampler.sample_many(&mut rng, config.shots)
            }
            None => {
                let qubits = breakpoint_qubits(&bp.kind);
                (0..config.shots)
                    .map(|_| state.sample_once(&qubits, &mut rng))
                    .collect()
            }
        };
        tracer.close(sample);
        let check = tracer.open(session, "stats.check", Some(walk_span));
        let outcome = if state.dense().is_some() {
            check_breakpoint_with(&bp.kind, &outcomes, config.alpha, config.independence)
        } else {
            check_packed(&bp.kind, &outcomes, config)
        }?;
        tracer.close(check);
        let (exact, _) = tracer.time(session, "stats.exact", Some(walk_span), || {
            exact_verdict_on(&bp.kind, state, config.exact_tol)
        });
        out.counters = state.counters();
        // Noisy sessions test noisy ensembles, and the draws above
        // differ from the session's off the dense backend; only the
        // exact verdict, taken from the ideal state, is comparable there.
        let report = &reports[index];
        let same_test = !(ideal && state.dense().is_some())
            || (outcome.p_value.to_bits() == report.p_value.to_bits()
                && outcome.statistic.to_bits() == report.statistic.to_bits()
                && outcome.verdict == report.verdict);
        if !same_test || report.exact.is_some_and(|e| e != exact) {
            out.mismatches.push(format!(
                "{} breakpoint {index}: re-executed p={:e} stat={:e} {:?}/{exact:?}, \
                 session p={:e} stat={:e} {:?}/{:?}",
                job.kind,
                outcome.p_value,
                outcome.statistic,
                outcome.verdict,
                report.p_value,
                report.statistic,
                report.verdict,
                report.exact
            ));
        }
        Ok(())
    });
    tracer.close(walk_span);
    result.map(|_| out)
}
