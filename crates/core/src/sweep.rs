//! Checkpointed single-pass ensemble execution.
//!
//! The paper's QX-cluster workflow (and this crate's per-prefix
//! reference path, [`EnsembleRunner::run_breakpoint`]) re-simulates the
//! program prefix from `|0…0⟩` for every breakpoint: a program with `B`
//! breakpoints and `G` gates pays `O(Σᵢ|prefixᵢ|) = O(B·G)` gate
//! applications in ideal mode. The [`SweepRunner`] instead evolves the
//! ideal state through the program **exactly once**, pausing at each
//! breakpoint to draw that breakpoint's ensemble from the live state —
//! `O(G)` gate applications total, verified by
//! [`State::gate_ops`](qdb_sim::State::gate_ops).
//!
//! The sweep runs the *compiled* program: the circuit is lowered once
//! ([`Program::compile`](qdb_circuit::Program::compile)) and each
//! inter-breakpoint segment replays a window of that plan
//! ([`CompiledCircuit::apply_range`](qdb_circuit::CompiledCircuit::apply_range)),
//! the same plan the per-prefix path replays from `|0…0⟩`. The sweep is
//! therefore report-equivalent to the per-prefix path, bit for bit:
//!
//! * the state at breakpoint `i` is value-identical to the replayed
//!   prefix's (the same ops in the same order), and compiled ops are
//!   value-identical to interpreting the instructions they lower (see
//!   `qdb_sim::kernels` for the contract);
//! * each breakpoint draws its ensemble the same way on both paths (a
//!   pure function of the seed, the breakpoint and the ideal state), so
//!   the outcomes, histograms, p-values, and verdicts are identical.
//!
//! With [`EnsembleConfig::parallel`] on, the sweep parallelizes in two
//! places, both bit-neutral. Sampling: shots fan out over rayon (on the
//! dense statevector the uniform variates are drawn serially — they
//! *are* the determinism contract — and only the CDF inversions fan
//! out). Intra-state kernels: at ≥
//! [`INTRA_PAR_MIN_QUBITS`](qdb_sim::kernels::INTRA_PAR_MIN_QUBITS)
//! qubits the walked backend chunks each gate's amplitude runs across
//! workers — same pairs, same order, same arithmetic, so the evolution
//! is bit-identical to the serial walk at any thread count. Programs
//! wanting breakpoint fan-out instead can keep
//! [`ExecutionStrategy::PerPrefix`].
//!
//! Noisy ensembles have their own sharing engine: under the default
//! [`ExecutionStrategy::Sweep`], [`EnsembleRunner`] routes them to the
//! trajectory tree ([`crate::trajectory`]), which presamples fault
//! patterns, deduplicates identical trajectories, and forks distinct
//! ones from a shared ideal frontier — the noisy counterpart of this
//! module's checkpointed pass. `ExecutionStrategy::PerPrefix` keeps
//! the per-shot reference path.
//!
//! [`EnsembleRunner`]: crate::runner::EnsembleRunner
//! [`ExecutionStrategy::Sweep`]: crate::runner::ExecutionStrategy::Sweep
//! [`EnsembleRunner::run_breakpoint`]: crate::runner::EnsembleRunner::run_breakpoint
//! [`ExecutionStrategy::PerPrefix`]: crate::runner::ExecutionStrategy::PerPrefix

use qdb_circuit::{Breakpoint, CompiledCircuit, GateSink, Program};
use qdb_sim::{NoiseModel, SimBackend};

use crate::error::CoreError;
use crate::governor::{self, Governor, InterruptCause};
use crate::runner::{EnsembleConfig, EnsembleRunner, ExecutionStrategy, MeasuredEnsemble};

/// Single-pass checkpointed executor for ideal (noiseless) ensembles.
///
/// Usually reached through
/// [`EnsembleRunner`] with the default [`ExecutionStrategy::Sweep`];
/// constructing one directly is useful when the caller wants the
/// snapshot states themselves ([`SweepRunner::run_all`]).
#[derive(Debug, Clone, Default)]
pub struct SweepRunner {
    config: EnsembleConfig,
}

impl SweepRunner {
    /// Create a sweep runner with the given configuration (the `noise`
    /// field is ignored — see the module docs).
    #[must_use]
    pub fn new(config: EnsembleConfig) -> Self {
        Self { config }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &EnsembleConfig {
        &self.config
    }

    /// The backend-generic sweep: evolve `B`'s `|0…0⟩` state through
    /// `plan` once, invoking `visit` with the live (borrowed) backend
    /// state at each breakpoint — the same `O(G)` gate-application
    /// bound on every backend. The caller supplies the plan (compile
    /// via [`Program::compile`]); [`EnsembleConfig::noise`] is ignored —
    /// the walk is always the *ideal* evolution.
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadConfig`] for invalid configurations;
    /// * simulator errors for malformed programs (e.g. zero qubits);
    /// * [`CoreError::Interrupted`] when the configured
    ///   [`RunBudget`](crate::RunBudget) trips mid-walk (the partial
    ///   report carries only `Unevaluated` markers here — the typed
    ///   visit results cannot be turned back into reports; use
    ///   [`EnsembleRunner::check_program`]
    ///   for interruption with a real evaluated prefix);
    /// * whatever `visit` returns.
    pub fn walk_backend<B: SimBackend, T>(
        &self,
        program: &Program,
        plan: &CompiledCircuit,
        visit: impl FnMut(usize, &Breakpoint, &B) -> Result<T, CoreError>,
    ) -> Result<Vec<T>, CoreError> {
        let governor = Governor::new(&self.config.budget);
        let (out, interrupted) = self.walk_backend_governed(program, plan, &governor, visit)?;
        match interrupted {
            None => Ok(out),
            Some(cause) => Err(governor::interrupted(program, Vec::new(), cause)),
        }
    }

    /// The governed engine under [`walk_backend`](SweepRunner::walk_backend)
    /// and the check path: evolve the state segment by segment through
    /// [`Governor::advance`] (which polls after every op batch, the last
    /// one ending the segment), with each segment's work panic-contained.
    ///
    /// On a trip, returns the visits completed **before** the tripping
    /// segment (a strict prefix, bit-identical to the uninterrupted
    /// walk's prefix) together with the cause; `Ok((…, None))` is an
    /// uninterrupted walk.
    pub(crate) fn walk_backend_governed<B: SimBackend, T>(
        &self,
        program: &Program,
        plan: &CompiledCircuit,
        governor: &Governor,
        mut visit: impl FnMut(usize, &Breakpoint, &B) -> Result<T, CoreError>,
    ) -> Result<(Vec<T>, Option<InterruptCause>), CoreError> {
        self.config.validate()?;
        let breakpoints = program.breakpoints();
        let mut out = Vec::with_capacity(breakpoints.len());
        if breakpoints.is_empty() {
            return Ok((out, None));
        }
        let num_qubits = program.circuit().num_qubits();
        match governor.contain(|| governor.injected_fork_fault()) {
            Ok(None) => {}
            Ok(Some(cause)) | Err(cause) => return Ok((out, Some(cause))),
        }
        // Matches the per-prefix path's start state (and its error for
        // zero-qubit programs); an allocator refusal becomes a trip.
        let mut backend = match governor.zero_state::<B>(num_qubits) {
            Ok(backend) => backend,
            Err(CoreError::Interrupted { cause, .. }) => return Ok((out, Some(cause))),
            Err(e) => return Err(e),
        };
        // The walk is a single serial state, so intra-state kernel
        // chunking never competes with shot fan-out here (the sweep's
        // only shot fan-out is CDF inversion, which runs between
        // segments).
        backend.set_intra_parallel(self.config.parallel);
        for segment in program.segments() {
            let step = governor.contain(|| -> Result<T, CoreError> {
                governor
                    .advance(plan, &mut backend, segment.range(), &[])
                    .map_err(governor::trip_error)?;
                visit(segment.index, &breakpoints[segment.index], &backend)
            });
            match step {
                Ok(Ok(item)) => out.push(item),
                Ok(Err(CoreError::Interrupted { cause, .. })) => {
                    governor.trip(cause.clone());
                    return Ok((out, Some(cause)));
                }
                Ok(Err(e)) => return Err(e),
                Err(cause) => return Ok((out, Some(cause))),
            }
        }
        Ok((out, None))
    }

    /// Run every breakpoint in one sweep on the dense statevector,
    /// returning each breakpoint's measured ensemble plus a checkpoint
    /// of the ideal state: [`EnsembleRunner::run_all`] under
    /// [`ExecutionStrategy::Sweep`] with noise ignored.
    ///
    /// Equivalent to calling
    /// [`run_breakpoint`](EnsembleRunner::run_breakpoint)
    /// for every index (same outcomes, same states, bit for bit) at
    /// `O(G)` instead of `O(Σᵢ|prefixᵢ|)` total gate applications. Each
    /// returned checkpoint inherits the sweep's cumulative
    /// [`State::gate_ops`] counter, so
    /// `ensembles.last().state.gate_ops()` is the total simulation work
    /// of the whole run.
    ///
    /// [`State::gate_ops`]: qdb_sim::State::gate_ops
    ///
    /// # Errors
    ///
    /// * [`CoreError::BadConfig`] for invalid configurations;
    /// * simulator errors for malformed programs.
    pub fn run_all(&self, program: &Program) -> Result<Vec<MeasuredEnsemble>, CoreError> {
        let config = self
            .config
            .with_strategy(ExecutionStrategy::Sweep)
            .with_noise(NoiseModel::noiseless());
        EnsembleRunner::new(config).run_all(program)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::PARALLEL_SAMPLING_MIN_SHOTS;

    /// prep 5 → assert classical → H layer → assert superposition →
    /// more gates → assert superposition.
    fn staircase_program() -> Program {
        let mut p = Program::new();
        let r = p.alloc_register("r", 3);
        p.prep_int(&r, 5);
        p.assert_classical(&r, 5);
        for i in 0..3 {
            p.h(r.bit(i));
        }
        p.assert_superposition(&r);
        p.t(r.bit(0));
        p.cx(r.bit(0), r.bit(1));
        p.assert_superposition(&r);
        p
    }

    #[test]
    fn sweep_ensembles_match_per_prefix_bit_for_bit() {
        let p = staircase_program();
        let config = EnsembleConfig::default().with_shots(128).with_seed(9);
        let sweep = SweepRunner::new(config.clone()).run_all(&p).unwrap();
        let reference = EnsembleRunner::new(config.with_strategy(ExecutionStrategy::PerPrefix));
        assert_eq!(sweep.len(), p.breakpoints().len());
        for (index, ensemble) in sweep.iter().enumerate() {
            let legacy = reference.run_breakpoint(&p, index).unwrap();
            assert_eq!(ensemble.outcomes, legacy.outcomes);
            assert_eq!(ensemble.state, legacy.state);
        }
    }

    #[test]
    fn sweep_does_linear_work_while_per_prefix_replays() {
        let p = staircase_program();
        let positions: Vec<u64> = p.breakpoints().iter().map(|b| b.position as u64).collect();
        let config = EnsembleConfig::default().with_shots(16);

        let sweep = SweepRunner::new(config.clone()).run_all(&p).unwrap();
        for (ensemble, &position) in sweep.iter().zip(&positions) {
            // Checkpoint i has undergone exactly prefix-i's gates once.
            assert_eq!(ensemble.state.gate_ops(), position);
        }
        let sweep_work = sweep.last().unwrap().state.gate_ops();
        assert_eq!(sweep_work, *positions.last().unwrap(), "O(G) total");

        let reference = EnsembleRunner::new(config.with_strategy(ExecutionStrategy::PerPrefix));
        let per_prefix_work: u64 = (0..positions.len())
            .map(|i| reference.run_breakpoint(&p, i).unwrap().state.gate_ops())
            .sum();
        assert_eq!(
            per_prefix_work,
            positions.iter().sum::<u64>(),
            "O(Σ|prefix|)"
        );
        assert!(per_prefix_work > sweep_work);
    }

    #[test]
    fn serial_and_parallel_sweep_sampling_agree() {
        let p = staircase_program();
        // Past the fan-out threshold, so the parallel arm really runs.
        let base = EnsembleConfig::default()
            .with_shots(PARALLEL_SAMPLING_MIN_SHOTS + 1)
            .with_seed(31);
        let serial = SweepRunner::new(base.with_parallel(false))
            .run_all(&p)
            .unwrap();
        let parallel = SweepRunner::new(base.with_parallel(true))
            .run_all(&p)
            .unwrap();
        for (s, q) in serial.iter().zip(&parallel) {
            assert_eq!(s.outcomes, q.outcomes);
        }
    }

    #[test]
    fn empty_program_sweeps_to_nothing() {
        let mut p = Program::new();
        let _ = p.alloc_register("r", 2);
        let ensembles = SweepRunner::new(EnsembleConfig::default())
            .run_all(&p)
            .unwrap();
        assert!(ensembles.is_empty());
    }

    #[test]
    fn invalid_config_is_rejected() {
        let p = staircase_program();
        let bad = EnsembleConfig::default().with_shots(0);
        assert!(SweepRunner::new(bad).run_all(&p).is_err());
    }
}
