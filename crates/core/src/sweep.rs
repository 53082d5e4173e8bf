//! Checkpointed single-pass ensemble execution.
//!
//! The paper's QX-cluster workflow (and this crate's per-prefix
//! reference path, [`EnsembleRunner::run_breakpoint`]) re-simulates the
//! program prefix from `|0…0⟩` for every breakpoint: a program with `B`
//! breakpoints and `G` gates pays `O(Σᵢ|prefixᵢ|) = O(B·G)` gate
//! applications in ideal mode. The sweep instead evolves one ideal
//! *frontier* state through the program **exactly once**, pausing at
//! each breakpoint to draw that breakpoint's ensemble from the live
//! state — `O(G)` gate applications total, verified by
//! [`State::gate_ops`](qdb_sim::State::gate_ops).
//!
//! That walk is written once, as the crate-private `walk`, and every
//! [`ExecutionStrategy::Sweep`] session runs it: an ideal session is the
//! trajectory tree ([`crate::trajectory`]) with no fault patterns, so
//! it walks with no forks, while a noisy session also pauses the
//! frontier at each fork site so the tree can copy it. The walk owns
//! the fork-site fault check, the fallible `|0…0⟩` frontier, the
//! governor-polled advance to every pause, one panic-contained `stop`
//! call per pause and the strict-prefix handling of trips.
//! [`SweepRunner::walk_backend`] exposes the fork-free walk with a
//! per-breakpoint visitor.
//!
//! The sweep runs the *compiled* program: the circuit is lowered once
//! ([`Program::compile`](qdb_circuit::Program::compile)) and the
//! frontier replays each window between pauses
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
//! Each ideal draw is serial and goes through the backend's one
//! sampling primitive ([`SimBackend::sample_each`]): the dense
//! statevector maps one stream's uniforms to outcomes in one scan of
//! its amplitudes, and the stabilizer and sparse backends serve every
//! shot (each with its own RNG stream) from one prepared readout. With
//! [`EnsembleConfig::parallel`] on,
//! the sweep parallelizes its intra-state kernels, bit-neutrally: at ≥
//! [`INTRA_PAR_MIN_QUBITS`](qdb_sim::kernels::INTRA_PAR_MIN_QUBITS)
//! qubits the frontier chunks each gate's amplitude runs across
//! workers — same pairs, same order, same arithmetic, so the evolution
//! is bit-identical to the serial walk at any thread count. Programs
//! wanting breakpoint fan-out instead can keep
//! [`ExecutionStrategy::PerPrefix`].
//!
//! [`EnsembleRunner`]: crate::runner::EnsembleRunner
//! [`ExecutionStrategy::Sweep`]: crate::runner::ExecutionStrategy::Sweep
//! [`EnsembleRunner::run_breakpoint`]: crate::runner::EnsembleRunner::run_breakpoint
//! [`ExecutionStrategy::PerPrefix`]: crate::runner::ExecutionStrategy::PerPrefix

use qdb_circuit::{Breakpoint, CompiledCircuit, Program};
use qdb_sim::{NoiseModel, SimBackend};

use crate::error::CoreError;
use crate::governor::{self, Governor, InterruptCause};
use crate::runner::{EnsembleConfig, EnsembleRunner, ExecutionStrategy, MeasuredEnsemble};

/// Where [`walk`] pauses the frontier.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Stop {
    /// Fork `k`: the frontier has executed the first `forks[k]` ops.
    Fork(usize),
    /// Breakpoint `i`: the frontier is the ideal state at its position.
    Breakpoint(usize),
}

/// The Sweep frontier walk: evolve `B`'s `|0…0⟩` state on `plan`'s
/// qubits through `plan` once, pausing at every fork position in
/// `forks` (sorted ascending) and at every breakpoint, and call `stop`
/// with the pause and the live frontier. A fork at a breakpoint's
/// position pauses before that breakpoint. The frontier advances
/// through [`Governor::advance`], and each advance plus its `stop` call
/// is panic-contained.
///
/// Returns the `Some` items `stop` produced before the first trip (a
/// strict prefix, bit-identical to the uninterrupted walk's) together
/// with its cause; `Ok((…, None))` is an uninterrupted walk.
///
/// # Errors
///
/// Construction errors other than an allocator refusal (which trips),
/// and any non-interrupt error `stop` returns.
pub(crate) fn walk<B: SimBackend, T>(
    program: &Program,
    plan: &CompiledCircuit,
    governor: &Governor,
    parallel: bool,
    forks: &[usize],
    mut stop: impl FnMut(Stop, &B) -> Result<Option<T>, CoreError>,
) -> Result<(Vec<T>, Option<InterruptCause>), CoreError> {
    let breakpoints = program.breakpoints();
    if breakpoints.is_empty() {
        return Ok((Vec::new(), None));
    }
    match governor.contain(|| governor.injected_fork_fault()) {
        Ok(None) => {}
        Ok(Some(cause)) | Err(cause) => return Ok((Vec::new(), Some(cause))),
    }
    // Matches the per-prefix path's start state, as wide as the plan
    // (and its error for zero-qubit programs); an allocator refusal
    // becomes a trip.
    let mut frontier = match governor.zero_state::<B>(plan.num_qubits()) {
        Ok(state) => state,
        Err(CoreError::Interrupted { cause, .. }) => return Ok((Vec::new(), Some(cause))),
        Err(e) => return Err(e),
    };
    // Parallelism never nests: the frontier is one serial state, so it
    // may chunk amplitudes, while everything `stop` fans out (sampling,
    // fork replays) runs between advances.
    frontier.set_intra_parallel(parallel);
    let mut next_fork = 0;
    let pauses = breakpoints.iter().enumerate().flat_map(|(index, bp)| {
        let first = next_fork;
        next_fork += forks[first..].partition_point(|&at| at <= bp.position);
        (first..next_fork)
            .map(|k| (Stop::Fork(k), forks[k]))
            .chain([(Stop::Breakpoint(index), bp.position)])
    });
    let mut position = 0;
    let steps = pauses.map(|(pause, at)| {
        governor
            .contain(|| {
                governor
                    .advance(plan, &mut frontier, position..at, &[])
                    .map_err(governor::trip_error)?;
                position = at;
                let fault = match pause {
                    Stop::Fork(_) => governor.injected_fork_fault(),
                    Stop::Breakpoint(_) => None,
                };
                if let Some(cause) = fault {
                    return Err(governor::trip_error(cause));
                }
                stop(pause, &frontier)
            })
            .unwrap_or_else(|cause| Err(governor::trip_error(cause)))
    });
    let (items, trip) = governor::strict_prefix(governor, steps)?;
    debug_assert!(
        trip.is_some() || next_fork == forks.len(),
        "every fork scheduled"
    );
    Ok((items.into_iter().flatten().collect(), trip))
}

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

    /// The backend-generic sweep: evolve `B`'s `|0…0⟩` state on
    /// `plan`'s qubits (for a plan from [`Program::compile`], the
    /// program's whole register) through `plan` once, invoking `visit`
    /// with the live (borrowed) backend state at each breakpoint — the
    /// same `O(G)` gate-application bound on every backend. The caller
    /// supplies the plan (compile via [`Program::compile`]);
    /// [`EnsembleConfig::noise`] is ignored — the walk is always the
    /// *ideal* evolution.
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
        mut visit: impl FnMut(usize, &Breakpoint, &B) -> Result<T, CoreError>,
    ) -> Result<Vec<T>, CoreError> {
        self.config.validate()?;
        let governor = Governor::new(&self.config.budget);
        let breakpoints = program.breakpoints();
        let (out, interrupted) = walk(
            program,
            plan,
            &governor,
            self.config.parallel,
            &[],
            |stop, state| match stop {
                Stop::Breakpoint(index) => visit(index, &breakpoints[index], state).map(Some),
                Stop::Fork(_) => unreachable!("a walk without forks never pauses at one"),
            },
        )?;
        match interrupted {
            None => Ok(out),
            Some(cause) => Err(governor::interrupted(program, Vec::new(), cause)),
        }
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
    use crate::RunBudget;
    use qdb_circuit::{GateSink, OptLevel};
    use qdb_sim::State;

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

    /// X → two assertions at one position → H, H, CX → an assertion.
    fn tied_breakpoint_program() -> Program {
        let mut p = Program::new();
        let r = p.alloc_register("r", 2);
        p.x(r.bit(0));
        p.assert_classical(&r, 1);
        p.assert_classical(&r, 1);
        p.h(r.bit(0));
        p.h(r.bit(1));
        p.cx(r.bit(0), r.bit(1));
        p.assert_superposition(&r);
        p
    }

    #[test]
    fn walk_pauses_at_forks_then_breakpoints_in_position_order() {
        let p = tied_breakpoint_program();
        let plan = p.compile(OptLevel::Specialize);
        let forks = [1, 1, 3, 4];
        let governor = Governor::new(&RunBudget::default());
        let mut pauses = Vec::new();
        let (items, trip) = walk(
            &p,
            &plan,
            &governor,
            false,
            &forks,
            |stop, frontier: &State| {
                pauses.push((stop, frontier.gate_ops()));
                Ok(match stop {
                    Stop::Breakpoint(index) => Some(index),
                    Stop::Fork(_) => None,
                })
            },
        )
        .unwrap();
        assert_eq!(trip, None);
        assert_eq!(items, [0, 1, 2]);
        // A fork at a breakpoint's position pauses before it, and the
        // frontier has executed exactly the pause's position in ops.
        assert_eq!(
            pauses,
            [
                (Stop::Fork(0), 1),
                (Stop::Fork(1), 1),
                (Stop::Breakpoint(0), 1),
                (Stop::Breakpoint(1), 1),
                (Stop::Fork(2), 3),
                (Stop::Fork(3), 4),
                (Stop::Breakpoint(2), 4),
            ]
        );
    }

    #[test]
    fn walk_keeps_exactly_the_items_before_a_trip() {
        let p = tied_breakpoint_program();
        let plan = p.compile(OptLevel::Specialize);
        let forks = [1, 3];
        // Trip at the second breakpoint, at the fork after it, and by
        // panicking at the last breakpoint.
        for (tripping, kept) in [
            (Stop::Breakpoint(1), vec![0]),
            (Stop::Fork(1), vec![0, 1]),
            (Stop::Breakpoint(2), vec![0, 1]),
        ] {
            let governor = Governor::new(&RunBudget::default());
            let mut last = None;
            let (items, trip) = walk(&p, &plan, &governor, false, &forks, |stop, _: &State| {
                last = Some(stop);
                match stop {
                    Stop::Breakpoint(2) if stop == tripping => panic!("stop panicked"),
                    _ if stop == tripping => Err(governor::trip_error(InterruptCause::Cancelled)),
                    Stop::Breakpoint(index) => Ok(Some(index)),
                    Stop::Fork(_) => Ok(None),
                }
            })
            .unwrap();
            assert_eq!(items, kept, "{tripping:?}");
            assert_eq!(last, Some(tripping), "nothing runs past the trip");
            assert!(trip.is_some(), "{tripping:?}");
            assert_eq!(governor.cause(), trip, "the trip is latched");
        }
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
        // Thousands of shots drawn from one stream per breakpoint: the
        // ensemble must not depend on `parallel`.
        let base = EnsembleConfig::default().with_shots(4097).with_seed(31);
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
