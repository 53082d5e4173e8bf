//! Trajectory-tree execution of noisy ensembles.
//!
//! The per-shot reference path simulates every `(breakpoint, shot)`
//! pair as an independent trajectory: build `|0…0⟩`, replay the whole
//! compiled prefix with noise interleaved, measure once — `O(shots ×
//! Σᵢ|prefixᵢ|)` gate applications. At realistic noise rates that is
//! massively redundant: most shots sample *zero* faults (a fraction
//! `(1 − p)^sites` of them), and the faulty rest share long fault-free
//! prefixes. The physics only has `O(unique trajectories)` distinct
//! work in it; this module does exactly that much:
//!
//! 1. **Presample** — each shot's full Pauli fault pattern is drawn up
//!    front from its own `(seed, breakpoint, shot)` RNG stream
//!    ([`CompiledCircuit::presample_faults`]), in exactly the order the
//!    interleaved path draws, so the stream afterwards sits exactly at
//!    the shot's measurement draw. No state is touched.
//! 2. **Deduplicate** — shots are grouped by fault pattern. Identical
//!    patterns evolve through bit-for-bit identical states, so each
//!    distinct trajectory is simulated **once** and every shot in the
//!    group draws its measurement (and readout corruption) from the
//!    shared final state with its own RNG — reports are bit-for-bit
//!    those of the reference path.
//! 3. **Prefix-share** — one ideal *frontier* state walks the compiled
//!    plan exactly once, serving every breakpoint of the session. Each
//!    distinct faulty trajectory forks from the frontier at its first
//!    fault site via a reusable buffer pool
//!    ([`StatePool`] — no per-shot, and in steady state no per-fork,
//!    allocation) and replays only its faulty suffix
//!    ([`CompiledCircuit::apply_range_to_backend_with_faults`]).
//!
//! The fault-free group needs no fork at all: when the frontier reaches
//! a breakpoint, it *is* that group's final state — and simultaneously
//! the ideal state the exact cross-check wants.
//!
//! ## Pauli channels only
//!
//! Every stage above leans on fault patterns being *state-independent*:
//! presampling draws them with no simulator in sight, and deduplication
//! assumes equal patterns imply equal states. A Kraus channel
//! (amplitude/phase damping, general Kraus sets) breaks both — its
//! branch distribution is the branch-norm spectrum `‖Kᵢ|ψ⟩‖²` of the
//! *current* state, so two shots agreeing on branch indices need not
//! agree on states, and no pattern exists before the state does. The
//! runner therefore gates this engine on
//! [`NoiseModel::gate_noise_is_pauli`](qdb_sim::NoiseModel::gate_noise_is_pauli)
//! and sends Kraus sessions down the per-shot dense path
//! (`presample_faults` additionally panics on a Kraus channel as a
//! safety net).
//!
//! ## Determinism
//!
//! Every outcome is a pure function of `(seed, breakpoint, shot)` and
//! the shared final state of the shot's group. Grouping is by first
//! occurrence in shot order, forks are scheduled by (position,
//! breakpoint, group) and replayed in waves of a fixed, thread-count-
//! independent size, and each shot writes its own outcome slot — so
//! reports are identical across thread counts, the serial/parallel
//! switch, and (bit-for-bit) against the per-shot reference path.
//! `crates/core/tests/trajectory_equivalence.rs` property-tests that
//! contract.
//!
//! ## Work accounting
//!
//! [`NoisySessionStats`] reports the frontier's single-pass cost, each
//! breakpoint's unique-trajectory census and replayed suffix ops, and
//! the pool's allocation count, so benchmarks can *assert* that gate
//! work scales with unique trajectories rather than shots.
//!
//! [`CompiledCircuit::presample_faults`]: qdb_circuit::CompiledCircuit::presample_faults
//! [`CompiledCircuit::apply_range_to_backend_with_faults`]: qdb_circuit::CompiledCircuit::apply_range_to_backend_with_faults

use std::collections::HashMap;
use std::sync::Mutex;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use qdb_circuit::{Breakpoint, CompiledCircuit, FaultEvent, Program};
use qdb_sim::measure::extract_bits;
use qdb_sim::{NoiseModel, Sampler, SimBackend, StatePool};

use crate::error::CoreError;
use crate::governor::{Governor, InterruptCause};
use crate::runner::{shot_seed, EnsembleConfig};

/// Per-breakpoint work census of a trajectory-tree session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrajectoryStats {
    /// Breakpoint index this row describes.
    pub breakpoint: usize,
    /// Ensemble size.
    pub shots: usize,
    /// Distinct fault patterns among the shots — the number of
    /// trajectories actually simulated (the fault-free pattern, when
    /// present, is served by the shared frontier and counts here too).
    pub unique_trajectories: usize,
    /// Shots whose pattern was empty (served from the frontier state
    /// with zero replay work).
    pub fault_free_shots: usize,
    /// Compiled ops replayed for this breakpoint's faulty suffixes —
    /// `Σ (position − fork)` over distinct faulty trajectories. The
    /// reference path would have paid `shots × position`.
    pub replayed_ops: u64,
}

/// Whole-session work census of a trajectory-tree run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct NoisySessionStats {
    /// One row per breakpoint, in breakpoint order.
    pub per_breakpoint: Vec<TrajectoryStats>,
    /// Ideal ops applied by the shared frontier walk — at most the last
    /// breakpoint's position, once per session regardless of shots.
    pub frontier_ops: u64,
    /// Fresh state allocations the fork pool performed (its peak
    /// simultaneous checkout count): 1 in serial mode, at most one
    /// replay wave in parallel mode — never `O(shots)`.
    pub states_allocated: usize,
    /// Pool buffers still checked out when the session returned. This
    /// is 0 on **every** exit path — completed, interrupted, and
    /// fault-injected alike (the reclamation invariant
    /// `governor_equivalence.rs` asserts).
    pub states_outstanding: usize,
    /// Always 0. The field stays only because the `qdbbench` session
    /// benchmark reads it for its `tree.packed_lanes` metric; it goes
    /// when that metric does.
    pub packed_lanes: usize,
}

impl NoisySessionStats {
    /// Total compiled ops the session applied (frontier + replays).
    #[must_use]
    pub fn total_ops(&self) -> u64 {
        self.frontier_ops
            + self
                .per_breakpoint
                .iter()
                .map(|b| b.replayed_ops)
                .sum::<u64>()
    }

    /// Total gate applications the per-shot reference path would have
    /// performed for the same session (`Σᵢ shots × positionᵢ`).
    #[must_use]
    pub fn reference_ops(&self, program: &Program) -> u64 {
        program
            .breakpoints()
            .iter()
            .zip(&self.per_breakpoint)
            .map(|(bp, s)| bp.position as u64 * s.shots as u64)
            .sum()
    }
}

/// One shot-group: a distinct fault pattern and the shots that drew it.
struct Group {
    pattern: Vec<FaultEvent>,
    shots: Vec<usize>,
}

/// A fork scheduled at `position`: breakpoint `bp`'s group `group`
/// leaves the frontier there (right after its first faulty op).
struct Fork {
    position: usize,
    bp: usize,
    group: usize,
}

/// A forked trajectory awaiting (or holding) its replayed final state.
/// The `Mutex<Option<_>>` wrapper lets a fixed wave of slots be
/// replayed through a shared-reference parallel loop.
struct WaveSlot<B> {
    bp: usize,
    group: usize,
    state: Mutex<Option<B>>,
}

/// Replay waves are flushed at this many pending forks (and at every
/// breakpoint). The constant bounds live fork states independently of
/// thread count, so scheduling never shifts with the machine.
const WAVE_CAP: usize = 32;

/// Everything a trajectory-tree run reads: the session configuration,
/// the program and its compiled plan, the unwrapped noise model
/// (`config.noise` is ignored in its favor), and the backend width
/// (`num_qubits`).
///
/// `resume_from` skips the first breakpoints entirely — no presample,
/// no forks, no serving, no visit — so a checkpoint-resumed session
/// pays only the shared frontier walk for the prefix it already has
/// reports for. Skipping is bit-neutral for the remaining breakpoints:
/// every `(breakpoint, shot)` RNG stream is independent, and the
/// frontier applies the same ops in the same order regardless of where
/// earlier breakpoints' forks used to split the walk. `0` runs
/// everything.
#[derive(Clone, Copy)]
pub(crate) struct NoisySession<'a> {
    pub config: &'a EnsembleConfig,
    pub program: &'a Program,
    pub plan: &'a CompiledCircuit,
    pub noise: &'a NoiseModel,
    pub num_qubits: usize,
    pub resume_from: usize,
}

/// Run a noisy session as a trajectory tree over backend `B`, invoking
/// `visit` once per breakpoint (in order) with the complete measured
/// ensemble and the ideal frontier state at that breakpoint —
/// starting at the session's `resume_from` index; earlier breakpoints
/// are walked through but never sampled, served, or visited.
///
/// `measure_qubits` lists, per breakpoint, the qubits a shot measures
/// (packed LSB-first) — the classical readout error then flips each
/// measured bit.
///
/// The `governor` is polled at op-batch granularity during the frontier
/// walk and every fork replay, consulted at every fork/allocation site,
/// and every replay worker runs panic-contained. On a trip the function
/// returns the breakpoints visited **before** the trip (a strict prefix
/// of the uninterrupted run's results, bit for bit) plus the cause —
/// with every pool buffer reclaimed first, whatever the exit path.
pub(crate) fn run_noisy_tree<B: SimBackend, T>(
    session: &NoisySession<'_>,
    governor: &Governor,
    measure_qubits: impl Fn(&Breakpoint) -> Vec<usize>,
    mut visit: impl FnMut(usize, &Breakpoint, Vec<u64>, &B) -> Result<T, CoreError>,
    stats_out: Option<&mut NoisySessionStats>,
) -> Result<(Vec<T>, Option<InterruptCause>), CoreError> {
    let NoisySession {
        config,
        program,
        plan,
        noise,
        num_qubits,
        resume_from,
    } = *session;
    config.validate()?;
    let breakpoints = program.breakpoints();
    let mut out = Vec::with_capacity(breakpoints.len());
    if breakpoints.is_empty() {
        return Ok((out, None));
    }
    let shots = config.shots;

    // ---- 1. Presample every (breakpoint, shot) fault pattern. ------
    // Each shot owns the same `(seed, breakpoint, shot)` RNG stream the
    // reference path uses; after presampling it sits at the shot's
    // measurement draw and is kept for serving. Breakpoints behind the
    // resume frontier contribute nothing: no patterns, so no groups,
    // forks, or replays downstream — their reports already exist.
    let mut rngs: Vec<Vec<StdRng>> = Vec::with_capacity(breakpoints.len());
    let mut patterns: Vec<Vec<Vec<FaultEvent>>> = Vec::with_capacity(breakpoints.len());
    for (index, bp) in breakpoints.iter().enumerate() {
        if index < resume_from {
            rngs.push(Vec::new());
            patterns.push(Vec::new());
            continue;
        }
        let presample_shot = |shot: usize| {
            let mut rng = StdRng::seed_from_u64(shot_seed(config.seed, index as u64, shot as u64));
            let mut pattern = Vec::new();
            plan.presample_faults(0..bp.position, noise, &mut rng, &mut pattern);
            (pattern, rng)
        };
        let drawn: Vec<(Vec<FaultEvent>, StdRng)> = if config.parallel {
            (0..shots).into_par_iter().map(presample_shot).collect()
        } else {
            (0..shots).map(presample_shot).collect()
        };
        let (bp_patterns, bp_rngs): (Vec<_>, Vec<_>) = drawn.into_iter().unzip();
        patterns.push(bp_patterns);
        rngs.push(bp_rngs);
    }

    // ---- 2. Deduplicate: group shots by fault pattern. -------------
    // Group order is first occurrence in shot order — deterministic.
    let mut groups: Vec<Vec<Group>> = Vec::with_capacity(breakpoints.len());
    for bp_patterns in &mut patterns {
        let mut seen: HashMap<Vec<FaultEvent>, usize> = HashMap::new();
        let mut bp_groups: Vec<Group> = Vec::new();
        for (shot, pattern) in bp_patterns.iter_mut().enumerate() {
            let pattern = std::mem::take(pattern);
            match seen.get(&pattern) {
                Some(&g) => bp_groups[g].shots.push(shot),
                None => {
                    seen.insert(pattern.clone(), bp_groups.len());
                    bp_groups.push(Group {
                        pattern,
                        shots: vec![shot],
                    });
                }
            }
        }
        groups.push(bp_groups);
    }

    // ---- 3. Schedule forks by first fault site. --------------------
    // A group whose first fault strikes after op `f` forks from the
    // frontier at position `f + 1` (the fault fires on the state that
    // has just executed op `f`).
    let mut forks: Vec<Fork> = Vec::new();
    for (bp, bp_groups) in groups.iter().enumerate() {
        for (g, group) in bp_groups.iter().enumerate() {
            if let Some(first) = group.pattern.first() {
                forks.push(Fork {
                    position: first.op + 1,
                    bp,
                    group: g,
                });
            }
        }
    }
    forks.sort_by_key(|f| (f.position, f.bp, f.group));

    // ---- 4. One frontier walk serves everything. -------------------
    // Each breakpoint's measured-qubit list is computed once here;
    // serving re-reads it per group, which can happen once per unique
    // trajectory.
    let qubits_for: Vec<Vec<usize>> = breakpoints.iter().map(measure_qubits).collect();
    if let Some(cause) = match governor.contain(|| governor.injected_fork_fault()) {
        Ok(fault) => fault,
        Err(cause) => Some(cause),
    } {
        return Ok((out, Some(cause)));
    }
    let mut frontier = match governor.zero_state::<B>(num_qubits) {
        Ok(state) => state,
        Err(CoreError::Interrupted { cause, .. }) => return Ok((out, Some(cause))),
        Err(e) => return Err(e),
    };
    // Parallelism never nests: the frontier walk is serial (one state),
    // so it may chunk amplitudes, while forks replay serially — as units
    // of a parallel wave, or one at a time when the session is serial.
    frontier.set_intra_parallel(config.parallel);
    let batch = Governor::batch_ops(num_qubits);
    let pool: StatePool<B> = StatePool::new();
    let mut scratch = Sampler::default();
    let mut outcomes: Vec<Vec<u64>> = (0..breakpoints.len()).map(|_| vec![0; shots]).collect();
    let mut replayed: Vec<u64> = vec![0; breakpoints.len()];
    let mut frontier_ops: u64 = 0;
    let mut wave: Vec<WaveSlot<B>> = Vec::new();
    let mut position = 0usize;
    let mut next_fork = 0usize;
    let mut trip: Option<InterruptCause> = None;

    // Advance a state through an ideal window of the plan, polling the
    // governor per op batch, with panic containment.
    let advance = |state: &mut B, range: std::ops::Range<usize>| -> Result<(), InterruptCause> {
        governor
            .contain(|| {
                plan.apply_range_to_backend_polled(state, range, batch, &mut |s: &B, _| {
                    governor.poll(s)
                })
            })
            .and_then(|polled| polled)
    };

    // Replay one fork's faulty trajectory to its breakpoint position,
    // governor-polled and panic-contained (a panicking worker leaves
    // `state` intact in the caller so its buffer is still reclaimed).
    let replay = |state: &mut B, bp: usize, group: &Group| -> Result<(), InterruptCause> {
        let first = group.pattern[0];
        let at_fork = group.pattern.partition_point(|f| f.op == first.op);
        governor
            .contain(|| {
                for fault in &group.pattern[..at_fork] {
                    state.apply_pauli(fault.qubit, fault.pauli);
                }
                plan.apply_range_to_backend_with_faults_polled(
                    state,
                    first.op + 1..breakpoints[bp].position,
                    &group.pattern[at_fork..],
                    batch,
                    &mut |s: &B, _| governor.poll(s),
                )
            })
            .and_then(|polled| polled)
    };

    // Drain the pending wave: replay every slot (the tree's fork-level
    // fan-out), then serve its shots serially and recycle buffers. On a
    // trip (any slot), every buffer still goes back to the pool and
    // `trip` is set — no shots are served from a tripped wave.
    macro_rules! flush_wave {
        () => {
            if !wave.is_empty() {
                let run_slot = |slot: &WaveSlot<B>| -> Option<InterruptCause> {
                    let mut state = slot
                        .state
                        .lock()
                        .expect("wave slot lock")
                        .take()
                        .expect("wave slot filled at fork time");
                    let replayed_ok = replay(&mut state, slot.bp, &groups[slot.bp][slot.group]);
                    *slot.state.lock().expect("wave slot lock") = Some(state);
                    replayed_ok.err()
                };
                let slot_trips: Vec<Option<InterruptCause>> = if config.parallel {
                    wave.as_slice().into_par_iter().map(run_slot).collect()
                } else {
                    wave.iter().map(run_slot).collect()
                };
                let wave_trip = slot_trips.into_iter().flatten().next();
                for slot in wave.drain(..) {
                    let state = slot
                        .state
                        .into_inner()
                        .expect("wave slot lock")
                        .expect("replayed state present");
                    if wave_trip.is_none() {
                        let group = &groups[slot.bp][slot.group];
                        serve_group(
                            &state,
                            group,
                            &qubits_for[slot.bp],
                            noise,
                            &mut rngs[slot.bp],
                            &mut outcomes[slot.bp],
                            &mut scratch,
                        );
                        replayed[slot.bp] +=
                            (breakpoints[slot.bp].position - group.pattern[0].op - 1) as u64;
                    }
                    pool.release(state);
                }
                if wave_trip.is_some() {
                    trip = wave_trip;
                }
            }
        };
    }

    'walk: for (index, bp) in breakpoints.iter().enumerate() {
        // Schedule (and in serial mode, immediately retire) every fork
        // up to this breakpoint's position.
        while next_fork < forks.len() && forks[next_fork].position <= bp.position {
            let fork = &forks[next_fork];
            next_fork += 1;
            if fork.position > position {
                if let Err(cause) = advance(&mut frontier, position..fork.position) {
                    trip = Some(cause);
                    break 'walk;
                }
                frontier_ops += (fork.position - position) as u64;
                position = fork.position;
            }
            match governor.contain(|| governor.injected_fork_fault()) {
                Ok(None) => {}
                Ok(Some(cause)) | Err(cause) => {
                    trip = Some(cause);
                    break 'walk;
                }
            }
            let mut state = pool.acquire_copy(&frontier);
            // The copy inherits the frontier's chunking flag.
            state.set_intra_parallel(false);
            wave.push(WaveSlot {
                bp: fork.bp,
                group: fork.group,
                state: Mutex::new(Some(state)),
            });
            if !config.parallel || wave.len() >= WAVE_CAP {
                flush_wave!();
                if trip.is_some() {
                    break 'walk;
                }
            }
        }
        // The report for this breakpoint needs every group served.
        flush_wave!();
        if trip.is_some() {
            break 'walk;
        }
        if bp.position > position {
            if let Err(cause) = advance(&mut frontier, position..bp.position) {
                trip = Some(cause);
                break 'walk;
            }
            frontier_ops += (bp.position - position) as u64;
            position = bp.position;
        }
        // A resumed-past breakpoint only needed the frontier advanced
        // through its window; its report is already on file.
        if index < resume_from {
            continue;
        }
        // The frontier *is* the fault-free trajectory's final state —
        // and the ideal state for the exact cross-check.
        if let Some(fault_free) = groups[index].iter().find(|g| g.pattern.is_empty()) {
            serve_group(
                &frontier,
                fault_free,
                &qubits_for[index],
                noise,
                &mut rngs[index],
                &mut outcomes[index],
                &mut scratch,
            );
        }
        let step =
            governor.contain(|| visit(index, bp, std::mem::take(&mut outcomes[index]), &frontier));
        match step {
            Ok(Ok(item)) => out.push(item),
            Ok(Err(CoreError::Interrupted { cause, .. })) => {
                governor.trip(cause.clone());
                trip = Some(cause);
                break 'walk;
            }
            Ok(Err(e)) => return Err(e),
            Err(cause) => {
                trip = Some(cause);
                break 'walk;
            }
        }
    }
    // Reclaim any wave buffers stranded by an early exit; completed
    // runs flushed everything already, so this loop is then empty.
    for slot in wave.drain(..) {
        if let Some(state) = slot
            .state
            .into_inner()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
        {
            pool.release(state);
        }
    }
    // A hard assert (not debug_assert): this is once per session, and
    // the release-mode fault-injection CI run relies on a leak here
    // panicking into the containment boundary.
    assert_eq!(pool.outstanding(), 0, "every pooled buffer reclaimed");
    debug_assert!(
        trip.is_some() || next_fork == forks.len(),
        "every fork scheduled"
    );

    if let Some(stats) = stats_out {
        stats.per_breakpoint = groups
            .iter()
            .enumerate()
            .map(|(index, bp_groups)| TrajectoryStats {
                breakpoint: index,
                shots,
                unique_trajectories: bp_groups.len(),
                fault_free_shots: bp_groups
                    .iter()
                    .find(|g| g.pattern.is_empty())
                    .map_or(0, |g| g.shots.len()),
                replayed_ops: replayed[index],
            })
            .collect();
        stats.frontier_ops = frontier_ops;
        stats.states_allocated = pool.states_allocated();
        stats.states_outstanding = pool.outstanding();
    }
    Ok((out, trip))
}

/// Serve every shot of one group from the group's shared final state:
/// each shot draws its measurement (and readout corruption) from its
/// own presample-positioned RNG stream, exactly as the reference path
/// would have from its freshly replayed trajectory.
///
/// Groups of two or more shots amortize one CDF rebuild (on backends
/// that support it — see [`SimBackend::rebuild_shot_sampler`]) into
/// binary-search draws, bit-identical to per-shot
/// [`SimBackend::sample_once`]; the caller owns `scratch`, so one
/// buffer serves a whole session rather than one allocation per group.
fn serve_group<B: SimBackend>(
    state: &B,
    group: &Group,
    qubits: &[usize],
    noise: &NoiseModel,
    rngs: &mut [StdRng],
    outcomes: &mut [u64],
    scratch: &mut Sampler,
) {
    let prepared = group.shots.len() >= 2 && state.rebuild_shot_sampler(scratch);
    for &shot in &group.shots {
        let rng = &mut rngs[shot];
        let raw = if prepared {
            extract_bits(scratch.sample(rng), qubits)
        } else {
            state.sample_once(qubits, rng)
        };
        outcomes[shot] = noise.corrupt_readout(raw, qubits.len(), rng);
    }
}
