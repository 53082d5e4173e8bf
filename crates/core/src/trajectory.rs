//! Trajectory-tree execution of [`ExecutionStrategy::Sweep`] sessions.
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
//!    plan exactly once, serving every breakpoint of the session: the
//!    sweep's one governed walk ([`crate::sweep`]), which pauses the
//!    frontier at each fork position and each breakpoint. Each distinct
//!    faulty trajectory forks from the frontier at its first fault site
//!    into a recycled state (a released fork's buffer, overwritten with
//!    [`SimBackend::copy_from`] — no per-shot, and in steady state no
//!    per-fork, allocation) and replays only its faulty suffix
//!    ([`CompiledCircuit::apply_range`], fault-free stretches as whole
//!    op batches).
//!
//! The fault-free group needs no fork at all: when the frontier reaches
//! a breakpoint, it *is* that group's final state — and simultaneously
//! the ideal state the exact cross-check wants. An ideal session is the
//! tree with no fault patterns: nothing is presampled or forked, and
//! each breakpoint's ensemble is drawn from the frontier the way the
//! per-prefix path draws it from its replayed state.
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
//! how many fork states the session allocated, so benchmarks can
//! *assert* that gate work scales with unique trajectories rather than
//! shots.
//!
//! [`ExecutionStrategy::Sweep`]: crate::runner::ExecutionStrategy::Sweep
//! [`CompiledCircuit::presample_faults`]: qdb_circuit::CompiledCircuit::presample_faults
//! [`CompiledCircuit::apply_range`]: qdb_circuit::CompiledCircuit::apply_range
//! [`SimBackend::copy_from`]: qdb_sim::SimBackend::copy_from

use std::collections::HashMap;
use std::sync::{Mutex, PoisonError};

use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

use qdb_circuit::{Breakpoint, FaultEvent, Program};
use qdb_sim::NoiseModel;

use crate::error::CoreError;
use crate::governor::{self, Governor, InterruptCause};
use crate::layout::Layout;
use crate::runner::{shot_seed, EnsembleConfig, EnsembleHook};
use crate::sweep::{self, Stop};

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
    /// Ideal ops applied by the shared frontier walk: the last
    /// breakpoint's position, once per session regardless of shots.
    pub frontier_ops: u64,
    /// Fork states the session allocated (its peak number of live
    /// forks; released forks are recycled): 1 in serial mode, at most
    /// one replay wave in parallel mode — never `O(shots)`.
    pub states_allocated: usize,
    /// Fork states not yet released when the session returned. This
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

/// Everything a tree session reads: the session configuration, the
/// program, the layout (the plan the backend runs and how its state
/// maps onto the program's register), and the noise model (`None` for
/// an ideal session; `config.noise` is ignored in its favor).
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
pub(crate) struct TreeSession<'a> {
    pub config: &'a EnsembleConfig,
    pub program: &'a Program,
    pub layout: &'a Layout<'a>,
    pub noise: Option<&'a NoiseModel>,
    pub resume_from: usize,
}

/// Run a [`ExecutionStrategy::Sweep`](crate::ExecutionStrategy::Sweep)
/// session as a trajectory tree over backend `B`, invoking `visit` once
/// per breakpoint (in order) with the complete measured ensemble and
/// the ideal frontier state at that breakpoint — starting at the
/// session's `resume_from` index; earlier breakpoints are walked
/// through but never sampled, served, or visited. An ideal session
/// (`noise: None`) presamples nothing and forks nowhere: each
/// breakpoint's ensemble is [`EnsembleHook::draw_ideal`] from the
/// frontier.
///
/// `measure_qubits` lists, per breakpoint, the qubits a shot measures
/// (packed LSB-first) — the classical readout error then flips each
/// measured bit.
///
/// The frontier walk is [`sweep::walk`](crate::sweep); fork replays
/// poll the `governor` at op-batch granularity, and every replay worker
/// runs panic-contained. On a trip the function returns the
/// breakpoints visited **before** the trip (a strict prefix of the
/// uninterrupted run's results, bit for bit) plus the cause — with
/// every fork state reclaimed first, whatever the exit path.
pub(crate) fn run_tree<B: EnsembleHook, T>(
    session: &TreeSession<'_>,
    governor: &Governor,
    measure_qubits: impl Fn(&Breakpoint) -> Vec<usize>,
    mut visit: impl FnMut(usize, &Breakpoint, Vec<u64>, &B) -> Result<T, CoreError>,
    stats_out: Option<&mut NoisySessionStats>,
) -> Result<(Vec<T>, Option<InterruptCause>), CoreError> {
    let TreeSession {
        config,
        program,
        layout,
        noise,
        resume_from,
    } = *session;
    let plan = layout.plan();
    let breakpoints = program.breakpoints();
    let shots = config.shots;

    // ---- 1. Presample every (breakpoint, shot) fault pattern. ------
    // Each shot owns the same `(seed, breakpoint, shot)` RNG stream the
    // reference path uses; after presampling it sits at the shot's
    // measurement draw and is kept for serving. An ideal session and
    // breakpoints behind the resume frontier contribute nothing: no
    // patterns, so no groups, forks, or replays downstream.
    let mut rngs: Vec<Vec<StdRng>> = Vec::with_capacity(breakpoints.len());
    let mut patterns: Vec<Vec<Vec<FaultEvent>>> = Vec::with_capacity(breakpoints.len());
    for (index, bp) in breakpoints.iter().enumerate() {
        let Some(noise) = noise.filter(|_| index >= resume_from) else {
            rngs.push(Vec::new());
            patterns.push(Vec::new());
            continue;
        };
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
    let fork_positions: Vec<usize> = forks.iter().map(|f| f.position).collect();

    // ---- 4. One frontier walk serves everything. -------------------
    // Each breakpoint's measured-qubit list is computed once here;
    // serving re-reads it per group, which can happen once per unique
    // trajectory. Only presampled breakpoints get an outcome buffer.
    let qubits_for: Vec<Vec<usize>> = breakpoints.iter().map(measure_qubits).collect();
    // Fork states: a fork overwrites a released state when one is free
    // and clones the frontier otherwise, so `allocated` is the peak
    // number of live forks; `outstanding` counts forks not yet released.
    let mut free: Vec<B> = Vec::new();
    let (mut allocated, mut outstanding) = (0usize, 0usize);
    let mut outcomes: Vec<Vec<u64>> = rngs.iter().map(|r| vec![0; r.len()]).collect();
    let mut replayed: Vec<u64> = vec![0; breakpoints.len()];
    let mut wave: Vec<WaveSlot<B>> = Vec::new();

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
                governor.advance(
                    plan,
                    state,
                    first.op + 1..breakpoints[bp].position,
                    &group.pattern[at_fork..],
                )
            })
            .and_then(|polled| polled)
    };

    let walked = sweep::walk(
        program,
        plan,
        governor,
        config.parallel,
        &fork_positions,
        |stop, frontier: &B| {
            let index = match stop {
                Stop::Fork(k) => {
                    let mut state = match free.pop() {
                        Some(mut state) => {
                            state.copy_from(frontier);
                            state
                        }
                        None => {
                            allocated += 1;
                            frontier.clone()
                        }
                    };
                    outstanding += 1;
                    // The copy inherits the frontier's chunking flag.
                    state.set_intra_parallel(false);
                    wave.push(WaveSlot {
                        bp: forks[k].bp,
                        group: forks[k].group,
                        state: Mutex::new(Some(state)),
                    });
                    if config.parallel && wave.len() < WAVE_CAP {
                        return Ok(None);
                    }
                    None
                }
                Stop::Breakpoint(index) => Some(index),
            };
            // Drain the pending wave — a full one, every fork of a
            // serial session, and whatever is left at a breakpoint,
            // whose report needs every group served: replay every slot
            // (the tree's fork-level fan-out), then serve its shots
            // serially and release the states. On a trip (any slot)
            // every state is still released and no shots are served.
            if !wave.is_empty() {
                let noise = noise.expect("only a noisy session forks");
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
                            layout,
                            group,
                            &qubits_for[slot.bp],
                            noise,
                            &mut rngs[slot.bp],
                            &mut outcomes[slot.bp],
                        );
                        replayed[slot.bp] +=
                            (breakpoints[slot.bp].position - group.pattern[0].op - 1) as u64;
                    }
                    free.push(state);
                    outstanding -= 1;
                }
                if let Some(cause) = wave_trip {
                    return Err(governor::trip_error(cause));
                }
            }
            // A resumed-past breakpoint only needed the frontier advanced
            // through its window; its report is already on file.
            let Some(index) = index.filter(|&index| index >= resume_from) else {
                return Ok(None);
            };
            let ensemble = match noise {
                None => frontier.draw_ideal(config, index, &qubits_for[index], layout, governor)?,
                Some(noise) => {
                    // The frontier *is* the fault-free trajectory's final
                    // state — and the ideal state for the exact cross-check.
                    if let Some(fault_free) = groups[index].iter().find(|g| g.pattern.is_empty()) {
                        serve_group(
                            frontier,
                            layout,
                            fault_free,
                            &qubits_for[index],
                            noise,
                            &mut rngs[index],
                            &mut outcomes[index],
                        );
                    }
                    std::mem::take(&mut outcomes[index])
                }
            };
            visit(index, &breakpoints[index], ensemble, frontier).map(Some)
        },
    );
    // Reclaim any wave states stranded by an early exit; completed
    // runs flushed everything already, so the wave is then empty.
    outstanding -= wave
        .drain(..)
        .filter_map(|slot| {
            slot.state
                .into_inner()
                .unwrap_or_else(PoisonError::into_inner)
        })
        .count();
    // A hard assert (not debug_assert): this is once per session, and
    // the release-mode fault-injection CI run relies on a leak here
    // panicking into the containment boundary.
    assert_eq!(outstanding, 0, "every fork state reclaimed");

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
        // The frontier ends at the last breakpoint, every fork lying
        // at or before its own breakpoint.
        stats.frontier_ops = breakpoints.last().map_or(0, |bp| bp.position as u64);
        stats.states_allocated = allocated;
        stats.states_outstanding = outstanding;
    }
    walked
}

/// Serve every shot of one group from the group's shared final state:
/// each shot draws its measurement (and readout corruption) from its
/// own presample-positioned RNG stream, exactly as the reference path
/// would have from its freshly replayed trajectory.
///
/// The group's measurements are drawn together
/// ([`EnsembleHook::draw_each`]: one scan of the amplitudes on the dense
/// statevector, its outcomes deposited into the program's register by
/// `layout`; one outcome trie on the tableau and the support map),
/// which gives each shot the outcome that drawing it alone gives and
/// leaves its stream where that draw leaves it; each stream then draws
/// its readout corruption over the measured qubits of the register.
fn serve_group<B: EnsembleHook>(
    state: &B,
    layout: &Layout<'_>,
    group: &Group,
    qubits: &[usize],
    noise: &NoiseModel,
    rngs: &mut [StdRng],
    outcomes: &mut [u64],
) {
    // A group's shots ascend, so each one's stream lies further along
    // `rngs` than the last.
    let mut streams = rngs.iter_mut();
    let mut passed = 0;
    let group_rngs = group.shots.iter().map(|&shot| {
        let rng = streams.nth(shot - passed).expect("a group's shots ascend");
        passed = shot + 1;
        rng
    });
    let raw = state.draw_each(layout, qubits, group_rngs);
    for (&shot, raw) in group.shots.iter().zip(raw) {
        outcomes[shot] = noise.corrupt_readout(raw, qubits.len(), &mut rngs[shot]);
    }
}
