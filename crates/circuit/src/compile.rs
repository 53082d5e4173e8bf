//! Lowering: compile a [`Circuit`] into specialized gate kernels.
//!
//! The interpreted path ([`Circuit::apply_to`]) rebuilds every gate's
//! 2×2 matrix on every application — including the `sin`/`cos` calls
//! behind each rotation — and routes everything through the generic
//! mask-filtering kernels of `qdb-sim`. That is the paper-faithful
//! *reference* semantics, but the ensemble engine applies the same
//! program across thousands of breakpoints, shots, and trajectories, so
//! re-deriving per-gate constants every time is pure waste.
//!
//! [`CompiledCircuit::compile`] lowers a circuit **once**:
//!
//! 1. each instruction's matrix is precomputed exactly once;
//! 2. each instruction is classified into a specialized kernel
//!    ([`qdb_sim::kernels`]) — diagonal, anti-diagonal, general 2×2, or
//!    swap — with controlled variants that enumerate only the
//!    control-satisfying subspace;
//! 3. each instruction is additionally classified as Clifford or not
//!    (from the source [`GateKind`], exactly — never by matrix
//!    matching), so Clifford-only plans ([`CompiledCircuit::is_clifford`])
//!    can run on the polynomial-time stabilizer backend.
//!
//! The result is reused across every application: the ensemble sweep,
//! per-prefix replays, trajectory-tree forks and per-shot noisy
//! trajectories all walk the same plan, on *any* [`SimBackend`],
//! through three entry points:
//!
//! * [`CompiledCircuit::apply_to`] — the whole plan, one
//!   [`SimBackend::apply_ops`] batch;
//! * [`CompiledCircuit::apply_range`] — a window of the plan with a
//!   presampled Pauli fault pattern spliced in (empty for the ideal
//!   replay), handing each fault-free stretch to
//!   [`SimBackend::apply_ops`] and polling a caller's closure every
//!   `batch_ops` ops;
//! * [`CompiledCircuit::apply_range_noisy`] — a window as one noisy
//!   trajectory, sampling the gate channel after every op (the only
//!   replay Kraus channels can take), polled the same way.
//!
//! ## Equivalence contract
//!
//! Compiled ops are 1:1 with source instructions, touch the same
//! amplitude pairs in the same order, and perform the same arithmetic —
//! results are value-identical to the interpreted path (every amplitude
//! compares `==`; every probability, sample, and report is bit-for-bit
//! identical; see [`qdb_sim::kernels`] for the one sign-of-zero
//! caveat), and [`State::gate_ops`] advances exactly as if the source
//! instructions had been interpreted. The interpreter stays as the
//! oracle the compiled path is tested against.
//!
//! ## Clifford classification
//!
//! Classification is *syntactic*: exactly `h`/`s`/`sdg`/`x`/`y`/`z`
//! uncontrolled, `cx`/`cy`/`cz` singly controlled, and the uncontrolled
//! `swap` are recognized. An `rz(π/2)` is mathematically Clifford but
//! is conservatively classified non-Clifford — float-angle matching
//! could silently misroute a nearly-Clifford rotation, and the paper's
//! Clifford workloads all use the named gates.
//!
//! ## Active qubits
//!
//! Compiling also records the plan's *active qubits*
//! ([`CompiledCircuit::active_qubits`]): every qubit some op names, in
//! ascending order. A qubit no op names is *idle*: it stays `|0⟩`, so of
//! a dense state's `2ⁿ` amplitudes at most `2ᵏ` are ever non-zero, `k`
//! the number of active qubits. When some qubit is idle, the plan keeps
//! beside it one copy relabeled onto `0..k` in that order
//! ([`CompiledCircuit::relabeled`]), lowered from the same instructions
//! at the same positions, so breakpoint and fault positions index it
//! unchanged. On a `k`-qubit state it computes the same non-zero
//! amplitudes, bit for bit:
//!
//! * no op pairs an amplitude whose idle bits are set with one whose
//!   idle bits are clear, so the former stay exactly zero and every
//!   other pair sees the same operands and the same arithmetic;
//! * the relabeling keeps index order, so a sum over the amplitudes in
//!   index order adds the same non-zero terms in the same order, and
//!   only `+0.0` besides;
//! * it keeps each op's qubit order (controls, target, swap partner),
//!   so [`CompiledCircuit::presample_faults`] and
//!   [`CompiledCircuit::apply_range_noisy`] draw the same decisions in
//!   the same order.
//!
//! Mapping outcomes and asserted registers back onto the full register
//! is the caller's part (`qdb-core`'s session engine does it for its
//! dense report sessions).
//!
//! [`State::gate_ops`]: qdb_sim::State::gate_ops

use std::ops::Range;

use crate::circuit::{Circuit, GateSink};
use crate::instruction::{GateKind, Instruction};
use qdb_sim::kernels::{classify, MatrixClass};
use qdb_sim::{CliffordGate1, CliffordOp, KernelOp, Matrix2, SimBackend, SimOp};

/// How [`CompiledCircuit::compile`] lowers a circuit.
///
/// There is one level: every plan precomputes matrices and specializes
/// kernels 1:1 with source instructions. The enum stays, single-valued,
/// only because the `qdbbench` session benchmark names it (and
/// `EnsembleConfig::opt`); it goes with them in the next change to the
/// benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptLevel {
    /// Precompute matrices and specialize kernels, keeping compiled ops
    /// 1:1 with source instructions. Results are value-identical to the
    /// interpreted path and all derived reports are bit-for-bit
    /// identical.
    #[default]
    Specialize,
}

/// A circuit lowered once and applied many times, on any backend.
///
/// Build with [`CompiledCircuit::compile`] (or
/// [`Program::compile`](crate::Program::compile)); apply with
/// [`apply_to`](CompiledCircuit::apply_to),
/// [`apply_range`](CompiledCircuit::apply_range) or
/// [`apply_range_noisy`](CompiledCircuit::apply_range_noisy) on any
/// [`SimBackend`] (e.g. the stabilizer tableau for Clifford-only plans).
///
/// ```
/// use qdb_circuit::{compile::{CompiledCircuit, OptLevel}, Circuit, GateSink};
/// use qdb_sim::State;
///
/// let mut c = Circuit::new(3);
/// c.h(0);
/// c.rz(1, 0.4);
/// c.ccx(0, 1, 2);
/// let plan = CompiledCircuit::compile(&c, OptLevel::Specialize);
/// let mut compiled = State::zero(3);
/// plan.apply_to(&mut compiled);
/// let mut reference = State::zero(3);
/// c.apply_to(&mut reference);
/// assert_eq!(compiled, reference);
/// assert!(!plan.is_clifford()); // rz and ccx are not Clifford
/// ```
#[derive(Debug, Clone)]
pub struct CompiledCircuit {
    num_qubits: usize,
    /// One lowered op per source instruction, at the instruction's
    /// position.
    ops: Vec<SimOp>,
    /// Every qubit some op names, ascending.
    active: Vec<usize>,
    /// The plan relabeled onto its active qubits, when some qubit is
    /// idle and some active.
    relabeled: Option<Box<CompiledCircuit>>,
}

impl CompiledCircuit {
    /// Lower `circuit`, one op per instruction, and record its active
    /// qubits (plus the relabeled copy when some qubit is idle).
    #[must_use]
    pub fn compile(circuit: &Circuit, opt: OptLevel) -> Self {
        let OptLevel::Specialize = opt;
        let n = circuit.num_qubits();
        let ops: Vec<SimOp> = circuit.instructions().iter().map(lower).collect();
        let mut touched = vec![false; n];
        for op in &ops {
            op.for_each_qubit(|q| touched[q] = true);
        }
        let active: Vec<usize> = (0..n).filter(|&q| touched[q]).collect();
        let relabeled = (!active.is_empty() && active.len() < n).then(|| {
            let mut label = vec![0; n];
            for (to, &from) in active.iter().enumerate() {
                label[from] = to;
            }
            Box::new(Self {
                num_qubits: active.len(),
                ops: circuit
                    .instructions()
                    .iter()
                    .map(|inst| lower(&relabel(inst, &label)))
                    .collect(),
                active: (0..active.len()).collect(),
                relabeled: None,
            })
        });
        Self {
            num_qubits: n,
            ops,
            active,
            relabeled,
        }
    }

    /// Number of qubits the compiled circuit operates on.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Every qubit some op names, in ascending order (see the
    /// [module docs](self)); the other qubits stay `|0⟩` throughout.
    #[must_use]
    pub fn active_qubits(&self) -> &[usize] {
        &self.active
    }

    /// This plan relabeled onto `0..k`, its
    /// [active qubits](Self::active_qubits) in ascending order: op `i`
    /// lowers instruction `i` with qubit `active_qubits()[t]` renamed
    /// `t`, on a `k`-qubit register. Built once, at compile time. When
    /// no qubit is idle (or none is active) it is the plan itself.
    #[must_use]
    pub fn relabeled(&self) -> &CompiledCircuit {
        self.relabeled.as_deref().unwrap_or(self)
    }

    /// Number of source instructions this plan was compiled from.
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.ops.len()
    }

    /// The lowered ops in application order, one per source
    /// instruction: op `i` lowers instruction `i`.
    #[must_use]
    pub fn ops(&self) -> &[SimOp] {
        &self.ops
    }

    /// `true` when every op carries a Clifford classification, i.e. the
    /// whole plan can execute on the stabilizer tableau backend.
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        self.ops.iter().all(|op| op.clifford().is_some())
    }

    /// Count ops per kernel class:
    /// `(diagonal, anti-diagonal, general, swap)`.
    #[must_use]
    pub fn kernel_census(&self) -> (usize, usize, usize, usize) {
        let mut census = (0, 0, 0, 0);
        for op in &self.ops {
            match op.kernel() {
                KernelOp::Diagonal { .. } => census.0 += 1,
                KernelOp::AntiDiagonal { .. } => census.1 += 1,
                KernelOp::General(_) => census.2 += 1,
                KernelOp::Swap { .. } => census.3 += 1,
            }
        }
        census
    }

    /// An upper bound on `log₂` of the state's support size anywhere in
    /// the plan — the sparsity estimate behind `BackendChoice::Auto`'s
    /// sparse-tier routing.
    ///
    /// Starting from `|0…0⟩` (support 1), only a general 2×2 kernel can
    /// grow the support, and it at most doubles it; diagonal,
    /// anti-diagonal, and swap kernels permute or rephase existing
    /// basis states. The bound is therefore the count of general-kernel
    /// ops, capped at the qubit count (support can never exceed `2ⁿ`).
    /// It is an over-estimate whenever branches cancel or a branching
    /// gate hits an already-saturated subspace — safe in the direction
    /// that matters (a plan judged sparse-friendly may run even cheaper
    /// than predicted, never catastrophically worse).
    #[must_use]
    pub fn support_log2_bound(&self) -> usize {
        let (_, _, general, _) = self.kernel_census();
        general.min(self.num_qubits)
    }

    /// Run the whole plan on any backend: every op goes to
    /// [`SimBackend::apply_ops`] as one batch.
    ///
    /// # Panics
    ///
    /// Panics if the backend has fewer qubits than the circuit or
    /// cannot execute an op (a non-Clifford op on the stabilizer
    /// backend — check [`is_clifford`](Self::is_clifford) first).
    pub fn apply_to<B: SimBackend>(&self, backend: &mut B) {
        backend.apply_ops(self.ops_for_range(backend.num_qubits(), &(0..self.ops.len())));
    }

    /// Replay the **source-instruction** window `range` — positions in
    /// the source [`Circuit`], the coordinates breakpoints use — with a
    /// presampled fault pattern spliced in and an amortized
    /// interruption check.
    ///
    /// Each fault-free stretch of the window goes to
    /// [`SimBackend::apply_ops`]; each fault in `faults` fires (as
    /// [`SimBackend::apply_pauli`]) right after the op at its position,
    /// in recorded order. With empty `faults` this is the ideal replay;
    /// with the pattern [`presample_faults`](Self::presample_faults)
    /// drew, the state is bit-for-bit the one
    /// [`apply_range_noisy`](Self::apply_range_noisy) would have
    /// produced from the RNG stream that drew it. `faults` must be
    /// sorted by [`FaultEvent::op`] (presampling produces them sorted)
    /// and lie within `range`.
    ///
    /// `poll` runs after every `batch_ops` ops (the last batch may be
    /// shorter); an `Err` stops the replay at once and is returned,
    /// leaving the backend mid-window (callers treat it as consumed).
    /// `qdb-core`'s execution governor picks the stride, long enough
    /// that a poll costs nothing measurable and a batch holds the dense
    /// statevector's blocked runs.
    ///
    /// # Errors
    ///
    /// Whatever `poll` returns, unchanged.
    ///
    /// # Panics
    ///
    /// As [`apply_to`](Self::apply_to), plus a reversed or
    /// out-of-bounds range and a fault positioned outside `range` (a
    /// fault past the window's end is only detected if the replay runs
    /// to completion).
    pub fn apply_range<B: SimBackend, E>(
        &self,
        backend: &mut B,
        range: Range<usize>,
        faults: &[FaultEvent],
        batch_ops: usize,
        mut poll: impl FnMut(&B) -> Result<(), E>,
    ) -> Result<(), E> {
        let ops = self.ops_for_range(backend.num_qubits(), &range);
        let mut pending = faults;
        let mut done = 0;
        for batch in ops.chunks(batch_ops.max(1)) {
            let end = done + batch.len();
            while done < end {
                // A stretch runs through the next faulty op, or to the
                // end of the batch; the op's faults fire after it.
                let stop = match pending.first() {
                    Some(fault) if fault.op < range.start + end => {
                        assert!(
                            fault.op >= range.start + done,
                            "fault at op {} precedes replay window {range:?}",
                            fault.op
                        );
                        fault.op + 1 - range.start
                    }
                    _ => end,
                };
                backend.apply_ops(&ops[done..stop]);
                done = stop;
                while let Some((fault, rest)) = pending.split_first() {
                    if fault.op + 1 != range.start + done {
                        break;
                    }
                    backend.apply_pauli(fault.qubit, fault.pauli);
                    pending = rest;
                }
            }
            poll(backend)?;
        }
        assert!(
            pending.is_empty(),
            "fault pattern extends past replay window {range:?}"
        );
        Ok(())
    }

    /// Replay the source window `range` as one noisy trajectory,
    /// bit-compatible with [`Circuit::apply_to_noisy`]: after each op
    /// the gate channel is sampled ([`NoiseChannel::apply`]) on every
    /// qubit the source instruction touched, in source order, and
    /// `poll` runs after every `batch_ops` ops as in
    /// [`apply_range`](Self::apply_range). Stochastic-Pauli channels
    /// replay on every backend; Kraus channels (amplitude/phase
    /// damping, general Kraus sets) need dense branch norms and
    /// therefore the statevector.
    ///
    /// [`NoiseChannel::apply`]: qdb_sim::NoiseChannel::apply
    ///
    /// # Errors
    ///
    /// Whatever `poll` returns, unchanged.
    ///
    /// # Panics
    ///
    /// As [`apply_range`](Self::apply_range), plus Kraus noise on a
    /// backend without amplitude access.
    pub fn apply_range_noisy<B: SimBackend, R: rand::Rng + ?Sized, E>(
        &self,
        backend: &mut B,
        range: Range<usize>,
        noise: &qdb_sim::NoiseModel,
        rng: &mut R,
        batch_ops: usize,
        mut poll: impl FnMut(&B) -> Result<(), E>,
    ) -> Result<(), E> {
        let ops = self.ops_for_range(backend.num_qubits(), &range);
        for batch in ops.chunks(batch_ops.max(1)) {
            for op in batch {
                backend.apply_op(op);
                if let Some(channel) = noise.gate_noise.as_ref() {
                    op.for_each_qubit(|q| channel.apply(backend, q, rng));
                }
            }
            poll(backend)?;
        }
        Ok(())
    }

    /// Validate a source range and resolve it to the ops that lower it.
    fn ops_for_range(&self, backend_qubits: usize, range: &Range<usize>) -> &[SimOp] {
        assert!(
            backend_qubits >= self.num_qubits,
            "backend has {} qubits, compiled circuit needs {}",
            backend_qubits,
            self.num_qubits
        );
        assert!(
            range.start <= range.end && range.end <= self.ops.len(),
            "invalid instruction range {range:?} for compiled circuit of source length {}",
            self.ops.len()
        );
        &self.ops[range.clone()]
    }
}

/// One presampled Pauli fault of a noisy trajectory: after the op at
/// source position [`op`](FaultEvent::op) executes, [`pauli`]
/// strikes [`qubit`](FaultEvent::qubit).
///
/// Produced by [`CompiledCircuit::presample_faults`] in exactly the
/// order the interleaved noisy replay would have drawn (and would
/// apply) them: ascending op position, and within one op the source
/// qubit order (controls first, then target, then a swap's partner).
/// A shot's `Vec<FaultEvent>` is therefore a complete, canonical
/// description of its trajectory — two shots with equal fault vectors
/// evolve through bit-for-bit identical states, which is what makes
/// ensemble deduplication sound. [`CompiledCircuit::apply_range`]
/// splices a pattern back into a replay.
///
/// [`pauli`]: FaultEvent::pauli
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FaultEvent {
    /// Source position of the op after which the fault fires.
    pub op: usize,
    /// The struck qubit.
    pub qubit: usize,
    /// Which Pauli error strikes it.
    pub pauli: qdb_sim::Pauli,
}

impl CompiledCircuit {
    /// Draw the complete gate-noise fault pattern one trajectory of the
    /// source window `range` would experience, **without any state
    /// work**, appending to `out` (cleared first; the buffer is the
    /// caller's to reuse across shots).
    ///
    /// The RNG consumption is identical — draw for draw — to
    /// [`apply_range_noisy`](Self::apply_range_noisy) over the same
    /// window: one decision per (op, touched qubit) in
    /// op order then source qubit order, with
    /// [`NoiseChannel::sample_fault`](qdb_sim::NoiseChannel::sample_fault)'s
    /// contract per decision. After this call the RNG sits exactly
    /// where the interleaved replay would have left it — at the shot's
    /// measurement draw — so presampled trajectories plug into
    /// existing seeded streams without disturbing a single downstream
    /// draw. A model with no gate channel draws nothing.
    ///
    /// # Panics
    ///
    /// As [`apply_range_noisy`](Self::apply_range_noisy): invalid
    /// ranges are refused. Panics for a
    /// **Kraus** gate channel (amplitude/phase damping, general Kraus
    /// sets): its branch probabilities depend on the evolving state, so
    /// no state-free fault pattern exists — callers gate presampling on
    /// [`NoiseModel::gate_noise_is_pauli`](qdb_sim::NoiseModel::gate_noise_is_pauli).
    pub fn presample_faults<R: rand::Rng + ?Sized>(
        &self,
        range: Range<usize>,
        noise: &qdb_sim::NoiseModel,
        rng: &mut R,
        out: &mut Vec<FaultEvent>,
    ) {
        out.clear();
        let Some(channel) = noise.gate_noise.as_ref() else {
            return;
        };
        let ops = self.ops_for_range(self.num_qubits, &range);
        for (pos, op) in range.zip(ops) {
            op.for_each_qubit(|q| {
                if let Some(pauli) = channel.sample_fault(rng) {
                    out.push(FaultEvent {
                        op: pos,
                        qubit: q,
                        pauli,
                    });
                }
            });
        }
    }
}

/// Lower one source instruction into its op.
fn lower(inst: &Instruction) -> SimOp {
    let op = match inst {
        Instruction::Gate {
            controls,
            target,
            kind,
        } => SimOp::new(controls.clone(), *target, lower_matrix(&kind.matrix())),
        Instruction::Swap { controls, a, b } => {
            SimOp::new(controls.clone(), *a, KernelOp::Swap { other: *b })
        }
    };
    op.with_clifford(classify_clifford(inst))
}

/// `inst` with every qubit `q` renamed `label[q]`, in the same order.
fn relabel(inst: &Instruction, label: &[usize]) -> Instruction {
    let rename = |qubits: &[usize]| qubits.iter().map(|&q| label[q]).collect();
    match inst {
        Instruction::Gate {
            controls,
            target,
            kind,
        } => Instruction::Gate {
            controls: rename(controls),
            target: label[*target],
            kind: *kind,
        },
        Instruction::Swap { controls, a, b } => Instruction::Swap {
            controls: rename(controls),
            a: label[*a],
            b: label[*b],
        },
    }
}

/// Classify a gate's 2×2 matrix into its kernel.
fn lower_matrix(m: &Matrix2) -> KernelOp {
    match classify(m) {
        MatrixClass::Diagonal => KernelOp::Diagonal {
            d0: m.0[0][0],
            d1: m.0[1][1],
        },
        MatrixClass::AntiDiagonal => KernelOp::AntiDiagonal {
            a01: m.0[0][1],
            a10: m.0[1][0],
        },
        MatrixClass::General => KernelOp::General(*m),
    }
}

/// The syntactic Clifford classification of one source instruction (see
/// the [module docs](self) for the exact gate set).
fn classify_clifford(inst: &Instruction) -> Option<CliffordOp> {
    match inst {
        Instruction::Gate {
            controls,
            target,
            kind,
        } => match (controls.as_slice(), kind) {
            ([], GateKind::H) => Some(gate1(CliffordGate1::H, *target)),
            ([], GateKind::S) => Some(gate1(CliffordGate1::S, *target)),
            ([], GateKind::Sdg) => Some(gate1(CliffordGate1::Sdg, *target)),
            ([], GateKind::X) => Some(gate1(CliffordGate1::X, *target)),
            ([], GateKind::Y) => Some(gate1(CliffordGate1::Y, *target)),
            ([], GateKind::Z) => Some(gate1(CliffordGate1::Z, *target)),
            ([c], GateKind::X) => Some(CliffordOp::Cx {
                control: *c,
                target: *target,
            }),
            ([c], GateKind::Y) => Some(CliffordOp::Cy {
                control: *c,
                target: *target,
            }),
            ([c], GateKind::Z) => Some(CliffordOp::Cz {
                control: *c,
                target: *target,
            }),
            _ => None,
        },
        Instruction::Swap { controls, a, b } if controls.is_empty() => {
            Some(CliffordOp::Swap { a: *a, b: *b })
        }
        Instruction::Swap { .. } => None,
    }
}

fn gate1(gate: CliffordGate1, target: usize) -> CliffordOp {
    CliffordOp::Gate1 { gate, target }
}

impl Circuit {
    /// Lower this circuit into a reusable [`CompiledCircuit`].
    ///
    /// Convenience for [`CompiledCircuit::compile`].
    #[must_use]
    pub fn compile(&self, opt: OptLevel) -> CompiledCircuit {
        CompiledCircuit::compile(self, opt)
    }

    /// `true` when every instruction is in the recognized Clifford set
    /// (see the [module docs](self::super::compile) for the exact
    /// gates) — the same classification a compiled plan's
    /// [`CompiledCircuit::is_clifford`] reports, but purely syntactic:
    /// no matrices are built, so a backend chooser can probe a program
    /// without paying for a lowering it may never use.
    #[must_use]
    pub fn is_clifford(&self) -> bool {
        self.instructions()
            .iter()
            .all(|inst| classify_clifford(inst).is_some())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::GateSink;
    use qdb_sim::{NoiseModel, StabilizerState, State};
    use std::convert::Infallible;

    /// Replay `range` with `faults` spliced in, never interrupted.
    fn replay<B: SimBackend>(
        plan: &CompiledCircuit,
        backend: &mut B,
        range: Range<usize>,
        faults: &[FaultEvent],
    ) {
        let Ok(()) = plan.apply_range(backend, range, faults, usize::MAX, |_| {
            Ok::<_, Infallible>(())
        });
    }

    /// Replay the whole plan as one noisy trajectory, never interrupted.
    fn replay_noisy<B: SimBackend>(
        plan: &CompiledCircuit,
        backend: &mut B,
        noise: &NoiseModel,
        rng: &mut rand::rngs::StdRng,
    ) {
        let range = 0..plan.source_len();
        let Ok(()) = plan.apply_range_noisy(backend, range, noise, rng, usize::MAX, |_| {
            Ok::<_, Infallible>(())
        });
    }

    /// A circuit exercising every kernel class and control arity.
    fn mixed_circuit() -> Circuit {
        let mut c = Circuit::new(4);
        c.h(0);
        c.rz(1, 0.7);
        c.x(2);
        c.y(3);
        c.t(0);
        c.cx(0, 1);
        c.cphase(1, 2, -0.4);
        c.ccx(0, 1, 3);
        c.crz(2, 0, 1.1);
        c.swap(1, 3);
        c.cswap(0, 2, 3);
        c.ry(2, -0.9);
        c
    }

    /// Every named Clifford gate the classifier recognizes.
    fn clifford_circuit() -> Circuit {
        let mut c = Circuit::new(3);
        c.h(0);
        c.s(1);
        c.sdg(2);
        c.x(0);
        c.y(1);
        c.z(2);
        c.cx(0, 1);
        c.cz(1, 2);
        c.push(Instruction::controlled_gate(vec![0], GateKind::Y, 2));
        c.swap(0, 2);
        c
    }

    #[test]
    fn specialize_is_one_to_one_and_value_identical() {
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        assert_eq!(plan.ops().len(), c.len());
        for (op, inst) in plan.ops().iter().zip(c.instructions()) {
            let mut qubits = Vec::new();
            op.for_each_qubit(|q| qubits.push(q));
            assert_eq!(qubits, inst.qubits());
        }
        let mut compiled = State::zero(4);
        plan.apply_to(&mut compiled);
        let mut reference = State::zero(4);
        c.apply_to(&mut reference);
        assert_eq!(compiled, reference);
        // Same gate count, strictly less index work.
        assert_eq!(compiled.gate_ops(), reference.gate_ops());
        assert!(
            compiled.index_ops() < reference.index_ops(),
            "{} !< {}",
            compiled.index_ops(),
            reference.index_ops()
        );
    }

    #[test]
    fn census_reflects_gate_structure() {
        let plan = mixed_circuit().compile(OptLevel::Specialize);
        let (diag, anti, general, swap) = plan.kernel_census();
        // rz, t, cphase, crz are diagonal; x, y, cx, ccx anti-diagonal;
        // h, ry general; swap, cswap swaps.
        assert_eq!(diag, 4);
        assert_eq!(anti, 4);
        assert_eq!(general, 2);
        assert_eq!(swap, 2);
    }

    #[test]
    fn support_bound_counts_branching_kernels_capped_at_width() {
        // mixed_circuit has 2 general kernels (h, ry) on 4 qubits.
        let plan = mixed_circuit().compile(OptLevel::Specialize);
        assert_eq!(plan.support_log2_bound(), 2);
        // Permutation/diagonal-only circuits never grow the support.
        let mut c = Circuit::new(30);
        c.x(0);
        c.cx(0, 29);
        c.t(5);
        c.swap(3, 17);
        let plan = c.compile(OptLevel::Specialize);
        assert_eq!(plan.support_log2_bound(), 0);
        // The bound saturates at the qubit count: support ≤ 2ⁿ always.
        let mut c = Circuit::new(3);
        for _ in 0..10 {
            c.h(0);
            c.h(1);
            c.h(2);
        }
        let plan = c.compile(OptLevel::Specialize);
        assert_eq!(plan.support_log2_bound(), 3);
    }

    #[test]
    fn clifford_classification_is_syntactic_and_complete() {
        let plan = clifford_circuit().compile(OptLevel::Specialize);
        assert!(plan.is_clifford());
        for op in plan.ops() {
            assert!(op.clifford().is_some(), "op {op:?} unclassified");
        }
        // T, rotations, multi-controlled gates, and cswap are not.
        let mixed = mixed_circuit().compile(OptLevel::Specialize);
        assert!(!mixed.is_clifford());
        let clifford_count = mixed
            .ops()
            .iter()
            .filter(|op| op.clifford().is_some())
            .count();
        // h, x, y, cx, swap are Clifford in mixed_circuit.
        assert_eq!(clifford_count, 5);
    }

    #[test]
    fn clifford_plan_matches_dense_on_stabilizer_backend() {
        let c = clifford_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let mut tableau = StabilizerState::zero(3).unwrap();
        plan.apply_to(&mut tableau);
        let dense = c.run_on_basis(0).unwrap();
        let qubits = [0, 1, 2];
        let td = tableau.outcome_distribution(&qubits);
        let dd = SimBackend::outcome_distribution(&dense, &qubits);
        for key in td.keys().chain(dd.keys()) {
            let a = td.get(key).copied().unwrap_or(0.0);
            let b = dd.get(key).copied().unwrap_or(0.0);
            assert!((a - b).abs() < 1e-9, "outcome {key:#b}: {a} vs {b}");
        }
        assert_eq!(tableau.gate_ops(), c.len() as u64);
    }

    #[test]
    #[should_panic(expected = "non-Clifford")]
    fn stabilizer_backend_rejects_non_clifford_plan() {
        let plan = mixed_circuit().compile(OptLevel::Specialize);
        let mut tableau = StabilizerState::zero(4).unwrap();
        plan.apply_to(&mut tableau);
    }

    #[test]
    fn compiled_probabilities_are_bit_identical() {
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let mut compiled = State::zero(4);
        plan.apply_to(&mut compiled);
        let mut reference = State::zero(4);
        c.apply_to(&mut reference);
        for (a, b) in compiled
            .probabilities()
            .iter()
            .zip(&reference.probabilities())
        {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn apply_range_matches_interpreted_segments() {
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let mut compiled = State::zero(4);
        replay(&plan, &mut compiled, 0..5, &[]);
        replay(&plan, &mut compiled, 5..5, &[]);
        replay(&plan, &mut compiled, 5..c.len(), &[]);
        let mut reference = State::zero(4);
        c.apply_to(&mut reference);
        assert_eq!(compiled, reference);
        assert_eq!(compiled.gate_ops(), c.len() as u64);
    }

    #[test]
    fn compiled_plan_does_less_index_work_than_interpreter() {
        // Controlled and swap-heavy gates are where the interpreter's
        // generic mask-filtering scans waste the most index work.
        let mut c = Circuit::new(4);
        for q in 0..4 {
            c.h(q);
        }
        for _ in 0..8 {
            c.ccx(0, 1, 2);
            c.cphase(2, 3, 0.4);
            c.cswap(0, 1, 3);
        }
        let mut compiled = State::zero(4);
        c.compile(OptLevel::Specialize).apply_to(&mut compiled);
        let mut reference = State::zero(4);
        c.apply_to(&mut reference);
        assert_eq!(compiled, reference);
        assert_eq!(compiled.gate_ops(), reference.gate_ops());
        assert!(
            compiled.index_ops() < reference.index_ops(),
            "{} !< {}",
            compiled.index_ops(),
            reference.index_ops()
        );
    }

    #[test]
    fn noisy_replay_matches_interpreted_trajectory() {
        use rand::SeedableRng;
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let noise = NoiseModel::depolarizing(0.2);
        for seed in 0..16 {
            let mut compiled = State::zero(4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            replay_noisy(&plan, &mut compiled, &noise, &mut rng);
            let mut reference = State::zero(4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            c.apply_to_noisy(&mut reference, &noise, &mut rng);
            assert_eq!(compiled, reference, "seed {seed}");
        }
    }

    #[test]
    fn noisy_clifford_replay_runs_on_stabilizer_backend() {
        use rand::SeedableRng;
        let c = clifford_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let noise = NoiseModel::depolarizing(0.3);
        // Same seed ⇒ same Pauli insertions on both backends ⇒ same
        // trajectory state, hence identical exact distributions.
        for seed in 0..8 {
            let mut tableau = StabilizerState::zero(3).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            replay_noisy(&plan, &mut tableau, &noise, &mut rng);
            let mut dense = State::zero(3);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            replay_noisy(&plan, &mut dense, &noise, &mut rng);
            let td = tableau.outcome_distribution(&[0, 1, 2]);
            let dd = SimBackend::outcome_distribution(&dense, &[0, 1, 2]);
            for key in td.keys().chain(dd.keys()) {
                let a = td.get(key).copied().unwrap_or(0.0);
                let b = dd.get(key).copied().unwrap_or(0.0);
                assert!(
                    (a - b).abs() < 1e-9,
                    "seed {seed}, outcome {key:#b}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn presampled_faulted_replay_matches_interleaved_trajectory() {
        use rand::SeedableRng;
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let noise = NoiseModel::depolarizing(0.25);
        let mut pattern = Vec::new();
        for seed in 0..32 {
            // Presample, then splice the pattern into an ideal replay.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            plan.presample_faults(0..c.len(), &noise, &mut rng, &mut pattern);
            let mut spliced = State::zero(4);
            replay(&plan, &mut spliced, 0..c.len(), &pattern);
            // Reference: the classic interleaved noisy replay.
            let mut reference = State::zero(4);
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed);
            replay_noisy(&plan, &mut reference, &noise, &mut rng2);
            assert_eq!(spliced, reference, "seed {seed}");
            // Both RNG routes end at the same stream position.
            use rand::RngCore;
            assert_eq!(rng.next_u64(), rng2.next_u64(), "seed {seed}");
            // Patterns arrive sorted by op position.
            assert!(pattern.windows(2).all(|w| w[0].op <= w[1].op));
        }
    }

    #[test]
    fn suffix_replay_from_fork_matches_full_faulted_replay() {
        use rand::SeedableRng;
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let noise = NoiseModel::depolarizing(0.3);
        let mut pattern = Vec::new();
        let mut tried_forks = 0;
        for seed in 0..32 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            plan.presample_faults(0..c.len(), &noise, &mut rng, &mut pattern);
            let Some(first) = pattern.first().copied() else {
                continue;
            };
            tried_forks += 1;
            // Fork: ideal prefix through the first faulty op, then the
            // fault(s) at that op, then the faulty suffix.
            let mut forked = State::zero(4);
            replay(&plan, &mut forked, 0..first.op + 1, &[]);
            let at_fork = pattern.partition_point(|f| f.op == first.op);
            for fault in &pattern[..at_fork] {
                use qdb_sim::SimBackend as _;
                forked.apply_pauli(fault.qubit, fault.pauli);
            }
            replay(
                &plan,
                &mut forked,
                first.op + 1..c.len(),
                &pattern[at_fork..],
            );
            let mut whole = State::zero(4);
            replay(&plan, &mut whole, 0..c.len(), &pattern);
            assert_eq!(forked, whole, "seed {seed}");
        }
        assert!(tried_forks > 10, "noise too quiet to exercise forking");
    }

    #[test]
    fn batched_replays_poll_per_batch_and_match_unbatched() {
        use rand::SeedableRng;
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let noise = NoiseModel::depolarizing(0.3);
        let mut pattern = Vec::new();
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        plan.presample_faults(0..c.len(), &noise, &mut rng, &mut pattern);
        assert!(pattern.len() > 1, "noise too quiet to splice faults");
        let mut whole = State::zero(4);
        replay(&plan, &mut whole, 0..c.len(), &pattern);
        let mut noisy_whole = State::zero(4);
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        replay_noisy(&plan, &mut noisy_whole, &noise, &mut rng);
        for batch in [0, 1, 2, 5, c.len()] {
            let mut polls = 0;
            let mut batched = State::zero(4);
            let Ok(()) = plan.apply_range(&mut batched, 0..c.len(), &pattern, batch, |_| {
                polls += 1;
                Ok::<_, Infallible>(())
            });
            assert_eq!(batched, whole, "batch {batch}");
            assert_eq!(polls, c.len().div_ceil(batch.max(1)), "batch {batch}");
            let mut polls = 0;
            let mut noisy = State::zero(4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(3);
            let Ok(()) =
                plan.apply_range_noisy(&mut noisy, 0..c.len(), &noise, &mut rng, batch, |_| {
                    polls += 1;
                    Ok::<_, Infallible>(())
                });
            assert_eq!(noisy, noisy_whole, "batch {batch}");
            assert_eq!(polls, c.len().div_ceil(batch.max(1)), "batch {batch}");
        }
        // An empty window applies and polls nothing.
        let mut polls = 0;
        let mut s = State::zero(4);
        let Ok(()) = plan.apply_range(&mut s, 3..3, &[], 1, |_| {
            polls += 1;
            Ok::<_, Infallible>(())
        });
        assert_eq!((polls, s.gate_ops()), (0, 0));
    }

    #[test]
    fn failed_poll_stops_the_replay_after_its_batch() {
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let mut s = State::zero(4);
        let stopped = plan.apply_range(&mut s, 0..c.len(), &[], 5, |s: &State| {
            if s.gate_ops() >= 5 {
                Err(s.gate_ops())
            } else {
                Ok(())
            }
        });
        assert_eq!(stopped, Err(5));
        let mut s = State::zero(4);
        let mut rng = <rand::rngs::StdRng as rand::SeedableRng>::seed_from_u64(1);
        let noise = NoiseModel::depolarizing(0.0);
        let stopped = plan.apply_range_noisy(&mut s, 0..c.len(), &noise, &mut rng, 4, |s| {
            Err::<(), _>(s.gate_ops())
        });
        assert_eq!(stopped, Err(4));
    }

    #[test]
    fn presample_without_gate_noise_draws_nothing() {
        use rand::{RngCore, SeedableRng};
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let readout_only = NoiseModel::readout_only(0.1);
        let mut rng = rand::rngs::StdRng::seed_from_u64(9);
        let mut untouched = rand::rngs::StdRng::seed_from_u64(9);
        let mut pattern = vec![FaultEvent {
            op: 0,
            qubit: 0,
            pauli: qdb_sim::Pauli::X,
        }];
        plan.presample_faults(0..c.len(), &readout_only, &mut rng, &mut pattern);
        assert!(pattern.is_empty(), "buffer must be cleared");
        assert_eq!(rng.next_u64(), untouched.next_u64(), "stream consumed");
    }

    #[test]
    #[should_panic(expected = "extends past replay window")]
    fn fault_outside_replay_window_panics() {
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let mut s = State::zero(4);
        let stray = [FaultEvent {
            op: 5,
            qubit: 0,
            pauli: qdb_sim::Pauli::X,
        }];
        replay(&plan, &mut s, 0..3, &stray);
    }

    #[test]
    #[should_panic(expected = "invalid instruction range")]
    fn out_of_bounds_range_panics() {
        let plan = mixed_circuit().compile(OptLevel::Specialize);
        let mut s = State::zero(4);
        replay(&plan, &mut s, 0..99, &[]);
    }

    /// Qubits 1, 3 and 4 of six carry every kernel class, controls and
    /// a controlled swap; qubits 0, 2 and 5 are idle.
    fn idle_circuit() -> Circuit {
        let mut c = Circuit::new(6);
        c.h(4);
        c.ry(1, 0.3);
        c.cx(4, 3);
        c.t(1);
        c.ccx(4, 1, 3);
        c.cswap(3, 4, 1);
        c.crz(1, 4, -0.8);
        c.swap(1, 3);
        c
    }

    #[test]
    fn relabeled_copy_computes_the_same_nonzero_amplitudes() {
        let c = idle_circuit();
        let plan = c.compile(OptLevel::Specialize);
        assert_eq!(plan.active_qubits(), [1, 3, 4]);
        let copy = plan.relabeled();
        assert_eq!((copy.num_qubits(), copy.source_len()), (3, c.len()));
        assert_eq!(copy.active_qubits(), [0, 1, 2]);
        assert!(std::ptr::eq(copy.relabeled(), copy));
        for (op, relabeled) in plan.ops().iter().zip(copy.ops()) {
            let (mut from, mut to) = (Vec::new(), Vec::new());
            op.for_each_qubit(|q| from.push(plan.active_qubits().binary_search(&q).unwrap()));
            relabeled.for_each_qubit(|q| to.push(q));
            assert_eq!(from, to, "qubit order");
        }
        let mut full = State::zero(6);
        plan.apply_to(&mut full);
        let mut compact = State::zero(3);
        copy.apply_to(&mut compact);
        let deposit = |j: usize| (j & 1) << 1 | (j & 2) << 2 | (j & 4) << 2;
        for (j, a) in compact.amplitudes().iter().enumerate() {
            let b = full.amplitude(deposit(j));
            assert_eq!(
                (a.re.to_bits(), a.im.to_bits()),
                (b.re.to_bits(), b.im.to_bits())
            );
        }
        let idle_mass: f64 = (0..64)
            .filter(|i| i & 0b10_0101 != 0)
            .map(|i| full.probability(i))
            .sum();
        assert_eq!(idle_mass, 0.0);
    }

    #[test]
    fn relabeled_copy_presamples_the_same_faults() {
        use rand::SeedableRng;
        let plan = idle_circuit().compile(OptLevel::Specialize);
        let copy = plan.relabeled();
        let noise = NoiseModel::depolarizing(0.2);
        let (mut full, mut compact) = (Vec::new(), Vec::new());
        for seed in 0..16 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            plan.presample_faults(0..plan.source_len(), &noise, &mut rng, &mut full);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            copy.presample_faults(0..copy.source_len(), &noise, &mut rng, &mut compact);
            let relabeled: Vec<FaultEvent> = full
                .iter()
                .map(|f| FaultEvent {
                    qubit: plan.active_qubits().binary_search(&f.qubit).unwrap(),
                    ..*f
                })
                .collect();
            assert_eq!(compact, relabeled, "seed {seed}");
        }
    }

    #[test]
    fn a_plan_without_idle_qubits_is_its_own_relabeled_copy() {
        let plan = mixed_circuit().compile(OptLevel::Specialize);
        assert_eq!(plan.active_qubits(), [0, 1, 2, 3]);
        assert!(std::ptr::eq(plan.relabeled(), &plan));
        // A plan with no op keeps its width too.
        let empty = Circuit::new(3).compile(OptLevel::Specialize);
        assert!(empty.active_qubits().is_empty());
        assert!(std::ptr::eq(empty.relabeled(), &empty));
    }

    #[test]
    fn empty_circuit_compiles_to_empty_plan() {
        let plan = Circuit::new(2).compile(OptLevel::Specialize);
        assert_eq!(plan.ops().len(), 0);
        assert_eq!(plan.source_len(), 0);
        // An empty plan is vacuously Clifford.
        assert!(plan.is_clifford());
        let mut s = State::zero(2);
        plan.apply_to(&mut s);
        assert_eq!(s.gate_ops(), 0);
    }
}
