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
//! per-prefix replays, and noisy trajectories all walk the same plan —
//! on *any* [`SimBackend`] via the `*_backend` entry points (the
//! `State`-typed entry points are thin wrappers over the statevector
//! backend).
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
//! [`State::gate_ops`]: qdb_sim::State::gate_ops

use crate::circuit::{Circuit, GateSink};
use crate::instruction::{GateKind, Instruction};
use qdb_sim::kernels::{classify, MatrixClass};
use qdb_sim::{CliffordGate1, CliffordOp, KernelOp, Matrix2, SimBackend, SimOp, State};

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

/// Which specialized kernel a [`CompiledOp`] dispatches to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelClass {
    /// `diag(d0, d1)` — two scalar multiplies per pair.
    Diagonal,
    /// Anti-diagonal — amplitude permutation with per-branch phases.
    AntiDiagonal,
    /// Dense 2×2 on the control-satisfying subspace.
    General,
    /// (Controlled) swap enumerating exactly the exchanged pairs.
    Swap,
}

/// One lowered instruction: a classified [`SimOp`] plus the position
/// of the source instruction it lowers.
#[derive(Debug, Clone)]
pub struct CompiledOp {
    op: SimOp,
    position: usize,
}

impl CompiledOp {
    /// The backend-neutral lowered op (kernel data plus optional
    /// Clifford classification).
    #[must_use]
    pub fn sim_op(&self) -> &SimOp {
        &self.op
    }

    /// The kernel this op dispatches to.
    #[must_use]
    pub fn kernel_class(&self) -> KernelClass {
        match self.op.kernel() {
            KernelOp::Diagonal { .. } => KernelClass::Diagonal,
            KernelOp::AntiDiagonal { .. } => KernelClass::AntiDiagonal,
            KernelOp::General(_) => KernelClass::General,
            KernelOp::Swap { .. } => KernelClass::Swap,
        }
    }

    /// The Clifford form of the source instruction, when it has one.
    #[must_use]
    pub fn clifford(&self) -> Option<&CliffordOp> {
        self.op.clifford()
    }

    /// The source-instruction range this op covers (always the one
    /// instruction it lowers).
    #[must_use]
    pub fn source_range(&self) -> std::ops::Range<usize> {
        self.position..self.position + 1
    }

    /// Number of control qubits.
    #[must_use]
    pub fn num_controls(&self) -> usize {
        self.op.controls().len()
    }
}

/// A circuit lowered once and applied many times, on any backend.
///
/// Build with [`CompiledCircuit::compile`] (or
/// [`Program::compile`](crate::Program::compile)); apply with
/// [`CompiledCircuit::apply_to`]
/// / [`apply_range_to`](CompiledCircuit::apply_range_to) /
/// [`apply_to_noisy`](CompiledCircuit::apply_to_noisy) on a dense
/// [`State`], or with the `*_backend` generic entry points on any
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
    ops: Vec<CompiledOp>,
}

impl CompiledCircuit {
    /// Lower `circuit`, one op per instruction.
    #[must_use]
    pub fn compile(circuit: &Circuit, opt: OptLevel) -> Self {
        let OptLevel::Specialize = opt;
        let ops = circuit
            .instructions()
            .iter()
            .enumerate()
            .map(|(position, inst)| {
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
                CompiledOp {
                    op: op.with_clifford(classify_clifford(inst)),
                    position,
                }
            })
            .collect();
        Self {
            num_qubits: circuit.num_qubits(),
            ops,
        }
    }

    /// Number of qubits the compiled circuit operates on.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    /// Number of source instructions this plan was compiled from.
    #[must_use]
    pub fn source_len(&self) -> usize {
        self.ops.len()
    }

    /// The lowered ops in application order.
    #[must_use]
    pub fn ops(&self) -> &[CompiledOp] {
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
            match op.kernel_class() {
                KernelClass::Diagonal => census.0 += 1,
                KernelClass::AntiDiagonal => census.1 += 1,
                KernelClass::General => census.2 += 1,
                KernelClass::Swap => census.3 += 1,
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

    /// Run the whole compiled circuit on a state.
    ///
    /// # Panics
    ///
    /// Panics if the state has fewer qubits than the circuit.
    pub fn apply_to(&self, state: &mut State) {
        self.apply_to_backend(state);
    }

    /// Run the whole compiled circuit on any backend.
    ///
    /// # Panics
    ///
    /// Panics if the backend has fewer qubits than the circuit or
    /// cannot execute an op (a non-Clifford op on the stabilizer
    /// backend — check [`is_clifford`](Self::is_clifford) first).
    pub fn apply_to_backend<B: SimBackend>(&self, backend: &mut B) {
        self.apply_range_to_backend(backend, 0..self.source_len());
    }

    /// Run only the ops covering the **source-instruction** window
    /// `range` — the compiled counterpart of
    /// [`Circuit::apply_range_to`], sharing its coordinates so a
    /// breakpoint sweep can switch plans without renumbering anything.
    ///
    /// # Panics
    ///
    /// Panics if the state is too small or the range is reversed or out
    /// of bounds.
    pub fn apply_range_to(&self, state: &mut State, range: std::ops::Range<usize>) {
        self.apply_range_to_backend(state, range);
    }

    /// [`apply_range_to`](Self::apply_range_to) on any backend.
    ///
    /// # Panics
    ///
    /// As [`apply_range_to`](Self::apply_range_to), plus unsupported
    /// ops (see [`apply_to_backend`](Self::apply_to_backend)).
    pub fn apply_range_to_backend<B: SimBackend>(
        &self,
        backend: &mut B,
        range: std::ops::Range<usize>,
    ) {
        for op in self.ops_for_range(backend.num_qubits(), &range) {
            backend.apply_op(&op.op);
        }
    }

    /// [`apply_range_to_backend`](Self::apply_range_to_backend) with an
    /// amortized interruption check: after every `batch_ops` compiled
    /// ops — and once more at the window's end if a partial batch
    /// remains — `poll` is invoked with the backend and the cumulative
    /// op count so far. A poll returning `Err` stops the replay
    /// immediately and propagates the error; the backend is left at the
    /// last op applied (mid-window, so callers treat it as consumed).
    ///
    /// The execution governor drives this with a stride chosen so the
    /// per-op polling cost is unmeasurable (`max(1, 2¹⁶ >> n)` for an
    /// `n`-qubit state): each poll then costs a handful of atomic loads
    /// against ~2¹⁶ amplitude visits of real work.
    ///
    /// # Errors
    ///
    /// Whatever `poll` returns, unchanged.
    ///
    /// # Panics
    ///
    /// As [`apply_range_to_backend`](Self::apply_range_to_backend).
    pub fn apply_range_to_backend_polled<B: SimBackend, E>(
        &self,
        backend: &mut B,
        range: std::ops::Range<usize>,
        batch_ops: usize,
        poll: &mut impl FnMut(&B, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let batch = batch_ops.max(1);
        let mut since_poll = 0usize;
        let mut total = 0usize;
        for op in self.ops_for_range(backend.num_qubits(), &range) {
            backend.apply_op(&op.op);
            total += 1;
            since_poll += 1;
            if since_poll >= batch {
                since_poll = 0;
                poll(backend, total)?;
            }
        }
        if since_poll > 0 {
            poll(backend, total)?;
        }
        Ok(())
    }

    /// Run the whole compiled circuit as one noisy trajectory,
    /// bit-compatible with [`Circuit::apply_to_noisy`]: after each op
    /// the noise channel is sampled on every qubit the source
    /// instruction touched, in source order.
    ///
    /// # Panics
    ///
    /// Panics if the state is too small.
    pub fn apply_to_noisy<R: rand::Rng + ?Sized>(
        &self,
        state: &mut State,
        noise: &qdb_sim::NoiseModel,
        rng: &mut R,
    ) {
        self.apply_range_to_noisy_backend(state, 0..self.source_len(), noise, rng);
    }

    /// Noisy-trajectory replay of a source-instruction window; see
    /// [`apply_to_noisy`](Self::apply_to_noisy).
    ///
    /// # Panics
    ///
    /// As [`apply_to_noisy`](Self::apply_to_noisy), plus the range
    /// conditions of [`apply_range_to`](Self::apply_range_to).
    pub fn apply_range_to_noisy<R: rand::Rng + ?Sized>(
        &self,
        state: &mut State,
        range: std::ops::Range<usize>,
        noise: &qdb_sim::NoiseModel,
        rng: &mut R,
    ) {
        self.apply_range_to_noisy_backend(state, range, noise, rng);
    }

    /// Noisy-trajectory replay on any backend. Stochastic-Pauli
    /// channels replay on every backend (Clifford plans run noisy
    /// trajectories on the stabilizer backend too); Kraus channels
    /// (amplitude/phase damping, general Kraus sets) need dense branch
    /// norms and therefore a backend with
    /// [`SimBackend::supports_kraus`]` == true` — the statevector
    /// engine.
    ///
    /// # Panics
    ///
    /// As [`apply_range_to_noisy`](Self::apply_range_to_noisy), plus
    /// unsupported ops (see [`apply_to_backend`](Self::apply_to_backend)),
    /// plus Kraus noise on a backend without Kraus support.
    pub fn apply_range_to_noisy_backend<B: SimBackend, R: rand::Rng + ?Sized>(
        &self,
        backend: &mut B,
        range: std::ops::Range<usize>,
        noise: &qdb_sim::NoiseModel,
        rng: &mut R,
    ) {
        for op in self.ops_for_range(backend.num_qubits(), &range) {
            backend.apply_op(&op.op);
            if let Some(channel) = noise.gate_noise.as_ref() {
                op.op
                    .for_each_qubit(|q| channel.apply_to_backend(backend, q, rng));
            }
        }
    }

    /// Validate a source range and resolve it to the ops that lower it.
    fn ops_for_range(
        &self,
        backend_qubits: usize,
        range: &std::ops::Range<usize>,
    ) -> &[CompiledOp] {
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
/// ensemble deduplication sound.
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
    /// [`apply_range_to_noisy_backend`](Self::apply_range_to_noisy_backend)
    /// over the same window: one decision per (op, touched qubit) in
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
    /// As [`apply_range_to_noisy_backend`](Self::apply_range_to_noisy_backend):
    /// invalid ranges are refused. Panics for a
    /// **Kraus** gate channel (amplitude/phase damping, general Kraus
    /// sets): its branch probabilities depend on the evolving state, so
    /// no state-free fault pattern exists — callers gate presampling on
    /// [`NoiseModel::gate_noise_is_pauli`](qdb_sim::NoiseModel::gate_noise_is_pauli).
    pub fn presample_faults<R: rand::Rng + ?Sized>(
        &self,
        range: std::ops::Range<usize>,
        noise: &qdb_sim::NoiseModel,
        rng: &mut R,
        out: &mut Vec<FaultEvent>,
    ) {
        out.clear();
        let Some(channel) = noise.gate_noise.as_ref() else {
            return;
        };
        for op in self.ops_for_range(self.num_qubits, &range) {
            let pos = op.position;
            op.op.for_each_qubit(|q| {
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

    /// Replay the source window `range` with a presampled fault pattern
    /// spliced back in: each op is applied, then every fault recorded
    /// against its position fires in recorded order.
    ///
    /// `faults` must be sorted by [`FaultEvent::op`] (presampling
    /// produces them sorted) and must lie within `range`; the replayed
    /// state is bit-for-bit the one
    /// [`apply_range_to_noisy_backend`](Self::apply_range_to_noisy_backend)
    /// would have produced from the RNG stream that presampled the
    /// pattern. The trajectory-tree engine uses this to replay only a
    /// trajectory's *faulty suffix* from a forked ideal checkpoint.
    ///
    /// # Panics
    ///
    /// As [`apply_range_to_noisy_backend`](Self::apply_range_to_noisy_backend),
    /// plus a fault positioned outside `range`.
    pub fn apply_range_to_backend_with_faults<B: SimBackend>(
        &self,
        backend: &mut B,
        range: std::ops::Range<usize>,
        faults: &[FaultEvent],
    ) {
        let mut pending = faults.iter().peekable();
        for op in self.ops_for_range(backend.num_qubits(), &range) {
            backend.apply_op(&op.op);
            while let Some(fault) = pending.next_if(|f| f.op <= op.position) {
                assert!(
                    fault.op == op.position,
                    "fault at op {} precedes replay window {range:?}",
                    fault.op
                );
                backend.apply_pauli(fault.qubit, fault.pauli);
            }
        }
        assert!(
            pending.next().is_none(),
            "fault pattern extends past replay window {range:?}"
        );
    }

    /// [`apply_range_to_backend_with_faults`](Self::apply_range_to_backend_with_faults)
    /// with the same amortized interruption check as
    /// [`apply_range_to_backend_polled`](Self::apply_range_to_backend_polled):
    /// `poll` runs after every `batch_ops` ops (faults fire with their
    /// op before the poll) and once at the window's end, and an `Err`
    /// stops the replay immediately. The trajectory tree drives its
    /// forked suffix replays through this so a budget trip interrupts
    /// even a single long trajectory, not just the gaps between them.
    ///
    /// # Errors
    ///
    /// Whatever `poll` returns, unchanged.
    ///
    /// # Panics
    ///
    /// As [`apply_range_to_backend_with_faults`](Self::apply_range_to_backend_with_faults),
    /// except that a fault pattern extending past the replay window is
    /// only detected if the replay runs to completion.
    pub fn apply_range_to_backend_with_faults_polled<B: SimBackend, E>(
        &self,
        backend: &mut B,
        range: std::ops::Range<usize>,
        faults: &[FaultEvent],
        batch_ops: usize,
        poll: &mut impl FnMut(&B, usize) -> Result<(), E>,
    ) -> Result<(), E> {
        let batch = batch_ops.max(1);
        let mut since_poll = 0usize;
        let mut total = 0usize;
        let mut pending = faults.iter().peekable();
        for op in self.ops_for_range(backend.num_qubits(), &range) {
            backend.apply_op(&op.op);
            while let Some(fault) = pending.next_if(|f| f.op <= op.position) {
                assert!(
                    fault.op == op.position,
                    "fault at op {} precedes replay window {range:?}",
                    fault.op
                );
                backend.apply_pauli(fault.qubit, fault.pauli);
            }
            total += 1;
            since_poll += 1;
            if since_poll >= batch {
                since_poll = 0;
                poll(backend, total)?;
            }
        }
        assert!(
            pending.next().is_none(),
            "fault pattern extends past replay window {range:?}"
        );
        if since_poll > 0 {
            poll(backend, total)?;
        }
        Ok(())
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
    use qdb_sim::StabilizerState;

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
        for (pos, op) in plan.ops().iter().enumerate() {
            assert_eq!(op.source_range(), pos..pos + 1);
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
        plan.apply_to_backend(&mut tableau);
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
        plan.apply_to_backend(&mut tableau);
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
        plan.apply_range_to(&mut compiled, 0..5);
        plan.apply_range_to(&mut compiled, 5..5);
        plan.apply_range_to(&mut compiled, 5..c.len());
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
        let noise = qdb_sim::NoiseModel::depolarizing(0.2);
        for seed in 0..16 {
            let mut compiled = State::zero(4);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            plan.apply_to_noisy(&mut compiled, &noise, &mut rng);
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
        let noise = qdb_sim::NoiseModel::depolarizing(0.3);
        // Same seed ⇒ same Pauli insertions on both backends ⇒ same
        // trajectory state, hence identical exact distributions.
        for seed in 0..8 {
            let mut tableau = StabilizerState::zero(3).unwrap();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            plan.apply_range_to_noisy_backend(&mut tableau, 0..c.len(), &noise, &mut rng);
            let mut dense = State::zero(3);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            plan.apply_to_noisy(&mut dense, &noise, &mut rng);
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
        let noise = qdb_sim::NoiseModel::depolarizing(0.25);
        let mut pattern = Vec::new();
        for seed in 0..32 {
            // Presample, then splice the pattern into an ideal replay.
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            plan.presample_faults(0..c.len(), &noise, &mut rng, &mut pattern);
            let mut spliced = State::zero(4);
            plan.apply_range_to_backend_with_faults(&mut spliced, 0..c.len(), &pattern);
            // Reference: the classic interleaved noisy replay.
            let mut reference = State::zero(4);
            let mut rng2 = rand::rngs::StdRng::seed_from_u64(seed);
            plan.apply_to_noisy(&mut reference, &noise, &mut rng2);
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
        let noise = qdb_sim::NoiseModel::depolarizing(0.3);
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
            plan.apply_range_to(&mut forked, 0..first.op + 1);
            let at_fork = pattern.partition_point(|f| f.op == first.op);
            for fault in &pattern[..at_fork] {
                use qdb_sim::SimBackend as _;
                forked.apply_pauli(fault.qubit, fault.pauli);
            }
            plan.apply_range_to_backend_with_faults(
                &mut forked,
                first.op + 1..c.len(),
                &pattern[at_fork..],
            );
            let mut whole = State::zero(4);
            plan.apply_range_to_backend_with_faults(&mut whole, 0..c.len(), &pattern);
            assert_eq!(forked, whole, "seed {seed}");
        }
        assert!(tried_forks > 10, "noise too quiet to exercise forking");
    }

    #[test]
    fn presample_without_gate_noise_draws_nothing() {
        use rand::{RngCore, SeedableRng};
        let c = mixed_circuit();
        let plan = c.compile(OptLevel::Specialize);
        let readout_only = qdb_sim::NoiseModel::readout_only(0.1);
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
        plan.apply_range_to_backend_with_faults(&mut s, 0..3, &stray);
    }

    #[test]
    #[should_panic(expected = "invalid instruction range")]
    fn out_of_bounds_range_panics() {
        let plan = mixed_circuit().compile(OptLevel::Specialize);
        let mut s = State::zero(4);
        plan.apply_range_to(&mut s, 0..99);
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
