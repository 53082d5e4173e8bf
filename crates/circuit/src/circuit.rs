//! Gate sequences: construction, composition, adjoint, controlled
//! versions, and simulation.

use crate::instruction::{GateKind, Instruction};
use crate::CircuitError;
use qdb_sim::linalg::CMatrix;
use qdb_sim::{Complex, State};

/// Anything gates can be appended to: [`Circuit`] itself and
/// [`Program`](crate::Program). Quantum subroutines (QFT, adders, …) are
/// written against this trait so the same code serves plain circuits and
/// assertion-annotated programs.
pub trait GateSink {
    /// Number of qubits the sink operates on.
    fn num_qubits(&self) -> usize;

    /// Append one instruction.
    ///
    /// # Panics
    ///
    /// Implementations panic if the instruction touches a qubit outside
    /// `0..num_qubits()` or reuses a qubit as both control and target.
    fn push(&mut self, inst: Instruction);

    /// Append all instructions of a circuit.
    fn append(&mut self, circuit: &Circuit) {
        for inst in circuit.instructions() {
            self.push(inst.clone());
        }
    }

    /// Hadamard on `q`.
    fn h(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::H, q));
    }
    /// Pauli-X on `q`.
    fn x(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::X, q));
    }
    /// Pauli-Y on `q`.
    fn y(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::Y, q));
    }
    /// Pauli-Z on `q`.
    fn z(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::Z, q));
    }
    /// S gate on `q`.
    fn s(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::S, q));
    }
    /// S† on `q`.
    fn sdg(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::Sdg, q));
    }
    /// T gate on `q`.
    fn t(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::T, q));
    }
    /// T† on `q`.
    fn tdg(&mut self, q: usize) {
        self.push(Instruction::gate(GateKind::Tdg, q));
    }
    /// X rotation.
    fn rx(&mut self, q: usize, theta: f64) {
        self.push(Instruction::gate(GateKind::Rx(theta), q));
    }
    /// Y rotation.
    fn ry(&mut self, q: usize, theta: f64) {
        self.push(Instruction::gate(GateKind::Ry(theta), q));
    }
    /// Z rotation (`diag(e^{−iθ/2}, e^{iθ/2})`).
    fn rz(&mut self, q: usize, theta: f64) {
        self.push(Instruction::gate(GateKind::Rz(theta), q));
    }
    /// Phase rotation (`diag(1, e^{iθ})`, Scaffold's `Rz`).
    fn phase(&mut self, q: usize, theta: f64) {
        self.push(Instruction::gate(GateKind::Phase(theta), q));
    }
    /// CNOT with control `c`.
    fn cx(&mut self, c: usize, t: usize) {
        self.push(Instruction::controlled_gate(vec![c], GateKind::X, t));
    }
    /// Controlled-Z.
    fn cz(&mut self, c: usize, t: usize) {
        self.push(Instruction::controlled_gate(vec![c], GateKind::Z, t));
    }
    /// Toffoli.
    fn ccx(&mut self, c0: usize, c1: usize, t: usize) {
        self.push(Instruction::controlled_gate(vec![c0, c1], GateKind::X, t));
    }
    /// Controlled phase rotation (the paper's `cRz`).
    fn cphase(&mut self, c: usize, t: usize, theta: f64) {
        self.push(Instruction::controlled_gate(
            vec![c],
            GateKind::Phase(theta),
            t,
        ));
    }
    /// Doubly-controlled phase rotation (the paper's `ccRz`).
    fn ccphase(&mut self, c0: usize, c1: usize, t: usize, theta: f64) {
        self.push(Instruction::controlled_gate(
            vec![c0, c1],
            GateKind::Phase(theta),
            t,
        ));
    }
    /// Controlled `Rz`.
    fn crz(&mut self, c: usize, t: usize, theta: f64) {
        self.push(Instruction::controlled_gate(
            vec![c],
            GateKind::Rz(theta),
            t,
        ));
    }
    /// Multi-controlled Z (phase flip when all of `controls` and `t` are 1).
    fn mcz(&mut self, controls: &[usize], t: usize) {
        self.push(Instruction::controlled_gate(
            controls.to_vec(),
            GateKind::Z,
            t,
        ));
    }
    /// Multi-controlled X.
    fn mcx(&mut self, controls: &[usize], t: usize) {
        self.push(Instruction::controlled_gate(
            controls.to_vec(),
            GateKind::X,
            t,
        ));
    }
    /// Swap two qubits.
    fn swap(&mut self, a: usize, b: usize) {
        self.push(Instruction::Swap {
            controls: vec![],
            a,
            b,
        });
    }
    /// Controlled swap (Fredkin).
    fn cswap(&mut self, c: usize, a: usize, b: usize) {
        self.push(Instruction::Swap {
            controls: vec![c],
            a,
            b,
        });
    }
}

/// A straight-line sequence of quantum instructions on a fixed number of
/// qubits.
///
/// ```
/// use qdb_circuit::{Circuit, GateSink};
/// use qdb_sim::State;
///
/// let mut bell = Circuit::new(2);
/// bell.h(0);
/// bell.cx(0, 1);
/// let mut state = State::zero(2);
/// bell.apply_to(&mut state);
/// assert!((state.probability(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Circuit {
    num_qubits: usize,
    instructions: Vec<Instruction>,
}

impl Circuit {
    /// An empty circuit on `num_qubits` qubits.
    #[must_use]
    pub fn new(num_qubits: usize) -> Self {
        Self {
            num_qubits,
            instructions: Vec::new(),
        }
    }

    /// The instruction list in program order.
    #[must_use]
    pub fn instructions(&self) -> &[Instruction] {
        &self.instructions
    }

    /// Widen the circuit to at least `n` qubits (never shrinks).
    pub fn grow_to(&mut self, n: usize) {
        if n > self.num_qubits {
            self.num_qubits = n;
        }
    }

    /// A new circuit containing only the first `len` instructions — the
    /// breakpoint-prefix operation of the paper's compiler flow.
    ///
    /// # Panics
    ///
    /// Panics if `len > self.len()`.
    #[must_use]
    pub fn prefix(&self, len: usize) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            instructions: self.instructions[..len].to_vec(),
        }
    }

    /// A stable 64-bit content fingerprint of this circuit: an
    /// order-sensitive hash over the instruction stream (gate kinds,
    /// raw parameter bits, control lists, targets) and the qubit
    /// count. Equal circuits fingerprint equal across builds and
    /// processes; any content difference — a transposed pair, a
    /// one-ulp angle nudge, a swapped control — fingerprints apart.
    /// See [`crate::Program::fingerprint`] for the breakpoint-aware
    /// variant [`crate::PlanCache`] keys plans by.
    #[must_use]
    pub fn fingerprint(&self) -> u64 {
        crate::fingerprint::circuit_fingerprint(self)
    }

    /// Number of instructions.
    #[must_use]
    pub fn len(&self) -> usize {
        self.instructions.len()
    }

    /// `true` when the circuit contains no instructions.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.instructions.is_empty()
    }

    fn validate(&self, inst: &Instruction) {
        let qubits = inst.qubits();
        for &q in &qubits {
            assert!(
                q < self.num_qubits,
                "instruction `{inst}` uses qubit {q} outside 0..{}",
                self.num_qubits
            );
        }
        let mut sorted = qubits.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert!(
            sorted.len() == qubits.len(),
            "instruction `{inst}` reuses a qubit"
        );
    }

    /// The adjoint circuit: inverses of all instructions in reverse order.
    /// This is exactly the *mirroring* (uncomputation) pattern of §4.5.
    #[must_use]
    pub fn adjoint(&self) -> Circuit {
        Circuit {
            num_qubits: self.num_qubits,
            instructions: self
                .instructions
                .iter()
                .rev()
                .map(Instruction::inverse)
                .collect(),
        }
    }

    /// The circuit with every instruction additionally controlled on
    /// `controls` — the *recursion* pattern of §4.4.
    ///
    /// # Panics
    ///
    /// Panics if a control qubit is out of range or already used by an
    /// instruction in the circuit.
    #[must_use]
    pub fn controlled(&self, controls: &[usize]) -> Circuit {
        let mut out = Circuit::new(self.num_qubits);
        for inst in &self.instructions {
            out.push(inst.with_extra_controls(controls));
        }
        out
    }

    /// Run the circuit on a state.
    ///
    /// # Panics
    ///
    /// Panics if the state has fewer qubits than the circuit.
    pub fn apply_to(&self, state: &mut State) {
        self.apply_range_to(state, 0..self.len());
    }

    /// Run only the instructions in `range` (a window of program
    /// positions) on a state.
    ///
    /// This is the allocation-free alternative to materializing a
    /// sub-circuit with [`Circuit::prefix`]: a checkpointed sweep walks
    /// a program breakpoint by breakpoint, applying just the *segment*
    /// of instructions between consecutive breakpoints, so no prefix is
    /// ever cloned or replayed. Applying `0..a` and then `a..b` is
    /// bit-identical to applying `0..b` in one call (the same
    /// instruction sequence touches the same amplitudes in the same
    /// order).
    ///
    /// # Panics
    ///
    /// Panics if the state has fewer qubits than the circuit, the
    /// range is reversed, or the range ends beyond [`Circuit::len`].
    pub fn apply_range_to(&self, state: &mut State, range: std::ops::Range<usize>) {
        assert!(
            state.num_qubits() >= self.num_qubits,
            "state has {} qubits, circuit needs {}",
            state.num_qubits(),
            self.num_qubits
        );
        assert!(
            range.start <= range.end && range.end <= self.len(),
            "invalid instruction range {range:?} for circuit length {}",
            self.len()
        );
        for inst in &self.instructions[range] {
            apply_instruction(state, inst);
        }
    }

    /// Run the circuit on a state as one noisy *trajectory*: after each
    /// instruction the noise model's channel is sampled on every qubit
    /// the instruction touched. Averaging outcomes over many
    /// trajectories reproduces the density-matrix noise channel.
    ///
    /// # Panics
    ///
    /// Panics if the state has fewer qubits than the circuit.
    pub fn apply_to_noisy<R: rand::Rng + ?Sized>(
        &self,
        state: &mut State,
        noise: &qdb_sim::NoiseModel,
        rng: &mut R,
    ) {
        assert!(
            state.num_qubits() >= self.num_qubits,
            "state has {} qubits, circuit needs {}",
            state.num_qubits(),
            self.num_qubits
        );
        for inst in &self.instructions {
            apply_instruction(state, inst);
            if let Some(channel) = noise.gate_noise.as_ref() {
                for q in inst.qubits() {
                    channel.apply(state, q, rng);
                }
            }
        }
    }

    /// Simulate from `|input⟩` and return the final state.
    ///
    /// # Errors
    ///
    /// Propagates [`State::basis`] errors for a bad input index.
    pub fn run_on_basis(&self, input: u64) -> Result<State, CircuitError> {
        let mut state = State::basis(self.num_qubits, input).map_err(CircuitError::Sim)?;
        self.apply_to(&mut state);
        Ok(state)
    }

    /// The dense unitary matrix of the whole circuit (column `j` is the
    /// image of `|j⟩`).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::TooLarge`] for circuits over 10 qubits
    /// (the 2²⁰-element output stops being useful).
    pub fn unitary_matrix(&self) -> Result<CMatrix, CircuitError> {
        if self.num_qubits > 10 {
            return Err(CircuitError::TooLarge(self.num_qubits));
        }
        let dim = 1usize << self.num_qubits;
        let mut cols: Vec<Vec<Complex>> = Vec::with_capacity(dim);
        for j in 0..dim {
            let out = self.run_on_basis(j as u64)?;
            cols.push(out.amplitudes().to_vec());
        }
        // Transpose columns into row-major matrix.
        let mut m = vec![vec![Complex::ZERO; dim]; dim];
        for (j, col) in cols.iter().enumerate() {
            for (i, &v) in col.iter().enumerate() {
                m[i][j] = v;
            }
        }
        Ok(m)
    }

    /// `true` when `self` and `other` implement the same unitary up to a
    /// single global phase. Used to validate decompositions (Table 1) and
    /// the manual-vs-scoped Grover subroutines (Table 4).
    ///
    /// # Errors
    ///
    /// See [`Circuit::unitary_matrix`].
    pub fn equivalent_up_to_phase(&self, other: &Circuit, tol: f64) -> Result<bool, CircuitError> {
        if self.num_qubits != other.num_qubits {
            return Ok(false);
        }
        let a = self.unitary_matrix()?;
        let b = other.unitary_matrix()?;
        let dim = a.len();
        // Find a reference entry with weight in b.
        let mut phase = None;
        'outer: for i in 0..dim {
            for j in 0..dim {
                if b[i][j].abs() > 0.5 / dim as f64 && a[i][j].abs() > tol {
                    phase = Some(a[i][j] / b[i][j]);
                    break 'outer;
                }
            }
        }
        let Some(phase) = phase else {
            return Ok(false);
        };
        if (phase.abs() - 1.0).abs() > tol {
            return Ok(false);
        }
        for i in 0..dim {
            for j in 0..dim {
                if !a[i][j].approx_eq(b[i][j] * phase, tol) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Count gates by number of controls: `(plain, singly, doubly+)`.
    #[must_use]
    pub fn control_profile(&self) -> (usize, usize, usize) {
        let mut plain = 0;
        let mut single = 0;
        let mut multi = 0;
        for inst in &self.instructions {
            match inst.num_controls() {
                0 => plain += 1,
                1 => single += 1,
                _ => multi += 1,
            }
        }
        (plain, single, multi)
    }
}

/// Apply one instruction to a state (exactly one simulator gate
/// application, so [`State::gate_ops`] advances by one per instruction).
fn apply_instruction(state: &mut State, inst: &Instruction) {
    match inst {
        Instruction::Gate {
            controls,
            target,
            kind,
        } => state.apply_controlled_1q(controls, *target, &kind.matrix()),
        Instruction::Swap { controls, a, b } => {
            if controls.is_empty() {
                state.swap(*a, *b);
            } else {
                state.apply_controlled_swap(controls, *a, *b);
            }
        }
    }
}

impl GateSink for Circuit {
    fn num_qubits(&self) -> usize {
        self.num_qubits
    }

    fn push(&mut self, inst: Instruction) {
        self.validate(&inst);
        self.instructions.push(inst);
    }
}

impl Extend<Instruction> for Circuit {
    fn extend<I: IntoIterator<Item = Instruction>>(&mut self, iter: I) {
        for inst in iter {
            self.push(inst);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_circuit_is_identity() {
        let c = Circuit::new(2);
        assert!(c.is_empty());
        let s = c.run_on_basis(0b10).unwrap();
        assert!((s.probability(0b10) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn adjoint_undoes_circuit() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.t(1);
        c.ccphase(0, 1, 2, 0.77);
        c.swap(0, 2);
        c.ry(2, 1.1);

        let mut state = State::zero(3);
        c.apply_to(&mut state);
        c.adjoint().apply_to(&mut state);
        assert!((state.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn adjoint_of_adjoint_is_original() {
        let mut c = Circuit::new(2);
        c.s(0);
        c.rx(1, 0.4);
        c.cx(0, 1);
        assert_eq!(c.adjoint().adjoint(), c);
    }

    #[test]
    fn controlled_circuit_gates_all_controlled() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.x(1);
        let cc = c.controlled(&[2]);
        assert!(cc
            .instructions()
            .iter()
            .all(|inst| inst.num_controls() == 1));
        // Control |0⟩: nothing happens.
        let s = cc.run_on_basis(0).unwrap();
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
        // Control |1⟩ (bit 2): acts like the original.
        let s = cc.run_on_basis(0b100).unwrap();
        assert!((s.probability(0b110) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn unitary_matrix_of_x() {
        let mut c = Circuit::new(1);
        c.x(0);
        let m = c.unitary_matrix().unwrap();
        assert!(m[0][1].approx_eq(Complex::ONE, 1e-12));
        assert!(m[1][0].approx_eq(Complex::ONE, 1e-12));
        assert!(m[0][0].approx_eq(Complex::ZERO, 1e-12));
    }

    #[test]
    fn equivalence_up_to_phase() {
        // Rz(θ) and Phase(θ) differ only by global phase.
        let mut a = Circuit::new(1);
        a.rz(0, 0.9);
        let mut b = Circuit::new(1);
        b.phase(0, 0.9);
        assert!(a.equivalent_up_to_phase(&b, 1e-10).unwrap());
        // But controlled versions are genuinely different.
        let mut ca = Circuit::new(2);
        ca.crz(0, 1, 0.9);
        let mut cb = Circuit::new(2);
        cb.cphase(0, 1, 0.9);
        assert!(!ca.equivalent_up_to_phase(&cb, 1e-10).unwrap());
    }

    #[test]
    fn equivalence_rejects_different_sizes() {
        let a = Circuit::new(1);
        let b = Circuit::new(2);
        assert!(!a.equivalent_up_to_phase(&b, 1e-10).unwrap());
    }

    #[test]
    fn unitary_matrix_size_guard() {
        let c = Circuit::new(11);
        assert!(matches!(
            c.unitary_matrix(),
            Err(CircuitError::TooLarge(11))
        ));
    }

    #[test]
    fn control_profile_counts() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.ccx(0, 1, 2);
        c.swap(0, 1);
        assert_eq!(c.control_profile(), (2, 1, 1));
    }

    #[test]
    #[should_panic(expected = "outside")]
    fn push_rejects_out_of_range() {
        let mut c = Circuit::new(2);
        c.h(2);
    }

    #[test]
    #[should_panic(expected = "reuses a qubit")]
    fn push_rejects_duplicate_qubits() {
        let mut c = Circuit::new(2);
        c.cx(1, 1);
    }

    #[test]
    fn extend_pushes_validated() {
        let mut c = Circuit::new(2);
        c.extend([
            Instruction::gate(GateKind::H, 0),
            Instruction::gate(GateKind::X, 1),
        ]);
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn apply_range_segments_match_single_pass() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.t(1);
        c.ccphase(0, 1, 2, 0.77);
        c.swap(0, 2);
        c.ry(2, 1.1);
        let mut whole = State::zero(3);
        c.apply_to(&mut whole);
        // Same instructions applied in three segments: bit-identical.
        let mut segmented = State::zero(3);
        c.apply_range_to(&mut segmented, 0..2);
        c.apply_range_to(&mut segmented, 2..2); // empty segment is a no-op
        c.apply_range_to(&mut segmented, 2..5);
        c.apply_range_to(&mut segmented, 5..6);
        assert_eq!(whole, segmented);
        assert_eq!(segmented.gate_ops(), 6);
        for i in 0..whole.dim() {
            assert_eq!(
                whole.amplitude(i).re.to_bits(),
                segmented.amplitude(i).re.to_bits()
            );
            assert_eq!(
                whole.amplitude(i).im.to_bits(),
                segmented.amplitude(i).im.to_bits()
            );
        }
    }

    #[test]
    #[should_panic(expected = "invalid instruction range")]
    fn apply_range_out_of_bounds_panics() {
        let mut c = Circuit::new(1);
        c.h(0);
        let mut s = State::zero(1);
        c.apply_range_to(&mut s, 0..2);
    }

    #[test]
    #[should_panic(expected = "invalid instruction range")]
    fn apply_range_reversed_panics() {
        let mut c = Circuit::new(1);
        c.h(0);
        #[allow(clippy::reversed_empty_ranges)]
        let range = 1..0;
        let mut s = State::zero(1);
        c.apply_range_to(&mut s, range);
    }

    #[test]
    fn noiseless_trajectory_equals_ideal_run() {
        use qdb_sim::NoiseModel;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.ccphase(0, 1, 2, 0.4);
        let mut noisy = State::zero(3);
        let mut rng = StdRng::seed_from_u64(1);
        c.apply_to_noisy(&mut noisy, &NoiseModel::noiseless(), &mut rng);
        let ideal = c.run_on_basis(0).unwrap();
        assert!(noisy.approx_eq(&ideal, 1e-12));
    }

    #[test]
    fn fully_depolarizing_trajectory_scrambles_bell_pair() {
        use qdb_sim::NoiseModel;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut c = Circuit::new(2);
        c.h(0);
        c.cx(0, 1);
        // Average over trajectories: the 01/10 outcomes become likely.
        let mut rng = StdRng::seed_from_u64(2);
        let mut p_mismatch = 0.0;
        let trials = 400;
        for _ in 0..trials {
            let mut s = State::zero(2);
            c.apply_to_noisy(&mut s, &NoiseModel::depolarizing(0.5), &mut rng);
            p_mismatch += s.probability(0b01) + s.probability(0b10);
        }
        p_mismatch /= f64::from(trials);
        assert!(
            p_mismatch > 0.2,
            "noise should break correlation: {p_mismatch}"
        );
    }

    #[test]
    fn apply_to_allows_larger_state() {
        let mut c = Circuit::new(1);
        c.x(0);
        let mut s = State::zero(3);
        c.apply_to(&mut s);
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }
}
