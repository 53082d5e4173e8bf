//! Aaronson–Gottesman stabilizer (Clifford tableau) simulation.
//!
//! The dense statevector caps at [`MAX_QUBITS`](crate::state::MAX_QUBITS)
//! = 26 qubits (1 GiB of amplitudes); the circuits the assertion
//! workflow debugs most — GHZ ladders, teleportation chains,
//! error-correcting codes — are pure Clifford and therefore simulable in
//! *polynomial* time and space by tracking the stabilizer group of the
//! state instead of its amplitudes (Aaronson & Gottesman, "Improved
//! simulation of stabilizer circuits", 2004). [`StabilizerState`] is
//! that engine: `O(n²)` bits of tableau, `O(n)` per Clifford gate,
//! `O(n²)` per measurement, good for hundreds of qubits where the dense
//! backend cannot even allocate.
//!
//! ## Representation
//!
//! The tableau holds `2n` Pauli rows over bit-packed X/Z vectors plus a
//! sign bit each: rows `0..n` are destabilizers, rows `n..2n` the
//! stabilizer generators. The initial `|0…0⟩` tableau is
//! `destabᵢ = Xᵢ`, `stabᵢ = Zᵢ`. Gates conjugate every row in `O(n)`
//! (bit-parallel over 64-qubit words); measurement uses the standard
//! random/deterministic split with word-parallel phase accumulation.
//!
//! ## Scope
//!
//! Exactly the [`CliffordOp`] instruction set: H, S, S†, X, Y, Z, CX,
//! CY, CZ, swap. Non-Clifford ops have no tableau representation;
//! [`SimBackend::apply_op`] panics on them, and the ensemble engine in
//! `qdb-core` routes such programs to the statevector backend instead
//! (see its `BackendChoice::Auto` rules).
//!
//! ```
//! use qdb_sim::stabilizer::StabilizerState;
//! use qdb_sim::SimBackend;
//! use rand::{rngs::StdRng, SeedableRng};
//!
//! // A 100-qubit GHZ state — far beyond any dense simulator.
//! let mut s = StabilizerState::zero(100).unwrap();
//! s.h(0);
//! for q in 1..100 {
//!     s.cx(q - 1, q);
//! }
//! assert_eq!(s.prob_one(99), 0.5);
//! let mut rng = StdRng::seed_from_u64(7);
//! let shot = s.sample_once(&[0, 99], &mut rng);
//! assert!(shot == 0b00 || shot == 0b11); // ends always agree
//! ```

use std::collections::HashMap;

use rand::Rng;

use crate::backend::{CliffordGate1, CliffordOp, SimBackend, SimOp};
use crate::error::SimError;
use crate::readout::{self, Collapse, Rule};
use crate::state::Pauli;

/// Hard cap on tableau size: `2n` rows of `2n` bits (X and Z vectors
/// together) ≈ 8 MiB at this bound — generous for every workload while
/// keeping accidental million-qubit allocations impossible.
pub const MAX_STABILIZER_QUBITS: usize = 4096;

/// A stabilizer state of `n` qubits as an Aaronson–Gottesman tableau.
///
/// See the [module docs](self) for representation and scope.
#[derive(Debug, Clone)]
pub struct StabilizerState {
    n: usize,
    /// Words per row (`⌈n / 64⌉`).
    words: usize,
    /// X bit-vectors, row-major: `2n` rows of `words` words.
    xs: Vec<u64>,
    /// Z bit-vectors, same layout.
    zs: Vec<u64>,
    /// Sign bit per row: the row's Pauli carries `(−1)^phase`.
    phase: Vec<bool>,
    gate_ops: u64,
}

impl StabilizerState {
    /// The all-zeros state `|0…0⟩`.
    ///
    /// # Errors
    ///
    /// * [`SimError::InvalidDimension`] when `num_qubits == 0`;
    /// * [`SimError::TooManyQubits`] beyond [`MAX_STABILIZER_QUBITS`].
    pub fn zero(num_qubits: usize) -> Result<Self, SimError> {
        if num_qubits == 0 {
            return Err(SimError::InvalidDimension(0));
        }
        if num_qubits > MAX_STABILIZER_QUBITS {
            return Err(SimError::TooManyQubits(num_qubits));
        }
        let words = num_qubits.div_ceil(64);
        let mut s = Self {
            n: num_qubits,
            words,
            xs: vec![0; 2 * num_qubits * words],
            zs: vec![0; 2 * num_qubits * words],
            phase: vec![false; 2 * num_qubits],
            gate_ops: 0,
        };
        for i in 0..num_qubits {
            let (w, m) = (i / 64, 1u64 << (i % 64));
            s.xs[i * words + w] |= m; // destabilizer i = Xᵢ
            s.zs[(num_qubits + i) * words + w] |= m; // stabilizer i = Zᵢ
        }
        Ok(s)
    }

    /// Number of qubits.
    #[must_use]
    pub fn num_qubits(&self) -> usize {
        self.n
    }

    /// Number of Clifford gate applications this state has undergone —
    /// the tableau counterpart of
    /// [`State::gate_ops`](crate::State::gate_ops), used by the scale
    /// benchmarks to demonstrate `O(G)` sweeps.
    #[must_use]
    pub fn gate_ops(&self) -> u64 {
        self.gate_ops
    }

    /// Reset the [`gate_ops`](StabilizerState::gate_ops) counter.
    pub fn reset_gate_ops(&mut self) {
        self.gate_ops = 0;
    }

    fn check_qubit(&self, q: usize) {
        assert!(
            q < self.n,
            "qubit {q} out of range for {}-qubit tableau",
            self.n
        );
    }

    #[inline]
    fn x_bit(&self, row: usize, q: usize) -> bool {
        self.xs[row * self.words + q / 64] & (1u64 << (q % 64)) != 0
    }

    // --- raw (uncounted) conjugations, each O(n) over all 2n rows ---

    /// H on `q`: X ↔ Z per row, sign flip where the row acts as Y.
    fn raw_h(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let xi = row * self.words + w;
            let xb = self.xs[xi] & m != 0;
            let zb = self.zs[xi] & m != 0;
            if xb && zb {
                self.phase[row] = !self.phase[row];
            }
            if xb != zb {
                self.xs[xi] ^= m;
                self.zs[xi] ^= m;
            }
        }
    }

    /// S on `q`: Z ^= X per row, sign flip where the row acts as Y.
    fn raw_s(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let xi = row * self.words + w;
            let xb = self.xs[xi] & m != 0;
            if xb && self.zs[xi] & m != 0 {
                self.phase[row] = !self.phase[row];
            }
            if xb {
                self.zs[xi] ^= m;
            }
        }
    }

    /// Z on `q`: sign flip where the row anticommutes with Z (x = 1).
    fn raw_z(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            if self.xs[row * self.words + w] & m != 0 {
                self.phase[row] = !self.phase[row];
            }
        }
    }

    /// X on `q`: sign flip where the row anticommutes with X (z = 1).
    fn raw_x(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            if self.zs[row * self.words + w] & m != 0 {
                self.phase[row] = !self.phase[row];
            }
        }
    }

    /// Y on `q`: sign flip where the row acts as X or Z (not Y).
    fn raw_y(&mut self, q: usize) {
        let (w, m) = (q / 64, 1u64 << (q % 64));
        for row in 0..2 * self.n {
            let xi = row * self.words + w;
            if (self.xs[xi] & m != 0) != (self.zs[xi] & m != 0) {
                self.phase[row] = !self.phase[row];
            }
        }
    }

    /// S† = S ∘ Z.
    fn raw_sdg(&mut self, q: usize) {
        self.raw_z(q);
        self.raw_s(q);
    }

    /// CX with control `c`, target `t`.
    fn raw_cx(&mut self, c: usize, t: usize) {
        let (cw, cm) = (c / 64, 1u64 << (c % 64));
        let (tw, tm) = (t / 64, 1u64 << (t % 64));
        for row in 0..2 * self.n {
            let base = row * self.words;
            let xc = self.xs[base + cw] & cm != 0;
            let zc = self.zs[base + cw] & cm != 0;
            let xt = self.xs[base + tw] & tm != 0;
            let zt = self.zs[base + tw] & tm != 0;
            if xc && zt && (xt == zc) {
                self.phase[row] = !self.phase[row];
            }
            if xc {
                self.xs[base + tw] ^= tm;
            }
            if zt {
                self.zs[base + cw] ^= cm;
            }
        }
    }

    /// CZ = H(t) ∘ CX ∘ H(t).
    fn raw_cz(&mut self, c: usize, t: usize) {
        self.raw_h(t);
        self.raw_cx(c, t);
        self.raw_h(t);
    }

    /// CY = S(t) ∘ CX ∘ S†(t).
    fn raw_cy(&mut self, c: usize, t: usize) {
        self.raw_sdg(t);
        self.raw_cx(c, t);
        self.raw_s(t);
    }

    /// Swap = three CNOTs.
    fn raw_swap(&mut self, a: usize, b: usize) {
        self.raw_cx(a, b);
        self.raw_cx(b, a);
        self.raw_cx(a, b);
    }

    // --- public counted gates ---

    /// Hadamard on `q`.
    ///
    /// # Panics
    ///
    /// All gate methods panic on an out-of-range qubit; two-qubit gates
    /// additionally panic when their qubits coincide.
    pub fn h(&mut self, q: usize) {
        self.check_qubit(q);
        self.gate_ops += 1;
        self.raw_h(q);
    }

    /// Phase gate S on `q`.
    pub fn s(&mut self, q: usize) {
        self.check_qubit(q);
        self.gate_ops += 1;
        self.raw_s(q);
    }

    /// S† on `q`.
    pub fn sdg(&mut self, q: usize) {
        self.check_qubit(q);
        self.gate_ops += 1;
        self.raw_sdg(q);
    }

    /// Pauli-X on `q`.
    pub fn x(&mut self, q: usize) {
        self.check_qubit(q);
        self.gate_ops += 1;
        self.raw_x(q);
    }

    /// Pauli-Y on `q`.
    pub fn y(&mut self, q: usize) {
        self.check_qubit(q);
        self.gate_ops += 1;
        self.raw_y(q);
    }

    /// Pauli-Z on `q`.
    pub fn z(&mut self, q: usize) {
        self.check_qubit(q);
        self.gate_ops += 1;
        self.raw_z(q);
    }

    /// CNOT with control `c` and target `t`.
    pub fn cx(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert!(c != t, "control {c} equals target");
        self.gate_ops += 1;
        self.raw_cx(c, t);
    }

    /// Controlled-Y.
    pub fn cy(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert!(c != t, "control {c} equals target");
        self.gate_ops += 1;
        self.raw_cy(c, t);
    }

    /// Controlled-Z.
    pub fn cz(&mut self, c: usize, t: usize) {
        self.check_qubit(c);
        self.check_qubit(t);
        assert!(c != t, "control {c} equals target");
        self.gate_ops += 1;
        self.raw_cz(c, t);
    }

    /// Swap qubits `a` and `b` (`swap(q, q)` is a no-op and counts no
    /// work, matching the dense backend's convention).
    pub fn swap(&mut self, a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        if a == b {
            return;
        }
        self.gate_ops += 1;
        self.raw_swap(a, b);
    }

    /// Apply one backend-neutral Clifford op (one gate application).
    pub fn apply_clifford(&mut self, op: &CliffordOp) {
        match *op {
            CliffordOp::Gate1 { gate, target } => match gate {
                CliffordGate1::H => self.h(target),
                CliffordGate1::S => self.s(target),
                CliffordGate1::Sdg => self.sdg(target),
                CliffordGate1::X => self.x(target),
                CliffordGate1::Y => self.y(target),
                CliffordGate1::Z => self.z(target),
            },
            CliffordOp::Cx { control, target } => self.cx(control, target),
            CliffordOp::Cy { control, target } => self.cy(control, target),
            CliffordOp::Cz { control, target } => self.cz(control, target),
            CliffordOp::Swap { a, b } => self.swap(a, b),
        }
    }

    // --- measurement ---

    /// Word-parallel phase contribution of adding row carrying
    /// `(x1, z1)` into a row currently carrying `(x2, z2)`: the sum of
    /// the Aaronson–Gottesman `g` function over the word's bit lanes.
    #[inline]
    fn phase_exponent(e: &mut i64, x1: u64, z1: u64, x2: u64, z2: u64) {
        let m_y = x1 & z1; // row-to-add acts as Y on these lanes
        let m_x = x1 & !z1; // … as X
        let m_z = !x1 & z1; // … as Z
        let plus = (m_y & z2 & !x2) | (m_x & x2 & z2) | (m_z & x2 & !z2);
        let minus = (m_y & x2 & !z2) | (m_x & z2 & !x2) | (m_z & x2 & z2);
        *e += i64::from(plus.count_ones()) - i64::from(minus.count_ones());
    }

    /// `row_h *= row_i` (Pauli product with exact sign tracking).
    ///
    /// The exponent is guaranteed real only when the rows commute —
    /// true for every stabilizer-row target (stabilizers commute
    /// pairwise). The one anticommuting case, adding the measurement
    /// pivot into its *paired destabilizer*, picks up an `i` factor;
    /// destabilizer phases are pure bookkeeping that no outcome ever
    /// reads, so (exactly as in Aaronson's chp.c) the stored sign there
    /// is don't-care.
    fn rowsum(&mut self, h: usize, i: usize) {
        let (hb, ib) = (h * self.words, i * self.words);
        let mut e: i64 = 2 * i64::from(self.phase[h]) + 2 * i64::from(self.phase[i]);
        for w in 0..self.words {
            Self::phase_exponent(
                &mut e,
                self.xs[ib + w],
                self.zs[ib + w],
                self.xs[hb + w],
                self.zs[hb + w],
            );
        }
        debug_assert!(
            h < self.n || e.rem_euclid(4) % 2 == 0,
            "rowsum into stabilizer row produced imaginary phase"
        );
        self.phase[h] = e.rem_euclid(4) == 2;
        for w in 0..self.words {
            self.xs[hb + w] ^= self.xs[ib + w];
            self.zs[hb + w] ^= self.zs[ib + w];
        }
    }

    /// The stabilizer row that anticommutes with `Z_q`, if any — its
    /// existence means a `Z_q` measurement is random.
    fn random_pivot(&self, q: usize) -> Option<usize> {
        (self.n..2 * self.n).find(|&row| self.x_bit(row, q))
    }

    /// Collapse a *random* `Z_q` measurement (pivot from
    /// [`random_pivot`](Self::random_pivot)) onto `outcome`.
    fn collapse(&mut self, pivot: usize, q: usize, outcome: bool) {
        for row in 0..2 * self.n {
            if row != pivot && self.x_bit(row, q) {
                self.rowsum(row, pivot);
            }
        }
        // Destabilizer := the old stabilizer; stabilizer := ±Z_q.
        let (db, pb) = ((pivot - self.n) * self.words, pivot * self.words);
        for w in 0..self.words {
            self.xs[db + w] = self.xs[pb + w];
            self.zs[db + w] = self.zs[pb + w];
            self.xs[pb + w] = 0;
            self.zs[pb + w] = 0;
        }
        self.phase[pivot - self.n] = self.phase[pivot];
        self.zs[pb + q / 64] = 1u64 << (q % 64);
        self.phase[pivot] = outcome;
    }

    /// The outcome of a *deterministic* `Z_q` measurement (no stabilizer
    /// anticommutes with `Z_q`): accumulate the product of the
    /// stabilizers flagged by the destabilizers and read its sign.
    fn deterministic_outcome(&self, q: usize) -> bool {
        let mut sx = vec![0u64; self.words];
        let mut sz = vec![0u64; self.words];
        let mut e: i64 = 0;
        for i in 0..self.n {
            if self.x_bit(i, q) {
                let sb = (self.n + i) * self.words;
                e += 2 * i64::from(self.phase[self.n + i]);
                for w in 0..self.words {
                    Self::phase_exponent(&mut e, self.xs[sb + w], self.zs[sb + w], sx[w], sz[w]);
                    sx[w] ^= self.xs[sb + w];
                    sz[w] ^= self.zs[sb + w];
                }
            }
        }
        debug_assert!(e.rem_euclid(4) % 2 == 0, "scratch row has imaginary phase");
        e.rem_euclid(4) == 2
    }

    /// Marginal probability that `q` measures `1` — always exactly
    /// `0.0`, `0.5`, or `1.0` for a stabilizer state.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    #[must_use]
    pub fn prob_one(&self, q: usize) -> f64 {
        self.rule(q).p_one()
    }

    /// Measure qubit `q` in the computational basis, collapsing the
    /// state. A random outcome consumes one uniform draw
    /// (`rng.gen::<f64>() < 0.5`); a deterministic outcome consumes
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        readout::measure(self, q, rng)
    }

    /// The exact joint distribution of the listed qubits, by branch
    /// enumeration: deterministic qubits extend the current branch for
    /// free; each random qubit forks it into two half-probability
    /// branches. A stabilizer distribution is uniform over an affine
    /// space, so every reported probability is an exact power of two.
    ///
    /// # Panics
    ///
    /// Panics if a qubit is out of range or `qubits.len() > 64`.
    #[must_use]
    pub fn outcome_distribution(&self, qubits: &[usize]) -> HashMap<u64, f64> {
        assert!(qubits.len() <= 64, "cannot pack more than 64 qubits");
        for &q in qubits {
            self.check_qubit(q);
        }
        let mut dist = HashMap::new();
        let mut branches: Vec<(StabilizerState, usize, u64, f64)> = vec![(self.clone(), 0, 0, 1.0)];
        while let Some((mut state, mut pos, mut packed, mut p)) = branches.pop() {
            loop {
                let Some(&q) = qubits.get(pos) else {
                    *dist.entry(packed).or_insert(0.0) += p;
                    break;
                };
                match state.rule(q) {
                    Rule::Fixed(bit) => packed |= u64::from(bit) << pos,
                    Rule::Draw(_) => {
                        p *= 0.5;
                        let mut one = state.clone();
                        one.project(q, true);
                        branches.push((one, pos + 1, packed | (1 << pos), p));
                        state.project(q, false);
                    }
                }
                pos += 1;
            }
        }
        dist
    }
}

impl SimBackend for StabilizerState {
    const NAME: &'static str = "stabilizer";

    fn zero(num_qubits: usize) -> Result<Self, SimError> {
        StabilizerState::zero(num_qubits)
    }

    fn resident_bytes(&self) -> usize {
        std::mem::size_of::<Self>()
            + (self.xs.capacity() + self.zs.capacity()) * std::mem::size_of::<u64>()
            + self.phase.capacity() * std::mem::size_of::<bool>()
    }

    fn num_qubits(&self) -> usize {
        self.n
    }

    fn copy_from(&mut self, source: &Self) {
        self.n = source.n;
        self.words = source.words;
        self.xs.clone_from(&source.xs);
        self.zs.clone_from(&source.zs);
        self.phase.clone_from(&source.phase);
        self.gate_ops = source.gate_ops;
    }

    fn apply_op(&mut self, op: &SimOp) {
        let clifford = op.clifford().unwrap_or_else(|| {
            panic!(
                "stabilizer backend cannot apply non-Clifford op on target {} \
                 (compile-time classification found no CliffordOp); \
                 route this program to the statevector backend",
                op.target()
            )
        });
        self.apply_clifford(clifford);
    }

    fn apply_pauli(&mut self, q: usize, p: Pauli) {
        match p {
            Pauli::I => {}
            Pauli::X => self.x(q),
            Pauli::Y => self.y(q),
            Pauli::Z => self.z(q),
        }
    }

    fn prob_one(&self, q: usize) -> f64 {
        StabilizerState::prob_one(self, q)
    }

    fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        StabilizerState::measure_qubit(self, q, rng)
    }

    fn sample_each<'r, R: Rng + ?Sized + 'r>(
        &self,
        qubits: &[usize],
        rngs: impl IntoIterator<Item = &'r mut R>,
    ) -> Vec<u64> {
        readout::sample_each(self, qubits, rngs)
    }

    fn outcome_distribution(&self, qubits: &[usize]) -> HashMap<u64, f64> {
        StabilizerState::outcome_distribution(self, qubits)
    }
}

impl Collapse for StabilizerState {
    /// Random (a stabilizer anticommutes with `Z_q`): one draw against
    /// `0.5`. Deterministic: the sign of the stabilizer product.
    fn rule(&self, q: usize) -> Rule {
        self.check_qubit(q);
        match self.random_pivot(q) {
            Some(_) => Rule::Draw(0.5),
            None => Rule::Fixed(self.deterministic_outcome(q)),
        }
    }

    /// A deterministic outcome leaves the tableau as it is.
    fn project(&mut self, q: usize, bit: bool) {
        match self.random_pivot(q) {
            Some(pivot) => self.collapse(pivot, q, bit),
            None => debug_assert_eq!(
                bit,
                self.deterministic_outcome(q),
                "projection of qubit {q} onto its impossible outcome"
            ),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::state::State;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Apply the same Clifford op to a dense state, for cross-checks.
    fn apply_dense(state: &mut State, op: &CliffordOp) {
        match *op {
            CliffordOp::Gate1 { gate, target } => {
                let m = match gate {
                    CliffordGate1::H => gates::h(),
                    CliffordGate1::S => gates::s(),
                    CliffordGate1::Sdg => gates::sdg(),
                    CliffordGate1::X => gates::x(),
                    CliffordGate1::Y => gates::y(),
                    CliffordGate1::Z => gates::z(),
                };
                state.apply_1q(target, &m);
            }
            CliffordOp::Cx { control, target } => {
                state.apply_controlled_1q(&[control], target, &gates::x());
            }
            CliffordOp::Cy { control, target } => {
                state.apply_controlled_1q(&[control], target, &gates::y());
            }
            CliffordOp::Cz { control, target } => {
                state.apply_controlled_1q(&[control], target, &gates::z());
            }
            CliffordOp::Swap { a, b } => state.swap(a, b),
        }
    }

    /// A deterministic pseudo-random Clifford circuit.
    fn random_ops(n: usize, len: usize, seed: u64) -> Vec<CliffordOp> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let target = rng.gen_range(0..n);
                match rng.gen_range(0..10u32) {
                    0 => CliffordOp::Gate1 {
                        gate: CliffordGate1::H,
                        target,
                    },
                    1 => CliffordOp::Gate1 {
                        gate: CliffordGate1::S,
                        target,
                    },
                    2 => CliffordOp::Gate1 {
                        gate: CliffordGate1::Sdg,
                        target,
                    },
                    3 => CliffordOp::Gate1 {
                        gate: CliffordGate1::X,
                        target,
                    },
                    4 => CliffordOp::Gate1 {
                        gate: CliffordGate1::Y,
                        target,
                    },
                    5 => CliffordOp::Gate1 {
                        gate: CliffordGate1::Z,
                        target,
                    },
                    kind => {
                        let mut other = rng.gen_range(0..n - 1);
                        if other >= target {
                            other += 1;
                        }
                        match kind {
                            6 => CliffordOp::Cx {
                                control: other,
                                target,
                            },
                            7 => CliffordOp::Cy {
                                control: other,
                                target,
                            },
                            8 => CliffordOp::Cz {
                                control: other,
                                target,
                            },
                            _ => CliffordOp::Swap {
                                a: other,
                                b: target,
                            },
                        }
                    }
                }
            })
            .collect()
    }

    fn dists_match(a: &HashMap<u64, f64>, b: &HashMap<u64, f64>, tol: f64) -> bool {
        let keys: std::collections::HashSet<u64> = a.keys().chain(b.keys()).copied().collect();
        keys.into_iter().all(|k| {
            (a.get(&k).copied().unwrap_or(0.0) - b.get(&k).copied().unwrap_or(0.0)).abs() <= tol
        })
    }

    #[test]
    fn zero_state_guards_and_shape() {
        assert!(StabilizerState::zero(0).is_err());
        assert!(StabilizerState::zero(MAX_STABILIZER_QUBITS + 1).is_err());
        let s = StabilizerState::zero(3).unwrap();
        assert_eq!(s.num_qubits(), 3);
        for q in 0..3 {
            assert_eq!(s.prob_one(q), 0.0);
        }
    }

    #[test]
    fn x_flips_and_h_randomizes() {
        let mut s = StabilizerState::zero(2).unwrap();
        s.x(0);
        assert_eq!(s.prob_one(0), 1.0);
        assert_eq!(s.prob_one(1), 0.0);
        s.h(1);
        assert_eq!(s.prob_one(1), 0.5);
        // HH = I.
        s.h(1);
        assert_eq!(s.prob_one(1), 0.0);
    }

    #[test]
    fn ghz_distribution_is_two_point() {
        let mut s = StabilizerState::zero(5).unwrap();
        s.h(0);
        for q in 1..5 {
            s.cx(q - 1, q);
        }
        let dist = s.outcome_distribution(&[0, 1, 2, 3, 4]);
        assert_eq!(dist.len(), 2);
        assert_eq!(dist[&0b00000], 0.5);
        assert_eq!(dist[&0b11111], 0.5);
    }

    #[test]
    fn bell_measurement_collapses_partner() {
        let mut rng = StdRng::seed_from_u64(11);
        let mut seen = [false; 2];
        for _ in 0..40 {
            let mut s = StabilizerState::zero(2).unwrap();
            s.h(0);
            s.cx(0, 1);
            let a = s.measure_qubit(0, &mut rng);
            // After collapse the partner is deterministic and equal.
            assert_eq!(s.prob_one(1), f64::from(a));
            assert_eq!(s.measure_qubit(1, &mut rng), a);
            seen[a as usize] = true;
        }
        assert!(seen[0] && seen[1], "both outcomes should occur");
    }

    #[test]
    fn repeated_measurement_is_stable() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = StabilizerState::zero(3).unwrap();
        s.h(0);
        s.cx(0, 1);
        s.s(1);
        let first = s.measure_qubit(0, &mut rng);
        for _ in 0..5 {
            assert_eq!(s.measure_qubit(0, &mut rng), first);
        }
    }

    #[test]
    fn phase_gates_are_invisible_in_z_but_not_after_h() {
        // S|+⟩ = |+i⟩: still uniform in Z; HS|+⟩ measures deterministically
        // only after the full S·S = Z: H S S |+⟩ = H Z |+⟩ = H|−⟩ = |1⟩.
        let mut s = StabilizerState::zero(1).unwrap();
        s.h(0);
        s.s(0);
        assert_eq!(s.prob_one(0), 0.5);
        s.s(0);
        s.h(0);
        assert_eq!(s.prob_one(0), 1.0);
        // And S† undoes S.
        let mut t = StabilizerState::zero(1).unwrap();
        t.h(0);
        t.s(0);
        t.sdg(0);
        t.h(0);
        assert_eq!(t.prob_one(0), 0.0);
    }

    #[test]
    fn random_circuits_match_dense_distributions() {
        for (n, len, seed) in [
            (2, 24, 1u64),
            (3, 40, 2),
            (4, 60, 3),
            (5, 80, 4),
            (6, 120, 5),
        ] {
            let ops = random_ops(n, len, seed);
            let mut tableau = StabilizerState::zero(n).unwrap();
            let mut dense = State::zero(n);
            for op in &ops {
                tableau.apply_clifford(op);
                apply_dense(&mut dense, op);
            }
            let qubits: Vec<usize> = (0..n).collect();
            let td = tableau.outcome_distribution(&qubits);
            let dd = SimBackend::outcome_distribution(&dense, &qubits);
            assert!(
                dists_match(&td, &dd, 1e-9),
                "n={n} seed={seed}: tableau {td:?} vs dense {dd:?}"
            );
            // Marginals of a random subset agree too.
            let sub: Vec<usize> = (0..n).step_by(2).collect();
            assert!(dists_match(
                &tableau.outcome_distribution(&sub),
                &SimBackend::outcome_distribution(&dense, &sub),
                1e-9
            ));
            // prob_one agrees on every qubit.
            for q in 0..n {
                assert!(
                    (tableau.prob_one(q) - dense.prob_one(q)).abs() < 1e-9,
                    "n={n} seed={seed} q={q}"
                );
            }
        }
    }

    #[test]
    fn sampling_follows_the_exact_distribution() {
        let mut s = StabilizerState::zero(3).unwrap();
        s.h(0);
        s.cx(0, 1);
        s.x(2);
        let mut rng = StdRng::seed_from_u64(9);
        let mut counts: HashMap<u64, u32> = HashMap::new();
        let shots = 4000;
        for _ in 0..shots {
            *counts
                .entry(s.sample_once(&[0, 1, 2], &mut rng))
                .or_insert(0) += 1;
        }
        // Support: {100, 111} (qubit 2 always 1), roughly even.
        assert_eq!(counts.len(), 2);
        for key in [0b100u64, 0b111] {
            let c = counts[&key];
            assert!(
                (f64::from(c) - 2000.0).abs() < 250.0,
                "count {c} for {key:#b}"
            );
        }
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let mut s = StabilizerState::zero(4).unwrap();
        s.h(0);
        s.cx(0, 2);
        s.cz(1, 3);
        s.y(1);
        let draw = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (0..64)
                .map(|_| s.sample_once(&[0, 1, 2, 3], &mut rng))
                .collect::<Vec<_>>()
        };
        assert_eq!(draw(5), draw(5));
        assert_ne!(draw(5), draw(6));
    }

    #[test]
    fn gate_ops_counts_each_clifford_once() {
        let mut s = StabilizerState::zero(3).unwrap();
        s.h(0);
        s.cz(0, 1);
        s.swap(1, 2);
        s.swap(2, 2); // no-op
        assert_eq!(s.gate_ops(), 3);
        s.reset_gate_ops();
        assert_eq!(s.gate_ops(), 0);
    }

    #[test]
    fn hundred_qubit_ghz_is_cheap() {
        let mut s = StabilizerState::zero(100).unwrap();
        s.h(0);
        for q in 1..100 {
            s.cx(q - 1, q);
        }
        let dist = s.outcome_distribution(&[0, 50, 99]);
        assert_eq!(dist.len(), 2);
        assert_eq!(dist[&0b000], 0.5);
        assert_eq!(dist[&0b111], 0.5);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_qubit_panics() {
        StabilizerState::zero(2).unwrap().h(2);
    }

    #[test]
    #[should_panic(expected = "non-Clifford")]
    fn non_clifford_op_panics() {
        use crate::backend::{KernelOp, SimOp};
        use crate::Complex;
        let mut s = StabilizerState::zero(1).unwrap();
        let t_gate = SimOp::new(
            vec![],
            0,
            KernelOp::Diagonal {
                d0: Complex::ONE,
                d1: Complex::cis(std::f64::consts::FRAC_PI_4),
            },
        );
        s.apply_op(&t_gate);
    }
}
