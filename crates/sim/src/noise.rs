//! Stochastic noise channels (quantum-trajectory method).
//!
//! The paper's ensembles come from an ideal simulator; on real NISQ
//! hardware every gate and measurement is noisy, and statistical
//! assertions double as cheap noise detectors. This module provides
//! noise channels applied stochastically per trajectory: each ensemble
//! shot becomes one trajectory through the noisy circuit, so the
//! ensemble's outcome distribution follows the corresponding
//! density-matrix channel without ever representing mixed states.
//!
//! Two channel families share one [`NoiseChannel`] type:
//!
//! * **Pauli channels** ([`BitFlip`](NoiseChannel::BitFlip),
//!   [`PhaseFlip`](NoiseChannel::PhaseFlip),
//!   [`Depolarizing`](NoiseChannel::Depolarizing)) — the branch
//!   distribution is *state-independent*, so a shot's complete fault
//!   pattern can be presampled with no simulator in sight
//!   ([`NoiseChannel::sample_fault`]). This is what powers the
//!   trajectory-tree ensemble engine and lets Pauli noise replay on the
//!   stabilizer/sparse backends (Pauli conjugation is Clifford).
//! * **Kraus channels** ([`AmplitudeDamping`](NoiseChannel::AmplitudeDamping),
//!   [`PhaseDamping`](NoiseChannel::PhaseDamping), general
//!   [`Kraus`](NoiseChannel::Kraus)) — a trajectory step computes the
//!   branch norms `pᵢ = ‖Kᵢ|ψ⟩‖²` **on the dense state**, draws a
//!   branch from that norm-dependent distribution, and applies
//!   `Kᵢ/√pᵢ` ([`State::apply_kraus`](crate::State::apply_kraus)).
//!   Because the distribution depends on `|ψ⟩`, these channels cannot
//!   be presampled, cannot be deduplicated by fault pattern, and cannot
//!   run on the stabilizer or sparse backends — the runner routes them
//!   to the dense per-shot path.

use rand::Rng;

use crate::backend::SimBackend;
use crate::error::SimError;
use crate::gates::Matrix2;
use crate::state::Pauli;

/// Maximum number of Kraus operators in a [`KrausSet`]. Any
/// single-qubit channel admits a Kraus representation with at most
/// `d² = 4` operators, so the cap loses no generality while keeping
/// [`NoiseChannel`] a flat `Copy` value (no heap indirection in the
/// per-gate noise hot loop).
pub const MAX_KRAUS_OPS: usize = 4;

/// Completeness tolerance for CPTP validation: `Σ KᵢᵀKᵢ` must match the
/// identity entrywise within this bound.
pub const CPTP_TOL: f64 = 1e-12;

/// A validated set of single-qubit Kraus operators `{Kᵢ}` describing a
/// CPTP channel `ρ → Σᵢ KᵢρKᵢ†`.
///
/// Construction ([`KrausSet::new`], or [`NoiseChannel::kraus`])
/// enforces the completeness relation `Σᵢ Kᵢ†Kᵢ = I` within
/// [`CPTP_TOL`] — complete positivity is automatic for any operator-sum
/// form, so completeness is exactly the trace-preservation condition.
/// Storage is a fixed inline array of [`MAX_KRAUS_OPS`] matrices
/// (unused slots zeroed), which keeps the whole noise model `Copy`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KrausSet {
    ops: [Matrix2; MAX_KRAUS_OPS],
    len: u8,
}

impl KrausSet {
    /// Validate and pack a Kraus-operator set.
    ///
    /// # Errors
    ///
    /// [`SimError::NotCptp`] when the set is empty, has more than
    /// [`MAX_KRAUS_OPS`] operators, contains a non-finite entry, or
    /// violates completeness (`Σ Kᵢ†Kᵢ ≠ I` beyond [`CPTP_TOL`]).
    pub fn new(ops: &[Matrix2]) -> Result<Self, SimError> {
        if ops.is_empty() || ops.len() > MAX_KRAUS_OPS {
            return Err(SimError::NotCptp(format!(
                "{} Kraus operators; a single-qubit channel needs 1..={MAX_KRAUS_OPS}",
                ops.len()
            )));
        }
        for (i, k) in ops.iter().enumerate() {
            if k.0
                .iter()
                .flatten()
                .any(|z| !z.re.is_finite() || !z.im.is_finite())
            {
                return Err(SimError::NotCptp(format!(
                    "Kraus operator {i} has a non-finite entry"
                )));
            }
        }
        let mut completeness = Matrix2([[crate::Complex::ZERO; 2]; 2]);
        for k in ops {
            let kk = k.dagger().mul(k);
            for r in 0..2 {
                for c in 0..2 {
                    completeness.0[r][c] += kk.0[r][c];
                }
            }
        }
        let deviation = completeness
            .0
            .iter()
            .flatten()
            .zip(Matrix2::identity().0.iter().flatten())
            .map(|(got, want)| (*got - *want).abs())
            .fold(0.0f64, f64::max);
        if deviation > CPTP_TOL {
            return Err(SimError::NotCptp(format!(
                "completeness violated: max |Σ Kᵢ†Kᵢ − I| = {deviation:.3e} > {CPTP_TOL:.0e}"
            )));
        }
        let mut packed = [Matrix2([[crate::Complex::ZERO; 2]; 2]); MAX_KRAUS_OPS];
        packed[..ops.len()].copy_from_slice(ops);
        Ok(Self {
            ops: packed,
            len: ops.len() as u8,
        })
    }

    /// The live operators (the zero-padded tail is not exposed).
    #[must_use]
    pub fn ops(&self) -> &[Matrix2] {
        &self.ops[..self.len as usize]
    }

    /// Number of Kraus operators in the set (1..=[`MAX_KRAUS_OPS`]).
    #[must_use]
    pub fn num_ops(&self) -> usize {
        self.len as usize
    }
}

/// The amplitude-damping Kraus pair for decay rate `γ ∈ [0, 1]`.
fn amplitude_damping_ops(gamma: f64) -> [Matrix2; 2] {
    let c = crate::Complex::real;
    [
        Matrix2([[c(1.0), c(0.0)], [c(0.0), c((1.0 - gamma).max(0.0).sqrt())]]),
        Matrix2([[c(0.0), c(gamma.sqrt())], [c(0.0), c(0.0)]]),
    ]
}

/// The phase-damping Kraus pair for dephasing rate `λ ∈ [0, 1]`.
fn phase_damping_ops(lambda: f64) -> [Matrix2; 2] {
    let c = crate::Complex::real;
    [
        Matrix2([
            [c(1.0), c(0.0)],
            [c(0.0), c((1.0 - lambda).max(0.0).sqrt())],
        ]),
        Matrix2([[c(0.0), c(0.0)], [c(0.0), c(lambda.sqrt())]]),
    ]
}

fn check_rate(name: &str, rate: f64) -> Result<(), SimError> {
    if !(0.0..=1.0).contains(&rate) {
        return Err(SimError::NotCptp(format!(
            "{name} rate {rate} outside [0, 1]"
        )));
    }
    Ok(())
}

/// A single-qubit noise channel, applied after each gate to every qubit
/// the gate touched.
// The inline Kraus array dwarfs the f64 variants, but it is what keeps
// NoiseChannel (and the whole EnsembleConfig plumbing above it) Copy;
// hot paths pass the channel by reference.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum NoiseChannel {
    /// Apply X with the given probability.
    BitFlip(f64),
    /// Apply Z with the given probability.
    PhaseFlip(f64),
    /// With the given probability, apply X, Y, or Z uniformly at random.
    Depolarizing(f64),
    /// Amplitude damping (energy relaxation, the T1 process): with the
    /// state-dependent branch probability `γ·P(|1⟩)` the qubit decays
    /// to `|0⟩`; otherwise the surviving `|1⟩` amplitude shrinks by
    /// `√(1−γ)`. Prefer [`NoiseChannel::amplitude_damping`], which
    /// validates `γ ∈ [0, 1]`.
    AmplitudeDamping(f64),
    /// Phase damping (pure dephasing, the T2 process): coherences decay
    /// by `√(1−λ)` while populations are untouched. Prefer
    /// [`NoiseChannel::phase_damping`], which validates `λ ∈ [0, 1]`.
    PhaseDamping(f64),
    /// A general single-qubit channel given by an explicit, validated
    /// Kraus-operator set (see [`KrausSet`]); built via
    /// [`NoiseChannel::kraus`].
    Kraus(KrausSet),
}

impl NoiseChannel {
    /// Amplitude damping with decay rate `γ`.
    ///
    /// # Errors
    ///
    /// [`SimError::NotCptp`] unless `γ ∈ [0, 1]`.
    pub fn amplitude_damping(gamma: f64) -> Result<Self, SimError> {
        check_rate("amplitude-damping", gamma)?;
        Ok(NoiseChannel::AmplitudeDamping(gamma))
    }

    /// Phase damping with dephasing rate `λ`.
    ///
    /// # Errors
    ///
    /// [`SimError::NotCptp`] unless `λ ∈ [0, 1]`.
    pub fn phase_damping(lambda: f64) -> Result<Self, SimError> {
        check_rate("phase-damping", lambda)?;
        Ok(NoiseChannel::PhaseDamping(lambda))
    }

    /// A general channel from an explicit Kraus-operator set,
    /// CPTP-validated at construction (see [`KrausSet::new`]).
    ///
    /// # Errors
    ///
    /// [`SimError::NotCptp`] for an invalid set.
    pub fn kraus(ops: Vec<Matrix2>) -> Result<Self, SimError> {
        Ok(NoiseChannel::Kraus(KrausSet::new(&ops)?))
    }

    /// Combined T1/T2 decay per gate: amplitude damping at rate `γ`
    /// composed with pure dephasing at rate `λ` (the zero-temperature
    /// thermal-relaxation channel). The composition compresses to three
    /// Kraus operators; exactly-zero operators (at `γ = 0` or `λ = 0`)
    /// are dropped, so `thermal_relaxation(γ, 0)` is bit-identical to
    /// plain amplitude damping and `(0, 0)` is the deterministic
    /// identity set.
    ///
    /// # Errors
    ///
    /// [`SimError::NotCptp`] unless both rates are in `[0, 1]`.
    pub fn thermal_relaxation(gamma: f64, lambda: f64) -> Result<Self, SimError> {
        check_rate("amplitude-damping", gamma)?;
        check_rate("phase-damping", lambda)?;
        let c = crate::Complex::real;
        let survive = ((1.0 - gamma) * (1.0 - lambda)).sqrt();
        let mut ops = vec![Matrix2([[c(1.0), c(0.0)], [c(0.0), c(survive)]])];
        if gamma > 0.0 {
            ops.push(Matrix2([[c(0.0), c(gamma.sqrt())], [c(0.0), c(0.0)]]));
        }
        if lambda > 0.0 {
            ops.push(Matrix2([
                [c(0.0), c(0.0)],
                [c(0.0), c((lambda * (1.0 - gamma)).sqrt())],
            ]));
        }
        Self::kraus(ops)
    }

    /// The channel's error-rate parameter: the firing probability for
    /// Pauli channels, `γ`/`λ` for the damping channels. A general
    /// [`Kraus`](NoiseChannel::Kraus) set has no single rate and
    /// conservatively reports `1.0` (always active).
    #[must_use]
    pub fn probability(&self) -> f64 {
        match *self {
            NoiseChannel::BitFlip(p)
            | NoiseChannel::PhaseFlip(p)
            | NoiseChannel::Depolarizing(p)
            | NoiseChannel::AmplitudeDamping(p)
            | NoiseChannel::PhaseDamping(p) => p,
            NoiseChannel::Kraus(_) => 1.0,
        }
    }

    /// `true` for the stochastic-Pauli channels, whose branch
    /// distribution is state-independent. Pauli channels presample
    /// ([`NoiseChannel::sample_fault`]), deduplicate in the trajectory
    /// tree, and replay on every backend; non-Pauli (Kraus) channels
    /// unravel per shot on the dense backend only.
    #[must_use]
    pub fn is_pauli(&self) -> bool {
        matches!(
            self,
            NoiseChannel::BitFlip(_) | NoiseChannel::PhaseFlip(_) | NoiseChannel::Depolarizing(_)
        )
    }

    /// The channel's Kraus representation, for every variant — the
    /// operator-sum form `ρ → Σᵢ KᵢρKᵢ†` that exact density-matrix
    /// oracles enumerate. Pauli channels return their weighted-Pauli
    /// form (e.g. `{√(1−p)·I, √p·X}`); rates are clamped to `[0, 1]`.
    #[must_use]
    pub fn kraus_operators(&self) -> Vec<Matrix2> {
        let clamped = |p: f64| p.clamp(0.0, 1.0);
        match self {
            NoiseChannel::BitFlip(p) => {
                let p = clamped(*p);
                vec![
                    Matrix2::identity().scale((1.0 - p).sqrt()),
                    crate::gates::x().scale(p.sqrt()),
                ]
            }
            NoiseChannel::PhaseFlip(p) => {
                let p = clamped(*p);
                vec![
                    Matrix2::identity().scale((1.0 - p).sqrt()),
                    crate::gates::z().scale(p.sqrt()),
                ]
            }
            NoiseChannel::Depolarizing(p) => {
                let p = clamped(*p);
                let third = (p / 3.0).sqrt();
                vec![
                    Matrix2::identity().scale((1.0 - p).sqrt()),
                    crate::gates::x().scale(third),
                    crate::gates::y().scale(third),
                    crate::gates::z().scale(third),
                ]
            }
            NoiseChannel::AmplitudeDamping(g) => amplitude_damping_ops(clamped(*g)).to_vec(),
            NoiseChannel::PhaseDamping(l) => phase_damping_ops(clamped(*l)).to_vec(),
            NoiseChannel::Kraus(set) => set.ops().to_vec(),
        }
    }

    /// Sample the channel once on qubit `q` of a [`SimBackend`].
    ///
    /// Pauli channels work on every backend (Pauli conjugation is
    /// Clifford) and consume exactly [`NoiseChannel::sample_fault`]'s
    /// stream — this method *is* `sample_fault` plus the state update,
    /// so a caller that presamples the fault stream and a caller that
    /// applies it interleaved read identical stream positions.
    ///
    /// Kraus channels route through [`SimBackend::apply_kraus`] (dense
    /// only — other backends panic; the runner routes Kraus sessions to
    /// the statevector) with this **draw contract**: one uniform per
    /// potentially-branching site — i.e. whenever the channel has ≥ 2
    /// Kraus operators — drawn before any state work; a damping channel
    /// at rate `≤ 0` and a single-operator set short-circuit and draw
    /// **nothing** (`AmplitudeDamping(0)`/`PhaseDamping(0)` are exact
    /// no-ops, bit-identical to a noiseless run).
    pub fn apply<B: SimBackend, R: Rng + ?Sized>(&self, backend: &mut B, q: usize, rng: &mut R) {
        match self {
            NoiseChannel::BitFlip(_)
            | NoiseChannel::PhaseFlip(_)
            | NoiseChannel::Depolarizing(_) => {
                if let Some(p) = self.sample_fault(rng) {
                    backend.apply_pauli(q, p);
                }
            }
            NoiseChannel::AmplitudeDamping(g) => {
                if *g > 0.0 {
                    backend.apply_kraus(q, &amplitude_damping_ops(g.min(1.0)), rng);
                }
            }
            NoiseChannel::PhaseDamping(l) => {
                if *l > 0.0 {
                    backend.apply_kraus(q, &phase_damping_ops(l.min(1.0)), rng);
                }
            }
            NoiseChannel::Kraus(set) => {
                backend.apply_kraus(q, set.ops(), rng);
            }
        }
    }

    /// Draw one firing decision from a **Pauli** channel without
    /// touching any state: `Some(pauli)` when the channel fires, `None`
    /// otherwise.
    ///
    /// This is the presampling primitive behind the trajectory-tree
    /// ensemble engine: a shot's complete fault pattern can be drawn up
    /// front (cheaply, with no simulator in sight) and the state work
    /// deferred, deduplicated, and prefix-shared. The draw order is the
    /// **determinism contract** every noisy path shares:
    ///
    /// 1. one uniform for the fire/no-fire decision — *skipped
    ///    entirely* when the channel probability is `≤ 0`;
    /// 2. one `gen_range(0..3)` for the Pauli choice, drawn **only**
    ///    by a firing depolarizing channel.
    ///
    /// [`NoiseChannel::apply`] delegates here, so the two can never
    /// drift apart.
    ///
    /// # Panics
    ///
    /// Panics for Kraus channels
    /// ([`AmplitudeDamping`](NoiseChannel::AmplitudeDamping),
    /// [`PhaseDamping`](NoiseChannel::PhaseDamping),
    /// [`Kraus`](NoiseChannel::Kraus)): their branch probabilities
    /// depend on the state, so a fault pattern cannot exist independent
    /// of the simulator. Callers gate on [`NoiseChannel::is_pauli`].
    pub fn sample_fault<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<Pauli> {
        assert!(
            self.is_pauli(),
            "{self:?} branches on state-dependent norms; Kraus channels cannot \
             be presampled — unravel them per shot on the dense backend"
        );
        let p = self.probability();
        if p <= 0.0 || rng.gen::<f64>() >= p {
            return None;
        }
        Some(match self {
            NoiseChannel::BitFlip(_) => Pauli::X,
            NoiseChannel::PhaseFlip(_) => Pauli::Z,
            NoiseChannel::Depolarizing(_) => match rng.gen_range(0..3) {
                0 => Pauli::X,
                1 => Pauli::Y,
                _ => Pauli::Z,
            },
            _ => unreachable!("is_pauli checked above"),
        })
    }
}

/// Asymmetric classical readout confusion: a measured bit is reported
/// flipped with a probability that depends on its *true* value, the
/// `P(read 1 | true 0)` / `P(read 0 | true 1)` confusion matrix of real
/// readout chains (excited states decay during readout, so `p10` is
/// typically the larger rate).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ReadoutError {
    /// Probability of reading 1 when the true bit is 0.
    pub p01: f64,
    /// Probability of reading 0 when the true bit is 1.
    pub p10: f64,
}

impl ReadoutError {
    /// The classic symmetric flip: both directions at rate `p`.
    #[must_use]
    pub fn symmetric(p: f64) -> Self {
        Self { p01: p, p10: p }
    }

    /// An explicit confusion matrix.
    #[must_use]
    pub fn asymmetric(p01: f64, p10: f64) -> Self {
        Self { p01, p10 }
    }

    /// `true` when either direction can misread.
    #[must_use]
    pub fn is_lossy(&self) -> bool {
        self.p01 > 0.0 || self.p10 > 0.0
    }
}

/// A whole-circuit noise model: per-gate channel noise plus classical
/// measurement readout error.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct NoiseModel {
    /// Channel applied to each touched qubit after every gate, if any.
    pub gate_noise: Option<NoiseChannel>,
    /// Classical readout confusion applied to each measured bit.
    pub readout: ReadoutError,
}

impl NoiseModel {
    /// The ideal, noiseless model.
    #[must_use]
    pub fn noiseless() -> Self {
        Self::default()
    }

    /// Uniform depolarizing noise after every gate.
    #[must_use]
    pub fn depolarizing(p: f64) -> Self {
        Self {
            gate_noise: Some(NoiseChannel::Depolarizing(p)),
            readout: ReadoutError::default(),
        }
    }

    /// Pure (symmetric) readout error.
    #[must_use]
    pub fn readout_only(p: f64) -> Self {
        Self {
            gate_noise: None,
            readout: ReadoutError::symmetric(p),
        }
    }

    /// Builder-style symmetric readout error (`p01 = p10 = p`).
    #[must_use]
    pub fn with_readout_flip(mut self, p: f64) -> Self {
        self.readout = ReadoutError::symmetric(p);
        self
    }

    /// Builder-style asymmetric readout confusion.
    #[must_use]
    pub fn with_readout_confusion(mut self, p01: f64, p10: f64) -> Self {
        self.readout = ReadoutError::asymmetric(p01, p10);
        self
    }

    /// Builder-style readout override from an existing [`ReadoutError`].
    #[must_use]
    pub fn with_readout(mut self, readout: ReadoutError) -> Self {
        self.readout = readout;
        self
    }

    /// `true` when the model introduces no errors at all.
    #[must_use]
    pub fn is_noiseless(&self) -> bool {
        self.gate_noise
            .as_ref()
            .is_none_or(|c| c.probability() <= 0.0)
            && !self.readout.is_lossy()
    }

    /// `true` when the gate channel (if any) is a stochastic Pauli —
    /// the condition for presampling, trajectory-tree deduplication,
    /// and stabilizer/sparse noisy replay. A Kraus gate channel makes
    /// this `false` and confines the session to the dense per-shot
    /// path.
    #[must_use]
    pub fn gate_noise_is_pauli(&self) -> bool {
        self.gate_noise.as_ref().is_none_or(NoiseChannel::is_pauli)
    }

    /// Apply classical readout error to a measured outcome over
    /// `num_bits` bits: each bit flips with the confusion rate for its
    /// *true* value (`p01` for a true 0, `p10` for a true 1).
    ///
    /// **Determinism-contract note.** When the readout is lossless
    /// (both rates `≤ 0`) this returns immediately and draws *nothing*.
    /// A lossy readout draws exactly **one uniform per measured bit**,
    /// regardless of the bit's value or which direction is lossy — the
    /// draw count is outcome-independent, so the stream position after
    /// this call depends only on `num_bits`. That early exit is safe to
    /// rely on (and the trajectory engines do): the readout draws are
    /// the **last** draws of each shot's RNG stream, after the
    /// gate-noise and measurement draws, so skipping them can never
    /// shift the stream position of any other draw. With a symmetric
    /// confusion (`p01 = p10`) the stream and the outcomes are
    /// bit-identical to the historic single-rate `readout_flip` model.
    pub fn corrupt_readout<R: Rng + ?Sized>(
        &self,
        outcome: u64,
        num_bits: usize,
        rng: &mut R,
    ) -> u64 {
        if !self.readout.is_lossy() {
            return outcome;
        }
        let mut corrupted = outcome;
        for bit in 0..num_bits {
            let flip_rate = if outcome >> bit & 1 == 1 {
                self.readout.p10
            } else {
                self.readout.p01
            };
            if rng.gen::<f64>() < flip_rate {
                corrupted ^= 1 << bit;
            }
        }
        corrupted
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::state::State;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn zero_probability_channels_do_nothing() {
        let mut r = rng(1);
        for channel in [
            NoiseChannel::BitFlip(0.0),
            NoiseChannel::PhaseFlip(0.0),
            NoiseChannel::Depolarizing(0.0),
            NoiseChannel::AmplitudeDamping(0.0),
            NoiseChannel::PhaseDamping(0.0),
        ] {
            let mut s = State::zero(2);
            let reference = s.clone();
            for _ in 0..100 {
                channel.apply(&mut s, 0, &mut r);
            }
            assert!(s.approx_eq(&reference, 0.0), "{channel:?} mutated state");
        }
    }

    #[test]
    fn certain_bit_flip_always_flips() {
        let mut r = rng(2);
        let mut s = State::zero(1);
        NoiseChannel::BitFlip(1.0).apply(&mut s, 0, &mut r);
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn bit_flip_rate_matches_probability() {
        let mut r = rng(3);
        let p = 0.3;
        let mut flips = 0u32;
        for _ in 0..2000 {
            let mut s = State::zero(1);
            NoiseChannel::BitFlip(p).apply(&mut s, 0, &mut r);
            if s.probability(1) > 0.5 {
                flips += 1;
            }
        }
        let rate = f64::from(flips) / 2000.0;
        assert!((rate - p).abs() < 0.04, "rate = {rate}");
    }

    #[test]
    fn phase_flip_invisible_on_basis_state_but_not_plus() {
        let mut r = rng(4);
        // On |0⟩ a Z does nothing observable.
        let mut s = State::zero(1);
        NoiseChannel::PhaseFlip(1.0).apply(&mut s, 0, &mut r);
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
        // On |+⟩ it flips to |−⟩.
        let mut s = State::zero(1);
        s.apply_1q(0, &gates::h());
        NoiseChannel::PhaseFlip(1.0).apply(&mut s, 0, &mut r);
        s.apply_1q(0, &gates::h());
        assert!((s.probability(1) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn depolarizing_uses_all_three_paulis() {
        // With p = 1 on |0⟩: X and Y both flip the bit (2/3), Z does
        // not (1/3).
        let mut r = rng(5);
        let mut flipped = 0u32;
        let n = 3000;
        for _ in 0..n {
            let mut s = State::zero(1);
            NoiseChannel::Depolarizing(1.0).apply(&mut s, 0, &mut r);
            if s.probability(1) > 0.5 {
                flipped += 1;
            }
        }
        let rate = f64::from(flipped) / f64::from(n);
        assert!((rate - 2.0 / 3.0).abs() < 0.04, "rate = {rate}");
    }

    #[test]
    fn noise_model_predicates() {
        assert!(NoiseModel::noiseless().is_noiseless());
        assert!(NoiseModel::depolarizing(0.0).is_noiseless());
        assert!(!NoiseModel::depolarizing(0.01).is_noiseless());
        assert!(!NoiseModel::readout_only(0.02).is_noiseless());
        assert_eq!(NoiseChannel::Depolarizing(0.25).probability(), 0.25);
        // Damping at rate 0 is noiseless; any positive rate is not.
        let ad0 = NoiseModel {
            gate_noise: Some(NoiseChannel::AmplitudeDamping(0.0)),
            readout: ReadoutError::default(),
        };
        assert!(ad0.is_noiseless());
        let pd = NoiseModel {
            gate_noise: Some(NoiseChannel::PhaseDamping(0.1)),
            readout: ReadoutError::default(),
        };
        assert!(!pd.is_noiseless());
        // Pauli-only classification drives backend routing.
        assert!(NoiseModel::depolarizing(0.1).gate_noise_is_pauli());
        assert!(NoiseModel::readout_only(0.1).gate_noise_is_pauli());
        assert!(!pd.gate_noise_is_pauli());
        // Asymmetric readout in one direction only is still lossy.
        assert!(!NoiseModel::noiseless()
            .with_readout_confusion(0.0, 0.1)
            .is_noiseless());
    }

    #[test]
    fn kraus_construction_validates_cptp() {
        // The blessed constructors accept exactly [0, 1] rates.
        assert!(NoiseChannel::amplitude_damping(0.0).is_ok());
        assert!(NoiseChannel::amplitude_damping(1.0).is_ok());
        assert!(NoiseChannel::amplitude_damping(-0.1).is_err());
        assert!(NoiseChannel::phase_damping(1.1).is_err());
        assert!(NoiseChannel::thermal_relaxation(0.3, 1.2).is_err());
        // A hand-built CPTP set is accepted…
        let ad = amplitude_damping_ops(0.4).to_vec();
        assert!(NoiseChannel::kraus(ad.clone()).is_ok());
        // …and the same set with one operator rescaled is not.
        let mut broken = ad;
        broken[1] = broken[1].scale(1.1);
        match NoiseChannel::kraus(broken) {
            Err(SimError::NotCptp(why)) => assert!(why.contains("completeness"), "{why}"),
            other => panic!("expected NotCptp, got {other:?}"),
        }
        // Size and finiteness are validated too.
        assert!(NoiseChannel::kraus(Vec::new()).is_err());
        assert!(NoiseChannel::kraus(vec![Matrix2::identity().scale(0.5); 5]).is_err());
        assert!(NoiseChannel::kraus(vec![Matrix2::identity().scale(f64::NAN)]).is_err());
        // Every shipped channel's Kraus form is itself CPTP.
        for channel in [
            NoiseChannel::BitFlip(0.3),
            NoiseChannel::PhaseFlip(0.2),
            NoiseChannel::Depolarizing(0.6),
            NoiseChannel::AmplitudeDamping(0.35),
            NoiseChannel::PhaseDamping(0.8),
        ] {
            assert!(
                KrausSet::new(&channel.kraus_operators()).is_ok(),
                "{channel:?}"
            );
        }
        // Thermal relaxation compresses to ≤ 3 operators and stays CPTP.
        for (g, l) in [(0.0, 0.0), (0.2, 0.0), (0.0, 0.4), (0.15, 0.3), (1.0, 1.0)] {
            let NoiseChannel::Kraus(set) = NoiseChannel::thermal_relaxation(g, l).unwrap() else {
                panic!("thermal relaxation lowers to a Kraus set");
            };
            assert!(set.num_ops() <= 3, "γ={g} λ={l}: {} ops", set.num_ops());
        }
    }

    #[test]
    fn amplitude_damping_decays_excited_state() {
        // On |1⟩ the channel branches: decay to |0⟩ with probability γ,
        // survive (still |1⟩ after renormalization) otherwise.
        let mut r = rng(12);
        let gamma = 0.3;
        let channel = NoiseChannel::AmplitudeDamping(gamma);
        let mut decays = 0u32;
        let n = 4000;
        for _ in 0..n {
            let mut s = State::zero(1);
            s.apply_1q(0, &gates::x());
            channel.apply(&mut s, 0, &mut r);
            let p1 = s.probability(1);
            assert!(p1 < 1e-12 || (p1 - 1.0).abs() < 1e-12, "branch not pure");
            if p1 < 0.5 {
                decays += 1;
            }
        }
        let rate = f64::from(decays) / f64::from(n);
        assert!(
            (rate - gamma).abs() < 0.03,
            "decay rate {rate} vs γ {gamma}"
        );
        // γ = 1 decays |1⟩ deterministically.
        let mut s = State::zero(1);
        s.apply_1q(0, &gates::x());
        NoiseChannel::AmplitudeDamping(1.0).apply(&mut s, 0, &mut r);
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
        // …and |0⟩ is a fixed point at every rate (the non-decay branch
        // renormalizes back to exactly |0⟩).
        let mut s = State::zero(1);
        NoiseChannel::AmplitudeDamping(0.7).apply(&mut s, 0, &mut r);
        assert!((s.probability(0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn phase_damping_dephases_plus_state() {
        // PD(1) on |+⟩: both branches are equally likely and project
        // onto a basis state — full decoherence in one step.
        let mut r = rng(13);
        let mut ones = 0u32;
        let n = 4000;
        for _ in 0..n {
            let mut s = State::zero(1);
            s.apply_1q(0, &gates::h());
            NoiseChannel::PhaseDamping(1.0).apply(&mut s, 0, &mut r);
            let p1 = s.probability(1);
            assert!(
                p1 < 1e-12 || (p1 - 1.0).abs() < 1e-12,
                "branch not projective"
            );
            if p1 > 0.5 {
                ones += 1;
            }
        }
        let rate = f64::from(ones) / f64::from(n);
        assert!((rate - 0.5).abs() < 0.03, "projection rate {rate}");
    }

    #[test]
    fn sample_fault_matches_apply_stream_positions() {
        // Presampling a channel and applying it interleaved must read
        // identical RNG stream positions and produce the same faults.
        for channel in [
            NoiseChannel::BitFlip(0.3),
            NoiseChannel::PhaseFlip(0.3),
            NoiseChannel::Depolarizing(0.4),
            NoiseChannel::Depolarizing(0.0), // p = 0 draws nothing
        ] {
            let mut presample = rng(77);
            let mut interleaved = rng(77);
            for _ in 0..400 {
                let fault = channel.sample_fault(&mut presample);
                let mut s = State::zero(1);
                let reference = s.clone();
                channel.apply(&mut s, 0, &mut interleaved);
                match fault {
                    None => assert!(s.approx_eq(&reference, 0.0)),
                    Some(p) => {
                        let mut expected = State::zero(1);
                        if p != crate::state::Pauli::I {
                            expected.apply_1q(0, &p.matrix());
                        }
                        assert_eq!(s, expected, "{channel:?} fault {p:?}");
                    }
                }
            }
            // Streams stay aligned: the next u64 agrees.
            use rand::RngCore;
            assert_eq!(presample.next_u64(), interleaved.next_u64());
        }
    }

    #[test]
    #[should_panic(expected = "cannot be presampled")]
    fn kraus_channels_refuse_presampling() {
        let mut r = rng(1);
        let _ = NoiseChannel::AmplitudeDamping(0.2).sample_fault(&mut r);
    }

    /// Counts every `next_u64` pulled from the underlying stream, so
    /// tests can pin the *number* of draws, not just their positions.
    struct CountingRng {
        inner: StdRng,
        draws: u64,
    }

    impl CountingRng {
        fn new(seed: u64) -> Self {
            Self {
                inner: rng(seed),
                draws: 0,
            }
        }
    }

    impl rand::RngCore for CountingRng {
        fn next_u64(&mut self) -> u64 {
            self.draws += 1;
            self.inner.next_u64()
        }
    }

    #[test]
    fn channel_draw_counts_are_pinned() {
        // The determinism contract in `sample_fault`'s docs, enforced
        // draw by draw: zero-probability channels consume nothing.
        let mut counter = CountingRng::new(9);
        for channel in [
            NoiseChannel::BitFlip(0.0),
            NoiseChannel::PhaseFlip(0.0),
            NoiseChannel::Depolarizing(0.0),
            NoiseChannel::Depolarizing(-1.0),
        ] {
            for _ in 0..100 {
                assert_eq!(channel.sample_fault(&mut counter), None);
            }
        }
        assert_eq!(counter.draws, 0, "p ≤ 0 must skip the stream entirely");

        // Bernoulli channels: exactly one uniform per sample, firing
        // or not.
        let mut counter = CountingRng::new(9);
        for _ in 0..500 {
            NoiseChannel::BitFlip(0.5).sample_fault(&mut counter);
            NoiseChannel::PhaseFlip(0.5).sample_fault(&mut counter);
        }
        assert_eq!(counter.draws, 1000);

        // Depolarizing: one uniform per sample plus one Pauli-choice
        // draw per *firing* sample — never more, never fewer.
        let channel = NoiseChannel::Depolarizing(0.4);
        let mut counter = CountingRng::new(10);
        let mut fired = 0u64;
        for _ in 0..500 {
            if channel.sample_fault(&mut counter).is_some() {
                fired += 1;
            }
        }
        assert!(0 < fired && fired < 500, "seed must exercise both arms");
        assert_eq!(counter.draws, 500 + fired);

        // And the state-updating path consumes the identical stream:
        // no draw hides in the backend update.
        let mut counter = CountingRng::new(10);
        let mut s = State::zero(1);
        for _ in 0..500 {
            channel.apply(&mut s, 0, &mut counter);
        }
        assert_eq!(counter.draws, 500 + fired);
    }

    #[test]
    fn kraus_draw_counts_are_pinned() {
        // The Kraus-path draw contract: exactly one uniform per
        // potentially-branching site (≥ 2 Kraus operators), regardless
        // of which branch wins or what the state looks like.
        let mut counter = CountingRng::new(21);
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_1q(1, &gates::x());
        for _ in 0..500 {
            NoiseChannel::AmplitudeDamping(0.3).apply(&mut s, 1, &mut counter);
            NoiseChannel::PhaseDamping(0.2).apply(&mut s, 0, &mut counter);
        }
        assert_eq!(counter.draws, 1000, "one uniform per branching site");

        // A three-operator thermal-relaxation set still draws exactly
        // one uniform per site: branch *selection* is a CDF walk over
        // the norms, not one draw per operator.
        let thermal = NoiseChannel::thermal_relaxation(0.15, 0.25).unwrap();
        let mut counter = CountingRng::new(22);
        let mut s = State::zero(1);
        s.apply_1q(0, &gates::h());
        for _ in 0..500 {
            thermal.apply(&mut s, 0, &mut counter);
        }
        assert_eq!(counter.draws, 500);

        // γ = 0 / λ = 0: zero draws AND a bit-identical state — the
        // site short-circuits before any state work.
        let mut counter = CountingRng::new(23);
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_1q(1, &gates::t());
        let reference = s.clone();
        for _ in 0..200 {
            NoiseChannel::AmplitudeDamping(0.0).apply(&mut s, 0, &mut counter);
            NoiseChannel::PhaseDamping(0.0).apply(&mut s, 1, &mut counter);
        }
        assert_eq!(counter.draws, 0, "rate ≤ 0 must skip the stream entirely");
        assert_eq!(s, reference, "rate-0 damping must be a bit-identical no-op");

        // A single-operator Kraus set is deterministic: no draw.
        let single = NoiseChannel::kraus(vec![gates::h()]).unwrap();
        let mut counter = CountingRng::new(24);
        let mut s = State::zero(1);
        for _ in 0..100 {
            single.apply(&mut s, 0, &mut counter);
        }
        assert_eq!(counter.draws, 0, "non-branching sets draw nothing");
    }

    #[test]
    fn zero_readout_flip_draws_nothing() {
        // corrupt_readout with a lossless confusion must not consume
        // the stream: both RNGs agree on the next draw afterwards.
        use rand::RngCore;
        let model = NoiseModel::noiseless();
        let mut with_call = rng(8);
        let mut without_call = rng(8);
        assert_eq!(model.corrupt_readout(0b101, 8, &mut with_call), 0b101);
        assert_eq!(with_call.next_u64(), without_call.next_u64());
    }

    #[test]
    fn readout_corruption_rate() {
        let model = NoiseModel::readout_only(0.5);
        let mut r = rng(6);
        let mut flipped_bits = 0u32;
        let trials = 2000;
        for _ in 0..trials {
            let out = model.corrupt_readout(0, 4, &mut r);
            flipped_bits += out.count_ones();
        }
        let rate = f64::from(flipped_bits) / f64::from(trials * 4);
        assert!((rate - 0.5).abs() < 0.03, "rate = {rate}");
        // Zero flip probability is the identity.
        assert_eq!(
            NoiseModel::noiseless().corrupt_readout(0b1010, 4, &mut r),
            0b1010
        );
    }

    #[test]
    fn asymmetric_readout_flips_by_true_value() {
        // p01 = 1, p10 = 0: every true 0 reads 1, every true 1 is kept.
        let model = NoiseModel::noiseless().with_readout_confusion(1.0, 0.0);
        let mut r = rng(14);
        assert_eq!(model.corrupt_readout(0b0000, 4, &mut r), 0b1111);
        assert_eq!(model.corrupt_readout(0b1111, 4, &mut r), 0b1111);
        assert_eq!(model.corrupt_readout(0b0101, 4, &mut r), 0b1111);
        // The mirror image.
        let model = NoiseModel::noiseless().with_readout_confusion(0.0, 1.0);
        assert_eq!(model.corrupt_readout(0b1111, 4, &mut r), 0b0000);
        assert_eq!(model.corrupt_readout(0b0101, 4, &mut r), 0b0000);
        // One-sided loss still draws one uniform per bit (the count is
        // outcome-independent), pinned via the counting stream.
        let mut counter = CountingRng::new(15);
        let model = NoiseModel::noiseless().with_readout_confusion(0.3, 0.0);
        for _ in 0..100 {
            model.corrupt_readout(0b1111, 4, &mut counter);
        }
        assert_eq!(counter.draws, 400);
        // Statistical check: true 0s flip at p01, true 1s at p10.
        let model = NoiseModel::noiseless().with_readout_confusion(0.2, 0.6);
        let trials = 4000;
        let (mut zeros_flipped, mut ones_flipped) = (0u32, 0u32);
        for _ in 0..trials {
            let out = model.corrupt_readout(0b01, 2, &mut r);
            ones_flipped += u32::from(out & 1 == 0);
            zeros_flipped += u32::from(out >> 1 & 1 == 1);
        }
        let f = f64::from(trials);
        assert!((f64::from(zeros_flipped) / f - 0.2).abs() < 0.03);
        assert!((f64::from(ones_flipped) / f - 0.6).abs() < 0.03);
    }
}
