//! Measurement: ensemble sampling and collapsing mid-circuit measurement.
//!
//! The paper's assertion checks run an *ensemble* of complete program
//! executions, measuring everything at a breakpoint. For that use case the
//! state is computed once and sampled many times without collapse
//! ([`State::sample_uniforms`], one ascending scan for a whole ensemble,
//! behind the dense [`SimBackend::sample_each`](crate::SimBackend::sample_each)).
//! Iterative phase estimation (the chemistry benchmark) additionally
//! needs true mid-circuit collapse
//! ([`measure_qubit`](crate::State::measure_qubit)) with classical
//! feed-forward.

use rand::Rng;

use crate::complex::Complex;
use crate::state::State;

/// Extract the bits of `outcome` at the given qubit positions, packing them
/// so `qubits[0]` becomes bit 0 of the result.
///
/// This converts a full-register measurement outcome into the integer value
/// of a named quantum variable (the paper's register-to-qubit bookkeeping,
/// see its footnote 3).
///
/// ```
/// use qdb_sim::measure::extract_bits;
/// // outcome 0b1101, variable on qubits [2, 3] → bits 1, 1 → 3
/// assert_eq!(extract_bits(0b1101, &[2, 3]), 0b11);
/// // qubit order matters: [3, 2] packs bit 3 first
/// assert_eq!(extract_bits(0b0100, &[3, 2]), 0b10);
/// ```
#[must_use]
pub fn extract_bits(outcome: u64, qubits: &[usize]) -> u64 {
    let mut value = 0u64;
    for (pos, &q) in qubits.iter().enumerate() {
        if outcome & (1 << q) != 0 {
            value |= 1 << pos;
        }
    }
    value
}

/// A reusable sampler over the Born-rule distribution of a [`State`]:
/// the inverse-CDF reference that [`State::sample_uniforms`] is checked
/// against.
///
/// Builds the cumulative distribution once (`O(2ⁿ)`, a `2ⁿ`-entry
/// buffer) and then draws each shot in `O(n)` by binary search. The
/// engine draws through [`State::sample_uniforms`] instead, which maps
/// the same uniforms to the same outcomes with no buffer.
///
/// ```
/// use qdb_sim::{gates, Sampler, State};
/// use rand::{rngs::StdRng, SeedableRng};
///
/// let mut s = State::zero(1);
/// s.apply_1q(0, &gates::h());
/// let sampler = Sampler::new(&s);
/// let mut rng = StdRng::seed_from_u64(7);
/// let shots: Vec<u64> = (0..100).map(|_| sampler.sample(&mut rng)).collect();
/// assert!(shots.iter().any(|&x| x == 0) && shots.iter().any(|&x| x == 1));
/// ```
#[derive(Debug, Clone, Default)]
pub struct Sampler {
    /// cdf[i] = P(outcome ≤ i); last entry forced to 1.0.
    cdf: Vec<f64>,
}

impl Sampler {
    /// Build a sampler from the state's probability vector.
    #[must_use]
    pub fn new(state: &State) -> Self {
        let mut sampler = Self {
            cdf: Vec::with_capacity(state.dim()),
        };
        sampler.rebuild(state);
        sampler
    }

    /// Rebuild this sampler over a (new) state, reusing the CDF
    /// allocation.
    ///
    /// A loop that samples many states of the same size allocates one
    /// buffer up front (`Sampler::default()`) and rebuilds it at each
    /// state, instead of paying a fresh `2ⁿ` allocation per state via
    /// [`Sampler::new`]. The CDF is computed by the same accumulation in
    /// the same order, so the two construction routes sample
    /// identically, bit for bit. A default-constructed sampler must be
    /// rebuilt before use (it has no outcomes).
    pub fn rebuild(&mut self, state: &State) {
        state.probabilities_into(&mut self.cdf);
        let mut acc = 0.0;
        for p in &mut self.cdf {
            acc += *p;
            *p = acc;
        }
        if let Some(last) = self.cdf.last_mut() {
            *last = 1.0;
        }
    }

    /// Draw one full-register outcome (a basis index).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        let u: f64 = rng.gen();
        self.sample_at(u)
    }

    /// The outcome the inverse-CDF transform assigns to the uniform
    /// variate `u ∈ [0, 1)`; [`sample`](Sampler::sample) is exactly
    /// `sample_at(rng.gen())`.
    fn sample_at(&self, u: f64) -> u64 {
        // First index whose CDF value strictly exceeds u.
        match self
            .cdf
            .binary_search_by(|probe| probe.partial_cmp(&u).expect("cdf is finite"))
        {
            Ok(mut i) => {
                // Landed exactly on a CDF value: advance past zero-width bins.
                while i + 1 < self.cdf.len() && self.cdf[i + 1] <= u {
                    i += 1;
                }
                (i + 1).min(self.cdf.len() - 1) as u64
            }
            Err(i) => i as u64,
        }
    }

    /// Draw `shots` outcomes.
    pub fn sample_many<R: Rng + ?Sized>(&self, rng: &mut R, shots: usize) -> Vec<u64> {
        (0..shots).map(|_| self.sample(rng)).collect()
    }
}

impl State {
    /// The basis index the inverse-CDF transform assigns to each uniform
    /// variate of `uniforms` (each in `[0, 1)`), in input order: the
    /// outcomes [`Sampler::sample`] draws when its RNG yields those
    /// uniforms, bit for bit, without the `2ⁿ`-entry CDF.
    ///
    /// The uniforms are visited in ascending order during one scan of
    /// the amplitudes. The scan keeps the running sum `acc += |aᵢ|²`,
    /// the sampler's CDF additions in its order, and gives each uniform
    /// `u` the first index whose `acc` exceeds `u`, the sampler's
    /// selection rule. Uniforms that no index below the last one takes
    /// get the last index, as the sampler's CDF ends at exactly 1.0. The
    /// scan stops once the largest uniform is placed.
    ///
    /// ```
    /// use qdb_sim::{gates, Sampler, State};
    /// use rand::{rngs::StdRng, Rng, SeedableRng};
    ///
    /// let mut s = State::zero(2);
    /// s.apply_1q(0, &gates::h());
    /// let mut rng = StdRng::seed_from_u64(5);
    /// let uniforms: Vec<f64> = (0..64).map(|_| rng.gen()).collect();
    /// let cdf_draws = Sampler::new(&s).sample_many(&mut StdRng::seed_from_u64(5), 64);
    /// assert_eq!(s.sample_uniforms(&uniforms), cdf_draws);
    /// ```
    #[must_use]
    pub fn sample_uniforms(&self, uniforms: &[f64]) -> Vec<u64> {
        let last = self.dim() - 1;
        let mut out = vec![last as u64; uniforms.len()];
        let mut order: Vec<usize> = (0..uniforms.len()).collect();
        order.sort_unstable_by(|&a, &b| uniforms[a].total_cmp(&uniforms[b]));
        let mut pending = order.into_iter();
        let Some(mut next) = pending.next() else {
            return out;
        };
        let mut acc = 0.0;
        for (i, a) in self.amplitudes()[..last].iter().enumerate() {
            acc += a.norm_sqr();
            while acc > uniforms[next] {
                out[next] = i as u64;
                match pending.next() {
                    Some(k) => next = k,
                    None => return out,
                }
            }
        }
        out
    }

    /// Measure qubit `q` in the computational basis, collapsing the state.
    ///
    /// Returns the observed bit. The state is renormalized onto the
    /// observed branch (projective measurement). This is the mid-circuit
    /// measurement primitive required by iterative phase estimation.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        let p1 = self.prob_one(q);
        let bit = u8::from(rng.gen::<f64>() < p1);
        self.project_qubit(q, bit);
        bit
    }

    /// Project qubit `q` onto `bit` and renormalize (post-selection).
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range or the branch has zero probability.
    pub fn project_qubit(&mut self, q: usize, bit: u8) {
        assert!(q < self.num_qubits(), "qubit {q} out of range");
        let mask = 1usize << q;
        let keep_set = bit == 1;
        let mut norm_sqr = 0.0;
        for i in 0..self.dim() {
            if ((i & mask) != 0) == keep_set {
                norm_sqr += self.probability(i);
            }
        }
        assert!(
            norm_sqr > 1e-12,
            "projection onto zero-probability branch (qubit {q} = {bit})"
        );
        let scale = norm_sqr.sqrt().recip();
        let amps = self.amps_mut();
        for (i, a) in amps.iter_mut().enumerate() {
            if ((i & mask) != 0) == keep_set {
                *a = a.scale(scale);
            } else {
                *a = Complex::ZERO;
            }
        }
    }

    /// Measure qubit `q` and then reset it to `|0⟩` (measure-and-reset, as
    /// used to recycle the ancilla in iterative phase estimation).
    ///
    /// Returns the pre-reset measurement outcome.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn measure_and_reset_qubit<R: Rng + ?Sized>(&mut self, q: usize, rng: &mut R) -> u8 {
        let bit = self.measure_qubit(q, rng);
        if bit == 1 {
            self.apply_1q(q, &crate::gates::x());
        }
        bit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::gates;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn rng(seed: u64) -> StdRng {
        StdRng::seed_from_u64(seed)
    }

    #[test]
    fn extract_bits_identity_order() {
        assert_eq!(extract_bits(0b1011, &[0, 1, 2, 3]), 0b1011);
        assert_eq!(extract_bits(0b1011, &[1, 3]), 0b11);
        assert_eq!(extract_bits(0b1011, &[2]), 0);
        assert_eq!(extract_bits(0, &[]), 0);
    }

    #[test]
    fn sampler_on_basis_state_is_deterministic() {
        let s = State::basis(3, 5).unwrap();
        let sampler = Sampler::new(&s);
        let mut r = rng(1);
        for _ in 0..50 {
            assert_eq!(sampler.sample(&mut r), 5);
        }
    }

    #[test]
    fn sampler_uniform_covers_all_outcomes() {
        let mut s = State::zero(3);
        for q in 0..3 {
            s.apply_1q(q, &gates::h());
        }
        let sampler = Sampler::new(&s);
        let mut r = rng(42);
        let shots = sampler.sample_many(&mut r, 4000);
        let mut counts = [0u32; 8];
        for &x in &shots {
            counts[x as usize] += 1;
        }
        for (i, &c) in counts.iter().enumerate() {
            assert!(
                (c as f64 - 500.0).abs() < 120.0,
                "outcome {i} count {c} too far from 500"
            );
        }
    }

    #[test]
    fn sampler_never_emits_zero_probability_outcome() {
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_controlled_1q(&[0], 1, &gates::x());
        let sampler = Sampler::new(&s);
        let mut r = rng(9);
        for _ in 0..2000 {
            let x = sampler.sample(&mut r);
            assert!(x == 0b00 || x == 0b11, "impossible outcome {x:#04b}");
        }
    }

    #[test]
    fn full_register_samples_project_onto_each_qubit() {
        // Bell pair: variable on qubit 1 must equal variable on qubit 0.
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_controlled_1q(&[0], 1, &gates::x());
        let sampler = Sampler::new(&s);
        let mut r = rng(3);
        for _ in 0..200 {
            let full = sampler.sample(&mut r);
            assert_eq!(
                extract_bits(full, &[0]),
                extract_bits(full, &[1]),
                "Bell pair outcomes must agree"
            );
        }
    }

    #[test]
    fn measure_qubit_collapses() {
        let mut r = rng(11);
        for _ in 0..20 {
            let mut s = State::zero(2);
            s.apply_1q(0, &gates::h());
            s.apply_controlled_1q(&[0], 1, &gates::x());
            let bit = s.measure_qubit(0, &mut r);
            // After collapse, both qubits agree deterministically.
            let expected = if bit == 1 { 0b11 } else { 0b00 };
            assert!((s.probability(expected) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn measure_statistics_are_fair() {
        let mut r = rng(5);
        let mut ones = 0;
        for _ in 0..1000 {
            let mut s = State::zero(1);
            s.apply_1q(0, &gates::h());
            ones += u32::from(s.measure_qubit(0, &mut r));
        }
        assert!((ones as f64 - 500.0).abs() < 80.0, "ones = {ones}");
    }

    #[test]
    fn project_qubit_post_selects() {
        let mut s = State::zero(2);
        s.apply_1q(0, &gates::h());
        s.apply_controlled_1q(&[0], 1, &gates::x());
        s.project_qubit(0, 1);
        assert!((s.probability(0b11) - 1.0).abs() < 1e-12);
        assert!((s.norm_sqr() - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "zero-probability")]
    fn project_impossible_branch_panics() {
        let mut s = State::zero(1);
        s.project_qubit(0, 1);
    }

    #[test]
    fn measure_and_reset_returns_outcome_and_clears() {
        let mut r = rng(17);
        for _ in 0..20 {
            let mut s = State::zero(2);
            s.apply_1q(0, &gates::h());
            s.apply_controlled_1q(&[0], 1, &gates::x());
            let bit = s.measure_and_reset_qubit(0, &mut r);
            // Qubit 0 is reset; qubit 1 still carries the outcome.
            assert!(s.prob_one(0) < 1e-12);
            assert!((s.prob_one(1) - f64::from(bit)).abs() < 1e-12);
        }
    }

    #[test]
    fn sample_once_matches_sampler_bit_for_bit() {
        // States covering zero-probability bins, basis states, and
        // dense superpositions: the one-uniform scan of the dense
        // `sample_once`, and the whole-ensemble scan, against the CDF.
        let mut dense = State::zero(4);
        for q in 0..4 {
            dense.apply_1q(q, &gates::h());
            dense.apply_1q(q, &gates::t());
        }
        let mut bell = State::zero(2);
        bell.apply_1q(0, &gates::h());
        bell.apply_controlled_1q(&[0], 1, &gates::x());
        for (name, state) in [
            ("dense", &dense),
            ("bell", &bell),
            ("basis", &State::basis(3, 5).unwrap()),
        ] {
            let sampler = Sampler::new(state);
            let all: Vec<usize> = (0..state.num_qubits()).collect();
            let mut a = rng(99);
            let mut b = rng(99);
            for shot in 0..512 {
                assert_eq!(
                    SimBackend::sample_once(state, &all, &mut a),
                    sampler.sample(&mut b),
                    "{name} diverged at shot {shot}"
                );
            }
            assert_eq!(a, b, "{name}: the streams end apart");
            let mut r = rng(7);
            let uniforms: Vec<f64> = (0..512).map(|_| r.gen()).collect();
            assert_eq!(
                state.sample_uniforms(&uniforms),
                sampler.sample_many(&mut rng(7), 512),
                "{name}: the ensemble scan diverged"
            );
        }
    }

    #[test]
    fn sample_uniforms_matches_sample_at_on_cdf_edges() {
        // Uniforms on every CDF value and its two neighbours, of |+⟩^⊗3
        // as the Hadamards leave it (values k/8 up to rounding), and of
        // an exactly dyadic state with zero bins at both ends and in the
        // middle: probability 1/4 on indices 1, 3, 4 and 6 only.
        let mut plus = State::zero(3);
        for q in 0..3 {
            plus.apply_1q(q, &gates::h());
        }
        let half = Complex::new(0.5, 0.0);
        let gappy = State::from_amplitudes(
            [0, 1, 0, 1, 1, 0, 1, 0]
                .map(|nonzero| if nonzero == 1 { half } else { Complex::ZERO })
                .to_vec(),
        )
        .unwrap();
        for (name, state) in [("plus", &plus), ("gappy", &gappy)] {
            let sampler = Sampler::new(state);
            let mut uniforms = vec![0.0];
            for &c in &sampler.cdf {
                uniforms.extend([c.next_down(), c, c.next_up()]);
            }
            uniforms.retain(|u| (0.0..1.0).contains(u));
            // Shuffled order and repeats: outcomes follow each uniform.
            uniforms.extend(uniforms.clone().into_iter().rev());
            let expected: Vec<u64> = uniforms.iter().map(|&u| sampler.sample_at(u)).collect();
            assert_eq!(state.sample_uniforms(&uniforms), expected, "{name}");
            for (&u, &x) in uniforms.iter().zip(&expected) {
                assert_eq!(state.sample_uniforms(&[u]), [x], "{name} at {u:e}");
                assert!(state.probability(x as usize) > 0.0, "{name} at {u:e}");
            }
        }
        assert!(plus.sample_uniforms(&[]).is_empty());
    }

    #[test]
    fn sample_at_reproduces_sample_stream() {
        let mut s = State::zero(4);
        for q in 0..4 {
            s.apply_1q(q, &gates::h());
        }
        let sampler = Sampler::new(&s);
        let direct = sampler.sample_many(&mut rng(77), 128);
        // Pre-draw the uniforms, then map them through sample_at.
        let mut r = rng(77);
        let us: Vec<f64> = (0..128).map(|_| r.gen::<f64>()).collect();
        let replayed: Vec<u64> = us.into_iter().map(|u| sampler.sample_at(u)).collect();
        assert_eq!(direct, replayed);
    }

    #[test]
    fn seeded_sampling_is_reproducible() {
        let mut s = State::zero(4);
        for q in 0..4 {
            s.apply_1q(q, &gates::h());
        }
        let sampler = Sampler::new(&s);
        let a = sampler.sample_many(&mut rng(123), 64);
        let b = sampler.sample_many(&mut rng(123), 64);
        assert_eq!(a, b);
    }
}
