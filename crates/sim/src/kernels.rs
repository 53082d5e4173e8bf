//! Specialized gate kernels and control-subspace enumeration.
//!
//! The generic entry points on [`State`] treat every gate the same way:
//! [`State::apply_controlled_1q`] scans half the basis indices and
//! discards the ones whose control bits don't match, and
//! [`State::swap`] / [`State::apply_controlled_swap`] scan all of them.
//! That is the right *reference* semantics, but the hot path of the
//! ensemble engine applies the same few gates millions of times, so this
//! module provides kernels specialized by the 2×2 matrix's sparsity
//! structure ([`classify`]) and by control count:
//!
//! * [`State::apply_diagonal`] — `diag(d₀, d₁)` gates (`z`, `s`, `t`,
//!   `rz`, `phase`): two scalar multiplies per pair, no cross terms;
//! * [`State::apply_antidiagonal`] — anti-diagonal gates (`x`, `y`):
//!   a pure amplitude permutation with per-branch phases;
//! * [`State::apply_1q_subspace`] — the dense 2×2 kernel, but touching
//!   only the control-satisfying subspace;
//! * [`State::apply_swap_subspace`] — (controlled) swap enumerating
//!   exactly the index pairs it exchanges.
//!
//! Every kernel *enumerates* the `2ⁿ⁻¹⁻ᶜ` (or `2ⁿ⁻²⁻ᶜ` for swaps)
//! indices it touches instead of filtering the full index space by mask
//! test: a Toffoli visits `2ⁿ⁻³` pairs instead of scanning `2ⁿ⁻¹`
//! candidates. [`State::index_ops`] counts exactly this difference.
//!
//! Enumeration is *run-based*: every bit position below the lowest
//! fixed (control or target) bit is free, so the touched indices come
//! in contiguous runs of length `2^lowest`. The kernels step from run
//! to run with the carry trick (`base = ((base | step) + 1) & !step`
//! where `step` pre-fills the fixed bits *and* the in-run bits with
//! ones) and sweep each run as a pair of contiguous slices. The slice
//! form matters: the inner loops are bounds-check-free iterator zips
//! over disjoint subslices, which LLVM auto-vectorizes — the serial
//! per-index carry chain they replace was latency-bound at a few
//! cycles per amplitude pair.
//!
//! ## Equivalence contract
//!
//! Each kernel touches the same amplitude pairs as its generic
//! counterpart, in the same ascending order. The subspace kernels
//! ([`State::apply_1q_subspace`], [`State::apply_swap_subspace`])
//! perform the *identical* arithmetic on each pair, so their results are
//! bit-for-bit identical to the generic path. The diagonal and
//! anti-diagonal kernels skip the structurally-zero products the dense
//! kernel still computes (`m₀₁·b` when `m₀₁ = 0`); adding such a term
//! only ever normalizes the sign of an exactly-zero component
//! (`-0.0 + 0.0 = +0.0`), so their results are **value-identical**
//! (`==` on every component, hence [`State`] equality holds and every
//! probability is bit-identical) but a zero amplitude component may
//! carry the opposite sign. No downstream computation — probabilities,
//! sampling, inner products, reports — can observe the difference.
//!
//! ## Amplitude-parallel chunking
//!
//! When a state is opted in ([`State::set_intra_parallel`]), is at or
//! above [`INTRA_PAR_MIN_QUBITS`], and more than one rayon worker is
//! configured, each kernel partitions its *run space* into contiguous
//! chunks and dispatches them across workers
//! ([`rayon::dispatch_chunks`]). Runs are disjoint and every run's
//! work is self-contained (the same pairs, the same in-run order, the
//! same arithmetic as the serial loop — a chunk seeks to its first run
//! with `Subspace::base_at` and then steps with the identical carry
//! trick), so the amplitudes produced are **bit-for-bit identical at
//! any thread count**; only wall-clock changes. Serial invocations and
//! below-threshold states run the exact safe-slice loops documented
//! above.

use crate::complex::Complex;
use crate::gates::Matrix2;
use crate::state::State;

/// States below this many qubits never chunk their kernels: at
/// `2¹⁴ = 16384` amplitudes a full sweep is a few microseconds, and one
/// [`rayon::dispatch_chunks`] fan-out costs about 1 µs even with no
/// work (measured on a 2-core host as `qdbbench`'s `rayon.dispatch_us`),
/// so splitting the sweep would win little. At and above this
/// threshold (`2¹⁵` amplitudes, ½ MiB) chunking wins on multi-core
/// hosts.
pub const INTRA_PAR_MIN_QUBITS: usize = 15;

/// The sparsity structure of a 2×2 unitary, used by the lowering layer
/// in `qdb-circuit` to pick a kernel once per compiled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixClass {
    /// Both off-diagonal entries are exactly zero (`z`, `s`, `t`, `rz`,
    /// `phase`, and their adjoints).
    Diagonal,
    /// Both diagonal entries are exactly zero (`x`, `y`).
    AntiDiagonal,
    /// No exploitable structure (`h`, generic rotations, fused runs).
    General,
}

/// Classify a 2×2 unitary by exact-zero structure.
///
/// The test is *exact* (`== 0.0`), which is what the named gate
/// constructors in [`gates`](crate::gates) produce; a matrix that is
/// merely numerically close to diagonal is classified [`General`] so
/// specialization never changes results.
///
/// [`General`]: MatrixClass::General
#[must_use]
pub fn classify(m: &Matrix2) -> MatrixClass {
    let m = &m.0;
    if m[0][1] == Complex::ZERO && m[1][0] == Complex::ZERO {
        MatrixClass::Diagonal
    } else if m[0][0] == Complex::ZERO && m[1][1] == Complex::ZERO {
        MatrixClass::AntiDiagonal
    } else {
        MatrixClass::General
    }
}

/// The run-based subspace-enumeration scaffolding for a kernel with
/// fixed bit positions `fixed` (controls + targets) over `dim` basis
/// indices.
///
/// The indices to touch are exactly those with every fixed bit zero
/// (the control bits are OR-ed back in by the caller), in ascending
/// order. All positions below the lowest fixed bit are free, so the
/// set decomposes into `runs` contiguous runs of `run_len = 2^lowest`
/// indices each. Successive run bases are enumerated with the carry
/// trick — `base = ((base | step) + 1) & !step` with the fixed bits
/// *and* the in-run low bits pre-filled with ones, so the `+ 1`
/// carries straight over both — three ALU ops per run, while the run
/// interiors are plain contiguous slices the inner loops can zip over
/// without bounds checks.
pub(crate) struct Subspace {
    /// Carry-trick step mask: fixed bits plus the in-run low bits.
    pub(crate) step: usize,
    /// The control bits, OR-ed into every enumerated index.
    pub(crate) cmask: usize,
    /// Length of each contiguous run (`2^lowest_fixed_bit`).
    pub(crate) run_len: usize,
    /// Number of runs covering the subspace.
    pub(crate) runs: usize,
}

impl Subspace {
    /// Build the enumeration for `count` touched representatives over
    /// fixed mask `fixed` (`count` is `2ⁿ⁻¹⁻ᶜ` for single-target
    /// kernels, `2ⁿ⁻²⁻ᶜ` for swaps).
    pub(crate) fn new(fixed: usize, cmask: usize, count: usize) -> Self {
        let low = fixed.trailing_zeros() as usize;
        let run_len = 1usize << low;
        Self {
            step: fixed | (run_len - 1),
            cmask,
            run_len,
            runs: count >> low,
        }
    }

    #[inline]
    pub(crate) fn next(&self, base: usize) -> usize {
        ((base | self.step) + 1) & !self.step
    }

    /// The base index of run `k` — the value `k` applications of
    /// [`next`](Subspace::next) reach from zero.
    ///
    /// The carry trick counts through the free (zero) bits of `step`
    /// in ascending position order, so run `k`'s base is `k` with its
    /// bits deposited into those positions. This lets a chunk worker
    /// seek straight to its first run instead of replaying the carry
    /// chain from zero.
    fn base_at(&self, mut k: usize) -> usize {
        let mut free = !self.step;
        let mut base = 0usize;
        while k != 0 {
            let bit = free & free.wrapping_neg();
            if k & 1 == 1 {
                base |= bit;
            }
            free &= !bit;
            k >>= 1;
        }
        base
    }
}

/// Raw pointer to the amplitude buffer, shared across chunk workers.
///
/// Sharing is sound because the run enumeration is a *partition*: each
/// worker owns a disjoint contiguous range of run indices, every run is
/// visited by exactly one worker, and a run's slices never overlap any
/// other run's (run bases differ in bits at or above the lowest fixed
/// bit while each slice spans only the `run_len = 2^lowest` indices
/// below it; within a pair, the `target = 1` slice starts `tmask ≥
/// run_len` above the `target = 0` slice).
#[derive(Clone, Copy)]
struct SharedAmps(*mut Complex);

unsafe impl Send for SharedAmps {}
unsafe impl Sync for SharedAmps {}

impl SharedAmps {
    /// The contiguous run `[start, start + len)` as a mutable slice.
    ///
    /// # Safety
    ///
    /// `[start, start + len)` must be in bounds of the buffer and no
    /// other live reference (on any thread) may overlap it — which the
    /// run-disjointness argument above guarantees when each run is
    /// handed to exactly one worker.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn run<'a>(&self, start: usize, len: usize) -> &'a mut [Complex] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

/// Apply `body` to every `(target = 0, target = 1)` run pair of `sub`,
/// chunking the run space across rayon workers when `workers > 1`.
/// Returns the number of parallel chunks dispatched (0 when serial).
///
/// The chunk *boundaries* are the only thing that varies with the
/// worker count: every chunk seeks to its first run with
/// [`Subspace::base_at`] and then steps with the same carry trick the
/// serial loop uses, so each run sees the same base, the same slices,
/// and the same per-pair arithmetic in the same in-run order — results
/// are bit-for-bit identical across thread counts.
fn pair_run_chunks<F>(
    workers: usize,
    sub: &Subspace,
    tmask: usize,
    amps: &mut [Complex],
    body: F,
) -> usize
where
    F: Fn(&mut [Complex], &mut [Complex]) + Sync,
{
    if workers > 1 && sub.runs > 1 {
        let shared = SharedAmps(amps.as_mut_ptr());
        rayon::dispatch_chunks(sub.runs, |chunk| {
            let mut base = sub.base_at(chunk.start);
            for _ in chunk {
                let start0 = base | sub.cmask;
                // SAFETY: this chunk owns runs `chunk.start..chunk.end`
                // exclusively and the two slices of a pair are disjoint
                // (see `SharedAmps`).
                let run0 = unsafe { shared.run(start0, sub.run_len) };
                let run1 = unsafe { shared.run(start0 | tmask, sub.run_len) };
                body(run0, run1);
                base = sub.next(base);
            }
        })
    } else {
        let mut base = 0usize;
        for _ in 0..sub.runs {
            let (run0, run1) = pair_runs(amps, base | sub.cmask, tmask, sub.run_len);
            body(run0, run1);
            base = sub.next(base);
        }
        0
    }
}

/// The two disjoint contiguous runs of one enumeration step: the
/// `target = 0` run starting at `base | cmask` and the `target = 1` run
/// `tmask` above it. `run_len ≤ tmask` always holds (the target bit is
/// fixed, so every free in-run bit lies below it), hence the runs never
/// overlap and a `split_at_mut` at the second run's start yields two
/// independently borrowable slices.
#[inline]
fn pair_runs(
    amps: &mut [Complex],
    start0: usize,
    tmask: usize,
    run_len: usize,
) -> (&mut [Complex], &mut [Complex]) {
    let start1 = start0 | tmask;
    let (lo, hi) = amps.split_at_mut(start1);
    (&mut lo[start0..start0 + run_len], &mut hi[..run_len])
}

impl State {
    /// Validate controls/target and build the enumeration scaffolding.
    fn control_subspace(&self, controls: &[usize], target: usize) -> Subspace {
        self.check_qubit(target);
        let mut fixed = 1usize << target;
        let mut cmask = 0usize;
        for &c in controls {
            self.check_qubit(c);
            assert!(c != target, "control {c} equals target");
            assert!(
                fixed & (1 << c) == 0,
                "qubit {c} used twice in one kernel call"
            );
            fixed |= 1 << c;
            cmask |= 1 << c;
        }
        Subspace::new(fixed, cmask, self.dim() >> (1 + controls.len()))
    }

    /// Worker count the kernels may chunk over: 1 (serial) unless this
    /// state opted in via [`State::set_intra_parallel`], is at or above
    /// [`INTRA_PAR_MIN_QUBITS`], and rayon has more than one worker
    /// (`RAYON_NUM_THREADS` is re-read per call, as everywhere else in
    /// the workspace).
    fn kernel_workers(&self) -> usize {
        if self.intra_parallel() && self.num_qubits() >= INTRA_PAR_MIN_QUBITS {
            rayon::current_num_threads()
        } else {
            1
        }
    }

    /// Apply `diag(d0, d1)` to `target`, conditioned on all `controls`
    /// being `|1⟩`: `2ⁿ⁻¹⁻ᶜ` pairs of scalar multiplies, no cross
    /// terms, no index filtering (see the
    /// [module docs](crate::kernels) for the equivalence contract).
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or repeats.
    pub fn apply_diagonal(&mut self, controls: &[usize], target: usize, d0: Complex, d1: Complex) {
        let sub = self.control_subspace(controls, target);
        let tmask = 1usize << target;
        let pairs = self.dim() >> (1 + controls.len());
        self.record_gate_op();
        self.record_index_ops(pairs as u64);
        let workers = self.kernel_workers();
        let amps = self.amps_mut();
        let chunks = if d0 == Complex::ONE {
            // Phase-type gates (`s`, `t`, `phase`, every `cphase` /
            // `ccphase` of the QFT ladders): the |…0⟩ branch is
            // untouched, so only the set branch is multiplied.
            let scale = |run1: &mut [Complex]| {
                for a in run1 {
                    *a = d1 * *a;
                }
            };
            if workers > 1 && sub.runs > 1 {
                let shared = SharedAmps(amps.as_mut_ptr());
                rayon::dispatch_chunks(sub.runs, |chunk| {
                    let mut base = sub.base_at(chunk.start);
                    for _ in chunk {
                        let start1 = base | sub.cmask | tmask;
                        // SAFETY: this chunk owns its runs exclusively
                        // (see `SharedAmps`).
                        scale(unsafe { shared.run(start1, sub.run_len) });
                        base = sub.next(base);
                    }
                })
            } else {
                let mut base = 0usize;
                for _ in 0..sub.runs {
                    let start1 = base | sub.cmask | tmask;
                    scale(&mut amps[start1..start1 + sub.run_len]);
                    base = sub.next(base);
                }
                0
            }
        } else {
            pair_run_chunks(workers, &sub, tmask, amps, |run0, run1| {
                for (a, b) in run0.iter_mut().zip(run1.iter_mut()) {
                    *a = d0 * *a;
                    *b = d1 * *b;
                }
            })
        };
        if chunks > 0 {
            self.record_par_chunks(chunks as u64);
        }
    }

    /// Apply the anti-diagonal gate `[[0, a01], [a10, 0]]` to `target`,
    /// conditioned on all `controls` being `|1⟩`: a pure cross-swap of
    /// each amplitude pair with per-branch phases (`x` is
    /// `a01 = a10 = 1`, `y` is `a01 = −i, a10 = i`).
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or repeats.
    pub fn apply_antidiagonal(
        &mut self,
        controls: &[usize],
        target: usize,
        a01: Complex,
        a10: Complex,
    ) {
        let sub = self.control_subspace(controls, target);
        let tmask = 1usize << target;
        let pairs = self.dim() >> (1 + controls.len());
        self.record_gate_op();
        self.record_index_ops(pairs as u64);
        let workers = self.kernel_workers();
        let pure_x = a01 == Complex::ONE && a10 == Complex::ONE;
        let amps = self.amps_mut();
        let chunks = pair_run_chunks(workers, &sub, tmask, amps, |run0, run1| {
            if pure_x {
                // X-type gates (`x`, CNOT, Toffoli): a pure amplitude
                // permutation, no arithmetic at all.
                run0.swap_with_slice(run1);
            } else {
                for (x, y) in run0.iter_mut().zip(run1.iter_mut()) {
                    let a = *x;
                    let b = *y;
                    *x = a01 * b;
                    *y = a10 * a;
                }
            }
        });
        if chunks > 0 {
            self.record_par_chunks(chunks as u64);
        }
    }

    /// Apply a dense 2×2 unitary to `target`, conditioned on all
    /// `controls` being `|1⟩`, visiting only the control-satisfying
    /// subspace.
    ///
    /// Performs exactly the arithmetic of
    /// [`State::apply_controlled_1q`] on exactly the pairs that path
    /// touches (bit-for-bit identical results) while enumerating
    /// `2ⁿ⁻¹⁻ᶜ` pairs instead of scanning `2ⁿ⁻¹` candidates.
    ///
    /// # Panics
    ///
    /// Panics if any qubit is out of range or repeats.
    pub fn apply_1q_subspace(&mut self, controls: &[usize], target: usize, m: &Matrix2) {
        let sub = self.control_subspace(controls, target);
        let tmask = 1usize << target;
        let pairs = self.dim() >> (1 + controls.len());
        self.record_gate_op();
        self.record_index_ops(pairs as u64);
        let workers = self.kernel_workers();
        let m = m.0;
        let amps = self.amps_mut();
        let chunks = pair_run_chunks(workers, &sub, tmask, amps, |run0, run1| {
            for (x, y) in run0.iter_mut().zip(run1.iter_mut()) {
                let a = *x;
                let b = *y;
                *x = m[0][0] * a + m[0][1] * b;
                *y = m[1][0] * a + m[1][1] * b;
            }
        });
        if chunks > 0 {
            self.record_par_chunks(chunks as u64);
        }
    }

    /// Swap qubits `a` and `b`, conditioned on all `controls` being
    /// `|1⟩`, enumerating exactly the `2ⁿ⁻²⁻ᶜ` index pairs it
    /// exchanges (the generic [`State::swap`] /
    /// [`State::apply_controlled_swap`] scan all `2ⁿ` indices).
    ///
    /// Bit-for-bit identical to the generic path: the same disjoint
    /// transpositions are applied (in ascending order of the
    /// `bit_a = 1, bit_b = 0` representative).
    ///
    /// # Panics
    ///
    /// Panics if qubits are out of range, `a == b`, or a control
    /// overlaps a swap target.
    pub fn apply_swap_subspace(&mut self, controls: &[usize], a: usize, b: usize) {
        self.check_qubit(a);
        self.check_qubit(b);
        assert!(a != b, "swap targets must differ");
        let (lo, hi) = (a.min(b), a.max(b));
        let lo_mask = 1usize << lo;
        let hi_mask = 1usize << hi;
        let mut fixed = lo_mask | hi_mask;
        let mut cmask = 0usize;
        for &c in controls {
            self.check_qubit(c);
            assert!(c != a && c != b, "control {c} overlaps swap target");
            assert!(
                fixed & (1 << c) == 0,
                "qubit {c} used twice in one kernel call"
            );
            fixed |= 1 << c;
            cmask |= 1 << c;
        }
        let count = self.dim() >> (2 + controls.len());
        let sub = Subspace::new(fixed, cmask, count);
        self.record_gate_op();
        self.record_index_ops(count as u64);
        let workers = self.kernel_workers();
        let amps = self.amps_mut();
        let chunks = if workers > 1 && sub.runs > 1 {
            let shared = SharedAmps(amps.as_mut_ptr());
            rayon::dispatch_chunks(sub.runs, |chunk| {
                let mut base = sub.base_at(chunk.start);
                for _ in chunk {
                    let start_i = base | sub.cmask | lo_mask;
                    let start_j = (start_i & !lo_mask) | hi_mask;
                    // SAFETY: this chunk owns its runs exclusively; the
                    // partner run starts strictly above the
                    // representative and `run_len ≤ lo_mask < hi_mask`,
                    // so the two slices never overlap (see `SharedAmps`).
                    let run_i = unsafe { shared.run(start_i, sub.run_len) };
                    let run_j = unsafe { shared.run(start_j, sub.run_len) };
                    run_i.swap_with_slice(run_j);
                    base = sub.next(base);
                }
            })
        } else {
            let mut base = 0usize;
            for _ in 0..sub.runs {
                // Representative run: controls 1, low bit 1, high bit 0 —
                // swapped with the run at low bit 0, high bit 1. Both runs
                // are contiguous (`run_len ≤ lo_mask < hi_mask`) and the
                // partner run starts strictly above the representative.
                let start_i = base | sub.cmask | lo_mask;
                let start_j = (start_i & !lo_mask) | hi_mask;
                let (lo, hi) = amps.split_at_mut(start_j);
                lo[start_i..start_i + sub.run_len].swap_with_slice(&mut hi[..sub.run_len]);
                base = sub.next(base);
            }
            0
        };
        if chunks > 0 {
            self.record_par_chunks(chunks as u64);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gates;
    use crate::state::State;

    /// A fixed non-trivial 4-qubit state with every amplitude nonzero.
    fn dense_state() -> State {
        let mut s = State::zero(4);
        for q in 0..4 {
            s.apply_1q(q, &gates::h());
            s.apply_1q(q, &gates::t());
        }
        s.apply_controlled_1q(&[0], 2, &gates::ry(0.37));
        s.apply_controlled_1q(&[3], 1, &gates::rx(-1.1));
        s.reset_gate_ops();
        s.reset_index_ops();
        s
    }

    fn assert_bits_identical(a: &State, b: &State) {
        for i in 0..a.dim() {
            assert_eq!(
                a.amplitude(i).re.to_bits(),
                b.amplitude(i).re.to_bits(),
                "re mismatch at {i}"
            );
            assert_eq!(
                a.amplitude(i).im.to_bits(),
                b.amplitude(i).im.to_bits(),
                "im mismatch at {i}"
            );
        }
    }

    #[test]
    fn classify_named_gates() {
        for g in [
            gates::z(),
            gates::s(),
            gates::sdg(),
            gates::t(),
            gates::tdg(),
            gates::rz(0.7),
            gates::phase(-0.3),
        ] {
            assert_eq!(classify(&g), MatrixClass::Diagonal);
        }
        assert_eq!(classify(&gates::x()), MatrixClass::AntiDiagonal);
        assert_eq!(classify(&gates::y()), MatrixClass::AntiDiagonal);
        for g in [gates::h(), gates::rx(0.4), gates::ry(1.2)] {
            assert_eq!(classify(&g), MatrixClass::General);
        }
        // rx(π) is anti-diagonal only up to numerically-exact zeros on
        // the diagonal: cos(π/2) is not exactly 0.0 in f64, so it must
        // stay General.
        assert_eq!(
            classify(&gates::rx(std::f64::consts::PI)),
            MatrixClass::General
        );
    }

    #[test]
    fn diagonal_kernel_matches_generic_values() {
        for controls in [vec![], vec![1], vec![1, 3]] {
            let g = gates::rz(0.9);
            let mut fast = dense_state();
            fast.apply_diagonal(&controls, 2, g.0[0][0], g.0[1][1]);
            let mut reference = dense_state();
            reference.apply_controlled_1q(&controls, 2, &g);
            assert_eq!(fast, reference, "controls {controls:?}");
        }
    }

    #[test]
    fn antidiagonal_kernel_matches_generic_values() {
        for controls in [vec![], vec![0], vec![0, 3]] {
            let g = gates::y();
            let mut fast = dense_state();
            fast.apply_antidiagonal(&controls, 1, g.0[0][1], g.0[1][0]);
            let mut reference = dense_state();
            reference.apply_controlled_1q(&controls, 1, &g);
            assert_eq!(fast, reference, "controls {controls:?}");
        }
    }

    #[test]
    fn subspace_dense_kernel_is_bit_identical() {
        for controls in [vec![], vec![0], vec![0, 1], vec![3, 0, 1]] {
            let g = gates::u3(0.3, 1.1, -0.4);
            let mut fast = dense_state();
            fast.apply_1q_subspace(&controls, 2, &g);
            let mut reference = dense_state();
            reference.apply_controlled_1q(&controls, 2, &g);
            assert_bits_identical(&fast, &reference);
        }
    }

    #[test]
    fn subspace_swap_is_bit_identical() {
        for controls in [vec![], vec![2], vec![2, 3]] {
            let mut fast = dense_state();
            fast.apply_swap_subspace(&controls, 0, 1);
            let mut reference = dense_state();
            if controls.is_empty() {
                reference.swap(0, 1);
            } else {
                reference.apply_controlled_swap(&controls, 0, 1);
            }
            assert_bits_identical(&fast, &reference);
        }
        // Reversed qubit order is the same operation.
        let mut ab = dense_state();
        ab.apply_swap_subspace(&[3], 0, 2);
        let mut ba = dense_state();
        ba.apply_swap_subspace(&[3], 2, 0);
        assert_bits_identical(&ab, &ba);
    }

    #[test]
    fn kernels_do_reduced_index_work() {
        // n = 4 (dim = 16). Generic controlled scan: 8 candidates
        // regardless of controls; subspace kernels shrink with each
        // control. Generic swap scans 16; subspace swap visits 4.
        let mut s = dense_state();
        s.apply_1q_subspace(&[], 0, &gates::h());
        assert_eq!(s.index_ops(), 8); // same as apply_1q: all pairs
        s.apply_1q_subspace(&[1], 0, &gates::h());
        assert_eq!(s.index_ops(), 8 + 4);
        s.apply_1q_subspace(&[1, 2], 0, &gates::h()); // Toffoli shape
        assert_eq!(s.index_ops(), 8 + 4 + 2);
        s.apply_diagonal(&[1, 2], 0, Complex::ONE, Complex::I);
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2);
        s.apply_antidiagonal(&[3], 0, Complex::ONE, Complex::ONE);
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4);
        s.apply_swap_subspace(&[], 0, 1);
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4 + 4);
        s.apply_swap_subspace(&[2], 0, 1); // Fredkin shape
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4 + 4 + 2);
        assert_eq!(s.gate_ops(), 7);

        // The generic paths pay the full scan for the same gates.
        let mut generic = dense_state();
        generic.apply_controlled_1q(&[1, 2], 0, &gates::x());
        assert_eq!(generic.index_ops(), 8);
        generic.apply_controlled_swap(&[2], 0, 1);
        assert_eq!(generic.index_ops(), 8 + 16);
    }

    #[test]
    fn toffoli_truth_table_via_subspace() {
        for input in 0..8u64 {
            let mut s = State::basis(3, input).unwrap();
            s.apply_antidiagonal(&[0, 1], 2, Complex::ONE, Complex::ONE);
            let expected = if input & 0b11 == 0b11 {
                (input ^ 0b100) as usize
            } else {
                input as usize
            };
            assert!(
                (s.probability(expected) - 1.0).abs() < 1e-12,
                "input {input}"
            );
        }
    }

    /// Guards the `RAYON_NUM_THREADS` toggling below against the test
    /// harness running these tests concurrently.
    static ENV_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

    #[test]
    fn base_at_matches_carry_enumeration() {
        // (fixed, cmask, count) shapes: plain 1q targets at several
        // positions, controlled kernels, and a swap-style double-fixed
        // mask, all over a 2¹⁰ space.
        for (fixed, cmask, count) in [
            (0b1usize, 0usize, 512),
            (0b100, 0, 512),
            (1 << 9, 0, 512),
            (0b10011, 0b10010, 128),
            (0b1100000, 0b0100000, 256),
            (0b0000110, 0, 256),
        ] {
            let sub = Subspace::new(fixed, cmask, count);
            let mut base = 0usize;
            for k in 0..sub.runs {
                assert_eq!(
                    sub.base_at(k),
                    base,
                    "run {k} of fixed {fixed:#b} cmask {cmask:#b}"
                );
                base = sub.next(base);
            }
        }
    }

    #[test]
    fn intra_parallel_kernels_are_bit_identical() {
        let _guard = ENV_LOCK.lock().unwrap();
        // 16 qubits is above INTRA_PAR_MIN_QUBITS, so with 4 workers
        // the opted-in state chunks every kernel.
        let drive = |s: &mut State| {
            for q in 0..16 {
                s.apply_1q_subspace(&[], q, &gates::h());
            }
            let t = gates::t();
            s.apply_diagonal(&[], 3, t.0[0][0], t.0[1][1]);
            let rz = gates::rz(0.9);
            s.apply_diagonal(&[5], 9, rz.0[0][0], rz.0[1][1]);
            s.apply_diagonal(&[2], 15, rz.0[0][0], rz.0[1][1]);
            s.apply_antidiagonal(&[1], 14, Complex::ONE, Complex::ONE);
            let y = gates::y();
            s.apply_antidiagonal(&[], 7, y.0[0][1], y.0[1][0]);
            s.apply_1q_subspace(&[0, 8], 12, &gates::u3(0.3, 1.1, -0.4));
            s.apply_swap_subspace(&[4], 6, 13);
            s.apply_swap_subspace(&[], 0, 15);
        };
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let mut serial = State::zero(16);
        drive(&mut serial);
        let mut chunked = State::zero(16);
        chunked.set_intra_parallel(true);
        drive(&mut chunked);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_bits_identical(&serial, &chunked);
        assert_eq!(serial.par_chunks(), 0);
        assert!(chunked.par_chunks() > 0, "chunking never engaged");
        assert_eq!(serial.index_ops(), chunked.index_ops());
        assert_eq!(serial.gate_ops(), chunked.gate_ops());
    }

    #[test]
    fn small_states_stay_serial_even_when_opted_in() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let mut s = dense_state(); // 4 qubits, far below the threshold
        s.set_intra_parallel(true);
        s.apply_1q_subspace(&[], 0, &gates::h());
        s.apply_diagonal(&[], 1, Complex::ONE, Complex::I);
        s.apply_swap_subspace(&[], 0, 1);
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(s.par_chunks(), 0);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn duplicate_control_panics() {
        dense_state().apply_1q_subspace(&[1, 1], 0, &gates::x());
    }

    #[test]
    #[should_panic(expected = "control 0 equals target")]
    fn control_equals_target_panics() {
        dense_state().apply_diagonal(&[0], 0, Complex::ONE, Complex::I);
    }

    #[test]
    #[should_panic(expected = "swap targets must differ")]
    fn swap_same_qubit_panics() {
        dense_state().apply_swap_subspace(&[], 1, 1);
    }

    #[test]
    #[should_panic(expected = "overlaps swap target")]
    fn swap_control_overlap_panics() {
        dense_state().apply_swap_subspace(&[0], 0, 1);
    }
}
