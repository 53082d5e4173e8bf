//! Specialized gate kernels, control-subspace enumeration and blocked
//! gate runs.
//!
//! The generic entry points on [`State`] treat every gate the same way:
//! [`State::apply_controlled_1q`] scans half the basis indices and
//! discards the ones whose control bits don't match, and
//! [`State::swap`] / [`State::apply_controlled_swap`] scan all of them.
//! That is the right *reference* semantics, but the hot path of the
//! ensemble engine applies the same few gates millions of times, so
//! this module provides kernels specialized by the 2×2 matrix's
//! sparsity structure ([`classify`]) and by control count, one per
//! [`KernelOp`] variant of a lowered [`SimOp`], applied through
//! [`SimBackend::apply_op`](crate::SimBackend::apply_op) and
//! [`SimBackend::apply_ops`](crate::SimBackend::apply_ops):
//!
//! * [`KernelOp::Diagonal`] — `diag(d₀, d₁)` gates (`z`, `s`, `t`,
//!   `rz`, `phase`): two scalar multiplies per pair, no cross terms;
//! * [`KernelOp::AntiDiagonal`] — anti-diagonal gates (`x`, `y`):
//!   a pure amplitude permutation with per-branch phases;
//! * [`KernelOp::General`] — the dense 2×2 kernel, but touching only
//!   the control-satisfying subspace. A matrix whose four imaginary
//!   parts are exactly zero (`h`, `ry`: the QFT and diffusion gates)
//!   runs in a *real lane* that scales the real and imaginary parts of
//!   each amplitude by real coefficients: 12 flops per pair instead of
//!   the complex product's 28;
//! * [`KernelOp::Swap`] — (controlled) swap enumerating exactly the
//!   index pairs it exchanges.
//!
//! Every kernel *enumerates* the `2ⁿ⁻¹⁻ᶜ` (or `2ⁿ⁻²⁻ᶜ` for swaps)
//! indices it touches instead of filtering the full index space by mask
//! test: a Toffoli visits `2ⁿ⁻³` pairs instead of scanning `2ⁿ⁻¹`
//! candidates. [`State::index_ops`] counts exactly this difference.
//!
//! Enumeration is *run-based*: every bit position below the lowest
//! fixed (control, target or swap) bit is free, so the touched indices
//! come in contiguous runs of length `2^lowest`. The kernels step from
//! run to run with the carry trick (`base = ((base | step) + 1) & !step`
//! where `step` pre-fills the fixed bits *and* the in-run bits with
//! ones) and sweep each run as a pair of contiguous slices. The slice
//! form matters: the inner loops are bounds-check-free iterator zips
//! over disjoint subslices, which LLVM auto-vectorizes — the serial
//! per-index carry chain they replace was latency-bound at a few
//! cycles per amplitude pair. Runs longer than `RUN_CAP` (2¹²)
//! amplitudes are walked as several runs of that length, in the same
//! order.
//!
//! A kernel whose lowest fixed bit is below `TILE_BITS` (3) would walk
//! runs of one, two or four amplitudes, and pay a carry step and two
//! slice splits for each. It walks *tiles* instead: aligned groups of
//! eight amplitudes (two cache lines). The fixed bits at or above the
//! tile width pick tiles (and partner tiles) with the same carry trick
//! over tile indices, in runs of at most `TILE_RUN` (8) tiles; the fixed
//! bits below it become a list of 1, 2 or 4 in-tile offset pairs,
//! computed once per call, that every picked tile (or tile pair) is
//! swept with. A swap with one qubit on each side of the tile width
//! pairs an offset in one tile with its partner offset in the other.
//! States smaller than one tile keep the run walk.
//!
//! ## Equivalence contract
//!
//! Each kernel touches the same amplitude pairs as its generic
//! counterpart, in the same ascending order. The subspace swap and the
//! complex lane of the [`KernelOp::General`] kernel perform the
//! *identical* arithmetic on each pair, so their results are
//! bit-for-bit identical to the generic path. The diagonal and anti-diagonal kernels skip the
//! structurally-zero products the dense kernel still computes (`m₀₁·b`
//! when `m₀₁ = 0`), and the real lane skips the `0·im` products of a
//! real matrix; adding such a term only ever normalizes the sign of an
//! exactly-zero component (`-0.0 + 0.0 = +0.0`), so their results are
//! **value-identical** (`==` on every component, hence [`State`]
//! equality holds and every probability is bit-identical) but a zero
//! amplitude component may carry the opposite sign. No downstream
//! computation — probabilities, sampling, inner products, reports — can
//! observe the difference. The run walk and the tile walk apply one
//! closure per kernel to the same pairs, so which walk a kernel takes
//! never changes a bit.
//!
//! ## Blocked runs
//!
//! One gate on a state larger than the cache streams every amplitude
//! through memory. On a state above [`BLOCK_QUBITS`] qubits,
//! [`SimBackend::apply_ops`](crate::SimBackend::apply_ops) therefore
//! splits its batch into maximal runs of *block-local* ops — ops that
//! never pair an amplitude with one outside its aligned block of
//! `2^BLOCK_QUBITS` amplitudes — and applies each run block by block,
//! so a block stays cache-resident for the whole run:
//!
//! * a diagonal op is always block-local: when its target is at or
//!   above the block width it is constant over a block, which is then
//!   scaled by `d₀` or `d₁` (a `d₀ = 1` block is skipped, exactly as
//!   the per-op kernel skips that branch);
//! * an anti-diagonal or general op is block-local when its target is
//!   below the block width, and a swap when both of its qubits are;
//! * controls at or above the block width select whole blocks; the
//!   lower controls stay in-block masks.
//!
//! Every other op runs alone through its per-op kernel, and states of
//! [`BLOCK_QUBITS`] qubits or fewer apply every op that way. Within a
//! block each op touches the same pairs with the same arithmetic as its
//! per-op kernel, and every amplitude sees the batch's ops in order, so
//! the result is **bit-for-bit** that of per-op application. Each op is
//! validated and counted ([`State::gate_ops`], [`State::index_ops`])
//! once, before any block is touched.
//!
//! ## Amplitude-parallel chunking
//!
//! When a state is opted in ([`State::set_intra_parallel`]), is at or
//! above [`INTRA_PAR_MIN_QUBITS`], and more than one rayon worker is
//! configured, work is split into contiguous chunks dispatched across
//! workers ([`rayon::dispatch_chunks`]): a blocked run fans its blocks
//! out with one dispatch per run, and an op outside a run partitions
//! its *run space* (runs of tiles, for a tiled kernel) with one
//! dispatch per op. Blocks and runs are
//! disjoint and each one's work is self-contained (the same pairs, the
//! same order, the same arithmetic as the serial loop — a chunk of runs
//! seeks to its first run with `Subspace::base_at` and then steps with
//! the identical carry trick), so the amplitudes produced are
//! **bit-for-bit identical at any thread count**; only wall-clock
//! changes. Serial invocations and below-threshold states run the exact
//! safe-slice loops documented above.

use crate::backend::{KernelOp, SimOp};
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

/// Width, in qubits, of the blocks a blocked run is applied on (see the
/// [module docs](self)): `2¹⁴` amplitudes, 256 KiB, which stays
/// resident in a core's L2 cache while a run of ops passes over it.
/// States of this many qubits or fewer apply every op on its own.
pub const BLOCK_QUBITS: usize = 14;

// Every state that chunks its kernels has at least two blocks to fan out.
const _: () = assert!(BLOCK_QUBITS < INTRA_PAR_MIN_QUBITS);

/// Width, in qubits, of the tiles a kernel walks when its lowest fixed
/// bit lies below it (see the [module docs](self)): 8 amplitudes, two
/// 64-byte cache lines.
const TILE_BITS: usize = 3;

/// Amplitudes per tile.
const TILE: usize = 1 << TILE_BITS;

/// Longest run of tiles the tile walk enumerates (64 amplitudes).
/// Uncapped, a kernel whose fixed bits at or above the tile width all
/// sit at the top of the register would be one run of tiles, which
/// cannot be chunked, where the run walk had many runs. Capped, a state
/// that chunks (at least [`INTRA_PAR_MIN_QUBITS`] qubits, at most four
/// fixed bits) has at least 64 tile runs, so its kernels dispatch as
/// many chunks as the run walk did at up to 8 workers.
const TILE_RUN: usize = 8;

/// Longest run the run walk enumerates (2¹² amplitudes, 64 KiB).
/// Uncapped, a kernel whose fixed bits all sit at the top of the
/// register is one run (an `h` on the top qubit: half the state), which
/// cannot be chunked. Capped, a kernel with `f` fixed bits on a state
/// of `n` qubits has at least `2^(n − f − 12)` runs: 8 for a top-qubit
/// `h` at 16 qubits, 128 at 20. A capped run is still long enough for
/// the out-of-line pair loop to amortize its carry step.
const RUN_CAP: usize = 1 << 12;

/// The sparsity structure of a 2×2 unitary, used by the lowering layer
/// in `qdb-circuit` to pick a kernel once per compiled instruction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MatrixClass {
    /// Both off-diagonal entries are exactly zero (`z`, `s`, `t`, `rz`,
    /// `phase`, and their adjoints).
    Diagonal,
    /// Both diagonal entries are exactly zero (`x`, `y`).
    AntiDiagonal,
    /// No exploitable structure (`h`, generic rotations).
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
/// (the `cmask` bits are OR-ed back in), in ascending
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
    /// Bits OR-ed into every enumerated index: the controls, plus a
    /// target bit that selects the runs (a phase-type diagonal's set
    /// branch, a swap's lower qubit).
    pub(crate) cmask: usize,
    /// Length of each contiguous run (`2^lowest_fixed_bit`).
    pub(crate) run_len: usize,
    /// Number of runs covering the subspace.
    pub(crate) runs: usize,
}

impl Subspace {
    /// Build the enumeration for `count` touched representatives over
    /// fixed mask `fixed` (`count` is `2ⁿ⁻¹⁻ᶜ` for single-target
    /// kernels, `2ⁿ⁻²⁻ᶜ` for swaps). With no fixed bits, the whole
    /// space of `count` indices is one run.
    pub(crate) fn new(fixed: usize, cmask: usize, count: usize) -> Self {
        // `count` has at least as many trailing zeros as `fixed` (every
        // bit below the lowest fixed bit is free), so this is the lowest
        // fixed bit, or the width of `count` when no bit is fixed.
        let low = (fixed | count).trailing_zeros() as usize;
        let run_len = 1usize << low;
        Self {
            step: fixed | (run_len - 1),
            cmask,
            run_len,
            runs: count >> low,
        }
    }

    /// This enumeration in runs of at most `max` (a power of two)
    /// elements. The carry trick then also counts through the free bits
    /// between the shorter run and the lowest fixed bit.
    fn capped(self, max: usize) -> Self {
        if self.run_len <= max {
            return self;
        }
        Self {
            step: (self.step & !(self.run_len - 1)) | (max - 1),
            runs: self.runs * (self.run_len / max),
            run_len: max,
            ..self
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

/// Raw pointer to the amplitude buffer, as amplitudes or as tiles,
/// shared across chunk workers.
///
/// Sharing is sound because every fan-out is a *partition*: each worker
/// owns a disjoint contiguous range of run (or block) indices, and
/// every run or block is visited by exactly one worker. Blocks are
/// aligned and disjoint. A run's slices never overlap any other run's
/// (run bases differ in a bit at or above the run length, and each
/// slice spans only the `run_len` indices below it), and within a pair
/// the second slice starts at least `run_len` above the first (see
/// [`split_pair`]). The tile walk applies the same argument to runs of
/// tiles, and within a tile (or tile pair) the offset pairs it sweeps
/// are disjoint.
#[derive(Clone, Copy)]
struct SharedAmps<T>(*mut T);

// SAFETY: the pointer is only dereferenced through `run`, whose callers
// hand each run or block to exactly one worker (see above), and the
// elements (amplitudes or tiles of them) are plain floats.
unsafe impl<T: Send> Send for SharedAmps<T> {}
// SAFETY: as for `Send`: shared access only ever yields disjoint runs.
unsafe impl<T: Send> Sync for SharedAmps<T> {}

impl<T> SharedAmps<T> {
    /// The contiguous run `[start, start + len)` as a mutable slice.
    ///
    /// # Safety
    ///
    /// `[start, start + len)` must be in bounds of the buffer and no
    /// other live reference (on any thread) may overlap it — which the
    /// disjointness argument above guarantees when each run or block is
    /// handed to exactly one worker.
    #[inline]
    #[allow(clippy::mut_from_ref)]
    unsafe fn run<'a>(&self, start: usize, len: usize) -> &'a mut [T] {
        unsafe { std::slice::from_raw_parts_mut(self.0.add(start), len) }
    }
}

/// Apply `body` to every run pair of `sub` — the run at `base | cmask`
/// and its partner at that index with the `flip` bits toggled —
/// chunking the run space across rayon workers when `workers > 1`.
/// Returns the number of parallel chunks dispatched (0 when serial).
/// The elements are amplitudes in the run walk and tiles in the tile
/// walk.
///
/// The chunk *boundaries* are the only thing that varies with the
/// worker count: every chunk seeks to its first run with
/// [`Subspace::base_at`] and then steps with the same carry trick the
/// serial loop uses, so each run sees the same base, the same slices,
/// and the same per-pair arithmetic in the same in-run order — results
/// are bit-for-bit identical across thread counts.
fn pair_runs<T: Send, F>(
    workers: usize,
    sub: &Subspace,
    flip: usize,
    amps: &mut [T],
    body: F,
) -> usize
where
    F: Fn(&mut [T], &mut [T]) + Sync,
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
                let run1 = unsafe { shared.run(start0 ^ flip, sub.run_len) };
                body(run0, run1);
                base = sub.next(base);
            }
        })
    } else {
        let mut base = 0usize;
        for _ in 0..sub.runs {
            let (run0, run1) = split_pair(amps, base | sub.cmask, flip, sub.run_len);
            body(run0, run1);
            base = sub.next(base);
        }
        0
    }
}

/// [`pair_runs`] for kernels that touch single runs: `body` gets the
/// run at `base | cmask`.
fn single_runs<T: Send, F>(workers: usize, sub: &Subspace, amps: &mut [T], body: F) -> usize
where
    F: Fn(&mut [T]) + Sync,
{
    if workers > 1 && sub.runs > 1 {
        let shared = SharedAmps(amps.as_mut_ptr());
        rayon::dispatch_chunks(sub.runs, |chunk| {
            let mut base = sub.base_at(chunk.start);
            for _ in chunk {
                // SAFETY: this chunk owns its runs exclusively (see
                // `SharedAmps`).
                body(unsafe { shared.run(base | sub.cmask, sub.run_len) });
                base = sub.next(base);
            }
        })
    } else {
        let mut base = 0usize;
        for _ in 0..sub.runs {
            let start = base | sub.cmask;
            body(&mut amps[start..start + sub.run_len]);
            base = sub.next(base);
        }
        0
    }
}

/// Apply `pair` to each `(run0[i], run1[i])` in ascending `i`.
///
/// Runs of at least [`OUT_OF_LINE_RUN`] pairs go through an
/// out-of-line copy of the loop, where the two runs are `noalias`
/// parameters. Inlined into a chunk closure, whose runs come from a raw
/// pointer, the loop may lose that fact (it depends on how the crate is
/// split into codegen units), and the vectorizer's runtime overlap
/// checks then fail on every run, because the real and imaginary parts
/// of one run interleave: the loop falls back to scalar code. Shorter
/// runs stay inline, where a call would cost more than it saves.
#[inline(always)]
fn for_each_pair<F>(run0: &mut [Complex], run1: &mut [Complex], pair: F)
where
    F: Fn(&mut Complex, &mut Complex),
{
    #[inline(never)]
    fn out_of_line<F>(run0: &mut [Complex], run1: &mut [Complex], pair: &F)
    where
        F: Fn(&mut Complex, &mut Complex),
    {
        for (x, y) in run0.iter_mut().zip(run1.iter_mut()) {
            pair(x, y);
        }
    }
    if run0.len() >= OUT_OF_LINE_RUN {
        out_of_line(run0, run1, &pair);
    } else {
        for (x, y) in run0.iter_mut().zip(run1.iter_mut()) {
            pair(x, y);
        }
    }
}

/// Shortest run [`for_each_pair`] hands to its out-of-line loop.
const OUT_OF_LINE_RUN: usize = 8;

/// Exchange two amplitudes. Swapping the parts one by one, not the
/// whole amplitude, is the form LLVM vectorizes across a run.
fn exchange(x: &mut Complex, y: &mut Complex) {
    std::mem::swap(&mut x.re, &mut y.re);
    std::mem::swap(&mut x.im, &mut y.im);
}

/// The two disjoint contiguous runs of one enumeration step: the run
/// starting at `start0` and its partner at `start0 ^ flip`. The partner
/// always lies above: for a single-target kernel `start0` has the
/// target bit clear and `flip` is that bit; for a swap `start0` has the
/// lower swapped bit set and the higher clear, and `flip` is both.
/// Either way the partner starts at least the lowest fixed bit above
/// `start0`, and `run_len` is at most that bit (every free in-run bit
/// lies below it), so a `split_at_mut` at the partner's start yields two
/// independently borrowable slices. In the tile walk the same holds of
/// tile indices and the fixed bits at or above the tile width.
#[inline]
fn split_pair<T>(
    amps: &mut [T],
    start0: usize,
    flip: usize,
    run_len: usize,
) -> (&mut [T], &mut [T]) {
    let start1 = start0 ^ flip;
    let (lo, hi) = amps.split_at_mut(start1);
    (&mut lo[start0..start0 + run_len], &mut hi[..run_len])
}

/// The tile walk of a kernel (see the [module docs](self)): which tiles
/// it touches and where in each tile.
struct Tiles {
    /// The touched tiles (the first tile of each pair), enumerated over
    /// the fixed bits at or above the tile width.
    sub: Subspace,
    /// Each touched in-tile offset with the `set` bits set, and its
    /// partner's offset with the `flip` bits below the tile width
    /// toggled, in ascending order.
    offsets: [[usize; 2]; TILE / 2],
    /// How many of `offsets` are used: 1, 2 or 4.
    len: usize,
}

impl Tiles {
    /// The tile walk over `len` amplitudes of a kernel with fixed bits
    /// `fixed` whose touched indices have the `set` bits set and whose
    /// partners differ in the `flip` bits, or `None` when the kernel
    /// walks runs: its lowest fixed bit is at or above the tile width,
    /// or the state is smaller than one tile.
    fn new(fixed: usize, set: usize, flip: usize, len: usize) -> Option<Self> {
        let low = TILE - 1;
        if fixed & low == 0 || len < TILE {
            return None;
        }
        let mut offsets = [[0; 2]; TILE / 2];
        let mut used = 0;
        for free in (0..TILE).filter(|i| i & fixed == 0) {
            let offset = free | (set & low);
            offsets[used] = [offset, offset ^ (flip & low)];
            used += 1;
        }
        let high = fixed >> TILE_BITS;
        let count = (len >> TILE_BITS) >> high.count_ones();
        Some(Self {
            sub: Subspace::new(high, set >> TILE_BITS, count).capped(TILE_RUN),
            offsets,
            len: used,
        })
    }

    /// The used offset pairs. Every offset is already below [`TILE`];
    /// the `% TILE` shows the compiler so, which drops the bounds
    /// checks from the tile loops.
    fn offsets(&self) -> impl Iterator<Item = [usize; 2]> + '_ {
        self.offsets[..self.len].iter().map(|o| o.map(|o| o % TILE))
    }
}

/// What a kernel does to each amplitude pair (or amplitude) it touches.
#[derive(Debug, Clone, Copy)]
enum Action {
    /// `diag(d0, d1)`.
    Diagonal(Complex, Complex),
    /// `[[0, a01], [a10, 0]]`.
    AntiDiagonal(Complex, Complex),
    /// A dense 2×2 with complex entries.
    General([[Complex; 2]; 2]),
    /// A dense 2×2 whose entries are all real: the real lane.
    Real([[f64; 2]; 2]),
    /// Exchange the two amplitudes.
    Swap,
    /// Multiply each touched amplitude by one scalar: a diagonal op
    /// restricted to a block its target bit is constant over.
    Scale(Complex),
}

/// The lane a dense 2×2 runs in: real when all four imaginary parts
/// are exactly zero (the exact-zero test [`classify`] uses), complex
/// otherwise.
fn general(m: &Matrix2) -> Action {
    let m = m.0;
    if m.iter().flatten().all(|z| z.im == 0.0) {
        Action::Real(m.map(|row| row.map(|z| z.re)))
    } else {
        Action::General(m)
    }
}

/// One validated kernel call: what it does and which indices it
/// touches. The touched pairs are enumerated as a [`Subspace`] over the
/// `fixed` bits; the first index of each pair has the `set` bits set,
/// and its partner differs from it in the `flip` bits.
#[derive(Debug, Clone, Copy)]
struct Kernel {
    action: Action,
    /// Controls, target, and a swap's second qubit.
    fixed: usize,
    /// The controls, plus a swap's lower qubit.
    set: usize,
    /// The target, or a swap's two qubits; zero for [`Action::Scale`].
    flip: usize,
}

impl Kernel {
    /// Apply this kernel to `amps`, a slice longer than its highest
    /// fixed bit, chunking its run space across `workers` when more
    /// than one. Returns the number of parallel chunks dispatched.
    ///
    /// Each arm is the one copy of its kernel's arithmetic, a closure
    /// over one amplitude pair (or amplitude) that both the run walk and
    /// the tile walk apply: the whole-state kernel is the one-block case
    /// of a blocked run.
    fn run(&self, amps: &mut [Complex], workers: usize) -> usize {
        match self.action {
            Action::Scale(d) => self.singles(amps, workers, self.set, |a| *a = d * *a),
            // Phase-type gates (`s`, `t`, `phase`, every `cphase` /
            // `ccphase` of the QFT ladders): the |…0⟩ branch is
            // untouched, so only the set branch is multiplied.
            Action::Diagonal(d0, d1) if d0 == Complex::ONE => {
                self.singles(amps, workers, self.set | self.flip, |a| *a = d1 * *a)
            }
            Action::Diagonal(d0, d1) => self.pairs(amps, workers, |a, b| {
                *a = d0 * *a;
                *b = d1 * *b;
            }),
            // Swaps and X-type gates (`x`, CNOT, Toffoli): a pure
            // amplitude permutation, no arithmetic at all.
            Action::Swap => self.pairs(amps, workers, exchange),
            Action::AntiDiagonal(a01, a10) if a01 == Complex::ONE && a10 == Complex::ONE => {
                self.pairs(amps, workers, exchange)
            }
            Action::AntiDiagonal(a01, a10) => self.pairs(amps, workers, |x, y| {
                let a = *x;
                let b = *y;
                *x = a01 * b;
                *y = a10 * a;
            }),
            Action::General(m) => self.pairs(amps, workers, |x, y| {
                let a = *x;
                let b = *y;
                *x = m[0][0] * a + m[0][1] * b;
                *y = m[1][0] * a + m[1][1] * b;
            }),
            Action::Real(m) => self.pairs(amps, workers, |x, y| {
                let a = *x;
                let b = *y;
                x.re = m[0][0] * a.re + m[0][1] * b.re;
                x.im = m[0][0] * a.im + m[0][1] * b.im;
                y.re = m[1][0] * a.re + m[1][1] * b.re;
                y.im = m[1][0] * a.im + m[1][1] * b.im;
            }),
        }
    }

    /// Apply `pair` to every touched amplitude pair: the index with the
    /// `set` bits set and its partner with the `flip` bits toggled, by
    /// the tile walk when [`Tiles::new`] gives one and by the run walk
    /// otherwise.
    fn pairs<F>(&self, amps: &mut [Complex], workers: usize, pair: F) -> usize
    where
        F: Fn(&mut Complex, &mut Complex) + Sync,
    {
        let Some(walk) = Tiles::new(self.fixed, self.set, self.flip, amps.len()) else {
            let count = amps.len() >> self.fixed.count_ones();
            let sub = Subspace::new(self.fixed, self.set, count).capped(RUN_CAP);
            return pair_runs(workers, &sub, self.flip, amps, |r0, r1| {
                for_each_pair(r0, r1, &pair);
            });
        };
        let (tiles, _) = amps.as_chunks_mut::<TILE>();
        let far = self.flip >> TILE_BITS;
        if far == 0 {
            single_runs(workers, &walk.sub, tiles, |run| {
                for tile in run {
                    for [o0, o1] in walk.offsets() {
                        let (mut a, mut b) = (tile[o0], tile[o1]);
                        pair(&mut a, &mut b);
                        (tile[o0], tile[o1]) = (a, b);
                    }
                }
            })
        } else {
            pair_runs(workers, &walk.sub, far, tiles, |run0, run1| {
                for (tile0, tile1) in run0.iter_mut().zip(run1) {
                    for [o0, o1] in walk.offsets() {
                        pair(&mut tile0[o0], &mut tile1[o1]);
                    }
                }
            })
        }
    }

    /// Apply `one` to every touched amplitude: the indices with the
    /// `set` bits set, by the tile walk when [`Tiles::new`] gives one and
    /// by the run walk otherwise.
    fn singles<F>(&self, amps: &mut [Complex], workers: usize, set: usize, one: F) -> usize
    where
        F: Fn(&mut Complex) + Sync,
    {
        let Some(walk) = Tiles::new(self.fixed, set, 0, amps.len()) else {
            let count = amps.len() >> self.fixed.count_ones();
            let sub = Subspace::new(self.fixed, set, count).capped(RUN_CAP);
            return single_runs(workers, &sub, amps, |run| run.iter_mut().for_each(&one));
        };
        let (tiles, _) = amps.as_chunks_mut::<TILE>();
        single_runs(workers, &walk.sub, tiles, |run| {
            for tile in run {
                for [offset, _] in walk.offsets() {
                    one(&mut tile[offset]);
                }
            }
        })
    }

    /// This block-local kernel restricted to the block of `len`
    /// amplitudes at `offset` (a multiple of `len`), with indices
    /// relative to the block, or `None` when it leaves the block
    /// untouched: a control above the block is clear there, or a
    /// phase-type diagonal's target bit is.
    fn in_block(&self, offset: usize, len: usize) -> Option<Kernel> {
        let low = len - 1;
        let high = self.set & !low;
        if offset & high != high {
            return None;
        }
        let mut local = Kernel {
            fixed: self.fixed & low,
            set: self.set & low,
            ..*self
        };
        if self.flip & low == 0 {
            let Action::Diagonal(d0, d1) = self.action else {
                unreachable!("only a diagonal kernel is block-local above the block width");
            };
            local.action = Action::Scale(if offset & self.flip != 0 {
                d1
            } else if d0 == Complex::ONE {
                return None;
            } else {
                d0
            });
            local.flip = 0;
        }
        Some(local)
    }
}

/// Whether `op` is block-local at blocks of `2^block_qubits` amplitudes
/// (see the [module docs](self)).
fn is_block_local(op: &SimOp, block_qubits: usize) -> bool {
    match op.kernel() {
        KernelOp::Diagonal { .. } => true,
        KernelOp::AntiDiagonal { .. } | KernelOp::General(_) => op.target() < block_qubits,
        KernelOp::Swap { other } => op.target() < block_qubits && *other < block_qubits,
    }
}

impl State {
    /// Validate the controls and target of a single-target kernel call.
    fn single_target(&self, controls: &[usize], target: usize, action: Action) -> Kernel {
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
        Kernel {
            action,
            fixed,
            set: cmask,
            flip: 1 << target,
        }
    }

    /// Validate the controls and qubits of a (controlled) swap.
    fn swap_kernel(&self, controls: &[usize], a: usize, b: usize) -> Kernel {
        self.check_qubit(a);
        self.check_qubit(b);
        assert!(a != b, "swap targets must differ");
        let lo_mask = 1usize << a.min(b);
        let hi_mask = 1usize << a.max(b);
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
        // Representative run: controls 1, low bit 1, high bit 0 —
        // exchanged with the run at low bit 0, high bit 1.
        Kernel {
            action: Action::Swap,
            fixed,
            set: cmask | lo_mask,
            flip: lo_mask | hi_mask,
        }
    }

    /// Validate a lowered op and build its kernel.
    fn kernel_for(&self, op: &SimOp) -> Kernel {
        let (controls, target) = (op.controls(), op.target());
        match op.kernel() {
            KernelOp::Diagonal { d0, d1 } => {
                self.single_target(controls, target, Action::Diagonal(*d0, *d1))
            }
            KernelOp::AntiDiagonal { a01, a10 } => {
                self.single_target(controls, target, Action::AntiDiagonal(*a01, *a10))
            }
            KernelOp::General(m) => self.single_target(controls, target, general(m)),
            KernelOp::Swap { other } => self.swap_kernel(controls, target, *other),
        }
    }

    /// Count one kernel call: a gate op, and an index op per pair (run
    /// representative) it touches.
    fn record_kernel(&mut self, kernel: &Kernel) {
        self.record_gate_op();
        self.record_index_ops((self.dim() >> kernel.fixed.count_ones()) as u64);
    }

    /// Count a validated kernel call and apply it to the whole state.
    fn apply_kernel(&mut self, kernel: Kernel) {
        self.record_kernel(&kernel);
        let workers = self.kernel_workers();
        let chunks = kernel.run(self.amps_mut(), workers);
        if chunks > 0 {
            self.record_par_chunks(chunks as u64);
        }
    }

    /// Apply one lowered op through its per-op kernel.
    pub(crate) fn apply_sim_op(&mut self, op: &SimOp) {
        let kernel = self.kernel_for(op);
        self.apply_kernel(kernel);
    }

    /// Apply `ops` in order, running maximal runs of ops that are
    /// block-local at `2^block_qubits` amplitudes block by block and
    /// every other op through its per-op kernel (see the
    /// [module docs](self)). Bit-for-bit per-op application, with the
    /// same [`gate_ops`](State::gate_ops) and
    /// [`index_ops`](State::index_ops); the block width is a parameter
    /// so tests can block small states.
    pub(crate) fn apply_ops_blocked(&mut self, ops: &[SimOp], block_qubits: usize) {
        debug_assert!(
            block_qubits <= self.num_qubits(),
            "blocks wider than the state"
        );
        let mut rest = ops;
        while let Some((op, tail)) = rest.split_first() {
            let local = rest
                .iter()
                .take_while(|op| is_block_local(op, block_qubits))
                .count();
            if local == 0 {
                self.apply_sim_op(op);
                rest = tail;
            } else {
                let (run, tail) = rest.split_at(local);
                self.apply_block_run(run, block_qubits);
                rest = tail;
            }
        }
    }

    /// Apply a run of block-local ops block by block: every op is
    /// validated and counted first, then each block gets the whole run
    /// before the next block is touched. On an opted-in state the
    /// blocks fan out across workers with one dispatch for the run.
    fn apply_block_run(&mut self, run: &[SimOp], block_qubits: usize) {
        let kernels: Vec<Kernel> = run
            .iter()
            .map(|op| {
                let kernel = self.kernel_for(op);
                self.record_kernel(&kernel);
                kernel
            })
            .collect();
        let len = 1usize << block_qubits;
        let blocks = self.dim() >> block_qubits;
        let apply_block = |index: usize, block: &mut [Complex]| {
            let offset = index << block_qubits;
            for kernel in &kernels {
                if let Some(local) = kernel.in_block(offset, len) {
                    local.run(block, 1);
                }
            }
        };
        let workers = self.kernel_workers();
        let amps = self.amps_mut();
        if workers > 1 && blocks > 1 {
            let shared = SharedAmps(amps.as_mut_ptr());
            let chunks = rayon::dispatch_chunks(blocks, |chunk| {
                for index in chunk {
                    // SAFETY: this chunk owns blocks
                    // `chunk.start..chunk.end` exclusively, and blocks
                    // are disjoint (see `SharedAmps`).
                    apply_block(index, unsafe { shared.run(index << block_qubits, len) });
                }
            });
            self.record_par_chunks(chunks as u64);
        } else {
            for (index, block) in amps.chunks_exact_mut(len).enumerate() {
                apply_block(index, block);
            }
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::SimBackend;
    use crate::gates;
    use crate::state::State;

    fn diagonal_op(controls: &[usize], target: usize, d0: Complex, d1: Complex) -> SimOp {
        SimOp::new(controls.to_vec(), target, KernelOp::Diagonal { d0, d1 })
    }

    fn antidiagonal_op(controls: &[usize], target: usize, a01: Complex, a10: Complex) -> SimOp {
        SimOp::new(
            controls.to_vec(),
            target,
            KernelOp::AntiDiagonal { a01, a10 },
        )
    }

    fn general_op(controls: &[usize], target: usize, m: &Matrix2) -> SimOp {
        SimOp::new(controls.to_vec(), target, KernelOp::General(*m))
    }

    fn swap_op(controls: &[usize], a: usize, b: usize) -> SimOp {
        SimOp::new(controls.to_vec(), a, KernelOp::Swap { other: b })
    }

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
            fast.apply_op(&diagonal_op(&controls, 2, g.0[0][0], g.0[1][1]));
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
            fast.apply_op(&antidiagonal_op(&controls, 1, g.0[0][1], g.0[1][0]));
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
            fast.apply_op(&general_op(&controls, 2, &g));
            let mut reference = dense_state();
            reference.apply_controlled_1q(&controls, 2, &g);
            assert_bits_identical(&fast, &reference);
        }
    }

    #[test]
    fn real_lane_matches_generic_values() {
        for g in [gates::h(), gates::ry(0.37), gates::ry(-2.1)] {
            assert!(matches!(general(&g), Action::Real(_)));
            for controls in [vec![], vec![0], vec![0, 3]] {
                let mut fast = dense_state();
                fast.apply_op(&general_op(&controls, 2, &g));
                let mut reference = dense_state();
                reference.apply_controlled_1q(&controls, 2, &g);
                assert_eq!(fast, reference, "controls {controls:?}");
                for (a, b) in fast.probabilities().iter().zip(&reference.probabilities()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "controls {controls:?}");
                }
            }
        }
        assert!(matches!(
            general(&gates::u3(0.3, 1.1, -0.4)),
            Action::General(_)
        ));
    }

    #[test]
    fn subspace_swap_is_bit_identical() {
        for controls in [vec![], vec![2], vec![2, 3]] {
            let mut fast = dense_state();
            fast.apply_op(&swap_op(&controls, 0, 1));
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
        ab.apply_op(&swap_op(&[3], 0, 2));
        let mut ba = dense_state();
        ba.apply_op(&swap_op(&[3], 2, 0));
        assert_bits_identical(&ab, &ba);
    }

    #[test]
    fn kernels_do_reduced_index_work() {
        // n = 4 (dim = 16). Generic controlled scan: 8 candidates
        // regardless of controls; subspace kernels shrink with each
        // control. Generic swap scans 16; subspace swap visits 4.
        let mut s = dense_state();
        s.apply_op(&general_op(&[], 0, &gates::h()));
        assert_eq!(s.index_ops(), 8); // same as apply_1q: all pairs
        s.apply_op(&general_op(&[1], 0, &gates::h()));
        assert_eq!(s.index_ops(), 8 + 4);
        s.apply_op(&general_op(&[1, 2], 0, &gates::h())); // Toffoli shape
        assert_eq!(s.index_ops(), 8 + 4 + 2);
        s.apply_op(&diagonal_op(&[1, 2], 0, Complex::ONE, Complex::I));
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2);
        s.apply_op(&antidiagonal_op(&[3], 0, Complex::ONE, Complex::ONE));
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4);
        s.apply_op(&swap_op(&[], 0, 1));
        assert_eq!(s.index_ops(), 8 + 4 + 2 + 2 + 4 + 4);
        s.apply_op(&swap_op(&[2], 0, 1)); // Fredkin shape
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
            s.apply_op(&antidiagonal_op(&[0, 1], 2, Complex::ONE, Complex::ONE));
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
                s.apply_op(&general_op(&[], q, &gates::h()));
            }
            let t = gates::t();
            s.apply_op(&diagonal_op(&[], 3, t.0[0][0], t.0[1][1]));
            let rz = gates::rz(0.9);
            s.apply_op(&diagonal_op(&[5], 9, rz.0[0][0], rz.0[1][1]));
            s.apply_op(&diagonal_op(&[2], 15, rz.0[0][0], rz.0[1][1]));
            s.apply_op(&antidiagonal_op(&[1], 14, Complex::ONE, Complex::ONE));
            let y = gates::y();
            s.apply_op(&antidiagonal_op(&[], 7, y.0[0][1], y.0[1][0]));
            s.apply_op(&general_op(&[0, 8], 12, &gates::u3(0.3, 1.1, -0.4)));
            s.apply_op(&swap_op(&[4], 6, 13));
            s.apply_op(&swap_op(&[], 0, 15));
        };
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let mut serial = State::zero(16);
        drive(&mut serial);
        let mut chunked = State::zero(16);
        chunked.set_intra_parallel(true);
        drive(&mut chunked);
        // A lone `h` on the top qubit is one uncapped run; capped, it
        // chunks even at two workers.
        std::env::set_var("RAYON_NUM_THREADS", "2");
        let mut top = spread_state(16);
        top.set_intra_parallel(true);
        top.apply_op(&general_op(&[], 15, &gates::h()));
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_bits_identical(&serial, &chunked);
        assert_eq!(serial.par_chunks(), 0);
        assert!(chunked.par_chunks() > 0, "chunking never engaged");
        assert_eq!(serial.index_ops(), chunked.index_ops());
        assert_eq!(serial.gate_ops(), chunked.gate_ops());
        assert!(top.par_chunks() >= 2, "{} chunks", top.par_chunks());
        let mut top_serial = spread_state(16);
        top_serial.apply_op(&general_op(&[], 15, &gates::h()));
        assert_bits_identical(&top_serial, &top);

        // The serial drive is the interpreter's state.
        let mut interpreted = State::zero(16);
        for q in 0..16 {
            interpreted.apply_controlled_1q(&[], q, &gates::h());
        }
        let rz = gates::rz(0.9);
        interpreted.apply_controlled_1q(&[], 3, &gates::t());
        interpreted.apply_controlled_1q(&[5], 9, &rz);
        interpreted.apply_controlled_1q(&[2], 15, &rz);
        interpreted.apply_controlled_1q(&[1], 14, &gates::x());
        interpreted.apply_controlled_1q(&[], 7, &gates::y());
        interpreted.apply_controlled_1q(&[0, 8], 12, &gates::u3(0.3, 1.1, -0.4));
        interpreted.apply_controlled_swap(&[4], 6, 13);
        interpreted.apply_controlled_swap(&[], 0, 15);
        assert_eq!(serial, interpreted);
        let mut top_interpreted = spread_state(16);
        top_interpreted.apply_controlled_1q(&[], 15, &gates::h());
        assert_eq!(top_serial, top_interpreted);
    }

    /// A state on `n` qubits with every amplitude nonzero and distinct
    /// phases, counters reset.
    fn spread_state(n: usize) -> State {
        let mut s = State::zero(n);
        for q in 0..n {
            s.apply_1q(q, &gates::h());
            s.apply_1q(q, &gates::rz(0.3 + q as f64));
        }
        s.reset_gate_ops();
        s.reset_index_ops();
        s
    }

    /// The kernel lowering picks for `g` (as `qdb-circuit` lowers it).
    fn lowered(g: &Matrix2) -> KernelOp {
        match classify(g) {
            MatrixClass::Diagonal => KernelOp::Diagonal {
                d0: g.0[0][0],
                d1: g.0[1][1],
            },
            MatrixClass::AntiDiagonal => KernelOp::AntiDiagonal {
                a01: g.0[0][1],
                a10: g.0[1][0],
            },
            MatrixClass::General => KernelOp::General(*g),
        }
    }

    /// Every set of at most two controls on `n` qubits that avoids
    /// `taken`.
    fn control_sets(n: usize, taken: &[usize]) -> Vec<Vec<usize>> {
        let free: Vec<usize> = (0..n).filter(|q| !taken.contains(q)).collect();
        let mut sets = vec![vec![]];
        for (i, &a) in free.iter().enumerate() {
            sets.push(vec![a]);
            sets.extend(free[i + 1..].iter().map(|&b| vec![a, b]));
        }
        sets
    }

    #[test]
    fn tile_walk_matches_the_interpreter_at_every_low_placement() {
        // Every kernel kind: phase-type and general diagonals, `x` and
        // `y`, complex and real 2×2s, and (below) swaps.
        let matrices = [
            gates::phase(0.7),
            gates::rz(0.9),
            gates::x(),
            gates::y(),
            gates::u3(0.3, 1.1, -0.4),
            gates::ry(0.37),
        ];
        // 3 qubits are exactly one tile, and from 7 on the tile runs
        // are capped; 1 and 2 qubits keep the run walk.
        for n in [1, 2, 3, 4, 6, 7] {
            let start = spread_state(n);
            let mut placements = 0;
            let mut check = |op: SimOp, reference: State| {
                let mut fast = start.clone();
                let kernel = fast.kernel_for(&op);
                if kernel.fixed.trailing_zeros() as usize >= TILE_BITS {
                    return;
                }
                let tiled = Tiles::new(kernel.fixed, kernel.set, kernel.flip, fast.dim());
                assert_eq!(tiled.is_some(), n >= TILE_BITS, "{op:?} on {n} qubits");
                fast.apply_op(&op);
                assert_eq!(fast, reference, "{op:?} on {n} qubits");
                for (a, b) in fast.probabilities().iter().zip(&reference.probabilities()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "{op:?} on {n} qubits");
                }
                let pairs = 1u64 << (n - kernel.fixed.count_ones() as usize);
                assert_eq!(fast.index_ops(), pairs, "{op:?} on {n} qubits");
                placements += 1;
            };
            for target in 0..n {
                for controls in control_sets(n, &[target]) {
                    for g in &matrices {
                        let mut reference = start.clone();
                        reference.apply_controlled_1q(&controls, target, g);
                        check(SimOp::new(controls.clone(), target, lowered(g)), reference);
                    }
                }
                // Swaps in both qubit orders, including ones with a
                // qubit on each side of the tile width.
                for other in (0..n).filter(|&q| q != target) {
                    for controls in control_sets(n, &[target, other]) {
                        let mut reference = start.clone();
                        reference.apply_controlled_swap(&controls, target, other);
                        check(swap_op(&controls, target, other), reference);
                    }
                }
            }
            assert!(placements > 0, "{n} qubits");
        }
    }

    /// A seeded batch of `len` lowered ops on `n ≥ 4` qubits covering
    /// every kernel — phase-type and general diagonals, `x` and `y`,
    /// complex and real 2×2s, swaps — each with up to two controls
    /// anywhere in the register.
    fn random_ops(n: usize, len: usize, seed: u64) -> Vec<SimOp> {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let mut qubits: Vec<usize> = (0..n).collect();
                for i in 0..4 {
                    let j = rng.gen_range(i..n);
                    qubits.swap(i, j);
                }
                let controls = qubits[2..2 + rng.gen_range(0..3)].to_vec();
                let theta = rng.gen_range(-3.0..3.0);
                let diagonal = |g: Matrix2| KernelOp::Diagonal {
                    d0: g.0[0][0],
                    d1: g.0[1][1],
                };
                let antidiagonal = |g: Matrix2| KernelOp::AntiDiagonal {
                    a01: g.0[0][1],
                    a10: g.0[1][0],
                };
                let kernel = match rng.gen_range(0..8u8) {
                    0 => diagonal(gates::phase(theta)),
                    1 => diagonal(gates::rz(theta)),
                    2 => antidiagonal(gates::x()),
                    3 => antidiagonal(gates::y()),
                    4 => KernelOp::General(gates::u3(theta, 1.1, -0.4)),
                    5 => KernelOp::General(gates::h()),
                    6 => KernelOp::General(gates::ry(theta)),
                    _ => KernelOp::Swap { other: qubits[1] },
                };
                SimOp::new(controls, qubits[0], kernel)
            })
            .collect()
    }

    /// Apply a random batch per op and as blocked runs at every block
    /// width `1..=n` (on an opted-in state when `intra`), asserting
    /// bit-identical amplitudes and identical gate and index counts.
    /// Returns the parallel chunks the blocked passes dispatched.
    fn check_blocked_runs(n: usize, seed: u64, intra: bool) -> u64 {
        let ops = random_ops(n, 80, seed);
        // The batch exercises the block-local rule's every case at a
        // middle width: diagonals above the boundary, in-block swaps,
        // and controls on both sides of it.
        let mid = n / 2;
        assert!(ops
            .iter()
            .any(|op| { matches!(op.kernel(), KernelOp::Diagonal { .. }) && op.target() >= mid }));
        assert!(ops.iter().any(
            |op| matches!(op.kernel(), KernelOp::Swap { other } if op.target().max(*other) < mid)
        ));
        assert!(ops.iter().any(|op| {
            is_block_local(op, mid)
                && op.controls().iter().any(|&c| c < mid)
                && op.controls().iter().any(|&c| c >= mid)
        }));
        // It also takes the tile walk in every shape: a target below
        // the tile width, a low control with a target above it, a
        // phase-type diagonal with a low control, and a swap with one
        // qubit on each side of the tile width.
        let low = |q: usize| q < TILE_BITS;
        assert!(ops.iter().any(|op| low(op.target())));
        assert!(ops
            .iter()
            .any(|op| !low(op.target()) && op.controls().iter().any(|&c| low(c))));
        assert!(ops.iter().any(|op| {
            matches!(op.kernel(), KernelOp::Diagonal { d0, .. } if *d0 == Complex::ONE)
                && op.controls().iter().any(|&c| low(c))
        }));
        assert!(ops.iter().any(
            |op| matches!(op.kernel(), KernelOp::Swap { other } if low(op.target()) != low(*other))
        ));
        let mut reference = spread_state(n);
        for op in &ops {
            reference.apply_op(op);
        }
        let mut chunks = 0;
        for width in 1..=n {
            let mut blocked = spread_state(n);
            blocked.set_intra_parallel(intra);
            blocked.apply_ops_blocked(&ops, width);
            for i in 0..reference.dim() {
                let (a, b) = (reference.amplitude(i), blocked.amplitude(i));
                assert_eq!(a.re.to_bits(), b.re.to_bits(), "width {width}, re at {i}");
                assert_eq!(a.im.to_bits(), b.im.to_bits(), "width {width}, im at {i}");
            }
            assert_eq!(reference.gate_ops(), blocked.gate_ops(), "width {width}");
            assert_eq!(reference.index_ops(), blocked.index_ops(), "width {width}");
            chunks += blocked.par_chunks();
        }
        chunks
    }

    #[test]
    fn blocked_runs_match_per_op_application() {
        for (n, seed) in [(4, 1), (6, 2), (6, 3), (9, 4)] {
            check_blocked_runs(n, seed, false);
        }
    }

    #[test]
    fn blocked_runs_are_bit_identical_at_any_thread_count() {
        let _guard = ENV_LOCK.lock().unwrap();
        for threads in [1, 2, 4] {
            std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
            check_blocked_runs(6, 5, true);
            // At the chunking threshold every width below it fans out.
            let chunks = check_blocked_runs(INTRA_PAR_MIN_QUBITS, 6, true);
            assert_eq!(chunks > 0, threads > 1, "{threads} threads");
        }
        std::env::remove_var("RAYON_NUM_THREADS");
    }

    #[test]
    fn small_states_stay_serial_even_when_opted_in() {
        let _guard = ENV_LOCK.lock().unwrap();
        std::env::set_var("RAYON_NUM_THREADS", "4");
        let mut s = dense_state(); // 4 qubits, far below the threshold
        s.set_intra_parallel(true);
        s.apply_op(&general_op(&[], 0, &gates::h()));
        s.apply_op(&diagonal_op(&[], 1, Complex::ONE, Complex::I));
        s.apply_op(&swap_op(&[], 0, 1));
        std::env::remove_var("RAYON_NUM_THREADS");
        assert_eq!(s.par_chunks(), 0);
    }

    #[test]
    #[should_panic(expected = "used twice")]
    fn duplicate_control_panics() {
        dense_state().apply_op(&general_op(&[1, 1], 0, &gates::x()));
    }

    #[test]
    #[should_panic(expected = "control 0 equals target")]
    fn control_equals_target_panics() {
        dense_state().apply_op(&diagonal_op(&[0], 0, Complex::ONE, Complex::I));
    }

    #[test]
    #[should_panic(expected = "swap targets must differ")]
    fn swap_same_qubit_panics() {
        dense_state().apply_op(&swap_op(&[], 1, 1));
    }

    #[test]
    #[should_panic(expected = "overlaps swap target")]
    fn swap_control_overlap_panics() {
        dense_state().apply_op(&swap_op(&[0], 0, 1));
    }
}
