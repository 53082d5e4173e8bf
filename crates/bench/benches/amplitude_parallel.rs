//! Amplitude-parallel kernels and packed suffix replay — the two new
//! parallel axes, cross-checked on every run and timed under `--bench`.
//!
//! **Kernels** (`amplitude_parallel/kernels_n18`): an 18-qubit
//! rotation/Toffoli-heavy compiled circuit applied to one statevector,
//! serial vs intra-parallel ([`State::set_intra_parallel`]). The
//! chunked kernels promise bit-identity — each worker owns a disjoint
//! slice of runs and walks the same pairs in the same order with the
//! same arithmetic — so every run (smoke mode included) compares the
//! two final states amplitude by amplitude, to the last bit. With ≥ 2
//! effective workers the `--bench` mode asserts the parallel pass beats
//! serial by the speedup the shared [`qdb_bench::multicore_gate`] sets
//! for the worker count (≥ 2× with 4 or more, ≥ 1.2× with 2–3);
//! single-worker hosts skip.
//!
//! **Packed replay** (`amplitude_parallel/packed_{shor_n15,grover}`):
//! the noisy trajectory tree with `pack_width` 8 vs 1 (packing
//! disabled). Reports must be bit-identical — packing only regroups
//! *which buffer* a suffix replay writes through, never the arithmetic
//! — and the pack census (`packs_leased`, `packed_lanes`) must show the
//! packs genuinely formed. The decode-amortization win is recorded into
//! `BENCH_results.json` (`pack_width`, `packs_leased`, `speedup`)
//! rather than asserted: unlike the thread axes it is a constant-factor
//! cache effect, meaningful to track, too host-sensitive to gate on.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_algos::grover::{grover_program, optimal_iterations, GroverStyle};
use qdb_algos::shor::{shor_program, ShorConfig};
use qdb_algos::{ControlRouting, Gf2m};
use qdb_circuit::{Circuit, CompiledCircuit, GateSink, OptLevel, Program};
use qdb_core::{EnsembleConfig, EnsembleRunner, NoisySessionStats};
use qdb_sim::{NoiseModel, State};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::time::Instant;

/// 18 qubits: past `INTRA_PAR_MIN_QUBITS` (15), so the `Auto` policy
/// and a bare `set_intra_parallel(true)` both chunk, and one pass
/// (2¹⁸ amplitudes × hundreds of gates) is long enough to time.
const KERNEL_QUBITS: usize = 18;
const KERNEL_GATES: usize = 220;

/// Deterministic rotation/Toffoli-heavy circuit at statevector scale —
/// the same gate mix as the `gate_kernels` bench, six qubits bigger, so
/// the work lands in the chunked subspace kernels (diagonal,
/// anti-diagonal, general 2×2, swap).
fn kernel_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(0xA11CE);
    let mut c = Circuit::new(KERNEL_QUBITS);
    for q in 0..KERNEL_QUBITS {
        c.h(q);
    }
    for _ in 0..KERNEL_GATES - KERNEL_QUBITS {
        let a = rng.gen_range(0..KERNEL_QUBITS);
        let b = (a + rng.gen_range(1..KERNEL_QUBITS)) % KERNEL_QUBITS;
        let mut e = rng.gen_range(0..KERNEL_QUBITS);
        while e == a || e == b {
            e = (e + 1) % KERNEL_QUBITS;
        }
        let theta = rng.gen_range(-3.0..3.0);
        match rng.gen_range(0..12u8) {
            0 => c.rz(a, theta),
            1 => c.t(a),
            2 => c.x(a),
            3..=5 => c.cphase(a, b, theta),
            6 | 7 => c.ccphase(a, b, e, theta),
            8 | 9 => c.ccx(a, b, e),
            _ => c.cswap(a, b, e),
        }
    }
    c
}

/// One full compiled pass over a fresh `|0…0⟩` state with the given
/// intra-state setting.
fn kernel_pass(plan: &CompiledCircuit, intra: bool) -> State {
    let mut state = State::zero(KERNEL_QUBITS);
    state.set_intra_parallel(intra);
    plan.apply_to(&mut state);
    state
}

/// Median per-iteration seconds over `samples` timed batches.
fn time_median(samples: usize, mut routine: impl FnMut()) -> f64 {
    let mut timings: Vec<f64> = (0..samples)
        .map(|_| {
            let start = Instant::now();
            routine();
            start.elapsed().as_secs_f64()
        })
        .collect();
    timings.sort_by(|a, b| a.partial_cmp(b).expect("finite timings"));
    timings[timings.len() / 2]
}

/// Shor (paper §4.6, N = 15) — the flagship of the `noisy_trajectory`
/// bench, here at a noise rate an order denser (5·10⁻⁴): packing pays
/// off exactly when sibling forks crowd the same suffix window, which
/// needs enough distinct faulty trajectories per breakpoint for first
/// faults to land within `PACK_WINDOW` ops of each other.
fn shor_case() -> (Program, EnsembleConfig) {
    let (program, _) = shor_program(
        &ShorConfig::paper_n15(),
        ControlRouting::Correct,
        &Vec::new(),
    );
    let config = EnsembleConfig::default()
        .with_shots(48)
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(5e-4).with_readout_flip(1e-3));
    (program, config)
}

/// Grover over GF(2³) (paper §5.1): smaller circuit, bigger ensemble,
/// denser fork population per window.
fn grover_case() -> (Program, EnsembleConfig) {
    let field = Gf2m::standard(3);
    let (program, _) = grover_program(
        &field,
        6,
        GroverStyle::Manual,
        optimal_iterations(field.order()),
    );
    let config = EnsembleConfig::default()
        .with_shots(256)
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(2e-4).with_readout_flip(1e-3));
    (program, config)
}

/// Run the trajectory tree at `pack_width`, returning reports + stats.
fn packed_session(
    program: &Program,
    config: &EnsembleConfig,
    pack_width: usize,
) -> (Vec<qdb_core::AssertionReport>, NoisySessionStats) {
    let (reports, stats) = EnsembleRunner::new(config.with_pack_width(pack_width))
        .check_program_stats(program)
        .expect("noisy tree session");
    (reports, stats.expect("noisy sweep sessions trace the tree"))
}

/// Packed (width 8) vs unpacked (width 1) sessions must agree bit for
/// bit, and the packs must genuinely form on these ensembles.
fn cross_check_packed(name: &str, program: &Program, config: &EnsembleConfig) -> NoisySessionStats {
    let (packed, stats) = packed_session(program, config, 8);
    let (solo, solo_stats) = packed_session(program, config, 1);
    assert_eq!(packed.len(), solo.len(), "{name}: report count");
    for (p, s) in packed.iter().zip(&solo) {
        assert_eq!(p.verdict, s.verdict, "{name}: packed/solo verdicts diverge");
        assert_eq!(p.statistic.to_bits(), s.statistic.to_bits(), "{name}");
        assert_eq!(p.p_value.to_bits(), s.p_value.to_bits(), "{name}");
        assert_eq!(p.histogram, s.histogram, "{name}");
    }
    assert_eq!(solo_stats.packs_leased, 0, "{name}: width 1 must not pack");
    assert!(
        stats.packs_leased > 0 && stats.packed_lanes >= 2 * stats.packs_leased,
        "{name}: packs did not form (leased {}, lanes {})",
        stats.packs_leased,
        stats.packed_lanes
    );
    // Packing regroups buffers; dedup and fault-free serving must not
    // change, and the replay census may only grow by the documented
    // bound: each packed lane replays at most `PACK_WINDOW` extra trunk
    // ops (its distance behind the pack leader).
    let mut inflation = 0u64;
    for (p, s) in stats.per_breakpoint.iter().zip(&solo_stats.per_breakpoint) {
        assert_eq!(p.unique_trajectories, s.unique_trajectories, "{name}");
        assert_eq!(p.fault_free_shots, s.fault_free_shots, "{name}");
        assert!(
            p.replayed_ops >= s.replayed_ops,
            "{name}: packing lost work"
        );
        inflation += p.replayed_ops - s.replayed_ops;
    }
    assert!(
        inflation <= (qdb_core::trajectory::PACK_WINDOW * stats.packed_lanes) as u64,
        "{name}: census inflation {inflation} exceeds window × lanes"
    );
    stats
}

fn bench_amplitude_parallel(c: &mut Criterion) {
    let labels = [
        "amplitude_parallel/kernels_n18",
        "amplitude_parallel/packed_shor_n15",
        "amplitude_parallel/packed_grover",
    ];
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if let Some(f) = &filter {
        if !labels.iter().any(|label| label.contains(f.as_str())) {
            return;
        }
    }
    let bench_mode = std::env::args().any(|arg| arg == "--bench");
    let runs = |label: &str| {
        filter
            .as_deref()
            .is_none_or(|f| label.contains(f) || f.contains("amplitude_parallel"))
    };

    // ── Case 1: intra-state chunked kernels on one 18-qubit state ──
    if runs("amplitude_parallel/kernels_n18") {
        let plan = kernel_circuit().compile(OptLevel::Specialize);
        let serial = kernel_pass(&plan, false);
        let parallel = kernel_pass(&plan, true);
        // The whole contract: bit-identical amplitudes, any thread count.
        assert_eq!(serial.dim(), parallel.dim());
        for i in 0..serial.dim() {
            let (a, b) = (serial.amplitude(i), parallel.amplitude(i));
            assert_eq!(a.re.to_bits(), b.re.to_bits(), "amp {i} re diverged");
            assert_eq!(a.im.to_bits(), b.im.to_bits(), "amp {i} im diverged");
        }
        assert_eq!(serial.par_chunks(), 0, "serial pass must not chunk");
        let workers = qdb_bench::effective_workers();
        if workers >= 2 {
            assert!(
                parallel.par_chunks() > 0,
                "intra-parallel pass never chunked with {workers} workers"
            );
        }
        println!(
            "amplitude_parallel kernels_n18: {} compiled ops on {KERNEL_QUBITS} qubits, \
             {} chunks dispatched ({workers} workers)",
            plan.ops().len(),
            parallel.par_chunks()
        );
        criterion::record_metric(
            "amplitude_parallel/kernels_n18",
            "chunk_count",
            parallel.par_chunks() as f64,
        );

        if bench_mode {
            if let Some((workers, required)) =
                qdb_bench::multicore_gate("amplitude_parallel kernels_n18 speedup check")
            {
                let serial_s = time_median(5, || {
                    std::hint::black_box(kernel_pass(&plan, false));
                });
                let parallel_s = time_median(5, || {
                    std::hint::black_box(kernel_pass(&plan, true));
                });
                let speedup = serial_s / parallel_s;
                println!(
                    "amplitude_parallel kernels_n18: {speedup:.2}x with {workers} workers \
                     ({:.1} ms serial vs {:.1} ms parallel)",
                    serial_s * 1e3,
                    parallel_s * 1e3
                );
                criterion::record_metric("amplitude_parallel/kernels_n18", "speedup", speedup);
                assert!(
                    speedup >= required,
                    "intra-state kernels must be ≥{required:.1}x serial with {workers} workers, \
                     got {speedup:.2}x"
                );
            }
        }

        let mut group = c.benchmark_group("amplitude_parallel");
        group.sample_size(10);
        for intra in [false, true] {
            let label = if intra {
                "kernels_n18_intra"
            } else {
                "kernels_n18_serial"
            };
            group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
                b.iter(|| kernel_pass(&plan, intra));
            });
        }
        group.finish();
    }

    // ── Case 2: packed suffix replay on the noisy flagship ensembles ──
    let cases: [(&str, (Program, EnsembleConfig)); 2] =
        [("shor_n15", shor_case()), ("grover", grover_case())];
    for (name, (program, config)) in cases {
        let label = format!("amplitude_parallel/packed_{name}");
        if !runs(&label) {
            continue;
        }
        let stats = cross_check_packed(name, &program, &config);
        println!(
            "amplitude_parallel packed_{name}: {} packs, {} lanes \
             (mean width {:.1})",
            stats.packs_leased,
            stats.packed_lanes,
            stats.packed_lanes as f64 / stats.packs_leased as f64
        );
        criterion::record_metric(&label, "pack_width", 8.0);
        criterion::record_metric(&label, "packs_leased", stats.packs_leased as f64);
        criterion::record_metric(&label, "packed_lanes", stats.packed_lanes as f64);

        if bench_mode {
            let packed_s = time_median(3, || {
                std::hint::black_box(packed_session(&program, &config, 8));
            });
            let solo_s = time_median(3, || {
                std::hint::black_box(packed_session(&program, &config, 1));
            });
            let speedup = solo_s / packed_s;
            println!(
                "amplitude_parallel packed_{name}: {speedup:.2}x over unpacked replay \
                 ({:.1} ms vs {:.1} ms)",
                packed_s * 1e3,
                solo_s * 1e3
            );
            criterion::record_metric(&label, "speedup", speedup);
        }

        let mut group = c.benchmark_group(format!("amplitude_parallel_packed_{name}"));
        group.sample_size(10);
        for width in [1usize, 8] {
            let bench_label = if width == 1 { "solo" } else { "packed" };
            group.bench_with_input(BenchmarkId::from_parameter(bench_label), &(), |b, ()| {
                b.iter(|| packed_session(&program, &config, width));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_amplitude_parallel);
criterion_main!(benches);
