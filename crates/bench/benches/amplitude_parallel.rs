//! Amplitude-parallel kernels, cross-checked on every run and timed
//! under `--bench`.
//!
//! `amplitude_parallel/kernels_n18` applies an 18-qubit
//! rotation/Toffoli-heavy compiled circuit to one statevector, serial
//! vs intra-parallel ([`State::set_intra_parallel`]). The chunked
//! kernels promise bit-identity — each worker owns a disjoint slice of
//! runs and walks the same pairs in the same order with the same
//! arithmetic — so every run (smoke mode included) compares the two
//! final states amplitude by amplitude, to the last bit. With ≥ 2
//! effective workers the `--bench` mode times the two sides in
//! alternating passes ([`qdb_bench::interleaved_medians`]) and asserts
//! the parallel median beats the serial one by the speedup the shared
//! [`qdb_bench::multicore_gate`] sets for the worker count (≥ 2× with 4
//! or more, ≥ 1.2× with 2–3); single-worker hosts skip.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_circuit::{Circuit, CompiledCircuit, GateSink, OptLevel};
use qdb_sim::State;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// 18 qubits: past `INTRA_PAR_MIN_QUBITS` (15), so a session with
/// `parallel` on and a bare `set_intra_parallel(true)` both chunk, and
/// one pass (2¹⁸ amplitudes × hundreds of gates) is long enough to
/// time.
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

fn bench_amplitude_parallel(c: &mut Criterion) {
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if filter
        .as_deref()
        .is_some_and(|f| !"amplitude_parallel/kernels_n18".contains(f))
    {
        return;
    }
    let bench_mode = std::env::args().any(|arg| arg == "--bench");

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
            let (serial_s, parallel_s) = qdb_bench::interleaved_medians(
                9,
                || {
                    std::hint::black_box(kernel_pass(&plan, false));
                },
                || {
                    std::hint::black_box(kernel_pass(&plan, true));
                },
            );
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

criterion_group!(benches, bench_amplitude_parallel);
criterion_main!(benches);
