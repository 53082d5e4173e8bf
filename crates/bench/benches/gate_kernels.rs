//! Compiled gate kernels vs the interpreted reference path.
//!
//! The interpreted path (`Circuit::apply_to`) rebuilds every gate
//! matrix (`sin`/`cos` per rotation application) and routes controlled
//! gates and swaps through mask-filtering scans of the full index
//! space. The compiled path (`CompiledCircuit`) precomputes each matrix
//! once and dispatches to kernels that enumerate only the
//! control-satisfying subspace.
//!
//! This bench pins a rotation/Toffoli-heavy circuit, proves the two
//! paths agree (value-identical state, bit-identical probabilities,
//! equal gate counts) and that the compiled path provably does less
//! index work, then times both. **In full measurement mode the ≥2×
//! wall-clock claim is asserted, not just reported** (single-core; no
//! parallelism is involved in either path), on medians of alternating
//! interpreted and compiled passes ([`qdb_bench::interleaved_medians`]).
//!
//! The per-bit rows (`gate_kernels/{x,h,cx,toffoli}/{0,1,2,5}`) time one
//! gate on a 20-qubit state, serially, with its lowest fixed bit (a
//! control or the target) at 0, 1, 2 or 5: a batch of 64 copies runs as
//! one blocked run, so a row is the kernel's cost on an L2-resident
//! block, and a row's time divided by 64 is the cost of one op. Bits 0,
//! 1 and 2 lie inside one 8-amplitude tile; bit 5 walks runs of 32
//! amplitudes. Every run, smoke mode included, checks each row's gate
//! against the interpreted path first (value-identical state,
//! bit-identical probabilities, equal gate counts).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_circuit::{Circuit, GateSink, OptLevel};
use qdb_sim::State;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const NUM_QUBITS: usize = 12;
const NUM_GATES: usize = 600;

/// Deterministic pseudo-random circuit shaped like the paper's
/// arithmetic kernels: dominated by phase rotations (QFT-style `cphase`
/// / `ccphase` ladders), Toffolis, and Fredkin swaps, with enough `h`
/// to keep every amplitude populated.
fn rotation_toffoli_circuit() -> Circuit {
    let mut rng = StdRng::seed_from_u64(0xC0DE5);
    let mut c = Circuit::new(NUM_QUBITS);
    for q in 0..NUM_QUBITS {
        c.h(q);
    }
    for _ in 0..NUM_GATES - NUM_QUBITS {
        let a = rng.gen_range(0..NUM_QUBITS);
        let b = (a + rng.gen_range(1..NUM_QUBITS)) % NUM_QUBITS;
        let mut e = rng.gen_range(0..NUM_QUBITS);
        while e == a || e == b {
            e = (e + 1) % NUM_QUBITS;
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

/// Qubits of the per-bit rows' state: 16 MiB of amplitudes, more than
/// L2 holds, so a batch runs block by block.
const ROW_QUBITS: usize = 20;

/// Copies of the gate in one timed batch of a per-bit row.
const ROW_BATCH: usize = 64;

/// The lowest fixed bits the per-bit rows place their gates at.
const ROW_BITS: [usize; 4] = [0, 1, 2, 5];

/// The per-bit rows' gates, by name.
const ROW_GATES: [&str; 4] = ["x", "h", "cx", "toffoli"];

/// One copy of the per-bit row `gate` with its lowest fixed bit at `b`:
/// the target of `x`, `h` and `toffoli` (whose controls sit 4 and 8
/// above it), the control of `cx` (whose target sits 7 above it). Every
/// qubit stays below the 14-qubit block width, so the batch is one
/// blocked run.
fn row_gate(c: &mut Circuit, gate: &str, b: usize) {
    match gate {
        "x" => c.x(b),
        "h" => c.h(b),
        "cx" => c.cx(b, b + 7),
        "toffoli" => c.ccx(b + 4, b + 8, b),
        _ => unreachable!("no per-bit row {gate}"),
    }
}

/// The per-bit row `gate` at bit `b`, repeated `copies` times.
fn row_circuit(gate: &str, b: usize, copies: usize) -> Circuit {
    let mut c = Circuit::new(ROW_QUBITS);
    for _ in 0..copies {
        row_gate(&mut c, gate, b);
    }
    c
}

/// A [`ROW_QUBITS`]-qubit state with every amplitude nonzero.
fn row_state() -> State {
    let mut c = Circuit::new(ROW_QUBITS);
    for q in 0..ROW_QUBITS {
        c.h(q);
        c.rz(q, 0.3 + q as f64);
    }
    let mut s = State::zero(ROW_QUBITS);
    c.compile(OptLevel::Specialize).apply_to(&mut s);
    s
}

/// Check one copy of a per-bit row's gate against the interpreted
/// path on `start`: value-identical amplitudes, bit-identical
/// probabilities and equal gate counts. Returns the compiled copy's
/// index work.
fn check_row(start: &State, gate: &str, b: usize) -> u64 {
    let one = row_circuit(gate, b, 1);
    let mut reference = start.clone();
    one.apply_to(&mut reference);
    let mut compiled = start.clone();
    one.compile(OptLevel::Specialize).apply_to(&mut compiled);
    assert_eq!(compiled, reference, "{gate} at bit {b} diverged");
    for (p, q) in compiled
        .probabilities()
        .iter()
        .zip(&reference.probabilities())
    {
        assert_eq!(
            p.to_bits(),
            q.to_bits(),
            "{gate} at bit {b}: probability bits"
        );
    }
    assert_eq!(compiled.gate_ops(), reference.gate_ops());
    compiled.index_ops() - start.index_ops()
}

/// Applications per timed pass.
const ITERS: usize = 4;

/// Run `apply` on a fresh `|0…0⟩` [`ITERS`] times.
fn timed_pass(apply: impl Fn(&mut State)) {
    for _ in 0..ITERS {
        let mut s = State::zero(NUM_QUBITS);
        apply(&mut s);
        std::hint::black_box(&s);
    }
}

fn bench_gate_kernels(c: &mut Criterion) {
    // Respect criterion's positional filter: a `cargo bench foo` run
    // aimed at some other bench must not pay for our cross-checks. The
    // filter is matched against every label we would run (as the
    // harness itself would), not just the group name, so
    // `cargo bench … gate_kernels compiled` still runs.
    let mut labels = vec![
        "gate_kernels/interpreted".to_owned(),
        "gate_kernels/compiled".to_owned(),
    ];
    for gate in ROW_GATES {
        labels.extend(ROW_BITS.map(|b| format!("gate_kernels/{gate}/{b}")));
    }
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    if let Some(f) = &filter {
        if !labels.iter().any(|label| label.contains(f.as_str())) {
            return;
        }
    }
    let measured = std::env::args().skip(1).any(|arg| arg == "--bench");

    let circuit = rotation_toffoli_circuit();
    let plan = circuit.compile(OptLevel::Specialize);
    let (diag, anti, general, swaps) = plan.kernel_census();
    println!(
        "gate_kernels: {} gates on {NUM_QUBITS} qubits → kernels: \
         {diag} diagonal, {anti} anti-diagonal, {general} general, {swaps} swap",
        circuit.len(),
    );

    // The speedup claim is only honest if the paths agree exactly.
    let mut reference = State::zero(NUM_QUBITS);
    circuit.apply_to(&mut reference);
    let mut compiled = State::zero(NUM_QUBITS);
    plan.apply_to(&mut compiled);
    assert_eq!(compiled, reference, "compiled path diverged");
    for (p, q) in compiled
        .probabilities()
        .iter()
        .zip(&reference.probabilities())
    {
        assert_eq!(p.to_bits(), q.to_bits(), "probability bits diverged");
    }
    assert_eq!(compiled.gate_ops(), reference.gate_ops());

    // And the index-work claim is checked, not assumed.
    let interpreted_work = reference.index_ops();
    let compiled_work = compiled.index_ops();
    assert!(
        compiled_work * 2 <= interpreted_work,
        "compiled index work {compiled_work} not ≤ half of {interpreted_work}"
    );
    println!(
        "gate_kernels: index work {compiled_work} (compiled) vs {interpreted_work} \
         (interpreted), {:.1}x less",
        interpreted_work as f64 / compiled_work as f64
    );
    criterion::record_metric("gate_kernels/compiled", "index_ops", compiled_work as f64);
    criterion::record_metric(
        "gate_kernels/interpreted",
        "index_ops",
        interpreted_work as f64,
    );

    // Wall-clock contract: ≥2× on one core, on medians of alternating
    // passes so a slow spell of the host lands on both sides. Asserted
    // only under `--bench` (smoke mode runs everything once, so there
    // is nothing meaningful to time).
    if measured {
        let (interpreted_s, compiled_s) = qdb_bench::interleaved_medians(
            15,
            || timed_pass(|s| circuit.apply_to(s)),
            || timed_pass(|s| plan.apply_to(s)),
        );
        let speedup = interpreted_s / compiled_s;
        println!(
            "gate_kernels: {:.3} ms (interpreted) vs {:.3} ms (compiled): {speedup:.2}x",
            interpreted_s * 1e3 / ITERS as f64,
            compiled_s * 1e3 / ITERS as f64,
        );
        criterion::record_metric("gate_kernels/compiled", "speedup_vs_interpreted", speedup);
        assert!(
            speedup >= 2.0,
            "compiled kernels must be ≥2x the interpreted path, got {speedup:.2}x"
        );
    }

    let mut group = c.benchmark_group("gate_kernels");
    group.sample_size(10);
    group.throughput(criterion::Throughput::Elements(circuit.len() as u64));
    group.bench_function("interpreted", |bencher| {
        bencher.iter(|| {
            let mut s = State::zero(NUM_QUBITS);
            circuit.apply_to(&mut s);
            s
        });
    });
    group.bench_function("compiled", |bencher| {
        bencher.iter(|| {
            let mut s = State::zero(NUM_QUBITS);
            plan.apply_to(&mut s);
            s
        });
    });

    // The per-bit rows: each gate is checked against the interpreter,
    // then a batch of its copies is timed on one serial state.
    let mut state = row_state();
    group.throughput(criterion::Throughput::Elements(ROW_BATCH as u64));
    for gate in ROW_GATES {
        for b in ROW_BITS {
            let index_ops = check_row(&state, gate, b) * ROW_BATCH as u64;
            let batch = row_circuit(gate, b, ROW_BATCH).compile(OptLevel::Specialize);
            criterion::record_metric(
                &format!("gate_kernels/{gate}/{b}"),
                "index_ops",
                index_ops as f64,
            );
            group.bench_with_input(BenchmarkId::new(gate, b), &batch, |bencher, batch| {
                bencher.iter(|| batch.apply_to(&mut state));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_gate_kernels);
criterion_main!(benches);
