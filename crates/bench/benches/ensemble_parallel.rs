//! Serial vs parallel ensemble throughput on the paper's three case
//! studies (Shor §4.6, Grover §5.1, H₂ chemistry §5.2).
//!
//! With a noise model every shot is an independent trajectory — the
//! QX-cluster bottleneck of the original paper — so `qdb-core` runs
//! the shot loop on all cores. This bench measures the speedup
//! of `EnsembleConfig::parallel = true` over the serial path, and
//! asserts on every run that the two paths produce identical verdicts
//! for identical seeds.
//!
//! The speedup expectation itself is asserted, not just documented,
//! at the level [`qdb_bench::multicore_gate`] sets for the host's
//! worker count (≥ 2× with 4 or more workers, ≥ 1.2× with 2–3). On
//! single-core hosts (or with `RAYON_NUM_THREADS=1`) no speedup is
//! possible, so the check is skipped with a notice instead of silently
//! passing.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_algos::chem::{trotter_step_circuit, H2Molecule};
use qdb_algos::grover::{grover_program, optimal_iterations, GroverStyle};
use qdb_algos::shor::{shor_program, ShorConfig};
use qdb_algos::{ControlRouting, Gf2m};
use qdb_circuit::{GateSink, Program};
use qdb_core::{EnsembleConfig, EnsembleRunner};
use qdb_sim::NoiseModel;

fn grover_benchmark() -> Program {
    let field = Gf2m::standard(3);
    let (program, _) = grover_program(
        &field,
        6,
        GroverStyle::Manual,
        optimal_iterations(field.order()),
    );
    program
}

fn shor_benchmark() -> Program {
    let (program, _) = shor_program(
        &ShorConfig::paper_n15(),
        ControlRouting::Correct,
        &Vec::new(),
    );
    program
}

/// Hartree–Fock preparation followed by Trotterized evolution under the
/// H₂/STO-3G Hamiltonian, with classical and superposition assertions.
fn h2_benchmark() -> Program {
    let molecule = H2Molecule::sto3g();
    let mut p = Program::new();
    let orbitals = p.alloc_register("orbitals", 4);
    p.prep_int(&orbitals, 0b0011);
    p.assert_classical(&orbitals, 0b0011);
    let evolution = trotter_step_circuit(molecule.pauli_terms(), &orbitals, 0.8, 2);
    for inst in evolution.instructions() {
        p.push(inst.clone());
    }
    p.assert_superposition(&orbitals);
    p
}

fn noisy_config(shots: usize) -> EnsembleConfig {
    EnsembleConfig::default()
        .with_shots(shots)
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(0.002).with_readout_flip(0.01))
}

/// Assert the parallel trajectory loop actually outruns the serial
/// path, scaled to the parallelism this host can deliver (the rayon
/// shim honors `RAYON_NUM_THREADS`, so that override is respected
/// here too). Single-core hosts skip the assertion — there is nothing
/// to win — but say so instead of silently documenting an unmet
/// expectation.
///
/// The check pins `ExecutionStrategy::PerPrefix`: it documents the
/// *per-shot* engine's scaling, whose trajectory loop is the parallel
/// axis. The default trajectory-tree engine deliberately removes most
/// of that work (often leaving too little to parallelize — that is the
/// point); its own speedup claim is asserted in the
/// `noisy_trajectory` bench against the per-shot reference instead.
fn assert_parallel_speedup(program: &Program, shots: usize) {
    let Some((workers, required)) = qdb_bench::multicore_gate("ensemble_parallel speedup check")
    else {
        return;
    };
    let time_one = |parallel: bool| {
        let config = noisy_config(shots)
            .with_strategy(qdb_core::ExecutionStrategy::PerPrefix)
            .with_parallel(parallel);
        let runner = EnsembleRunner::new(config);
        runner.check_program(program).expect("warm-up session");
        let iters = 3;
        let start = std::time::Instant::now();
        for _ in 0..iters {
            runner.check_program(program).expect("timed session");
        }
        start.elapsed().as_secs_f64() / f64::from(iters)
    };
    // Timing on shared hosts is noisy; take the best of two rounds
    // before declaring the engine too slow.
    let mut speedup = 0.0f64;
    for round in 0..2 {
        let serial = time_one(false);
        let parallel = time_one(true);
        speedup = speedup.max(serial / parallel);
        if speedup >= required {
            break;
        }
        if round == 0 {
            println!("ensemble_parallel speedup check: {speedup:.2}x below target, re-measuring");
        }
    }
    println!(
        "ensemble_parallel speedup check: {speedup:.2}x with {workers} workers \
         (required \u{2265} {required:.1}x)"
    );
    assert!(
        speedup >= required,
        "parallel ensemble engine underperforms: {speedup:.2}x < {required:.1}x \
         with {workers} workers"
    );
}

fn bench_serial_vs_parallel(c: &mut Criterion) {
    // Respect criterion's positional filter: a `cargo bench foo` run
    // aimed at some other bench must not pay for our sessions here.
    let filter: Option<String> = std::env::args().skip(1).find(|arg| !arg.starts_with("--"));
    // The headline speedup expectation, checked once per run on the
    // Grover case (the cheapest of the three) and on the Shor flagship
    // — but only in full `cargo bench` mode. Under `cargo test` the
    // benches smoke-run on shared CI hosts where wall-clock timing
    // assertions would be both load-sensitive and a tax on every test
    // run.
    let bench_mode = std::env::args().any(|arg| arg == "--bench");
    if !bench_mode {
        println!(
            "ensemble_parallel speedup check: smoke mode, timing assertion deferred \
             to `cargo bench`"
        );
    } else {
        if filter
            .as_deref()
            .is_none_or(|f| "noisy_ensemble_grover".contains(f))
        {
            assert_parallel_speedup(&grover_benchmark(), 64);
        }
        if filter
            .as_deref()
            .is_none_or(|f| "noisy_ensemble_shor_n15".contains(f))
        {
            assert_parallel_speedup(&shor_benchmark(), 16);
        }
    }
    let cases: [(&str, Program, usize); 3] = [
        ("grover", grover_benchmark(), 64),
        ("shor_n15", shor_benchmark(), 16),
        ("h2_trotter", h2_benchmark(), 64),
    ];
    for (name, program, shots) in cases {
        let group_name = format!("noisy_ensemble_{name}");
        if let Some(f) = &filter {
            if !group_name.contains(f.as_str()) {
                continue;
            }
        }

        // The speedup claim is only honest if both paths agree exactly.
        let serial = EnsembleRunner::new(noisy_config(shots).with_parallel(false))
            .check_program(&program)
            .expect("serial session");
        let parallel = EnsembleRunner::new(noisy_config(shots).with_parallel(true))
            .check_program(&program)
            .expect("parallel session");
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.verdict, p.verdict, "{name}: serial/parallel disagree");
            assert_eq!(s.p_value.to_bits(), p.p_value.to_bits());
        }

        let mut group = c.benchmark_group(group_name);
        group.sample_size(10);
        for parallel in [false, true] {
            let label = if parallel { "parallel" } else { "serial" };
            let runner = EnsembleRunner::new(noisy_config(shots).with_parallel(parallel));
            group.bench_with_input(BenchmarkId::from_parameter(label), &(), |b, ()| {
                b.iter(|| runner.check_program(&program).expect("session"));
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_serial_vs_parallel);
criterion_main!(benches);
