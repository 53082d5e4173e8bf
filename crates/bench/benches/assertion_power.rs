//! Cost of the assertion machinery itself: full breakpoint checks as a
//! function of ensemble size, plus the statistical-vs-exact checker
//! ablation from DESIGN.md §7.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use qdb_algos::harnesses::{listing4_modmul_harness, Listing4Params};
use qdb_circuit::{BreakpointKind, GateSink, Program, QReg};
use qdb_core::{checker, EnsembleConfig, EnsembleRunner};

fn bell_program() -> (Program, QReg, QReg) {
    let mut p = Program::new();
    let q = p.alloc_register("q", 2);
    p.h(q.bit(0));
    p.cx(q.bit(0), q.bit(1));
    let m0 = QReg::new("m0", vec![q.bit(0)]);
    let m1 = QReg::new("m1", vec![q.bit(1)]);
    p.assert_entangled(&m0, &m1);
    (p, m0, m1)
}

fn bench_breakpoint_check_vs_shots(c: &mut Criterion) {
    let mut group = c.benchmark_group("bell_breakpoint_check");
    let (program, _, _) = bell_program();
    for shots in [16usize, 128, 1024, 8192] {
        group.bench_with_input(BenchmarkId::from_parameter(shots), &shots, |b, &shots| {
            let runner =
                EnsembleRunner::new(EnsembleConfig::default().with_shots(shots).with_seed(1));
            b.iter(|| runner.check_program(&program).expect("session"));
        });
    }
    group.finish();
}

fn bench_statistical_vs_exact_checker(c: &mut Criterion) {
    let mut group = c.benchmark_group("checker_ablation");
    let (program, m0, m1) = bell_program();
    let runner = EnsembleRunner::new(EnsembleConfig::default().with_shots(1024).with_seed(1));
    let ensemble = runner.run_breakpoint(&program, 0).expect("ensemble");
    let kind = BreakpointKind::Entangled {
        a: m0.clone(),
        b: m1.clone(),
    };
    group.bench_function("statistical_contingency", |b| {
        b.iter(|| {
            checker::check_breakpoint_with(
                &kind,
                &ensemble.outcomes,
                0.05,
                checker::IndependenceMethod::default(),
            )
            .expect("check")
        });
    });
    group.bench_function("exact_amplitude_based", |b| {
        b.iter(|| checker::exact_verdict_on(&kind, &ensemble.state, 1e-9));
    });
    group.finish();
}

fn bench_full_listing4_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("listing4_session");
    group.sample_size(10);
    let (program, _) = listing4_modmul_harness(Listing4Params::paper());
    for shots in [16usize, 256] {
        group.bench_with_input(BenchmarkId::from_parameter(shots), &shots, |b, &shots| {
            let runner =
                EnsembleRunner::new(EnsembleConfig::default().with_shots(shots).with_seed(1));
            b.iter(|| runner.check_program(&program).expect("session"));
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_breakpoint_check_vs_shots,
    bench_statistical_vs_exact_checker,
    bench_full_listing4_session
);
criterion_main!(benches);
