//! Idle qubits change no report.
//!
//! A dense session simulates only the qubits its compiled plan touches:
//! qubits no gate names stay `|0⟩`, so the session runs the plan's
//! relabeled copy on the active qubits and deposits each outcome into
//! the full register before readout error strikes it. That must be
//! invisible in every report bit. Each case here builds a random program
//! that leaves 1–3 qubits idle, with assertions whose registers include
//! idle qubits, and checks it against a reference: the same program with
//! one `x` on every idle qubit after its last breakpoint. Active qubits
//! are counted over the whole plan, so the reference simulates every
//! qubit, while no breakpoint sees the extra gates. Both must give the
//! same statistic and p-value bits, histograms and exact verdicts, and
//! the same trajectory-tree census, under both strategies, with and
//! without `parallel`, ideal, under Pauli noise plus readout error and
//! under a Kraus channel, and when resumed from a checkpoint.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qdb_circuit::{GateSink, OptLevel, Program, QReg};
use qdb_core::{
    AssertionReport, EnsembleConfig, EnsembleRunner, ExecutionStrategy, NoisySessionStats,
    PartialReport,
};
use qdb_sim::{NoiseChannel, NoiseModel, ReadoutError};

/// `items` in a random order (Fisher–Yates).
fn shuffled(rng: &mut StdRng, mut items: Vec<usize>) -> Vec<usize> {
    for i in (1..items.len()).rev() {
        items.swap(i, rng.gen_range(0..i + 1));
    }
    items
}

/// A random program on `n` qubits whose gates touch only `active`, with
/// assertions over registers drawn from all `n` qubits, each one naming
/// at least one idle qubit half the time.
fn program_with_idle_qubits(n: usize, active: &[usize], gates: usize, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Program::new();
    let _ = p.alloc_register("q", n);
    let idle: Vec<usize> = (0..n).filter(|q| !active.contains(q)).collect();
    let register = |rng: &mut StdRng, width: usize| {
        let mut qubits = shuffled(rng, (0..n).collect());
        qubits.truncate(width);
        if rng.gen::<bool>() && !qubits.iter().any(|q| idle.contains(q)) {
            qubits[0] = idle[rng.gen_range(0..idle.len())];
        }
        qubits
    };
    let assert = |p: &mut Program, rng: &mut StdRng| match rng.gen_range(0..4u32) {
        kind @ (0 | 1) => {
            let width = rng.gen_range(1..n.min(3) + 1);
            let probe = QReg::new("probe", register(rng, width));
            if kind == 0 {
                let expected = rng.gen_range(0..probe.domain_size());
                p.assert_classical(&probe, expected);
            } else {
                p.assert_superposition(&probe);
            }
        }
        kind => {
            let qubits = register(rng, 2);
            let a = QReg::new("a", vec![qubits[0]]);
            let b = QReg::new("b", vec![qubits[1]]);
            if kind == 2 {
                p.assert_entangled(&a, &b);
            } else {
                p.assert_product(&a, &b);
            }
        }
    };
    let pick = |rng: &mut StdRng, k: usize| {
        let mut qubits = shuffled(rng, active.to_vec());
        qubits.truncate(k);
        qubits
    };
    for _ in 0..gates {
        let wide = active.len().min(3);
        match rng.gen_range(0..8u32) {
            0 => p.h(pick(&mut rng, 1)[0]),
            1 => p.t(pick(&mut rng, 1)[0]),
            2 => p.x(pick(&mut rng, 1)[0]),
            3 => p.ry(pick(&mut rng, 1)[0], rng.gen_range(-3.0..3.0)),
            4 if wide >= 2 => {
                let q = pick(&mut rng, 2);
                p.cx(q[0], q[1]);
            }
            5 if wide >= 2 => {
                let q = pick(&mut rng, 2);
                p.cphase(q[0], q[1], rng.gen_range(-3.0..3.0));
            }
            6 if wide >= 3 => {
                let q = pick(&mut rng, 3);
                p.ccx(q[0], q[1], q[2]);
            }
            7 if wide >= 3 => {
                let q = pick(&mut rng, 3);
                p.cswap(q[0], q[1], q[2]);
            }
            _ => p.h(pick(&mut rng, 1)[0]),
        }
        if rng.gen::<f64>() < 0.2 {
            assert(&mut p, &mut rng);
        }
    }
    assert(&mut p, &mut rng);
    p
}

/// Noise off, Pauli noise plus readout error (the trajectory tree), and
/// amplitude damping plus readout error (the per-shot Kraus path).
fn noise(which: u8) -> Option<NoiseModel> {
    match which % 3 {
        0 => None,
        1 => Some(NoiseModel::depolarizing(0.02).with_readout_flip(0.03)),
        _ => Some(
            NoiseModel {
                gate_noise: Some(NoiseChannel::amplitude_damping(0.05).unwrap()),
                readout: ReadoutError::default(),
            }
            .with_readout_flip(0.03),
        ),
    }
}

fn assert_same_reports(a: &[AssertionReport], b: &[AssertionReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{what}");
        assert_eq!(x.test, y.test, "{what}");
        assert_eq!(x.statistic.to_bits(), y.statistic.to_bits(), "{what}");
        assert_eq!(x.dof, y.dof, "{what}");
        assert_eq!(x.p_value.to_bits(), y.p_value.to_bits(), "{what}");
        assert_eq!(x.verdict, y.verdict, "{what}");
        assert_eq!(x.exact, y.exact, "{what}");
        assert_eq!(x.histogram, y.histogram, "{what}");
    }
}

fn run(
    config: &EnsembleConfig,
    program: &Program,
) -> (Vec<AssertionReport>, Option<NoisySessionStats>) {
    EnsembleRunner::new(config.clone())
        .check_program_stats(program)
        .expect("session")
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn idle_qubits_change_no_report(
        n in 2..11usize,
        idle_count in 1..4usize,
        gates in 1..30usize,
        program_seed in 0..u64::MAX,
        run_seed in 0..u64::MAX,
        which_noise in 0..3u8,
        resume_at in 0..8usize,
    ) {
        let mut rng = StdRng::seed_from_u64(program_seed);
        let idle_count = idle_count.min(n - 1);
        let mut active = shuffled(&mut rng, (0..n).collect()).split_off(idle_count);
        active.sort_unstable();
        let program = program_with_idle_qubits(n, &active, gates, program_seed);
        let plan = program.compile(OptLevel::Specialize);
        assert!(plan.active_qubits().len() < n);
        assert_eq!(plan.relabeled().num_qubits(), plan.active_qubits().len());
        let mut reference = program.clone();
        for q in (0..n).filter(|q| !plan.active_qubits().contains(q)) {
            reference.x(q);
        }
        assert_eq!(
            reference.compile(OptLevel::Specialize).relabeled().num_qubits(),
            n,
            "the reference simulates every qubit"
        );

        let base = EnsembleConfig::builder().shots(64).seed(run_seed).build();
        let base = match noise(which_noise) {
            Some(model) => base.with_noise(model),
            None => base,
        };
        for strategy in [ExecutionStrategy::Sweep, ExecutionStrategy::PerPrefix] {
            for parallel in [false, true] {
                let config = base.with_strategy(strategy).with_parallel(parallel);
                let what = format!("{strategy:?}, parallel={parallel}, noise {which_noise}");
                let (compacted, stats) = run(&config, &program);
                let (full, full_stats) = run(&config, &reference);
                assert_same_reports(&compacted, &full, &what);
                assert_eq!(stats, full_stats, "{what}: census");

                let completed = resume_at.min(compacted.len());
                let mut reports = compacted[..completed].to_vec();
                for (index, bp) in program.breakpoints().iter().enumerate().skip(completed) {
                    reports.push(AssertionReport::unevaluated(index, bp));
                }
                let checkpoint = PartialReport { reports, completed };
                let runner = EnsembleRunner::new(config.clone());
                let resumed = runner
                    .resume_program_stats(&program, &checkpoint)
                    .expect("resumed session");
                let resumed_full = runner
                    .resume_program_stats(&reference, &checkpoint)
                    .expect("resumed reference");
                assert_same_reports(&resumed.0, &full, &format!("{what}, resumed"));
                assert_same_reports(&resumed.0, &resumed_full.0, &format!("{what}, resumed"));
                assert_eq!(resumed.1, resumed_full.1, "{what}: resumed census");
            }
        }
    }
}
