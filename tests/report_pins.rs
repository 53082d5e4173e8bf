//! Golden pins of report bits for one session per engine route.
//!
//! The equivalence suites prove that two engines agree with each other
//! (sweep ≡ per-prefix, tree ≡ per-shot, serial ≡ parallel); they stay
//! green if both sides drift together. These pins close that gap: for
//! every breakpoint they fix the statistic and p-value bits, the
//! verdict, and the histogram's total, distinct count and mode, for
//!
//! * the dense statevector, ideal — the paper's Shor n=15 session at
//!   1024 shots and the Bell pair at the paper's 16-shot ensemble size;
//! * the dense statevector under Kraus noise (amplitude damping plus
//!   readout error), which runs shot by shot;
//! * the dense statevector under Pauli noise (the trajectory tree);
//! * the stabilizer tableau, ideal — a 100-qubit GHZ session at 1024
//!   shots and at the paper's 16-shot ensemble size;
//! * the sparse amplitude map, ideal — `shor_style_period_program`;
//! * the tableau and the support map under Pauli noise (the trajectory
//!   tree on the Sweep strategy, shot by shot on PerPrefix) — the same
//!   two programs at 256 shots.
//!
//! Every session is pinned under both execution strategies and both
//! settings of `parallel`, which must all produce the same bits.
//!
//! Two more programs leave qubits no gate touches, which a dense session
//! does not simulate: `qdb demo grover` (idle qubits at the top of the
//! register) and the §4.2 bug demonstration (idle qubits at the bottom,
//! so every simulated qubit is relabeled). Their rows, pinned with the
//! exact verdicts, cover the ideal, Pauli-tree and Kraus routes and a
//! resume from a one-breakpoint checkpoint.

use qdb::algos::clifford::ghz_program;
use qdb::algos::grover::{grover_program, optimal_iterations};
use qdb::algos::shor::{shor_program, ShorConfig};
use qdb::algos::sparse::shor_style_period_program;
use qdb::algos::{BugType, ControlRouting, Gf2m, GroverStyle};
use qdb::circuit::{GateSink, Program, QReg};
use qdb::core::{
    AssertionReport, BackendChoice, EnsembleConfig, EnsembleRunner, ExecutionStrategy,
    PartialReport, Verdict,
};
use qdb::sim::{NoiseChannel, NoiseModel, ReadoutError};

/// One line per breakpoint: statistic and p-value bits, verdict, and
/// the histogram's total, distinct count and mode.
fn pin_rows(reports: &[AssertionReport]) -> Vec<String> {
    reports
        .iter()
        .map(|r| {
            format!(
                "stat={:#018x} p={:#018x} {:?} total={} distinct={} mode={:?}",
                r.statistic.to_bits(),
                r.p_value.to_bits(),
                r.verdict,
                r.histogram.total(),
                r.histogram.distinct(),
                r.histogram.mode()
            )
        })
        .collect()
}

/// Check `program` under `config` on every strategy × `parallel`
/// combination and compare each run's rows with `expected`.
fn assert_pinned(what: &str, program: &Program, config: &EnsembleConfig, expected: &[&str]) {
    for strategy in [ExecutionStrategy::Sweep, ExecutionStrategy::PerPrefix] {
        for parallel in [false, true] {
            let config = config.with_strategy(strategy).with_parallel(parallel);
            let reports = EnsembleRunner::new(config)
                .check_program(program)
                .unwrap_or_else(|e| panic!("{what}: {e}"));
            assert_eq!(
                pin_rows(&reports),
                expected,
                "{what} ({strategy:?}, parallel={parallel})"
            );
        }
    }
}

fn bell_program() -> Program {
    let mut p = Program::new();
    let q = p.alloc_register("q", 2);
    p.h(q.bit(0));
    p.cx(q.bit(0), q.bit(1));
    let m0 = QReg::new("m0", vec![q.bit(0)]);
    let m1 = QReg::new("m1", vec![q.bit(1)]);
    p.assert_entangled(&m0, &m1);
    p
}

/// All four assertion kinds, on registers over non-adjacent qubits, so
/// a full-register outcome and its projection onto the asserted qubits
/// differ.
fn scattered_program() -> Program {
    let mut p = Program::new();
    let r = p.alloc_register("r", 5);
    let ends = QReg::new("ends", vec![r.bit(0), r.bit(4)]);
    p.x(r.bit(4));
    p.assert_classical(&ends, 2);
    p.h(r.bit(0));
    p.h(r.bit(2));
    let odd = QReg::new("odd", vec![r.bit(0), r.bit(2)]);
    p.assert_superposition(&odd);
    p.cx(r.bit(0), r.bit(3));
    let a = QReg::new("a", vec![r.bit(0)]);
    let b = QReg::new("b", vec![r.bit(3)]);
    p.assert_entangled(&a, &b);
    let c = QReg::new("c", vec![r.bit(2), r.bit(1)]);
    p.assert_product(&a, &c);
    p
}

#[test]
fn dense_ideal_shor_n15_is_pinned() {
    let (program, _) = shor_program(
        &ShorConfig::paper_n15(),
        ControlRouting::Correct,
        &Vec::new(),
    );
    assert_pinned(
        "shor n=15",
        &program,
        &EnsembleConfig::default(),
        &[
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(0)",
            "stat=0x3ffec00000000000 p=0x3feed9652183c1be Pass total=1024 distinct=8 mode=Some(2)",
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(1)",
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(0)",
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(0)",
        ],
    );
}

#[test]
fn dense_ideal_bell_at_paper_small_is_pinned() {
    assert_pinned(
        "bell paper_small",
        &bell_program(),
        &EnsembleConfig::paper_small(),
        &["stat=0x4028091a2b3c4d5f p=0x3f41446b19143833 Pass total=16 distinct=2 mode=Some(0)"],
    );
}

#[test]
fn dense_kraus_per_shot_is_pinned() {
    // Damping and readout flips break the classical assertion.
    let noise = NoiseModel {
        gate_noise: Some(NoiseChannel::amplitude_damping(0.05).unwrap()),
        readout: ReadoutError::default(),
    }
    .with_readout_flip(0.02);
    let config = EnsembleConfig::default()
        .with_shots(200)
        .with_seed(29)
        .with_noise(noise);
    assert_pinned(
        "kraus",
        &scattered_program(),
        &config,
        &[
            "stat=0x41360c6771f67e64 p=0x0000000000000000 Fail total=200 distinct=3 mode=Some(2)",
            "stat=0x3ffe147ae147ae14 p=0x3fe32037567a3a6c Pass total=200 distinct=4 mode=Some(1)",
            "stat=0x4063ce77db1f0a24 p=0x388a36dd7bb33c0e Pass total=200 distinct=2 mode=Some(0)",
            "stat=0x3fe000efafd0a6af p=0x3fed675a4d55b2ee Pass total=200 distinct=2 mode=Some(0)",
        ],
    );
}

#[test]
fn dense_pauli_tree_is_pinned() {
    let config = EnsembleConfig::default()
        .with_shots(200)
        .with_seed(31)
        .with_noise(NoiseModel::depolarizing(0.03).with_readout_flip(0.02));
    assert_pinned(
        "pauli",
        &scattered_program(),
        &config,
        &[
            "stat=0x4129c95db0bac1e0 p=0x0000000000000000 Fail total=200 distinct=3 mode=Some(2)",
            "stat=0x400428f5c28f5c29 p=0x3fde3020ab272342 Pass total=200 distinct=4 mode=Some(3)",
            "stat=0x4062ecf12c1d8376 p=0x38dc69f73903b41d Pass total=200 distinct=2 mode=Some(0)",
            "stat=0x401f025111d05078 p=0x3faa5397bec793b9 Pass total=200 distinct=2 mode=Some(1)",
        ],
    );
}

#[test]
fn dense_ideal_scattered_registers_are_pinned() {
    // Breakpoint 1 is a true superposition; this seed draws a false
    // positive there (p ≈ 0.045 < α), which the pin keeps honest.
    let config = EnsembleConfig::default().with_shots(200).with_seed(37);
    assert_pinned(
        "scattered",
        &scattered_program(),
        &config,
        &[
            "stat=0x3f2a36e4a2ea5d9d p=0x3fefa390f35f1336 Pass total=200 distinct=1 mode=Some(2)",
            "stat=0x4020147ae147ae14 p=0x3fa7236f40c03895 Fail total=200 distinct=4 mode=Some(3)",
            "stat=0x406880528976ccb7 p=0x36d6225f099811f6 Pass total=200 distinct=2 mode=Some(1)",
            "stat=0x0000000000000000 p=0x3ff0000000000000 Pass total=200 distinct=2 mode=Some(1)",
        ],
    );
}

#[test]
fn stabilizer_ideal_ghz_is_pinned() {
    let config = EnsembleConfig::default().with_backend(BackendChoice::Stabilizer);
    assert_pinned(
        "ghz100",
        &ghz_program(100),
        &config,
        &[
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(0)",
            "stat=0x408fe007e00fe018 p=0x119dd306003305a0 Pass total=1024 distinct=2 mode=Some(1)",
            "stat=0x7ff8000000000000 p=0x3ff0000000000000 Pass total=1024 distinct=1 mode=Some(0)",
        ],
    );
}

#[test]
fn sparse_ideal_period_finding_is_pinned() {
    let config = EnsembleConfig::default().with_backend(BackendChoice::Sparse);
    assert_pinned(
        "sparse34",
        &shor_style_period_program(5, 28),
        &config,
        &[
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(0)",
            "stat=0x4030500000000000 p=0x3fd72453b7fece46 Pass total=1024 distinct=16 mode=Some(4)",
            "stat=0x408fe0043971e651 p=0x119dd9d6a0c28c8a Pass total=1024 distinct=2 mode=Some(1)",
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(1)",
        ],
    );
}

#[test]
fn stabilizer_pauli_tree_ghz_is_pinned() {
    // Readout flips fail the classical probe, as the pin records.
    let config = EnsembleConfig::default()
        .with_backend(BackendChoice::Stabilizer)
        .with_shots(256)
        .with_noise(NoiseModel::depolarizing(1e-3).with_readout_flip(1e-2));
    assert_pinned(
        "ghz100 pauli",
        &ghz_program(100),
        &config,
        &[
            "stat=0x41075d03887efa6a p=0x0000000000000000 Fail total=256 distinct=4 mode=Some(0)",
            "stat=0x406888ef3b1a10cd p=0x36d3559874dd9c23 Pass total=256 distinct=2 mode=Some(1)",
            "stat=0x3ff23e9f3d21c822 p=0x3fd24720f8d44464 Pass total=256 distinct=2 mode=Some(0)",
        ],
    );
}

#[test]
fn sparse_pauli_tree_period_finding_is_pinned() {
    // Gate faults on the 28-qubit work register fail its classical
    // postcondition, as the pin records.
    let config = EnsembleConfig::default()
        .with_backend(BackendChoice::Sparse)
        .with_shots(256)
        .with_noise(NoiseModel::depolarizing(1e-4));
    assert_pinned(
        "sparse34 pauli",
        &shor_style_period_program(5, 28),
        &config,
        &[
            "stat=0x3f30c6f8ba2f9813 p=0x3fef976c90cd03d8 Pass total=256 distinct=1 mode=Some(0)",
            "stat=0x4030000000000000 p=0x3fd87388cfe2628e Pass total=256 distinct=16 mode=Some(9)",
            "stat=0x406f7f8e1c7ac796 p=0x344e12e4ea4245f6 Pass total=256 distinct=2 mode=Some(1)",
            "stat=0x416bb93119213781 p=0x0000000000000000 Fail total=256 distinct=41 mode=Some(1)",
        ],
    );
}

#[test]
fn stabilizer_ideal_ghz_at_paper_small_is_pinned() {
    let config = EnsembleConfig::paper_small().with_backend(BackendChoice::Stabilizer);
    assert_pinned(
        "ghz100 paper_small",
        &ghz_program(100),
        &config,
        &[
            "stat=0x3ef0c6f8ba2f9813 p=0x3fefe5dadfaa46b7 Pass total=16 distinct=1 mode=Some(0)",
            "stat=0x402863967a6bb6fc p=0x3f3f69644b27c763 Pass total=16 distinct=2 mode=Some(1)",
            "stat=0x7ff8000000000000 p=0x3ff0000000000000 Pass total=16 distinct=1 mode=Some(0)",
        ],
    );
}

/// `qdb demo grover`: Grover over GF(2³) in the Scoped style. No gate
/// touches its `anc` register, qubits 6–7 of 8.
fn grover_scoped_demo() -> Program {
    grover_program(
        &Gf2m::standard(3),
        5,
        GroverStyle::Scoped,
        optimal_iterations(8),
    )
    .0
}

/// The §4.2 bug demonstration: no gate touches qubits 0–1 of 7.
fn incorrect_operations_demo() -> Program {
    BugType::IncorrectOperations.demonstration().0
}

/// [`assert_pinned`], plus each run's exact verdicts, and a resume
/// from the checkpoint of a session interrupted after its first
/// breakpoint, which must give the same rows and verdicts.
fn assert_pinned_with_exact(
    what: &str,
    program: &Program,
    config: &EnsembleConfig,
    expected: &[&str],
    exact: &[Option<Verdict>],
) {
    assert_pinned(what, program, config, expected);
    let runner = EnsembleRunner::new(config.clone());
    let full = runner.check_program(program).unwrap();
    let verdicts: Vec<Option<Verdict>> = full.iter().map(|r| r.exact).collect();
    assert_eq!(verdicts, exact, "{what}: exact verdicts");
    let mut reports = full[..1].to_vec();
    for (index, bp) in program.breakpoints().iter().enumerate().skip(1) {
        reports.push(AssertionReport::unevaluated(index, bp));
    }
    let checkpoint = PartialReport {
        reports,
        completed: 1,
    };
    let resumed = runner.resume_program(program, &checkpoint).unwrap();
    assert_eq!(pin_rows(&resumed), expected, "{what}: resumed");
    let verdicts: Vec<Option<Verdict>> = resumed.iter().map(|r| r.exact).collect();
    assert_eq!(verdicts, exact, "{what}: resumed exact verdicts");
}

/// Amplitude damping plus readout error: the Kraus per-shot route.
fn damping_with_readout() -> NoiseModel {
    NoiseModel {
        gate_noise: Some(NoiseChannel::amplitude_damping(0.01).unwrap()),
        readout: ReadoutError::default(),
    }
    .with_readout_flip(0.02)
}

#[test]
fn dense_ideal_grover_with_idle_qubits_is_pinned() {
    assert_pinned_with_exact(
        "grover scoped",
        &grover_scoped_demo(),
        &EnsembleConfig::default(),
        &[
            "stat=0x4012e00000000000 p=0x3fe63738aee25050 Pass total=1024 distinct=8 mode=Some(6)",
            "stat=0x7ff8000000000000 p=0x3ff0000000000000 Pass total=1024 distinct=8 mode=Some(3)",
            "stat=0x7ff8000000000000 p=0x3ff0000000000000 Pass total=1024 distinct=8 mode=Some(3)",
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(0)",
        ],
        &[Some(Verdict::Pass); 4],
    );
}

#[test]
fn dense_pauli_tree_grover_with_idle_qubits_is_pinned() {
    let config = EnsembleConfig::default()
        .with_shots(256)
        .with_noise(NoiseModel::depolarizing(1e-3).with_readout_flip(1e-2));
    assert_pinned_with_exact(
        "grover scoped pauli",
        &grover_scoped_demo(),
        &config,
        &[
            "stat=0x4016c00000000000 p=0x3fe2741e4e1ed700 Pass total=256 distinct=8 mode=Some(4)",
            "stat=0x4063ae98d05edbf6 p=0x3b541837dfd358ba Fail total=256 distinct=8 mode=Some(3)",
            "stat=0x3fe4d9038dd2a5b1 p=0x3fefffffe0ce0b42 Pass total=256 distinct=8 mode=Some(3)",
            "stat=0x4117d735903df7ec p=0x0000000000000000 Fail total=256 distinct=3 mode=Some(0)",
        ],
        &[Some(Verdict::Pass); 4],
    );
}

#[test]
fn dense_kraus_grover_with_idle_qubits_is_pinned() {
    let config = EnsembleConfig::default()
        .with_shots(200)
        .with_seed(41)
        .with_noise(damping_with_readout());
    assert_pinned_with_exact(
        "grover scoped kraus",
        &grover_scoped_demo(),
        &config,
        &[
            "stat=0x400f5c28f5c28f5c p=0x3fe93f0857f2f75c Pass total=200 distinct=8 mode=Some(6)",
            "stat=0x40522d373d79626e p=0x3f28b9cc0172f3af Fail total=200 distinct=8 mode=Some(3)",
            "stat=0x400a89ed4e659b29 p=0x3feff29b5e7f34a0 Pass total=200 distinct=8 mode=Some(3)",
            "stat=0x4158b80f9eba85f9 p=0x0000000000000000 Fail total=200 distinct=5 mode=Some(0)",
        ],
        &[Some(Verdict::Pass); 4],
    );
}

#[test]
fn dense_ideal_bug_demo_with_idle_low_qubits_is_pinned() {
    assert_pinned_with_exact(
        "incorrect operations",
        &incorrect_operations_demo(),
        &EnsembleConfig::default(),
        &[
            "stat=0x3f50c6f8ba2f9813 p=0x3fef2edffbd58cec Pass total=1024 distinct=1 mode=Some(12)",
            "stat=0x41ce847e00000000 p=0x0000000000000000 Fail total=1024 distinct=1 mode=Some(31)",
        ],
        &[Some(Verdict::Pass), Some(Verdict::Fail)],
    );
}

#[test]
fn dense_pauli_tree_bug_demo_with_idle_low_qubits_is_pinned() {
    let config = EnsembleConfig::default()
        .with_shots(256)
        .with_noise(NoiseModel::depolarizing(1e-3).with_readout_flip(1e-2));
    assert_pinned_with_exact(
        "incorrect operations pauli",
        &incorrect_operations_demo(),
        &config,
        &[
            "stat=0x41212a59201e7b82 p=0x0000000000000000 Fail total=256 distinct=6 mode=Some(12)",
            "stat=0x41ae847e00000000 p=0x0000000000000000 Fail total=256 distinct=8 mode=Some(31)",
        ],
        &[Some(Verdict::Pass), Some(Verdict::Fail)],
    );
}

#[test]
fn dense_kraus_bug_demo_with_idle_low_qubits_is_pinned() {
    let config = EnsembleConfig::default()
        .with_shots(200)
        .with_seed(43)
        .with_noise(damping_with_readout());
    assert_pinned_with_exact(
        "incorrect operations kraus",
        &incorrect_operations_demo(),
        &config,
        &[
            "stat=0x4147d76c90050483 p=0x0000000000000000 Fail total=200 distinct=8 mode=Some(12)",
            "stat=0x41a75e0cb00a3d71 p=0x0000000000000000 Fail total=200 distinct=17 mode=Some(31)",
        ],
        &[Some(Verdict::Pass), Some(Verdict::Fail)],
    );
}
