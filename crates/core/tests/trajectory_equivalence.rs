//! Trajectory-tree equivalence and scaling proofs.
//!
//! The trajectory tree (`qdb_core::trajectory`) promises two things:
//!
//! 1. **Bit-identity** — noisy sessions under the default
//!    `ExecutionStrategy::Sweep` produce reports bit-for-bit identical
//!    to the per-shot reference path (`ExecutionStrategy::PerPrefix`),
//!    across the serial/parallel switch, on both the statevector and
//!    the stabilizer backend, at every noise level;
//! 2. **Unique-trajectory scaling** — gate work scales with the number
//!    of *distinct* fault patterns, not the shot count, with the
//!    fault-free pattern served by the shared frontier for free.
//!
//! Both are property-tested here; the scaling claims are verified
//! against the engine's own work counters
//! ([`NoisySessionStats`](qdb_core::NoisySessionStats)), not assumed.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qdb_algos::clifford::{faulty_repetition_code_program, PauliFault};
use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::{
    AssertionReport, BackendChoice, EnsembleConfig, EnsembleRunner, ExecutionStrategy, Verdict,
};
use qdb_sim::NoiseModel;

/// A pseudo-random *mixed* (generally non-Clifford) program with
/// assertions sprinkled through it. Verdict quality is irrelevant
/// here — both execution paths must agree bit for bit regardless of
/// what the assertions claim.
fn random_mixed_program(n: usize, gates: usize, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Program::new();
    let reg = p.alloc_register("q", n);
    let maybe_assert = |p: &mut Program, rng: &mut StdRng, force: bool| {
        if !force && rng.gen::<f64>() >= 0.2 {
            return;
        }
        match rng.gen_range(0..3u32) {
            0 => {
                let width = rng.gen_range(1..n.min(4) + 1);
                let start = rng.gen_range(0..n - width + 1);
                let probe = QReg::new("probe", (start..start + width).collect());
                let expected = rng.gen_range(0..probe.domain_size());
                p.assert_classical(&probe, expected);
            }
            1 => {
                let width = rng.gen_range(1..n.min(3) + 1);
                let start = rng.gen_range(0..n - width + 1);
                let probe = QReg::new("probe", (start..start + width).collect());
                p.assert_superposition(&probe);
            }
            _ => {
                let qa = rng.gen_range(0..n);
                let mut qb = rng.gen_range(0..n - 1);
                if qb >= qa {
                    qb += 1;
                }
                let a = QReg::new("a", vec![qa]);
                let b = QReg::new("b", vec![qb]);
                p.assert_entangled(&a, &b);
            }
        }
    };
    for _ in 0..gates {
        let target = rng.gen_range(0..n);
        match rng.gen_range(0..9u32) {
            0 => p.h(target),
            1 => p.t(target),
            2 => p.rz(target, rng.gen_range(-3.0..3.0)),
            3 => p.x(target),
            4 => p.s(target),
            kind => {
                let mut other = rng.gen_range(0..n - 1);
                if other >= target {
                    other += 1;
                }
                match kind {
                    5 => p.cx(other, target),
                    6 => p.cphase(other, target, rng.gen_range(-2.0..2.0)),
                    7 => p.swap(other, target),
                    _ => {
                        if n >= 3 {
                            let mut third = rng.gen_range(0..n - 2);
                            for used in [target.min(other), target.max(other)] {
                                if third >= used {
                                    third += 1;
                                }
                            }
                            p.ccx(other, third, target);
                        } else {
                            p.cx(other, target);
                        }
                    }
                }
            }
        }
        maybe_assert(&mut p, &mut rng, false);
    }
    maybe_assert(&mut p, &mut rng, true);
    let _ = reg;
    p
}

/// Clifford-only variant, for stabilizer-backend sessions.
fn random_clifford_program(n: usize, gates: usize, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Program::new();
    let reg = p.alloc_register("q", n);
    for _ in 0..gates {
        let target = rng.gen_range(0..n);
        match rng.gen_range(0..8u32) {
            0 => p.h(target),
            1 => p.s(target),
            2 => p.x(target),
            3 => p.y(target),
            4 => p.z(target),
            kind => {
                let mut other = rng.gen_range(0..n - 1);
                if other >= target {
                    other += 1;
                }
                match kind {
                    5 => p.cx(other, target),
                    6 => p.cz(other, target),
                    _ => p.swap(other, target),
                }
            }
        }
        if rng.gen::<f64>() < 0.2 {
            let qa = rng.gen_range(0..n);
            let mut qb = rng.gen_range(0..n - 1);
            if qb >= qa {
                qb += 1;
            }
            let a = QReg::new("a", vec![qa]);
            let b = QReg::new("b", vec![qb]);
            p.assert_entangled(&a, &b);
        }
    }
    let probe = QReg::new("probe", vec![0]);
    p.assert_superposition(&probe);
    let _ = reg;
    p
}

/// The noise grid both proptests sweep: gate-only, readout-only, both,
/// and near-noiseless (where deduplication collapses almost everything
/// into the fault-free group, which the frontier serves with one
/// `sample_each` scan).
fn noise_level(which: u8) -> NoiseModel {
    match which % 5 {
        0 => NoiseModel::depolarizing(0.02),
        1 => NoiseModel::readout_only(0.05),
        2 => NoiseModel::depolarizing(0.01).with_readout_flip(0.02),
        3 => NoiseModel::depolarizing(0.0005),
        _ => NoiseModel {
            gate_noise: Some(qdb_sim::NoiseChannel::BitFlip(0.004)),
            readout: qdb_sim::ReadoutError::default(),
        },
    }
}

fn assert_reports_bit_identical(a: &[AssertionReport], b: &[AssertionReport], what: &str) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]

    /// Tree ≡ per-shot reference, bit for bit, on the dense backend —
    /// across the serial/parallel switch and the noise grid.
    #[test]
    fn tree_matches_reference_on_statevector(
        n in 2..7usize,
        gates in 1..40usize,
        program_seed in 0..u64::MAX,
        run_seed in 0..u64::MAX,
        which_noise in 0..5u8,
    ) {
        let program = random_mixed_program(n, gates, program_seed);
        prop_assume!(!program.breakpoints().is_empty());
        let base = EnsembleConfig::builder()
            .shots(96)
            .seed(run_seed)
            .noise(noise_level(which_noise))
            .build();
        prop_assume!(base.noise.is_some());
        let reference = EnsembleRunner::new(
            base.with_strategy(ExecutionStrategy::PerPrefix).with_parallel(false),
        )
        .check_program(&program)
        .expect("reference session");
        for parallel in [false, true] {
            let tree = EnsembleRunner::new(
                base.with_strategy(ExecutionStrategy::Sweep).with_parallel(parallel),
            )
            .check_program(&program)
            .expect("tree session");
            assert_reports_bit_identical(&reference, &tree, "statevector");
        }
    }

    /// The same contract on the stabilizer tableau (Pauli noise is
    /// Clifford, so the tree runs unchanged at tableau scale).
    #[test]
    fn tree_matches_reference_on_stabilizer(
        n in 2..10usize,
        gates in 1..40usize,
        program_seed in 0..u64::MAX,
        run_seed in 0..u64::MAX,
        which_noise in 0..5u8,
    ) {
        let program = random_clifford_program(n, gates, program_seed);
        prop_assume!(!program.breakpoints().is_empty());
        let base = EnsembleConfig::builder()
            .shots(64)
            .seed(run_seed)
            .noise(noise_level(which_noise))
            .backend(BackendChoice::Stabilizer)
            .build();
        prop_assume!(base.noise.is_some());
        let reference = EnsembleRunner::new(
            base.with_strategy(ExecutionStrategy::PerPrefix).with_parallel(false),
        )
        .check_program(&program)
        .expect("reference session");
        for parallel in [false, true] {
            let tree = EnsembleRunner::new(
                base.with_strategy(ExecutionStrategy::Sweep).with_parallel(parallel),
            )
            .check_program(&program)
            .expect("tree session");
            assert_reports_bit_identical(&reference, &tree, "stabilizer");
        }
    }

    /// Gate work scales with unique trajectories, not shots: the
    /// engine's counters must reconcile exactly, the pool must never
    /// allocate per shot, and a session with no gate noise must cost
    /// one frontier pass regardless of ensemble size.
    #[test]
    fn gate_work_scales_with_unique_trajectories(
        n in 2..6usize,
        gates in 5..40usize,
        program_seed in 0..u64::MAX,
    ) {
        let program = random_mixed_program(n, gates, program_seed);
        prop_assume!(!program.breakpoints().is_empty());
        let last_position = program
            .breakpoints()
            .iter()
            .map(|bp| bp.position as u64)
            .max()
            .unwrap();

        // Readout-only noise: one unique (fault-free) trajectory per
        // breakpoint, so the whole session is one frontier pass —
        // independent of the shot count.
        for shots in [16usize, 256] {
            let config = EnsembleConfig::builder()
                .shots(shots)
                .noise(NoiseModel::readout_only(0.05))
                .build();
            let (_, stats) = EnsembleRunner::new(config)
                .check_program_stats(&program)
                .expect("readout-only session");
            let stats = stats.expect("noisy sweep sessions trace the tree");
            prop_assert_eq!(stats.frontier_ops, last_position);
            prop_assert_eq!(stats.total_ops(), last_position);
            prop_assert_eq!(stats.states_allocated, 0);
            for row in &stats.per_breakpoint {
                prop_assert_eq!(row.unique_trajectories, 1);
                prop_assert_eq!(row.fault_free_shots, shots);
                prop_assert_eq!(row.replayed_ops, 0);
            }
        }

        // Gate noise: replayed work is bounded by unique trajectories
        // times the window, never by shots; the reference path pays
        // shots × window.
        let config = EnsembleConfig::builder()
            .shots(128)
            .noise(NoiseModel::depolarizing(0.002))
            .build();
        let (_, stats) = EnsembleRunner::new(config)
            .check_program_stats(&program)
            .expect("gate-noise session");
        let stats = stats.expect("noisy sweep sessions trace the tree");
        prop_assert_eq!(stats.frontier_ops, last_position);
        prop_assert!(stats.states_allocated <= 33, "pool allocates per wave, not per shot");
        for (row, bp) in stats.per_breakpoint.iter().zip(program.breakpoints()) {
            prop_assert!(row.unique_trajectories <= row.shots);
            let faulty_unique =
                row.unique_trajectories - usize::from(row.fault_free_shots > 0);
            prop_assert!(
                row.replayed_ops <= faulty_unique as u64 * bp.position as u64,
                "replay {} exceeds unique bound {} × {}",
                row.replayed_ops, faulty_unique, bp.position
            );
        }
        prop_assert!(stats.total_ops() <= stats.reference_ops(&program) + last_position);
    }
}

/// The satellite scenario: a 101-qubit noisy Clifford session routed by
/// `BackendChoice::Auto` end to end. All noise channels are Pauli, so
/// the tableau replays the full trajectory tree at a scale the dense
/// backend cannot even allocate — and the planted fault's syndrome
/// still convicts the program while hardware noise stays sub-decisive.
#[test]
fn hundred_qubit_noisy_repetition_code_on_auto() {
    // distance 51 → 51 data + 50 syndrome qubits = 101 qubits.
    let program = faulty_repetition_code_program(51, PauliFault::X(17));
    assert_eq!(program.num_qubits(), 101);
    let config = EnsembleConfig::builder()
        .shots(192)
        .seed(11)
        .noise(NoiseModel::depolarizing(1e-4).with_readout_flip(1e-3))
        .backend(BackendChoice::Auto)
        .build();
    let (reports, stats) = EnsembleRunner::new(config.clone())
        .check_program_stats(&program)
        .expect("101-qubit noisy Auto session");
    // The syndrome-is-zero claim is wrong (the planted X fault lights
    // ancillas 16 and 17) and both the ensemble and the exact check
    // convict it; the logical entanglement survives.
    assert_eq!(reports.len(), 2);
    assert_eq!(reports[0].verdict, Verdict::Fail, "{}", reports[0]);
    assert_eq!(reports[0].exact, Some(Verdict::Fail));
    assert_eq!(reports[1].verdict, Verdict::Pass, "{}", reports[1]);
    // The tree ran on the tableau: dedup must have collapsed the
    // ensemble (at these rates most shots are fault-free).
    let stats = stats.expect("noisy sweep sessions trace the tree");
    for row in &stats.per_breakpoint {
        assert!(
            row.unique_trajectories < row.shots / 2,
            "expected heavy dedup, got {}/{} unique",
            row.unique_trajectories,
            row.shots
        );
        assert!(row.fault_free_shots > 0);
    }
    // Same session, explicitly on the stabilizer backend: identical
    // bit for bit (Auto resolved to the tableau).
    let explicit = EnsembleRunner::new(config.with_backend(BackendChoice::Stabilizer))
        .check_program(&program)
        .expect("explicit stabilizer session");
    assert_reports_bit_identical(&reports, &explicit, "auto vs stabilizer");
    // The dense backend cannot represent 101 qubits at all.
    assert!(
        EnsembleRunner::new(config.with_backend(BackendChoice::Statevector))
            .check_program(&program)
            .is_err()
    );
}

/// Serial and parallel tree sessions agree bit for bit on a realistic
/// multi-breakpoint noisy program (the proptests cover random shapes;
/// this pins one deterministic instance with heavy dedup *and* forks).
#[test]
fn tree_serial_parallel_identical_with_stats() {
    let program = random_mixed_program(5, 30, 424242);
    let base = EnsembleConfig::builder()
        .shots(300)
        .seed(9)
        .noise(NoiseModel::depolarizing(0.003).with_readout_flip(0.01))
        .build();
    let serial = EnsembleRunner::new(base.with_parallel(false));
    let parallel = EnsembleRunner::new(base.with_parallel(true));
    let (reports_s, stats_s) = serial.check_program_stats(&program).unwrap();
    let (reports_p, stats_p) = parallel.check_program_stats(&program).unwrap();
    assert_reports_bit_identical(&reports_s, &reports_p, "serial vs parallel");
    // The work census is scheduling-independent too (the pool's
    // allocation count may differ: serial retires forks one at a time).
    let stats_s = stats_s.unwrap();
    let stats_p = stats_p.unwrap();
    assert_eq!(stats_s.per_breakpoint, stats_p.per_breakpoint);
    assert_eq!(stats_s.frontier_ops, stats_p.frontier_ops);
    assert!(stats_s.states_allocated <= 1);
    assert!(stats_p.states_allocated <= 33);
}

/// Pre-existing Pauli-noise ensemble reports are pinned bit for bit
/// against constants harvested *before* the Kraus-channel layer landed:
/// the Kraus generalization must leave every Pauli fast path — draw
/// order, tree dedup, readout corruption — untouched to the last bit,
/// on both backends. If this test fails, a "refactor" changed the
/// noisy determinism contract.
#[test]
fn pauli_noise_reports_are_pinned_across_the_kraus_generalization() {
    let program = faulty_repetition_code_program(5, PauliFault::X(2));
    let run = |backend: BackendChoice| {
        let config = EnsembleConfig::builder()
            .shots(256)
            .seed(42)
            .backend(backend)
            .noise(NoiseModel::depolarizing(0.01).with_readout_flip(0.02))
            .build();
        EnsembleRunner::new(config).check_program(&program).unwrap()
    };

    // (statistic bits, p-value bits, verdict, hist total/distinct/mode)
    type Pin = (u64, u64, Verdict, (u64, usize, Option<u64>));
    let check = |reports: &[AssertionReport], pins: &[Pin], what: &str| {
        assert_eq!(reports.len(), pins.len(), "{what}: report count");
        for (r, (stat, p, verdict, hist)) in reports.iter().zip(pins) {
            assert_eq!(
                r.statistic.to_bits(),
                *stat,
                "{what} #{}: statistic",
                r.index
            );
            assert_eq!(r.p_value.to_bits(), *p, "{what} #{}: p-value", r.index);
            assert_eq!(r.verdict, *verdict, "{what} #{}: verdict", r.index);
            let got = (
                r.histogram.total(),
                r.histogram.distinct(),
                r.histogram.mode(),
            );
            assert_eq!(got, *hist, "{what} #{}: histogram", r.index);
        }
    };

    check(
        &run(BackendChoice::Statevector),
        &[
            (
                0x41ad564bf0b20003,
                0x0000000000000000,
                Verdict::Fail,
                (256, 9, Some(6)),
            ),
            (
                0x40652346c43e8331,
                0x380fa22808133c17,
                Verdict::Pass,
                (256, 2, Some(1)),
            ),
        ],
        "statevector",
    );
    check(
        &run(BackendChoice::Stabilizer),
        &[
            (
                0x41ad1a92a2480005,
                0x0000000000000000,
                Verdict::Fail,
                (256, 9, Some(6)),
            ),
            (
                0x40638a10b8e70ca7,
                0x38a3362a8faf6c4f,
                Verdict::Pass,
                (256, 2, Some(0)),
            ),
        ],
        "stabilizer",
    );
}
