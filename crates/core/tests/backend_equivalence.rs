//! Cross-backend equivalence: on random Clifford programs the
//! stabilizer tableau and the dense statevector must be the *same
//! debugger* — identical assertion verdicts, identical exact verdicts,
//! and per-breakpoint outcome distributions agreeing to 1e-9 — on
//! random phase-spiced *non-Clifford* programs the sparse amplitude
//! map must reach the dense engine's verdicts too, and
//! `BackendChoice::Auto` must never change a verdict relative to the
//! default statevector engine.
//!
//! Verdict equality across backends is only meaningful when every
//! generated assertion is *decisive*, because the two engines draw
//! different (equally valid) ensembles. Stabilizer states make
//! decisiveness easy to guarantee: every register marginal is uniform
//! over an affine subspace, so
//!
//! * a classical assertion's match probability is 0, a power of ½, or
//!   exactly 1 — one stray shot in 256 already rejects;
//! * a ≤ 4-qubit superposition probe is either exactly flat (accepted
//!   at α = 10⁻⁶ with false-rejection odds 10⁻⁶) or missing at least
//!   half its support (χ² ≈ shots, decisively rejected);
//! * a single-qubit register pair is perfectly correlated, perfectly
//!   independent, or degenerate — never in between.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qdb_circuit::{GateSink, OptLevel, Program, QReg};
use qdb_core::{AssertionReport, BackendChoice, EnsembleConfig, EnsembleRunner, SweepRunner};
use qdb_sim::{SimBackend, StabilizerState, State};

/// Build a pseudo-random Clifford program: `gates` Clifford gates on
/// `n` qubits with decisive assertions sprinkled at random positions
/// (and always one at the end).
fn random_clifford_program(n: usize, gates: usize, seed: u64) -> Program {
    random_program(n, gates, seed, false)
}

/// As [`random_clifford_program`], but with diagonal non-Clifford
/// phases (T, Tdg, Rz, controlled-phase) sprinkled between the Clifford
/// gates. Diagonal gates never change a computational-basis outcome
/// distribution and are local/controlled-local unitaries, so every
/// decisiveness argument from the module docs carries over verbatim —
/// while the program as a whole is non-Clifford and therefore eligible
/// for the sparse amplitude-map backend.
fn random_phase_spiced_program(n: usize, gates: usize, seed: u64) -> Program {
    random_program(n, gates, seed, true)
}

fn random_program(n: usize, gates: usize, seed: u64, diagonal_spice: bool) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Program::new();
    let reg = p.alloc_register("q", n);
    let maybe_assert = |p: &mut Program, rng: &mut StdRng, force: bool| {
        if !force && rng.gen::<f64>() >= 0.15 {
            return;
        }
        match rng.gen_range(0..4u32) {
            0 => {
                // Classical probe over a random window, random claim.
                let width = rng.gen_range(1..n.min(6) + 1);
                let start = rng.gen_range(0..n - width + 1);
                let probe = QReg::new("probe", (start..start + width).collect());
                let expected = rng.gen_range(0..probe.domain_size());
                p.assert_classical(&probe, expected);
            }
            1 => {
                // Narrow superposition probe (width ≤ 4 keeps χ² power
                // decisive at 256 shots).
                let width = rng.gen_range(1..n.min(4) + 1);
                let start = rng.gen_range(0..n - width + 1);
                let probe = QReg::new("probe", (start..start + width).collect());
                p.assert_superposition(&probe);
            }
            kind => {
                // Single-qubit register pair: correlation is all,
                // nothing, or degenerate for stabilizer states.
                let qa = rng.gen_range(0..n);
                let mut qb = rng.gen_range(0..n - 1);
                if qb >= qa {
                    qb += 1;
                }
                let a = QReg::new("a", vec![qa]);
                let b = QReg::new("b", vec![qb]);
                if kind == 2 {
                    p.assert_entangled(&a, &b);
                } else {
                    p.assert_product(&a, &b);
                }
            }
        }
    };
    for _ in 0..gates {
        let target = rng.gen_range(0..n);
        match rng.gen_range(0..10u32) {
            0 => p.h(target),
            1 => p.s(target),
            2 => p.sdg(target),
            3 => p.x(target),
            4 => p.y(target),
            5 => p.z(target),
            kind => {
                let mut other = rng.gen_range(0..n - 1);
                if other >= target {
                    other += 1;
                }
                match kind {
                    6 => p.cx(other, target),
                    7 => p.cz(other, target),
                    8 => p.push(qdb_circuit::Instruction::controlled_gate(
                        vec![other],
                        qdb_circuit::GateKind::Y,
                        target,
                    )),
                    _ => p.swap(other, target),
                }
            }
        }
        if diagonal_spice && rng.gen::<f64>() < 0.3 {
            let q = rng.gen_range(0..n);
            match rng.gen_range(0..4u32) {
                0 => p.t(q),
                1 => p.tdg(q),
                2 => p.rz(q, rng.gen_range(0.1..3.0)),
                _ => {
                    let mut other = rng.gen_range(0..n - 1);
                    if other >= q {
                        other += 1;
                    }
                    p.cphase(other, q, rng.gen_range(0.1..3.0));
                }
            }
        }
        maybe_assert(&mut p, &mut rng, false);
    }
    maybe_assert(&mut p, &mut rng, true);
    let _ = reg;
    p
}

fn verdicts(reports: &[AssertionReport]) -> Vec<(usize, String, String)> {
    reports
        .iter()
        .map(|r| (r.index, r.verdict.to_string(), format!("{:?}", r.exact)))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn backends_reach_identical_verdicts_on_random_clifford_programs(
        n in 2..13usize,
        gates in 0..60usize,
        program_seed in 0..u64::MAX,
        run_seed in 0..u64::MAX,
    ) {
        let program = random_clifford_program(n, gates, program_seed);
        prop_assume!(!program.breakpoints().is_empty());
        // Decisive regime: tiny α so true-null tests essentially never
        // reject, enough shots so false claims essentially always do.
        let base = EnsembleConfig::builder()
            .shots(256)
            .alpha(1e-6)
            .seed(run_seed)
            .build();
        let dense = EnsembleRunner::new(base.with_backend(BackendChoice::Statevector))
            .check_program(&program)
            .expect("statevector session");
        let tableau = EnsembleRunner::new(base.with_backend(BackendChoice::Stabilizer))
            .check_program(&program)
            .expect("stabilizer session");
        prop_assert_eq!(verdicts(&dense), verdicts(&tableau));
        // And Auto (which resolves to the tableau here — the program is
        // Clifford) reproduces the stabilizer reports bit for bit.
        let auto = EnsembleRunner::new(base.with_backend(BackendChoice::Auto))
            .check_program(&program)
            .expect("auto session");
        for (t, a) in tableau.iter().zip(&auto) {
            prop_assert_eq!(t.verdict, a.verdict);
            prop_assert_eq!(t.p_value.to_bits(), a.p_value.to_bits());
            prop_assert_eq!(t.exact, a.exact);
        }
    }

    #[test]
    fn sparse_and_dense_reach_identical_verdicts_on_non_clifford_programs(
        n in 2..13usize,
        gates in 0..60usize,
        program_seed in 0..u64::MAX,
        run_seed in 0..u64::MAX,
    ) {
        // Diagonal spice keeps every assertion exactly as decisive as
        // in the Clifford case (see the generator's docs) while making
        // the program non-Clifford, so the explicit Sparse tier is the
        // engine actually under test here — including states whose
        // support Hadamards saturate.
        let program = random_phase_spiced_program(n, gates, program_seed);
        prop_assume!(!program.breakpoints().is_empty());
        let base = EnsembleConfig::builder()
            .shots(256)
            .alpha(1e-6)
            .seed(run_seed)
            .build();
        let dense = EnsembleRunner::new(base.with_backend(BackendChoice::Statevector))
            .check_program(&program)
            .expect("statevector session");
        let sparse = EnsembleRunner::new(base.with_backend(BackendChoice::Sparse))
            .check_program(&program)
            .expect("sparse session");
        prop_assert_eq!(verdicts(&dense), verdicts(&sparse));
    }

    #[test]
    fn per_breakpoint_outcome_probabilities_agree_to_1e9(
        n in 2..11usize,
        gates in 0..50usize,
        program_seed in 0..u64::MAX,
    ) {
        let program = random_clifford_program(n, gates, program_seed);
        prop_assume!(!program.breakpoints().is_empty());
        let plan = program.compile(OptLevel::Specialize);
        prop_assert!(plan.is_clifford());
        let all_qubits: Vec<usize> = (0..n).collect();
        let sweep = SweepRunner::new(EnsembleConfig::default());
        let dense = sweep
            .walk_backend::<State, _>(&program, &plan, |_, _, state| {
                Ok(SimBackend::outcome_distribution(state, &all_qubits))
            })
            .expect("dense walk");
        let tableau = sweep
            .walk_backend::<StabilizerState, _>(&program, &plan, |_, _, tab| {
                Ok(tab.outcome_distribution(&all_qubits))
            })
            .expect("tableau walk");
        prop_assert_eq!(dense.len(), tableau.len());
        for (index, (d, t)) in dense.iter().zip(&tableau).enumerate() {
            for key in d.keys().chain(t.keys()) {
                let dp = d.get(key).copied().unwrap_or(0.0);
                let tp = t.get(key).copied().unwrap_or(0.0);
                prop_assert!(
                    (dp - tp).abs() <= 1e-9,
                    "breakpoint {}, outcome {:#b}: dense {} vs tableau {}",
                    index, key, dp, tp
                );
            }
        }
    }
}

/// `BackendChoice::Auto` must never change a verdict relative to the
/// default statevector engine, across the kinds of programs the tier-1
/// suite exercises: Clifford programs (where Auto genuinely switches
/// engine) and non-Clifford programs (where Auto must be bit-identical
/// to the default).
#[test]
fn auto_never_changes_a_verdict_across_representative_programs() {
    let mut programs: Vec<(&str, Program)> = Vec::new();

    let mut bell = Program::new();
    let q = bell.alloc_register("q", 2);
    bell.h(q.bit(0));
    bell.cx(q.bit(0), q.bit(1));
    let m0 = QReg::new("m0", vec![q.bit(0)]);
    let m1 = QReg::new("m1", vec![q.bit(1)]);
    bell.assert_entangled(&m0, &m1);
    programs.push(("bell", bell));

    let mut staircase = Program::new();
    let r = staircase.alloc_register("r", 3);
    staircase.prep_int(&r, 5);
    staircase.assert_classical(&r, 5);
    for i in 0..3 {
        staircase.h(r.bit(i));
    }
    staircase.assert_superposition(&r);
    staircase.t(r.bit(0)); // non-Clifford: Auto stays on the statevector
    staircase.cx(r.bit(0), r.bit(1));
    let a = QReg::new("a", vec![r.bit(0)]);
    let b = QReg::new("b", vec![r.bit(1)]);
    staircase.assert_entangled(&a, &b);
    programs.push(("staircase-with-t", staircase));

    let mut wrong = Program::new();
    let w = wrong.alloc_register("w", 3);
    wrong.prep_int(&w, 5);
    wrong.assert_classical(&w, 6); // decisively false claim
    programs.push(("wrong-classical", wrong));

    let mut ghz = Program::new();
    let g = ghz.alloc_register("g", 8);
    ghz.h(g.bit(0));
    for i in 1..8 {
        ghz.cx(g.bit(i - 1), g.bit(i));
    }
    let first = QReg::new("first", vec![g.bit(0)]);
    let last = QReg::new("last", vec![g.bit(7)]);
    ghz.assert_entangled(&first, &last);
    programs.push(("ghz8", ghz));

    for (name, program) in &programs {
        for noise in [None, Some(qdb_sim::NoiseModel::depolarizing(0.002))] {
            let mut base = EnsembleConfig::builder().shots(256).seed(8).build();
            base.noise = noise;
            let default_engine = EnsembleRunner::new(base.clone())
                .check_program(program)
                .unwrap();
            let auto = EnsembleRunner::new(base.with_backend(BackendChoice::Auto))
                .check_program(program)
                .unwrap();
            assert_eq!(default_engine.len(), auto.len(), "{name}");
            for (d, a) in default_engine.iter().zip(&auto) {
                assert_eq!(d.verdict, a.verdict, "{name} / noise {noise:?}: {d} vs {a}");
                assert_eq!(d.exact, a.exact, "{name} / noise {noise:?}");
            }
        }
    }
}
