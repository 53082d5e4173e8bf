//! Property tests pinning the compiled-vs-interpreted equivalence
//! contract: over random circuits, qubit counts, and seeds, the
//! compiled path must be value-identical to the uncompiled reference
//! path (every amplitude `==`, every probability bit-identical, the
//! same `gate_ops` accounting, and identical noisy trajectories), while
//! doing no more — and on controlled/swap-heavy circuits strictly less
//! — index work.

use proptest::prelude::*;
use qdb_circuit::{Circuit, GateSink, OptLevel};
use qdb_sim::State;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Append one generated instruction, mapping raw indices into range.
/// Op coverage: single-qubit gates of every kernel class, rotations,
/// controlled and doubly-controlled gates, swap, and controlled swap.
fn push_instruction(c: &mut Circuit, n: usize, op: u8, a: usize, b: usize, e: usize, theta: f64) {
    let q1 = a % n;
    match op % 12 {
        0 => c.h(q1),
        1 => c.x(q1),
        2 => c.y(q1),
        3 => c.t(q1),
        4 => c.rz(q1, theta),
        5 => c.phase(q1, theta),
        6 => c.ry(q1, theta),
        other => {
            if n == 1 {
                c.rx(q1, theta);
                return;
            }
            let q2 = (q1 + 1 + b % (n - 1)) % n;
            match other {
                7 => c.cx(q1, q2),
                8 => c.cphase(q1, q2, theta),
                9 => c.swap(q1, q2),
                _ => {
                    if n == 2 {
                        c.crz(q1, q2, theta);
                        return;
                    }
                    // Distinct third qubit for Toffoli / Fredkin.
                    let mut q3 = e % n;
                    while q3 == q1 || q3 == q2 {
                        q3 = (q3 + 1) % n;
                    }
                    if other == 10 {
                        c.ccx(q1, q2, q3);
                    } else {
                        c.cswap(q1, q2, q3);
                    }
                }
            }
        }
    }
}

fn build_circuit(num_qubits: usize, gates: &[(u8, usize, usize, usize, f64)]) -> Circuit {
    let mut c = Circuit::new(num_qubits);
    for &(op, a, b, e, theta) in gates {
        push_instruction(&mut c, num_qubits, op, a, b, e, theta);
    }
    c
}

fn gate_strategy() -> impl Strategy<Value = Vec<(u8, usize, usize, usize, f64)>> {
    prop::collection::vec(
        (0..12u8, 0..16usize, 0..16usize, 0..16usize, -3.0..3.0f64),
        0..48,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn specialized_plan_is_value_identical_to_reference(
        num_qubits in 1..6usize,
        gates in gate_strategy(),
        input in 0..8u64,
    ) {
        let c = build_circuit(num_qubits, &gates);
        let input = input % (1 << num_qubits);
        let plan = c.compile(OptLevel::Specialize);
        prop_assert_eq!(plan.ops().len(), c.len());

        let mut compiled = State::basis(num_qubits, input).unwrap();
        plan.apply_to(&mut compiled);
        let mut reference = State::basis(num_qubits, input).unwrap();
        c.apply_to(&mut reference);

        // Value-identical amplitudes (f64 `==` on every component)…
        prop_assert_eq!(&compiled, &reference);
        // …bit-identical probabilities (what sampling and reports see)…
        for (p, q) in compiled.probabilities().iter().zip(&reference.probabilities()) {
            prop_assert_eq!(p.to_bits(), q.to_bits());
        }
        // …the same gate accounting, and never more index work.
        prop_assert_eq!(compiled.gate_ops(), reference.gate_ops());
        prop_assert!(compiled.index_ops() <= reference.index_ops());
    }

    #[test]
    fn specialized_plan_matches_reference_segment_by_segment(
        num_qubits in 1..5usize,
        gates in gate_strategy(),
        cut_seed in 0..64usize,
    ) {
        let c = build_circuit(num_qubits, &gates);
        // Three arbitrary (sorted, possibly repeated) cut positions.
        let cuts = {
            let mut cuts = vec![
                cut_seed % (c.len() + 1),
                (cut_seed / 2) % (c.len() + 1),
                (cut_seed * 7 + 3) % (c.len() + 1),
            ];
            cuts.sort_unstable();
            cuts
        };
        let plan = c.compile(OptLevel::Specialize);

        let mut segmented = State::zero(num_qubits.max(1));
        let mut start = 0usize;
        for &cut in &cuts {
            plan.apply_range_to(&mut segmented, start..cut);
            start = cut;
        }
        plan.apply_range_to(&mut segmented, start..c.len());

        let mut reference = State::zero(num_qubits.max(1));
        c.apply_to(&mut reference);
        prop_assert_eq!(&segmented, &reference);
        prop_assert_eq!(segmented.gate_ops(), c.len() as u64);
    }

    #[test]
    fn compiled_noisy_trajectories_are_identical(
        num_qubits in 1..5usize,
        gates in gate_strategy(),
        seed in 0..1_000_000u64,
        p in 0.0..0.5f64,
    ) {
        let c = build_circuit(num_qubits, &gates);
        let noise = qdb_sim::NoiseModel::depolarizing(p).with_readout_flip(p / 3.0);
        let plan = c.compile(OptLevel::Specialize);

        let mut compiled = State::zero(num_qubits);
        let mut rng = StdRng::seed_from_u64(seed);
        plan.apply_to_noisy(&mut compiled, &noise, &mut rng);
        let compiled_draw: u64 = qdb_sim::Sampler::new(&compiled).sample(&mut rng);

        let mut reference = State::zero(num_qubits);
        let mut rng = StdRng::seed_from_u64(seed);
        c.apply_to_noisy(&mut reference, &noise, &mut rng);
        let reference_draw: u64 = qdb_sim::Sampler::new(&reference).sample(&mut rng);

        // Same trajectory: value-identical state, identical RNG
        // consumption (the post-trajectory draws agree), identical
        // measurement.
        prop_assert_eq!(&compiled, &reference);
        prop_assert_eq!(compiled_draw, reference_draw);
    }
}
