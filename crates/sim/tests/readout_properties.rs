//! The sampling contract of `SimBackend::sample_each`. On the tableau
//! and the support map it draws, shot for shot, the outcome that
//! measuring the qubits in list order on a copy of the state draws with
//! the same RNG, and leaves every RNG where that leaves it. On the dense
//! statevector it draws, shot for shot, the outcome of the CDF
//! reference `Sampler`, packed over the qubits, and leaves every RNG
//! where that leaves it. Every backend panics on an out-of-range qubit
//! or an over-long list, and `sample_once` panics alike.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qdb_sim::measure::extract_bits;
use qdb_sim::{
    gates, Complex, KernelOp, Sampler, SimBackend, SimOp, SparseState, StabilizerState, State,
};

/// Shots per case: enough for later shots to walk prefixes that
/// earlier ones reached.
const SHOTS: u64 = 96;

/// A qubit list of `len` entries over `n` qubits; with `n < len` it
/// must repeat qubits, and it may repeat them anyway.
fn qubit_list(n: usize, len: usize, rng: &mut StdRng) -> Vec<usize> {
    (0..len).map(|_| rng.gen_range(0..n)).collect()
}

/// A random Clifford circuit on `n` qubits. Hadamards are rare, so
/// many qubits stay deterministic and the rest are random.
fn random_tableau(n: usize, rng: &mut StdRng) -> StabilizerState {
    let mut s = StabilizerState::zero(n).unwrap();
    for _ in 0..rng.gen_range(0..3 * n + 1) {
        let q = rng.gen_range(0..n);
        let other = (q + rng.gen_range(1..n.max(2))) % n;
        match rng.gen_range(0..10u32) {
            0 | 1 => s.h(q),
            2 => s.s(q),
            3 => s.sdg(q),
            4 => s.x(q),
            5 => s.y(q),
            6 => s.z(q),
            _ if other == q => {}
            7 => s.cx(q, other),
            8 => s.cz(q, other),
            _ => s.swap(q, other),
        }
    }
    s
}

/// A random state on `n` qubits whose branching gates (H, ry) act on
/// at most the first 8 qubits, so the support stays at most 256
/// entries; `saturate` first puts a Hadamard on each of them, which
/// fills the whole support of a state of up to 8 qubits.
fn random_sparse(n: usize, saturate: bool, rng: &mut StdRng) -> SparseState {
    let branching = n.min(8);
    let h = |q| SimOp::new(vec![], q, KernelOp::General(gates::h()));
    let mut s = SparseState::zero(n).unwrap();
    if saturate {
        for q in 0..branching {
            s.apply_op(&h(q));
        }
    }
    for _ in 0..rng.gen_range(0..40u32) {
        let q = rng.gen_range(0..n);
        let other = (q + rng.gen_range(1..n.max(2))) % n;
        let t = gates::t().0;
        let op = match rng.gen_range(0..6u32) {
            0 => h(q % branching),
            1 => SimOp::new(vec![], q % branching, KernelOp::General(gates::ry(0.7))),
            2 => SimOp::new(
                vec![],
                q,
                KernelOp::Diagonal {
                    d0: t[0][0],
                    d1: t[1][1],
                },
            ),
            _ if other == q => continue,
            3 | 4 => SimOp::new(
                vec![q],
                other,
                KernelOp::AntiDiagonal {
                    a01: Complex::ONE,
                    a10: Complex::ONE,
                },
            ),
            _ => SimOp::new(vec![], q, KernelOp::Swap { other }),
        };
        s.apply_op(&op);
    }
    s
}

/// A random state on `n` qubits: Hadamards, rotations, T gates and
/// CNOTs, so some outcomes have zero probability and others tiny ones.
fn random_dense(n: usize, rng: &mut StdRng) -> State {
    let mut s = State::zero(n);
    for _ in 0..rng.gen_range(0..4 * n + 1) {
        let q = rng.gen_range(0..n);
        let other = (q + rng.gen_range(1..n.max(2))) % n;
        match rng.gen_range(0..5u32) {
            0 => s.apply_1q(q, &gates::h()),
            1 => s.apply_1q(q, &gates::ry(rng.gen_range(0.0..3.2))),
            2 => s.apply_1q(q, &gates::t()),
            _ if other == q => {}
            _ => s.apply_controlled_1q(&[q], other, &gates::x()),
        }
    }
    s
}

/// Draw `SHOTS` outcomes of `qubits` through `sample_each`, and one by
/// one through `reference` from clones of the same streams, and compare
/// both the outcomes and where the streams end.
fn assert_matches<B: SimBackend>(
    state: &B,
    qubits: &[usize],
    seed: u64,
    mut reference: impl FnMut(&mut StdRng) -> u64,
) -> Result<(), TestCaseError> {
    let mut rngs: Vec<StdRng> = (0..SHOTS)
        .map(|shot| StdRng::seed_from_u64(seed ^ shot))
        .collect();
    let mut streams = rngs.clone();
    let each = state.sample_each(qubits, rngs.iter_mut());
    let one_by_one: Vec<u64> = streams.iter_mut().map(&mut reference).collect();
    prop_assert_eq!(each, one_by_one);
    prop_assert!(rngs == streams, "the streams end at different positions");
    Ok(())
}

/// [`assert_matches`] against measuring `qubits` in list order on a
/// copy of `state`.
fn assert_matches_measuring<B: SimBackend>(
    state: &B,
    qubits: &[usize],
    seed: u64,
) -> Result<(), TestCaseError> {
    assert_matches(state, qubits, seed, |rng| {
        let mut copy = state.clone();
        qubits.iter().enumerate().fold(0, |out, (pos, &q)| {
            out | u64::from(copy.measure_qubit(q, rng)) << pos
        })
    })
}

/// List lengths: empty, the 64-entry packing limit, or in between.
fn list_len() -> impl Strategy<Value = usize> {
    prop_oneof![Just(0usize), Just(64usize), 1usize..64]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn tableau_readout_matches_measuring_in_order(
        n in 1usize..130,
        len in list_len(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_tableau(n, &mut rng);
        let qubits = qubit_list(n, len, &mut rng);
        assert_matches_measuring(&state, &qubits, seed)?;
    }

    #[test]
    fn sparse_readout_matches_measuring_in_order(
        n in prop_oneof![1usize..20, 20usize..65],
        saturate in 0u8..2,
        len in list_len(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_sparse(n, saturate == 1, &mut rng);
        let qubits = qubit_list(n, len, &mut rng);
        assert_matches_measuring(&state, &qubits, seed)?;
    }

    #[test]
    fn dense_scan_matches_the_cdf_sampler(
        n in 1usize..9,
        len in list_len(),
        seed in 0u64..u64::MAX,
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let state = random_dense(n, &mut rng);
        let qubits = qubit_list(n, len, &mut rng);
        let sampler = Sampler::new(&state);
        assert_matches(&state, &qubits, seed, |rng| {
            extract_bits(sampler.sample(rng), &qubits)
        })?;
    }
}

/// The message `f` panics with.
fn panic_message(f: impl FnOnce()) -> String {
    let payload = catch_unwind(AssertUnwindSafe(f)).expect_err("the draw should panic");
    payload
        .downcast_ref::<String>()
        .cloned()
        .or_else(|| payload.downcast_ref::<&str>().map(|s| (*s).to_string()))
        .unwrap_or_default()
}

/// `sample_each` with one RNG panics with `sample_once`'s message.
fn assert_panics_alike<B: SimBackend>(state: &B, qubits: &[usize], expected: &str) {
    let once = panic_message(|| {
        state.sample_once(qubits, &mut StdRng::seed_from_u64(1));
    });
    let each = panic_message(|| {
        state.sample_each(qubits, [&mut StdRng::seed_from_u64(1)]);
    });
    assert_eq!(each, once, "{} on {qubits:?}", B::NAME);
    assert!(once.contains(expected), "{once}");
}

#[test]
fn bad_qubit_lists_panic_as_sample_once_does() {
    let mut tableau = StabilizerState::zero(3).unwrap();
    tableau.h(0);
    tableau.cx(0, 2);
    let mut sparse = SparseState::zero(3).unwrap();
    sparse.apply_op(&SimOp::new(vec![], 0, KernelOp::General(gates::h())));
    let mut dense = State::zero(3);
    dense.apply_1q(0, &gates::h());
    let too_many = vec![0; 65];
    for qubits in [&[3, 0][..], &[0, 2, 7], &[1, 0, 3]] {
        assert_panics_alike(&tableau, qubits, "out of range");
        assert_panics_alike(&sparse, qubits, "out of range");
        assert_panics_alike(&dense, qubits, "out of range");
    }
    assert_panics_alike(&tableau, &too_many, "more than 64 qubits");
    assert_panics_alike(&sparse, &too_many, "more than 64 qubits");
    assert_panics_alike(&dense, &too_many, "more than 64 qubits");
}
