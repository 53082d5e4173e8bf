//! Thread-count invariance of the parallel engine.
//!
//! The workspace's determinism contract says results never depend on
//! how much parallelism the host happens to offer. This file pins that
//! across both kinds of work this crate schedules — fan-out of
//! independent units (breakpoints, shots, fork waves) and intra-state
//! kernel chunking — by running identical sessions under
//! `RAYON_NUM_THREADS ∈ {1, 2, 4}` × {Sweep, PerPrefix} × noise levels
//! and requiring the reports bit-identical to a serial canonical run:
//!
//! * proptested on the statevector over random mixed programs;
//! * pinned on a sparse-eligible program routed to the sparse backend;
//! * proven to actually *chunk* on a 16-qubit sweep (the policy
//!   threshold is [`INTRA_PAR_MIN_QUBITS`] = 15), not just to agree;
//! * preserved under an armed [`RunBudget`]: an interrupted session's
//!   partial report must be a bit-identical strict prefix of the full
//!   report at every thread count.
//!
//! The `RAYON_NUM_THREADS` override is re-read per rayon call (compat
//! shim behavior), so toggling the env var between sessions is enough;
//! a file-local mutex serializes the toggling against the test
//! harness's own thread pool.
//!
//! [`INTRA_PAR_MIN_QUBITS`]: qdb_sim::kernels::INTRA_PAR_MIN_QUBITS

use std::sync::Mutex;

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::{
    AssertionReport, BackendChoice, CoreError, EnsembleConfig, EnsembleRunner, ExecutionStrategy,
    RunBudget, SweepRunner, Verdict,
};
use qdb_sim::NoiseModel;

/// Serializes `RAYON_NUM_THREADS` toggling across concurrently running
/// tests in this binary.
static ENV_LOCK: Mutex<()> = Mutex::new(());

/// Run `f` with the rayon pool pinned to `threads` workers. The caller
/// must hold [`ENV_LOCK`].
fn with_threads<T>(threads: usize, f: impl FnOnce() -> T) -> T {
    std::env::set_var("RAYON_NUM_THREADS", threads.to_string());
    let out = f();
    std::env::remove_var("RAYON_NUM_THREADS");
    out
}

const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const STRATEGIES: [ExecutionStrategy; 2] = [ExecutionStrategy::Sweep, ExecutionStrategy::PerPrefix];

/// A pseudo-random mixed (non-Clifford) program with assertions — the
/// verdicts are irrelevant, only their bits matter.
fn mixed_program(n: usize, gates: usize, seed: u64) -> Program {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut p = Program::new();
    let reg = p.alloc_register("q", n);
    for g in 0..gates {
        let target = rng.gen_range(0..n);
        match rng.gen_range(0..7u32) {
            0 => p.h(target),
            1 => p.t(target),
            2 => p.rz(target, rng.gen_range(-3.0..3.0)),
            3 => p.x(target),
            _ => {
                let mut other = rng.gen_range(0..n - 1);
                if other >= target {
                    other += 1;
                }
                match rng.gen_range(0..3u32) {
                    0 => p.cx(other, target),
                    1 => p.cphase(other, target, rng.gen_range(-2.0..2.0)),
                    _ => p.swap(other, target),
                }
            }
        }
        if g % 11 == 5 {
            p.assert_superposition(&reg);
        }
    }
    p.assert_superposition(&reg);
    p
}

/// A sparse-eligible staircase: structured prep + a narrow non-Clifford
/// spine, the shape the sparse backend's router accepts.
fn sparse_program() -> Program {
    let mut p = Program::new();
    let a: QReg = p.alloc_register("a", 2);
    let b: QReg = p.alloc_register("b", 2);
    p.prep_int(&a, 3);
    p.assert_classical(&a, 3);
    p.h(b.bit(0));
    p.cx(b.bit(0), b.bit(1));
    let b0 = QReg::new("b0", vec![b.bit(0)]);
    let b1 = QReg::new("b1", vec![b.bit(1)]);
    p.assert_entangled(&b0, &b1);
    p.t(a.bit(0));
    p.h(a.bit(1));
    p.cz(a.bit(0), a.bit(1));
    p.assert_superposition(&a);
    p
}

fn assert_reports_bit_identical(a: &[AssertionReport], b: &[AssertionReport], what: &str) {
    assert_eq!(a.len(), b.len(), "{what}: report count");
    for (x, y) in a.iter().zip(b) {
        assert_eq!(x.index, y.index, "{what}");
        assert_eq!(x.statistic.to_bits(), y.statistic.to_bits(), "{what}");
        assert_eq!(x.p_value.to_bits(), y.p_value.to_bits(), "{what}");
        assert_eq!(x.verdict, y.verdict, "{what}");
        assert_eq!(x.exact, y.exact, "{what}");
        assert_eq!(x.histogram, y.histogram, "{what}");
    }
}

/// `partial` must be the strict-prefix form of `full`: a bit-identical
/// evaluated prefix followed by `Unevaluated` markers.
fn assert_strict_prefix(partial: &qdb_core::PartialReport, full: &[AssertionReport], ctx: &str) {
    assert_eq!(partial.reports.len(), full.len(), "{ctx}: span");
    assert!(partial.completed <= full.len(), "{ctx}");
    assert_eq!(
        partial.completed_reports(),
        &full[..partial.completed],
        "{ctx}: evaluated prefix must be bit-identical"
    );
    for report in partial.unevaluated_reports() {
        assert_eq!(report.verdict, Verdict::Unevaluated, "{ctx}");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Statevector sessions are bit-identical across thread counts ×
    /// strategies, noisy and noiseless alike.
    #[test]
    fn statevector_reports_invariant_across_thread_counts(
        n in 2..6usize,
        gates in 8..30usize,
        program_seed in 0..u64::MAX,
        run_seed in 0..u64::MAX,
        noisy in prop_oneof![Just(false), Just(true)],
    ) {
        let _guard = ENV_LOCK.lock().unwrap();
        let program = mixed_program(n, gates, program_seed);
        let mut base = EnsembleConfig::default()
            .with_shots(64)
            .with_seed(run_seed);
        if noisy {
            base = base.with_noise(NoiseModel::depolarizing(0.01).with_readout_flip(0.02));
        }
        for strategy in STRATEGIES {
            let canonical = EnsembleRunner::new(
                base.with_strategy(strategy).with_parallel(false),
            )
            .check_program(&program)
            .expect("canonical serial session");
            for threads in THREAD_COUNTS {
                let reports = with_threads(threads, || {
                    EnsembleRunner::new(base.with_strategy(strategy).with_parallel(true))
                        .check_program(&program)
                        .expect("threaded session")
                });
                assert_reports_bit_identical(
                    &canonical,
                    &reports,
                    &format!("{strategy:?}/threads={threads}"),
                );
            }
        }
    }
}

/// The same invariance on the sparse backend (a sparse-eligible
/// program), pinned deterministically across the full matrix.
#[test]
fn sparse_reports_invariant_across_thread_counts() {
    let _guard = ENV_LOCK.lock().unwrap();
    let program = sparse_program();
    for noise in [None, Some(NoiseModel::depolarizing(0.01))] {
        let mut base = EnsembleConfig::default()
            .with_shots(96)
            .with_seed(17)
            .with_backend(BackendChoice::Sparse);
        if let Some(noise) = &noise {
            base = base.with_noise(*noise);
        }
        for strategy in STRATEGIES {
            let canonical = EnsembleRunner::new(base.with_strategy(strategy).with_parallel(false))
                .check_program(&program)
                .expect("canonical sparse session");
            for threads in THREAD_COUNTS {
                let reports = with_threads(threads, || {
                    EnsembleRunner::new(base.with_strategy(strategy).with_parallel(true))
                        .check_program(&program)
                        .expect("threaded sparse session")
                });
                assert_reports_bit_identical(
                    &canonical,
                    &reports,
                    &format!(
                        "sparse/noisy={}/{strategy:?}/threads={threads}",
                        noise.is_some()
                    ),
                );
            }
        }
    }
}

/// Above the 15-qubit threshold the sweep genuinely chunks — and the
/// chunked evolution is bit-identical to serial, outcomes and
/// amplitudes both. With `parallel` off the kernels stay serial; with
/// it on and four workers they must engage.
#[test]
fn sixteen_qubit_sweep_chunks_and_stays_bit_identical() {
    let _guard = ENV_LOCK.lock().unwrap();
    let n = 16;
    let mut p = Program::new();
    let reg = p.alloc_register("q", n);
    for q in 0..n {
        p.h(q);
    }
    for q in 0..n - 1 {
        p.cx(q, q + 1);
    }
    for q in 0..n {
        p.t(q);
        p.cphase(q, (q + 3) % n, 0.37 + q as f64 * 0.11);
    }
    p.assert_superposition(&reg);
    let base = EnsembleConfig::default().with_shots(32).with_seed(5);

    let serial = SweepRunner::new(base.with_parallel(false))
        .run_all(&p)
        .expect("serial sweep");
    assert_eq!(serial.len(), 1);
    assert_eq!(
        serial[0].state.par_chunks(),
        0,
        "serial sweep must not chunk"
    );

    let swept = with_threads(4, || {
        SweepRunner::new(base.with_parallel(true))
            .run_all(&p)
            .expect("threaded sweep")
    });
    assert_eq!(swept[0].outcomes, serial[0].outcomes, "outcomes");
    for i in 0..serial[0].state.dim() {
        let (a, b) = (serial[0].state.amplitude(i), swept[0].state.amplitude(i));
        assert_eq!(a.re.to_bits(), b.re.to_bits(), "amp {i}");
        assert_eq!(a.im.to_bits(), b.im.to_bits(), "amp {i}");
    }
    assert!(
        swept[0].state.par_chunks() > 0,
        "parallel sweep must chunk with four workers"
    );
}

/// An armed budget must hand back a strict-prefix partial at every
/// thread count. The governor polls a single
/// state's resident footprint, so a ceiling below one dense 5-qubit
/// state (512 B) trips on the first poll of every configuration — the
/// same marker-partial shape everywhere, regardless of scheduling.
#[test]
fn armed_budget_preserves_strict_prefix_at_every_thread_count() {
    let _guard = ENV_LOCK.lock().unwrap();
    let program = mixed_program(5, 24, 0xB0DE);
    let base = EnsembleConfig::default()
        .with_shots(96)
        .with_seed(23)
        .with_noise(NoiseModel::depolarizing(0.05));
    let full = EnsembleRunner::new(base.with_parallel(false))
        .check_program(&program)
        .expect("unbudgeted canonical session");
    let ceiling = 256;
    for threads in THREAD_COUNTS {
        let ctx = format!("threads={threads}");
        let err = with_threads(threads, || {
            EnsembleRunner::new(
                base.with_parallel(true)
                    .with_budget(RunBudget::default().with_max_resident_bytes(ceiling)),
            )
            .check_program(&program)
            .expect_err("ceiling must trip")
        });
        match &err {
            CoreError::Interrupted { cause, partial } => {
                assert!(
                    matches!(
                        cause,
                        qdb_core::InterruptCause::MemoryBudget { limit: 256, .. }
                    ),
                    "{ctx}: {cause:?}"
                );
                assert_strict_prefix(partial, &full, &ctx);
            }
            other => panic!("{ctx}: expected Interrupted, got {other:?}"),
        }
    }
}

/// A *mid-run* budget trip with an evaluated prefix, deterministic by
/// construction: the sparse backend's resident footprint grows as gates
/// spread amplitude support, so a ceiling calibrated to the first
/// breakpoint's footprint passes that breakpoint and trips later — at
/// the same poll site at every thread count, leaving a
/// non-empty bit-identical prefix.
#[test]
fn armed_budget_trips_mid_run_with_identical_prefix_across_threads() {
    let _guard = ENV_LOCK.lock().unwrap();
    let program = sparse_program();
    let base = EnsembleConfig::default()
        .with_shots(96)
        .with_seed(17)
        .with_backend(BackendChoice::Sparse);
    let full = EnsembleRunner::new(base.with_parallel(false))
        .check_program(&program)
        .expect("unbudgeted canonical session");

    // Calibrate: the walked backend's footprint at each breakpoint.
    let plan = program.compile(base.opt);
    let mut residents = Vec::new();
    SweepRunner::new(base.clone())
        .walk_backend::<qdb_sim::SparseState, _>(&program, &plan, |_, _, state| {
            residents.push(qdb_core::SimBackend::resident_bytes(state));
            Ok(())
        })
        .expect("calibration walk");
    let ceiling = residents[0];
    assert!(
        *residents.last().expect("breakpoints exist") > ceiling,
        "support must grow past the first breakpoint for this test to bite"
    );

    let mut completed_at: Option<usize> = None;
    for threads in THREAD_COUNTS {
        let ctx = format!("sparse-budget/threads={threads}");
        let err = with_threads(threads, || {
            EnsembleRunner::new(
                base.with_parallel(true)
                    .with_budget(RunBudget::default().with_max_resident_bytes(ceiling)),
            )
            .check_program(&program)
            .expect_err("growth past the ceiling must trip")
        });
        match &err {
            CoreError::Interrupted { partial, .. } => {
                assert!(partial.completed >= 1, "{ctx}: prefix must be non-empty");
                assert_strict_prefix(partial, &full, &ctx);
                // The trip site is scheduling-independent too.
                match completed_at {
                    None => completed_at = Some(partial.completed),
                    Some(n) => assert_eq!(partial.completed, n, "{ctx}: trip site moved"),
                }
            }
            other => panic!("{ctx}: expected Interrupted, got {other:?}"),
        }
    }
}
