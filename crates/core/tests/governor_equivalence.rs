//! The execution governor's observable contract, pinned end to end:
//!
//! * **Strict-prefix bit-identity** — when a session is interrupted
//!   (deadline, cancellation, memory ceiling, or an injected fault),
//!   the partial report's evaluated prefix must be bit-for-bit the
//!   prefix of the report the *uninterrupted* session produces, and the
//!   remaining breakpoints must be `Verdict::Unevaluated` markers —
//!   across {Sweep, PerPrefix} × {statevector, stabilizer, sparse} ×
//!   {serial, parallel}.
//! * **Resumability** — re-running the same configuration with a fresh
//!   unlimited budget reproduces the uninterrupted report exactly.
//! * **Pool hygiene on faulted exits** — an injected fault that aborts
//!   the noisy trajectory tree mid-wave must still release every
//!   fork state: the engine census-asserts no fork state
//!   outstanding on every exit path (a leak panics the
//!   debug build, which the containment layer would surface as
//!   `WorkerPanic` instead of the injected cause — so asserting the
//!   *injected* cause below doubles as the census check).
//!
//! The fault-injection matrix needs `qdb_core::faultinject`, which
//! integration tests only see with `--features faultinject` (CI runs
//! `cargo test -p qdb-core --features faultinject`); the budget-driven
//! tests compile unconditionally.

use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::{
    AssertionReport, BackendChoice, CancelToken, CoreError, EnsembleConfig, EnsembleRunner,
    ExecutionStrategy, InterruptCause, RunBudget, Verdict,
};
/// A staircase with four decisive assertions; `clifford` keeps it
/// lowerable to the stabilizer tableau, otherwise T/CZ phases spice it
/// so the sparse and dense engines do non-Clifford work.
fn staircase(clifford: bool) -> Program {
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
    for i in 0..2 {
        p.h(a.bit(i));
    }
    if !clifford {
        p.t(a.bit(0));
        p.cz(a.bit(0), a.bit(1));
    }
    p.assert_superposition(&a);
    p.h(a.bit(0));
    if !clifford {
        p.tdg(a.bit(1));
    }
    p.assert_superposition(&b);
    p
}

/// The program/backend pairs of the equivalence matrix: the stabilizer
/// gets the Clifford staircase, the dense and sparse engines the
/// non-Clifford one.
fn matrix() -> Vec<(BackendChoice, Program)> {
    vec![
        (BackendChoice::Statevector, staircase(false)),
        (BackendChoice::Stabilizer, staircase(true)),
        (BackendChoice::Sparse, staircase(false)),
    ]
}

fn config(backend: BackendChoice, strategy: ExecutionStrategy, parallel: bool) -> EnsembleConfig {
    EnsembleConfig::default()
        .with_shots(96)
        .with_seed(41)
        .with_backend(backend)
        .with_strategy(strategy)
        .with_parallel(parallel)
}

const STRATEGIES: [ExecutionStrategy; 2] = [ExecutionStrategy::Sweep, ExecutionStrategy::PerPrefix];

/// Assert `partial` is the strict-prefix form of `full`: a bit-identical
/// evaluated prefix followed by `Unevaluated` markers, spanning every
/// breakpoint.
fn assert_strict_prefix(partial: &qdb_core::PartialReport, full: &[AssertionReport], ctx: &str) {
    assert_eq!(
        partial.reports.len(),
        full.len(),
        "{ctx}: partial must span the program"
    );
    assert!(partial.completed <= full.len(), "{ctx}");
    assert_eq!(
        partial.completed_reports(),
        &full[..partial.completed],
        "{ctx}: evaluated prefix must be bit-identical"
    );
    for report in partial.unevaluated_reports() {
        assert_eq!(report.verdict, Verdict::Unevaluated, "{ctx}");
        assert_eq!(report.shots, 0, "{ctx}");
    }
}

#[test]
fn pre_cancelled_sessions_interrupt_with_marker_partials_everywhere() {
    for (backend, program) in matrix() {
        for strategy in STRATEGIES {
            for parallel in [false, true] {
                let ctx = format!("{backend:?}/{strategy:?}/parallel={parallel}");
                let full = EnsembleRunner::new(config(backend, strategy, parallel))
                    .check_program(&program)
                    .unwrap_or_else(|e| panic!("{ctx}: baseline failed: {e}"));
                let cancel = CancelToken::new();
                cancel.cancel();
                let budget = RunBudget::default().with_cancel(cancel);
                let err =
                    EnsembleRunner::new(config(backend, strategy, parallel).with_budget(budget))
                        .check_program(&program)
                        .expect_err("cancelled session must interrupt");
                match &err {
                    CoreError::Interrupted { cause, partial } => {
                        assert_eq!(*cause, InterruptCause::Cancelled, "{ctx}");
                        assert_strict_prefix(partial, &full, &ctx);
                        assert_eq!(partial.completed, 0, "{ctx}: nothing ran before the latch");
                    }
                    other => panic!("{ctx}: expected Interrupted, got {other:?}"),
                }
            }
        }
    }
}

#[test]
fn zero_deadline_trips_with_the_deadline_cause() {
    let program = staircase(false);
    let budget = RunBudget::default().with_deadline(std::time::Duration::ZERO);
    let err = EnsembleRunner::new(EnsembleConfig::default().with_budget(budget))
        .check_program(&program)
        .expect_err("a zero deadline can never finish");
    match err {
        CoreError::Interrupted { cause, .. } => {
            assert!(
                matches!(cause, InterruptCause::Deadline { .. }),
                "{cause:?}"
            );
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

#[test]
fn one_byte_memory_ceiling_trips_with_the_memory_cause() {
    let program = staircase(false);
    let budget = RunBudget::default().with_max_resident_bytes(1);
    let err = EnsembleRunner::new(EnsembleConfig::default().with_budget(budget))
        .check_program(&program)
        .expect_err("no live state fits in one byte");
    match err {
        CoreError::Interrupted { cause, .. } => {
            assert!(
                matches!(cause, InterruptCause::MemoryBudget { resident, limit: 1 } if resident > 1),
                "{cause:?}"
            );
        }
        other => panic!("expected Interrupted, got {other:?}"),
    }
}

#[test]
fn resuming_with_a_fresh_budget_reproduces_the_uninterrupted_report() {
    let program = staircase(false);
    let base = EnsembleConfig::default().with_shots(128).with_seed(7);
    let full = EnsembleRunner::new(base.clone())
        .check_program(&program)
        .unwrap();

    let cancel = CancelToken::new();
    cancel.cancel();
    let interrupted = base.with_budget(RunBudget::default().with_cancel(cancel));
    let err = EnsembleRunner::new(interrupted.clone())
        .check_program(&program)
        .expect_err("cancelled");
    assert_strict_prefix(err.partial_report().unwrap(), &full, "resume");

    // Resume: same configuration, budget swapped for an unlimited one.
    let resumed = EnsembleRunner::new(interrupted.with_budget(RunBudget::unlimited()))
        .check_program(&program)
        .unwrap();
    assert_eq!(resumed, full, "resume must be bit-identical");
}

#[test]
fn interrupted_display_counts_evaluated_breakpoints() {
    let program = staircase(false);
    let cancel = CancelToken::new();
    cancel.cancel();
    let err = EnsembleRunner::new(
        EnsembleConfig::default().with_budget(RunBudget::default().with_cancel(cancel)),
    )
    .check_program(&program)
    .expect_err("cancelled");
    let text = err.to_string();
    assert!(text.contains("session interrupted"), "{text}");
    assert!(text.contains("0/4 breakpoints evaluated"), "{text}");
}

/// One helper for the whole backend-unsupported family: every
/// resolution-time refusal must flow through
/// [`CoreError::backend_unsupported`] and keep the pinned
/// `"the {backend} backend cannot run this session: …"` wording.
#[test]
fn backend_unsupported_wording_is_pinned_to_the_helper() {
    let helper = CoreError::backend_unsupported("stabilizer", "why not");
    assert_eq!(
        helper.to_string(),
        "the stabilizer backend cannot run this session: why not"
    );
    // A real resolution-time refusal goes through the same constructor
    // and therefore the same format.
    let program = staircase(false); // non-Clifford
    let err =
        EnsembleRunner::new(EnsembleConfig::default().with_backend(BackendChoice::Stabilizer))
            .check_program(&program)
            .expect_err("non-Clifford program on the tableau");
    match &err {
        CoreError::BackendUnsupported { backend, .. } => assert_eq!(*backend, "stabilizer"),
        other => panic!("expected BackendUnsupported, got {other:?}"),
    }
    assert!(
        err.to_string()
            .starts_with("the stabilizer backend cannot run this session: "),
        "{err}"
    );
}

#[cfg(feature = "faultinject")]
mod injected {
    use super::*;
    use proptest::prelude::*;
    use qdb_core::faultinject::{FaultKind, FaultPlan, FaultSite};
    use qdb_sim::NoiseModel;

    fn kind_matches(kind: FaultKind, cause: &InterruptCause) -> bool {
        match kind {
            FaultKind::AllocationFailure => {
                matches!(cause, InterruptCause::AllocationFailed { .. })
            }
            FaultKind::DeadlineExhaustion => matches!(cause, InterruptCause::Deadline { .. }),
            FaultKind::WorkerPanic => matches!(
                cause,
                InterruptCause::WorkerPanic { message } if message.contains("injected worker panic")
            ),
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The tentpole property: a fault injected at exactly the Nth
        /// op/fork site interrupts the session with a strict-prefix
        /// partial — the evaluated prefix bit-identical to the
        /// uninterrupted run — on every strategy × backend × parallelism
        /// combination; a site the session never reaches leaves the
        /// report untouched.
        #[test]
        fn injected_faults_yield_bit_identical_strict_prefixes(
            which in 0usize..3,
            strategy_ix in 0usize..2,
            parallel_ix in 0usize..2,
            kind_ix in 0usize..3,
            op_site_ix in 0usize..2,
            n in 1u64..400,
        ) {
            let (backend, program) = matrix().swap_remove(which);
            let strategy = STRATEGIES[strategy_ix];
            let parallel = parallel_ix == 1;
            let kind = [
                FaultKind::AllocationFailure,
                FaultKind::WorkerPanic,
                FaultKind::DeadlineExhaustion,
            ][kind_ix];
            let site = if op_site_ix == 1 { FaultSite::Op } else { FaultSite::Fork };
            let ctx = format!("{backend:?}/{strategy:?}/parallel={parallel}/{kind:?}@{site:?}#{n}");

            let base = config(backend, strategy, parallel);
            let full = EnsembleRunner::new(base.clone())
                .check_program(&program)
                .unwrap_or_else(|e| panic!("{ctx}: baseline failed: {e}"));

            let armed = base.with_budget(
                RunBudget::default().with_injected_fault(FaultPlan::new(kind, site, n)),
            );
            match EnsembleRunner::new(armed).check_program(&program) {
                // The session never visited site #n: it must be the
                // uninterrupted report, bit for bit.
                Ok(reports) => prop_assert_eq!(reports, full, "{}", ctx),
                Err(CoreError::Interrupted { cause, partial }) => {
                    prop_assert!(kind_matches(kind, &cause), "{}: wrong cause {:?}", ctx, cause);
                    assert_strict_prefix(&partial, &full, &ctx);
                }
                Err(other) => prop_assert!(false, "{}: unexpected error {:?}", ctx, other),
            }
        }

        /// Same property through the noisy trajectory tree (Pauli noise
        /// under Sweep) and the per-shot noisy reference (PerPrefix):
        /// the injected cause must surface *as injected* — a leaked
        /// pool buffer would fail the tree's census debug-assert and
        /// surface as `WorkerPanic` instead, so this doubles as the
        /// pool-hygiene census on faulted exits.
        #[test]
        fn noisy_engines_interrupt_cleanly_with_pool_census_intact(
            strategy_ix in 0usize..2,
            parallel_ix in 0usize..2,
            kind_ix in 0usize..3,
            op_site_ix in 0usize..2,
            n in 1u64..600,
        ) {
            let program = staircase(false);
            let strategy = STRATEGIES[strategy_ix];
            let parallel = parallel_ix == 1;
            let kind = [
                FaultKind::AllocationFailure,
                FaultKind::WorkerPanic,
                FaultKind::DeadlineExhaustion,
            ][kind_ix];
            let site = if op_site_ix == 1 { FaultSite::Op } else { FaultSite::Fork };
            let ctx = format!("noisy/{strategy:?}/parallel={parallel}/{kind:?}@{site:?}#{n}");

            let base = config(BackendChoice::Statevector, strategy, parallel)
                .with_noise(NoiseModel::depolarizing(0.05).with_readout_flip(0.01));
            let full = EnsembleRunner::new(base.clone())
                .check_program(&program)
                .unwrap_or_else(|e| panic!("{ctx}: baseline failed: {e}"));

            let armed = base.with_budget(
                RunBudget::default().with_injected_fault(FaultPlan::new(kind, site, n)),
            );
            match EnsembleRunner::new(armed).check_program(&program) {
                Ok(reports) => prop_assert_eq!(reports, full, "{}", ctx),
                Err(CoreError::Interrupted { cause, partial }) => {
                    prop_assert!(kind_matches(kind, &cause), "{}: wrong cause {:?}", ctx, cause);
                    assert_strict_prefix(&partial, &full, &ctx);
                }
                Err(other) => prop_assert!(false, "{}: unexpected error {:?}", ctx, other),
            }
        }
    }

    /// A clean (un-faulted) noisy tree session reports a zero
    /// outstanding-buffer census through its stats.
    #[test]
    fn clean_tree_sessions_report_zero_outstanding_buffers() {
        let program = staircase(false);
        let (_, stats) = EnsembleRunner::new(
            EnsembleConfig::default()
                .with_shots(128)
                .with_noise(NoiseModel::depolarizing(0.05)),
        )
        .check_program_stats(&program)
        .unwrap();
        assert_eq!(stats.expect("tree session").states_outstanding, 0);
    }
}
