//! Chaos/soak gate (`--features faultinject`): 32+ concurrent sessions
//! under randomized injected faults — allocation failures, worker
//! panics, deadline exhaustion — plus driver-side cancellations and
//! evictions, must all terminate in typed settled states with:
//!
//! * the process never aborting (every panic contained);
//! * zero leaked fork states on every trajectory-tree session
//!   (`states_outstanding == 0`);
//! * reports bit-identical to a fault-free run of the same submission
//!   for every completed session whose degradations (if any) were all
//!   bit-neutral;
//! * every evicted session resumable to a settled state, bit-identical
//!   where it completes.
//!
//! Proptest drives the fault mix; the fault plans themselves are
//! deterministic (site counters), so any failing case replays exactly.

#![cfg(feature = "faultinject")]

use std::collections::HashMap;

use proptest::prelude::*;
use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::faultinject::{FaultKind, FaultPlan, FaultSite};
use qdb_core::{EnsembleConfig, EnsembleRunner};
use qdb_server::{Server, ServerConfig, ServerError, SessionEvent, SessionState};
use qdb_sim::NoiseModel;

/// Four decisive assertions; `clifford` keeps it tableau-compatible.
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
    p.assert_superposition(&b);
    p
}

/// The session shapes the storm mixes: noiseless dense, noisy
/// trajectory-tree, and Clifford programs.
fn flavor(which: usize, seed: u64) -> (Program, EnsembleConfig) {
    let base = EnsembleConfig::default().with_shots(24).with_seed(seed);
    match which % 3 {
        0 => (staircase(false), base),
        1 => (
            staircase(false),
            base.with_noise(NoiseModel::depolarizing(5e-3)),
        ),
        _ => (staircase(true), base),
    }
}

fn fault_plan(kind_ix: usize, site_ix: usize, n: u64) -> FaultPlan {
    let kind = [
        FaultKind::AllocationFailure,
        FaultKind::WorkerPanic,
        FaultKind::DeadlineExhaustion,
    ][kind_ix % 3];
    let site = if site_ix.is_multiple_of(2) {
        FaultSite::Op
    } else {
        FaultSite::Fork
    };
    FaultPlan::new(kind, site, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]

    /// The soak gate. Each case is one storm: `N` sessions submitted
    /// concurrently with randomized per-attempt fault plans, a few
    /// driver-side cancels and evicts sprinkled in, then a full
    /// settle-and-audit pass.
    #[test]
    fn storm_of_faulty_sessions_settles_typed_and_leak_free(
        session_params in proptest::collection::vec(
            (0usize..3, 0usize..3, 0usize..2, 1u64..60, 0usize..4),
            36..41,
        ),
        disturb_seed in 0u64..u64::MAX,
    ) {
        let server = Server::start(
            ServerConfig::default()
                .with_workers(4)
                .with_queue_capacity(256),
        );

        // Fault-free references, one per (flavor, seed) actually used.
        let mut references: HashMap<(usize, u64), Vec<qdb_core::AssertionReport>> = HashMap::new();

        let mut submitted = Vec::new();
        for (i, &(which, kind_ix, site_ix, n, nfaults)) in session_params.iter().enumerate() {
            let seed = 5000 + (i as u64 % 7);
            let (program, config) = flavor(which, seed);
            references.entry((which % 3, seed)).or_insert_with(|| {
                EnsembleRunner::new(config.clone())
                    .check_program(&program)
                    .expect("fault-free reference")
            });
            // 0–3 fault plans: attempt k+1 trips plan k; attempts past
            // the list run clean, so most sessions eventually complete.
            let faults: Vec<FaultPlan> = (0..nfaults)
                .map(|k| fault_plan(kind_ix + k, site_ix + k, n + k as u64 * 3))
                .collect();
            let id = server
                .submit_with_faults(program, config, faults)
                .expect("storm submission admitted");
            submitted.push((id, which % 3, seed));
        }

        // Driver-side disturbance: deterministically pick a few victims
        // to cancel or evict while the storm runs.
        let mut evicted = Vec::new();
        for (slot, &(id, _, _)) in submitted.iter().enumerate() {
            let h = disturb_seed
                .wrapping_mul(0x9e37_79b9_7f4a_7c15)
                .wrapping_add(slot as u64);
            match h % 11 {
                0 => server.cancel(id).expect("cancel victim"),
                1 => {
                    server.evict(id).expect("evict victim");
                    evicted.push(id);
                }
                _ => {}
            }
        }

        // Settle everything; resume whatever parked (evictions race
        // with completion, so parking is best-effort).
        for &(id, _, _) in &submitted {
            let outcome = server.wait(id).expect("settled");
            if outcome.state == SessionState::Evicted {
                server.resume(id).expect("resume evicted session");
            }
        }

        // Audit.
        for &(id, flavor_ix, seed) in &submitted {
            let outcome = server.wait(id).expect("settled after resume");
            prop_assert!(
                outcome.state.is_terminal(),
                "{id}: left in non-terminal {:?}; events: {:?}",
                outcome.state,
                outcome.events
            );
            match outcome.state {
                SessionState::Completed => {
                    let reports = outcome.reports().expect("completed has reports");
                    if let Some(stats) = &outcome.stats {
                        prop_assert_eq!(
                            stats.states_outstanding, 0,
                            "{}: leaked pool states", id
                        );
                    }
                    if outcome.bit_identical {
                        prop_assert_eq!(
                            reports,
                            &references[&(flavor_ix, seed)][..],
                            "{}: completed reports diverged from the fault-free run \
                             (attempts {}, events {:?})",
                            id, outcome.attempts, outcome.events
                        );
                    }
                }
                SessionState::Failed => {
                    // Typed, classified failure — panics map to
                    // Panicked, exhausted transients to
                    // RetriesExhausted. Nothing opaque.
                    match outcome.error {
                        Some(ServerError::Panicked { .. })
                        | Some(ServerError::RetriesExhausted { .. })
                        | Some(ServerError::Session(_)) => {}
                        ref other => prop_assert!(false, "{}: untyped failure {:?}", id, other),
                    }
                }
                SessionState::Cancelled => {
                    prop_assert!(
                        outcome
                            .events
                            .iter()
                            .any(|e| matches!(e, SessionEvent::Cancelled)),
                        "{}: cancelled without a log entry", id
                    );
                }
                other => prop_assert!(false, "{id}: unexpected settled state {other:?}"),
            }
        }

        // The worker pool survived every contained panic: a fresh
        // submission still completes.
        let (program, config) = flavor(0, 12345);
        let probe = server.submit(program, config).expect("pool still alive");
        let outcome = server.wait(probe).expect("probe settles");
        prop_assert_eq!(outcome.state, SessionState::Completed);

        server.shutdown();
    }
}

/// Deterministic (non-proptest) spine of the gate: every fault kind at
/// a reachable site, one session each, plus an evict-resume round trip
/// under injected faults — bit-identity asserted directly.
#[test]
fn each_fault_kind_settles_typed_and_resumes_bit_identically() {
    let server = Server::start(ServerConfig::default().with_workers(2));
    let (program, config) = flavor(1, 777); // noisy tree: the richest failure surface
    let reference = EnsembleRunner::new(config.clone())
        .check_program(&program)
        .expect("fault-free reference");

    // Worker panic → typed terminal failure, pool survives.
    let id = server
        .submit_with_faults(
            program.clone(),
            config.clone(),
            vec![FaultPlan::new(FaultKind::WorkerPanic, FaultSite::Op, 3)],
        )
        .expect("admitted");
    let outcome = server.wait(id).expect("settled");
    assert_eq!(outcome.state, SessionState::Failed);
    assert!(matches!(outcome.error, Some(ServerError::Panicked { .. })));

    // Allocation failure then deadline exhaustion → two retries, then a
    // clean attempt completes bit-identically from the checkpoint.
    let id = server
        .submit_with_faults(
            program.clone(),
            config.clone(),
            // Low op-poll sites: every attempt with work left performs
            // op polls, so both faults are guaranteed to fire (fork
            // sites are scarce in serial mode, and op polls are
            // batched, so high indices may never be reached).
            vec![
                FaultPlan::new(FaultKind::AllocationFailure, FaultSite::Op, 2),
                FaultPlan::new(FaultKind::DeadlineExhaustion, FaultSite::Op, 1),
            ],
        )
        .expect("admitted");
    let outcome = server.wait(id).expect("settled");
    assert_eq!(
        outcome.state,
        SessionState::Completed,
        "events: {:?}",
        outcome.events
    );
    assert_eq!(outcome.attempts, 3);
    if outcome.bit_identical {
        assert_eq!(outcome.reports().unwrap(), &reference[..]);
    }
    if let Some(stats) = &outcome.stats {
        assert_eq!(stats.states_outstanding, 0);
    }
    assert!(server.metrics().retries >= 2);
    server.shutdown();
}
