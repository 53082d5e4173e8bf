//! Functional contract of the session service, no fault injection:
//! admission control and backpressure, bit-identical results through
//! the server, warm plan/oracle caches, cancellation, evict → resume,
//! deadline retries, the memory degradation ladder, and graceful
//! shutdown.

use std::time::Duration;

use qdb_circuit::{GateSink, Program, QReg};
use qdb_core::{
    BackendChoice, EnsembleConfig, EnsembleRunner, ExecutionStrategy, RunBudget, Verdict,
};
use qdb_server::{
    DegradeAction, RetryPolicy, Server, ServerConfig, ServerError, SessionEvent, SessionState,
};
use qdb_sim::NoiseModel;

/// Four decisive assertions, small and fast.
fn staircase() -> Program {
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
    p.t(a.bit(0));
    p.cz(a.bit(0), a.bit(1));
    p.assert_superposition(&a);
    p.h(a.bit(0));
    p.assert_superposition(&b);
    p
}

/// A deliberately heavy session: wide dense state, enough work that a
/// driver thread can observe it `Running` and preempt it mid-flight.
fn heavy_program() -> Program {
    let mut p = Program::new();
    let q = p.alloc_register("q", 20);
    for round in 0..4 {
        for i in 0..20 {
            p.h(q.bit(i));
        }
        p.t(q.bit(round));
        p.assert_superposition(&QReg::new("probe", vec![q.bit(0), q.bit(1)]));
    }
    p
}

fn fast_config() -> EnsembleConfig {
    EnsembleConfig::default().with_shots(32).with_seed(2019)
}

/// Narrow enough to pass an 8-qubit admission quota but deterministically
/// slow: a noisy per-prefix session replays every (breakpoint, shot)
/// pair, so the single worker stays busy long enough for the driver
/// thread to observe it `Running` and fill the queue behind it.
fn sleeper_program() -> Program {
    let mut p = Program::new();
    let q = p.alloc_register("q", 8);
    for round in 0..10 {
        for i in 0..8 {
            p.h(q.bit(i));
        }
        p.t(q.bit(round % 8));
        p.assert_superposition(&QReg::new("probe", vec![q.bit(0), q.bit(1)]));
    }
    p
}

fn sleeper_config() -> EnsembleConfig {
    fast_config()
        .with_shots(900)
        .with_seed(7)
        .with_noise(NoiseModel::depolarizing(0.02))
        .with_strategy(ExecutionStrategy::PerPrefix)
}

fn spin_until_running(server: &Server, id: qdb_server::SessionId) {
    for _ in 0..2000 {
        match server.state(id).expect("known session") {
            SessionState::Running => return,
            SessionState::Queued => std::thread::sleep(Duration::from_millis(1)),
            other => panic!("session reached {other} before running"),
        }
    }
    panic!("session never started running");
}

#[test]
fn completed_session_is_bit_identical_to_direct_run() {
    let server = Server::start(ServerConfig::default());
    let direct = EnsembleRunner::new(fast_config())
        .check_program(&staircase())
        .expect("direct run");

    let id = server.submit(staircase(), fast_config()).expect("admitted");
    let outcome = server.wait(id).expect("settled");
    assert_eq!(outcome.state, SessionState::Completed);
    assert!(outcome.bit_identical);
    assert_eq!(outcome.attempts, 1);
    assert_eq!(outcome.reports().expect("reports"), &direct[..]);
    assert!(matches!(outcome.events[0], SessionEvent::Admitted { .. }));
    assert!(matches!(
        outcome.events.last(),
        Some(SessionEvent::Completed { attempts: 1 })
    ));
    server.shutdown();
}

#[test]
fn concurrent_sessions_all_complete_identically() {
    let server = Server::start(ServerConfig::default().with_workers(4));
    let expected: Vec<_> = (0..3)
        .map(|i| {
            EnsembleRunner::new(fast_config().with_seed(100 + i))
                .check_program(&staircase())
                .expect("direct run")
        })
        .collect();
    let ids: Vec<_> = (0..12)
        .map(|i| {
            server
                .submit(staircase(), fast_config().with_seed(100 + (i % 3)))
                .expect("admitted")
        })
        .collect();
    for (i, id) in ids.into_iter().enumerate() {
        let outcome = server.wait(id).expect("settled");
        assert_eq!(outcome.state, SessionState::Completed, "session {i}");
        assert_eq!(
            outcome.reports().unwrap(),
            &expected[i % 3][..],
            "session {i}"
        );
    }
    let metrics = server.metrics();
    assert_eq!(metrics.submitted, 12);
    assert_eq!(metrics.completed, 12);
    server.shutdown();
}

#[test]
fn warm_resubmission_hits_plan_and_oracle_caches() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let first = server.submit(staircase(), fast_config()).expect("admitted");
    let cold = server.wait(first).expect("settled");
    let cold_metrics = server.metrics();
    assert!(cold_metrics.plan_cache_misses > 0, "cold run compiles");
    assert_eq!(cold_metrics.oracle_cache_hits, 0);

    let second = server.submit(staircase(), fast_config()).expect("admitted");
    let warm = server.wait(second).expect("settled");
    let warm_metrics = server.metrics();
    assert!(
        warm_metrics.plan_cache_hits > cold_metrics.plan_cache_hits,
        "warm resubmission must reuse compiled plans"
    );
    assert_eq!(
        warm_metrics.plan_cache_misses, cold_metrics.plan_cache_misses,
        "warm resubmission must not compile anything new"
    );
    assert!(
        warm_metrics.oracle_cache_hits > 0,
        "warm resubmission must skip the exact cross-check"
    );
    assert!(warm
        .events
        .iter()
        .any(|e| matches!(e, SessionEvent::OracleCacheHit)));
    // Splicing cached oracle verdicts must leave the reports — exact
    // fields included — bit-identical to the cold run's.
    assert_eq!(warm.reports().unwrap(), cold.reports().unwrap());
    assert!(
        warm.reports().unwrap().iter().all(|r| r.exact.is_some()),
        "spliced verdicts present"
    );
    server.shutdown();
}

#[test]
fn admission_control_rejects_and_applies_backpressure() {
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_queue_capacity(3)
            .with_max_qubits(8)
            .with_max_shots(1000),
    );

    // Policy rejections are load-independent.
    assert!(matches!(
        server.submit(staircase(), fast_config().with_shots(0)),
        Err(ServerError::Rejected { .. })
    ));
    assert!(matches!(
        server.submit(staircase(), fast_config().with_shots(4096)),
        Err(ServerError::Rejected { .. })
    ));
    assert!(matches!(
        server.submit(heavy_program(), fast_config()), // 20 qubits > ceiling of 8
        Err(ServerError::Rejected { .. })
    ));

    // Backpressure: occupy the single worker, fill the queue, then
    // watch the next submission bounce.
    let sleeper = server
        .submit(sleeper_program(), sleeper_config())
        .expect("sleeper admitted");
    spin_until_running(&server, sleeper);
    let queued: Vec<_> = (0..3)
        .map(|i| {
            server
                .submit(staircase(), fast_config().with_seed(i))
                .expect("fits in queue")
        })
        .collect();
    match server.submit(staircase(), fast_config()) {
        Err(ServerError::QueueFull { capacity: 3 }) => {}
        other => panic!("expected QueueFull, got {other:?}"),
    }
    for id in queued.into_iter().chain([sleeper]) {
        assert_eq!(server.wait(id).unwrap().state, SessionState::Completed);
    }
    server.shutdown();
}

#[test]
fn cancel_is_typed_and_terminal() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    // Cancel a running session: trips cooperatively.
    let running = server
        .submit(heavy_program(), fast_config().with_shots(512))
        .expect("admitted");
    spin_until_running(&server, running);
    server.cancel(running).expect("cancel running");
    let outcome = server.wait(running).expect("settled");
    assert_eq!(outcome.state, SessionState::Cancelled);
    assert!(outcome
        .events
        .iter()
        .any(|e| matches!(e, SessionEvent::Cancelled)));

    // Cancel a queued session: settles immediately, worker untouched.
    let blocker = server
        .submit(heavy_program(), fast_config().with_shots(256))
        .expect("admitted");
    spin_until_running(&server, blocker);
    let queued = server.submit(staircase(), fast_config()).expect("admitted");
    server.cancel(queued).expect("cancel queued");
    assert_eq!(server.wait(queued).unwrap().state, SessionState::Cancelled);
    server.cancel(blocker).expect("unblock");
    assert_eq!(server.wait(blocker).unwrap().state, SessionState::Cancelled);

    // Cancelled sessions cannot resume.
    assert!(matches!(
        server.resume(queued),
        Err(ServerError::NotEvicted { .. })
    ));
    assert!(server.metrics().cancelled >= 3);
    server.shutdown();
}

#[test]
fn evicted_session_resumes_bit_identically() {
    let config = fast_config().with_shots(256);
    let direct = EnsembleRunner::new(config.clone())
        .check_program(&heavy_program())
        .expect("direct run");

    let server = Server::start(ServerConfig::default().with_workers(1));
    let id = server.submit(heavy_program(), config).expect("admitted");
    spin_until_running(&server, id);
    server.evict(id).expect("evict running session");
    let parked = server.wait(id).expect("parked");
    assert_eq!(parked.state, SessionState::Evicted);
    assert!(parked
        .events
        .iter()
        .any(|e| matches!(e, SessionEvent::Evicted { .. })));
    assert_eq!(server.metrics().evicted, 1);

    server.resume(id).expect("resume parked session");
    let outcome = server.wait(id).expect("settled");
    assert_eq!(outcome.state, SessionState::Completed);
    assert!(outcome.bit_identical);
    assert_eq!(
        outcome.reports().expect("reports"),
        &direct[..],
        "evicted-then-resumed session must match the uninterrupted run bit for bit"
    );
    assert!(outcome
        .events
        .iter()
        .any(|e| matches!(e, SessionEvent::ResumeRequested { .. })));
    server.shutdown();
}

#[test]
fn eviction_of_queued_session_parks_with_empty_checkpoint() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let blocker = server
        .submit(heavy_program(), fast_config().with_shots(600))
        .expect("admitted");
    spin_until_running(&server, blocker);
    let queued = server.submit(staircase(), fast_config()).expect("admitted");
    server.evict(queued).expect("evict queued");
    let parked = server.wait(queued).expect("parked");
    assert_eq!(parked.state, SessionState::Evicted);
    assert_eq!(parked.completed, 0);
    server.cancel(blocker).expect("unblock");

    server.resume(queued).expect("resume");
    let outcome = server.wait(queued).expect("settled");
    assert_eq!(outcome.state, SessionState::Completed);
    assert!(outcome.bit_identical);
    server.shutdown();
}

#[test]
fn deadline_trips_retry_with_deterministic_backoff_then_fail_typed() {
    let retry = RetryPolicy {
        max_retries: 2,
        base_backoff: Duration::from_micros(100),
        max_backoff: Duration::from_millis(1),
        jitter_seed: 42,
    };
    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_retry(retry.clone()),
    );
    // A zero deadline trips at the first governor poll, every attempt.
    let config = fast_config().with_budget(RunBudget::default().with_deadline(Duration::ZERO));
    let id = server.submit(staircase(), config).expect("admitted");
    let outcome = server.wait(id).expect("settled");
    assert_eq!(outcome.state, SessionState::Failed);
    assert_eq!(outcome.attempts, 3, "first attempt + two retries");
    match outcome.error {
        Some(ServerError::RetriesExhausted { attempts: 3, .. }) => {}
        ref other => panic!("expected RetriesExhausted, got {other:?}"),
    }
    // The scheduled backoffs are the policy's deterministic values.
    let scheduled: Vec<Duration> = outcome
        .events
        .iter()
        .filter_map(|e| match e {
            SessionEvent::RetryScheduled { retry, backoff } => Some((*retry, *backoff)),
            _ => None,
        })
        .map(|(r, b)| {
            assert_eq!(
                b,
                retry.backoff_for(id.raw(), r),
                "backoff is deterministic"
            );
            b
        })
        .collect();
    assert_eq!(scheduled.len(), 2);
    assert_eq!(server.metrics().retries, 2);
    server.shutdown();
}

#[test]
fn memory_pressure_walks_degradation_ladder_to_sparse_and_completes() {
    // A 14-qubit non-Clifford program whose live support stays at one
    // basis state: the dense engine needs a 256 KiB statevector, the
    // sparse engine a handful of amplitudes. A memory policy between
    // the two forces the ladder to the sparse rung.
    let mut program = Program::new();
    let q = program.alloc_register("q", 14);
    program.prep_int(&q, 21);
    program.t(q.bit(0));
    let probe = QReg::new("probe", vec![q.bit(0), q.bit(1), q.bit(2)]);
    program.assert_classical(&probe, 5);

    let server = Server::start(
        ServerConfig::default()
            .with_workers(1)
            .with_session_max_resident_bytes(64 << 10),
    );
    let config = fast_config().with_backend(BackendChoice::Auto);
    let direct_verdicts: Vec<Verdict> = EnsembleRunner::new(config.clone())
        .check_program(&program)
        .expect("unconstrained direct run")
        .iter()
        .map(|r| r.verdict)
        .collect();

    let id = server.submit(program, config).expect("admitted");
    let outcome = server.wait(id).expect("settled");
    assert_eq!(
        outcome.state,
        SessionState::Completed,
        "events: {:?}",
        outcome.events
    );
    assert!(
        !outcome.bit_identical,
        "the sparse rung is bit-affecting and must be flagged"
    );
    // The ladder has two rungs, taken in order: the bit-neutral
    // parallelism rung, then the bit-affecting sparse rung.
    let rungs: Vec<(DegradeAction, bool)> = outcome
        .events
        .iter()
        .filter_map(|e| match e {
            SessionEvent::Degraded {
                action,
                bit_neutral,
            } => Some((*action, *bit_neutral)),
            _ => None,
        })
        .collect();
    assert_eq!(
        rungs,
        [
            (DegradeAction::DisableParallel, true),
            (DegradeAction::SparseFallback, false)
        ]
    );
    assert_eq!(outcome.degradations(), 2);
    assert_eq!(server.metrics().degradations, 2);
    // Bit-identity is forfeited, verdict equivalence is not.
    let verdicts: Vec<Verdict> = outcome
        .reports()
        .unwrap()
        .iter()
        .map(|r| r.verdict)
        .collect();
    assert_eq!(verdicts, direct_verdicts);
    server.shutdown();
}

#[test]
fn shutdown_is_graceful_and_idempotent() {
    let server = Server::start(ServerConfig::default().with_workers(1));
    let running = server.submit(staircase(), fast_config()).expect("admitted");
    server.shutdown();
    // In-flight work finished; nothing was abandoned untyped.
    let outcome = server.wait(running).expect("settled");
    assert!(outcome.state.is_terminal());
    // Admission is closed.
    assert!(matches!(
        server.submit(staircase(), fast_config()),
        Err(ServerError::ShuttingDown)
    ));
    server.shutdown(); // idempotent
}

#[test]
fn unknown_session_is_a_typed_error() {
    let server = Server::start(ServerConfig::default());
    let id = server.submit(staircase(), fast_config()).expect("admitted");
    server.wait(id).expect("settled");
    let bogus = qdb_server::SessionId::from_raw(999_999);
    assert!(matches!(
        server.wait(bogus),
        Err(ServerError::UnknownSession(_))
    ));
    assert!(matches!(
        server.state(bogus),
        Err(ServerError::UnknownSession(_))
    ));
    server.shutdown();
}
