//! The supervised session service.
//!
//! A [`Server`] owns a bounded submission queue and a pool of worker
//! threads that drain it. Each session runs under a per-session
//! [`RunBudget`] derived from the server's global policy; every
//! interruption the execution governor can produce — deadline, memory
//! ceiling, allocation failure, cancellation, contained worker panic —
//! is classified by the supervisor into retry (with deterministic
//! seeded backoff and, for memory trips, a degradation rung), parking
//! (eviction), or a typed terminal failure. Retries and resumes pick
//! up from the session's [`PartialReport`] checkpoint via
//! [`EnsembleRunner::resume_program_stats`], so completed breakpoints
//! are never recomputed and — as long as every applied degradation
//! rung is bit-neutral — the final report is bit-identical to an
//! uninterrupted run of the same submission.

use std::collections::{HashMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::{self, JoinHandle};

use qdb_circuit::{PlanCache, Program};
use qdb_core::{
    AssertionReport, BackendChoice, CancelToken, CoreError, EnsembleConfig, EnsembleRunner,
    InterruptCause, NoisySessionStats, PartialReport,
};

use crate::config::ServerConfig;
use crate::error::ServerError;
use crate::oracle::OracleCache;
use crate::session::{DegradeAction, SessionEvent, SessionId, SessionOutcome, SessionState};

#[cfg(feature = "faultinject")]
use qdb_core::faultinject::FaultPlan;

#[cfg(feature = "faultinject")]
type FaultList = Vec<FaultPlan>;
/// Uninhabited-element stand-in so `admit` has one signature with the
/// harness compiled out.
#[cfg(not(feature = "faultinject"))]
type FaultList = Vec<std::convert::Infallible>;

/// Cumulative counters of one server's lifetime, plus the shared
/// caches' hit/miss tallies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServerMetrics {
    /// Sessions that passed admission control.
    pub submitted: u64,
    /// Sessions that reached `Completed`.
    pub completed: u64,
    /// Sessions that reached `Failed`.
    pub failed: u64,
    /// Sessions that reached `Cancelled`.
    pub cancelled: u64,
    /// Eviction parkings performed (a session evicted twice counts
    /// twice).
    pub evicted: u64,
    /// Retry attempts scheduled.
    pub retries: u64,
    /// Degradation rungs taken.
    pub degradations: u64,
    /// Compiled-plan cache hits.
    pub plan_cache_hits: u64,
    /// Compiled-plan cache misses (compilations performed).
    pub plan_cache_misses: u64,
    /// Exact-oracle cache hits (cross-checks skipped).
    pub oracle_cache_hits: u64,
    /// Exact-oracle cache misses.
    pub oracle_cache_misses: u64,
}

/// How this attempt interacts with the exact-oracle cache.
enum OracleMode {
    /// Cross-checking disabled; splice these cached verdicts in.
    Splice(Vec<Option<qdb_core::Verdict>>),
    /// Cross-checking enabled; store the verdicts on completion.
    Store,
    /// Cache not involved (cross-checking off, or a noisy session).
    Off,
}

struct Record {
    program: Program,
    config: EnsembleConfig,
    state: SessionState,
    events: Vec<SessionEvent>,
    attempts: u32,
    retries_used: u32,
    checkpoint: Option<PartialReport>,
    cancel: CancelToken,
    evict_requested: bool,
    degrade_actions: Vec<DegradeAction>,
    bit_identical: bool,
    reports: Option<Vec<AssertionReport>>,
    stats: Option<NoisySessionStats>,
    error: Option<ServerError>,
    #[cfg(feature = "faultinject")]
    pending_faults: VecDeque<FaultPlan>,
}

impl Record {
    fn frontier(&self) -> usize {
        self.reports.as_ref().map_or_else(
            || self.checkpoint.as_ref().map_or(0, |c| c.completed),
            Vec::len,
        )
    }

    fn outcome(&self, id: SessionId) -> SessionOutcome {
        SessionOutcome {
            id,
            state: self.state,
            reports: self.reports.clone(),
            stats: self.stats.clone(),
            error: self.error.clone(),
            completed: self.frontier(),
            attempts: self.attempts,
            events: self.events.clone(),
            bit_identical: self.bit_identical,
        }
    }
}

#[derive(Default)]
struct Counters {
    submitted: AtomicU64,
    completed: AtomicU64,
    failed: AtomicU64,
    cancelled: AtomicU64,
    evicted: AtomicU64,
    retries: AtomicU64,
    degradations: AtomicU64,
}

struct Queue {
    deque: VecDeque<SessionId>,
    shutdown: bool,
}

struct Shared {
    config: ServerConfig,
    queue: Mutex<Queue>,
    /// Wakes idle workers when work arrives or shutdown begins.
    available: Condvar,
    sessions: Mutex<HashMap<SessionId, Record>>,
    /// Wakes [`Server::wait`] callers when any session settles.
    settled: Condvar,
    plan_cache: Arc<PlanCache>,
    oracle: OracleCache,
    counters: Counters,
    next_id: AtomicU64,
}

/// A supervised, fault-tolerant session service over the assertion
/// engine. See the [crate docs](crate) for the failure model.
pub struct Server {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Server {
    /// Start a server: spawns the worker pool and the shared caches.
    #[must_use]
    pub fn start(config: ServerConfig) -> Self {
        let shared = Arc::new(Shared {
            plan_cache: Arc::new(PlanCache::new(config.plan_cache_capacity)),
            oracle: OracleCache::new(config.oracle_cache_capacity),
            queue: Mutex::new(Queue {
                deque: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            sessions: Mutex::new(HashMap::new()),
            settled: Condvar::new(),
            counters: Counters::default(),
            next_id: AtomicU64::new(1),
            config,
        });
        let workers = (0..shared.config.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Self {
            shared,
            workers: Mutex::new(workers),
        }
    }

    /// Submit a session: the program plus the ensemble configuration
    /// it should run under. Admission control applies the server's
    /// quotas before anything is queued; the session's budget is the
    /// submission's budget tightened by the server's global
    /// deadline/memory policy.
    pub fn submit(
        &self,
        program: Program,
        config: EnsembleConfig,
    ) -> Result<SessionId, ServerError> {
        self.admit(program, config, Vec::new())
    }

    /// [`submit`](Server::submit) with per-attempt injected faults:
    /// `faults[k]` arms attempt `k + 1` (and attempts past the end of
    /// the list run clean). This is how the chaos suite drives the
    /// supervisor through every failure path deterministically.
    #[cfg(feature = "faultinject")]
    pub fn submit_with_faults(
        &self,
        program: Program,
        config: EnsembleConfig,
        faults: Vec<FaultPlan>,
    ) -> Result<SessionId, ServerError> {
        self.admit(program, config, faults)
    }

    fn admit(
        &self,
        program: Program,
        mut config: EnsembleConfig,
        faults: FaultList,
    ) -> Result<SessionId, ServerError> {
        // Policy screening first: a rejection must not depend on load.
        if config.shots == 0 {
            return Err(ServerError::Rejected {
                reason: "zero shots".into(),
            });
        }
        if let Some(max) = self.shared.config.max_shots {
            if config.shots > max {
                return Err(ServerError::Rejected {
                    reason: format!(
                        "{} shots exceed the per-session quota of {max}",
                        config.shots
                    ),
                });
            }
        }
        if let Some(max) = self.shared.config.max_qubits {
            let width = program.num_qubits();
            if width > max {
                return Err(ServerError::Rejected {
                    reason: format!("{width} qubits exceed the admission ceiling of {max}"),
                });
            }
        }
        // Tighten the submission's budget with the server-wide policy:
        // the effective limit along each axis is the stricter of the
        // two.
        let mut budget = config.budget.clone();
        budget.deadline = match (budget.deadline, self.shared.config.session_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        budget.max_resident_bytes = match (
            budget.max_resident_bytes,
            self.shared.config.session_max_resident_bytes,
        ) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let cancel = CancelToken::new();
        budget.cancel = cancel.clone();
        config = config.with_budget(budget);

        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        if queue.shutdown {
            return Err(ServerError::ShuttingDown);
        }
        if queue.deque.len() >= self.shared.config.queue_capacity {
            return Err(ServerError::QueueFull {
                capacity: self.shared.config.queue_capacity,
            });
        }
        let id = SessionId(self.shared.next_id.fetch_add(1, Ordering::Relaxed));
        let record = Record {
            program,
            config,
            state: SessionState::Queued,
            events: vec![SessionEvent::Admitted {
                queue_depth: queue.deque.len(),
            }],
            attempts: 0,
            retries_used: 0,
            checkpoint: None,
            cancel,
            evict_requested: false,
            degrade_actions: Vec::new(),
            bit_identical: true,
            reports: None,
            stats: None,
            error: None,
            #[cfg(feature = "faultinject")]
            pending_faults: faults.into_iter().collect(),
        };
        #[cfg(not(feature = "faultinject"))]
        let _ = faults;
        self.shared
            .sessions
            .lock()
            .expect("session table poisoned")
            .insert(id, record);
        queue.deque.push_back(id);
        drop(queue);
        self.shared
            .counters
            .submitted
            .fetch_add(1, Ordering::Relaxed);
        self.shared.available.notify_one();
        Ok(id)
    }

    /// Block until the session settles (terminal or parked-evicted)
    /// and return its outcome.
    pub fn wait(&self, id: SessionId) -> Result<SessionOutcome, ServerError> {
        let mut sessions = self.shared.sessions.lock().expect("session table poisoned");
        loop {
            let record = sessions.get(&id).ok_or(ServerError::UnknownSession(id))?;
            if record.state.is_settled() {
                return Ok(record.outcome(id));
            }
            sessions = self
                .shared
                .settled
                .wait(sessions)
                .expect("session table poisoned");
        }
    }

    /// The session's current lifecycle state.
    pub fn state(&self, id: SessionId) -> Result<SessionState, ServerError> {
        let sessions = self.shared.sessions.lock().expect("session table poisoned");
        sessions
            .get(&id)
            .map(|r| r.state)
            .ok_or(ServerError::UnknownSession(id))
    }

    /// The session's outcome if it has settled, `None` while it is
    /// still queued, running, or retrying.
    pub fn outcome(&self, id: SessionId) -> Result<Option<SessionOutcome>, ServerError> {
        let sessions = self.shared.sessions.lock().expect("session table poisoned");
        let record = sessions.get(&id).ok_or(ServerError::UnknownSession(id))?;
        Ok(record.state.is_settled().then(|| record.outcome(id)))
    }

    /// Cancel a session. Queued sessions cancel immediately; running
    /// and retrying sessions trip cooperatively at their next governor
    /// poll. Terminal — a cancelled session cannot resume.
    pub fn cancel(&self, id: SessionId) -> Result<(), ServerError> {
        let mut sessions = self.shared.sessions.lock().expect("session table poisoned");
        let record = sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        match record.state {
            SessionState::Queued | SessionState::Evicted => {
                record.cancel.cancel();
                record.state = SessionState::Cancelled;
                record.events.push(SessionEvent::Cancelled);
                self.shared
                    .counters
                    .cancelled
                    .fetch_add(1, Ordering::Relaxed);
                self.shared.settled.notify_all();
            }
            SessionState::Running | SessionState::Retrying => {
                record.evict_requested = false;
                record.cancel.cancel();
            }
            _ => {}
        }
        Ok(())
    }

    /// Preempt a session, parking it in the `Evicted` state with its
    /// checkpoint intact. Queued sessions park immediately; running
    /// and retrying sessions trip cooperatively and park at the next
    /// governor poll. Parked sessions re-enter the queue via
    /// [`resume`](Server::resume).
    pub fn evict(&self, id: SessionId) -> Result<(), ServerError> {
        let mut sessions = self.shared.sessions.lock().expect("session table poisoned");
        let record = sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        match record.state {
            SessionState::Queued => {
                record.state = SessionState::Evicted;
                record.events.push(SessionEvent::Evicted {
                    completed: record.frontier(),
                });
                self.shared.counters.evicted.fetch_add(1, Ordering::Relaxed);
                self.shared.settled.notify_all();
            }
            SessionState::Running | SessionState::Retrying => {
                record.evict_requested = true;
                record.cancel.cancel();
            }
            _ => {}
        }
        Ok(())
    }

    /// Re-queue a parked (evicted) session. The next attempt resumes
    /// from the checkpoint; the retry allowance is refreshed (eviction
    /// is operator-driven load shedding, not session failure).
    pub fn resume(&self, id: SessionId) -> Result<(), ServerError> {
        let mut queue = self.shared.queue.lock().expect("queue poisoned");
        if queue.shutdown {
            return Err(ServerError::ShuttingDown);
        }
        if queue.deque.len() >= self.shared.config.queue_capacity {
            return Err(ServerError::QueueFull {
                capacity: self.shared.config.queue_capacity,
            });
        }
        let mut sessions = self.shared.sessions.lock().expect("session table poisoned");
        let record = sessions
            .get_mut(&id)
            .ok_or(ServerError::UnknownSession(id))?;
        if record.state != SessionState::Evicted {
            return Err(ServerError::NotEvicted {
                id,
                state: record.state,
            });
        }
        record.cancel = CancelToken::new();
        record.evict_requested = false;
        record.retries_used = 0;
        record.state = SessionState::Queued;
        record.events.push(SessionEvent::ResumeRequested {
            resume_from: record.frontier(),
        });
        drop(sessions);
        queue.deque.push_back(id);
        drop(queue);
        self.shared.available.notify_one();
        Ok(())
    }

    /// Sessions currently waiting in the submission queue.
    #[must_use]
    pub fn queue_depth(&self) -> usize {
        self.shared
            .queue
            .lock()
            .expect("queue poisoned")
            .deque
            .len()
    }

    /// Lifetime counters plus cache hit/miss tallies.
    #[must_use]
    pub fn metrics(&self) -> ServerMetrics {
        let c = &self.shared.counters;
        ServerMetrics {
            submitted: c.submitted.load(Ordering::Relaxed),
            completed: c.completed.load(Ordering::Relaxed),
            failed: c.failed.load(Ordering::Relaxed),
            cancelled: c.cancelled.load(Ordering::Relaxed),
            evicted: c.evicted.load(Ordering::Relaxed),
            retries: c.retries.load(Ordering::Relaxed),
            degradations: c.degradations.load(Ordering::Relaxed),
            plan_cache_hits: self.shared.plan_cache.hits(),
            plan_cache_misses: self.shared.plan_cache.misses(),
            oracle_cache_hits: self.shared.oracle.hits(),
            oracle_cache_misses: self.shared.oracle.misses(),
        }
    }

    /// Graceful shutdown: stop admitting, let in-flight attempts
    /// finish (including pending retries), join the pool, and cancel
    /// whatever never left the queue. Idempotent.
    pub fn shutdown(&self) {
        {
            let mut queue = self.shared.queue.lock().expect("queue poisoned");
            queue.shutdown = true;
        }
        self.shared.available.notify_all();
        let workers: Vec<JoinHandle<()>> =
            std::mem::take(&mut *self.workers.lock().expect("worker handles poisoned"));
        for handle in workers {
            let _ = handle.join();
        }
        // Whatever is still queued will never run: settle it.
        let mut sessions = self.shared.sessions.lock().expect("session table poisoned");
        for record in sessions.values_mut() {
            if matches!(record.state, SessionState::Queued) {
                record.state = SessionState::Cancelled;
                record.events.push(SessionEvent::Cancelled);
                self.shared
                    .counters
                    .cancelled
                    .fetch_add(1, Ordering::Relaxed);
            }
        }
        drop(sessions);
        self.shared.settled.notify_all();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(shared: &Arc<Shared>) {
    loop {
        let id = {
            let mut queue = shared.queue.lock().expect("queue poisoned");
            loop {
                if let Some(id) = queue.deque.pop_front() {
                    break id;
                }
                if queue.shutdown {
                    return;
                }
                queue = shared.available.wait(queue).expect("queue poisoned");
            }
        };
        run_session(shared, id);
    }
}

/// One attempt's inputs, snapshotted under the session lock so the
/// simulation itself runs without holding it.
struct Attempt {
    program: Program,
    config: EnsembleConfig,
    checkpoint: Option<PartialReport>,
    oracle: OracleMode,
}

/// Drive one session to a settled state: attempts, retries with
/// backoff, degradation, eviction parking. Runs entirely on the worker
/// thread that popped the session.
fn run_session(shared: &Arc<Shared>, id: SessionId) {
    loop {
        let attempt = {
            let mut sessions = shared.sessions.lock().expect("session table poisoned");
            let Some(record) = sessions.get_mut(&id) else {
                return;
            };
            match record.state {
                SessionState::Queued | SessionState::Retrying => {}
                // Settled or parked while its id was still in the
                // deque (cancel/evict handle queued sessions in
                // place): nothing to run.
                _ => return,
            }
            // Cancelled or evicted while waiting out a backoff: settle
            // without starting another attempt.
            if record.cancel.is_cancelled() {
                settle_preempted(shared, record, id);
                return;
            }
            record.state = SessionState::Running;
            record.attempts += 1;
            let resumed_from = record.frontier();
            record.events.push(SessionEvent::Started {
                attempt: record.attempts,
                resumed_from,
            });
            snapshot_attempt(shared, record)
        };

        let result = catch_unwind(AssertUnwindSafe(|| {
            let runner = EnsembleRunner::new(attempt.config.clone())
                .with_plan_cache(Arc::clone(&shared.plan_cache));
            match &attempt.checkpoint {
                Some(partial) => runner.resume_program_stats(&attempt.program, partial),
                None => runner.check_program_stats(&attempt.program),
            }
        }));

        match classify(shared, id, attempt, result) {
            Some(backoff) => thread::sleep(backoff),
            None => return,
        }
    }
}

/// A cancel observed outside a running attempt: park or settle
/// according to the eviction flag. Caller holds the session lock.
fn settle_preempted(shared: &Arc<Shared>, record: &mut Record, _id: SessionId) {
    if record.evict_requested {
        record.evict_requested = false;
        record.state = SessionState::Evicted;
        record.events.push(SessionEvent::Evicted {
            completed: record.frontier(),
        });
        shared.counters.evicted.fetch_add(1, Ordering::Relaxed);
    } else {
        record.state = SessionState::Cancelled;
        record.events.push(SessionEvent::Cancelled);
        shared.counters.cancelled.fetch_add(1, Ordering::Relaxed);
    }
    shared.settled.notify_all();
}

/// Build the attempt's effective configuration: degradation rungs
/// applied, the session's cancel token armed, the next pending
/// injected fault (if any) armed, and the oracle cache consulted.
/// Caller holds the session lock.
fn snapshot_attempt(shared: &Arc<Shared>, record: &mut Record) -> Attempt {
    let mut config = record.config.clone();
    for action in &record.degrade_actions {
        config = match action {
            DegradeAction::DisableParallel => config.with_parallel(false),
            DegradeAction::SparseFallback => config.with_backend(BackendChoice::Sparse),
        };
    }
    // The session's budget template is unarmed; each attempt arms a
    // fresh clone so a fault consumed by attempt k never re-fires on
    // attempt k + 1.
    let mut budget = config.budget.clone();
    budget.cancel = record.cancel.clone();
    #[cfg(feature = "faultinject")]
    if let Some(plan) = record.pending_faults.pop_front() {
        budget = budget.with_injected_fault(plan);
    }
    config = config.with_budget(budget);

    // Oracle cache: only noiseless cross-checked sessions, and only
    // attempts starting from position 0 may *store* (a resumed
    // attempt's prefix verdicts came from the checkpoint, not this
    // run).
    let oracle = if config.noise.is_none() && config.exact_cross_check {
        match shared
            .oracle
            .get(record.program.fingerprint(), config.exact_tol)
        {
            Some(verdicts) => {
                config.exact_cross_check = false;
                record.events.push(SessionEvent::OracleCacheHit);
                OracleMode::Splice(verdicts)
            }
            None if record.checkpoint.is_none() => OracleMode::Store,
            None => OracleMode::Off,
        }
    } else {
        OracleMode::Off
    };

    Attempt {
        program: record.program.clone(),
        config,
        checkpoint: record.checkpoint.clone(),
        oracle,
    }
}

type AttemptResult = Result<
    Result<(Vec<AssertionReport>, Option<NoisySessionStats>), CoreError>,
    Box<dyn std::any::Any + Send>,
>;

/// Classify an attempt's result into the session's next move. Returns
/// the backoff to wait out before retrying, or `None` when the session
/// settled (or parked).
fn classify(
    shared: &Arc<Shared>,
    id: SessionId,
    attempt: Attempt,
    result: AttemptResult,
) -> Option<std::time::Duration> {
    let mut sessions = shared.sessions.lock().expect("session table poisoned");
    let record = sessions.get_mut(&id)?;
    match result {
        Ok(Ok((mut reports, stats))) => {
            match attempt.oracle {
                OracleMode::Splice(verdicts) => {
                    for (report, verdict) in reports.iter_mut().zip(verdicts) {
                        report.exact = verdict;
                    }
                }
                OracleMode::Store => {
                    shared.oracle.insert(
                        record.program.fingerprint(),
                        record.config.exact_tol,
                        reports.iter().map(|r| r.exact).collect(),
                    );
                }
                OracleMode::Off => {}
            }
            record.state = SessionState::Completed;
            record.reports = Some(reports);
            record.stats = stats;
            record.events.push(SessionEvent::Completed {
                attempts: record.attempts,
            });
            shared.counters.completed.fetch_add(1, Ordering::Relaxed);
            shared.settled.notify_all();
            None
        }
        Ok(Err(CoreError::Interrupted { cause, partial })) => {
            record.stats = None;
            record.checkpoint = Some(*partial);
            let completed = record.frontier();
            record.events.push(SessionEvent::Interrupted {
                attempt: record.attempts,
                cause: cause.clone(),
                completed,
            });
            match cause {
                InterruptCause::Cancelled => {
                    settle_preempted(shared, record, id);
                    None
                }
                InterruptCause::WorkerPanic { message } => {
                    settle_failed(shared, record, ServerError::Panicked { message });
                    None
                }
                transient @ (InterruptCause::Deadline { .. }
                | InterruptCause::MemoryBudget { .. }
                | InterruptCause::AllocationFailed { .. }) => {
                    if matches!(
                        transient,
                        InterruptCause::MemoryBudget { .. }
                            | InterruptCause::AllocationFailed { .. }
                    ) {
                        degrade(shared, record);
                    }
                    let retry = record.retries_used;
                    if retry < shared.config.retry.max_retries {
                        record.retries_used += 1;
                        let backoff = shared.config.retry.backoff_for(id.raw(), retry);
                        record.state = SessionState::Retrying;
                        record
                            .events
                            .push(SessionEvent::RetryScheduled { retry, backoff });
                        shared.counters.retries.fetch_add(1, Ordering::Relaxed);
                        Some(backoff)
                    } else {
                        settle_failed(
                            shared,
                            record,
                            ServerError::RetriesExhausted {
                                cause: transient,
                                attempts: record.attempts,
                            },
                        );
                        None
                    }
                }
                // `InterruptCause` is non-exhaustive: treat unknown
                // causes as unretriable rather than loop on them.
                other => {
                    let attempts = record.attempts;
                    settle_failed(
                        shared,
                        record,
                        ServerError::RetriesExhausted {
                            cause: other,
                            attempts,
                        },
                    );
                    None
                }
            }
        }
        Ok(Err(other)) => {
            settle_failed(shared, record, ServerError::Session(other));
            None
        }
        // The engine contains worker panics itself; this is the
        // belt-and-braces boundary for panics outside the engines
        // (supervisor bugs, cache plumbing). The worker thread
        // survives either way.
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(ToString::to_string)
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "opaque panic payload".into());
            settle_failed(shared, record, ServerError::Panicked { message });
            None
        }
    }
}

/// Take the next available degradation rung after a memory-class trip.
/// Caller holds the session lock.
fn degrade(shared: &Arc<Shared>, record: &mut Record) {
    let policy = shared.config.degradation;
    let taken = |matcher: fn(&DegradeAction) -> bool| record.degrade_actions.iter().any(matcher);
    let action = if policy.disable_parallel
        && record.config.parallel
        && !taken(|a| matches!(a, DegradeAction::DisableParallel))
    {
        Some(DegradeAction::DisableParallel)
    } else if policy.sparse_fallback
        && record.config.backend == BackendChoice::Auto
        && !taken(|a| matches!(a, DegradeAction::SparseFallback))
    {
        Some(DegradeAction::SparseFallback)
    } else {
        None
    };
    if let Some(action) = action {
        let bit_neutral = action.bit_neutral();
        if !bit_neutral {
            record.bit_identical = false;
            // A bit-affecting rung invalidates the dense checkpoint's
            // RNG alignment for the *remaining* breakpoints only — the
            // evaluated prefix stays valid, so it is kept; the report
            // is flagged instead.
        }
        record.degrade_actions.push(action);
        record.events.push(SessionEvent::Degraded {
            action,
            bit_neutral,
        });
        shared.counters.degradations.fetch_add(1, Ordering::Relaxed);
    }
}

/// Terminal failure bookkeeping. Caller holds the session lock.
fn settle_failed(shared: &Arc<Shared>, record: &mut Record, error: ServerError) {
    record.state = SessionState::Failed;
    record.events.push(SessionEvent::Failed {
        error: error.clone(),
    });
    record.error = Some(error);
    shared.counters.failed.fetch_add(1, Ordering::Relaxed);
    shared.settled.notify_all();
}
