//! The execution governor: run budgets, cooperative cancellation, and
//! the machinery that turns a tripped budget into a typed partial
//! result instead of a lost session.
//!
//! Every ensemble session today is driven by one of three engines (the
//! per-prefix reference path, the checkpointed sweep, the noisy
//! trajectory tree), all of which used to be uninterruptible blocking
//! loops. The governor threads a [`RunBudget`] through all of them:
//!
//! * **Deadline** — wall-clock bound for the whole session.
//! * **Memory** — a ceiling on the resident bytes of the simulator
//!   state being advanced (checked via
//!   [`SimBackend::resident_bytes`]),
//!   plus fallible allocation at every state-construction site so a
//!   near-limit `2ⁿ` request degrades into a typed error.
//! * **Cancellation** — a [`CancelToken`] clonable across threads;
//!   flipping it from anywhere stops the session at the next poll.
//!
//! Polling is amortized: the engines check the governor every
//! an op batch of compiled ops (`max(1, 2¹⁶ ≫ n)`
//! for an `n`-qubit state), so each check costs a few atomic loads
//! against ~2¹⁶ amplitude visits of real work — under the 3% overhead
//! bound the `governor_overhead` bench asserts. The flip side is a
//! bounded cancellation *latency*: one op batch (or one breakpoint for
//! the coarse per-prefix dense path) may complete after the trip.
//!
//! A trip never discards completed work. The engines convert it into
//! [`CoreError::Interrupted`](crate::CoreError::Interrupted) carrying a
//! [`PartialReport`](crate::PartialReport) whose evaluated prefix is
//! bit-for-bit the uninterrupted report's prefix — the property
//! `governor_equivalence.rs` proptests across strategies × backends ×
//! parallelism.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use qdb_sim::SimBackend;

/// A clonable cancellation flag shared between a running session and
/// whoever might want to stop it.
///
/// Cloning is cheap (an [`Arc`] bump) and every clone observes the same
/// flag, so a server thread can hold one half while the session polls
/// the other. Cancellation is cooperative and latched: once
/// [`cancel`](CancelToken::cancel) is called the token stays cancelled
/// forever, and the session stops at its next governor poll.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, un-cancelled token.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Latch the token: every clone now reports cancelled, and any
    /// session polling it stops at the next op batch.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::Release);
    }

    /// Whether [`cancel`](CancelToken::cancel) has been called on this
    /// token or any clone of it.
    #[must_use]
    pub fn is_cancelled(&self) -> bool {
        self.flag.load(Ordering::Acquire)
    }
}

/// Equality is **observational**: two tokens are equal when they report
/// the same cancellation state, regardless of whether they share a
/// flag. This keeps two independently-built default configs comparing
/// equal (each [`Default`] token is a distinct allocation).
impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        self.is_cancelled() == other.is_cancelled()
    }
}

/// Resource budget for one ensemble session; the default is unlimited.
///
/// Carried by `EnsembleConfig`; all three engines poll it at op-batch
/// granularity. A tripped budget surfaces as
/// [`CoreError::Interrupted`](crate::CoreError::Interrupted) with the
/// completed breakpoints preserved in a
/// [`PartialReport`](crate::PartialReport).
///
/// ```
/// use std::time::Duration;
/// use qdb_core::RunBudget;
///
/// let budget = RunBudget::default()
///     .with_deadline(Duration::from_millis(100))
///     .with_max_resident_bytes(64 << 20);
/// assert!(!budget.cancel.is_cancelled());
/// ```
#[derive(Debug, Clone, Default)]
pub struct RunBudget {
    /// Wall-clock limit for the session, measured from the moment the
    /// check starts. `None` means no deadline.
    pub deadline: Option<Duration>,
    /// Ceiling on the resident bytes of the simulator state being
    /// advanced, checked at every poll and (fallibly) at every state
    /// allocation. `None` means no ceiling.
    pub max_resident_bytes: Option<usize>,
    /// Cooperative cancellation flag; clone it before starting the
    /// session and call [`CancelToken::cancel`] from any thread.
    pub cancel: CancelToken,
    /// Census of governor polls performed under this budget, summed
    /// across all engines and worker threads. The `governor_overhead`
    /// bench reads it to report `poll_checks` alongside the <3%
    /// overhead assertion.
    poll_census: Arc<AtomicU64>,
    /// An armed fault-injection plan, session-scoped (see
    /// [`faultinject`](crate::faultinject)). Test-only.
    #[cfg(any(test, feature = "faultinject"))]
    fault: Option<Arc<crate::faultinject::ArmedFault>>,
}

/// Equality ignores the poll census (a runtime counter, not
/// configuration) and compares the cancel token observationally.
impl PartialEq for RunBudget {
    fn eq(&self, other: &Self) -> bool {
        self.deadline == other.deadline
            && self.max_resident_bytes == other.max_resident_bytes
            && self.cancel == other.cancel
    }
}

impl RunBudget {
    /// The default budget: no deadline, no memory ceiling, a fresh
    /// cancel token.
    #[must_use]
    pub fn unlimited() -> Self {
        Self::default()
    }

    /// This budget with a wall-clock deadline.
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// This budget with a resident-memory ceiling in bytes.
    #[must_use]
    pub fn with_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.max_resident_bytes = Some(bytes);
        self
    }

    /// This budget polling the given cancellation token.
    #[must_use]
    pub fn with_cancel(mut self, cancel: CancelToken) -> Self {
        self.cancel = cancel;
        self
    }

    /// Number of governor polls sessions run under this budget (and its
    /// clones) have performed so far.
    #[must_use]
    pub fn poll_checks(&self) -> u64 {
        self.poll_census.load(Ordering::Relaxed)
    }

    /// Arm a deterministic injected fault on this budget (see
    /// [`faultinject`](crate::faultinject)). The plan's site counters
    /// are created here and shared by every clone of the budget, so one
    /// plan fires exactly once per armed budget, not once per clone.
    #[cfg(any(test, feature = "faultinject"))]
    #[must_use]
    pub fn with_injected_fault(mut self, plan: crate::faultinject::FaultPlan) -> Self {
        self.fault = Some(Arc::new(crate::faultinject::ArmedFault::new(plan)));
        self
    }
}

/// Why a session was interrupted.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum InterruptCause {
    /// The wall-clock deadline elapsed.
    Deadline {
        /// The configured deadline.
        deadline: Duration,
    },
    /// The resident state grew past the configured memory ceiling.
    MemoryBudget {
        /// Resident bytes observed at the tripping poll.
        resident: usize,
        /// The configured ceiling.
        limit: usize,
    },
    /// The [`CancelToken`] was cancelled.
    Cancelled,
    /// A state allocation failed (the allocator refused, or fault
    /// injection simulated a refusal).
    AllocationFailed {
        /// Bytes the failed allocation asked for (0 when unknown).
        bytes: usize,
    },
    /// A breakpoint/shot worker panicked; the panic was contained and
    /// converted into this cause instead of poisoning sibling workers.
    WorkerPanic {
        /// The panic payload's message, when it carried one.
        message: String,
    },
}

impl fmt::Display for InterruptCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InterruptCause::Deadline { deadline } => {
                write!(f, "deadline of {deadline:?} elapsed")
            }
            InterruptCause::MemoryBudget { resident, limit } => {
                write!(
                    f,
                    "resident state of {resident} bytes exceeds budget of {limit} bytes"
                )
            }
            InterruptCause::Cancelled => f.write_str("cancelled"),
            InterruptCause::AllocationFailed { bytes } => {
                write!(f, "state allocation of {bytes} bytes failed")
            }
            InterruptCause::WorkerPanic { message } => {
                write!(f, "a worker panicked: {message}")
            }
        }
    }
}

/// The per-session governor: a [`RunBudget`] armed with a start time
/// and a shared trip latch, polled by every engine and worker thread of
/// one `check_program` call.
///
/// The first trip wins: whichever worker observes a violated budget (or
/// an injected fault) first records the [`InterruptCause`]; every
/// subsequent poll — on any thread — fails fast on the latch without
/// re-deriving a cause, so all workers wind down reporting the same
/// interruption.
#[derive(Debug)]
pub(crate) struct Governor {
    start: Instant,
    deadline: Option<Duration>,
    max_resident_bytes: Option<usize>,
    cancel: CancelToken,
    poll_census: Arc<AtomicU64>,
    tripped: AtomicBool,
    cause: Mutex<Option<InterruptCause>>,
    #[cfg(any(test, feature = "faultinject"))]
    fault: Option<Arc<crate::faultinject::ArmedFault>>,
}

impl Governor {
    /// Arm a governor for a session starting now.
    pub(crate) fn new(budget: &RunBudget) -> Self {
        Self {
            start: Instant::now(),
            deadline: budget.deadline,
            max_resident_bytes: budget.max_resident_bytes,
            cancel: budget.cancel.clone(),
            poll_census: Arc::clone(&budget.poll_census),
            tripped: AtomicBool::new(false),
            cause: Mutex::new(None),
            #[cfg(any(test, feature = "faultinject"))]
            fault: budget.fault.clone(),
        }
    }

    /// The amortized polling stride for an `n`-qubit state: poll every
    /// `max(1, 2¹⁶ ≫ n)` compiled ops, so the amplitude work between
    /// polls stays near `2¹⁶` regardless of state size and the poll
    /// cost is unmeasurable.
    pub(crate) fn batch_ops(num_qubits: usize) -> usize {
        ((1usize << 16) >> num_qubits.min(16)).max(1)
    }

    /// Latch an interruption cause. The first call wins; later calls
    /// (other workers tripping concurrently) are ignored.
    pub(crate) fn trip(&self, cause: InterruptCause) {
        let mut slot = self
            .cause
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner);
        if slot.is_none() {
            *slot = Some(cause);
        }
        self.tripped.store(true, Ordering::Release);
    }

    /// The latched cause, if any worker has tripped.
    pub(crate) fn cause(&self) -> Option<InterruptCause> {
        if !self.tripped.load(Ordering::Acquire) {
            return None;
        }
        self.cause
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
    }

    /// One governor check against a state's resident footprint.
    ///
    /// Increments the poll census, then checks (in order): the shared
    /// trip latch, an injected fault at this op-poll site, the cancel
    /// token, the deadline, and the memory ceiling. On violation the
    /// cause is latched (so sibling workers stop too) and returned.
    ///
    /// # Errors
    ///
    /// The [`InterruptCause`] that tripped — freshly derived or latched
    /// by another worker.
    pub(crate) fn poll_resident(&self, resident_bytes: usize) -> Result<(), InterruptCause> {
        self.poll_census.fetch_add(1, Ordering::Relaxed);
        if self.tripped.load(Ordering::Acquire) {
            if let Some(cause) = self.cause() {
                return Err(cause);
            }
        }
        #[cfg(any(test, feature = "faultinject"))]
        if let Some(kind) = self
            .fault
            .as_deref()
            .and_then(crate::faultinject::ArmedFault::op_site)
        {
            let cause = realize_injected(kind);
            self.trip(cause.clone());
            return Err(cause);
        }
        if self.cancel.is_cancelled() {
            self.trip(InterruptCause::Cancelled);
            return Err(InterruptCause::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if self.start.elapsed() >= deadline {
                let cause = InterruptCause::Deadline { deadline };
                self.trip(cause.clone());
                return Err(cause);
            }
        }
        if let Some(limit) = self.max_resident_bytes {
            if resident_bytes > limit {
                let cause = InterruptCause::MemoryBudget {
                    resident: resident_bytes,
                    limit,
                };
                self.trip(cause.clone());
                return Err(cause);
            }
        }
        Ok(())
    }

    /// [`poll_resident`](Governor::poll_resident) against a live
    /// backend state.
    ///
    /// # Errors
    ///
    /// As [`poll_resident`](Governor::poll_resident).
    pub(crate) fn poll<B: SimBackend>(&self, state: &B) -> Result<(), InterruptCause> {
        self.poll_resident(state.resident_bytes())
    }

    /// Consult the injected-fault plan at a fork/allocation site
    /// (fresh backend construction, trajectory-tree pool checkout).
    /// `Some(cause)` — already latched — on the firing visit; a
    /// no-op (always `None`) in builds without fault injection. An
    /// injected [`WorkerPanic`](crate::faultinject::FaultKind::WorkerPanic)
    /// panics here instead of returning.
    pub(crate) fn injected_fork_fault(&self) -> Option<InterruptCause> {
        #[cfg(any(test, feature = "faultinject"))]
        if let Some(kind) = self
            .fault
            .as_deref()
            .and_then(crate::faultinject::ArmedFault::fork_site)
        {
            let cause = realize_injected(kind);
            self.trip(cause.clone());
            return Some(cause);
        }
        None
    }

    /// `|0…0⟩` on backend `B`, allocated fallibly: an allocator refusal
    /// latches an [`InterruptCause::AllocationFailed`] trip and comes
    /// back as its sentinel [`trip_error`]; any other construction
    /// error (e.g. zero qubits) passes through.
    pub(crate) fn zero_state<B: SimBackend>(
        &self,
        num_qubits: usize,
    ) -> Result<B, crate::CoreError> {
        B::try_zero_state(num_qubits).map_err(|e| match e {
            qdb_sim::SimError::AllocationFailed { bytes } => {
                let cause = InterruptCause::AllocationFailed { bytes };
                self.trip(cause.clone());
                trip_error(cause)
            }
            e => crate::CoreError::Circuit(qdb_circuit::CircuitError::Sim(e)),
        })
    }

    /// Run `f` with panic containment: a panic (organic or injected) is
    /// caught, converted into [`InterruptCause::WorkerPanic`], latched
    /// on this governor so sibling workers stop at their next poll, and
    /// returned as the `Err` — it never unwinds past the engine into
    /// the caller or poisons other workers.
    ///
    /// # Errors
    ///
    /// The latched [`InterruptCause::WorkerPanic`] when `f` panicked.
    pub(crate) fn contain<R>(&self, f: impl FnOnce() -> R) -> Result<R, InterruptCause> {
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(f)) {
            Ok(r) => Ok(r),
            Err(payload) => {
                let cause = InterruptCause::WorkerPanic {
                    message: panic_message(payload.as_ref()),
                };
                self.trip(cause.clone());
                Err(cause)
            }
        }
    }
}

/// Best-effort extraction of a human-readable message from a panic
/// payload (`&str` and `String` payloads cover `panic!`/`assert!`).
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic payload of unknown type".to_string()
    }
}

/// A sentinel [`CoreError::Interrupted`](crate::CoreError::Interrupted)
/// carrying an **empty** partial report, used by inner engine layers
/// that see a trip but don't hold the completed-prefix context; the
/// outermost check path catches it and re-wraps the cause with the real
/// strict-prefix [`PartialReport`](crate::PartialReport).
pub(crate) fn trip_error(cause: InterruptCause) -> crate::CoreError {
    crate::CoreError::Interrupted {
        cause,
        partial: Box::new(crate::report::PartialReport {
            reports: Vec::new(),
            completed: 0,
        }),
    }
}

/// Assemble the outward-facing
/// [`CoreError::Interrupted`](crate::CoreError::Interrupted) for a
/// session of `program` that completed the given strict prefix of
/// reports before `cause` tripped: the remaining breakpoints are padded
/// with [`Verdict::Unevaluated`](crate::Verdict::Unevaluated) markers
/// so the partial always covers the whole program.
pub(crate) fn interrupted(
    program: &qdb_circuit::Program,
    completed: Vec<crate::report::AssertionReport>,
    cause: InterruptCause,
) -> crate::CoreError {
    let breakpoints = program.breakpoints();
    let done = completed.len().min(breakpoints.len());
    let mut reports = completed;
    reports.truncate(done);
    for (index, breakpoint) in breakpoints.iter().enumerate().skip(done) {
        reports.push(crate::report::AssertionReport::unevaluated(
            index, breakpoint,
        ));
    }
    crate::CoreError::Interrupted {
        cause,
        partial: Box::new(crate::report::PartialReport {
            reports,
            completed: done,
        }),
    }
}

/// Turn an injected fault into its observable effect: allocation
/// failures and deadline exhaustion become their [`InterruptCause`];
/// a worker-panic injection actually panics (the containment layer
/// must catch it — that is the point of injecting it).
#[cfg(any(test, feature = "faultinject"))]
pub(crate) fn realize_injected(kind: crate::faultinject::FaultKind) -> InterruptCause {
    use crate::faultinject::FaultKind;
    match kind {
        FaultKind::AllocationFailure => InterruptCause::AllocationFailed { bytes: 0 },
        FaultKind::DeadlineExhaustion => InterruptCause::Deadline {
            deadline: Duration::ZERO,
        },
        FaultKind::WorkerPanic => panic!("injected worker panic (faultinject)"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cancel_token_latches_across_clones() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert!(!clone.is_cancelled());
        token.cancel();
        assert!(clone.is_cancelled());
        assert!(token.is_cancelled());
    }

    #[test]
    fn default_budgets_compare_equal() {
        assert_eq!(RunBudget::default(), RunBudget::default());
        assert_eq!(RunBudget::unlimited(), RunBudget::default());
    }

    #[test]
    fn batch_stride_shrinks_with_state_size() {
        assert_eq!(Governor::batch_ops(0), 1 << 16);
        assert_eq!(Governor::batch_ops(10), 1 << 6);
        assert_eq!(Governor::batch_ops(16), 1);
        assert_eq!(Governor::batch_ops(26), 1);
        assert_eq!(Governor::batch_ops(64), 1);
    }

    #[test]
    fn governor_trips_on_cancellation_and_latches() {
        let budget = RunBudget::default();
        let governor = Governor::new(&budget);
        assert!(governor.poll_resident(0).is_ok());
        budget.cancel.cancel();
        assert_eq!(governor.poll_resident(0), Err(InterruptCause::Cancelled));
        // Latched: later polls fail fast with the same cause.
        assert_eq!(governor.poll_resident(0), Err(InterruptCause::Cancelled));
        assert_eq!(governor.cause(), Some(InterruptCause::Cancelled));
    }

    #[test]
    fn governor_trips_on_memory_ceiling() {
        let budget = RunBudget::default().with_max_resident_bytes(1024);
        let governor = Governor::new(&budget);
        assert!(governor.poll_resident(512).is_ok());
        assert_eq!(
            governor.poll_resident(2048),
            Err(InterruptCause::MemoryBudget {
                resident: 2048,
                limit: 1024,
            })
        );
    }

    #[test]
    fn governor_trips_on_elapsed_deadline() {
        let budget = RunBudget::default().with_deadline(Duration::ZERO);
        let governor = Governor::new(&budget);
        assert_eq!(
            governor.poll_resident(0),
            Err(InterruptCause::Deadline {
                deadline: Duration::ZERO,
            })
        );
    }

    #[test]
    fn poll_census_counts_every_poll() {
        let budget = RunBudget::default();
        let governor = Governor::new(&budget);
        let before = budget.poll_checks();
        for _ in 0..5 {
            governor.poll_resident(0).unwrap();
        }
        assert_eq!(budget.poll_checks(), before + 5);
    }

    #[test]
    fn first_trip_wins() {
        let budget = RunBudget::default();
        let governor = Governor::new(&budget);
        governor.trip(InterruptCause::Cancelled);
        governor.trip(InterruptCause::AllocationFailed { bytes: 7 });
        assert_eq!(governor.cause(), Some(InterruptCause::Cancelled));
    }
}
