//! Session identity, lifecycle states, the per-session event log, and
//! terminal outcomes.

use std::fmt;
use std::time::Duration;

use qdb_core::{AssertionReport, InterruptCause, NoisySessionStats};

use crate::error::ServerError;

/// Opaque handle to a submitted session, unique for the lifetime of
/// one [`Server`](crate::Server).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SessionId(pub(crate) u64);

impl SessionId {
    /// The raw numeric id (also the jitter input of this session's
    /// retry backoffs).
    #[must_use]
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstruct a handle from [`raw`](SessionId::raw) — for callers
    /// that persist session ids outside the process. A raw value the
    /// server never issued resolves to
    /// [`ServerError::UnknownSession`](crate::ServerError::UnknownSession)
    /// on use.
    #[must_use]
    pub fn from_raw(raw: u64) -> Self {
        Self(raw)
    }
}

impl fmt::Display for SessionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "s{}", self.0)
    }
}

/// Where a session is in its lifecycle.
///
/// ```text
/// Queued ─► Running ─► Completed
///   ▲         │ ├────► Failed
///   │         │ ├────► Cancelled
///   │         │ └────► Evicted ──(resume)──┐
///   │         ▼                            │
///   │      Retrying (backoff, then re-run) │
///   │         │                            │
///   └─────────┴────────────────────────────┘
/// ```
///
/// `Completed`, `Failed`, and `Cancelled` are terminal. `Evicted` is
/// *parked*: the session keeps its checkpoint and re-enters the queue
/// on [`Server::resume`](crate::Server::resume). [`Server::wait`]
/// returns on any settled (terminal or parked) state.
///
/// [`Server::wait`]: crate::Server::wait
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is running an attempt.
    Running,
    /// A transient trip was classified for retry; the worker is waiting
    /// out the backoff before the next attempt.
    Retrying,
    /// Preempted (by [`Server::evict`](crate::Server::evict)) and
    /// parked with its checkpoint; resumable.
    Evicted,
    /// Every breakpoint evaluated; reports available.
    Completed,
    /// Terminally failed with a typed [`ServerError`].
    Failed,
    /// Cancelled without an eviction request; terminal.
    Cancelled,
}

impl SessionState {
    /// `true` for states a session never leaves.
    #[must_use]
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            SessionState::Completed | SessionState::Failed | SessionState::Cancelled
        )
    }

    /// `true` for states [`Server::wait`](crate::Server::wait) returns
    /// on: terminal states plus the parked [`Evicted`](Self::Evicted).
    #[must_use]
    pub fn is_settled(self) -> bool {
        self.is_terminal() || self == SessionState::Evicted
    }
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            SessionState::Queued => "queued",
            SessionState::Running => "running",
            SessionState::Retrying => "retrying",
            SessionState::Evicted => "evicted",
            SessionState::Completed => "completed",
            SessionState::Failed => "failed",
            SessionState::Cancelled => "cancelled",
        })
    }
}

/// One rung of the graceful-degradation ladder, taken after a memory
/// trip. A memory-tripped session takes the rungs in declaration order,
/// each at most once: bit-neutral first, then the rung that changes
/// sampled bits (flagged in the event log and the outcome).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeAction {
    /// Parallel execution disabled, collapsing the replay wave (and
    /// per-prefix worker states) to a single resident state
    /// (bit-neutral). Taken when the session runs parallel.
    DisableParallel,
    /// `BackendChoice::Auto` re-resolved to the sparse backend, trading
    /// time for a resident footprint that scales with live support
    /// instead of `2ⁿ` (verdict-preserving, **not** bit-preserving: the
    /// sparse engine consumes randomness its own way). Taken only by
    /// sessions submitted with `Auto`; explicit backend choices are
    /// never overridden.
    SparseFallback,
}

impl DegradeAction {
    /// `true` when this rung cannot change a single sampled bit —
    /// parallelism invariance is pinned by the engine's equivalence
    /// suites.
    #[must_use]
    pub fn bit_neutral(self) -> bool {
        !matches!(self, DegradeAction::SparseFallback)
    }
}

impl fmt::Display for DegradeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradeAction::DisableParallel => f.write_str("parallel execution disabled"),
            DegradeAction::SparseFallback => f.write_str("Auto backend re-resolved to sparse"),
        }
    }
}

/// One entry of a session's append-only event log: every admission,
/// interruption, retry, downgrade, eviction, and terminal transition,
/// in order. The log is the audit trail the ISSUE's failure-model
/// contract is checked against.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SessionEvent {
    /// Passed admission control and entered the queue.
    Admitted {
        /// Sessions already queued ahead of this one.
        queue_depth: usize,
    },
    /// A worker started (or restarted) the session.
    Started {
        /// 1-based attempt number.
        attempt: u32,
        /// The checkpoint position this attempt resumed from (0 for a
        /// fresh run).
        resumed_from: usize,
    },
    /// The attempt was interrupted before completing every breakpoint.
    Interrupted {
        /// The attempt that tripped.
        attempt: u32,
        /// What tripped it.
        cause: InterruptCause,
        /// Breakpoints checkpointed so far (across all attempts).
        completed: usize,
    },
    /// A transient trip was classified for retry.
    RetryScheduled {
        /// 0-based retry index.
        retry: u32,
        /// The deterministic backoff the worker waits out.
        backoff: Duration,
    },
    /// A degradation rung was taken before the next attempt.
    Degraded {
        /// The rung.
        action: DegradeAction,
        /// Whether the rung preserves bit-identity with a fresh,
        /// undegraded run.
        bit_neutral: bool,
    },
    /// [`Server::evict`](crate::Server::evict) preempted the session;
    /// it parked with its checkpoint.
    Evicted {
        /// Breakpoints safe in the checkpoint.
        completed: usize,
    },
    /// [`Server::resume`](crate::Server::resume) re-queued the parked
    /// session.
    ResumeRequested {
        /// The checkpoint position the next attempt will resume from.
        resume_from: usize,
    },
    /// Exact-oracle verdicts were served from the shared cache, so this
    /// attempt ran with cross-checking disabled and spliced the cached
    /// verdicts in.
    OracleCacheHit,
    /// The session completed; reports are final.
    Completed {
        /// Total attempts, including the first.
        attempts: u32,
    },
    /// The session failed terminally.
    Failed {
        /// The typed failure.
        error: ServerError,
    },
    /// The session was cancelled without an eviction request.
    Cancelled,
}

/// The settled result of a session: its final state, reports when it
/// completed, the typed error when it failed, the full event log, and
/// the bit-identity flag degradation rungs may clear.
#[derive(Debug, Clone, PartialEq)]
pub struct SessionOutcome {
    /// The session.
    pub id: SessionId,
    /// The settled state — `Completed`, `Failed`, `Cancelled`, or
    /// parked `Evicted`.
    pub state: SessionState,
    /// Final reports when [`state`](SessionOutcome::state) is
    /// `Completed`.
    pub reports: Option<Vec<AssertionReport>>,
    /// Trajectory-tree census of the final attempt, when that attempt
    /// ran the tree — `states_outstanding` is the leak detector the
    /// chaos suite asserts is 0.
    pub stats: Option<NoisySessionStats>,
    /// The typed failure when [`state`](SessionOutcome::state) is
    /// `Failed`.
    pub error: Option<ServerError>,
    /// The checkpoint frontier: breakpoints evaluated across all
    /// attempts (equals the report length when completed).
    pub completed: usize,
    /// Attempts performed, including the first.
    pub attempts: u32,
    /// The append-only event log.
    pub events: Vec<SessionEvent>,
    /// `true` while every applied degradation rung (if any) was
    /// bit-neutral — i.e. the reports are still bit-identical to a
    /// fresh, undegraded, uninterrupted run of the same submission.
    pub bit_identical: bool,
}

impl SessionOutcome {
    /// The reports, when the session completed.
    #[must_use]
    pub fn reports(&self) -> Option<&[AssertionReport]> {
        self.reports.as_deref()
    }

    /// Count of degradation rungs recorded in the event log.
    #[must_use]
    pub fn degradations(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, SessionEvent::Degraded { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn state_classification() {
        assert!(SessionState::Completed.is_terminal());
        assert!(SessionState::Failed.is_terminal());
        assert!(SessionState::Cancelled.is_terminal());
        assert!(!SessionState::Evicted.is_terminal());
        assert!(SessionState::Evicted.is_settled());
        assert!(!SessionState::Queued.is_settled());
        assert!(!SessionState::Running.is_settled());
        assert!(!SessionState::Retrying.is_settled());
    }

    #[test]
    fn degrade_bit_neutrality() {
        assert!(DegradeAction::DisableParallel.bit_neutral());
        assert!(!DegradeAction::SparseFallback.bit_neutral());
    }

    #[test]
    fn session_id_display() {
        assert_eq!(SessionId(17).to_string(), "s17");
        assert_eq!(SessionId(17).raw(), 17);
    }
}
