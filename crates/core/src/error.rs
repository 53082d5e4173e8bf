use std::error::Error;
use std::fmt;

use qdb_circuit::CircuitError;
use qdb_sim::SimError;
use qdb_stats::StatsError;

use crate::governor::InterruptCause;
use crate::report::PartialReport;

/// Errors surfaced by the assertion engine.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CoreError {
    /// Statistical machinery failed (degenerate tables are handled
    /// internally; this is for genuine misuse such as empty ensembles).
    Stats(StatsError),
    /// Simulator failure.
    Sim(SimError),
    /// Circuit/IR failure.
    Circuit(CircuitError),
    /// A register is too wide for the requested test.
    RegisterTooWide {
        /// Register name.
        name: String,
        /// Its width in qubits.
        width: usize,
        /// Maximum supported width for this test.
        max: usize,
    },
    /// The ensemble configuration is invalid (e.g. zero shots).
    BadConfig(String),
    /// The selected simulation backend cannot execute this session.
    BackendUnsupported {
        /// The backend that was requested (e.g. `"stabilizer"`).
        backend: &'static str,
        /// Why it cannot run the session.
        reason: String,
    },
    /// The session was interrupted — deadline, memory ceiling,
    /// cancellation, allocation failure, or a contained worker panic —
    /// before every breakpoint was evaluated. Completed work is not
    /// lost: `partial` holds a bit-identical prefix of the report the
    /// uninterrupted session would have produced, with
    /// [`Verdict::Unevaluated`](crate::Verdict::Unevaluated) markers
    /// for the rest.
    Interrupted {
        /// What tripped the session.
        cause: InterruptCause,
        /// Everything the session finished before the trip.
        partial: Box<PartialReport>,
    },
}

impl CoreError {
    /// The one constructor for [`CoreError::BackendUnsupported`]:
    /// resolution-time capacity errors and noise-routing errors all go
    /// through here so the message format cannot drift between call
    /// sites. `backend` is the backend's stable name (e.g.
    /// [`SimBackend::NAME`](qdb_sim::SimBackend::NAME)).
    #[must_use]
    pub fn backend_unsupported(backend: &'static str, reason: impl Into<String>) -> Self {
        CoreError::BackendUnsupported {
            backend,
            reason: reason.into(),
        }
    }

    /// The session's partial results, when this error carries them
    /// ([`CoreError::Interrupted`]).
    #[must_use]
    pub fn partial_report(&self) -> Option<&PartialReport> {
        match self {
            CoreError::Interrupted { partial, .. } => Some(partial),
            _ => None,
        }
    }
}

impl fmt::Display for CoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CoreError::Stats(e) => write!(f, "statistics error: {e}"),
            CoreError::Sim(e) => write!(f, "simulator error: {e}"),
            CoreError::Circuit(e) => write!(f, "circuit error: {e}"),
            CoreError::RegisterTooWide { name, width, max } => write!(
                f,
                "register `{name}` is {width} qubits wide; this test supports at most {max}"
            ),
            CoreError::BadConfig(msg) => write!(f, "bad configuration: {msg}"),
            CoreError::BackendUnsupported { backend, reason } => {
                write!(f, "the {backend} backend cannot run this session: {reason}")
            }
            CoreError::Interrupted { cause, partial } => {
                write!(
                    f,
                    "session interrupted ({cause}); {}/{} breakpoints evaluated",
                    partial.completed,
                    partial.reports.len()
                )
            }
        }
    }
}

impl Error for CoreError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CoreError::Stats(e) => Some(e),
            CoreError::Sim(e) => Some(e),
            CoreError::Circuit(e) => Some(e),
            _ => None,
        }
    }
}

impl From<StatsError> for CoreError {
    fn from(e: StatsError) -> Self {
        CoreError::Stats(e)
    }
}

impl From<SimError> for CoreError {
    fn from(e: SimError) -> Self {
        CoreError::Sim(e)
    }
}

impl From<CircuitError> for CoreError {
    fn from(e: CircuitError) -> Self {
        CoreError::Circuit(e)
    }
}
