use qdb_sim::SimError;
use std::error::Error;
use std::fmt;

/// Errors produced by circuit construction, simulation, and OpenQASM I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CircuitError {
    /// An underlying simulator error.
    Sim(SimError),
    /// The circuit is too large for a dense-matrix operation.
    TooLarge(usize),
    /// The instruction cannot be expressed in the OpenQASM 2.0 subset QDB
    /// emits (e.g. three or more controls).
    UnsupportedExport(String),
    /// Scaffold or OpenQASM parse failure, with a 1-based line number.
    Parse {
        /// Line where the failure occurred.
        line: usize,
        /// Human-readable description.
        msg: String,
    },
    /// A register was declared or referenced inconsistently.
    BadRegister(String),
}

impl fmt::Display for CircuitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CircuitError::Sim(e) => write!(f, "simulator error: {e}"),
            CircuitError::TooLarge(n) => {
                write!(f, "{n} qubits is too large for a dense matrix operation")
            }
            CircuitError::UnsupportedExport(what) => {
                write!(f, "cannot express in OpenQASM 2.0 subset: {what}")
            }
            CircuitError::Parse { line, msg } => {
                write!(f, "parse error at line {line}: {msg}")
            }
            CircuitError::BadRegister(msg) => write!(f, "bad register: {msg}"),
        }
    }
}

impl Error for CircuitError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            CircuitError::Sim(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SimError> for CircuitError {
    fn from(e: SimError) -> Self {
        CircuitError::Sim(e)
    }
}
