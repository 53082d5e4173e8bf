use std::error::Error;
use std::fmt;

/// Errors produced by the simulator.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// A qubit index was out of range for the state.
    QubitOutOfRange {
        /// The offending index.
        qubit: usize,
        /// Number of qubits in the state.
        num_qubits: usize,
    },
    /// The same qubit was used twice in one operation (e.g. control ==
    /// target).
    DuplicateQubit(usize),
    /// An amplitude vector's length was not a power of two.
    InvalidDimension(usize),
    /// A matrix did not have the dimensions required by the operation.
    InvalidMatrix {
        /// Expected square dimension.
        expected: usize,
        /// Observed dimension.
        found: usize,
    },
    /// The state (or matrix) was not normalized/unitary within tolerance.
    NotNormalized,
    /// The requested state exceeds the simulator's size limit.
    TooManyQubits(usize),
    /// A proposed Kraus-operator set does not describe a valid (CPTP)
    /// quantum channel; the message names the violated condition.
    NotCptp(String),
    /// The allocator refused the state's backing buffer. Raised by the
    /// fallible construction path
    /// ([`SimBackend::zero`](crate::SimBackend::zero) on the dense
    /// statevector) so a near-limit `2ⁿ` request surfaces as a typed error the
    /// execution governor can convert into a partial report, instead of
    /// aborting the process mid-allocation.
    AllocationFailed {
        /// The number of bytes the backend asked for.
        bytes: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::QubitOutOfRange { qubit, num_qubits } => {
                write!(f, "qubit {qubit} out of range for {num_qubits}-qubit state")
            }
            SimError::DuplicateQubit(q) => write!(f, "qubit {q} used more than once"),
            SimError::InvalidDimension(d) => {
                write!(f, "amplitude vector length {d} is not a power of two")
            }
            SimError::InvalidMatrix { expected, found } => {
                write!(
                    f,
                    "matrix dimension {found} does not match expected {expected}"
                )
            }
            SimError::NotNormalized => write!(f, "state vector is not normalized"),
            SimError::TooManyQubits(n) => {
                write!(f, "{n} qubits exceeds the dense simulation limit")
            }
            SimError::NotCptp(why) => {
                write!(f, "not a valid CPTP channel: {why}")
            }
            SimError::AllocationFailed { bytes } => {
                write!(f, "allocator refused {bytes} bytes for the state buffer")
            }
        }
    }
}

impl Error for SimError {}
