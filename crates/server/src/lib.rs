//! `qdb-server` — a supervised, fault-tolerant session service over
//! the assertion engine.
//!
//! The debugger core ([`qdb-core`](qdb_core)) checks one program per
//! call and reports interruptions as typed
//! [`CoreError::Interrupted`](qdb_core::CoreError) values carrying a
//! resumable checkpoint. This crate turns that primitive into a
//! *service*: a [`Server`] multiplexes many concurrent
//! assertion-checking sessions through a bounded worker pool and
//! supervises every failure the execution governor can surface.
//!
//! The failure model, end to end:
//!
//! * **Admission control & backpressure** — submissions pass policy
//!   screening (shot quota, qubit ceiling) and a bounded queue;
//!   overload fails fast with [`ServerError::QueueFull`] instead of
//!   queueing unboundedly, and policy violations with
//!   [`ServerError::Rejected`]. Each admitted session runs under a
//!   [`RunBudget`](qdb_core::RunBudget) tightened by the server's
//!   global deadline/memory policy.
//! * **Supervision & retry** — worker panics are contained (the pool
//!   survives; the session fails typed). Transient trips — deadline,
//!   memory ceiling, allocation failure — retry with deterministic
//!   seeded exponential backoff ([`RetryPolicy`]) up to a cap, each
//!   retry resuming from the session's checkpoint.
//! * **Checkpoint-resume** — interrupted and evicted sessions keep
//!   their [`PartialReport`](qdb_core::PartialReport) frontier;
//!   resumed runs recompute only the suffix and are bit-identical to
//!   an uninterrupted run (the strict-prefix contract
//!   `resume_equivalence.rs` pins in the core crate).
//! * **Graceful degradation** — repeated memory trips walk a ladder
//!   ([`DegradationPolicy`]): disable parallel execution
//!   (bit-neutral), then re-resolve an `Auto`
//!   backend to the sparse engine (verdict-preserving, bit-affecting,
//!   and flagged in the event log and outcome).
//! * **Caching** — compiled plans are shared through the
//!   [`PlanCache`](qdb_circuit::PlanCache) and exact-oracle verdicts
//!   through the [`OracleCache`], both LRU with hit/miss counters
//!   surfaced in [`ServerMetrics`]; a warm resubmission skips both
//!   compilation and the exact cross-check without changing a single
//!   statistical bit.
//!
//! Every lifecycle transition of every session lands in its
//! append-only [`SessionEvent`] log, so "what happened to s17?" is
//! always answerable from the [`SessionOutcome`] alone.

#![warn(missing_docs)]

mod config;
mod error;
mod oracle;
mod server;
mod session;

pub use config::{DegradationPolicy, RetryPolicy, ServerConfig};
pub use error::ServerError;
pub use oracle::OracleCache;
pub use server::{Server, ServerMetrics};
pub use session::{DegradeAction, SessionEvent, SessionId, SessionOutcome, SessionState};
