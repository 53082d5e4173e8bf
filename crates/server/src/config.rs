//! Server-wide policy: pool sizing, admission quotas, retry/backoff,
//! and the degradation ladder.

use std::time::Duration;

/// Deterministic seeded exponential backoff. `backoff_for` is a pure
/// function of `(policy, session id, retry index)`, so a replayed
/// session schedules the exact same delays — retry timing is part of
/// the reproducible record, not noise.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Retries granted per session beyond the first attempt. Transient
    /// trips past this cap become
    /// [`ServerError::RetriesExhausted`](crate::ServerError::RetriesExhausted).
    pub max_retries: u32,
    /// Delay before the first retry; each further retry doubles it.
    pub base_backoff: Duration,
    /// Ceiling the doubled delays saturate at.
    pub max_backoff: Duration,
    /// Seed for the ±25% decorrelation jitter.
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_retries: 3,
            base_backoff: Duration::from_millis(1),
            max_backoff: Duration::from_millis(50),
            jitter_seed: 0x5144_4253, // "QDBS"
        }
    }
}

/// splitmix64 — the same avalanche the engines use for per-shot seed
/// derivation, reused here so backoff jitter is deterministic without
/// pulling in an RNG.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl RetryPolicy {
    /// The delay before retry number `retry` (0-based) of `session`:
    /// `base · 2^retry`, jittered to 75–125% by a hash of
    /// `(jitter_seed, session, retry)`, saturated at
    /// [`max_backoff`](RetryPolicy::max_backoff).
    #[must_use]
    pub fn backoff_for(&self, session: u64, retry: u32) -> Duration {
        let doubled = self
            .base_backoff
            .saturating_mul(1u32.checked_shl(retry.min(20)).unwrap_or(u32::MAX));
        let capped = doubled.min(self.max_backoff);
        let h = splitmix64(self.jitter_seed ^ session.rotate_left(17) ^ u64::from(retry));
        // 75% + (h mod 50)% of the capped delay, in nanosecond space.
        let factor = 75 + (h % 51);
        let nanos = capped.as_nanos().saturating_mul(u128::from(factor)) / 100;
        Duration::from_nanos(u64::try_from(nanos).unwrap_or(u64::MAX))
    }
}

/// Which rungs of the degradation ladder the server may take when a
/// session trips its memory ceiling repeatedly. Rungs are ordered
/// bit-neutral first; the final rung changes sampled bits and is
/// flagged in the session's event log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DegradationPolicy {
    /// Rung 1: disable parallel execution, collapsing the replay wave
    /// (and per-prefix worker states) to a single resident state.
    /// Bit-neutral.
    pub disable_parallel: bool,
    /// Rung 2: re-resolve [`BackendChoice::Auto`](qdb_core::BackendChoice::Auto)
    /// to the sparse amplitude-map backend, trading time for a resident
    /// footprint that scales with live support instead of `2ⁿ`.
    /// Verdict-preserving but **not** bit-preserving (the sparse engine
    /// consumes randomness its own way), so sessions that take this
    /// rung are marked non-bit-identical. Only applies to sessions
    /// submitted with `Auto`; explicit backend choices are never
    /// overridden.
    pub sparse_fallback: bool,
}

impl Default for DegradationPolicy {
    fn default() -> Self {
        Self {
            disable_parallel: true,
            sparse_fallback: true,
        }
    }
}

impl DegradationPolicy {
    /// Degradation disabled entirely: memory trips only consume
    /// retries.
    #[must_use]
    pub fn none() -> Self {
        Self {
            disable_parallel: false,
            sparse_fallback: false,
        }
    }
}

/// Configuration of a [`Server`](crate::Server).
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Worker threads in the pool — the number of sessions that run
    /// concurrently.
    pub workers: usize,
    /// Capacity of the bounded submission queue. Submissions beyond it
    /// fail fast with [`ServerError::QueueFull`](crate::ServerError::QueueFull).
    pub queue_capacity: usize,
    /// Admission ceiling on program width, in qubits. Wider programs
    /// are [`Rejected`](crate::ServerError::Rejected) at submit time.
    pub max_qubits: Option<usize>,
    /// Admission quota on shots per session.
    pub max_shots: Option<usize>,
    /// Global per-session wall-clock policy, merged into each
    /// submission's budget when the submission does not set a tighter
    /// deadline of its own.
    pub session_deadline: Option<Duration>,
    /// Global per-session resident-memory policy, merged the same way.
    pub session_max_resident_bytes: Option<usize>,
    /// Retry/backoff policy for transient interruptions.
    pub retry: RetryPolicy,
    /// Which degradation rungs memory-tripped sessions may take.
    pub degradation: DegradationPolicy,
    /// Capacity of the shared compiled-plan LRU cache.
    pub plan_cache_capacity: usize,
    /// Capacity of the shared exact-oracle verdict LRU cache.
    pub oracle_cache_capacity: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            workers: 2,
            queue_capacity: 64,
            max_qubits: None,
            max_shots: None,
            session_deadline: None,
            session_max_resident_bytes: None,
            retry: RetryPolicy::default(),
            degradation: DegradationPolicy::default(),
            plan_cache_capacity: 64,
            oracle_cache_capacity: 64,
        }
    }
}

impl ServerConfig {
    /// This configuration with `workers` pool threads (clamped to at
    /// least 1).
    #[must_use]
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers.max(1);
        self
    }

    /// This configuration with a submission-queue capacity (clamped to
    /// at least 1).
    #[must_use]
    pub fn with_queue_capacity(mut self, capacity: usize) -> Self {
        self.queue_capacity = capacity.max(1);
        self
    }

    /// This configuration with an admission ceiling on program width.
    #[must_use]
    pub fn with_max_qubits(mut self, qubits: usize) -> Self {
        self.max_qubits = Some(qubits);
        self
    }

    /// This configuration with an admission quota on shots.
    #[must_use]
    pub fn with_max_shots(mut self, shots: usize) -> Self {
        self.max_shots = Some(shots);
        self
    }

    /// This configuration with a global per-session deadline policy.
    #[must_use]
    pub fn with_session_deadline(mut self, deadline: Duration) -> Self {
        self.session_deadline = Some(deadline);
        self
    }

    /// This configuration with a global per-session memory policy.
    #[must_use]
    pub fn with_session_max_resident_bytes(mut self, bytes: usize) -> Self {
        self.session_max_resident_bytes = Some(bytes);
        self
    }

    /// This configuration with the given retry policy.
    #[must_use]
    pub fn with_retry(mut self, retry: RetryPolicy) -> Self {
        self.retry = retry;
        self
    }

    /// This configuration with the given degradation policy.
    #[must_use]
    pub fn with_degradation(mut self, degradation: DegradationPolicy) -> Self {
        self.degradation = degradation;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_monotone_capped() {
        let policy = RetryPolicy::default();
        let a = policy.backoff_for(7, 0);
        assert_eq!(a, policy.backoff_for(7, 0), "same inputs, same delay");
        assert_ne!(
            policy.backoff_for(7, 0),
            policy.backoff_for(8, 0),
            "jitter decorrelates sessions"
        );
        // Every delay stays within 75–125% of the capped exponential.
        for retry in 0..12 {
            let d = policy.backoff_for(7, retry);
            let ideal = policy
                .base_backoff
                .saturating_mul(1 << retry.min(20))
                .min(policy.max_backoff);
            assert!(
                d >= ideal.mul_f64(0.74),
                "retry {retry}: {d:?} < 75% of {ideal:?}"
            );
            assert!(
                d <= ideal.mul_f64(1.26),
                "retry {retry}: {d:?} > 125% of {ideal:?}"
            );
        }
        // Deep retries saturate near the cap instead of overflowing.
        assert!(policy.backoff_for(7, 63) <= policy.max_backoff.mul_f64(1.26));
    }

    #[test]
    fn config_builders_clamp() {
        let cfg = ServerConfig::default()
            .with_workers(0)
            .with_queue_capacity(0);
        assert_eq!(cfg.workers, 1);
        assert_eq!(cfg.queue_capacity, 1);
    }
}
