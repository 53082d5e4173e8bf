//! Seeded open-loop arrival schedules.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Arrival offsets (seconds from the start of the window) of a Poisson
/// process at `rate_per_s`, covering `[0, horizon_s)`. The schedule is
/// a pure function of its arguments.
#[must_use]
pub fn poisson_schedule(seed: u64, rate_per_s: f64, horizon_s: f64) -> Vec<f64> {
    assert!(rate_per_s > 0.0, "arrival rate must be positive");
    let mut rng = StdRng::seed_from_u64(seed);
    let mut at = 0.0;
    let mut arrivals = Vec::new();
    loop {
        // Inverse-CDF exponential gap; `1 − u` keeps the log finite.
        let u: f64 = rng.gen::<f64>();
        at += -(1.0 - u).ln() / rate_per_s;
        if at >= horizon_s {
            return arrivals;
        }
        arrivals.push(at);
    }
}

/// SplitMix64 finalizer: decorrelates a (seed, index) pair into one
/// 64-bit value. Used to derive every per-session seed and choice from
/// the workload seed.
#[must_use]
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_the_same_schedule() {
        let a = poisson_schedule(7, 300.0, 2.0);
        let b = poisson_schedule(7, 300.0, 2.0);
        assert_eq!(a, b);
        assert_ne!(a, poisson_schedule(8, 300.0, 2.0));
    }

    #[test]
    fn schedule_is_sorted_inside_the_horizon_at_about_the_rate() {
        let s = poisson_schedule(11, 500.0, 4.0);
        assert!(s.windows(2).all(|w| w[0] <= w[1]));
        assert!(s.iter().all(|&t| (0.0..4.0).contains(&t)));
        // 2000 expected arrivals; ±5σ ≈ ±224.
        assert!((1776..=2224).contains(&s.len()), "{} arrivals", s.len());
    }

    #[test]
    fn a_longer_horizon_extends_the_same_prefix() {
        let short = poisson_schedule(3, 100.0, 1.0);
        let long = poisson_schedule(3, 100.0, 2.0);
        assert_eq!(short[..], long[..short.len()]);
    }

    #[test]
    fn mix_separates_neighbouring_indices() {
        assert_ne!(mix(1, 0), mix(1, 1));
        assert_ne!(mix(1, 0), mix(2, 0));
        assert_eq!(mix(5, 9), mix(5, 9));
    }
}
