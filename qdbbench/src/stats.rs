//! Order statistics for latency samples.

/// The median (mean of the two middle values for an even count); `NaN`
/// for an empty slice.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    let sorted = sorted(values);
    let n = sorted.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100); `NaN` for an empty slice.
#[must_use]
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let sorted = sorted(values);
    if sorted.is_empty() {
        return f64::NAN;
    }
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// A tail latency: the highest percentile that still has at least
/// [`TAIL_BEYOND`] samples above it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at that percentile.
    pub value: f64,
    /// The percentile (0–100) the value sits at.
    pub percentile: f64,
    /// Samples strictly beyond it in rank (`TAIL_BEYOND`, or 0 when too
    /// few samples exist and the maximum is reported instead).
    pub beyond: usize,
}

/// How many samples must lie beyond a reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// The tail rule: with `n > TAIL_BEYOND` sorted samples the value of
/// rank `n − TAIL_BEYOND` (1-based), which is percentile
/// `100·(n − TAIL_BEYOND)/n`. With fewer samples no percentile
/// qualifies; the maximum is reported with `beyond = 0`.
#[must_use]
pub fn tail(values: &[f64]) -> Tail {
    let sorted = sorted(values);
    let n = sorted.len();
    if n == 0 {
        return Tail {
            value: f64::NAN,
            percentile: f64::NAN,
            beyond: 0,
        };
    }
    if n <= TAIL_BEYOND {
        return Tail {
            value: sorted[n - 1],
            percentile: 100.0,
            beyond: 0,
        };
    }
    let rank = n - TAIL_BEYOND;
    Tail {
        value: sorted[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: TAIL_BEYOND,
    }
}

/// Samples per window of [`quiet_window`].
pub const WINDOW: usize = 100;
/// Samples between the starts of consecutive windows.
pub const WINDOW_STEP: usize = 10;

/// `per_window` over every window of [`WINDOW`] consecutive samples
/// (windows start [`WINDOW_STEP`] samples apart and overlap), and the
/// result of the window at the 10th percentile of `key`: the run's
/// least disturbed tenth. A run shorter than one window is one window.
///
/// Other tenants of a shared host slow it in spells of seconds to
/// minutes, and a slow spell makes queueing sessions wait longer still.
/// Over a whole run, or as a median over its parts, a spell that covers
/// half the run moves the latencies by half or more; a quiet tenth of
/// the run reads the same as a run without spells. A change that slows
/// every session moves every window and is seen; disturbances that hit
/// fewer than nine in ten windows, the program's own included, are not
/// (the run's p90, p99 and maximum are printed beside the metric).
#[must_use]
pub fn quiet_window<T>(
    values_in_order: &[f64],
    per_window: impl Fn(&[f64]) -> T,
    key: impl Fn(&T) -> f64,
) -> T {
    let n = values_in_order.len();
    if n <= WINDOW {
        return per_window(values_in_order);
    }
    let mut windows: Vec<T> = (0..=n - WINDOW)
        .step_by(WINDOW_STEP)
        .map(|start| per_window(&values_in_order[start..start + WINDOW]))
        .collect();
    windows.sort_by(|a, b| key(a).total_cmp(&key(b)));
    let at = windows.len() / 10;
    windows.swap_remove(at)
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        // Shuffled on purpose: the rules must not depend on input order.
        (0..n).rev().map(|i| (i + 1) as f64).collect()
    }

    #[test]
    fn tail_keeps_exactly_ten_samples_beyond() {
        let t = tail(&ramp(1000));
        assert_eq!(t.value, 990.0);
        assert_eq!(t.beyond, 10);
        assert!((t.percentile - 99.0).abs() < 1e-12);
        let beyond = ramp(1000).iter().filter(|&&v| v > t.value).count();
        assert_eq!(beyond, TAIL_BEYOND);
    }

    #[test]
    fn tail_percentile_falls_with_sample_count() {
        let t = tail(&ramp(40));
        assert_eq!(t.value, 30.0);
        assert!((t.percentile - 75.0).abs() < 1e-12);
        let t = tail(&ramp(11));
        assert_eq!(t.value, 1.0);
        assert_eq!(t.beyond, 10);
    }

    #[test]
    fn tail_with_too_few_samples_reports_the_maximum() {
        let t = tail(&ramp(10));
        assert_eq!(t.value, 10.0);
        assert_eq!(t.beyond, 0);
        assert_eq!(t.percentile, 100.0);
        assert!(tail(&[]).value.is_nan());
    }

    #[test]
    fn quiet_window_reports_the_tenth_percentile_window() {
        // A run no longer than one window is one window.
        let short = ramp(WINDOW);
        assert_eq!(quiet_window(&short, tail, |t| t.value), tail(&short));
        // 1000 samples: 91 windows (starts 0, 10, …, 900). Samples rise
        // by 1 per index, so window k's median is 10k + 50.5 and the
        // tenth percentile of 91 windows is the 10th lowest, k = 9.
        let rising: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(quiet_window(&rising, median, |m| *m), 140.5);
        let t = quiet_window(&rising, tail, |t| t.value);
        assert_eq!(t.value, 180.0);
        assert!((t.percentile - 90.0).abs() < 1e-12);
        // A slow spell over the last 80% of a run does not move it.
        let spell: Vec<f64> = (0..1000).map(|i| if i < 200 { 1.0 } else { 2.0 }).collect();
        assert_eq!(quiet_window(&spell, median, |m| *m), 1.0);
    }

    #[test]
    fn median_and_percentile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(percentile(&ramp(100), 90.0), 90.0);
        assert_eq!(percentile(&ramp(100), 0.0), 1.0);
        assert_eq!(percentile(&ramp(100), 100.0), 100.0);
    }
}
