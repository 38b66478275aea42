//! Sample summaries and the output-check ledger.

use std::time::{Duration, Instant};

/// Nanoseconds elapsed since `t`.
pub fn ns_since(t: Instant) -> u64 {
    t.elapsed().as_nanos() as u64
}

/// Median of `xs` (mean of the middle two for an even count); 0 when empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Nearest-rank percentile `p` (0..=100) of `xs`; 0 when empty.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Samples strictly above the nearest-rank p90 position, the count the
/// p90 figure rests on.
pub fn beyond_p90(n: usize) -> usize {
    n - ((0.9 * n as f64).ceil() as usize).min(n)
}

/// Milliseconds of a nanosecond count.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// When a timed loop may stop: after `seconds` of measurement *and* once
/// enough operations ran for the p90 to rest on ten samples, or in any
/// case at the hard cap (three times the budget) so a slow host still
/// finishes.
#[derive(Debug, Clone, Copy)]
pub struct Deadline {
    start: Instant,
    budget: Duration,
    min_ops: usize,
}

impl Deadline {
    /// Starts the clock now.
    pub fn start(seconds: f64, min_ops: usize) -> Self {
        Deadline {
            start: Instant::now(),
            budget: Duration::from_secs_f64(seconds),
            min_ops,
        }
    }

    /// Whether another pass should run, given the operations done so far.
    pub fn more(&self, ops: usize) -> bool {
        let elapsed = self.start.elapsed();
        if elapsed >= self.budget * 3 {
            return false;
        }
        elapsed < self.budget || ops < self.min_ops
    }
}

/// Output checks: every failure is counted (it feeds `failed`, the
/// numerator of the error rate) and reported on stderr with what failed.
#[derive(Debug, Default, serde::Serialize, serde::Deserialize)]
pub struct Checks {
    /// Checks run.
    pub run: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `what` names it and is only rendered on failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.run += 1;
        if !ok {
            self.failed += 1;
            eprintln!("CHECK FAILED: {}", what());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentiles() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&xs, 50.0), 50.0);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(beyond_p90(100), 10);
        assert_eq!(beyond_p90(99), 9);
    }
}
