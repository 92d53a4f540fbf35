//! Small statistics helpers: quantiles, means and geometric means.

use std::time::Instant;

/// The `q`-quantile of `samples` (any order), interpolating linearly
/// between the two closest ranks; `0.0` for no samples.
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    if sorted.is_empty() {
        return 0.0;
    }
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `samples`; `0.0` for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// Running arithmetic mean.
#[derive(Debug, Clone, Copy, Default)]
pub struct Mean {
    sum: f64,
    n: u64,
}

impl Mean {
    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    /// Add `n` samples known only by their total.
    pub fn push_total(&mut self, total: f64, n: u64) {
        self.sum += total;
        self.n += n;
    }

    /// The mean; `0.0` before any sample.
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }

    /// Samples seen.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// Running geometric mean of positive ratios.
#[derive(Debug, Clone, Copy, Default)]
pub struct GeoMean {
    log_sum: f64,
    n: u64,
}

impl GeoMean {
    /// Add one positive ratio (non-positive or non-finite ratios are
    /// skipped: they have no logarithm).
    pub fn push(&mut self, ratio: f64) {
        if ratio > 0.0 && ratio.is_finite() {
            self.log_sum += ratio.ln();
            self.n += 1;
        }
    }

    /// The geometric mean; `0.0` before any sample.
    pub fn value(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            (self.log_sum / self.n as f64).exp()
        }
    }

    /// Ratios seen.
    pub fn count(&self) -> u64 {
        self.n
    }
}

/// Run `f` and return its value with the elapsed wall time in seconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = Instant::now();
    let value = std::hint::black_box(f());
    (value, start.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn geometric_mean_of_ratios() {
        let mut g = GeoMean::default();
        g.push(2.0);
        g.push(8.0);
        g.push(0.0);
        assert!((g.value() - 4.0).abs() < 1e-12);
        assert_eq!(g.count(), 2);
    }
}
