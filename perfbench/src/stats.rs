//! Order statistics used by every workload: nearest-rank percentiles,
//! the "at least ten samples beyond" rule, and medians.

/// Samples that must lie strictly beyond a reported percentile for it
/// to mean anything: with fewer, one outlier decides the figure.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0–100) of `sorted` (ascending).
/// `None` when there are no samples.
pub fn percentile(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), p) - 1])
}

/// 1-based nearest rank of percentile `p` among `n > 0` samples.
fn rank(n: usize, p: f64) -> usize {
    // `p * n` before dividing keeps whole ranks exact (99 × 1000 / 100).
    ((p * n as f64 / 100.0).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond nearest-rank percentile `p`.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, p)
    }
}

/// Whether percentile `p` of `n` samples has at least [`MIN_BEYOND`]
/// samples beyond it.
pub fn reportable(n: usize, p: f64) -> bool {
    n > 0 && beyond(n, p) >= MIN_BEYOND
}

/// The highest of `candidates` (descending order of preference) that
/// [`reportable`] allows for `n` samples, falling back to the median.
pub fn highest_reportable(n: usize, candidates: &[f64]) -> f64 {
    candidates
        .iter()
        .copied()
        .find(|&p| reportable(n, p))
        .unwrap_or(50.0)
}

/// Median of an unsorted slice (mean of the middle pair for even
/// lengths); `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    })
}

/// Median of `(value, weight)` samples, each standing for `weight` equal
/// values: the smallest value at which the cumulative weight reaches
/// half the total. `None` when the total weight is 0.
pub fn weighted_median(samples: &[(f64, u64)]) -> Option<f64> {
    let total: u64 = samples.iter().map(|s| s.1).sum();
    let mut v = samples.to_vec();
    v.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut seen = 0;
    v.into_iter().find_map(|(x, w)| {
        seen += w;
        (w > 0 && 2 * seen >= total).then_some(x)
    })
}

/// Latency samples of one op type, in microseconds.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    us: Vec<f64>,
    sorted: bool,
}

impl Latencies {
    /// Add one sample.
    pub fn push(&mut self, us: f64) {
        self.us.push(us);
        self.sorted = false;
    }

    /// Append every sample of `other`.
    pub fn extend(&mut self, other: &Latencies) {
        self.us.extend_from_slice(&other.us);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.us.len()
    }

    /// Sum of all samples.
    pub fn sum(&self) -> f64 {
        self.us.iter().sum()
    }

    /// Arithmetic mean; 0 when empty.
    pub fn mean(&self) -> f64 {
        if self.us.is_empty() {
            0.0
        } else {
            self.sum() / self.us.len() as f64
        }
    }

    /// Nearest-rank percentile; 0 when empty.
    pub fn pct(&mut self, p: f64) -> f64 {
        if !self.sorted {
            self.us.sort_by(f64::total_cmp);
            self.sorted = true;
        }
        percentile(&self.us, p).unwrap_or(0.0)
    }

    /// Percentile 99 when at least [`MIN_BEYOND`] samples lie beyond it,
    /// else the highest percentile that has them. Returns
    /// `(percentile used, value)`.
    pub fn tail(&mut self) -> (f64, f64) {
        let p = highest_reportable(self.len(), &[99.0, 95.0, 90.0]);
        (p, self.pct(p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), Some(50.0));
        assert_eq!(percentile(&v, 99.0), Some(99.0));
        assert_eq!(percentile(&v, 100.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[], 50.0), None);
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 1000 samples: rank 990, so exactly 10 lie beyond p99.
        assert_eq!(beyond(1000, 99.0), 10);
        assert!(reportable(1000, 99.0));
        // 999 samples: rank ceil(989.01) = 990, 9 beyond — not enough.
        assert_eq!(beyond(999, 99.0), 9);
        assert!(!reportable(999, 99.0));
        assert!(!reportable(0, 50.0));
        // Falls back to the highest percentile that qualifies.
        assert_eq!(highest_reportable(1000, &[99.0, 95.0, 90.0]), 99.0);
        assert_eq!(highest_reportable(200, &[99.0, 95.0, 90.0]), 95.0);
        assert_eq!(highest_reportable(100, &[99.0, 95.0, 90.0]), 90.0);
        assert_eq!(highest_reportable(50, &[99.0, 95.0, 90.0]), 50.0);
    }

    #[test]
    fn tail_reports_the_percentile_it_used() {
        let mut l = Latencies::default();
        for i in 1..=1000 {
            l.push(f64::from(i));
        }
        assert_eq!(l.tail(), (99.0, 990.0));
        let mut short = Latencies::default();
        for i in 1..=200 {
            short.push(f64::from(i));
        }
        assert_eq!(short.tail(), (95.0, 190.0));
    }

    #[test]
    fn medians() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn weighted_median_counts_each_weight() {
        // Seven values: 1, 2 and five 10s.
        assert_eq!(
            weighted_median(&[(10.0, 5), (1.0, 1), (2.0, 1)]),
            Some(10.0)
        );
        assert_eq!(weighted_median(&[(5.0, 3), (1.0, 1)]), Some(5.0));
        assert_eq!(weighted_median(&[(1.0, 2), (5.0, 2)]), Some(1.0));
        assert_eq!(weighted_median(&[(1.0, 0)]), None);
        assert_eq!(weighted_median(&[]), None);
    }
}
