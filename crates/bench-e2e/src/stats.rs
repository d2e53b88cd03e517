//! Sample statistics: percentiles that refuse to extrapolate, and the
//! median/quartile summary used across repeated runs.

/// A percentile is reported only when at least this many samples lie
/// beyond it; below that the tail is a handful of outliers, not a
/// measurement.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank position (1-based) of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// True when `n` samples put at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - rank(n, q) >= MIN_BEYOND
}

/// The samples of one timer or gauge, in the unit they were pushed in.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    /// Records one sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Sum of the samples.
    pub fn sum(&self) -> f64 {
        self.values.iter().sum()
    }

    /// The nearest-rank `q`-quantile, or `None` when fewer than
    /// [`MIN_BEYOND`] samples lie beyond it.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        let n = self.values.len();
        if !supported(n, q) {
            return None;
        }
        let mut v = self.values.clone();
        v.sort_by(f64::total_cmp);
        Some(v[rank(n, q) - 1])
    }
}

/// Median of `xs` (mean of the middle pair for even lengths).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => f64::NAN,
        _ if n % 2 == 1 => v[n / 2],
        _ => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First and third quartile by the exclusive method of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads printed here match the
/// ones Python computes from the same values. With one value both
/// quartiles are that value.
pub fn quartiles(xs: &[f64]) -> (f64, f64) {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(f64::NAN);
        return (x, x);
    }
    // Python's integer arithmetic, including its extrapolation past the
    // extremes for very small samples.
    let q = |i: usize| {
        let m = i * (n + 1);
        let j = (m / 4).clamp(1, n - 1);
        let delta = m as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (q(1), q(3))
}

/// Interquartile range as a share of the median (0 for one value).
pub fn iqr_share(xs: &[f64]) -> f64 {
    let (q1, q3) = quartiles(xs);
    let m = median(xs);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_needs_ten_samples_beyond() {
        let mut s = Samples::default();
        for i in 0..19 {
            s.push(i as f64);
        }
        assert_eq!(
            s.percentile(0.5),
            None,
            "19 samples leave 9 beyond the median"
        );
        s.push(19.0);
        assert_eq!(s.percentile(0.5), Some(9.0));
        assert_eq!(s.percentile(0.9), None);
        let mut big = Samples::default();
        for i in (0..1000).rev() {
            big.push(i as f64);
        }
        assert_eq!(
            big.percentile(0.99),
            Some(989.0),
            "exactly ten lie beyond p99 of 1000"
        );
        big.push(1000.0);
        assert_eq!(big.percentile(0.999), None);
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn percentile_keeps_a_tail_burst() {
        // 2 000 samples of 1.0 with a burst of 30 slow ones: the burst
        // owns the p99, wherever in the run it falls.
        let mut s = Samples::default();
        for i in 0..2000 {
            s.push(if (100..130).contains(&i) { 50.0 } else { 1.0 });
        }
        assert_eq!(s.percentile(0.99), Some(50.0));
        assert_eq!(s.percentile(0.5), Some(1.0));
        assert_eq!(s.sum(), 1970.0 + 30.0 * 50.0);
    }

    #[test]
    fn support_thresholds() {
        assert!(!supported(99, 0.9));
        assert!(supported(100, 0.9));
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert!(!supported(0, 0.5));
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        assert_eq!(median(&xs), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), (0.75, 2.25));
        assert_eq!(quartiles(&[4.0]), (4.0, 4.0));
        assert!((iqr_share(&xs) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(iqr_share(&[7.0]), 0.0);
    }
}
