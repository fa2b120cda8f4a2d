//! Order statistics for latency samples and run-to-run spreads.
//!
//! Two different rules live here on purpose:
//!
//! - within a run, a percentile is the nearest-rank value, and a timing is
//!   reported as its median plus the highest percentile that still has at
//!   least [`MIN_BEYOND`] samples beyond it ([`tail`]);
//! - across runs, quartiles follow Python's `statistics.quantiles(values,
//!   n=4)` (the "exclusive" method), so the spreads `--repeat` prints are
//!   the ones a reader recomputing them with Python gets.

/// Samples a reported percentile must leave beyond it.
pub const MIN_BEYOND: usize = 10;

/// Tail percentiles tried, highest first. p99 is deliberately absent: over
/// ten daemon runs its inter-quartile spread was half its median.
const TAIL_CANDIDATES: [f64; 5] = [95.0, 90.0, 80.0, 75.0, 50.0];

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Samples strictly beyond percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// Nearest-rank percentile `p` of `sorted` (ascending, non-empty).
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// The highest tail percentile `n` samples support, if any.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_CANDIDATES
        .iter()
        .copied()
        .find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// A sorted copy of `values`.
pub fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median (nearest rank) of `values`; NaN when empty.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    percentile(&sorted(values), 50.0)
}

/// Arithmetic mean; NaN when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.iter().sum::<f64>() / values.len() as f64
}

/// `(percentile, value)` of a latency sample's tail, or `None` when the
/// sample is too small to support any tail.
pub fn tail(values: &[f64]) -> Option<(f64, f64)> {
    let p = tail_percentile(values.len())?;
    Some((p, percentile(&sorted(values), p)))
}

/// Run-to-run spread of one metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    /// Median of the values.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Spread {
    /// Quartiles as Python's `statistics.quantiles(values, n=4)` computes
    /// them; with a single value every field is that value. `None` when
    /// `values` is empty.
    pub fn of(values: &[f64]) -> Option<Self> {
        let s = sorted(values);
        let n = s.len();
        if n == 0 {
            return None;
        }
        let (q1, q2, q3) = if n == 1 {
            (s[0], s[0], s[0])
        } else {
            let cut = |i: usize| {
                let m = n + 1;
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
            };
            (cut(1), cut(2), cut(3))
        };
        Some(Self {
            median: q2,
            q1,
            q3,
            min: s[0],
            max: s[n - 1],
        })
    }

    /// Inter-quartile distance as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 95.0), 95.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[7.0], 95.0), 7.0);
        assert_eq!(beyond(100, 95.0), 5);
        assert_eq!(beyond(200, 95.0), 10);
        assert_eq!(beyond(0, 95.0), 0);
    }

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        // 200 samples support p95 exactly; 199 fall back to p90.
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(99), Some(80.0));
        assert_eq!(tail_percentile(50), Some(80.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(19), None);
        for n in 20..2000 {
            let p = tail_percentile(n).unwrap();
            assert!(beyond(n, p) >= MIN_BEYOND, "n={n} p={p}");
        }
    }

    #[test]
    fn tail_reports_the_supported_percentile() {
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(tail(&v), Some((95.0, 190.0)));
        assert_eq!(tail(&v[..5]), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Spread::of(&v).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
        assert_eq!((s.min, s.max), (1.0, 2.0));
        assert!(Spread::of(&[]).is_none());
        assert!((Spread::of(&v).unwrap().iqr_share() - 1.0).abs() < 1e-12);
    }
}
