//! Exact order statistics over raw samples.
//!
//! Every percentile is the nearest-rank value of the sorted samples: no
//! buckets, no interpolation. A percentile is *supported* only when at
//! least [`MIN_BEYOND`] samples lie strictly beyond its rank.

/// Samples that must lie beyond a percentile's rank for it to be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank index of quantile `q` in `n` sorted samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// The nearest-rank `q`-quantile of `sorted` (ascending), or `None` when
/// there are no samples.
pub fn quantile(sorted: &[f64], q: f64) -> Option<f64> {
    if sorted.is_empty() {
        return None;
    }
    Some(sorted[rank(sorted.len(), q)])
}

/// True when at least [`MIN_BEYOND`] of `n` samples lie beyond the
/// `q`-quantile's rank.
pub fn supported(n: usize, q: f64) -> bool {
    n > 0 && n - 1 - rank(n, q) >= MIN_BEYOND
}

/// Smallest sample count that supports the `q`-quantile.
pub fn min_samples(q: f64) -> usize {
    (1..).find(|&n| supported(n, q)).unwrap_or(usize::MAX)
}

/// Sorts a sample vector ascending (NaN-free input).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted values (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_known_samples() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), Some(50.0));
        assert_eq!(quantile(&s, 0.9), Some(90.0));
        assert_eq!(quantile(&s, 0.99), Some(99.0));
        assert_eq!(quantile(&s, 1.0), Some(100.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&[7.0], 0.99), Some(7.0));
        assert_eq!(quantile(&[], 0.5), None);
        let odd = sorted(vec![5.0, 1.0, 3.0]);
        assert_eq!(quantile(&odd, 0.5), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_support_needs_ten_samples_beyond() {
        assert!(!supported(999, 0.99));
        assert!(supported(1000, 0.99));
        assert_eq!(min_samples(0.99), 1000);
        assert_eq!(min_samples(0.9), 100);
        assert!(supported(11, 0.0));
        assert!(!supported(0, 0.5));
    }
}
