//! The percentile rule every reported timing uses.

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least `p`·N samples at or below it, so exactly
/// `N − ⌈p·N⌉` samples lie beyond it. `p` is in `(0, 1]`.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    assert!(p > 0.0 && p <= 1.0, "percentile {p} outside (0, 1]");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Sorts `v` ascending and returns its nearest-rank median.
pub fn median(v: &mut [f64]) -> f64 {
    v.sort_by(f64::total_cmp);
    percentile(v, 0.5)
}

/// Samples that lie strictly beyond the nearest-rank `p` percentile.
pub fn beyond(n: usize, p: f64) -> usize {
    n - (p * n as f64).ceil() as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_on_one_to_hundred() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.001), 1.0);
    }

    #[test]
    fn ten_thousand_samples_leave_a_hundred_beyond_p99() {
        let v: Vec<f64> = (0..10_000).map(f64::from).collect();
        let p99 = percentile(&v, 0.99);
        assert_eq!(v.iter().filter(|&&x| x > p99).count(), 100);
        assert_eq!(beyond(v.len(), 0.99), 100);
    }

    #[test]
    fn small_and_unsorted_inputs() {
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 3.0, 2.0]), 2.0);
    }
}
