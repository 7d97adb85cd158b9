//! Order statistics for the benchmark's timings.
//!
//! A timing is reported as its median plus a tail. The tail is the highest
//! rung of [`LADDER`] that still has at least [`MIN_BEYOND`] samples beyond
//! it, so a tail is never read off a handful of outliers; the sample count
//! is reported beside it.

/// Percentiles the tail rule climbs, lowest first.
pub const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples that must lie beyond a percentile before it may be reported.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (in `0..=100`) of an ascending, non-empty
/// slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // Round the product first so 99.9% of 10000 is rank 9990, not 9991
    // through floating-point noise.
    let exact = (p / 100.0 * n as f64 * 1e6).round() / 1e6;
    (exact.ceil() as usize).clamp(1, n)
}

/// Samples strictly above the nearest-rank percentile `p` of `n` samples.
pub fn beyond(n: usize, p: f64) -> usize {
    if n == 0 {
        return 0;
    }
    n - rank(n, p)
}

/// The highest rung of [`LADDER`] with at least [`MIN_BEYOND`] of `n`
/// samples beyond it; `None` when not even the median qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| beyond(n, p) >= MIN_BEYOND)
}

/// Percentile `p` if the tail rule allows it for this sample, otherwise
/// the highest percentile it does allow (the median of tiny samples).
/// Returns the value and the percentile actually used.
pub fn capped_percentile(sorted: &[f64], p: f64) -> (f64, f64) {
    let allowed = tail_percentile(sorted.len()).unwrap_or(50.0).min(p);
    (percentile(sorted, allowed), allowed)
}

/// Median of a non-empty sample (mean of the two middle values for an
/// even count).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

/// The faster quartile of a non-empty sample of times (nearest-rank 25th
/// percentile). Interference from other work on a shared machine only
/// ever slows a measurement down, so the faster measurements of a run
/// show the program's own speed; the figure holds as long as a quarter
/// of them ran clear of interference.
pub fn fast_time(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 25.0)
}

/// The faster quartile of a non-empty sample of rates (nearest-rank 75th
/// percentile); see [`fast_time`].
pub fn fast_rate(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    percentile(&sorted, 75.0)
}

/// Mean of the middle half of a non-empty sample (the interquartile
/// mean). Where the sample falls in two modes, it moves smoothly with the
/// share of each, while the median jumps from one mode to the other once
/// that share passes one half.
pub fn interquartile_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "interquartile mean of an empty sample");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let cut = sorted.len() / 4;
    mean(&sorted[cut..sorted.len() - cut])
}

/// Mean of a sample; 0 for an empty one.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(n: usize) -> Vec<f64> {
        (1..=n).map(|v| v as f64).collect()
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None, "9 samples beyond the median");
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(99), Some(50.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(90.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
        assert_eq!(tail_percentile(100_000), Some(99.99));
    }

    #[test]
    fn beyond_counts_samples_above_the_nearest_rank() {
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9, "rank ceil(989.01) = 990");
        assert_eq!(beyond(10_000, 99.9), 10);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v = ascending(1000);
        assert_eq!(percentile(&v, 50.0), 500.0);
        assert_eq!(percentile(&v, 99.0), 990.0);
        assert_eq!(percentile(&v, 100.0), 1000.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn capped_percentile_falls_back_when_the_tail_is_too_thin() {
        assert_eq!(capped_percentile(&ascending(1000), 99.0), (990.0, 99.0));
        assert_eq!(capped_percentile(&ascending(500), 99.0), (450.0, 90.0));
        assert_eq!(capped_percentile(&ascending(5), 99.0), (3.0, 50.0));
    }

    #[test]
    fn fast_quartiles_ignore_slow_stretches() {
        // Four slow measurements in twelve do not move the figures.
        let times = [1.0, 1.1, 9.0, 1.2, 9.0, 0.9, 9.0, 1.0, 9.0, 1.1, 1.0, 1.2];
        assert_eq!(fast_time(&times), 1.0);
        let rates: Vec<f64> = times.iter().map(|t| 1.0 / t).collect();
        assert_eq!(fast_rate(&rates), 1.0);
    }

    #[test]
    fn interquartile_mean_drops_the_outer_quarters() {
        assert_eq!(interquartile_mean(&[100.0, 2.0, 3.0, 0.0]), 2.5);
        assert_eq!(interquartile_mean(&[5.0]), 5.0);
        // Two modes at 3 and 4: 60 % in the fast mode moves the figure by
        // a fraction of the gap, not the whole gap.
        let mixed = [3.0, 3.0, 3.0, 3.0, 3.0, 3.0, 4.0, 4.0, 4.0, 4.0];
        assert_eq!(median(&mixed), 3.0);
        assert!((interquartile_mean(&mixed) - 20.0 / 6.0).abs() < 1e-12);
    }

    #[test]
    fn median_and_ratio() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(ratio(1.0, 0.0), 0.0);
        assert_eq!(mean(&[]), 0.0);
    }
}
