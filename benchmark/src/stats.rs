//! The benchmark's own arithmetic: medians, quartiles, percentile
//! selection and kernel pairing.

/// Ascending copy of `xs`.
pub fn sorted(xs: &[f64]) -> Vec<f64> {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median; the mean of the two middle values for an even count.
pub fn median(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty(), "median of an empty sample");
    let v = sorted(xs);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// `(q1, median, q3)` by the exclusive method, the default of Python's
/// `statistics.quantiles(xs, n=4)`, so spreads computed here and by a
/// driver that uses that function agree. Needs at least two samples.
pub fn quartiles(xs: &[f64]) -> (f64, f64, f64) {
    assert!(xs.len() >= 2, "quartiles need two samples");
    let v = sorted(xs);
    let ld = v.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn iqr_frac(xs: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(xs);
    (q3 - q1) / q2
}

/// The highest percentile of the ladder 50 / 90 / 95 / 99 / 99.9 that
/// still has at least ten of `n` samples beyond it.
pub fn tail_percentile(n: usize) -> f64 {
    [99.9, 99.0, 95.0, 90.0]
        .into_iter()
        .find(|p| n as f64 * (100.0 - p) / 100.0 >= 10.0)
        .unwrap_or(50.0)
}

/// Nearest-rank percentile of an ascending sample.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// One reference-normalised sample: the timed call over the mean of the
/// reference-kernel times taken immediately before and after it.
pub fn paired_ratio(kernel_before: f64, call: f64, kernel_after: f64) -> f64 {
    call / ((kernel_before + kernel_after) / 2.0)
}

/// A/A check inside one run: the medians of the even- and odd-numbered
/// samples, as `|odd / even - 1|`. Zero when fewer than two samples.
pub fn parity_delta(xs: &[f64]) -> f64 {
    let pick = |parity: usize| -> Vec<f64> {
        let it = xs.iter().enumerate().filter(|(i, _)| i % 2 == parity);
        it.map(|(_, &x)| x).collect()
    };
    let (even, odd) = (pick(0), pick(1));
    if odd.is_empty() {
        return 0.0;
    }
    (median(&odd) / median(&even) - 1.0).abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 5.5, 8.25));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 8.0, 2.0, 4.0]), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert_eq!(iqr_frac(&xs), 1.0);
    }

    #[test]
    fn tail_percentile_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(19), 50.0);
        assert_eq!(tail_percentile(99), 50.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(199), 90.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(9_999), 99.0);
        assert_eq!(tail_percentile(10_001), 99.9);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
    }

    #[test]
    fn pairing_divides_by_the_mean_of_both_kernels() {
        assert_eq!(paired_ratio(0.02, 0.1, 0.02), 5.0);
        // A host that slows down between the kernels is interpolated.
        assert_eq!(paired_ratio(0.02, 0.09, 0.04), 3.0);
    }

    #[test]
    fn parity_delta_compares_interleaved_halves() {
        assert_eq!(
            parity_delta(&[1.0, 1.1, 1.0, 1.1, 1.0, 1.1]),
            0.10000000000000009
        );
        assert_eq!(parity_delta(&[2.0, 2.0, 2.0]), 0.0);
        assert_eq!(parity_delta(&[2.0]), 0.0);
    }
}
