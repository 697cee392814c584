//! Order statistics shared by the workloads and by `compare`.

/// The `p`-th percentile (`0.0..=1.0`) of `values` by the nearest-rank
/// rule: the smallest sample with at least `p` of the samples at or below
/// it. Always one of the samples. `None` when `values` is empty.
pub fn percentile(values: &[f64], p: f64) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (p.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted.get(rank.max(1) - 1).copied()
}

/// The tail latency the samples support: the highest percentile, up to
/// the 99th, with at least ten samples beyond it; the [`median`] when
/// no percentile above it has ten. `None` when `values` is empty.
pub fn tail(values: &[f64]) -> Option<f64> {
    let p = (1.0 - 10.0 / values.len().max(1) as f64).min(0.99);
    if p <= 0.5 {
        median(values)
    } else {
        percentile(values, p)
    }
}

/// The median: the mean of the two middle samples for an even count.
pub fn median(values: &[f64]) -> Option<f64> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2]),
        _ => Some((sorted[n / 2 - 1] + sorted[n / 2]) / 2.0),
    }
}

/// First and third quartiles, computed exactly as Python's
/// `statistics.quantiles(values, n=4)` does with its default exclusive
/// method, so spreads printed here match an independent check of the
/// same samples. `None` for fewer than two samples.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    if n < 2 {
        return None;
    }
    let m = n + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), Some(50.0));
        assert_eq!(percentile(&v, 0.99), Some(99.0));
        assert_eq!(percentile(&v, 1.0), Some(100.0));
        assert_eq!(percentile(&v, 0.0), Some(1.0));
        assert_eq!(percentile(&[3.0, 1.0, 2.0], 0.5), Some(2.0));
        assert_eq!(percentile(&[], 0.5), None);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        let v = |n: usize| (1..=n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&v(5000)), Some(4950.0), "p99 once n >= 1000");
        assert_eq!(tail(&v(48)), Some(38.0), "p79: samples 39..=48 beyond");
        assert_eq!(
            tail(&v(8)),
            Some(4.5),
            "no percentile has ten beyond: the median"
        );
        assert_eq!(tail(&[]), None);
    }

    #[test]
    fn median_averages_the_middle_pair() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), Some(3.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    /// Reference values from CPython:
    /// `statistics.quantiles([1..10], n=4)` is `[2.75, 5.5, 8.25]` and
    /// `statistics.quantiles([1, 2, 4, 8, 16, 32, 64], n=4)` is
    /// `[2.0, 8.0, 32.0]`; two samples give `[0.75, 2.25]` for `[1, 2]`.
    #[test]
    fn quartiles_match_python_exclusive_method() {
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&ten), Some((2.75, 8.25)));
        let seven = [64.0, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0];
        assert_eq!(quartiles(&seven), Some((2.0, 32.0)));
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
