//! Order statistics the benchmark reports: nearest-rank percentiles, the
//! tail rule ("highest percentile with at least ten samples beyond it"),
//! the median over rounds, and the quartiles the acceptance rule uses.

/// Nearest-rank percentile of an ascending slice; `p` in `(0, 100]`.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// p50 of nanosecond samples, in microseconds; 0 when there are none.
pub fn p50_us(samples: &[u64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_unstable();
    percentile(&v, 50.0) as f64 / 1e3
}

/// The tail a sample can support, as `(percentile, value)`: the highest of
/// p90 / p99 / p99.9 / p99.99 that still has ten samples beyond it. Fewer
/// than 100 samples support no tail at all.
pub fn tail(sorted: &[u64]) -> Option<(f64, u64)> {
    // In basis points, so "ten beyond" is exact integer arithmetic.
    [9_999usize, 9_990, 9_900, 9_000]
        .into_iter()
        .find(|bp| sorted.len() - (sorted.len() * bp).div_ceil(10_000) >= 10)
        .map(|bp| (bp as f64 / 100.0, percentile(sorted, bp as f64 / 100.0)))
}

/// Median of a set of per-round values (mean of the middle two when even).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// Geometric mean; used where one workload folds four structures into one
/// number, so that a relative change in any of them moves it equally.
pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|&v| v <= 0.0) {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method) — the acceptance rule for this benchmark is
/// stated in those terms, so `--repeat` and `compare` use the same ones.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    let mut out = [0.0; 3];
    for (slot, i) in out.iter_mut().zip(1..=3usize) {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        *slot = (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
    }
    Some(out)
}

/// Interquartile range as a share of the median — the run-to-run spread.
pub fn spread(values: &[f64]) -> Option<f64> {
    let [q1, q2, q3] = quartiles(values)?;
    (q2 != 0.0).then(|| (q3 - q1) / q2.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 50.0), 50);
        assert_eq!(percentile(&v, 99.0), 99);
        assert_eq!(percentile(&v, 100.0), 100);
        assert_eq!(percentile(&[7], 50.0), 7);
        assert_eq!(percentile(&[1, 2, 3, 4], 50.0), 2);
        assert_eq!(p50_us(&[3000, 1000, 2000]), 2.0);
        assert_eq!(p50_us(&[]), 0.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let of = |n: u64| tail(&(1..=n).collect::<Vec<u64>>()).map(|t| t.0);
        assert_eq!(of(99), None);
        assert_eq!(of(100), Some(90.0));
        assert_eq!(of(999), Some(90.0));
        assert_eq!(of(1_000), Some(99.0));
        assert_eq!(of(10_000), Some(99.9));
        assert_eq!(of(100_000), Some(99.99));
        let v: Vec<u64> = (1..=1_000).collect();
        assert_eq!(tail(&v), Some((99.0, 990)));
    }

    #[test]
    fn median_of_rounds_ignores_one_outlier() {
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[10.0, 10.5, 175.0, 9.5, 10.2]), 10.2);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([3, 1, 4, 1, 5], n=4) == [1.0, 3.0, 4.5]
        assert_eq!(quartiles(&[3.0, 1.0, 4.0, 1.0, 5.0]), Some([1.0, 3.0, 4.5]));
        assert_eq!(quartiles(&[1.0]), None);
        assert_eq!(spread(&v), Some(1.0));
    }

    #[test]
    fn geomean_moves_equally_for_each_member() {
        let base = geomean(&[10.0, 100.0, 1000.0, 10.0]);
        let a = geomean(&[11.0, 100.0, 1000.0, 10.0]);
        let b = geomean(&[10.0, 100.0, 1100.0, 10.0]);
        assert!((a / base - b / base).abs() < 1e-12);
        assert_eq!(geomean(&[1.0, 0.0]), 0.0);
    }
}
