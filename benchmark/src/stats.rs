//! Order statistics used by the runner, `compare` and the layer probes.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank rule on a
/// sorted copy: the smallest sample with at least `q·n` samples at or
/// below it. Returns 0 for an empty slice so an idle layer prints as 0.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// Median with the two middle samples averaged on an even count — the
/// "median of blocks" every per-block metric is reduced by.
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

/// First and third quartile by the exclusive method — what Python's
/// `statistics.quantiles(values, n=4)` returns, which is how the driver
/// reads a spread. Needs two values; fewer give a zero-width pair.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n < 2 {
        let x = v.first().copied().unwrap_or(0.0);
        return (x, x);
    }
    let at = |k: usize| {
        // Rank k·(n+1)/4, 1-based; past either end the line through the
        // two outermost samples is extended, as Python does.
        let pos = k * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let frac = pos as f64 / 4.0 - j as f64;
        v[j - 1] + frac * (v[j] - v[j - 1])
    };
    (at(1), at(3))
}

/// Interquartile range as a share of the median: the spread of repeated
/// measurements, as the driver computes it.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let m = median(values);
    if m == 0.0 {
        0.0
    } else {
        (q3 - q1) / m
    }
}

/// Samples strictly beyond the nearest-rank `q`-quantile of `n` samples.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    n - ((q * n as f64).ceil() as usize).clamp(n.min(1), n)
}

/// The highest percentile of the ladder that still has at least
/// `min_beyond` samples beyond it (the choosing-metrics rule: "the highest
/// percentile that has at least ten samples beyond it"). `None` when even
/// the median does not.
pub fn highest_percentile(n: usize, min_beyond: usize) -> Option<f64> {
    const LADDER: [f64; 6] = [0.999, 0.99, 0.95, 0.90, 0.75, 0.50];
    LADDER
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= min_beyond)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_selection_honours_ten_samples_beyond() {
        // 100 samples: p90 leaves exactly 10 beyond, p95 only 5.
        assert_eq!(samples_beyond(100, 0.90), 10);
        assert_eq!(highest_percentile(100, 10), Some(0.90));
        // One short of 100: p90 leaves 9, so the ladder steps down to p75.
        assert_eq!(samples_beyond(99, 0.90), 9);
        assert_eq!(highest_percentile(99, 10), Some(0.75));
        assert_eq!(highest_percentile(1000, 10), Some(0.99));
        assert_eq!(highest_percentile(10_000, 10), Some(0.999));
        assert_eq!(highest_percentile(20, 10), Some(0.50));
        assert_eq!(highest_percentile(19, 10), None);
    }

    #[test]
    fn quantile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.05), 5.0);
        assert_eq!(quantile(&v, 0.50), 50.0);
        assert_eq!(quantile(&v, 0.90), 90.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.05), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
        assert_eq!(spread(&[50.0, 10.0, 40.0, 20.0, 30.0]), 1.0);
    }

    #[test]
    fn median_of_blocks() {
        // One slow block out of five does not move the reported value.
        assert_eq!(median(&[6.1, 6.0, 9.9, 6.2, 6.05]), 6.1);
        assert_eq!(median(&[1.0, 3.0]), 2.0);
        assert_eq!(median(&[4.0]), 4.0);
        assert_eq!(median(&[]), 0.0);
    }
}
