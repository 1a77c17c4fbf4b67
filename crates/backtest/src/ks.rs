//! The two-sample Kolmogorov–Smirnov test (§5.3).
//!
//! "We then computed the traffic distribution at end hosts for each of
//! these networks. We used the Two-Sample Kolmogorov-Smirnov test with
//! significance level 0.05 to compare the distributions before and after
//! each repair. A repair candidate was rejected if it significantly
//! distorted the original traffic distribution."
//!
//! The distributions are per-host packet counts; the ECDFs are weighted by
//! those counts over the (sorted) host axis, and the critical value is the
//! large-sample approximation `c(α)·√((n+m)/(n·m))` with `c(0.05)=1.358`.

use std::collections::BTreeMap;

/// Result of a two-sample KS test.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KsResult {
    /// The D statistic: max ECDF distance.
    pub d: f64,
    /// Critical value at the chosen significance level.
    pub critical: f64,
    /// Sample sizes.
    pub n: u64,
    /// Sample sizes.
    pub m: u64,
}

impl KsResult {
    /// `true` when the two distributions are statistically indistinguishable
    /// (the repair does *not* significantly distort traffic).
    pub fn accepted(&self) -> bool {
        self.d < self.critical
    }
}

/// `c(α)` for the large-sample critical value. Supported levels: 0.10,
/// 0.05 (the paper's), 0.025, 0.01, 0.005, 0.001.
pub fn ks_coefficient(alpha: f64) -> f64 {
    const TABLE: [(f64, f64); 6] = [
        (0.10, 1.22),
        (0.05, 1.358),
        (0.025, 1.48),
        (0.01, 1.628),
        (0.005, 1.731),
        (0.001, 1.949),
    ];
    for (a, c) in TABLE {
        if (alpha - a).abs() < 1e-12 {
            return c;
        }
    }
    // Exact formula for other levels: c(α) = sqrt(-ln(α/2)/2).
    (-(alpha / 2.0).ln() / 2.0).sqrt()
}

/// Two-sample KS over per-host packet-count distributions.
///
/// Empty-vs-empty compares equal (D = 0); empty-vs-nonempty is maximally
/// distant (D = 1) — a repair that silences the whole network must never
/// pass the filter.
pub fn ks_two_sample(
    before: &BTreeMap<i64, u64>,
    after: &BTreeMap<i64, u64>,
    alpha: f64,
) -> KsResult {
    let n: u64 = before.values().sum();
    let m: u64 = after.values().sum();
    if n == 0 && m == 0 {
        return KsResult { d: 0.0, critical: 1.0, n, m };
    }
    if n == 0 || m == 0 {
        return KsResult { d: 1.0, critical: 0.0, n, m };
    }
    // Walk the union of hosts in order, tracking both ECDFs.
    let hosts: std::collections::BTreeSet<i64> =
        before.keys().chain(after.keys()).copied().collect();
    let mut cum_b = 0.0;
    let mut cum_a = 0.0;
    let mut d: f64 = 0.0;
    for h in hosts {
        cum_b += before.get(&h).copied().unwrap_or(0) as f64 / n as f64;
        cum_a += after.get(&h).copied().unwrap_or(0) as f64 / m as f64;
        d = d.max((cum_b - cum_a).abs());
    }
    let critical = ks_coefficient(alpha) * (((n + m) as f64) / ((n * m) as f64)).sqrt();
    KsResult { d, critical, n, m }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(pairs: &[(i64, u64)]) -> BTreeMap<i64, u64> {
        pairs.iter().copied().collect()
    }

    #[test]
    fn identical_distributions_have_zero_d() {
        let a = dist(&[(1, 100), (2, 200), (3, 300)]);
        let r = ks_two_sample(&a, &a, 0.05);
        assert_eq!(r.d, 0.0);
        assert!(r.accepted());
    }

    #[test]
    fn disjoint_distributions_have_d_one() {
        let a = dist(&[(1, 100)]);
        let b = dist(&[(2, 100)]);
        let r = ks_two_sample(&a, &b, 0.05);
        assert!((r.d - 1.0).abs() < 1e-12);
        assert!(!r.accepted());
    }

    #[test]
    fn small_shift_passes_large_shift_fails() {
        // 10k packets across 10 hosts; moving 0.1% passes, moving 30% fails.
        let mut base = BTreeMap::new();
        for h in 0..10 {
            base.insert(h, 1000u64);
        }
        let mut slight = base.clone();
        *slight.get_mut(&0).unwrap() -= 10;
        *slight.get_mut(&9).unwrap() += 10;
        let r = ks_two_sample(&base, &slight, 0.05);
        assert!(r.accepted(), "d={} crit={}", r.d, r.critical);

        let mut heavy = base.clone();
        *heavy.get_mut(&0).unwrap() -= 3000.min(1000);
        *heavy.get_mut(&9).unwrap() += 1000;
        let r = ks_two_sample(&base, &heavy, 0.05);
        assert!(!r.accepted(), "d={} crit={}", r.d, r.critical);
    }

    #[test]
    fn symmetry() {
        let a = dist(&[(1, 500), (2, 300)]);
        let b = dist(&[(1, 450), (2, 350), (3, 10)]);
        let r1 = ks_two_sample(&a, &b, 0.05);
        let r2 = ks_two_sample(&b, &a, 0.05);
        assert!((r1.d - r2.d).abs() < 1e-12);
    }

    #[test]
    fn empty_cases() {
        let e = BTreeMap::new();
        let a = dist(&[(1, 5)]);
        assert!(ks_two_sample(&e, &e, 0.05).accepted());
        assert!(!ks_two_sample(&e, &a, 0.05).accepted());
        assert!(!ks_two_sample(&a, &e, 0.05).accepted());
    }

    #[test]
    fn coefficient_table_and_formula() {
        assert!((ks_coefficient(0.05) - 1.358).abs() < 1e-9);
        assert!((ks_coefficient(0.10) - 1.22).abs() < 1e-9);
        // Formula fallback is close to the table at 0.05.
        let f = (-(0.05f64 / 2.0).ln() / 2.0).sqrt();
        assert!((f - 1.358).abs() < 0.01);
        assert!((ks_coefficient(0.07) - (-(0.07f64 / 2.0).ln() / 2.0).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn critical_value_shrinks_with_sample_size() {
        let small_a = dist(&[(1, 10), (2, 10)]);
        let big_a = dist(&[(1, 100_000), (2, 100_000)]);
        let r_small = ks_two_sample(&small_a, &small_a, 0.05);
        let r_big = ks_two_sample(&big_a, &big_a, 0.05);
        assert!(r_big.critical < r_small.critical);
        // Paper-scale samples → paper-scale critical values (~1e-2 .. 1e-3).
        assert!(r_big.critical < 0.01);
    }
}
