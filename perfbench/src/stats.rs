//! The benchmark's own arithmetic: the seeded op order, minima,
//! medians, percentiles with a sample floor, and geometric-mean ratios
//! over Default/Cuttlefish pairs.

use bench::fuzz::Lcg;

/// The order a workload's `n` ops run in at `seed`: a seeded
/// Fisher–Yates permutation of `0..n`, the identity at the default
/// seed. The seed picks the order and never the ops themselves, so
/// every seed costs the same work and a run-to-run bound measures the
/// code, not the draw.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if seed == crate::DEFAULT_SEED {
        return order;
    }
    let mut rng = Lcg(seed);
    for i in (1..n).rev() {
        let j = rng.range(0, i as u64) as usize;
        order.swap(i, j);
    }
    order
}

/// Median of `values` (mean of the two middle values for even counts);
/// 0 for an empty slice.
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

/// Smallest of `values`; infinite for an empty slice.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The `pct`-th percentile of `samples` by nearest rank, or `None`
/// unless at least ten samples lie beyond it — a p99 needs 1,000
/// samples, a median 20. Integer percent keeps the floor exact.
pub fn percentile(samples: &[f64], pct: u32) -> Option<f64> {
    assert!((1..100).contains(&pct), "percentile {pct} out of range");
    let n = samples.len();
    let beyond = n * (100 - pct as usize) / 100;
    if beyond < 10 {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (n * pct as usize).div_ceil(100).max(1);
    Some(v[rank - 1])
}

/// Geometric mean of `tuned / base` over `(base, tuned)` pairs, in
/// the order given; 0 when there are no pairs.
pub fn geomean_ratio(pairs: &[(f64, f64)]) -> f64 {
    if pairs.is_empty() {
        return 0.0;
    }
    let log_sum: f64 = pairs.iter().map(|(base, tuned)| (tuned / base).ln()).sum();
    (log_sum / pairs.len() as f64).exp()
}

/// `num / den`, or 0 when nothing was counted.
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

    #[test]
    fn default_seed_keeps_the_order_and_others_permute() {
        assert_eq!(permutation(5, crate::DEFAULT_SEED), vec![0, 1, 2, 3, 4]);
        let p = permutation(200, 7);
        assert_ne!(p, (0..200).collect::<Vec<_>>());
        let mut sorted = p.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..200).collect::<Vec<_>>());
        assert_eq!(p, permutation(200, 7));
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn min_of_samples() {
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
        assert_eq!(min(&[]), f64::INFINITY);
    }

    #[test]
    fn no_p99_below_a_thousand_samples() {
        let samples: Vec<f64> = (1..=999).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99), None);
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&samples, 99), Some(990.0));
    }

    #[test]
    fn median_needs_twenty_samples() {
        let samples: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), None);
        let samples: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&samples, 50), Some(10.0));
    }

    #[test]
    fn geomean_of_reciprocal_ratios_is_one() {
        let g = geomean_ratio(&[(1.0, 2.0), (2.0, 1.0)]);
        assert!((g - 1.0).abs() < 1e-15, "got {g}");
        assert_eq!(geomean_ratio(&[]), 0.0);
    }
}
