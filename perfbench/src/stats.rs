//! Order statistics of the benchmark's own samples.
//!
//! Percentiles are nearest-rank and expressed in per mille, so ranks are
//! exact integer arithmetic (`0.95 * 200` is not exactly 190 in floating
//! point). Quartiles follow Python's `statistics.quantiles(values, n=4)`
//! (its default "exclusive" method), which is how run-to-run spread is
//! judged.

/// Percentiles (per mille) a tail may be reported at, highest last.
pub const TAIL_PER_MILLE: [u32; 5] = [500, 900, 950, 990, 999];

/// 1-based nearest rank of the `per_mille` percentile among `n` samples:
/// `⌈n · per_mille / 1000⌉`, at least 1.
pub fn rank(n: usize, per_mille: u32) -> usize {
    (n * per_mille as usize).div_ceil(1000).max(1)
}

/// Samples ranked strictly above the `per_mille` percentile.
pub fn samples_above(n: usize, per_mille: u32) -> usize {
    n.saturating_sub(rank(n, per_mille))
}

/// Nearest-rank percentile of `values` (any order).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(values: &[f64], per_mille: u32) -> f64 {
    assert!(!values.is_empty(), "percentile of no samples");
    let sorted = sorted(values);
    sorted[rank(sorted.len(), per_mille).min(sorted.len()) - 1]
}

/// The highest percentile of [`TAIL_PER_MILLE`] with at least `min_above`
/// of `n` samples ranked above it, or `None` when even the median has
/// fewer.
pub fn highest_tail(n: usize, min_above: usize) -> Option<u32> {
    TAIL_PER_MILLE
        .iter()
        .rev()
        .copied()
        .find(|&p| samples_above(n, p) >= min_above)
}

/// Median (mean of the middle two for an even count).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let s = sorted(values);
    let mid = s.len() / 2;
    if s.len() % 2 == 1 {
        s[mid]
    } else {
        (s[mid - 1] + s[mid]) / 2.0
    }
}

/// Mean of `values` without the lowest and the highest tenth (rounded
/// down) of them.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn trimmed_mean(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "mean of no samples");
    let s = sorted(values);
    let cut = s.len() / 10;
    let kept = &s[cut..s.len() - cut];
    kept.iter().sum::<f64>() / kept.len() as f64
}

/// First, second and third quartile, as Python's
/// `statistics.quantiles(values, n=4)` computes them.
///
/// # Panics
///
/// Panics with fewer than two samples (Python raises there too).
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need at least two samples");
    let d = sorted(values);
    let ld = d.len() as i64;
    let m = ld + 1;
    let mut q = [0.0; 3];
    for (i, out) in (1..4i64).zip(q.iter_mut()) {
        let j = (i * m / 4).clamp(1, ld - 1);
        // Negative for tiny samples: Python extrapolates there, and so do we.
        let delta = (i * m - j * 4) as f64;
        let j = j as usize;
        *out = (d[j - 1] * (4.0 - delta) + d[j] * delta) / 4.0;
    }
    q
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_is_exact() {
        assert_eq!(rank(200, 950), 190);
        assert_eq!(rank(100, 500), 50);
        assert_eq!(rank(101, 500), 51);
        assert_eq!(rank(1, 999), 1);
        assert_eq!(rank(3, 0), 1);
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 950), 190.0);
        assert_eq!(percentile(&v, 500), 100.0);
        assert_eq!(percentile(&[7.0, 3.0], 950), 7.0);
        assert_eq!(samples_above(200, 950), 10);
        assert_eq!(samples_above(199, 950), 9);
        assert_eq!(samples_above(210, 950), 10);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(highest_tail(10, 10), None);
        assert_eq!(highest_tail(20, 10), Some(500));
        assert_eq!(highest_tail(99, 10), Some(500));
        assert_eq!(highest_tail(100, 10), Some(900));
        assert_eq!(highest_tail(200, 10), Some(950));
        assert_eq!(highest_tail(1000, 10), Some(990));
        assert_eq!(highest_tail(10_000, 10), Some(999));
        for n in 1..3000 {
            if let Some(p) = highest_tail(n, 10) {
                assert!(samples_above(n, p) >= 10, "n = {n}, p = {p}");
            }
        }
    }

    #[test]
    fn quartiles_match_python() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([4, 1, 3, 2], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[4.0, 1.0, 3.0, 2.0]), [1.25, 2.5, 3.75]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), [0.75, 1.5, 2.25]);
        // statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), [1.0, 2.0, 3.0]);
    }

    #[test]
    fn trimmed_mean_drops_a_tenth_at_each_end() {
        assert_eq!(trimmed_mean(&[5.0]), 5.0);
        // Fewer than ten samples: nothing is dropped.
        assert_eq!(trimmed_mean(&[1.0, 2.0, 9.0]), 4.0);
        // Ten samples: the lowest and the highest go.
        let mut v: Vec<f64> = (1..=10).map(f64::from).collect();
        v[9] = 1000.0;
        v.swap(0, 5);
        assert_eq!(trimmed_mean(&v), 5.5);
        // Twenty-five samples: two go at each end.
        let v: Vec<f64> = (0..25).map(|i| if i < 22 { 2.0 } else { 100.0 }).collect();
        assert_eq!(trimmed_mean(&v), (20.0 * 2.0 + 100.0) / 21.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0]), 5.0);
    }
}
