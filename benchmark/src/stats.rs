//! Percentile and quartile helpers. Everything the benchmark reports goes
//! through these few functions, so they are tested against hand-computed
//! cases below.

/// The `p`-th percentile (0..=100) of unsorted `samples` by the
/// nearest-rank method: the smallest value with at least `p` % of the
/// samples at or below it. Empty input reads 0.
pub fn percentile(samples: &mut [u32], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.sort_unstable();
    let rank = ((p / 100.0) * samples.len() as f64).ceil() as usize;
    samples[rank.clamp(1, samples.len()) - 1] as f64
}

/// [`percentile`] of samples that do not all count alike: the smallest
/// value with at least `p` % of the summed weight at or below it. Empty
/// input reads 0.
pub fn weighted_percentile(samples: &mut [(u32, f64)], p: f64) -> f64 {
    samples.sort_unstable_by_key(|s| s.0);
    let rank = p / 100.0 * samples.iter().map(|s| s.1).sum::<f64>();
    let mut below = 0.0;
    for &(value, weight) in samples.iter() {
        below += weight;
        // a sum of floats may fall a hair short of the rank it equals
        if below >= rank * (1.0 - 1e-12) {
            return value as f64;
        }
    }
    samples.last().map_or(0.0, |s| s.0 as f64)
}

/// The `i`-th of the `n - 1` cut points that divide sorted `v` (two or
/// more values) into `n` groups of equal probability, by the "exclusive"
/// method Python's `statistics.quantiles(v, n=n)` uses, except that a cut
/// point is kept inside `[min, max]`: a "best" reading outside the data is
/// no use.
fn cut_point(v: &[f64], i: usize, n: usize) -> f64 {
    // position i * (len + 1) / n on a 1-based axis
    let j = (i * (v.len() + 1) / n).clamp(1, v.len() - 1);
    let delta = ((i * (v.len() + 1)) as f64 / n as f64 - j as f64).clamp(0.0, 1.0);
    v[j - 1] + (v[j] - v[j - 1]) * delta
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("metric values are finite"));
    v
}

/// The three quartile cut points of `values`, as the driver's acceptance
/// check computes them (`statistics.quantiles(values, n=4)`), so a spread
/// printed here is the spread the driver computes. Fewer than two values
/// read as that value three times.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    let v = sorted(values);
    match v.len() {
        0 => (0.0, 0.0, 0.0),
        1 => (v[0], v[0], v[0]),
        _ => (cut_point(&v, 1, 4), cut_point(&v, 2, 4), cut_point(&v, 3, 4)),
    }
}

/// Which direction of a metric is good.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// The mean of the best `share` of the readings — never fewer than
/// three, or all of them when there are fewer: the lowest when lower is
/// better, the highest when higher is. A mean of a tail, not one order
/// statistic, so that it rests on every reading in it.
pub fn best_tail(readings: &[f64], better: Better, share: f64) -> f64 {
    let mut v = sorted(readings);
    if better == Better::Higher {
        v.reverse();
    }
    let n = ((share * v.len() as f64).ceil() as usize).max(3).min(v.len()).max(1);
    v.iter().take(n).sum::<f64>() / n as f64
}

/// Median of `values`.
pub fn median(values: &[f64]) -> f64 {
    quartiles(values).1
}

/// Inter-quartile range over the median — the "spread" the acceptance
/// criteria are written in. Zero when the median is zero.
pub fn iqr_ratio(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        (q3 - q1) / q2.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let mut s: Vec<u32> = (1..=100).rev().collect();
        assert_eq!(percentile(&mut s, 50.0), 50.0);
        assert_eq!(percentile(&mut s, 95.0), 95.0);
        assert_eq!(percentile(&mut s, 99.9), 100.0);
        assert_eq!(percentile(&mut s, 0.0), 1.0);
        let mut five = vec![40, 10, 30, 20, 50];
        // ceil(0.5 * 5) = 3rd smallest
        assert_eq!(percentile(&mut five, 50.0), 30.0);
        // ceil(0.95 * 5) = 5th smallest
        assert_eq!(percentile(&mut five, 95.0), 50.0);
        assert_eq!(percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn weighted_percentile_counts_each_sample_by_its_weight() {
        let mut even: Vec<(u32, f64)> = (1..=100).rev().map(|v| (v, 0.25)).collect();
        assert_eq!(weighted_percentile(&mut even, 50.0), 50.0, "equal weights: the plain percentile");
        assert_eq!(weighted_percentile(&mut even, 95.0), 95.0);
        // 10 counts three times as much as 20 and 30 together: it holds the median, 30 the p95
        let mut skewed = vec![(30, 0.5), (10, 3.0), (20, 0.5)];
        assert_eq!(weighted_percentile(&mut skewed, 50.0), 10.0);
        assert_eq!(weighted_percentile(&mut skewed, 80.0), 20.0);
        assert_eq!(weighted_percentile(&mut skewed, 95.0), 30.0);
        assert_eq!(weighted_percentile(&mut [], 50.0), 0.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]), (15.0, 30.0, 45.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25] in Python,
        // but a cut point outside the data is no use as a "best round":
        // the clamp keeps it inside [min, max]
        let (q1, q2, q3) = quartiles(&[1.0, 2.0]);
        assert_eq!(q2, 1.5);
        assert!((1.0..=2.0).contains(&q1) && (1.0..=2.0).contains(&q3));
        assert_eq!(quartiles(&[7.0]), (7.0, 7.0, 7.0));
    }

    #[test]
    fn best_tail_is_the_mean_of_the_good_end() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        // the best five of a hundred
        assert_eq!(best_tail(&v, Better::Lower, 0.05), (1.0 + 2.0 + 3.0 + 4.0 + 5.0) / 5.0);
        assert_eq!(best_tail(&v, Better::Higher, 0.05), (96.0 + 97.0 + 98.0 + 99.0 + 100.0) / 5.0);
        // never fewer than three: ceil(0.01 * 100) = 1
        assert_eq!(best_tail(&v, Better::Lower, 0.01), 2.0);
        assert_eq!(best_tail(&[9.0, 7.0], Better::Higher, 0.05), 8.0);
        assert_eq!(best_tail(&[], Better::Lower, 0.05), 0.0);
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(median(&v), 5.5);
        assert!((iqr_ratio(&v) - 1.0).abs() < 1e-12, "(8.25 - 2.75) / 5.5");
        assert_eq!(iqr_ratio(&[0.0, 0.0, 0.0]), 0.0);
    }
}
