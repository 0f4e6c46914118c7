//! Order statistics and the regression-bound comparison.
//!
//! Quartiles follow Python's `statistics.quantiles(values, n=4)` (the
//! default "exclusive" method) so `run.sh --aa` computes exactly the
//! spread the acceptance procedure computes.

use crate::json::Value;

/// Median, quartiles and extremes of a sample.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Smallest value.
    pub min: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// The summary as a JSON object.
    pub fn to_json(&self) -> Value {
        Value::obj([
            ("n", Value::Num(self.n as f64)),
            ("min", Value::Num(self.min)),
            ("q1", Value::Num(self.q1)),
            ("median", Value::Num(self.median)),
            ("q3", Value::Num(self.q3)),
            ("max", Value::Num(self.max)),
        ])
    }
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median: the middle value, or the mean of the two middle values.
///
/// # Panics
/// On an empty sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let v = sorted(values);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The three quartile cut points, `statistics.quantiles(values, n=4)`.
/// A single value has no spread: all three cut points equal it.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(!values.is_empty(), "quartiles of an empty sample");
    let v = sorted(values);
    if v.len() == 1 {
        return [v[0]; 3];
    }
    let m = v.len() + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, v.len() - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Full summary of a sample.
pub fn summary(values: &[f64]) -> Summary {
    let v = sorted(values);
    let [q1, _, q3] = quartiles(values);
    Summary {
        n: v.len(),
        min: v[0],
        q1,
        median: median(values),
        q3,
        max: v[v.len() - 1],
    }
}

/// Inter-quartile distance as a share of the median — the run-to-run
/// spread the acceptance procedure compares with a metric's bound.
pub fn spread(values: &[f64]) -> f64 {
    let s = summary(values);
    (s.q3 - s.q1) / s.median
}

/// The `p`-th percentile (0–100) by nearest rank on the sorted sample.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    assert!(!values.is_empty(), "percentile of an empty sample");
    let v = sorted(values);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The smallest value.
pub fn min(values: &[f64]) -> f64 {
    values.iter().copied().fold(f64::INFINITY, f64::min)
}

/// The steady estimate of a timed region cut into fixed slices: for each
/// slice the best time any rep achieved, summed over the slices.
///
/// The reference host's timing noise is one-sided (a burst only ever
/// adds time) and lasts from a fraction of a second to many seconds, so
/// a whole rep is rarely undisturbed but every slice is undisturbed in
/// some rep. With one rep this is just that rep's total.
///
/// # Panics
/// If the reps disagree on the number of slices, or there are none.
pub fn best_slice_sum(reps: &[&[f64]]) -> f64 {
    let n = reps.first().expect("at least one rep").len();
    assert!(
        reps.iter().all(|r| r.len() == n),
        "every rep must cut the timed region into the same slices"
    );
    (0..n)
        .map(|j| reps.iter().map(|r| r[j]).fold(f64::INFINITY, f64::min))
        .sum()
}

/// By what share of `first` the `second` median is *worse*. Negative
/// when it is better. `lower_is_better` picks the direction.
pub fn worse_by(first: f64, second: f64, lower_is_better: bool) -> f64 {
    if lower_is_better {
        (second - first) / first
    } else {
        (first - second) / first
    }
}

/// Does `second` regress against `first` by more than `bound`? A tie,
/// and a difference of exactly the bound, are not regressions.
pub fn exceeds_bound(first: f64, second: f64, lower_is_better: bool, bound: f64) -> bool {
    worse_by(first, second, lower_is_better) > bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert_eq!(quartiles(&[16.0, 1.0, 4.0, 2.0, 8.0]), [1.5, 4.0, 12.0]);
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), [0.75, 1.5, 2.25]);
        assert_eq!(quartiles(&[5.0]), [5.0, 5.0, 5.0]);
    }

    #[test]
    fn summary_and_spread() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summary(&v);
        assert_eq!((s.n, s.min, s.max, s.median), (10, 1.0, 10.0, 5.5));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[2.0, 2.0, 2.0]), 0.0);
    }

    #[test]
    fn best_slice_sum_takes_each_slice_from_its_best_rep() {
        let a = [1.0, 5.0, 2.0];
        let b = [3.0, 1.0, 2.5];
        assert_eq!(best_slice_sum(&[&a, &b]), 1.0 + 1.0 + 2.0);
        assert_eq!(best_slice_sum(&[&a]), 8.0);
        assert_eq!(min(&[3.0, 1.5, 2.0]), 1.5);
    }

    #[test]
    #[should_panic(expected = "same slices")]
    fn best_slice_sum_rejects_ragged_reps() {
        best_slice_sum(&[&[1.0, 2.0], &[1.0]]);
    }

    #[test]
    fn percentile_by_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 98.0), 98.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[9.0], 98.0), 9.0);
    }

    #[test]
    fn bound_comparison_handles_direction_and_ties() {
        // Lower is better: worse by exactly the bound is not beyond it
        // (values chosen to be exact in binary).
        assert!(!exceeds_bound(4.0, 4.5, true, 0.125));
        assert!(exceeds_bound(4.0, 4.75, true, 0.125));
        // A tie and an improvement never regress.
        assert!(!exceeds_bound(2.0, 2.0, true, 0.10));
        assert!(!exceeds_bound(2.0, 1.0, true, 0.10));
        // Higher is better flips the sign.
        assert!(exceeds_bound(100.0, 80.0, false, 0.10));
        assert!(!exceeds_bound(100.0, 120.0, false, 0.10));
        assert!((worse_by(100.0, 80.0, false) - 0.2).abs() < 1e-12);
    }
}
