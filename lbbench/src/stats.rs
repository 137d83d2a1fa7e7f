//! Order statistics of repeated measurements.

use experiments::json::Json;

/// n, median, quartiles and range of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub n: usize,
    /// Median.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Smallest value.
    pub min: f64,
    /// Largest value.
    pub max: f64,
}

impl Summary {
    /// Summarizes `values`; `None` when empty. Quartiles follow Python's
    /// `statistics.quantiles(values, n=4)` (the default `exclusive`
    /// method), so spreads read the same here as in any script that
    /// post-processes the benchmark's output.
    pub fn of(values: &[f64]) -> Option<Summary> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        let (&min, &max) = (v.first()?, v.last()?);
        let median = if n % 2 == 1 { v[n / 2] } else { (v[n / 2 - 1] + v[n / 2]) / 2.0 };
        let (q1, q3) = if n < 2 { (median, median) } else { (quartile(&v, 1), quartile(&v, 3)) };
        Some(Summary { n, median, q1, q3, min, max })
    }

    /// The interquartile range as a share of the median.
    pub fn iqr_share(&self) -> f64 {
        if self.median == 0.0 {
            0.0
        } else {
            (self.q3 - self.q1) / self.median.abs()
        }
    }

    /// The summary as a JSON object.
    pub fn to_json(&self) -> Json {
        Json::obj()
            .field("n", self.n)
            .field("median", self.median)
            .field("q1", self.q1)
            .field("q3", self.q3)
            .field("min", self.min)
            .field("max", self.max)
    }
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    Summary::of(values).map_or(f64::NAN, |s| s.median)
}

/// Quartile `i` (1 or 3) of sorted `v` (`v.len() >= 2`) by the exclusive
/// method: linear interpolation at rank `i * (n + 1) / 4` through the
/// nearest pair of order statistics (extrapolating past the ends, as
/// Python does).
fn quartile(v: &[f64], i: usize) -> f64 {
    let n = v.len();
    let m = n + 1;
    let j = (i * m / 4).clamp(1, n - 1);
    let delta = (i * m) as f64 - (j * 4) as f64;
    (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let values: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = Summary::of(&values).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Summary::of(&[3.0, 1.0, 2.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.min, s.max), (1.0, 2.0, 3.0, 1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Summary::of(&[2.0, 1.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn single_and_empty_samples() {
        let s = Summary::of(&[4.0]).expect("non-empty");
        assert_eq!((s.q1, s.median, s.q3, s.iqr_share()), (4.0, 4.0, 4.0, 0.0));
        assert!(Summary::of(&[]).is_none());
        assert!(median(&[]).is_nan());
    }
}
