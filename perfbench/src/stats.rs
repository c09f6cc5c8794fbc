//! Order statistics for the result record.

/// Nearest-rank percentile `q` (in `0..=1`) of ascending `sorted`, or
/// `None` unless at least [`MIN_BEYOND`] samples lie beyond it, so a tail
/// percentile is only reported when the sample supports it.
pub fn percentile(sorted: &[f64], q: f64) -> Option<f64> {
    let n = sorted.len();
    if n == 0 || !(0.0..=1.0).contains(&q) {
        return None;
    }
    // 1-based nearest rank, at least 1.
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
    if n - rank < MIN_BEYOND {
        return None;
    }
    Some(sorted[rank - 1])
}

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Smallest sample count for which `percentile(_, q)` reports a value.
pub fn min_samples(q: f64) -> usize {
    (1..)
        .find(|&n| {
            let rank = ((q * n as f64).ceil() as usize).clamp(1, n);
            n - rank >= MIN_BEYOND
        })
        .expect("some sample count supports every q < 1")
}

/// Median and quartiles of a set of values, as Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method) and
/// `statistics.median` compute them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Spread {
    pub n: usize,
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
}

impl Spread {
    /// `None` for an empty set. With fewer than two values the quartiles
    /// equal the single value.
    pub fn of(values: &[f64]) -> Option<Self> {
        let mut v: Vec<f64> = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 0 {
            return None;
        }
        let median = if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        };
        if n < 2 {
            return Some(Self {
                n,
                q1: median,
                median,
                q3: median,
            });
        }
        let quantile = |i: usize| {
            // statistics.quantiles, method="exclusive", n=4.
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
        };
        Some(Self {
            n,
            q1: quantile(1),
            median,
            q3: quantile(3),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp(n: usize) -> Vec<f64> {
        (1..=n).map(|i| i as f64).collect()
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(999), 0.99), None);
        assert_eq!(percentile(&ramp(1000), 0.99), Some(990.0));
        assert_eq!(min_samples(0.99), 1000);
    }

    #[test]
    fn median_needs_ten_samples_beyond_it() {
        assert_eq!(percentile(&ramp(19), 0.5), None);
        assert_eq!(percentile(&ramp(20), 0.5), Some(10.0));
        assert_eq!(min_samples(0.5), 20);
    }

    #[test]
    fn percentile_rejects_empty_and_out_of_range() {
        assert_eq!(percentile(&[], 0.5), None);
        assert_eq!(percentile(&ramp(100), 1.5), None);
        // The maximum never has samples beyond it.
        assert_eq!(percentile(&ramp(100), 1.0), None);
    }

    #[test]
    fn spread_matches_python_exclusive_quartiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let s = Spread::of(&ramp(10)).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let s = Spread::of(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let s = Spread::of(&[1.0, 2.0]).unwrap();
        assert_eq!((s.q1, s.median, s.q3), (0.75, 1.5, 2.25));
    }

    #[test]
    fn spread_of_one_value_is_that_value() {
        let s = Spread::of(&[4.0]).unwrap();
        assert_eq!((s.n, s.q1, s.median, s.q3), (1, 4.0, 4.0, 4.0));
        assert!(Spread::of(&[]).is_none());
    }
}
