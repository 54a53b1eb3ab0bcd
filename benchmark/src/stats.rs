//! Order statistics over repeats.

use crate::suite::{Better, Stat};

/// A metric's repeats: median, quartiles, best and worst repeat, and the
/// raw values.
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    pub best: f64,
    pub worst: f64,
    pub runs: Vec<f64>,
}

impl Summary {
    /// Summarizes `runs` (at least one value). `best` is the highest value
    /// of a higher-is-better metric and the lowest of a lower-is-better
    /// one; `worst` is the other end.
    pub fn of(runs: &[f64], better: Better) -> Summary {
        assert!(!runs.is_empty(), "a summary needs at least one run");
        let mut sorted = runs.to_vec();
        sorted.sort_by(f64::total_cmp);
        let [q1, median, q3] = quartiles(&sorted);
        let (low, high) = (sorted[0], sorted[sorted.len() - 1]);
        let (best, worst) = match better {
            Better::Higher => (high, low),
            Better::Lower => (low, high),
        };
        Summary {
            median,
            q1,
            q3,
            best,
            worst,
            runs: runs.to_vec(),
        }
    }

    /// The statistic reported as the metric's value.
    pub fn value(&self, stat: Stat) -> f64 {
        match stat {
            Stat::Median => self.median,
            Stat::Best => self.best,
        }
    }
}

/// Median of unsorted values (0 for none).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    quartiles(&sorted)[1]
}

/// First quartile, median and third quartile of sorted, non-empty values,
/// by the exclusive method (Python's `statistics.quantiles(n=4)` default).
fn quartiles(sorted: &[f64]) -> [f64; 3] {
    let n = sorted.len();
    if n == 1 {
        return [sorted[0]; 3];
    }
    let m = n + 1;
    [1, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_the_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5], n=4) == [1.5, 3.0, 4.5]
        let s = Summary::of(&[5.0, 1.0, 4.0, 2.0, 3.0], Better::Higher);
        assert_eq!((s.q1, s.median, s.q3), (1.5, 3.0, 4.5));
        assert_eq!((s.best, s.worst), (5.0, 1.0));
        assert_eq!((s.value(Stat::Median), s.value(Stat::Best)), (3.0, 5.0));
        let s = Summary::of(&[5.0, 1.0], Better::Lower);
        assert_eq!((s.best, s.worst), (1.0, 5.0));
        // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(median(&[4.0, 3.0, 2.0, 1.0]), 2.5);
        let s = Summary::of(&[1.0, 2.0, 3.0, 4.0], Better::Higher);
        assert_eq!((s.q1, s.q3), (1.25, 3.75));
    }

    #[test]
    fn one_run_has_no_spread() {
        let s = Summary::of(&[7.0], Better::Lower);
        assert_eq!((s.q1, s.median, s.q3, s.worst), (7.0, 7.0, 7.0, 7.0));
    }
}
