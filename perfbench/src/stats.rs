//! Sample summaries: median, sample count, and the highest percentile
//! that still has at least ten samples beyond it.

/// Percentiles a tail may be reported at, lowest first.
const LADDER: [f64; 6] = [50.0, 75.0, 90.0, 95.0, 99.0, 99.9];

/// Samples a percentile needs strictly beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// One timing's summary, as every report line prints it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub n: usize,
    pub median: f64,
    /// `(percentile, value)` of the highest ladder percentile with at
    /// least [`MIN_BEYOND`] samples beyond it; `None` below 20 samples.
    pub tail: Option<(f64, f64)>,
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    // The epsilon keeps `99.9 × 10 000 / 100` from rounding up past 9990.
    ((p * n as f64 / 100.0 - 1e-6).ceil() as usize).clamp(1, n)
}

/// The highest percentile of [`LADDER`] that leaves at least ten of `n`
/// samples beyond it.
pub fn tail_percentile(n: usize) -> Option<f64> {
    LADDER
        .iter()
        .copied()
        .rev()
        .find(|&p| n > 0 && n - rank(n, p) >= MIN_BEYOND)
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// Summarize `samples`; `None` when there are none.
pub fn summarize(samples: &[f64]) -> Option<Summary> {
    if samples.is_empty() {
        return None;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let median = if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    };
    let tail = tail_percentile(n).map(|p| (p, percentile(&v, p)));
    Some(Summary { n, median, tail })
}

/// Median of `samples`, 0 when there are none.
pub fn median(samples: &[f64]) -> f64 {
    summarize(samples).map_or(0.0, |s| s.median)
}

/// The `p`-th percentile of `samples`, capped at the highest percentile
/// with ten samples beyond it; 0 when there are none.
pub fn capped_percentile(samples: &[f64], p: f64) -> f64 {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    match tail_percentile(v.len()) {
        Some(hi) => percentile(&v, p.min(hi)),
        None if v.is_empty() => 0.0,
        None => percentile(&v, 50.0),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_needs_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(999), Some(95.0));
        assert_eq!(tail_percentile(1000), Some(99.0));
        assert_eq!(tail_percentile(9_999), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }

    #[test]
    fn reported_tail_has_ten_samples_beyond() {
        for n in [20usize, 57, 100, 1000, 1234] {
            let samples: Vec<f64> = (1..=n).map(|i| i as f64).collect();
            let s = summarize(&samples).unwrap();
            let (_, value) = s.tail.unwrap();
            let beyond = samples.iter().filter(|&&x| x > value).count();
            assert!(beyond >= MIN_BEYOND, "n={n} value={value} beyond={beyond}");
        }
    }

    #[test]
    fn median_and_count() {
        let s = summarize(&[3.0, 1.0, 2.0]).unwrap();
        assert_eq!((s.n, s.median, s.tail), (3, 2.0, None));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn capped_percentile_never_reaches_past_the_rule() {
        let samples: Vec<f64> = (1..=200).map(|i| i as f64).collect();
        // 200 samples support p95 at most: it leaves exactly 10 beyond.
        assert_eq!(capped_percentile(&samples, 99.0), 190.0);
        let samples: Vec<f64> = (1..=1000).map(|i| i as f64).collect();
        assert_eq!(capped_percentile(&samples, 99.0), 990.0);
    }
}
