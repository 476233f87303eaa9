//! Order statistics over timing samples.

/// The `q`-quantile (`0 ≤ q ≤ 1`) of an ascending slice, by linear
/// interpolation between the two closest ranks; 0 for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    match sorted.len() {
        0 => 0.0,
        1 => sorted[0],
        n => {
            let pos = q.clamp(0.0, 1.0) * (n - 1) as f64;
            let lo = pos.floor() as usize;
            let hi = (lo + 1).min(n - 1);
            sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
        }
    }
}

/// Sort a copy of `samples` ascending (timings are never NaN).
pub fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(&sorted(samples), 0.5)
}

/// The totals of a run after one of its timed iterations.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Mark {
    /// Query times recorded so far.
    pub samples: usize,
    /// Timed wall-clock so far, in seconds.
    pub timed_s: f64,
    /// Queries attempted so far.
    pub queries: u64,
}

/// Cut a run into consecutive windows of whole iterations, each holding at
/// least `min_seconds` of timed work, and return `(median query time in ms,
/// queries per second)` of each. Iterations left over at the end join no
/// window; a run shorter than one window is one window.
///
/// Contention from outside the process comes in bursts and only ever adds
/// time, so the window that read best says most about the program.
pub fn windows(query_ms: &[f64], marks: &[Mark], min_seconds: f64) -> Vec<(f64, f64)> {
    let reading = |from: Mark, to: Mark| {
        let rate = (to.queries - from.queries) as f64 / (to.timed_s - from.timed_s);
        (median(&query_ms[from.samples..to.samples]), rate)
    };
    let start = Mark { samples: 0, timed_s: 0.0, queries: 0 };
    let mut out = Vec::new();
    let mut from = start;
    for &mark in marks {
        if mark.timed_s - from.timed_s >= min_seconds {
            out.push(reading(from, mark));
            from = mark;
        }
    }
    match (out.is_empty(), marks.last()) {
        (true, Some(&last)) => vec![reading(start, last)],
        _ => out,
    }
}

/// The percentiles a tail may be reported at, ascending, each with the
/// share of samples beyond it in thousandths.
const TAIL_LADDER: [(f64, usize); 5] =
    [(75.0, 250), (90.0, 100), (95.0, 50), (99.0, 10), (99.9, 1)];

/// The highest percentile of the ladder that still has at least ten of the
/// `n` samples beyond it — the tail a sample of that size supports. `None`
/// below 40 samples, where not even p75 qualifies.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.iter().rev().find(|(_, beyond)| n * beyond >= 10_000).map(|(pct, _)| *pct)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(quantile(&v, 0.5), 2.5);
        assert!((quantile(&v, 0.9) - 3.7).abs() < 1e-12);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn windows_hold_whole_iterations_and_drop_the_remainder() {
        // Five iterations of one query each, an eighth of a second apiece
        // except a slow third.
        let query_ms = [125.0, 125.0, 375.0, 125.0, 125.0];
        let ends = [0.125, 0.25, 0.625, 0.75, 0.875];
        let marks: Vec<Mark> = ends
            .iter()
            .enumerate()
            .map(|(i, &timed_s)| Mark { samples: i + 1, timed_s, queries: i as u64 + 1 })
            .collect();
        // Two, one and two iterations.
        assert_eq!(
            windows(&query_ms, &marks, 0.25),
            vec![(125.0, 8.0), (375.0, 1.0 / 0.375), (125.0, 8.0)]
        );
        // Three iterations; the last two (0.25 s) are left over.
        assert_eq!(windows(&query_ms, &marks, 0.3), vec![(125.0, 3.0 / 0.625)]);
    }

    #[test]
    fn a_run_shorter_than_one_window_is_one_window() {
        let marks = [Mark { samples: 2, timed_s: 0.1, queries: 2 }];
        assert_eq!(windows(&[4.0, 6.0], &marks, 1.0), vec![(5.0, 20.0)]);
        assert!(windows(&[], &[], 1.0).is_empty());
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(tail_percentile(39), None);
        assert_eq!(tail_percentile(40), Some(75.0));
        assert_eq!(tail_percentile(99), Some(75.0));
        assert_eq!(tail_percentile(100), Some(90.0));
        assert_eq!(tail_percentile(199), Some(90.0));
        assert_eq!(tail_percentile(200), Some(95.0));
        assert_eq!(tail_percentile(1_000), Some(99.0));
        assert_eq!(tail_percentile(10_000), Some(99.9));
    }
}
