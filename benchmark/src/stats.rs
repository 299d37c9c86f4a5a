//! The estimators every workload shares.

/// Median of a sample (mean of the middle two for an even count).
/// Panics on an empty sample: every caller has at least one repetition.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Nearest-rank percentile, refused (`None`) unless at least ten samples
/// lie beyond it: a p90 needs 100 samples, a p50 needs 20. A tail read off
/// fewer samples is one or two outliers, not a percentile.
pub fn percentile(values: &[f64], q: f64) -> Option<f64> {
    let n = values.len();
    let rank = ((q * n as f64).ceil() as usize).clamp(1, n.max(1));
    if n < rank + 10 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    Some(v[rank - 1])
}

/// [`percentile`], falling back to the largest sample when the rule
/// refuses (only `--smoke`, whose runs are too short for a tail, gets
/// there). The flag says which one was returned.
pub fn percentile_or_max(values: &[f64], q: f64) -> (f64, bool) {
    match percentile(values, q) {
        Some(p) => (p, true),
        None => (values.iter().copied().fold(f64::MIN, f64::max), false),
    }
}

/// The window-median estimator. Every repetition cuts the timed phase into
/// the same sim-time windows, and window `w` holds identical work in every
/// repetition, so the phase's cost is the sum over windows of the median
/// across repetitions of that window's wall time. A stall that hits one
/// repetition moves one window of one repetition and is voted out there,
/// instead of inflating that repetition's whole total.
pub fn window_median_sum(reps: &[Vec<u64>]) -> f64 {
    assert!(!reps.is_empty(), "no repetitions");
    let windows = reps[0].len();
    assert!(
        reps.iter().all(|r| r.len() == windows),
        "repetitions disagree on the window count"
    );
    (0..windows)
        .map(|w| {
            let column: Vec<f64> = reps.iter().map(|r| r[w] as f64).collect();
            median(&column)
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn p90_refused_below_100_samples() {
        let v: Vec<f64> = (1..=99).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), None);
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.90), Some(90.0));
        // ...and a median needs twenty.
        let v: Vec<f64> = (1..=19).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), None);
        let v: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), Some(10.0));
        assert_eq!(percentile(&[], 0.90), None);
    }

    #[test]
    fn refused_percentile_falls_back_to_max() {
        assert_eq!(percentile_or_max(&[1.0, 9.0, 4.0], 0.90), (9.0, false));
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile_or_max(&v, 0.90), (180.0, true));
    }

    #[test]
    fn window_median_votes_out_a_stalled_window() {
        // Three repetitions of a 4-window phase; repetition 1 stalls in
        // window 2 and repetition 2 in window 0. Per-repetition totals are
        // 100 / 1090 / 600, but no window's median sees either stall.
        let reps = vec![
            vec![10, 20, 30, 40],
            vec![10, 20, 1020, 40],
            vec![510, 20, 30, 40],
        ];
        assert_eq!(window_median_sum(&reps), 100.0);
        // One repetition: the estimator is that repetition's total.
        assert_eq!(window_median_sum(&reps[1..2]), 1090.0);
    }

    #[test]
    #[should_panic(expected = "window count")]
    fn window_median_rejects_ragged_repetitions() {
        window_median_sum(&[vec![1, 2], vec![1]]);
    }
}
