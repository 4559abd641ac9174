//! Exact order statistics over the run's own samples (no sketches: a run
//! holds at most a few hundred thousand latencies).

/// Sort samples ascending; NaN cannot occur (all samples are durations).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Nearest-rank `q`-quantile of ascending `sorted` (`0 < q <= 1`); 0 for
/// no samples.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank.min(sorted.len()) - 1]
}

/// Median of unsorted samples.
pub fn median(v: &[f64]) -> f64 {
    quantile(&sorted(v.to_vec()), 0.5)
}

/// Mean, or 0 for no samples.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// A tail percentile and how well the sample supports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The percentile actually reported (≤ the one asked for).
    pub q: f64,
    pub value: f64,
    /// Samples strictly above the reported rank.
    pub beyond: usize,
}

/// The `want`-quantile of ascending `sorted` if at least `min_beyond`
/// samples lie beyond it; otherwise the highest quantile that does leave
/// that many. `None` when the sample cannot support any (≤ `min_beyond`
/// samples).
pub fn tail(sorted: &[f64], want: f64, min_beyond: usize) -> Option<Tail> {
    let n = sorted.len();
    if n <= min_beyond {
        return None;
    }
    let rank = ((want * n as f64).ceil().max(1.0) as usize).min(n - min_beyond);
    Some(Tail {
        q: rank as f64 / n as f64,
        value: sorted[rank - 1],
        beyond: n - rank,
    })
}

/// Distance between first and third quartile as a share of the median —
/// the spread the driver holds each end-to-end metric to. Quartiles as
/// Python's `statistics.quantiles(v, n=4)` (exclusive method) gives them.
pub fn iqr_share(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    let n = s.len();
    if n < 2 {
        return 0.0;
    }
    let at = |p: f64| {
        // Position p·(n+1) on a 1-based scale, interpolated, clamped.
        let pos = (p * (n as f64 + 1.0)).clamp(1.0, n as f64);
        let lo = pos.floor() as usize;
        let frac = pos - lo as f64;
        if lo >= n {
            s[n - 1]
        } else {
            s[lo - 1] + frac * (s[lo] - s[lo - 1])
        }
    };
    let med = at(0.5);
    if med == 0.0 {
        0.0
    } else {
        (at(0.75) - at(0.25)) / med.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&s, 0.5), 50.0);
        assert_eq!(quantile(&s, 0.99), 99.0);
        assert_eq!(quantile(&s, 1.0), 100.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn tail_obeys_ten_samples_beyond() {
        // 1000 samples: p99 is rank 990, exactly ten beyond.
        let s: Vec<f64> = (1..=1000).map(f64::from).collect();
        let t = tail(&s, 0.99, 10).unwrap();
        assert_eq!((t.value, t.beyond), (990.0, 10));
        assert!((t.q - 0.99).abs() < 1e-12);
        // 500 samples cannot support p99: the report falls back to the
        // highest percentile with ten beyond it (rank 490 = p98).
        let s: Vec<f64> = (1..=500).map(f64::from).collect();
        let t = tail(&s, 0.99, 10).unwrap();
        assert_eq!((t.value, t.beyond), (490.0, 10));
        assert!((t.q - 0.98).abs() < 1e-12);
        // Ten samples or fewer support no tail at all.
        assert!(tail(&s[..10], 0.99, 10).is_none());
        // More than enough samples never report below what was asked.
        let s: Vec<f64> = (1..=100_000).map(f64::from).collect();
        let t = tail(&s, 0.99, 10).unwrap();
        assert_eq!((t.value, t.beyond), (99_000.0, 1_000));
    }

    #[test]
    fn iqr_share_matches_python_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
    }
}
