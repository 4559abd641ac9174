//! Streaming statistics collectors.
//!
//! Experiments run for millions of simulated jobs, so every collector here is
//! O(1) memory: Welford for mean/variance, the P² algorithm for quantiles,
//! and time-weighted averages for utilization-style metrics (value ×
//! duration integrals over simulated time). Log-binned histograms live in
//! `faucets_telemetry::Histogram`.

use crate::time::{SimDuration, SimTime};

/// Welford online mean / variance / min / max.
///
/// Non-finite observations (NaN, ±∞) are skipped and counted separately —
/// a single bad latency sample must not poison the mean or abort a
/// million-job experiment.
#[derive(Debug, Clone, Default)]
pub struct Summary {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
    non_finite: u64,
}

impl Summary {
    /// An empty summary.
    pub fn new() -> Self {
        Summary {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
            non_finite: 0,
        }
    }

    /// Record one observation. Non-finite values are skipped and counted
    /// in [`Summary::non_finite`] instead of corrupting the moments.
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of (finite) observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Observations rejected for being NaN or infinite.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }

    /// Arithmetic mean (0 if empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Sample variance (n-1 denominator; 0 for fewer than 2 observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn stddev(&self) -> f64 {
        self.variance().sqrt()
    }

    /// Smallest observation (NaN if empty).
    pub fn min(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.min
        }
    }

    /// Largest observation (NaN if empty).
    pub fn max(&self) -> f64 {
        if self.n == 0 {
            f64::NAN
        } else {
            self.max
        }
    }
}

/// P² (Jain & Chlamtac) single-quantile estimator: O(1) memory, no sample
/// retention. Good to a few percent for the long-tailed metrics we track.
///
/// Marker heights are kept in signed-log space (`sign(x)·ln(1 + |x|)`).
/// P² moves a marker by interpolating between its neighbours' heights; on
/// a heavy tail the maximum sits orders of magnitude above the rest, and
/// interpolating raw values drags the upper markers, and the median after
/// them, far up the tail (`tests/prop_stats.rs` holds the seed). Quantiles
/// commute with a monotone map, so the estimate maps straight back.
///
/// Non-finite observations are skipped and counted ([`P2Quantile::non_finite`]):
/// one NaN inside the marker array would otherwise wreck every subsequent
/// interpolation — and, before this guard, panicked the initial sort.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    p: f64,
    /// Marker heights, compressed (through the fifth observation: the
    /// observations themselves, raw).
    q: [f64; 5],
    /// Marker positions.
    pos: [f64; 5],
    /// Desired marker positions.
    want: [f64; 5],
    n: u64,
    non_finite: u64,
}

impl P2Quantile {
    /// An estimator for the `p`-quantile, `0 < p < 1`.
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p < 1.0, "quantile must be in (0,1), got {p}");
        P2Quantile {
            p,
            q: [0.0; 5],
            pos: [1.0, 2.0, 3.0, 4.0, 5.0],
            want: [0.0; 5],
            n: 0,
            non_finite: 0,
        }
    }

    /// Record one observation. Non-finite values are skipped and counted
    /// in [`P2Quantile::non_finite`].
    pub fn record(&mut self, x: f64) {
        if !x.is_finite() {
            self.non_finite += 1;
            return;
        }
        self.n += 1;
        if self.n <= 5 {
            self.q[(self.n - 1) as usize] = x;
            if self.n == 5 {
                self.q.sort_by(f64::total_cmp);
                self.want = [
                    1.0,
                    1.0 + 2.0 * self.p,
                    1.0 + 4.0 * self.p,
                    3.0 + 2.0 * self.p,
                    5.0,
                ];
            }
            return;
        }
        if self.n == 6 {
            self.q = self.q.map(compress);
        }
        let x = compress(x);

        // Locate the cell x falls into and bump marker positions.
        let k = if x < self.q[0] {
            self.q[0] = x;
            0
        } else if x >= self.q[4] {
            self.q[4] = x;
            3
        } else {
            (0..4).find(|&i| x < self.q[i + 1]).unwrap()
        };
        for i in (k + 1)..5 {
            self.pos[i] += 1.0;
        }
        let incr = [0.0, self.p / 2.0, self.p, (1.0 + self.p) / 2.0, 1.0];
        for (w, d) in self.want.iter_mut().zip(incr) {
            *w += d;
        }

        // Adjust interior markers toward their desired positions.
        for i in 1..4 {
            let d = self.want[i] - self.pos[i];
            let right = self.pos[i + 1] - self.pos[i];
            let left = self.pos[i - 1] - self.pos[i];
            if (d >= 1.0 && right > 1.0) || (d <= -1.0 && left < -1.0) {
                let d = d.signum();
                let qp = self.parabolic(i, d);
                self.q[i] = if self.q[i - 1] < qp && qp < self.q[i + 1] {
                    qp
                } else {
                    self.linear(i, d)
                };
                self.pos[i] += d;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let q = &self.q;
        let n = &self.pos;
        q[i] + d / (n[i + 1] - n[i - 1])
            * ((n[i] - n[i - 1] + d) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
                + (n[i + 1] - n[i] - d) * (q[i] - q[i - 1]) / (n[i] - n[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.q[i] + d * (self.q[j] - self.q[i]) / (self.pos[j] - self.pos[i])
    }

    /// Current quantile estimate (exact for n ≤ 5).
    pub fn estimate(&self) -> f64 {
        if self.n == 0 {
            return f64::NAN;
        }
        if self.n <= 5 {
            let mut v: Vec<f64> = self.q[..self.n as usize].to_vec();
            v.sort_by(f64::total_cmp);
            let idx = ((self.n as f64 - 1.0) * self.p).round() as usize;
            return v[idx];
        }
        expand(self.q[2])
    }

    /// Count of (finite) observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Observations rejected for being NaN or infinite.
    pub fn non_finite(&self) -> u64 {
        self.non_finite
    }
}

/// Strictly increasing, odd, and logarithmic in `|x|`: the space
/// [`P2Quantile`] interpolates in.
fn compress(x: f64) -> f64 {
    x.abs().ln_1p().copysign(x)
}

/// Inverse of [`compress`].
fn expand(y: f64) -> f64 {
    y.abs().exp_m1().copysign(y)
}

/// The standard latency-quantile battery (p50/p90/p99/p999) as one O(1)
/// collector: four [`P2Quantile`] estimators fed from a single `record`
/// call. The open-loop load harness (`crates/load`) tracks every class's
/// submit and completion latency through one of these, so tail claims
/// ("p999 under load") cost four marker arrays, not a sample buffer.
///
/// Non-finite observations are skipped and counted once (the underlying
/// estimators each skip them; [`QuantileSet::non_finite`] reads one).
#[derive(Debug, Clone)]
pub struct QuantileSet {
    p50: P2Quantile,
    p90: P2Quantile,
    p99: P2Quantile,
    p999: P2Quantile,
}

impl Default for QuantileSet {
    fn default() -> Self {
        QuantileSet::new()
    }
}

impl QuantileSet {
    /// An empty p50/p90/p99/p999 battery.
    pub fn new() -> Self {
        QuantileSet {
            p50: P2Quantile::new(0.5),
            p90: P2Quantile::new(0.9),
            p99: P2Quantile::new(0.99),
            p999: P2Quantile::new(0.999),
        }
    }

    /// Record one observation into all four estimators.
    pub fn record(&mut self, x: f64) {
        self.p50.record(x);
        self.p90.record(x);
        self.p99.record(x);
        self.p999.record(x);
    }

    /// Median estimate (NaN when empty).
    pub fn p50(&self) -> f64 {
        self.p50.estimate()
    }

    /// 90th-percentile estimate (NaN when empty).
    pub fn p90(&self) -> f64 {
        self.p90.estimate()
    }

    /// 99th-percentile estimate (NaN when empty).
    pub fn p99(&self) -> f64 {
        self.p99.estimate()
    }

    /// 99.9th-percentile estimate (NaN when empty).
    pub fn p999(&self) -> f64 {
        self.p999.estimate()
    }

    /// Count of (finite) observations.
    pub fn count(&self) -> u64 {
        self.p50.count()
    }

    /// Observations rejected for being NaN or infinite.
    pub fn non_finite(&self) -> u64 {
        self.p50.non_finite()
    }
}

/// Time-weighted average of a step function of simulated time — the right
/// tool for utilization: Σ value·dt / Σ dt.
#[derive(Debug, Clone)]
pub struct TimeWeighted {
    last_time: SimTime,
    last_value: f64,
    weighted_sum: f64,
    elapsed: SimDuration,
}

impl TimeWeighted {
    /// Start tracking at `t0` with initial value `v0`.
    pub fn new(t0: SimTime, v0: f64) -> Self {
        TimeWeighted {
            last_time: t0,
            last_value: v0,
            weighted_sum: 0.0,
            elapsed: SimDuration::ZERO,
        }
    }

    /// Record that the value changed to `v` at time `t` (must be ≥ the last
    /// update time; equal-time updates just replace the value).
    pub fn update(&mut self, t: SimTime, v: f64) {
        assert!(
            t >= self.last_time,
            "time-weighted updates must be monotone"
        );
        let dt = t - self.last_time;
        self.weighted_sum += self.last_value * dt.as_secs_f64();
        self.elapsed += dt;
        self.last_time = t;
        self.last_value = v;
    }

    /// Close the integral at time `t` and return the time-weighted mean.
    pub fn mean_until(&mut self, t: SimTime) -> f64 {
        self.update(t, self.last_value);
        if self.elapsed.is_zero() {
            self.last_value
        } else {
            self.weighted_sum / self.elapsed.as_secs_f64()
        }
    }

    /// The current (instantaneous) value.
    pub fn current(&self) -> f64 {
        self.last_value
    }

    /// The time of the most recent update.
    pub fn last_time(&self) -> SimTime {
        self.last_time
    }
}

/// Independent-replication statistics: run an experiment at several seeds
/// and report mean ± 95 % confidence half-width (Student t). The §5.4
/// methodology for claims that should not hinge on one random stream.
#[derive(Debug, Clone, Default)]
pub struct Replications {
    values: Vec<f64>,
}

impl Replications {
    /// An empty set of replications.
    pub fn new() -> Self {
        Replications::default()
    }

    /// Run `f` at seeds `0..n` and collect one response per replication.
    pub fn run(n: u64, mut f: impl FnMut(u64) -> f64) -> Self {
        let mut r = Replications::new();
        for seed in 0..n {
            r.record(f(seed));
        }
        r
    }

    /// Record one replication's response.
    pub fn record(&mut self, x: f64) {
        self.values.push(x);
    }

    /// Number of replications.
    pub fn count(&self) -> usize {
        self.values.len()
    }

    /// Sample mean.
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            return f64::NAN;
        }
        self.values.iter().sum::<f64>() / self.values.len() as f64
    }

    /// Sample standard deviation (n-1).
    pub fn stddev(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        (self.values.iter().map(|v| (v - m) * (v - m)).sum::<f64>() / (n - 1) as f64).sqrt()
    }

    /// Two-sided 95 % confidence half-width (0 for fewer than 2 reps).
    pub fn ci95_half_width(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        t95(n - 1) * self.stddev() / (n as f64).sqrt()
    }

    /// `"mean ± half"` with the given precision.
    pub fn format(&self, decimals: usize) -> String {
        format!(
            "{:.d$} ± {:.d$}",
            self.mean(),
            self.ci95_half_width(),
            d = decimals
        )
    }
}

/// Two-sided 95 % Student-t critical value for `df` degrees of freedom.
fn t95(df: usize) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if df <= TABLE.len() {
        TABLE[df - 1]
    } else {
        1.960
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_basics() {
        let mut s = Summary::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.record(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn summary_empty() {
        let s = Summary::new();
        assert_eq!(s.mean(), 0.0);
        assert_eq!(s.variance(), 0.0);
        assert!(s.min().is_nan());
    }

    /// Deterministic pseudo-uniform stream in [0, 1) via an integer LCG.
    fn lcg_stream(n: usize) -> impl Iterator<Item = f64> {
        let mut state: u64 = 12345;
        std::iter::repeat_with(move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 11) as f64 / (1u64 << 53) as f64
        })
        .take(n)
    }

    #[test]
    fn p2_median_of_uniform_stream() {
        let mut q = P2Quantile::new(0.5);
        for u in lcg_stream(50_000) {
            q.record(u);
        }
        let est = q.estimate();
        assert!((est - 0.5).abs() < 0.02, "median estimate {est}");
    }

    #[test]
    fn p2_p99_of_exponential_like_stream() {
        let mut q = P2Quantile::new(0.99);
        for u in lcg_stream(200_000) {
            let x = -(1.0 - u.min(0.999_999)).ln(); // Exp(1)
            q.record(x);
        }
        // True p99 of Exp(1) is ln(100) ≈ 4.605.
        let est = q.estimate();
        assert!((est - 4.605).abs() < 0.4, "p99 estimate {est}");
    }

    #[test]
    fn summary_skips_and_counts_non_finite() {
        let mut s = Summary::new();
        s.record(1.0);
        s.record(f64::NAN);
        s.record(3.0);
        s.record(f64::INFINITY);
        s.record(f64::NEG_INFINITY);
        assert_eq!(s.count(), 2, "only finite observations counted");
        assert_eq!(s.non_finite(), 3);
        assert!((s.mean() - 2.0).abs() < 1e-12, "NaN never reached the mean");
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 3.0);
    }

    #[test]
    fn p2_survives_nan_in_first_five_and_beyond() {
        // Regression: a NaN among the first 5 samples panicked the
        // initial marker sort via partial_cmp().unwrap(); a NaN later
        // silently wrecked the marker invariants. Both are now skipped.
        let mut q = P2Quantile::new(0.5);
        for x in [3.0, f64::NAN, 1.0, 2.0] {
            q.record(x);
        }
        assert_eq!(q.estimate(), 2.0, "exact small-n median ignores the NaN");
        for x in [5.0, 4.0, f64::NAN, 6.0, 7.0, 8.0] {
            q.record(x);
        }
        assert_eq!(q.count(), 8);
        assert_eq!(q.non_finite(), 2);
        let est = q.estimate();
        assert!(est.is_finite(), "markers stayed finite, got {est}");
        assert!((1.0..=8.0).contains(&est), "median within range, got {est}");
        // A long NaN-free tail still converges normally afterwards.
        for u in lcg_stream(50_000) {
            q.record(u * 8.0);
        }
        let est = q.estimate();
        assert!((est - 4.0).abs() < 0.3, "median estimate {est}");
    }

    #[test]
    fn p2_small_n_exact() {
        let mut q = P2Quantile::new(0.5);
        q.record(3.0);
        q.record(1.0);
        q.record(2.0);
        assert_eq!(q.estimate(), 2.0);
        // Still the raw observations at the fifth, where the markers form.
        q.record(500.0);
        q.record(180.0);
        assert_eq!(q.estimate(), 3.0);
    }

    #[test]
    fn quantile_set_tracks_uniform_tails() {
        let mut q = QuantileSet::new();
        for u in lcg_stream(100_000) {
            q.record(u);
        }
        assert_eq!(q.count(), 100_000);
        assert!((q.p50() - 0.5).abs() < 0.02, "p50 {}", q.p50());
        assert!((q.p90() - 0.9).abs() < 0.02, "p90 {}", q.p90());
        assert!((q.p99() - 0.99).abs() < 0.01, "p99 {}", q.p99());
        assert!((q.p999() - 0.999).abs() < 0.005, "p999 {}", q.p999());
        q.record(f64::NAN);
        assert_eq!(q.non_finite(), 1);
    }

    #[test]
    fn time_weighted_step_function() {
        let mut tw = TimeWeighted::new(SimTime::ZERO, 0.0);
        tw.update(SimTime::from_secs(10), 1.0); // 0 for 10s
        tw.update(SimTime::from_secs(20), 0.5); // 1 for 10s
        let m = tw.mean_until(SimTime::from_secs(40)); // 0.5 for 20s
                                                       // (0*10 + 1*10 + 0.5*20) / 40 = 0.5
        assert!((m - 0.5).abs() < 1e-12);
        assert_eq!(tw.current(), 0.5);
    }

    #[test]
    fn time_weighted_zero_span() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 3.0);
        assert_eq!(tw.mean_until(SimTime::from_secs(5)), 3.0);
    }

    #[test]
    #[should_panic(expected = "monotone")]
    fn time_weighted_rejects_backwards_time() {
        let mut tw = TimeWeighted::new(SimTime::from_secs(5), 0.0);
        tw.update(SimTime::from_secs(1), 1.0);
    }

    #[test]
    fn replications_ci() {
        // Known data: 10, 12, 14 → mean 12, sd 2, t95(2)=4.303.
        let mut r = Replications::new();
        for v in [10.0, 12.0, 14.0] {
            r.record(v);
        }
        assert_eq!(r.count(), 3);
        assert!((r.mean() - 12.0).abs() < 1e-12);
        assert!((r.stddev() - 2.0).abs() < 1e-12);
        let half = 4.303 * 2.0 / 3.0_f64.sqrt();
        assert!((r.ci95_half_width() - half).abs() < 1e-9);
        assert!(r.format(1).starts_with("12.0 ±"));
    }

    #[test]
    fn replications_run_records_one_response_per_seed() {
        let r = Replications::run(10, |s| 100.0 + (s % 3) as f64);
        assert_eq!(r.count(), 10);
        assert!((r.mean() - 100.9).abs() < 1e-12);
    }

    #[test]
    fn replications_degenerate() {
        let r = Replications::new();
        assert!(r.mean().is_nan());
        let one = Replications::run(1, |_| 5.0);
        assert_eq!(one.ci95_half_width(), 0.0);
    }
}
