//! Random-variate distributions used by workload generators.
//!
//! Implemented from first principles on top of `rand`'s uniform source so the
//! dependency set stays small and the math is auditable: inverse-transform
//! sampling for the exponential, Box–Muller for the log-normal. Parallel-
//! workload literature (and the paper's own framing of "patterns of job
//! submissions") calls for Poisson-like arrivals and log-normal runtimes,
//! which these primitives provide.

use rand::Rng;

/// A real-valued distribution that can be sampled with any RNG.
pub trait Dist {
    /// Draw one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// The distribution mean (exact, for generator calibration).
    fn mean(&self) -> f64;
}

/// Draw a uniform in the open interval (0, 1) — never exactly 0, so it is
/// safe to take logarithms.
fn open01<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u: f64 = rng.random();
        if u > 0.0 {
            return u;
        }
    }
}

/// Continuous uniform on `[lo, hi)`.
#[derive(Debug, Clone, Copy)]
pub struct UniformDist {
    /// Lower bound (inclusive).
    pub lo: f64,
    /// Upper bound (exclusive).
    pub hi: f64,
}

impl UniformDist {
    /// A uniform over `[lo, hi)`. Requires `lo <= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo <= hi, "uniform bounds out of order: [{lo}, {hi})");
        UniformDist { lo, hi }
    }
}

impl Dist for UniformDist {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        if self.lo == self.hi {
            return self.lo;
        }
        rng.random_range(self.lo..self.hi)
    }
    fn mean(&self) -> f64 {
        (self.lo + self.hi) / 2.0
    }
}

/// Exponential with rate `lambda` (mean `1/lambda`). The inter-arrival
/// distribution of a Poisson process.
#[derive(Debug, Clone, Copy)]
pub struct Exp {
    /// Rate parameter (events per unit time); must be positive.
    pub lambda: f64,
}

impl Exp {
    /// An exponential with the given rate.
    pub fn new(lambda: f64) -> Self {
        assert!(
            lambda > 0.0,
            "exponential rate must be positive, got {lambda}"
        );
        Exp { lambda }
    }

    /// An exponential with the given mean.
    pub fn with_mean(mean: f64) -> Self {
        Exp::new(1.0 / mean)
    }
}

impl Dist for Exp {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        -open01(rng).ln() / self.lambda
    }
    fn mean(&self) -> f64 {
        1.0 / self.lambda
    }
}

/// Standard normal via Box–Muller.
fn std_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1 = open01(rng);
    let u2: f64 = rng.random();
    (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos()
}

/// Log-normal: `exp(mu + sigma * N(0,1))`. The classic model for parallel
/// job runtimes (Lublin–Feitelson style workloads are log-uniform/log-normal).
#[derive(Debug, Clone, Copy)]
pub struct LogNormal {
    /// Mean of the underlying normal.
    pub mu: f64,
    /// Standard deviation of the underlying normal; non-negative.
    pub sigma: f64,
}

impl LogNormal {
    /// A log-normal with underlying normal parameters `(mu, sigma)`.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(sigma >= 0.0, "sigma must be non-negative");
        LogNormal { mu, sigma }
    }

    /// Construct from the desired *median* and sigma (median = exp(mu)).
    pub fn with_median(median: f64, sigma: f64) -> Self {
        assert!(median > 0.0, "median must be positive");
        LogNormal::new(median.ln(), sigma)
    }
}

impl Dist for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * std_normal(rng)).exp()
    }
    fn mean(&self) -> f64 {
        (self.mu + self.sigma * self.sigma / 2.0).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn empirical_mean<D: Dist>(d: &D, n: usize, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exp::with_mean(4.0);
        let m = empirical_mean(&d, 200_000, 1);
        assert!((m - 4.0).abs() < 0.05, "exp mean {m} != 4.0");
        assert!((d.mean() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = UniformDist::new(2.0, 6.0);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((2.0..6.0).contains(&x));
        }
        let m = empirical_mean(&d, 100_000, 3);
        assert!((m - 4.0).abs() < 0.05);
    }

    #[test]
    fn degenerate_uniform() {
        let d = UniformDist::new(3.0, 3.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 3.0);
    }

    #[test]
    fn lognormal_median_is_exp_mu() {
        let d = LogNormal::with_median(100.0, 1.0);
        let mut rng = StdRng::seed_from_u64(7);
        let mut samples: Vec<f64> = (0..100_001).map(|_| d.sample(&mut rng)).collect();
        samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples[samples.len() / 2];
        assert!((median - 100.0).abs() / 100.0 < 0.05, "median {median}");
    }

    #[test]
    fn lognormal_mean_formula() {
        let d = LogNormal::new(0.0, 0.5);
        let m = empirical_mean(&d, 400_000, 8);
        assert!(
            (m - d.mean()).abs() / d.mean() < 0.02,
            "{m} vs {}",
            d.mean()
        );
    }

    #[test]
    #[should_panic(expected = "rate must be positive")]
    fn exp_rejects_zero_rate() {
        Exp::new(0.0);
    }

    #[test]
    fn deterministic_under_seed() {
        let d = Exp::new(1.0);
        let a: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| d.sample(&mut rng)).collect()
        };
        let b: Vec<f64> = {
            let mut rng = StdRng::seed_from_u64(42);
            (0..5).map(|_| d.sample(&mut rng)).collect()
        };
        assert_eq!(a, b);
    }
}
