//! Property tests for the streaming statistics collectors: the O(1)-memory
//! estimators must stay within tolerance of the exact answers computed from
//! the retained sample.

use faucets_sim::check::{for_seeds, vec_of};
use faucets_sim::stats::{P2Quantile, QuantileSet, Summary};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Exact `p`-quantile of an already-sorted sample (nearest-rank).
fn exact_quantile(sorted: &[f64], p: f64) -> f64 {
    let idx = ((sorted.len() as f64 - 1.0) * p).round() as usize;
    sorted[idx]
}

fn sorted(mut data: Vec<f64>) -> Vec<f64> {
    data.sort_by(|a, b| a.partial_cmp(b).unwrap());
    data
}

/// P² median vs the exact sample median: bounded by the data range and
/// within a modest fraction of it. (P² approximates the *sample*
/// quantile; 15 % of the range is ~4σ of sampling noise at n = 200.)
#[test]
fn p2_median_tracks_exact() {
    for_seeds(256, |rng| {
        let data = vec_of(rng, 200..600, |rng| rng.random_range(0.0f64..1000.0));
        let mut q = P2Quantile::new(0.5);
        for &x in &data {
            q.record(x);
        }
        let s = sorted(data);
        let exact = exact_quantile(&s, 0.5);
        let (lo, hi) = (s[0], *s.last().unwrap());
        let est = q.estimate();
        assert!(
            est >= lo && est <= hi,
            "estimate {est} outside [{lo}, {hi}]"
        );
        let tol = 0.15 * (hi - lo) + 1e-9;
        assert!(
            (est - exact).abs() <= tol,
            "est {est}, exact {exact}, tol {tol}"
        );
    });
}

/// Same for an upper quantile, which P² tracks with fewer effective
/// samples (wider tolerance).
#[test]
fn p2_p90_tracks_exact() {
    for_seeds(256, |rng| {
        let data = vec_of(rng, 300..700, |rng| rng.random_range(0.0f64..1000.0));
        let mut q = P2Quantile::new(0.9);
        for &x in &data {
            q.record(x);
        }
        let s = sorted(data);
        let exact = exact_quantile(&s, 0.9);
        let (lo, hi) = (s[0], *s.last().unwrap());
        let est = q.estimate();
        assert!(
            est >= lo && est <= hi,
            "estimate {est} outside [{lo}, {hi}]"
        );
        let tol = 0.20 * (hi - lo) + 1e-9;
        assert!(
            (est - exact).abs() <= tol,
            "est {est}, exact {exact}, tol {tol}"
        );
    });
}

/// The p50/p90/p99/p999 battery on *heavy-tailed* streams, verified
/// by rank rather than value: on a Pareto-ish tail the values at
/// nearby ranks differ by orders of magnitude, so the meaningful
/// contract is that the fraction of samples at or below each estimate
/// brackets the target quantile. (This is the battery the load
/// harness records submit/completion latencies into.)
#[test]
fn quantile_set_rank_brackets_on_heavy_tails() {
    for_seeds(256, heavy_tail_rank_brackets);
}

/// Regression, found the first time the property above ran: interpolating
/// marker heights in raw values, P² put this stream's median at rank 0.61
/// (one seed in five of 0..2000 missed the ±0.06 bracket, the worst at rank
/// 0.97). Fixed by interpolating in signed-log space.
#[test]
fn heavy_tail_seed_0_median_is_not_dragged_up_the_tail() {
    heavy_tail_rank_brackets(&mut StdRng::seed_from_u64(0));
}

fn heavy_tail_rank_brackets(rng: &mut StdRng) {
    // Inverse-transform a Pareto-flavoured tail: finite but wild
    // (the top permille spans orders of magnitude).
    let data = vec_of(rng, 2_000..4_000, |rng| {
        (1.0 - rng.random_range(0.0f64..0.999_999)).powf(-1.5)
    });
    let mut qs = QuantileSet::new();
    for &x in &data {
        qs.record(x);
    }
    assert_eq!(qs.count(), data.len() as u64);
    let n = data.len() as f64;
    let (lo, hi) = data
        .iter()
        .fold((f64::MAX, f64::MIN), |(l, h), &x| (l.min(x), h.max(x)));
    let frac_le = |t: f64| data.iter().filter(|&&x| x <= t).count() as f64 / n;
    for (q, est, eps) in [
        (0.5, qs.p50(), 0.06),
        (0.9, qs.p90(), 0.05),
        (0.99, qs.p99(), 0.02),
        (0.999, qs.p999(), 0.008),
    ] {
        assert!(est >= lo && est <= hi, "q={q}: {est} outside [{lo}, {hi}]");
        let f = frac_le(est);
        assert!((f - q).abs() <= eps, "q={q}: estimate {est} ranks at {f}");
    }
}

#[test]
fn empty_collectors_are_sane() {
    assert!(P2Quantile::new(0.5).estimate().is_nan());
    let s = Summary::new();
    assert_eq!(s.count(), 0);
    assert_eq!(s.mean(), 0.0);
}
