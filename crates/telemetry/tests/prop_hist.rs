//! Property test: the log₂-binned histogram quantile stays within one bin
//! (a factor of two) of the exact sorted-sample quantile, for any data and
//! any quantile — the resolution contract `HistogramSnapshot::quantile`
//! documents.

use faucets_sim::check::{for_seeds, vec_of};
use faucets_telemetry::{HistogramSnapshot, Registry};
use rand::Rng;

/// A snapshot of a fresh histogram holding `data`.
fn snapshot_of(data: &[f64]) -> HistogramSnapshot {
    let reg = Registry::new();
    let h = reg.histogram("latency", &[]);
    for &v in data {
        h.record(v);
    }
    h.snapshot()
}

/// The sample at the rank `HistogramSnapshot::{quantile, percentile}` use.
fn exact(data: &[f64], q: f64) -> f64 {
    let mut sorted = data.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let rank = (q * sorted.len() as f64).ceil().max(1.0) as usize;
    sorted[rank - 1]
}

#[test]
fn histogram_quantile_within_a_factor_of_two_of_exact() {
    for_seeds(256, |rng| {
        let data = vec_of(rng, 1..400, |rng| rng.random_range(1e-3f64..1e6));
        let q = rng.random_range(0.05f64..0.95);
        let exact = exact(&data, q);

        // The ranked sample sits in [lo, 2·lo); the estimate is lo·√2, so
        // it is within (√2/2, √2] of the exact value — a factor of two
        // with margin.
        let est = snapshot_of(&data).quantile(q);
        assert!(
            est >= exact / 2.0 - 1e-12 && est <= exact * 2.0 + 1e-12,
            "estimate {est} not within 2x of exact {exact}"
        );
    });
}

/// The interpolated percentile path (the p999-capable extraction)
/// shares the ranked sample's bin: for any data — including
/// heavy-tailed streams where adjacent ranks differ by orders of
/// magnitude — the estimate stays within a factor of two of the
/// exact sorted-sample quantile, all the way out to p999.
#[test]
fn histogram_percentile_shares_the_exact_samples_bin() {
    for_seeds(256, |rng| {
        // Pareto-flavoured heavy tail via inverse transform.
        let data = vec_of(rng, 1..500, |rng| {
            (1.0 - rng.random_range(0.0f64..0.999_999)).powf(-1.5)
        });
        let q = rng.random_range(0.05f64..0.999);
        let exact = exact(&data, q);

        // The estimate lies inside the power-of-two bin [lo, 2·lo)
        // holding the ranked sample, so it is within a factor of two of
        // the exact value in both directions.
        let est = snapshot_of(&data).percentile(q);
        assert!(
            est > exact / 2.0 - 1e-12 && est < exact * 2.0 + 1e-12,
            "estimate {est} not within 2x of exact {exact}"
        );
    });
}

/// Interpolated percentiles are monotone in q (within-bin linear
/// interpolation cannot reorder across or inside bins), and the
/// battery helper agrees with the scalar path.
#[test]
fn histogram_percentile_is_monotone() {
    for_seeds(256, |rng| {
        let data = vec_of(rng, 1..200, |rng| rng.random_range(1e-3f64..1e6));
        let a = rng.random_range(0.01f64..0.999);
        let b = rng.random_range(0.01f64..0.999);
        let snap = snapshot_of(&data);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(snap.percentile(lo) <= snap.percentile(hi) + 1e-12);
        let battery = snap.percentiles(&[lo, hi]);
        assert_eq!(battery, vec![snap.percentile(lo), snap.percentile(hi)]);
    });
}

/// Quantiles from a snapshot are monotone in q.
#[test]
fn histogram_quantile_is_monotone() {
    for_seeds(256, |rng| {
        let data = vec_of(rng, 1..200, |rng| rng.random_range(1e-3f64..1e6));
        let a = rng.random_range(0.01f64..0.99);
        let b = rng.random_range(0.01f64..0.99);
        let snap = snapshot_of(&data);
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        assert!(snap.quantile(lo) <= snap.quantile(hi) + 1e-12);
    });
}
