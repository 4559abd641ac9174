//! Property tests for the overload-protection primitives behind E22:
//! the token bucket's admission bound and the circuit breaker's state
//! machine, both driven with injected clocks so every case is
//! deterministic.

use faucets_net::overload::{breaker_state, BreakerConfig, CircuitBreaker, TokenBucket};
use faucets_sim::check::{for_seeds, vec_of};
use rand::Rng;
use std::time::{Duration, Instant};

/// The defining property of a token bucket: over *any* schedule of
/// admission attempts, the number admitted never exceeds
/// `rate * elapsed + burst` (the bucket starts full, hence `+ burst`).
#[test]
fn token_bucket_never_admits_more_than_rate_times_elapsed_plus_burst() {
    for_seeds(256, |rng| {
        let rate = rng.random_range(0.0f64..500.0);
        let burst = rng.random_range(0.0f64..50.0);
        let steps = vec_of(rng, 1..200, |rng| rng.random_range(0u64..50_000));
        let bucket = TokenBucket::new(rate, burst);
        let mut now = 0u64;
        let mut admitted = 0u64;
        for dt in &steps {
            now += dt;
            if bucket.try_admit_at(now) {
                admitted += 1;
            }
        }
        let elapsed = now as f64 / 1e6;
        assert!(
            admitted as f64 <= rate * elapsed + burst + 1e-6,
            "admitted {admitted} > rate {rate} * {elapsed}s + burst {burst}"
        );
    });
}

/// A clock running backwards is clamped: it refills nothing, so a
/// drained bucket stays drained no matter how far back time jumps.
#[test]
fn token_bucket_backwards_clock_mints_no_tokens() {
    for_seeds(256, |rng| {
        let bucket = TokenBucket::new(rng.random_range(0.0f64..1000.0), 1.0);
        assert!(bucket.try_admit_at(1_000_000)); // drain the one banked token
        for t in vec_of(rng, 1..50, |rng| rng.random_range(0u64..1_000_000)) {
            assert!(!bucket.try_admit_at(t), "minted a token at rewound t={t}");
        }
    });
}

/// Whatever the breaker's history — failures, probes, time passing —
/// a single success closes it and calls flow again. This is the
/// recovery half of the chaos invariant: one good probe is enough.
#[test]
fn breaker_any_history_then_one_success_closes() {
    for_seeds(256, |rng| {
        let b = CircuitBreaker::new(BreakerConfig {
            failures_to_open: 3,
            cooldown: Duration::from_millis(100),
        });
        let mut t = Instant::now();
        for op in vec_of(rng, 0..64, |rng| rng.random_range(0u8..3)) {
            match op {
                0 => {
                    let _ = b.allow_at(t);
                }
                1 => {
                    let _ = b.on_failure_at(t);
                }
                _ => t += Duration::from_millis(37),
            }
        }
        b.on_success_at(t);
        assert_eq!(b.state_name(), breaker_state::CLOSED);
        assert!(b.allow_at(t).0);
    });
}

/// A closed breaker tolerates exactly `failures_to_open - 1`
/// consecutive failures; the next one trips it, and the cooldown then
/// lets exactly one half-open probe through.
#[test]
fn breaker_opens_exactly_at_threshold() {
    for_seeds(256, |rng| {
        let threshold = rng.random_range(1u32..8);
        let cooldown = Duration::from_millis(50);
        let b = CircuitBreaker::new(BreakerConfig {
            failures_to_open: threshold,
            cooldown,
        });
        let t = Instant::now();
        for i in 1..threshold {
            assert_eq!(b.on_failure_at(t), None, "opened early at failure {i}");
            assert!(b.allow_at(t).0);
        }
        assert_eq!(b.on_failure_at(t), Some(breaker_state::OPEN));
        assert!(!b.allow_at(t).0);
        let after = t + cooldown;
        let (ok, transition) = b.allow_at(after);
        assert!(ok);
        assert_eq!(transition, Some(breaker_state::HALF_OPEN));
        // Only one probe per cooldown window.
        assert!(!b.allow_at(after).0);
    });
}
