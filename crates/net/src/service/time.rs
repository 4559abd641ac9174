//! Time plumbing shared by the serve and call paths: the wall-clock →
//! simulation-clock mapping live services run on, the sentinel's stop
//! flag, client socket deadlines, and the bounded retry policy.

use crate::fault::mix64;
use faucets_sim::time::SimTime;
use parking_lot::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The stop flag the sentinel's probe loop waits on: at most an interval,
/// but it wakes the moment someone stops it, so `shutdown()` costs a join.
/// (A service's periodic loop is a [`super::ServiceHandle::tick`].)
#[derive(Default)]
pub struct StopSignal {
    stopped: Mutex<bool>,
    cv: Condvar,
}

impl StopSignal {
    /// Raise the flag and wake every waiter immediately.
    pub fn stop(&self) {
        *self.stopped.lock() = true;
        self.cv.notify_all();
    }

    /// Wait up to `timeout`, waking early on [`StopSignal::stop`]; returns
    /// whether the signal is stopped.
    pub fn wait_for(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let mut stopped = self.stopped.lock();
        while !*stopped {
            if self.cv.wait_until(&mut stopped, deadline).timed_out() {
                break;
            }
        }
        *stopped
    }
}

/// Maps wall-clock time to `SimTime` for live services, with an optional
/// speedup so demonstrations can run "supercomputer hours" in test seconds.
#[derive(Debug, Clone)]
pub struct Clock {
    start: Instant,
    speedup: f64,
}

impl Clock {
    /// A clock where one wall second is `speedup` simulated seconds.
    pub fn new(speedup: f64) -> Self {
        assert!(speedup > 0.0, "speedup must be positive");
        Clock {
            start: Instant::now(),
            speedup,
        }
    }

    /// Real time (speedup 1).
    pub fn realtime() -> Self {
        Clock::new(1.0)
    }

    /// The current simulated instant.
    pub fn now(&self) -> SimTime {
        SimTime::from_secs_f64(self.start.elapsed().as_secs_f64() * self.speedup)
    }

    /// How many simulated seconds pass per wall second.
    pub fn speedup(&self) -> f64 {
        self.speedup
    }

    /// Wall-clock duration until the simulated instant `at` (zero if `at`
    /// is already past). This is the open-loop load harness's conversion:
    /// arrival schedules are generated in sim time so QoS deadlines
    /// anchor correctly, then fired at `start + at / speedup` on the wall.
    pub fn wall_until(&self, at: SimTime) -> Duration {
        let target = at.as_secs_f64() / self.speedup;
        let elapsed = self.start.elapsed().as_secs_f64();
        Duration::from_secs_f64((target - elapsed).max(0.0))
    }
}

/// Socket deadlines for client-side calls, in both directions. The seed
/// system hard-coded a 10 s read timeout and no write timeout at all; a
/// stalled peer could wedge a writer forever. (Client side only: the
/// serve path never blocks on a socket, so it has no use for
/// these; a slow *consumer* is bounded by the per-connection write buffer
/// cap instead.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Timeouts {
    /// How long a read may block before the connection is abandoned.
    pub read: Duration,
    /// How long a write may block before the connection is abandoned.
    pub write: Duration,
}

impl Timeouts {
    /// Uniform deadline in both directions.
    pub fn both(d: Duration) -> Self {
        Timeouts { read: d, write: d }
    }
}

impl Default for Timeouts {
    fn default() -> Self {
        Timeouts::both(Duration::from_secs(10))
    }
}

/// Bounded retry with exponential backoff and deterministic jitter.
///
/// The delay before attempt *n* (1-based over retries) is
/// `base · 2^(n-1)`, capped at `cap`, then scaled by a seeded jitter
/// factor in `[1 − jitter, 1]` — deterministic per (seed, attempt) so
/// fault-injection runs reproduce exactly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts, including the first (≥ 1).
    pub attempts: u32,
    /// Backoff before the first retry.
    pub base: Duration,
    /// Ceiling on any single backoff.
    pub cap: Duration,
    /// Jitter fraction in `[0, 1]`: how much of the backoff may be shaved.
    pub jitter: f64,
    /// Seed for the jitter sequence.
    pub seed: u64,
}

impl RetryPolicy {
    /// A single attempt — no retries (the seed system's behaviour).
    pub fn none() -> Self {
        RetryPolicy {
            attempts: 1,
            base: Duration::ZERO,
            cap: Duration::ZERO,
            jitter: 0.0,
            seed: 0,
        }
    }

    /// Four attempts, 25 ms → 200 ms exponential backoff, half jitter.
    pub fn standard(seed: u64) -> Self {
        RetryPolicy {
            attempts: 4,
            base: Duration::from_millis(25),
            cap: Duration::from_millis(200),
            jitter: 0.5,
            seed,
        }
    }

    /// The backoff to sleep before retry number `retry` (1-based).
    pub fn backoff(&self, retry: u32) -> Duration {
        let exp = self.base.saturating_mul(1u32 << (retry - 1).min(16));
        let exp = exp.min(self.cap.max(self.base));
        // A deterministic jitter draw. `mix64` adds the golden-ratio
        // increment before it mixes; taking it off first keeps every
        // (seed, retry) on the jitter it has always had.
        const GOLDEN: u64 = 0x9e37_79b9_7f4a_7c15;
        let z = self.seed ^ (retry as u64).wrapping_mul(GOLDEN);
        let u = (mix64(z.wrapping_sub(GOLDEN)) >> 11) as f64 / (1u64 << 53) as f64;
        let scale = 1.0 - self.jitter.clamp(0.0, 1.0) * u;
        Duration::from_secs_f64(exp.as_secs_f64() * scale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn clock_advances_with_speedup() {
        // 40 ms of wall sleep at 1000x is ≥ 40 sim seconds; the wide upper
        // bound gives a heavily loaded CI machine plenty of headroom.
        let c = Clock::new(1000.0);
        std::thread::sleep(Duration::from_millis(40));
        let t = c.now();
        assert!(t >= SimTime::from_secs_f64(20.0), "got {t}");
        assert!(t <= SimTime::from_secs_f64(10_000.0), "got {t}");
    }

    #[test]
    fn stop_signal_wakes_waiters_immediately() {
        let sig = Arc::new(StopSignal::default());
        let s2 = Arc::clone(&sig);
        let waiter = std::thread::spawn(move || {
            let start = Instant::now();
            let stopped = s2.wait_for(Duration::from_secs(30));
            (stopped, start.elapsed())
        });
        std::thread::sleep(Duration::from_millis(30));
        sig.stop();
        let (stopped, waited) = waiter.join().unwrap();
        assert!(stopped, "wait_for reports the stop");
        assert!(
            waited < Duration::from_secs(5),
            "stop() must interrupt the wait, not let it run the interval: {waited:?}"
        );
        // Once stopped, waits return immediately.
        let t = Instant::now();
        assert!(sig.wait_for(Duration::from_secs(30)));
        assert!(t.elapsed() < Duration::from_millis(100));
    }

    #[test]
    fn backoff_grows_is_capped_and_deterministic() {
        let p = RetryPolicy::standard(9);
        let b1 = p.backoff(1);
        let b2 = p.backoff(2);
        let b3 = p.backoff(3);
        assert!(b1 <= Duration::from_millis(25));
        assert!(b2 <= Duration::from_millis(50));
        assert!(b3 <= Duration::from_millis(100));
        // Jitter shaves at most half.
        assert!(b1 >= Duration::from_millis(12));
        // Cap holds no matter how deep the retry.
        assert!(p.backoff(30) <= Duration::from_millis(200));
        // Deterministic per (seed, attempt).
        assert_eq!(p.backoff(2), RetryPolicy::standard(9).backoff(2));
        assert_ne!(
            RetryPolicy::standard(1).backoff(2),
            RetryPolicy::standard(2).backoff(2),
            "different seeds jitter differently"
        );
    }
}
