//! The wall-clock vs sim-time abstraction.
//!
//! Live TCP services measure latency in real time; discrete-event runs
//! measure it in simulated time that only advances when the event loop
//! dispatches. [`TelemetryClock`] hides the difference: both variants
//! answer [`now_secs`](TelemetryClock::now_secs), and a [`Stopwatch`]
//! started from either observes elapsed seconds into the same
//! [`Histogram`]s. The sim variant is a shared atomic cell of simulated
//! microseconds; the event loop calls
//! [`set_micros`](TelemetryClock::set_micros) with the scheduler's `now`
//! before dispatching each event, so any instrument reading the clock mid-
//! event sees the event's timestamp.

use crate::metrics::Histogram;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A clock that is either the process wall clock or a shared cell of
/// simulated microseconds. Cloning a `Sim` clock shares the cell.
#[derive(Clone, Debug, Default)]
pub enum TelemetryClock {
    /// Monotonic wall time from the process epoch (see
    /// [`crate::trace::wall_secs`]).
    #[default]
    Wall,
    /// Simulated time: microseconds stored by the discrete-event loop.
    Sim(Arc<AtomicU64>),
}

impl TelemetryClock {
    /// The wall-time clock.
    pub fn wall() -> Self {
        TelemetryClock::Wall
    }

    /// A fresh simulated clock starting at zero microseconds.
    pub fn sim() -> Self {
        TelemetryClock::Sim(Arc::new(AtomicU64::new(0)))
    }

    /// Advance a simulated clock to `micros`. No-op on the wall variant
    /// (real time advances itself).
    #[inline]
    pub fn set_micros(&self, micros: u64) {
        if let TelemetryClock::Sim(cell) = self {
            cell.store(micros, Ordering::Relaxed);
        }
    }

    /// Current time in (wall or simulated) seconds.
    #[inline]
    pub fn now_secs(&self) -> f64 {
        match self {
            TelemetryClock::Wall => crate::trace::wall_secs(),
            TelemetryClock::Sim(cell) => cell.load(Ordering::Relaxed) as f64 / 1e6,
        }
    }

    /// Start timing from now.
    pub fn stopwatch(&self) -> Stopwatch {
        Stopwatch {
            clock: self.clone(),
            start: self.now_secs(),
        }
    }
}

/// An elapsed-time measurement against either clock variant.
#[derive(Clone, Debug)]
pub struct Stopwatch {
    clock: TelemetryClock,
    start: f64,
}

impl Stopwatch {
    /// Seconds elapsed since the stopwatch started (clamped at zero).
    pub fn elapsed_secs(&self) -> f64 {
        (self.clock.now_secs() - self.start).max(0.0)
    }

    /// Record the elapsed time into `hist` and return it.
    pub fn observe(&self, hist: &Histogram) -> f64 {
        let dt = self.elapsed_secs();
        hist.record(dt);
        dt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_clock_reads_what_the_loop_stores() {
        let clock = TelemetryClock::sim();
        assert_eq!(clock.now_secs(), 0.0);
        clock.set_micros(2_500_000);
        assert!((clock.now_secs() - 2.5).abs() < 1e-12);
        let shared = clock.clone();
        shared.set_micros(5_000_000);
        assert!(
            (clock.now_secs() - 5.0).abs() < 1e-12,
            "clones share the cell"
        );
    }

    #[test]
    fn sim_stopwatch_measures_simulated_spans() {
        let clock = TelemetryClock::sim();
        clock.set_micros(1_000_000);
        let sw = clock.stopwatch();
        clock.set_micros(4_000_000);
        let h = Histogram::default();
        let dt = sw.observe(&h);
        assert!((dt - 3.0).abs() < 1e-12);
        assert_eq!(h.count(), 1);
    }

    #[test]
    fn wall_clock_advances_on_its_own() {
        let clock = TelemetryClock::wall();
        let sw = clock.stopwatch();
        clock.set_micros(99); // no-op
        std::thread::sleep(std::time::Duration::from_millis(2));
        assert!(sw.elapsed_secs() > 0.0);
    }
}
