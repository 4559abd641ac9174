//! Simulation time.
//!
//! Time is represented as an integer number of microseconds since the start
//! of the simulation. Using a fixed-point integer (rather than `f64`) keeps
//! the event queue totally ordered, makes arithmetic associative, and avoids
//! the accumulation drift that plagues floating-point simulation clocks on
//! long runs (a grid simulation covering months of virtual time executes
//! billions of microsecond-scale additions).

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// Microseconds in one second.
pub const MICROS_PER_SEC: u64 = 1_000_000;

/// An instant on the simulation clock, in microseconds since t=0.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct SimTime(pub u64);

/// A span of simulation time, in microseconds.
#[derive(
    Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, serde::Serialize, serde::Deserialize,
)]
#[serde(transparent)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from whole seconds.
    pub fn from_secs(s: u64) -> Self {
        SimTime(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimTime((s.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Construct from whole hours.
    pub fn from_hours(h: u64) -> Self {
        SimTime::from_secs(h * 3600)
    }

    /// The instant as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The instant in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// Duration elapsed since `earlier`, saturating at zero if `earlier` is
    /// actually later than `self`.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }

    /// Saturating addition of a duration (sticks at `SimTime::MAX`).
    pub fn saturating_add(self, d: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(d.0))
    }

    /// The earlier of two instants.
    pub fn min(self, other: SimTime) -> SimTime {
        SimTime(self.0.min(other.0))
    }

    /// The later of two instants.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }
}

impl SimDuration {
    /// The empty duration.
    pub const ZERO: SimDuration = SimDuration(0);
    /// The largest representable duration.
    pub const MAX: SimDuration = SimDuration(u64::MAX);

    /// Construct from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        SimDuration(s * MICROS_PER_SEC)
    }

    /// Construct from fractional seconds. Negative values clamp to zero.
    pub fn from_secs_f64(s: f64) -> Self {
        SimDuration((s.max(0.0) * MICROS_PER_SEC as f64).round() as u64)
    }

    /// Construct from whole minutes.
    pub fn from_mins(m: u64) -> Self {
        SimDuration::from_secs(m * 60)
    }

    /// Construct from whole hours.
    pub fn from_hours(h: u64) -> Self {
        SimDuration::from_secs(h * 3600)
    }

    /// Construct from whole milliseconds.
    pub fn from_millis(ms: u64) -> Self {
        SimDuration(ms * 1_000)
    }

    /// The duration as fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / MICROS_PER_SEC as f64
    }

    /// The duration in whole microseconds.
    pub fn as_micros(self) -> u64 {
        self.0
    }

    /// True if this is the zero duration.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Scale by a non-negative factor, rounding to the nearest microsecond.
    pub fn mul_f64(self, f: f64) -> SimDuration {
        debug_assert!(f >= 0.0, "duration scale factor must be non-negative");
        SimDuration((self.0 as f64 * f).round() as u64)
    }

    /// Saturating subtraction.
    pub fn saturating_sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_sub(other.0))
    }

    /// The smaller of two durations.
    pub fn min(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.min(other.0))
    }

    /// The larger of two durations.
    pub fn max(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.max(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, d: SimDuration) -> SimTime {
        SimTime(self.0 + d.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, d: SimDuration) {
        self.0 += d.0;
    }
}

impl Sub<SimDuration> for SimTime {
    type Output = SimTime;
    fn sub(self, d: SimDuration) -> SimTime {
        SimTime(self.0 - d.0)
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, other: SimTime) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 + other.0)
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, other: SimDuration) {
        self.0 += other.0;
    }
}

impl Sub for SimDuration {
    type Output = SimDuration;
    fn sub(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0 - other.0)
    }
}

impl SubAssign for SimDuration {
    fn sub_assign(&mut self, other: SimDuration) {
        self.0 -= other.0;
    }
}

impl Mul<u64> for SimDuration {
    type Output = SimDuration;
    fn mul(self, k: u64) -> SimDuration {
        SimDuration(self.0 * k)
    }
}

impl Div<u64> for SimDuration {
    type Output = SimDuration;
    fn div(self, k: u64) -> SimDuration {
        SimDuration(self.0 / k)
    }
}

impl Div<SimDuration> for SimDuration {
    type Output = f64;
    fn div(self, other: SimDuration) -> f64 {
        self.0 as f64 / other.0 as f64
    }
}

impl fmt::Debug for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t={}", format_micros(self.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

impl fmt::Debug for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", format_micros(self.0))
    }
}

/// Render microseconds in the most readable unit (h/m/s/ms/µs).
fn format_micros(us: u64) -> String {
    if us >= 3_600 * MICROS_PER_SEC {
        format!("{:.2}h", us as f64 / (3_600.0 * MICROS_PER_SEC as f64))
    } else if us >= 60 * MICROS_PER_SEC {
        format!("{:.2}m", us as f64 / (60.0 * MICROS_PER_SEC as f64))
    } else if us >= MICROS_PER_SEC {
        format!("{:.2}s", us as f64 / MICROS_PER_SEC as f64)
    } else if us >= 1_000 {
        format!("{:.2}ms", us as f64 / 1_000.0)
    } else {
        format!("{us}µs")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(SimTime::from_secs(3).as_micros(), 3_000_000);
        assert_eq!(SimTime::from_hours(2), SimTime::from_secs(7200));
        assert_eq!(SimDuration::from_mins(2), SimDuration::from_secs(120));
        assert_eq!(SimDuration::from_millis(5).as_micros(), 5_000);
        let t = SimTime::from_secs_f64(1.5);
        assert_eq!(t.as_micros(), 1_500_000);
        assert!((t.as_secs_f64() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn negative_f64_clamps_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-0.1), SimDuration::ZERO);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs(10);
        let d = SimDuration::from_secs(4);
        assert_eq!(t + d, SimTime::from_secs(14));
        assert_eq!(t - d, SimTime::from_secs(6));
        assert_eq!(SimTime::from_secs(14) - t, d);
        assert_eq!(d * 3, SimDuration::from_secs(12));
        assert_eq!(d / 2, SimDuration::from_secs(2));
        assert!((SimDuration::from_secs(2) / d - 0.5).abs() < 1e-12);
    }

    #[test]
    fn since_saturates() {
        let a = SimTime::from_secs(5);
        let b = SimTime::from_secs(9);
        assert_eq!(b.since(a), SimDuration::from_secs(4));
        assert_eq!(a.since(b), SimDuration::ZERO);
    }

    #[test]
    fn saturating_add_sticks_at_max() {
        assert_eq!(
            SimTime::MAX.saturating_add(SimDuration::from_secs(1)),
            SimTime::MAX
        );
    }

    #[test]
    fn mul_f64_rounds() {
        let d = SimDuration(10);
        assert_eq!(d.mul_f64(0.26), SimDuration(3));
        assert_eq!(d.mul_f64(0.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_unit() {
        assert_eq!(format!("{}", SimDuration(500)), "500µs");
        assert_eq!(format!("{}", SimDuration::from_millis(250)), "250.00ms");
        assert_eq!(format!("{}", SimDuration::from_secs(5)), "5.00s");
        assert_eq!(format!("{}", SimDuration::from_mins(3)), "3.00m");
        assert_eq!(format!("{}", SimDuration::from_hours(2)), "2.00h");
    }

    #[test]
    fn ordering_is_total() {
        let mut v = vec![SimTime::from_secs(3), SimTime::ZERO, SimTime::from_secs(1)];
        v.sort();
        assert_eq!(
            v,
            vec![SimTime::ZERO, SimTime::from_secs(1), SimTime::from_secs(3)]
        );
    }
}
