//! Fixed-point money and service units.
//!
//! The paper's market runs in two currencies: Dollar amounts for the
//! pay-for-use context (§5.5.1) and Service Units for the academic context
//! (§5.5.2) and bartering (§5.5.3). Both are represented as `i64` counts of
//! micro-units so that accounting identities (conservation under transfer)
//! hold exactly — floating point would violate them after millions of
//! simulated transactions.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Neg, Sub, SubAssign};

/// Micro-units per whole unit (dollar or SU).
pub const MICROS_PER_UNIT: i64 = 1_000_000;

macro_rules! currency {
    ($(#[$doc:meta])* $name:ident, $sym:literal) => {
        $(#[$doc])*
        #[derive(
            Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
        )]
        #[serde(transparent)]
        pub struct $name(pub i64);

        impl $name {
            /// Zero.
            pub const ZERO: $name = $name(0);

            /// From whole units.
            pub fn from_units(u: i64) -> Self {
                $name(u * MICROS_PER_UNIT)
            }

            /// From fractional units, rounded to the nearest micro-unit.
            pub fn from_units_f64(u: f64) -> Self {
                $name((u * MICROS_PER_UNIT as f64).round() as i64)
            }

            /// As fractional units.
            pub fn as_units_f64(self) -> f64 {
                self.0 as f64 / MICROS_PER_UNIT as f64
            }

            /// Raw micro-units.
            pub fn micros(self) -> i64 {
                self.0
            }

            /// Scale by `f`, rounding to the nearest micro-unit.
            pub fn mul_f64(self, f: f64) -> Self {
                $name((self.0 as f64 * f).round() as i64)
            }

            /// Checked [`Self::from_units_f64`]: `None` when `u` is NaN,
            /// infinite, or would overflow the `i64` micro-unit range —
            /// the cases where the unchecked version silently produces 0
            /// or a saturated extreme and drifts accounting identities.
            pub fn try_from_units_f64(u: f64) -> Option<Self> {
                let micros = u * MICROS_PER_UNIT as f64;
                if !micros.is_finite() {
                    return None;
                }
                let rounded = micros.round();
                if rounded < i64::MIN as f64 || rounded >= i64::MAX as f64 {
                    return None;
                }
                Some($name(rounded as i64))
            }

            /// True if strictly negative.
            pub fn is_negative(self) -> bool {
                self.0 < 0
            }

            /// The smaller amount.
            pub fn min(self, o: Self) -> Self {
                $name(self.0.min(o.0))
            }

            /// The larger amount.
            pub fn max(self, o: Self) -> Self {
                $name(self.0.max(o.0))
            }
        }

        impl Add for $name {
            type Output = $name;
            fn add(self, o: Self) -> Self {
                $name(self.0 + o.0)
            }
        }
        impl AddAssign for $name {
            fn add_assign(&mut self, o: Self) {
                self.0 += o.0;
            }
        }
        impl Sub for $name {
            type Output = $name;
            fn sub(self, o: Self) -> Self {
                $name(self.0 - o.0)
            }
        }
        impl SubAssign for $name {
            fn sub_assign(&mut self, o: Self) {
                self.0 -= o.0;
            }
        }
        impl Neg for $name {
            type Output = $name;
            fn neg(self) -> Self {
                $name(-self.0)
            }
        }
        impl Sum for $name {
            fn sum<I: Iterator<Item = $name>>(iter: I) -> Self {
                $name(iter.map(|m| m.0).sum())
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{:.2}", $sym, self.as_units_f64())
            }
        }
        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, "{}{:.2}", $sym, self.as_units_f64())
            }
        }
    };
}

currency!(
    /// A Dollar amount in micro-dollars (pay-for-use market, §5.5.1).
    Money,
    "$"
);
currency!(
    /// Service Units in micro-SUs (academic allocations, §5.5.2; bartering
    /// credits, §5.5.3).
    ServiceUnits,
    "SU "
);

impl Money {
    /// Price for `cpu_seconds` of compute at `rate` dollars per CPU-second
    /// scaled by a bid `multiplier` — the paper's bid-to-dollar conversion:
    /// *"the bid is converted to Dollar amount by multiplying the
    /// CPU-seconds needed for the job with a normalized cost and the
    /// multiplier returned by the bidding algorithm."*
    pub fn for_cpu_seconds(cpu_seconds: f64, rate: Money, multiplier: f64) -> Money {
        rate.mul_f64(cpu_seconds * multiplier)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_round_trips() {
        assert_eq!(Money::from_units(3).micros(), 3_000_000);
        assert_eq!(Money::from_units_f64(1.5), Money(1_500_000));
        assert!((ServiceUnits::from_units(2).as_units_f64() - 2.0).abs() < 1e-12);
    }

    #[test]
    fn arithmetic_and_conservation() {
        let a = Money::from_units(10);
        let b = Money::from_units_f64(0.25);
        assert_eq!(a + b - b, a);
        assert_eq!(-(a - a), Money::ZERO);
        let total: Money = [a, b, -b].into_iter().sum();
        assert_eq!(total, a);
    }

    #[test]
    fn mul_f64_rounds_to_micro() {
        let m = Money(10);
        assert_eq!(m.mul_f64(0.26), Money(3));
    }

    #[test]
    fn bid_to_dollar_conversion() {
        // 3600 CPU-seconds at $0.01/cpu-s with multiplier 1.4 = $50.40.
        let price = Money::for_cpu_seconds(3600.0, Money::from_units_f64(0.01), 1.4);
        assert_eq!(price, Money::from_units_f64(50.40));
    }

    #[test]
    fn display() {
        assert_eq!(Money::from_units_f64(12.5).to_string(), "$12.50");
        assert_eq!(ServiceUnits::from_units(3).to_string(), "SU 3.00");
        assert_eq!(Money::from_units(-2).to_string(), "$-2.00");
    }

    #[test]
    fn try_from_units_rejects_non_finite_and_overflow() {
        assert_eq!(
            ServiceUnits::try_from_units_f64(1.5),
            Some(ServiceUnits(1_500_000))
        );
        assert_eq!(ServiceUnits::try_from_units_f64(f64::NAN), None);
        assert_eq!(ServiceUnits::try_from_units_f64(f64::INFINITY), None);
        assert_eq!(ServiceUnits::try_from_units_f64(1e15), None);
        // Boundary: the largest whole-unit value that still fits.
        assert!(ServiceUnits::try_from_units_f64(9.2e12).is_some());
    }

    #[test]
    fn negativity_and_minmax() {
        assert!(Money(-1).is_negative());
        assert!(!Money::ZERO.is_negative());
        assert_eq!(Money(3).min(Money(5)), Money(3));
        assert_eq!(Money(3).max(Money(5)), Money(5));
    }
}
