//! Payoff functions: what a job pays as a function of its completion time.
//!
//! §2.1 (experimental feature) and §4.1: *"Such jobs typically have a soft
//! deadline, and a hard deadline. The payoff for the job linearly decreases
//! after the soft deadline, and may have a significant penalty after the
//! hard deadline."* The payoff is specified as (payoff at soft deadline,
//! payoff at hard deadline, penalty after deadline), with linear
//! interpolation between the soft and hard deadlines.

use crate::money::Money;
use faucets_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// A piecewise-linear payoff-vs-completion-time function.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PayoffFn {
    /// Completing at or before this time earns the full payoff.
    pub soft_deadline: SimTime,
    /// Completing at this time earns `payoff_hard`; the payoff decreases
    /// linearly from the soft to the hard deadline.
    pub hard_deadline: SimTime,
    /// Payoff for completion at or before the soft deadline.
    pub payoff_soft: Money,
    /// Payoff for completion exactly at the hard deadline.
    pub payoff_hard: Money,
    /// Amount *charged to the Compute Server* for completion after the hard
    /// deadline (a "significant penalty"); non-negative.
    pub penalty_late: Money,
}

impl PayoffFn {
    /// A flat payoff with a single hard deadline: full value up to
    /// `deadline`, penalty afterwards.
    pub fn hard_only(deadline: SimTime, payoff: Money, penalty: Money) -> Self {
        PayoffFn {
            soft_deadline: deadline,
            hard_deadline: deadline,
            payoff_soft: payoff,
            payoff_hard: payoff,
            penalty_late: penalty,
        }
    }

    /// A payoff with no deadline pressure at all: `payoff` whenever the job
    /// completes (soft/hard deadlines at infinity).
    pub fn flat(payoff: Money) -> Self {
        PayoffFn {
            soft_deadline: SimTime::MAX,
            hard_deadline: SimTime::MAX,
            payoff_soft: payoff,
            payoff_hard: payoff,
            penalty_late: Money::ZERO,
        }
    }

    /// Validate the shape: soft ≤ hard, payoffs ordered, penalty ≥ 0.
    pub fn validate(&self) -> Result<(), String> {
        if self.soft_deadline > self.hard_deadline {
            return Err(format!(
                "soft deadline {} after hard deadline {}",
                self.soft_deadline, self.hard_deadline
            ));
        }
        if self.payoff_hard > self.payoff_soft {
            return Err("payoff at hard deadline exceeds payoff at soft deadline".into());
        }
        if self.penalty_late.is_negative() {
            return Err("late penalty must be non-negative".into());
        }
        Ok(())
    }

    /// The payoff earned (or penalty owed, negative) for completing at
    /// `completion`.
    pub fn payoff_at(&self, completion: SimTime) -> Money {
        if completion <= self.soft_deadline {
            self.payoff_soft
        } else if completion <= self.hard_deadline {
            // Linear interpolation between the two deadlines.
            let span = self.hard_deadline - self.soft_deadline;
            if span.is_zero() {
                self.payoff_hard
            } else {
                let t = (completion - self.soft_deadline) / span;
                self.payoff_soft + (self.payoff_hard - self.payoff_soft).mul_f64(t)
            }
        } else {
            -self.penalty_late
        }
    }

    /// True if completing at `completion` earns a non-negative payoff.
    pub fn is_profitable_at(&self, completion: SimTime) -> bool {
        !self.payoff_at(completion).is_negative()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn f() -> PayoffFn {
        PayoffFn {
            soft_deadline: SimTime::from_secs(100),
            hard_deadline: SimTime::from_secs(200),
            payoff_soft: Money::from_units(100),
            payoff_hard: Money::from_units(40),
            penalty_late: Money::from_units(25),
        }
    }

    #[test]
    fn full_payoff_before_soft_deadline() {
        assert_eq!(f().payoff_at(SimTime::ZERO), Money::from_units(100));
        assert_eq!(
            f().payoff_at(SimTime::from_secs(100)),
            Money::from_units(100)
        );
    }

    #[test]
    fn linear_interpolation_between_deadlines() {
        // Halfway: 100 + 0.5*(40-100) = 70.
        assert_eq!(
            f().payoff_at(SimTime::from_secs(150)),
            Money::from_units(70)
        );
        assert_eq!(
            f().payoff_at(SimTime::from_secs(200)),
            Money::from_units(40)
        );
        // Monotone non-increasing inside the window.
        let mut prev = f().payoff_at(SimTime::from_secs(100));
        for s in 101..=200 {
            let v = f().payoff_at(SimTime::from_secs(s));
            assert!(v <= prev, "payoff increased at {s}");
            prev = v;
        }
    }

    #[test]
    fn penalty_after_hard_deadline() {
        let p = f().payoff_at(SimTime::from_secs(201));
        assert_eq!(p, Money::from_units(-25));
        assert!(!f().is_profitable_at(SimTime::from_secs(300)));
        assert!(f().is_profitable_at(SimTime::from_secs(199)));
    }

    #[test]
    fn hard_only_steps() {
        let h = PayoffFn::hard_only(
            SimTime::from_secs(50),
            Money::from_units(10),
            Money::from_units(5),
        );
        assert_eq!(h.payoff_at(SimTime::from_secs(50)), Money::from_units(10));
        assert_eq!(h.payoff_at(SimTime::from_secs(51)), Money::from_units(-5));
        assert!(h.validate().is_ok());
    }

    #[test]
    fn flat_never_expires() {
        let p = PayoffFn::flat(Money::from_units(7));
        assert_eq!(p.payoff_at(SimTime::MAX), Money::from_units(7));
        assert!(p.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_shapes() {
        let mut bad = f();
        bad.soft_deadline = SimTime::from_secs(300);
        assert!(bad.validate().is_err());

        let mut bad = f();
        bad.payoff_hard = Money::from_units(200);
        assert!(bad.validate().is_err());

        let mut bad = f();
        bad.penalty_late = Money::from_units(-1);
        assert!(bad.validate().is_err());

        assert!(f().validate().is_ok());
    }
}
