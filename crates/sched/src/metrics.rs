//! Per-cluster metrics: utilization, responsiveness, and profit.
//!
//! These are the utility metrics of §4.1 (*"system utilization, job
//! response time, or a more complex profit metric"*) that the experiments
//! report for every scheduler and bid strategy.

use faucets_core::job::JobOutcome;
use faucets_core::money::Money;
use faucets_sim::stats::{Summary, TimeWeighted};
use faucets_sim::time::SimTime;

/// Streaming metrics for one Compute Server.
#[derive(Debug, Clone)]
pub struct ClusterMetrics {
    total_pes: u32,
    /// Busy-processor step function over time.
    busy: TimeWeighted,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs rejected (by admission or infeasibility).
    pub rejected: u64,
    /// Completions after the hard deadline.
    pub deadline_misses: u64,
    /// Response times (submit → complete), seconds.
    pub response: Summary,
    /// Wait times (submit → start), seconds.
    pub wait: Summary,
    /// Bounded slowdowns.
    pub slowdown: Summary,
    /// Revenue at contracted bid prices.
    pub revenue_price: Money,
    /// Revenue under the payoff functions (§4.1 profit metric; penalties
    /// subtract).
    pub revenue_payoff: Money,
    /// Resize operations performed.
    pub resizes: u64,
}

impl ClusterMetrics {
    /// Metrics for a machine of `total_pes`, starting idle at `t0`.
    pub fn new(total_pes: u32, t0: SimTime) -> Self {
        ClusterMetrics {
            total_pes,
            busy: TimeWeighted::new(t0, 0.0),
            completed: 0,
            rejected: 0,
            deadline_misses: 0,
            response: Summary::new(),
            wait: Summary::new(),
            slowdown: Summary::new(),
            revenue_price: Money::ZERO,
            revenue_payoff: Money::ZERO,
            resizes: 0,
        }
    }

    /// Record that the busy-processor count changed to `busy_pes` at `now`.
    pub fn set_busy(&mut self, now: SimTime, busy_pes: u32) {
        self.busy.update(now, busy_pes as f64);
    }

    /// Record a completed job.
    pub fn record_outcome(&mut self, o: &JobOutcome, price: Money, payoff: Money) {
        self.completed += 1;
        if !o.met_deadline {
            self.deadline_misses += 1;
        }
        self.response.record(o.response_secs());
        self.wait.record(o.wait_secs());
        self.slowdown.record(o.bounded_slowdown());
        self.revenue_price += price;
        self.revenue_payoff += payoff;
    }

    /// Mean utilization (busy fraction of the machine) up to `now` (clamped
    /// forward to the last recorded change, so asking "as of the horizon"
    /// after a run drained past it is safe).
    pub fn utilization(&mut self, now: SimTime) -> f64 {
        if self.total_pes == 0 {
            return 0.0;
        }
        let until = now.max(self.busy.last_time());
        self.busy.mean_until(until) / self.total_pes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faucets_core::ids::{ClusterId, JobId};

    fn outcome(submit: u64, start: u64, done: u64, met: bool) -> JobOutcome {
        JobOutcome {
            job: JobId(1),
            cluster: ClusterId(1),
            submitted_at: SimTime::from_secs(submit),
            started_at: SimTime::from_secs(start),
            completed_at: SimTime::from_secs(done),
            met_deadline: met,
        }
    }

    #[test]
    fn utilization_time_weighted() {
        let mut m = ClusterMetrics::new(100, SimTime::ZERO);
        m.set_busy(SimTime::from_secs(10), 50); // idle for 10 s
        m.set_busy(SimTime::from_secs(30), 0); // 50 busy for 20 s
                                               // Integral = 1000 pe·s over 30 s on 100 pes → 1/3.
        let u = m.utilization(SimTime::from_secs(30));
        assert!((u - 1.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn outcome_accounting() {
        let mut m = ClusterMetrics::new(10, SimTime::ZERO);
        m.record_outcome(
            &outcome(0, 10, 110, true),
            Money::from_units(5),
            Money::from_units(8),
        );
        m.record_outcome(
            &outcome(0, 0, 50, false),
            Money::from_units(5),
            Money::from_units(-2),
        );
        assert_eq!(m.completed, 2);
        assert_eq!(m.deadline_misses, 1);
        assert_eq!(m.revenue_price, Money::from_units(10));
        assert_eq!(m.revenue_payoff, Money::from_units(6));
        assert!((m.response.mean() - 80.0).abs() < 1e-9);
        assert!((m.wait.mean() - 5.0).abs() < 1e-9);
    }
}
