//! Contract history and grid "weather" (§5.2.1).
//!
//! *"The Faucets system will provide such global information to Compute
//! Servers … maintaining a history of every individual contract over recent
//! time periods, summaries based on various histogram metrics (e.g.,
//! grouping jobs based on the minimum or maximum number of processors they
//! need), trends for future usage …"*
//!
//! [`ContractHistory`] retains a sliding window of settled contracts and
//! derives the [`MarketInfo`] snapshot handed to bid-generation algorithms:
//! a recency-weighted average multiplier (the price index).

use crate::ids::{ClusterId, JobId};
use crate::market::strategy::MarketInfo;
use crate::money::Money;
use faucets_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// One settled contract as remembered by the history service.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ContractRecord {
    /// The job.
    pub job: JobId,
    /// Executing cluster.
    pub cluster: ClusterId,
    /// The winning multiplier.
    pub multiplier: f64,
    /// Settled price.
    pub price: Money,
    /// CPU-seconds of work contracted.
    pub cpu_seconds: f64,
    /// The job's minimum processor requirement (histogram key).
    pub min_pes: u32,
    /// When the contract settled.
    pub at: SimTime,
}

/// The sliding-window contract history service.
#[derive(Debug, Clone)]
pub struct ContractHistory {
    window: SimDuration,
    records: VecDeque<ContractRecord>,
    /// Exponentially weighted average multiplier (the price index).
    ewma_multiplier: Option<f64>,
    /// EWMA smoothing factor in (0, 1].
    ewma_alpha: f64,
    total_recorded: u64,
}

impl ContractHistory {
    /// A history retaining contracts settled within the last `window`.
    pub fn new(window: SimDuration) -> Self {
        ContractHistory {
            window,
            records: VecDeque::new(),
            ewma_multiplier: None,
            ewma_alpha: 0.05,
            total_recorded: 0,
        }
    }

    /// Record a settled contract.
    pub fn record(&mut self, rec: ContractRecord) {
        self.ewma_multiplier = Some(match self.ewma_multiplier {
            None => rec.multiplier,
            Some(prev) => prev + self.ewma_alpha * (rec.multiplier - prev),
        });
        self.records.push_back(rec);
        self.total_recorded += 1;
        self.expire(rec.at);
    }

    /// Drop records older than the window relative to `now`.
    pub fn expire(&mut self, now: SimTime) {
        let cutoff = now.since(SimTime::ZERO).saturating_sub(self.window);
        let cutoff = SimTime(cutoff.as_micros());
        while self.records.front().is_some_and(|r| r.at < cutoff) {
            self.records.pop_front();
        }
    }

    /// Number of records currently in the window.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True if no records are in the window.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Contracts ever recorded.
    pub fn total_recorded(&self) -> u64 {
        self.total_recorded
    }

    /// The recency-weighted price index, if any contracts have settled.
    pub fn price_index(&self) -> Option<f64> {
        self.ewma_multiplier
    }

    /// The plain average multiplier over the window.
    pub fn window_avg_multiplier(&self) -> Option<f64> {
        if self.records.is_empty() {
            return None;
        }
        Some(self.records.iter().map(|r| r.multiplier).sum::<f64>() / self.records.len() as f64)
    }

    /// The market snapshot handed to bidding algorithms.
    pub fn market_info(&self, grid_utilization: Option<f64>) -> MarketInfo {
        MarketInfo {
            recent_avg_multiplier: self.price_index(),
            grid_utilization,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_secs: u64, multiplier: f64, min_pes: u32, cpu: f64) -> ContractRecord {
        ContractRecord {
            job: JobId(at_secs),
            cluster: ClusterId(0),
            multiplier,
            price: Money::from_units(1),
            cpu_seconds: cpu,
            min_pes,
            at: SimTime::from_secs(at_secs),
        }
    }

    #[test]
    fn price_index_tracks_multipliers() {
        let mut h = ContractHistory::new(SimDuration::from_hours(24));
        assert!(h.price_index().is_none());
        h.record(rec(1, 2.0, 4, 100.0));
        assert_eq!(h.price_index(), Some(2.0));
        // Feeding a long run of 1.0 pulls the EWMA toward 1.0.
        for t in 2..500 {
            h.record(rec(t, 1.0, 4, 100.0));
        }
        let idx = h.price_index().unwrap();
        assert!((idx - 1.0).abs() < 0.01, "ewma should converge, got {idx}");
    }

    #[test]
    fn window_expiry() {
        let mut h = ContractHistory::new(SimDuration::from_secs(100));
        h.record(rec(10, 1.0, 4, 1.0));
        h.record(rec(70, 1.0, 4, 1.0));
        assert_eq!(h.len(), 2);
        h.record(rec(160, 1.0, 4, 1.0)); // expires the t=10 record (cutoff 60)
        assert_eq!(h.len(), 2);
        h.expire(SimTime::from_secs(300));
        assert_eq!(h.len(), 0);
        assert!(h.is_empty());
        assert_eq!(h.total_recorded(), 3);
    }

    #[test]
    fn market_info_snapshot() {
        let mut h = ContractHistory::new(SimDuration::from_hours(1));
        h.record(rec(1, 1.5, 4, 1.0));
        let info = h.market_info(Some(0.8));
        assert_eq!(info.recent_avg_multiplier, Some(1.5));
        assert_eq!(info.grid_utilization, Some(0.8));
    }

    #[test]
    fn window_avg_is_unweighted() {
        let mut h = ContractHistory::new(SimDuration::from_hours(1));
        h.record(rec(1, 1.0, 4, 1.0));
        h.record(rec(2, 3.0, 4, 1.0));
        assert_eq!(h.window_avg_multiplier(), Some(2.0));
    }
}
