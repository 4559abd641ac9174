//! Cost models for adaptive-job operations (§4) and checkpoint/migration
//! (§3, §4.1).
//!
//! Shrinking or expanding an adaptive job is not free: the Charm++ load
//! balancer must migrate objects, AMPI must redistribute ranks. We model the
//! pause as `fixed + per_pe_moved × |Δpes| + per_mb × memory_moved`, with
//! the defaults calibrated to the seconds-scale overheads reported in the
//! malleable-jobs paper \[15\]. Experiments E2/E4 sweep a multiplier over this
//! model (0×, 1×, 10×) as the resize-overhead ablation.

use faucets_core::qos::QosContract;
use faucets_sim::time::SimDuration;
use serde::{Deserialize, Serialize};

/// Latency model for shrink/expand operations.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ResizeCostModel {
    /// Fixed barrier/coordination cost per resize, seconds.
    pub fixed_secs: f64,
    /// Cost per processor added or removed, seconds.
    pub per_pe_moved_secs: f64,
    /// Cost per MB of application state redistributed, seconds.
    pub per_mb_secs: f64,
    /// Global multiplier for ablations (1.0 = calibrated default).
    pub scale: f64,
}

impl Default for ResizeCostModel {
    fn default() -> Self {
        // [15] reports sub-second to few-second shrink/expand on Charm++
        // clusters of the era; 0.5 s fixed + 10 ms/PE + 2 ms/MB lands there.
        ResizeCostModel {
            fixed_secs: 0.5,
            per_pe_moved_secs: 0.01,
            per_mb_secs: 0.002,
            scale: 1.0,
        }
    }
}

impl ResizeCostModel {
    /// A zero-cost model (the "free resize" ablation bound).
    pub fn free() -> Self {
        ResizeCostModel {
            fixed_secs: 0.0,
            per_pe_moved_secs: 0.0,
            per_mb_secs: 0.0,
            scale: 1.0,
        }
    }

    /// Scale the whole model (ablation knob).
    pub fn scaled(mut self, scale: f64) -> Self {
        self.scale = scale;
        self
    }

    /// The pause incurred when resizing `qos`'s job from `old_pes` to
    /// `new_pes`.
    pub fn pause(&self, qos: &QosContract, old_pes: u32, new_pes: u32) -> SimDuration {
        if old_pes == new_pes {
            return SimDuration::ZERO;
        }
        let moved = old_pes.abs_diff(new_pes) as f64;
        // State redistributed ≈ memory held on the processors that changed.
        let mb_moved = qos.mem_per_pe_mb as f64 * moved;
        let secs = (self.fixed_secs + self.per_pe_moved_secs * moved + self.per_mb_secs * mb_moved)
            * self.scale;
        SimDuration::from_secs_f64(secs)
    }
}

/// Cost model for checkpointing a job (for restart or migration).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CheckpointCostModel {
    /// Sustained checkpoint bandwidth to stable storage, MB/s.
    pub write_mb_per_sec: f64,
    /// Restart read bandwidth, MB/s.
    pub read_mb_per_sec: f64,
    /// Fixed coordination cost per operation, seconds.
    pub fixed_secs: f64,
    /// Wide-area transfer bandwidth for migration between clusters, MB/s.
    pub wan_mb_per_sec: f64,
}

impl Default for CheckpointCostModel {
    fn default() -> Self {
        CheckpointCostModel {
            write_mb_per_sec: 200.0,
            read_mb_per_sec: 400.0,
            fixed_secs: 2.0,
            wan_mb_per_sec: 20.0,
        }
    }
}

impl CheckpointCostModel {
    /// Total checkpoint image size for a job on `pes` processors, MB.
    pub fn image_mb(&self, qos: &QosContract, pes: u32) -> u64 {
        qos.mem_per_pe_mb * pes as u64
    }

    /// Time to write a checkpoint.
    pub fn checkpoint_time(&self, qos: &QosContract, pes: u32) -> SimDuration {
        SimDuration::from_secs_f64(
            self.fixed_secs + self.image_mb(qos, pes) as f64 / self.write_mb_per_sec,
        )
    }

    /// Time to restart from a local checkpoint.
    pub fn restart_time(&self, qos: &QosContract, pes: u32) -> SimDuration {
        SimDuration::from_secs_f64(
            self.fixed_secs + self.image_mb(qos, pes) as f64 / self.read_mb_per_sec,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faucets_core::qos::QosBuilder;

    fn qos() -> QosContract {
        QosBuilder::new("app", 8, 64, 1000.0)
            .mem_per_pe_mb(100)
            .build()
            .unwrap()
    }

    #[test]
    fn resize_cost_grows_with_delta() {
        let m = ResizeCostModel::default();
        let small = m.pause(&qos(), 32, 30);
        let large = m.pause(&qos(), 64, 8);
        assert!(large > small);
        assert_eq!(m.pause(&qos(), 32, 32), SimDuration::ZERO);
    }

    #[test]
    fn resize_cost_formula() {
        let m = ResizeCostModel {
            fixed_secs: 1.0,
            per_pe_moved_secs: 0.1,
            per_mb_secs: 0.01,
            scale: 1.0,
        };
        // Δ=10 pes, 100 MB/pe → 1 + 1 + 10 = 12 s.
        assert_eq!(m.pause(&qos(), 20, 30), SimDuration::from_secs(12));
    }

    #[test]
    fn scale_ablation() {
        let base = ResizeCostModel::default();
        let x10 = ResizeCostModel::default().scaled(10.0);
        let p1 = base.pause(&qos(), 8, 64).as_secs_f64();
        let p10 = x10.pause(&qos(), 8, 64).as_secs_f64();
        assert!((p10 / p1 - 10.0).abs() < 1e-9);
        assert_eq!(
            ResizeCostModel::free().pause(&qos(), 8, 64),
            SimDuration::ZERO
        );
    }

    #[test]
    fn checkpoint_times_scale_with_image() {
        let m = CheckpointCostModel::default();
        assert_eq!(m.image_mb(&qos(), 10), 1000);
        let small = m.checkpoint_time(&qos(), 8);
        let big = m.checkpoint_time(&qos(), 64);
        assert!(big > small);
        // Restart reads faster than checkpoint writes.
        assert!(m.restart_time(&qos(), 64) < m.checkpoint_time(&qos(), 64));
    }
}
