//! Jobs and their lifecycle.
//!
//! A [`JobSpec`] is what a client submits: identity, QoS contract, and
//! submission metadata; a [`JobOutcome`] is what a finished job leaves for
//! metrics and billing.

use crate::ids::{ClusterId, JobId, UserId};
use crate::qos::QosContract;
use faucets_sim::time::SimTime;
use serde::{Deserialize, Serialize};

/// A job as submitted to the grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobSpec {
    /// Grid-wide job identity.
    pub id: JobId,
    /// Submitting user.
    pub user: UserId,
    /// The quality-of-service contract.
    pub qos: QosContract,
    /// Submission time.
    pub submitted_at: SimTime,
}

impl JobSpec {
    /// Construct and validate a job spec.
    pub fn new(
        id: JobId,
        user: UserId,
        qos: QosContract,
        submitted_at: SimTime,
    ) -> Result<Self, String> {
        qos.validate()?;
        Ok(JobSpec {
            id,
            user,
            qos,
            submitted_at,
        })
    }
}

/// Outcome record for a finished job, used by metrics and billing.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct JobOutcome {
    /// The job.
    pub job: JobId,
    /// Executing cluster (last one, for migrated jobs).
    pub cluster: ClusterId,
    /// Submission time.
    pub submitted_at: SimTime,
    /// Start of first execution.
    pub started_at: SimTime,
    /// Completion time.
    pub completed_at: SimTime,
    /// Whether it met its hard deadline.
    pub met_deadline: bool,
}

impl JobOutcome {
    /// Response time: submission to completion.
    pub fn response_secs(&self) -> f64 {
        self.completed_at.since(self.submitted_at).as_secs_f64()
    }

    /// Wait time: submission to first start.
    pub fn wait_secs(&self) -> f64 {
        self.started_at.since(self.submitted_at).as_secs_f64()
    }

    /// Bounded slowdown with the conventional 10-second floor on runtime.
    pub fn bounded_slowdown(&self) -> f64 {
        let run = self.completed_at.since(self.started_at).as_secs_f64();
        let denom = run.max(10.0);
        (self.wait_secs() + run) / denom
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;
    use crate::qos::{PayoffFn, QosBuilder};

    fn spec() -> JobSpec {
        let qos = QosBuilder::new("namd", 4, 16, 100.0)
            .payoff(PayoffFn::flat(Money::from_units(10)))
            .build()
            .unwrap();
        JobSpec::new(JobId(1), UserId(2), qos, SimTime::ZERO).unwrap()
    }

    #[test]
    fn spec_validates_qos() {
        let mut qos = spec().qos;
        qos.min_pes = 0;
        assert!(JobSpec::new(JobId(1), UserId(2), qos, SimTime::ZERO).is_err());
    }

    #[test]
    fn outcome_metrics() {
        let o = JobOutcome {
            job: JobId(1),
            cluster: ClusterId(1),
            submitted_at: SimTime::from_secs(0),
            started_at: SimTime::from_secs(60),
            completed_at: SimTime::from_secs(160),
            met_deadline: true,
        };
        assert!((o.response_secs() - 160.0).abs() < 1e-9);
        assert!((o.wait_secs() - 60.0).abs() < 1e-9);
        assert!((o.bounded_slowdown() - 1.6).abs() < 1e-9);
    }

    #[test]
    fn bounded_slowdown_floors_short_jobs() {
        let o = JobOutcome {
            job: JobId(1),
            cluster: ClusterId(1),
            submitted_at: SimTime::from_secs(0),
            started_at: SimTime::from_secs(5),
            completed_at: SimTime::from_secs(6), // 1s runtime
            met_deadline: true,
        };
        // (5 + 1) / max(1, 10) = 0.6
        assert!((o.bounded_slowdown() - 0.6).abs() < 1e-9);
    }
}
