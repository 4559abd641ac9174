//! The running-job execution model.
//!
//! This replaces the Charm++/AMPI runtime of the paper's adaptive jobs (§4)
//! with a work integrator: a job is a reservoir of CPU-seconds drained at
//! `pes × efficiency(pes)` per wall-clock second. Shrinks and expansions
//! change the drain rate mid-flight; resize/checkpoint latency pauses the
//! drain. The scheduler only ever observes the drain rate and the pause
//! lengths, which is exactly the interface the paper's schedulers consume.

use faucets_core::ids::{ContractId, JobId};
use faucets_core::job::JobSpec;
use faucets_core::money::Money;
use faucets_sim::time::{SimDuration, SimTime};

/// A job currently holding processors.
#[derive(Debug, Clone)]
pub struct RunningJob {
    /// The job's spec (QoS, identity).
    pub spec: JobSpec,
    /// The contract being fulfilled.
    pub contract: ContractId,
    /// The price agreed in the winning bid.
    pub price: Money,
    /// Current processor allocation.
    pes: u32,
    /// CPU-seconds of work still to do (on this machine's reference speed).
    remaining: f64,
    /// Clock position of the integrator.
    last_update: SimTime,
    /// Work does not progress before this instant (resize/checkpoint pause).
    resume_at: SimTime,
    /// When the job first started executing.
    pub started_at: SimTime,
    /// Number of resizes performed (for reports).
    pub resizes: u32,
}

impl RunningJob {
    /// Start a job at `now` on `pes` processors on a machine with the given
    /// per-PE speed.
    pub fn start(
        spec: JobSpec,
        contract: ContractId,
        price: Money,
        pes: u32,
        flops_per_pe_sec: f64,
        now: SimTime,
    ) -> Self {
        debug_assert!(pes >= spec.qos.min_pes && pes <= spec.qos.max_pes);
        let remaining = spec.qos.cpu_seconds(flops_per_pe_sec);
        RunningJob {
            spec,
            contract,
            price,
            pes,
            remaining,
            last_update: now,
            resume_at: now,
            started_at: now,
            resizes: 0,
        }
    }

    /// Current processor count.
    pub fn pes(&self) -> u32 {
        self.pes
    }

    /// The job id.
    pub fn id(&self) -> JobId {
        self.spec.id
    }

    /// CPU-seconds of useful work per wall second at the current size.
    fn rate(&self) -> f64 {
        self.spec
            .qos
            .speedup
            .work_rate(self.pes, self.spec.qos.min_pes, self.spec.qos.max_pes)
    }

    /// Advance the integrator to `now`, draining work for the elapsed time
    /// (excluding any paused prefix).
    pub fn advance(&mut self, now: SimTime) {
        debug_assert!(now >= self.last_update, "integrator must move forward");
        let active_from = self.last_update.max(self.resume_at);
        if now > active_from {
            let dt = (now - active_from).as_secs_f64();
            self.remaining = (self.remaining - dt * self.rate()).max(0.0);
        }
        self.last_update = now;
    }

    /// CPU-seconds of work remaining (advance first for an up-to-date view).
    pub fn remaining_work(&self) -> f64 {
        self.remaining
    }

    /// Is the job finished as of the integrator position?
    pub fn is_done(&self) -> bool {
        self.remaining <= 1e-9
    }

    /// Estimated completion time from `now`, accounting for any pause.
    pub fn est_finish(&self, now: SimTime) -> SimTime {
        let start = now.max(self.resume_at).max(self.last_update);
        let rate = self.rate();
        if self.remaining <= 0.0 {
            return start;
        }
        if rate <= 0.0 {
            return SimTime::MAX;
        }
        // Ceil to the next microsecond so that advancing the integrator to
        // the returned instant always drains the job completely — otherwise
        // a round-down leaves an infinitesimal residue and the completion
        // event re-fires at the same timestamp forever.
        start.saturating_add(SimDuration((self.remaining / rate * 1e6).ceil() as u64))
    }

    /// Resize to `new_pes` at `now`, paying `pause` of stopped progress (the
    /// load-balancing/migration overhead of the adaptive runtime).
    /// The caller must have advanced the allocator; sizes are clamped to the
    /// QoS range.
    pub fn resize(&mut self, now: SimTime, new_pes: u32, pause: SimDuration) {
        self.advance(now);
        let clamped = new_pes.clamp(self.spec.qos.min_pes, self.spec.qos.max_pes);
        if clamped != self.pes {
            self.pes = clamped;
            self.resizes += 1;
            self.resume_at = now.saturating_add(pause);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faucets_core::ids::UserId;
    use faucets_core::qos::{QosBuilder, SpeedupModel};

    fn job(min: u32, max: u32, work: f64) -> JobSpec {
        let qos = QosBuilder::new("app", min, max, work)
            .speedup(SpeedupModel::Perfect)
            .adaptive()
            .build()
            .unwrap();
        JobSpec::new(JobId(1), UserId(1), qos, SimTime::ZERO).unwrap()
    }

    fn running(pes: u32) -> RunningJob {
        RunningJob::start(
            job(1, 100, 1000.0),
            ContractId(0),
            Money::ZERO,
            pes,
            1.0,
            SimTime::ZERO,
        )
    }

    #[test]
    fn drains_at_rate() {
        let mut r = running(10);
        // 1000 cpu-s at 10 pes perfect = 100 s wall.
        assert_eq!(r.est_finish(SimTime::ZERO), SimTime::from_secs(100));
        r.advance(SimTime::from_secs(40));
        assert!((r.remaining_work() - 600.0).abs() < 1e-6);
        assert!(!r.is_done());
        r.advance(SimTime::from_secs(100));
        assert!(r.is_done());
    }

    #[test]
    fn shrink_slows_completion() {
        let mut r = running(10);
        r.resize(SimTime::from_secs(50), 5, SimDuration::ZERO);
        // 500 cpu-s left at 5 pes = 100 more seconds.
        assert_eq!(
            r.est_finish(SimTime::from_secs(50)),
            SimTime::from_secs(150)
        );
        assert_eq!(r.pes(), 5);
        assert_eq!(r.resizes, 1);
    }

    #[test]
    fn expand_speeds_completion() {
        let mut r = running(10);
        r.resize(SimTime::from_secs(50), 50, SimDuration::ZERO);
        // 500 cpu-s at 50 pes = 10 more seconds.
        assert_eq!(r.est_finish(SimTime::from_secs(50)), SimTime::from_secs(60));
    }

    #[test]
    fn resize_pause_stalls_progress() {
        let mut r = running(10);
        r.resize(SimTime::from_secs(50), 20, SimDuration::from_secs(5));
        // No progress during [50, 55): remaining still 500 at t=55.
        r.advance(SimTime::from_secs(55));
        assert!((r.remaining_work() - 500.0).abs() < 1e-6);
        // 500 cpu-s at 20 pes = 25 s after the pause ends.
        assert_eq!(r.est_finish(SimTime::from_secs(55)), SimTime::from_secs(80));
    }

    #[test]
    fn resize_clamps_to_qos_range() {
        let mut r = running(10);
        r.resize(SimTime::from_secs(1), 100_000, SimDuration::ZERO);
        assert_eq!(r.pes(), 100);
        r.resize(SimTime::from_secs(2), 0, SimDuration::ZERO);
        assert_eq!(r.pes(), 1);
    }

    #[test]
    fn resize_to_same_size_is_free() {
        let mut r = running(10);
        r.resize(SimTime::from_secs(10), 10, SimDuration::from_secs(60));
        assert_eq!(r.resizes, 0, "no-op resize should not pause or count");
        assert_eq!(
            r.est_finish(SimTime::from_secs(10)),
            SimTime::from_secs(100)
        );
    }

    #[test]
    fn efficiency_model_affects_rate() {
        let qos = QosBuilder::new("app", 10, 100, 1000.0)
            .efficiency(1.0, 0.5)
            .adaptive()
            .build()
            .unwrap();
        let spec = JobSpec::new(JobId(2), UserId(1), qos, SimTime::ZERO).unwrap();
        let r = RunningJob::start(spec, ContractId(0), Money::ZERO, 100, 1.0, SimTime::ZERO);
        // At 100 pes, eff 0.5 → rate 50 → 20 s.
        assert_eq!(r.est_finish(SimTime::ZERO), SimTime::from_secs(20));
    }
}
