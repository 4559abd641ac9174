//! The Cluster Manager: the "Adaptive Queueing System aka Scheduler" of
//! Figure 1.
//!
//! A [`Cluster`] owns the machine's allocator, the running set, the local
//! queue, and a pluggable [`SchedPolicy`]; it implements
//! [`faucets_core::daemon::ClusterManager`] so a Faucets Daemon can mediate
//! for it. The event-driven contract with a driver (the grid simulation or
//! a live service) is:
//!
//! 1. call [`Cluster::submit`] when a contracted job arrives,
//! 2. ask [`Cluster::next_completion`] for the next interesting instant and
//!    arrange to call [`Cluster::on_time`] then (re-arming after every
//!    interaction, since resizes move completion times).

use crate::adaptive::{CheckpointCostModel, ResizeCostModel};
use crate::allocation::Allocator;
use crate::machine::MachineSpec;
use crate::metrics::ClusterMetrics;
use crate::policy::{Action, QueuedJob, SchedContext, SchedPolicy};
use crate::running::RunningJob;
use faucets_core::bid::{BidRequest, DeclineReason};
use faucets_core::daemon::{ClusterManager, SchedulerQuote};
use faucets_core::directory::ServerStatus;
use faucets_core::error::Result;
use faucets_core::ids::{ContractId, JobId};
use faucets_core::job::{JobOutcome, JobSpec};
use faucets_core::money::Money;
use faucets_core::qos::WorkSpec;
use faucets_sim::time::SimTime;
use std::collections::BTreeMap;
use std::time::Instant;

/// A completed-job record with the money that changed hands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// The outcome (timing, deadline).
    pub outcome: JobOutcome,
    /// The contract settled.
    pub contract: ContractId,
    /// Contracted price.
    pub price: Money,
    /// Payoff actually earned at the completion time (may be negative).
    pub payoff: Money,
}

/// A checkpointed job evicted from a machine, ready for restart here or on
/// another (subcontracted) Compute Server.
#[derive(Debug, Clone)]
pub struct CheckpointedJob {
    /// The job, respec'd to its remaining work (+ restart overhead).
    pub spec: JobSpec,
    /// The contract being fulfilled.
    pub contract: ContractId,
    /// The agreed price.
    pub price: Money,
    /// Checkpoint image size, MB (drives migration transfer time).
    pub image_mb: u64,
    /// The original submission time (for response-time accounting).
    pub original_submit: SimTime,
}

/// One Compute Server's scheduler.
pub struct Cluster {
    /// The machine.
    pub machine: MachineSpec,
    alloc: Allocator,
    running: BTreeMap<JobId, RunningJob>,
    queue: Vec<QueuedJob>,
    policy: Box<dyn SchedPolicy>,
    resize_cost: ResizeCostModel,
    checkpoint_cost: CheckpointCostModel,
    /// Metrics accumulated since construction.
    pub metrics: ClusterMetrics,
    rejected: Vec<JobId>,
    /// Preemptions performed (checkpoint + requeue).
    pub preemptions: u64,
    /// Telemetry: scheduling decisions taken (the CM-schedule hop of a
    /// job's Figure-1 path).
    m_reschedules: faucets_telemetry::Counter,
    /// Telemetry: wall time spent inside one scheduling decision.
    m_reschedule_seconds: faucets_telemetry::Histogram,
}

impl Cluster {
    /// A cluster over `machine` scheduled by `policy`.
    pub fn new(
        machine: MachineSpec,
        policy: Box<dyn SchedPolicy>,
        resize_cost: ResizeCostModel,
    ) -> Self {
        let metrics = ClusterMetrics::new(machine.total_pes, SimTime::ZERO);
        let alloc = Allocator::new(machine.total_pes);
        let reg = faucets_telemetry::global();
        let labels = [("cluster", machine.name.as_str())];
        let m_reschedules = reg.counter("cm_reschedules_total", &labels);
        let m_reschedule_seconds = reg.histogram("cm_reschedule_seconds", &labels);
        Cluster {
            machine,
            alloc,
            running: BTreeMap::new(),
            queue: vec![],
            policy,
            resize_cost,
            checkpoint_cost: CheckpointCostModel::default(),
            metrics,
            rejected: vec![],
            preemptions: 0,
            m_reschedules,
            m_reschedule_seconds,
        }
    }

    /// Replace the checkpoint/restart/migration cost model.
    pub fn with_checkpoint_model(mut self, m: CheckpointCostModel) -> Self {
        self.checkpoint_cost = m;
        self
    }

    /// The installed policy's name.
    pub fn policy_name(&self) -> &'static str {
        self.policy.name()
    }

    /// Processors currently free.
    pub fn free_pes(&self) -> u32 {
        self.alloc.free_pes()
    }

    /// Jobs currently running.
    pub fn running_count(&self) -> usize {
        self.running.len()
    }

    /// Jobs waiting in the queue.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Jobs rejected so far (admission or feasibility).
    pub fn rejected_jobs(&self) -> &[JobId] {
        &self.rejected
    }

    /// Fragmentation statistics from the allocator.
    pub fn fragmentation(&self) -> f64 {
        self.alloc.fragmentation()
    }

    /// Current processor count of a running job (None if not running).
    pub fn pes_of(&self, job: JobId) -> Option<u32> {
        self.running.get(&job).map(|r| r.pes())
    }

    /// Iterate `(job, pes)` over the running set (for monitoring).
    pub fn running_jobs(&self) -> impl Iterator<Item = (JobId, u32)> + '_ {
        self.running.iter().map(|(&id, r)| (id, r.pes()))
    }

    /// The read-only view a policy probes.
    fn context(&self, now: SimTime) -> SchedContext<'_> {
        SchedContext {
            now,
            machine: &self.machine,
            alloc: &self.alloc,
            queue: &self.queue,
            running: &self.running,
        }
    }

    fn advance_all(&mut self, now: SimTime) {
        for r in self.running.values_mut() {
            r.advance(now);
        }
    }

    /// Run the policy and apply its actions. Shrinks are applied before
    /// starts (they make the room), grows last.
    fn reschedule(&mut self, now: SimTime) {
        self.m_reschedules.inc();
        let started = Instant::now();
        // Field-disjoint borrows: the context reads state fields while the
        // policy (a separate field) is borrowed mutably.
        let ctx = SchedContext {
            now,
            machine: &self.machine,
            alloc: &self.alloc,
            queue: &self.queue,
            running: &self.running,
        };
        let actions = self.policy.plan(&ctx);

        let mut starts = vec![];
        let mut rejects = vec![];
        let mut preempts = vec![];
        // Only the last Resize per job in a batch takes effect (policies may
        // revise a plan mid-batch).
        let mut resizes: std::collections::BTreeMap<JobId, u32> = std::collections::BTreeMap::new();
        for a in actions {
            match a {
                Action::Resize { job, new_pes } => {
                    resizes.insert(job, new_pes);
                }
                Action::Start { job, pes } => starts.push((job, pes)),
                Action::Reject { job } => rejects.push(job),
                Action::Preempt { job } => preempts.push(job),
            }
        }
        let mut shrinks = vec![];
        let mut grows = vec![];
        for (job, new_pes) in resizes {
            match self.running.get(&job) {
                Some(r) if new_pes < r.pes() => shrinks.push((job, new_pes)),
                Some(r) if new_pes > r.pes() => grows.push((job, new_pes)),
                _ => {}
            }
        }

        for job in rejects {
            if let Some(idx) = self.queue.iter().position(|q| q.spec.id == job) {
                self.queue.remove(idx);
                self.rejected.push(job);
                self.metrics.rejected += 1;
            }
        }

        // Preemptions free whole allocations before shrinks/starts run.
        // (Queue push only — no recursive reschedule; the preempted job is
        // reconsidered at the next scheduling event.)
        for job in preempts {
            if let Some(cj) = self.checkpoint_and_evict(job, now) {
                self.queue.push(QueuedJob {
                    spec: cj.spec,
                    contract: cj.contract,
                    price: cj.price,
                    arrived: now,
                });
            }
        }

        for (job, new_pes) in shrinks {
            let r = self.running.get_mut(&job).expect("shrink target vanished");
            let old = r.pes();
            let ok = self.alloc.shrink(job, old - new_pes);
            debug_assert!(ok, "allocator refused a shrink the policy planned");
            let pause = self.resize_cost.pause(&r.spec.qos, old, new_pes);
            r.resize(now, new_pes, pause);
            self.metrics.resizes += 1;
        }

        for (job, pes) in starts {
            let Some(idx) = self.queue.iter().position(|q| q.spec.id == job) else {
                debug_assert!(false, "policy started a job that is not queued");
                continue;
            };
            if !self.alloc.alloc(job, pes) {
                debug_assert!(false, "policy start of {job} at {pes} pes does not fit");
                continue;
            }
            let q = self.queue.remove(idx);
            let r = RunningJob::start(
                q.spec,
                q.contract,
                q.price,
                pes,
                self.machine.flops_per_pe_sec,
                now,
            );
            self.running.insert(job, r);
        }

        for (job, new_pes) in grows {
            let r = self.running.get_mut(&job).expect("grow target vanished");
            let old = r.pes();
            if self.alloc.grow(job, new_pes - old) {
                let pause = self.resize_cost.pause(&r.spec.qos, old, new_pes);
                r.resize(now, new_pes, pause);
                self.metrics.resizes += 1;
            }
        }

        self.metrics.set_busy(now, self.alloc.used_pes());
        self.m_reschedule_seconds
            .record(started.elapsed().as_secs_f64());
    }

    /// Submit a contracted job into the local queue.
    pub fn submit_job(&mut self, spec: JobSpec, contract: ContractId, price: Money, now: SimTime) {
        self.advance_all(now);
        self.queue.push(QueuedJob {
            spec,
            contract,
            price,
            arrived: now,
        });
        self.reschedule(now);
    }

    /// The next instant at which a running job completes (the driver should
    /// call [`Cluster::on_time`] then). `None` when nothing is running.
    pub fn next_completion(&self) -> Option<SimTime> {
        self.running
            .values()
            .map(|r| r.est_finish(SimTime::ZERO))
            .min()
    }

    /// Advance to `now`, harvest completed jobs, and reschedule. Returns the
    /// completions (empty if the wake-up was stale).
    pub fn on_time(&mut self, now: SimTime) -> Vec<Completion> {
        self.advance_all(now);
        let done: Vec<JobId> = self
            .running
            .iter()
            .filter(|(_, r)| r.is_done())
            .map(|(&id, _)| id)
            .collect();
        let mut completions = vec![];
        for id in done {
            let r = self.running.remove(&id).unwrap();
            self.alloc.release(id);
            let outcome = JobOutcome {
                job: id,
                cluster: self.machine.cluster,
                submitted_at: r.spec.submitted_at,
                started_at: r.started_at,
                completed_at: now,
                met_deadline: now <= r.spec.qos.deadline(),
            };
            let payoff = r.spec.qos.payoff.payoff_at(now);
            self.metrics.record_outcome(&outcome, r.price, payoff);
            completions.push(Completion {
                outcome,
                contract: r.contract,
                price: r.price,
                payoff,
            });
        }
        self.reschedule(now);
        completions
    }

    /// Checkpoint a running job and remove it from the machine, returning a
    /// token that can be resubmitted here ([`Cluster::requeue_checkpointed`])
    /// or migrated to another cluster (§4.1's "subcontracted Compute
    /// Server"). The checkpoint/restart overhead is folded into the
    /// remaining work at the job's minimum-size execution rate — the
    /// standard conservative model for coordinated checkpointing.
    pub fn checkpoint_and_evict(&mut self, job: JobId, now: SimTime) -> Option<CheckpointedJob> {
        let mut r = self.running.remove(&job)?;
        r.advance(now);
        self.alloc.release(job);
        self.preemptions += 1;
        self.metrics.set_busy(now, self.alloc.used_pes());

        let qos = &r.spec.qos;
        let overhead_secs = (self.checkpoint_cost.checkpoint_time(qos, r.pes())
            + self.checkpoint_cost.restart_time(qos, qos.min_pes))
        .as_secs_f64();
        let min_rate = qos.speedup.work_rate(qos.min_pes, qos.min_pes, qos.max_pes);
        let image_mb = self.checkpoint_cost.image_mb(qos, r.pes());

        // Respec the job with its remaining work plus the overhead; the
        // payoff function (deadlines) is untouched.
        let mut spec = r.spec.clone();
        spec.qos.work = WorkSpec::CpuSeconds(r.remaining_work() + overhead_secs * min_rate);
        Some(CheckpointedJob {
            spec,
            contract: r.contract,
            price: r.price,
            image_mb,
            original_submit: r.spec.submitted_at,
        })
    }

    /// Return a checkpointed job to this cluster's queue (automatic restart,
    /// §3/§5.5.4) and reschedule.
    pub fn requeue_checkpointed(&mut self, cj: CheckpointedJob, now: SimTime) {
        self.queue.push(QueuedJob {
            spec: cj.spec,
            contract: cj.contract,
            price: cj.price,
            arrived: now,
        });
        self.reschedule(now);
    }

    /// Remove and return every queued (not yet started) job — used when a
    /// machine is about to be taken down and its backlog moved elsewhere.
    pub fn drain_queue(&mut self) -> Vec<QueuedJob> {
        std::mem::take(&mut self.queue)
    }

    /// Simulate a machine failure (§3: "restart users jobs from their last
    /// checkpoint if … the machine had any transient hardware problem").
    /// Every running job loses the progress made since its last periodic
    /// checkpoint (period `checkpoint_interval`) and is requeued; returns
    /// how many jobs were recovered.
    pub fn crash_and_recover(
        &mut self,
        now: SimTime,
        checkpoint_interval: faucets_sim::time::SimDuration,
    ) -> usize {
        self.advance_all(now);
        let victims: Vec<JobId> = self.running.keys().copied().collect();
        let n = victims.len();
        for job in victims {
            let r = &self.running[&job];
            let age = now.since(r.started_at).as_secs_f64();
            let interval = checkpoint_interval.as_secs_f64().max(1.0);
            let lost_secs = age % interval;
            let lost_work = lost_secs
                * r.spec
                    .qos
                    .speedup
                    .work_rate(r.pes(), r.spec.qos.min_pes, r.spec.qos.max_pes);
            if let Some(mut cj) = self.checkpoint_and_evict(job, now) {
                // Add back the work lost since the last checkpoint.
                if let WorkSpec::CpuSeconds(w) = cj.spec.qos.work {
                    cj.spec.qos.work = WorkSpec::CpuSeconds(w + lost_work);
                }
                self.queue.push(QueuedJob {
                    spec: cj.spec,
                    contract: cj.contract,
                    price: cj.price,
                    arrived: now,
                });
            }
        }
        self.reschedule(now);
        n
    }

    /// Drive the cluster until its queue and running set drain, returning
    /// all completions. Convenience for tests and closed scenarios.
    pub fn run_to_idle(&mut self, mut now: SimTime) -> (Vec<Completion>, SimTime) {
        let mut all = vec![];
        while let Some(t) = self.next_completion() {
            now = now.max(t);
            all.extend(self.on_time(now));
        }
        (all, now)
    }
}

impl ClusterManager for Cluster {
    fn probe(
        &mut self,
        req: &BidRequest,
        now: SimTime,
    ) -> std::result::Result<SchedulerQuote, DeclineReason> {
        self.advance_all(now);
        self.policy.probe(&self.context(now), &req.qos)
    }

    fn submit(
        &mut self,
        spec: JobSpec,
        contract: ContractId,
        price: Money,
        now: SimTime,
    ) -> Result<()> {
        self.submit_job(spec, contract, price, now);
        Ok(())
    }

    fn status(&self, _now: SimTime) -> ServerStatus {
        let total = self.machine.total_pes.max(1);
        let free = self.alloc.free_pes();
        ServerStatus {
            free_pes: free,
            queue_len: self.queue.len() as u32,
            accepting: true,
            utilization: 1.0 - f64::from(free) / f64::from(total),
            running: self.running.len() as u32,
        }
    }

    fn predicted_utilization(&self, now: SimTime, horizon: SimTime) -> f64 {
        self.context(now).gantt().mean_utilization(now, horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backfill::EasyBackfill;
    use crate::equipartition::Equipartition;
    use crate::fcfs::Fcfs;
    use crate::profit::Profit;
    use crate::testutil::{qos_deadline, qos_fixed};
    use faucets_core::ids::{ClusterId, UserId};

    fn cluster(total: u32, policy: Box<dyn SchedPolicy>) -> Cluster {
        Cluster::new(
            MachineSpec::commodity(ClusterId(1), "test", total),
            policy,
            ResizeCostModel::free(),
        )
    }

    fn spec(id: u64, qos: faucets_core::qos::QosContract, at: SimTime) -> JobSpec {
        JobSpec::new(JobId(id), UserId(0), qos, at).unwrap()
    }

    #[test]
    fn single_job_lifecycle() {
        let mut c = cluster(100, Box::new(Fcfs));
        c.submit_job(
            spec(1, qos_fixed(10, 10, 1000.0), SimTime::ZERO),
            ContractId(1),
            Money::from_units(5),
            SimTime::ZERO,
        );
        assert_eq!(c.running_count(), 1);
        assert_eq!(c.free_pes(), 90);
        let t = c.next_completion().unwrap();
        assert_eq!(t, SimTime::from_secs(100));
        let done = c.on_time(t);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].outcome.completed_at, SimTime::from_secs(100));
        assert_eq!(done[0].price, Money::from_units(5));
        assert_eq!(c.running_count(), 0);
        assert_eq!(c.free_pes(), 100);
        assert_eq!(c.metrics.completed, 1);
    }

    #[test]
    fn fcfs_queues_then_starts_after_completion() {
        let mut c = cluster(100, Box::new(Fcfs));
        c.submit_job(
            spec(1, qos_fixed(100, 100, 10_000.0), SimTime::ZERO),
            ContractId(1),
            Money::ZERO,
            SimTime::ZERO,
        );
        c.submit_job(
            spec(2, qos_fixed(50, 50, 5_000.0), SimTime::ZERO),
            ContractId(2),
            Money::ZERO,
            SimTime::ZERO,
        );
        assert_eq!(c.queue_len(), 1);
        // Job 1 finishes at t=100; job 2 starts then, finishes at t=200.
        let (all, end) = c.run_to_idle(SimTime::ZERO);
        assert_eq!(all.len(), 2);
        assert_eq!(end, SimTime::from_secs(200));
        assert_eq!(all[1].outcome.started_at, SimTime::from_secs(100));
        assert!((all[1].outcome.wait_secs() - 100.0).abs() < 1e-6);
    }

    #[test]
    fn equipartition_shrinks_and_expands_through_lifecycle() {
        let mut c = cluster(100, Box::new(Equipartition));
        // Job 1 alone: expands to 100.
        c.submit_job(
            spec(1, qos_fixed(10, 100, 10_000.0), SimTime::ZERO),
            ContractId(1),
            Money::ZERO,
            SimTime::ZERO,
        );
        assert_eq!(c.pes_of(JobId(1)), Some(100));
        // Job 2 arrives at t=10: both shrink to 50.
        c.submit_job(
            spec(2, qos_fixed(10, 100, 5_000.0), SimTime::from_secs(10)),
            ContractId(2),
            Money::ZERO,
            SimTime::from_secs(10),
        );
        assert_eq!(c.pes_of(JobId(1)), Some(50));
        assert_eq!(c.pes_of(JobId(2)), Some(50));
        assert!(c.metrics.resizes >= 1);
        // Run to completion; after job 2 finishes, job 1 re-expands.
        let (all, _) = c.run_to_idle(SimTime::from_secs(10));
        assert_eq!(all.len(), 2);
        assert_eq!(c.metrics.completed, 2);
    }

    #[test]
    fn profit_policy_rejects_doomed_jobs() {
        let mut c = cluster(100, Box::new(Profit::default()));
        c.submit_job(
            spec(1, qos_fixed(100, 100, 100_000.0), SimTime::ZERO),
            ContractId(1),
            Money::ZERO,
            SimTime::ZERO,
        );
        // Deadline 10 s, impossible → rejected at the next scheduling event.
        c.submit_job(
            spec(2, qos_deadline(100, 100, 10_000.0, 10), SimTime::ZERO),
            ContractId(2),
            Money::ZERO,
            SimTime::ZERO,
        );
        assert_eq!(c.rejected_jobs(), &[JobId(2)]);
        assert_eq!(c.metrics.rejected, 1);
        assert_eq!(c.queue_len(), 0);
    }

    #[test]
    fn utilization_accounting() {
        let mut c = cluster(100, Box::new(Fcfs));
        c.submit_job(
            spec(1, qos_fixed(50, 50, 5_000.0), SimTime::ZERO),
            ContractId(1),
            Money::ZERO,
            SimTime::ZERO,
        );
        let (_, end) = c.run_to_idle(SimTime::ZERO);
        assert_eq!(end, SimTime::from_secs(100));
        // 50 busy of 100 for the whole interval → 50%.
        let u = c.metrics.utilization(end);
        assert!((u - 0.5).abs() < 1e-9);
    }

    #[test]
    fn backfill_cluster_interleaves() {
        let mut c = cluster(100, Box::new(EasyBackfill));
        c.submit_job(
            spec(1, qos_fixed(60, 60, 60_000.0), SimTime::ZERO),
            ContractId(1),
            Money::ZERO,
            SimTime::ZERO,
        ); // runs [0,1000)
        c.submit_job(
            spec(2, qos_fixed(80, 80, 8_000.0), SimTime::ZERO),
            ContractId(2),
            Money::ZERO,
            SimTime::ZERO,
        ); // blocked
        c.submit_job(
            spec(3, qos_fixed(20, 20, 2_000.0), SimTime::ZERO),
            ContractId(3),
            Money::ZERO,
            SimTime::ZERO,
        ); // backfills now
        assert_eq!(c.pes_of(JobId(3)), Some(20), "short job backfilled");
        assert_eq!(c.pes_of(JobId(2)), None);
        let (all, _) = c.run_to_idle(SimTime::ZERO);
        assert_eq!(all.len(), 3);
    }

    #[test]
    fn resize_cost_delays_completion() {
        let mut fast = cluster(100, Box::new(Equipartition));
        let mut slow = Cluster::new(
            MachineSpec::commodity(ClusterId(2), "slow", 100),
            Box::new(Equipartition),
            ResizeCostModel {
                fixed_secs: 30.0,
                per_pe_moved_secs: 0.0,
                per_mb_secs: 0.0,
                scale: 1.0,
            },
        );
        for c in [&mut fast, &mut slow] {
            c.submit_job(
                spec(1, qos_fixed(10, 100, 10_000.0), SimTime::ZERO),
                ContractId(1),
                Money::ZERO,
                SimTime::ZERO,
            );
            c.submit_job(
                spec(2, qos_fixed(10, 100, 5_000.0), SimTime::from_secs(10)),
                ContractId(2),
                Money::ZERO,
                SimTime::from_secs(10),
            );
        }
        let (_, t_fast) = fast.run_to_idle(SimTime::from_secs(10));
        let (_, t_slow) = slow.run_to_idle(SimTime::from_secs(10));
        assert!(
            t_slow > t_fast,
            "resize pauses must cost wall time: {t_slow} !> {t_fast}"
        );
    }

    #[test]
    fn cluster_manager_trait_roundtrip() {
        let mut c = cluster(100, Box::new(Fcfs));
        let req = BidRequest {
            job: JobId(1),
            user: UserId(1),
            qos: qos_fixed(10, 20, 1000.0),
            issued_at: SimTime::ZERO,
        };
        let quote = ClusterManager::probe(&mut c, &req, SimTime::ZERO).unwrap();
        assert_eq!(quote.planned_pes, 20);
        ClusterManager::submit(
            &mut c,
            spec(1, req.qos.clone(), SimTime::ZERO),
            ContractId(1),
            Money::ZERO,
            SimTime::ZERO,
        )
        .unwrap();
        let st = ClusterManager::status(&c, SimTime::ZERO);
        assert_eq!(st.free_pes, 80);
        assert_eq!(st.queue_len, 0);
    }

    #[test]
    fn stale_wakeups_are_harmless() {
        let mut c = cluster(100, Box::new(Fcfs));
        c.submit_job(
            spec(1, qos_fixed(10, 10, 1000.0), SimTime::ZERO),
            ContractId(1),
            Money::ZERO,
            SimTime::ZERO,
        );
        assert!(c.on_time(SimTime::from_secs(50)).is_empty());
        let done = c.on_time(SimTime::from_secs(100));
        assert_eq!(done.len(), 1);
        assert!(c.on_time(SimTime::from_secs(101)).is_empty());
    }
}
