//! The pluggable scheduling-strategy interface (§4.1).
//!
//! *"Decisions on allocating processors to jobs is taken by a strategy that
//! can be plugged in to the adaptive job scheduler."* A [`SchedPolicy`] sees
//! a read-only [`SchedContext`] (queue, running set, allocator, machine) and
//! emits [`Action`]s; the [`crate::cluster::Cluster`] applies them. The
//! concrete strategies are [`crate::fcfs`], [`crate::backfill`],
//! [`crate::equipartition`] (the \[15\] strategy), and [`crate::profit`].

use crate::allocation::Allocator;
use crate::gantt::GanttProfile;
use crate::machine::MachineSpec;
use crate::running::RunningJob;
use faucets_core::bid::DeclineReason;
use faucets_core::daemon::SchedulerQuote;
use faucets_core::ids::{ContractId, JobId};
use faucets_core::job::JobSpec;
use faucets_core::money::Money;
use faucets_core::qos::QosContract;
use faucets_sim::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A job waiting in the local queue.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// The job.
    pub spec: JobSpec,
    /// Its contract.
    pub contract: ContractId,
    /// The agreed price.
    pub price: Money,
    /// When it entered this queue.
    pub arrived: SimTime,
}

/// Read-only view a policy plans over.
pub struct SchedContext<'a> {
    /// The current time.
    pub now: SimTime,
    /// The machine.
    pub machine: &'a MachineSpec,
    /// Processor allocation state.
    pub alloc: &'a Allocator,
    /// Waiting jobs, arrival order.
    pub queue: &'a [QueuedJob],
    /// Running jobs by id (advanced to `now`).
    pub running: &'a BTreeMap<JobId, RunningJob>,
}

impl SchedContext<'_> {
    /// Wall-clock run time of `qos` on `pes` processors of this machine.
    pub fn wall_time(&self, qos: &QosContract, pes: u32) -> SimDuration {
        qos.wall_time_on(pes, self.machine.flops_per_pe_sec)
    }

    /// The Gantt profile implied by the running set (no queue reservations).
    pub fn gantt(&self) -> GanttProfile {
        GanttProfile::new(
            self.now,
            self.machine.total_pes,
            self.alloc.free_pes(),
            self.running
                .values()
                .map(|r| (r.est_finish(self.now), r.pes())),
        )
    }

    /// Static feasibility: can this QoS ever run on this machine?
    pub fn statically_feasible(&self, qos: &QosContract) -> Result<(), DeclineReason> {
        if qos.min_pes > self.machine.total_pes || !qos.fits_node_memory(self.machine.mem_per_pe_mb)
        {
            Err(DeclineReason::InsufficientResources)
        } else {
            Ok(())
        }
    }

    /// The largest processor count the job accepts on this machine.
    pub fn pes_cap(&self, qos: &QosContract) -> u32 {
        qos.max_pes.min(self.machine.total_pes)
    }

    /// Quote a start at `start` on `pes` processors, or decline if the job
    /// would then miss its deadline.
    pub fn quote(
        &self,
        qos: &QosContract,
        start: SimTime,
        pes: u32,
    ) -> Result<SchedulerQuote, DeclineReason> {
        let est_completion = start.saturating_add(self.wall_time(qos, pes));
        if est_completion > qos.deadline() {
            return Err(DeclineReason::CannotMeetDeadline);
        }
        Ok(SchedulerQuote {
            planned_pes: pes,
            est_completion,
        })
    }
}

/// One scheduling decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Action {
    /// Change a running adaptive job's processor count.
    Resize {
        /// The job to resize.
        job: JobId,
        /// Its new processor count.
        new_pes: u32,
    },
    /// Start a queued job on `pes` processors.
    Start {
        /// The queued job to launch.
        job: JobId,
        /// Processors to allocate.
        pes: u32,
    },
    /// Remove a queued job (infeasible / unprofitable).
    Reject {
        /// The job to drop.
        job: JobId,
    },
    /// Checkpoint a running job and return it to the queue (§5.5.4:
    /// "Pre-emption of low priority jobs may be allowed (with automatic
    /// restart from a checkpoint later)").
    Preempt {
        /// The running job to checkpoint and evict.
        job: JobId,
    },
}

/// A pluggable scheduling strategy.
pub trait SchedPolicy: Send {
    /// Identifier for reports.
    fn name(&self) -> &'static str;

    /// Plan actions for the current state. Called whenever a job arrives,
    /// finishes, or is resized. Must be a complete batch: shrinks that make
    /// room must accompany the starts that use the room.
    fn plan(&mut self, ctx: &SchedContext<'_>) -> Vec<Action>;

    /// Admission probe for the daemon's bid path: on what terms would this
    /// job run if submitted now? Must not mutate scheduling state.
    fn probe(
        &self,
        ctx: &SchedContext<'_>,
        qos: &QosContract,
    ) -> Result<SchedulerQuote, DeclineReason>;
}

/// Look up a scheduling policy by name: `fcfs`, `easy-backfill`,
/// `conservative-backfill`, `equipartition`, `profit`, or
/// `intranet-priority` — so experiments and CLIs can select strategies
/// declaratively.
///
/// # Panics
/// Panics on unknown names.
pub fn by_name(name: &str) -> Box<dyn SchedPolicy> {
    match name {
        "fcfs" => Box::new(crate::fcfs::Fcfs),
        "easy-backfill" => Box::new(crate::backfill::EasyBackfill),
        "conservative-backfill" => Box::new(crate::conservative::ConservativeBackfill),
        "equipartition" => Box::new(crate::equipartition::Equipartition),
        "profit" => Box::new(crate::profit::Profit::default()),
        "intranet-priority" => Box::new(crate::priority::IntranetPriority),
        other => panic!("unknown scheduling policy '{other}'"),
    }
}

/// The paper's equipartition computation (\[15\], §4.1): distribute `total`
/// processors over jobs with `[min, max]` bounds, in arrival order.
///
/// Jobs are admitted greedily at their minimum while capacity lasts; the
/// surplus is then water-filled equally, respecting each job's maximum.
/// Returns one target per input job; `0` means "stays queued".
pub fn equipartition_targets(bounds: &[(u32, u32)], total: u32) -> Vec<u32> {
    let mut targets = vec![0u32; bounds.len()];
    // Admission: greedily in arrival order while minima fit.
    let mut active: Vec<usize> = vec![];
    let mut used = 0u32;
    for (i, &(min, _)) in bounds.iter().enumerate() {
        if used + min <= total {
            used += min;
            active.push(i);
        }
    }

    // Fair share with pinning: jobs whose minimum exceeds the current equal
    // share are pinned at their minimum (pinning minima first preserves
    // feasibility); jobs whose maximum falls below it are pinned at their
    // maximum; the share is recomputed over the rest until it stabilizes.
    let mut capacity = total;
    while !active.is_empty() {
        let share = capacity / active.len() as u32;
        let before = active.len();
        let mut pin_unless = |i: usize, pes: u32, fits: bool| {
            if !fits {
                targets[i] = pes;
                capacity -= pes;
            }
            fits
        };
        active.retain(|&i| pin_unless(i, bounds[i].0, bounds[i].0 <= share));
        if active.len() == before {
            active.retain(|&i| pin_unless(i, bounds[i].1, bounds[i].1 >= share));
        }
        if active.len() < before {
            continue;
        }
        // Stable: everyone takes the equal share; the integer remainder goes
        // one processor at a time to the earliest jobs with headroom.
        let mut remainder = capacity - share * active.len() as u32;
        for &i in &active {
            targets[i] = share;
        }
        for &i in &active {
            if remainder == 0 {
                break;
            }
            if bounds[i].1 > share {
                targets[i] += 1;
                remainder -= 1;
            }
        }
        break;
    }

    // Work conservation: capacity stranded by max-pins flows to admitted
    // jobs that still have headroom (the strategy "tries to maximize system
    // utilization", §4.1).
    let mut leftover = total - targets.iter().sum::<u32>();
    for (i, t) in targets.iter_mut().enumerate() {
        if leftover == 0 {
            break;
        }
        if *t > 0 && *t < bounds[i].1 {
            let add = (bounds[i].1 - *t).min(leftover);
            *t += add;
            leftover -= add;
        }
    }
    targets
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn equipartition_equal_split_within_bounds() {
        // Three elastic jobs on 90 PEs → 30 each.
        let t = equipartition_targets(&[(1, 100), (1, 100), (1, 100)], 90);
        assert_eq!(t, vec![30, 30, 30]);
    }

    #[test]
    fn equipartition_respects_maxima() {
        // One job capped at 10; surplus flows to the others.
        let t = equipartition_targets(&[(1, 10), (1, 100), (1, 100)], 90);
        assert_eq!(t, vec![10, 40, 40]);
    }

    #[test]
    fn equipartition_respects_minima() {
        // Big-min job is pinned at 60; the rest split the remaining 40.
        let t = equipartition_targets(&[(60, 100), (1, 100), (1, 100)], 100);
        assert_eq!(t, vec![60, 20, 20]);
    }

    #[test]
    fn equipartition_defers_jobs_that_do_not_fit() {
        // 100 PEs: jobs of min 60, 50, 30 → 60 admitted, 50 skipped (would
        // exceed), 30 admitted; surplus 10 distributed within maxima.
        let t = equipartition_targets(&[(60, 70), (50, 50), (30, 30)], 100);
        assert_eq!(t[1], 0, "job with min 50 must wait");
        assert_eq!(t[0], 70);
        assert_eq!(t[2], 30);
    }

    #[test]
    fn equipartition_paper_scenario() {
        // §1: 1000-PE machine, job B (adaptive, min 400, running on 500) and
        // urgent job A needing 600. Equipartition: B shrinks to 400, A gets
        // 600 — exactly the paper's resolution.
        let t = equipartition_targets(&[(400, 500), (600, 600)], 1000);
        assert_eq!(t, vec![400, 600]);
    }

    #[test]
    fn equipartition_empty_and_zero() {
        assert!(equipartition_targets(&[], 100).is_empty());
        let t = equipartition_targets(&[(10, 20)], 5);
        assert_eq!(t, vec![0]);
    }

    #[test]
    fn equipartition_exhausts_capacity_when_demand_exceeds() {
        let t = equipartition_targets(&[(1, 1000), (1, 1000)], 101);
        assert_eq!(t.iter().sum::<u32>(), 101);
        // Near-equal split (off-by-one from integer division).
        assert!(t[0].abs_diff(t[1]) <= 1);
    }
}
