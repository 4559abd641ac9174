//! The Intranet priority scheduler (§5.5.4).
//!
//! *"When a company or a laboratory wishes its Compute Server's resources
//! to be pooled among its users … Different jobs may have priorities
//! assigned by management. Pre-emption of low priority jobs may be allowed
//! (with automatic restart from a checkpoint later)."*
//!
//! Priority is the job's soft payoff (management assigns value through the
//! payoff function). High-priority arrivals preempt strictly
//! lower-priority running jobs — checkpointed and automatically requeued by
//! the cluster — when that is the only way to start.

use crate::policy::{Action, SchedContext, SchedPolicy};
use faucets_core::bid::DeclineReason;
use faucets_core::daemon::SchedulerQuote;
use faucets_core::ids::JobId;
use faucets_core::money::Money;
use faucets_core::qos::QosContract;

/// Priority scheduling with checkpoint-preemption.
#[derive(Debug, Clone, Copy, Default)]
pub struct IntranetPriority;

/// A job's management-assigned priority: its soft payoff.
fn priority(qos: &QosContract) -> Money {
    qos.payoff.payoff_soft
}

impl SchedPolicy for IntranetPriority {
    fn name(&self) -> &'static str {
        "intranet-priority"
    }

    fn plan(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        // Queue in priority order (ties: arrival, then id).
        let mut waiting: Vec<usize> = (0..ctx.queue.len()).collect();
        waiting.sort_by(|&a, &b| {
            let (qa, qb) = (&ctx.queue[a], &ctx.queue[b]);
            priority(&qb.spec.qos)
                .cmp(&priority(&qa.spec.qos))
                .then(qa.arrived.cmp(&qb.arrived))
                .then(qa.spec.id.cmp(&qb.spec.id))
        });

        // Running jobs by ascending priority — the preemption order.
        let mut victims: Vec<(JobId, u32, Money)> = ctx
            .running
            .values()
            .map(|r| (r.id(), r.pes(), priority(&r.spec.qos)))
            .collect();
        victims.sort_by(|a, b| a.2.cmp(&b.2).then(a.0.cmp(&b.0)));

        let mut free = ctx.alloc.free_pes();
        let mut actions = vec![];
        let mut preempted: Vec<JobId> = vec![];

        for qi in waiting {
            let q = &ctx.queue[qi];
            let qos = &q.spec.qos;
            let cap = ctx.pes_cap(qos);
            if qos.min_pes > ctx.machine.total_pes {
                actions.push(Action::Reject { job: q.spec.id });
                continue;
            }
            if free >= qos.min_pes {
                let pes = cap.min(free);
                actions.push(Action::Start {
                    job: q.spec.id,
                    pes,
                });
                free -= pes;
                continue;
            }
            // Preempt strictly lower-priority running jobs, lowest first.
            let my_priority = priority(qos);
            let mut gain = 0u32;
            let mut picks = vec![];
            for (vid, vpes, vprio) in victims.iter() {
                if free + gain >= qos.min_pes {
                    break;
                }
                if *vprio >= my_priority || preempted.contains(vid) {
                    continue;
                }
                picks.push(*vid);
                gain += *vpes;
            }
            if free + gain >= qos.min_pes {
                for vid in picks {
                    actions.push(Action::Preempt { job: vid });
                    preempted.push(vid);
                }
                free += gain;
                let pes = cap.min(free);
                actions.push(Action::Start {
                    job: q.spec.id,
                    pes,
                });
                free -= pes;
            }
            // Otherwise the job waits (nothing preemptible below it).
        }
        actions
    }

    fn probe(
        &self,
        ctx: &SchedContext<'_>,
        qos: &QosContract,
    ) -> Result<SchedulerQuote, DeclineReason> {
        ctx.statically_feasible(qos)?;
        let gantt = ctx.gantt();
        let pes = ctx.pes_cap(qos);
        let dur = ctx.wall_time(qos, pes);
        let start = gantt
            .earliest_window(pes, dur, ctx.now)
            .ok_or(DeclineReason::InsufficientResources)?;
        ctx.quote(qos, start, pes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use faucets_core::qos::{PayoffFn, QosBuilder, SpeedupModel};
    use faucets_sim::time::SimTime;

    fn prio_qos(min: u32, max: u32, work: f64, prio: i64) -> faucets_core::qos::QosContract {
        QosBuilder::new("app", min, max, work)
            .speedup(SpeedupModel::Perfect)
            .payoff(PayoffFn::hard_only(
                SimTime::MAX,
                Money::from_units(prio),
                Money::ZERO,
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn high_priority_preempts_low() {
        let mut h = Harness::new(100);
        h.run_qos(1, prio_qos(80, 80, 1e6, 10), 80); // low-priority hog
        h.enqueue(queued_qos(2, prio_qos(60, 60, 1000.0, 1000))); // urgent
        let mut p = IntranetPriority;
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![
                Action::Preempt { job: jid(1) },
                Action::Start {
                    job: jid(2),
                    pes: 60
                }
            ]
        );
    }

    #[test]
    fn never_preempts_equal_or_higher_priority() {
        let mut h = Harness::new(100);
        h.run_qos(1, prio_qos(80, 80, 1e6, 1000), 80); // high-priority incumbent
        h.enqueue(queued_qos(2, prio_qos(60, 60, 1000.0, 1000))); // equal priority
        h.enqueue(queued_qos(3, prio_qos(60, 60, 1000.0, 10))); // lower
        let mut p = IntranetPriority;
        assert!(p.plan(&h.ctx()).is_empty());
    }

    #[test]
    fn starts_in_priority_order_within_capacity() {
        let mut h = Harness::new(100);
        h.enqueue(queued_qos(1, prio_qos(60, 60, 100.0, 10)));
        h.enqueue(queued_qos(2, prio_qos(60, 60, 100.0, 500)));
        let mut p = IntranetPriority;
        // Only one fits: the high-priority one, despite arriving second.
        assert_eq!(
            p.plan(&h.ctx()),
            vec![Action::Start {
                job: jid(2),
                pes: 60
            }]
        );
    }

    #[test]
    fn preempts_multiple_lowest_first() {
        let mut h = Harness::new(100);
        h.run_qos(1, prio_qos(40, 40, 1e6, 5), 40); // lowest
        h.run_qos(2, prio_qos(40, 40, 1e6, 20), 40); // middle
        h.enqueue(queued_qos(3, prio_qos(90, 90, 1000.0, 900)));
        let mut p = IntranetPriority;
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![
                Action::Preempt { job: jid(1) },
                Action::Preempt { job: jid(2) },
                Action::Start {
                    job: jid(3),
                    pes: 90
                },
            ]
        );
    }

    #[test]
    fn cluster_roundtrip_with_automatic_restart() {
        use crate::adaptive::ResizeCostModel;
        use crate::cluster::Cluster;
        use crate::machine::MachineSpec;
        use faucets_core::ids::{ClusterId, ContractId, UserId};
        use faucets_core::job::JobSpec;

        let mut c = Cluster::new(
            MachineSpec::commodity(ClusterId(1), "intranet", 100),
            Box::new(IntranetPriority),
            ResizeCostModel::free(),
        );
        // Low-priority job starts (1000 cpu-s on 80 PEs = 12.5 s).
        let low = JobSpec::new(
            JobId(1),
            UserId(1),
            prio_qos(80, 80, 1000.0, 10),
            SimTime::ZERO,
        )
        .unwrap();
        c.submit_job(low, ContractId(1), Money::ZERO, SimTime::ZERO);
        assert_eq!(c.pes_of(jid(1)), Some(80));
        // Urgent job arrives at t=5: low job is checkpointed and requeued.
        let high = JobSpec::new(
            JobId(2),
            UserId(2),
            prio_qos(60, 60, 600.0, 1000),
            SimTime::from_secs(5),
        )
        .unwrap();
        c.submit_job(high, ContractId(2), Money::ZERO, SimTime::from_secs(5));
        assert_eq!(c.pes_of(jid(2)), Some(60), "urgent job running");
        assert_eq!(c.pes_of(jid(1)), None, "low job preempted");
        assert_eq!(c.preemptions, 1);
        assert_eq!(c.queue_len(), 1, "preempted job waits for restart");
        // Drain: both complete; the preempted one restarted automatically.
        let (done, _) = c.run_to_idle(SimTime::from_secs(5));
        assert_eq!(done.len(), 2);
        let low_done = done.iter().find(|x| x.outcome.job == jid(1)).unwrap();
        // It lost progress to the checkpoint overhead but finished.
        assert!(low_done.outcome.completed_at > SimTime::from_secs(12));
    }
}
