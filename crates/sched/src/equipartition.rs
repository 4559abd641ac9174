//! The adaptive equipartition scheduler (\[15\], §4.1).
//!
//! *"One of the earliest strategy we implemented … is a simple strategy that
//! tries to maximize system utilization by using a variant of
//! equipartitioning: Each job gets a proportionate share of available
//! processors, while respecting the specified upper and lower bounds on the
//! number of processors for each job."*
//!
//! On every scheduling event the policy recomputes
//! [`crate::policy::equipartition_targets`] over running + queued jobs (in
//! arrival order) and emits the resizes/starts needed to realize it. Rigid
//! (non-adaptive) running jobs are pinned at their current size.

use crate::policy::{equipartition_targets, Action, SchedContext, SchedPolicy};
use faucets_core::bid::DeclineReason;
use faucets_core::daemon::SchedulerQuote;
use faucets_core::qos::QosContract;

/// The equipartition adaptive policy.
#[derive(Debug, Clone, Copy, Default)]
pub struct Equipartition;

impl Equipartition {
    /// Every job's effective `[min, max]` in arrival order: the running set
    /// (rigid jobs pinned at their size), the queue, then the `newcomer`.
    fn bounds(ctx: &SchedContext<'_>, newcomer: Option<&QosContract>) -> Vec<(u32, u32)> {
        let bound = |q: &QosContract| (q.min_pes, q.max_pes.min(ctx.machine.total_pes));
        let mut bounds = Vec::with_capacity(ctx.running.len() + ctx.queue.len() + 1);
        bounds.extend(ctx.running.values().map(|r| {
            if r.spec.qos.adaptive {
                bound(&r.spec.qos)
            } else {
                (r.pes(), r.pes())
            }
        }));
        let queued = ctx.queue.iter().map(|q| &q.spec.qos);
        bounds.extend(queued.chain(newcomer).map(bound));
        bounds
    }
}

impl SchedPolicy for Equipartition {
    fn name(&self) -> &'static str {
        "equipartition"
    }

    fn plan(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let targets = equipartition_targets(&Self::bounds(ctx, None), ctx.machine.total_pes);
        let (running, queued) = targets.split_at(ctx.running.len());

        let mut actions = vec![];
        for ((&job, r), &target) in ctx.running.iter().zip(running) {
            if target != 0 && target != r.pes() {
                actions.push(Action::Resize {
                    job,
                    new_pes: target,
                });
            }
        }
        for (q, &pes) in ctx.queue.iter().zip(queued) {
            if pes > 0 {
                actions.push(Action::Start {
                    job: q.spec.id,
                    pes,
                });
            }
        }
        actions
    }

    fn probe(
        &self,
        ctx: &SchedContext<'_>,
        qos: &QosContract,
    ) -> Result<SchedulerQuote, DeclineReason> {
        ctx.statically_feasible(qos)?;
        // Predict the share the job would get if it joined now.
        let targets = equipartition_targets(&Self::bounds(ctx, Some(qos)), ctx.machine.total_pes);
        let share = *targets.last().unwrap();
        let (start, pes) = if share >= qos.min_pes {
            (ctx.now, share)
        } else {
            // Doesn't fit yet: it starts when enough running work drains.
            let gantt = ctx.gantt();
            let dur = ctx.wall_time(qos, qos.min_pes);
            match gantt.earliest_window(qos.min_pes, dur, ctx.now) {
                Some(s) => (s, qos.min_pes),
                None => return Err(DeclineReason::InsufficientResources),
            }
        };
        ctx.quote(qos, start, pes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use faucets_sim::time::SimTime;

    #[test]
    fn paper_internal_fragmentation_scenario() {
        // §1: 1000-PE machine. Adaptive job B on 500 PEs (min 400); urgent
        // job A needs 600. Equipartition shrinks B to 400 and starts A.
        let mut h = Harness::new(1000);
        h.run_adaptive(1, 400, 500, 500, 1e6);
        h.enqueue(queued(2, 600, 600, 1000.0));
        let mut p = Equipartition;
        let actions = p.plan(&h.ctx());
        assert!(actions.contains(&Action::Resize {
            job: jid(1),
            new_pes: 400
        }));
        assert!(actions.contains(&Action::Start {
            job: jid(2),
            pes: 600
        }));
    }

    #[test]
    fn equal_shares_among_elastic_jobs() {
        let mut h = Harness::new(90);
        h.run_adaptive(1, 1, 90, 90, 1e6);
        h.enqueue(queued(2, 1, 90, 100.0));
        h.enqueue(queued(3, 1, 90, 100.0));
        let mut p = Equipartition;
        let actions = p.plan(&h.ctx());
        assert!(actions.contains(&Action::Resize {
            job: jid(1),
            new_pes: 30
        }));
        assert!(actions.contains(&Action::Start {
            job: jid(2),
            pes: 30
        }));
        assert!(actions.contains(&Action::Start {
            job: jid(3),
            pes: 30
        }));
    }

    #[test]
    fn expands_running_jobs_when_machine_drains() {
        let mut h = Harness::new(100);
        h.run_adaptive(1, 10, 100, 50, 1e6);
        let mut p = Equipartition;
        // Only job on the machine → expand to its max.
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![Action::Resize {
                job: jid(1),
                new_pes: 100
            }]
        );
    }

    #[test]
    fn rigid_running_jobs_are_pinned() {
        let mut h = Harness::new(100);
        h.run_rigid(1, 60, 1e6);
        h.enqueue(queued(2, 1, 100, 100.0));
        let mut p = Equipartition;
        let actions = p.plan(&h.ctx());
        // Rigid job untouched; newcomer gets the remaining 40.
        assert_eq!(
            actions,
            vec![Action::Start {
                job: jid(2),
                pes: 40
            }]
        );
    }

    #[test]
    fn defers_jobs_whose_min_does_not_fit() {
        let mut h = Harness::new(100);
        h.run_adaptive(1, 80, 100, 100, 1e6);
        h.enqueue(queued(2, 30, 60, 100.0));
        let mut p = Equipartition;
        let actions = p.plan(&h.ctx());
        // Even at job 1's minimum (80) only 20 PEs would free up — not
        // enough for job 2's minimum of 30 — so nothing changes and job 2
        // keeps waiting at full machine utilization.
        assert!(actions.is_empty(), "{actions:?}");
    }

    #[test]
    fn probe_predicts_share() {
        let mut h = Harness::new(90);
        h.run_adaptive(1, 1, 90, 90, 9000.0);
        let p = Equipartition;
        let quote = p.probe(&h.ctx(), &qos_fixed(1, 90, 450.0)).unwrap();
        // Share would be 45; job runs 450/45 = 10 s.
        assert_eq!(quote.planned_pes, 45);
        assert_eq!(quote.est_completion, SimTime::from_secs(10));
    }

    #[test]
    fn probe_declines_never_fitting_jobs() {
        let h = Harness::new(10);
        let p = Equipartition;
        assert_eq!(
            p.probe(&h.ctx(), &qos_fixed(11, 20, 1.0)).unwrap_err(),
            DeclineReason::InsufficientResources
        );
    }
}
