//! The profit-maximizing admission scheduler (§4.1).
//!
//! *"The utility metric can also be maximizing the payoff function from
//! running a job before its deadline … running a new job may delay other
//! jobs and lead to a loss in profit. So the payoff from the new job must
//! at least compensate for the loss mentioned above or the job must be
//! rejected. … Our current prototype strategy accepts a job if it is
//! profitable and can be scheduled to run now or at a finite lookahead in
//! future."*
//!
//! The policy ranks waiting jobs by payoff density (dollars per CPU-second),
//! starts them on the fewest processors that still meet the soft deadline,
//! and when short of processors shrinks lower-density adaptive jobs toward
//! their minima — but only when the newcomer's payoff exceeds the payoff the
//! victims lose by finishing later (the compensation test quoted above).

use crate::policy::{Action, SchedContext, SchedPolicy};
use crate::running::RunningJob;
use faucets_core::bid::DeclineReason;
use faucets_core::daemon::SchedulerQuote;
use faucets_core::ids::JobId;
use faucets_core::money::Money;
use faucets_core::qos::QosContract;
use faucets_sim::time::{SimDuration, SimTime};

/// The profit-aware policy.
#[derive(Debug, Clone, Copy)]
pub struct Profit {
    /// Accept jobs schedulable within this lookahead ("run now or at a
    /// finite lookahead in future").
    pub lookahead: SimDuration,
}

impl Default for Profit {
    fn default() -> Self {
        Profit {
            lookahead: SimDuration::from_hours(1),
        }
    }
}

/// Payoff density: soft payoff per CPU-second of work.
fn density(qos: &QosContract, flops: f64) -> f64 {
    qos.payoff.payoff_soft.as_units_f64() / qos.cpu_seconds(flops).max(1e-9)
}

impl Profit {
    /// The smallest processor count in `[min, cap]` meeting the soft
    /// deadline from `now`, or `cap` if none does.
    fn pick_pes(ctx: &SchedContext<'_>, qos: &QosContract, now: SimTime) -> u32 {
        let cap = ctx.pes_cap(qos);
        for pes in qos.min_pes..=cap {
            if now.saturating_add(ctx.wall_time(qos, pes)) <= qos.payoff.soft_deadline {
                return pes;
            }
        }
        cap
    }

    /// The payoff a running job loses if shrunk to `new_pes` right now.
    fn shrink_loss(ctx: &SchedContext<'_>, r: &RunningJob, new_pes: u32) -> Money {
        let old_finish = r.est_finish(ctx.now);
        let qos = &r.spec.qos;
        let new_rate = qos.speedup.work_rate(new_pes, qos.min_pes, qos.max_pes);
        let new_finish = if new_rate > 0.0 {
            ctx.now
                .saturating_add(SimDuration::from_secs_f64(r.remaining_work() / new_rate))
        } else {
            SimTime::MAX
        };
        let loss = qos.payoff.payoff_at(old_finish) - qos.payoff.payoff_at(new_finish);
        loss.max(Money::ZERO)
    }
}

impl SchedPolicy for Profit {
    fn name(&self) -> &'static str {
        "profit"
    }

    fn plan(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let flops = ctx.machine.flops_per_pe_sec;

        // Rank waiting jobs by payoff density, then arrival, then id.
        let mut waiting: Vec<usize> = (0..ctx.queue.len()).collect();
        waiting.sort_by(|&a, &b| {
            let (qa, qb) = (&ctx.queue[a], &ctx.queue[b]);
            density(&qb.spec.qos, flops)
                .total_cmp(&density(&qa.spec.qos, flops))
                .then(qa.arrived.cmp(&qb.arrived))
                .then(qa.spec.id.cmp(&qb.spec.id))
        });

        // Plan-local mutable copies of free capacity and victim headroom.
        let mut free = ctx.alloc.free_pes();
        // (job, current planned pes) for adaptive running jobs, lowest
        // density first — the preferred shrink victims.
        let mut victims: Vec<(JobId, u32)> = ctx
            .running
            .values()
            .filter(|r| r.spec.qos.adaptive && r.pes() > r.spec.qos.min_pes)
            .map(|r| (r.id(), r.pes()))
            .collect();
        victims.sort_by(|a, b| {
            let (ra, rb) = (&ctx.running[&a.0], &ctx.running[&b.0]);
            density(&ra.spec.qos, flops)
                .total_cmp(&density(&rb.spec.qos, flops))
                .then(a.0.cmp(&b.0))
        });

        let mut actions = vec![];

        for qi in waiting {
            let q = &ctx.queue[qi];
            let qos = &q.spec.qos;
            let pes = Self::pick_pes(ctx, qos, ctx.now);

            if free >= pes {
                actions.push(Action::Start {
                    job: q.spec.id,
                    pes,
                });
                free -= pes;
                continue;
            }

            // Reject jobs that can no longer make any money.
            let best_completion = ctx.now.saturating_add(ctx.wall_time(qos, ctx.pes_cap(qos)));
            if !qos.payoff.is_profitable_at(best_completion) {
                actions.push(Action::Reject { job: q.spec.id });
                continue;
            }

            // Try to free processors by shrinking lower-density victims.
            let my_density = density(qos, flops);
            let need = pes - free;
            let mut freed = 0u32;
            let mut loss = Money::ZERO;
            let mut shrinks: Vec<(JobId, u32)> = vec![];
            for (vid, vpes) in victims.iter() {
                if freed >= need {
                    break;
                }
                let r = &ctx.running[vid];
                if density(&r.spec.qos, flops) >= my_density {
                    continue; // never rob a more valuable job
                }
                let new_pes = r.spec.qos.min_pes.max(vpes.saturating_sub(need - freed));
                if new_pes >= *vpes {
                    continue;
                }
                freed += vpes - new_pes;
                loss += Self::shrink_loss(ctx, r, new_pes);
                shrinks.push((*vid, new_pes));
            }

            if freed >= need {
                let gain = qos
                    .payoff
                    .payoff_at(ctx.now.saturating_add(ctx.wall_time(qos, pes)));
                // The compensation test: the newcomer must pay for the
                // payoff its victims lose.
                if gain > loss {
                    for &(vid, new_pes) in &shrinks {
                        actions.push(Action::Resize { job: vid, new_pes });
                        // Update the victim table for later queue entries.
                        if let Some(v) = victims.iter_mut().find(|(id, _)| *id == vid) {
                            v.1 = new_pes;
                        }
                    }
                    actions.push(Action::Start {
                        job: q.spec.id,
                        pes,
                    });
                    free = free + freed - pes;
                    continue;
                }
            }
            // Stays queued; it will be reconsidered at the next event.
        }

        // Work conservation: leftover processors flow to running adaptive
        // jobs (most valuable first) — finishing early never reduces a
        // payoff, and an idle processor earns nothing.
        if free > 0 {
            let mut growers: Vec<JobId> = ctx
                .running
                .values()
                .filter(|r| r.spec.qos.adaptive)
                .map(|r| r.id())
                .collect();
            growers.sort_by(|a, b| {
                let (ra, rb) = (&ctx.running[a], &ctx.running[b]);
                density(&rb.spec.qos, flops)
                    .total_cmp(&density(&ra.spec.qos, flops))
                    .then(a.cmp(b))
            });
            for id in growers {
                if free == 0 {
                    break;
                }
                let r = &ctx.running[&id];
                let planned = victims
                    .iter()
                    .find(|(vid, _)| *vid == id)
                    .map_or(r.pes(), |&(_, p)| p);
                let cap = ctx.pes_cap(&r.spec.qos);
                if planned < cap {
                    let add = (cap - planned).min(free);
                    actions.push(Action::Resize {
                        job: id,
                        new_pes: planned + add,
                    });
                    free -= add;
                }
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
        // Find a window at the preferred size within the lookahead; fall
        // back to the minimum size. (Shrink opportunities make real
        // schedules only better than this promise.)
        let gantt = ctx.gantt();
        let horizon = ctx.now.saturating_add(self.lookahead);
        let mut best: Option<(SimTime, u32)> = None;
        for pes in [Self::pick_pes(ctx, qos, ctx.now), qos.min_pes] {
            let dur = ctx.wall_time(qos, pes);
            if let Some(s) = gantt.earliest_window(pes, dur, ctx.now) {
                if s <= horizon
                    && best.is_none_or(|(bs, bp)| {
                        s.saturating_add(ctx.wall_time(qos, pes))
                            < bs.saturating_add(ctx.wall_time(qos, bp))
                    })
                {
                    best = Some((s, pes));
                }
            }
        }
        let (start, pes) = best.ok_or(DeclineReason::CannotMeetDeadline)?;
        let quote = ctx.quote(qos, start, pes)?;
        if !qos.payoff.is_profitable_at(quote.est_completion) {
            return Err(DeclineReason::Unprofitable);
        }
        Ok(quote)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::*;
    use faucets_core::qos::{PayoffFn, QosBuilder, SpeedupModel};

    fn paying_qos(
        min: u32,
        max: u32,
        work: f64,
        payoff: i64,
        deadline_secs: u64,
    ) -> faucets_core::qos::QosContract {
        QosBuilder::new("app", min, max, work)
            .speedup(SpeedupModel::Perfect)
            .adaptive()
            .payoff(PayoffFn::hard_only(
                SimTime::from_secs(deadline_secs),
                Money::from_units(payoff),
                Money::from_units(20),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn starts_high_value_jobs_first() {
        let mut h = Harness::new(100);
        h.enqueue(queued_qos(1, paying_qos(80, 80, 1000.0, 10, 100_000)));
        h.enqueue(queued_qos(2, paying_qos(80, 80, 1000.0, 500, 100_000)));
        let mut p = Profit::default();
        let actions = p.plan(&h.ctx());
        // Only one fits; the $500 job wins despite arriving second.
        assert_eq!(
            actions,
            vec![Action::Start {
                job: jid(2),
                pes: 80
            }]
        );
    }

    #[test]
    fn paper_scenario_shrink_low_value_for_urgent_job() {
        // §1/§4.1: B (low value, 500 PEs, min 400) runs; urgent valuable A
        // (600 PEs) arrives → shrink B to 400, start A.
        let mut h = Harness::new(1000);
        h.run_qos(1, paying_qos(400, 500, 1e6, 10, 1_000_000), 500);
        h.enqueue(queued_qos(2, paying_qos(600, 600, 60_000.0, 1000, 400)));
        let mut p = Profit::default();
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![
                Action::Resize {
                    job: jid(1),
                    new_pes: 400
                },
                Action::Start {
                    job: jid(2),
                    pes: 600
                },
            ]
        );
    }

    #[test]
    fn refuses_to_shrink_when_compensation_fails() {
        let mut h = Harness::new(1000);
        // Victim is worth $10000 and would blow its deadline if shrunk.
        let victim = paying_qos(400, 500, 4e5, 10_000, 900);
        h.run_qos(1, victim, 500); // at 500 PEs: 800 s < 900 deadline
                                   // Newcomer pays only $50.
        h.enqueue(queued_qos(2, paying_qos(600, 600, 60_000.0, 50, 2000)));
        let mut p = Profit::default();
        let actions = p.plan(&h.ctx());
        assert!(
            actions.is_empty(),
            "shrinking would cost 10k to earn 50: {actions:?}"
        );
    }

    #[test]
    fn never_robs_higher_density_jobs() {
        let mut h = Harness::new(100);
        // Running job: high density ($1000 / 1000 cpu-s = 1).
        h.run_qos(1, paying_qos(50, 100, 1000.0, 1000, 100_000), 100);
        // Newcomer: low density ($10 / 1000 cpu-s).
        h.enqueue(queued_qos(2, paying_qos(50, 50, 1000.0, 10, 100_000)));
        let mut p = Profit::default();
        assert!(p.plan(&h.ctx()).is_empty());
    }

    #[test]
    fn rejects_jobs_that_can_no_longer_profit() {
        let mut h = Harness::new(100);
        h.run_rigid(1, 100, 1e6); // machine full for a long time
                                  // Hard deadline in 10 s, needs 100 s even at full size.
        h.enqueue(queued_qos(2, paying_qos(100, 100, 10_000.0, 100, 10)));
        let mut p = Profit::default();
        let actions = p.plan(&h.ctx());
        assert_eq!(actions, vec![Action::Reject { job: jid(2) }]);
    }

    #[test]
    fn picks_smallest_pes_meeting_soft_deadline() {
        let mut h = Harness::new(100);
        // 1000 cpu-s, soft deadline 50 s → needs ≥ 20 PEs.
        h.enqueue(queued_qos(1, paying_qos(10, 100, 1000.0, 100, 50)));
        let mut p = Profit::default();
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![Action::Start {
                job: jid(1),
                pes: 20
            }]
        );
    }

    #[test]
    fn probe_enforces_lookahead_and_profitability() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 100, 720_000.0); // busy for 7200 s
        let p = Profit::default(); // lookahead 1 h = 3600 s
                                   // Feasible job, but its window opens past the lookahead.
        let q = paying_qos(50, 50, 500.0, 100, 100_000);
        assert_eq!(
            p.probe(&h.ctx(), &q).unwrap_err(),
            DeclineReason::CannotMeetDeadline
        );
        // With a longer lookahead it is accepted.
        let p2 = Profit {
            lookahead: SimDuration::from_hours(3),
        };
        let quote = p2.probe(&h.ctx(), &q).unwrap();
        assert_eq!(quote.est_completion, SimTime::from_secs(7210));
    }

    #[test]
    fn probe_rejects_unprofitable() {
        let h = Harness::new(100);
        let p = Profit::default();
        // Penalty-bearing payoff already expired: hard deadline in the past
        // relative to any completion.
        let q = QosBuilder::new("app", 10, 10, 1000.0)
            .speedup(SpeedupModel::Perfect)
            .payoff(PayoffFn::hard_only(
                SimTime::from_secs(1),
                Money::from_units(10),
                Money::from_units(5),
            ))
            .build()
            .unwrap();
        assert_eq!(
            p.probe(&h.ctx(), &q).unwrap_err(),
            DeclineReason::CannotMeetDeadline
        );
    }

    #[test]
    fn plan_is_deterministic() {
        let build = || {
            let mut h = Harness::new(100);
            for i in 0..6 {
                h.enqueue(queued_qos(i, paying_qos(20, 40, 500.0, 50, 10_000)));
            }
            h
        };
        let mut p = Profit::default();
        let a = p.plan(&build().ctx());
        let b = p.plan(&build().ctx());
        assert_eq!(a, b);
    }
}
