//! EASY backfilling — the stronger rigid-scheduler baseline.
//!
//! FCFS order with a reservation for the head job: later jobs may jump the
//! queue only if they do not delay the head's reservation (either they
//! finish before the reservation, or they fit in the processors the head
//! will not use). This is the standard comparator for adaptive scheduling
//! in the malleable-jobs literature and the E4 baseline.

use crate::policy::{Action, QueuedJob, SchedContext, SchedPolicy};
use faucets_core::bid::DeclineReason;
use faucets_core::daemon::SchedulerQuote;
use faucets_core::qos::QosContract;
use faucets_sim::time::SimTime;

/// EASY (aggressive) backfilling over moldable jobs.
#[derive(Debug, Clone, Copy, Default)]
pub struct EasyBackfill;

impl EasyBackfill {
    /// The shadow point for the head job: (earliest start, spare PEs at
    /// that start after the head takes its share).
    fn shadow(ctx: &SchedContext<'_>, head: &QueuedJob) -> Option<(SimTime, u32)> {
        let gantt = ctx.gantt();
        let head_pes = head.spec.qos.min_pes;
        let dur = ctx.wall_time(&head.spec.qos, head_pes);
        let start = gantt.earliest_window(head_pes, dur, ctx.now)?;
        let spare = gantt.free_at(start).saturating_sub(head_pes);
        Some((start, spare))
    }
}

impl SchedPolicy for EasyBackfill {
    fn name(&self) -> &'static str {
        "easy-backfill"
    }

    fn plan(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let mut actions = vec![];
        let mut free = ctx.alloc.free_pes();
        let mut queue: Vec<&QueuedJob> = ctx.queue.iter().collect();

        // Start jobs from the head while they fit.
        while let Some(q) = queue.first() {
            let min = q.spec.qos.min_pes;
            if free < min {
                break;
            }
            let pes = q.spec.qos.max_pes.min(free);
            actions.push(Action::Start {
                job: q.spec.id,
                pes,
            });
            free -= pes;
            queue.remove(0);
        }

        // Head blocked: compute its reservation and backfill behind it.
        if let Some(head) = queue.first() {
            if let Some((shadow, spare)) = Self::shadow(ctx, head) {
                let mut spare = spare;
                for q in queue.iter().skip(1) {
                    let min = q.spec.qos.min_pes;
                    if free < min {
                        continue;
                    }
                    let pes = q.spec.qos.max_pes.min(free);
                    // Condition (a): finishes before the head's reservation.
                    let fits_before =
                        ctx.now.saturating_add(ctx.wall_time(&q.spec.qos, pes)) <= shadow;
                    // Condition (b): uses only processors spare at the shadow.
                    let fits_spare = pes <= spare;
                    if fits_before || fits_spare {
                        actions.push(Action::Start {
                            job: q.spec.id,
                            pes,
                        });
                        free -= pes;
                        if !fits_before {
                            spare -= pes;
                        }
                    }
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
        // Approximate: reserve the queue in FCFS order (backfilling can only
        // improve on this promise), then place the new job.
        let mut gantt = ctx.gantt();
        for q in ctx.queue {
            let pes = q.spec.qos.min_pes;
            let dur = ctx.wall_time(&q.spec.qos, pes);
            if let Some(s) = gantt.earliest_window(pes, dur, ctx.now) {
                gantt.reserve(s, dur, pes);
            }
        }
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

    #[test]
    fn backfills_short_job_past_blocked_head() {
        let mut h = Harness::new(100);
        // 60 PEs busy for 1000 s.
        h.run_rigid(9, 60, 60_000.0);
        // Head needs 80 (blocked until t=1000); a 10-s 20-PE job can slip in.
        h.enqueue(queued(1, 80, 80, 1000.0));
        h.enqueue(queued(2, 20, 20, 200.0)); // 10 s on 20 PEs
        let mut p = EasyBackfill;
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![Action::Start {
                job: jid(2),
                pes: 20
            }]
        );
    }

    #[test]
    fn never_delays_head_reservation() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 60, 60_000.0); // finishes t=1000
        h.enqueue(queued(1, 80, 80, 1000.0)); // reservation at t=1000
                                              // This job needs 2000 s on 40 PEs (all free): would push the head
                                              // past its reservation, and 40 > spare (100-80=20) → refused.
        h.enqueue(queued(2, 40, 40, 80_000.0));
        let mut p = EasyBackfill;
        assert!(p.plan(&h.ctx()).is_empty());
    }

    #[test]
    fn backfills_into_shadow_spare() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 60, 60_000.0); // finishes t=1000
        h.enqueue(queued(1, 80, 80, 1000.0)); // head: spare at shadow = 20
                                              // Long job, but only 15 PEs ≤ spare 20 → may run indefinitely.
        h.enqueue(queued(2, 15, 15, 1_000_000.0));
        let mut p = EasyBackfill;
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![Action::Start {
                job: jid(2),
                pes: 15
            }]
        );
    }

    #[test]
    fn starts_head_when_it_fits() {
        let mut h = Harness::new(100);
        h.enqueue(queued(1, 30, 50, 100.0));
        h.enqueue(queued(2, 50, 60, 100.0));
        let mut p = EasyBackfill;
        let actions = p.plan(&h.ctx());
        // Head takes max 50, second takes remaining 50.
        assert_eq!(
            actions,
            vec![
                Action::Start {
                    job: jid(1),
                    pes: 50
                },
                Action::Start {
                    job: jid(2),
                    pes: 50
                },
            ]
        );
    }

    #[test]
    fn probe_quotes_completion() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 100, 10_000.0); // busy until t=100
        let p = EasyBackfill;
        let quote = p.probe(&h.ctx(), &qos_fixed(100, 100, 1000.0)).unwrap();
        assert_eq!(quote.est_completion, SimTime::from_secs(110));
        let gantt = h.ctx().gantt();
        assert!(gantt.mean_utilization(h.now, quote.est_completion) > 0.9);
    }

    #[test]
    fn probe_declines_infeasible() {
        let h = Harness::new(10);
        let p = EasyBackfill;
        assert!(p.probe(&h.ctx(), &qos_fixed(20, 20, 1.0)).is_err());
    }
}
