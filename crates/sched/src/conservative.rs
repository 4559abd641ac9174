//! Conservative backfilling — the stricter rigid-scheduler baseline.
//!
//! Where EASY ([`crate::backfill`]) holds a reservation only for the head
//! job, conservative backfilling gives *every* queued job a reservation in
//! the processor-time Gantt profile, and a later job may start early only
//! if it delays none of them. Predictable completion promises at the cost
//! of fewer backfill opportunities — the standard counterpart in the
//! scheduling literature the paper's \[15\] compares against.

use crate::policy::{Action, SchedContext, SchedPolicy};
use faucets_core::bid::DeclineReason;
use faucets_core::daemon::SchedulerQuote;
use faucets_core::qos::QosContract;

/// Conservative backfilling over moldable jobs (placed at their minimum
/// size for reservations, started at up to their maximum when they fit
/// immediately).
#[derive(Debug, Clone, Copy, Default)]
pub struct ConservativeBackfill;

impl SchedPolicy for ConservativeBackfill {
    fn name(&self) -> &'static str {
        "conservative-backfill"
    }

    fn plan(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let mut actions = vec![];
        let mut gantt = ctx.gantt();
        let mut free = ctx.alloc.free_pes();

        // Walk the queue in order, booking a reservation for every job; a
        // job starts now iff its own reservation begins now.
        for q in ctx.queue {
            let qos = &q.spec.qos;
            let min = qos.min_pes;
            if min > ctx.machine.total_pes {
                actions.push(Action::Reject { job: q.spec.id });
                continue;
            }
            let dur = ctx.wall_time(qos, min);
            let Some(start) = gantt.earliest_window(min, dur, ctx.now) else {
                continue; // cannot ever fit given earlier reservations
            };
            if start == ctx.now && free >= min {
                // Start immediately; take extra processors only if no later
                // reservation needs them right now (the profile knows).
                let mut pes = min;
                let cap = ctx.pes_cap(qos).min(free);
                while pes < cap {
                    let d = ctx.wall_time(qos, pes + 1);
                    if gantt.min_free_over(ctx.now, d) > pes {
                        pes += 1;
                    } else {
                        break;
                    }
                }
                let dur = ctx.wall_time(qos, pes);
                gantt.reserve(ctx.now, dur, pes);
                free -= pes;
                actions.push(Action::Start {
                    job: q.spec.id,
                    pes,
                });
            } else {
                // Book the future slot so nothing later can delay this job.
                gantt.reserve(start, dur, min);
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
        // Rebuild the full reservation profile, then place the new job.
        let mut gantt = ctx.gantt();
        for q in ctx.queue {
            let min = q.spec.qos.min_pes;
            let dur = ctx.wall_time(&q.spec.qos, min);
            if let Some(s) = gantt.earliest_window(min, dur, ctx.now) {
                gantt.reserve(s, dur, min);
            }
        }
        let pes = qos.min_pes;
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
    use faucets_sim::time::SimTime;

    #[test]
    fn starts_jobs_that_fit_now() {
        let mut h = Harness::new(100);
        h.enqueue(queued(1, 30, 30, 100.0));
        h.enqueue(queued(2, 40, 40, 100.0));
        let mut p = ConservativeBackfill;
        let actions = p.plan(&h.ctx());
        assert!(actions.contains(&Action::Start {
            job: jid(1),
            pes: 30
        }));
        assert!(actions.contains(&Action::Start {
            job: jid(2),
            pes: 40
        }));
    }

    #[test]
    fn backfills_only_without_delaying_any_reservation() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 60, 60_000.0); // busy until t=1000
                                      // Head: 80 PEs — reserved at t=1000.
        h.enqueue(queued(1, 80, 80, 1000.0));
        // Second: 50 PEs, 100 s — would overlap the head's reservation
        // (free at t=1000 is 100-80=20 < 50), so it is reserved later, NOT
        // started now even though 40 are free... (40 < 50 anyway).
        h.enqueue(queued(2, 50, 50, 5_000.0));
        // Third: 20 PEs for 900 s — fits now AND fits under everyone's
        // reservations (head leaves 20 spare at t=1000; second's slot is
        // later). Conservative allows it.
        h.enqueue(queued(3, 20, 20, 18_000.0));
        let mut p = ConservativeBackfill;
        let actions = p.plan(&h.ctx());
        assert_eq!(
            actions,
            vec![Action::Start {
                job: jid(3),
                pes: 20
            }]
        );
    }

    #[test]
    fn never_delays_second_reservation_either() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 60, 60_000.0); // until t=1000
        h.enqueue(queued(1, 80, 80, 1000.0)); // reserved [1000, ...)
        h.enqueue(queued(2, 20, 20, 2_000.0)); // reserved at t=0? free=40 ≥ 20 → starts now
        let mut p = ConservativeBackfill;
        let actions = p.plan(&h.ctx());
        // Job 2 fits immediately within the head's spare-at-shadow margin.
        assert_eq!(
            actions,
            vec![Action::Start {
                job: jid(2),
                pes: 20
            }]
        );
    }

    #[test]
    fn probe_accounts_for_every_reservation() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 100, 10_000.0); // until t=100
        h.enqueue(queued(1, 100, 100, 5_000.0)); // reserved [100, 150)
        h.enqueue(queued(2, 100, 100, 5_000.0)); // reserved [150, 200)
        let p = ConservativeBackfill;
        let quote = p.probe(&h.ctx(), &qos_fixed(100, 100, 1000.0)).unwrap();
        // Starts after both reservations: 200 + 10.
        assert_eq!(quote.est_completion, SimTime::from_secs(210));
    }

    #[test]
    fn rejects_impossible_jobs() {
        let h = Harness::new(10);
        let p = ConservativeBackfill;
        assert_eq!(
            p.probe(&h.ctx(), &qos_fixed(20, 20, 1.0)).unwrap_err(),
            DeclineReason::InsufficientResources
        );
    }
}
