//! First-come-first-served — the traditional queuing-system baseline.
//!
//! This is the "most current production queuing systems" strawman of §4.1:
//! rigid in-order starts, no backfilling, no resizing. It is the policy that
//! leaves 500 processors idle in the paper's internal-fragmentation
//! scenario, which experiment E2 reproduces.

use crate::policy::{Action, QueuedJob, SchedContext, SchedPolicy};
use faucets_core::bid::DeclineReason;
use faucets_core::daemon::SchedulerQuote;
use faucets_core::qos::QosContract;

/// Strict FCFS over moldable jobs: the head job starts when its minimum
/// processor request fits (taking up to its maximum); nothing behind the
/// head may overtake it.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl Fcfs {
    /// The processor count FCFS gives a job when `free` are available.
    fn pick_pes(q: &QueuedJob, free: u32) -> Option<u32> {
        let min = q.spec.qos.min_pes;
        let max = q.spec.qos.max_pes;
        (free >= min).then(|| max.min(free))
    }
}

impl SchedPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn plan(&mut self, ctx: &SchedContext<'_>) -> Vec<Action> {
        let mut actions = vec![];
        let mut free = ctx.alloc.free_pes();
        for q in ctx.queue {
            match Self::pick_pes(q, free) {
                Some(pes) => {
                    free -= pes;
                    actions.push(Action::Start {
                        job: q.spec.id,
                        pes,
                    });
                }
                // Strict FCFS: the first job that doesn't fit blocks the rest.
                None => break,
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
        // Plan the existing queue onto the Gantt profile in FCFS order, then
        // place the probed job behind it.
        let mut gantt = ctx.gantt();
        let mut after = ctx.now;
        for q in ctx.queue {
            let pes = ctx.pes_cap(&q.spec.qos).max(q.spec.qos.min_pes);
            let dur = ctx.wall_time(&q.spec.qos, pes);
            match gantt.earliest_window(pes, dur, after) {
                Some(s) => {
                    gantt.reserve(s, dur, pes);
                    after = s; // later jobs cannot start before earlier ones
                }
                None => return Err(DeclineReason::InsufficientResources),
            }
        }
        let pes = ctx.pes_cap(qos);
        let dur = ctx.wall_time(qos, pes);
        let start = gantt
            .earliest_window(pes, dur, after)
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
    fn starts_in_order_while_capacity_lasts() {
        let mut h = Harness::new(100);
        h.enqueue(queued(1, 4, 30, 100.0));
        h.enqueue(queued(2, 4, 30, 100.0));
        h.enqueue(queued(3, 80, 80, 100.0));
        let mut p = Fcfs;
        let actions = p.plan(&h.ctx());
        // Jobs 1 and 2 take 30 each; job 3 (min 80 > 40 free) blocks.
        assert_eq!(
            actions,
            vec![
                Action::Start {
                    job: jid(1),
                    pes: 30
                },
                Action::Start {
                    job: jid(2),
                    pes: 30
                },
            ]
        );
    }

    #[test]
    fn head_of_line_blocking() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 40, 1000.0); // 40 PEs busy
                                    // Head needs 80; a tiny job behind it must NOT overtake.
        h.enqueue(queued(1, 80, 80, 100.0));
        h.enqueue(queued(2, 1, 1, 10.0));
        let mut p = Fcfs;
        assert!(p.plan(&h.ctx()).is_empty(), "FCFS never backfills");
    }

    #[test]
    fn moldable_head_takes_up_to_max() {
        let mut h = Harness::new(100);
        h.enqueue(queued(1, 10, 64, 100.0));
        let mut p = Fcfs;
        assert_eq!(
            p.plan(&h.ctx()),
            vec![Action::Start {
                job: jid(1),
                pes: 64
            }]
        );
    }

    #[test]
    fn probe_accounts_for_running_work() {
        let mut h = Harness::new(100);
        // Machine full with one 100-PE job finishing at t=100.
        h.run_rigid(9, 100, 10_000.0);
        let p = Fcfs;
        let qos = qos_fixed(50, 50, 5000.0); // 100 s on 50 PEs
        let quote = p.probe(&h.ctx(), &qos).unwrap();
        // Must wait for the running job: start 100, run 100 → completion 200.
        assert_eq!(quote.est_completion, SimTime::from_secs(200));
        assert_eq!(quote.planned_pes, 50);
    }

    #[test]
    fn probe_accounts_for_queue() {
        let mut h = Harness::new(100);
        h.run_rigid(9, 100, 10_000.0); // busy until t=100
        h.enqueue(queued(1, 100, 100, 5_000.0)); // will run [100, 150)
        let p = Fcfs;
        let quote = p.probe(&h.ctx(), &qos_fixed(100, 100, 1000.0)).unwrap();
        // Starts after the queued job: 150 + 10 = 160.
        assert_eq!(quote.est_completion, SimTime::from_secs(160));
    }

    #[test]
    fn probe_declines_oversized_and_late_jobs() {
        let h = Harness::new(100);
        let p = Fcfs;
        assert_eq!(
            p.probe(&h.ctx(), &qos_fixed(200, 200, 10.0)).unwrap_err(),
            DeclineReason::InsufficientResources
        );
        // Deadline 50 s but the job needs 100 s on all 100 PEs.
        let late = qos_deadline(100, 100, 10_000.0, 50);
        assert_eq!(
            p.probe(&h.ctx(), &late).unwrap_err(),
            DeclineReason::CannotMeetDeadline
        );
    }
}
