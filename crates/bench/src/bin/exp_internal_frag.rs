//! E2 — Internal fragmentation (§1 scenario).
//!
//! A 1000-processor machine runs an unimportant long adaptive job B on 500
//! processors (min 400). An urgent job A arrives needing `a_pes`
//! processors. Rigid schedulers make A languish while processors idle; the
//! adaptive schedulers shrink B. We sweep A's size and report A's wait, its
//! deadline fate, and machine utilization per policy, plus a resize-cost
//! ablation (`--resize-scale <x>`, default 1).
//!
//! Paper expectation: with A ≤ 500 every policy starts it immediately; the
//! moment A needs more than the free 500 processors, rigid policies hold it
//! for hours while adaptive ones start it at once.

use faucets_bench::{ExitCode, Report};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, SpeedupModel};
use faucets_grid::prelude::*;
use faucets_grid::scenario::policy_by_name;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::machine::MachineSpec;
use faucets_sim::time::{SimDuration, SimTime};

fn job_b() -> JobSpec {
    let qos = QosBuilder::new("background", 400, 500, 4_000_000.0)
        .speedup(SpeedupModel::Perfect)
        .adaptive()
        .payoff(PayoffFn::flat(Money::from_units(50)))
        .build()
        .unwrap();
    JobSpec::new(JobId(1), UserId(1), qos, SimTime::ZERO).unwrap()
}

fn job_a(at: SimTime, pes: u32) -> JobSpec {
    let qos = QosBuilder::new("urgent", pes, pes, pes as f64 * 1_000.0)
        .speedup(SpeedupModel::Perfect)
        .payoff(PayoffFn::hard_only(
            at + SimDuration::from_hours(1),
            Money::from_units(5_000),
            Money::from_units(1_000),
        ))
        .build()
        .unwrap();
    JobSpec::new(JobId(2), UserId(2), qos, at).unwrap()
}

fn main() -> ExitCode {
    let mut report = Report::new("E2", "internal_frag");
    let resize_scale: f64 = report.flag("resize-scale", 1.0);
    let arrival = SimTime::from_secs(60);

    let mut table = Table::new(
        format!("E2: internal fragmentation — 1000-PE machine, job B on 500 PEs (min 400), urgent job A arrives (resize cost x{resize_scale})"),
        &["A needs", "policy", "A waits (s)", "A deadline", "utilization", "resizes"],
    );

    for a_pes in [400u32, 500, 600, 700, 900] {
        for policy in ["fcfs", "easy-backfill", "equipartition", "profit"] {
            let mut cluster = Cluster::new(
                MachineSpec::commodity(ClusterId(1), "bigiron", 1000),
                policy_by_name(policy),
                ResizeCostModel::default().scaled(resize_scale),
            );
            cluster.submit_job(job_b(), ContractId(1), Money::from_units(50), SimTime::ZERO);
            cluster.submit_job(
                job_a(arrival, a_pes),
                ContractId(2),
                Money::from_units(5_000),
                arrival,
            );
            let (completions, end) = cluster.run_to_idle(arrival);

            let a = completions.iter().find(|c| c.outcome.job == JobId(2));
            let (wait, met) = match a {
                Some(c) => (
                    f2(c.outcome.wait_secs()),
                    if c.outcome.met_deadline {
                        "met"
                    } else {
                        "MISSED"
                    },
                ),
                None => ("rejected".into(), "-"),
            };
            table.row(vec![
                a_pes.to_string(),
                policy.into(),
                wait,
                met.into(),
                pct(cluster.metrics.utilization(end)),
                cluster.metrics.resizes.to_string(),
            ]);
        }
    }
    report.table(&table);
    println!(
        "Paper shape: up to 500 PEs everyone starts A immediately; beyond 500,\n\
         rigid policies (fcfs, easy-backfill) make A wait for B's completion\n\
         while ≥500 processors idle, adaptive policies shrink B and start A at\n\
         once. The profit policy does the same whenever A's payoff covers B's\n\
         delay loss."
    );
    report.finish()
}
