//! E4 — Scheduler shoot-out (\[15\], §4.1): FCFS vs EASY backfilling vs the
//! adaptive equipartition scheduler on one machine, across offered loads.
//!
//! Workload: Poisson arrivals calibrated to offered load ρ, heavy-tailed
//! log-normal runtimes, moldable/adaptive jobs (1–64 minimum PEs).
//!
//! Paper expectation (from \[15\]): adaptive scheduling dominates at every
//! load — higher delivered utilization and lower response/slowdown — with
//! the gap widening as ρ grows; backfilling sits between FCFS and adaptive.
//! `--resize-scale <x>` runs the resize-overhead ablation.

use faucets_bench::{market, standard_mix, ExitCode, Report};
use faucets_grid::prelude::*;
use faucets_grid::workload::Workload;
use faucets_sim::time::{SimDuration, SimTime};

fn main() -> ExitCode {
    let mut report = Report::new("E4", "schedulers");
    let resize_scale: f64 = report.flag("resize-scale", 1.0);
    let pes: u32 = report.flag("pes", 256);
    let hours: u64 = report.flag("hours", 48);
    let mix = standard_mix();

    let mut table = Table::new(
        format!(
            "E4: schedulers under load — {pes}-PE machine, {hours} h, resize cost x{resize_scale}"
        ),
        &[
            "load rho",
            "policy",
            "delivered util",
            "mean resp (s)",
            "mean slowdown",
            "p95 slowdown",
            "completed",
            "resizes",
        ],
    );

    for rho in [0.5, 0.7, 0.85, 0.95] {
        let inter = Workload::interarrival_for_load(&mix, rho, pes);
        for policy in [
            "fcfs",
            "easy-backfill",
            "conservative-backfill",
            "equipartition",
        ] {
            let sim = market(401, 6, inter, hours)
                .cluster(pes, policy, "baseline")
                .resize_cost_scale(resize_scale)
                .build();
            let mut w = run_scenario(sim);
            let node = w.nodes.values_mut().next().unwrap();
            let util = node
                .cluster
                .metrics
                .utilization(SimTime::ZERO + SimDuration::from_hours(hours));
            table.row(vec![
                f2(rho),
                policy.into(),
                pct(util),
                f2(w.stats.response.mean()),
                f2(w.stats.slowdown.mean()),
                f2(w.stats.slowdown_p95.estimate()),
                w.stats.completed.to_string(),
                node.cluster.metrics.resizes.to_string(),
            ]);
        }
    }
    report.table(&table);
    println!(
        "Paper shape ([15]): equipartition delivers the highest utilization and\n\
         the lowest response/slowdown at every load, with the advantage over\n\
         FCFS growing toward saturation; EASY backfilling lands in between."
    );
    report.finish()
}
