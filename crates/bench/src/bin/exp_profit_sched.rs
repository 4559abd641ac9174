//! E5 — Profit-aware scheduling (§4.1).
//!
//! One machine under a deadline-tight, penalty-bearing workload. The profit
//! policy (admission with compensation test + Gantt lookahead) against
//! accept-everything policies.
//!
//! Paper expectation: accept-all policies chase utilization, blow deadlines,
//! and pay penalties; the profit scheduler rejects doomed work, keeps
//! deadline misses low, and earns the most payoff. `--lookahead-mins <m>`
//! runs the lookahead-depth ablation (plumbed through the policy default).

use faucets_bench::{deadline_tight_mix, market, ExitCode, Report};
use faucets_grid::prelude::*;
use faucets_grid::workload::Workload;
use faucets_sim::time::{SimDuration, SimTime};

fn main() -> ExitCode {
    let mut report = Report::new("E5", "profit_sched");
    let pes: u32 = report.flag("pes", 256);
    let hours: u64 = report.flag("hours", 48);
    let mix = deadline_tight_mix();

    let mut table = Table::new(
        format!("E5: profit scheduling under deadline pressure — {pes}-PE machine, {hours} h"),
        &[
            "load rho",
            "policy",
            "payoff earned",
            "price revenue",
            "misses",
            "rejected",
            "completed",
            "delivered util",
        ],
    );

    for rho in [0.8, 1.1, 1.4] {
        let inter = Workload::interarrival_for_load(&mix, rho, pes);
        for policy in ["fcfs", "equipartition", "profit"] {
            let sim = market(577, 6, inter, hours)
                .cluster(pes, policy, "baseline")
                .mix(mix.clone())
                .build();
            let mut w = run_scenario(sim);
            let node = w.nodes.values_mut().next().unwrap();
            let m = &node.cluster.metrics;
            let payoff = m.revenue_payoff;
            let price = m.revenue_price;
            let misses = m.deadline_misses;
            let rejected = w.stats.rejected + m.rejected;
            let completed = w.stats.completed;
            let util = node
                .cluster
                .metrics
                .utilization(SimTime::ZERO + SimDuration::from_hours(hours));
            table.row(vec![
                f2(rho),
                policy.into(),
                payoff.to_string(),
                price.to_string(),
                misses.to_string(),
                rejected.to_string(),
                completed.to_string(),
                pct(util),
            ]);
        }
    }
    report.table(&table);
    println!(
        "Paper shape: past saturation (rho > 1), accept-all policies miss\n\
         deadlines wholesale and bleed penalties; the profit scheduler\n\
         rejects unprofitable work up front and earns the highest payoff.\n\
         (Rejected = declined at bid time by the admission probe plus\n\
         dropped by the scheduler after acceptance.)"
    );
    report.finish()
}
