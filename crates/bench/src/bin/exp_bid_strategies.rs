//! E6 — Bid-generation strategies in competition (§5.2).
//!
//! Part A: four identical machines, two bidding the paper's baseline
//! (multiplier 1.0 always) and two the utilization-interpolated strategy
//! with the paper's parameters (k=1, α=0.5, β=2.0), competing for the same
//! least-cost clients.
//!
//! Part B: parameter sweep over (α, β) for one interpolated cluster against
//! three baseline clusters — the risk-appetite knobs the paper assigns to α
//! and β.
//!
//! Paper expectation: the interpolated strategy undercuts when idle (wins
//! work) and premiums when loaded (earns more per job), beating the
//! baseline on profit at comparable utilization.

use faucets_bench::{market, ExitCode, Report};
use faucets_core::money::Money;
use faucets_grid::prelude::*;
use faucets_sim::time::{SimDuration, SimTime};

fn run(strategies: &[String], seed: u64) -> GridWorld {
    let mut b = market(seed, 10, SimDuration::from_secs(60), 24);
    for s in strategies {
        b = b.cluster(256, "equipartition", s);
    }
    run_scenario(b.build())
}

fn main() -> ExitCode {
    let mut report = Report::new("E6", "bid_strategies");
    // Part A: baseline vs the paper's interpolated strategy, 2 v 2.
    let strategies: Vec<String> = vec![
        "baseline".into(),
        "util-interp".into(),
        "baseline".into(),
        "util-interp".into(),
    ];
    let mut w = run(&strategies, 601);
    let end = SimTime::ZERO + SimDuration::from_hours(24);

    let mut table = Table::new(
        "E6a: baseline vs util-interpolated (k=1, a=0.5, b=2.0), least-cost clients",
        &[
            "cluster",
            "strategy",
            "jobs won",
            "revenue",
            "rev/job",
            "utilization",
        ],
    );
    let mut revenue_by: std::collections::BTreeMap<&'static str, (Money, u64)> = Default::default();
    for (id, node) in w.nodes.iter_mut() {
        let m = &mut node.cluster.metrics;
        let (completed, revenue) = (m.completed, m.revenue_price);
        let util = m.utilization(end);
        let per_job = if completed > 0 {
            revenue.mul_f64(1.0 / completed as f64)
        } else {
            Money::ZERO
        };
        table.row(vec![
            id.to_string(),
            node.daemon.strategy_name().into(),
            completed.to_string(),
            revenue.to_string(),
            per_job.to_string(),
            pct(util),
        ]);
        let e = revenue_by
            .entry(node.daemon.strategy_name())
            .or_insert((Money::ZERO, 0));
        e.0 += revenue;
        e.1 += completed;
    }
    report.table(&table);
    let mut totals = Table::new("E6a totals by strategy", &["strategy", "jobs", "revenue"]);
    for (s, (rev, jobs)) in &revenue_by {
        totals.row(vec![s.to_string(), jobs.to_string(), rev.to_string()]);
    }
    report.table(&totals);

    // Part B: (alpha, beta) sweep for one interpolated cluster vs 3 baselines.
    let mut sweep = Table::new(
        "E6b: util-interp parameter sweep (one interp cluster vs three baselines)",
        &[
            "alpha",
            "beta",
            "interp jobs",
            "interp revenue",
            "baseline revenue (sum)",
        ],
    );
    for alpha in [0.25, 0.5, 0.75] {
        for beta in [0.5, 2.0, 4.0] {
            let strategies: Vec<String> = vec![
                format!("util-interp:1,{alpha},{beta}"),
                "baseline".into(),
                "baseline".into(),
                "baseline".into(),
            ];
            let w = run(&strategies, 700 + (alpha * 100.0) as u64 + beta as u64);
            let mut interp = (0u64, Money::ZERO);
            let mut base = Money::ZERO;
            for node in w.nodes.values() {
                let m = &node.cluster.metrics;
                if node.daemon.strategy_name() == "util-interp" {
                    interp = (m.completed, m.revenue_price);
                } else {
                    base += m.revenue_price;
                }
            }
            sweep.row(vec![
                f2(alpha),
                f2(beta),
                interp.0.to_string(),
                interp.1.to_string(),
                base.to_string(),
            ]);
        }
    }
    report.table(&sweep);
    println!(
        "Paper shape: larger alpha (deeper idle discount) wins more jobs;\n\
         larger beta (steeper busy premium) earns more per job when loaded.\n\
         The paper's (0.5, 2.0) is a middle point of that trade-off."
    );
    report.finish()
}
