//! E3 — External fragmentation (§1 scenario).
//!
//! *"when a user needs to run a parallel application, all the parallel
//! machines that they have accounts on are busy … However, there are
//! several other parallel machines that are idle, but cannot be used since
//! the user does not have an account on them."*
//!
//! Eight identical clusters; users hold accounts on 1 or 2 of them
//! (restricted mode) versus full market access via Faucets bidding. Same
//! workload throughout.
//!
//! Paper expectation: the market erases external fragmentation — waiting
//! drops sharply and load spreads across clusters.

use faucets_bench::{market, ExitCode, Report};
use faucets_core::market::SelectionPolicy;
use faucets_grid::prelude::*;
use faucets_sim::time::{SimDuration, SimTime};

fn build(mode: MarketMode, accounts: usize) -> GridWorld {
    // Three users whose accounts land on clusters 1..3 — the other five
    // machines are "idle but cannot be used" in restricted mode (§1).
    let mut b = market(31, 3, SimDuration::from_secs(110), 24)
        .accounts_per_user(accounts)
        .mode(mode);
    for _ in 0..8 {
        b = b.cluster(128, "equipartition", "baseline");
    }
    run_scenario(b.build())
}

fn main() -> ExitCode {
    let mut report = Report::new("E3", "external_frag");
    let mut table = Table::new(
        "E3: external fragmentation — 8x128-PE grid, 24 h of jobs",
        &[
            "access",
            "completed",
            "mean wait (s)",
            "mean slowdown",
            "p95 slowdown",
            "idle clusters",
        ],
    );

    let cases = [
        ("accounts on 1 cluster", MarketMode::Restricted, 1),
        ("accounts on 2 clusters", MarketMode::Restricted, 2),
        (
            "Faucets market (all 8)",
            MarketMode::Bidding(SelectionPolicy::EarliestCompletion),
            1,
        ),
    ];
    for (label, mode, accounts) in cases {
        let mut w = build(mode, accounts);
        let end = SimTime::ZERO + SimDuration::from_hours(24);
        let idle = w
            .nodes
            .values_mut()
            .map(|n| n.cluster.metrics.utilization(end))
            .filter(|&u| u < 0.01)
            .count();
        table.row(vec![
            label.into(),
            w.stats.completed.to_string(),
            f2(w.stats.wait.mean()),
            f2(w.stats.slowdown.mean()),
            f2(w.stats.slowdown_p95.estimate()),
            format!("{idle}/8"),
        ]);
    }
    report.table(&table);
    println!(
        "Paper shape: with accounts on 1-2 clusters, most of the grid sits\n\
         idle while the account-holding machines queue up; market access\n\
         reaches every machine and erases the waiting."
    );
    report.finish()
}
