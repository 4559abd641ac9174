//! E7 — Bid evaluation criteria (§5.3).
//!
//! *"each client receives all the bids and selects one of the Compute
//! Servers for the job based on a simple criteria (such as least cost, or
//! earliest promised completion time)."*
//!
//! Three clusters at different price levels and sizes; the same workload is
//! run under each client-side selection policy.
//!
//! Paper expectation: least-cost minimizes spend but queues on the cheap
//! machine; earliest-completion minimizes waiting but overpays; the
//! payoff-aware best-value policy nets clients the most (payoff − price).

use faucets_bench::{market, ExitCode, Report};
use faucets_core::market::SelectionPolicy;
use faucets_core::money::Money;
use faucets_grid::prelude::*;
use faucets_sim::time::SimDuration;

fn main() -> ExitCode {
    let mut report = Report::new("E7", "selection");
    let policies: [(&str, SelectionPolicy); 4] = [
        ("least-cost", SelectionPolicy::LeastCost),
        ("earliest-completion", SelectionPolicy::EarliestCompletion),
        (
            "weighted ($50/h)",
            SelectionPolicy::Weighted {
                time_value_per_hour: Money::from_units(50),
            },
        ),
        ("best-value", SelectionPolicy::BestValue),
    ];

    let mut table = Table::new(
        "E7: client selection criteria — cheap/mid/premium clusters, identical workload",
        &[
            "selection",
            "completed",
            "rejected",
            "paid",
            "payoff",
            "client net",
            "mean resp (s)",
        ],
    );

    for (name, policy) in policies {
        let sim = market(777, 8, SimDuration::from_secs(75), 24)
            .cluster_priced(
                128,
                "equipartition",
                "baseline",
                Money::from_units_f64(0.005),
            )
            .cluster_priced(
                256,
                "equipartition",
                "baseline",
                Money::from_units_f64(0.010),
            )
            .cluster_priced(
                512,
                "equipartition",
                "baseline",
                Money::from_units_f64(0.020),
            )
            .mode(MarketMode::Bidding(policy))
            .build();
        let w = run_scenario(sim);
        let net = w.stats.payoff_total - w.stats.paid_total;
        table.row(vec![
            name.into(),
            w.stats.completed.to_string(),
            w.stats.rejected.to_string(),
            w.stats.paid_total.to_string(),
            w.stats.payoff_total.to_string(),
            net.to_string(),
            f2(w.stats.response.mean()),
        ]);
    }
    report.table(&table);
    println!(
        "Paper shape: least-cost pays the least but piles onto the cheap\n\
         machine (long responses, decayed payoffs); earliest-completion\n\
         spends the most and responds fastest. Payoff-aware best-value nets\n\
         clients more than pure least-cost; when deadline decay dominates\n\
         price differences (as here), buying speed pays for itself — the\n\
         trade-off the §5.3 client agents are meant to navigate."
    );
    report.finish()
}
