//! E8 — The bartering economy (§5.5.3).
//!
//! Three collaborating organizations with asymmetric capacity (64/128/256
//! PEs) share one user population: org-1's users overflow constantly,
//! org-3 mostly hosts. Sweep the initial credit grant.
//!
//! Paper expectation: credits flow from demand-heavy orgs to capacity-heavy
//! orgs; totals are conserved exactly; starving the credit pool blocks
//! overflow ("fair usage": you can only consume what you have contributed).

use faucets_bench::{market, ExitCode, Report};
use faucets_core::money::ServiceUnits;
use faucets_grid::prelude::*;
use faucets_sim::time::SimDuration;

fn main() -> ExitCode {
    let mut report = Report::new("E8", "bartering");
    let mut table = Table::new(
        "E8: bartering with Home Clusters — orgs of 64/128/256 PEs, 24 h",
        &[
            "initial credits",
            "org-1 final",
            "org-2 final",
            "org-3 final",
            "blocked",
            "completed",
            "mean wait (s)",
        ],
    );

    for grant in [500u64, 5_000, 50_000, 500_000] {
        let sim = market(888, 9, SimDuration::from_secs(90), 24)
            .cluster(64, "equipartition", "baseline")
            .cluster(128, "equipartition", "baseline")
            .cluster(256, "equipartition", "baseline")
            .mode(MarketMode::Barter)
            .credits(ServiceUnits::from_units(grant as i64))
            .build();
        let w = run_scenario(sim);
        let bank = w.bank.as_ref().unwrap();
        let finals: Vec<String> = w
            .nodes
            .keys()
            .map(|c| bank.credits(bank.org_of(*c).unwrap()).to_string())
            .collect();
        // Conservation check before reporting.
        assert_eq!(
            bank.total_micros(),
            3 * grant as i64 * 1_000_000,
            "credits must be conserved"
        );
        table.row(vec![
            format!("SU {grant}"),
            finals[0].clone(),
            finals[1].clone(),
            finals[2].clone(),
            w.stats.blocked_credits.to_string(),
            w.stats.completed.to_string(),
            f2(w.stats.wait.mean()),
        ]);
    }
    report.table(&table);
    println!(
        "Paper shape: with ample credits, capacity-rich org-3 accumulates\n\
         credits from overflowing org-1 users; tiny grants block overflow\n\
         (jobs wait at home instead), raising mean wait. Totals conserve\n\
         exactly at every grant level."
    );
    report.finish()
}
