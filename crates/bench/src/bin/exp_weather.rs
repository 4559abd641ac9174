//! E11 — Grid weather / history-informed bidding (§5.2.1).
//!
//! *"In future versions, the bid may also depend on non-local factors, such
//! as 'what is the average price of similar contracts in the recent past,
//! in the whole system?' or 'how busy is the entire computational grid
//! likely to be during the period covered by the deadline?'"*
//!
//! Four clusters under a strong day/night demand cycle (the demand shock):
//! two price with local utilization only, two blend in the grid-wide price
//! index and utilization published by the Faucets history service.
//!
//! Paper expectation: weather-informed bidders track the market level —
//! they avoid overbidding into a slack market and underbidding into a hot
//! one — and collect more revenue over the cycle.

use faucets_bench::{market, ExitCode, Report};
use faucets_core::money::Money;
use faucets_grid::prelude::*;
use faucets_sim::time::{SimDuration, SimTime};

fn main() -> ExitCode {
    let mut report = Report::new("E11", "weather");
    let mean_interarrival = SimDuration::from_secs(55);
    let sim = market(1101, 12, mean_interarrival, 72)
        .cluster(256, "equipartition", "util-interp")
        .cluster(256, "equipartition", "weather-aware")
        .cluster(256, "equipartition", "util-interp")
        .cluster(256, "equipartition", "weather-aware")
        .arrivals(ArrivalProcess::DailyCycle {
            mean_interarrival,
            amplitude: 0.9,
        })
        .build();
    let mut w = run_scenario(sim);
    let end = SimTime::ZERO + SimDuration::from_hours(72);

    let mut table = Table::new(
        "E11: weather-aware vs local-only bidding under a day/night demand cycle (72 h)",
        &["cluster", "strategy", "jobs won", "revenue", "utilization"],
    );
    let mut by: std::collections::BTreeMap<&'static str, (u64, Money)> = Default::default();
    for (id, node) in w.nodes.iter_mut() {
        let util = node.cluster.metrics.utilization(end);
        let m = &node.cluster.metrics;
        table.row(vec![
            id.to_string(),
            node.daemon.strategy_name().into(),
            m.completed.to_string(),
            m.revenue_price.to_string(),
            pct(util),
        ]);
        let e = by
            .entry(node.daemon.strategy_name())
            .or_insert((0, Money::ZERO));
        e.0 += m.completed;
        e.1 += m.revenue_price;
    }
    report.table(&table);

    let mut totals = Table::new("E11 totals by strategy", &["strategy", "jobs", "revenue"]);
    for (s, (jobs, rev)) in &by {
        totals.row(vec![s.to_string(), jobs.to_string(), rev.to_string()]);
    }
    report.table(&totals);
    println!(
        "Grid price index at the end of the run: {:?}\n\
         Paper shape: the weather-aware pair prices with the market cycle\n\
         instead of only local load, capturing more revenue across the shock.",
        w.server.history.price_index()
    );
    report.finish()
}
