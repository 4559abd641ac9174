//! E18 — Market regulation (§5.5.1).
//!
//! *"It may be necessary to have regulatory mechanisms in place to avoid
//! misuse of markets: limits on how far the bids can be from some notion of
//! 'normal' price can be one such mechanism."*
//!
//! A grid with one predatory Compute Server that always bids a 40×
//! multiplier, serving clients who select on earliest completion (and so
//! would pay it). We sweep the regulator: none, reject-outliers, and
//! clamp-to-band.

use faucets_bench::{market, ExitCode, Report};
use faucets_core::market::{BandAction, Regulator, SelectionPolicy};
use faucets_grid::prelude::*;
use faucets_sim::time::SimDuration;

fn run(reg: Option<Regulator>) -> GridWorld {
    let mut b = market(1801, 8, SimDuration::from_secs(90), 24)
        .cluster(256, "equipartition", "baseline")
        .cluster(256, "equipartition", "util-interp")
        .cluster(512, "equipartition", "fixed:40.0") // the gouger: biggest machine
        .mode(MarketMode::Bidding(SelectionPolicy::EarliestCompletion));
    if let Some(r) = reg {
        b = b.regulator(r);
    }
    run_scenario(b.build())
}

fn main() -> ExitCode {
    let mut report = Report::new("E18", "regulation");
    let mut table = Table::new(
        "E18: price-band regulation vs a 40x gouger (earliest-completion clients, 24 h)",
        &[
            "regulator",
            "screened bids",
            "client spend",
            "$/job",
            "gouger revenue",
            "mean resp (s)",
        ],
    );
    let cases: [(&str, Option<Regulator>); 3] = [
        ("none (free market)", None),
        (
            "reject outside 3x band",
            Some(Regulator {
                band_factor: 3.0,
                action: BandAction::Reject,
            }),
        ),
        (
            "clamp to 3x band",
            Some(Regulator {
                band_factor: 3.0,
                action: BandAction::Clamp,
            }),
        ),
    ];
    for (label, reg) in cases {
        let w = run(reg);
        let gouger = w
            .nodes
            .values()
            .find(|n| n.daemon.strategy_name() == "fixed")
            .unwrap();
        let per_job = if w.stats.completed > 0 {
            w.stats.paid_total.mul_f64(1.0 / w.stats.completed as f64)
        } else {
            faucets_core::money::Money::ZERO
        };
        table.row(vec![
            label.into(),
            w.regulated_bids.to_string(),
            w.stats.paid_total.to_string(),
            per_job.to_string(),
            gouger.cluster.metrics.revenue_price.to_string(),
            f2(w.stats.response.mean()),
        ]);
    }
    report.table(&table);
    println!(
        "Paper shape (§5.5.1): with price-indifferent clients, the gouger\n\
         monetizes its big machine freely; banding the market to 3x of the\n\
         normal price (the grid-weather index) cuts client spending — by\n\
         rejection (work moves to honest servers) or by clamping (the\n\
         gouger serves at a lawful price)."
    );
    report.finish()
}
