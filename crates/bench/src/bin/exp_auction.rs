//! E12 — Market mechanism comparison (§6, Spawn).
//!
//! Faucets runs a first-price reverse market (pay-your-ask); Spawn
//! (Waldspurger et al.), discussed in the paper's related work, used sealed
//! second-price auctions. We pit the two payment rules against each other
//! over identical seller populations with strategic (equilibrium) asks.
//!
//! Expected shape (auction theory, which the paper leans on): with
//! strategic bidders both mechanisms yield similar expected client payments
//! (revenue equivalence), second-price is truthful (asks = costs) while
//! first-price sellers shade up, and shading shrinks as competition grows.

use faucets_bench::{ExitCode, Report};
use faucets_core::bid::Bid;
use faucets_core::ids::{BidId, ClusterId, JobId};
use faucets_core::market::{equilibrium_ask, run_reverse_auction, Mechanism};
use faucets_core::money::Money;
use faucets_grid::prelude::*;
use faucets_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn main() -> ExitCode {
    let mut report = Report::new("E12", "auction");
    let rounds: usize = report.flag("rounds", 20_000);
    let cost_lo = Money::from_units(10);
    let cost_hi = Money::from_units(30);

    let mut table = Table::new(
        format!("E12: first-price ask market (Faucets) vs second-price auction (Spawn), {rounds} rounds"),
        &["sellers", "mechanism", "mean payment", "mean winner cost", "efficiency", "mean shading"],
    );

    for n in [2usize, 3, 5, 10] {
        for (name, mech) in [
            ("first-price", Mechanism::FirstPrice),
            ("second-price", Mechanism::SecondPrice),
        ] {
            let mut rng = StdRng::seed_from_u64(1200 + n as u64);
            let mut paid = 0i64;
            let mut winner_cost = 0i64;
            let mut efficient = 0usize;
            let mut shading = 0i64;
            for round in 0..rounds {
                // Draw seller costs uniformly and form equilibrium asks.
                let costs: Vec<Money> = (0..n)
                    .map(|_| Money(rng.random_range(cost_lo.micros()..=cost_hi.micros())))
                    .collect();
                let bids: Vec<Bid> = costs
                    .iter()
                    .enumerate()
                    .map(|(i, &c)| {
                        let ask = equilibrium_ask(mech, c, cost_hi, n);
                        shading += (ask - c).micros();
                        Bid {
                            id: BidId(i as u64),
                            cluster: ClusterId(i as u64),
                            job: JobId(round as u64),
                            multiplier: 1.0,
                            price: ask,
                            promised_completion: SimTime::ZERO,
                            planned_pes: 1,
                        }
                    })
                    .collect();
                let r = run_reverse_auction(&bids, mech).expect("non-empty slate");
                paid += r.payment.micros();
                winner_cost += costs[r.winner].micros();
                let min_cost = costs.iter().min().unwrap();
                if costs[r.winner] == *min_cost {
                    efficient += 1;
                }
            }
            let denom = rounds as f64;
            table.row(vec![
                n.to_string(),
                name.into(),
                Money((paid as f64 / denom) as i64).to_string(),
                Money((winner_cost as f64 / denom) as i64).to_string(),
                pct(efficient as f64 / denom),
                Money((shading as f64 / (denom * n as f64)) as i64).to_string(),
            ]);
        }
    }
    report.table(&table);
    println!(
        "Shape: both mechanisms select the lowest-cost seller (efficiency\n\
         ~100%) and, with equilibrium shading, client payments converge\n\
         (revenue equivalence); second-price asks are truthful (zero\n\
         shading), first-price shading shrinks as 1/n with competition."
    );
    report.finish()
}
