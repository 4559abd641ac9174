//! Property tests across whole grid simulations: the economic invariants
//! that must survive any workload — conservation of money in the ledger,
//! conservation of bartering credits, job accounting closure, and
//! determinism under a fixed seed.

use faucets_core::market::SelectionPolicy;
use faucets_grid::prelude::*;
use faucets_sim::check::for_seeds;
use faucets_sim::time::SimDuration;
use rand::Rng;

fn run_bidding(seed: u64, interarrival: u64, clusters: u8) -> GridWorld {
    let mut b = ScenarioBuilder::new(seed)
        .users(3)
        .mode(MarketMode::Bidding(SelectionPolicy::LeastCost))
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_secs(interarrival),
        })
        .mix(JobMix {
            log2_min_pes: (0, 4),
            ..JobMix::default()
        })
        .horizon(SimDuration::from_hours(4));
    for i in 0..clusters {
        let strat = if i % 2 == 0 {
            "baseline"
        } else {
            "util-interp"
        };
        b = b.cluster(64 << (i % 3), "equipartition", strat);
    }
    run_scenario(b.build())
}

/// Money never leaks: the ledger total is invariant under any run
/// (every settlement is a transfer; payoffs come from the overdraftable
/// System account, which is part of the total).
#[test]
fn ledger_conserves_money() {
    for_seeds(12, |rng| {
        let w = run_bidding(
            rng.random_range(0u64..1_000),
            rng.random_range(120u64..900),
            rng.random_range(1u8..4),
        );
        // Initial endowment: 3 users × $1e9; clusters and System start at 0.
        let expected = 3i64 * 1_000_000_000 * 1_000_000;
        assert_eq!(w.ledger.total_micros(), expected);
    });
}

/// Every submitted job reaches a terminal accounting state.
#[test]
fn job_accounting_closes() {
    for_seeds(12, |rng| {
        let w = run_bidding(
            rng.random_range(0u64..1_000),
            rng.random_range(120u64..900),
            2,
        );
        assert_eq!(w.stats.completed + w.stats.rejected, w.stats.submitted);
    });
}

/// Same seed → identical outcome (full determinism of the DES).
#[test]
fn runs_are_deterministic() {
    for_seeds(12, |rng| {
        let seed = rng.random_range(0u64..200);
        let a = run_bidding(seed, 300, 2);
        let b = run_bidding(seed, 300, 2);
        assert_eq!(a.stats.completed, b.stats.completed);
        assert_eq!(a.stats.paid_total, b.stats.paid_total);
        assert_eq!(a.stats.messages, b.stats.messages);
    });
}

/// Bartering conserves credits regardless of routing pattern.
#[test]
fn barter_conserves_credits() {
    for_seeds(12, |rng| {
        let sim = ScenarioBuilder::new(rng.random_range(0u64..500))
            .cluster(64, "equipartition", "baseline")
            .cluster(64, "equipartition", "baseline")
            .cluster(128, "equipartition", "baseline")
            .users(6)
            .mode(MarketMode::Barter)
            .arrivals(ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(rng.random_range(60u64..600)),
            })
            .mix(JobMix {
                log2_min_pes: (0, 4),
                ..JobMix::default()
            })
            .horizon(SimDuration::from_hours(3))
            .build();
        let w = run_scenario(sim);
        let bank = w.bank.as_ref().unwrap();
        // 3 orgs × 100k SU initial grant.
        assert_eq!(bank.total_micros(), 3 * 100_000 * 1_000_000);
        assert_eq!(w.stats.completed + w.stats.rejected, w.stats.submitted);
    });
}
