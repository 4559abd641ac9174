//! Scalable bid evaluation through agent trees (§5.3, the paper's future
//! work).
//!
//! *"in a larger grid of the future, a scalable mechanism is needed …
//! Firstly, the large number of Compute Servers will make it impractical
//! for each client to deal with a flood of bids. Secondly, since many
//! bid-requests may be in progress at the same time, a two phase protocol
//! will be needed … We envisage a system in which each Compute Server as
//! well as client is represented by several agent processes running on the
//! distributed faucets framework. … The client agents simply specify
//! user-specific selection criteria to evaluation."*
//!
//! The realization: server bids flow to *leaf evaluation agents* (one per
//! `fanout` servers), each of which applies the client's selection
//! criterion locally and forwards only the best `top_k` bids of its
//! [slate](round::slate) upward; the client-side root agent's slate is the
//! slate of the forwarded union, and its head is the winner. Because any
//! global optimum is also its own leaf's optimum, the tree is **exact**
//! for every per-bid criterion — the client's inbox shrinks from `N` to
//! `⌈N/fanout⌉ × k` with zero selection-quality loss. The forwarded
//! runners-up double as the fallback slate for the two-phase protocol when
//! the winner reneges, walked by [`round::Negotiation`] as the simulator
//! and the live client walk theirs.

use crate::bid::Bid;
use crate::market::round::{self, Negotiation};
use crate::market::selection::SelectionPolicy;
use crate::qos::PayoffFn;

/// Configuration of the evaluation tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DistributedEvaluation {
    /// Servers (bids) handled per leaf agent.
    pub fanout: usize,
    /// Bids each leaf forwards to the root.
    pub top_k: usize,
}

impl Default for DistributedEvaluation {
    fn default() -> Self {
        DistributedEvaluation {
            fanout: 32,
            top_k: 2,
        }
    }
}

/// What an evaluation run produced, with its message accounting.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalOutcome {
    /// The selected bid: the root slate's head (None when it is empty).
    pub winner: Option<Bid>,
    /// The root slate, best-first — the two-phase fallback candidates.
    /// It never holds a bid the client refuses.
    pub root_slate: Vec<Bid>,
    /// Bids that crossed the leaf→root links (the client-side inbox size).
    pub client_inbox: usize,
    /// Leaf agents used.
    pub leaves: usize,
    /// Total bid-carrying messages (server→leaf plus leaf→root).
    pub messages: u64,
}

impl DistributedEvaluation {
    /// Evaluate `bids` under `policy` through the agent tree.
    pub fn evaluate(
        &self,
        bids: &[Bid],
        policy: SelectionPolicy,
        payoff: &PayoffFn,
    ) -> EvalOutcome {
        let fanout = self.fanout.max(1);
        let k = self.top_k.max(1);
        let mut forwarded: Vec<Bid> = vec![];
        let mut leaves = 0;
        for chunk in bids.chunks(fanout) {
            leaves += 1;
            forwarded.extend(round::slate(policy, chunk, payoff).into_iter().take(k));
        }
        let root_slate = round::slate(policy, &forwarded, payoff);
        EvalOutcome {
            winner: root_slate.first().copied(),
            client_inbox: forwarded.len(),
            leaves,
            messages: bids.len() as u64 + forwarded.len() as u64,
            root_slate,
        }
    }

    /// The full two-phase flow: evaluate, then walk the root slate while
    /// `reneges(bid)` says the awarded server took better work in between.
    /// Returns the confirmed bid (if any) and how many award attempts it
    /// took. When the root slate is exhausted, a real system re-solicits —
    /// reported as `None`.
    pub fn evaluate_two_phase(
        &self,
        bids: &[Bid],
        policy: SelectionPolicy,
        payoff: &PayoffFn,
        mut reneges: impl FnMut(&Bid) -> bool,
    ) -> (Option<Bid>, u32, EvalOutcome) {
        let outcome = self.evaluate(bids, policy, payoff);
        let mut negotiation = Negotiation::default();
        negotiation.next_round();
        negotiation.offers(policy, &outcome.root_slate, payoff);
        let confirmed = negotiation.award_down(|bid| !reneges(bid));
        (confirmed, negotiation.attempts(), outcome)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BidId, ClusterId, JobId};
    use crate::money::Money;
    use faucets_sim::time::SimTime;

    fn bid(cluster: u64, price: f64, completion: u64) -> Bid {
        Bid {
            id: BidId(cluster),
            cluster: ClusterId(cluster),
            job: JobId(0),
            multiplier: 1.0,
            price: Money::from_units_f64(price),
            promised_completion: SimTime::from_secs(completion),
            planned_pes: 1,
        }
    }

    fn slate(n: u64) -> Vec<Bid> {
        // Deterministic scattered prices; minimum at cluster 37.
        (0..n)
            .map(|i| {
                let price = 100.0 + ((i * 7919 + 13) % 1000) as f64;
                bid(i, if i == 37 { 5.0 } else { price }, 1000 + i)
            })
            .collect()
    }

    #[test]
    fn tree_is_exact_for_least_cost() {
        let bids = slate(500);
        let flat = PayoffFn::flat(Money::from_units(10_000));
        let central = SelectionPolicy::LeastCost.select(&bids, &flat).unwrap();
        for (fanout, k) in [(8, 1), (32, 1), (32, 4), (100, 2)] {
            let tree = DistributedEvaluation { fanout, top_k: k };
            let out = tree.evaluate(&bids, SelectionPolicy::LeastCost, &flat);
            assert_eq!(
                out.winner.unwrap().cluster,
                central.cluster,
                "fanout={fanout},k={k}"
            );
        }
    }

    #[test]
    fn tree_is_exact_for_all_policies() {
        let bids = slate(300);
        let payoff = PayoffFn {
            soft_deadline: SimTime::from_secs(1100),
            hard_deadline: SimTime::from_secs(1400),
            payoff_soft: Money::from_units(5_000),
            payoff_hard: Money::from_units(1_000),
            penalty_late: Money::ZERO,
        };
        for policy in [
            SelectionPolicy::LeastCost,
            SelectionPolicy::EarliestCompletion,
            SelectionPolicy::Weighted {
                time_value_per_hour: Money::from_units(10),
            },
            SelectionPolicy::BestValue,
        ] {
            let central = policy.select(&bids, &payoff).map(|b| b.cluster);
            let tree = DistributedEvaluation::default();
            let dist = tree
                .evaluate(&bids, policy, &payoff)
                .winner
                .map(|b| b.cluster);
            assert_eq!(central, dist, "{policy:?}");
        }
    }

    #[test]
    fn inbox_shrinks_by_fanout_over_k() {
        let bids = slate(1000);
        let flat = PayoffFn::flat(Money::from_units(10_000));
        let tree = DistributedEvaluation {
            fanout: 50,
            top_k: 2,
        };
        let out = tree.evaluate(&bids, SelectionPolicy::LeastCost, &flat);
        assert_eq!(out.leaves, 20);
        assert_eq!(out.client_inbox, 40, "20 leaves × top-2");
        assert_eq!(out.messages, 1000 + 40);
    }

    /// Regression: the root slate was `rank` of the forwarded bids, so a
    /// two-phase walk could award a bid that nets the client a loss, one
    /// `select` would have refused.
    #[test]
    fn best_value_root_slate_holds_no_money_loser_and_its_head_wins() {
        use rand::Rng;
        faucets_sim::check::for_seeds(128, |rng| {
            let bids: Vec<Bid> = (0..rng.random_range(1..200))
                .map(|i| bid(i, rng.random_range(1.0..300.0), rng.random_range(50..3_000)))
                .collect();
            let payoff = PayoffFn {
                soft_deadline: SimTime::from_secs(1_000),
                hard_deadline: SimTime::from_secs(2_000),
                payoff_soft: Money::from_units(200),
                payoff_hard: Money::from_units(50),
                penalty_late: Money::ZERO,
            };
            let tree = DistributedEvaluation {
                fanout: rng.random_range(1..40),
                top_k: rng.random_range(1..4),
            };
            let out = tree.evaluate(&bids, SelectionPolicy::BestValue, &payoff);
            for b in &out.root_slate {
                let net = payoff.payoff_at(b.promised_completion) - b.price;
                assert!(net >= Money::ZERO, "{b:?} nets {net}");
            }
            assert_eq!(out.winner, out.root_slate.first().copied());
        });
    }

    #[test]
    fn two_phase_falls_back_to_runner_up() {
        let bids = slate(200);
        let flat = PayoffFn::flat(Money::from_units(10_000));
        let tree = DistributedEvaluation {
            fanout: 20,
            top_k: 2,
        };
        // The best bid (cluster 37) reneges; everything else confirms.
        let (confirmed, attempts, _) =
            tree.evaluate_two_phase(&bids, SelectionPolicy::LeastCost, &flat, |b| {
                b.cluster == ClusterId(37)
            });
        let c = confirmed.expect("runner-up confirms");
        assert_ne!(c.cluster, ClusterId(37));
        assert_eq!(attempts, 2);
        // The confirmed bid is the true global runner-up.
        let mut sorted = bids.clone();
        sorted.sort_by_key(|b| (b.price, b.cluster));
        assert_eq!(c.cluster, sorted[1].cluster);
    }

    #[test]
    fn two_phase_exhaustion_reports_none() {
        let bids = slate(10);
        let flat = PayoffFn::flat(Money::from_units(10_000));
        let tree = DistributedEvaluation {
            fanout: 5,
            top_k: 1,
        };
        let (confirmed, attempts, out) =
            tree.evaluate_two_phase(&bids, SelectionPolicy::LeastCost, &flat, |_| true);
        assert!(confirmed.is_none());
        assert_eq!(attempts as usize, out.root_slate.len());
    }

    #[test]
    fn empty_slate() {
        let tree = DistributedEvaluation::default();
        let flat = PayoffFn::flat(Money::ZERO);
        let out = tree.evaluate(&[], SelectionPolicy::LeastCost, &flat);
        assert!(out.winner.is_none());
        assert_eq!(out.client_inbox, 0);
        assert_eq!(out.leaves, 0);
    }
}
