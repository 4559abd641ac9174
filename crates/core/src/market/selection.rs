//! Bid evaluation and Compute Server selection (§5.3).
//!
//! *"each client receives all the bids and selects one of the Compute
//! Servers for the job based on a simple criteria (such as least cost, or
//! earliest promised completion time)"* — both criteria are here, plus a
//! weighted blend and a payoff-aware "best value" policy that scores each
//! bid by the payoff the client would actually net if the promise is kept.

use crate::bid::Bid;
use crate::money::Money;
use crate::qos::PayoffFn;
use serde::{Deserialize, Serialize};

/// The client-side (or client-agent) selection criterion.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SelectionPolicy {
    /// Choose the cheapest bid.
    LeastCost,
    /// Choose the earliest promised completion.
    EarliestCompletion,
    /// Minimize `price + time_value_per_hour × promised_completion`.
    Weighted {
        /// Dollars the client assigns to one hour of waiting.
        time_value_per_hour: Money,
    },
    /// Maximize `payoff(promised_completion) − price`: what the client nets
    /// if the cluster delivers on its promise. Requires the job's payoff fn.
    BestValue,
}

impl SelectionPolicy {
    /// Score a bid; lower is better. `payoff` is the job's payoff function
    /// (used only by [`SelectionPolicy::BestValue`]).
    fn score(&self, bid: &Bid, payoff: &PayoffFn) -> f64 {
        match *self {
            SelectionPolicy::LeastCost => bid.price.as_units_f64(),
            SelectionPolicy::EarliestCompletion => bid.promised_completion.as_secs_f64(),
            SelectionPolicy::Weighted {
                time_value_per_hour,
            } => {
                bid.price.as_units_f64()
                    + time_value_per_hour.as_units_f64() * bid.promised_completion.as_secs_f64()
                        / 3600.0
            }
            SelectionPolicy::BestValue => {
                // Negate: highest net value = lowest score.
                -(payoff.payoff_at(bid.promised_completion) - bid.price).as_units_f64()
            }
        }
    }

    /// Whether the client would take `bid` at all: only
    /// [`SelectionPolicy::BestValue`] refuses one, a bid that nets a loss.
    pub fn accepts(&self, bid: &Bid, payoff: &PayoffFn) -> bool {
        !matches!(self, SelectionPolicy::BestValue) || self.score(bid, payoff) <= 0.0
    }

    /// Pick the winning bid: the head of [`SelectionPolicy::rank`], if the
    /// client [accepts](Self::accepts) it (`None` on an empty slate too).
    /// Ties break on cluster id for determinism.
    pub fn select<'a>(&self, bids: &'a [Bid], payoff: &PayoffFn) -> Option<&'a Bid> {
        let best = *self.rank(bids, payoff).first()?;
        self.accepts(best, payoff).then_some(best)
    }

    /// Rank all bids best-first, refused ones included (the award order is
    /// [`crate::market::round::slate`]).
    pub fn rank<'a>(&self, bids: &'a [Bid], payoff: &PayoffFn) -> Vec<&'a Bid> {
        let mut v: Vec<&Bid> = bids.iter().collect();
        v.sort_by(|a, b| {
            self.score(a, payoff)
                .partial_cmp(&self.score(b, payoff))
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.cluster.cmp(&b.cluster))
        });
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BidId, ClusterId, JobId};
    use faucets_sim::time::SimTime;

    fn bid(cluster: u64, price_units: f64, completion_secs: u64) -> Bid {
        Bid {
            id: BidId(cluster),
            cluster: ClusterId(cluster),
            job: JobId(0),
            multiplier: 1.0,
            price: Money::from_units_f64(price_units),
            promised_completion: SimTime::from_secs(completion_secs),
            planned_pes: 8,
        }
    }

    fn flat_payoff() -> PayoffFn {
        PayoffFn::flat(Money::from_units(100))
    }

    #[test]
    fn least_cost_picks_cheapest() {
        let bids = [bid(1, 30.0, 100), bid(2, 10.0, 900), bid(3, 20.0, 50)];
        let w = SelectionPolicy::LeastCost
            .select(&bids, &flat_payoff())
            .unwrap();
        assert_eq!(w.cluster, ClusterId(2));
    }

    #[test]
    fn earliest_completion_picks_fastest() {
        let bids = [bid(1, 30.0, 100), bid(2, 10.0, 900), bid(3, 20.0, 50)];
        let w = SelectionPolicy::EarliestCompletion
            .select(&bids, &flat_payoff())
            .unwrap();
        assert_eq!(w.cluster, ClusterId(3));
    }

    #[test]
    fn weighted_trades_time_for_money() {
        // Bid 1: $30, 1h. Bid 2: $10, 10h.
        let bids = [bid(1, 30.0, 3600), bid(2, 10.0, 36_000)];
        // Cheap time (=$1/h): scores 31 vs 20 → pick slow cheap bid.
        let w = SelectionPolicy::Weighted {
            time_value_per_hour: Money::from_units(1),
        };
        assert_eq!(
            w.select(&bids, &flat_payoff()).unwrap().cluster,
            ClusterId(2)
        );
        // Expensive time ($10/h): scores 40 vs 110 → pick fast bid.
        let w = SelectionPolicy::Weighted {
            time_value_per_hour: Money::from_units(10),
        };
        assert_eq!(
            w.select(&bids, &flat_payoff()).unwrap().cluster,
            ClusterId(1)
        );
    }

    #[test]
    fn best_value_accounts_for_deadline_decay() {
        // Payoff: $100 until t=100s, decaying to $20 at t=1000s.
        let payoff = PayoffFn {
            soft_deadline: SimTime::from_secs(100),
            hard_deadline: SimTime::from_secs(1000),
            payoff_soft: Money::from_units(100),
            payoff_hard: Money::from_units(20),
            penalty_late: Money::ZERO,
        };
        // Bid 1: $30 finishing at 90s → net 70. Bid 2: $5 at 1000s → net 15.
        let bids = [bid(1, 30.0, 90), bid(2, 5.0, 1000)];
        let w = SelectionPolicy::BestValue.select(&bids, &payoff).unwrap();
        assert_eq!(w.cluster, ClusterId(1));
    }

    #[test]
    fn best_value_rejects_money_losers() {
        let payoff = PayoffFn::hard_only(SimTime::from_secs(10), Money::from_units(5), Money::ZERO);
        // Both bids cost more than the job pays / finish after the deadline.
        let bids = [bid(1, 30.0, 5), bid(2, 50.0, 5)];
        assert!(SelectionPolicy::BestValue.select(&bids, &payoff).is_none());
    }

    #[test]
    fn empty_slate_selects_nothing() {
        assert!(SelectionPolicy::LeastCost
            .select(&[], &flat_payoff())
            .is_none());
    }

    #[test]
    fn ties_break_deterministically_by_cluster() {
        let bids = [bid(9, 10.0, 100), bid(4, 10.0, 100), bid(7, 10.0, 100)];
        let w = SelectionPolicy::LeastCost
            .select(&bids, &flat_payoff())
            .unwrap();
        assert_eq!(w.cluster, ClusterId(4));
    }

    #[test]
    fn rank_orders_best_first() {
        let bids = [bid(1, 30.0, 100), bid(2, 10.0, 900), bid(3, 20.0, 50)];
        let ranked = SelectionPolicy::LeastCost.rank(&bids, &flat_payoff());
        let order: Vec<u64> = ranked.iter().map(|b| b.cluster.raw()).collect();
        assert_eq!(order, vec![2, 3, 1]);
    }
}
