//! One negotiation, written once (§2, §5.3). The simulator
//! (`faucets_grid::world`), the live client (`faucets_net::client`) and
//! the agent tree ([`super::agents`]) place a job by these rules, each
//! keeping only its own I/O:
//!
//! - a cluster listed twice is asked, and awarded, once;
//! - the slate is [`SelectionPolicy::rank`] less the bids the client
//!   refuses ([`SelectionPolicy::accepts`]); its head is `select`'s pick;
//! - awards go down the slate, runner-up first, each one counted — §5.3's
//!   *"two phase protocol"*: nobody is asked again while a bid is left;
//! - a job gets [`MAX_ROUNDS`] rounds. Another round follows one whose
//!   slate ran out, or one its runtime saw answers in that a moment may
//!   change ([`Negotiation::ask_again`]). Not one that drew only bids the
//!   client refuses: the same bids get the same refusal.

use crate::bid::Bid;
use crate::ids::ClusterId;
use crate::market::selection::SelectionPolicy;
use crate::qos::PayoffFn;
use std::collections::HashSet;

/// Rounds a job gets before it is given up.
pub const MAX_ROUNDS: u32 = 3;

/// Keep the first listing of each cluster. (A directory reply is outside
/// input: nothing but this keeps a server it lists twice from being
/// solicited twice.)
pub fn dedup_by_cluster<T>(listed: &mut Vec<T>, cluster: impl Fn(&T) -> ClusterId) {
    let mut seen = HashSet::new();
    listed.retain(|row| seen.insert(cluster(row)));
}

/// The award order of one round: `bids` best-first under `policy`, without
/// the ones the client refuses outright.
pub fn slate(policy: SelectionPolicy, bids: &[Bid], payoff: &PayoffFn) -> Vec<Bid> {
    policy
        .rank(bids, payoff)
        .into_iter()
        .filter(|bid| policy.accepts(bid, payoff))
        .copied()
        .collect()
}

/// Where one job's negotiation stands: its round, what is left of that
/// round's slate, and the awards tried so far.
#[derive(Debug, Clone, Default)]
pub struct Negotiation {
    /// The round's untried bids, worst first.
    untried: Vec<Bid>,
    rounds: u32,
    attempts: u32,
    /// Whether the current round left a reason to solicit again.
    again: bool,
}

impl Negotiation {
    /// Open (and count) the job's next round, if it has one.
    pub fn next_round(&mut self) -> bool {
        let open = self.rounds == 0 || (self.again && self.rounds < MAX_ROUNDS);
        if open {
            self.rounds += 1;
            self.again = false;
            self.untried.clear();
        }
        open
    }

    /// This round's bids, in: its slate is [`slate`] of them.
    pub fn offers(&mut self, policy: SelectionPolicy, bids: &[Bid], payoff: &PayoffFn) {
        self.untried = slate(policy, bids, payoff);
        self.untried.reverse();
        self.again |= !self.untried.is_empty();
    }

    /// This round saw answers a moment may change (the live client: no
    /// offer at all, an empty listing, an FS not reached), so it earns
    /// another. A simulated market, asked again at the same instant,
    /// answers the same.
    pub fn ask_again(&mut self) {
        self.again = true;
    }

    /// The bid to award next — the best untried one — counted as an
    /// attempt; `None` once the slate is spent.
    pub fn next_award(&mut self) -> Option<Bid> {
        let bid = self.untried.pop()?;
        self.attempts += 1;
        Some(bid)
    }

    /// Award down the rest of the slate until `confirms` says a daemon
    /// took the job; that bid, or `None` when the slate ran out.
    pub fn award_down(&mut self, mut confirms: impl FnMut(&Bid) -> bool) -> Option<Bid> {
        std::iter::from_fn(|| self.next_award()).find(|bid| confirms(bid))
    }

    /// Rounds opened so far.
    pub fn rounds(&self) -> u32 {
        self.rounds
    }

    /// Awards tried so far, over every round.
    pub fn attempts(&self) -> u32 {
        self.attempts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{BidId, JobId};
    use crate::money::Money;
    use faucets_sim::time::SimTime;

    fn bid(cluster: u64, price: i64) -> Bid {
        Bid {
            id: BidId(cluster),
            cluster: ClusterId(cluster),
            job: JobId(0),
            multiplier: 1.0,
            price: Money::from_units(price),
            promised_completion: SimTime::from_secs(100),
            planned_pes: 1,
        }
    }

    fn flat() -> PayoffFn {
        PayoffFn::flat(Money::from_units(50))
    }

    #[test]
    fn dedup_keeps_the_first_listing() {
        let mut rows = vec![(3, 'a'), (1, 'b'), (3, 'c'), (2, 'd'), (1, 'e')];
        dedup_by_cluster(&mut rows, |&(c, _)| ClusterId(c));
        assert_eq!(rows, vec![(3, 'a'), (1, 'b'), (2, 'd')]);
    }

    #[test]
    fn best_value_slate_drops_money_losers_and_select_is_its_head() {
        // A flat $50 payoff: the $60 and $80 bids lose the client money.
        let bids = [bid(1, 60), bid(2, 40), bid(3, 80), bid(4, 10)];
        let order: Vec<u64> = slate(SelectionPolicy::BestValue, &bids, &flat())
            .iter()
            .map(|b| b.cluster.raw())
            .collect();
        assert_eq!(order, vec![4, 2]);
        let head = SelectionPolicy::BestValue.select(&bids, &flat()).unwrap();
        assert_eq!(head.cluster, ClusterId(4));
        // Other policies refuse nothing.
        assert_eq!(slate(SelectionPolicy::LeastCost, &bids, &flat()).len(), 4);
    }

    #[test]
    fn the_runner_up_is_awarded_before_anyone_is_asked_again() {
        let mut n = Negotiation::default();
        assert!(n.next_round());
        n.offers(
            SelectionPolicy::LeastCost,
            &[bid(1, 30), bid(2, 10), bid(3, 20)],
            &flat(),
        );
        let confirmed = n.award_down(|b| b.cluster != ClusterId(2));
        assert_eq!(confirmed.map(|b| b.cluster), Some(ClusterId(3)));
        assert_eq!((n.rounds(), n.attempts()), (1, 2));
    }

    #[test]
    fn a_spent_slate_earns_another_round_up_to_the_limit() {
        let mut n = Negotiation::default();
        while n.next_round() {
            n.offers(
                SelectionPolicy::LeastCost,
                &[bid(1, 30), bid(2, 10)],
                &flat(),
            );
            assert_eq!(n.award_down(|_| false), None);
        }
        assert_eq!((n.rounds(), n.attempts()), (MAX_ROUNDS, 2 * MAX_ROUNDS));
    }

    #[test]
    fn an_empty_round_ends_the_negotiation_unless_asked_again() {
        let mut n = Negotiation::default();
        assert!(n.next_round());
        n.offers(SelectionPolicy::BestValue, &[bid(1, 60)], &flat());
        assert_eq!(n.next_award(), None, "a money-loser is never awarded");
        assert!(!n.next_round(), "the same bids get the same refusal");

        let mut n = Negotiation::default();
        for _ in 0..MAX_ROUNDS {
            assert!(n.next_round());
            n.ask_again();
            n.offers(SelectionPolicy::LeastCost, &[], &flat());
        }
        assert!(!n.next_round());
        assert_eq!((n.rounds(), n.attempts()), (MAX_ROUNDS, 0));
    }
}
