//! QoS contract lifecycle and the two-phase award protocol (§5.3).
//!
//! *"since many bid-requests may be in progress at the same time, a two
//! phase protocol will be needed to get a firm commitment from the selected
//! Compute Server (which may have received a more lucrative job in
//! between)."* A contract therefore moves Awarded → Confirmed (or the
//! server reneges and the client falls back to the next-ranked bid).

use crate::bid::Bid;
use crate::error::{FaucetsError, Result};
use crate::ids::{ClusterId, ContractId, IdGen, JobId};
use crate::money::Money;
use faucets_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// The state of one contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ContractState {
    /// The client selected this bid and notified the cluster (phase 1).
    Awarded,
    /// The cluster confirmed the commitment (phase 2); job may be staged.
    Confirmed,
    /// The cluster reneged — it took better work in between.
    Reneged,
    /// The job ran and completed; settlement recorded.
    Completed,
    /// The client withdrew before confirmation.
    Cancelled,
}

impl ContractState {
    fn name(self) -> &'static str {
        match self {
            ContractState::Awarded => "awarded",
            ContractState::Confirmed => "confirmed",
            ContractState::Reneged => "reneged",
            ContractState::Completed => "completed",
            ContractState::Cancelled => "cancelled",
        }
    }
}

/// One contract between a client and a Compute Server.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Contract {
    /// Contract identity.
    pub id: ContractId,
    /// The job covered.
    pub job: JobId,
    /// The committed cluster.
    pub cluster: ClusterId,
    /// The accepted bid.
    pub bid: Bid,
    /// Current state.
    pub state: ContractState,
    /// When the award was issued.
    pub awarded_at: SimTime,
    /// Settlement: what the client actually paid (completed contracts).
    pub settled_amount: Option<Money>,
    /// When the job completed (completed contracts).
    pub completed_at: Option<SimTime>,
}

/// The book of all contracts, with the two-phase transitions enforced.
#[derive(Debug, Default)]
pub struct ContractBook {
    contracts: HashMap<ContractId, Contract>,
    by_job: HashMap<JobId, ContractId>,
    ids: IdGen,
}

impl ContractBook {
    /// An empty book.
    pub fn new() -> Self {
        ContractBook::default()
    }

    /// Phase 1: the client awards the job to the bid's cluster.
    ///
    /// A job may be re-awarded only if its previous contract is in a dead
    /// state (reneged/cancelled) — the fallback-to-runner-up path.
    pub fn award(&mut self, bid: Bid, now: SimTime) -> Result<ContractId> {
        if let Some(prev_id) = self.by_job.get(&bid.job) {
            let prev = &self.contracts[prev_id];
            if !matches!(
                prev.state,
                ContractState::Reneged | ContractState::Cancelled
            ) {
                return Err(FaucetsError::AlreadyExists(format!(
                    "job {} already has live contract {}",
                    bid.job, prev.id
                )));
            }
        }
        let id: ContractId = self.ids.next();
        self.contracts.insert(
            id,
            Contract {
                id,
                job: bid.job,
                cluster: bid.cluster,
                bid,
                state: ContractState::Awarded,
                awarded_at: now,
                settled_amount: None,
                completed_at: None,
            },
        );
        self.by_job.insert(bid.job, id);
        Ok(id)
    }

    fn transition(
        &mut self,
        id: ContractId,
        from: ContractState,
        to: ContractState,
        attempted: &'static str,
    ) -> Result<&mut Contract> {
        let c = self
            .contracts
            .get_mut(&id)
            .ok_or(FaucetsError::UnknownContract(id))?;
        if c.state != from {
            return Err(FaucetsError::BadContractState {
                contract: id,
                attempted,
                actual: c.state.name(),
            });
        }
        c.state = to;
        Ok(c)
    }

    /// Phase 2: the cluster confirms the award.
    pub fn confirm(&mut self, id: ContractId) -> Result<()> {
        self.transition(
            id,
            ContractState::Awarded,
            ContractState::Confirmed,
            "confirm",
        )?;
        Ok(())
    }

    /// Phase 2 alternative: the cluster reneges (took better work).
    pub fn renege(&mut self, id: ContractId) -> Result<()> {
        self.transition(id, ContractState::Awarded, ContractState::Reneged, "renege")?;
        Ok(())
    }

    /// The client cancels an award before confirmation.
    pub fn cancel(&mut self, id: ContractId) -> Result<()> {
        self.transition(
            id,
            ContractState::Awarded,
            ContractState::Cancelled,
            "cancel",
        )?;
        Ok(())
    }

    /// Settle a confirmed contract after the job completes. The amount paid
    /// is the bid price (first-price market); deadline penalties are the
    /// payoff function's business, handled by billing.
    pub fn complete(&mut self, id: ContractId, completed_at: SimTime, paid: Money) -> Result<()> {
        let c = self.transition(
            id,
            ContractState::Confirmed,
            ContractState::Completed,
            "complete",
        )?;
        c.settled_amount = Some(paid);
        c.completed_at = Some(completed_at);
        Ok(())
    }

    /// Look up a contract.
    pub fn get(&self, id: ContractId) -> Option<&Contract> {
        self.contracts.get(&id)
    }

    /// All contracts in a given state.
    pub fn in_state(&self, state: ContractState) -> impl Iterator<Item = &Contract> {
        self.contracts.values().filter(move |c| c.state == state)
    }

    /// Total number of contracts ever created.
    pub fn len(&self) -> usize {
        self.contracts.len()
    }

    /// True when no contracts exist.
    pub fn is_empty(&self) -> bool {
        self.contracts.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::BidId;

    fn bid(job: u64, cluster: u64) -> Bid {
        Bid {
            id: BidId(0),
            cluster: ClusterId(cluster),
            job: JobId(job),
            multiplier: 1.0,
            price: Money::from_units(10),
            promised_completion: SimTime::from_secs(100),
            planned_pes: 4,
        }
    }

    #[test]
    fn happy_path_award_confirm_complete() {
        let mut book = ContractBook::new();
        let id = book.award(bid(1, 2), SimTime::ZERO).unwrap();
        book.confirm(id).unwrap();
        book.complete(id, SimTime::from_secs(90), Money::from_units(10))
            .unwrap();
        let c = book.get(id).unwrap();
        assert_eq!(c.state, ContractState::Completed);
        assert_eq!(c.settled_amount, Some(Money::from_units(10)));
        assert_eq!(c.completed_at, Some(SimTime::from_secs(90)));
    }

    #[test]
    fn renege_allows_reaward_to_runner_up() {
        let mut book = ContractBook::new();
        let first = book.award(bid(1, 2), SimTime::ZERO).unwrap();
        // A second award while the first is live is an error.
        assert!(matches!(
            book.award(bid(1, 3), SimTime::ZERO),
            Err(FaucetsError::AlreadyExists(_))
        ));
        book.renege(first).unwrap();
        // Now the runner-up can be awarded.
        let second = book.award(bid(1, 3), SimTime::from_secs(1)).unwrap();
        book.confirm(second).unwrap();
        assert_eq!(book.get(second).unwrap().cluster, ClusterId(3));
        assert_eq!(book.len(), 2);
    }

    #[test]
    fn cannot_complete_unconfirmed() {
        let mut book = ContractBook::new();
        let id = book.award(bid(1, 2), SimTime::ZERO).unwrap();
        let err = book.complete(id, SimTime::ZERO, Money::ZERO).unwrap_err();
        assert!(matches!(err, FaucetsError::BadContractState { .. }));
    }

    #[test]
    fn cannot_confirm_twice_or_renege_confirmed() {
        let mut book = ContractBook::new();
        let id = book.award(bid(1, 2), SimTime::ZERO).unwrap();
        book.confirm(id).unwrap();
        assert!(book.confirm(id).is_err());
        assert!(book.renege(id).is_err());
    }

    #[test]
    fn cancel_before_confirmation() {
        let mut book = ContractBook::new();
        let id = book.award(bid(1, 2), SimTime::ZERO).unwrap();
        book.cancel(id).unwrap();
        assert_eq!(book.get(id).unwrap().state, ContractState::Cancelled);
        // Job can be re-awarded after cancellation.
        assert!(book.award(bid(1, 4), SimTime::ZERO).is_ok());
    }

    #[test]
    fn unknown_contract_errors() {
        let mut book = ContractBook::new();
        assert!(matches!(
            book.confirm(ContractId(99)),
            Err(FaucetsError::UnknownContract(_))
        ));
    }

    #[test]
    fn in_state_filters() {
        let mut book = ContractBook::new();
        let a = book.award(bid(1, 2), SimTime::ZERO).unwrap();
        let _b = book.award(bid(2, 2), SimTime::ZERO).unwrap();
        book.confirm(a).unwrap();
        assert_eq!(book.in_state(ContractState::Awarded).count(), 1);
        assert_eq!(book.in_state(ContractState::Confirmed).count(), 1);
        assert!(!book.is_empty());
    }
}
