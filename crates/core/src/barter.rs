//! The bartering credit economy (§5.5.3).
//!
//! *"Each contributor earns credit for sharing his/her resource and can use
//! up the credit when needed. … Each user belongs to a single Home Cluster
//! and normally whenever he tries to submit a job, the system tries to
//! submit the job to the user's Home Cluster. But if the resources on the
//! Home Cluster are not available and the Home Cluster has enough credits
//! the system tries to submit the job to any of the collaborating Compute
//! Servers and the appropriate number of credits are added to the Compute
//! Server that executed the job and equal amount is deducted from the Home
//! Cluster's account."*

use crate::accounting::{AccountId, Ledger};
use crate::error::{FaucetsError, Result};
use crate::ids::{ClusterId, OrgId, UserId};
use crate::money::ServiceUnits;
use std::collections::BTreeMap;

/// The Faucets Central Server's credit bank for collaborating clusters.
#[derive(Debug, Default)]
pub struct CreditBank {
    ledger: Ledger<ServiceUnits>,
    /// Which organization owns each cluster.
    cluster_org: BTreeMap<ClusterId, OrgId>,
    /// Each user's Home Cluster.
    home_cluster: BTreeMap<UserId, ClusterId>,
}

/// Routing decision for a job under the bartering policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BarterRoute {
    /// Run at the user's Home Cluster (no credits change hands).
    Home(ClusterId),
    /// Run remotely at the given cluster; credits will flow home → host.
    Remote(ClusterId),
    /// No home capacity and insufficient credits to go remote.
    Blocked,
}

impl CreditBank {
    /// An empty bank.
    pub fn new() -> Self {
        CreditBank::default()
    }

    /// Register a collaborating organization with its initial credit grant.
    pub fn register_org(&mut self, org: OrgId, initial_credits: ServiceUnits) -> Result<()> {
        self.ledger.open(AccountId::Org(org), initial_credits)
    }

    /// Declare that `cluster` is owned/operated by `org`.
    pub fn register_cluster(&mut self, cluster: ClusterId, org: OrgId) -> Result<()> {
        if !self.ledger.has_account(&AccountId::Org(org)) {
            return Err(FaucetsError::UnknownCluster(cluster));
        }
        self.cluster_org.insert(cluster, org);
        Ok(())
    }

    /// Set a user's Home Cluster.
    pub fn set_home(&mut self, user: UserId, cluster: ClusterId) -> Result<()> {
        if !self.cluster_org.contains_key(&cluster) {
            return Err(FaucetsError::UnknownCluster(cluster));
        }
        self.home_cluster.insert(user, cluster);
        Ok(())
    }

    /// The user's Home Cluster.
    pub fn home_of(&self, user: UserId) -> Option<ClusterId> {
        self.home_cluster.get(&user).copied()
    }

    /// The org owning a cluster.
    pub fn org_of(&self, cluster: ClusterId) -> Option<OrgId> {
        self.cluster_org.get(&cluster).copied()
    }

    /// Current credit balance of an org.
    pub fn credits(&self, org: OrgId) -> ServiceUnits {
        self.ledger.balance(&AccountId::Org(org))
    }

    /// Decide where a job should run. `home_available` is whether the Home
    /// Cluster can take the job now; `remote_candidates` are collaborating
    /// clusters that could (in preference order); `est_cost` is the
    /// estimated credit cost of the run.
    pub fn route(
        &self,
        user: UserId,
        home_available: bool,
        remote_candidates: &[ClusterId],
        est_cost: ServiceUnits,
    ) -> Result<BarterRoute> {
        let home = self
            .home_cluster
            .get(&user)
            .copied()
            .ok_or(FaucetsError::UnknownUser(user))?;
        if home_available {
            return Ok(BarterRoute::Home(home));
        }
        let home_org = self
            .org_of(home)
            .ok_or(FaucetsError::UnknownCluster(home))?;
        if self.credits(home_org) < est_cost {
            return Ok(BarterRoute::Blocked);
        }
        for &c in remote_candidates {
            // Never "remote" to a cluster of the same org: that is a home run.
            match self.org_of(c) {
                Some(org) if org != home_org => return Ok(BarterRoute::Remote(c)),
                Some(_) => return Ok(BarterRoute::Home(c)),
                None => continue,
            }
        }
        Ok(BarterRoute::Blocked)
    }

    /// Settle a completed remote run: *"the appropriate number of credits
    /// are added to the Compute Server that executed the job and equal
    /// amount is deducted from the Home Cluster's account."* The credits
    /// charged are *"the amount of the computational units the job has
    /// taken to execute or any other function of it"* — callers compute
    /// them (usually CPU-seconds × machine speed factor).
    pub fn settle_remote_run(
        &mut self,
        user: UserId,
        host: ClusterId,
        credits: ServiceUnits,
    ) -> Result<()> {
        let home = self
            .home_cluster
            .get(&user)
            .copied()
            .ok_or(FaucetsError::UnknownUser(user))?;
        let home_org = self
            .org_of(home)
            .ok_or(FaucetsError::UnknownCluster(home))?;
        let host_org = self
            .org_of(host)
            .ok_or(FaucetsError::UnknownCluster(host))?;
        if home_org == host_org {
            return Ok(()); // intra-org runs are free
        }
        self.ledger
            .transfer(AccountId::Org(home_org), AccountId::Org(host_org), credits)
    }

    /// Total credits in the system, in micro-SUs (conserved by settlement).
    pub fn total_micros(&self) -> i64 {
        self.ledger.total_micros()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two orgs: org1 owns cs1 (home of user1), org2 owns cs2 and cs3.
    fn bank() -> CreditBank {
        let mut b = CreditBank::new();
        b.register_org(OrgId(1), ServiceUnits::from_units(100))
            .unwrap();
        b.register_org(OrgId(2), ServiceUnits::from_units(100))
            .unwrap();
        b.register_cluster(ClusterId(1), OrgId(1)).unwrap();
        b.register_cluster(ClusterId(2), OrgId(2)).unwrap();
        b.register_cluster(ClusterId(3), OrgId(2)).unwrap();
        b.set_home(UserId(1), ClusterId(1)).unwrap();
        b
    }

    #[test]
    fn home_first_routing() {
        let b = bank();
        let r = b
            .route(
                UserId(1),
                true,
                &[ClusterId(2)],
                ServiceUnits::from_units(10),
            )
            .unwrap();
        assert_eq!(r, BarterRoute::Home(ClusterId(1)));
    }

    #[test]
    fn overflow_to_remote_when_credits_suffice() {
        let b = bank();
        let r = b
            .route(
                UserId(1),
                false,
                &[ClusterId(2)],
                ServiceUnits::from_units(10),
            )
            .unwrap();
        assert_eq!(r, BarterRoute::Remote(ClusterId(2)));
    }

    #[test]
    fn blocked_when_credits_exhausted() {
        let b = bank();
        let r = b
            .route(
                UserId(1),
                false,
                &[ClusterId(2)],
                ServiceUnits::from_units(1000),
            )
            .unwrap();
        assert_eq!(r, BarterRoute::Blocked);
    }

    #[test]
    fn blocked_without_candidates() {
        let b = bank();
        let r = b
            .route(UserId(1), false, &[], ServiceUnits::from_units(1))
            .unwrap();
        assert_eq!(r, BarterRoute::Blocked);
    }

    #[test]
    fn settlement_moves_credits_and_conserves_total() {
        let mut b = bank();
        let before = b.total_micros();
        b.settle_remote_run(UserId(1), ClusterId(2), ServiceUnits::from_units(30))
            .unwrap();
        assert_eq!(b.credits(OrgId(1)), ServiceUnits::from_units(70));
        assert_eq!(b.credits(OrgId(2)), ServiceUnits::from_units(130));
        assert_eq!(b.total_micros(), before);
    }

    #[test]
    fn settlement_rejects_overdraft() {
        let mut b = bank();
        assert!(b
            .settle_remote_run(UserId(1), ClusterId(2), ServiceUnits::from_units(500))
            .is_err());
        // Balances untouched.
        assert_eq!(b.credits(OrgId(1)), ServiceUnits::from_units(100));
    }

    #[test]
    fn intra_org_runs_are_free() {
        // Same-org scenario: user2's home is cs2, job runs on cs3 (both org2).
        let mut b = bank();
        b.set_home(UserId(2), ClusterId(2)).unwrap();
        b.settle_remote_run(UserId(2), ClusterId(3), ServiceUnits::from_units(50))
            .unwrap();
        assert_eq!(b.credits(OrgId(2)), ServiceUnits::from_units(100));
    }

    #[test]
    fn unknown_entities_error() {
        let mut b = bank();
        assert!(b.set_home(UserId(9), ClusterId(99)).is_err());
        assert!(b.route(UserId(9), true, &[], ServiceUnits::ZERO).is_err());
        assert!(b.register_cluster(ClusterId(9), OrgId(99)).is_err());
        assert!(b
            .settle_remote_run(UserId(9), ClusterId(2), ServiceUnits::ZERO)
            .is_err());
    }

    #[test]
    fn remote_candidate_of_home_org_counts_as_home() {
        let mut b = bank();
        b.set_home(UserId(2), ClusterId(2)).unwrap();
        // user2's home org is org2; cs3 is also org2 → Home, no credits.
        let r = b
            .route(
                UserId(2),
                false,
                &[ClusterId(3)],
                ServiceUnits::from_units(10),
            )
            .unwrap();
        assert_eq!(r, BarterRoute::Home(ClusterId(3)));
    }
}
