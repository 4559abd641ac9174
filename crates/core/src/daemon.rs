//! The Faucets Daemon (FD) and the Cluster Manager interface (§2).
//!
//! *"Each Scheduler is associated with a Faucets Daemon process which
//! listens on a well-known port. The FD acts like an agent for the
//! Scheduler to communicate with the rest of the Faucets system. … The
//! client process sees the FD, but not the actual CM. When FD receives a
//! bid request from a client, it queries the CM with that request and
//! receives an appropriate bid which it forwards to the client."*
//!
//! [`ClusterManager`] is the CM-side trait the daemon mediates for; the
//! adaptive and baseline schedulers in `faucets-sched` implement it. The
//! transport-level FD lives in `faucets-net`; this module is the
//! transport-independent mediation logic shared by the simulation and the
//! real services.

use crate::bid::{Bid, BidRequest, BidResponse, DeclineReason};
use crate::directory::{ServerInfo, ServerStatus};
use crate::error::Result;
use crate::ids::{ContractId, IdGen};
use crate::job::JobSpec;
use crate::market::strategy::{BidStrategy, ClusterView, MarketInfo};
use crate::money::Money;
use faucets_sim::time::SimTime;
use std::collections::HashSet;

/// A feasibility quote from the scheduler for a proposed job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedulerQuote {
    /// Processors the scheduler would devote.
    pub planned_pes: u32,
    /// The completion time it can promise.
    pub est_completion: SimTime,
    /// Predicted average utilization between now and the job's deadline —
    /// the input to the paper's interpolated bid strategy.
    pub predicted_utilization: f64,
}

/// The Cluster Manager (scheduler) as seen by its daemon.
pub trait ClusterManager {
    /// Can this job be scheduled, and on what terms? Called per bid request
    /// ("after some interaction between the FD and the Scheduler, the FD
    /// either declines the job or replies with a bid").
    fn probe(
        &mut self,
        req: &BidRequest,
        now: SimTime,
    ) -> std::result::Result<SchedulerQuote, DeclineReason>;

    /// Accept a contracted job into the local queue.
    fn submit(
        &mut self,
        spec: JobSpec,
        contract: ContractId,
        price: Money,
        now: SimTime,
    ) -> Result<()>;

    /// Current machine status for heartbeats (free processors, queue depth).
    fn status(&self, now: SimTime) -> ServerStatus;
}

/// Outcome of the phase-2 award handshake at the daemon.
#[derive(Debug, Clone, PartialEq)]
pub enum AwardOutcome {
    /// The daemon confirmed and the job was submitted to the scheduler.
    Confirmed,
    /// The daemon reneged — the machine's situation changed since the bid
    /// ("which may have received a more lucrative job in between", §5.3).
    Reneged(DeclineReason),
}

/// Counters for daemon activity, used in experiment reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DaemonStats {
    /// Bid requests received.
    pub requests: u64,
    /// Bids offered.
    pub bids: u64,
    /// Requests declined.
    pub declines: u64,
    /// Awards confirmed.
    pub confirms: u64,
    /// Awards reneged.
    pub reneges: u64,
}

/// The transport-independent Faucets Daemon.
pub struct FaucetsDaemon {
    /// The static registration info for this Compute Server.
    pub info: ServerInfo,
    /// "Known Applications" this server exports (§2.2).
    pub exported_apps: HashSet<String>,
    /// The pluggable bid-generation algorithm (§5.2).
    strategy: Box<dyn BidStrategy>,
    /// Normalized cost: dollars per CPU-second on this machine.
    pub normalized_cost: Money,
    bid_ids: IdGen,
    /// Activity counters.
    pub stats: DaemonStats,
}

impl FaucetsDaemon {
    /// A daemon for the given server, exporting `apps`, pricing with
    /// `strategy` at `normalized_cost` dollars per CPU-second.
    pub fn new(
        info: ServerInfo,
        apps: impl IntoIterator<Item = String>,
        strategy: Box<dyn BidStrategy>,
        normalized_cost: Money,
    ) -> Self {
        FaucetsDaemon {
            info,
            exported_apps: apps.into_iter().collect(),
            strategy,
            normalized_cost,
            bid_ids: IdGen::new(),
            stats: DaemonStats::default(),
        }
    }

    /// The name of the installed bid strategy (for reports).
    pub fn strategy_name(&self) -> &'static str {
        self.strategy.name()
    }

    /// Handle a request-for-bids: check the application is exported, ask
    /// the scheduler for a feasibility quote, then price it with the bid
    /// strategy.
    pub fn handle_bid_request(
        &mut self,
        req: &BidRequest,
        cm: &mut dyn ClusterManager,
        market: &MarketInfo,
        now: SimTime,
    ) -> BidResponse {
        self.stats.requests += 1;
        if !self.exported_apps.contains(&req.qos.env.app) {
            self.stats.declines += 1;
            return BidResponse::Decline(DeclineReason::UnknownApplication);
        }
        let quote = match cm.probe(req, now) {
            Ok(q) => q,
            Err(reason) => {
                self.stats.declines += 1;
                return BidResponse::Decline(reason);
            }
        };
        let status = cm.status(now);
        let view = ClusterView {
            total_pes: self.info.total_pes,
            free_pes: status.free_pes,
            normalized_cost: self.normalized_cost,
            flops_per_pe_sec: self.info.flops_per_pe_sec,
            predicted_utilization: quote.predicted_utilization,
            now,
        };
        match self.strategy.multiplier(req, &view, market) {
            Some(m) => {
                self.stats.bids += 1;
                let cpu = req.qos.cpu_seconds(self.info.flops_per_pe_sec);
                BidResponse::Offer(Bid::from_multiplier(
                    self.bid_ids.next(),
                    self.info.cluster,
                    req.job,
                    m,
                    cpu,
                    self.normalized_cost,
                    quote.est_completion,
                    quote.planned_pes,
                ))
            }
            None => {
                self.stats.declines += 1;
                BidResponse::Decline(DeclineReason::Unprofitable)
            }
        }
    }

    /// Handle the phase-2 award: re-probe the scheduler (the machine may
    /// have changed since the bid) and either confirm + submit or renege.
    pub fn handle_award(
        &mut self,
        spec: JobSpec,
        contract: ContractId,
        bid: &Bid,
        cm: &mut dyn ClusterManager,
        now: SimTime,
    ) -> Result<AwardOutcome> {
        let req = BidRequest {
            job: spec.id,
            user: spec.user,
            qos: spec.qos.clone(),
            issued_at: now,
        };
        match cm.probe(&req, now) {
            Ok(_) => {
                cm.submit(spec, contract, bid.price, now)?;
                self.stats.confirms += 1;
                Ok(AwardOutcome::Confirmed)
            }
            Err(reason) => {
                self.stats.reneges += 1;
                Ok(AwardOutcome::Reneged(reason))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{ClusterId, JobId, UserId};
    use crate::market::strategy::Baseline;
    use crate::qos::QosBuilder;

    /// A scripted CM: feasible unless `decline` is set.
    struct FakeCm {
        decline: Option<DeclineReason>,
        free: u32,
        submitted: Vec<JobId>,
    }

    impl ClusterManager for FakeCm {
        fn probe(
            &mut self,
            _req: &BidRequest,
            now: SimTime,
        ) -> std::result::Result<SchedulerQuote, DeclineReason> {
            match &self.decline {
                Some(r) => Err(r.clone()),
                None => Ok(SchedulerQuote {
                    planned_pes: 8,
                    est_completion: now
                        .saturating_add(faucets_sim::time::SimDuration::from_secs(100)),
                    predicted_utilization: 0.5,
                }),
            }
        }
        fn submit(
            &mut self,
            spec: JobSpec,
            _contract: ContractId,
            _price: Money,
            _now: SimTime,
        ) -> Result<()> {
            self.submitted.push(spec.id);
            Ok(())
        }
        fn status(&self, _now: SimTime) -> ServerStatus {
            ServerStatus {
                free_pes: self.free,
                queue_len: 0,
                accepting: true,
                ..Default::default()
            }
        }
    }

    fn daemon() -> FaucetsDaemon {
        FaucetsDaemon::new(
            ServerInfo {
                cluster: ClusterId(1),
                name: "turing".into(),
                total_pes: 64,
                mem_per_pe_mb: 1024,
                cpu_type: "x86-64".into(),
                flops_per_pe_sec: 1.0,
                fd_addr: "127.0.0.1".into(),
                fd_port: 9001,
            },
            ["namd".to_string()],
            Box::new(Baseline),
            Money::from_units_f64(0.01),
        )
    }

    fn req(app: &str) -> BidRequest {
        BidRequest {
            job: JobId(1),
            user: UserId(1),
            qos: QosBuilder::new(app, 4, 16, 1000.0).build().unwrap(),
            issued_at: SimTime::ZERO,
        }
    }

    #[test]
    fn offers_bid_for_known_app() {
        let mut d = daemon();
        let mut cm = FakeCm {
            decline: None,
            free: 32,
            submitted: vec![],
        };
        let resp =
            d.handle_bid_request(&req("namd"), &mut cm, &MarketInfo::default(), SimTime::ZERO);
        let bid = resp.offer().expect("should offer");
        // Baseline multiplier 1.0: 1000 cpu-s * $0.01 = $10.
        assert_eq!(bid.price, Money::from_units(10));
        assert_eq!(bid.planned_pes, 8);
        assert_eq!(d.stats.bids, 1);
    }

    #[test]
    fn declines_unknown_application() {
        let mut d = daemon();
        let mut cm = FakeCm {
            decline: None,
            free: 32,
            submitted: vec![],
        };
        let resp =
            d.handle_bid_request(&req("seti"), &mut cm, &MarketInfo::default(), SimTime::ZERO);
        assert_eq!(
            resp,
            BidResponse::Decline(DeclineReason::UnknownApplication)
        );
        assert_eq!(d.stats.declines, 1);
    }

    #[test]
    fn forwards_scheduler_decline() {
        let mut d = daemon();
        let mut cm = FakeCm {
            decline: Some(DeclineReason::CannotMeetDeadline),
            free: 0,
            submitted: vec![],
        };
        let resp =
            d.handle_bid_request(&req("namd"), &mut cm, &MarketInfo::default(), SimTime::ZERO);
        assert_eq!(
            resp,
            BidResponse::Decline(DeclineReason::CannotMeetDeadline)
        );
    }

    #[test]
    fn award_confirms_and_submits_when_feasible() {
        let mut d = daemon();
        let mut cm = FakeCm {
            decline: None,
            free: 32,
            submitted: vec![],
        };
        let r = req("namd");
        let resp = d.handle_bid_request(&r, &mut cm, &MarketInfo::default(), SimTime::ZERO);
        let bid = *resp.offer().unwrap();
        let spec = JobSpec::new(r.job, r.user, r.qos, SimTime::ZERO).unwrap();
        let out = d
            .handle_award(spec, ContractId(0), &bid, &mut cm, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(out, AwardOutcome::Confirmed);
        assert_eq!(cm.submitted, vec![JobId(1)]);
        assert_eq!(d.stats.confirms, 1);
    }

    #[test]
    fn award_reneges_when_machine_changed() {
        let mut d = daemon();
        let mut cm = FakeCm {
            decline: None,
            free: 32,
            submitted: vec![],
        };
        let r = req("namd");
        let resp = d.handle_bid_request(&r, &mut cm, &MarketInfo::default(), SimTime::ZERO);
        let bid = *resp.offer().unwrap();
        // The machine fills up between bid and award.
        cm.decline = Some(DeclineReason::InsufficientResources);
        let spec = JobSpec::new(r.job, r.user, r.qos, SimTime::ZERO).unwrap();
        let out = d
            .handle_award(spec, ContractId(0), &bid, &mut cm, SimTime::from_secs(1))
            .unwrap();
        assert_eq!(
            out,
            AwardOutcome::Reneged(DeclineReason::InsufficientResources)
        );
        assert!(cm.submitted.is_empty());
        assert_eq!(d.stats.reneges, 1);
    }
}
