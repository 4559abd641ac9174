//! # faucets-core — market-based resource allocation for the computational grid
//!
//! A from-scratch reproduction of the core contribution of *Faucets:
//! Efficient Resource Allocation on the Computational Grid* (Kalé, Kumar,
//! Potnuru, DeSouza, Bandhakavi — ICPP 2004): treating compute power as a
//! utility by making Compute Servers *compete* for every parallel job.
//!
//! The crate contains every transport-independent component of the paper's
//! architecture (Figure 1):
//!
//! * [`qos`] — quality-of-service contracts: processor ranges, memory, work,
//!   the completion-time model, and payoff functions with soft/hard
//!   deadlines (§2.1);
//! * [`job`] — job specs and the submission → bidding → contract →
//!   staging → running → completion lifecycle (§2);
//! * [`bid`] and [`market`] — request-for-bids, the published bid-strategy
//!   interface with the paper's baseline and utilization-interpolated
//!   strategies (§5.2), client-side bid evaluation (§5.3), the two-phase
//!   award protocol, contract history / grid weather (§5.2.1), and auction
//!   baselines (§6);
//! * [`directory`] and [`server`] — the Faucets Central Server: Compute
//!   Server directory with static+dynamic filtering (§5.1), user
//!   authentication, known-applications registry;
//! * [`daemon`] — the Faucets Daemon mediation logic and the
//!   [`daemon::ClusterManager`] interface implemented by the schedulers in
//!   `faucets-sched`;
//! * [`appspector`] — job monitoring with buffered display data (§2);
//! * [`accounting`] and [`barter`] — billing, Service-Unit quotas, and the
//!   bartering credit economy with Home Clusters (§5.5);
//! * [`auth`] — userid/password authentication with salted SHA-256 and
//!   expiring session tokens (§2.2).
//!
//! The discrete-event substrate lives in `faucets-sim`, the adaptive-job
//! schedulers in `faucets-sched`, the whole-grid simulation in
//! `faucets-grid`, and the deployable TCP services in `faucets-net`.
//!
//! # Example: one round of the market
//!
//! ```
//! use faucets_core::prelude::*;
//! use faucets_sim::time::SimTime;
//!
//! // A client's QoS contract (§2.1).
//! let qos = QosBuilder::new("namd", 8, 32, 3_600.0)
//!     .efficiency(0.95, 0.8)
//!     .adaptive()
//!     .payoff(PayoffFn::hard_only(
//!         SimTime::from_hours(2),
//!         Money::from_units(100),
//!         Money::from_units(20),
//!     ))
//!     .build()?;
//!
//! // Two Compute Servers answer the request-for-bids (§5.2): here we form
//! // the bids directly from their strategies' multipliers.
//! let req = BidRequest { job: JobId(1), user: UserId(1), qos: qos.clone(), issued_at: SimTime::ZERO };
//! let view = ClusterView {
//!     total_pes: 256, free_pes: 256,
//!     normalized_cost: Money::from_units_f64(0.01),
//!     flops_per_pe_sec: 1.0, predicted_utilization: Forecast::known(0.0), now: SimTime::ZERO,
//! };
//! let market = MarketInfo::default();
//! let bids: Vec<Bid> = [
//!     (ClusterId(1), Baseline.multiplier(&req, &view, &market).unwrap()),
//!     (ClusterId(2), UtilizationInterpolated::default().multiplier(&req, &view, &market).unwrap()),
//! ]
//! .into_iter()
//! .enumerate()
//! .map(|(i, (cluster, m))| Bid::from_multiplier(
//!     BidId(i as u64), cluster, req.job, m, 3_600.0,
//!     Money::from_units_f64(0.01), SimTime::from_secs(450), 32,
//! ))
//! .collect();
//!
//! // The client evaluates (§5.3): the idle interpolated server bids
//! // k(1-α) = 0.5 and wins on least cost.
//! let winner = SelectionPolicy::LeastCost.select(&bids, &qos.payoff).unwrap();
//! assert_eq!(winner.cluster, ClusterId(2));
//! assert_eq!(winner.price, Money::from_units(18)); // 3600 × $0.01 × 0.5
//!
//! // Two-phase award (§5.3).
//! let mut book = ContractBook::new();
//! let contract = book.award(*winner, SimTime::ZERO)?;
//! book.confirm(contract)?;
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod accounting;
pub mod appspector;
pub mod auth;
pub mod barter;
pub mod bid;
pub mod daemon;
pub mod directory;
pub mod error;
pub mod ids;
pub mod job;
pub mod market;
pub mod money;
pub mod qos;
pub mod quota;
pub mod server;

/// Convenient glob import for Faucets users.
pub mod prelude {
    pub use crate::accounting::{AccountId, Amount, Ledger};
    pub use crate::appspector::{AppSpector, MonitorSnapshot, OutputFile, TelemetrySample};
    pub use crate::auth::{SessionToken, UserDb};
    pub use crate::barter::{BarterRoute, CreditBank};
    pub use crate::bid::{Bid, BidRequest, BidResponse, DeclineReason};
    pub use crate::daemon::{AwardOutcome, ClusterManager, FaucetsDaemon, SchedulerQuote};
    pub use crate::directory::{Directory, FilterLevel, ServerInfo, ServerStatus};
    pub use crate::error::{FaucetsError, Result};
    pub use crate::ids::{BidId, ClusterId, ContractId, IdGen, JobId, OrgId, UserId};
    pub use crate::job::{JobOutcome, JobSpec};
    pub use crate::market::{
        run_reverse_auction, Baseline, BidStrategy, ClusterView, Contract, ContractBook,
        ContractHistory, ContractRecord, ContractState, DeadlineAware, Fixed, Forecast, MarketInfo,
        Mechanism, SelectionPolicy, UtilizationInterpolated, WeatherAware,
    };
    pub use crate::money::{Money, ServiceUnits};
    pub use crate::qos::{
        Environment, PayoffFn, Phase, PhaseStructure, QosBuilder, QosContract, SpeedupModel,
        WorkSpec,
    };
    pub use crate::quota::SuQuota;
    pub use crate::server::FaucetsServer;
}
