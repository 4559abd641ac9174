//! The market machinery of Faucets (§5): bid generation, bid evaluation,
//! the two-phase contract protocol, contract history / grid weather, and
//! auction-mechanism baselines.

pub mod agents;
pub mod auction;
pub mod contract;
pub mod history;
pub mod regulation;
pub mod round;
pub mod selection;
pub mod strategy;

pub use agents::{DistributedEvaluation, EvalOutcome};
pub use auction::{equilibrium_ask, run_reverse_auction, AuctionResult, Mechanism};
pub use contract::{Contract, ContractBook, ContractState};
pub use history::{ContractHistory, ContractRecord};
pub use regulation::{BandAction, Regulator, ScreenStats};
pub use round::{Negotiation, MAX_ROUNDS};
pub use selection::SelectionPolicy;
pub use strategy::{
    Baseline, BidStrategy, ClusterView, DeadlineAware, Fixed, Forecast, MarketInfo,
    UtilizationInterpolated, WeatherAware,
};
