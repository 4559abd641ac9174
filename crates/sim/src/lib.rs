//! # faucets-sim — discrete-event simulation substrate
//!
//! The simulation framework described in §5.4 of *Faucets: Efficient
//! Resource Allocation on the Computational Grid* (ICPP 2004): every entity
//! in the Faucets system — clients, Compute Servers, the Faucets Server, job
//! schedulers with their bid-generation algorithms, and application programs
//! — is represented by an object inside a [`engine::World`], and
//! discrete-event simulation is carried out over patterns of job submissions
//! under study.
//!
//! The crate is domain-agnostic: it provides
//!
//! * a fixed-point simulation clock ([`time`]),
//! * an engine with cancellation, horizons and event budgets ([`engine`]),
//! * two interchangeable pending-event sets — a binary heap ([`queue`]) and a
//!   calendar queue ([`calendar`]) — benchmarked against each other in
//!   experiment E10,
//! * random-variate distributions for workload generation ([`dist`]),
//! * O(1)-memory streaming statistics ([`stats`]), and
//! * the seeded property-check loop the workspace's tests share ([`check`]).
//!
//! The grid-level model built on top of this engine lives in `faucets-grid`.

#![warn(missing_docs)]

pub mod calendar;
pub mod check;
pub mod dist;
pub mod engine;
pub mod event;
pub mod queue;
pub mod stats;
pub mod time;

/// Convenient glob import for simulation users.
pub mod prelude {
    pub use crate::calendar::CalendarQueue;
    pub use crate::dist::{
        Categorical, Dist, Exp, LogNormal, Pareto, Truncated, UniformDist, Weibull, Zipf,
    };
    pub use crate::engine::{RunOutcome, Scheduler, Simulation, World};
    pub use crate::event::{EventId, Scheduled};
    pub use crate::queue::{BinaryHeapQueue, EventQueue};
    pub use crate::stats::{Counter, P2Quantile, Replications, Summary, TimeWeighted};
    pub use crate::time::{SimDuration, SimTime, MICROS_PER_SEC};
}
