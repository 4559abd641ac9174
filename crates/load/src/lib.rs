//! Open-loop load generation against a live Faucets grid.
//!
//! The paper sizes the system at "hundreds of Compute Servers" and
//! "millions of jobs per day" (§5); this crate turns that claim into a
//! measured trajectory. It replays the simulator's workload models
//! ([`faucets_grid::workload`]: Poisson / day-night-modulated arrivals,
//! heavy-tailed log-normal work, per-class QoS mixes) as a pre-computed
//! arrival **schedule** fired against a real FS/FD/AppSpector grid over
//! TCP — tens of thousands of virtual users multiplexed over a bounded
//! worker pool on the existing pooled-connection client stack.
//!
//! ## Open loop, deliberately
//!
//! Submissions fire at their *scheduled* instants regardless of how
//! slowly the grid answers, and every latency is measured from the
//! scheduled arrival, not from the moment a worker finally got around to
//! sending. A closed-loop harness (submit, wait, submit) silently
//! stretches its own inter-arrival gaps when the system slows down, so
//! the worst latencies are exactly the ones it never measures — the
//! coordinated-omission trap. Here a slow grid makes the *numbers* worse,
//! never the *offered load* lighter.
//!
//! ## Pieces
//!
//! - [`schedule`] — deterministic, seedable arrival schedules: per-class
//!   arrival process × QoS mix, generated in **sim time** so deadlines
//!   anchor correctly under a sped-up grid clock, merged and sorted.
//! - [`runner`] — the open-loop core: a shared ticket counter over the
//!   schedule, workers sleeping until each entry's wall instant, firing
//!   through any caller-supplied operation (a stalled-op test double
//!   plugs in exactly like the live grid driver).
//! - [`grid`] — the live grid, [`grid::launch`]ed from the scenario a
//!   simulation builds from, and the driver: per-worker authenticated
//!   clients, submissions over pooled TCP, completion watchers honouring
//!   AppSpector's owner-only watch rule.
//! - [`recorder`] / [`report`] — per-class latency quantiles
//!   (p50/p90/p99/p999 via the sim crate's P² battery), outcome counters,
//!   time-sliced trend samples, and the machine-readable SLO report the
//!   E25 experiment writes as `BENCH_load.json`.
//! - [`nemesis`] — seeded, byte-for-byte reproducible fault schedules
//!   (primary kills, replica bounces, sentinel partitions, clock skew)
//!   fired against the live grid while the open-loop load runs, plus the
//!   invariant checker (zero acked-award loss, one primary per epoch,
//!   bounded MTTR) the E27 self-healing experiment gates on.

pub mod grid;
pub mod nemesis;
pub mod recorder;
pub mod report;
pub mod runner;
pub mod schedule;

/// One-stop imports for experiments and tests.
pub mod prelude {
    pub use crate::grid::{launch, run_against_grid, GridRunOptions, GridTarget, LiveGrid};
    pub use crate::nemesis::{
        fire, FaultKind, InvariantChecker, InvariantReport, NemesisConfig, NemesisPlan,
        ScheduledFault,
    };
    pub use crate::recorder::Recorder;
    pub use crate::report::{ClassReport, LatencyReport, LoadReport, SliceReport};
    pub use crate::runner::{run_open_loop, FireOutcome};
    pub use crate::schedule::{snappy_mix, ClassSpec, Schedule, ScheduleConfig, ScheduledJob};
}
