//! Shared helpers for the experiment binaries.
//!
//! Each `src/bin/exp_*.rs` binary regenerates one experiment from
//! EXPERIMENTS.md; this library holds what they share — flag parsing, the
//! standard job mixes, and the live-grid fixtures (a commodity daemon, a
//! follower, a contract, an arrival schedule, a percentile) — so the
//! binaries stay declarative.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, QosContract};
use faucets_grid::workload::{ArrivalProcess, JobMix};
use faucets_load::prelude::{snappy_mix, ClassSpec, Schedule, ScheduleConfig};
use faucets_net::prelude::{
    spawn_fd_with, spawn_replica, Clock, FdHandle, FdOptions, ReplicaHandle, ReplicaOptions,
};
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_sim::dist::{LogNormal, UniformDist};
use faucets_sim::time::SimDuration;
use std::net::SocketAddr;
use std::path::PathBuf;

/// Read `--name value` from the command line, falling back to `default`.
pub fn flag<T: std::str::FromStr>(name: &str, default: T) -> T
where
    T::Err: std::fmt::Debug,
{
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == &format!("--{name}"))
        .and_then(|i| args.get(i + 1))
        .map(|v| {
            v.parse()
                .unwrap_or_else(|e| panic!("bad --{name} value '{v}': {e:?}"))
        })
        .unwrap_or(default)
}

/// True when `--name` is present as a bare switch.
pub fn switch(name: &str) -> bool {
    std::env::args().any(|a| a == format!("--{name}"))
}

/// The standard mixed workload used by most experiments: 1–64 min-PE jobs,
/// heavy-tailed runtimes, comfortable deadlines, fully adaptive.
pub fn standard_mix() -> JobMix {
    JobMix {
        log2_min_pes: (0, 6),
        ..JobMix::default()
    }
}

/// A deadline-pressure mix for the profit experiments: tight slack, stiff
/// penalties, valuable jobs.
pub fn deadline_tight_mix() -> JobMix {
    JobMix {
        log2_min_pes: (0, 5),
        slack: UniformDist::new(1.2, 2.5),
        hard_over_soft: 1.5,
        payoff_rate: Money::from_units_f64(0.05),
        penalty_fraction: 1.0,
        work: LogNormal::with_median(8_000.0, 1.2),
        work_clamp: (120.0, 4.0e5),
        ..JobMix::default()
    }
}

/// Print the table and, with `--csv`, its CSV form too.
pub fn emit(table: &faucets_grid::report::Table) {
    println!("{table}");
    if switch("csv") {
        println!("{}", table.to_csv());
    }
}

/// The `q`-quantile (nearest rank) of an ascending-sorted sample; 0 for an
/// empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() as f64 - 1.0) * q).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

/// A scratch directory path for experiment `exp` (`"e21"`, …), unique to
/// this process; whatever an earlier run left there is removed.
pub fn scratch(exp: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faucets-{exp}-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One 64-PE commodity Compute Server running `namd` as cluster `id`:
/// baseline bidding at $0.01 per CPU-second, equipartition scheduling,
/// on a free loopback port.
pub fn spawn_daemon(
    id: u64,
    name: &str,
    fs: SocketAddr,
    aspect: SocketAddr,
    clock: Clock,
    opts: FdOptions,
) -> FdHandle {
    let machine = MachineSpec::commodity(ClusterId(id), name, 64);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        ["namd".to_string()],
        Box::new(faucets_core::market::Baseline),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    spawn_fd_with("127.0.0.1:0", daemon, cluster, fs, aspect, clock, opts).expect("FD")
}

/// A follower daemon hosting `service`'s journal replica in `dir`, without
/// fsync (the experiments time the protocol, not the sandbox's disk).
pub fn follower_daemon(service: &str, dir: PathBuf) -> ReplicaHandle {
    spawn_replica(
        "127.0.0.1:0",
        &[(service.to_string(), dir)],
        ReplicaOptions { no_fsync: true },
    )
    .expect("replica daemon")
}

/// An adaptive 8–32 PE contract for `cpu_seconds` of `app`, worth $100
/// until a hard deadline `deadline_hours` from now and costing $10 after.
pub fn qos_for(clock: &Clock, app: &str, cpu_seconds: f64, deadline_hours: u64) -> QosContract {
    QosBuilder::new(app, 8, 32, cpu_seconds)
        .efficiency(0.95, 0.8)
        .adaptive()
        .payoff(PayoffFn::hard_only(
            clock
                .now()
                .saturating_add(SimDuration::from_hours(deadline_hours)),
            Money::from_units(100),
            Money::from_units(10),
        ))
        .build()
        .expect("qos")
}

/// An arrival schedule covering `wall_ms` of wall time on a grid clock
/// running at `speedup`: the horizon is sim time, wall × speedup.
pub fn schedule_for(
    seed: u64,
    users: u32,
    wall_ms: u64,
    speedup: f64,
    classes: Vec<ClassSpec>,
) -> Schedule {
    Schedule::build(&ScheduleConfig {
        seed,
        users,
        horizon: SimDuration::from_secs_f64(wall_ms as f64 / 1e3 * speedup),
        classes,
    })
}

/// The sim-time mean inter-arrival of `rate_per_sec` wall-jobs/second at
/// `speedup`.
pub fn interarrival(rate_per_sec: f64, speedup: f64) -> SimDuration {
    SimDuration::from_secs_f64(speedup / rate_per_sec)
}

/// One Poisson class of [`snappy_mix`] jobs at `rate_per_sec`
/// wall-jobs/second.
pub fn poisson_class(name: &str, rate_per_sec: f64, speedup: f64) -> ClassSpec {
    ClassSpec {
        name: name.into(),
        arrivals: ArrivalProcess::Poisson {
            mean_interarrival: interarrival(rate_per_sec, speedup),
        },
        mix: snappy_mix(),
    }
}

/// Client-breaker flaps and server-side overload rejections so far in
/// this process, for deltas around a run.
pub fn overload_counters() -> (u64, u64) {
    let s = faucets_telemetry::global().snapshot();
    (
        s.counter_sum("net_breaker_transitions_total", &[("to", "open")]),
        s.counter_sum("net_overload_rejections_total", &[]),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mixes_validate() {
        use faucets_sim::time::SimTime;
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        for mix in [standard_mix(), deadline_tight_mix()] {
            for _ in 0..100 {
                assert!(mix
                    .draw(SimTime::from_secs(10), &mut rng)
                    .validate()
                    .is_ok());
            }
        }
    }

    #[test]
    fn flag_default_used_without_args() {
        assert_eq!(flag::<u32>("definitely-not-passed", 7), 7);
        assert!(!switch("also-not-passed"));
    }
}
