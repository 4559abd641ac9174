//! Shared helpers for the experiment binaries.
//!
//! Each `src/bin/exp_*.rs` binary regenerates one experiment from
//! EXPERIMENTS.md; this library holds what they share — the one report
//! writer ([`report`]), flag parsing, the standard job mixes, the
//! closed-loop arm driver, and the live-grid fixtures (a Compute Server, a
//! follower, the Figure-1 scenario, the kill-and-recover procedure, a
//! contract, an arrival schedule, a load run) — so the binaries stay
//! declarative.

pub mod report;
/// Where a Compute Server or a client joins a live grid: its Central
/// Server(s), its AppSpector and its clock.
pub use faucets_load::prelude::GridTarget;
pub use report::{Bound, Report};
/// What every experiment's `main` returns: [`Report::finish`].
pub use std::process::ExitCode;

use faucets_core::auth::SessionToken;
use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::{ClusterId, UserId};
use faucets_core::market::SelectionPolicy;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, QosContract};
use faucets_grid::prelude::{MarketMode, ScenarioBuilder};
use faucets_grid::workload::{ArrivalProcess, JobMix};
use faucets_load::prelude::{
    run_against_grid, snappy_mix, ClassSpec, GridRunOptions, LoadReport, Recorder, Schedule,
    ScheduleConfig,
};
use faucets_net::prelude::{
    call_batch, call_with, serve_with, spawn_appspector, spawn_fd_with, spawn_fs, spawn_replica,
    AsHandle, CallOptions, Clock, FaucetsClient, FdHandle, FdOptions, FsHandle, ReplicaHandle,
    ReplicaOptions, ReplicationConfig, Request, Response, RetryPolicy, ServeOptions, ServiceHandle,
};
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_sim::dist::{LogNormal, UniformDist};
use faucets_sim::time::SimDuration;
use faucets_store::{pick_primary, prepare_promotion};
use faucets_telemetry::metrics::Registry;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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

/// The timing loop behind `cargo bench -p faucets-bench`: double the batch
/// until one takes 100 ms (the earlier batches are the warm-up), then print
/// that batch's mean as ns/iter.
pub fn ns_per_iter<T>(name: &str, mut work: impl FnMut() -> T) {
    let mut iters = 1u64;
    loop {
        let start = Instant::now();
        for _ in 0..iters {
            std::hint::black_box(work());
        }
        let took = start.elapsed();
        if took >= Duration::from_millis(100) {
            let ns = took.as_nanos() as f64 / iters as f64;
            println!("{name:<44} {ns:>14.1} ns/iter");
            return;
        }
        iters *= 2;
    }
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

/// The scenario most simulation experiments start from: `users` users
/// submitting [`standard_mix`] jobs as Poisson arrivals `interarrival`
/// apart for `hours`, placed by least-cost bidding. The caller adds its
/// clusters and overrides what its experiment varies.
pub fn market(seed: u64, users: usize, interarrival: SimDuration, hours: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(seed)
        .users(users)
        .mode(MarketMode::Bidding(SelectionPolicy::LeastCost))
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: interarrival,
        })
        .mix(standard_mix())
        .horizon(SimDuration::from_hours(hours))
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

/// One synthetic journal record, sized like a ledger transfer or an FD
/// `Accept` row, for the journal throughput arms.
pub fn probe_record(i: usize) -> String {
    let (user, micros) = (i % 7, i as i64 * 1_000_001);
    format!(
        r#"{{"seq":{i},"job":"job-{i}","user":"user-{user}","micros":{micros},"memo":"probe {i}"}}"#
    )
}

/// A scratch directory path for experiment `exp` (`"e21"`, …), unique to
/// this process; whatever an earlier run left there is removed.
pub fn scratch(exp: &str, name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faucets-{exp}-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One commodity Compute Server of `pes` processors as cluster `id`,
/// running `apps` under the named bid strategy at $0.01 per CPU-second
/// with equipartition scheduling, on a free loopback port. It joins the
/// grid `at` its (first) Central Server, its AppSpector and its clock.
pub fn spawn_cs(
    id: u64,
    name: &str,
    pes: u32,
    apps: &[&str],
    strategy: &str,
    at: &GridTarget,
    opts: FdOptions,
) -> FdHandle {
    let machine = MachineSpec::commodity(ClusterId(id), name, pes);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        apps.iter().map(|a| a.to_string()),
        faucets_grid::scenario::strategy_by_name(strategy),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    let (fs, aspect, clock) = (at.fs[0], at.appspector, at.clock.clone());
    spawn_fd_with("127.0.0.1:0", daemon, cluster, fs, aspect, clock, opts).expect("FD")
}

/// [`spawn_cs`] at its most common shape: 64 PEs, `namd`, baseline bids.
pub fn spawn_daemon(id: u64, name: &str, at: &GridTarget, opts: FdOptions) -> FdHandle {
    spawn_cs(id, name, 64, &["namd"], "baseline", at, opts)
}

/// A client logged in `at` the grid's (first) Central Server as `name`.
pub fn register(at: &GridTarget, name: &str) -> FaucetsClient {
    FaucetsClient::register(at.fs[0], at.appspector, at.clock.clone(), name, "pw").expect("client")
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

/// One Poisson class of [`snappy_mix`] jobs at `rate_per_sec`
/// wall-jobs/second.
pub fn poisson_class(name: &str, rate_per_sec: f64, speedup: f64) -> ClassSpec {
    ClassSpec {
        name: name.into(),
        arrivals: ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_secs_f64(speedup / rate_per_sec),
        },
        mix: snappy_mix(),
    }
}

/// The Figure-1 grid, live on loopback, after E1's scenario has run.
pub struct Figure1 {
    /// The Central Server.
    pub fs: FsHandle,
    /// The AppSpector.
    pub aspect: AsHandle,
    /// Three Compute Servers: 128 PEs baseline, 256 util-interp, 512
    /// baseline, all running `namd` and `cfd`.
    pub fds: Vec<FdHandle>,
    /// Two logged-in clients, `user0` and `user1`.
    pub clients: Vec<FaucetsClient>,
    /// Jobs placed (and completed) by the scenario.
    pub placed: usize,
}

/// E1's scenario (E20 replays it with telemetry on): boot the Figure-1
/// services, have each of two clients place `jobs_per_client` contracts
/// with an input file, wait for every completion and download the output.
pub fn figure1_scenario(clock: &Clock, jobs_per_client: usize) -> Figure1 {
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 1).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 64).expect("AppSpector");
    let at = GridTarget::single(fs.service.addr, aspect.service.addr, clock.clone());
    let fds = [
        (1, 128, "baseline"),
        (2, 256, "util-interp"),
        (3, 512, "baseline"),
    ]
    .map(|(i, pes, strategy)| {
        let (name, apps) = (format!("cs{i}"), ["namd", "cfd"]);
        spawn_cs(i, &name, pes, &apps, strategy, &at, FdOptions::default())
    })
    .into();
    let mut clients = vec![register(&at, "user0"), register(&at, "user1")];
    for c in clients.iter_mut() {
        let placed: Vec<_> = (0..jobs_per_client)
            .map(|j| {
                let app = if j % 2 == 0 { "namd" } else { "cfd" };
                c.submit(
                    qos_for(clock, app, 8.0 * 400.0, 4),
                    &[("in.dat".into(), vec![0u8; 1024])],
                )
                .expect("placed")
            })
            .collect();
        for sub in placed {
            c.wait(sub.job, Duration::from_secs(60)).expect("completes");
            c.download(sub.job, "output.dat").expect("output downloads");
        }
    }
    Figure1 {
        fs,
        aspect,
        fds,
        clients,
        placed: 2 * jobs_per_client,
    }
}

/// Options of a journaling FD: its store directory and, for a primary, the
/// follower it ships to synchronously.
pub fn journaled(store: PathBuf, sync_to: Option<SocketAddr>) -> FdOptions {
    FdOptions {
        store: Some(store),
        replication: sync_to.map(|follower| ReplicationConfig {
            followers: vec![follower],
            ..ReplicationConfig::default()
        }),
        ..FdOptions::default()
    }
}

/// A journaling FD acknowledges `jobs` awards, is killed -9 and comes back:
/// from its own journal (E21), or, `replicated`, through the
/// operator-driven failover E24 times and E27 uses as its baseline — the
/// follower's position is probed, it is elected with `pick_primary`, the
/// old reign is fenced with `prepare_promotion`, and the daemon restarts on
/// the released journal. Gates, under `recovery.`, that every acknowledged
/// award was journaled, is restored and completes and that the recovered
/// daemon accepts fresh work. Returns the seconds from the kill to the
/// recovered daemon serving.
pub fn kill_and_recover(
    r: &mut Report,
    exp: &str,
    speedup: f64,
    jobs: usize,
    replicated: bool,
) -> f64 {
    const SVC: &str = "fd-cs-1";
    let clock = Clock::new(speedup);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 71).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).expect("AS");
    let at = GridTarget::single(fs.service.addr, aspect.service.addr, clock.clone());
    let spawn = |opts| spawn_daemon(1, "turing", &at, opts);
    let follower = replicated.then(|| follower_daemon(SVC, scratch(exp, "recovery-follower")));
    let store = scratch(exp, "recovery-primary");
    let fd = spawn(journaled(store.clone(), follower.as_ref().map(|f| f.addr)));

    let mut client = register(&at, "operator");
    client.retry = RetryPolicy::standard(24);
    let submit = |client: &mut FaucetsClient, tag: u8| {
        let files = [("in.dat".into(), vec![tag; 32])];
        client.submit(qos_for(&clock, "namd", 64.0 * 3_600.0, 24), &files)
    };
    let acked: Vec<_> = (0..jobs)
        .map(|i| submit(&mut client, i as u8).expect("award acked").job)
        .collect();
    r.gate("recovery.journaled", fd.active_contracts(), Bound::eq(jobs));

    // The machine dies: no goodbye, only the journals survive. Everything
    // up to `mttr_s` is the recovery path an operator (or supervisor) runs.
    fd.kill();
    let t0 = Instant::now();
    let journal = match &follower {
        None => store,
        Some(follower) => {
            let pos = follower.position(SVC).expect("follower position");
            let elected = pick_primary(&[pos]) == Some(0);
            r.check("recovery.sole_survivor_elected", elected);
            let promoted = follower.release(SVC).expect("release journal");
            prepare_promotion(&promoted, SVC, pos.epoch + 1).expect("promotion");
            promoted
        }
    };
    let fd2 = spawn(journaled(journal, None));
    let restored = fd2.active_contracts();
    let mttr_s = t0.elapsed().as_secs_f64();

    let completed = acked
        .iter()
        .filter(|job| {
            client
                .wait(**job, Duration::from_secs(60))
                .is_ok_and(|s| s.completed)
        })
        .count();
    let new_award = submit(&mut client, 7).is_ok();
    fd2.shutdown();

    r.gate("recovery.restored", restored, Bound::eq(jobs));
    r.gate("recovery.completed", completed, Bound::eq(jobs));
    r.check("recovery.recovered_daemon_accepts_work", new_award);
    r.metric("recovery.mttr_ms", mttr_s * 1e3, "ms");
    mttr_s
}

/// The RPC experiments' echo service: every request stalls `stall_us` (the
/// simulated service time) and `VerifyToken` number `n` is answered
/// `Verified { user: n }`, so a reply that reaches the wrong caller is
/// seen, not assumed away. Caller and server may share the registry.
pub fn numbered_echo(name: &'static str, stall_us: u64) -> (ServiceHandle, Arc<Registry>) {
    let reg = Arc::new(Registry::new());
    let opts = ServeOptions {
        registry: Some(Arc::clone(&reg)),
        ..ServeOptions::default()
    };
    let h = serve_with("127.0.0.1:0", name, opts, move |req| {
        std::thread::sleep(Duration::from_micros(stall_us));
        let number = match &req {
            Request::VerifyToken { token } => token.0.parse().ok(),
            _ => None,
        };
        match number {
            Some(n) => Response::Verified { user: UserId(n) },
            None => Response::Error("echo takes a numbered VerifyToken".into()),
        }
    })
    .expect("echo service");
    (h, reg)
}

/// One [`closed_loop`] iteration against a [`numbered_echo`]: requests
/// `ticket * batch ..` go out as one `call_batch` burst (`pipelined`) or as
/// sequential `call_with` round-trips, and each must come back with its own
/// number. Another number is a crossed reply: counted into `crossed`, and
/// as an error.
pub fn numbered_batch(
    addr: SocketAddr,
    ticket: u64,
    batch: u64,
    opts: &CallOptions,
    pipelined: bool,
    crossed: &AtomicU64,
) -> (u64, u64) {
    let first = ticket * batch;
    let reqs: Vec<Request> = (first..first + batch)
        .map(|n| Request::VerifyToken {
            token: SessionToken(n.to_string()),
        })
        .collect();
    let replies = if pipelined {
        call_batch(addr, &reqs, opts)
    } else {
        reqs.iter().map(|r| call_with(addr, r, opts)).collect()
    };
    let mut ok = 0;
    for (n, reply) in (first..).zip(replies) {
        match reply {
            Ok(Response::Verified { user }) if user == UserId(n) => ok += 1,
            Ok(Response::Verified { .. }) => {
                crossed.fetch_add(1, Ordering::Relaxed);
            }
            _ => {}
        }
    }
    (ok, batch - ok)
}

/// What one [`closed_loop`] arm did.
#[derive(Debug, Default)]
pub struct ArmResult {
    /// Iterations run: tickets drawn inside the arm's window and cap.
    pub iters: u64,
    /// Calls answered as the iteration expected, over all iterations.
    pub calls: u64,
    /// Calls that were not.
    pub errors: u64,
    /// `calls` per wall second.
    pub per_sec: f64,
    /// Median latency of the iterations with at least one good call.
    pub p50_ms: f64,
    /// Their 99th percentile.
    pub p99_ms: f64,
}

impl ArmResult {
    /// The arm as `(name, value, unit)` fields for [`Report::metrics`].
    pub fn fields(&self) -> [(&'static str, f64, &'static str); 6] {
        [
            ("iters", self.iters as f64, "count"),
            ("calls", self.calls as f64, "count"),
            ("errors", self.errors as f64, "count"),
            ("per_sec", self.per_sec, "1/s"),
            ("p50_ms", self.p50_ms, "ms"),
            ("p99_ms", self.p99_ms, "ms"),
        ]
    }
}

/// The closed-loop arm driver: `clients` threads draw tickets from one
/// counter for `arm_ms` (and at most `max_iters` tickets), each running
/// its own iteration closure (built by `client` on the thread) once per
/// ticket. The closure is given the ticket and returns the good and bad
/// calls it made. With `pace` set, ticket `t` is not started before
/// `t / pace` seconds into the arm, which turns the loop into an offered
/// rate shared by the workers.
pub fn closed_loop<F: FnMut(u64) -> (u64, u64)>(
    clients: usize,
    arm_ms: u64,
    max_iters: u64,
    pace: Option<f64>,
    client: impl Fn() -> F + Sync,
) -> ArmResult {
    let started = Instant::now();
    let end = started + Duration::from_millis(arm_ms);
    let tickets = AtomicU64::new(0);
    let worker = || {
        let mut iterate = client();
        let (mut out, mut lat) = (ArmResult::default(), Vec::new());
        loop {
            let t = tickets.fetch_add(1, Ordering::Relaxed);
            let start = pace.map_or_else(Instant::now, |rate| {
                started + Duration::from_secs_f64(t as f64 / rate)
            });
            if t >= max_iters || start >= end {
                break;
            }
            std::thread::sleep(start.saturating_duration_since(Instant::now()));
            let t0 = Instant::now();
            let (ok, bad) = iterate(t);
            out.iters += 1;
            out.calls += ok;
            out.errors += bad;
            if ok > 0 {
                lat.push(t0.elapsed().as_secs_f64() * 1e3);
            }
        }
        (out, lat)
    };
    let (mut arm, mut lat) = (ArmResult::default(), Vec::new());
    std::thread::scope(|s| {
        let workers: Vec<_> = (0..clients).map(|_| s.spawn(worker)).collect();
        for w in workers {
            let (out, l) = w.join().expect("arm worker");
            arm.iters += out.iters;
            arm.calls += out.calls;
            arm.errors += out.errors;
            lat.extend(l);
        }
    });
    arm.per_sec = arm.calls as f64 / started.elapsed().as_secs_f64().max(1e-9);
    lat.sort_by(f64::total_cmp);
    // Nearest rank; 0 for an arm that made no good call.
    let quantile = |q: f64| {
        let rank = ((lat.len() as f64 - 1.0) * q).round() as usize;
        lat.get(rank).copied().unwrap_or(0.0)
    };
    (arm.p50_ms, arm.p99_ms) = (quantile(0.50), quantile(0.99));
    arm
}

/// Replay `schedule` open-loop against `target` and report it, with the
/// client-breaker flaps and server-side overload rejections the run added
/// to this process's counters. `slice` is the trend window (zero: none).
pub fn run_load(
    schedule: &Schedule,
    target: &GridTarget,
    opts: &GridRunOptions,
    slice: Duration,
) -> LoadReport {
    let overload = || {
        let s = faucets_telemetry::global().snapshot();
        (
            s.counter_sum("net_breaker_transitions_total", &[("to", "open")]),
            s.counter_sum("net_overload_rejections_total", &[]),
        )
    };
    let (flaps0, rejects0) = overload();
    let recorder = Recorder::new(&schedule.classes, slice);
    run_against_grid(schedule, target, opts, &recorder).expect("load run");
    let (flaps, rejects) = overload();
    let speedup = target.clock.speedup();
    recorder.report(
        schedule.users,
        opts.workers,
        speedup,
        flaps - flaps0,
        rejects - rejects0,
    )
}

/// The headline numbers of a load run as fields for [`Report::metrics`].
pub fn load_fields(rep: &LoadReport) -> [(&'static str, f64, &'static str); 9] {
    let submit_p99 = rep.classes.iter().map(|c| c.submit_ms.p99);
    [
        ("offered", rep.offered as f64, "count"),
        ("submitted", rep.submitted as f64, "count"),
        ("completed", rep.completed as f64, "count"),
        ("transport_errors", rep.transport_errors as f64, "count"),
        ("offered_per_sec", rep.offered_per_sec, "1/s"),
        ("submitted_per_sec", rep.submitted_per_sec, "1/s"),
        ("goodput_per_sec", rep.goodput_per_sec, "1/s"),
        ("shed_rate", rep.shed_rate, "ratio"),
        ("submit_p99_ms", submit_p99.fold(0.0, f64::max), "ms"),
    ]
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
