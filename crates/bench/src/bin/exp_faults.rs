//! E19 — Fault injection and failure recovery across the Figure-1 services.
//!
//! Boots the full live stack (FS, AppSpector, three FDs) under a seeded
//! `FaultPlan`, submits a batch of contracted jobs, then executes the
//! plan's daemon-outage schedule: each victim FD is killed mid-run and
//! restarted after its downtime. Two arms per kill count:
//!
//! * **recovery** — FDs journal contracts to a write-ahead log and replay
//!   it on restart, the client retries with backoff; and
//! * **no recovery** — restarted daemons come back empty-handed (the seed
//!   system's behaviour).
//!
//! The table reports completion rate and payoff lost vs. the number of
//! daemon crashes. The expected shape: recovery holds completion ≈100% at
//! every crash count, while no-recovery degrades monotonically as more
//! contracts die with their daemons. The same `--seed` reproduces the
//! same fault schedule byte-for-byte (checked and printed).

use faucets_bench::{emit, flag};
use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_grid::prelude::*;
use faucets_net::fd::FdOptions;
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

const DAEMONS: usize = 3;
const PAYOFF_PER_JOB: i64 = 100;

fn make_fd_parts(i: usize) -> (FaucetsDaemon, Cluster) {
    let pes = [64u32, 128, 256][i % 3];
    let machine = MachineSpec::commodity(ClusterId(i as u64 + 1), format!("cs{}", i + 1), pes);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        ["namd".to_string(), "cfd".to_string()],
        faucets_grid::scenario::strategy_by_name("baseline"),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    (daemon, cluster)
}

fn fd_options(store: Option<PathBuf>) -> FdOptions {
    FdOptions {
        store,
        ..FdOptions::default()
    }
}

struct ArmResult {
    completed: usize,
    total: usize,
    restores: usize,
}

/// One arm: fresh stack, `jobs` submissions, then the outage schedule.
fn run_arm(seed: u64, jobs: usize, kills: usize, downtime_ms: u64, recovery: bool) -> ArmResult {
    let plan = FaultPlan::new(seed, FaultConfig::flaky());
    let clock = Clock::new(500.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), seed).expect("FS");
    // The AppSpector runs under wire faults: its operations are idempotent,
    // so dropped/garbled frames are absorbed by caller retries.
    let aspect = spawn_appspector_with(
        "127.0.0.1:0",
        fs.service.addr,
        64,
        ServeOptions {
            faults: Some(Arc::new(FaultPlan::new(seed ^ 0xA5, plan.config()))),
            ..ServeOptions::default()
        },
    )
    .expect("AppSpector");

    let scratch = std::env::temp_dir().join(format!(
        "faucets-e19-{}-{}-{}-{}",
        std::process::id(),
        seed,
        kills,
        recovery
    ));
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let snap_path = |i: usize| recovery.then(|| scratch.join(format!("fd{i}")));

    let spawn = |i: usize, fs: SocketAddr, aspect: SocketAddr, clock: Clock| {
        let (daemon, cluster) = make_fd_parts(i);
        faucets_net::fd::spawn_fd_with(
            "127.0.0.1:0",
            daemon,
            cluster,
            fs,
            aspect,
            clock,
            fd_options(snap_path(i)),
        )
        .expect("FD")
    };
    let mut fds: Vec<Option<faucets_net::fd::FdHandle>> = (0..DAEMONS)
        .map(|i| {
            Some(spawn(
                i,
                fs.service.addr,
                aspect.service.addr,
                clock.clone(),
            ))
        })
        .collect();

    let mut client = FaucetsClient::register(
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        &format!("user-{seed}-{kills}-{recovery}"),
        "pw",
    )
    .expect("client");
    client.retry = RetryPolicy::standard(seed);

    let mut placed = vec![];
    for j in 0..jobs {
        let qos = QosBuilder::new(
            if j % 2 == 0 { "namd" } else { "cfd" },
            8,
            32,
            8.0 * 3_600.0,
        )
        .efficiency(0.95, 0.8)
        .adaptive()
        .payoff(PayoffFn::hard_only(
            clock
                .now()
                .saturating_add(faucets_sim::time::SimDuration::from_hours(24)),
            Money::from_units(PAYOFF_PER_JOB),
            Money::from_units(10),
        ))
        .build()
        .unwrap();
        match client.submit(qos, &[("in.dat".into(), vec![0u8; 512])]) {
            Ok(sub) => placed.push(sub),
            Err(e) => eprintln!("  submit {j} failed: {e}"),
        }
    }

    // Execute the deterministic outage schedule: kill, wait out the
    // downtime, restart (with or without the journal).
    let mut restores = 0usize;
    for outage in plan.outages(DAEMONS, kills, 400, downtime_ms) {
        std::thread::sleep(Duration::from_millis(outage.kill_after_ms.min(400)));
        if let Some(fd) = fds[outage.victim].take() {
            fd.kill();
        }
        std::thread::sleep(Duration::from_millis(outage.downtime_ms));
        let fd = spawn(
            outage.victim,
            fs.service.addr,
            aspect.service.addr,
            clock.clone(),
        );
        if recovery {
            restores += fd.active_contracts();
        }
        fds[outage.victim] = Some(fd);
    }

    // Shared deadline for the whole batch, so lost jobs cost at most one
    // timeout between them.
    let deadline = std::time::Instant::now() + Duration::from_secs(25);
    let mut completed = 0usize;
    for sub in &placed {
        let left = deadline
            .saturating_duration_since(std::time::Instant::now())
            .max(Duration::from_millis(50));
        if client.wait(sub.job, left).is_ok() {
            completed += 1;
        }
    }

    for fd in fds.into_iter().flatten() {
        fd.shutdown();
    }
    let _ = std::fs::remove_dir_all(&scratch);
    ArmResult {
        completed,
        total: jobs,
        restores,
    }
}

fn main() {
    let seed: u64 = flag("seed", 19);
    let jobs: usize = flag("jobs", 8);
    let max_kills: usize = flag("max-kills", 3);
    let downtime_ms: u64 = flag("downtime-ms", 150);

    // The fault schedule is a pure function of the seed: byte-for-byte
    // reproducible across plans, runs, and machines.
    let plan_a = FaultPlan::new(seed, FaultConfig::flaky());
    let plan_b = FaultPlan::new(seed, FaultConfig::flaky());
    let desc = plan_a.schedule_description(DAEMONS, max_kills, 400, downtime_ms);
    assert_eq!(
        desc,
        plan_b.schedule_description(DAEMONS, max_kills, 400, downtime_ms),
        "same seed must reproduce the same schedule byte-for-byte"
    );
    assert_ne!(
        desc,
        FaultPlan::new(seed + 1, FaultConfig::flaky()).schedule_description(
            DAEMONS,
            max_kills,
            400,
            downtime_ms
        ),
        "different seeds must diverge"
    );
    println!("Fault schedule (seed {seed}, reproduced byte-for-byte):\n{desc}");

    let mut table = Table::new(
        "E19: completion & payoff lost vs. daemon crashes, with/without recovery",
        &[
            "daemon kills",
            "arm",
            "completed",
            "completion %",
            "payoff lost",
            "contracts restored",
        ],
    );
    for kills in 0..=max_kills {
        for recovery in [true, false] {
            let r = run_arm(seed, jobs, kills, downtime_ms, recovery);
            let lost = (r.total - r.completed) as i64 * PAYOFF_PER_JOB;
            table.row(vec![
                kills.to_string(),
                if recovery {
                    "recovery".into()
                } else {
                    "no recovery".into()
                },
                format!("{}/{}", r.completed, r.total),
                format!("{:.0}%", 100.0 * r.completed as f64 / r.total.max(1) as f64),
                Money::from_units(lost).to_string(),
                if recovery {
                    r.restores.to_string()
                } else {
                    "-".into()
                },
            ]);
        }
    }
    emit(&table);
    println!(
        "\nRecovery (WAL contract journal + client retry + FS eviction) holds the\n\
         completion rate near 100% at every crash count; without it, every\n\
         contract caught on a crashed daemon is payoff lost for good."
    );
}
