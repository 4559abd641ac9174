//! The complete Figure-1 architecture, live on localhost.
//!
//! Spins up the Central Faucets Server, two Faucets Daemons with their
//! Cluster Managers, and the AppSpector server as real TCP services, then
//! walks a client through the whole §2 story: register → login → match →
//! solicit bids → award → stage input files → monitor via AppSpector →
//! download outputs. The services run on a 600× accelerated clock so the
//! "supercomputer minutes" pass in wall seconds.
//!
//! Run with: `cargo run -p faucets-examples --bin live_services`

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::market::{Baseline, UtilizationInterpolated};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_sim::time::SimTime;

fn spawn_cluster(
    id: u64,
    name: &str,
    pes: u32,
    strategy_is_baseline: bool,
    fs: std::net::SocketAddr,
    aspect: std::net::SocketAddr,
    clock: Clock,
) -> FdHandle {
    let machine = MachineSpec::commodity(ClusterId(id), name, pes);
    let strategy: Box<dyn faucets_core::market::BidStrategy> = if strategy_is_baseline {
        Box::new(Baseline)
    } else {
        Box::new(UtilizationInterpolated::default())
    };
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        ["namd".to_string(), "cfd".to_string()],
        strategy,
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    spawn_fd("127.0.0.1:0", daemon, cluster, fs, aspect, clock).expect("spawn FD")
}

fn main() {
    // 1 wall second = 10 simulated minutes.
    let clock = Clock::new(600.0);

    println!("Starting the Faucets services on localhost...");
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 2026).expect("spawn FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 64).expect("spawn AppSpector");
    let fd1 = spawn_cluster(
        1,
        "turing",
        128,
        true,
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
    );
    let fd2 = spawn_cluster(
        2,
        "lemieux",
        256,
        false,
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
    );
    println!("  FS         at {}", fs.service.addr);
    println!("  AppSpector at {}", aspect.service.addr);
    println!("  FD turing  at {} (baseline bids)", fd1.service.addr);
    println!(
        "  FD lemieux at {} (util-interpolated bids)",
        fd2.service.addr
    );

    println!("\nRegistering user 'alice' and logging in...");
    let mut client = FaucetsClient::register(
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        "alice",
        "molecular-dynamics",
    )
    .expect("register");

    // A 30-minute NAMD run on 16–64 processors, due within 2 sim-hours.
    let now = clock.now();
    let qos = QosBuilder::new("namd", 16, 64, 16.0 * 1800.0)
        .efficiency(0.95, 0.8)
        .adaptive()
        .payoff(PayoffFn::hard_only(
            now.saturating_add(faucets_sim::time::SimDuration::from_hours(2)),
            Money::from_units(200),
            Money::from_units(40),
        ))
        .build()
        .expect("valid QoS");

    println!("Submitting a NAMD job (16-64 PEs, ~30 simulated minutes)...");
    let sub = client
        .submit(qos, &[("input.psf".into(), b"molecule topology".to_vec())])
        .expect("submission succeeds");
    println!(
        "  {} awarded to {} for {} ({} bids received, promised by {})",
        sub.job, sub.cluster, sub.price, sub.bids_received, sub.promised_completion
    );

    println!("Monitoring via AppSpector until completion...");
    // `wait` rides out the FD's pump tick before AppSpector has heard of
    // the job, which a `watch` right after `submit` could meet.
    let snap = client
        .wait(sub.job, clock.wall_until(SimTime::from_hours(6)))
        .expect("job finishes within 6 simulated hours");
    for s in &snap.samples {
        println!(
            "  [{}] {} PEs, utilization {:.0}%, throughput {:.1}",
            s.at,
            s.pes,
            s.utilization * 100.0,
            s.throughput
        );
    }

    println!(
        "Job completed. Output files: {:?}",
        snap.output_files
            .iter()
            .map(|f| &f.name)
            .collect::<Vec<_>>()
    );
    let out = client.download(sub.job, "output.dat").expect("download");
    println!("Downloaded output.dat: {}", String::from_utf8_lossy(&out));

    println!("\nShutting down services.");
    fd1.shutdown();
    fd2.shutdown();
}
