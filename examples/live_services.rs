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

use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_grid::prelude::{JobMix, ScenarioBuilder};
use faucets_load::prelude::launch;
use faucets_net::prelude::*;
use faucets_sim::time::SimTime;

fn main() {
    // The grid, described once: the same builder runs it in the simulator.
    let mix = JobMix {
        apps: vec!["namd".into(), "cfd".into()],
        ..JobMix::default()
    };
    let scenario = ScenarioBuilder::new(2026)
        .cluster(128, "equipartition", "baseline")
        .cluster(256, "equipartition", "util-interp")
        .mix(mix);

    println!("Starting the Faucets services on localhost...");
    // 1 wall second = 10 simulated minutes.
    let grid = launch(&scenario, Clock::new(600.0), |_| FdOptions::default()).expect("launch");
    let (at, clock) = (&grid.target, &grid.target.clock);
    println!("  FS         at {}", grid.fs.service.addr);
    println!("  AppSpector at {}", grid.appspector.service.addr);
    println!(
        "  FD cs1     at {} (baseline bids)",
        grid.fds[0].service.addr
    );
    println!(
        "  FD cs2     at {} (util-interpolated bids)",
        grid.fds[1].service.addr
    );

    println!("\nRegistering user 'alice' and logging in...");
    let mut client = FaucetsClient::register(
        at.fs[0],
        at.appspector,
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
    for fd in grid.fds {
        fd.shutdown();
    }
}
