//! An FD is its service's threads and nothing else: the pump is a tick on
//! the service's reactor. This file holds one test and must keep holding
//! one: the census counts every thread of the process, and a second test
//! running beside it would be counted too.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Spawning one FD adds its reactor and its executor pool, and
/// `shutdown` takes exactly those away again.
#[test]
fn an_fd_adds_its_service_threads_and_shutdown_takes_them_away() {
    // The FS and AppSpector start here, before the census.
    let clock = Clock::new(100.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 31).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();
    let machine = MachineSpec::commodity(ClusterId(4), "census", 16);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        ["namd".to_string()],
        Box::new(faucets_core::market::Baseline),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    let before = threads();

    let fd = spawn_fd(
        "127.0.0.1:0",
        daemon,
        cluster,
        fs.service.addr,
        aspect.service.addr,
        clock,
    )
    .unwrap();
    // Long enough for the pump's first rounds, and for any thread they
    // might start.
    std::thread::sleep(Duration::from_millis(100));
    assert_eq!(
        threads(),
        before + ServeOptions::default().workers + 1,
        "an FD is its reactor and its executors"
    );

    fd.shutdown();
    // A joined thread can linger in procfs for a moment after it exits.
    let until = Instant::now() + Duration::from_secs(5);
    while threads() != before && Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(threads(), before, "shutdown left a thread behind");
    aspect.service.shutdown();
    fs.shutdown();
}
