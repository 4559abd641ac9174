//! The FD fixture the live suites share.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use std::net::SocketAddr;

/// A commodity Compute Server's FD on a free loopback port: cluster `id`
/// named `name`, `pes` processors under equipartition, exporting `namd`
/// with baseline bids at $0.01 per CPU-second.
pub fn spawn_cs(
    id: u64,
    name: &str,
    pes: u32,
    fs: SocketAddr,
    aspect: SocketAddr,
    clock: Clock,
    opts: FdOptions,
) -> FdHandle {
    let machine = MachineSpec::commodity(ClusterId(id), name, pes);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        ["namd".to_string()],
        Box::new(faucets_core::market::Baseline),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    spawn_fd_with("127.0.0.1:0", daemon, cluster, fs, aspect, clock, opts).expect("FD")
}
