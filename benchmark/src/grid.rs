//! The Figure-1 grid the `submit_*` workloads drive: one FS, one
//! AppSpector and four FDs on loopback, in this process. `submit_repl`
//! adds per-FD journals, sync-replicated to two follower daemons.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_net::fd::{spawn_fd_with, FdHandle, FdOptions};
use faucets_net::fs::{spawn_fs_durable, FsHandle, FsOptions};
use faucets_net::prelude::{
    spawn_appspector, spawn_replica, AsHandle, Clock, ReplicaHandle, ReplicaOptions,
    ReplicationConfig,
};
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_store::{ReplicationMode, StoreOptions};
use std::io;
use std::path::{Path, PathBuf};

/// Grid clock speedup, as in E25: jobs of CPU-minutes finish in wall
/// milliseconds, so completions flow while the harness measures.
pub const SPEEDUP: f64 = 600.0;
/// Compute Servers in the grid.
pub const FDS: u64 = 4;
/// Follower daemons every FD journal replicates to in `submit_repl`.
pub const FOLLOWERS: usize = 2;
/// Processors per Compute Server: sized so that the seed declines well
/// under 1 % of bids at saturation (`snappy_mix` jobs ask for ≤ 32 PEs
/// and run for a fraction of a wall second at [`SPEEDUP`]).
pub const PES: u32 = 4096;

/// Whether `submit_repl`'s journals, primary and followers, flush to the
/// disk at each commit. They do not: every record is written, framed,
/// shipped and acknowledged as it would be, but the sandbox's disk is the
/// host's shared device, and waiting for it the workload read anything
/// from 120 to 356 jobs/s within ten minutes: it measured the neighbours
/// (README, "`submit_repl` does not flush"). `store.append_fsync_us` and
/// `replica.commit_*_us` still time real flushes, in isolation.
pub const FSYNC: bool = false;

/// The name a follower daemon must host for an FD's journal.
pub fn repl_service(cluster: ClusterId) -> String {
    format!("fd-{cluster}")
}

/// A running grid. Fields drop in declaration order: daemons first, so
/// their final journal writes still find their followers.
pub struct Grid {
    pub fds: Vec<FdHandle>,
    pub followers: Vec<ReplicaHandle>,
    pub appspector: AsHandle,
    pub fs: FsHandle,
    pub clock: Clock,
    /// Primary journal directory per FD (empty for the in-memory grid).
    pub journals: Vec<PathBuf>,
}

/// Spawn the grid. `journal_root` set means the `submit_repl` shape.
pub fn spawn(seed: u64, journal_root: Option<&Path>) -> io::Result<Grid> {
    let clock = Clock::new(SPEEDUP);
    let fs = spawn_fs_durable(
        "127.0.0.1:0",
        clock.clone(),
        seed,
        FsOptions {
            // Far above any offered rate: the default 1000/s bucket would
            // cap `submit_*` and measure the throttle, not the server.
            query_rate: 1e9,
            query_burst: 1e9,
            ..FsOptions::default()
        },
    )?;
    let appspector = spawn_appspector("127.0.0.1:0", fs.service.addr, 32)?;

    let clusters: Vec<ClusterId> = (1..=FDS).map(ClusterId).collect();
    let mut followers = Vec::new();
    if let Some(root) = journal_root {
        for f in 0..FOLLOWERS {
            let services: Vec<(String, PathBuf)> = clusters
                .iter()
                .map(|c| (repl_service(*c), root.join(format!("follower{f}-{c}"))))
                .collect();
            followers.push(spawn_replica(
                "127.0.0.1:0",
                &services,
                ReplicaOptions {
                    no_fsync: !FSYNC,
                    ..ReplicaOptions::default()
                },
            )?);
        }
    }

    let mut fds = Vec::new();
    let mut journals = Vec::new();
    for cluster in clusters {
        let machine = MachineSpec::commodity(cluster, format!("cs{}", cluster.raw()), PES);
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 0),
            ["namd".to_string()],
            Box::new(faucets_core::market::Baseline),
            Money::from_units_f64(0.01),
        );
        let sched = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
        let mut opts = FdOptions::default();
        if let Some(root) = journal_root {
            let dir = root.join(format!("primary-{cluster}"));
            opts.store = Some(dir.clone());
            opts.store_opts = StoreOptions {
                service: "fd".into(),
                no_fsync: !FSYNC,
                ..StoreOptions::default()
            };
            opts.replication = Some(ReplicationConfig {
                followers: followers.iter().map(|f| f.addr).collect(),
                mode: ReplicationMode::Sync,
                ..ReplicationConfig::default()
            });
            journals.push(dir);
        }
        fds.push(spawn_fd_with(
            "127.0.0.1:0",
            daemon,
            sched,
            fs.service.addr,
            appspector.service.addr,
            clock.clone(),
            opts,
        )?);
    }
    Ok(Grid {
        fds,
        followers,
        appspector,
        fs,
        clock,
        journals,
    })
}
