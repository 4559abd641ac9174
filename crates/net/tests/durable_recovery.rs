//! E21 satellite: a *simultaneous* FS + FD crash mid-negotiation.
//!
//! The client wins an award, then both the Central Server and the daemon
//! die before the job finishes. Each restarts from its own durable store:
//! the FS directory comes back from the registration journal (no
//! re-registration needed — the daemon is still down when we check), the
//! FD resubmits the journaled contract to its scheduler, and the job runs
//! to completion. Sessions are in-memory by design, so the client logs in
//! again — but the *award* it was acknowledged is never lost.

use faucets_core::bid::BidRequest;
use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::{ClusterId, JobId};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::fd::{spawn_fd_with, FdHandle, FdOptions};
use faucets_net::fs::{spawn_fs_durable, FsOptions};
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faucets-durable-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_daemon(
    store: Option<PathBuf>,
    fs: SocketAddr,
    aspect: SocketAddr,
    clock: Clock,
) -> FdHandle {
    let machine = MachineSpec::commodity(ClusterId(1), "turing", 64);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        ["namd".to_string()],
        Box::new(faucets_core::market::Baseline),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    spawn_fd_with(
        "127.0.0.1:0",
        daemon,
        cluster,
        fs,
        aspect,
        clock,
        FdOptions {
            store,
            ..FdOptions::default()
        },
    )
    .expect("FD")
}

fn durable_fs(addr: &str, clock: Clock, store: PathBuf) -> faucets_net::fs::FsHandle {
    spawn_fs_durable(
        addr,
        clock,
        61,
        FsOptions {
            store: Some(store),
            ..FsOptions::default()
        },
    )
    .expect("FS")
}

#[test]
fn award_survives_fs_and_fd_restart() {
    let clock = Clock::new(2_000.0);
    let fs_store = scratch("fs");
    let fd_store = scratch("fd");

    let fs = durable_fs("127.0.0.1:0", clock.clone(), fs_store.clone());
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).unwrap();
    let fd = spawn_daemon(
        Some(fd_store.clone()),
        fs_addr,
        aspect.service.addr,
        clock.clone(),
    );

    let mut client =
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "erin", "pw").unwrap();
    client.retry = RetryPolicy::standard(61);

    // ~7200 simulated seconds of work: the double crash lands mid-run.
    let qos = QosBuilder::new("namd", 8, 32, 64.0 * 3_600.0)
        .efficiency(0.95, 0.8)
        .adaptive()
        .payoff(PayoffFn::hard_only(
            clock
                .now()
                .saturating_add(faucets_sim::time::SimDuration::from_hours(24)),
            Money::from_units(100),
            Money::from_units(10),
        ))
        .build()
        .unwrap();
    let sub = client
        .submit(qos, &[("in.dat".into(), vec![0u8; 64])])
        .expect("placed");
    assert_eq!(fd.active_contracts(), 1, "award acknowledged");

    // Both Figure-1 services die. Nothing deregisters, nothing says
    // goodbye; only the two journal directories survive.
    fd.kill();
    drop(fs);

    // The FS restarts on the SAME port (so the AppSpector's verification
    // calls keep working) from its registration journal. The daemon is
    // still down, so the directory entry it finds can only have come from
    // the journal.
    let fs2 = durable_fs(&fs_addr.to_string(), clock.clone(), fs_store.clone());
    let report = fs2.recovery.as_ref().expect("durable FS");
    assert!(
        report.replayed_records >= 1 || report.snapshot_loaded,
        "recovery found the journaled registration: {report:?}"
    );
    assert!(
        fs2.state.lock().directory.get(ClusterId(1)).is_some(),
        "cluster registration survived the FS restart without re-registration"
    );

    // The FD restarts from its contract journal and resumes the award.
    let fd2 = spawn_daemon(
        Some(fd_store.clone()),
        fs_addr,
        aspect.service.addr,
        clock.clone(),
    );
    assert_eq!(
        fd2.active_contracts(),
        1,
        "accepted contract restored from the WAL"
    );

    // Sessions are in-memory by design: the old token died with the FS.
    // The client logs in afresh and watches the SAME job id complete.
    let mut client2 =
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "erin", "pw")
            .expect("re-login after FS restart");
    // The restarted daemon is the configured one from its first request
    // on: it bids on the app it exports, at its own Baseline price
    // ($0.01/cpu-s x 100 cpu-s), not as a stand-in that knows no app.
    assert_eq!(fd2.daemon_stats().requests, 0, "no bid served yet");
    let request = BidRequest {
        job: JobId(999),
        user: client2.user,
        qos: QosBuilder::new("namd", 4, 16, 100.0).build().unwrap(),
        issued_at: clock.now(),
    };
    let token = client2.token.clone();
    let reply = call(fd2.service.addr, &Request::RequestBid { token, request }).unwrap();
    let Response::BidReply(reply) = reply else {
        panic!("expected a bid reply, got {reply:?}")
    };
    let bid = reply.offer().expect("the restarted FD exports namd");
    assert_eq!(bid.price, Money::from_units(1));
    assert_eq!(fd2.daemon_stats().bids, 1);

    let snap = client2
        .wait(sub.job, Duration::from_secs(40))
        .expect("the acknowledged award completes despite the double crash");
    assert!(snap.completed);
    assert_eq!(
        fd2.active_contracts(),
        0,
        "contract pruned after completion"
    );

    fd2.shutdown();
    let _ = std::fs::remove_dir_all(&fs_store);
    let _ = std::fs::remove_dir_all(&fd_store);
}
