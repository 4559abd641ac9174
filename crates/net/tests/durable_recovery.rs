//! E21 satellite: a *simultaneous* FS + FD crash mid-negotiation, and
//! what a restarted FS relearns.
//!
//! The client wins an award, then both the Central Server and the daemon
//! die before the job finishes. Each restarts from its own durable store:
//! the FS keeps the client's account from its account journal, the FD
//! resubmits the journaled contract to its scheduler, and the job runs to
//! completion. Sessions are in-memory by design, so the client logs in
//! again, under the same user id and without re-creating its account, and
//! the *award* it was acknowledged is never lost. The directory is soft
//! state: a restarted FS replays no row of it, and lists a live FD once
//! that FD's next heartbeat has made it register again.

mod common;

use faucets_core::bid::BidRequest;
use faucets_core::ids::{ClusterId, JobId};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::fs::{spawn_fs_durable, FsOptions};
use faucets_net::prelude::*;
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
    let opts = FdOptions {
        store,
        ..FdOptions::default()
    };
    common::spawn_cs(1, "turing", 64, fs, aspect, clock, opts)
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
    // calls keep working) from its account journal.
    let fs2 = durable_fs(&fs_addr.to_string(), clock.clone(), fs_store.clone());
    let report = fs2.recovery.as_ref().expect("durable FS");
    assert_eq!(report.replayed_records, 1, "one account: {report:?}");

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
    // The account did not: the client logs in afresh, under its old id,
    // and watches the SAME job id complete.
    let mut client2 =
        FaucetsClient::login(fs_addr, aspect.service.addr, clock.clone(), "erin", "pw")
            .expect("re-login after FS restart");
    assert_eq!(client2.user, client.user, "the account kept its id");
    assert_eq!(
        fs2.state.lock().users.user_count(),
        1,
        "and was not re-created"
    );
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

/// A live FD is listed by a restarted FS within one heartbeat period
/// (30 simulated seconds) plus slack: its heartbeat is answered "unknown
/// cluster" and it registers again. The restarted FS runs on a fresh
/// clock, as a new process does, and replays no directory row.
#[test]
fn a_restarted_fs_lists_a_live_fd_within_one_heartbeat() {
    const SPEEDUP: f64 = 100.0;
    let fs_store = scratch("relist");
    let fs = durable_fs("127.0.0.1:0", Clock::new(SPEEDUP), fs_store.clone());
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).unwrap();
    let fd = spawn_daemon(None, fs_addr, aspect.service.addr, Clock::new(SPEEDUP));
    assert!(fs.state.lock().directory.get(ClusterId(1)).is_some());
    drop(fs);

    let clock = Clock::new(SPEEDUP);
    let fs2 = durable_fs(&fs_addr.to_string(), clock.clone(), fs_store.clone());
    let report = fs2.recovery.as_ref().expect("durable FS");
    assert_eq!(report.replayed_records, 0, "no directory row replayed");
    let client =
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "fay", "pw").unwrap();
    let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
    let list = Request::ListServers {
        token: client.token.clone(),
        qos,
    };
    let listed = || match call(fs_addr, &list) {
        Ok(Response::Servers(s)) => s.iter().any(|s| s.info.cluster == ClusterId(1)),
        _ => false,
    };
    let deadline = std::time::Instant::now() + Duration::from_secs(10);
    while !listed() && std::time::Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(2));
    }
    let relisted = clock.now();
    assert!(listed(), "the live FD was never listed again");
    assert!(
        relisted <= faucets_sim::time::SimTime::from_secs(30 + 15),
        "listed after {relisted}, more than one heartbeat period plus slack"
    );

    fd.shutdown();
    drop(fs2);
    let _ = std::fs::remove_dir_all(&fs_store);
}
