//! Failure-recovery integration tests: real sockets, fixed seeds.
//!
//! Exercises the two recovery paths the unit tests can't reach end-to-end:
//! a daemon that crashes while a client is blocked in `wait` (the WAL
//! journal brings the contract back and the job still completes), and a
//! daemon that goes silent (the Central Server grades it dead and evicts
//! it from matching).

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::fd::{spawn_fd_with, FdHandle, FdOptions};
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::time::Duration;

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

fn scratch_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faucets-recovery-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The daemon crashes while the client is blocked in `wait`; a restart on
/// the same journal directory restores the accepted contract and the job
/// runs to completion — the client never sees the outage, only a longer
/// wait.
#[test]
fn daemon_death_during_wait_recovers_from_snapshot() {
    let clock = Clock::new(3_000.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 41).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
    let snap = scratch_dir("wait");
    let fd = spawn_daemon(
        Some(snap.clone()),
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
    );

    let mut client = FaucetsClient::register(
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        "carol",
        "pw",
    )
    .unwrap();
    client.retry = RetryPolicy::standard(41);

    // ~7200 simulated seconds of work: long enough that the crash lands
    // mid-run, short enough to finish in a few wall seconds at 3000x.
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
        .submit(qos, &[("in.dat".into(), vec![0u8; 128])])
        .expect("placed");
    assert_eq!(
        fd.active_contracts(),
        1,
        "contract journaled before the crash"
    );

    // The submission left a reconstructable trace: the client root span
    // plus server spans recorded by the (in-process) FS and FD services.
    let trace = client.last_trace.expect("submit records its trace id");
    let spans = faucets_telemetry::trace::spans_for(trace);
    assert!(
        spans.iter().any(|s| s.service == "client"),
        "client root span logged"
    );
    assert!(
        spans.iter().any(|s| s.service == "fs"),
        "FS server spans joined the trace"
    );
    assert!(
        spans.iter().any(|s| s.service == "fd"),
        "FD server spans joined the trace"
    );

    // Crash: no deregistration, no goodbye. The journal stays on disk and
    // scans clean — the accepted contract is an intact WAL record.
    fd.kill();
    let scan = faucets_store::scan_dir(&snap)
        .expect("journal dir readable")
        .expect("journal present");
    assert!(
        !scan.records.is_empty(),
        "acceptance journaled before the crash"
    );

    // Restart the daemon while the client waits — but only once the
    // client has demonstrably started polling AppSpector *during* the
    // outage (its Watch counter moves past the pre-kill baseline). A
    // fixed outage sleep either wastes time on a fast box or, worse,
    // restarts before the client's first poll on a slow one, in which
    // case the test never actually exercises "a wait spanning the
    // outage". The poll is deadline-capped; if the client somehow never
    // polls, we restart anyway and the completion assertion still holds.
    let watches_before = faucets_telemetry::global().snapshot().counter_sum(
        "net_requests_total",
        &[("service", "appspector"), ("endpoint", "Watch")],
    );
    let (fs_addr, as_addr, clk, path) = (
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        snap.clone(),
    );
    let restart = std::thread::spawn(move || {
        let gate = std::time::Instant::now() + Duration::from_secs(10);
        while std::time::Instant::now() < gate
            && faucets_telemetry::global().snapshot().counter_sum(
                "net_requests_total",
                &[("service", "appspector"), ("endpoint", "Watch")],
            ) <= watches_before
        {
            std::thread::sleep(Duration::from_millis(3));
        }
        let fd2 = spawn_daemon(Some(path), fs_addr, as_addr, clk);
        (fd2.active_contracts(), fd2)
    });

    let snapshot = client
        .wait(sub.job, Duration::from_secs(40))
        .expect("job completes despite daemon crash mid-wait");
    assert!(snapshot.completed);

    let (restored, fd2) = restart.join().unwrap();
    assert_eq!(restored, 1, "restart restored the accepted contract");
    assert_eq!(
        fd2.active_contracts(),
        0,
        "contract pruned after completion"
    );
    fd2.shutdown();
    let _ = std::fs::remove_dir_all(&snap);
}

/// A daemon that stops heartbeating is graded dead by the Central Server
/// and evicted: match-making stops offering it, and its directory entry is
/// gone until it re-registers.
#[test]
fn silent_daemon_is_evicted_from_matching() {
    // 600x: the 90 s liveness timeout trips dead (3x) after 0.45 wall
    // seconds of silence.
    let clock = Clock::new(600.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 42).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
    let fd = spawn_daemon(None, fs.service.addr, aspect.service.addr, clock.clone());
    assert!(
        fs.state.lock().directory.get(ClusterId(1)).is_some(),
        "registered"
    );

    call(
        fs.service.addr,
        &Request::CreateUser {
            user: "dan".into(),
            password: "pw".into(),
        },
    )
    .unwrap();
    let Response::Session { token, .. } = call(
        fs.service.addr,
        &Request::Login {
            user: "dan".into(),
            password: "pw".into(),
        },
    )
    .unwrap() else {
        panic!("expected session")
    };
    let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();

    // While the daemon heartbeats, it is offered.
    let offered = || {
        let list = Request::ListServers {
            token: token.clone(),
            qos: qos.clone(),
        };
        match call(fs.service.addr, &list).unwrap() {
            Response::Servers(servers) => servers.len(),
            other => panic!("expected server list, got {other:?}"),
        }
    };
    assert_eq!(offered(), 1);

    // Silence it. At 600x the 90 s liveness timeout grades the daemon dead
    // after ~0.45 wall seconds — but a loaded CI box can stretch that
    // arbitrarily, so instead of sleeping a guessed multiple we keep asking
    // until the row is gone, under a generous hard cap. Asking is what
    // evicts: only a `ListServers` sweep grades the directory, so a poll of
    // the eviction counter alone waits for a sweep nobody runs.
    fd.kill();
    let poll_deadline = std::time::Instant::now() + Duration::from_secs(10);
    let evicted = || {
        let s = fs.state.lock();
        s.stats.evictions >= 1 && s.directory.get(ClusterId(1)).is_none()
    };
    while offered() > 0 || !evicted() {
        assert!(
            std::time::Instant::now() < poll_deadline,
            "daemon not evicted within 10 s of silence"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    assert_eq!(offered(), 0, "dead daemon no longer offered");

    // A fresh daemon for the same cluster re-registers cleanly.
    let fd2 = spawn_daemon(None, fs.service.addr, aspect.service.addr, clock);
    assert!(
        fs.state.lock().directory.get(ClusterId(1)).is_some(),
        "re-registered after eviction"
    );
    fd2.shutdown();
}
