//! Failure-recovery integration tests: real sockets, fixed seeds.
//!
//! Exercises the two recovery paths the unit tests can't reach end-to-end:
//! a daemon that crashes while a client is blocked in `wait` (the WAL
//! journal brings the contract back and the job still completes), and a
//! daemon that goes silent (the Central Server grades it dead and evicts
//! it from matching) — and an AppSpector that loses replies and sheds
//! requests, which still hears of every job. Then the Central Server's
//! own failure: an FD and a client that lose their FS carry on at a
//! standby FS through `fs_fallbacks`, and a client takes no directory
//! reply at its word.

mod common;

use faucets_core::auth::SessionToken;
use faucets_core::directory::{ServerInfo, ServerListing, ServerStatus};
use faucets_core::ids::{ClusterId, UserId};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, QosContract};
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::prelude::*;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
    spawn_cluster(ClusterId(1), opts, fs, aspect, clock)
}

/// A 64-PE Baseline daemon for `cluster`, exporting `namd`.
fn spawn_cluster(
    cluster: ClusterId,
    opts: FdOptions,
    fs: SocketAddr,
    aspect: SocketAddr,
    clock: Clock,
) -> FdHandle {
    common::spawn_cs(
        cluster.0,
        &format!("cs{cluster}"),
        64,
        fs,
        aspect,
        clock,
        opts,
    )
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

/// AppSpector loses replies and sheds requests, on a seeded plan, and still
/// hears of every job the FDs confirmed and of every completion: what one
/// of a pump's batches did not get answered goes back in the FD's outbox
/// for its next round, and a completion waits behind the registrations.
/// Every other job finishes within microseconds of its award, so it
/// completes in the round that registers it.
#[test]
fn a_lossy_appspector_still_hears_of_every_job() {
    const CLIENTS: u64 = 3;
    const JOBS: u64 = 6;
    // 400x: a session's 8 simulated hours are 72 s of wall time, so a
    // client whose polls lose a reply or two (10 s each) keeps its session.
    let clock = Clock::new(400.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 44).unwrap();
    let plan = Arc::new(FaultPlan::new(
        44,
        FaultConfig {
            drop: 0.02,
            reject: 0.3,
            ..FaultConfig::none()
        },
    ));
    // A registry of its own, so only this AppSpector's answers count.
    let registry = Arc::new(faucets_telemetry::Registry::new());
    let lossy = ServeOptions {
        faults: Some(Arc::clone(&plan)),
        registry: Some(Arc::clone(&registry)),
        ..ServeOptions::default()
    };
    let aspect = spawn_appspector_with("127.0.0.1:0", fs.service.addr, 16, lossy).unwrap();
    // A lost reply costs the pump 500 ms, not the default 10 s read.
    let mut opts = FdOptions::default();
    opts.call.timeouts = Timeouts::both(Duration::from_millis(500));
    let (fs_addr, as_addr) = (fs.service.addr, aspect.service.addr);
    let fds: Vec<FdHandle> = (1..=2)
        .map(|c| spawn_cluster(ClusterId(c), opts.clone(), fs_addr, as_addr, clock.clone()))
        .collect();

    std::thread::scope(|scope| {
        for i in 0..CLIENTS {
            let clock = clock.clone();
            scope.spawn(move || {
                let name = format!("lossy{i}");
                let mut client = FaucetsClient::register(fs_addr, as_addr, clock, &name, "pw")
                    .expect("register");
                let subs: Vec<Submission> = (0..JOBS)
                    .map(|n| {
                        let cpu_seconds = if n % 2 == 0 { 0.001 } else { 60.0 };
                        let qos = QosBuilder::new("namd", 1, 4, cpu_seconds).build().unwrap();
                        client.submit(qos, &[]).expect("placed")
                    })
                    .collect();
                for sub in subs {
                    let snap = client.wait(sub.job, Duration::from_secs(40));
                    assert!(
                        matches!(&snap, Ok(s) if s.completed),
                        "{name}'s {}: {snap:?}",
                        sub.job
                    );
                }
            });
        }
    });

    let completed: u64 = fds.iter().map(|fd| fd.completed()).sum();
    assert_eq!(completed, CLIENTS * JOBS);
    assert_eq!(
        aspect.job_count() as u64,
        completed,
        "a job went unmonitored"
    );
    let count = |name: &str, endpoint: &str| {
        let labels = [("service", "appspector"), ("endpoint", endpoint)];
        registry.counter(name, &labels).get()
    };
    assert_eq!(
        count("net_errors_total", "CompleteJob"),
        0,
        "a completion reached AppSpector before its registration"
    );
    // The plan bit where it matters: registrations and completions were
    // shed, and had to be sent again.
    for endpoint in ["RegisterJob", "CompleteJob"] {
        let shed = count("net_overload_rejections_total", endpoint);
        assert!(shed > 0, "no {endpoint} was shed");
    }
    for fd in fds {
        fd.shutdown();
    }
}

/// An FD registers a confirmed job with AppSpector in its pump's next
/// round, after the award's reply. Here each of the FD's frames is held up
/// to 20 ms on its way out, so a `wait` issued the instant `submit` returns
/// nearly always finds AppSpector not knowing the job yet, and rides that
/// out until the job completes.
#[test]
fn a_wait_issued_as_submit_returns_ends_completed() {
    // 200x: the FS's 90-simulated-second liveness window is 450 ms of wall
    // time, so delayed heartbeats never make the FD look dead.
    let clock = Clock::new(200.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 45).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
    let late = FaultConfig {
        delay: 1.0,
        max_delay: Duration::from_millis(20),
        ..FaultConfig::none()
    };
    let mut opts = FdOptions::default();
    opts.call.faults = Some(Arc::new(FaultPlan::new(45, late)));
    let (fs_addr, as_addr) = (fs.service.addr, aspect.service.addr);
    let fd = spawn_cluster(ClusterId(1), opts, fs_addr, as_addr, clock.clone());
    let mut client = FaucetsClient::register(fs_addr, as_addr, clock, "eager", "pw").unwrap();
    for n in 0..50 {
        let qos = QosBuilder::new("namd", 1, 4, 1.0).build().unwrap();
        let sub = client.submit(qos, &[]).expect("placed");
        let snap = client.wait(sub.job, Duration::from_secs(10));
        assert!(
            matches!(&snap, Ok(s) if s.completed),
            "submission {n}: {snap:?}"
        );
    }
    fd.shutdown();
}

/// Poll `ready` every few milliseconds until it holds, or fail loudly.
fn await_until(what: &str, ready: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(15);
    while !ready() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(3));
    }
}

fn namd() -> QosContract {
    QosBuilder::new("namd", 4, 16, 100.0).build().unwrap()
}

/// The Central Server dies: the FD's heartbeat rotates it to the standby
/// FS, where it registers again, and the client rotates there on its next
/// call, re-creates its account (a standby holds none) and submits on.
#[test]
fn client_and_fd_fail_over_to_a_standby_fs() {
    let clock = Clock::new(200.0);
    let primary = spawn_fs("127.0.0.1:0", clock.clone(), 41).unwrap();
    let standby = spawn_fs("127.0.0.1:0", clock.clone(), 42).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", standby.service.addr, 32).unwrap();

    // The FD and the client are both homed at the primary, with the
    // standby as fallback.
    let opts = FdOptions {
        fs_fallbacks: vec![standby.service.addr],
        ..FdOptions::default()
    };
    let (fs, as_addr) = (primary.service.addr, aspect.service.addr);
    let _fd = common::spawn_cs(1, "standby-cs", 64, fs, as_addr, clock.clone(), opts);
    await_until("the FD to register with the primary", || {
        primary.state.lock().directory.get(ClusterId(1)).is_some()
    });

    let mut client =
        FaucetsClient::register(fs, as_addr, clock.clone(), "standby-user", "pw").expect("client");
    client.fs_fallbacks = vec![standby.service.addr];
    client.retry = RetryPolicy::none(); // fail over on first refusal
    client
        .submit(namd(), &[])
        .expect("submit against the primary");

    let failovers0 = {
        let s = faucets_telemetry::global().snapshot();
        s.counter_sum("client_fs_failovers_total", &[])
    };
    drop(primary); // kill the Central Server

    await_until("the FD to rotate to the standby and re-register", || {
        let s = faucets_telemetry::global().snapshot();
        s.counter_sum("fd_fs_failovers_total", &[("cluster", "standby-cs")]) >= 1
            && standby.state.lock().directory.get(ClusterId(1)).is_some()
    });

    // The client's session and account died with the primary: the next
    // submission must rotate to the standby, re-create its account there,
    // and still succeed.
    client
        .submit(namd(), &[])
        .expect("submit after the primary died");
    let failovers = {
        let s = faucets_telemetry::global().snapshot();
        s.counter_sum("client_fs_failovers_total", &[])
    };
    assert!(
        failovers > failovers0,
        "the client must have counted its FS failover"
    );
}

/// Regression for the bid re-solicitation dedupe: an FS answer is outside
/// input, and one that lists the same compute server twice must solicit
/// exactly one bid.
#[test]
fn duplicate_directory_rows_solicit_one_bid_per_cluster() {
    let clock = Clock::realtime();
    let seen: Arc<Mutex<Option<ServerInfo>>> = Arc::new(Mutex::new(None));
    let seen_h = Arc::clone(&seen);
    let fake_fs = serve_with(
        "127.0.0.1:0",
        "fake-fs",
        ServeOptions::default(),
        move |req| match req {
            Request::CreateUser { .. } => Response::Verified { user: UserId(7) },
            Request::Login { .. } => Response::Session {
                user: UserId(7),
                token: SessionToken("fake-token".into()),
            },
            Request::VerifyToken { .. } => Response::Verified { user: UserId(7) },
            Request::RegisterCluster { info, .. } => {
                *seen_h.lock() = Some(info);
                Response::Ok
            }
            Request::Heartbeat { .. } => Response::Ok,
            Request::ListServers { .. } => {
                let info = seen_h.lock().clone().expect("FD registered first");
                let listing = ServerListing {
                    info,
                    status: ServerStatus {
                        free_pes: 64,
                        queue_len: 0,
                        accepting: true,
                        utilization: 0.0,
                        running: 0,
                    },
                };
                // The duplicated row the client must collapse.
                Response::Servers(vec![listing.clone(), listing])
            }
            other => Response::Error(format!("fake fs: unexpected {other:?}")),
        },
    )
    .expect("fake FS");
    let aspect = spawn_appspector("127.0.0.1:0", fake_fs.addr, 8).expect("AS");

    let (as_addr, opts) = (aspect.service.addr, FdOptions::default());
    let fd = common::spawn_cs(9, "dup-cs", 64, fake_fs.addr, as_addr, clock.clone(), opts);
    await_until("the FD to register with the fake FS", || {
        seen.lock().is_some()
    });

    let mut client =
        FaucetsClient::register(fake_fs.addr, aspect.service.addr, clock, "dup-user", "pw")
            .expect("client");
    let sub = client.submit(namd(), &[]).expect("submit");
    assert_eq!(sub.bids_received, 1, "one bid per distinct cluster");
    assert_eq!(
        fd.daemon_stats().requests,
        1,
        "the duplicated listing must not double-solicit the daemon"
    );
}
