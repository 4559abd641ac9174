//! Sentinel end-to-end: automatic failover with nobody driving.
//!
//! The replication chaos suite (`tests/replication.rs`) proves the
//! *mechanism* — here the test harness deliberately does **not** elect,
//! fence, or promote anything. The sentinel must notice the kill through
//! missed lease renewals, run the quorum-gated election, fence the
//! corpse, promote the follower's journal, and respawn the FD — and
//! every acknowledged award must complete on the promoted primary.
//!
//! The companion tests pin the two ways a sentinel can be *wrong*:
//! promoting without quorum (dual-primary factory) and deposing a
//! healthy primary because the wall clock jumped.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::fd::{spawn_fd_with, FdHandle, FdOptions};
use faucets_net::prelude::*;
use faucets_net::replica::{spawn_replica, ReplicaHandle, ReplicaOptions};
use faucets_net::sentinel::{spawn_sentinel, SentinelOptions};
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_store::ReplicationMode;
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faucets-sentinel-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn spawn_primary_fd(
    cluster_id: u64,
    store: PathBuf,
    replication: Option<ReplicationConfig>,
    fs: SocketAddr,
    aspect: SocketAddr,
    clock: Clock,
) -> FdHandle {
    let machine = MachineSpec::commodity(ClusterId(cluster_id), "turing", 64);
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
            store: Some(store),
            replication,
            ..FdOptions::default()
        },
    )
    .expect("FD")
}

fn follower_daemon(service: &str, dir: PathBuf) -> ReplicaHandle {
    spawn_replica(
        "127.0.0.1:0",
        &[(service.to_string(), dir)],
        ReplicaOptions::default(),
    )
    .expect("replica daemon")
}

fn qos_for(clock: &Clock) -> faucets_core::qos::QosContract {
    QosBuilder::new("namd", 8, 32, 64.0 * 3_600.0)
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
        .unwrap()
}

fn fast_sentinel(service: &str) -> SentinelOptions {
    SentinelOptions {
        service: service.into(),
        lease_ttl: Duration::from_millis(400),
        probe_every: Duration::from_millis(40),
        call: CallOptions {
            retry: RetryPolicy::none(),
            ..CallOptions::default()
        },
        ..SentinelOptions::default()
    }
}

/// kill -9 the sync primary with no operator: the sentinel elects,
/// fences, promotes, and respawns; every acked award completes.
#[test]
fn sentinel_promotes_automatically_after_primary_kill() {
    let clock = Clock::new(2_000.0);
    let fd_store = scratch("auto-primary");
    let follower_store = scratch("auto-follower");
    const SVC: &str = "fd-cs-1";

    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 71).unwrap();
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).unwrap();
    let follower = follower_daemon(SVC, follower_store.clone());

    let fd = spawn_primary_fd(
        1,
        fd_store.clone(),
        Some(ReplicationConfig {
            followers: vec![follower.addr],
            mode: ReplicationMode::Sync,
            ..ReplicationConfig::default()
        }),
        fs_addr,
        aspect.service.addr,
        clock.clone(),
    );

    let mut client =
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "ana", "pw").unwrap();
    client.retry = RetryPolicy::standard(71);
    let mut acked = Vec::new();
    for i in 0..3 {
        let sub = client
            .submit(qos_for(&clock), &[("in.dat".into(), vec![i as u8; 32])])
            .expect("award acked");
        acked.push(sub.job);
    }

    // The promote callback is the only "operator": respawn the FD from
    // the released, promotion-prepared journal. The respawn re-registers
    // with the FS, flipping the directory row to the new address.
    let promoted: Arc<Mutex<Vec<FdHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let promoted_cb = Arc::clone(&promoted);
    let (cb_fs, cb_as, cb_clock) = (fs_addr, aspect.service.addr, clock.clone());
    let sentinel = spawn_sentinel(
        fd.service.addr,
        vec![follower.addr],
        fast_sentinel(SVC),
        move |dir, _epoch| {
            let fd2 = spawn_primary_fd(1, dir, None, cb_fs, cb_as, cb_clock.clone());
            let addr = fd2.service.addr;
            promoted_cb.lock().push(fd2);
            Ok(addr)
        },
    )
    .unwrap();

    // Let the sentinel observe at least one healthy renewal, then kill.
    let warm = Instant::now() + Duration::from_secs(10);
    while Instant::now() < warm
        && faucets_telemetry::global()
            .snapshot()
            .counter_sum("sentinel_probes_total", &[("service", SVC)])
            < 2
    {
        std::thread::sleep(Duration::from_millis(3));
    }
    fd.kill();

    assert!(
        sentinel.await_failovers(1, Duration::from_secs(30)),
        "sentinel never completed an automatic failover"
    );
    let events = sentinel.events();
    assert_eq!(events.len(), 1);
    assert!(events[0].mttr > Duration::ZERO);
    assert_eq!(
        sentinel.primary(),
        events[0].to,
        "sentinel now trusts the promoted FD"
    );

    // Zero acked-award loss with nobody in the loop.
    for job in &acked {
        let snap = client
            .wait(*job, Duration::from_secs(40))
            .expect("acked award completes on the auto-promoted backup");
        assert!(snap.completed, "job {job:?} must complete after failover");
    }

    // One primary per epoch, in the sentinel's own reign log.
    let reigns = sentinel.reigns();
    for (i, &(epoch, addr)) in reigns.iter().enumerate() {
        assert!(
            !reigns[..i].iter().any(|&(e, a)| e == epoch && a != addr),
            "epoch {epoch} observed with two primaries: {reigns:?}"
        );
    }

    sentinel.shutdown();
    for fd2 in promoted.lock().drain(..) {
        fd2.shutdown();
    }
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&fd_store);
    let _ = std::fs::remove_dir_all(&follower_store);
}

/// With the whole replica set unreachable the sentinel must abort the
/// election — promoting without quorum is how dual primaries are born.
#[test]
fn sentinel_aborts_election_short_of_quorum() {
    let clock = Clock::new(2_000.0);
    let fd_store = scratch("quorum-primary");
    let follower_store = scratch("quorum-follower");
    const SVC: &str = "fd-cs-2";

    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 72).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
    let follower = follower_daemon(SVC, follower_store.clone());
    let fd = spawn_primary_fd(
        2,
        fd_store.clone(),
        Some(ReplicationConfig {
            followers: vec![follower.addr],
            mode: ReplicationMode::Sync,
            ..ReplicationConfig::default()
        }),
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
    );

    let sentinel = spawn_sentinel(
        fd.service.addr,
        vec![follower.addr],
        fast_sentinel(SVC),
        move |_dir, _epoch| {
            panic!("must not promote without quorum");
        },
    )
    .unwrap();

    // Kill BOTH: the primary stops renewing and the only replica cannot
    // answer the position probe — a total partition from the sentinel's
    // seat. It must keep aborting, never promote.
    fd.kill();
    follower.shutdown();
    let deadline = Instant::now() + Duration::from_secs(15);
    while Instant::now() < deadline
        && faucets_telemetry::global()
            .snapshot()
            .counter_sum("sentinel_aborted_elections_total", &[("service", SVC)])
            < 3
    {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        faucets_telemetry::global()
            .snapshot()
            .counter_sum("sentinel_aborted_elections_total", &[("service", SVC)])
            >= 3,
        "sentinel should repeatedly abort short-of-quorum elections"
    );
    assert!(sentinel.events().is_empty(), "no promotion without quorum");

    sentinel.shutdown();
    let _ = std::fs::remove_dir_all(&fd_store);
    let _ = std::fs::remove_dir_all(&follower_store);
}

/// Clock skew alone — either direction — must never depose a primary
/// that is still answering probes.
#[test]
fn clock_skew_does_not_depose_a_healthy_primary() {
    let clock = Clock::new(2_000.0);
    let fd_store = scratch("skew-primary");
    let follower_store = scratch("skew-follower");
    const SVC: &str = "fd-cs-3";

    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 73).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
    let follower = follower_daemon(SVC, follower_store.clone());
    let fd = spawn_primary_fd(
        3,
        fd_store.clone(),
        Some(ReplicationConfig {
            followers: vec![follower.addr],
            mode: ReplicationMode::Sync,
            ..ReplicationConfig::default()
        }),
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
    );

    let opts = fast_sentinel(SVC);
    let skew = Arc::clone(&opts.skew_ms);
    let sentinel = spawn_sentinel(
        fd.service.addr,
        vec![follower.addr],
        opts,
        move |_dir, _epoch| {
            panic!("healthy primary must not be deposed by clock skew");
        },
    )
    .unwrap();

    let probes = || {
        faucets_telemetry::global()
            .snapshot()
            .counter_sum("sentinel_probes_total", &[("service", SVC)])
    };
    let await_probes = |n: u64| {
        let deadline = Instant::now() + Duration::from_secs(15);
        while Instant::now() < deadline && probes() < n {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert!(probes() >= n, "sentinel stopped probing");
    };

    // Healthy baseline, then a big forward jump, then a jump far behind:
    // several probe cycles under each regime, zero failovers throughout.
    await_probes(2);
    skew.store(3_600_000, Ordering::Relaxed); // +1 h
    let after_forward = probes() + 4;
    await_probes(after_forward);
    assert!(sentinel.events().is_empty(), "forward skew deposed primary");
    skew.store(-3_600_000, Ordering::Relaxed); // −1 h (clamped clock holds)
    let after_backward = probes() + 4;
    await_probes(after_backward);
    assert!(
        sentinel.events().is_empty(),
        "backward skew deposed primary"
    );

    sentinel.shutdown();
    fd.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&fd_store);
    let _ = std::fs::remove_dir_all(&follower_store);
}
