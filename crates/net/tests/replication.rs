//! Replication chaos suite (extends E21's crash discipline to failover).
//!
//! The headline scenario kill-9s a sync-replicated FD mid-negotiation and
//! proves the acked-entry loss contract end to end: every award the client
//! was acknowledged completes on the backup promoted from the follower's
//! journal — zero acknowledged entries lost, no matter where the kill
//! lands. The companion tests cover epoch fencing of a deposed primary
//! over the wire and a lagging follower catching up through a snapshot
//! transfer.
//!
//! Determinism note: the kill deliberately races an in-flight submission,
//! but every outcome of that race satisfies the same invariant — an award
//! acknowledged in sync mode is on the follower by definition, and an
//! unacknowledged one is allowed to die with the primary — so the
//! assertions never depend on where the kill lands.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::{ClusterId, JobId};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::fd::{spawn_fd_with, FdHandle, FdOptions};
use faucets_net::prelude::*;
use faucets_net::replica::{spawn_replica, Journal, ReplicaHandle, ReplicaOptions};
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_store::{
    pick_primary, prepare_promotion, read_epoch, Durable, ReplicationMode, StoreError, StoreOptions,
};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn scratch(name: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("faucets-repl-chaos-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The FD replication service name for ClusterId(1).
const FD_SVC: &str = "fd-cs-1";

fn spawn_primary_fd(
    store: PathBuf,
    replication: Option<ReplicationConfig>,
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

/// kill -9 the primary FD mid-negotiation; every acknowledged award must
/// complete on the backup promoted from the follower's journal.
#[test]
fn acked_awards_survive_primary_kill_and_promotion() {
    let clock = Clock::new(2_000.0);
    let fd_store = scratch("primary");
    let follower_store = scratch("follower");

    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 71).unwrap();
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).unwrap();
    let follower = follower_daemon(FD_SVC, follower_store.clone());

    let fd = spawn_primary_fd(
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
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "dana", "pw").unwrap();
    client.retry = RetryPolicy::standard(71);

    // Three acknowledged awards, then one submission racing the kill. Only
    // its owner may watch a job, so the racer's client comes back with it.
    let mut acked = Vec::new();
    for i in 0..3 {
        let sub = client
            .submit(qos_for(&clock), &[("in.dat".into(), vec![i as u8; 32])])
            .expect("award acked");
        acked.push(sub.job);
    }
    let rounds_before = faucets_telemetry::global()
        .snapshot()
        .counter("client_negotiation_rounds_total");
    let racer = {
        let aspect_addr = aspect.service.addr;
        let clock = clock.clone();
        std::thread::spawn(move || {
            let mut c =
                FaucetsClient::register(fs_addr, aspect_addr, clock.clone(), "eve", "pw").ok()?;
            c.retry = RetryPolicy::none();
            let sub = c.submit(qos_for(&clock), &[("in.dat".into(), vec![9u8; 32])]);
            Some((c, sub.ok()?.job))
        })
    };
    // Land the kill while the racer negotiates: gate on the racer's first
    // negotiation round actually starting (the global round counter moving
    // past its pre-spawn baseline) instead of a bare sleep, so a slow CI
    // box can't fire the kill before the racer even logs in. Whatever the
    // interleaving after that: an acked award is follower-durable (sync
    // mode), an unacked one may legitimately die with the primary — and
    // per the invariant above, even a kill landing outside the race window
    // (the bounded poll expiring) leaves the assertions valid.
    let gate = std::time::Instant::now() + Duration::from_secs(5);
    while std::time::Instant::now() < gate
        && faucets_telemetry::global()
            .snapshot()
            .counter("client_negotiation_rounds_total")
            <= rounds_before
    {
        std::thread::sleep(Duration::from_millis(1));
    }
    fd.kill();
    let mut racer = racer.join().unwrap();

    // Deterministic election and promotion from the follower's journal.
    let pos = follower.position(FD_SVC).expect("follower hosts the FD");
    assert_eq!(pick_primary(&[pos]), Some(0));
    let promoted_dir = follower.release(FD_SVC).expect("release for promotion");
    prepare_promotion(&promoted_dir, FD_SVC, pos.epoch + 1).unwrap();
    assert_eq!(read_epoch(&promoted_dir), pos.epoch + 1);

    let fd2 = spawn_primary_fd(
        promoted_dir,
        None,
        fs_addr,
        aspect.service.addr,
        clock.clone(),
    );
    // Zero acked-entry loss, end to end: every acknowledged award runs to
    // completion on the promoted backup.
    let completes = |owner: &mut FaucetsClient, job: JobId| {
        let snap = owner
            .wait(job, Duration::from_secs(40))
            .expect("acked award completes on the promoted backup");
        assert!(snap.completed, "job {job:?} must complete after failover");
    };
    for job in acked {
        completes(&mut client, job);
    }
    if let Some((racer, job)) = &mut racer {
        completes(racer, *job);
    }

    fd2.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&fd_store);
    let _ = std::fs::remove_dir_all(&follower_store);
}

/// An FD journal record, as far as these tests read one (the FD's own
/// record type is private to it; other fields are skipped).
#[derive(Deserialize)]
enum FdRec {
    Accept(Contract),
    Complete { job: JobId },
}

/// A journaled contract: its job's id.
#[derive(Deserialize)]
struct Contract {
    spec: Spec,
}

#[derive(Deserialize)]
struct Spec {
    id: JobId,
}

/// An FD journal snapshot: the contracts open when it was taken.
#[derive(Deserialize)]
struct FdSnap {
    contracts: Vec<Contract>,
}

/// The jobs the FD journal in `dir` ever accepted, and those it still
/// holds open (accepted, no `Complete` yet).
fn journal_jobs(dir: &std::path::Path) -> (BTreeSet<JobId>, BTreeSet<JobId>) {
    let scan = faucets_store::scan_dir(dir).unwrap().expect("a live WAL");
    let snap = std::fs::read(dir.join(format!("snap-{}.json", scan.generation))).unwrap();
    let snap: FdSnap = serde_json::from_slice(&snap).unwrap();
    let mut open: BTreeSet<JobId> = snap.contracts.iter().map(|c| c.spec.id).collect();
    let mut accepted = open.clone();
    for rec in &scan.records {
        match serde_json::from_slice(rec).expect("an Accept or a Complete") {
            FdRec::Accept(c) => {
                accepted.insert(c.spec.id);
                open.insert(c.spec.id);
            }
            FdRec::Complete { job } => {
                open.remove(&job);
            }
        }
    }
    (accepted, open)
}

/// A contract for a job that runs about 10 ms of simulated time.
fn instant_qos(clock: &Clock) -> faucets_core::qos::QosContract {
    QosBuilder::new("namd", 1, 4, 0.01)
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

/// Award `n` instant jobs through `client` and wait until AppSpector shows
/// every one completed.
fn award_and_finish(client: &mut FaucetsClient, clock: &Clock, n: usize) -> Vec<JobId> {
    let jobs: Vec<JobId> = (0..n)
        .map(|_| {
            client
                .submit(instant_qos(clock), &[])
                .expect("award acked")
                .job
        })
        .collect();
    for job in &jobs {
        let snap = client
            .wait(*job, Duration::from_secs(20))
            .expect("completes");
        assert!(snap.completed);
    }
    jobs
}

/// The crash window of a late `Complete`: AppSpector hears of a completion
/// before the journal does, which journals it with the next award or
/// heartbeat. On a clock where no heartbeat falls due, a kill leaves the
/// last completions unjournaled. The promoted follower must hold every
/// acknowledged award, re-run exactly the jobs whose `Complete` was still
/// queued, and no watcher may see a completed job run again.
#[test]
fn a_kill_before_completions_are_journaled_reruns_them_and_loses_no_award() {
    // Real time: the next heartbeat is 30 s away.
    let clock = Clock::new(1.0);
    let fd_store = scratch("window-primary");
    let follower_store = scratch("window-follower");
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 75).unwrap();
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).unwrap();
    let aspect_addr = aspect.service.addr;
    let follower = follower_daemon(FD_SVC, follower_store.clone());
    let fd = spawn_primary_fd(
        fd_store.clone(),
        Some(ReplicationConfig {
            followers: vec![follower.addr],
            mode: ReplicationMode::Sync,
            ..ReplicationConfig::default()
        }),
        fs_addr,
        aspect_addr,
        clock.clone(),
    );
    let mut client =
        FaucetsClient::register(fs_addr, aspect_addr, clock.clone(), "fay", "pw").unwrap();
    let acked = award_and_finish(&mut client, &clock, 6);

    fd.kill();
    let pos = follower.position(FD_SVC).expect("follower hosts the FD");
    let promoted_dir = follower.release(FD_SVC).expect("release for promotion");
    prepare_promotion(&promoted_dir, FD_SVC, pos.epoch + 1).unwrap();
    let (accepted, open) = journal_jobs(&promoted_dir);
    for job in &acked {
        assert!(
            accepted.contains(job),
            "acknowledged {job:?} is not on the follower"
        );
    }
    assert!(
        open.contains(acked.last().unwrap()),
        "no award came after the last job to carry its completion: {open:?}"
    );
    assert!(open.iter().all(|job| acked.contains(job)));

    // Watch every acknowledged job from before the restart to after the
    // re-runs: each was seen completed, and must stay so.
    let stop = Arc::new(AtomicBool::new(false));
    let watcher = {
        let (stop, token, acked) = (Arc::clone(&stop), client.token.clone(), acked.clone());
        std::thread::spawn(move || {
            let mut regressions = vec![];
            while !stop.load(Ordering::SeqCst) {
                for &job in &acked {
                    let watch = Request::Watch {
                        token: token.clone(),
                        job,
                    };
                    match call(aspect_addr, &watch) {
                        Ok(Response::Snapshot(s)) if !s.completed => regressions.push(job),
                        _ => {}
                    }
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            regressions
        })
    };
    let fd2 = spawn_primary_fd(promoted_dir, None, fs_addr, aspect_addr, clock.clone());
    let until = std::time::Instant::now() + Duration::from_secs(20);
    while fd2.completed() < open.len() as u64 && std::time::Instant::now() < until {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(
        fd2.completed(),
        open.len() as u64,
        "exactly the jobs whose Complete was queued ran again"
    );
    stop.store(true, Ordering::SeqCst);
    let regressions = watcher.join().unwrap();
    assert!(
        regressions.is_empty(),
        "watchers saw completed jobs running again: {regressions:?}"
    );

    fd2.shutdown();
    follower.shutdown();
    let _ = std::fs::remove_dir_all(&fd_store);
    let _ = std::fs::remove_dir_all(&follower_store);
}

/// A graceful shutdown journals the completions no award carried: both
/// followers end at the primary's position, and the journal replays to no
/// open contract.
#[test]
fn shutdown_journals_queued_completions_on_every_follower() {
    let clock = Clock::new(1.0);
    let fd_store = scratch("drain-primary");
    let follower_stores = [scratch("drain-f1"), scratch("drain-f2")];
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 76).unwrap();
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).unwrap();
    let followers: Vec<ReplicaHandle> = follower_stores
        .iter()
        .map(|d| follower_daemon(FD_SVC, d.clone()))
        .collect();
    let fd = spawn_primary_fd(
        fd_store.clone(),
        Some(ReplicationConfig {
            followers: followers.iter().map(|f| f.addr).collect(),
            mode: ReplicationMode::Sync,
            ..ReplicationConfig::default()
        }),
        fs_addr,
        aspect.service.addr,
        clock.clone(),
    );
    let mut client =
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "gus", "pw").unwrap();
    award_and_finish(&mut client, &clock, 4);
    let (_, open) = journal_jobs(&fd_store);
    assert!(!open.is_empty(), "a completion is still queued");

    fd.shutdown();
    let scan = faucets_store::scan_dir(&fd_store).unwrap().unwrap();
    for f in &followers {
        let pos = f.position(FD_SVC).unwrap();
        assert_eq!(
            (pos.generation, pos.acked),
            (scan.generation, scan.records.len() as u64),
            "a follower is behind the primary"
        );
    }
    assert_eq!(journal_jobs(&fd_store).1, BTreeSet::new());
    for dir in &follower_stores {
        assert_eq!(journal_jobs(dir).1, BTreeSet::new());
    }

    for f in followers {
        f.shutdown();
    }
    let _ = std::fs::remove_dir_all(&fd_store);
    for dir in &follower_stores {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Minimal journal state machine for wire-level fencing/catch-up tests.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
struct Log(Vec<String>);

impl Durable for Log {
    type Record = String;
    type Snapshot = Vec<String>;
    fn apply(&mut self, rec: &String) {
        self.0.push(rec.clone());
    }
    fn snapshot(&self) -> Vec<String> {
        self.0.clone()
    }
    fn restore(snap: Vec<String>) -> Self {
        Log(snap)
    }
}

fn log_store_opts(compact_every: u64) -> StoreOptions {
    StoreOptions {
        service: "chaos-log".into(),
        compact_every,
        no_fsync: true,
        ..StoreOptions::default()
    }
}

fn open_log_journal(
    dir: &PathBuf,
    followers: Vec<SocketAddr>,
    mode: ReplicationMode,
    compact_every: u64,
) -> Journal<Log> {
    let cfg = ReplicationConfig {
        followers,
        mode,
        ..ReplicationConfig::default()
    };
    Journal::open(
        dir,
        Log::default(),
        "svc",
        log_store_opts(compact_every),
        Some(&cfg),
    )
    .expect("journal")
    .0
}

/// A deposed primary is fenced by epoch the moment it talks to a follower
/// that has seen the new reign — over the real wire.
#[test]
fn deposed_primary_is_fenced_over_the_wire() {
    let p1_dir = scratch("fence-p1");
    let f1_dir = scratch("fence-f1");
    let f2_dir = scratch("fence-f2");
    let f1 = follower_daemon("svc", f1_dir);
    let f2 = follower_daemon("svc", f2_dir.clone());

    // Reign 1: P1 replicates to both followers.
    let p1 = open_log_journal(&p1_dir, vec![f1.addr, f2.addr], ReplicationMode::Sync, 0);
    for i in 0..5 {
        p1.commit(&format!("old-{i}")).unwrap();
    }
    assert_eq!(f1.position("svc").unwrap().acked, 5);
    assert_eq!(f2.position("svc").unwrap().acked, 5);

    // P1 "dies" (we keep its journal directory to resurrect a zombie).
    p1.shutdown();
    drop(p1);

    // Elect the most caught-up follower; F1 wins the tie by order.
    let positions = [f1.position("svc").unwrap(), f2.position("svc").unwrap()];
    let winner = pick_primary(&positions).unwrap();
    assert_eq!(winner, 0, "deterministic tie-break by list order");

    // Promote F1: release its directory, raise the epoch, reopen it as
    // the reign-2 primary replicating to the surviving follower F2.
    let promoted_dir = f1.release("svc").unwrap();
    prepare_promotion(&promoted_dir, "svc", positions[winner].epoch + 1).unwrap();
    let p2 = open_log_journal(&promoted_dir, vec![f2.addr], ReplicationMode::Sync, 0);
    p2.commit(&"new-reign".to_string()).unwrap();
    assert_eq!(
        f2.position("svc").unwrap().epoch,
        positions[winner].epoch + 1,
        "F2 adopted the new epoch"
    );

    // The zombie P1 comes back and tries to keep committing: the first
    // follower contact fences it, and it stays fenced.
    let zombie = open_log_journal(&p1_dir, vec![f2.addr], ReplicationMode::Sync, 0);
    let err = zombie.commit(&"zombie".to_string()).unwrap_err();
    assert!(
        matches!(err, StoreError::Fenced { .. }),
        "expected Fenced, got {err}"
    );
    assert!(zombie.replicated().unwrap().is_fenced());
    let err = zombie.commit(&"still-zombie".to_string()).unwrap_err();
    assert!(matches!(err, StoreError::Fenced { .. }));

    // The new reign is unaffected.
    p2.commit(&"still-new".to_string()).unwrap();
    assert_eq!(p2.read(|l| l.0.len()), 7);

    p2.shutdown();
    zombie.shutdown();
    f1.shutdown();
    f2.shutdown();
}

/// A follower that joins behind the primary's compaction horizon catches
/// up through a snapshot transfer, then resumes incremental shipping.
#[test]
fn lagging_follower_catches_up_via_snapshot_transfer() {
    let p_dir = scratch("snap-p");
    let f_dir = scratch("snap-f");

    // The follower daemon exists but its store is empty; the primary
    // compacts every 4 commits, so by the time the backlog ships, the
    // early generations are gone and only a snapshot can seed it.
    let follower = follower_daemon("svc", f_dir.clone());
    let journal = open_log_journal(&p_dir, vec![follower.addr], ReplicationMode::Async, 4);
    for i in 0..10 {
        journal.commit(&format!("entry-{i}")).unwrap();
    }
    let repl = journal.replicated().unwrap();
    assert!(
        repl.flush(Duration::from_secs(10)),
        "async backlog should drain"
    );
    let primary = repl.position();
    let follower_pos = follower.position("svc").unwrap();
    assert_eq!(follower_pos, primary, "follower converged to the primary");
    assert!(
        primary.generation > 1,
        "compaction must have advanced the generation (else this test \
         exercises nothing): {primary:?}"
    );

    // Promotion-grade check: the follower directory recovers the full
    // state even though it never saw generation 1.
    let dir = follower.release("svc").unwrap();
    let (check, _) = Journal::<Log>::open(&dir, Log::default(), "svc", log_store_opts(0), None)
        .expect("follower dir opens as a plain journal");
    assert_eq!(
        check.read(|l| l.0.clone()),
        (0..10).map(|i| format!("entry-{i}")).collect::<Vec<_>>()
    );

    journal.shutdown();
    follower.shutdown();
}

/// A replica link is a standing connection: sync commits dial each
/// follower once, however many there are, and a follower that was killed
/// and restarted on its address between two commits costs its link one
/// dead socket and one re-dial — no ship error, no NACK.
#[test]
fn replica_links_dial_once_and_ride_out_a_follower_restart() {
    const COMMITS: u64 = 40;
    let p_dir = scratch("warm-p");
    let f_dirs = [scratch("warm-f1"), scratch("warm-f2")];
    let followers: Vec<ReplicaHandle> = f_dirs
        .iter()
        .map(|d| follower_daemon("svc", d.clone()))
        .collect();
    let addrs: Vec<SocketAddr> = followers.iter().map(|f| f.addr).collect();

    // The links count their pool traffic in a registry of this test's own,
    // and the store's series carry a service label of its own: the other
    // tests in this binary ship through the global registry meanwhile.
    let reg = Arc::new(faucets_telemetry::metrics::Registry::new());
    let mut cfg = ReplicationConfig {
        followers: addrs.clone(),
        mode: ReplicationMode::Sync,
        ..ReplicationConfig::default()
    };
    cfg.call.registry = Some(Arc::clone(&reg));
    let store_opts = StoreOptions {
        service: "warm-link".into(),
        ..log_store_opts(0)
    };
    let (journal, _) =
        Journal::open(&p_dir, Log::default(), "svc", store_opts, Some(&cfg)).expect("journal");
    let pool = |name: &str| {
        reg.snapshot()
            .counter_sum(&format!("net_pool_{name}_total"), &[("pool", "replica")])
    };

    for i in 0..COMMITS {
        journal.commit(&format!("entry-{i}")).unwrap();
    }
    let links = addrs.len() as u64;
    assert_eq!(pool("misses"), links, "one dial per link, not per ship");
    assert!(
        pool("hits") >= COMMITS * links,
        "every ship after a link's first round trip reused its socket"
    );
    assert_eq!(pool("evictions") + pool("stale_retries"), 0);

    // Bounce both followers on their addresses. Each recovers its journal
    // directory, so it resumes exactly where the primary believes it is.
    let followers: Vec<ReplicaHandle> = followers
        .into_iter()
        .zip(&f_dirs)
        .map(|(dead, dir)| {
            let addr = dead.addr.to_string();
            dead.kill();
            spawn_replica(
                &addr,
                &[("svc".to_string(), dir.clone())],
                ReplicaOptions::default(),
            )
            .expect("follower restarts on its address")
        })
        .collect();

    journal
        .commit(&"after-the-bounce".to_string())
        .expect("a restarted follower is invisible to the next commit");
    assert_eq!(
        pool("evictions") + pool("stale_retries"),
        links,
        "each link lost exactly its one warm socket"
    );
    assert_eq!(pool("misses"), 2 * links, "and re-dialled once");
    assert_eq!(
        faucets_telemetry::global()
            .snapshot()
            .counter_sum("repl_ship_errors_total", &[("service", "warm-link")]),
        0
    );
    for f in &followers {
        assert_eq!(f.position("svc").unwrap().acked, COMMITS + 1);
    }

    journal.shutdown();
    for f in followers {
        f.shutdown();
    }
}

/// The Central Server's registration journal, sync-replicated
/// ([`FsOptions::replication`]): an acknowledged registration is on the
/// follower, one made while the follower is down is NACKed, and an FS
/// promoted from the follower's directory lists what was acknowledged.
#[test]
fn fs_registrations_survive_promotion_of_the_follower() {
    let clock = Clock::new(1.0);
    let p_dir = scratch("fs-primary");
    let f_dir = scratch("fs-follower");
    let follower = follower_daemon("fs", f_dir.clone());
    let fs = spawn_fs_durable(
        "127.0.0.1:0",
        clock.clone(),
        73,
        FsOptions {
            store: Some(p_dir.clone()),
            replication: Some(ReplicationConfig {
                followers: vec![follower.addr],
                mode: ReplicationMode::Sync,
                ..ReplicationConfig::default()
            }),
            ..FsOptions::default()
        },
    )
    .expect("FS");
    let fs_addr = fs.service.addr;
    let register = |id: u64| {
        let machine = MachineSpec::commodity(ClusterId(id), format!("cs{id}"), 64);
        let info = machine.server_info("127.0.0.1", 9000 + id as u16);
        let apps = vec!["namd".to_string()];
        call(fs_addr, &Request::RegisterCluster { info, apps }).unwrap()
    };

    for id in [1, 2] {
        assert!(matches!(register(id), Response::Ok));
    }
    let pos = follower.position("fs").expect("the follower hosts fs");
    assert_eq!(pos.acked, 2, "an acknowledged registration is replicated");

    // With the follower down a registration cannot be made durable on the
    // quorum, so the daemon is told so and will register again.
    follower.kill();
    match register(3) {
        Response::Error(e) => assert!(e.starts_with("registration not durable"), "{e}"),
        other => panic!("expected a NACK, got {other:?}"),
    }
    drop(fs);

    prepare_promotion(&f_dir, "fs", pos.epoch + 1).unwrap();
    let promoted = spawn_fs_durable(
        "127.0.0.1:0",
        clock,
        73,
        FsOptions {
            store: Some(f_dir.clone()),
            ..FsOptions::default()
        },
    )
    .expect("promoted FS");
    assert_eq!(promoted.recovery.as_ref().unwrap().replayed_records, 2);
    let addr = promoted.service.addr;
    let (user, password) = ("ops".to_string(), "pw".to_string());
    call(
        addr,
        &Request::CreateUser {
            user: user.clone(),
            password: password.clone(),
        },
    )
    .unwrap();
    let Response::Session { token, .. } = call(addr, &Request::Login { user, password }).unwrap()
    else {
        panic!("login at the promoted FS")
    };
    let Response::Clusters(rows) = call(addr, &Request::ListClusters { token }).unwrap() else {
        panic!("cluster rows")
    };
    let mut listed: Vec<ClusterId> = rows.iter().map(|r| r.info.cluster).collect();
    listed.sort();
    assert_eq!(listed, vec![ClusterId(1), ClusterId(2)]);
    promoted.shutdown();
    let _ = std::fs::remove_dir_all(&p_dir);
    let _ = std::fs::remove_dir_all(&f_dir);
}
