//! The live grid: [`launch`]ed from the [`ScenarioBuilder`] a simulation
//! builds from, and driven by virtual users over real TCP.
//!
//! Each worker thread owns one authenticated [`FaucetsClient`] on its own
//! account (`load-w0`, `load-w1`, …): job ids are client-assigned from
//! the user id, so distinct accounts keep tens of thousands of jobs
//! grid-unique, and AppSpector's owner-only watch rule means completion
//! watchers must log in as the account that submitted. Submissions ride
//! the existing pooled-connection/`call_many` stack — the harness
//! exercises the very client hardening it reports on.
//!
//! Completion watching is decoupled from submission so the open loop
//! never blocks on a slow job: workers enqueue `(job, deadline, scheduled
//! instant)` to a small pool of watcher threads, routed by submitting
//! worker so each watcher only holds sessions for the accounts it needs.
//! Watchers sweep their pending set against AppSpector with a paced
//! backoff poll, recording completion latency from the scheduled arrival
//! and the observation-time soft-deadline check.

use crate::recorder::Recorder;
use crate::runner::{run_open_loop, FireOutcome};
use crate::schedule::Schedule;
use crossbeam::channel::{unbounded, Receiver, Sender, TryRecvError};
use faucets_core::ids::JobId;
use faucets_grid::scenario::ScenarioBuilder;
use faucets_grid::world::Node;
use faucets_net::appspector_srv::{spawn_appspector, AsHandle};
use faucets_net::client::{ClientError, FaucetsClient};
use faucets_net::fd::{spawn_fd_with, FdHandle, FdOptions};
use faucets_net::fs::{spawn_fs, FsHandle};
use faucets_net::proto::is_unknown_job;
use faucets_net::service::Clock;
use faucets_sim::time::SimTime;
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// Where the grid lives.
#[derive(Debug, Clone)]
pub struct GridTarget {
    /// The Central Server, then its standbys: `fs[0]` is every worker's
    /// FS, and the rest are its failover list, in order, so the harness
    /// survives the FS's death mid-run. Must be non-empty.
    pub fs: Vec<SocketAddr>,
    /// The AppSpector monitor.
    pub appspector: SocketAddr,
    /// The clock the grid runs under (shared so deadlines and speedup
    /// line up).
    pub clock: Clock,
}

impl GridTarget {
    /// A target with no standby FS.
    pub fn single(fs: SocketAddr, appspector: SocketAddr, clock: Clock) -> Self {
        GridTarget {
            fs: vec![fs],
            appspector,
            clock,
        }
    }
}

/// A scenario's grid, live on loopback: what [`launch`] started.
pub struct LiveGrid {
    /// The Central Server.
    pub fs: FsHandle,
    /// The AppSpector.
    pub appspector: AsHandle,
    /// One FD per cluster of the scenario, in its order.
    pub fds: Vec<FdHandle>,
    /// Where clients (and respawned FDs) reach the grid.
    pub target: GridTarget,
}

/// Spawn cluster `i` (0-based) of `scenario` as an FD on a free loopback
/// port, joining the grid `at` its (first) Central Server.
pub fn spawn_cluster(
    scenario: &ScenarioBuilder,
    i: usize,
    at: &GridTarget,
    opts: FdOptions,
) -> io::Result<FdHandle> {
    let Node { daemon, cluster } = scenario.node(i);
    let (fs, aspect, clock) = (at.fs[0], at.appspector, at.clock.clone());
    spawn_fd_with("127.0.0.1:0", daemon, cluster, fs, aspect, clock, opts)
}

/// Launch `scenario` live under `clock`: an FS seeded with the scenario's
/// seed, an AppSpector keeping 32 samples per job, then every cluster
/// through [`spawn_cluster`] with the options `opts` gives its index.
pub fn launch(
    scenario: &ScenarioBuilder,
    clock: Clock,
    mut opts: impl FnMut(usize) -> FdOptions,
) -> io::Result<LiveGrid> {
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), scenario.seed())?;
    let appspector = spawn_appspector("127.0.0.1:0", fs.service.addr, 32)?;
    let target = GridTarget::single(fs.service.addr, appspector.service.addr, clock);
    let fds = (0..scenario.cluster_count())
        .map(|i| spawn_cluster(scenario, i, &target, opts(i)))
        .collect::<io::Result<_>>()?;
    Ok(LiveGrid {
        fs,
        appspector,
        fds,
        target,
    })
}

/// Run-shape knobs for [`run_against_grid`].
#[derive(Debug, Clone)]
pub struct GridRunOptions {
    /// Worker threads (and accounts) multiplexing the virtual users.
    pub workers: usize,
    /// Completion-watcher threads.
    pub watchers: usize,
    /// Wall budget to keep watching for completions after the last
    /// submission; jobs still running when it expires count as not
    /// completed.
    pub drain: Duration,
    /// Per-call wall budget stamped on every client call.
    pub call_deadline: Option<Duration>,
    /// Pause between watcher sweeps over their pending set.
    pub sweep: Duration,
    /// Worker account name prefix (`{prefix}{index}`).
    pub account_prefix: String,
    /// Worker account password.
    pub password: String,
}

impl Default for GridRunOptions {
    fn default() -> Self {
        GridRunOptions {
            workers: 64,
            watchers: 8,
            drain: Duration::from_secs(10),
            call_deadline: Some(Duration::from_secs(2)),
            sweep: Duration::from_millis(5),
            account_prefix: "load-w".into(),
            password: "pw".into(),
        }
    }
}

/// A submitted job a watcher still owes a completion verdict on.
struct WatchItem {
    job: JobId,
    class: usize,
    worker: usize,
    fire_at: Instant,
    soft_deadline: SimTime,
}

/// Register the account if new, else log in (re-runs against a warm grid
/// reuse their accounts). The target's standbys become the client's
/// failover list.
fn connect(target: &GridTarget, name: &str, password: &str) -> Result<FaucetsClient, ClientError> {
    let fs = target.fs[0];
    let made = match FaucetsClient::register(
        fs,
        target.appspector,
        target.clock.clone(),
        name,
        password,
    ) {
        Ok(c) => Ok(c),
        Err(ClientError::Rejected(_)) => {
            FaucetsClient::login(fs, target.appspector, target.clock.clone(), name, password)
        }
        Err(e) => Err(e),
    };
    made.map(|mut c| {
        c.fs_fallbacks = target.fs[1..].to_vec();
        c
    })
}

/// One watcher thread: sweep the pending set, recording completions.
fn watch_loop(
    rx: Receiver<WatchItem>,
    target: &GridTarget,
    opts: &GridRunOptions,
    recorder: &Recorder,
) {
    let mut pending: Vec<WatchItem> = Vec::new();
    let mut sessions: HashMap<usize, FaucetsClient> = HashMap::new();
    let mut drain_deadline: Option<Instant> = None;
    loop {
        // Pull everything queued without blocking the sweep.
        let mut disconnected = false;
        loop {
            match rx.try_recv() {
                Ok(item) => pending.push(item),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    disconnected = true;
                    break;
                }
            }
        }
        if pending.is_empty() {
            if disconnected {
                return;
            }
            std::thread::sleep(opts.sweep.max(Duration::from_millis(1)));
            continue;
        }
        if disconnected {
            let d = *drain_deadline.get_or_insert_with(|| Instant::now() + opts.drain);
            if Instant::now() >= d {
                return; // whatever is left counts as not completed
            }
        }
        let mut evict: Vec<usize> = Vec::new();
        pending.retain_mut(|item| {
            let client = match sessions.entry(item.worker) {
                std::collections::hash_map::Entry::Occupied(e) => e.into_mut(),
                std::collections::hash_map::Entry::Vacant(v) => {
                    let name = format!("{}{}", opts.account_prefix, item.worker);
                    // Register-or-login: the account may have died with
                    // the FS, and the standby needs it re-created.
                    match connect(target, &name, &opts.password) {
                        Ok(c) => v.insert(c),
                        // Transient login trouble: keep the item, retry
                        // next sweep.
                        Err(_) => return true,
                    }
                }
            };
            match client.watch(item.job) {
                Ok(snap) if snap.completed => {
                    let hit = target.clock.now() <= item.soft_deadline;
                    recorder.completed(item.class, Recorder::ms_since(item.fire_at), hit);
                    false
                }
                // The session died (e.g. with the FS that minted it):
                // drop it so the next sweep re-authenticates from scratch.
                // An `unknown job` is only a registration still in the
                // FD's outbox, and polls again.
                Err(ClientError::Rejected(e)) if !is_unknown_job(&e) => {
                    evict.push(item.worker);
                    true
                }
                // Not done yet, or a transient poll failure: sweep again.
                _ => true,
            }
        });
        for worker in evict {
            sessions.remove(&worker);
        }
        std::thread::sleep(opts.sweep.max(Duration::from_millis(1)));
    }
}

/// Fire `schedule` open-loop at the live grid, recording into `recorder`.
///
/// Returns the run-start wall instant. Fails only on worker account
/// setup; once the run starts, every per-entry failure is a recorded
/// outcome, never an abort.
pub fn run_against_grid(
    schedule: &Schedule,
    target: &GridTarget,
    opts: &GridRunOptions,
    recorder: &Recorder,
) -> Result<Instant, ClientError> {
    let speedup = target.clock.speedup();
    let n_workers = opts.workers.max(1);
    let n_watchers = opts.watchers.max(1);

    // Authenticate the whole worker pool up front so the login storm
    // lands before the schedule's clock starts, not inside it.
    let mut clients = Vec::with_capacity(n_workers);
    for i in 0..n_workers {
        let name = format!("{}{}", opts.account_prefix, i);
        let mut c = connect(target, &name, &opts.password)?;
        c.call_deadline = opts.call_deadline;
        clients.push(c);
    }

    let channels: Vec<(Sender<WatchItem>, Receiver<WatchItem>)> =
        (0..n_watchers).map(|_| unbounded()).collect();
    let txs: Vec<Sender<WatchItem>> = channels.iter().map(|(tx, _)| tx.clone()).collect();
    let rxs: Vec<Receiver<WatchItem>> = channels.iter().map(|(_, rx)| rx.clone()).collect();
    drop(channels);

    // Deadlines in the schedule are anchored at each entry's sim-time
    // arrival; the grid clock already reads `base`, so shift them.
    let base = target.clock.now();

    let mut start = Instant::now();
    std::thread::scope(|s| {
        for rx in rxs {
            s.spawn(|| watch_loop(rx, target, opts, recorder));
        }
        let mut pool = clients.into_iter();
        let txs_ref = &txs;
        start = run_open_loop(schedule, speedup, n_workers, recorder, |i| {
            let mut client = pool.next().expect("one client per worker");
            let tx = txs_ref[i % n_watchers].clone();
            move |_t, entry, fire_at| {
                let qos = entry.anchor(base);
                let soft_deadline = qos.payoff.soft_deadline;
                match client.submit(qos, &[]) {
                    Ok(sub) => {
                        let _ = tx.send(WatchItem {
                            job: sub.job,
                            class: entry.class as usize,
                            worker: i,
                            fire_at,
                            soft_deadline,
                        });
                        FireOutcome::Submitted
                    }
                    Err(ClientError::Overloaded) => FireOutcome::Shed,
                    Err(
                        ClientError::NoMatchingServers
                        | ClientError::AllDeclined { .. }
                        | ClientError::NegotiationExhausted { .. },
                    ) => FireOutcome::Declined,
                    Err(_) => FireOutcome::Failed,
                }
            }
        });
        // The workers are done; disconnecting the channels starts the
        // watchers' bounded drain.
        drop(txs);
    });
    Ok(start)
}
