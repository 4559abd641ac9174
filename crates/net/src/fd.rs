//! The Faucets Daemon (FD) as a TCP service (§2).
//!
//! *"Each Scheduler is associated with a Faucets Daemon process which
//! listens on a well-known port. … At startup each FD registers itself with
//! the Faucets Central Server."* This service wraps a
//! [`faucets_sched::cluster::Cluster`] with the mediation logic of
//! [`faucets_core::daemon::FaucetsDaemon`]: it answers bid requests
//! (re-verifying the client's token with the FS first, since *"the FD does
//! not have any accounting information"*), handles awards, stages input
//! files, and runs a pump thread that drives the scheduler clock, reports
//! completions and telemetry to AppSpector, and heartbeats the FS.
//!
//! ## Crash recovery
//!
//! With [`FdOptions::store`] set, the daemon journals every accepted QoS
//! contract (spec, contract id, price, owner) and every staged input file
//! to a [`DurableStore`] write-ahead log — one fsynced record per change,
//! compacted periodically, instead of rewriting a whole snapshot file on
//! each mutation. The acceptance record is appended *before* the scheduler
//! sees the award, and the award is NACKed if the append fails, so a
//! confirmed award is always recoverable. [`spawn_fd_with`] on the same
//! directory replays the journal: contracts are resubmitted to the
//! scheduler, jobs re-registered with AppSpector, and the daemon
//! re-registers with the FS — so a kill + restart loses at most the
//! *progress* since the last scheduler checkpoint, never the contracts
//! themselves. Completion records prune the journal best-effort
//! (an unjournaled completion means the job is re-run after restart:
//! at-least-once, never lost). If the FS evicted the daemon while it was
//! down, the heartbeat's error reply triggers re-registration from the
//! pump.

use crate::overload::{GateConfig, GateVerdict, PayoffGate};
use crate::pool::{ConnPool, PoolConfig};
use crate::proto::{Request, Response};
use crate::replica::{Journal, ReplicationConfig};
use crate::service::{
    call_with, request_deadline, serve_with, CallOptions, Clock, RetryPolicy, ServeOptions,
    ServiceHandle, StopSignal,
};
use faucets_core::appspector::TelemetrySample;
use faucets_core::daemon::{AwardOutcome, ClusterManager, FaucetsDaemon};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::market::MarketInfo;
use faucets_core::money::Money;
use faucets_sched::cluster::Cluster;
use faucets_store::{Durable, StoreOptions};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// One accepted contract, as journaled.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ContractEntry {
    spec: JobSpec,
    contract: ContractId,
    price: Money,
    owner: UserId,
}

/// One journaled FD mutation.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum FdRecord {
    /// An award was accepted — journaled *before* the scheduler sees it.
    Accept(ContractEntry),
    /// An input file was staged for a job.
    Stage {
        job: JobId,
        name: String,
        data: Vec<u8>,
    },
    /// The job finished (or a journaled acceptance was retracted after the
    /// scheduler reneged): its contract and staged files are dropped.
    Complete { job: JobId },
}

/// The durable state machine behind the FD: accepted contracts and staged
/// input files for jobs not yet complete.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
struct FdJournal {
    contracts: Vec<ContractEntry>,
    staged: Vec<(JobId, Vec<(String, Vec<u8>)>)>,
}

impl Durable for FdJournal {
    type Record = FdRecord;
    type Snapshot = FdJournal;

    fn apply(&mut self, rec: &FdRecord) {
        match rec {
            FdRecord::Accept(e) => {
                self.contracts.retain(|c| c.spec.id != e.spec.id);
                self.contracts.push(e.clone());
            }
            FdRecord::Stage { job, name, data } => {
                let file = (name.clone(), data.clone());
                match self.staged.iter_mut().find(|(j, _)| j == job) {
                    Some((_, files)) => files.push(file),
                    None => self.staged.push((*job, vec![file])),
                }
            }
            FdRecord::Complete { job } => {
                self.contracts.retain(|c| c.spec.id != *job);
                self.staged.retain(|(j, _)| j != job);
            }
        }
    }

    fn snapshot(&self) -> FdJournal {
        self.clone()
    }

    fn restore(snap: FdJournal) -> Self {
        snap
    }
}

/// The FD's contract journal handle: single-node or replicated per
/// [`FdOptions::replication`].
type FdStore = Option<Journal<FdJournal>>;

/// Options for [`spawn_fd_with`].
#[derive(Clone)]
pub struct FdOptions {
    /// Directory for the write-ahead contract journal. `None` disables
    /// persistence (the seed behaviour).
    pub store: Option<PathBuf>,
    /// Store tuning: telemetry label, compaction cadence, fsync, injected
    /// write faults. Only consulted when `store` is set.
    pub store_opts: StoreOptions,
    /// Replicate the contract journal to follower daemons
    /// ([`crate::replica::spawn_replica`]); the follower set is advertised
    /// in this FD's directory row so failover tooling can find the
    /// replicas. Only consulted when `store` is set. The service name the
    /// followers must host is `fd-<cluster id>`.
    pub replication: Option<ReplicationConfig>,
    /// Service-side timeouts and fault injection.
    pub serve: ServeOptions,
    /// Options for the FD's own outbound calls (FS verification and
    /// heartbeats, AppSpector pushes). Defaults to bounded retry so a
    /// transiently unreachable FS doesn't poison bid handling, and to a
    /// connection pool so the per-bid FS token verification and the pump's
    /// AppSpector pushes ride warm sockets instead of reconnecting each
    /// time.
    pub call: CallOptions,
    /// Heartbeat cadence in *simulated* seconds.
    pub heartbeat_every: faucets_sim::time::SimDuration,
    /// Payoff-aware admission gate for the bid pipeline: over
    /// `max_inflight` concurrent solicitations, up to `max_queue` wait and
    /// the lowest payoff-rate request is shed first (§4 profit
    /// maximization under overload). Defaults are generous; retune at
    /// runtime via [`FdHandle::gate`].
    pub bid_gate: GateConfig,
    /// Minimum wall-clock cost charged to each admitted bid solicitation
    /// (models the CM probe of §2.2). Zero (the default) adds nothing;
    /// experiments set it to give the FD a known bid capacity.
    pub bid_probe_floor: Duration,
    /// Alternative FS endpoints (federated shards). When a heartbeat fails
    /// at the transport level the pump rotates to the next endpoint and
    /// re-registers there, so a daemon survives the death of the shard it
    /// was pointed at. Overload answers never rotate (busy is not dead).
    pub fs_fallbacks: Vec<SocketAddr>,
    /// TTL stamped into the on-disk lease this FD renews every time it
    /// answers a sentinel's [`Request::LeaseProbe`] (the lease is the
    /// primary claim automatic failover revolves around; see
    /// [`crate::sentinel`]). Only meaningful with replication configured.
    pub lease_ttl: Duration,
}

impl Default for FdOptions {
    fn default() -> Self {
        FdOptions {
            store: None,
            store_opts: StoreOptions {
                service: "fd".into(),
                ..StoreOptions::default()
            },
            replication: None,
            serve: ServeOptions::default(),
            call: CallOptions {
                retry: RetryPolicy::standard(0x4644),
                pool: Some(Arc::new(ConnPool::new("fd", PoolConfig::default()))),
                ..CallOptions::default()
            },
            heartbeat_every: faucets_sim::time::SimDuration::from_secs(30),
            bid_gate: GateConfig::default(),
            bid_probe_floor: Duration::ZERO,
            fs_fallbacks: vec![],
            lease_ttl: Duration::from_millis(500),
        }
    }
}

/// The FS endpoint the daemon currently trusts (rotation index modulo the
/// endpoint list, shared by the request handlers and the pump).
fn current_fs(list: &[SocketAddr], idx: &std::sync::atomic::AtomicUsize) -> SocketAddr {
    list[idx.load(Ordering::Relaxed) % list.len()]
}

/// Retract a journaled acceptance the scheduler then refused. Best-effort:
/// if this append fails too, a restart may resubmit a job the client was
/// told was declined — a narrow window the docs call out.
fn retract(store: &FdStore, job: JobId) {
    if let Some(store) = store {
        let _ = store.commit(&FdRecord::Complete { job });
    }
}

struct FdState {
    daemon: FaucetsDaemon,
    cluster: Cluster,
    staged: HashMap<JobId, Vec<(String, Vec<u8>)>>,
    owners: HashMap<JobId, UserId>,
    contracts: HashMap<JobId, ContractEntry>,
    /// Telemetry: successful journal appends (`fd_journal_writes_total`).
    m_journal_writes: faucets_telemetry::Counter,
}

/// A running FD service.
pub struct FdHandle {
    /// The TCP service.
    pub service: ServiceHandle,
    /// The cluster this FD represents.
    pub cluster_id: ClusterId,
    /// The payoff-aware bid admission gate (live knobs and peak-queue
    /// readout — see [`FdOptions::bid_gate`]).
    pub gate: Arc<PayoffGate>,
    state: Arc<Mutex<FdState>>,
    stop: Arc<StopSignal>,
    pump: Option<JoinHandle<()>>,
}

impl FdHandle {
    /// Jobs completed on this cluster so far.
    pub fn completed(&self) -> u64 {
        self.state.lock().cluster.metrics.completed
    }

    /// Revenue earned at bid prices.
    pub fn revenue(&self) -> Money {
        self.state.lock().cluster.metrics.revenue_price
    }

    /// Daemon activity counters (requests, bids, declines, confirms).
    pub fn daemon_stats(&self) -> faucets_core::daemon::DaemonStats {
        self.state.lock().daemon.stats
    }

    /// Accepted contracts not yet completed.
    pub fn active_contracts(&self) -> usize {
        self.state.lock().contracts.len()
    }

    /// Stop the pump and the service.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    /// Simulate a daemon crash: stop serving with no deregistration and no
    /// goodbye to the FS or AppSpector. With [`FdOptions::store`] set,
    /// the journal survives on disk; [`spawn_fd_with`] on the same
    /// directory resumes the accepted contracts.
    pub fn kill(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        // The condvar inside the signal pops the pump out of its paced
        // wait immediately — shutdown latency is join time, not a tick.
        self.stop.stop();
        if let Some(p) = self.pump.take() {
            let _ = p.join();
        }
    }
}

impl Drop for FdHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

fn verify(
    fs: SocketAddr,
    token: &faucets_core::auth::SessionToken,
    opts: &CallOptions,
) -> Result<UserId, String> {
    match call_with(
        fs,
        &Request::VerifyToken {
            token: token.clone(),
        },
        opts,
    ) {
        Ok(Response::Verified { user }) => Ok(user),
        Ok(Response::Error(e)) => Err(e),
        Ok(other) => Err(format!("unexpected FS reply {other:?}")),
        Err(e) => Err(format!("FS unreachable: {e}")),
    }
}

/// Spawn an FD for `cluster`, register it with the FS, and start its pump.
///
/// `daemon` must carry `ServerInfo` whose address will be overwritten with
/// the actually bound socket (so port 0 works).
pub fn spawn_fd(
    addr: &str,
    daemon: FaucetsDaemon,
    cluster: Cluster,
    fs: SocketAddr,
    appspector: SocketAddr,
    clock: Clock,
) -> io::Result<FdHandle> {
    spawn_fd_with(
        addr,
        daemon,
        cluster,
        fs,
        appspector,
        clock,
        FdOptions::default(),
    )
}

/// [`spawn_fd`], with crash-recovery journaling, timeouts, retry, and
/// fault-injection options. If `opts.store` names an existing journal
/// directory, its contracts are restored before the service starts taking
/// traffic.
pub fn spawn_fd_with(
    addr: &str,
    mut daemon: FaucetsDaemon,
    cluster: Cluster,
    fs: SocketAddr,
    appspector: SocketAddr,
    clock: Clock,
    opts: FdOptions,
) -> io::Result<FdHandle> {
    let cluster_id = cluster.machine.cluster;
    let reg = faucets_telemetry::global();
    let cluster_name = cluster.machine.name.clone();
    let fd_labels = [("cluster", cluster_name.as_str())];
    let m_journal_writes = reg.counter("fd_journal_writes_total", &fd_labels);
    let m_restored = reg.counter("fd_journal_restored_contracts_total", &fd_labels);
    let state = Arc::new(Mutex::new(FdState {
        daemon: FaucetsDaemon::new(
            // placeholder; replaced below once the port is known
            faucets_core::directory::ServerInfo {
                fd_addr: String::new(),
                fd_port: 0,
                ..daemon.info.clone()
            },
            std::iter::empty::<String>(),
            Box::new(faucets_core::market::Baseline),
            Money::ZERO,
        ),
        cluster,
        staged: HashMap::new(),
        owners: HashMap::new(),
        contracts: HashMap::new(),
        m_journal_writes,
    }));

    // Recover the journal, if any, before the service can take traffic:
    // accepted contracts are resubmitted to the scheduler, staged files
    // re-attached.
    let store: FdStore = match &opts.store {
        Some(dir) => Some(
            Journal::open(
                dir,
                FdJournal::default(),
                &format!("fd-{cluster_id}"),
                opts.store_opts.clone(),
                opts.replication.as_ref(),
            )
            .map_err(io::Error::other)?
            .0,
        ),
        None => None,
    };
    let restored: Vec<(JobId, UserId)> = {
        let mut s = state.lock();
        let now = clock.now();
        let mut restored = vec![];
        if let Some(store) = &store {
            store.read(|j| {
                for (job, files) in &j.staged {
                    s.staged.insert(*job, files.clone());
                }
                for e in &j.contracts {
                    let job = e.spec.id;
                    s.cluster
                        .submit_job(e.spec.clone(), e.contract, e.price, now);
                    s.owners.insert(job, e.owner);
                    restored.push((job, e.owner));
                    s.contracts.insert(job, e.clone());
                }
            });
        }
        m_restored.add(restored.len() as u64);
        restored
    };

    // With a replicated journal, (re)assert the on-disk lease before
    // taking traffic: a restarted or promoted primary immediately holds a
    // fresh claim. Renewal clamps against any stamp already on disk, so a
    // backwards wall clock never writes an older claim.
    let repl_service = format!("fd-{cluster_id}");
    let lease_holder = format!("{repl_service}@{}", std::process::id());
    let lease_ttl_ms = opts.lease_ttl.as_millis() as u64;
    if let (Some(dir), Some(journal)) = (&opts.store, &store) {
        if let Some(repl) = journal.replicated() {
            let mut lease =
                faucets_store::read_lease(dir).unwrap_or_else(|| faucets_store::Lease {
                    holder: lease_holder.clone(),
                    epoch: repl.epoch(),
                    renewed_unix_ms: 0,
                    ttl_ms: lease_ttl_ms,
                });
            lease.holder = lease_holder.clone();
            lease.epoch = repl.epoch();
            lease.ttl_ms = lease_ttl_ms;
            lease.renew(crate::sentinel::unix_ms());
            let _ = faucets_store::write_lease(dir, &lease);
        }
    }

    // The FS endpoint set (primary + federated fallbacks) and the shared
    // rotation index: handlers verify tokens at whichever endpoint the
    // pump currently trusts.
    let fs_list: Arc<Vec<SocketAddr>> = Arc::new(
        std::iter::once(fs)
            .chain(opts.fs_fallbacks.iter().copied())
            .collect(),
    );
    let fs_idx = Arc::new(std::sync::atomic::AtomicUsize::new(0));
    let m_fs_failovers = reg.counter("fd_fs_failovers_total", &fd_labels);

    // Bind the service first so the real port is known.
    let st = Arc::clone(&state);
    let journal = store.clone();
    let clock_handler = clock.clone();
    let call_opts = opts.call.clone();
    let fs_list_h = Arc::clone(&fs_list);
    let fs_idx_h = Arc::clone(&fs_idx);
    let gate = PayoffGate::new(opts.bid_gate, &cluster_name, reg);
    let bid_gate = Arc::clone(&gate);
    let bid_probe_floor = opts.bid_probe_floor;
    let lease_dir = opts.store.clone();
    let lease_service = repl_service.clone();
    let lease_holder_h = lease_holder.clone();
    let lease_ttl_h = lease_ttl_ms;
    // The pump waits on this signal between due events; award handlers
    // poke it so a freshly scheduled job re-paces the wait, and shutdown
    // stops it.
    let stop = Arc::new(StopSignal::new());
    let pump_signal = Arc::clone(&stop);
    let service = serve_with(addr, "fd", opts.serve.clone(), move |req| {
        match req {
            Request::RequestBid { token, request } => {
                // Payoff-aware admission (§4 under overload): the gate
                // bounds concurrent solicitations, sheds the lowest
                // payoff-rate request when full, and drops doomed ones
                // whose propagated deadline has already expired.
                let flops = st.lock().daemon.info.flops_per_pe_sec;
                let rate = request.qos.payoff_rate(flops);
                let _permit = match bid_gate.enter(rate, request_deadline()) {
                    GateVerdict::Served(p) => p,
                    GateVerdict::Shed => return Response::Overloaded { retry_after_ms: 50 },
                    GateVerdict::Doomed => return Response::Overloaded { retry_after_ms: 0 },
                };
                // Charge the configured probe floor while holding the
                // permit, so the gate's inflight bound is a real capacity.
                if !bid_probe_floor.is_zero() {
                    std::thread::sleep(bid_probe_floor);
                }
                // §2.2: the FD re-checks the client with the FS.
                if let Err(e) = verify(current_fs(&fs_list_h, &fs_idx_h), &token, &call_opts) {
                    return Response::Error(e);
                }
                // Read the clock only while holding the lock: the pump also
                // advances the cluster, and scheduler time must be monotone.
                let mut s = st.lock();
                let now = clock_handler.now();
                let FdState {
                    daemon, cluster, ..
                } = &mut *s;
                Response::BidReply(daemon.handle_bid_request(
                    &request,
                    cluster,
                    &MarketInfo::default(),
                    now,
                ))
            }
            Request::Award {
                token,
                spec,
                contract,
                bid,
            } => {
                if let Err(e) = verify(current_fs(&fs_list_h, &fs_idx_h), &token, &call_opts) {
                    return Response::Error(e);
                }
                let (job, user) = (spec.id, spec.user);
                let entry = ContractEntry {
                    spec: spec.clone(),
                    contract,
                    price: bid.price,
                    owner: user,
                };
                // Journal the acceptance BEFORE the scheduler sees the
                // award, and NACK if it cannot be made durable: the client
                // treats the error as a declined bid and tries the next
                // one, so "accepted" always means "survives a crash".
                if let Some(store) = &journal {
                    if let Err(e) = store.commit(&FdRecord::Accept(entry.clone())) {
                        return Response::Error(format!("award not journaled: {e}"));
                    }
                }
                let outcome = {
                    let mut s = st.lock();
                    let now = clock_handler.now();
                    let FdState {
                        daemon, cluster, ..
                    } = &mut *s;
                    let outcome = daemon.handle_award(spec, contract, &bid, cluster, now);
                    // Recorded under the lock acquisition that scheduled
                    // the job: released in between, the pump can complete
                    // the job first, and its `contracts.remove` would run
                    // before this insert and leave the entry behind.
                    if matches!(outcome, Ok(AwardOutcome::Confirmed)) {
                        s.owners.insert(job, user);
                        s.contracts.insert(job, entry);
                        if journal.is_some() {
                            s.m_journal_writes.inc();
                        }
                    }
                    outcome
                };
                match outcome {
                    Ok(AwardOutcome::Confirmed) => {
                        // The scheduler just gained a job: wake the pump
                        // so it re-paces against the new next completion.
                        pump_signal.notify();
                        let _ = call_with(
                            appspector,
                            &Request::RegisterJob {
                                job,
                                owner: user,
                                cluster: cluster_id,
                            },
                            &call_opts,
                        );
                        Response::AwardReply {
                            confirmed: true,
                            reason: None,
                        }
                    }
                    Ok(AwardOutcome::Reneged(r)) => {
                        retract(&journal, job);
                        Response::AwardReply {
                            confirmed: false,
                            reason: Some(format!("{r:?}")),
                        }
                    }
                    Err(e) => {
                        retract(&journal, job);
                        Response::Error(e.to_string())
                    }
                }
            }
            Request::UploadFile {
                token,
                job,
                name,
                data,
            } => {
                if let Err(e) = verify(current_fs(&fs_list_h, &fs_idx_h), &token, &call_opts) {
                    return Response::Error(e);
                }
                if let Some(store) = &journal {
                    if let Err(e) = store.commit(&FdRecord::Stage {
                        job,
                        name: name.clone(),
                        data: data.clone(),
                    }) {
                        return Response::Error(format!("upload not journaled: {e}"));
                    }
                }
                let mut s = st.lock();
                s.staged.entry(job).or_default().push((name, data));
                if journal.is_some() {
                    s.m_journal_writes.inc();
                }
                Response::Ok
            }
            // Sentinel liveness probe: answering IS the lease renewal —
            // the on-disk claim is re-stamped (clock-clamped) before the
            // reply, so "the primary answered" and "the lease is fresh"
            // are the same fact.
            Request::LeaseProbe { service } => match (&journal, &lease_dir) {
                (Some(j), Some(dir)) if service == lease_service => match j.replicated() {
                    Some(repl) => {
                        let mut lease = faucets_store::read_lease(dir).unwrap_or_else(|| {
                            faucets_store::Lease {
                                holder: lease_holder_h.clone(),
                                epoch: repl.epoch(),
                                renewed_unix_ms: 0,
                                ttl_ms: lease_ttl_h,
                            }
                        });
                        lease.holder = lease_holder_h.clone();
                        lease.epoch = repl.epoch();
                        lease.ttl_ms = lease_ttl_h;
                        lease.renew(crate::sentinel::unix_ms());
                        let _ = faucets_store::write_lease(dir, &lease);
                        Response::Lease {
                            position: repl.position(),
                            fenced: repl.is_fenced(),
                        }
                    }
                    None => Response::Error("journal is not replicated".into()),
                },
                _ => Response::Error(format!("no lease held for service {service:?}")),
            },
            // A sentinel promoted a replica: stop acknowledging NOW, not
            // at the next shipping round.
            Request::Fence { service, epoch } => match &journal {
                Some(j) if service == lease_service => match j.replicated() {
                    Some(repl) => {
                        repl.fence(epoch);
                        Response::Ok
                    }
                    None => Response::Error("journal is not replicated".into()),
                },
                _ => Response::Error(format!("unknown replicated service {service:?}")),
            },
            other => Response::Error(format!("FD cannot handle {other:?}")),
        }
    })?;

    // Fix up the registration info with the bound address and register.
    let bound = service.addr;
    daemon.info.fd_addr = bound.ip().to_string();
    daemon.info.fd_port = bound.port();
    // Advertise the replica set in the directory row, so failover tooling
    // (and curious clients) can locate this FD's followers.
    daemon.info.replicas = opts
        .replication
        .as_ref()
        .map(|r| r.followers.iter().map(|a| a.to_string()).collect())
        .unwrap_or_default();
    let info = daemon.info.clone();
    let apps: Vec<String> = daemon.exported_apps.iter().cloned().collect();
    state.lock().daemon = daemon;
    let _ = call_with(
        current_fs(&fs_list, &fs_idx),
        &Request::RegisterCluster {
            info: info.clone(),
            apps: apps.clone(),
        },
        &opts.call,
    );
    // Restored jobs are re-announced so AppSpector keeps monitoring them.
    for (job, owner) in restored {
        let _ = call_with(
            appspector,
            &Request::RegisterJob {
                job,
                owner,
                cluster: cluster_id,
            },
            &opts.call,
        );
    }

    // Pump: drives the scheduler clock, reports completions/telemetry,
    // heartbeats the FS.
    let stop2 = Arc::clone(&stop);
    let st = Arc::clone(&state);
    let journal = store;
    let call_opts = opts.call.clone();
    let heartbeat_every = opts.heartbeat_every;
    let pump = std::thread::Builder::new()
        .name(format!("fd-pump-{cluster_id}"))
        .spawn(move || {
            // Heartbeats are paced in *simulated* time (the FS liveness window
            // is simulated seconds), so any clock speedup keeps the FD alive.
            let mut last_heartbeat = faucets_sim::time::SimTime::ZERO;
            // Event-paced, not tick-paced: each round runs the body, then
            // sleeps exactly until the next due event — the scheduler's
            // next completion or the next heartbeat — instead of polling
            // every 5 ms. An award wakes the wait (the next completion
            // may have moved closer); stop wakes it for good. The cap
            // bounds clock drift if a wakeup is ever lost.
            const PACE_CAP: Duration = Duration::from_millis(500);
            loop {
                // Harvest completions under the lock (reading the clock inside
                // it, to stay monotone with the request handlers); talk to
                // peers outside it.
                let (now, completions, running, status) = {
                    let mut s = st.lock();
                    let now = clock.now();
                    let completions = s.cluster.on_time(now);
                    let running: Vec<(JobId, u32)> = s.cluster.running_jobs().collect();
                    (now, completions, running, s.cluster.status(now))
                };
                for c in &completions {
                    let job = c.outcome.job;
                    // Prune the journal best-effort: an unjournaled
                    // completion only means the job re-runs after a
                    // restart (at-least-once), never that it is lost.
                    let mut outputs: Vec<(String, Vec<u8>)> = {
                        let mut s = st.lock();
                        let outputs = s.staged.remove(&job).unwrap_or_default();
                        s.contracts.remove(&job);
                        if let Some(store) = &journal {
                            if store.commit(&FdRecord::Complete { job }).is_ok() {
                                s.m_journal_writes.inc();
                            }
                        }
                        outputs
                    };
                    outputs.push((
                        "output.dat".into(),
                        format!("completed at {now}").into_bytes(),
                    ));
                    let _ = call_with(
                        appspector,
                        &Request::CompleteJob { job, outputs },
                        &call_opts,
                    );
                }
                // Heartbeat + telemetry on the simulated cadence.
                if now.since(last_heartbeat) >= heartbeat_every
                    || last_heartbeat == faucets_sim::time::SimTime::ZERO
                {
                    last_heartbeat = now;
                    let fs_now = current_fs(&fs_list, &fs_idx);
                    match call_with(
                        fs_now,
                        &Request::Heartbeat {
                            cluster: cluster_id,
                            status,
                        },
                        &call_opts,
                    ) {
                        // "unknown cluster": the FS evicted us as dead (or
                        // was itself restarted). Re-register and carry on.
                        Ok(Response::Error(_)) => {
                            let _ = call_with(
                                fs_now,
                                &Request::RegisterCluster {
                                    info: info.clone(),
                                    apps: apps.clone(),
                                },
                                &call_opts,
                            );
                        }
                        // The endpoint is dead (not merely overloaded):
                        // rotate to the next federated shard and register
                        // there, so bids keep verifying and the directory
                        // keeps listing us.
                        Err(e) if fs_list.len() > 1 && !crate::proto::is_overload_error(&e) => {
                            fs_idx.fetch_add(1, Ordering::Relaxed);
                            m_fs_failovers.inc();
                            let _ = call_with(
                                current_fs(&fs_list, &fs_idx),
                                &Request::RegisterCluster {
                                    info: info.clone(),
                                    apps: apps.clone(),
                                },
                                &call_opts,
                            );
                        }
                        _ => {}
                    }
                    let total = { st.lock().cluster.machine.total_pes };
                    for (job, pes) in running {
                        let _ = call_with(
                            appspector,
                            &Request::PushSample {
                                job,
                                sample: TelemetrySample {
                                    at: now,
                                    pes,
                                    utilization: pes as f64 / total.max(1) as f64,
                                    throughput: pes as f64,
                                    app_data: format!("t={now}"),
                                },
                            },
                            &call_opts,
                        );
                    }
                }
                if stop2.is_stopped() {
                    break;
                }
                // Sleep until whichever comes first: the scheduler's next
                // completion or the next heartbeat, both converted from
                // simulated to wall time.
                let next_completion = st.lock().cluster.next_completion();
                let mut wait = clock
                    .wall_until(last_heartbeat + heartbeat_every)
                    .min(PACE_CAP);
                if let Some(at) = next_completion {
                    wait = wait.min(clock.wall_until(at));
                }
                if stop2.wait_for(wait) {
                    break;
                }
            }
        })?;

    Ok(FdHandle {
        service,
        cluster_id,
        gate,
        state,
        stop,
        pump: Some(pump),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::spawn_fs;
    use crate::service::call;
    use faucets_core::bid::BidRequest;
    use faucets_core::qos::QosBuilder;
    use faucets_sched::adaptive::ResizeCostModel;
    use faucets_sched::equipartition::Equipartition;
    use faucets_sched::machine::MachineSpec;

    #[test]
    fn fd_registers_and_answers_bids() {
        let clock = Clock::new(100.0);
        let fs = spawn_fs("127.0.0.1:0", clock.clone(), 11).unwrap();
        let aspect =
            crate::appspector_srv::spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();

        let machine = MachineSpec::commodity(ClusterId(1), "turing", 64);
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 0),
            ["namd".to_string()],
            Box::new(faucets_core::market::Baseline),
            Money::from_units_f64(0.01),
        );
        let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
        let fd = spawn_fd(
            "127.0.0.1:0",
            daemon,
            cluster,
            fs.service.addr,
            aspect.service.addr,
            clock,
        )
        .unwrap();

        // The FD registered itself (directory has it with the bound port).
        {
            let s = fs.state.lock();
            let e = s.directory.get(ClusterId(1)).expect("registered");
            assert_eq!(e.info.fd_port, fd.service.addr.port());
        }

        // A valid user can solicit a bid.
        call(
            fs.service.addr,
            &Request::CreateUser {
                user: "u".into(),
                password: "p".into(),
            },
        )
        .unwrap();
        let Response::Session { user, token } = call(
            fs.service.addr,
            &Request::Login {
                user: "u".into(),
                password: "p".into(),
            },
        )
        .unwrap() else {
            panic!()
        };
        let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
        let req = BidRequest {
            job: JobId(5),
            user,
            qos,
            issued_at: faucets_sim::time::SimTime::ZERO,
        };
        let Response::BidReply(reply) = call(
            fd.service.addr,
            &Request::RequestBid {
                token,
                request: req.clone(),
            },
        )
        .unwrap() else {
            panic!("expected bid reply")
        };
        let bid = reply.offer().expect("baseline bids on known apps");
        assert_eq!(bid.cluster, ClusterId(1));
        // $0.01/cpu-s × 100 cpu-s × 1.0 = $1.
        assert_eq!(bid.price, Money::from_units(1));

        // Forged token is bounced by the FS re-verification.
        let bogus = faucets_core::auth::SessionToken("bogus".into());
        let r = call(
            fd.service.addr,
            &Request::RequestBid {
                token: bogus,
                request: req,
            },
        )
        .unwrap();
        assert!(matches!(r, Response::Error(_)));
    }

    /// Regression for the award race: the handler used to release the
    /// state lock between scheduling the job and recording its contract,
    /// so the pump could complete a near-instant job in between and the
    /// contract entry outlived its job. Many concurrent awards of jobs
    /// that finish within microseconds of wall time must all drain.
    #[test]
    fn awards_of_instant_jobs_leave_no_stale_contracts() {
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 40;
        // 2000x: the 8 h session outlives the test by a wide margin.
        let clock = Clock::new(2_000.0);
        let fs = spawn_fs("127.0.0.1:0", clock.clone(), 12).unwrap();
        let aspect =
            crate::appspector_srv::spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();
        let machine = MachineSpec::commodity(ClusterId(1), "racy", 4096);
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 0),
            ["namd".to_string()],
            Box::new(faucets_core::market::Baseline),
            Money::from_units_f64(0.01),
        );
        let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
        let fd = spawn_fd(
            "127.0.0.1:0",
            daemon,
            cluster,
            fs.service.addr,
            aspect.service.addr,
            clock.clone(),
        )
        .unwrap();
        call(
            fs.service.addr,
            &Request::CreateUser {
                user: "u".into(),
                password: "p".into(),
            },
        )
        .unwrap();
        let Response::Session { user, token } = call(
            fs.service.addr,
            &Request::Login {
                user: "u".into(),
                password: "p".into(),
            },
        )
        .unwrap() else {
            panic!("expected a session")
        };
        // A millisecond of CPU on one PE is half a microsecond of wall
        // time at this clock: the pump completes each job about as soon
        // as the award handler lets go of the state lock.
        let qos = QosBuilder::new("namd", 1, 1, 0.001).build().unwrap();
        let addr = fd.service.addr;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (token, qos, clock) = (token.clone(), qos.clone(), clock.clone());
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let job = JobId(1 + t * PER_THREAD + i);
                        let now = clock.now();
                        let bid = faucets_core::bid::Bid {
                            id: faucets_core::ids::BidId(job.raw()),
                            cluster: ClusterId(1),
                            job,
                            multiplier: 1.0,
                            price: Money::from_units(1),
                            promised_completion: now,
                            planned_pes: 1,
                        };
                        let reply = call(
                            addr,
                            &Request::Award {
                                token: token.clone(),
                                spec: JobSpec::new(job, user, qos.clone(), now).unwrap(),
                                contract: ContractId(job.raw()),
                                bid,
                            },
                        )
                        .unwrap();
                        assert!(
                            matches!(
                                reply,
                                Response::AwardReply {
                                    confirmed: true,
                                    ..
                                }
                            ),
                            "award of {job:?}: {reply:?}"
                        );
                    }
                });
            }
        });
        // Drain: every confirmed job completes, then the pump's last pass
        // retires its contract.
        let awarded = THREADS * PER_THREAD;
        let settle = |done: &dyn Fn() -> bool, limit: Duration| {
            let until = std::time::Instant::now() + limit;
            while !done() && std::time::Instant::now() < until {
                std::thread::sleep(Duration::from_millis(5));
            }
        };
        settle(&|| fd.completed() == awarded, Duration::from_secs(20));
        settle(&|| fd.active_contracts() == 0, Duration::from_secs(2));
        assert_eq!(fd.completed(), awarded, "every awarded job ran");
        assert_eq!(fd.active_contracts(), 0, "a contract outlived its job");
    }
}
