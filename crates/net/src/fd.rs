//! The Faucets Daemon (FD) as a TCP service (§2).
//!
//! *"Each Scheduler is associated with a Faucets Daemon process which
//! listens on a well-known port. … At startup each FD registers itself with
//! the Faucets Central Server."* This service wraps a
//! [`faucets_sched::cluster::Cluster`] with the mediation logic of
//! [`faucets_core::daemon::FaucetsDaemon`]: it answers bid requests
//! (re-verifying the client's token with the FS first, since *"the FD does
//! not have any accounting information"* — or relying on the FS having
//! vouched for that very token within the last 30 simulated seconds),
//! handles awards, stages input files, and runs a pump (its service's
//! tick) that drives the scheduler clock, reports completions and
//! telemetry to AppSpector, and heartbeats the FS.
//!
//! ## Map
//!
//! * **core** — `FdCore`, one `Arc` shared by the handlers and the pump:
//!   the `FdState` mutex (daemon, scheduler, staged files, accepted
//!   contracts), the journal, the bid gate, the clock, the FS endpoints
//!   and the memo of tokens the FS lately vouched for.
//! * **recover** — `FdCore::recover` replays the journal into the
//!   scheduler before the listener is bound.
//! * **handlers** — `FdCore::handle` dispatches to one method per
//!   endpoint: `bid`, `award`, `upload`, `lease_probe`, `fence`; the first
//!   three start with `FdCore::verify`.
//! * **pump** — `FdCore::pump`, the service's tick
//!   ([`ServiceHandle::tick`]): harvest completions, queue them for the
//!   journal, report them, heartbeat, return the time to the next due
//!   event. An award nudges it.
//!
//! There are three locks here, never taken together and never held across
//! a call to a peer. The state mutex guards the scheduler and the
//! contracts; it is not held across a journal commit either (a
//! sync-replicated commit is itself a network round trip), and the instant
//! handed to the scheduler is read only while holding it, so scheduler
//! time is monotone across the handlers and the pump. The memo's mutex
//! guards the map of vouched-for tokens for the length of one lookup or
//! one insert, and the completion queue's mutex is held for one push or
//! one take.
//!
//! ## The token memo (§2.2, bounded)
//!
//! The FD holds no accounting data, so what it remembers is only the FS's
//! own answer: a token enters the memo when, and only when, the FS
//! answered `Verified` for it, and is honoured for `HEARTBEAT_EVERY` — 30
//! simulated seconds, the staleness the FD's view of the FS already has,
//! and so the stated bound on how long a logout or an expiry takes to
//! reach this daemon. `FdCore::verify` has the rules.
//!
//! ## Crash recovery
//!
//! With [`FdOptions::store`] set, the daemon journals every accepted QoS
//! contract (spec, contract id, price, owner) and every staged input file
//! to a [`faucets_store::DurableStore`] write-ahead log — fsynced records,
//! compacted periodically, instead of rewriting a whole snapshot file on
//! each mutation. The acceptance record is appended *before* the scheduler
//! sees the award, and the award is NACKed if the append fails, so a
//! confirmed award is always recoverable.
//! [`spawn_fd_with`] on the same directory replays the journal: contracts
//! are resubmitted to the scheduler, jobs re-registered with AppSpector,
//! and the daemon re-registers with the FS — so a kill + restart loses at
//! most the *progress* since the last scheduler checkpoint, never the
//! contracts themselves. Completion records prune the journal best-effort,
//! and late: AppSpector hears of a completion first, and its `Complete` is
//! journaled with the next award's `Accept` (one write, one ship) or, if
//! no award comes first, at the next heartbeat. A crash in between re-runs
//! the job after restart (at-least-once), and no acknowledged award is
//! ever at stake. [`FdHandle::shutdown`] journals the queue; a kill does
//! not. If the FS evicted the daemon while it was down, the heartbeat's
//! error reply triggers re-registration from the pump.

use crate::overload::{GateConfig, GateVerdict, PayoffGate};
use crate::pool::{ConnPool, PoolConfig};
use crate::proto::{Request, Response};
use crate::replica::{Journal, ReplicationConfig};
use crate::service::{
    call_batch, call_with, request_deadline, serve, CallOptions, Clock, Nudge, RetryPolicy,
    ServiceHandle,
};
use crate::upstream::FsUpstream;
use faucets_core::appspector::TelemetrySample;
use faucets_core::auth::SessionToken;
use faucets_core::bid::{Bid, BidRequest};
use faucets_core::daemon::{AwardOutcome, ClusterManager, FaucetsDaemon};
use faucets_core::directory::ServerStatus;
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::market::MarketInfo;
use faucets_core::money::Money;
use faucets_sched::cluster::Cluster;
use faucets_sim::time::{SimDuration, SimTime};
use faucets_store::{Durable, ReplicatedStore, StoreError, StoreOptions};
use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Named files: a job's staged inputs, and at completion its outputs.
type Files = Vec<(String, Vec<u8>)>;

/// One accepted contract, as journaled.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ContractEntry {
    spec: JobSpec,
    contract: ContractId,
    price: Money,
    owner: UserId,
}

/// One journaled FD mutation.
// Built once per commit and dropped: boxing the large variant would only
// add an allocation to every award.
#[allow(clippy::large_enum_variant)]
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
    staged: Vec<(JobId, Files)>,
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
    /// ([`crate::replica::spawn_replica`]). Only consulted when `store` is
    /// set. The service name the
    /// followers must host is `fd-<cluster id>` (`fd-cs-1` for cluster 1).
    pub replication: Option<ReplicationConfig>,
    /// Options for the FD's own outbound calls (FS verification and
    /// heartbeats, AppSpector pushes). Defaults to bounded retry so a
    /// transiently unreachable FS doesn't poison bid handling, and to a
    /// connection pool so the per-bid FS token verification and the pump's
    /// AppSpector pushes ride warm sockets instead of reconnecting each
    /// time.
    pub call: CallOptions,
    /// Payoff-aware admission gate for the bid pipeline: over
    /// `max_inflight` concurrent solicitations, up to `max_queue` wait and
    /// the lowest payoff-rate request is shed first (§4 profit
    /// maximization under overload). Read the gate's counters through
    /// [`FdHandle::gate`].
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
}

/// Heartbeat cadence in *simulated* time.
const HEARTBEAT_EVERY: SimDuration = SimDuration::from_secs(30);

impl Default for FdOptions {
    fn default() -> Self {
        FdOptions {
            store: None,
            store_opts: StoreOptions {
                service: "fd".into(),
                ..StoreOptions::default()
            },
            replication: None,
            call: CallOptions {
                retry: RetryPolicy::standard(0x4644),
                pool: Some(Arc::new(ConnPool::new("fd", PoolConfig::default()))),
                ..CallOptions::default()
            },
            bid_gate: GateConfig::default(),
            bid_probe_floor: Duration::ZERO,
            fs_fallbacks: vec![],
        }
    }
}

/// What the handlers and the pump mutate, behind [`FdCore::state`].
struct FdState {
    daemon: FaucetsDaemon,
    cluster: Cluster,
    staged: HashMap<JobId, Files>,
    /// Accepted contracts whose jobs have not completed.
    contracts: HashSet<JobId>,
}

/// Everything one FD request handler and the pump need, shared in one
/// `Arc` (the shape of `FsCore` in [`crate::fs`]).
struct FdCore {
    state: Mutex<FdState>,
    /// The contract journal in `opts.store` (the lease file lives beside
    /// it): single-node or replicated per [`FdOptions::replication`].
    journal: Option<Journal<FdJournal>>,
    /// The name followers and sentinels know that journal by.
    service_name: String,
    gate: Arc<PayoffGate>,
    clock: Clock,
    fs: FsUpstream,
    /// The tokens the FS answered `Verified` for, each with the simulated
    /// instant of that answer: see [`FdCore::verify`].
    vouched: Mutex<HashMap<SessionToken, SimTime>>,
    appspector: SocketAddr,
    /// Runs the pump early, set once the service is bound.
    nudge: OnceLock<Nudge>,
    /// When the pump last heartbeat, in simulated time (`ZERO`: never).
    last_heartbeat: Mutex<SimTime>,
    /// As spawned; `call` here is for AppSpector (`fs` has its own copy).
    opts: FdOptions,
    cluster_id: ClusterId,
    /// Fixed at spawn, so the bid path prices a request's payoff rate
    /// before it takes the state lock.
    flops_per_pe_sec: f64,
    total_pes: u32,
    /// Jobs finished since the last journal commit: the next one journals
    /// a `Complete` for each ahead of its own record.
    done: Mutex<Vec<JobId>>,
    /// `fd_journal_writes_total`: commits that succeeded, one write each
    /// however many records it held.
    m_journal_writes: faucets_telemetry::Counter,
    m_fs_failovers: faucets_telemetry::Counter,
    /// `fd_token_memo_{hits,misses}_total`.
    m_memo_hits: faucets_telemetry::Counter,
    m_memo_misses: faucets_telemetry::Counter,
}

impl FdCore {
    /// Journal, if there is a journal, a `Complete` for each job queued
    /// since the last commit and then `rec`'s record (only built then), in
    /// one write and one ship. Never call this holding the state lock: a
    /// sync-replicated commit is a network round trip, and every bid and
    /// award on this daemon would wait it out.
    fn commit(&self, rec: impl FnOnce() -> Option<FdRecord>) -> Result<(), StoreError> {
        let Some(journal) = &self.journal else {
            return Ok(());
        };
        let done = std::mem::take(&mut *self.done.lock());
        let complete = done.iter().map(|&job| FdRecord::Complete { job });
        let batch: Vec<FdRecord> = complete.chain(rec()).collect();
        if batch.is_empty() {
            return Ok(());
        }
        let res = journal.commit_all(&batch);
        match &res {
            Ok(_) => self.m_journal_writes.inc(),
            // Already in the local log: they ship with the next commit.
            Err(StoreError::Unreplicated { .. }) => {}
            // Not appended (a fenced store appends nothing more).
            Err(_) => self.done.lock().extend(done),
        }
        res.map(|_| ())
    }

    /// Retract a journaled acceptance the scheduler then refused.
    /// Best-effort: if this append fails too, a restart may resubmit a job
    /// the client was told was declined — a narrow window the docs call
    /// out.
    fn retract(&self, job: JobId) {
        let _ = self.commit(|| Some(FdRecord::Complete { job }));
    }

    /// Replay the journal, if any: accepted contracts are resubmitted to
    /// the scheduler, staged files re-attached. Returns the restored jobs
    /// with their owners, for [`FdCore::announce`].
    fn recover(&self) -> Vec<(JobId, UserId)> {
        let Some(journal) = &self.journal else {
            return vec![];
        };
        let mut s = self.state.lock();
        let now = self.clock.now();
        journal.read(|j| {
            s.staged.extend(j.staged.iter().cloned());
            let restore = |e: &ContractEntry| {
                s.cluster
                    .submit_job(e.spec.clone(), e.contract, e.price, now);
                s.contracts.insert(e.spec.id);
                (e.spec.id, e.owner)
            };
            j.contracts.iter().map(restore).collect()
        })
    }

    /// Announce this daemon to the FS endpoint currently trusted: at
    /// start-up, when a heartbeat finds the FS has forgotten it, and after
    /// rotating to another shard.
    fn register(&self) {
        let (info, apps) = {
            let s = self.state.lock();
            let apps = s.daemon.exported_apps.iter().cloned().collect();
            (s.daemon.info.clone(), apps)
        };
        let _ = self.fs.call(&Request::RegisterCluster { info, apps });
    }

    /// Tell AppSpector to monitor `job` on this cluster.
    fn announce(&self, job: JobId, owner: UserId) {
        let cluster = self.cluster_id;
        let req = Request::RegisterJob {
            job,
            owner,
            cluster,
        };
        let _ = call_with(self.appspector, &req, &self.opts.call);
    }

    fn handle(&self, req: Request) -> Response {
        match req {
            Request::RequestBid { token, request } => self.bid(&token, &request),
            Request::Award {
                token,
                spec,
                contract,
                bid,
            } => self.award(&token, spec, contract, bid),
            Request::UploadFile {
                token,
                job,
                name,
                data,
            } => self.upload(&token, job, name, data),
            Request::LeaseProbe { service } => self.lease_probe(&service),
            Request::Fence { service, epoch } => self.fence(&service, epoch),
            other => Response::Error(format!("FD cannot handle {other:?}")),
        }
    }

    /// §2.2: the FD re-checks the client with the FS — unless the FS
    /// vouched for this very token less than [`HEARTBEAT_EVERY`] ago. Only
    /// a `Verified` answer is remembered, stamped with the simulated
    /// instant it came back; a miss, an expired entry, a refusal and an
    /// unreachable FS all end in the FS's own words. Every insert sweeps
    /// the expired entries, and a rotation to another shard empties the
    /// memo (sessions die with the shard that minted them).
    fn verify(&self, token: &SessionToken) -> Result<(), Response> {
        let fresh = |at: SimTime| self.clock.now().since(at) < HEARTBEAT_EVERY;
        let vouched_at = self.vouched.lock().get(token).copied();
        if vouched_at.is_some_and(fresh) {
            self.m_memo_hits.inc();
            return Ok(());
        }
        self.m_memo_misses.inc();
        self.fs.verify(token)?;
        let now = self.clock.now();
        let mut vouched = self.vouched.lock();
        vouched.retain(|_, at| now.since(*at) < HEARTBEAT_EVERY);
        vouched.insert(token.clone(), now);
        Ok(())
    }

    fn bid(&self, token: &SessionToken, request: &BidRequest) -> Response {
        // Payoff-aware admission (§4 under overload): the gate bounds
        // concurrent solicitations, sheds the lowest payoff-rate request
        // when full, and drops doomed ones whose propagated deadline has
        // already expired.
        let rate = request.qos.payoff_rate(self.flops_per_pe_sec);
        let _permit = match self.gate.enter(rate, request_deadline()) {
            GateVerdict::Served(p) => p,
            GateVerdict::Shed => return Response::Overloaded { retry_after_ms: 50 },
            GateVerdict::Doomed => return Response::Overloaded { retry_after_ms: 0 },
        };
        // Charge the configured probe floor while holding the permit, so
        // the gate's inflight bound is a real capacity.
        if !self.opts.bid_probe_floor.is_zero() {
            std::thread::sleep(self.opts.bid_probe_floor);
        }
        if let Err(resp) = self.verify(token) {
            return resp;
        }
        // Read the clock only while holding the lock: the pump also
        // advances the cluster, and scheduler time must be monotone.
        let mut guard = self.state.lock();
        let (s, now) = (&mut *guard, self.clock.now());
        let market = MarketInfo::default();
        Response::BidReply(
            s.daemon
                .handle_bid_request(request, &mut s.cluster, &market, now),
        )
    }

    fn award(
        &self,
        token: &SessionToken,
        spec: JobSpec,
        contract: ContractId,
        bid: Bid,
    ) -> Response {
        if let Err(resp) = self.verify(token) {
            return resp;
        }
        let (job, owner) = (spec.id, spec.user);
        // Journal the acceptance BEFORE the scheduler sees the award, and
        // NACK if it cannot be made durable: the client treats the error
        // as a declined bid and tries the next one, so "accepted" always
        // means "survives a crash".
        let accept = || {
            Some(FdRecord::Accept(ContractEntry {
                spec: spec.clone(),
                contract,
                price: bid.price,
                owner,
            }))
        };
        if let Err(e) = self.commit(accept) {
            return Response::Error(format!("award not journaled: {e}"));
        }
        let outcome = {
            let mut guard = self.state.lock();
            let (s, now) = (&mut *guard, self.clock.now());
            let outcome = s
                .daemon
                .handle_award(spec, contract, &bid, &mut s.cluster, now);
            // Recorded under the lock acquisition that scheduled the job:
            // released in between, the pump can complete the job first,
            // and its `contracts.remove` would run before this insert and
            // leave the entry behind.
            if matches!(outcome, Ok(AwardOutcome::Confirmed)) {
                s.contracts.insert(job);
            }
            outcome
        };
        match outcome {
            Ok(AwardOutcome::Confirmed) => {
                // The scheduler just gained a job: run the pump so it
                // re-paces against the new next completion.
                if let Some(nudge) = self.nudge.get() {
                    nudge.nudge();
                }
                self.announce(job, owner);
                Response::AwardReply {
                    confirmed: true,
                    reason: None,
                }
            }
            Ok(AwardOutcome::Reneged(r)) => {
                self.retract(job);
                Response::AwardReply {
                    confirmed: false,
                    reason: Some(format!("{r:?}")),
                }
            }
            Err(e) => {
                self.retract(job);
                Response::Error(e.to_string())
            }
        }
    }

    fn upload(&self, token: &SessionToken, job: JobId, name: String, data: Vec<u8>) -> Response {
        if let Err(resp) = self.verify(token) {
            return resp;
        }
        let stage = || {
            let (name, data) = (name.clone(), data.clone());
            Some(FdRecord::Stage { job, name, data })
        };
        if let Err(e) = self.commit(stage) {
            return Response::Error(format!("upload not journaled: {e}"));
        }
        let mut s = self.state.lock();
        s.staged.entry(job).or_default().push((name, data));
        Response::Ok
    }

    /// This daemon's replicated journal, if `service` names it: `None` for
    /// a foreign name or no journal, `Some(None)` for an unreplicated one.
    fn replicated(&self, service: &str) -> Option<Option<&Arc<ReplicatedStore<FdJournal>>>> {
        let journal = self.journal.as_ref();
        let named = journal.filter(|_| service == self.service_name);
        named.map(Journal::replicated)
    }

    /// Sentinel liveness probe: answering IS the lease renewal, as the
    /// sentinel records it. Nothing is written here.
    fn lease_probe(&self, service: &str) -> Response {
        match self.replicated(service) {
            Some(Some(repl)) => {
                let (position, fenced) = (repl.position(), repl.is_fenced());
                Response::Lease { position, fenced }
            }
            Some(None) => Response::Error("journal is not replicated".into()),
            None => Response::Error(format!("no lease held for service {service:?}")),
        }
    }

    /// A sentinel promoted a replica: stop acknowledging NOW, not at the
    /// next shipping round.
    fn fence(&self, service: &str, epoch: u64) -> Response {
        match self.replicated(service) {
            Some(Some(repl)) => {
                repl.fence(epoch);
                Response::Ok
            }
            Some(None) => Response::Error("journal is not replicated".into()),
            None => Response::Error(format!("unknown replicated service {service:?}")),
        }
    }

    /// One round: drive the scheduler clock, report completions and
    /// telemetry to AppSpector, heartbeat the FS if one is due. Returns the
    /// wall time until the next due event.
    fn pump(&self) -> Duration {
        // Event-paced, not polled every 5 ms: an award runs a round early
        // (the next completion may have moved closer), and the cap bounds
        // any one wait. Heartbeats are paced in *simulated* time (the FS
        // liveness window is simulated seconds), so any clock speedup
        // keeps the FD alive.
        const PACE_CAP: Duration = Duration::from_millis(500);
        let last_heartbeat = *self.last_heartbeat.lock();
        // Harvest completions under the lock (reading the clock inside it,
        // to stay monotone with the request handlers) and drop their
        // contracts and staged files with it; talk to the journal and to
        // peers outside it. A heartbeat's report is read only when one is
        // due: every award and completion runs a round.
        let (now, completed, beat) = {
            let mut s = self.state.lock();
            let now = self.clock.now();
            let mut completed: Vec<(JobId, Files)> = vec![];
            for c in s.cluster.on_time(now) {
                let job = c.outcome.job;
                s.contracts.remove(&job);
                completed.push((job, s.staged.remove(&job).unwrap_or_default()));
            }
            let due =
                last_heartbeat == SimTime::ZERO || now.since(last_heartbeat) >= HEARTBEAT_EVERY;
            let beat = due.then(|| (s.cluster.status(now), s.cluster.running_jobs().collect()));
            (now, completed, beat)
        };
        for (job, mut outputs) in completed {
            // Prune the journal best-effort, in the next commit: the next
            // award's, else the next heartbeat's. A crash before it only
            // means the job re-runs after a restart (at-least-once), never
            // that it is lost.
            if self.journal.is_some() {
                self.done.lock().push(job);
            }
            let report = format!("completed at {now}").into_bytes();
            outputs.push(("output.dat".into(), report));
            let req = Request::CompleteJob { job, outputs };
            let _ = call_with(self.appspector, &req, &self.opts.call);
        }
        // Heartbeat + telemetry on the simulated cadence.
        if let Some((status, running)) = beat {
            *self.last_heartbeat.lock() = now;
            let _ = self.commit(|| None);
            self.heartbeat(now, status, running);
        }
        // Due at whichever comes first: the scheduler's next completion or
        // the next heartbeat, converted from simulated to wall time.
        let beat = *self.last_heartbeat.lock() + HEARTBEAT_EVERY;
        let next = self.state.lock().cluster.next_completion();
        self.clock
            .wall_until(next.map_or(beat, |at| at.min(beat)))
            .min(PACE_CAP)
    }

    /// One heartbeat to the FS, then one telemetry sample per running job
    /// to AppSpector, in one best-effort burst (dropped if it fails).
    fn heartbeat(&self, now: SimTime, status: ServerStatus, running: Vec<(JobId, u32)>) {
        let cluster = self.cluster_id;
        match self.fs.call(&Request::Heartbeat { cluster, status }) {
            // "unknown cluster": the FS evicted us as dead (or was itself
            // restarted). Re-register and carry on.
            Ok(Response::Error(_)) => self.register(),
            // The endpoint is dead (not merely overloaded): rotate to the
            // next federated shard and register there, so bids keep
            // verifying and the directory keeps listing us.
            Err(e) if self.fs.rotate_after(&e) => {
                self.m_fs_failovers.inc();
                // Sessions die with the shard that minted them.
                self.vouched.lock().clear();
                self.register();
            }
            _ => {}
        }
        let mut samples = Vec::with_capacity(running.len());
        for (job, pes) in running {
            let sample = TelemetrySample {
                at: now,
                pes,
                utilization: pes as f64 / self.total_pes.max(1) as f64,
                throughput: pes as f64,
                app_data: format!("t={now}"),
            };
            samples.push(Request::PushSample { job, sample });
        }
        let _ = call_batch(self.appspector, &samples, &self.opts.call);
    }
}

/// A running FD service.
pub struct FdHandle {
    /// The TCP service.
    pub service: ServiceHandle,
    /// The cluster this FD represents.
    pub cluster_id: ClusterId,
    /// The payoff-aware bid admission gate (peak-queue readout — see
    /// [`FdOptions::bid_gate`]).
    pub gate: Arc<PayoffGate>,
    core: Arc<FdCore>,
}

impl FdHandle {
    /// Jobs completed on this cluster so far.
    pub fn completed(&self) -> u64 {
        self.core.state.lock().cluster.metrics.completed
    }

    /// Revenue earned at bid prices.
    pub fn revenue(&self) -> Money {
        self.core.state.lock().cluster.metrics.revenue_price
    }

    /// Daemon activity counters (requests, bids, declines, confirms).
    pub fn daemon_stats(&self) -> faucets_core::daemon::DaemonStats {
        self.core.state.lock().daemon.stats
    }

    /// Accepted contracts not yet completed.
    pub fn active_contracts(&self) -> usize {
        self.core.state.lock().contracts.len()
    }

    /// Stop the service (which joins a pump round in flight along with the
    /// executors), then journal the completions no commit carried yet.
    pub fn shutdown(self) {
        self.service.shutdown();
        let _ = self.core.commit(|| None);
    }

    /// Simulate a daemon crash: stop serving with no deregistration and no
    /// goodbye to the FS or AppSpector. With [`FdOptions::store`] set,
    /// the journal survives on disk; [`spawn_fd_with`] on the same
    /// directory resumes the accepted contracts, and re-runs the jobs whose
    /// completion was still queued.
    pub fn kill(self) {
        self.service.kill();
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
    daemon: FaucetsDaemon,
    cluster: Cluster,
    fs: SocketAddr,
    appspector: SocketAddr,
    clock: Clock,
    opts: FdOptions,
) -> io::Result<FdHandle> {
    let cluster_id = cluster.machine.cluster;
    let service_name = format!("fd-{cluster_id}");
    let reg = faucets_telemetry::global();
    let cluster_name = cluster.machine.name.clone();
    let labels = [("cluster", cluster_name.as_str())];
    let journal = match &opts.store {
        Some(dir) => {
            let (store_opts, repl) = (opts.store_opts.clone(), opts.replication.as_ref());
            let open = Journal::open(dir, FdJournal::default(), &service_name, store_opts, repl);
            Some(open.map_err(io::Error::other)?.0)
        }
        None => None,
    };
    let core = Arc::new(FdCore {
        gate: PayoffGate::new(opts.bid_gate, &cluster_name, reg),
        clock,
        fs: FsUpstream::new(fs, &opts.fs_fallbacks, opts.call.clone()),
        vouched: Mutex::new(HashMap::new()),
        done: Mutex::new(Vec::new()),
        appspector,
        nudge: OnceLock::new(),
        last_heartbeat: Mutex::new(SimTime::ZERO),
        cluster_id,
        flops_per_pe_sec: daemon.info.flops_per_pe_sec,
        total_pes: cluster.machine.total_pes,
        m_journal_writes: reg.counter("fd_journal_writes_total", &labels),
        m_fs_failovers: reg.counter("fd_fs_failovers_total", &labels),
        m_memo_hits: reg.counter("fd_token_memo_hits_total", &labels),
        m_memo_misses: reg.counter("fd_token_memo_misses_total", &labels),
        journal,
        service_name,
        opts,
        state: Mutex::new(FdState {
            daemon,
            cluster,
            staged: HashMap::new(),
            contracts: HashSet::new(),
        }),
    });

    // Recover the journal before the service can take traffic.
    let restored = core.recover();
    reg.counter("fd_journal_restored_contracts_total", &labels)
        .add(restored.len() as u64);

    // Bind, so the real port is known, and register under it.
    let handler = Arc::clone(&core);
    let service = serve(addr, "fd", move |req| handler.handle(req))?;
    {
        let mut s = core.state.lock();
        s.daemon.info.fd_addr = service.addr.ip().to_string();
        s.daemon.info.fd_port = service.addr.port();
    }
    core.register();
    // Restored jobs are re-announced so AppSpector keeps monitoring them.
    for (job, owner) in restored {
        core.announce(job, owner);
    }

    let pump = Arc::clone(&core);
    let nudge = service.tick(Duration::ZERO, move || pump.pump());
    let _ = core.nudge.set(nudge);
    Ok(FdHandle {
        service,
        cluster_id,
        gate: Arc::clone(&core.gate),
        core,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::appspector_srv::{spawn_appspector, AsHandle};
    use crate::fs::{spawn_fs, FsHandle};
    use crate::service::{call, Timeouts};
    use faucets_core::qos::QosBuilder;
    use faucets_sched::adaptive::ResizeCostModel;
    use faucets_sched::equipartition::Equipartition;
    use faucets_sched::machine::MachineSpec;
    use faucets_store::WriteFault;
    use std::sync::mpsc;

    /// One FS, one AppSpector, one Baseline FD (cluster 1, exporting
    /// `namd` at $0.01/cpu-s) and a logged-in user.
    struct Grid {
        fs: FsHandle,
        _aspect: AsHandle,
        fd: FdHandle,
        user: UserId,
        token: SessionToken,
    }

    fn grid(clock: &Clock, seed: u64, pes: u32, opts: FdOptions) -> Grid {
        let fs = spawn_fs("127.0.0.1:0", clock.clone(), seed).unwrap();
        let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();
        let machine = MachineSpec::commodity(ClusterId(1), "turing", pes);
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 0),
            ["namd".to_string()],
            Box::new(faucets_core::market::Baseline),
            Money::from_units_f64(0.01),
        );
        let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
        let (fs_addr, as_addr) = (fs.service.addr, aspect.service.addr);
        let fd = spawn_fd_with(
            "127.0.0.1:0",
            daemon,
            cluster,
            fs_addr,
            as_addr,
            clock.clone(),
            opts,
        )
        .unwrap();
        let (user, password) = ("u".to_string(), "p".to_string());
        let create = Request::CreateUser {
            user: user.clone(),
            password: password.clone(),
        };
        call(fs_addr, &create).unwrap();
        let Response::Session { user, token } =
            call(fs_addr, &Request::Login { user, password }).unwrap()
        else {
            panic!("expected a session")
        };
        Grid {
            fs,
            _aspect: aspect,
            fd,
            user,
            token,
        }
    }

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("faucets-fd-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    /// An `Award` of `job` at `now`: one PE, `cpu_seconds` of work.
    fn award_of(g: &Grid, job: JobId, cpu_seconds: f64, now: SimTime) -> Request {
        let qos = QosBuilder::new("namd", 1, 1, cpu_seconds).build().unwrap();
        Request::Award {
            token: g.token.clone(),
            spec: JobSpec::new(job, g.user, qos, now).unwrap(),
            contract: ContractId(job.raw()),
            bid: Bid {
                id: faucets_core::ids::BidId(job.raw()),
                cluster: ClusterId(1),
                job,
                multiplier: 1.0,
                price: Money::from_units(1),
                promised_completion: now,
                planned_pes: 1,
            },
        }
    }

    fn bid_request(g: &Grid, token: SessionToken) -> Request {
        let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
        let request = BidRequest {
            job: JobId(5),
            user: g.user,
            qos,
            issued_at: SimTime::ZERO,
        };
        Request::RequestBid { token, request }
    }

    #[test]
    fn fd_registers_and_answers_bids() {
        let g = grid(&Clock::new(100.0), 11, 64, FdOptions::default());
        let fd = g.fd.service.addr;

        // The FD registered itself (directory has it with the bound port).
        {
            let s = g.fs.state.lock();
            let e = s.directory.get(ClusterId(1)).expect("registered");
            assert_eq!(e.info.fd_port, fd.port());
        }

        // A valid user can solicit a bid.
        let Response::BidReply(reply) = call(fd, &bid_request(&g, g.token.clone())).unwrap() else {
            panic!("expected bid reply")
        };
        let bid = reply.offer().expect("baseline bids on known apps");
        assert_eq!(bid.cluster, ClusterId(1));
        // $0.01/cpu-s × 100 cpu-s × 1.0 = $1.
        assert_eq!(bid.price, Money::from_units(1));

        // A forged token is bounced by the FS re-verification, in the FS's
        // own words.
        let bogus = SessionToken("bogus".into());
        let verify = Request::VerifyToken {
            token: bogus.clone(),
        };
        let fs_says = call(g.fs.service.addr, &verify).unwrap();
        assert!(matches!(fs_says, Response::Error(_)), "got {fs_says:?}");
        assert_eq!(call(fd, &bid_request(&g, bogus)).unwrap(), fs_says);
    }

    /// The memo tests' clock: the 30 simulated seconds a vouched-for token
    /// is honoured are half a wall second.
    fn memo_clock() -> Clock {
        Clock::new(60.0)
    }

    fn verifications(g: &Grid) -> u64 {
        g.fs.state.lock().stats.verifications
    }

    /// Sleep until `since + HEARTBEAT_EVERY` on `clock`: whatever the FS
    /// vouched for by `since` has expired.
    fn outlive_the_ttl(clock: &Clock, since: SimTime) {
        std::thread::sleep(clock.wall_until(since + HEARTBEAT_EVERY) + Duration::from_millis(5));
    }

    /// §2.2 for a token the FS refuses: it is asked on the first ask and
    /// on the second, and nobody remembers the answer.
    #[test]
    fn a_forged_token_goes_to_the_fs_every_time_and_is_never_remembered() {
        let g = grid(&memo_clock(), 21, 64, FdOptions::default());
        let (fd, before) = (g.fd.service.addr, verifications(&g));
        let misses = g.fd.core.m_memo_misses.get();
        let bogus = SessionToken("bogus".into());
        for ask in 1..=2 {
            let reply = call(fd, &bid_request(&g, bogus.clone())).unwrap();
            assert!(matches!(reply, Response::Error(_)), "ask {ask}: {reply:?}");
            assert_eq!(verifications(&g), before + ask, "ask {ask} reached the FS");
        }
        let upload = Request::UploadFile {
            token: bogus,
            job: JobId(5),
            name: "in.dat".into(),
            data: vec![1],
        };
        let reply = call(fd, &upload).unwrap();
        assert!(matches!(reply, Response::Error(_)), "{reply:?}");
        assert_eq!(verifications(&g), before + 3);
        assert!(
            g.fd.core.vouched.lock().is_empty(),
            "a refusal was remembered"
        );
        assert!(g.fd.core.m_memo_misses.get() >= misses + 3);
    }

    /// The memo's bound, both sides: inside the TTL a vouched-for token
    /// reaches no FS, whichever handler asks; its first ask after the TTL
    /// does.
    #[test]
    fn a_vouched_token_skips_the_fs_for_the_ttl_and_not_a_moment_longer() {
        let clock = memo_clock();
        let g = grid(&clock, 22, 64, FdOptions::default());
        let fd = g.fd.service.addr;
        let hits = g.fd.core.m_memo_hits.get();
        let bid = || {
            let reply = call(fd, &bid_request(&g, g.token.clone())).unwrap();
            assert!(matches!(reply, Response::BidReply(_)), "{reply:?}");
        };
        let (started, before) = (clock.now(), verifications(&g));
        bid();
        let vouched_by = clock.now();
        assert_eq!(
            verifications(&g),
            before + 1,
            "an unseen token goes to the FS"
        );
        bid();
        let upload = Request::UploadFile {
            token: g.token.clone(),
            job: JobId(5),
            name: "in.dat".into(),
            data: vec![1],
        };
        assert_eq!(call(fd, &upload).unwrap(), Response::Ok);
        // On a machine that stalled past the TTL these were honest misses.
        if clock.now().since(started) < HEARTBEAT_EVERY {
            assert_eq!(verifications(&g), before + 1, "a hit reached the FS");
            assert!(g.fd.core.m_memo_hits.get() >= hits + 2);
        }
        let before = verifications(&g);
        outlive_the_ttl(&clock, vouched_by);
        bid();
        assert_eq!(
            verifications(&g),
            before + 1,
            "an expired entry was honoured"
        );
    }

    /// With the FS gone, a token it vouched for inside the TTL still gets a
    /// bid; after the TTL the daemon says, in the FS's stead, that it
    /// cannot ask.
    #[test]
    fn an_unreachable_fs_is_ridden_out_for_the_ttl_only() {
        let clock = memo_clock();
        let Grid {
            fs,
            _aspect,
            fd,
            user,
            token,
        } = grid(&clock, 23, 64, FdOptions::default());
        let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
        let request = BidRequest {
            job: JobId(5),
            user,
            qos,
            issued_at: SimTime::ZERO,
        };
        let ask = Request::RequestBid { token, request };
        let patient = CallOptions {
            timeouts: Timeouts::both(Duration::from_secs(5)),
            ..CallOptions::default()
        };
        let started = clock.now();
        let reply = call(fd.service.addr, &ask).unwrap();
        assert!(matches!(reply, Response::BidReply(_)), "{reply:?}");
        let vouched_by = clock.now();
        fs.shutdown();
        let reply = call_with(fd.service.addr, &ask, &patient).unwrap();
        if clock.now().since(started) < HEARTBEAT_EVERY {
            assert!(matches!(reply, Response::BidReply(_)), "{reply:?}");
        }
        outlive_the_ttl(&clock, vouched_by);
        let reply = call_with(fd.service.addr, &ask, &patient).unwrap();
        let Response::Error(why) = &reply else {
            panic!("the FS cannot have been asked: {reply:?}")
        };
        assert!(why.starts_with("FS unreachable"), "{why}");
    }

    /// The memo holds only what the FS vouched for in the last TTL: an
    /// insert sweeps what has expired.
    #[test]
    fn an_insert_after_the_ttl_sweeps_a_thousand_expired_tokens() {
        let clock = memo_clock();
        let g = grid(&clock, 24, 64, FdOptions::default());
        let login = Request::Login {
            user: "u".into(),
            password: "p".into(),
        };
        let pooled = CallOptions {
            pool: Some(Arc::new(ConnPool::new("logins", PoolConfig::default()))),
            ..CallOptions::default()
        };
        // Every login mints another token of the one user.
        let mut tokens =
            (0..1_001).map(
                |_| match call_with(g.fs.service.addr, &login, &pooled).unwrap() {
                    Response::Session { token, .. } => token,
                    other => panic!("expected a session, got {other:?}"),
                },
            );
        let started = clock.now();
        for token in tokens.by_ref().take(1_000) {
            g.fd.core.verify(&token).expect("the FS vouches for it");
        }
        let vouched_by = clock.now();
        if vouched_by.since(started) < HEARTBEAT_EVERY {
            assert_eq!(g.fd.core.vouched.lock().len(), 1_000);
        }
        outlive_the_ttl(&clock, vouched_by);
        let last = tokens.next().unwrap();
        g.fd.core.verify(&last).expect("the FS vouches for it");
        let vouched = g.fd.core.vouched.lock();
        assert_eq!(vouched.len(), 1, "expired entries outlived an insert");
        assert!(vouched.contains_key(&last));
    }

    /// Sessions die with the shard that minted them: when the pump rotates
    /// to a fallback shard the memo is emptied, and tokens are from then on
    /// the new shard's to vouch for.
    #[test]
    fn a_rotation_to_a_fallback_shard_empties_the_memo() {
        let clock = memo_clock();
        let fallback = spawn_fs("127.0.0.1:0", clock.clone(), 26).unwrap();
        let opts = FdOptions {
            fs_fallbacks: vec![fallback.service.addr],
            ..FdOptions::default()
        };
        let mut g = grid(&clock, 25, 64, opts);
        let fd = g.fd.service.addr;
        let reply = call(fd, &bid_request(&g, g.token.clone())).unwrap();
        assert!(matches!(reply, Response::BidReply(_)), "{reply:?}");
        assert_eq!(g.fd.core.vouched.lock().len(), 1);
        // The primary dies; the next heartbeat finds out and rotates. No
        // token is verified meanwhile, so only the rotation can have
        // removed the entry (an expired one stays until an insert).
        std::mem::replace(&mut g.fs, fallback).shutdown();
        let until = std::time::Instant::now() + Duration::from_secs(20);
        while !g.fd.core.vouched.lock().is_empty() {
            assert!(std::time::Instant::now() < until, "the pump never rotated");
            std::thread::sleep(Duration::from_millis(10));
        }
        // The surviving shard knows nothing of the old session...
        let reply = call(fd, &bid_request(&g, g.token.clone())).unwrap();
        assert!(matches!(reply, Response::Error(_)), "{reply:?}");
        // ...and vouches for its own.
        let (user, password) = ("v".to_string(), "p".to_string());
        let create = Request::CreateUser {
            user: user.clone(),
            password: password.clone(),
        };
        call(g.fs.service.addr, &create).unwrap();
        let Response::Session { token, .. } =
            call(g.fs.service.addr, &Request::Login { user, password }).unwrap()
        else {
            panic!("expected a session")
        };
        let reply = call(fd, &bid_request(&g, token.clone())).unwrap();
        assert!(matches!(reply, Response::BidReply(_)), "{reply:?}");
        assert!(g.fd.core.vouched.lock().contains_key(&token));
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
        let g = grid(&clock, 12, 4096, FdOptions::default());
        let addr = g.fd.service.addr;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let (g, clock) = (&g, &clock);
                scope.spawn(move || {
                    for i in 0..PER_THREAD {
                        let job = JobId(1 + t * PER_THREAD + i);
                        // A millisecond of CPU on one PE is half a
                        // microsecond of wall time at this clock: the pump
                        // completes each job about as soon as the award
                        // handler lets go of the state lock.
                        let reply = call(addr, &award_of(g, job, 0.001, clock.now())).unwrap();
                        let confirmed = matches!(
                            reply,
                            Response::AwardReply {
                                confirmed: true,
                                ..
                            }
                        );
                        assert!(confirmed, "award of {job:?}: {reply:?}");
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
        settle(&|| g.fd.completed() == awarded, Duration::from_secs(20));
        settle(&|| g.fd.active_contracts() == 0, Duration::from_secs(2));
        assert_eq!(g.fd.completed(), awarded, "every awarded job ran");
        assert_eq!(g.fd.active_contracts(), 0, "a contract outlived its job");
    }

    /// Regression: the pump used to commit `FdRecord::Complete` while
    /// holding the state lock, so for as long as that commit took (a
    /// network round trip on a sync-replicated journal) every bid and
    /// award on the daemon waited. The store's fault hook parks the
    /// completion's append; a bid must still be answered meanwhile.
    #[test]
    fn bids_are_answered_while_a_completion_is_being_journaled() {
        let dir = scratch("parked");
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (parked_tx, release_rx) = (Mutex::new(parked_tx), Mutex::new(release_rx));
        let hook = move |payload: &[u8]| {
            if payload.windows(10).any(|w| w == b"\"Complete\"") {
                let _ = parked_tx.lock().send(());
                // Parked until the test lets go (or gives up and drops
                // its end).
                let _ = release_rx.lock().recv();
            }
            WriteFault::Deliver
        };
        let mut opts = FdOptions {
            store: Some(dir.clone()),
            ..FdOptions::default()
        };
        opts.store_opts.fault = Some(Arc::new(hook));
        let clock = Clock::new(2_000.0);
        let g = grid(&clock, 13, 64, opts);
        let fd = g.fd.service.addr;

        // A job that finishes at once: no award follows to carry its
        // completion, so the next heartbeat (15 ms of wall time at this
        // clock) journals it and parks inside the append.
        let reply = call(fd, &award_of(&g, JobId(1), 0.001, clock.now())).unwrap();
        assert!(matches!(
            reply,
            Response::AwardReply {
                confirmed: true,
                ..
            }
        ));
        parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the pump journals the completion");

        let patient = CallOptions {
            timeouts: Timeouts::both(Duration::from_secs(3)),
            ..CallOptions::default()
        };
        let reply = call_with(fd, &bid_request(&g, g.token.clone()), &patient);
        // Unpark before judging, so a failure still shuts down cleanly.
        release_tx.send(()).unwrap();
        assert!(
            matches!(reply, Ok(Response::BidReply(_))),
            "a bid waited on the completion's journal append: {reply:?}"
        );
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `LeaseProbe` and `Fence` are for the primary of a *replicated*
    /// journal, addressed by its service name: anything else is refused
    /// and leaves no lease behind.
    #[test]
    fn lease_and_fence_are_refused_without_a_replicated_journal() {
        // What the FD says to a `LeaseProbe` and to a `Fence` for `service`.
        let probe = |fd: &FdHandle, service: &str| {
            let refusal = |req: Request| match call(fd.service.addr, &req).unwrap() {
                Response::Error(e) => e,
                other => panic!("expected a refusal, got {other:?}"),
            };
            let service = service.to_string();
            let lease = refusal(Request::LeaseProbe {
                service: service.clone(),
            });
            (lease, refusal(Request::Fence { service, epoch: 7 }))
        };
        let clock = Clock::new(100.0);

        // No journal at all.
        let g = grid(&clock, 14, 64, FdOptions::default());
        let (lease, fence) = probe(&g.fd, "fd-cs-1");
        assert!(lease.starts_with("no lease held for service"), "{lease}");
        assert!(fence.starts_with("unknown replicated service"), "{fence}");
        drop(g);

        // A journal, but single-node: its own name, then a foreign one.
        let dir = scratch("unreplicated");
        let opts = FdOptions {
            store: Some(dir.clone()),
            ..FdOptions::default()
        };
        let g = grid(&clock, 15, 64, opts);
        let (lease, fence) = probe(&g.fd, "fd-cs-1");
        assert_eq!(lease, "journal is not replicated");
        assert_eq!(fence, "journal is not replicated");
        let (lease, fence) = probe(&g.fd, "fd-cs-2");
        assert!(lease.starts_with("no lease held for service"), "{lease}");
        assert!(fence.starts_with("unknown replicated service"), "{fence}");
        drop(g);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn probed_replicated_fd_writes_only_the_stores_files() {
        use crate::replica::{spawn_replica, ReplicaOptions};
        let (dir, fdir) = (scratch("probed"), scratch("probed-follower"));
        let follower = spawn_replica(
            "127.0.0.1:0",
            &[("fd-cs-1".to_string(), fdir.clone())],
            ReplicaOptions { no_fsync: true },
        )
        .unwrap();
        let opts = FdOptions {
            store: Some(dir.clone()),
            replication: Some(ReplicationConfig {
                followers: vec![follower.addr],
                ..ReplicationConfig::default()
            }),
            ..FdOptions::default()
        };
        let clock = Clock::new(100.0);
        let g = grid(&clock, 16, 64, opts);
        let probe = Request::LeaseProbe {
            service: "fd-cs-1".into(),
        };
        for _ in 0..3 {
            let reply = call(g.fd.service.addr, &probe).unwrap();
            assert!(
                matches!(reply, Response::Lease { fenced: false, .. }),
                "{reply:?}"
            );
        }
        // The journal directory holds what the store made it: the epoch
        // file, snapshots and WALs. Answering a probe persists nothing.
        let mut names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert!(names.iter().any(|n| n == "epoch"), "{names:?}");
        assert!(
            names
                .iter()
                .all(|n| n == "epoch" || n.starts_with("snap-") || n.starts_with("wal-")),
            "{names:?}"
        );
        drop(g);
        drop(follower);
        let _ = std::fs::remove_dir_all(&dir);
        let _ = std::fs::remove_dir_all(&fdir);
    }
}
