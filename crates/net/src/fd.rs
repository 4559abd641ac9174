//! The Faucets Daemon (FD) as a TCP service (§2).
//!
//! *"Each Scheduler is associated with a Faucets Daemon process which
//! listens on a well-known port. … At startup each FD registers itself with
//! the Faucets Central Server."* This service wraps a
//! [`faucets_sched::cluster::Cluster`] with the mediation logic of
//! [`faucets_core::daemon::FaucetsDaemon`]: it answers bid requests
//! (re-verifying the client's token with the FS first, since *"the FD does
//! not have any accounting information"* — or on a memo of its answers),
//! handles awards, stages input files, and runs a pump (its service's
//! tick) that drives the scheduler clock, heartbeats the FS, and reports
//! jobs and telemetry to AppSpector.
//!
//! ## Map
//!
//! * **core** — `FdCore`, one `Arc` shared by the handlers and the pump:
//!   the `FdState` mutex (daemon, scheduler, staged files, contracts,
//!   AppSpector's outbox), the journal, the bid gate, the clock, the FS
//!   endpoints and the memo of tokens the FS lately vouched for.
//! * **recover** — `FdCore::recover` replays the journal into the
//!   scheduler and the outbox before the listener is bound.
//! * **handlers** — `FdCore::handle` dispatches to one method per
//!   endpoint: `bid`, `award`, `upload`, `lease_probe`, `fence`; the first
//!   three start with `FdCore::verify`. None waits on AppSpector.
//! * **pump** — `FdCore::pump`, the service's tick
//!   ([`ServiceHandle::tick`]): harvest completions into the outbox,
//!   heartbeat, send the outbox (`FdCore::report`) once its oldest entry
//!   has waited `REPORT_LAG` or a beat is due, then the beat's telemetry,
//!   and return the time to the next due event. An award queues its job's
//!   `RegisterJob` and nudges the pump only if that opens a window closing,
//!   or its job completes, before the instant the pump is armed for.
//!
//! There are four locks here, never taken together and never held across
//! a call to a peer. The state mutex guards the scheduler, the contracts,
//! the outbox and the instant the pump is armed for; it is not held across
//! a journal commit either (a sync-replicated commit is itself a network
//! round trip), and the instant handed to the scheduler is read only while
//! holding it, so scheduler time is monotone across the handlers and the
//! pump. The memo's mutex guards the map of vouched-for tokens for the
//! length of one lookup or one insert, the completion queue's mutex is
//! held for one push or one take, and the last heartbeat's instant is the
//! pump's, held for one read or one write.
//!
//! ## The token memo (§2.2, bounded)
//!
//! The FD holds no accounting data, so it remembers only the FS's own
//! `Verified` answers, each for `HEARTBEAT_EVERY` (30 simulated seconds:
//! the staleness the FD's view of the FS already has, and so the bound on
//! how long a logout or an expiry takes to reach this daemon). Each entry
//! keeps the user the FS named, and a bid or an award is answered only for
//! that user. When a heartbeat finds the FS dead, the pump rotates to the
//! next standby FS of [`FdOptions::fs_fallbacks`], registers there and
//! empties the memo. `FdCore::verify` has the rules.
//!
//! ## Crash recovery
//!
//! With [`FdOptions::store`] set, the daemon journals every accepted QoS
//! contract (spec, contract id, price, owner) and every staged input file
//! to a [`faucets_store::DurableStore`] write-ahead log. The acceptance
//! record is appended *before* the scheduler sees the award, and the award
//! is NACKed if the append fails, so a confirmed award is always
//! recoverable. [`spawn_fd_with`] on the same directory replays the
//! journal: contracts are resubmitted to the scheduler, jobs queued for
//! AppSpector again, and the daemon re-registers with the FS — so a kill +
//! restart loses at most the *progress* since the last scheduler
//! checkpoint, never the contracts themselves. Completion records prune
//! the journal best-effort, and late: AppSpector hears of a completion
//! first, and its `Complete` is journaled with the next award's `Accept`
//! (one write, one ship) or, if no award comes first, at the next
//! heartbeat. A crash in between re-runs the job after restart
//! (at-least-once), and no acknowledged award is ever at stake.
//! [`FdHandle::shutdown`] sends the outbox once more and journals the
//! queue; a kill does neither. If the FS evicted the daemon while it was
//! down, the heartbeat's error reply triggers re-registration from the
//! pump.

use crate::overload::{GateConfig, GateVerdict, PayoffGate};
use crate::pool::{ConnPool, PoolConfig};
use crate::proto::{Request, Response};
use crate::replica::{Journal, ReplicationConfig};
use crate::service::{
    call_batch, request_deadline, serve, CallOptions, Clock, Nudge, RetryPolicy, ServiceHandle,
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
    /// heartbeats, AppSpector pushes). Defaults to bounded retry, so a
    /// transiently unreachable FS doesn't poison bid handling, and to a
    /// pool of warm sockets. AppSpector's pushes take one attempt (the
    /// pump's outbox is the retry), each capped at a third of the heartbeat
    /// period in wall time.
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
    /// Standby FS endpoints, in order. When a heartbeat fails at the
    /// transport level the pump rotates to the next endpoint and
    /// re-registers there, so a daemon survives the death of the FS it
    /// was pointed at. Overload answers never rotate (busy is not dead).
    pub fs_fallbacks: Vec<SocketAddr>,
}

/// Heartbeat cadence in *simulated* time.
const HEARTBEAT_EVERY: SimDuration = SimDuration::from_secs(30);

/// The longest a request waits in the outbox before a round sends it, in
/// *simulated* time: 1/30 of [`HEARTBEAT_EVERY`], the staleness the FS's
/// view of this daemon already has (1.67 ms of wall time at 600x).
const REPORT_LAG: SimDuration = SimDuration::from_secs(1);

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
    /// A `RegisterJob` per confirmed job and a `CompleteJob` per finished
    /// one, until AppSpector answers it ([`FdCore::report`]).
    outbox: Vec<Request>,
    /// When the outbox's oldest entry was queued: a round sends the outbox
    /// once it has waited [`REPORT_LAG`] (or with a beat).
    opened: Option<SimTime>,
    /// The simulated instant the pump is armed for: set by a round in the
    /// acquisition that reads the next completion, cleared (`None`) while a
    /// round runs. An award runs the pump early only if it queued something
    /// due before it.
    armed: Option<SimTime>,
}

impl FdState {
    /// Queue `req` for AppSpector at `now`: into an empty outbox, it opens
    /// a window.
    fn queue(&mut self, req: Request, now: SimTime) {
        self.opened.get_or_insert(now);
        self.outbox.push(req);
    }

    /// Take the whole outbox, closing its window.
    fn take_outbox(&mut self) -> Vec<Request> {
        self.opened = None;
        std::mem::take(&mut self.outbox)
    }

    /// The next instant a round has work, heartbeats aside: the scheduler's
    /// next completion or the close of the outbox's window.
    fn next_due(&self) -> Option<SimTime> {
        let window = self.opened.map(|at| at + REPORT_LAG);
        let next = self.cluster.next_completion();
        next.into_iter().chain(window).min()
    }
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
    /// The tokens the FS answered `Verified` for, each with the user it
    /// named and the simulated instant of that answer: see
    /// [`FdCore::verify`].
    vouched: Mutex<HashMap<SessionToken, (UserId, SimTime)>>,
    appspector: SocketAddr,
    /// Runs the pump early, set once the service is bound.
    nudge: OnceLock<Nudge>,
    /// When the pump last heartbeat, in simulated time (`ZERO`: never).
    last_heartbeat: Mutex<SimTime>,
    /// As spawned; `call` here is AppSpector's (`fs` has its own copy).
    opts: FdOptions,
    cluster_id: ClusterId,
    /// Fixed at spawn, so the bid path prices a request's payoff rate
    /// before it takes the state lock.
    flops_per_pe_sec: f64,
    total_pes: u32,
    /// Jobs AppSpector heard finished since the last commit: the next one
    /// journals a `Complete` for each ahead of its own record.
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
        let done = std::mem::take(&mut *self.done.lock());
        let Some(journal) = &self.journal else {
            return Ok(());
        };
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
    /// the scheduler and their jobs queued for AppSpector, staged files
    /// re-attached. Returns how many contracts came back.
    fn recover(&self) -> usize {
        let Some(journal) = &self.journal else {
            return 0;
        };
        let mut guard = self.state.lock();
        let (s, now) = (&mut *guard, self.clock.now());
        journal.read(|j| {
            s.staged.extend(j.staged.iter().cloned());
            for e in &j.contracts {
                s.cluster
                    .submit_job(e.spec.clone(), e.contract, e.price, now);
                s.contracts.insert(e.spec.id);
                let register = Request::RegisterJob {
                    job: e.spec.id,
                    owner: e.owner,
                    cluster: self.cluster_id,
                };
                s.queue(register, now);
            }
            j.contracts.len()
        })
    }

    /// Announce this daemon to the FS endpoint currently trusted: at
    /// start-up, when a heartbeat finds the FS has forgotten it, and after
    /// rotating to the standby FS.
    fn register(&self) {
        let (info, apps) = {
            let s = self.state.lock();
            let apps = s.daemon.exported_apps.iter().cloned().collect();
            (s.daemon.info.clone(), apps)
        };
        let _ = self.fs.call(&Request::RegisterCluster { info, apps });
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
    /// the expired entries, and a rotation to the standby FS empties the
    /// memo (sessions die with the FS that minted them). Returns the
    /// token's user: a handler acts for that user only.
    fn verify(&self, token: &SessionToken) -> Result<UserId, Response> {
        let fresh = |at: SimTime| self.clock.now().since(at) < HEARTBEAT_EVERY;
        let vouched = self.vouched.lock().get(token).copied();
        if let Some((user, _)) = vouched.filter(|(_, at)| fresh(*at)) {
            self.m_memo_hits.inc();
            return Ok(user);
        }
        self.m_memo_misses.inc();
        let user = self.fs.verify(token)?;
        let now = self.clock.now();
        let mut vouched = self.vouched.lock();
        vouched.retain(|_, (_, at)| now.since(*at) < HEARTBEAT_EVERY);
        vouched.insert(token.clone(), (user, now));
        Ok(user)
    }

    /// [`FdCore::verify`], for a request made on behalf of `user`: a
    /// session acts for its own user only.
    fn verify_as(&self, token: &SessionToken, user: UserId) -> Result<(), Response> {
        match self.verify(token)? {
            owner if owner == user => Ok(()),
            owner => Err(Response::Error(format!(
                "the session of {owner} cannot act for {user}"
            ))),
        }
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
        if let Err(resp) = self.verify_as(token, request.user) {
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
        if let Err(resp) = self.verify_as(token, spec.user) {
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
        let (outcome, early) = {
            let mut guard = self.state.lock();
            let (s, now) = (&mut *guard, self.clock.now());
            // A repeat of an award this FD holds (a retry whose reply was
            // lost) gets the first answer and places nothing. Its second
            // `Accept` is harmless: replay keeps one entry per job.
            if s.contracts.contains(&job) {
                return Response::AwardReply {
                    confirmed: true,
                    reason: None,
                };
            }
            let outcome = s
                .daemon
                .handle_award(spec, contract, &bid, &mut s.cluster, now);
            // Recorded under the lock acquisition that scheduled the job:
            // released in between, the pump can complete the job first,
            // and its `contracts.remove` (and `CompleteJob`) would run
            // before this insert (and `RegisterJob`).
            let confirmed = matches!(outcome, Ok(AwardOutcome::Confirmed));
            if confirmed {
                s.contracts.insert(job);
                let register = Request::RegisterJob {
                    job,
                    owner,
                    cluster: self.cluster_id,
                };
                s.queue(register, now);
            }
            // Run the pump early only if the window this opened closes, or
            // a job completes, before the instant it is armed for. While a
            // round runs nothing is armed, and the nudge is kept for after.
            let sooner = |armed| s.next_due().is_some_and(|at| at < armed);
            (outcome, confirmed && s.armed.is_none_or(sooner))
        };
        match outcome {
            Ok(AwardOutcome::Confirmed) => {
                if let Some(nudge) = self.nudge.get().filter(|_| early) {
                    nudge.nudge();
                }
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

    /// One round: drive the scheduler clock, heartbeat the FS if a beat is
    /// due, and send AppSpector the outbox if its window has closed or a
    /// beat is due, then a beat's telemetry. Returns the wall time until
    /// the next due event.
    fn pump(&self) -> Duration {
        // Event-paced, not polled every 5 ms: an award runs a round early
        // when it queued something due before the armed instant, and the
        // cap bounds any one wait. Heartbeats and the report window are
        // paced in *simulated* time (the FS liveness window is simulated
        // seconds), so any clock speedup keeps the FD alive.
        const PACE_CAP: Duration = Duration::from_millis(500);
        let last_heartbeat = *self.last_heartbeat.lock();
        // Under the lock (the clock read inside it, monotone with the
        // handlers): disarm, harvest completions into the outbox, drop
        // their contracts and staged files, take the outbox if it is due,
        // and read a heartbeat's report if one is due. The journal and
        // peers after.
        let (now, outbox, beat) = {
            let mut guard = self.state.lock();
            let (s, now) = (&mut *guard, self.clock.now());
            s.armed = None;
            for c in s.cluster.on_time(now) {
                let job = c.outcome.job;
                s.contracts.remove(&job);
                let mut outputs = s.staged.remove(&job).unwrap_or_default();
                let report = format!("completed at {now}").into_bytes();
                outputs.push(("output.dat".into(), report));
                s.queue(Request::CompleteJob { job, outputs }, now);
            }
            let due =
                last_heartbeat == SimTime::ZERO || now.since(last_heartbeat) >= HEARTBEAT_EVERY;
            let beat = due.then(|| (s.cluster.status(now), s.cluster.running_jobs().collect()));
            let lagged = s.opened.is_some_and(|at| now.since(at) >= REPORT_LAG);
            let outbox = if due || lagged {
                s.take_outbox()
            } else {
                vec![]
            };
            (now, outbox, beat)
        };
        // The FS first: a stalled AppSpector delays only its own traffic.
        // Then the outbox, so a beat's samples find their jobs registered.
        let running = beat.map(|(status, running)| {
            *self.last_heartbeat.lock() = now;
            let _ = self.commit(|| None);
            self.heartbeat(status);
            running
        });
        self.report(outbox);
        if let Some(running) = running {
            self.sample(now, running);
        }
        // Due at whichever comes first: the scheduler's next completion,
        // the close of the outbox's window or the next heartbeat, armed
        // in the acquisition that reads them and converted to wall time.
        let beat = *self.last_heartbeat.lock() + HEARTBEAT_EVERY;
        let due = {
            let mut s = self.state.lock();
            let due = s.next_due().map_or(beat, |at| at.min(beat));
            s.armed = Some(due);
            due
        };
        self.clock.wall_until(due).min(PACE_CAP)
    }

    /// Send AppSpector the `RegisterJob`s of `outbox` in one batch, then,
    /// if all were answered, its `CompleteJob`s in another (one mixed batch
    /// could run a completion before its registration). The unanswered go
    /// back to the head of the outbox, in a window that opens now (or at
    /// its newer entries' opening), so a silent AppSpector is retried once
    /// per window; an answered `CompleteJob` awaits a commit.
    fn report(&self, outbox: Vec<Request>) {
        let registers = |r: &Request| matches!(r, Request::RegisterJob { .. });
        let (register, complete): (Vec<_>, Vec<_>) = outbox.into_iter().partition(registers);
        let mut unanswered = vec![];
        for batch in [register, complete] {
            if !unanswered.is_empty() {
                unanswered.extend(batch);
                continue;
            }
            let replies = call_batch(self.appspector, &batch, &self.opts.call);
            for (req, reply) in std::iter::zip(batch, replies) {
                match req {
                    _ if reply.is_err() => unanswered.push(req),
                    Request::CompleteJob { job, .. } => self.done.lock().push(job),
                    _ => {}
                }
            }
        }
        if unanswered.is_empty() {
            return;
        }
        let mut guard = self.state.lock();
        let (s, now) = (&mut *guard, self.clock.now());
        s.opened.get_or_insert(now);
        s.outbox.splice(0..0, unanswered);
    }

    /// One heartbeat to the FS.
    fn heartbeat(&self, status: ServerStatus) {
        let cluster = self.cluster_id;
        match self.fs.call(&Request::Heartbeat { cluster, status }) {
            // "unknown cluster": the FS evicted us as dead (or was itself
            // restarted). Re-register and carry on.
            Ok(Response::Error(_)) => self.register(),
            // The endpoint is dead (not merely overloaded): rotate to the
            // standby FS and register there, so bids keep verifying and
            // the directory keeps listing us.
            Err(e) if self.fs.rotate_after(&e) => {
                self.m_fs_failovers.inc();
                // Sessions die with the FS that minted them.
                self.vouched.lock().clear();
                self.register();
            }
            _ => {}
        }
    }

    /// One telemetry sample per running job to AppSpector, in one
    /// best-effort burst (dropped if it fails).
    fn sample(&self, now: SimTime, running: Vec<(JobId, u32)>) {
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

    /// Stop the service (joining a pump round in flight), send AppSpector
    /// the outbox once more, and journal what no commit carried yet.
    pub fn shutdown(self) {
        self.service.shutdown();
        let outbox = self.core.state.lock().take_outbox();
        self.core.report(outbox);
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

/// Spawn an FD for `cluster`, register it with the FS, and start its pump,
/// with crash-recovery journaling, timeouts, retry, and fault-injection
/// options (`FdOptions::default()` for none). If `opts.store` names an
/// existing journal directory, its contracts are restored before the
/// service starts taking traffic.
///
/// `daemon` must carry `ServerInfo` whose address will be overwritten with
/// the actually bound socket (so port 0 works).
pub fn spawn_fd_with(
    addr: &str,
    daemon: FaucetsDaemon,
    cluster: Cluster,
    fs: SocketAddr,
    appspector: SocketAddr,
    clock: Clock,
    mut opts: FdOptions,
) -> io::Result<FdHandle> {
    let upstream = FsUpstream::new(fs, &opts.fs_fallbacks, opts.call.clone());
    // AppSpector's: a round's (at most three) batches end before its next beat.
    let patience = Duration::from_secs_f64(HEARTBEAT_EVERY.as_secs_f64() / 3.0 / clock.speedup());
    let t = &mut opts.call.timeouts;
    (t.read, t.write) = (t.read.min(patience), t.write.min(patience));
    opts.call.connect = opts.call.connect.min(patience);
    opts.call.retry = RetryPolicy::none();
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
        fs: upstream,
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
            outbox: Vec::new(),
            opened: None,
            armed: None,
        }),
    });

    // Recover the journal before the service can take traffic.
    let restored = core.recover();
    reg.counter("fd_journal_restored_contracts_total", &labels)
        .add(restored as u64);

    // Bind, so the real port is known, and register under it.
    let handler = Arc::clone(&core);
    let service = serve(addr, "fd", move |req| handler.handle(req))?;
    {
        let mut s = core.state.lock();
        s.daemon.info.fd_addr = service.addr.ip().to_string();
        s.daemon.info.fd_port = service.addr.port();
    }
    core.register();

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
    use crate::service::{call, call_with, serve_with, ServeOptions, Timeouts};
    use faucets_core::qos::QosBuilder;
    use faucets_sched::adaptive::ResizeCostModel;
    use faucets_sched::equipartition::Equipartition;
    use faucets_sched::machine::MachineSpec;
    use faucets_store::WriteFault;
    use faucets_telemetry::Registry;
    use std::sync::mpsc;

    /// One FS, one AppSpector, one Baseline FD (cluster 1, exporting
    /// `namd` at $0.01/cpu-s) and a logged-in user.
    struct Grid {
        fs: FsHandle,
        _aspect: Option<AsHandle>,
        fd: FdHandle,
        user: UserId,
        token: SessionToken,
    }

    fn grid(clock: &Clock, seed: u64, pes: u32, opts: FdOptions) -> Grid {
        grid_at(clock, seed, pes, opts, None)
    }

    /// [`grid`], with the FD pointed at `appspector` if given, else at an
    /// AppSpector of its own.
    fn grid_at(
        clock: &Clock,
        seed: u64,
        pes: u32,
        opts: FdOptions,
        appspector: Option<SocketAddr>,
    ) -> Grid {
        let fs = spawn_fs("127.0.0.1:0", clock.clone(), seed).unwrap();
        let aspect = match appspector {
            Some(_) => None,
            None => Some(spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap()),
        };
        let fs_addr = fs.service.addr;
        let as_addr = appspector
            .or(aspect.as_ref().map(|a| a.service.addr))
            .unwrap();
        let fd = spawn_turing(clock, pes, fs_addr, as_addr, opts);
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

    /// The grid's FD alone: cluster 1, `turing`, exporting `namd`.
    fn spawn_turing(
        clock: &Clock,
        pes: u32,
        fs: SocketAddr,
        appspector: SocketAddr,
        opts: FdOptions,
    ) -> FdHandle {
        let machine = MachineSpec::commodity(ClusterId(1), "turing", pes);
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 0),
            ["namd".to_string()],
            Box::new(faucets_core::market::Baseline),
            Money::from_units_f64(0.01),
        );
        let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
        let addr = "127.0.0.1:0";
        spawn_fd_with(addr, daemon, cluster, fs, appspector, clock.clone(), opts).unwrap()
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

    /// Sessions die with the FS that minted them: when the pump rotates
    /// to the standby FS the memo is emptied, and tokens are from then on
    /// the standby's to vouch for.
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
        // The standby knows nothing of the old session...
        let reply = call(fd, &bid_request(&g, g.token.clone())).unwrap();
        assert!(matches!(reply, Response::Error(_)), "{reply:?}");
        // ...and vouches for its own.
        let (user, password) = ("v".to_string(), "p".to_string());
        let create = Request::CreateUser {
            user: user.clone(),
            password: password.clone(),
        };
        call(g.fs.service.addr, &create).unwrap();
        let Response::Session { user, token } =
            call(g.fs.service.addr, &Request::Login { user, password }).unwrap()
        else {
            panic!("expected a session")
        };
        g.user = user;
        let reply = call(fd, &bid_request(&g, token.clone())).unwrap();
        assert!(matches!(reply, Response::BidReply(_)), "{reply:?}");
        assert!(g.fd.core.vouched.lock().contains_key(&token));
    }

    /// Regression: the FD dropped the user the FS named for a token, so
    /// any valid session could award a job in another user's name, and
    /// the owner's own award of that job id was then answered `confirmed`
    /// as a repeat and never ran. A session bids and awards for its own
    /// user only.
    #[test]
    fn a_session_cannot_award_another_users_job() {
        let clock = Clock::new(100.0);
        let g = grid(&clock, 27, 64, FdOptions::default());
        let (user, password) = ("mallory".to_string(), "p".to_string());
        let create = Request::CreateUser {
            user: user.clone(),
            password: password.clone(),
        };
        call(g.fs.service.addr, &create).unwrap();
        let Response::Session { user, token } =
            call(g.fs.service.addr, &Request::Login { user, password }).unwrap()
        else {
            panic!("expected a session")
        };
        assert_ne!(user, g.user);
        // Mallory's token on requests that name the grid's user.
        let mut award = award_of(&g, JobId(1), 3_600.0, clock.now());
        if let Request::Award { token: t, .. } = &mut award {
            *t = token.clone();
        }
        let reply = call(g.fd.service.addr, &award).unwrap();
        assert!(matches!(reply, Response::Error(_)), "{reply:?}");
        assert_eq!(g.fd.active_contracts(), 0, "the FD placed the job");
        assert_eq!(g.fd.daemon_stats().confirms, 0);
        let reply = call(g.fd.service.addr, &bid_request(&g, token)).unwrap();
        assert!(matches!(reply, Response::Error(_)), "{reply:?}");
    }

    /// Regression: a confirmed award used to send AppSpector its
    /// `RegisterJob` and wait for the answer before it replied, so an
    /// AppSpector that takes connections and never answers held every
    /// award for a read timeout (10 s) per attempt. The registration rides
    /// the pump's next round now, and the award replies at once. Nor may
    /// the rounds that then wait on AppSpector starve the FS of beats.
    #[test]
    fn an_award_does_not_wait_on_appspector() {
        // Never accepted: the kernel completes each handshake and buffers
        // each request, and nothing ever answers.
        let silent = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let clock = Clock::new(100.0);
        let to = Some(silent.local_addr().unwrap());
        let g = grid_at(&clock, 17, 64, FdOptions::default(), to);
        let patient = CallOptions {
            timeouts: Timeouts::both(Duration::from_secs(30)),
            ..CallOptions::default()
        };
        let award = award_of(&g, JobId(1), 3_600.0, clock.now());
        let started = std::time::Instant::now();
        let reply = call_with(g.fd.service.addr, &award, &patient);
        let took = started.elapsed();
        let confirmed = matches!(
            reply,
            Ok(Response::AwardReply {
                confirmed: true,
                ..
            })
        );
        assert!(confirmed, "{reply:?}");
        assert!(took < Duration::from_secs(2), "the award took {took:?}");
        // Every round from here on finds AppSpector silent, and the FS
        // still hears each beat: 2 s is over two of its 90-simulated-second
        // liveness windows at this clock.
        for _ in 0..40 {
            std::thread::sleep(Duration::from_millis(50));
            let live =
                g.fs.state
                    .lock()
                    .directory
                    .is_live(g.fd.cluster_id, clock.now());
            assert!(live, "the FS stopped listing the FD at {}", clock.now());
        }
        // Reset the pump's pending batch, so the FD stops at once.
        drop(silent);
    }

    /// A graceful shutdown sends AppSpector what the outbox still holds, so
    /// a job confirmed just before it is still monitored. (The first pump
    /// round ran at spawn; the next is half a second away.)
    #[test]
    fn shutdown_sends_the_outbox() {
        let g = grid(&Clock::realtime(), 23, 64, FdOptions::default());
        let (job, owner, cluster) = (JobId(9), g.user, g.fd.cluster_id);
        let register = Request::RegisterJob {
            job,
            owner,
            cluster,
        };
        g.fd.core.state.lock().outbox.push(register);
        let Grid { fd, _aspect, .. } = g;
        fd.shutdown();
        assert_eq!(_aspect.expect("an AppSpector of its own").job_count(), 1);
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

    /// Regression: a repeated `Award` (a client retry, or the stale-socket
    /// redial, after the first reply was lost) used to schedule a second
    /// copy of the job. The repeat is confirmed like the first and places
    /// nothing: the job runs once and earns its price once.
    #[test]
    fn a_repeated_award_places_the_job_once() {
        // 600 CPU-seconds on one PE: 300 ms of wall time at this clock, so
        // the job is still running when the repeat arrives.
        let clock = Clock::new(2_000.0);
        let g = grid(&clock, 14, 64, FdOptions::default());
        let award = award_of(&g, JobId(1), 600.0, clock.now());
        for attempt in 1..=2 {
            let reply = call(g.fd.service.addr, &award).unwrap();
            let confirmed = matches!(
                reply,
                Response::AwardReply {
                    confirmed: true,
                    ..
                }
            );
            assert!(confirmed, "attempt {attempt}: {reply:?}");
        }
        assert_eq!(g.fd.daemon_stats().confirms, 1);
        let until = std::time::Instant::now() + Duration::from_secs(10);
        while g.fd.completed() == 0 && std::time::Instant::now() < until {
            std::thread::sleep(Duration::from_millis(5));
        }
        // Long enough for a second copy, queued behind the first, to run.
        std::thread::sleep(Duration::from_millis(400));
        assert_eq!(g.fd.completed(), 1, "the job ran more than once");
        assert_eq!(g.fd.revenue(), Money::from_units(1));
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

    /// Scheduling slack the report-window tests allow, in wall time: a
    /// missed nudge shows as a wait of up to `PACE_CAP` (500 ms), five
    /// times this.
    const SLACK: Duration = Duration::from_millis(100);

    /// `SLACK` on `clock`, in simulated time.
    fn slack(clock: &Clock) -> SimDuration {
        SimDuration::from_secs_f64(SLACK.as_secs_f64() * clock.speedup())
    }

    fn confirm(g: &Grid, award: &Request) {
        let reply = call(g.fd.service.addr, award).unwrap();
        let confirmed = matches!(
            reply,
            Response::AwardReply {
                confirmed: true,
                ..
            }
        );
        assert!(confirmed, "{reply:?}");
    }

    /// The requests a stand-in AppSpector was sent, each with the
    /// simulated instant it was handled.
    type Heard = Arc<Mutex<Vec<(Request, SimTime)>>>;

    /// Poll `heard` until it holds `n` requests that `pick` selects, for
    /// at most 10 s.
    fn hear(heard: &Heard, n: usize, pick: impl Fn(&Request) -> bool) -> Vec<(Request, SimTime)> {
        let until = std::time::Instant::now() + Duration::from_secs(10);
        loop {
            let got: Vec<_> = heard
                .lock()
                .iter()
                .filter(|(r, _)| pick(r))
                .cloned()
                .collect();
            if got.len() >= n || std::time::Instant::now() > until {
                return got;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// A stand-in AppSpector that answers everything `Ok` and keeps what
    /// it heard, on its own metric registry.
    fn stand_in(clock: &Clock, reg: &Arc<Registry>) -> (ServiceHandle, Heard) {
        let heard = Heard::default();
        let (log, clock) = (Arc::clone(&heard), clock.clone());
        let opts = ServeOptions {
            registry: Some(Arc::clone(reg)),
            ..ServeOptions::default()
        };
        let service = serve_with("127.0.0.1:0", "stand-in", opts, move |req| {
            log.lock().push((req, clock.now()));
            Response::Ok
        })
        .unwrap();
        (service, heard)
    }

    fn is_register(r: &Request) -> bool {
        matches!(r, Request::RegisterJob { .. })
    }

    /// The window's bound: at an idle FD a lone award's `RegisterJob`, and
    /// its job's `CompleteJob`, each reach AppSpector within `REPORT_LAG`
    /// (and the slack) of the instant it was queued.
    #[test]
    fn appspector_hears_within_the_report_lag() {
        // 10x: `REPORT_LAG` is 100 ms of wall time, a beat 3 s.
        let clock = Clock::new(10.0);
        let reg = Arc::new(Registry::new());
        let (aspect, heard) = stand_in(&clock, &reg);
        let g = grid_at(&clock, 31, 64, FdOptions::default(), Some(aspect.addr));
        std::thread::sleep(Duration::from_millis(50));
        // Two simulated seconds of work: 200 ms of wall time.
        confirm(&g, &award_of(&g, JobId(1), 2.0, clock.now()));
        let awarded = clock.now();
        let finish = g.fd.core.state.lock().cluster.next_completion().unwrap();
        let bound = REPORT_LAG + slack(&clock);
        let registered = hear(&heard, 1, is_register);
        let at = registered.first().expect("the job was registered").1;
        assert!(
            at.since(awarded) <= bound,
            "registered {}",
            at.since(awarded)
        );
        let completes = |r: &Request| matches!(r, Request::CompleteJob { .. });
        let completed = hear(&heard, 1, completes);
        let at = completed.first().expect("the job was completed").1;
        assert!(at.since(finish) <= bound, "completed {}", at.since(finish));
    }

    /// 16 back-to-back awards inside one window reach AppSpector in one
    /// batch: its service takes at most three ready events (the pooled
    /// socket's accept, its frames, one spare). An award per round, as
    /// before the window, read 16 to 17.
    #[test]
    fn a_window_of_awards_reaches_appspector_in_one_batch() {
        let clock = Clock::new(10.0);
        let reg = Arc::new(Registry::new());
        let (aspect, heard) = stand_in(&clock, &reg);
        let g = grid_at(&clock, 32, 64, FdOptions::default(), Some(aspect.addr));
        let events = || {
            let snap = reg.snapshot();
            snap.histogram_sum("net_reactor_ready_events", &[("service", "stand-in")])
                .count
        };
        // The token is vouched for before the window opens.
        let reply = call(g.fd.service.addr, &bid_request(&g, g.token.clone())).unwrap();
        assert!(matches!(reply, Response::BidReply(_)), "{reply:?}");
        let before = events();
        let started = clock.now();
        for job in 1..=16 {
            confirm(&g, &award_of(&g, JobId(job), 3_600.0, clock.now()));
        }
        let awarded = clock.now();
        assert_eq!(hear(&heard, 16, is_register).len(), 16);
        let events = events() - before;
        // On a machine that stalled past the window these were honest
        // extra batches.
        if awarded.since(started) < REPORT_LAG {
            assert!(events <= 3, "{events} ready events for 16 awards");
        }
    }

    /// Pacing: an award that lands while a round runs, of a job that
    /// completes before anything the pump was armed for, is still
    /// harvested within the slack of its completion.
    #[test]
    fn an_award_during_a_round_is_harvested_on_time() {
        // 2x: `REPORT_LAG` is 500 ms of wall time, a beat 15 s.
        let clock = Clock::new(2.0);
        let (parked_tx, parked_rx) = mpsc::channel::<()>();
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let (parked_tx, release_rx) = (Mutex::new(parked_tx), Mutex::new(release_rx));
        // Holds the round that sends job 1's registration until released.
        let aspect = serve("127.0.0.1:0", "parking", move |req| {
            if matches!(req, Request::RegisterJob { job: JobId(1), .. }) {
                let _ = parked_tx.lock().send(());
                let _ = release_rx.lock().recv_timeout(Duration::from_secs(2));
            }
            Response::Ok
        })
        .unwrap();
        let g = grid_at(&clock, 33, 64, FdOptions::default(), Some(aspect.addr));
        confirm(&g, &award_of(&g, JobId(1), 36_000.0, clock.now()));
        parked_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a round sends the registration");
        // A tenth of a simulated second of work: 50 ms of wall time, ten
        // times sooner than its own window closes.
        confirm(&g, &award_of(&g, JobId(2), 0.1, clock.now()));
        let finish = g.fd.core.state.lock().cluster.next_completion().unwrap();
        release_tx.send(()).unwrap();
        let until = std::time::Instant::now() + Duration::from_secs(10);
        while g.fd.completed() == 0 && std::time::Instant::now() < until {
            std::thread::sleep(Duration::from_millis(1));
        }
        let at = clock.now();
        assert_eq!(g.fd.completed(), 1, "the short job never completed");
        assert!(
            at <= finish + slack(&clock),
            "harvested {} late",
            at.since(finish)
        );
    }

    /// Regression: a beat round sent its telemetry before the outbox, so
    /// AppSpector refused the samples of jobs whose `RegisterJob` was in
    /// that outbox. The first round after a restart is such a round for
    /// every restored job, whose first sample came a beat late.
    #[test]
    fn a_restored_job_shows_its_first_beats_sample() {
        let dir = scratch("restored-sample");
        let opts = FdOptions {
            store: Some(dir.clone()),
            ..FdOptions::default()
        };
        let clock = Clock::new(100.0);
        let g = grid(&clock, 34, 64, opts.clone());
        confirm(&g, &award_of(&g, JobId(1), 36_000.0, clock.now()));
        let Grid { fs, fd, token, .. } = g;
        fd.kill();
        // An AppSpector that never heard of the job.
        let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();
        let restarted = clock.now();
        let fd = spawn_turing(&clock, 64, fs.service.addr, aspect.service.addr, opts);
        let watch = Request::Watch {
            token,
            job: JobId(1),
        };
        let until = std::time::Instant::now() + Duration::from_secs(10);
        let first = loop {
            if let Ok(Response::Snapshot(snap)) = call(aspect.service.addr, &watch) {
                if let Some(sample) = snap.samples.first() {
                    break sample.at;
                }
            }
            assert!(std::time::Instant::now() < until, "no sample arrived");
            std::thread::sleep(Duration::from_millis(5));
        };
        assert!(
            first.since(restarted) < HEARTBEAT_EVERY,
            "the first sample is from {first}, a beat after the restart at {restarted}"
        );
        drop(fd);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
