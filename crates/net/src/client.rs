//! The Faucets client library (the command-line/GUI client of §2, minus
//! pixels).
//!
//! Implements the full §2 submission walkthrough: authenticate to the FS,
//! fetch the matching Compute Servers, solicit bids from each FD, evaluate
//! them under a [`SelectionPolicy`], award the winner (falling back to the
//! runner-up if the daemon reneges — the two-phase protocol of §5.3),
//! stage input files, then monitor the job and download outputs through
//! AppSpector.
//!
//! The negotiation's decisions are [`faucets_core::market::round`]'s, as
//! in the simulator; this file keeps the wire: which answer is a bid, a
//! failed award, or a peer that could not answer at all.
//!
//! ## Recovery
//!
//! Every wire interaction goes through [`call_with`] under the client's
//! [`RetryPolicy`], so transient drops and stalls are absorbed by bounded
//! backoff. A daemon that dies *mid-negotiation* (transport failure on
//! award or staging) costs only its bid: the client goes on down the
//! slate, and when it is spent, or a round drew no offer, solicits anew
//! (the FS will have graded a dead daemon suspect by then). A bid naming a
//! server the listing lacks is skipped, never awarded.
//!
//! ## Overload
//!
//! A peer answering [`Response::Overloaded`] is healthy but saturated:
//! the client counts it as "no bid this round" (never as evidence the
//! daemon is dead), keeps its per-peer circuit breakers
//! ([`FaucetsClient::breakers`]) closed, and rides it out exactly like a
//! transient drop everywhere else.

use crate::overload::BreakerSet;
use crate::pool::{ConnPool, PoolConfig};
use crate::proto::{Request, Response};
use crate::service::{call_many, call_with, CallOptions, Clock, RetryPolicy};
use faucets_core::appspector::MonitorSnapshot;
use faucets_core::auth::SessionToken;
use faucets_core::bid::{Bid, BidRequest};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::market::round::{self, Negotiation};
use faucets_core::market::SelectionPolicy;
use faucets_core::money::Money;
use faucets_core::qos::QosContract;
use faucets_sim::time::SimTime;
use faucets_telemetry::trace::{self, TraceId};
use faucets_telemetry::Counter;
use std::collections::HashMap;
use std::fmt;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Everything that can go wrong on the client side of the §2 walkthrough.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The network failed (connect, send, receive) after all retries.
    Transport(String),
    /// The peer answered, but not with the expected response kind.
    Protocol(String),
    /// The FS rejected the operation (bad credentials, expired token, …).
    Rejected(String),
    /// No Compute Server matched the job's QoS.
    NoMatchingServers,
    /// No matching server made an offer the client takes: each declined,
    /// was busy, or bid what the selection policy refuses.
    AllDeclined {
        /// How many servers were solicited.
        solicited: usize,
    },
    /// Every negotiation round ended with all awards reneged or dead.
    NegotiationExhausted {
        /// Rounds attempted (each round = match + bid + award sweep).
        rounds: u32,
    },
    /// A watched job did not complete within the caller's deadline.
    TimedOut(JobId),
    /// The peer (or a tripped local circuit breaker) refused the call
    /// because it is saturated. Busy, not dead: treated as transient.
    Overloaded,
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport failure: {e}"),
            ClientError::Protocol(e) => write!(f, "unexpected reply: {e}"),
            ClientError::Rejected(e) => write!(f, "rejected: {e}"),
            ClientError::NoMatchingServers => write!(f, "no matching Compute Servers"),
            ClientError::AllDeclined { solicited } => {
                write!(f, "no acceptable offer from {solicited} Compute Servers")
            }
            ClientError::NegotiationExhausted { rounds } => {
                write!(f, "every award failed across {rounds} rounds")
            }
            ClientError::TimedOut(j) => write!(f, "timed out waiting for {j}"),
            ClientError::Overloaded => write!(f, "peer overloaded; retry later"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        if crate::proto::is_overload_error(&e) {
            ClientError::Overloaded
        } else {
            ClientError::Transport(e.to_string())
        }
    }
}

/// A successfully placed job.
#[derive(Debug, Clone, PartialEq)]
pub struct Submission {
    /// The job id (client-assigned, grid-unique per client).
    pub job: JobId,
    /// The winning Compute Server.
    pub cluster: ClusterId,
    /// The contracted price.
    pub price: Money,
    /// The completion the cluster promised.
    pub promised_completion: SimTime,
    /// How many servers bid (in the final, successful round).
    pub bids_received: usize,
    /// Negotiation rounds needed (1 = no daemon died on us).
    pub rounds: u32,
}

/// First inter-poll delay of [`FaucetsClient::wait`].
const WAIT_INITIAL: Duration = Duration::from_millis(5);
/// Largest inter-poll delay; the schedule clamps here forever after.
const WAIT_CAP: Duration = Duration::from_millis(250);

/// Poll pacing for [`FaucetsClient::wait`]: the delay following `prev`,
/// doubling from [`WAIT_INITIAL`] to a hard [`WAIT_CAP`].
///
/// The old fixed 10 ms poll was fine for one interactive client, but
/// thousands of concurrently-waiting virtual users (the load harness)
/// would hammer AppSpector into its own overload gate with pure polling
/// traffic. Backoff keeps the first poll fast (short jobs still complete
/// in one or two polls) while long waits settle at the cap per probe.
fn next_pause(prev: Duration) -> Duration {
    prev.checked_mul(2)
        .unwrap_or(WAIT_CAP)
        .clamp(WAIT_INITIAL, WAIT_CAP)
}

/// A connected, authenticated Faucets client.
pub struct FaucetsClient {
    fs: SocketAddr,
    appspector: SocketAddr,
    clock: Clock,
    /// Alternative FS endpoints (federated shards). On a transport failure
    /// talking to the FS the client rotates to the next one — sticky: the
    /// endpoint that answered stays primary until it fails in turn.
    pub fs_fallbacks: Vec<SocketAddr>,
    /// Stored at login so the client can re-authenticate by itself when
    /// its session dies with the shard that minted it.
    credentials: Option<(String, String)>,
    /// The session token (§2.2: embedded in every FD interaction).
    pub token: SessionToken,
    /// The authenticated user.
    pub user: UserId,
    /// How bids are evaluated.
    pub selection: SelectionPolicy,
    /// Transport retry policy applied to every call.
    pub retry: RetryPolicy,
    /// Per-peer circuit breakers applied to every call (default on). An
    /// [`Response::Overloaded`] answer counts as a breaker *success*, so
    /// a healthy-but-busy cluster is never fast-failed.
    pub breakers: Arc<BreakerSet>,
    /// Persistent connection pool applied to every call (default on): the
    /// FS, each FD, and AppSpector are all talked to over warm,
    /// health-checked sockets instead of a fresh connect per request.
    pub pool: Arc<ConnPool>,
    /// Peers in flight at once in a bid-solicitation sweep
    /// ([`crate::service::call_many`]); no thread is spawned for them.
    pub fan_out: usize,
    /// Optional wall-clock budget per call: stamped on the wire as
    /// `deadline_ms` (so servers can shed doomed work) and capping the
    /// retry loop's total backoff.
    pub call_deadline: Option<Duration>,
    /// The trace id of the most recent [`FaucetsClient::submit`] call, for
    /// reconstructing that job's end-to-end path from the span log.
    pub last_trace: Option<TraceId>,
    next_job: u64,
    m_rounds: Counter,
    m_bids: Counter,
    m_awards: Counter,
    m_resolicits: Counter,
    m_overloaded: Counter,
    m_failovers: Counter,
}

impl FaucetsClient {
    /// Create an account and log in.
    pub fn register(
        fs: SocketAddr,
        appspector: SocketAddr,
        clock: Clock,
        name: &str,
        password: &str,
    ) -> Result<Self, ClientError> {
        let pool = Arc::new(ConnPool::new("client", PoolConfig::default()));
        match call_with(
            fs,
            &Request::CreateUser {
                user: name.into(),
                password: password.into(),
            },
            // No retry or breaker before there is a session.
            &CallOptions {
                pool: Some(Arc::clone(&pool)),
                ..CallOptions::default()
            },
        ) {
            Ok(Response::Verified { .. }) => {}
            Ok(Response::Error(e)) => return Err(ClientError::Rejected(e)),
            Ok(other) => {
                return Err(ClientError::Protocol(format!(
                    "account creation: {other:?}"
                )))
            }
            Err(e) => return Err(e.into()),
        }
        Self::login_on(pool, fs, appspector, clock, name, password)
    }

    /// Log in to an existing account.
    pub fn login(
        fs: SocketAddr,
        appspector: SocketAddr,
        clock: Clock,
        name: &str,
        password: &str,
    ) -> Result<Self, ClientError> {
        let pool = Arc::new(ConnPool::new("client", PoolConfig::default()));
        Self::login_on(pool, fs, appspector, clock, name, password)
    }

    /// Log in through `pool`, made before the first call so that the socket
    /// which carries the login is the one the session keeps.
    fn login_on(
        pool: Arc<ConnPool>,
        fs: SocketAddr,
        appspector: SocketAddr,
        clock: Clock,
        name: &str,
        password: &str,
    ) -> Result<Self, ClientError> {
        match call_with(
            fs,
            &Request::Login {
                user: name.into(),
                password: password.into(),
            },
            // No retry or breaker before there is a session.
            &CallOptions {
                pool: Some(Arc::clone(&pool)),
                ..CallOptions::default()
            },
        ) {
            Ok(Response::Session { user, token }) => {
                let reg = faucets_telemetry::global();
                Ok(FaucetsClient {
                    fs,
                    appspector,
                    clock,
                    fs_fallbacks: vec![],
                    credentials: Some((name.into(), password.into())),
                    token,
                    user,
                    selection: SelectionPolicy::LeastCost,
                    retry: RetryPolicy::standard(user.raw()),
                    breakers: Arc::new(BreakerSet::default()),
                    pool,
                    fan_out: 8,
                    call_deadline: None,
                    last_trace: None,
                    next_job: (user.raw() << 32) + 1,
                    m_rounds: reg.counter("client_negotiation_rounds_total", &[]),
                    m_bids: reg.counter("client_bids_received_total", &[]),
                    m_awards: reg.counter("client_awards_confirmed_total", &[]),
                    m_resolicits: reg.counter("client_resolicitations_total", &[]),
                    m_overloaded: reg.counter("client_bids_overloaded_total", &[]),
                    m_failovers: reg.counter("client_fs_failovers_total", &[]),
                })
            }
            Ok(Response::Error(e)) => Err(ClientError::Rejected(e)),
            Ok(other) => Err(ClientError::Protocol(format!("login: {other:?}"))),
            Err(e) => Err(e.into()),
        }
    }

    fn opts(&self) -> CallOptions {
        CallOptions {
            retry: self.retry,
            deadline: self.call_deadline,
            breakers: Some(Arc::clone(&self.breakers)),
            pool: Some(Arc::clone(&self.pool)),
            ..CallOptions::default()
        }
    }

    fn call(&self, addr: SocketAddr, req: &Request) -> Result<Response, ClientError> {
        call_with(addr, req, &self.opts()).map_err(ClientError::from)
    }

    /// Call the FS, rotating through [`FaucetsClient::fs_fallbacks`] on
    /// transport failure. The rotation is sticky: the endpoint that
    /// answers becomes (or stays) the primary, so a healthy endpoint is
    /// not re-probed through a dead one on every call.
    fn fs_call(&mut self, req: &Request, opts: &CallOptions) -> Result<Response, ClientError> {
        // Every endpoint gets one try; a full sweep of failures rotates
        // all the way round, back to the endpoint it started from.
        let mut tries_left = self.fs_fallbacks.len();
        loop {
            let result = call_with(self.fs, req, opts).map_err(ClientError::from);
            if !matches!(result, Err(ClientError::Transport(_))) || self.fs_fallbacks.is_empty() {
                return result;
            }
            let next = self.fs_fallbacks.remove(0);
            self.fs_fallbacks
                .push(std::mem::replace(&mut self.fs, next));
            self.m_failovers.inc();
            if tries_left == 0 {
                return result;
            }
            tries_left -= 1;
        }
    }

    /// Re-authenticate after the session died (typically with the shard
    /// that minted it). Logs in at the current FS; if the account itself
    /// lived on the dead shard, re-creates it there first.
    fn relogin(&mut self, opts: &CallOptions) -> Result<(), ClientError> {
        let Some((name, password)) = self.credentials.clone() else {
            return Err(ClientError::Rejected("no stored credentials".into()));
        };
        let login_req = Request::Login {
            user: name.clone(),
            password: password.clone(),
        };
        let resp = match self.fs_call(&login_req, opts)? {
            Response::Error(_) => {
                // Accounts are shard-local: ours is gone with its shard.
                // Re-create it at the surviving FS and log in again.
                let create = Request::CreateUser {
                    user: name,
                    password,
                };
                match self.fs_call(&create, opts)? {
                    Response::Verified { .. } | Response::Error(_) => {
                        self.fs_call(&login_req, opts)?
                    }
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "account recovery: {other:?}"
                        )))
                    }
                }
            }
            resp => resp,
        };
        match resp {
            Response::Session { user, token } => {
                self.user = user;
                self.token = token;
                Ok(())
            }
            Response::Error(e) => Err(ClientError::Rejected(e)),
            other => Err(ClientError::Protocol(format!("re-login: {other:?}"))),
        }
    }

    /// Submit a job: match → bid → select → award (with runner-up fallback)
    /// → stage inputs; solicits bids afresh when the slate is spent or the
    /// round drew no offer, up to [`round::MAX_ROUNDS`] rounds.
    pub fn submit(
        &mut self,
        qos: QosContract,
        inputs: &[(String, Vec<u8>)],
    ) -> Result<Submission, ClientError> {
        let job = JobId(self.next_job);
        self.next_job += 1;
        // Root span for the whole submission: every FS/FD/AS call below
        // inherits this trace, so the job's path across the grid can be
        // reconstructed from the span log afterwards.
        let span = trace::span("client", "submit");
        self.last_trace = Some(span.trace());
        let mut negotiation = Negotiation::default();
        let mut last: Option<ClientError> = None;
        while negotiation.next_round() {
            self.m_rounds.inc();
            if negotiation.rounds() > 1 {
                self.m_resolicits.inc();
            }
            match self.negotiate_once(job, &qos, inputs, &mut negotiation) {
                Ok(sub) => return Ok(sub),
                // Hard failures that another round cannot fix.
                Err(e @ (ClientError::Rejected(_) | ClientError::Protocol(_))) => return Err(e),
                // The FS was not reached, or too busy to answer.
                Err(e @ (ClientError::Transport(_) | ClientError::Overloaded)) => {
                    negotiation.ask_again();
                    last = Some(e);
                }
                Err(e) => last = Some(e),
            }
        }
        // Distinguish "nobody ever bid" from "winners kept dying".
        match last {
            Some(e @ (ClientError::NoMatchingServers | ClientError::AllDeclined { .. })) => Err(e),
            _ => Err(ClientError::NegotiationExhausted {
                rounds: negotiation.rounds(),
            }),
        }
    }

    /// One negotiation round: match, solicit, award down the slate.
    fn negotiate_once(
        &mut self,
        job: JobId,
        qos: &QosContract,
        inputs: &[(String, Vec<u8>)],
        negotiation: &mut Negotiation,
    ) -> Result<Submission, ClientError> {
        let now = self.clock.now();
        // One set of call options for the whole round.
        let opts = self.opts();

        // 1. Matching servers from the FS. A rejection here may mean the
        // session died with the shard that minted it (the failover path
        // just rotated us to a survivor): re-authenticate once and retry
        // before giving up.
        let list = |client: &mut Self| {
            let req = Request::ListServers {
                token: client.token.clone(),
                qos: qos.clone(),
            };
            client.fs_call(&req, &opts)
        };
        let mut reply = list(self)?;
        if let Response::Error(e) = &reply {
            self.relogin(&opts)
                .map_err(|_| ClientError::Rejected(e.clone()))?;
            reply = list(self)?;
        }
        let mut servers = match reply {
            Response::Servers(s) => s,
            Response::Error(e) => return Err(ClientError::Rejected(e)),
            other => return Err(ClientError::Protocol(format!("matching: {other:?}"))),
        };
        round::dedup_by_cluster(&mut servers, |s| s.info.cluster);
        if servers.is_empty() {
            // Listings follow heartbeats: a moment later may list some.
            negotiation.ask_again();
            return Err(ClientError::NoMatchingServers);
        }

        // 2. Request-for-bids to every matching FD — one sweep over warm
        // pooled connections ([`call_many`]: every request written before
        // the first reply is read, on this thread), so a round's
        // solicitation latency is the slowest daemon, not the sum of all
        // of them. A daemon that fails to answer contributes no bid. A
        // round without any offer earns another: a moment later a daemon
        // may be reachable, or less loaded.
        let addrs: Vec<SocketAddr> = servers
            .iter()
            .filter_map(|s| s.info.fd_socket_addr())
            .collect();
        let bid_req = Request::RequestBid {
            token: self.token.clone(),
            request: BidRequest {
                job,
                user: self.user,
                qos: qos.clone(),
                issued_at: now,
            },
        };
        let mut bids: Vec<Bid> = vec![];
        for reply in call_many(&addrs, &bid_req, &opts, self.fan_out.max(1)) {
            match reply {
                Ok(Response::BidReply(reply)) => bids.extend(reply.offer()),
                // A saturated daemon (an `Overloaded` answer arrives as the
                // typed error) is healthy but shedding: counted as such, not
                // as a decline (it never priced the job) nor as a death (the
                // breaker stays closed for busy clusters).
                Err(e) if crate::proto::is_overload_error(&e) => self.m_overloaded.inc(),
                _ => {}
            }
        }
        if bids.is_empty() {
            negotiation.ask_again();
        }
        self.m_bids.add(bids.len() as u64);
        let bids_received = bids.len();
        // A bid is the peer's claim: one naming a cluster this round's
        // listing does not hold is skipped, never awarded.
        let listed: HashMap<ClusterId, SocketAddr> = servers
            .iter()
            .filter_map(|s| Some((s.info.cluster, s.info.fd_socket_addr()?)))
            .collect();
        bids.retain(|b| listed.contains_key(&b.cluster));
        negotiation.offers(self.selection, &bids, &qos.payoff);

        // 3. Award down the slate, falling back on renege or daemon death.
        let spec = JobSpec::new(job, self.user, qos.clone(), now)
            .map_err(|e| ClientError::Rejected(format!("invalid QoS: {e}")))?;
        let tried = negotiation.attempts();
        while let Some(bid) = negotiation.next_award() {
            let addr = listed[&bid.cluster];
            let award = Request::Award {
                token: self.token.clone(),
                spec: spec.clone(),
                contract: ContractId(job.raw()),
                bid,
            };
            match call_with(addr, &award, &opts) {
                Ok(Response::AwardReply {
                    confirmed: true, ..
                }) => {
                    self.m_awards.inc();
                    // 4. Stage input files. A daemon dying here is a
                    // mid-negotiation death: on to the next bid.
                    match self.stage_inputs(addr, job, inputs, &opts) {
                        Ok(()) => {}
                        Err(ClientError::Transport(_) | ClientError::Overloaded) => continue,
                        Err(e) => return Err(e),
                    }
                    return Ok(Submission {
                        job,
                        cluster: bid.cluster,
                        price: bid.price,
                        promised_completion: bid.promised_completion,
                        bids_received,
                        rounds: negotiation.rounds(),
                    });
                }
                // A renege, an error (the daemon could not reach the FS to
                // re-verify us, say), a daemon busy or dead: each costs
                // only its bid.
                Ok(Response::AwardReply { .. } | Response::Error(_)) | Err(_) => {}
                Ok(other) => return Err(ClientError::Protocol(format!("award: {other:?}"))),
            }
        }
        Err(if negotiation.attempts() == tried {
            ClientError::AllDeclined {
                solicited: servers.len(),
            }
        } else {
            ClientError::NegotiationExhausted {
                rounds: negotiation.rounds(),
            }
        })
    }

    fn stage_inputs(
        &self,
        addr: SocketAddr,
        job: JobId,
        inputs: &[(String, Vec<u8>)],
        opts: &CallOptions,
    ) -> Result<(), ClientError> {
        for (name, data) in inputs {
            let upload = Request::UploadFile {
                token: self.token.clone(),
                job,
                name: name.clone(),
                data: data.clone(),
            };
            match call_with(addr, &upload, opts)? {
                Response::Ok => {}
                Response::Error(e) => {
                    return Err(ClientError::Rejected(format!("staging '{name}': {e}")))
                }
                other => {
                    return Err(ClientError::Protocol(format!(
                        "staging '{name}': {other:?}"
                    )))
                }
            }
        }
        Ok(())
    }

    /// Fetch the current monitoring snapshot for a job.
    pub fn watch(&mut self, job: JobId) -> Result<MonitorSnapshot, ClientError> {
        match self.call(
            self.appspector,
            &Request::Watch {
                token: self.token.clone(),
                job,
            },
        )? {
            Response::Snapshot(s) => Ok(s),
            Response::Error(e) => Err(ClientError::Rejected(e)),
            other => Err(ClientError::Protocol(format!("watch: {other:?}"))),
        }
    }

    /// Poll AppSpector until the job completes (or `timeout` wall time).
    /// Transient transport failures while polling are ridden out until the
    /// deadline — a daemon restart mid-wait looks like a long poll, not an
    /// error. Polls pace out exponentially (5 ms doubling to a 250 ms
    /// cap), never sleeping past the deadline itself.
    pub fn wait(&mut self, job: JobId, timeout: Duration) -> Result<MonitorSnapshot, ClientError> {
        let deadline = Instant::now() + timeout;
        let mut pause = next_pause(Duration::ZERO);
        loop {
            match self.watch(job) {
                Ok(snap) if snap.completed => return Ok(snap),
                Ok(_) | Err(ClientError::Transport(_) | ClientError::Overloaded) => {}
                Err(e) => return Err(e),
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(ClientError::TimedOut(job));
            }
            std::thread::sleep(pause.min(deadline - now));
            pause = next_pause(pause);
        }
    }

    /// Fetch the AppSpector grid dashboard: every registered cluster's load
    /// plus per-service metrics snapshots.
    pub fn grid_view(&mut self) -> Result<faucets_core::appspector::GridView, ClientError> {
        match self.call(
            self.appspector,
            &Request::GridView {
                token: self.token.clone(),
            },
        )? {
            Response::Grid(g) => Ok(*g),
            Response::Error(e) => Err(ClientError::Rejected(e)),
            other => Err(ClientError::Protocol(format!("grid view: {other:?}"))),
        }
    }

    /// Download one output file of a completed job.
    pub fn download(&mut self, job: JobId, name: &str) -> Result<Vec<u8>, ClientError> {
        match self.call(
            self.appspector,
            &Request::Download {
                token: self.token.clone(),
                job,
                name: name.into(),
            },
        )? {
            Response::File { data, .. } => Ok(data),
            Response::Error(e) => Err(ClientError::Rejected(e)),
            other => Err(ClientError::Protocol(format!("download: {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{next_pause, FaucetsClient, WAIT_CAP, WAIT_INITIAL};
    use crate::service::Clock;
    use std::time::Duration;

    #[test]
    fn the_socket_that_logs_in_is_the_one_the_session_keeps() {
        let fs = crate::fs::spawn_fs("127.0.0.1:0", Clock::realtime(), 5).unwrap();
        let addr = fs.service.addr;
        // No AppSpector is asked anything before a submission.
        let client = FaucetsClient::register(addr, addr, Clock::realtime(), "u", "p").unwrap();
        assert_eq!(
            (client.pool.open_connections(), client.pool.idle_count()),
            (1, 1),
            "CreateUser and Login rode one dial, warm for the first ListServers"
        );
        fs.shutdown();
    }

    #[test]
    fn wait_backoff_doubles_to_cap() {
        let mut p = next_pause(Duration::ZERO);
        assert_eq!(p, WAIT_INITIAL, "first pause is the floor");
        let mut schedule = vec![p];
        for _ in 0..8 {
            p = next_pause(p);
            schedule.push(p);
        }
        assert!(
            schedule.windows(2).all(|w| w[1] >= w[0]),
            "monotone: {schedule:?}"
        );
        assert_eq!(*schedule.last().unwrap(), WAIT_CAP, "settles at the cap");
        assert_eq!(next_pause(WAIT_CAP), WAIT_CAP, "cap is absorbing");
    }
}
