//! The four workloads: what one op is, how it is checked, and the same
//! work driven stage by stage under harness spans for the traced run.

use crate::grid::{self, Grid};
use crate::loadgen::{Op, Outcome, SplitMix};
use crate::tracer::Tracer;
use faucets_core::auth::SessionToken;
use faucets_core::bid::{Bid, BidRequest};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::qos::QosContract;
use faucets_grid::workload::ArrivalProcess;
use faucets_load::schedule::{snappy_mix, ClassSpec, Schedule, ScheduleConfig};
use faucets_net::client::FaucetsClient;
use faucets_net::fd::FdOptions;
use faucets_net::overload::BreakerSet;
use faucets_net::pool::{ConnPool, MuxConfig, MuxPool, PoolConfig};
use faucets_net::proto::{Request, Response};
use faucets_net::service::{
    call_batch, call_many, call_with, serve_with, CallOptions, RetryPolicy, ServeOptions,
    ServiceHandle,
};
use faucets_sim::time::{SimDuration, SimTime};
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every op carries this client deadline, so a wedged op is a counted
/// failure and never a hang.
pub const OP_DEADLINE: Duration = Duration::from_secs(2);
/// Requests per `rpc_pipelined` op.
pub const BATCH: usize = 64;

/// The frozen per-workload knobs, calibrated once on the seed commit. The
/// paced rate is a quarter of the saturation throughput the seed reached
/// in the sandbox's fast spells: the sandbox slows down by up to half for
/// minutes at a time, and a paced phase must stay well under saturation
/// then too, or it measures its own backlog. The latency limit is about
/// five times the seed's paced tail latency.
#[derive(Debug, Clone, Copy)]
pub struct Knobs {
    pub name: &'static str,
    /// Offered rate of the paced phase, in units (requests or jobs) per
    /// second.
    pub rate_ops_s: f64,
    /// Latency limit on the paced phase's tail percentile.
    pub slo_ms: f64,
    /// Units per op: [`BATCH`] for `rpc_pipelined`, 1 elsewhere.
    pub units_per_op: u32,
}

pub const KNOBS: [Knobs; 4] = [
    Knobs {
        name: "rpc_pingpong",
        rate_ops_s: 10_000.0,
        slo_ms: 10.0,
        units_per_op: 1,
    },
    Knobs {
        name: "rpc_pipelined",
        rate_ops_s: 25_000.0,
        slo_ms: 25.0,
        units_per_op: BATCH as u32,
    },
    Knobs {
        name: "submit_mem",
        rate_ops_s: 300.0,
        slo_ms: 50.0,
        units_per_op: 1,
    },
    Knobs {
        name: "submit_repl",
        rate_ops_s: 180.0,
        slo_ms: 50.0,
        units_per_op: 1,
    },
];

pub fn knobs(name: &str) -> Option<Knobs> {
    KNOBS.iter().copied().find(|k| k.name == name)
}

/// One output check and what it saw.
#[derive(Debug, Clone, serde::Serialize, serde::Deserialize)]
pub struct Check {
    pub name: String,
    pub pass: bool,
    pub detail: String,
}

impl Check {
    fn new(name: &str, pass: bool, detail: String) -> Check {
        Check {
            name: name.into(),
            pass,
            detail,
        }
    }
}

/// A set-up workload: services running, ready to hand out caller ops.
pub trait Workload: Sync {
    /// A caller's op as a user issues it (what end-to-end numbers time).
    fn op(&self) -> Op<'_>;
    /// The same work under harness spans, stage by stage where the public
    /// API allows (traced run only).
    fn traced_op<'a>(&'a self, tracer: &'a mut Tracer) -> Op<'a>;
    /// The live grid behind a `submit_*` workload.
    fn grid(&self) -> Option<&Grid> {
        None
    }
    /// `rounds` sequential round trips of each kind of call the workload
    /// makes, one caller and one in flight, against the now idle services.
    fn probes(&self, rounds: usize) -> Probes;
    /// Drain, stop the services and check the outputs. `failed_units` is
    /// how many units the run counted as failed: with none, the services'
    /// books must equal the harness's; with some, they may hold more (an
    /// op that timed out at the client can still have been served).
    fn finish(self: Box<Self>, failed_units: u64) -> Vec<Check>;
}

/// What [`Workload::probes`] measured and captured.
pub struct Probes {
    /// Idle round-trip samples in µs, under the per-layer metric each
    /// feeds.
    pub rtts_us: Vec<(&'static str, Vec<f64>)>,
    /// The workload's most frequent request and the reply it drew: the
    /// frames the codec measurements run on.
    pub frames: (Request, Response),
    /// A contract from the job pool (`submit_*`).
    pub job: Option<QosContract>,
    /// A journaled `Accept` record as the FD wrote it (`submit_repl`).
    pub accept_record: Option<Vec<u8>>,
}

/// Time `call` in µs.
fn timed<T>(call: impl FnOnce() -> T) -> (T, f64) {
    let begun = Instant::now();
    let out = call();
    (out, begun.elapsed().as_secs_f64() * 1e6)
}

/// Spawn `name`'s services and run one op through a fresh caller, so
/// that the returned workload is known to serve. `tmp` holds journals.
pub fn setup(name: &str, seed: u64, tmp: &Path) -> std::io::Result<Box<dyn Workload>> {
    let w: Box<dyn Workload> = match name {
        "rpc_pingpong" => Box::new(Rpc::spawn(seed, false)?),
        "rpc_pipelined" => Box::new(Rpc::spawn(seed, true)?),
        "submit_mem" => Box::new(Submit::spawn(seed, None)?),
        "submit_repl" => Box::new(Submit::spawn(seed, Some(tmp))?),
        other => {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("unknown workload {other:?}"),
            ))
        }
    };
    let first = (w.op())(1 << 40);
    if first.failed > 0 {
        return Err(std::io::Error::other("the first op after set-up failed"));
    }
    Ok(w)
}

// ---------------------------------------------------------------------------
// rpc_pingpong / rpc_pipelined
// ---------------------------------------------------------------------------

/// The value the echo handler derives from a token, so that a reply
/// delivered to the wrong request is detected (FNV-1a).
fn token_digest(token: &str) -> u64 {
    token.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A session-token-shaped string (64 hex digits) determined by the seed
/// and the request's number.
fn token_for(seed: u64, n: u64) -> SessionToken {
    let mut rng = SplitMix(seed ^ n.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    SessionToken(format!(
        "{:016x}{:016x}{:016x}{:016x}",
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64(),
        rng.next_u64()
    ))
}

fn verified(reply: &std::io::Result<Response>, token: &SessionToken) -> bool {
    matches!(reply, Ok(Response::Verified { user }) if user.raw() == token_digest(&token.0))
}

struct Rpc {
    server: ServiceHandle,
    seed: u64,
    pipelined: bool,
    /// `rpc_pingpong` callers share the transport the services default to.
    call: CallOptions,
    wrong_replies: AtomicU64,
}

impl Rpc {
    fn spawn(seed: u64, pipelined: bool) -> std::io::Result<Rpc> {
        let server = serve_with(
            "127.0.0.1:0",
            "echo",
            ServeOptions::default(),
            |req| match req {
                Request::VerifyToken { token } => Response::Verified {
                    user: UserId(token_digest(&token.0)),
                },
                other => Response::Error(format!("echo cannot handle {}", other.endpoint())),
            },
        )?;
        Ok(Rpc {
            server,
            seed,
            pipelined,
            call: CallOptions {
                deadline: Some(OP_DEADLINE),
                ..FdOptions::default().call
            },
            wrong_replies: AtomicU64::new(0),
        })
    }

    /// One connection per pipelined caller.
    fn mux_options() -> CallOptions {
        CallOptions {
            deadline: Some(OP_DEADLINE),
            mux: Some(Arc::new(MuxPool::new(
                "bench",
                MuxConfig {
                    conns_per_peer: 1,
                    ..MuxConfig::default()
                },
            ))),
            ..CallOptions::default()
        }
    }

    fn batch(&self, ticket: u64) -> Vec<Request> {
        (0..BATCH as u64)
            .map(|i| Request::VerifyToken {
                token: token_for(self.seed, ticket * BATCH as u64 + i),
            })
            .collect()
    }

    fn grade_batch(&self, reqs: &[Request], replies: &[std::io::Result<Response>]) -> Outcome {
        let ok = reqs
            .iter()
            .zip(replies)
            .filter(|(req, reply)| match req {
                Request::VerifyToken { token } => {
                    let good = verified(reply, token);
                    if !good && reply.is_ok() {
                        self.wrong_replies.fetch_add(1, Ordering::Relaxed);
                    }
                    good
                }
                _ => false,
            })
            .count() as u32;
        Outcome {
            ok,
            failed: reqs.len() as u32 - ok,
        }
    }
}

impl Workload for Rpc {
    fn op(&self) -> Op<'_> {
        let addr = self.server.addr;
        if self.pipelined {
            let opts = Rpc::mux_options();
            Box::new(move |ticket| {
                let reqs = self.batch(ticket);
                self.grade_batch(&reqs, &call_batch(addr, &reqs, &opts))
            })
        } else {
            Box::new(move |ticket| {
                let req = Request::VerifyToken {
                    token: token_for(self.seed, ticket),
                };
                let reply = call_with(addr, &req, &self.call);
                self.grade_batch(std::slice::from_ref(&req), &[reply])
            })
        }
    }

    fn traced_op<'a>(&'a self, tracer: &'a mut Tracer) -> Op<'a> {
        let addr = self.server.addr;
        let opts = if self.pipelined {
            Rpc::mux_options()
        } else {
            self.call.clone()
        };
        Box::new(move |ticket| {
            tracer.begin_op(ticket);
            tracer.span("op", |t| {
                if self.pipelined {
                    let reqs = self.batch(ticket);
                    let replies = t.span("service.call_batch", |_| call_batch(addr, &reqs, &opts));
                    self.grade_batch(&reqs, &replies)
                } else {
                    let token = token_for(self.seed, ticket);
                    let req = Request::VerifyToken { token };
                    let reply = t.span("service.call_with", |_| call_with(addr, &req, &opts));
                    self.grade_batch(&[req], &[reply])
                }
            })
        })
    }

    fn probes(&self, rounds: usize) -> Probes {
        let token = token_for(self.seed, 0);
        let req = Request::VerifyToken {
            token: token.clone(),
        };
        let mut rtts = Vec::with_capacity(rounds);
        for _ in 0..rounds {
            let (reply, us) = timed(|| call_with(self.server.addr, &req, &self.call));
            if verified(&reply, &token) {
                rtts.push(us);
            }
        }
        Probes {
            rtts_us: vec![("service.rtt_idle_us", rtts)],
            frames: (
                req,
                Response::Verified {
                    user: UserId(token_digest(&token.0)),
                },
            ),
            job: None,
            accept_record: None,
        }
    }

    fn finish(self: Box<Self>, _failed_units: u64) -> Vec<Check> {
        let wrong = self.wrong_replies.load(Ordering::Relaxed);
        self.server.shutdown();
        vec![Check::new(
            "replies_match_requests",
            wrong == 0,
            format!("{wrong} replies carried another request's value or variant"),
        )]
    }
}

// ---------------------------------------------------------------------------
// submit_mem / submit_repl
// ---------------------------------------------------------------------------

/// Added to both QoS deadlines when a job is re-anchored at its submit
/// instant: one simulated hour (6 wall seconds at the grid's speedup), so
/// that the 2 s client deadline — not a sim-time deadline overtaken by a
/// stall in the sandbox — is the only limit that can fail an op.
const DEADLINE_GRACE: SimDuration = SimDuration(3_600_000_000);

/// Distinct jobs in the pool ops cycle through.
const JOB_POOL: u64 = 4096;

struct Submit {
    grid: Grid,
    /// `(arrival instant in schedule time, contract)` from
    /// `load::schedule` over `snappy_mix`.
    jobs: Vec<(SimTime, QosContract)>,
    accounts: AtomicU64,
    /// Acknowledged submissions per FD (index = cluster id − 1).
    acked: [AtomicU64; grid::FDS as usize],
}

impl Submit {
    fn spawn(seed: u64, journal_root: Option<&Path>) -> std::io::Result<Submit> {
        let grid = grid::spawn(seed, journal_root)?;
        let schedule = Schedule::build(&ScheduleConfig {
            seed,
            users: 1,
            horizon: SimDuration::from_secs(JOB_POOL),
            classes: vec![ClassSpec {
                name: "snappy".into(),
                arrivals: ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_secs(1),
                },
                mix: snappy_mix(),
            }],
        });
        let jobs = schedule
            .entries
            .into_iter()
            .map(|e| (e.at, e.qos))
            .collect();
        Ok(Submit {
            grid,
            jobs,
            accounts: AtomicU64::new(0),
            acked: Default::default(),
        })
    }

    fn client(&self) -> FaucetsClient {
        let n = self.accounts.fetch_add(1, Ordering::Relaxed);
        let mut client = FaucetsClient::register(
            self.grid.fs.service.addr,
            self.grid.appspector.service.addr,
            self.grid.clock.clone(),
            &format!("bench-{n}"),
            "pw",
        )
        .expect("account registration on a fresh grid");
        client.call_deadline = Some(OP_DEADLINE);
        client
    }

    /// The ticket's job with its deadlines re-anchored at now.
    fn job(&self, ticket: u64) -> QosContract {
        let (at, qos) = &self.jobs[(ticket % self.jobs.len() as u64) as usize];
        let now = self.grid.clock.now();
        let mut qos = qos.clone();
        let rebase = |deadline: SimTime| {
            now.saturating_add(deadline.since(*at))
                .saturating_add(DEADLINE_GRACE)
        };
        qos.payoff.soft_deadline = rebase(qos.payoff.soft_deadline);
        qos.payoff.hard_deadline = rebase(qos.payoff.hard_deadline);
        qos
    }

    fn ack(&self, cluster: ClusterId) {
        self.acked[(cluster.raw() - 1) as usize].fetch_add(1, Ordering::Relaxed);
    }
}

fn fd_addr(info: &faucets_core::directory::ServerInfo) -> Option<SocketAddr> {
    format!("{}:{}", info.fd_addr, info.fd_port).parse().ok()
}

impl Workload for Submit {
    fn op(&self) -> Op<'_> {
        let mut client = self.client();
        Box::new(move |ticket| match client.submit(self.job(ticket), &[]) {
            Ok(sub) => {
                self.ack(sub.cluster);
                Outcome::ok(1)
            }
            Err(_) => Outcome::failed(1),
        })
    }

    /// One negotiation round of `FaucetsClient::submit`, issued through
    /// the same public call stack with one span per stage.
    fn traced_op<'a>(&'a self, tracer: &'a mut Tracer) -> Op<'a> {
        let client = self.client();
        let opts = CallOptions {
            retry: RetryPolicy::standard(client.user.raw()),
            deadline: Some(OP_DEADLINE),
            breakers: Some(Arc::new(BreakerSet::default())),
            pool: Some(Arc::new(ConnPool::new("client", PoolConfig::default()))),
            ..CallOptions::default()
        };
        let fs = self.grid.fs.service.addr;
        Box::new(move |ticket| {
            let qos = self.job(ticket);
            // Above the ids `FaucetsClient::submit` hands out for this user.
            let job = JobId((client.user.raw() << 32) + (1 << 31) + (ticket & 0x7fff_ffff));
            tracer.begin_op(ticket);
            tracer.span("op", |t| {
                let now = self.grid.clock.now();
                let listed = t.span("client.match", |_| {
                    call_with(
                        fs,
                        &Request::ListServers {
                            token: client.token.clone(),
                            qos: qos.clone(),
                        },
                        &opts,
                    )
                });
                let Ok(Response::Servers(servers)) = listed else {
                    return Outcome::failed(1);
                };
                let addrs: Vec<SocketAddr> =
                    servers.iter().filter_map(|s| fd_addr(&s.info)).collect();
                let bid_req = Request::RequestBid {
                    token: client.token.clone(),
                    request: BidRequest {
                        job,
                        user: client.user,
                        qos: qos.clone(),
                        issued_at: now,
                    },
                };
                let bids: Vec<Bid> = t
                    .span("client.solicit", |_| {
                        call_many(&addrs, &bid_req, &opts, client.fan_out)
                    })
                    .into_iter()
                    .filter_map(|r| match r {
                        Ok(Response::BidReply(reply)) => reply.offer().copied(),
                        _ => None,
                    })
                    .collect();
                let Ok(spec) = JobSpec::new(job, client.user, qos.clone(), now) else {
                    return Outcome::failed(1);
                };
                let ranked: Vec<Bid> = t.span("client.rank", |_| {
                    client
                        .selection
                        .rank(&bids, &qos.payoff)
                        .into_iter()
                        .copied()
                        .collect()
                });
                // Award down the list, as `submit` does: a daemon that
                // refuses the award (its journal under-replicated at that
                // instant, say) costs only its bid.
                let awarded = t.span("client.award", |_| {
                    ranked.iter().find_map(|bid| {
                        let server = servers.iter().find(|s| s.info.cluster == bid.cluster)?;
                        let award = call_with(
                            fd_addr(&server.info)?,
                            &Request::Award {
                                token: client.token.clone(),
                                spec: spec.clone(),
                                contract: ContractId(job.raw()),
                                bid: *bid,
                            },
                            &opts,
                        );
                        let confirmed = matches!(
                            award,
                            Ok(Response::AwardReply {
                                confirmed: true,
                                ..
                            })
                        );
                        confirmed.then_some(bid.cluster)
                    })
                });
                match awarded {
                    Some(cluster) => {
                        self.ack(cluster);
                        Outcome::ok(1)
                    }
                    None => Outcome::failed(1),
                }
            })
        })
    }

    fn grid(&self) -> Option<&Grid> {
        Some(&self.grid)
    }

    fn probes(&self, rounds: usize) -> Probes {
        let client = self.client();
        let opts = CallOptions {
            deadline: Some(OP_DEADLINE),
            pool: Some(Arc::new(ConnPool::new("probe", PoolConfig::default()))),
            ..CallOptions::default()
        };
        let (fs, appspector) = (self.grid.fs.service.addr, self.grid.appspector.service.addr);
        let fd = &self.grid.fds[0];
        let token = client.token.clone();
        let (mut verify, mut list, mut bid_rtt, mut award, mut register, mut watch) =
            (vec![], vec![], vec![], vec![], vec![], vec![]);
        let mut frames = None;
        for i in 0..rounds as u64 {
            let qos = self.job(i);
            let job = JobId((client.user.raw() << 32) + (1 << 30) + i);
            let now = self.grid.clock.now();
            let (r, us) = timed(|| {
                call_with(
                    fs,
                    &Request::VerifyToken {
                        token: token.clone(),
                    },
                    &opts,
                )
            });
            if matches!(r, Ok(Response::Verified { .. })) {
                verify.push(us);
            }
            let list_req = Request::ListServers {
                token: token.clone(),
                qos: qos.clone(),
            };
            let (r, us) = timed(|| call_with(fs, &list_req, &opts));
            if matches!(r, Ok(Response::Servers(_))) {
                list.push(us);
            }
            let bid_req = Request::RequestBid {
                token: token.clone(),
                request: BidRequest {
                    job,
                    user: client.user,
                    qos: qos.clone(),
                    issued_at: now,
                },
            };
            let (r, us) = timed(|| call_with(fd.service.addr, &bid_req, &opts));
            let Ok(reply @ Response::BidReply(_)) = r else {
                continue;
            };
            let Response::BidReply(offer) = &reply else {
                continue;
            };
            let Some(bid) = offer.offer().copied() else {
                continue;
            };
            bid_rtt.push(us);
            frames = Some((bid_req, reply));
            let Ok(spec) = JobSpec::new(job, client.user, qos, now) else {
                continue;
            };
            let award_req = Request::Award {
                token: token.clone(),
                spec,
                contract: ContractId(job.raw()),
                bid,
            };
            let (r, us) = timed(|| call_with(fd.service.addr, &award_req, &opts));
            if !matches!(
                r,
                Ok(Response::AwardReply {
                    confirmed: true,
                    ..
                })
            ) {
                continue;
            }
            self.ack(bid.cluster);
            award.push(us);
            // The FD registered `job` with AppSpector while confirming;
            // the harness registers a second, never-run id to time the
            // call the FD makes.
            let register_req = Request::RegisterJob {
                job: JobId(job.raw() + (1 << 29)),
                owner: client.user,
                cluster: fd.cluster_id,
            };
            let (r, us) = timed(|| call_with(appspector, &register_req, &opts));
            if matches!(r, Ok(Response::Ok)) {
                register.push(us);
            }
            let watch_req = Request::Watch {
                token: token.clone(),
                job,
            };
            let (r, us) = timed(|| call_with(appspector, &watch_req, &opts));
            if matches!(r, Ok(Response::Snapshot(_))) {
                watch.push(us);
            }
        }
        let accept_record = self.grid.journals.first().and_then(|dir| {
            let scan = faucets_store::scan_dir(dir).ok()??;
            scan.records
                .into_iter()
                .find(|r| r.starts_with(b"{\"Accept\""))
        });
        Probes {
            rtts_us: vec![
                ("service.rtt_idle_us", verify.clone()),
                ("fs.verify_rtt_us", verify),
                ("fs.list_rtt_us", list),
                ("fd.bid_rtt_us", bid_rtt),
                ("fd.award_rtt_us", award),
                ("appspector.register_rtt_us", register),
                ("appspector.watch_rtt_us", watch),
            ],
            frames: frames.unwrap_or((
                Request::VerifyToken { token },
                Response::Error("no bid was offered to the probe".into()),
            )),
            job: Some(self.job(0)),
            accept_record,
        }
    }

    fn finish(self: Box<Self>, failed_units: u64) -> Vec<Check> {
        let Submit { grid, acked, .. } = *self;
        // With no failed op the books must match exactly; a failed op may
        // have been served after its client gave up.
        let agrees = |served: u64, acked: u64| {
            if failed_units == 0 {
                served == acked
            } else {
                served >= acked
            }
        };
        let acked: Vec<u64> = acked.iter().map(|a| a.load(Ordering::Relaxed)).collect();
        let mut checks = Vec::new();

        // Drain: the FD pumps run every accepted job to completion.
        let deadline = Instant::now() + Duration::from_secs(15);
        let completed = loop {
            let completed: Vec<u64> = grid.fds.iter().map(|f| f.completed()).collect();
            let done = completed.iter().zip(&acked).all(|(c, a)| c >= a);
            if done || Instant::now() >= deadline {
                break completed;
            }
            std::thread::sleep(Duration::from_millis(10));
        };
        checks.push(Check::new(
            "completed_equals_acked",
            completed.iter().zip(&acked).all(|(c, a)| agrees(*c, *a)),
            format!("completed per FD {completed:?}, acknowledged {acked:?}"),
        ));
        // Not a verdict on the outputs: the award handler files a contract
        // under `active_contracts` after handing its job to the scheduler,
        // so a job the pump completes in between leaves its entry behind.
        let stale: usize = grid.fds.iter().map(|f| f.active_contracts()).sum();
        checks.push(Check::new(
            "active_contracts_after_drain",
            true,
            format!("{stale} entries for jobs that have completed (informational)"),
        ));

        let Grid {
            fds,
            followers,
            journals,
            ..
        } = grid;
        for fd in fds {
            fd.shutdown();
        }
        for (i, dir) in journals.iter().enumerate() {
            let cluster = ClusterId(i as u64 + 1);
            checks.extend(journal_checks(dir, cluster, acked[i], &followers));
        }
        checks
    }
}

/// The part of an FD journal's snapshot the check reads: the contracts
/// that were accepted and not yet completed when it was taken. (The
/// snapshot's own type is private to the FD; other fields are skipped.)
#[derive(serde::Deserialize)]
struct JournalSnapshot {
    contracts: Vec<JournaledContract>,
}

/// Only counted; its fields are skipped.
#[derive(serde::Deserialize)]
struct JournaledContract {}

/// `submit_repl`: what is on disk after the run. Every acknowledged award
/// journaled an `Accept` before it was confirmed and a `Complete` when
/// its job finished; the journal compacts into a snapshot of the
/// contracts then outstanding. The log must read back whole, hold no
/// completion without its acceptance and (until the first compaction
/// discards history) an `Accept` for every acknowledged award, and the
/// followers must hold what the primary holds. An `Accept` left over is
/// within the loss contract: a commit the follower quorum missed is
/// refused to the client yet stays in the local log.
fn journal_checks(
    dir: &Path,
    cluster: ClusterId,
    acked: u64,
    followers: &[faucets_net::replica::ReplicaHandle],
) -> Vec<Check> {
    let scan = match faucets_store::scan_dir(dir) {
        Ok(Some(scan)) => scan,
        other => {
            return vec![Check::new(
                &format!("journal_readable.{cluster}"),
                false,
                format!("scan_dir: {other:?}"),
            )]
        }
    };
    let snapshot = std::fs::read(dir.join(format!("snap-{}.json", scan.generation)))
        .map_err(|e| e.to_string())
        .and_then(|bytes| {
            serde_json::from_slice::<JournalSnapshot>(&bytes).map_err(|e| e.to_string())
        });
    let live = scan.records.len() as u64;
    let kind = |tag: &[u8]| scan.records.iter().filter(|r| r.starts_with(tag)).count() as u64;
    let (accepts, completes) = (kind(b"{\"Accept\""), kind(b"{\"Complete\""));
    let carried = snapshot.as_ref().map_or(0, |s| s.contracts.len() as u64);
    let mut checks = vec![Check::new(
        &format!("journal_reads_back.{cluster}"),
        scan.damage.is_none()
            && snapshot.is_ok()
            && accepts + completes == live
            && completes <= carried + accepts
            && (scan.generation > 1 || accepts >= acked),
        format!(
            "generation {}: snapshot carries {carried} contracts, live log {accepts} Accept + \
             {completes} Complete of {live} records, {} accepted and never completed, for \
             {acked} acknowledged awards; damage {:?}, snapshot {:?}",
            scan.generation,
            (carried + accepts).saturating_sub(completes),
            scan.damage,
            snapshot.as_ref().map(|_| "read").map_err(String::as_str)
        ),
    )];
    let service = grid::repl_service(cluster);
    for (f, follower) in followers.iter().enumerate() {
        let pos = follower.position(&service);
        // A primary that never committed never contacted its followers.
        let caught_up = match pos {
            Some(p) => {
                (p.generation == scan.generation && p.acked == live)
                    || (scan.generation == 1 && live == 0 && p.acked == 0)
            }
            None => false,
        };
        checks.push(Check::new(
            &format!("follower{f}_caught_up.{cluster}"),
            caught_up,
            format!(
                "follower at {pos:?}, primary at generation {} with {live} records",
                scan.generation
            ),
        ));
    }
    checks
}
