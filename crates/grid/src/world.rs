//! The whole-grid discrete-event world (§5.4).
//!
//! Every entity of the Faucets system is an object here — the Central
//! Server, one Faucets Daemon + Cluster Manager per Compute Server, the
//! contract book, the ledger, the credit bank, AppSpector — and the
//! [`GridWorld`] dispatches the §2 protocol between them over the
//! `faucets-sim` engine: job arrival → server matching → request-for-bids →
//! bid evaluation → two-phase award → staging/queueing → adaptive execution
//! → completion, settlement, and monitoring.
//!
//! The market's decisions — which candidates, which slate, which award
//! next, how many rounds — are [`faucets_core::market::round`]'s, the same
//! ones the live client makes. The world keeps its own I/O: in-process
//! calls, the message counts, the award leg's latency, and the sim-only
//! inputs to a slate (maintenance windows, the §5.5.1 regulator, §5.5.2 SU
//! quotas). A renege awards the runner-up one latency later; a job is
//! solicited again only when its slate is spent.

use crate::workload::Workload;
use faucets_core::accounting::{AccountId, Ledger};
use faucets_core::appspector::{AppSpector, OutputFile, TelemetrySample};
use faucets_core::auth::SessionToken;
use faucets_core::barter::{BarterRoute, CreditBank};
use faucets_core::bid::{Bid, BidRequest};
use faucets_core::daemon::{AwardOutcome, ClusterManager, FaucetsDaemon};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::market::round::{self, Negotiation};
use faucets_core::market::{ContractBook, ContractRecord, Regulator, SelectionPolicy};
use faucets_core::money::{Money, ServiceUnits};
use faucets_core::quota::SuQuota;
use faucets_core::server::FaucetsServer;
use faucets_sched::adaptive::CheckpointCostModel;
use faucets_sched::cluster::{Cluster, Completion};
use faucets_sim::engine::{Scheduler, World};
use faucets_sim::event::EventId;
use faucets_sim::stats::{P2Quantile, Summary};
use faucets_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

/// How jobs find their Compute Server.
#[derive(Debug, Clone)]
pub enum MarketMode {
    /// The Faucets market: request-for-bids, client-side selection (§5).
    Bidding(SelectionPolicy),
    /// The bartering economy: Home Cluster first, credit-gated overflow
    /// (§5.5.3).
    Barter,
    /// The pre-grid status quo: each user may submit only to the clusters
    /// they hold accounts on (the external-fragmentation strawman of §1).
    Restricted,
    /// The academic context (§5.5.2): the same market, but bids are SU
    /// multipliers charged against user quotas instead of Dollar amounts.
    ServiceUnits(SelectionPolicy),
}

/// One Compute Server: its daemon (market agent) and scheduler.
pub struct Node {
    /// The Faucets Daemon.
    pub daemon: FaucetsDaemon,
    /// The Cluster Manager.
    pub cluster: Cluster,
}

/// Events flowing through the grid simulation.
#[derive(Debug, Clone)]
pub enum GridEvent {
    /// The workload generator fires the next job submission.
    NextArrival,
    /// Phase-2 of the contract protocol reaches the chosen daemon.
    /// (Boxed: the spec dwarfs the other variants and events are numerous.)
    Award {
        /// The job being placed.
        spec: Box<JobSpec>,
        /// The awarded contract.
        contract: ContractId,
        /// The winning bid.
        bid: Bid,
    },
    /// A cluster's next completion is due.
    ClusterWake(ClusterId),
    /// Periodic FD → FS polling (and optional telemetry).
    Heartbeat,
    /// A transient hardware failure takes a machine down; running jobs
    /// restart from their last checkpoint (§3).
    NodeFailure(ClusterId),
    /// Scheduled maintenance: the machine is "about to be taken down";
    /// §1 — jobs are checkpointed "and moving \[them\] to another machine,
    /// if possible".
    Maintenance {
        /// The machine being drained.
        cluster: ClusterId,
        /// How long it stays down.
        window: SimDuration,
    },
    /// A Faucets Daemon process crashes, taking its Compute Server out of
    /// the market until recovery. With [`GridWorld::daemon_recovery`] on,
    /// the daemon's journaled contracts are parked and resumed at restart;
    /// off, every accepted-but-unfinished contract is lost — the sim twin
    /// of the `faucets-net` snapshot journal.
    ClusterFailure {
        /// The cluster whose daemon dies.
        cluster: ClusterId,
        /// How long the daemon stays down.
        downtime: SimDuration,
    },
    /// The crashed daemon restarts, re-registers, and (with recovery
    /// enabled) resubmits its parked contracts.
    ClusterRecovery(ClusterId),
    /// A migrated job's checkpoint image finishes transferring and the job
    /// enters the destination queue.
    MigrationArrive {
        /// The job (respec'd to its remaining work).
        spec: Box<JobSpec>,
        /// Its contract (unchanged — same client, same price).
        contract: ContractId,
        /// Contracted price.
        price: Money,
        /// Destination cluster.
        to: ClusterId,
        /// True for a real cross-cluster move (counted as a migration);
        /// false when the job merely waits out a window at its source.
        migrated: bool,
    },
}

impl GridEvent {
    /// Stable label for this event's kind, used as the `kind` label on the
    /// `sim_events_total` telemetry counter.
    pub fn kind(&self) -> &'static str {
        match self {
            GridEvent::NextArrival => "NextArrival",
            GridEvent::Award { .. } => "Award",
            GridEvent::ClusterWake(_) => "ClusterWake",
            GridEvent::Heartbeat => "Heartbeat",
            GridEvent::NodeFailure(_) => "NodeFailure",
            GridEvent::Maintenance { .. } => "Maintenance",
            GridEvent::ClusterFailure { .. } => "ClusterFailure",
            GridEvent::ClusterRecovery(_) => "ClusterRecovery",
            GridEvent::MigrationArrive { .. } => "MigrationArrive",
        }
    }
}

/// Telemetry for the grid world: the collector types the live TCP
/// services use, fed simulated quantities. `sim_response_seconds` and
/// `sim_wait_seconds` record each completion's response and wait in
/// *simulated* seconds (the outcome carries them), while
/// `net_request_seconds` on the live path stays in wall seconds.
pub struct SimInstruments {
    /// Per-kind `sim_events_total` handles, cached after first use.
    events: HashMap<&'static str, faucets_telemetry::Counter>,
    h_response: faucets_telemetry::Histogram,
    h_wait: faucets_telemetry::Histogram,
}

impl SimInstruments {
    /// Collectors registered on the process-global registry.
    pub fn new() -> Self {
        let reg = faucets_telemetry::global();
        SimInstruments {
            events: HashMap::new(),
            h_response: reg.histogram("sim_response_seconds", &[]),
            h_wait: reg.histogram("sim_wait_seconds", &[]),
        }
    }

    /// Count one dispatched event of `kind`.
    fn event(&mut self, kind: &'static str) {
        self.events
            .entry(kind)
            .or_insert_with(|| {
                faucets_telemetry::global().counter("sim_events_total", &[("kind", kind)])
            })
            .inc();
    }
}

impl Default for SimInstruments {
    fn default() -> Self {
        SimInstruments::new()
    }
}

/// Grid-level counters and quality metrics.
pub struct GridStats {
    /// Jobs submitted.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Jobs with no acceptable bid / no feasible server.
    pub rejected: u64,
    /// Barter submissions blocked by exhausted credits.
    pub blocked_credits: u64,
    /// Submissions blocked by exhausted SU quotas (§5.5.2).
    pub blocked_quota: u64,
    /// Total SUs charged to users.
    pub su_charged: ServiceUnits,
    /// Awards reneged by daemons (two-phase protocol).
    pub reneges: u64,
    /// Completions past the hard deadline.
    pub deadline_misses: u64,
    /// Response times (s).
    pub response: Summary,
    /// Wait times (s).
    pub wait: Summary,
    /// Bounded slowdowns.
    pub slowdown: Summary,
    /// p95 of bounded slowdown.
    pub slowdown_p95: P2Quantile,
    /// Protocol messages exchanged (RFBs, bids, awards, confirms,
    /// heartbeats).
    pub messages: u64,
    /// Total paid by clients at bid prices.
    pub paid_total: Money,
    /// Total payoff value realized by clients.
    pub payoff_total: Money,
    /// Per-user delivered service: (jobs completed, CPU-seconds of work).
    pub per_user: BTreeMap<UserId, (u64, f64)>,
    /// Machine failures injected.
    pub failures: u64,
    /// Jobs recovered from checkpoints after failures.
    pub jobs_recovered: u64,
    /// Jobs migrated between clusters.
    pub migrations: u64,
    /// Daemon crashes injected ([`GridEvent::ClusterFailure`]).
    pub daemon_failures: u64,
    /// Daemon restarts completed ([`GridEvent::ClusterRecovery`]).
    pub daemon_recoveries: u64,
    /// Contracts lost to daemon crashes (no-recovery runs only).
    pub jobs_lost: u64,
}

impl GridStats {
    /// Jain's fairness index over per-user delivered CPU-seconds (§5.5.4's
    /// "fair usage" check). 1.0 = perfectly even service.
    pub fn user_fairness(&self) -> f64 {
        let v: Vec<f64> = self.per_user.values().map(|&(_, cpu)| cpu).collect();
        crate::fairness::jain_index(&v)
    }
}

impl Default for GridStats {
    fn default() -> Self {
        GridStats {
            submitted: 0,
            completed: 0,
            rejected: 0,
            blocked_credits: 0,
            blocked_quota: 0,
            su_charged: ServiceUnits::ZERO,
            reneges: 0,
            deadline_misses: 0,
            response: Summary::new(),
            wait: Summary::new(),
            slowdown: Summary::new(),
            slowdown_p95: P2Quantile::new(0.95),
            messages: 0,
            paid_total: Money::ZERO,
            payoff_total: Money::ZERO,
            per_user: BTreeMap::new(),
            failures: 0,
            jobs_recovered: 0,
            migrations: 0,
            daemon_failures: 0,
            daemon_recoveries: 0,
            jobs_lost: 0,
        }
    }
}

/// Per-job bookkeeping: where a market job's negotiation stands, and what
/// settlement needs at completion.
#[derive(Debug, Clone)]
struct JobInfo {
    user: UserId,
    cpu_seconds: f64,
    min_pes: u32,
    /// The awarded bid's multiplier.
    multiplier: f64,
    negotiation: Negotiation,
}

impl JobInfo {
    fn new(spec: &JobSpec) -> Self {
        JobInfo {
            user: spec.user,
            cpu_seconds: spec.qos.cpu_seconds(1.0), // work is CPU-seconds in all scenarios
            min_pes: spec.qos.min_pes,
            multiplier: 0.0,
            negotiation: Negotiation::default(),
        }
    }
}

/// Transient-failure injection parameters (§3 recovery).
#[derive(Debug, Clone)]
pub struct FailureModel {
    /// Mean time between failures per machine.
    pub mtbf: SimDuration,
    /// Periodic checkpoint interval (progress since the last checkpoint is
    /// lost on failure).
    pub checkpoint_interval: SimDuration,
    /// Seed for the failure process.
    pub seed: u64,
}

/// The complete Faucets grid as a simulated world.
pub struct GridWorld {
    /// The Central Server.
    pub server: FaucetsServer,
    /// Compute Servers by id.
    pub nodes: BTreeMap<ClusterId, Node>,
    /// All QoS contracts.
    pub book: ContractBook,
    /// The Dollar ledger (users, clusters, system).
    pub ledger: Ledger<Money>,
    /// The bartering bank (present in barter scenarios).
    pub bank: Option<CreditBank>,
    /// SU quota bank (present in ServiceUnits scenarios).
    pub quota: Option<SuQuota>,
    /// Job monitoring.
    pub appspector: AppSpector,
    /// Placement mode.
    pub mode: MarketMode,
    /// One-way latency budget for the award leg of the protocol.
    pub market_latency: SimDuration,
    /// FD polling period.
    pub heartbeat_every: SimDuration,
    /// Whether to push telemetry samples on heartbeats.
    pub telemetry: bool,
    /// Per-user allowed clusters (Restricted mode).
    pub accounts: HashMap<UserId, Vec<ClusterId>>,
    /// Counters.
    pub stats: GridStats,
    /// The workload source.
    pub workload: Workload,
    token: SessionToken,
    jobs: HashMap<JobId, JobInfo>,
    armed_wakes: HashMap<ClusterId, (EventId, SimTime)>,
    /// The pre-drawn spec for the scheduled NextArrival event.
    pending_spec: Option<JobSpec>,
    next_job_id: u64,
    /// Failure injection, when enabled.
    pub failure_model: Option<FailureModel>,
    failure_rng: StdRng,
    /// Whether maintenance drains migrate work to other clusters (vs. wait).
    pub migrate_on_maintenance: bool,
    /// Optional §5.5.1 price-band regulator applied to every bid slate.
    pub regulator: Option<Regulator>,
    /// Bids screened out (or clamped) by the regulator.
    pub regulated_bids: u64,
    /// Scheduled maintenance windows: (cluster, start, duration).
    pub maintenance_plan: Vec<(ClusterId, SimTime, SimDuration)>,
    /// Scheduled daemon crashes: (cluster, start, downtime).
    pub daemon_outage_plan: Vec<(ClusterId, SimTime, SimDuration)>,
    /// Whether crashed daemons resume their journaled contracts at restart
    /// (the sim twin of the `faucets-net` FD snapshot).
    pub daemon_recovery: bool,
    /// Machines currently down, until the given instant.
    down_until: HashMap<ClusterId, SimTime>,
    /// Contracts parked by crashed daemons awaiting recovery.
    parked: HashMap<ClusterId, Vec<(JobSpec, ContractId, Money)>>,
    /// Sim-time telemetry (event counters, sim-second latency histograms).
    pub instruments: SimInstruments,
}

impl GridWorld {
    /// Assemble a world. Used by [`crate::scenario::ScenarioBuilder`].
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn assemble(
        server: FaucetsServer,
        nodes: BTreeMap<ClusterId, Node>,
        ledger: Ledger<Money>,
        bank: Option<CreditBank>,
        mode: MarketMode,
        workload: Workload,
        token: SessionToken,
        accounts: HashMap<UserId, Vec<ClusterId>>,
        market_latency: SimDuration,
        heartbeat_every: SimDuration,
        telemetry: bool,
    ) -> Self {
        GridWorld {
            server,
            nodes,
            book: ContractBook::new(),
            ledger,
            bank,
            quota: None,
            appspector: AppSpector::new(64),
            mode,
            market_latency,
            heartbeat_every,
            telemetry,
            accounts,
            stats: GridStats::default(),
            workload,
            token,
            jobs: HashMap::new(),
            armed_wakes: HashMap::new(),
            pending_spec: None,
            next_job_id: 0,
            failure_model: None,
            failure_rng: StdRng::seed_from_u64(0xFA11),
            migrate_on_maintenance: true,
            regulator: None,
            regulated_bids: 0,
            maintenance_plan: vec![],
            daemon_outage_plan: vec![],
            daemon_recovery: true,
            down_until: HashMap::new(),
            parked: HashMap::new(),
            instruments: SimInstruments::new(),
        }
    }

    /// Is the cluster inside a maintenance window at `now`?
    fn is_down(&self, cluster: ClusterId, now: SimTime) -> bool {
        self.down_until.get(&cluster).is_some_and(|&t| now < t)
    }

    /// Draw the next failure delay for one machine.
    fn next_failure_in(&mut self, mtbf: SimDuration) -> SimDuration {
        use faucets_sim::dist::{Dist, Exp};
        let d = Exp::with_mean(mtbf.as_secs_f64()).sample(&mut self.failure_rng);
        SimDuration::from_secs_f64(d.max(1.0))
    }

    /// Seed the initial events (first arrival, heartbeat loop, failures).
    pub fn prime(&mut self, sched: &mut Scheduler<GridEvent>) {
        if let Some((at, user, qos)) = self.workload.next_job(sched.now()) {
            let spec = self.make_spec(user, qos, at);
            self.pending_spec = Some(spec);
            sched.schedule_at(at, GridEvent::NextArrival);
        }
        sched.schedule_in(self.heartbeat_every, GridEvent::Heartbeat);
        if let Some(fm) = self.failure_model.clone() {
            self.failure_rng = StdRng::seed_from_u64(fm.seed);
            let ids: Vec<ClusterId> = self.nodes.keys().copied().collect();
            for c in ids {
                let delay = self.next_failure_in(fm.mtbf);
                sched.schedule_in(delay, GridEvent::NodeFailure(c));
            }
        }
        for (cluster, at, window) in self.maintenance_plan.clone() {
            sched.schedule_at(at, GridEvent::Maintenance { cluster, window });
        }
        for (cluster, at, downtime) in self.daemon_outage_plan.clone() {
            sched.schedule_at(at, GridEvent::ClusterFailure { cluster, downtime });
        }
    }

    fn make_spec(
        &mut self,
        user: UserId,
        qos: faucets_core::qos::QosContract,
        at: SimTime,
    ) -> JobSpec {
        let id = JobId(self.next_job_id);
        self.next_job_id += 1;
        JobSpec::new(id, user, qos, at).expect("workload QoS validates")
    }

    /// Re-arm a cluster's completion wake-up if its next completion moved.
    fn rearm(&mut self, cluster: ClusterId, sched: &mut Scheduler<GridEvent>) {
        let next = self.nodes[&cluster].cluster.next_completion();
        let armed = self.armed_wakes.get(&cluster).copied();
        match (next, armed) {
            (Some(t), Some((_, at))) if t == at => {}
            (Some(t), prev) => {
                if let Some((id, _)) = prev {
                    sched.cancel(id);
                }
                let id = sched.schedule_at(t.max(sched.now()), GridEvent::ClusterWake(cluster));
                self.armed_wakes.insert(cluster, (id, t.max(sched.now())));
            }
            (None, Some((id, _))) => {
                sched.cancel(id);
                self.armed_wakes.remove(&cluster);
            }
            (None, None) => {}
        }
    }

    /// Record and apply a completed job.
    fn settle(&mut self, cluster: ClusterId, c: &Completion, now: SimTime) {
        let job = c.outcome.job;
        let info = self.jobs.get(&job).cloned();
        self.stats.completed += 1;
        if !c.outcome.met_deadline {
            self.stats.deadline_misses += 1;
        }
        self.stats.response.record(c.outcome.response_secs());
        self.stats.wait.record(c.outcome.wait_secs());
        // Mirror into the telemetry histograms, in *simulated* seconds.
        self.instruments
            .h_response
            .record(c.outcome.response_secs());
        self.instruments.h_wait.record(c.outcome.wait_secs());
        let sd = c.outcome.bounded_slowdown();
        self.stats.slowdown.record(sd);
        self.stats.slowdown_p95.record(sd);
        self.stats.paid_total += c.price;
        self.stats.payoff_total += c.payoff;

        let _ = self.book.complete(c.contract, now, c.price);
        let _ = self.appspector.complete_job(
            job,
            vec![OutputFile {
                name: "output.dat".into(),
                size_bytes: 1 << 20,
            }],
        );

        if let Some(info) = info {
            let e = self.stats.per_user.entry(info.user).or_insert((0, 0.0));
            e.0 += 1;
            e.1 += info.cpu_seconds;
            // Dollar settlement: user pays the contract price.
            if c.price > Money::ZERO {
                let _ = self.ledger.transfer(
                    AccountId::User(info.user),
                    AccountId::Cluster(cluster),
                    c.price,
                );
            }
            // Payoff flows between the system and the user.
            if c.payoff >= Money::ZERO {
                let _ =
                    self.ledger
                        .transfer(AccountId::System, AccountId::User(info.user), c.payoff);
            } else {
                let _ =
                    self.ledger
                        .transfer(AccountId::User(info.user), AccountId::System, -c.payoff);
            }
            // Grid-weather history (§5.2.1).
            self.server.record_settlement(ContractRecord {
                job,
                cluster,
                multiplier: info.multiplier,
                price: c.price,
                cpu_seconds: info.cpu_seconds,
                min_pes: info.min_pes,
                at: now,
            });
            // Barter credits (§5.5.3).
            if let Some(bank) = &mut self.bank {
                let credits = ServiceUnits::from_units_f64(info.cpu_seconds);
                let _ = bank.settle_remote_run(info.user, cluster, credits);
            }
            self.jobs.remove(&job);
        }
    }

    /// Place a job according to the active mode.
    fn place(&mut self, spec: JobSpec, sched: &mut Scheduler<GridEvent>) {
        match self.mode.clone() {
            MarketMode::Bidding(policy) | MarketMode::ServiceUnits(policy) => {
                self.place_market(spec, policy, sched)
            }
            MarketMode::Barter => self.place_barter(spec, sched),
            MarketMode::Restricted => self.place_restricted(spec, sched),
        }
    }

    /// One round of the §5 market for `spec`: a request-for-bids to every
    /// live candidate, then awards down the slate. With a quota bank this
    /// is the §5.5.2 market, its bids SU multipliers charged against user
    /// quotas: a bid the user cannot cover is no offer.
    fn place_market(
        &mut self,
        spec: JobSpec,
        policy: SelectionPolicy,
        sched: &mut Scheduler<GridEvent>,
    ) {
        let now = sched.now();
        let mut info = self
            .jobs
            .remove(&spec.id)
            .unwrap_or_else(|| JobInfo::new(&spec));
        if !info.negotiation.next_round() {
            self.stats.rejected += 1;
            return;
        }
        let Ok(mut candidates) = self.server.match_servers(&self.token, &spec.qos, now) else {
            self.stats.rejected += 1;
            return;
        };
        candidates.retain(|&c| !self.is_down(c, now));
        round::dedup_by_cluster(&mut candidates, |&c| c);
        let market = self.server.market_info(now);
        let req = BidRequest {
            job: spec.id,
            user: spec.user,
            qos: spec.qos.clone(),
            issued_at: now,
        };
        let mut bids: Vec<Bid> = vec![];
        for c in candidates {
            let node = self
                .nodes
                .get_mut(&c)
                .expect("directory lists only known nodes");
            self.stats.messages += 2; // RFB + response
            let reply = node
                .daemon
                .handle_bid_request(&req, &mut node.cluster, &market, now);
            bids.extend(reply.offer());
        }
        // §5.5.1: regulatory screening against the grid's normal price.
        if let Some(reg) = self.regulator {
            let normal = self.server.history.price_index();
            let (kept, stats) = reg.screen(&bids, normal);
            self.regulated_bids += (stats.rejected + stats.clamped) as u64;
            bids = kept;
        }
        if let Some(quota) = &self.quota {
            let offered = bids.len();
            // Checked SU pricing: a NaN/infinite multiplier is
            // unaffordable by definition, not a free job.
            bids.retain(|b| {
                SuQuota::try_su_cost(info.cpu_seconds, b.multiplier)
                    .is_some_and(|cost| quota.can_afford(spec.user, cost))
            });
            if bids.is_empty() && offered > 0 {
                self.stats.blocked_quota += 1;
                return;
            }
        }
        info.negotiation.offers(policy, &bids, &spec.qos.payoff);
        self.jobs.insert(spec.id, info);
        self.award_next(spec, sched);
    }

    /// Award `spec` to the next bid of its slate — in the SU market with
    /// the charge prepaid, so quotas never go negative — or, the slate
    /// spent, solicit the job's next round.
    fn award_next(&mut self, spec: JobSpec, sched: &mut Scheduler<GridEvent>) {
        let info = self
            .jobs
            .get_mut(&spec.id)
            .expect("a job under negotiation is known");
        let Some(bid) = info.negotiation.next_award() else {
            return self.place(spec, sched);
        };
        info.multiplier = bid.multiplier;
        if let Some(quota) = &mut self.quota {
            let cost = SuQuota::try_su_cost(info.cpu_seconds, bid.multiplier)
                .filter(|&cost| quota.charge(spec.user, bid.cluster, cost).is_ok());
            let Some(cost) = cost else {
                self.jobs.remove(&spec.id);
                self.stats.blocked_quota += 1;
                return;
            };
            self.stats.su_charged += cost;
        }
        let Ok(contract) = self.book.award(bid, sched.now()) else {
            self.jobs.remove(&spec.id);
            self.stats.rejected += 1;
            return;
        };
        self.stats.messages += 1; // award
        let spec = Box::new(spec);
        let award = GridEvent::Award {
            spec,
            contract,
            bid,
        };
        sched.schedule_in(self.market_latency, award);
    }

    /// Direct (non-market) placement used by barter and restricted modes:
    /// award + confirm + submit in one step.
    fn place_direct(
        &mut self,
        spec: JobSpec,
        cluster: ClusterId,
        sched: &mut Scheduler<GridEvent>,
    ) {
        let now = sched.now();
        let bid = Bid {
            id: faucets_core::ids::BidId(spec.id.raw()),
            cluster,
            job: spec.id,
            multiplier: 0.0,
            price: Money::ZERO,
            promised_completion: SimTime::MAX,
            planned_pes: spec.qos.min_pes,
        };
        let contract = match self.book.award(bid, now) {
            Ok(c) => c,
            Err(_) => {
                self.stats.rejected += 1;
                return;
            }
        };
        let _ = self.book.confirm(contract);
        self.jobs.insert(spec.id, JobInfo::new(&spec));
        let node = self.nodes.get_mut(&cluster).expect("known cluster");
        self.stats.messages += 1;
        self.appspector.register_job(spec.id, spec.user, cluster);
        node.cluster.submit_job(spec, contract, Money::ZERO, now);
        self.rearm(cluster, sched);
    }

    /// Take `cluster` down for `window` (a maintenance drain or a daemon
    /// crash): its armed completion wake is cancelled, and its contracts
    /// come off it — the running jobs checkpointed, with their image size,
    /// then the backlog.
    fn take_down(
        &mut self,
        cluster: ClusterId,
        window: SimDuration,
        sched: &mut Scheduler<GridEvent>,
    ) -> Vec<(JobSpec, ContractId, Money, Option<u64>)> {
        let now = sched.now();
        self.down_until.insert(cluster, now.saturating_add(window));
        if let Some((id, _)) = self.armed_wakes.remove(&cluster) {
            sched.cancel(id);
        }
        let node = self.nodes.get_mut(&cluster).expect("a known cluster");
        let ids: Vec<JobId> = node.cluster.running_jobs().map(|(id, _)| id).collect();
        let evicted: Vec<_> = ids
            .into_iter()
            .filter_map(|id| node.cluster.checkpoint_and_evict(id, now))
            .map(|cj| (cj.spec, cj.contract, cj.price, Some(cj.image_mb)))
            .collect();
        let queued = node.cluster.drain_queue().into_iter();
        evicted
            .into_iter()
            .chain(queued.map(|q| (q.spec, q.contract, q.price, None)))
            .collect()
    }

    /// Find a home for a job displaced by maintenance: another live cluster
    /// whose scheduler accepts it (migration, when enabled), else back to
    /// the source queue to wait out the window.
    #[allow(clippy::too_many_arguments)]
    fn route_displaced(
        &mut self,
        spec: JobSpec,
        contract: ContractId,
        price: Money,
        image_mb: Option<u64>,
        from: ClusterId,
        wan: &CheckpointCostModel,
        sched: &mut Scheduler<GridEvent>,
    ) {
        let now = sched.now();
        if self.migrate_on_maintenance {
            let req = BidRequest {
                job: spec.id,
                user: spec.user,
                qos: spec.qos.clone(),
                issued_at: now,
            };
            let candidates: Vec<ClusterId> = self
                .nodes
                .keys()
                .copied()
                .filter(|&c| c != from && !self.is_down(c, now))
                .collect();
            for c in candidates {
                let ok = {
                    let node = self.nodes.get_mut(&c).unwrap();
                    self.stats.messages += 2;
                    node.cluster.probe(&req, now).is_ok()
                };
                if ok {
                    let transfer = match image_mb {
                        Some(mb) => SimDuration::from_secs_f64(mb as f64 / wan.wan_mb_per_sec),
                        None => SimDuration::ZERO,
                    };
                    sched.schedule_in(
                        transfer,
                        GridEvent::MigrationArrive {
                            spec: Box::new(spec),
                            contract,
                            price,
                            to: c,
                            migrated: true,
                        },
                    );
                    return;
                }
            }
        }
        // No migration target: wait at the source for the window to end.
        let back_at = self.down_until.get(&from).copied().unwrap_or(now).max(now);
        sched.schedule_at(
            back_at,
            GridEvent::MigrationArrive {
                spec: Box::new(spec),
                contract,
                price,
                to: from,
                migrated: false,
            },
        );
    }

    fn place_barter(&mut self, spec: JobSpec, sched: &mut Scheduler<GridEvent>) {
        let now = sched.now();
        let bank = self.bank.as_ref().expect("barter mode requires a bank");
        let Some(home) = bank.home_of(spec.user) else {
            self.stats.rejected += 1;
            return;
        };
        let req = BidRequest {
            job: spec.id,
            user: spec.user,
            qos: spec.qos.clone(),
            issued_at: now,
        };

        // Home first (unless it is down for maintenance).
        let home_ok = !self.is_down(home, now) && {
            let node = self.nodes.get_mut(&home).expect("home cluster exists");
            self.stats.messages += 2;
            node.cluster.probe(&req, now).is_ok()
        };
        // Remote candidates that would accept, in id order.
        let mut remote_ok = vec![];
        if !home_ok {
            let ids: Vec<ClusterId> = self
                .nodes
                .keys()
                .copied()
                .filter(|&c| c != home && !self.is_down(c, now))
                .collect();
            for c in ids {
                let node = self.nodes.get_mut(&c).unwrap();
                self.stats.messages += 2;
                if node.cluster.probe(&req, now).is_ok() {
                    remote_ok.push(c);
                }
            }
        }
        let est_cost = ServiceUnits::from_units_f64(spec.qos.cpu_seconds(1.0));
        let bank = self.bank.as_ref().unwrap();
        match bank.route(spec.user, home_ok, &remote_ok, est_cost) {
            Ok(BarterRoute::Home(c)) | Ok(BarterRoute::Remote(c)) => {
                self.place_direct(spec, c, sched)
            }
            Ok(BarterRoute::Blocked) => {
                // Blocked remotely: the job still queues at home (it just
                // waits), unless home can never run it.
                self.stats.blocked_credits += 1;
                self.place_direct(spec, home, sched);
            }
            Err(_) => self.stats.rejected += 1,
        }
    }

    fn place_restricted(&mut self, spec: JobSpec, sched: &mut Scheduler<GridEvent>) {
        let allowed = self.accounts.get(&spec.user).cloned().unwrap_or_default();
        if allowed.is_empty() {
            self.stats.rejected += 1;
            return;
        }
        // Traditional behaviour: submit to the least-loaded cluster the
        // user has an account on, and wait in its queue.
        let target = allowed
            .iter()
            .copied()
            .min_by_key(|c| {
                let n = &self.nodes[c];
                (
                    n.cluster.queue_len() as u32,
                    u32::MAX - n.cluster.free_pes(),
                )
            })
            .unwrap();
        self.place_direct(spec, target, sched);
    }
}

impl World for GridWorld {
    type Event = GridEvent;

    fn handle(&mut self, sched: &mut Scheduler<GridEvent>, event: GridEvent) {
        self.instruments.event(event.kind());
        match event {
            GridEvent::NextArrival => {
                if let Some(spec) = self.pending_spec.take() {
                    self.stats.submitted += 1;
                    self.place(spec, sched);
                }
                if let Some((at, user, qos)) = self.workload.next_job(sched.now()) {
                    let spec = self.make_spec(user, qos, at);
                    self.pending_spec = Some(spec);
                    sched.schedule_at(at, GridEvent::NextArrival);
                }
            }
            GridEvent::Award {
                spec,
                contract,
                bid,
            } => {
                let spec = *spec;
                let now = sched.now();
                let cluster_id = bid.cluster;
                let outcome = {
                    let node = self
                        .nodes
                        .get_mut(&cluster_id)
                        .expect("awarded to known cluster");
                    node.daemon
                        .handle_award(spec.clone(), contract, &bid, &mut node.cluster, now)
                };
                self.stats.messages += 1; // confirm / renege reply
                match outcome {
                    Ok(AwardOutcome::Confirmed) => {
                        let _ = self.book.confirm(contract);
                        self.appspector.register_job(spec.id, spec.user, cluster_id);
                        self.rearm(cluster_id, sched);
                    }
                    Ok(AwardOutcome::Reneged(_)) | Err(_) => {
                        let _ = self.book.renege(contract);
                        self.stats.reneges += 1;
                        if let Some(quota) = &mut self.quota {
                            let cost = SuQuota::su_cost(spec.qos.cpu_seconds(1.0), bid.multiplier);
                            let _ = quota.refund(spec.user, cluster_id, cost);
                            self.stats.su_charged -= cost;
                        }
                        // §5.3: the runner-up, before anyone is asked again.
                        self.award_next(spec, sched);
                    }
                }
            }
            GridEvent::ClusterWake(cluster) => {
                let now = sched.now();
                self.armed_wakes.remove(&cluster);
                let completions = {
                    let node = self
                        .nodes
                        .get_mut(&cluster)
                        .expect("wake for known cluster");
                    node.cluster.on_time(now)
                };
                for c in completions {
                    self.settle(cluster, &c, now);
                }
                self.rearm(cluster, sched);
            }
            GridEvent::Heartbeat => {
                let now = sched.now();
                let ids: Vec<ClusterId> = self.nodes.keys().copied().collect();
                let mut any_work = self.pending_spec.is_some();
                for c in ids {
                    let (status, running): (_, Vec<(JobId, u32)>) = {
                        let node = &self.nodes[&c];
                        (
                            node.cluster.status(now),
                            node.cluster.running_jobs().collect(),
                        )
                    };
                    any_work |= status.queue_len > 0 || !running.is_empty();
                    self.server.heartbeat(c, status, now);
                    self.stats.messages += 2; // poll + response
                    if self.telemetry {
                        let total = self.nodes[&c].cluster.machine.total_pes;
                        for (job, pes) in running {
                            let _ = self.appspector.push_sample(
                                job,
                                TelemetrySample {
                                    at: now,
                                    pes,
                                    utilization: pes as f64 / total.max(1) as f64,
                                    throughput: pes as f64,
                                    app_data: format!("step@{now}"),
                                },
                            );
                        }
                    }
                }
                // Keep polling while there is anything left to observe; let
                // the simulation drain afterwards.
                if any_work {
                    sched.schedule_in(self.heartbeat_every, GridEvent::Heartbeat);
                }
            }
            GridEvent::Maintenance { cluster, window } => {
                let wan = CheckpointCostModel::default();
                // Checkpointed jobs carry an image across the WAN; queued
                // jobs move instantly (nothing started yet).
                for (spec, contract, price, image_mb) in self.take_down(cluster, window, sched) {
                    self.route_displaced(spec, contract, price, image_mb, cluster, &wan, sched);
                }
            }
            GridEvent::MigrationArrive {
                spec,
                contract,
                price,
                to,
                migrated,
            } => {
                let now = sched.now();
                if migrated {
                    self.stats.migrations += 1;
                }
                let node = self.nodes.get_mut(&to).expect("migration to known cluster");
                node.cluster.submit_job(*spec, contract, price, now);
                self.rearm(to, sched);
            }
            GridEvent::ClusterFailure { cluster, downtime } => {
                self.stats.daemon_failures += 1;
                // The daemon process dies: nothing on this Compute Server
                // advances until it restarts.
                let displaced = self.take_down(cluster, downtime, sched);
                if self.daemon_recovery {
                    // The journal survives the crash; contracts resume at
                    // restart.
                    let parked = self.parked.entry(cluster).or_default();
                    parked.extend(displaced.into_iter().map(|(s, c, p, _)| (s, c, p)));
                } else {
                    // No journal: every accepted contract on this daemon is
                    // gone with the process.
                    for (spec, contract, ..) in displaced {
                        self.stats.jobs_lost += 1;
                        let _ = self.book.renege(contract);
                        self.jobs.remove(&spec.id);
                    }
                }
                sched.schedule_in(downtime, GridEvent::ClusterRecovery(cluster));
            }
            GridEvent::ClusterRecovery(cluster) => {
                let now = sched.now();
                self.stats.daemon_recoveries += 1;
                self.down_until.remove(&cluster);
                for (spec, contract, price) in self.parked.remove(&cluster).unwrap_or_default() {
                    let node = self
                        .nodes
                        .get_mut(&cluster)
                        .expect("recovery on known cluster");
                    node.cluster.submit_job(spec, contract, price, now);
                }
                self.rearm(cluster, sched);
            }
            GridEvent::NodeFailure(cluster) => {
                let Some(fm) = self.failure_model.clone() else {
                    return;
                };
                let now = sched.now();
                self.stats.failures += 1;
                let recovered = {
                    let node = self
                        .nodes
                        .get_mut(&cluster)
                        .expect("failure on known cluster");
                    node.cluster.crash_and_recover(now, fm.checkpoint_interval)
                };
                self.stats.jobs_recovered += recovered as u64;
                self.rearm(cluster, sched);
                // Next failure for this machine — only while there is still
                // work in the system to disturb (lets the run drain).
                let busy = self.pending_spec.is_some()
                    || self
                        .nodes
                        .values()
                        .any(|n| n.cluster.running_count() > 0 || n.cluster.queue_len() > 0);
                if busy {
                    let delay = self.next_failure_in(fm.mtbf);
                    sched.schedule_in(delay, GridEvent::NodeFailure(cluster));
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::ScenarioBuilder;
    use crate::workload::{ArrivalProcess, JobMix};
    use faucets_sim::engine::Simulation;

    fn small_sim(mode: MarketMode) -> Simulation<GridWorld> {
        ScenarioBuilder::new(7)
            .cluster(128, "equipartition", "util-interp")
            .cluster(256, "equipartition", "baseline")
            .users(4)
            .mode(mode)
            .arrivals(ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(300),
            })
            .mix(JobMix {
                log2_min_pes: (0, 4),
                ..JobMix::default()
            })
            .horizon(SimDuration::from_hours(6))
            .build()
    }

    #[test]
    fn bidding_grid_processes_jobs_end_to_end() {
        let mut sim = small_sim(MarketMode::Bidding(SelectionPolicy::LeastCost));
        sim.run();
        let w = sim.world();
        assert!(w.stats.submitted > 20, "submitted {}", w.stats.submitted);
        assert!(w.stats.completed > 0, "completed {}", w.stats.completed);
        assert_eq!(
            w.stats.completed + w.stats.rejected,
            w.stats.submitted,
            "every job completes or is rejected once the grid drains \
             (completed {}, rejected {}, submitted {})",
            w.stats.completed,
            w.stats.rejected,
            w.stats.submitted
        );
        assert!(w.stats.messages > 0);
        // Money is conserved across all transfers.
        assert!(w.stats.paid_total > Money::ZERO);
    }

    #[test]
    fn bidding_grid_is_deterministic() {
        let run = || {
            let mut sim = small_sim(MarketMode::Bidding(SelectionPolicy::LeastCost));
            sim.run();
            let w = sim.into_world();
            (
                w.stats.submitted,
                w.stats.completed,
                w.stats.rejected,
                w.stats.paid_total,
            )
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn restricted_mode_routes_only_to_account_clusters() {
        let mut sim = small_sim(MarketMode::Restricted);
        sim.run();
        let w = sim.world();
        assert!(w.stats.completed > 0);
        // Restricted mode pays list price zero (no market) — no dollars move.
        assert_eq!(w.stats.paid_total, Money::ZERO);
    }

    #[test]
    fn daemon_crash_with_recovery_resumes_contracts() {
        let build = |recovery: bool| {
            ScenarioBuilder::new(7)
                .cluster(128, "equipartition", "util-interp")
                .cluster(256, "equipartition", "baseline")
                .users(4)
                .mode(MarketMode::Bidding(SelectionPolicy::LeastCost))
                .arrivals(ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_secs(300),
                })
                .mix(JobMix {
                    log2_min_pes: (0, 4),
                    ..JobMix::default()
                })
                .horizon(SimDuration::from_hours(6))
                .daemon_outage(0, SimTime::from_hours(1), SimDuration::from_secs(1800))
                .daemon_outage(1, SimTime::from_hours(3), SimDuration::from_secs(1800))
                .daemon_recovery(recovery)
                .build()
        };

        let mut with = build(true);
        with.run();
        let w = with.world();
        assert_eq!(w.stats.daemon_failures, 2);
        assert_eq!(w.stats.daemon_recoveries, 2);
        assert_eq!(w.stats.jobs_lost, 0);
        // Recovery preserves the completes-or-rejected invariant.
        assert_eq!(w.stats.completed + w.stats.rejected, w.stats.submitted);
        assert!(w.stats.completed > 0);

        let mut without = build(false);
        without.run();
        let wo = without.world();
        assert_eq!(wo.stats.daemon_failures, 2);
        // Jobs caught on a crashed daemon are gone for good.
        assert_eq!(
            wo.stats.completed + wo.stats.rejected + wo.stats.jobs_lost,
            wo.stats.submitted
        );
        assert!(
            wo.stats.completed <= w.stats.completed,
            "losing contracts cannot beat recovering them \
             (without {}, with {})",
            wo.stats.completed,
            w.stats.completed
        );
    }

    #[test]
    fn sim_instruments_count_events_in_sim_time() {
        let before = faucets_telemetry::global().snapshot();
        let started = std::time::Instant::now();
        let mut sim = small_sim(MarketMode::Bidding(SelectionPolicy::LeastCost));
        sim.run();
        let wall = started.elapsed().as_secs_f64();
        let w = sim.world();
        let snap = faucets_telemetry::global().snapshot();
        // Every submission came through a NextArrival dispatch (global
        // collectors are monotone, so compare against the pre-run reading —
        // other tests in this process share the registry).
        let arrivals = snap.counter_sum("sim_events_total", &[("kind", "NextArrival")])
            - before.counter_sum("sim_events_total", &[("kind", "NextArrival")]);
        assert!(
            arrivals >= w.stats.submitted,
            "arrivals {arrivals} < submitted {}",
            w.stats.submitted
        );
        // Latencies were mirrored into the sim-second histogram, and their
        // sum dwarfs the wall time the whole run took — proof the
        // histogram timeline is simulated, not wall.
        let resp = snap.histogram_sum("sim_response_seconds", &[]);
        let resp_before = before.histogram_sum("sim_response_seconds", &[]);
        assert!(resp.count - resp_before.count >= w.stats.completed);
        let simulated = resp.sum - resp_before.sum;
        assert!(
            simulated > 1_000.0 * wall.max(1e-3),
            "{simulated} simulated response seconds vs {wall} s of wall time"
        );
    }

    /// Three idle 64-PE FCFS clusters, cheapest first, and no arrivals:
    /// the test places its own 8-PE job.
    fn idle_grid(mode: MarketMode) -> (Simulation<GridWorld>, JobId) {
        let mut b = ScenarioBuilder::new(7)
            .mode(mode)
            .horizon(SimDuration::ZERO);
        for cents in [1.0, 2.0, 3.0] {
            let cost = Money::from_units_f64(cents / 100.0);
            b = b.cluster_priced(64, "fcfs", "baseline", cost);
        }
        let mut sim = b.build();
        let (w, sched) = sim.split();
        let qos = faucets_core::qos::QosBuilder::new("namd", 8, 8, 3_600.0)
            .build()
            .unwrap();
        let spec = w.make_spec(UserId(1), qos, sched.now());
        let job = spec.id;
        w.stats.submitted += 1;
        w.place(spec, sched);
        (sim, job)
    }

    /// Dispatch the next event; while it runs, the clusters in `renege`
    /// that hold an award are swapped for a 1-PE machine, which cannot run
    /// the job, so their daemons renege (a cluster in `renege` asked for a
    /// bid then declines). Returns the awards it broke.
    fn step_reneging(sim: &mut Simulation<GridWorld>, renege: &[u64]) -> usize {
        use faucets_core::market::ContractState;
        use faucets_sched::machine::MachineSpec;
        let w = sim.world_mut();
        let awarded: Vec<ClusterId> = w
            .book
            .in_state(ContractState::Awarded)
            .map(|c| c.cluster)
            .filter(|c| renege.contains(&c.raw()))
            .collect();
        let swap = |w: &mut GridWorld, c: ClusterId, cluster: Cluster| {
            std::mem::replace(&mut w.nodes.get_mut(&c).unwrap().cluster, cluster)
        };
        let tiny = |c| {
            let machine = MachineSpec::commodity(c, "tiny", 1);
            Cluster::new(
                machine,
                crate::scenario::policy_by_name("fcfs"),
                Default::default(),
            )
        };
        let parked: Vec<(ClusterId, Cluster)> =
            awarded.iter().map(|&c| (c, swap(w, c, tiny(c)))).collect();
        sim.step();
        for (c, cluster) in parked {
            swap(sim.world_mut(), c, cluster);
        }
        awarded.len()
    }

    #[test]
    fn a_renege_awards_the_runner_up_without_new_requests_for_bids() {
        let (mut sim, _) = idle_grid(MarketMode::Bidding(SelectionPolicy::LeastCost));
        let w = sim.world();
        let (rfbs, messages) = (w.server.stats.rfb_messages, w.stats.messages);
        assert_eq!((rfbs, messages), (3, 3 * 2 + 1), "3 RFBs + 3 bids, 1 award");
        assert_eq!(step_reneging(&mut sim, &[1]), 1, "the winner reneges");
        assert_eq!(step_reneging(&mut sim, &[1]), 0, "the runner-up confirms");
        sim.run();
        let w = sim.world();
        assert_eq!(w.server.stats.rfb_messages, rfbs, "nobody was asked again");
        assert_eq!(w.stats.reneges, 1);
        // Renege reply, runner-up award, its confirm: +1 award, +1 reply
        // over a first-time confirm; heartbeats add 2 per cluster each.
        let heartbeats = w.stats.messages - messages - 3;
        assert_eq!(heartbeats % 6, 0, "{} messages", w.stats.messages);
        assert_eq!((w.stats.completed, w.stats.rejected), (1, 0));
        let paid = w.stats.paid_total;
        let runner_up = Money::from_units_f64(0.02 * 3_600.0);
        assert_eq!(paid, runner_up, "cluster 2 ran it at its bid");
    }

    /// Regression: a renege in the SU market left its prepaid charge with
    /// the cluster that reneged, and the job paid again where it ran.
    #[test]
    fn an_su_renege_refunds_its_prepaid_charge() {
        let (mut sim, _) = idle_grid(MarketMode::ServiceUnits(SelectionPolicy::LeastCost));
        assert_eq!(step_reneging(&mut sim, &[1]), 1, "the winner reneges");
        sim.run();
        let w = sim.world();
        let quota = w.quota.as_ref().unwrap();
        let cost = SuQuota::su_cost(3_600.0, 1.0);
        assert_eq!(quota.pool(ClusterId(1)), ServiceUnits::ZERO, "refunded");
        assert_eq!(quota.pool(ClusterId(2)), cost, "the runner-up's charge");
        assert_eq!(w.stats.su_charged, cost);
        assert_eq!(w.stats.completed, 1);
    }

    #[test]
    fn a_job_whose_whole_slate_reneges_gets_max_rounds_and_is_rejected() {
        let (mut sim, job) = idle_grid(MarketMode::Bidding(SelectionPolicy::LeastCost));
        let mut broken = 0;
        while sim.world().jobs.contains_key(&job) {
            broken += step_reneging(&mut sim, &[1, 2, 3]);
        }
        sim.run();
        let w = sim.world();
        // Round 1 holds all three; a reneging cluster is mid-award when
        // the next round solicits, so it declines: two per later round.
        assert_eq!(broken, 3 + 2 * (round::MAX_ROUNDS as usize - 1));
        assert_eq!(w.stats.reneges as usize, broken);
        assert_eq!(w.server.stats.matches, u64::from(round::MAX_ROUNDS));
        assert_eq!((w.stats.completed, w.stats.rejected), (0, 1));
        assert_eq!(w.stats.completed + w.stats.rejected, w.stats.submitted);
    }

    #[test]
    fn contracts_all_reach_terminal_states() {
        let mut sim = small_sim(MarketMode::Bidding(SelectionPolicy::EarliestCompletion));
        sim.run();
        let w = sim.world();
        use faucets_core::market::ContractState;
        let completed = w.book.in_state(ContractState::Completed).count() as u64;
        assert_eq!(completed, w.stats.completed);
        // Nothing left dangling in Awarded (two-phase always resolves).
        assert_eq!(w.book.in_state(ContractState::Awarded).count(), 0);
    }
}
