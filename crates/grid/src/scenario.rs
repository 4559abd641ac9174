//! Scenario construction: declaratively assemble a grid and get a runnable
//! simulation.
//!
//! Every experiment (E2–E12) is a [`ScenarioBuilder`] invocation: clusters
//! with a scheduling policy and bid strategy each, a user population, a
//! placement mode, and a workload.

use crate::workload::{ArrivalProcess, JobMix, Workload};
use crate::world::{FailureModel, GridWorld, MarketMode, Node};
use faucets_core::accounting::{AccountId, Ledger};
use faucets_core::barter::CreditBank;
use faucets_core::daemon::FaucetsDaemon;
use faucets_core::directory::FilterLevel;
use faucets_core::ids::{ClusterId, OrgId, UserId};
use faucets_core::market::strategy::BidStrategy;
use faucets_core::market::SelectionPolicy;
use faucets_core::money::{Money, ServiceUnits};
use faucets_core::server::FaucetsServer;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::machine::MachineSpec;
use faucets_sched::policy::SchedPolicy;
use faucets_sim::engine::Simulation;
use faucets_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::collections::{BTreeMap, HashMap};

/// Look up a scheduling policy by name: `fcfs`, `easy-backfill`,
/// `equipartition`, `profit`, or `intranet-priority`.
///
/// # Panics
/// Panics on unknown names (experiments are static configurations).
pub fn policy_by_name(name: &str) -> Box<dyn SchedPolicy> {
    faucets_sched::policy::by_name(name)
}

/// Look up a bid strategy by name: `baseline`, `util-interp`,
/// `deadline-aware`, `weather-aware`, or `fixed:<multiplier>`.
///
/// # Panics
/// Panics on unknown names.
pub fn strategy_by_name(name: &str) -> Box<dyn BidStrategy> {
    faucets_core::market::strategy::by_name(name)
}

/// Configuration for one cluster in a scenario.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Processors.
    pub pes: u32,
    /// Scheduling policy name (see [`policy_by_name`]).
    pub policy: String,
    /// Bid strategy name (see [`strategy_by_name`]).
    pub strategy: String,
    /// Dollars per CPU-second.
    pub normalized_cost: Money,
}

/// Builder for a grid scenario: the one description a simulation is
/// [built](ScenarioBuilder::build) from and a live grid launched from.
#[derive(Clone)]
pub struct ScenarioBuilder {
    seed: u64,
    clusters: Vec<ClusterConfig>,
    n_users: usize,
    mode: MarketMode,
    arrivals: ArrivalProcess,
    mix: JobMix,
    horizon: SimDuration,
    market_latency: SimDuration,
    heartbeat_every: SimDuration,
    telemetry: bool,
    filter_level: FilterLevel,
    resize_scale: f64,
    accounts_per_user: usize,
    initial_credits: ServiceUnits,
    failures: Option<FailureModel>,
    workload_override: Option<Workload>,
    maintenance: Vec<(usize, SimTime, SimDuration)>,
    migrate_on_maintenance: bool,
    daemon_outages: Vec<(usize, SimTime, SimDuration)>,
    daemon_recovery: bool,
    su_quota_per_user: ServiceUnits,
    regulator_cfg: Option<faucets_core::market::Regulator>,
}

impl ScenarioBuilder {
    /// Start a scenario with the given RNG seed.
    pub fn new(seed: u64) -> Self {
        ScenarioBuilder {
            seed,
            clusters: vec![],
            n_users: 4,
            mode: MarketMode::Bidding(SelectionPolicy::LeastCost),
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(600),
            },
            mix: JobMix::default(),
            horizon: SimDuration::from_hours(24),
            market_latency: SimDuration::from_millis(200),
            heartbeat_every: SimDuration::from_secs(30),
            telemetry: false,
            filter_level: FilterLevel::Static,
            resize_scale: 1.0,
            accounts_per_user: 1,
            initial_credits: ServiceUnits::from_units(100_000),
            failures: None,
            workload_override: None,
            maintenance: vec![],
            migrate_on_maintenance: true,
            daemon_outages: vec![],
            daemon_recovery: true,
            su_quota_per_user: ServiceUnits::from_units(1_000_000),
            regulator_cfg: None,
        }
    }

    /// Add a cluster with `pes` processors, a scheduling policy, and a bid
    /// strategy (both by name) at the default price level.
    pub fn cluster(self, pes: u32, policy: &str, strategy: &str) -> Self {
        self.cluster_priced(pes, policy, strategy, Money::from_units_f64(0.01))
    }

    /// Add a cluster with an explicit price level.
    pub fn cluster_priced(mut self, pes: u32, policy: &str, strategy: &str, cost: Money) -> Self {
        self.clusters.push(ClusterConfig {
            pes,
            policy: policy.into(),
            strategy: strategy.into(),
            normalized_cost: cost,
        });
        self
    }

    /// Number of submitting users.
    pub fn users(mut self, n: usize) -> Self {
        self.n_users = n.max(1);
        self
    }

    /// Placement mode.
    pub fn mode(mut self, mode: MarketMode) -> Self {
        self.mode = mode;
        self
    }

    /// Arrival process.
    pub fn arrivals(mut self, a: ArrivalProcess) -> Self {
        self.arrivals = a;
        self
    }

    /// Job mix.
    pub fn mix(mut self, m: JobMix) -> Self {
        self.mix = m;
        self
    }

    /// Submission horizon (the grid drains afterwards).
    pub fn horizon(mut self, h: SimDuration) -> Self {
        self.horizon = h;
        self
    }

    /// FS candidate filter level (§5.1).
    pub fn filter(mut self, f: FilterLevel) -> Self {
        self.filter_level = f;
        self
    }

    /// Resize-cost ablation multiplier (0 = free resizes).
    pub fn resize_cost_scale(mut self, s: f64) -> Self {
        self.resize_scale = s;
        self
    }

    /// Clusters each user holds an account on (Restricted mode).
    pub fn accounts_per_user(mut self, n: usize) -> Self {
        self.accounts_per_user = n.max(1);
        self
    }

    /// Initial bartering credits per organization.
    pub fn credits(mut self, c: ServiceUnits) -> Self {
        self.initial_credits = c;
        self
    }

    /// SU quota granted to each user (ServiceUnits mode, §5.5.2).
    pub fn su_quota(mut self, q: ServiceUnits) -> Self {
        self.su_quota_per_user = q;
        self
    }

    /// Install a §5.5.1 price-band regulator over every bid slate.
    pub fn regulator(mut self, r: faucets_core::market::Regulator) -> Self {
        self.regulator_cfg = Some(r);
        self
    }

    /// Enable AppSpector telemetry sampling on heartbeats.
    pub fn telemetry(mut self, on: bool) -> Self {
        self.telemetry = on;
        self
    }

    /// Inject transient machine failures (§3 recovery): exponential with
    /// the given MTBF per machine, periodic checkpoints at `interval`.
    pub fn failures(mut self, mtbf: SimDuration, interval: SimDuration) -> Self {
        self.failures = Some(FailureModel {
            mtbf,
            checkpoint_interval: interval,
            seed: self.seed ^ 0xFA11,
        });
        self
    }

    /// Schedule a maintenance drain of the `idx`-th cluster (0-based) at
    /// `at` for `window` (§1: "when the machine is about to be taken down,
    /// checkpointing the job and moving it to another machine, if
    /// possible").
    pub fn maintenance(mut self, idx: usize, at: SimTime, window: SimDuration) -> Self {
        self.maintenance.push((idx, at, window));
        self
    }

    /// Choose whether maintenance migrates work to other clusters (default)
    /// or holds it at the source until the window ends.
    pub fn migrate_on_maintenance(mut self, on: bool) -> Self {
        self.migrate_on_maintenance = on;
        self
    }

    /// Crash the `idx`-th cluster's Faucets Daemon (0-based) at `at` for
    /// `downtime`. Whether its contracts survive is governed by
    /// [`ScenarioBuilder::daemon_recovery`].
    pub fn daemon_outage(mut self, idx: usize, at: SimTime, downtime: SimDuration) -> Self {
        self.daemon_outages.push((idx, at, downtime));
        self
    }

    /// Choose whether crashed daemons resume their journaled contracts on
    /// restart (default) or lose every accepted contract.
    pub fn daemon_recovery(mut self, on: bool) -> Self {
        self.daemon_recovery = on;
        self
    }

    /// Replace the synthetic workload with an explicit one (e.g. an SWF
    /// trace replay built by [`crate::trace::workload_from_swf`]). Users in
    /// the trace are mapped onto this scenario's user population modulo its
    /// size.
    pub fn workload(mut self, w: Workload) -> Self {
        self.workload_override = Some(w);
        self
    }

    /// Market protocol latency for the award leg.
    pub fn market_latency(mut self, d: SimDuration) -> Self {
        self.market_latency = d;
        self
    }

    /// The scenario's RNG seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of clusters.
    pub fn cluster_count(&self) -> usize {
        self.clusters.len()
    }

    /// Cluster `i` (0-based) as its Faucets Daemon and Cluster Manager: id
    /// `i + 1`, named `cs{i+1}`, exporting the job mix's apps.
    pub fn node(&self, i: usize) -> Node {
        let cfg = &self.clusters[i];
        let cid = ClusterId(i as u64 + 1);
        let mut machine = MachineSpec::commodity(cid, format!("cs{}", i + 1), cfg.pes);
        machine.normalized_cost = cfg.normalized_cost;
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 9000 + i as u16),
            self.mix.apps.iter().cloned(),
            strategy_by_name(&cfg.strategy),
            cfg.normalized_cost,
        );
        let cluster = Cluster::new(
            machine,
            policy_by_name(&cfg.policy),
            ResizeCostModel::default().scaled(self.resize_scale),
        );
        Node { daemon, cluster }
    }

    /// Assemble the world and prime the simulation.
    pub fn build(self) -> Simulation<GridWorld> {
        assert!(
            !self.clusters.is_empty(),
            "a scenario needs at least one cluster"
        );
        let mut rng = StdRng::seed_from_u64(self.seed ^ 0x5EED);

        let mut server = FaucetsServer::new(
            self.heartbeat_every * 4,
            SimDuration::from_hours(1_000_000),
            SimDuration::from_hours(24),
        );
        server.filter_level = self.filter_level;

        // The simulation's client identity.
        server
            .create_user("sim-client", "sim-password", &mut rng)
            .expect("fresh user db");
        let (_, token) = server
            .login("sim-client", "sim-password", SimTime::ZERO, &mut rng)
            .expect("login succeeds");

        // Users and their dollar accounts.
        let users: Vec<UserId> = (0..self.n_users).map(|i| UserId(i as u64 + 1)).collect();
        let mut ledger = Ledger::new();
        ledger
            .open(AccountId::System, Money::ZERO)
            .expect("fresh ledger");
        ledger.set_overdraft(AccountId::System, true);
        for &u in &users {
            ledger
                .open(AccountId::User(u), Money::from_units(1_000_000_000))
                .unwrap();
        }

        // Clusters, daemons, directory registrations.
        let mut nodes = BTreeMap::new();
        let mut bank = CreditBank::new();
        for (i, cfg) in self.clusters.iter().enumerate() {
            let (cid, node) = (ClusterId(i as u64 + 1), self.node(i));
            let info = node.daemon.info.clone();
            server.register_cluster(info, self.mix.apps.clone(), SimTime::ZERO);
            server.heartbeat(
                cid,
                faucets_core::directory::ServerStatus {
                    free_pes: cfg.pes,
                    queue_len: 0,
                    accepting: true,
                    ..Default::default()
                },
                SimTime::ZERO,
            );
            ledger.open(AccountId::Cluster(cid), Money::ZERO).unwrap();
            nodes.insert(cid, node);

            // Bartering: one org per cluster.
            bank.register_org(OrgId(i as u64 + 1), self.initial_credits)
                .unwrap();
            bank.register_cluster(cid, OrgId(i as u64 + 1)).unwrap();
        }

        // Home clusters / restricted accounts: round-robin over clusters.
        let n_clusters = self.clusters.len();
        let mut accounts: HashMap<UserId, Vec<ClusterId>> = HashMap::new();
        for (ui, &u) in users.iter().enumerate() {
            let mut mine = vec![];
            for k in 0..self.accounts_per_user.min(n_clusters) {
                mine.push(ClusterId(((ui + k) % n_clusters) as u64 + 1));
            }
            bank.set_home(u, mine[0]).unwrap();
            accounts.insert(u, mine);
        }

        let use_bank = matches!(self.mode, MarketMode::Barter);
        let workload = match self.workload_override {
            Some(mut w) => {
                // Trace users may be arbitrary ids; remap onto the scenario
                // population so accounts/homes exist.
                w.users = users.clone();
                w
            }
            None => Workload::new(
                self.arrivals,
                self.mix,
                users,
                SimTime::ZERO + self.horizon,
                self.seed,
            ),
        };

        let failures = self.failures.clone();
        let mut world = GridWorld::assemble(
            server,
            nodes,
            ledger,
            use_bank.then_some(bank),
            self.mode,
            workload,
            token,
            accounts,
            self.market_latency,
            self.heartbeat_every,
            self.telemetry,
        );

        world.failure_model = failures;
        if matches!(world.mode, MarketMode::ServiceUnits(_)) {
            let mut quota = faucets_core::quota::SuQuota::new();
            for &u in &world.workload.users {
                quota
                    .grant(u, self.su_quota_per_user)
                    .expect("fresh quota bank");
            }
            for &c in world.nodes.keys().collect::<Vec<_>>() {
                quota.register_cluster(c).expect("fresh quota bank");
            }
            world.quota = Some(quota);
        }
        world.migrate_on_maintenance = self.migrate_on_maintenance;
        world.regulator = self.regulator_cfg;
        world.maintenance_plan = self
            .maintenance
            .iter()
            .map(|&(idx, at, window)| (ClusterId(idx as u64 + 1), at, window))
            .collect();
        world.daemon_outage_plan = self
            .daemon_outages
            .iter()
            .map(|&(idx, at, downtime)| (ClusterId(idx as u64 + 1), at, downtime))
            .collect();
        world.daemon_recovery = self.daemon_recovery;
        let mut sim = Simulation::new(world);
        let (world, sched) = sim.split();
        world.prime(sched);
        sim
    }
}

/// Run a simulation to completion with a safety budget and return the world.
pub fn run_scenario(mut sim: Simulation<GridWorld>) -> GridWorld {
    // Generous budget: a few hundred events per job plus heartbeats.
    sim.run_until(SimTime::MAX, 500_000_000);
    sim.into_world()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_names_resolve() {
        for p in ["fcfs", "easy-backfill", "equipartition", "profit"] {
            assert!(!policy_by_name(p).name().is_empty());
        }
        for s in [
            "baseline",
            "util-interp",
            "deadline-aware",
            "weather-aware",
            "fixed:1.5",
        ] {
            assert!(!strategy_by_name(s).name().is_empty());
        }
    }

    #[test]
    #[should_panic(expected = "unknown scheduling policy")]
    fn unknown_policy_panics() {
        policy_by_name("round-robin");
    }

    #[test]
    #[should_panic(expected = "at least one cluster")]
    fn empty_scenario_panics() {
        let _ = ScenarioBuilder::new(0).build();
    }

    #[test]
    fn barter_scenario_builds_with_bank() {
        let sim = ScenarioBuilder::new(1)
            .cluster(64, "equipartition", "baseline")
            .cluster(64, "equipartition", "baseline")
            .mode(MarketMode::Barter)
            .horizon(SimDuration::from_hours(1))
            .build();
        assert!(sim.world().bank.is_some());
    }

    #[test]
    fn bidding_scenario_has_no_bank() {
        let sim = ScenarioBuilder::new(1)
            .cluster(64, "fcfs", "baseline")
            .horizon(SimDuration::from_hours(1))
            .build();
        assert!(sim.world().bank.is_none());
        assert_eq!(sim.world().nodes.len(), 1);
    }
}
