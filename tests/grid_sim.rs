//! Cross-crate integration over the §5.4 simulation: qualitative shapes
//! the paper asserts must hold on small instances of each experiment.

use faucets_core::directory::FilterLevel;
use faucets_core::market::SelectionPolicy;
use faucets_grid::prelude::*;
use faucets_sim::time::{SimDuration, SimTime};

fn base(seed: u64) -> ScenarioBuilder {
    ScenarioBuilder::new(seed)
        .users(6)
        .arrivals(ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_secs(150),
        })
        .mix(JobMix {
            log2_min_pes: (0, 4),
            ..JobMix::default()
        })
        .horizon(SimDuration::from_hours(12))
}

/// E4 shape: the adaptive equipartition scheduler beats FCFS on both
/// utilization and mean response time under the same workload.
#[test]
fn adaptive_beats_fcfs_on_identical_workload() {
    let run = |policy: &str| {
        let sim = base(3)
            .cluster(128, policy, "baseline")
            .mode(MarketMode::Bidding(SelectionPolicy::LeastCost))
            .build();
        let mut w = run_scenario(sim);
        let node = w.nodes.values_mut().next().unwrap();
        let util = node.cluster.metrics.utilization(SimTime::from_hours(12));
        (util, w.stats.response.mean(), w.stats.completed)
    };
    let (u_fcfs, r_fcfs, c_fcfs) = run("fcfs");
    let (u_eq, r_eq, c_eq) = run("equipartition");
    assert!(
        c_eq >= c_fcfs,
        "adaptive completes at least as many jobs ({c_eq} vs {c_fcfs})"
    );
    assert!(
        u_eq > u_fcfs,
        "equipartition should use the machine better: {u_eq:.3} !> {u_fcfs:.3}"
    );
    assert!(
        r_eq < r_fcfs,
        "equipartition should respond faster: {r_eq:.1}s !< {r_fcfs:.1}s"
    );
}

/// E3 shape: market access (bidding over all clusters) beats
/// account-restricted submission on response time under skewed load.
#[test]
fn market_beats_restricted_access() {
    let build = |mode: MarketMode| {
        base(5)
            .cluster(64, "equipartition", "baseline")
            .cluster(64, "equipartition", "baseline")
            .cluster(64, "equipartition", "baseline")
            .cluster(64, "equipartition", "baseline")
            .users(4)
            .accounts_per_user(1)
            .arrivals(ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(100),
            })
            .mode(mode)
            .build()
    };
    let restricted = run_scenario(build(MarketMode::Restricted));
    let market = run_scenario(build(MarketMode::Bidding(
        SelectionPolicy::EarliestCompletion,
    )));
    assert!(market.stats.completed > 0 && restricted.stats.completed > 0);
    assert!(
        market.stats.response.mean() < restricted.stats.response.mean(),
        "market {:.0}s should beat restricted {:.0}s",
        market.stats.response.mean(),
        restricted.stats.response.mean()
    );
}

/// E9 shape: static filtering cuts request-for-bid traffic without
/// changing what completes.
#[test]
fn filtering_reduces_messages() {
    let build = |filter: FilterLevel| {
        base(9)
            .cluster(16, "equipartition", "baseline") // too small for big jobs
            .cluster(64, "equipartition", "baseline")
            .cluster(256, "equipartition", "baseline")
            .mix(JobMix {
                log2_min_pes: (3, 6),
                ..JobMix::default()
            }) // min 8..64
            .filter(filter)
            .build()
    };
    let broadcast = run_scenario(build(FilterLevel::None));
    let filtered = run_scenario(build(FilterLevel::Static));
    assert_eq!(
        broadcast.stats.submitted, filtered.stats.submitted,
        "same workload"
    );
    assert!(
        filtered.server.stats.rfb_messages < broadcast.server.stats.rfb_messages,
        "filtering must reduce RFBs: {} !< {}",
        filtered.server.stats.rfb_messages,
        broadcast.server.stats.rfb_messages
    );
    assert_eq!(broadcast.stats.completed, filtered.stats.completed);
}

/// Ablation plumbing: the resize-cost scale knob reaches the clusters, the
/// adaptive scheduler reshapes jobs under both settings, and accounting
/// still closes. (Resize *counts* legitimately differ between settings —
/// pauses shift completion times and hence later scheduling decisions.)
#[test]
fn resize_cost_ablation_changes_behaviour() {
    let run = |scale: f64| {
        let sim = base(13)
            .cluster(128, "equipartition", "baseline")
            .resize_cost_scale(scale)
            .build();
        let w = run_scenario(sim);
        let node = w.nodes.values().next().unwrap();
        (
            node.cluster.metrics.resizes,
            w.stats.completed,
            w.stats.submitted,
            w.stats.rejected,
        )
    };
    let (resizes_free, done_f, sub_f, rej_f) = run(0.0);
    let (resizes_pricey, done_p, sub_p, rej_p) = run(10.0);
    assert!(
        resizes_free > 0 && resizes_pricey > 0,
        "equipartition reshapes in both runs"
    );
    assert_eq!(done_f + rej_f, sub_f);
    assert_eq!(done_p + rej_p, sub_p);
    assert_eq!(sub_f, sub_p, "identical workload under both cost settings");
}

/// The grid-weather service accumulates history that bidders can read.
#[test]
fn price_history_accumulates() {
    let sim = base(17)
        .cluster(128, "equipartition", "util-interp")
        .cluster(128, "equipartition", "baseline")
        .build();
    let w = run_scenario(sim);
    assert!(w.stats.completed > 10);
    let idx = w
        .server
        .history
        .price_index()
        .expect("settlements recorded");
    assert!(idx > 0.0 && idx < 5.0, "price index {idx} in a sane band");
    assert_eq!(w.server.history.total_recorded(), w.stats.completed);
}

/// AppSpector saw every completed job when telemetry is enabled.
#[test]
fn appspector_tracks_jobs() {
    let sim = base(21)
        .cluster(128, "equipartition", "baseline")
        .telemetry(true)
        .horizon(SimDuration::from_hours(4))
        .build();
    let w = run_scenario(sim);
    assert!(w.stats.completed > 0);
    // Every confirmed job registered with AppSpector, and the grid drained,
    // so the monitored population equals the completed population.
    assert_eq!(w.appspector.job_count() as u64, w.stats.completed);
}

/// §3 recovery: transient machine failures checkpoint-and-restart running
/// jobs; everything still completes, at the cost of response time.
#[test]
fn failures_recover_from_checkpoints() {
    let build = |with_failures: bool| {
        let mut b = base(29)
            .cluster(128, "equipartition", "baseline")
            .horizon(SimDuration::from_hours(8));
        if with_failures {
            b = b.failures(SimDuration::from_hours(2), SimDuration::from_mins(10));
        }
        run_scenario(b.build())
    };
    let calm = build(false);
    let stormy = build(true);
    assert!(stormy.stats.failures > 0, "failures must fire");
    assert!(
        stormy.stats.jobs_recovered > 0,
        "running jobs get recovered"
    );
    assert_eq!(
        stormy.stats.completed + stormy.stats.rejected,
        stormy.stats.submitted,
        "every job still reaches a terminal state despite failures"
    );
    // Failures cost time: mean response can only get worse.
    assert!(
        stormy.stats.response.mean() >= calm.stats.response.mean(),
        "failures should not speed things up: {:.0} vs {:.0}",
        stormy.stats.response.mean(),
        calm.stats.response.mean()
    );
}

/// §5.5.4 intranet mode: the priority-preemption policy keeps high-priority
/// work responsive under load.
#[test]
fn intranet_priority_policy_in_grid() {
    let sim = base(33)
        .cluster(128, "intranet-priority", "baseline")
        .horizon(SimDuration::from_hours(8))
        .build();
    let w = run_scenario(sim);
    assert!(w.stats.completed > 0);
    assert_eq!(w.stats.completed + w.stats.rejected, w.stats.submitted);
}

/// §1 babysitting scenario: when a machine is taken down for maintenance,
/// jobs are checkpointed and moved to another machine — with migration the
/// work keeps flowing; without it everything waits out the window.
///
/// The comparison is over eight seeds, not one: on a single arrival stream
/// either mode can come out ahead (the survivor runs every migrated job at
/// half the grid's capacity), and which one does depends on the generator
/// behind `StdRng` — the one-seed form of this test held under ChaCha12
/// and failed under xoshiro256++. The claim is about the mean.
#[test]
fn maintenance_migration_keeps_work_flowing() {
    let run = |seed: u64, migrate: bool| {
        let sim = base(seed)
            .cluster(128, "equipartition", "baseline")
            .cluster(128, "equipartition", "baseline")
            .horizon(SimDuration::from_hours(8))
            .maintenance(0, SimTime::from_hours(2), SimDuration::from_hours(4))
            .migrate_on_maintenance(migrate)
            .build();
        let w = run_scenario(sim);
        assert_eq!(w.stats.completed + w.stats.rejected, w.stats.submitted);
        assert_eq!(w.stats.migrations > 0, migrate, "maintenance migrates work");
        w.stats.response.mean()
    };
    let mean = |migrate: bool| (41..49).map(|seed| run(seed, migrate)).sum::<f64>() / 8.0;
    let (with, without) = (mean(true), mean(false));
    assert!(
        with < without,
        "migration should beat waiting out a 4 h window: {with:.0}s vs {without:.0}s"
    );
}

/// §5.5.2 academic mode: SU-multiplier bids charged against user quotas;
/// quotas conserve, and exhausting them blocks further submissions.
#[test]
fn su_quota_market_conserves_and_blocks() {
    use faucets_core::money::ServiceUnits;
    let build = |grant: i64| {
        let sim = base(47)
            .cluster(128, "equipartition", "util-interp")
            .cluster(128, "equipartition", "baseline")
            .mode(MarketMode::ServiceUnits(SelectionPolicy::LeastCost))
            .su_quota(ServiceUnits::from_units(grant))
            .horizon(SimDuration::from_hours(8))
            .build();
        run_scenario(sim)
    };
    // Generous quotas: everything runs, SU totals conserve.
    let rich = build(100_000_000);
    let quota = rich.quota.as_ref().expect("SU mode has a quota bank");
    assert!(rich.stats.completed > 0);
    assert_eq!(rich.stats.blocked_quota, 0);
    assert!(rich.stats.su_charged > ServiceUnits::ZERO);
    // 6 users × grant, conserved across charges into cluster pools.
    assert_eq!(quota.total_micros(), 6 * 100_000_000 * 1_000_000);

    // Starved quotas: some submissions blocked.
    let poor = build(10_000);
    assert!(poor.stats.blocked_quota > 0, "tiny quotas must block");
    assert_eq!(
        poor.stats.completed + poor.stats.rejected + poor.stats.blocked_quota,
        poor.stats.submitted
    );
}

/// §5.5.1 regulation: a price-band regulator screens gouging bids; with a
/// predatory fixed-multiplier cluster in the market, regulation redirects
/// work and bounds what clients pay per job.
#[test]
fn regulator_screens_price_gouging() {
    use faucets_core::market::{BandAction, Regulator};
    let build = |regulate: bool| {
        let mut b = base(53)
            .cluster(128, "equipartition", "baseline")
            .cluster(128, "equipartition", "fixed:40.0") // gouger
            .mode(MarketMode::Bidding(SelectionPolicy::EarliestCompletion));
        if regulate {
            b = b.regulator(Regulator {
                band_factor: 3.0,
                action: BandAction::Reject,
            });
        }
        run_scenario(b.build())
    };
    let free_market = build(false);
    let regulated = build(true);
    assert!(
        regulated.regulated_bids > 0,
        "the gouger's bids must get screened"
    );
    // Earliest-completion clients ignore price, so the gouger wins work in
    // the free market; regulation keeps total client spend strictly lower.
    assert!(
        regulated.stats.paid_total < free_market.stats.paid_total,
        "regulation should cap spending: {} !< {}",
        regulated.stats.paid_total,
        free_market.stats.paid_total
    );
    assert_eq!(
        regulated.stats.completed + regulated.stats.rejected,
        regulated.stats.submitted
    );
}

/// §5.5.4 fair usage: with symmetric users on a market grid, delivered
/// service is near-even (Jain index close to 1).
#[test]
fn symmetric_users_get_fair_service() {
    let sim = base(59)
        .cluster(128, "equipartition", "baseline")
        .cluster(128, "equipartition", "baseline")
        .users(6)
        .horizon(SimDuration::from_hours(24))
        .build();
    let w = run_scenario(sim);
    assert_eq!(w.stats.per_user.len(), 6, "every user got service");
    let fairness = w.stats.user_fairness();
    assert!(
        fairness > 0.6,
        "symmetric population should be served evenly, Jain={fairness:.3}"
    );
}

/// §2.1 machine independence: a job specified in FLOPs resolves to
/// different CPU-seconds on machines of different speeds; the faster
/// machine promises (and delivers) the earlier completion, and wins
/// earliest-completion selection.
#[test]
fn flops_work_specs_resolve_per_machine() {
    use faucets_core::bid::BidRequest;
    use faucets_core::daemon::ClusterManager;
    use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
    use faucets_core::job::JobSpec;
    use faucets_core::money::Money;
    use faucets_core::qos::QosBuilder;
    use faucets_sched::adaptive::ResizeCostModel;
    use faucets_sched::cluster::Cluster;
    use faucets_sched::machine::MachineSpec;
    use faucets_sim::time::SimTime;

    let mk = |id: u64, flops: f64| {
        let mut m = MachineSpec::commodity(ClusterId(id), format!("cs{id}"), 64);
        m.flops_per_pe_sec = flops;
        Cluster::new(
            m,
            faucets_sched::policy::by_name("equipartition"),
            ResizeCostModel::free(),
        )
    };
    let mut slow = mk(1, 1e9); // 1 GF/s per PE
    let mut fast = mk(2, 4e9); // 4 GF/s per PE

    // 2.56e12 FLOPs: 2560 cpu-s on the slow machine, 640 on the fast one.
    let qos = QosBuilder::new("cfd", 16, 16, 0.0)
        .flops(2.56e12)
        .speedup(faucets_core::qos::SpeedupModel::Perfect)
        .build()
        .unwrap();
    assert!((qos.cpu_seconds(1e9) - 2560.0).abs() < 1e-6);
    assert!((qos.cpu_seconds(4e9) - 640.0).abs() < 1e-6);

    let req = BidRequest {
        job: JobId(1),
        user: UserId(1),
        qos: qos.clone(),
        issued_at: SimTime::ZERO,
    };
    let q_slow = slow.probe(&req, SimTime::ZERO).unwrap();
    let q_fast = fast.probe(&req, SimTime::ZERO).unwrap();
    // 2560/16 = 160 s vs 640/16 = 40 s.
    assert_eq!(q_slow.est_completion, SimTime::from_secs(160));
    assert_eq!(q_fast.est_completion, SimTime::from_secs(40));

    // And the fast machine actually delivers its promise.
    let spec = JobSpec::new(JobId(1), UserId(1), qos, SimTime::ZERO).unwrap();
    fast.submit_job(spec, ContractId(1), Money::ZERO, SimTime::ZERO);
    let (done, _) = fast.run_to_idle(SimTime::ZERO);
    assert_eq!(done[0].outcome.completed_at, SimTime::from_secs(40));
}

/// A bid priced by utilization reads the Gantt profile of the running set,
/// integrated from now to the job's deadline: the price is bit-equal to one
/// computed from `GanttProfile::mean_utilization` directly.
#[test]
fn util_interp_bid_prices_the_running_sets_gantt_profile() {
    use faucets_core::bid::BidRequest;
    use faucets_core::ids::{ContractId, JobId, UserId};
    use faucets_core::job::JobSpec;
    use faucets_core::market::MarketInfo;
    use faucets_core::money::Money;
    use faucets_core::qos::{PayoffFn, QosBuilder, SpeedupModel};
    use faucets_sched::gantt::GanttProfile;

    let scenario = ScenarioBuilder::new(1)
        .cluster(100, "equipartition", "util-interp")
        .mix(JobMix {
            apps: vec!["namd".into()],
            ..JobMix::default()
        });
    let Node {
        mut daemon,
        mut cluster,
    } = scenario.node(0);
    let qos = |min: u32, max: u32, work: f64| {
        QosBuilder::new("namd", min, max, work)
            .speedup(SpeedupModel::Perfect)
            .adaptive()
    };
    // Three jobs at their maximum of 20 PEs, finishing at 100, 300, 450 s.
    for (id, work) in [(1, 2_000.0), (2, 6_000.0), (3, 9_000.0)] {
        let spec = JobSpec::new(
            JobId(id),
            UserId(1),
            qos(10, 20, work).build().unwrap(),
            SimTime::ZERO,
        );
        cluster.submit_job(spec.unwrap(), ContractId(id), Money::ZERO, SimTime::ZERO);
    }
    let now = SimTime::from_secs(5);
    let deadline = SimTime::from_secs(600);
    let req = BidRequest {
        job: JobId(9),
        user: UserId(1),
        qos: qos(10, 40, 4_000.0)
            .payoff(PayoffFn::hard_only(
                deadline,
                Money::from_units(100),
                Money::ZERO,
            ))
            .build()
            .unwrap(),
        issued_at: now,
    };
    let resp = daemon.handle_bid_request(&req, &mut cluster, &MarketInfo::default(), now);
    let bid = resp.offer().expect("the job fits");

    let finishes = [100, 300, 450].map(|s| (SimTime::from_secs(s), 20));
    let u = GanttProfile::new(now, 100, 40, finishes).mean_utilization(now, deadline);
    assert!(u > 0.0 && u < 1.0, "{u}");
    // Util-interp's defaults: k(1 − α) + u · k(α + β) = 0.5 + u · 2.5.
    let m = 0.5 + u * 2.5;
    assert_eq!(bid.multiplier.to_bits(), m.to_bits());
    let price = Money::for_cpu_seconds(4_000.0, Money::from_units_f64(0.01), m);
    assert_eq!(bid.price, price);
}
