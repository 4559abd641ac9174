//! Bid-path microbenchmarks (§5.2): strategy evaluation alone, and the full
//! daemon bid path (scheduler probe + pricing) against a loaded cluster —
//! the per-request cost each Compute Server pays for participating in the
//! market.

use faucets_bench::ns_per_iter;
use faucets_core::bid::BidRequest;
use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::market::{
    Baseline, BidStrategy, ClusterView, DeadlineAware, MarketInfo, UtilizationInterpolated,
    WeatherAware,
};
use faucets_core::money::Money;
use faucets_core::qos::QosBuilder;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_sim::time::SimTime;

fn request(i: u64) -> BidRequest {
    let min = 4u32 << (i % 4);
    BidRequest {
        job: JobId(i),
        user: UserId(1),
        qos: QosBuilder::new("namd", min, min * 4, 5_000.0)
            .build()
            .unwrap(),
        issued_at: SimTime::from_secs(i),
    }
}

fn bench_strategies() {
    let view = ClusterView {
        total_pes: 512,
        free_pes: 128,
        normalized_cost: Money::from_units_f64(0.01),
        flops_per_pe_sec: 1.0,
        predicted_utilization: 0.65,
        now: SimTime::from_secs(1000),
    };
    let market = MarketInfo {
        recent_avg_multiplier: Some(1.2),
        grid_utilization: Some(0.7),
    };
    let req = request(1);

    let strategies: Vec<(&str, Box<dyn BidStrategy>)> = vec![
        ("baseline", Box::new(Baseline)),
        ("util-interp", Box::new(UtilizationInterpolated::default())),
        ("deadline-aware", Box::new(DeadlineAware::default())),
        ("weather-aware", Box::new(WeatherAware::default())),
    ];
    for (name, s) in &strategies {
        ns_per_iter(&format!("strategy_multiplier/{name}"), || {
            s.multiplier(&req, &view, &market)
        });
    }
}

fn loaded_cluster(jobs: usize) -> Cluster {
    let mut cluster = Cluster::new(
        MachineSpec::commodity(ClusterId(1), "bench", 4096),
        Box::new(Equipartition),
        ResizeCostModel::default(),
    );
    for i in 0..jobs {
        let qos = QosBuilder::new("namd", 1, 16, 1e6)
            .adaptive()
            .build()
            .unwrap();
        let spec = JobSpec::new(JobId(i as u64), UserId(1), qos, SimTime::ZERO).unwrap();
        cluster.submit_job(spec, ContractId(i as u64), Money::ZERO, SimTime::ZERO);
    }
    cluster
}

fn bench_daemon_bid_path() {
    for running in [8usize, 64, 256] {
        let mut cluster = loaded_cluster(running);
        let machine_info = cluster.machine.server_info("10.0.0.1", 9000);
        let mut daemon = FaucetsDaemon::new(
            machine_info,
            ["namd".to_string()],
            Box::new(UtilizationInterpolated::default()),
            Money::from_units_f64(0.01),
        );
        let market = MarketInfo::default();
        let mut i = 0u64;
        ns_per_iter(&format!("daemon_bid_path/probe+price/{running}"), || {
            i += 1;
            daemon.handle_bid_request(&request(i), &mut cluster, &market, SimTime::from_secs(1))
        });
    }
}

fn main() {
    bench_strategies();
    bench_daemon_bid_path();
}
