//! Bid-path microbenchmarks (§5.2): strategy evaluation alone, and the full
//! daemon bid path (scheduler probe + pricing) against a loaded cluster —
//! the per-request cost each Compute Server pays for participating in the
//! market.

use faucets_bench::ns_per_iter;
use faucets_core::bid::BidRequest;
use faucets_core::ids::{ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::market::{
    Baseline, BidStrategy, ClusterView, DeadlineAware, Forecast, MarketInfo,
    UtilizationInterpolated, WeatherAware,
};
use faucets_core::money::Money;
use faucets_core::qos::QosBuilder;
use faucets_grid::prelude::{JobMix, Node, ScenarioBuilder};
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
        predicted_utilization: Forecast::known(0.65),
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

/// The bid path's Compute Server: 4096 PEs under equipartition bidding
/// util-interp on `namd`, running `jobs` adaptive jobs.
fn loaded_node(jobs: usize) -> Node {
    let mix = JobMix {
        apps: vec!["namd".into()],
        ..JobMix::default()
    };
    let scenario = ScenarioBuilder::new(1).cluster(4096, "equipartition", "util-interp");
    let mut node = scenario.mix(mix).node(0);
    for i in 0..jobs {
        let qos = QosBuilder::new("namd", 1, 16, 1e6)
            .adaptive()
            .build()
            .unwrap();
        let spec = JobSpec::new(JobId(i as u64), UserId(1), qos, SimTime::ZERO).unwrap();
        let (contract, cluster) = (ContractId(i as u64), &mut node.cluster);
        cluster.submit_job(spec, contract, Money::ZERO, SimTime::ZERO);
    }
    node
}

fn bench_daemon_bid_path() {
    for running in [8usize, 64, 256] {
        let Node {
            mut daemon,
            mut cluster,
        } = loaded_node(running);
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
