//! Scheduler microbenchmarks (§4.1): the equipartition target computation,
//! Gantt window search, a whole submit→complete cycle through the Cluster
//! Manager, and one scheduling event at a loaded cluster — the per-decision
//! costs behind the adaptive scheduler's "triggered when a new job arrives
//! … and when a running job finishes".

use faucets_bench::ns_per_iter;
use faucets_core::bid::{Bid, BidRequest};
use faucets_core::daemon::ClusterManager;
use faucets_core::ids::{BidId, ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, QosContract};
use faucets_grid::prelude::{JobMix, Node, ScenarioBuilder};
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::gantt::GanttProfile;
use faucets_sched::machine::MachineSpec;
use faucets_sched::policy::equipartition_targets;
use faucets_sim::time::{SimDuration, SimTime};
use std::hint::black_box;
use std::time::{Duration, Instant};

fn bench_equipartition_targets() {
    for n in [10usize, 100, 1000] {
        let bounds: Vec<(u32, u32)> = (0..n)
            .map(|i| (1 + (i % 16) as u32, 8 + (i % 64) as u32 * 4))
            .collect();
        ns_per_iter(&format!("equipartition_targets/{n}"), || {
            equipartition_targets(&bounds, 4096)
        });
    }
}

fn bench_gantt() {
    for n in [10usize, 100, 1000] {
        let running: Vec<(SimTime, u32)> = (0..n)
            .map(|i| {
                (
                    SimTime::from_secs((i as u64 * 37) % 10_000 + 1),
                    1 + (i % 8) as u32,
                )
            })
            .collect();
        ns_per_iter(&format!("gantt/earliest_window/{n}"), || {
            let gantt = GanttProfile::new(SimTime::ZERO, 4096, 64, running.iter().copied());
            gantt.earliest_window(512, SimDuration::from_secs(500), SimTime::ZERO)
        });
    }
}

fn bench_cluster_cycle() {
    ns_per_iter("cluster_submit_run_complete_x32", || {
        let mut cluster = Cluster::new(
            MachineSpec::commodity(ClusterId(1), "bench", 1024),
            Box::new(Equipartition),
            ResizeCostModel::default(),
        );
        for i in 0..32u64 {
            let qos = QosBuilder::new("app", 4, 64, 10_000.0)
                .adaptive()
                .build()
                .unwrap();
            let spec = JobSpec::new(JobId(i), UserId(1), qos, SimTime::from_secs(i)).unwrap();
            cluster.submit_job(spec, ContractId(i), Money::ZERO, SimTime::from_secs(i));
        }
        let (done, _) = cluster.run_to_idle(SimTime::from_secs(32));
        done.len()
    });
}

/// Running jobs at the loaded cluster: what a 4,096-PE Compute Server
/// holds when every job of the frozen benchmark's `submit_mem` lands on it.
const LOADED: u64 = 160;

/// A `snappy_mix`-shaped contract: min 1–8 PEs, max 4 × min, 30–600
/// CPU-seconds, a deadline an hour out.
fn snappy(i: u64) -> QosContract {
    let min = 1u32 << (i % 4);
    QosBuilder::new("namd", min, 4 * min, 30.0 + (i * 37 % 571) as f64)
        .adaptive()
        .payoff(PayoffFn::hard_only(
            SimTime::from_hours(1),
            Money::from_units(1),
            Money::ZERO,
        ))
        .build()
        .unwrap()
}

fn spec(i: u64) -> JobSpec {
    JobSpec::new(JobId(i), UserId(1), snappy(i), SimTime::ZERO).unwrap()
}

/// A 4,096-PE equipartition cluster bidding baseline, running [`LOADED`]
/// mixed-bound jobs.
fn loaded_node() -> Node {
    let mix = JobMix {
        apps: vec!["namd".into()],
        ..JobMix::default()
    };
    let scenario = ScenarioBuilder::new(1).cluster(4096, "equipartition", "baseline");
    let mut node = scenario.mix(mix).node(0);
    for i in 0..LOADED {
        node.cluster
            .submit_job(spec(i), ContractId(i), Money::ZERO, SimTime::ZERO);
    }
    node
}

/// Like [`ns_per_iter`], for events that change the cluster: `event` runs
/// 16 times on each freshly loaded node, and only the events are timed,
/// until they add up to 100 ms.
fn ns_per_event(name: &str, mut event: impl FnMut(&mut Node, u64)) {
    let (mut timed, mut events, mut next) = (Duration::ZERO, 0u32, LOADED);
    while timed < Duration::from_millis(100) {
        let mut node = loaded_node();
        let t = Instant::now();
        for _ in 0..16 {
            next += 1;
            event(&mut node, next);
        }
        timed += t.elapsed();
        events += 16;
    }
    let ns = timed.as_nanos() as f64 / f64::from(events);
    println!("{name:<44} {ns:>14.1} ns/iter");
}

/// One scheduling event at the loaded cluster: a bid's probe, an award's
/// re-check and admission through the daemon, a bare submission, and a
/// completion.
fn bench_loaded_events() {
    let now = SimTime::from_secs(10);
    let request = |i: u64| BidRequest {
        job: JobId(i),
        user: UserId(1),
        qos: snappy(i),
        issued_at: now,
    };
    ns_per_event(&format!("event/{LOADED}/probe"), |node, i| {
        black_box(node.cluster.probe(&request(i), now).is_ok());
    });
    let bid = Bid::from_multiplier(
        BidId(1),
        ClusterId(1),
        JobId(0),
        1.0,
        100.0,
        Money::from_units_f64(0.01),
        SimTime::from_secs(100),
        8,
    );
    ns_per_event(&format!("event/{LOADED}/award"), |node, i| {
        let outcome =
            node.daemon
                .handle_award(spec(i), ContractId(i), &bid, &mut node.cluster, now);
        black_box(outcome.is_ok());
    });
    ns_per_event(&format!("event/{LOADED}/submit_job"), |node, i| {
        node.cluster
            .submit_job(spec(i), ContractId(i), bid.price, now);
    });
    ns_per_event(&format!("event/{LOADED}/on_time"), |node, _| {
        let next = node
            .cluster
            .next_completion()
            .expect("the cluster is loaded");
        black_box(node.cluster.on_time(next));
    });
}

fn main() {
    bench_equipartition_targets();
    bench_gantt();
    bench_cluster_cycle();
    bench_loaded_events();
}
