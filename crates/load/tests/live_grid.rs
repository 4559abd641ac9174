//! End-to-end smoke: a small open-loop schedule against a real
//! FS/FD/AppSpector grid on localhost, launched from a scenario. The E25
//! experiment is the scaled version; this keeps the driver honest in
//! `cargo test` — accounts, submission accounting, completion watching,
//! zero transport errors — and checks that a launched scenario is the grid
//! its simulation builds.

use faucets_core::bid::BidRequest;
use faucets_core::directory::Directory;
use faucets_core::ids::JobId;
use faucets_core::money::Money;
use faucets_core::qos::QosBuilder;
use faucets_grid::prelude::{JobMix, ScenarioBuilder};
use faucets_grid::workload::ArrivalProcess;
use faucets_load::prelude::*;
use faucets_net::prelude::{call, Clock, FaucetsClient, FdOptions, Request, Response};
use faucets_sim::time::{SimDuration, SimTime};
use std::time::Duration;

fn mix(apps: &[&str]) -> JobMix {
    JobMix {
        apps: apps.iter().map(|a| a.to_string()).collect(),
        ..JobMix::default()
    }
}

#[test]
fn small_open_loop_run_accounts_for_every_arrival() {
    let scenario = ScenarioBuilder::new(25)
        .cluster(64, "equipartition", "baseline")
        .cluster(64, "equipartition", "baseline")
        .mix(mix(&["namd"]));
    let grid = launch(&scenario, Clock::new(600.0), |_| FdOptions::default()).expect("grid");
    let (target, clock) = (&grid.target, &grid.target.clock);

    // ~60 sim-seconds of arrivals every ~2 sim-seconds → ≈30 jobs
    // squeezed into 0.1 wall-seconds of schedule.
    let schedule = Schedule::build(&ScheduleConfig {
        seed: 77,
        users: 200,
        horizon: SimDuration::from_secs(60),
        classes: vec![ClassSpec {
            name: "smoke".into(),
            arrivals: ArrivalProcess::Poisson {
                mean_interarrival: SimDuration::from_secs(2),
            },
            mix: snappy_mix(),
        }],
    });
    assert!(!schedule.is_empty());

    let opts = GridRunOptions {
        workers: 4,
        watchers: 2,
        drain: Duration::from_secs(15),
        account_prefix: "lgt-w".into(),
        ..GridRunOptions::default()
    };
    let recorder = Recorder::new(&schedule.classes, Duration::from_millis(250));
    run_against_grid(&schedule, target, &opts, &recorder).expect("run");

    let rep = recorder.report(schedule.users, opts.workers, clock.speedup(), 0, 0);
    assert_eq!(rep.offered, schedule.len() as u64, "every arrival fired");
    assert_eq!(
        rep.submitted + rep.shed + rep.declined + rep.transport_errors,
        rep.offered,
        "every arrival got exactly one verdict"
    );
    assert_eq!(
        rep.transport_errors, 0,
        "an idle localhost grid must not produce transport errors"
    );
    assert!(rep.submitted > 0, "jobs were actually accepted");
    assert!(
        rep.completed > 0,
        "watchers observed completions (submitted {}, drained {}s)",
        rep.submitted,
        opts.drain.as_secs()
    );
    assert!(rep.completed <= rep.submitted);
    let smoke = &rep.classes[0];
    assert_eq!(smoke.submit_ms.count, rep.submitted);
    assert!(smoke.submit_ms.p50 >= 0.0);
    assert!(!rep.slices.is_empty(), "soak trend slices populated");
}

/// One description, two runtimes: the Compute Servers a scenario's live
/// grid registers at its FS are the directory rows its simulation starts
/// from, and each FD prices at its cluster's normalized cost.
#[test]
fn a_launched_scenario_registers_the_clusters_its_simulation_does() {
    let price = Money::from_units_f64;
    let scenario = ScenarioBuilder::new(7)
        .cluster(32, "fcfs", "baseline")
        .cluster_priced(128, "equipartition", "util-interp", price(0.02))
        .cluster_priced(512, "easy-backfill", "fixed:1.5", price(0.005))
        .mix(mix(&["namd", "cfd"]));
    let grid = launch(&scenario, Clock::new(600.0), |_| FdOptions::default()).expect("grid");
    let sim = scenario.clone().build();
    let world = sim.world();

    // Id, name, processors and exported apps of every registered cluster.
    let rows = |dir: &Directory| {
        let mut rows: Vec<_> = dir
            .all()
            .map(|e| {
                let mut apps: Vec<_> = e.exported_apps.iter().cloned().collect();
                apps.sort();
                (e.info.cluster, e.info.name.clone(), e.info.total_pes, apps)
            })
            .collect();
        rows.sort();
        rows
    };
    let live = rows(&grid.fs.state.lock().directory);
    assert_eq!(live.len(), 3);
    assert_eq!(live, rows(&world.server.directory));

    let at = &grid.target;
    let client = FaucetsClient::register(at.fs[0], at.appspector, at.clock.clone(), "parity", "pw")
        .expect("client");
    let qos = QosBuilder::new("cfd", 4, 16, 100.0).build().unwrap();
    for fd in &grid.fds {
        let node = &world.nodes[&fd.cluster_id];
        let request = BidRequest {
            job: JobId(1),
            user: client.user,
            qos: qos.clone(),
            issued_at: SimTime::ZERO,
        };
        let token = client.token.clone();
        let reply = call(fd.service.addr, &Request::RequestBid { token, request });
        let Ok(Response::BidReply(reply)) = reply else {
            panic!("{}: expected a bid reply, got {reply:?}", fd.cluster_id)
        };
        let bid = reply.offer().expect("an idle cluster bids");
        let cpu = qos.cpu_seconds(node.daemon.info.flops_per_pe_sec);
        let cost = node.daemon.normalized_cost;
        assert_eq!(cost, node.cluster.machine.normalized_cost);
        let priced = Money::for_cpu_seconds(cpu, cost, bid.multiplier);
        assert_eq!(bid.price, priced, "{} prices off its cost", fd.cluster_id);
    }
}
