//! A live grid's footprint: each service spawns its workers as concurrency
//! needs them, so a grid of many Compute Servers that places a few jobs
//! runs a few threads per service, not `ServeOptions::workers` each. This
//! file holds one test and must keep holding one: the census counts every
//! thread of the process, and a second test running beside it would be
//! counted too.

use faucets_core::qos::QosBuilder;
use faucets_grid::prelude::{JobMix, ScenarioBuilder};
use faucets_load::prelude::*;
use faucets_net::prelude::{Clock, FaucetsClient, FdOptions};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs")
        .count()
}

/// Sixteen Compute Servers, their FS and their AppSpector (18 services)
/// place eight jobs and gain at most four threads per service.
#[test]
fn a_sixteen_cluster_grid_runs_a_few_threads_per_service() {
    const CLUSTERS: usize = 16;
    let mut scenario = ScenarioBuilder::new(42).mix(JobMix {
        apps: vec!["namd".into()],
        ..JobMix::default()
    });
    for _ in 0..CLUSTERS {
        scenario = scenario.cluster(64, "equipartition", "baseline");
    }
    let before = threads();
    let grid = launch(&scenario, Clock::new(600.0), |_| FdOptions::default()).expect("grid");
    let at = &grid.target;
    let mut client =
        FaucetsClient::register(at.fs[0], at.appspector, at.clock.clone(), "census", "pw")
            .expect("client");
    let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
    for _ in 0..8 {
        client.submit(qos.clone(), &[]).expect("placed");
    }
    let (services, gained) = (CLUSTERS + 2, threads() - before);
    assert!(
        gained <= 4 * services,
        "{services} services gained {gained} threads"
    );
}
