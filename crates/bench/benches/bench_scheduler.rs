//! Scheduler microbenchmarks (§4.1): the equipartition target computation,
//! Gantt window search, and a whole submit→complete cycle through the
//! Cluster Manager — the per-decision costs behind the adaptive scheduler's
//! "triggered when a new job arrives … and when a running job finishes".

use faucets_bench::ns_per_iter;
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::money::Money;
use faucets_core::qos::QosBuilder;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::gantt::GanttProfile;
use faucets_sched::machine::MachineSpec;
use faucets_sched::policy::equipartition_targets;
use faucets_sim::time::{SimDuration, SimTime};

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

fn main() {
    bench_equipartition_targets();
    bench_gantt();
    bench_cluster_cycle();
}
