//! E9 microbenchmark — Central Server matching throughput (§5.1).
//!
//! *"Potentially, millions of jobs, each with a QoS requirement, may be
//! submitted to the grid per day."* One million jobs/day is ~11.6
//! matches/second, so the broker has orders of magnitude of headroom if a
//! single candidate query takes microseconds. This bench measures
//! `Directory::candidates` across grid sizes and filter levels — one
//! iteration is one query, so 86 400 × 10⁹ / (ns/iter) is the jobs/day
//! capacity.

use faucets_bench::ns_per_iter;
use faucets_core::directory::{Directory, FilterLevel, ServerInfo, ServerStatus};
use faucets_core::ids::ClusterId;
use faucets_core::qos::{QosBuilder, QosContract};
use faucets_sim::time::{SimDuration, SimTime};

fn directory_with(n: usize) -> Directory {
    let mut d = Directory::new(SimDuration::from_secs(120));
    for i in 0..n {
        let pes = 16u32 << (i % 6);
        d.register(
            ServerInfo {
                cluster: ClusterId(i as u64),
                name: format!("cs{i}"),
                total_pes: pes,
                mem_per_pe_mb: if i % 3 == 0 { 512 } else { 2048 },
                cpu_type: "x86-64".into(),
                flops_per_pe_sec: 1e9,
                fd_addr: "10.0.0.1".into(),
                fd_port: 9000,
            },
            [
                "namd".to_string(),
                if i % 2 == 0 {
                    "cfd".to_string()
                } else {
                    "qmc".to_string()
                },
            ],
            SimTime::ZERO,
        );
        d.heartbeat(
            ClusterId(i as u64),
            ServerStatus {
                free_pes: pes / 2,
                queue_len: (i % 5) as u32,
                accepting: i % 7 != 0,
                ..Default::default()
            },
            SimTime::from_secs(1),
        );
    }
    d
}

fn sample_jobs() -> Vec<QosContract> {
    (0..16)
        .map(|i| {
            let min = 8u32 << (i % 5);
            QosBuilder::new(["namd", "cfd", "qmc"][i % 3], min, min * 2, 1000.0)
                .mem_per_pe_mb(if i % 4 == 0 { 1024 } else { 256 })
                .build()
                .unwrap()
        })
        .collect()
}

fn main() {
    let jobs = sample_jobs();
    for n in [100usize, 1_000, 10_000] {
        let dir = directory_with(n);
        for (fname, level) in [
            ("broadcast", FilterLevel::None),
            ("static", FilterLevel::Static),
            ("static+dynamic", FilterLevel::StaticAndDynamic),
        ] {
            let mut i = 0usize;
            ns_per_iter(&format!("fs_matching/{fname}/{n}"), || {
                let q = &jobs[i % jobs.len()];
                i += 1;
                dir.candidates(q, level, SimTime::from_secs(2)).len()
            });
        }
    }
}
