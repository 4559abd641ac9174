//! E9 — Broker scalability and the §5.1 filtering claim.
//!
//! *"In future, the broadcast itself will be handled by a distributed
//! Faucets system, making the potential-server selection scale up, even in
//! the presence of millions of jobs submissions a day."* The current
//! implementation broadcasts to all servers; the ongoing work filters on
//! static and dynamic properties.
//!
//! We sweep grid size × filter level under a fixed submission rate and
//! report request-for-bid messages per job and broker wall-time per job
//! (the whole simulated protocol, measured for real).
//!
//! Paper expectation: broadcast traffic grows linearly with grid size;
//! static+dynamic filtering cuts it by the fraction of servers that cannot
//! run each job, without changing placement quality.

use faucets_bench::{market, standard_mix, ExitCode, Report};
use faucets_core::directory::FilterLevel;
use faucets_grid::prelude::*;
use faucets_sim::time::SimDuration;
use std::time::Instant;

fn main() -> ExitCode {
    let mut report = Report::new("E9", "scalability");
    let hours: u64 = report.flag("hours", 6);
    let interarrival: u64 = report.flag("interarrival-secs", 30);

    let mut table = Table::new(
        format!("E9: broker scalability — {hours} h at one job per {interarrival} s"),
        &[
            "servers",
            "filter",
            "jobs",
            "RFB msgs",
            "RFB/job",
            "all msgs",
            "wall us/job",
        ],
    );

    for n_servers in [10usize, 50, 150] {
        for (fname, filter) in [
            ("broadcast", FilterLevel::None),
            ("static", FilterLevel::Static),
            ("static+dynamic", FilterLevel::StaticAndDynamic),
        ] {
            let mut b = market(901, 16, SimDuration::from_secs(interarrival), hours)
                .mix(faucets_grid::workload::JobMix {
                    log2_min_pes: (3, 8), // min 8..256 PEs
                    ..standard_mix()
                })
                .filter(filter);
            // Diverse sizes so static filtering has something to reject:
            // sizes cycle 16..512 against 8..256-PE minimum requests.
            for i in 0..n_servers {
                b = b.cluster(16 << (i % 6), "equipartition", "baseline");
            }
            let start = Instant::now();
            let w = run_scenario(b.build());
            let wall = start.elapsed();
            let jobs = w.stats.submitted.max(1);
            table.row(vec![
                n_servers.to_string(),
                fname.into(),
                w.stats.submitted.to_string(),
                w.server.stats.rfb_messages.to_string(),
                f2(w.server.stats.rfb_messages as f64 / jobs as f64),
                w.stats.messages.to_string(),
                f2(wall.as_micros() as f64 / jobs as f64),
            ]);
        }
    }
    report.table(&table);
    println!(
        "Paper shape: broadcast RFBs/job equals the server count; filtering\n\
         removes the servers that cannot run each job. Broker wall-time per\n\
         job scales with the messages sent — see also `cargo bench -p\n\
         faucets-bench` (bench_matching) for the matched-jobs/second\n\
         microbenchmark behind the millions-of-jobs-per-day claim."
    );
    report.finish()
}
