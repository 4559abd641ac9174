//! E15 — Maintenance drains and job migration (§1, §3, §4.1).
//!
//! §1's "babysitting" list includes: *"when the machine is about to be
//! taken down, checkpointing the job and moving it to another machine, if
//! possible"* — which Faucets automates. A 3-cluster grid runs a steady
//! workload; cluster 1 goes down for maintenance mid-day. We compare the
//! Faucets behaviour (checkpoint + migrate to a subcontracted Compute
//! Server) against the pre-grid behaviour (jobs wait out the window),
//! sweeping the window length.

use faucets_bench::{market, ExitCode, Report};
use faucets_grid::prelude::*;
use faucets_sim::time::{SimDuration, SimTime};

fn run(window_hours: u64, migrate: bool) -> GridWorld {
    let sim = market(1500, 8, SimDuration::from_secs(90), 24)
        .cluster(256, "equipartition", "baseline")
        .cluster(128, "equipartition", "baseline")
        .cluster(128, "equipartition", "baseline")
        .maintenance(
            0,
            SimTime::from_hours(6),
            SimDuration::from_hours(window_hours),
        )
        .migrate_on_maintenance(migrate)
        .build();
    run_scenario(sim)
}

fn main() -> ExitCode {
    let mut report = Report::new("E15", "maintenance");
    let mut table = Table::new(
        "E15: maintenance drain of the big cluster at t=6h — migrate vs wait",
        &[
            "window",
            "mode",
            "migrations",
            "completed",
            "mean resp (s)",
            "p95 slowdown",
            "misses",
        ],
    );
    for window in [2u64, 4, 8] {
        for migrate in [true, false] {
            let w = run(window, migrate);
            table.row(vec![
                format!("{window} h"),
                if migrate {
                    "checkpoint+migrate"
                } else {
                    "wait out window"
                }
                .into(),
                w.stats.migrations.to_string(),
                w.stats.completed.to_string(),
                f2(w.stats.response.mean()),
                f2(w.stats.slowdown_p95.estimate()),
                w.stats.deadline_misses.to_string(),
            ]);
        }
    }
    report.table(&table);
    println!(
        "Paper shape: migration keeps response times near the no-maintenance\n\
         level and avoids deadline misses; waiting out the window hurts in\n\
         proportion to its length — the babysitting cost §1 sets out to\n\
         eliminate."
    );
    report.finish()
}
