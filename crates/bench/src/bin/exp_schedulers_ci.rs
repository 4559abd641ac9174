//! E4b — The E4 headline claim under independent replications.
//!
//! The adaptive-vs-rigid comparison is the paper's central quantitative
//! claim, so we re-run it across `--reps` independent seeds (default 10)
//! and report mean ± 95 % confidence half-widths. A claim only counts as
//! reproduced if the intervals separate.

use faucets_bench::{market, standard_mix, ExitCode, Report};
use faucets_grid::prelude::*;
use faucets_grid::workload::Workload;
use faucets_sim::stats::Replications;
use faucets_sim::time::{SimDuration, SimTime};

fn main() -> ExitCode {
    let mut report = Report::new("E4b", "schedulers_ci");
    let reps: u64 = report.flag("reps", 10);
    let pes: u32 = report.flag("pes", 256);
    let rho: f64 = report.flag("rho", 0.85);
    let hours: u64 = report.flag("hours", 24);
    let mix = standard_mix();
    let inter = Workload::interarrival_for_load(&mix, rho, pes);

    let run = |policy: &'static str, seed: u64| -> (f64, f64) {
        let sim = market(seed, 6, inter, hours)
            .cluster(pes, policy, "baseline")
            .build();
        let mut w = run_scenario(sim);
        let util = w
            .nodes
            .values_mut()
            .next()
            .unwrap()
            .cluster
            .metrics
            .utilization(SimTime::ZERO + SimDuration::from_hours(hours));
        (util, w.stats.response.mean())
    };

    let mut table = Table::new(
        format!(
            "E4b: {reps} replications at rho={rho}, {pes}-PE machine, {hours} h (mean ± 95% CI)"
        ),
        &["policy", "delivered util", "mean response (s)"],
    );
    // Per-seed responses per policy; seeds are shared across policies
    // (common random numbers), so the comparison is paired.
    let mut per_policy: Vec<(&str, Vec<(f64, f64)>)> = vec![];
    for policy in ["fcfs", "easy-backfill", "equipartition"] {
        let runs: Vec<(f64, f64)> = (0..reps).map(|seed| run(policy, 1000 + seed)).collect();
        let mut util = Replications::new();
        let mut resp = Replications::new();
        for &(u, r) in &runs {
            util.record(u * 100.0);
            resp.record(r);
        }
        table.row(vec![
            policy.into(),
            format!("{}%", util.format(1)),
            resp.format(0),
        ]);
        per_policy.push((policy, runs));
    }
    report.table(&table);

    // Paired-difference test on the shared seeds: does equipartition beat
    // FCFS on every metric with a CI that excludes zero?
    let fcfs = &per_policy[0].1;
    let eq = &per_policy[2].1;
    let mut d_util = Replications::new();
    let mut d_resp = Replications::new();
    for (f, e) in fcfs.iter().zip(eq) {
        d_util.record((e.0 - f.0) * 100.0);
        d_resp.record(f.1 - e.1); // positive = equipartition faster
    }
    let util_sep = d_util.mean() - d_util.ci95_half_width() > 0.0;
    let resp_sep = d_resp.mean() - d_resp.ci95_half_width() > 0.0;
    println!(
        "Paired differences (equipartition − fcfs), mean ± 95% CI:\n\
         \x20 utilization gain : {} pp   [{}]\n\
         \x20 response cut     : {} s    [{}]",
        d_util.format(1),
        if util_sep {
            "CI excludes 0 — claim holds"
        } else {
            "CI crosses 0"
        },
        d_resp.format(0),
        if resp_sep {
            "CI excludes 0 — claim holds"
        } else {
            "CI crosses 0"
        },
    );
    report.finish()
}
