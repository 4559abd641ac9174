//! E14 — Trace replay: the §5.4 simulation driven by a recorded "pattern of
//! job submissions" instead of a synthetic generator.
//!
//! Reads a Standard Workload Format log (`--trace <path>`; without one, a
//! deterministic synthetic day in SWF form is generated in-memory so the
//! experiment is self-contained) and replays it through the grid under each
//! scheduling policy.
//!
//! Expectation: the adaptive scheduler's advantage (E4) survives contact
//! with trace-shaped workloads — bursty arrivals and the characteristic
//! heavy runtime tail — not just clean Poisson assumptions.

use faucets_bench::{ExitCode, Report};
use faucets_core::market::SelectionPolicy;
use faucets_grid::prelude::*;
use faucets_sim::dist::Dist;
use faucets_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic one-day SWF log: bursty day/night arrivals, log-normal
/// runtimes, power-of-two processor requests — SWF-shaped data without
/// shipping a 3 MB archive file.
fn synthetic_swf() -> String {
    let mut rng = StdRng::seed_from_u64(1404);
    let runtime = faucets_sim::dist::LogNormal::with_median(1800.0, 1.3);
    let mut out = String::from("; synthetic SWF day (generated, seed 1404)\n");
    let mut t = 0u64;
    let mut job = 1u64;
    while t < 86_400 {
        // Bursty: short gaps by day, long by night.
        let hour = (t / 3600) % 24;
        let mean_gap = if (8..20).contains(&hour) {
            120.0
        } else {
            600.0
        };
        t += faucets_sim::dist::Exp::with_mean(mean_gap).sample(&mut rng) as u64 + 1;
        let run = runtime.sample(&mut rng).clamp(60.0, 50_000.0) as u64;
        let procs = 1u32 << rng.random_range(0..7);
        let user = rng.random_range(1..9);
        out.push_str(&format!(
            "{job} {t} 10 {run} {procs} -1 -1 {procs} {est} -1 1 {user} 1 1 1 1 -1 -1\n",
            est = run * 2
        ));
        job += 1;
    }
    out
}

fn main() -> ExitCode {
    let mut report = Report::new("E14", "trace_replay");
    let text = match report.flag("trace", String::new()).as_str() {
        "" => synthetic_swf(),
        path => std::fs::read_to_string(path).unwrap_or_else(|e| panic!("cannot read {path}: {e}")),
    };
    let shrink: u32 = report.flag("shrink-factor", 2);

    let records = parse_swf(&text).expect("valid SWF");
    println!(
        "Replaying {} trace jobs ({} CPU-hours recorded)\n",
        records.len(),
        (records
            .iter()
            .map(|r| r.runtime_secs * r.procs as f64)
            .sum::<f64>()
            / 3600.0) as u64
    );

    let mut table = Table::new(
        "E14: SWF trace replay through the grid, per scheduling policy",
        &[
            "policy",
            "completed",
            "rejected",
            "mean wait (s)",
            "mean slowdown",
            "p95 slowdown",
        ],
    );
    for policy in [
        "fcfs",
        "easy-backfill",
        "conservative-backfill",
        "equipartition",
    ] {
        let cfg = TraceConfig {
            shrink_factor: shrink,
            ..TraceConfig::default()
        };
        let horizon = SimTime::from_hours(24);
        let workload = workload_from_swf(&text, &cfg, horizon).expect("parsed");
        let sim = ScenarioBuilder::new(1404)
            .cluster(256, policy, "baseline")
            .cluster(128, policy, "baseline")
            .users(8)
            .mode(MarketMode::Bidding(SelectionPolicy::LeastCost))
            // Clusters export what the trace jobs request.
            .mix(JobMix {
                apps: vec!["trace-app".into()],
                ..JobMix::default()
            })
            .workload(workload)
            .horizon(SimDuration::from_hours(24))
            .build();
        let w = run_scenario(sim);
        table.row(vec![
            policy.into(),
            w.stats.completed.to_string(),
            w.stats.rejected.to_string(),
            f2(w.stats.wait.mean()),
            f2(w.stats.slowdown.mean()),
            f2(w.stats.slowdown_p95.estimate()),
        ]);
    }
    report.table(&table);
    println!(
        "Shape: the adaptive scheduler completes the most trace jobs, as in\n\
         E4. (A policy that admits more marginal jobs — compare the rejected\n\
         column — reports a mean wait over a harder population.) Feed a\n\
         real Parallel Workloads Archive log with --trace <file.swf>."
    );
    report.finish()
}
