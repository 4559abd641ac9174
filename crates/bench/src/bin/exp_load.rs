//! E25 — Open-loop load harness: tens of thousands of virtual users
//! against a live TCP grid, with an SLO report.
//!
//! The paper's scalability claim ("hundreds of Compute Servers, millions
//! of jobs per day", §5) had only ever been exercised in simulation or
//! by ≤16 closed-loop clients (E22/E23). This experiment replays a
//! pre-computed arrival schedule — Poisson + day/night-modulated
//! arrivals, heavy-tailed work, two QoS classes — open-loop against a
//! real FS/FD/AppSpector grid on localhost:
//!
//! 1. **Ladder** — short arms at 0.5x/1x/2x the calibrated offered
//!    rate chart goodput vs offered load; the grid must not collapse at
//!    2x (sheds are fine, transport errors are not).
//! 2. **Soak** — the full virtual-user population at the calibrated
//!    rate for the soak window, with completion watchers scoring
//!    per-class p50/p99/p999 submit and completion latency, soft
//!    deadline hits, shed rates, and wall-time trend slices.
//!
//! Acceptance (full run): ≥ 10,000 open-loop virtual users, zero
//! transport-level errors at the calibrated load point, and goodput
//! extrapolating to ≥ 1M jobs/day. `--users`, `--rate`, `--soak-ms`,
//! `--workers`, `--fds`, and `--smoke` resize the run (CI uses the smoke
//! shape).

use faucets_bench::{
    commodity, load_fields, poisson_class, run_load, schedule_for, Bound, ExitCode, Report,
};
use faucets_grid::prelude::Table;
use faucets_grid::workload::{ArrivalProcess, JobMix};
use faucets_load::prelude::*;
use faucets_net::fd::FdOptions;
use faucets_net::prelude::Clock;
use faucets_sim::dist::{LogNormal, UniformDist};
use faucets_sim::time::SimDuration;
use std::time::Duration;

const SPEEDUP: f64 = 600.0;

/// A moderately heavier batch mix than [`snappy_mix`]: bigger work with
/// a fatter tail, still sized to complete in under a wall second at the
/// grid speedup.
fn batch_mix() -> JobMix {
    JobMix {
        work: LogNormal::with_median(400.0, 1.0),
        work_clamp: (60.0, 2_000.0),
        slack: UniformDist::new(4.0, 12.0),
        ..snappy_mix()
    }
}

/// Two QoS classes splitting `rate` wall-jobs/second: interactive
/// (Poisson, light) and batch (day/night-modulated, heavier tail).
fn two_class_schedule(seed: u64, users: u32, rate_per_sec: f64, wall_ms: u64) -> Schedule {
    let classes = vec![
        poisson_class("interactive", rate_per_sec * 0.7, SPEEDUP),
        ClassSpec {
            name: "batch".into(),
            arrivals: ArrivalProcess::DailyCycle {
                mean_interarrival: SimDuration::from_secs_f64(SPEEDUP / (rate_per_sec * 0.3)),
                amplitude: 0.5,
            },
            mix: batch_mix(),
        },
    ];
    schedule_for(seed, users, wall_ms, SPEEDUP, classes)
}

fn main() -> ExitCode {
    let mut report = Report::new("E25", "load");
    let smoke = report.switch("smoke");
    let users = report.flag("users", if smoke { 2_000u32 } else { 10_000 });
    let rate = report.flag("rate", if smoke { 40.0f64 } else { 60.0 });
    let soak_ms = report.flag("soak-ms", if smoke { 12_000u64 } else { 20_000 });
    let ladder_ms = report.flag("ladder-ms", if smoke { 2_500u64 } else { 4_000 });
    let workers = report.flag("workers", 64usize);
    let watchers = report.flag("watchers", 8usize);
    let fds = report.flag("fds", 4usize);
    let drain_ms = report.flag("drain-ms", 15_000u64);
    report.knob("speedup", SPEEDUP);
    println!("E25 — open-loop load harness against a live FS/FD/AppSpector grid\n");

    let grid = launch(&commodity(125, fds), Clock::new(SPEEDUP), |_| {
        FdOptions::default()
    });
    let grid = grid.expect("grid");
    let target = &grid.target;
    // Distinct account prefixes per arm keep client-assigned job ids
    // grid-unique.
    let opts = |prefix: String| GridRunOptions {
        workers,
        watchers,
        drain: Duration::from_millis(drain_ms),
        account_prefix: prefix,
        ..GridRunOptions::default()
    };

    // Phase 1: the goodput-vs-offered-load ladder.
    for (i, mult) in [0.5, 1.0, 2.0].into_iter().enumerate() {
        let sched = two_class_schedule(200 + i as u64, users, rate * mult, ladder_ms);
        let rep = run_load(&sched, target, &opts(format!("e25a{i}-w")), Duration::ZERO);
        let level = format!("ladder.x{mult}");
        report.metrics(&level, &load_fields(&rep));
        if mult == 1.0 {
            // The calibrated arm is transport-clean and absorbed.
            let errors = rep.transport_errors;
            report.gate(&format!("{level}.transport_errors"), errors, Bound::eq(0));
            let absorbed = rep.submitted as f64 / rep.offered.max(1) as f64;
            report.gate(&format!("{level}.absorbed"), absorbed, Bound::ge(0.95));
        }
    }

    // Phase 2: the soak — full population, calibrated rate, trend slices.
    let sched = two_class_schedule(300, users, rate, soak_ms);
    let soak = run_load(
        &sched,
        target,
        &opts("e25s-w".into()),
        Duration::from_secs(2),
    );
    report.metrics("soak", &load_fields(&soak));
    report.metric("soak.wall_secs", soak.wall_secs, "s");
    report.metric("soak.breaker_flaps", soak.breaker_flaps, "count");
    let rejections = soak.overload_rejections;
    report.metric("soak.overload_rejections", rejections, "count");
    let mut classes = Table::new(
        "E25: soak by QoS class (latencies in ms, p50/p99/p999)",
        &[
            "class",
            "offered",
            "completed",
            "deadline-hit",
            "submit",
            "complete",
        ],
    );
    let lat = |l: &LatencyReport| format!("{:.0}/{:.0}/{:.0}", l.p50, l.p99, l.p999);
    for c in &soak.classes {
        classes.row(vec![
            c.class.clone(),
            c.offered.to_string(),
            c.completed.to_string(),
            format!("{:.1}%", c.deadline_hit_rate * 100.0),
            lat(&c.submit_ms),
            lat(&c.complete_ms),
        ]);
    }
    report.table(&classes);
    let mut slices = Table::new(
        "E25: soak trend slices",
        &["start (s)", "offered", "submitted", "shed", "completed"],
    );
    for s in &soak.slices {
        slices.row(vec![
            format!("{:.0}", s.start_s),
            s.offered.to_string(),
            s.submitted.to_string(),
            s.shed.to_string(),
            s.completed.to_string(),
        ]);
    }
    report.table(&slices);

    // The headline acceptance gates.
    let (users_floor, per_day_floor) = if smoke {
        (2_000, 250_000)
    } else {
        (10_000, 1_000_000)
    };
    let population = Bound::ge(users_floor);
    report.gate("soak.virtual_users", soak.virtual_users, population);
    report.gate("soak.transport_errors", soak.transport_errors, Bound::eq(0));
    // The open loop fired every scheduled arrival.
    report.gate("soak.offered", soak.offered, Bound::eq(sched.len()));
    report.gate("soak.completed", soak.completed, Bound::gt(0));
    let per_day = Bound::ge(per_day_floor);
    report.gate("soak.jobs_per_day", soak.jobs_per_day, per_day);
    report.gate("soak.trend_slices", soak.slices.len(), Bound::gt(0));
    report.finish()
}
