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
//! extrapolating to ≥ 1M jobs/day. Writes `BENCH_load.json` (uploaded
//! as a CI artifact); prints `E25 PASS` when every assertion holds.
//! `--users`, `--rate`, `--soak-ms`, `--workers`, `--fds`, and `--smoke`
//! resize the run (CI uses the smoke shape).

use faucets_bench::{
    flag, interarrival, overload_counters, poisson_class, schedule_for, spawn_daemon, switch,
};
use faucets_grid::workload::{ArrivalProcess, JobMix};
use faucets_load::prelude::*;
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::prelude::{spawn_appspector, spawn_fs, Clock};
use faucets_sim::dist::{LogNormal, UniformDist};
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
                mean_interarrival: interarrival(rate_per_sec * 0.3, SPEEDUP),
                amplitude: 0.5,
            },
            mix: batch_mix(),
        },
    ];
    schedule_for(seed, users, wall_ms, SPEEDUP, classes)
}

fn run(
    schedule: &Schedule,
    target: &GridTarget,
    opts: &GridRunOptions,
    slice: Duration,
) -> LoadReport {
    let (flaps0, rejects0) = overload_counters();
    let recorder = Recorder::new(&schedule.classes, slice);
    run_against_grid(schedule, target, opts, &recorder).expect("load run");
    let (flaps, rejects) = overload_counters();
    recorder.report(
        schedule.users,
        opts.workers,
        SPEEDUP,
        flaps - flaps0,
        rejects - rejects0,
    )
}

fn main() {
    let smoke = switch("smoke");
    let users = flag("users", if smoke { 2_000u32 } else { 10_000 });
    let rate = flag("rate", if smoke { 40.0f64 } else { 60.0 });
    let soak_ms = flag("soak-ms", if smoke { 12_000u64 } else { 20_000 });
    let ladder_ms = flag("ladder-ms", if smoke { 2_500u64 } else { 4_000 });
    let workers = flag("workers", 64usize);
    let watchers = flag("watchers", 8usize);
    let fds = flag("fds", 4u64);
    let drain_ms = flag("drain-ms", 15_000u64);

    println!(
        "E25 — open-loop load harness: {users} virtual users, {rate}/s offered, \
         {fds} FDs, speedup {SPEEDUP}x{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    let clock = Clock::new(SPEEDUP);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 125).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 32).expect("AS");
    let _fds: Vec<FdHandle> = (1..=fds)
        .map(|i| {
            spawn_daemon(
                i,
                "turing",
                fs.service.addr,
                aspect.service.addr,
                clock.clone(),
                FdOptions::default(),
            )
        })
        .collect();
    let target = GridTarget::single(fs.service.addr, aspect.service.addr, clock.clone());

    // Phase 1: the goodput-vs-offered-load ladder. Distinct account
    // prefixes per arm keep client-assigned job ids grid-unique.
    let multipliers = [0.5, 1.0, 2.0];
    let mut ladder = Vec::new();
    for (i, mult) in multipliers.iter().enumerate() {
        let sched = two_class_schedule(200 + i as u64, users, rate * mult, ladder_ms);
        let opts = GridRunOptions {
            workers,
            watchers,
            drain: Duration::from_millis(drain_ms),
            account_prefix: format!("e25a{i}-w"),
            ..GridRunOptions::default()
        };
        let rep = run(&sched, &target, &opts, Duration::ZERO);
        println!(
            "E25: {mult:>3}x ladder — offered {:>5.1}/s, submitted {:>5.1}/s, \
             goodput {:>5.1}/s, shed {:>4.1}%, submit p99 {:>6.1} ms, transport errs {}",
            rep.offered_per_sec,
            rep.submitted_per_sec,
            rep.goodput_per_sec,
            rep.shed_rate * 100.0,
            rep.classes
                .iter()
                .map(|c| c.submit_ms.p99)
                .fold(0.0, f64::max),
            rep.transport_errors,
        );
        ladder.push((*mult, rep));
    }
    let calibrated = &ladder[1].1;
    assert_eq!(
        calibrated.transport_errors, 0,
        "calibrated arm must be transport-clean"
    );
    assert!(
        calibrated.submitted as f64 >= 0.95 * calibrated.offered as f64,
        "calibrated load should be absorbed (submitted {} of {})",
        calibrated.submitted,
        calibrated.offered
    );

    // Phase 2: the soak — full population, calibrated rate, trend slices.
    let sched = two_class_schedule(300, users, rate, soak_ms);
    assert_eq!(sched.users, users);
    let opts = GridRunOptions {
        workers,
        watchers,
        drain: Duration::from_millis(drain_ms),
        account_prefix: "e25s-w".into(),
        ..GridRunOptions::default()
    };
    let soak = run(&sched, &target, &opts, Duration::from_secs(2));
    println!(
        "\nE25: soak — {} arrivals over {:.1}s: submitted {:>5.1}/s, goodput {:>5.1}/s \
         (≈{:.2}M jobs/day), shed {:.1}%, transport errs {}, breaker flaps {}",
        soak.offered,
        soak.wall_secs,
        soak.submitted_per_sec,
        soak.goodput_per_sec,
        soak.jobs_per_day / 1e6,
        soak.shed_rate * 100.0,
        soak.transport_errors,
        soak.breaker_flaps,
    );
    for c in &soak.classes {
        println!(
            "E25:   {:>12} — offered {:>5}, completed {:>5}, deadline-hit {:>5.1}%, \
             submit p50/p99/p999 {:.0}/{:.0}/{:.0} ms, complete p50/p99/p999 {:.0}/{:.0}/{:.0} ms",
            c.class,
            c.offered,
            c.completed,
            c.deadline_hit_rate * 100.0,
            c.submit_ms.p50,
            c.submit_ms.p99,
            c.submit_ms.p999,
            c.complete_ms.p50,
            c.complete_ms.p99,
            c.complete_ms.p999,
        );
    }

    // The headline acceptance gates.
    assert!(
        soak.virtual_users >= if smoke { 2_000 } else { 10_000 },
        "population too small: {}",
        soak.virtual_users
    );
    assert_eq!(
        soak.transport_errors, 0,
        "zero transport-level errors at the calibrated load point"
    );
    assert_eq!(
        soak.offered,
        sched.len() as u64,
        "open loop fired every scheduled arrival"
    );
    assert!(
        soak.completed > 0 && soak.goodput_per_sec > 0.0,
        "completions observed"
    );
    let jobs_per_day_floor = if smoke { 250_000.0 } else { 1_000_000.0 };
    assert!(
        soak.jobs_per_day >= jobs_per_day_floor,
        "extrapolated {:.0} jobs/day under the {jobs_per_day_floor:.0} floor",
        soak.jobs_per_day
    );
    assert!(
        !soak.slices.is_empty(),
        "soak report must carry trend slices"
    );

    let report = serde_json::json!({
        "experiment": "E25",
        "smoke": smoke,
        "speedup": SPEEDUP,
        "users": users,
        "rate_per_sec": rate,
        "fds": fds,
        "workers": workers,
        "watchers": watchers,
        "ladder": multipliers
            .iter()
            .zip(&ladder)
            .map(|(m, (_, rep))| {
                serde_json::json!({
                    "multiplier": m,
                    "offered_per_sec": rep.offered_per_sec,
                    "submitted_per_sec": rep.submitted_per_sec,
                    "goodput_per_sec": rep.goodput_per_sec,
                    "shed_rate": rep.shed_rate,
                    "transport_errors": rep.transport_errors,
                })
            })
            .collect::<Vec<_>>(),
        "soak": soak,
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_load.json",
        serde_json::to_vec_pretty(&report).unwrap(),
    )
    .expect("write BENCH_load.json");

    println!("\nE25 PASS — wrote BENCH_load.json");
}
