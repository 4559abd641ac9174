//! E27 — Self-healing control plane: sentinel failover under a seeded
//! nemesis storm.
//!
//! E24 measured failover with an *operator* in the loop: the harness
//! itself probed the follower, elected, fenced, and respawned. Here the
//! harness only breaks things. A [`faucets_net::sentinel::Sentinel`]
//! watches a sync-replicated FD through lease probes while a seeded
//! [`faucets_load::nemesis::NemesisPlan`] — kill -9, replica bounces,
//! clock skew — fires against the grid under E25-style open-loop load.
//!
//! Two phases:
//!
//! 1. **Operator baseline** — the E24 procedure (probe → `pick_primary`
//!    → release → `prepare_promotion` → respawn), wall-clock timed from
//!    the kill. This is the human-driven MTTR the sentinel competes with.
//! 2. **Nemesis storm** — open-loop load against a sentinel-guarded
//!    replicated FD while the fault schedule fires. A witness client's
//!    acknowledged awards are tracked through
//!    [`faucets_load::nemesis::InvariantChecker`].
//!
//! Acceptance: the invariant report holds — **zero acked-award loss**,
//! **one primary per epoch**, automatic MTTR within **10× the operator
//! baseline** — plus at least one completed automatic failover and a
//! fresh award accepted by the promoted primary. `--seed` replays a
//! schedule exactly; `--smoke` shrinks the storm for CI.

use faucets_bench::{
    follower_daemon, journaled, kill_and_recover, load_fields, poisson_class, qos_for, register,
    run_load, schedule_for, scratch, spawn_daemon, Bound, ExitCode, Report,
};
use faucets_grid::prelude::Table;
use faucets_load::prelude::*;
use faucets_net::fd::FdHandle;
use faucets_net::prelude::*;
use faucets_net::sentinel::{spawn_sentinel, SentinelOptions};
use parking_lot::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

const SPEEDUP: f64 = 600.0;

fn main() -> ExitCode {
    let mut report = Report::new("E27", "selfheal");
    let smoke = report.switch("smoke");
    let jobs = report.flag("jobs", 4usize);
    // Default seed chosen (by inspecting generated schedules) so the
    // storm bounces the replica *before* its one primary kill in both
    // the smoke and full shapes; any other seed is equally valid and
    // replayable.
    let seed = report.flag("seed", 19u64);
    let events = report.flag("events", if smoke { 3usize } else { 6 });
    let window_ms = report.flag("window-ms", if smoke { 4_000u64 } else { 9_000 });
    let users = report.flag("users", if smoke { 300u32 } else { 800 });
    let rate = report.flag("rate", if smoke { 8.0f64 } else { 16.0 });
    let workers = report.flag("workers", 16usize);
    report.knob("speedup", SPEEDUP);
    println!("E27 — self-healing control plane: sentinel failover under a seeded nemesis\n");

    // ---- Phase 1: operator-driven baseline (the E24 procedure) ----
    let baseline = kill_and_recover(&mut report, "e27", SPEEDUP, jobs, true);
    // The sentinel's MTTR clock starts at suspicion (detection cadence is
    // its own knob), so the 10x budget compares recovery work to recovery
    // work. A 50 ms floor keeps a sub-resolution baseline from turning
    // the budget into noise.
    let mttr_bound = Duration::from_secs_f64(10.0 * baseline.max(0.05));

    // ---- Phase 2: the nemesis storm against a sentinel-guarded grid ----
    const SVC: &str = "fd-cs-9";
    let clock = Clock::new(SPEEDUP);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 272).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 32).expect("AS");
    let target = GridTarget::single(fs.service.addr, aspect.service.addr, clock.clone());
    let follower_dir = scratch("e27", "storm-follower");
    let follower = follower_daemon(SVC, follower_dir.clone());
    let follower_addr = follower.addr;

    let spawn = {
        let at = target.clone();
        move |opts| spawn_daemon(9, "turing", &at, opts)
    };
    let fd = spawn(journaled(
        scratch("e27", "storm-primary"),
        Some(follower_addr),
    ));

    // The promote callback is the sentinel's only "operator": respawn the
    // FD on the released, promotion-prepared journal. Re-registration
    // with the FS flips the directory row to the new address.
    let promoted: Arc<Mutex<Vec<FdHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let promoted_cb = Arc::clone(&promoted);
    let opts = SentinelOptions {
        service: SVC.into(),
        lease_ttl: Duration::from_millis(300),
        probe_every: Duration::from_millis(30),
        call: CallOptions {
            retry: RetryPolicy::none(),
            ..CallOptions::default()
        },
        ..SentinelOptions::default()
    };
    let skew = Arc::clone(&opts.skew_ms);
    let sentinel = spawn_sentinel(
        fd.service.addr,
        vec![follower_addr],
        opts,
        move |dir, _epoch| {
            let fd2 = spawn(journaled(dir, None));
            let addr = fd2.service.addr;
            promoted_cb.lock().push(fd2);
            Ok(addr)
        },
    )
    .expect("sentinel");

    // Witness awards: acknowledged *before* the storm, so the nemesis has
    // every chance to lose them. It must not.
    let mut witness = register(&target, "witness");
    witness.retry = RetryPolicy::standard(27);
    let mut checker = InvariantChecker::new();
    let mut witnessed = Vec::new();
    for i in 0..jobs {
        let sub = witness
            .submit(
                qos_for(&clock, "namd", 64.0 * 3_600.0, 24),
                &[("w.dat".into(), vec![i as u8; 32])],
            )
            .expect("witness award acked");
        checker.acked(sub.job);
        witnessed.push(sub.job);
    }

    // The seeded schedule: deterministic down to the byte; quote the seed
    // to replay a failing storm exactly.
    let plan = NemesisPlan::generate(
        seed,
        &NemesisConfig {
            events,
            min_kills: 1,
            window_ms,
            replicas: 1,
            ..NemesisConfig::default()
        },
    );
    print!("{}", plan.description());

    // Open-loop load spans the whole storm; the nemesis fires from the
    // main thread while workers submit. The applier is sequential (fire()
    // walks the schedule in order), which the skip rules below rely on.
    let schedule = schedule_for(
        seed ^ 0xE27,
        users,
        window_ms + 1_500,
        SPEEDUP,
        vec![poisson_class("interactive", rate, SPEEDUP)],
    );
    let gopts = GridRunOptions {
        workers,
        watchers: 4,
        drain: Duration::from_secs(12),
        account_prefix: "e27-w".into(),
        ..GridRunOptions::default()
    };
    let mut applied = Table::new("E27: nemesis events as applied", &["event"]);
    let load = std::thread::scope(|s| {
        let loader = s.spawn(|| run_load(&schedule, &target, &gopts, Duration::from_secs(1)));

        let mut live_primary = Some(fd);
        let mut live_follower = Some(follower);
        fire(&plan, |kind| {
            let note = match kind {
                FaultKind::KillPrimary if live_primary.is_some() => {
                    live_primary.take().expect("primary handle").kill();
                    "applied: kill -9 primary FD".to_string()
                }
                // One standing replica: once its journal is promoted a
                // second kill would be unrecoverable by design (nothing
                // left to elect), and a bounce would fight the promoted
                // FD for the journal directory. Skips are logged, never
                // silent.
                FaultKind::KillPrimary => "skipped: kill (no replica left to elect)".into(),
                FaultKind::RestartReplica { downtime_ms, .. } => {
                    if live_primary.is_none() {
                        "skipped: replica bounce (journal already promoted)".into()
                    } else if let Some(f) = live_follower.take() {
                        let old = f.addr;
                        f.shutdown();
                        std::thread::sleep(Duration::from_millis(*downtime_ms));
                        // No SO_REUSEADDR in the listener stack, so the
                        // daemon comes back on a fresh port; the sentinel
                        // is told, the primary's link stays broken — a
                        // harsher fault than a plain flap, and the
                        // invariants must hold regardless.
                        let f2 = follower_daemon(SVC, follower_dir.clone());
                        let new = f2.addr;
                        sentinel.swap_replica(old, new);
                        live_follower = Some(f2);
                        format!("applied: replica bounce {downtime_ms} ms ({old} -> {new})")
                    } else {
                        "skipped: replica bounce (replica not running)".into()
                    }
                }
                FaultKind::Partition { heal_ms } => {
                    // A real probe black-hole needs OS-level tooling; the
                    // short-of-quorum abort path it would exercise is
                    // pinned by crates/net/tests/sentinel.rs instead.
                    format!("skipped: partition {heal_ms} ms (no netem in-process)")
                }
                FaultKind::ClockSkew { delta_ms } => {
                    skew.store(*delta_ms, Ordering::Relaxed);
                    format!("applied: sentinel clock skew {delta_ms} ms")
                }
            };
            applied.row(vec![note]);
        });

        let failed_over = sentinel.await_failovers(1, Duration::from_secs(30));
        report.check("sentinel.failed_over_unattended", failed_over);
        loader.join().expect("load thread")
    });
    report.table(&applied);

    // Every witnessed award must complete on whatever primary survived.
    for job in &witnessed {
        if witness
            .wait(*job, Duration::from_secs(60))
            .is_ok_and(|s| s.completed)
        {
            checker.completed(*job);
        }
    }
    // And the promoted primary accepts fresh work.
    let new_award = witness
        .submit(
            qos_for(&clock, "namd", 64.0 * 3_600.0, 24),
            &[("post.dat".into(), vec![7u8; 16])],
        )
        .is_ok();
    report.check("storm.promoted_primary_accepts_work", new_award);

    let reigns = sentinel.reigns();
    let verdict = checker.report(&reigns, &sentinel.events(), mttr_bound);
    let mut reign_table = Table::new("E27: reigns", &["epoch", "primary"]);
    for (epoch, addr) in &reigns {
        reign_table.row(vec![epoch.to_string(), addr.to_string()]);
    }
    report.table(&reign_table);
    // The three invariants, then that the storm did force a failover.
    report.metric("invariants.acked", verdict.acked, "count");
    let (lost, dual) = (verdict.lost.len(), verdict.dual_primary_epochs.len());
    report.gate("invariants.acked_awards_lost", lost, Bound::eq(0));
    report.gate("invariants.epochs_with_two_primaries", dual, Bound::eq(0));
    let auto_mttr = verdict.worst_mttr.unwrap_or_default().as_secs_f64();
    let budget = Bound::le(mttr_bound.as_secs_f64() * 1e3);
    report.gate("sentinel.auto_mttr_ms", auto_mttr * 1e3, budget);
    let ratio = auto_mttr / baseline.max(1e-9);
    report.metric("sentinel.mttr_ratio", ratio, "ratio");
    report.gate("sentinel.failovers", verdict.failovers, Bound::ge(1));
    // The outage window makes sheds and transport errors expected here;
    // completions through the storm are not optional.
    report.metrics("load", &load_fields(&load));
    report.gate("load.completed", load.completed, Bound::gt(0));
    let snap = faucets_telemetry::global().snapshot();
    let counter = |name| snap.counter_sum(name, &[("service", SVC)]);
    let probes = counter("sentinel_probes_total");
    report.gate("sentinel.probes", probes, Bound::gt(0));
    let aborted = counter("sentinel_aborted_elections_total");
    report.metric("sentinel.aborted_elections", aborted, "count");

    sentinel.shutdown();
    for fd2 in promoted.lock().drain(..) {
        fd2.shutdown();
    }
    report.finish()
}
