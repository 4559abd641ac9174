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
//! fresh award accepted by the promoted primary. Writes
//! `BENCH_selfheal.json` (uploaded as a CI artifact); prints `E27 PASS`.
//! `--seed` replays a schedule exactly; `--smoke` shrinks the storm for
//! CI.

use faucets_bench::{
    flag, follower_daemon, overload_counters, poisson_class, qos_for, schedule_for, scratch,
    spawn_daemon, switch,
};
use faucets_load::prelude::*;
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::prelude::*;
use faucets_net::sentinel::{spawn_sentinel, SentinelOptions};
use faucets_store::{pick_primary, prepare_promotion, ReplicationMode};
use parking_lot::Mutex;
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEEDUP: f64 = 600.0;

/// A journaling FD's options: its store directory and, for a primary, the
/// followers it ships to.
fn journaled(store: PathBuf, replication: Option<ReplicationConfig>) -> FdOptions {
    FdOptions {
        store: Some(store),
        replication,
        ..FdOptions::default()
    }
}

/// Phase 1: the E24 operator-driven failover, timed from the kill.
/// Returns (acked, completed, MTTR seconds) — the baseline the sentinel
/// is graded against.
fn operator_baseline(jobs: usize) -> (usize, usize, f64) {
    const SVC: &str = "fd-cs-1";
    let clock = Clock::new(SPEEDUP);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 271).expect("FS");
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).expect("AS");
    let follower = follower_daemon(SVC, scratch("e27", "base-follower"));

    let fd = spawn_daemon(
        1,
        "turing",
        fs_addr,
        aspect.service.addr,
        clock.clone(),
        journaled(
            scratch("e27", "base-primary"),
            Some(ReplicationConfig {
                followers: vec![follower.addr],
                mode: ReplicationMode::Sync,
                ..ReplicationConfig::default()
            }),
        ),
    );

    let mut client =
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "op", "pw")
            .expect("client");
    client.retry = RetryPolicy::standard(27);
    let mut acked = Vec::new();
    for i in 0..jobs {
        let sub = client
            .submit(
                qos_for(&clock, "namd", 64.0 * 3_600.0, 24),
                &[("in.dat".into(), vec![i as u8; 32])],
            )
            .expect("award acked");
        acked.push(sub.job);
    }

    fd.kill();
    let t0 = Instant::now();
    let pos = follower.position(SVC).expect("follower position");
    assert_eq!(pick_primary(&[pos]), Some(0), "sole survivor elected");
    let promoted_dir = follower.release(SVC).expect("release journal");
    prepare_promotion(&promoted_dir, SVC, pos.epoch + 1).expect("promotion");
    let fd2 = spawn_daemon(
        1,
        "turing",
        fs_addr,
        aspect.service.addr,
        clock.clone(),
        journaled(promoted_dir, None),
    );
    let mttr = t0.elapsed().as_secs_f64();

    let mut completed = 0;
    for job in &acked {
        if client
            .wait(*job, Duration::from_secs(60))
            .map(|s| s.completed)
            .unwrap_or(false)
        {
            completed += 1;
        }
    }
    fd2.shutdown();
    follower.shutdown();
    (acked.len(), completed, mttr)
}

fn main() {
    let smoke = switch("smoke");
    let jobs = flag("jobs", 4usize);
    // Default seed chosen (by inspecting generated schedules) so the
    // storm bounces the replica *before* its one primary kill in both
    // the smoke and full shapes; any other seed is equally valid and
    // replayable.
    let seed = flag("seed", 19u64);
    let events = flag("events", if smoke { 3usize } else { 6 });
    let window_ms = flag("window-ms", if smoke { 4_000u64 } else { 9_000 });
    let users = flag("users", if smoke { 300u32 } else { 800 });
    let rate = flag("rate", if smoke { 8.0f64 } else { 16.0 });
    let workers = flag("workers", 16usize);

    println!(
        "E27 — self-healing control plane: seed {seed}, {events} faults over \
         {window_ms} ms, {users} virtual users at {rate}/s{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    // ---- Phase 1: operator-driven baseline (the E24 procedure) ----
    let (base_acked, base_completed, baseline) = operator_baseline(jobs);
    assert_eq!(base_completed, base_acked, "baseline loses no acked award");
    println!(
        "E27: baseline — operator-driven failover in {:.0} ms ({base_acked} awards kept)",
        baseline * 1e3
    );
    // The sentinel's MTTR clock starts at suspicion (detection cadence is
    // its own knob), so the 10x budget compares recovery work to recovery
    // work. A 50 ms floor keeps a sub-resolution baseline from turning
    // the budget into noise.
    let mttr_bound = Duration::from_secs_f64(10.0 * baseline.max(0.05));

    // ---- Phase 2: the nemesis storm against a sentinel-guarded grid ----
    const SVC: &str = "fd-cs-9";
    let clock = Clock::new(SPEEDUP);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 272).expect("FS");
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 32).expect("AS");
    let as_addr = aspect.service.addr;
    let follower_dir = scratch("e27", "storm-follower");
    let follower = follower_daemon(SVC, follower_dir.clone());
    let follower_addr = follower.addr;

    let fd = spawn_daemon(
        9,
        "turing",
        fs_addr,
        as_addr,
        clock.clone(),
        journaled(
            scratch("e27", "storm-primary"),
            Some(ReplicationConfig {
                followers: vec![follower_addr],
                mode: ReplicationMode::Sync,
                ..ReplicationConfig::default()
            }),
        ),
    );

    // The promote callback is the sentinel's only "operator": respawn the
    // FD on the released, promotion-prepared journal. Re-registration
    // with the FS flips the directory row to the new address.
    let promoted: Arc<Mutex<Vec<FdHandle>>> = Arc::new(Mutex::new(Vec::new()));
    let promoted_cb = Arc::clone(&promoted);
    let cb_clock = clock.clone();
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
            let fd2 = spawn_daemon(
                9,
                "turing",
                fs_addr,
                as_addr,
                cb_clock.clone(),
                journaled(dir, None),
            );
            let addr = fd2.service.addr;
            promoted_cb.lock().push(fd2);
            Ok(addr)
        },
    )
    .expect("sentinel");

    // Witness awards: acknowledged *before* the storm, so the nemesis has
    // every chance to lose them. It must not.
    let mut witness =
        FaucetsClient::register(fs_addr, as_addr, clock.clone(), "witness", "pw").expect("client");
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
    let target = GridTarget::single(fs_addr, as_addr, clock.clone());
    let recorder = Recorder::new(&schedule.classes, Duration::from_secs(1));
    let (flaps0, rejects0) = overload_counters();

    let mut applied: Vec<String> = Vec::new();
    std::thread::scope(|s| {
        let loader = s.spawn(|| run_against_grid(&schedule, &target, &gopts, &recorder));

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
            println!("E27: nemesis {note}");
            applied.push(note);
        });

        assert!(
            sentinel.await_failovers(1, Duration::from_secs(30)),
            "sentinel never completed an automatic failover (seed {seed})"
        );
        loader.join().expect("load thread").expect("load run");
    });
    let (flaps, rejects) = overload_counters();
    let load = recorder.report(
        schedule.users,
        gopts.workers,
        SPEEDUP,
        flaps - flaps0,
        rejects - rejects0,
    );

    // Every witnessed award must complete on whatever primary survived.
    for job in &witnessed {
        if witness
            .wait(*job, Duration::from_secs(60))
            .map(|s| s.completed)
            .unwrap_or(false)
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

    let events_log = sentinel.events();
    let reigns = sentinel.reigns();
    let report = checker.report(&reigns, &events_log, mttr_bound);
    let auto_mttr = report.worst_mttr.unwrap_or_default().as_secs_f64();
    println!(
        "\nE27: storm — {} | auto MTTR {:.0} ms vs operator {:.0} ms (bound {:.0} ms)",
        report.summary(),
        auto_mttr * 1e3,
        baseline * 1e3,
        mttr_bound.as_secs_f64() * 1e3
    );
    println!(
        "E27: load — {} offered, {} submitted, {} completed, shed {:.1}%, \
         transport errs {} (outage window expected)",
        load.offered,
        load.submitted,
        load.completed,
        load.shed_rate * 100.0,
        load.transport_errors
    );

    assert!(report.holds(), "invariants violated: {}", report.summary());
    assert!(report.failovers >= 1, "the storm must force a failover");
    assert!(new_award, "promoted primary accepts fresh work");
    assert!(
        load.completed > 0,
        "open-loop load saw completions through the storm"
    );
    let snap = faucets_telemetry::global().snapshot();
    let probes = snap.counter_sum("sentinel_probes_total", &[("service", SVC)]);
    let aborted = snap.counter_sum("sentinel_aborted_elections_total", &[("service", SVC)]);
    assert!(probes > 0, "sentinel probed");

    let json = serde_json::json!({
        "experiment": "E27",
        "smoke": smoke,
        "seed": seed,
        "speedup": SPEEDUP,
        "nemesis": serde_json::json!({
            "description": plan.description(),
            "applied": applied,
        }),
        "baseline": serde_json::json!({
            "acked": base_acked,
            "completed": base_completed,
            "mttr_ms": baseline * 1e3,
        }),
        "sentinel": serde_json::json!({
            "failovers": report.failovers,
            "auto_mttr_ms": auto_mttr * 1e3,
            "mttr_bound_ms": mttr_bound.as_secs_f64() * 1e3,
            "mttr_ratio": auto_mttr / baseline.max(1e-9),
            "probes": probes,
            "aborted_elections": aborted,
            "reigns": reigns.iter().map(|(e, a)| (e, a.to_string())).collect::<Vec<_>>(),
        }),
        "invariants": serde_json::json!({
            "acked": report.acked,
            "completed": report.completed,
            "lost": report.lost.len(),
            "dual_primary_epochs": report.dual_primary_epochs.clone(),
            "holds": report.holds(),
        }),
        "load": load,
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_selfheal.json",
        serde_json::to_vec_pretty(&json).expect("serialize report"),
    )
    .expect("write BENCH_selfheal.json");

    sentinel.shutdown();
    for fd2 in promoted.lock().drain(..) {
        fd2.shutdown();
    }
    println!("\nE27 PASS — wrote BENCH_selfheal.json");
}
