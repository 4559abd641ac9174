//! E26 — Federated central server: sharded directory scale-out and
//! shard-kill chaos.
//!
//! E25 drove one FS to "millions of jobs per day"; this experiment
//! removes the remaining single process from the architecture. N FS
//! shards split the directory by consistent hashing over cluster ids,
//! discover each other by gossip, and answer any client from the whole
//! federation by scatter-gather (`crates/net/src/federation`). Here each
//! shard's client-facing query capacity is deliberately capped with the
//! FS token bucket, so directory throughput must come from *adding
//! shards*, not from one big process:
//!
//! 1. **Ladder** — the same offered load against 1, 2, and 4 shards
//!    (smoke: 1 and 2). Submitted throughput must scale near-linearly
//!    once capacity is the binding constraint: thr(4)/thr(1) ≥ 2.5
//!    (smoke: thr(2)/thr(1) ≥ 1.4), zero transport errors in every arm,
//!    bounded submit p99 at full capacity.
//! 2. **Chaos** — a full federation, FDs homed round-robin across shards
//!    with the other shards as fallbacks, a client homed at a doomed
//!    non-seed shard. Kill that shard mid-stream: the survivors must
//!    gossip it dead and heal the ring, every FD must re-register with a
//!    survivor, the client must fail over (and re-create its account),
//!    and **every acknowledged submission must still complete** — zero
//!    acked-award loss.
//!
//! Writes `BENCH_federation.json` (uploaded as a CI artifact); prints
//! `E26 PASS` when every gate holds. `--smoke` shrinks the run to the CI
//! shape; `--rate`, `--shard-qps`, `--arm-ms`, `--workers`, and `--fds`
//! resize it.

use faucets_bench::{flag, poisson_class, schedule_for, switch};
use faucets_core::qos::{QosBuilder, QosContract};
use faucets_load::prelude::*;
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::federation::FederationOptions;
use faucets_net::fs::{spawn_fs_durable, FsHandle, FsOptions};
use faucets_net::prelude::{spawn_appspector, Clock, FaucetsClient, RetryPolicy};
use std::net::SocketAddr;
use std::time::{Duration, Instant};

const SPEEDUP: f64 = 600.0;

/// Bounded-deadline convergence wait (the experiment-side twin of the
/// test suite's deflake helper): poll a federation/directory readout,
/// never sleep an unconditioned interval.
fn await_until(what: &str, deadline: Duration, ready: impl Fn() -> bool) {
    let end = Instant::now() + deadline;
    while !ready() {
        assert!(Instant::now() < end, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Spawn a `k`-shard federation (all joined through shard 0) and wait for
/// full-mesh membership convergence. Each shard's client-facing query
/// capacity is capped at `shard_qps`.
fn spawn_federation(k: usize, arm: &str, clock: &Clock, shard_qps: f64) -> Vec<FsHandle> {
    let shards: Vec<FsHandle> = (0..k)
        .map(|i| {
            let opts = FsOptions {
                query_rate: shard_qps,
                // A small bank only: short ladder arms must be metered by
                // the sustained rate, not by banked idle tokens.
                query_burst: shard_qps / 2.0,
                federation: Some(FederationOptions::new(&format!("{arm}-s{i}"))),
                ..FsOptions::default()
            };
            spawn_fs_durable("127.0.0.1:0", clock.clone(), 2_600 + i as u64, opts)
                .expect("spawn shard")
        })
        .collect();
    for s in &shards[1..] {
        s.federation
            .as_ref()
            .expect("federated")
            .join(shards[0].service.addr);
    }
    for s in &shards {
        let fed = s.federation.as_ref().expect("federated");
        await_until(
            &format!("{} to see all {k} shards", fed.name()),
            Duration::from_secs(20),
            || fed.alive_members().len() == k,
        );
    }
    shards
}

/// One 64-PE commodity FD homed round-robin across the shards, with the
/// remaining shards as its heartbeat-failover fallbacks.
fn spawn_daemon(
    id: u64,
    arm: &str,
    shards: &[FsHandle],
    aspect: SocketAddr,
    clock: Clock,
) -> FdHandle {
    let home = id as usize % shards.len();
    let fallbacks: Vec<SocketAddr> = (1..shards.len())
        .map(|j| shards[(home + j) % shards.len()].service.addr)
        .collect();
    faucets_bench::spawn_daemon(
        id,
        &format!("{arm}-cs{id}"),
        shards[home].service.addr,
        aspect,
        clock,
        FdOptions {
            fs_fallbacks: fallbacks,
            ..FdOptions::default()
        },
    )
}

fn qos() -> QosContract {
    QosBuilder::new("namd", 4, 16, 100.0).build().unwrap()
}

fn main() {
    let smoke = switch("smoke");
    let rate = flag("rate", if smoke { 100.0f64 } else { 200.0 });
    let shard_qps = flag("shard-qps", if smoke { 45.0f64 } else { 60.0 });
    let arm_ms = flag("arm-ms", if smoke { 3_000u64 } else { 5_000 });
    let drain_ms = flag("drain-ms", if smoke { 5_000u64 } else { 8_000 });
    let workers = flag("workers", if smoke { 48usize } else { 96 });
    let watchers = flag("watchers", if smoke { 4usize } else { 8 });
    let fds = flag("fds", if smoke { 4u64 } else { 8 });
    let users = flag("users", 2_000u32);
    let shard_counts: Vec<usize> = if smoke { vec![1, 2] } else { vec![1, 2, 4] };
    let kmax = *shard_counts.last().unwrap();
    let ratio_floor = if smoke { 1.4 } else { 2.5 };

    println!(
        "E26 — federated central server: {rate}/s offered, {shard_qps}/s per-shard query cap, \
         shards {shard_counts:?}, {fds} FDs, speedup {SPEEDUP}x{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    let clock = Clock::new(SPEEDUP);

    // Phase 1: the scale-out ladder — identical offered load, growing
    // shard count. The per-shard query cap makes the single shard the
    // bottleneck, so any scaling must come from the federation.
    let mut ladder: Vec<(usize, LoadReport)> = Vec::new();
    for (i, &k) in shard_counts.iter().enumerate() {
        let arm = format!("e26l{i}");
        let shards = spawn_federation(k, &arm, &clock, shard_qps);
        let aspect = spawn_appspector("127.0.0.1:0", shards[0].service.addr, 32).expect("AS");
        let fd_handles: Vec<FdHandle> = (1..=fds)
            .map(|id| spawn_daemon(id, &arm, &shards, aspect.service.addr, clock.clone()))
            .collect();
        await_until(
            "every FD registration to land on its owning shard",
            Duration::from_secs(20),
            || {
                shards
                    .iter()
                    .map(|s| s.state.lock().directory.len() as u64)
                    .sum::<u64>()
                    == fds
            },
        );

        let target = GridTarget {
            fs: shards.iter().map(|s| s.service.addr).collect(),
            appspector: aspect.service.addr,
            clock: clock.clone(),
        };
        let sched = schedule_for(
            2_600 + i as u64,
            users,
            arm_ms,
            SPEEDUP,
            vec![poisson_class("federated", rate, SPEEDUP)],
        );
        let opts = GridRunOptions {
            workers,
            watchers,
            drain: Duration::from_millis(drain_ms),
            account_prefix: format!("{arm}-w"),
            ..GridRunOptions::default()
        };
        let recorder = Recorder::new(&sched.classes, Duration::ZERO);
        run_against_grid(&sched, &target, &opts, &recorder).expect("ladder arm");
        let rep = recorder.report(sched.users, opts.workers, SPEEDUP, 0, 0);
        println!(
            "E26: {k} shard(s) — offered {:>5.1}/s, submitted {:>5.1}/s, goodput {:>5.1}/s, \
             shed {:>4.1}%, submit p99 {:>6.1} ms, transport errs {}",
            rep.offered_per_sec,
            rep.submitted_per_sec,
            rep.goodput_per_sec,
            rep.shed_rate * 100.0,
            rep.classes[0].submit_ms.p99,
            rep.transport_errors,
        );
        assert_eq!(
            rep.transport_errors, 0,
            "{k}-shard arm must be transport-clean (sheds are fine, errors are not)"
        );
        ladder.push((k, rep));
        drop(fd_handles);
    }

    let thr = |k: usize| {
        ladder
            .iter()
            .find(|(n, _)| *n == k)
            .map(|(_, r)| r.submitted as f64)
            .expect("ladder arm")
    };
    let ratio = thr(kmax) / thr(1).max(1.0);
    println!(
        "\nE26: scale-out {kmax} shards vs 1 — {:.0} vs {:.0} submissions ({ratio:.2}x, floor {ratio_floor}x)",
        thr(kmax),
        thr(1)
    );
    assert!(
        ratio >= ratio_floor,
        "federation must scale the capped directory: {ratio:.2}x < {ratio_floor}x"
    );
    let full = &ladder.last().unwrap().1;
    assert!(
        full.submitted > 0 && full.completed > 0,
        "full-capacity arm saw real traffic"
    );
    let p99 = full.classes[0].submit_ms.p99;
    assert!(
        p99.is_finite() && p99 < 5_000.0,
        "submit p99 at full capacity must stay bounded, got {p99}"
    );

    // Phase 2: shard-kill chaos. Generous query cap — this phase tests
    // routing and durability, not capacity.
    let shards = spawn_federation(kmax, "e26x", &clock, 10_000.0);
    let aspect = spawn_appspector("127.0.0.1:0", shards[0].service.addr, 32).expect("AS");
    let fd_handles: Vec<FdHandle> = (1..=fds)
        .map(|id| spawn_daemon(id, "e26x", &shards, aspect.service.addr, clock.clone()))
        .collect();
    await_until("chaos FDs to register", Duration::from_secs(20), || {
        shards
            .iter()
            .map(|s| s.state.lock().directory.len() as u64)
            .sum::<u64>()
            == fds
    });

    // The client is homed at the shard we are about to kill; every other
    // shard is its failover list.
    let doomed_idx = if kmax > 1 { 1 } else { 0 };
    let mut client = FaucetsClient::register(
        shards[doomed_idx].service.addr,
        aspect.service.addr,
        clock.clone(),
        "e26-chaos",
        "pw",
    )
    .expect("chaos client");
    client.fs_fallbacks = shards
        .iter()
        .enumerate()
        .filter(|(i, _)| *i != doomed_idx)
        .map(|(_, s)| s.service.addr)
        .collect();
    client.retry = RetryPolicy::none(); // fail over on the first refusal

    let batch = 30u64;
    for _ in 0..batch {
        client
            .submit(qos(), &[])
            .expect("pre-kill submission acked");
    }

    let mut shards = shards;
    let survivors_expected = kmax - 1;
    let epochs: Vec<u64> = shards
        .iter()
        .map(|s| s.federation.as_ref().unwrap().ring_epoch())
        .collect();
    let doomed = shards.remove(doomed_idx);
    let doomed_name = doomed.federation.as_ref().unwrap().name().to_string();
    println!("\nE26: killing shard {doomed_name} with {batch} acked awards in flight");
    drop(doomed);

    if survivors_expected > 0 {
        await_until(
            "survivors to grade the dead shard and heal the ring",
            Duration::from_secs(30),
            || {
                shards.iter().enumerate().all(|(i, s)| {
                    let fed = s.federation.as_ref().unwrap();
                    let before = epochs[i + usize::from(i >= doomed_idx)];
                    fed.alive_members().len() == survivors_expected && fed.ring_epoch() > before
                })
            },
        );
    }
    // Orphaned registrations (rows whose owner died) come back as each FD's
    // heartbeat fails over and re-registers against the healed ring.
    await_until(
        "every FD to re-register with a surviving shard",
        Duration::from_secs(30),
        || {
            shards
                .iter()
                .map(|s| s.state.lock().directory.len() as u64)
                .sum::<u64>()
                == fds
        },
    );

    // FDs homed at the dead shard verify bid tokens wherever their pump
    // currently points; wait for each to have rotated to a survivor, or
    // the post-kill bids below could still be verified against a corpse.
    let doomed_homed: Vec<u64> = (1..=fds)
        .filter(|id| *id as usize % kmax == doomed_idx)
        .collect();
    await_until(
        "FDs homed at the dead shard to rotate to a survivor",
        Duration::from_secs(30),
        || {
            let snap = faucets_telemetry::global().snapshot();
            doomed_homed.iter().all(|id| {
                let name = format!("e26x-cs{id}");
                snap.counter_sum("fd_fs_failovers_total", &[("cluster", &name)]) >= 1
            })
        },
    );

    // The client's account and session died with its shard: submissions
    // must keep succeeding through failover + re-authentication.
    for _ in 0..batch {
        client
            .submit(qos(), &[])
            .expect("post-kill submission acked");
    }

    // Zero acked-award loss: everything acknowledged — before or after the
    // kill — runs to completion on some FD.
    await_until(
        "every acked submission to complete",
        Duration::from_secs(60),
        || fd_handles.iter().map(|f| f.completed()).sum::<u64>() >= 2 * batch,
    );
    let completed: u64 = fd_handles.iter().map(|f| f.completed()).sum();
    println!(
        "E26: chaos — {} submissions acked across the kill, {completed} completed, \
         ring epoch healed on {} survivor(s)",
        2 * batch,
        shards.len()
    );

    let chaos = serde_json::json!({
        "killed_shard": doomed_name,
        "acked_submissions": 2 * batch,
        "completed": completed,
        "survivors": shards.len(),
    });
    let report = serde_json::json!({
        "experiment": "E26",
        "smoke": smoke,
        "speedup": SPEEDUP,
        "rate_per_sec": rate,
        "per_shard_query_cap": shard_qps,
        "fds": fds,
        "workers": workers,
        "ladder": ladder
            .iter()
            .map(|(k, rep)| {
                serde_json::json!({
                    "shards": k,
                    "offered_per_sec": rep.offered_per_sec,
                    "submitted_per_sec": rep.submitted_per_sec,
                    "goodput_per_sec": rep.goodput_per_sec,
                    "shed_rate": rep.shed_rate,
                    "submit_p99_ms": rep.classes[0].submit_ms.p99,
                    "transport_errors": rep.transport_errors,
                })
            })
            .collect::<Vec<_>>(),
        "scaleout_ratio": ratio,
        "scaleout_floor": ratio_floor,
        "chaos": chaos,
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_federation.json",
        serde_json::to_vec_pretty(&report).unwrap(),
    )
    .expect("write BENCH_federation.json");

    println!("\nE26 PASS — wrote BENCH_federation.json");
}
