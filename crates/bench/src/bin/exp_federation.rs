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
//! `--smoke` shrinks the run to the CI shape; `--rate`, `--shard-qps`,
//! `--arm-ms`, `--workers`, and `--fds` resize it.

use faucets_bench::{
    commodity, load_fields, poisson_class, run_load, schedule_for, spawn_cluster, Bound, ExitCode,
    Report,
};
use faucets_core::qos::{QosBuilder, QosContract};
use faucets_load::prelude::*;
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::federation::FederationOptions;
use faucets_net::fs::{spawn_fs_durable, FsHandle, FsOptions};
use faucets_net::prelude::{spawn_appspector, AsHandle, Clock, FaucetsClient, RetryPolicy};
use std::time::Duration;

const SPEEDUP: f64 = 600.0;

/// Spawn a `k`-shard federation (all joined through shard 0) and an
/// AppSpector, and wait for full-mesh membership convergence. Each shard's
/// client-facing query capacity is capped at `shard_qps`.
fn spawn_federation(
    r: &mut Report,
    k: usize,
    arm: &str,
    clock: &Clock,
    shard_qps: f64,
) -> (Vec<FsHandle>, AsHandle, GridTarget) {
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
    let fed = |s: &FsHandle| s.federation.clone().expect("federated");
    for s in &shards[1..] {
        fed(s).join(shards[0].service.addr);
    }
    r.wait(&format!("every {arm} shard to see all {k}"), || {
        shards.iter().all(|s| fed(s).alive_members().len() == k)
    });
    let aspect = spawn_appspector("127.0.0.1:0", shards[0].service.addr, 32).expect("AS");
    let target = GridTarget {
        fs: shards.iter().map(|s| s.service.addr).collect(),
        appspector: aspect.service.addr,
        clock: clock.clone(),
    };
    (shards, aspect, target)
}

/// `fds` 64-PE commodity FDs of the federation `at` names: FD `i` is homed
/// at shard `(i + 1) mod k` with the rest as its heartbeat-failover
/// fallbacks (`at`'s round-robin for worker `i + 1`). Waits until every
/// registration has landed on its owning shard.
fn spawn_daemons(
    r: &mut Report,
    fds: usize,
    arm: &str,
    shards: &[FsHandle],
    at: &GridTarget,
) -> Vec<FdHandle> {
    // The shards are the grid's Central Servers: the scenario's seed seeds
    // none of them.
    let scenario = commodity(0, fds);
    let handles = (0..fds)
        .map(|i| {
            let home = GridTarget::single(at.fs_for(i + 1), at.appspector, at.clock.clone());
            let opts = FdOptions {
                fs_fallbacks: at.fallbacks_for(i + 1),
                ..FdOptions::default()
            };
            spawn_cluster(&scenario, i, &home, opts).expect("FD")
        })
        .collect();
    r.wait(
        &format!("every {arm} FD registration to land on its owning shard"),
        || registered(shards) == fds,
    );
    handles
}

/// Directory rows across the shards.
fn registered(shards: &[FsHandle]) -> usize {
    shards.iter().map(|s| s.state.lock().directory.len()).sum()
}

fn qos() -> QosContract {
    QosBuilder::new("namd", 4, 16, 100.0).build().unwrap()
}

fn main() -> ExitCode {
    let mut report = Report::new("E26", "federation");
    let smoke = report.switch("smoke");
    let rate = report.flag("rate", if smoke { 100.0f64 } else { 200.0 });
    let shard_qps = report.flag("shard-qps", if smoke { 45.0f64 } else { 60.0 });
    let arm_ms = report.flag("arm-ms", if smoke { 3_000u64 } else { 5_000 });
    let drain_ms = report.flag("drain-ms", if smoke { 5_000u64 } else { 8_000 });
    let workers = report.flag("workers", if smoke { 48usize } else { 96 });
    let watchers = report.flag("watchers", if smoke { 4usize } else { 8 });
    let fds = report.flag("fds", if smoke { 4usize } else { 8 });
    let users = report.flag("users", 2_000u32);
    report.knob("speedup", SPEEDUP);
    let shard_counts: &[usize] = if smoke { &[1, 2] } else { &[1, 2, 4] };
    let kmax = *shard_counts.last().unwrap();
    println!("E26 — federated central server: scale-out ladder, then shard-kill chaos\n");

    let clock = Clock::new(SPEEDUP);

    // Phase 1: the scale-out ladder — identical offered load, growing
    // shard count. The per-shard query cap makes the single shard the
    // bottleneck, so any scaling must come from the federation.
    let mut submitted = vec![];
    for (i, &k) in shard_counts.iter().enumerate() {
        let arm = format!("e26l{i}");
        let (shards, _aspect, target) = spawn_federation(&mut report, k, &arm, &clock, shard_qps);
        let _fds = spawn_daemons(&mut report, fds, &arm, &shards, &target);
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
        let rep = run_load(&sched, &target, &opts, Duration::ZERO);
        let level = format!("ladder.k{k}");
        report.metrics(&level, &load_fields(&rep));
        // Transport-clean at every shard count: sheds are fine, errors are
        // not.
        let errors = rep.transport_errors;
        report.gate(&format!("{level}.transport_errors"), errors, Bound::eq(0));
        if k == kmax {
            // The full-capacity arm saw real traffic, at a bounded p99.
            report.gate("ladder.full.submitted", rep.submitted, Bound::gt(0));
            report.gate("ladder.full.completed", rep.completed, Bound::gt(0));
            let p99 = rep.classes[0].submit_ms.p99;
            report.gate("ladder.full.submit_p99_ms", p99, Bound::lt(5_000));
        }
        submitted.push(rep.submitted as f64);
    }
    // Throughput must come from adding shards.
    report.gate(
        "ladder.scaleout_ratio",
        submitted[submitted.len() - 1] / submitted[0].max(1.0),
        Bound::ge(if smoke { 1.4 } else { 2.5 }),
    );

    // Phase 2: shard-kill chaos. Generous query cap — this phase tests
    // routing and durability, not capacity.
    let (mut shards, _aspect, target) =
        spawn_federation(&mut report, kmax, "e26x", &clock, 10_000.0);
    let fd_handles = spawn_daemons(&mut report, fds, "e26x", &shards, &target);

    // The client is homed at the shard we are about to kill; every other
    // shard is its failover list.
    let doomed_idx = if kmax > 1 { 1 } else { 0 };
    let home = shards[doomed_idx].service.addr;
    let mut client =
        FaucetsClient::register(home, target.appspector, clock.clone(), "e26-chaos", "pw")
            .expect("chaos client");
    client.fs_fallbacks = shards
        .iter()
        .map(|s| s.service.addr)
        .filter(|a| *a != home)
        .collect();
    client.retry = RetryPolicy::none(); // fail over on the first refusal

    let batch = 30u64;
    let mut submit_batch = |gate: &str, report: &mut Report| {
        let acked = (0..batch)
            .filter(|_| client.submit(qos(), &[]).is_ok())
            .count();
        report.gate(gate, acked, Bound::eq(batch));
    };
    submit_batch("chaos.acked_before_the_kill", &mut report);

    let fed = |s: &FsHandle| s.federation.clone().expect("federated");
    let doomed = shards.remove(doomed_idx);
    let epochs: Vec<u64> = shards.iter().map(|s| fed(s).ring_epoch()).collect();
    println!(
        "\nE26: killing shard {} with {batch} acked awards in flight",
        fed(&doomed).name()
    );
    // FDs are named by cluster across the arms: count this kill's failovers
    // from here.
    let before = faucets_telemetry::global().snapshot();
    drop(doomed);

    if !shards.is_empty() {
        report.wait(
            "survivors to grade the dead shard and heal the ring",
            || {
                shards.iter().zip(&epochs).all(|(s, before)| {
                    fed(s).alive_members().len() == shards.len() && fed(s).ring_epoch() > *before
                })
            },
        );
    }
    // Orphaned registrations (rows whose owner died) come back as each FD's
    // heartbeat fails over and re-registers against the healed ring.
    report.wait("every FD to re-register with a surviving shard", || {
        registered(&shards) == fds
    });

    // FDs homed at the dead shard verify bid tokens wherever their pump
    // currently points; wait for each to have rotated to a survivor, or
    // the post-kill bids below could still be verified against a corpse.
    report.wait(
        "FDs homed at the dead shard to rotate to a survivor",
        || {
            let snap = faucets_telemetry::global().snapshot();
            (1..=fds).filter(|id| id % kmax == doomed_idx).all(|id| {
                let (name, counter) = (format!("cs{id}"), "fd_fs_failovers_total");
                let labels = [("cluster", name.as_str())];
                snap.counter_sum(counter, &labels) > before.counter_sum(counter, &labels)
            })
        },
    );

    // The client's account and session died with its shard: submissions
    // must keep succeeding through failover + re-authentication.
    submit_batch("chaos.acked_after_the_kill", &mut report);

    // Zero acked-award loss: everything acknowledged — before or after the
    // kill — runs to completion on some FD.
    let completed = || fd_handles.iter().map(|f| f.completed()).sum::<u64>();
    report.wait("every acked submission to complete", || {
        completed() >= 2 * batch
    });
    report.metric("chaos.completed", completed(), "count");
    report.metric("chaos.survivors", shards.len(), "count");
    report.finish()
}
