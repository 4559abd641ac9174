//! E24 — Replicated control plane: WAL shipping, failover MTTR, and lag.
//!
//! PR-3 made "acknowledged" mean "durable"; this experiment measures what
//! replication adds on top — "acknowledged" surviving the *machine*:
//!
//! 1. **Failover MTTR** — a sync-replicated FD confirms a batch of awards
//!    and is killed -9. The failover procedure (probe the follower's
//!    position, elect with `pick_primary`, fence the old reign with
//!    `prepare_promotion`, restart the daemon on the released follower
//!    journal) is wall-clock timed; every acknowledged award must be
//!    restored on the promoted backup and complete, and the new primary
//!    must accept fresh work.
//! 2. **Replication lag under load** — an async-mode journal takes a
//!    write burst while we sample `primary.acked - follower.acked`; a
//!    `flush` barrier afterwards must drain the lag to zero.
//! 3. **Shipping overhead** — appending N records through a plain
//!    single-node journal (the PR-3 baseline) vs. an async-replicated one
//!    vs. a sync-replicated one, all fsync-free so the disk doesn't mask
//!    the shipping cost. Acceptance: async costs **≤ 10 %** of baseline
//!    append throughput (sync buys its stronger contract with a
//!    round-trip per commit and is reported, not bounded — but each sync
//!    arm must dial its follower exactly once: a link keeps its socket).
//!
//! Writes `BENCH_replication.json` (uploaded as a CI artifact); prints
//! `E24 PASS` when every assertion holds. `--jobs`, `--burst`,
//! `--records` resize the run.

use faucets_bench::{flag, follower_daemon, qos_for, scratch, spawn_daemon};
use faucets_net::fd::FdOptions;
use faucets_net::prelude::*;
use faucets_store::{pick_primary, prepare_promotion, Durable, ReplicationMode, StoreOptions};
use std::time::{Duration, Instant};

/// The FD replication service name for ClusterId(1).
const FD_SVC: &str = "fd-cs-1";

/// Scenario 1: kill -9 a sync-replicated primary FD, run the documented
/// failover procedure against the follower, and time it. Returns
/// (acked, restored, completed, post-failover award ok, MTTR seconds).
fn failover_mttr(jobs: usize) -> (usize, usize, usize, bool, f64) {
    let clock = Clock::new(3_000.0);
    let primary_dir = scratch("e24", "mttr-primary");
    let follower_dir = scratch("e24", "mttr-follower");

    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 71).expect("FS");
    let fs_addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", fs_addr, 16).expect("AS");
    let follower = follower_daemon(FD_SVC, follower_dir);

    let fd = spawn_daemon(
        1,
        "turing",
        fs_addr,
        aspect.service.addr,
        clock.clone(),
        FdOptions {
            store: Some(primary_dir),
            replication: Some(ReplicationConfig {
                followers: vec![follower.addr],
                mode: ReplicationMode::Sync,
                ..ReplicationConfig::default()
            }),
            ..FdOptions::default()
        },
    );

    let mut client =
        FaucetsClient::register(fs_addr, aspect.service.addr, clock.clone(), "mallory", "pw")
            .expect("client");
    client.retry = RetryPolicy::standard(24);

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

    // The machine dies. Everything below the next timestamp is the
    // recovery path an operator (or supervisor) would run.
    fd.kill();
    let t0 = Instant::now();

    let pos = follower.position(FD_SVC).expect("follower position");
    assert_eq!(pick_primary(&[pos]), Some(0), "sole survivor elected");
    let promoted_dir = follower.release(FD_SVC).expect("release journal");
    prepare_promotion(&promoted_dir, FD_SVC, pos.epoch + 1).expect("promotion");
    let fd2 = spawn_daemon(
        1,
        "turing",
        fs_addr,
        aspect.service.addr,
        clock.clone(),
        FdOptions {
            store: Some(promoted_dir),
            ..FdOptions::default()
        },
    );
    let restored = fd2.active_contracts();
    let mttr = t0.elapsed().as_secs_f64();

    // Zero acked-entry loss: every acknowledged award completes.
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
    // And the promoted primary accepts fresh work.
    let new_award = client
        .submit(
            qos_for(&clock, "namd", 64.0 * 3_600.0, 24),
            &[("post.dat".into(), vec![7u8; 16])],
        )
        .is_ok();

    fd2.shutdown();
    follower.shutdown();
    (acked.len(), restored, completed, new_award, mttr)
}

/// Plain Vec-of-strings state for the journal-level scenarios.
#[derive(Default)]
struct Log(Vec<String>);

impl Durable for Log {
    type Record = String;
    type Snapshot = Vec<String>;
    fn apply(&mut self, rec: &String) {
        self.0.push(rec.clone());
    }
    fn snapshot(&self) -> Vec<String> {
        self.0.clone()
    }
    fn restore(snap: Vec<String>) -> Self {
        Log(snap)
    }
}

/// Journal options for the measurement arms: fsync-free (the disk is not
/// under test) and compaction off (keeps `(generation, seq)` arithmetic
/// trivial for lag sampling).
fn log_opts() -> StoreOptions {
    StoreOptions {
        service: "e24".into(),
        compact_every: 0,
        no_fsync: true,
        ..StoreOptions::default()
    }
}

/// One synthetic journal record, sized like an FD `Accept` row.
fn record(i: usize) -> String {
    format!(
        "{{\"seq\":{i},\"job\":\"job-{i}\",\"user\":\"user-{}\",\"payoff\":{},\
         \"memo\":\"replication probe {i}\"}}",
        i % 7,
        (i as i64) * 1_000_001
    )
}

/// Scenario 2: async-mode write burst; sample the primary-vs-follower lag
/// while the shipper drains, then flush. Returns (max observed lag,
/// flush converged, residual lag after flush).
fn lag_under_load(burst: usize) -> (u64, bool, u64) {
    let dir = scratch("e24", "lag-primary");
    let follower = follower_daemon("lag", scratch("e24", "lag-follower"));
    let cfg = ReplicationConfig {
        followers: vec![follower.addr],
        mode: ReplicationMode::Async,
        ..ReplicationConfig::default()
    };
    let (journal, _) =
        Journal::open(&dir, Log::default(), "lag", log_opts(), Some(&cfg)).expect("open");

    let repl = journal.replicated().expect("replicated journal").clone();
    let mut max_lag = 0u64;
    let stride = (burst / 20).max(1);
    for i in 0..burst {
        journal.commit(&record(i)).expect("commit");
        if i % stride == 0 {
            let p = repl.position();
            let f = follower.position("lag").unwrap_or_default();
            let lag = if f.generation == p.generation {
                p.acked.saturating_sub(f.acked)
            } else {
                p.acked
            };
            max_lag = max_lag.max(lag);
        }
    }
    let converged = repl.flush(Duration::from_secs(30));
    let p = repl.position();
    let f = follower.position("lag").unwrap_or_default();
    let residual = p.acked.saturating_sub(f.acked);
    journal.shutdown();
    follower.shutdown();
    (max_lag, converged, residual)
}

/// Connections follower daemons have accepted so far: every dial a replica
/// link makes lands here, whichever transport made it.
fn replica_dials() -> u64 {
    faucets_telemetry::global()
        .snapshot()
        .counter_sum("net_conns_accepted_total", &[("service", "replica")])
}

/// Time `records` commits through one journal arm; returns commits/sec.
/// Async arms are flushed *outside* the timed window — the claim under
/// test is the commit path the caller waits on.
fn arm_rate(records: usize, repl: Option<&ReplicationConfig>, tag: &str) -> f64 {
    let dir = scratch("e24", &format!("arm-{tag}"));
    let (journal, _) =
        Journal::open(&dir, Log::default(), "arm", log_opts(), repl).expect("open arm");
    let t0 = Instant::now();
    for i in 0..records {
        journal.commit(&record(i)).expect("commit");
    }
    let secs = t0.elapsed().as_secs_f64();
    if let Some(r) = journal.replicated() {
        assert!(r.flush(Duration::from_secs(60)), "arm {tag} drained");
    }
    journal.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    records as f64 / secs.max(1e-9)
}

/// Scenario 3: plain vs async vs sync append throughput (best of 3 runs
/// per arm, fsync-free). Returns (plain/s, async/s, sync/s).
fn throughput(records: usize) -> (f64, f64, f64) {
    let follower = follower_daemon("arm", scratch("e24", "arm-follower"));
    let async_cfg = ReplicationConfig {
        followers: vec![follower.addr],
        mode: ReplicationMode::Async,
        ..ReplicationConfig::default()
    };

    let best = |f: &dyn Fn() -> f64| (0..3).map(|_| f()).fold(0.0f64, f64::max);
    let plain = best(&|| arm_rate(records, None, "plain"));
    let asynch = best(&|| arm_rate(records, Some(&async_cfg), "async"));
    follower.shutdown();
    // Sync pays a wire round-trip per commit; a quarter of the records
    // keeps the arm honest without dominating the run. A round trip is all
    // it pays: a link keeps its connection, so a run dials its follower
    // once — an exact count, which a dial per ship cannot meet.
    let sync_records = (records / 4).max(100);
    let sync = best(&|| {
        // A follower of its own per run. One that an earlier run left
        // ahead of this run's fresh primary covers every commit before it
        // is shipped, and the arm times no round trip at all.
        let follower = follower_daemon("arm", scratch("e24", "arm-sync-follower"));
        let cfg = ReplicationConfig {
            followers: vec![follower.addr],
            mode: ReplicationMode::Sync,
            ..ReplicationConfig::default()
        };
        let dials0 = replica_dials();
        let rate = arm_rate(sync_records, Some(&cfg), "sync");
        let dials = replica_dials() - dials0;
        let shipped = follower.position("arm").map_or(0, |p| p.acked);
        follower.shutdown();
        assert_eq!(shipped, sync_records as u64, "every sync commit shipped");
        assert_eq!(dials, 1, "a sync run dials once per replica link");
        rate
    });
    (plain, asynch, sync)
}

fn main() {
    let jobs = flag("jobs", 3usize);
    let burst = flag("burst", 3_000usize);
    let records = flag("records", 2_500usize);

    println!("E24 — replicated control plane: shipping, failover, lag\n");

    let (acked, restored, completed, new_award, mttr) = failover_mttr(jobs);
    println!(
        "E24: failover — {acked} awards acked, {restored} restored on the promoted \
         backup, {completed} completed; MTTR {:.0} ms",
        mttr * 1e3
    );
    assert_eq!(restored, acked, "every acknowledged award on the backup");
    assert_eq!(completed, acked, "every acknowledged award completed");
    assert!(new_award, "promoted primary accepts fresh work");

    let (max_lag, converged, residual) = lag_under_load(burst);
    println!(
        "E24: lag — {burst} async commits, max observed lag {max_lag} frames, \
         flush converged={converged}, residual {residual}"
    );
    assert!(converged, "flush barrier drained the shipper");
    assert_eq!(residual, 0, "no residual lag after flush");

    let (plain, asynch, sync) = throughput(records);
    let async_overhead = 1.0 - asynch / plain.max(1e-9);
    let sync_cost = plain / sync.max(1e-9);
    println!(
        "E24: throughput — plain {plain:.0}/s, async {asynch:.0}/s \
         ({:.1} % overhead), sync {sync:.0}/s ({sync_cost:.1}x cost of plain)",
        async_overhead * 100.0
    );
    assert!(
        async_overhead <= 0.10,
        "async shipping must cost ≤10 % of single-node append throughput \
         (got {:.1} %)",
        async_overhead * 100.0
    );

    let snap = faucets_telemetry::global().snapshot();
    let shipped = snap.counter_sum("repl_shipped_frames_total", &[]);
    let fenced = snap.counter_sum("repl_fenced_total", &[]);
    let ship_errors = snap.counter_sum("repl_ship_errors_total", &[]);
    println!(
        "E24: telemetry — {shipped} frames shipped, {fenced} fenced commits, \
         {ship_errors} ship errors"
    );
    assert!(shipped > 0, "repl_shipped_frames_total populated");

    let report = serde_json::json!({
        "experiment": "E24",
        "failover": serde_json::json!({
            "acked": acked,
            "restored": restored,
            "completed": completed,
            "post_failover_award": new_award,
            "mttr_ms": mttr * 1e3,
        }),
        "lag": serde_json::json!({
            "burst": burst,
            "max_observed": max_lag,
            "flush_converged": converged,
            "residual": residual,
        }),
        "throughput": serde_json::json!({
            "plain_per_sec": plain,
            "async_per_sec": asynch,
            "sync_per_sec": sync,
            "async_overhead": async_overhead,
            "sync_cost_factor": sync_cost,
        }),
        "telemetry": serde_json::json!({
            "shipped_frames": shipped,
            "fenced": fenced,
            "ship_errors": ship_errors,
        }),
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_replication.json",
        serde_json::to_vec_pretty(&report).expect("serialize report"),
    )
    .expect("write BENCH_replication.json");
    println!("\nE24 PASS — wrote BENCH_replication.json");
}
