//! E24 — Replicated control plane: WAL shipping, failover MTTR, and lag.
//!
//! PR-3 made "acknowledged" mean "durable"; this experiment measures what
//! replication adds on top — "acknowledged" surviving the *machine*:
//!
//! 1. **Failover MTTR** — a sync-replicated FD confirms a batch of awards
//!    and is killed -9. The failover procedure
//!    ([`faucets_bench::kill_and_recover`]) is wall-clock timed; every
//!    acknowledged award must be restored on the promoted backup and
//!    complete, and the new primary must accept fresh work.
//! 2. **Replication lag under load** — an async-mode journal takes a
//!    write burst while we sample `primary.acked - follower.acked`; a
//!    `flush` barrier afterwards must drain the lag to zero.
//! 3. **Shipping overhead** — appending N records through a plain
//!    single-node journal (the PR-3 baseline) vs. an async-replicated one
//!    vs. a sync-replicated one, all fsync-free so the disk doesn't mask
//!    the shipping cost. Every replicated run gets a follower of its own
//!    and must ship every record to it; a sync run must dial that
//!    follower exactly once (a link keeps its socket). The async arm's
//!    cost on the commit path is *recorded* beside the plain arm of the
//!    same run (`throughput.async_overhead`), not gated: a shipper thread
//!    beside a 700 000/s append loop cannot hold 10 % on a 2-core box, and
//!    the number means what the core count next to it says. Sync buys its
//!    stronger contract with a round-trip per commit and is likewise
//!    recorded.
//!
//! `--jobs`, `--burst`, `--records` resize the run.

use faucets_bench::{
    follower_daemon, kill_and_recover, probe_record, scratch, Bound, ExitCode, Report,
};
use faucets_net::prelude::*;
use faucets_store::{Durable, ReplicationMode, StoreOptions};
use std::time::{Duration, Instant};

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

/// A follower hosting `service` in a fresh directory, and the config of a
/// journal that ships to it in `mode`.
fn follower_for(service: &str, mode: ReplicationMode) -> (ReplicaHandle, ReplicationConfig) {
    let follower = follower_daemon(service, scratch("e24", &format!("{service}-follower")));
    let cfg = ReplicationConfig {
        followers: vec![follower.addr],
        mode,
        ..ReplicationConfig::default()
    };
    (follower, cfg)
}

/// Scenario 2: async-mode write burst; sample the primary-vs-follower lag
/// while the shipper drains, then flush.
fn lag_under_load(r: &mut Report, burst: usize) {
    let (follower, cfg) = follower_for("lag", ReplicationMode::Async);
    let dir = scratch("e24", "lag-primary");
    let (journal, _) =
        Journal::open(&dir, Log::default(), "lag", log_opts(), Some(&cfg)).expect("open");

    let repl = journal.replicated().expect("replicated journal").clone();
    let mut max_lag = 0u64;
    let stride = (burst / 20).max(1);
    for i in 0..burst {
        journal.commit(&probe_record(i)).expect("commit");
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
    let residual = repl
        .position()
        .acked
        .saturating_sub(follower.position("lag").unwrap_or_default().acked);
    journal.shutdown();
    follower.shutdown();
    r.metric("lag.max_observed", max_lag, "frames");
    r.check("lag.flush_converged", converged);
    r.gate("lag.residual_after_flush", residual, Bound::eq(0));
}

/// Connections follower daemons have accepted so far: every dial a replica
/// link makes lands here, whichever transport made it.
fn replica_dials() -> u64 {
    faucets_telemetry::global()
        .snapshot()
        .counter_sum("net_conns_accepted_total", &[("service", "replica")])
}

/// One timed run of `records` commits through a journal replicated in
/// `mode` (`None`: the plain single-node journal). A replicated run ships
/// to a follower of its own: one that an earlier run left ahead of this
/// run's fresh primary covers every commit before it is shipped, and the
/// run would time a local append. Async runs are flushed *outside* the
/// timed window — the claim under test is the commit path the caller
/// waits on. Returns (commits/sec, records missing on the follower after
/// the flush, dials made).
fn arm_run(records: usize, mode: Option<ReplicationMode>) -> (f64, u64, u64) {
    let follower = mode.map(|m| follower_for("arm", m));
    let dir = scratch("e24", "arm");
    let dials0 = replica_dials();
    let cfg = follower.as_ref().map(|(_, cfg)| cfg);
    let (journal, _) = Journal::open(&dir, Log::default(), "arm", log_opts(), cfg).expect("open");
    let t0 = Instant::now();
    for i in 0..records {
        journal.commit(&probe_record(i)).expect("commit");
    }
    let secs = t0.elapsed().as_secs_f64();
    if let Some(r) = journal.replicated() {
        r.flush(Duration::from_secs(60));
    }
    journal.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    let missing = follower.map_or(0, |(f, _)| {
        let acked = f.position("arm").map_or(0, |p| p.acked);
        f.shutdown();
        (records as u64).saturating_sub(acked)
    });
    (
        records as f64 / secs.max(1e-9),
        missing,
        replica_dials() - dials0,
    )
}

/// Scenario 3: plain vs async vs sync append throughput over 3 rounds,
/// fsync-free. Each round runs the three arms back to back, so the async
/// overhead is taken against the plain arm of the same round.
fn throughput(r: &mut Report, records: usize) {
    // Sync pays a wire round-trip per commit; a quarter of the records
    // keeps the arm honest without dominating the run. A round trip is all
    // it pays: a link keeps its connection, so a run dials its follower
    // once — an exact count, which a dial per ship cannot meet.
    let sync_records = (records / 4).max(100);
    let (mut best, mut overhead) = ([0.0f64; 3], f64::MAX);
    let (mut missing, mut sync_redials) = (0, 0);
    for _ in 0..3 {
        let (plain, _, _) = arm_run(records, None);
        let (asynch, async_missing, _) = arm_run(records, Some(ReplicationMode::Async));
        let (sync, sync_missing, dials) = arm_run(sync_records, Some(ReplicationMode::Sync));
        for (b, rate) in best.iter_mut().zip([plain, asynch, sync]) {
            *b = b.max(rate);
        }
        overhead = overhead.min(1.0 - asynch / plain.max(1e-9));
        missing += async_missing + sync_missing;
        sync_redials += u64::from(dials != 1);
    }
    let [plain, asynch, sync] = best;
    r.metric("throughput.plain_per_sec", plain, "1/s");
    r.metric("throughput.async_per_sec", asynch, "1/s");
    r.metric("throughput.sync_per_sec", sync, "1/s");
    r.metric("throughput.async_overhead", overhead, "ratio");
    r.metric(
        "throughput.sync_cost_factor",
        plain / sync.max(1e-9),
        "ratio",
    );
    // Every record reached its run's follower; every sync run dialed once.
    r.gate("throughput.records_not_shipped", missing, Bound::eq(0));
    r.gate("throughput.sync_runs_redialing", sync_redials, Bound::eq(0));
}

fn main() -> ExitCode {
    let mut report = Report::new("E24", "replication");
    let jobs = report.flag("jobs", 3usize);
    let burst = report.flag("burst", 3_000usize);
    let records = report.flag("records", 2_500usize);
    println!("E24 — replicated control plane: shipping, failover, lag\n");

    kill_and_recover(&mut report, "e24", 3_000.0, jobs, true);
    lag_under_load(&mut report, burst);
    throughput(&mut report, records);

    let snap = faucets_telemetry::global().snapshot();
    let counter = |name| snap.counter_sum(name, &[]);
    let shipped = counter("repl_shipped_frames_total");
    report.gate("telemetry.shipped_frames", shipped, Bound::gt(0));
    report.metric("telemetry.fenced", counter("repl_fenced_total"), "count");
    let ship_errors = counter("repl_ship_errors_total");
    report.metric("telemetry.ship_errors", ship_errors, "count");
    report.finish()
}
