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
//! 2. **A late follower catches up** — with its follower down, a journal
//!    takes a write burst: every commit is NACKed (`Unreplicated`) and
//!    stays in the primary's WAL, and the `repl_lag` gauge must read the
//!    whole burst. The follower then comes up on its address, and one
//!    commit later it must hold everything the primary does.
//! 3. **Shipping overhead** — appending N records through a plain
//!    single-node journal (the PR-3 baseline) vs. a replicated one, both
//!    fsync-free so the disk doesn't mask the shipping cost. Every
//!    replicated run gets a follower of its own and must ship every record
//!    to it, dialing that follower exactly once (a link keeps its socket).
//!    Replication buys its contract with a round trip per commit; the
//!    cost is recorded, not gated.
//!
//! `--jobs`, `--burst`, `--records` resize the run.

use faucets_bench::{
    follower_daemon, kill_and_recover, probe_record, scratch, Bound, ExitCode, Report,
};
use faucets_net::prelude::*;
use faucets_net::replica::{spawn_replica, ReplicaOptions};
use faucets_store::{Durable, StoreError, StoreOptions};
use std::time::Instant;

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
/// trivial for the residual).
fn log_opts() -> StoreOptions {
    StoreOptions {
        service: "e24".into(),
        compact_every: 0,
        no_fsync: true,
        ..StoreOptions::default()
    }
}

/// A follower hosting `service` in a fresh directory, and the config of a
/// journal that ships to it.
fn follower_for(service: &str) -> (ReplicaHandle, ReplicationConfig) {
    let follower = follower_daemon(service, scratch("e24", &format!("{service}-follower")));
    let cfg = ReplicationConfig {
        followers: vec![follower.addr],
        ..ReplicationConfig::default()
    };
    (follower, cfg)
}

/// Scenario 2: a write burst while the follower is down, then one commit
/// after it comes back.
fn lag_under_load(r: &mut Report, burst: usize) {
    let follower_dir = scratch("e24", "lag-follower");
    let follower = follower_daemon("lag", follower_dir.clone());
    let cfg = ReplicationConfig {
        followers: vec![follower.addr],
        ..ReplicationConfig::default()
    };
    let addr = follower.addr;
    follower.kill();
    let dir = scratch("e24", "lag-primary");
    // A service label of its own, so the lag gauge read below is this
    // journal's.
    let opts = StoreOptions {
        service: "e24-lag".into(),
        ..log_opts()
    };
    let (journal, _) = Journal::open(&dir, Log::default(), "lag", opts, Some(&cfg)).expect("open");
    let nacked = (0..burst)
        .filter(|&i| {
            matches!(
                journal.commit(&probe_record(i)),
                Err(StoreError::Unreplicated { .. })
            )
        })
        .count();
    let lag = faucets_telemetry::global()
        .snapshot()
        .gauge_sum("repl_lag", &[("service", "e24-lag"), ("role", "primary")]);

    let follower = spawn_replica(
        &addr.to_string(),
        &[("lag".to_string(), follower_dir)],
        ReplicaOptions { no_fsync: true },
    )
    .expect("follower restarts on its address");
    let t0 = Instant::now();
    let caught_up = journal.commit(&probe_record(burst)).is_ok();
    let catch_up_ms = t0.elapsed().as_secs_f64() * 1e3;
    let p = journal.replicated().expect("replicated journal").position();
    let f = follower.position("lag").unwrap_or_default();
    let residual = if f.generation == p.generation {
        p.acked.saturating_sub(f.acked)
    } else {
        p.acked
    };
    follower.shutdown();
    r.gate("lag.unreplicated_nacks", nacked, Bound::eq(burst as u64));
    r.gate("lag.gauge_while_down", lag, Bound::eq(burst as f64));
    r.check("lag.catch_up_acked", caught_up);
    r.metric("lag.catch_up_ms", catch_up_ms, "ms");
    r.gate("lag.residual_after_catch_up", residual, Bound::eq(0));
}

/// Connections follower daemons have accepted so far: every dial a replica
/// link makes lands here, whichever transport made it.
fn replica_dials() -> u64 {
    faucets_telemetry::global()
        .snapshot()
        .counter_sum("net_conns_accepted_total", &[("service", "replica")])
}

/// One timed run of `records` commits through a journal, replicated or
/// the plain single-node one. A replicated run ships to a follower of its
/// own: one that an earlier run left ahead of this run's fresh primary
/// covers every commit before it is shipped, and the run would time a
/// local append. Returns (commits/sec, records missing on the follower,
/// dials made).
fn arm_run(records: usize, replicated: bool) -> (f64, u64, u64) {
    let follower = replicated.then(|| follower_for("arm"));
    let dir = scratch("e24", "arm");
    let dials0 = replica_dials();
    let cfg = follower.as_ref().map(|(_, cfg)| cfg);
    let (journal, _) = Journal::open(&dir, Log::default(), "arm", log_opts(), cfg).expect("open");
    let t0 = Instant::now();
    for i in 0..records {
        journal.commit(&probe_record(i)).expect("commit");
    }
    let secs = t0.elapsed().as_secs_f64();
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

/// Scenario 3: plain vs replicated append throughput over 3 rounds,
/// fsync-free, the two arms back to back in each round.
fn throughput(r: &mut Report, records: usize) {
    // A replicated commit pays a wire round-trip; a quarter of the records
    // keeps the arm honest without dominating the run. A round trip is all
    // it pays: a link keeps its connection, so a run dials its follower
    // once — an exact count, which a dial per ship cannot meet.
    let sync_records = (records / 4).max(100);
    let (mut plain, mut sync) = (0.0f64, 0.0f64);
    let (mut missing, mut sync_redials) = (0, 0);
    for _ in 0..3 {
        plain = plain.max(arm_run(records, false).0);
        let (rate, sync_missing, dials) = arm_run(sync_records, true);
        sync = sync.max(rate);
        missing += sync_missing;
        sync_redials += u64::from(dials != 1);
    }
    r.metric("throughput.plain_per_sec", plain, "1/s");
    r.metric("throughput.sync_per_sec", sync, "1/s");
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
