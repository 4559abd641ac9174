//! E21 — Durable state: write-ahead log, snapshots, and crash recovery.
//!
//! The Figure-1 services now sit on `faucets-store` (CRC-framed WAL +
//! group commit + generation snapshots). This experiment proves the
//! tentpole claim — *nothing acknowledged is ever lost* — and measures
//! what the WAL buys over the seed system's rewrite-per-change journal:
//!
//! 1. **FD contracts** — a durable daemon confirms a batch of awards, is
//!    killed mid-run, and restarts from its journal: every acknowledged
//!    contract is restored and completes.
//! 2. **FS accounts** — the Central Server is killed after acknowledging
//!    an account and restarts on the same port on a fresh clock: the user
//!    logs in under the same id and the name stays taken. The directory
//!    is soft state: the FD that outlived the FS is listed again once its
//!    heartbeat has made it register, within one heartbeat period.
//! 3. **Accounting ledger** — a seeded storm of transfers, half of it
//!    under injected write faults (fail/torn/garbled appends via the E19
//!    `FaultPlan` adapted through `store_hook`). Faulted commits are
//!    NACKed; a crash + reopen must reproduce the acknowledged balances
//!    *exactly*, with money conserved.
//! 4. **Throughput** — appending N ledger-sized records through the WAL
//!    vs. rewriting a whole JSON snapshot per change (the seed FD
//!    behaviour, fsync-free in both arms). Acceptance: ≥ 10x.
//!
//! `--jobs`, `--transfers`, `--records` resize the run.

use faucets_bench::{
    commodity, kill_and_recover, probe_record, register, scratch, spawn_cluster, Bound, ExitCode,
    GridTarget, Report,
};
use faucets_core::accounting::{AccountId, DurableLedger};
use faucets_core::ids::{ClusterId, UserId};
use faucets_core::money::Money;
use faucets_core::qos::QosBuilder;
use faucets_net::fd::FdOptions;
use faucets_net::fs::{spawn_fs_durable, FsOptions};
use faucets_net::prelude::*;
use faucets_store::{NoopObserver, StoreOptions, Wal, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::Instant;

/// Scenario 2: kill the Central Server after an acknowledged account;
/// restart it on the same port on a fresh clock, as a new process. The
/// account is back under its id from the journal; the live FD is listed
/// again after its next heartbeat.
fn fs_kill_restart(r: &mut Report) {
    const SPEEDUP: f64 = 100.0;
    let store = scratch("e21", "fs");
    let opts = || FsOptions {
        store: Some(store.clone()),
        ..FsOptions::default()
    };
    let fs = spawn_fs_durable("127.0.0.1:0", Clock::new(SPEEDUP), 72, opts()).expect("FS");
    let addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", addr, 8).expect("AS");
    let at = GridTarget::single(addr, aspect.service.addr, Clock::new(SPEEDUP));
    let fd = spawn_cluster(&commodity(72, 1), 0, &at, FdOptions::default()).expect("FD");
    let before = register(&at, "erin").user;
    drop(fs);

    let clock = Clock::new(SPEEDUP);
    let fs2 = spawn_fs_durable(&addr.to_string(), clock.clone(), 72, opts()).expect("FS restart");
    let session = FaucetsClient::login(addr, aspect.service.addr, clock.clone(), "erin", "pw")
        .expect("erin logs in at the restarted FS");
    r.check("fs.account_recovered", session.user == before);
    let taken = FaucetsClient::register(addr, aspect.service.addr, clock.clone(), "erin", "x");
    r.check("fs.name_still_taken", taken.is_err());
    // How long the directory takes to relearn the FD that outlived the FS.
    let listed = || {
        let token = session.token.clone();
        let qos = QosBuilder::new("namd", 4, 16, 100.0).build().expect("qos");
        let reply = call(addr, &Request::ListServers { token, qos });
        matches!(reply, Ok(Response::Servers(s)) if s.iter().any(|s| s.info.cluster == ClusterId(1)))
    };
    r.wait("the FD's relisting", listed);
    // Wall milliseconds since the restart; one heartbeat period is 30
    // simulated seconds.
    let relisted_ms = clock.now().as_secs_f64() * 1e3 / SPEEDUP;
    r.gate(
        "fs.relisted_ms",
        relisted_ms,
        Bound::le(1.5 * 30e3 / SPEEDUP),
    );
    fd.shutdown();
    drop(fs2);
    let _ = std::fs::remove_dir_all(&store);
}

/// Scenario 3: transfer storm, second half under injected write faults.
/// Acked transfers update the in-memory model; NACKed ones must not. After
/// a crash + reopen the recovered balances equal the model exactly.
/// Returns the number of NACKed transfers.
fn ledger_storm(r: &mut Report, transfers: usize) -> usize {
    let dir = scratch("e21", "ledger");
    let accounts: Vec<AccountId> = (0..4)
        .map(|u| AccountId::User(UserId(u)))
        .chain((0..2).map(|c| AccountId::Cluster(ClusterId(c))))
        .collect();
    let mut model: BTreeMap<AccountId, i64> = BTreeMap::new();
    let opts = |compact_every, fault| StoreOptions {
        service: "ledger".into(),
        compact_every,
        fault,
        ..StoreOptions::default()
    };
    let reopen = |opts| DurableLedger::<Money>::open(&dir, opts).expect("open ledger");
    // Accounts whose recovered balance differs from the model.
    let off = |ledger: &DurableLedger<Money>, model: &BTreeMap<AccountId, i64>| {
        let wrong = |a: &&AccountId| ledger.balance(a).micros() != model[*a];
        accounts.iter().filter(wrong).count()
    };

    let (ledger, _) = reopen(opts(64, None)); // roll generations mid-storm
    for a in &accounts {
        let initial = Money::from_units(1_000);
        ledger.open_account(a.clone(), initial).expect("open acct");
        model.insert(a.clone(), initial.micros());
    }
    let total_before: i64 = model.values().sum();

    let mut rng = StdRng::seed_from_u64(0xE21);
    let (mut acked, mut nacked) = (0usize, 0usize);
    let mut storm = |ledger: &DurableLedger<Money>, model: &mut BTreeMap<AccountId, i64>, n| {
        for i in 0..n {
            let from = accounts[rng.random_range(0..accounts.len())].clone();
            let to = accounts[rng.random_range(0..accounts.len())].clone();
            if from == to {
                continue;
            }
            let amount = Money::from_units(rng.random_range(1..40));
            match ledger.transfer(from.clone(), to.clone(), amount, format!("storm {i}")) {
                Ok(()) => {
                    *model.get_mut(&from).unwrap() -= amount.micros();
                    *model.get_mut(&to).unwrap() += amount.micros();
                    acked += 1;
                }
                Err(faucets_core::error::FaucetsError::Storage(_)) => nacked += 1,
                Err(_) => {} // insufficient funds: correctly refused, not a NACK
            }
        }
    };

    // First half: clean disk. Crash (drop) and reopen to check replay.
    storm(&ledger, &mut model, transfers / 2);
    drop(ledger);
    let (ledger, recovery) = reopen(opts(64, None));
    let saw_journal = recovery.snapshot_loaded || recovery.replayed_records > 0;
    r.check("ledger.recovery_saw_the_journal", saw_journal);
    let zero = Bound::eq(0);
    r.gate(
        "ledger.clean_crash.balances_off",
        off(&ledger, &model),
        zero,
    );
    drop(ledger);

    // Second half: every append runs through a seeded fault plan (fail /
    // torn / garbled writes). Failed commits are NACKs and must leave no
    // trace. Compaction is off: every record stays in the WAL under fire.
    let plan = FaultPlan::new(
        0xE21,
        FaultConfig {
            drop: 0.05,
            truncate: 0.05,
            garble: 0.05,
            ..FaultConfig::none()
        },
    );
    let (ledger, _) = reopen(opts(0, Some(Arc::new(plan).store_hook())));
    storm(&ledger, &mut model, transfers - transfers / 2);
    drop(ledger); // crash — possibly right after a torn append

    let (ledger, _) = reopen(StoreOptions {
        service: "ledger".into(),
        ..StoreOptions::default()
    });
    r.gate(
        "ledger.faulted_crash.balances_off",
        off(&ledger, &model),
        zero,
    );
    let leaked = ledger.total_micros() - total_before;
    r.gate("ledger.micros_not_conserved", leaked, zero);
    r.metric("ledger.acked", acked, "count");
    // The fault plan should have NACKed some appends.
    r.gate("ledger.nacked", nacked, Bound::gt(0));
    let _ = std::fs::remove_dir_all(&dir);
    nacked
}

/// Scenario 4: WAL appends vs. rewrite-per-change (both fsync-free, as the
/// seed journal was).
fn throughput(r: &mut Report, records: usize) {
    let dir = scratch("e21", "bench");
    std::fs::create_dir_all(&dir).expect("bench dir");

    // Arm A: the seed behaviour — serialize ALL entries, temp + rename,
    // on every change.
    let snap = dir.join("snapshot.json");
    let tmp = dir.join("snapshot.json.tmp");
    let mut entries: Vec<Vec<u8>> = Vec::with_capacity(records);
    let t0 = Instant::now();
    for i in 0..records {
        entries.push(probe_record(i).into_bytes());
        let blob = serde_json::to_vec(&entries).expect("serialize");
        std::fs::write(&tmp, &blob).expect("write tmp");
        std::fs::rename(&tmp, &snap).expect("rename");
    }
    let rewrite_rate = records as f64 / t0.elapsed().as_secs_f64().max(1e-9);

    // Arm B: one WAL append per change.
    let wal = Wal::create(
        &dir.join("bench.wal"),
        1,
        WalOptions {
            no_fsync: true,
            ..WalOptions::default()
        },
        Arc::new(NoopObserver),
    )
    .expect("wal");
    let t0 = Instant::now();
    for i in 0..records {
        wal.append(probe_record(i).as_bytes()).expect("append");
    }
    let wal_rate = records as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let _ = std::fs::remove_dir_all(&dir);

    r.metric("throughput.wal_appends_per_sec", wal_rate, "1/s");
    r.metric("throughput.rewrite_changes_per_sec", rewrite_rate, "1/s");
    let speedup = wal_rate / rewrite_rate.max(1e-9);
    r.gate("throughput.wal_over_rewrite", speedup, Bound::ge(10));
}

fn main() -> ExitCode {
    let mut report = Report::new("E21", "durability");
    let jobs = report.flag("jobs", 3usize);
    let transfers = report.flag("transfers", 400usize);
    let records = report.flag("records", 1_000usize);
    println!("E21 — durable state: WAL + snapshots + crash recovery\n");

    // Scenario 1: kill the daemon after `jobs` confirmed awards; restart it
    // on its journal; every acknowledged contract is restored and completes.
    kill_and_recover(&mut report, "e21", 3_000.0, jobs, false);
    fs_kill_restart(&mut report);
    let nacked = ledger_storm(&mut report, transfers);
    throughput(&mut report, records);

    // The store instrumented itself along the way.
    let snap = faucets_telemetry::global().snapshot();
    let appends = snap.counter_sum("store_appends_total", &[]) as f64;
    let fsyncs = snap.histogram_sum("store_fsync_seconds", &[]).count as f64;
    report.gate("telemetry.appends", appends, Bound::gt(0));
    report.gate("telemetry.fsyncs", fsyncs, Bound::gt(0));
    // Every injected fault is visible in the store's own error counter.
    let append_errors = snap.counter_sum("store_append_errors_total", &[]) as f64;
    report.gate("telemetry.append_errors", append_errors, Bound::ge(nacked));
    report.finish()
}
