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
//! 2. **FS directory** — the Central Server is killed after acknowledging
//!    a registration and restarts on the same port: the cluster is listed
//!    without any re-registration traffic.
//! 3. **Accounting ledger** — a seeded storm of transfers, half of it
//!    under injected write faults (fail/torn/garbled appends via the E19
//!    `FaultPlan` adapted through `store_hook`). Faulted commits are
//!    NACKed; a crash + reopen must reproduce the acknowledged balances
//!    *exactly*, with money conserved.
//! 4. **Throughput** — appending N ledger-sized records through the WAL
//!    vs. rewriting a whole JSON snapshot per change (the seed FD
//!    behaviour, fsync-free in both arms). Acceptance: ≥ 10x.
//!
//! Writes `BENCH_durability.json` (uploaded as a CI artifact); prints
//! `E21 PASS` when every assertion holds. `--jobs`, `--transfers`,
//! `--records` resize the run.

use faucets_bench::{flag, scratch, spawn_daemon};
use faucets_core::accounting::{AccountId, DurableLedger};
use faucets_core::ids::{ClusterId, UserId};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder};
use faucets_net::fd::FdOptions;
use faucets_net::fs::{spawn_fs_durable, FsOptions};
use faucets_net::prelude::*;
use faucets_store::{NoopObserver, StoreOptions, Wal, WalOptions};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Scenario 1: kill the daemon after `jobs` confirmed awards; restart;
/// every acknowledged contract completes. Returns (acked, restored,
/// completed).
fn fd_kill_restart(jobs: usize) -> (usize, usize, usize) {
    let clock = Clock::new(3_000.0);
    let store = scratch("e21", "fd");
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 71).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 32).expect("AS");
    let journaled = || FdOptions {
        store: Some(store.clone()),
        ..FdOptions::default()
    };
    let (fs_addr, as_addr) = (fs.service.addr, aspect.service.addr);
    let fd = spawn_daemon(1, "turing", fs_addr, as_addr, clock.clone(), journaled());

    let mut client = FaucetsClient::register(
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        "frank",
        "pw",
    )
    .expect("client");
    client.retry = RetryPolicy::standard(71);

    let mut submitted = Vec::new();
    for _ in 0..jobs {
        let qos = QosBuilder::new("namd", 8, 32, 64.0 * 3_600.0)
            .efficiency(0.95, 0.8)
            .adaptive()
            .payoff(PayoffFn::hard_only(
                clock
                    .now()
                    .saturating_add(faucets_sim::time::SimDuration::from_hours(48)),
                Money::from_units(100),
                Money::from_units(10),
            ))
            .build()
            .expect("qos");
        let sub = client
            .submit(qos, &[("in.dat".into(), vec![0u8; 64])])
            .expect("award acknowledged");
        submitted.push(sub.job);
    }
    let acked = submitted.len();
    assert_eq!(fd.active_contracts(), acked, "all awards journaled");

    // kill -9: no goodbye, only the journal survives.
    fd.kill();
    let fd2 = spawn_daemon(1, "turing", fs_addr, as_addr, clock, journaled());
    let restored = fd2.active_contracts();

    let mut completed = 0;
    for job in &submitted {
        if client
            .wait(*job, Duration::from_secs(60))
            .map(|s| s.completed)
            .unwrap_or(false)
        {
            completed += 1;
        }
    }
    fd2.shutdown();
    let _ = std::fs::remove_dir_all(&store);
    (acked, restored, completed)
}

/// Scenario 2: kill the Central Server after an acknowledged registration;
/// restart it on the same port; the cluster is listed from the journal
/// alone. Returns replayed record count.
fn fs_kill_restart() -> u64 {
    let clock = Clock::new(1_000.0);
    let store = scratch("e21", "fs");
    let opts = || FsOptions {
        store: Some(store.clone()),
        ..FsOptions::default()
    };
    let fs = spawn_fs_durable("127.0.0.1:0", clock.clone(), 72, opts()).expect("FS");
    let addr = fs.service.addr;
    let aspect = spawn_appspector("127.0.0.1:0", addr, 8).expect("AS");
    // A daemon registers (acknowledged = journaled), then dies with the FS.
    let fd = spawn_daemon(
        1,
        "turing",
        addr,
        aspect.service.addr,
        clock.clone(),
        FdOptions::default(),
    );
    assert!(fs.state.lock().directory.get(ClusterId(1)).is_some());
    fd.kill();
    drop(fs);

    let fs2 = spawn_fs_durable(&addr.to_string(), clock, 72, opts()).expect("FS restart");
    let report = fs2.recovery.clone().expect("durable FS");
    assert!(
        fs2.state.lock().directory.get(ClusterId(1)).is_some(),
        "registration recovered with the daemon still down"
    );
    let _ = std::fs::remove_dir_all(&store);
    report.replayed_records
}

/// Scenario 3: transfer storm, second half under injected write faults.
/// Acked transfers update the in-memory model; NACKed ones must not. After
/// a crash + reopen the recovered balances equal the model exactly.
/// Returns (acked, nacked).
fn ledger_storm(transfers: usize) -> (usize, usize) {
    let dir = scratch("e21", "ledger");
    let accounts: Vec<AccountId> = (0..4)
        .map(|u| AccountId::User(UserId(u)))
        .chain((0..2).map(|c| AccountId::Cluster(ClusterId(c))))
        .collect();
    let mut model: BTreeMap<AccountId, i64> = BTreeMap::new();
    let mut acked = 0usize;
    let mut nacked = 0usize;

    let clean_opts = StoreOptions {
        service: "ledger".into(),
        compact_every: 64, // roll generations mid-storm
        ..StoreOptions::default()
    };
    let (ledger, _) = DurableLedger::<Money>::open(&dir, clean_opts.clone()).expect("open");
    for a in &accounts {
        let initial = Money::from_units(1_000);
        ledger.open_account(a.clone(), initial).expect("open acct");
        model.insert(a.clone(), initial.micros());
    }
    let total_before: i64 = model.values().sum();

    let mut rng = StdRng::seed_from_u64(0xE21);
    let storm = |ledger: &DurableLedger<Money>,
                 model: &mut BTreeMap<AccountId, i64>,
                 n: usize,
                 rng: &mut StdRng| {
        let mut ok = 0;
        let mut nack = 0;
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
                    ok += 1;
                }
                Err(faucets_core::error::FaucetsError::Storage(_)) => nack += 1,
                Err(_) => {} // insufficient funds: correctly refused, not a NACK
            }
        }
        (ok, nack)
    };

    // First half: clean disk. Crash (drop) and reopen to check replay.
    let (ok, nack) = storm(&ledger, &mut model, transfers / 2, &mut rng);
    acked += ok;
    nacked += nack;
    drop(ledger);
    let (ledger, report) = DurableLedger::<Money>::open(&dir, clean_opts).expect("reopen");
    assert!(
        report.snapshot_loaded || report.replayed_records > 0,
        "recovery saw the journal: {report:?}"
    );
    for a in &accounts {
        assert_eq!(
            ledger.balance(a).micros(),
            model[a],
            "balance of {a} after clean crash"
        );
    }
    drop(ledger);

    // Second half: every append runs through a seeded fault plan (fail /
    // torn / garbled writes). Failed commits are NACKs and must leave no
    // trace.
    let plan = Arc::new(FaultPlan::new(
        0xE21,
        FaultConfig {
            drop: 0.05,
            truncate: 0.05,
            garble: 0.05,
            delay: 0.0,
            max_delay: Duration::ZERO,
            reject: 0.0,
        },
    ));
    let faulty_opts = StoreOptions {
        service: "ledger".into(),
        compact_every: 0, // keep every record in the WAL while under fire
        fault: Some(plan.store_hook()),
        ..StoreOptions::default()
    };
    let (ledger, _) = DurableLedger::<Money>::open(&dir, faulty_opts).expect("reopen faulty");
    let (ok, nack) = storm(&ledger, &mut model, transfers - transfers / 2, &mut rng);
    acked += ok;
    nacked += nack;
    drop(ledger); // crash — possibly right after a torn append

    let final_opts = StoreOptions {
        service: "ledger".into(),
        ..StoreOptions::default()
    };
    let (ledger, _) = DurableLedger::<Money>::open(&dir, final_opts).expect("final reopen");
    for a in &accounts {
        assert_eq!(
            ledger.balance(a).micros(),
            model[a],
            "balance of {a} after faulted crash"
        );
    }
    assert_eq!(ledger.total_micros(), total_before, "money conserved");
    let _ = std::fs::remove_dir_all(&dir);
    (acked, nacked)
}

/// One synthetic journal record, sized like a ledger transfer.
fn record(i: usize) -> Vec<u8> {
    format!("{{\"seq\":{i},\"from\":\"user-{}\",\"to\":\"cluster-{}\",\"micros\":{},\"memo\":\"throughput probe {i}\"}}",
        i % 7, i % 3, (i as i64) * 1_000_001).into_bytes()
}

/// Scenario 4: WAL appends vs. rewrite-per-change (both fsync-free, as the
/// seed journal was). Returns (wal_per_sec, rewrite_per_sec, speedup).
fn throughput(records: usize) -> (f64, f64, f64) {
    let dir = scratch("e21", "bench");
    std::fs::create_dir_all(&dir).expect("bench dir");

    // Arm A: the seed behaviour — serialize ALL entries, temp + rename,
    // on every change.
    let snap = dir.join("snapshot.json");
    let tmp = dir.join("snapshot.json.tmp");
    let mut entries: Vec<Vec<u8>> = Vec::with_capacity(records);
    let t0 = Instant::now();
    for i in 0..records {
        entries.push(record(i));
        let blob = serde_json::to_vec(&entries).expect("serialize");
        std::fs::write(&tmp, &blob).expect("write tmp");
        std::fs::rename(&tmp, &snap).expect("rename");
    }
    let rewrite_secs = t0.elapsed().as_secs_f64();

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
        wal.append(&record(i)).expect("append");
    }
    let wal_secs = t0.elapsed().as_secs_f64();

    let _ = std::fs::remove_dir_all(&dir);
    let wal_rate = records as f64 / wal_secs.max(1e-9);
    let rewrite_rate = records as f64 / rewrite_secs.max(1e-9);
    (wal_rate, rewrite_rate, wal_rate / rewrite_rate.max(1e-9))
}

fn main() {
    let jobs = flag("jobs", 3usize);
    let transfers = flag("transfers", 400usize);
    let records = flag("records", 1_000usize);

    println!("E21 — durable state: WAL + snapshots + crash recovery\n");

    let (acked, restored, completed) = fd_kill_restart(jobs);
    println!(
        "E21: FD kill/restart — {acked} awards acked, {restored} restored, {completed} completed"
    );
    assert_eq!(restored, acked, "every acknowledged contract restored");
    assert_eq!(completed, acked, "every acknowledged contract completed");

    let fs_replayed = fs_kill_restart();
    println!("E21: FS kill/restart — registration recovered ({fs_replayed} records replayed)");

    let (l_acked, l_nacked) = ledger_storm(transfers);
    println!(
        "E21: ledger storm — {l_acked} transfers acked, {l_nacked} NACKed under injected faults; \
         recovered balances exact, money conserved"
    );
    assert!(
        l_nacked > 0,
        "the fault plan should have NACKed some appends"
    );

    let (wal_rate, rewrite_rate, speedup) = throughput(records);
    println!(
        "E21: throughput — WAL {wal_rate:.0} appends/s vs rewrite-per-change \
         {rewrite_rate:.0} changes/s ({speedup:.1}x)"
    );
    assert!(
        speedup >= 10.0,
        "WAL must beat the rewrite journal by ≥10x (got {speedup:.1}x)"
    );

    // The store instrumented itself along the way.
    let snap = faucets_telemetry::global().snapshot();
    let appends = snap.counter_sum("store_appends_total", &[]);
    let fsyncs = snap.histogram_sum("store_fsync_seconds", &[]).count;
    let append_errors = snap.counter_sum("store_append_errors_total", &[]);
    println!("E21: telemetry — {appends} appends, {fsyncs} fsyncs, {append_errors} append errors");
    assert!(appends > 0, "store_appends_total populated");
    assert!(fsyncs > 0, "store_fsync_seconds populated");
    assert!(
        append_errors as usize >= l_nacked,
        "injected faults visible in store_append_errors_total"
    );

    let report = serde_json::json!({
        "experiment": "E21",
        "fd": { "acked": acked, "restored": restored, "completed": completed },
        "fs": { "replayed_records": fs_replayed },
        "ledger": { "acked": l_acked, "nacked": l_nacked, "conserved": true },
        "throughput": {
            "wal_appends_per_sec": wal_rate,
            "rewrite_changes_per_sec": rewrite_rate,
            "speedup": speedup,
        },
        "telemetry": {
            "appends": appends,
            "fsyncs": fsyncs,
            "append_errors": append_errors,
        },
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_durability.json",
        serde_json::to_vec_pretty(&report).unwrap(),
    )
    .expect("write BENCH_durability.json");
    println!("\nE21 PASS — wrote BENCH_durability.json");
}
