//! E26 — One Central Server: capacity and availability.
//!
//! The paper's Figure 1 has one Central Server, and its "millions of jobs
//! per day" is 12–23 jobs per second. This experiment measures what one FS
//! spends on the query every submission starts with, and gates that the
//! grid outlives the FS's death:
//!
//! 1. **Capacity** — one FS with N = 16, 64 and 256 rows registered
//!    straight over the wire (no FD runs, so nothing but the FS's own
//!    workers answers), then one pooled caller asking `ListServers` for
//!    `--query-ms`. Reports the p50 round trip and the process CPU per
//!    query (the in-process caller's encode and decode included), and
//!    gates that every query listed all N rows.
//! 2. **Availability** — an FS and a standby FS, FDs homed at the FS with
//!    the standby as their fallback, a client likewise. Kill the FS
//!    between two batches of 30 submissions: every FD must rotate to the
//!    standby and register there, the client must fail over (and
//!    re-create its account), both batches must be acked, and **every
//!    acked submission must complete** at the FDs — zero acked-award loss.
//!
//! `--smoke` is the CI shape (it shortens the capacity arm's window);
//! `--query-ms` and `--fds` resize the run.

use faucets_bench::{commodity, spawn_cluster, Bound, ExitCode, GridTarget, Report};
use faucets_core::directory::ServerInfo;
use faucets_core::ids::ClusterId;
use faucets_core::qos::{QosBuilder, QosContract};
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::fs::{spawn_fs, spawn_fs_durable, FsOptions};
use faucets_net::prelude::{
    call_with, spawn_appspector, CallOptions, Clock, ConnPool, FaucetsClient, PoolConfig, Request,
    Response, RetryPolicy,
};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SPEEDUP: f64 = 600.0;

/// The paper's upper rate, for the share of a core it would cost.
const PAPER_JOBS_PER_SEC: f64 = 23.0;

/// CPU this process has spent, user and system, in microseconds
/// (`/proc/self/stat` counts 100 ticks a second).
fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("procfs");
    // Fields after the parenthesised command name: utime and stime are
    // the 12th and 13th.
    let rest = &stat[stat.rfind(')').expect("stat line") + 2..];
    let ticks: u64 = rest
        .split_whitespace()
        .skip(11)
        .take(2)
        .map(|f| f.parse::<u64>().expect("tick count"))
        .sum();
    ticks as f64 * 10_000.0
}

fn qos() -> QosContract {
    QosBuilder::new("namd", 4, 16, 100.0).build().unwrap()
}

fn row(id: u64) -> ServerInfo {
    ServerInfo {
        cluster: ClusterId(id),
        name: format!("cs{id}"),
        total_pes: 64,
        mem_per_pe_mb: 1024,
        cpu_type: "x86-64".into(),
        flops_per_pe_sec: 1.0,
        fd_addr: "127.0.0.1".into(),
        fd_port: 1,
    }
}

/// One capacity arm: `n` rows in a fresh FS, then `ListServers` for
/// `window` (and at least 200 queries) from one pooled caller.
fn capacity(r: &mut Report, n: u64, window: Duration) {
    // Wall clock: no row goes stale while the arm runs, since nothing
    // heartbeats. Unthrottled: the arm measures the query, not the bucket.
    let opts = FsOptions {
        query_rate: 1e9,
        query_burst: 1e9,
        ..FsOptions::default()
    };
    let fs = spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 2_600 + n, opts).expect("FS");
    let addr = fs.service.addr;
    let call = CallOptions {
        pool: Some(Arc::new(ConnPool::new("e26", PoolConfig::default()))),
        ..CallOptions::default()
    };
    let ask = |req: &Request| call_with(addr, req, &call).expect("FS answers");
    for id in 1..=n {
        let (info, apps) = (row(id), vec!["namd".to_string()]);
        let reply = ask(&Request::RegisterCluster { info, apps });
        assert_eq!(reply, Response::Ok, "registration of row {id}");
    }
    let (user, password) = ("e26-capacity".to_string(), "pw".to_string());
    ask(&Request::CreateUser {
        user: user.clone(),
        password: password.clone(),
    });
    let Response::Session { token, .. } = ask(&Request::Login { user, password }) else {
        panic!("no session from the FS")
    };
    let list = Request::ListServers { token, qos: qos() };
    // Whether one query listed every row.
    let listed_all = || matches!(ask(&list), Response::Servers(s) if s.len() as u64 == n);
    for _ in 0..100 {
        listed_all();
    }
    let (mut rtt_us, mut short) = (vec![], 0u64);
    let (started, cpu0) = (Instant::now(), process_cpu_us());
    while started.elapsed() < window || rtt_us.len() < 200 {
        let t = Instant::now();
        short += u64::from(!listed_all());
        rtt_us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    let cpu_us = (process_cpu_us() - cpu0) / rtt_us.len() as f64;
    rtt_us.sort_by(f64::total_cmp);
    let level = format!("capacity.n{n}");
    let share = cpu_us * PAPER_JOBS_PER_SEC / 1e6;
    r.metrics(
        &level,
        &[
            ("queries", rtt_us.len() as f64, "count"),
            ("list_p50_us", rtt_us[rtt_us.len() / 2], "us"),
            ("cpu_us_per_query", cpu_us, "us"),
            ("core_share_at_23_jobs_s", share, "ratio"),
        ],
    );
    r.gate(&format!("{level}.short_listings"), short, Bound::eq(0));
    fs.shutdown();
}

fn main() -> ExitCode {
    let mut report = Report::new("E26", "federation");
    let smoke = report.switch("smoke");
    let query_ms = report.flag("query-ms", if smoke { 1_000u64 } else { 3_000 });
    let fds = report.flag("fds", if smoke { 4usize } else { 8 });
    report.knob("speedup", SPEEDUP);
    println!("E26 — one Central Server: directory-query capacity, then the FS's death\n");

    for n in [16, 64, 256] {
        capacity(&mut report, n, Duration::from_millis(query_ms));
    }

    // The availability arm: an FS, a standby, and a grid homed at the FS.
    let clock = Clock::new(SPEEDUP);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 2_601).expect("FS");
    let standby = spawn_fs("127.0.0.1:0", clock.clone(), 2_602).expect("standby FS");
    // AppSpector takes no fallback: it verifies watchers at the standby,
    // which outlives the kill.
    let aspect = spawn_appspector("127.0.0.1:0", standby.service.addr, 32).expect("AS");
    let target = GridTarget {
        fs: vec![fs.service.addr, standby.service.addr],
        appspector: aspect.service.addr,
        clock: clock.clone(),
    };
    // The FS and its standby are the grid's Central Servers: the
    // scenario's seed seeds neither.
    let scenario = commodity(0, fds);
    let daemons: Vec<FdHandle> = (0..fds)
        .map(|i| {
            let opts = FdOptions {
                fs_fallbacks: target.fs[1..].to_vec(),
                ..FdOptions::default()
            };
            spawn_cluster(&scenario, i, &target, opts).expect("FD")
        })
        .collect();
    report.wait("every FD to register with the FS", || {
        fs.state.lock().directory.len() == fds
    });

    let mut client = FaucetsClient::register(
        target.fs[0],
        target.appspector,
        clock.clone(),
        "e26-chaos",
        "pw",
    )
    .expect("chaos client");
    client.fs_fallbacks = target.fs[1..].to_vec();
    client.retry = RetryPolicy::none(); // fail over on the first refusal

    let batch = 30u64;
    let mut submit_batch = |gate: &str, report: &mut Report| {
        let acked = (0..batch)
            .filter(|_| client.submit(qos(), &[]).is_ok())
            .count();
        report.gate(gate, acked, Bound::eq(batch));
    };
    submit_batch("chaos.acked_before_the_kill", &mut report);

    println!("\nE26: killing the FS with {batch} acked awards in flight");
    // FDs are named by cluster, and a process may have run grids before:
    // count this kill's failovers from here.
    let before = faucets_telemetry::global().snapshot();
    drop(fs);

    report.wait("every FD to rotate to the standby and register", || {
        let snap = faucets_telemetry::global().snapshot();
        let rotated = (1..=fds).all(|id| {
            let (name, counter) = (format!("cs{id}"), "fd_fs_failovers_total");
            let labels = [("cluster", name.as_str())];
            snap.counter_sum(counter, &labels) > before.counter_sum(counter, &labels)
        });
        rotated && standby.state.lock().directory.len() == fds
    });

    // The client's account and session died with the FS: submissions
    // must keep succeeding through failover and re-authentication.
    submit_batch("chaos.acked_after_the_kill", &mut report);

    // Zero acked-award loss: everything acknowledged, before or after the
    // kill, runs to completion on some FD.
    let completed = || daemons.iter().map(|f| f.completed()).sum::<u64>();
    report.wait("every acked submission to complete", || {
        completed() >= 2 * batch
    });
    let lost = (2 * batch).saturating_sub(completed());
    report.gate("chaos.acked_award_loss", lost, Bound::eq(0));
    report.metric("chaos.completed", completed(), "count");
    report.finish()
}
