//! E20 — Observability: metrics, traces, dashboard, and overhead.
//!
//! Replays the E1 live-TCP scenario (FS, AppSpector, three FDs, two
//! clients) with the telemetry layer on, then:
//!
//! 1. asserts every Figure-1 arrow left a nonzero per-(service, endpoint)
//!    request counter, read back through each service's `Metrics` endpoint;
//! 2. reconstructs one awarded job's end-to-end trace (client → FS match →
//!    RFB fan-out → award → staging) from the span log and prints the tree;
//! 3. runs a faulted client (seeded frame drops on its own traffic) and
//!    asserts the PR-1 retry path shows up in `net_call_retries_total`
//!    instead of being inferred from sleeps;
//! 4. fetches the AppSpector grid dashboard (`GridView`) and prints it;
//! 5. A/B-measures collector overhead with the global kill switch on the
//!    two hot paths the microbenchmarks cover — `Directory::candidates`
//!    (bench_matching) and the cluster submit→run→complete cycle
//!    (bench_scheduler) — and asserts < 5 %.
//!
//! Writes `BENCH_observability.json` with the edge counts, trace size,
//! retry count, and overhead percentages.

use faucets_bench::{flag, qos_for};
use faucets_core::daemon::FaucetsDaemon;
use faucets_core::directory::{Directory, FilterLevel, ServerInfo, ServerStatus};
use faucets_core::ids::{ClusterId, ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::money::Money;
use faucets_core::qos::{QosBuilder, QosContract};
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_sim::time::{SimDuration, SimTime};
use faucets_telemetry::metrics::MetricsSnapshot;
use faucets_telemetry::{set_enabled, trace};
use std::hint::black_box;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Fetch a service's registry snapshot through its Metrics endpoint.
fn metrics_of(addr: SocketAddr) -> MetricsSnapshot {
    match call(addr, &Request::Metrics).expect("Metrics call") {
        Response::Metrics(snap) => snap,
        other => panic!("expected metrics, got {other:?}"),
    }
}

/// One Figure-1 arrow: requests of `endpoint` served by `service` must have
/// been counted at least once.
fn assert_edge(snap: &MetricsSnapshot, service: &str, endpoint: &str) -> u64 {
    let n = snap.counter_sum(
        "net_requests_total",
        &[("service", service), ("endpoint", endpoint)],
    );
    assert!(
        n > 0,
        "Figure-1 edge {service}/{endpoint} has a zero counter"
    );
    println!("  {service:<12} {endpoint:<16} {n}");
    n
}

/// Median-of-runs wall time for `f`, with one warmup.
fn time_secs(mut f: impl FnMut(), runs: usize) -> f64 {
    f(); // warmup
    let mut samples: Vec<f64> = (0..runs)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64()
        })
        .collect();
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    samples[samples.len() / 2]
}

fn matching_workload() -> (Directory, Vec<QosContract>) {
    let mut d = Directory::new(SimDuration::from_secs(120));
    for i in 0..1_000usize {
        let pes = 16u32 << (i % 6);
        d.register(
            ServerInfo {
                cluster: ClusterId(i as u64),
                name: format!("cs{i}"),
                total_pes: pes,
                mem_per_pe_mb: if i % 3 == 0 { 512 } else { 2048 },
                cpu_type: "x86-64".into(),
                flops_per_pe_sec: 1e9,
                fd_addr: "10.0.0.1".into(),
                fd_port: 9000,
                replicas: vec![],
            },
            [
                "namd".to_string(),
                if i % 2 == 0 {
                    "cfd".to_string()
                } else {
                    "qmc".to_string()
                },
            ],
            SimTime::ZERO,
        );
        d.heartbeat(
            ClusterId(i as u64),
            ServerStatus {
                free_pes: pes / 2,
                queue_len: (i % 5) as u32,
                accepting: i % 7 != 0,
                ..Default::default()
            },
            SimTime::from_secs(1),
        );
    }
    let jobs = (0..16)
        .map(|i| {
            let min = 8u32 << (i % 5);
            QosBuilder::new(["namd", "cfd", "qmc"][i % 3], min, min * 2, 1000.0)
                .mem_per_pe_mb(if i % 4 == 0 { 1024 } else { 256 })
                .build()
                .unwrap()
        })
        .collect();
    (d, jobs)
}

/// The bench_matching hot loop: `iters` candidate queries.
fn matching_pass(d: &mut Directory, jobs: &[QosContract], iters: usize) {
    for i in 0..iters {
        black_box(
            d.candidates(
                &jobs[i % jobs.len()],
                FilterLevel::StaticAndDynamic,
                SimTime::from_secs(2),
            )
            .len(),
        );
    }
}

/// The bench_scheduler hot loop: submit→run→complete cycles.
fn scheduler_pass(cycles: usize) {
    for _ in 0..cycles {
        let mut cluster = Cluster::new(
            MachineSpec::commodity(ClusterId(1), "bench", 1024),
            Box::new(Equipartition),
            ResizeCostModel::default(),
        );
        for i in 0..32u64 {
            let qos = QosBuilder::new("app", 4, 64, 10_000.0)
                .adaptive()
                .build()
                .unwrap();
            let spec = JobSpec::new(JobId(i), UserId(1), qos, SimTime::from_secs(i)).unwrap();
            cluster.submit_job(spec, ContractId(i), Money::ZERO, SimTime::from_secs(i));
        }
        let (done, _) = cluster.run_to_idle(SimTime::from_secs(32));
        black_box(done.len());
    }
}

/// (enabled_secs, disabled_secs, overhead_pct) for one A/B pair.
fn ab_overhead(mut f: impl FnMut(), runs: usize) -> (f64, f64, f64) {
    set_enabled(true);
    let on = time_secs(&mut f, runs);
    set_enabled(false);
    let off = time_secs(&mut f, runs);
    set_enabled(true);
    let pct = if off > 0.0 {
        (on - off) / off * 100.0
    } else {
        0.0
    };
    (on, off, pct)
}

fn main() {
    let jobs_per_client: usize = flag("jobs", 3);
    let overhead_runs: usize = flag("overhead-runs", 5);
    let clock = Clock::new(3_000.0);

    // ---- 1. The E1 live stack, telemetry on. -------------------------
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 1).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 64).expect("AppSpector");
    let mut fds = vec![];
    for (i, pes, strat) in [
        (1u64, 128u32, "baseline"),
        (2, 256, "util-interp"),
        (3, 512, "baseline"),
    ] {
        let machine = MachineSpec::commodity(ClusterId(i), format!("cs{i}"), pes);
        let daemon = FaucetsDaemon::new(
            machine.server_info("127.0.0.1", 0),
            ["namd".to_string(), "cfd".to_string()],
            faucets_grid::scenario::strategy_by_name(strat),
            Money::from_units_f64(0.01),
        );
        let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
        fds.push(
            spawn_fd(
                "127.0.0.1:0",
                daemon,
                cluster,
                fs.service.addr,
                aspect.service.addr,
                clock.clone(),
            )
            .expect("FD"),
        );
    }

    let mut clients: Vec<FaucetsClient> = (0..2)
        .map(|i| {
            FaucetsClient::register(
                fs.service.addr,
                aspect.service.addr,
                clock.clone(),
                &format!("user{i}"),
                "pw",
            )
            .expect("client")
        })
        .collect();

    let mut placed = vec![];
    for c in clients.iter_mut() {
        for j in 0..jobs_per_client {
            let qos = qos_for(
                &clock,
                if j % 2 == 0 { "namd" } else { "cfd" },
                8.0 * 400.0,
                4,
            );
            let sub = c
                .submit(qos, &[("in.dat".into(), vec![0u8; 1024])])
                .expect("placed");
            placed.push((c.user, sub));
        }
    }
    let awarded_trace = clients[0].last_trace.expect("submit recorded its trace");
    for c in clients.iter_mut() {
        for (owner, sub) in &placed {
            if *owner == c.user {
                c.wait(sub.job, Duration::from_secs(60)).expect("completes");
                let _ = c.download(sub.job, "output.dat").expect("output downloads");
            }
        }
    }

    // ---- 2. Every Figure-1 arrow has a nonzero counter. --------------
    println!("E20: Figure-1 edges (service, endpoint, requests served)");
    let fs_snap = metrics_of(fs.service.addr);
    let mut edge_counts = serde_json::Map::new();
    for (service, endpoint, snap) in [
        // client → FS and FD → FS arrows.
        ("fs", "CreateUser", &fs_snap),
        ("fs", "Login", &fs_snap),
        ("fs", "ListServers", &fs_snap),
        ("fs", "VerifyToken", &fs_snap),
        ("fs", "RegisterCluster", &fs_snap),
        ("fs", "Heartbeat", &fs_snap),
    ] {
        edge_counts.insert(
            format!("{service}/{endpoint}"),
            assert_edge(snap, service, endpoint).into(),
        );
    }
    let fd_snap = metrics_of(fds[0].service.addr);
    for (service, endpoint) in [
        // client → FD arrows (counted across all three daemons — they share
        // this process's registry).
        ("fd", "RequestBid"),
        ("fd", "Award"),
        ("fd", "UploadFile"),
    ] {
        edge_counts.insert(
            format!("{service}/{endpoint}"),
            assert_edge(&fd_snap, service, endpoint).into(),
        );
    }
    let as_snap = metrics_of(aspect.service.addr);
    for (service, endpoint) in [
        // FD → AS and client → AS arrows.
        ("appspector", "RegisterJob"),
        ("appspector", "CompleteJob"),
        ("appspector", "Watch"),
        ("appspector", "Download"),
    ] {
        edge_counts.insert(
            format!("{service}/{endpoint}"),
            assert_edge(&as_snap, service, endpoint).into(),
        );
    }
    let latency = fs_snap.histogram_sum("net_request_seconds", &[("service", "fs")]);
    assert!(latency.count > 0, "FS latency histogram populated");
    println!(
        "  FS served {} requests, mean {:.6}s, p95 {:.6}s",
        latency.count,
        latency.mean(),
        latency.quantile(0.95)
    );

    // ---- 3. Reconstruct the awarded job's end-to-end trace. ----------
    let spans = trace::spans_for(awarded_trace);
    for needed in ["client", "fs", "fd"] {
        assert!(
            spans.iter().any(|s| s.service == needed),
            "trace {awarded_trace} is missing {needed} spans"
        );
    }
    assert!(
        spans
            .iter()
            .any(|s| s.service == "fs" && s.name == "ListServers"),
        "trace shows the FS match step"
    );
    assert!(
        spans
            .iter()
            .any(|s| s.service == "fd" && s.name == "RequestBid"),
        "trace shows the RFB fan-out"
    );
    assert!(
        spans.iter().any(|s| s.service == "fd" && s.name == "Award"),
        "trace shows the award"
    );
    println!(
        "\nE20: end-to-end trace of the first awarded job ({} spans):",
        spans.len()
    );
    print!("{}", trace::render_trace(awarded_trace));

    // ---- 4. Faulted client: retries are counted, not slept-for. ------
    let retries_before = faucets_telemetry::global()
        .snapshot()
        .counter_sum("net_call_retries_total", &[]);
    let mut chaotic = FaucetsClient::register(
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        "chaos",
        "pw",
    )
    .expect("chaos client");
    chaotic.faults = Some(Arc::new(FaultPlan::new(0xE20, FaultConfig::flaky())));
    chaotic.retry = RetryPolicy::standard(0xE20);
    // Under frame drops the submission may or may not land; the telemetry
    // contract is only that every backoff decision is counted.
    let _ = chaotic.submit(qos_for(&clock, "namd", 8.0 * 400.0, 4), &[]);
    let retries = faucets_telemetry::global()
        .snapshot()
        .counter_sum("net_call_retries_total", &[])
        - retries_before;
    assert!(retries > 0, "faulted client produced no counted retries");
    println!("\nE20: faulted client counted {retries} transport retries");

    // ---- 5. The grid dashboard. --------------------------------------
    let view = clients[0].grid_view().expect("grid view");
    assert_eq!(
        view.clusters.len(),
        3,
        "all three clusters on the dashboard"
    );
    assert!(
        view.services.len() >= 2,
        "FS + FDs + AS snapshots aggregated"
    );
    println!("\n{}", view.render());

    drop(clients);
    for fd in fds {
        fd.shutdown();
    }

    // ---- 6. Collector overhead A/B on the microbenchmark loops. ------
    let (mut dir, jobs) = matching_workload();
    let (match_on, match_off, match_pct) =
        ab_overhead(|| matching_pass(&mut dir, &jobs, 20_000), overhead_runs);
    let (sched_on, sched_off, sched_pct) = ab_overhead(|| scheduler_pass(40), overhead_runs);
    println!(
        "E20: overhead — matching {match_pct:+.2}% ({match_on:.4}s vs {match_off:.4}s), \
         scheduler {sched_pct:+.2}% ({sched_on:.4}s vs {sched_off:.4}s)"
    );
    assert!(
        match_pct < 5.0,
        "matching overhead {match_pct:.2}% exceeds 5%"
    );
    assert!(
        sched_pct < 5.0,
        "scheduler overhead {sched_pct:.2}% exceeds 5%"
    );

    // ---- 7. BENCH_observability.json. --------------------------------
    let report = serde_json::json!({
        "experiment": "E20",
        "figure1_edges": edge_counts,
        "trace": { "id": format!("{awarded_trace}"), "spans": spans.len() },
        "faulted_client_retries": retries,
        "dashboard_clusters": view.clusters.len(),
        "overhead_pct": { "matching": match_pct, "scheduler": sched_pct },
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_observability.json",
        serde_json::to_vec_pretty(&report).unwrap(),
    )
    .expect("write BENCH_observability.json");
    println!("\nE20 PASS — wrote BENCH_observability.json");
}
