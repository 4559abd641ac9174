//! E20 — Observability: metrics, traces, dashboard, and overhead.
//!
//! Replays the E1 live-TCP scenario (FS, AppSpector, three FDs, two
//! clients) with the telemetry layer on, then:
//!
//! 1. asserts every Figure-1 arrow left a nonzero per-(service, endpoint)
//!    request counter, read back through each service's `Metrics` endpoint;
//! 2. reconstructs one awarded job's end-to-end trace (client → FS match →
//!    RFB fan-out → award → staging) from the span log and prints the tree;
//! 3. fetches the AppSpector grid dashboard (`GridView`) and prints it;
//! 4. runs a faulted caller (every frame it sends is lost) and asserts the
//!    PR-1 retry path shows up in `net_call_retries_total`, one count per
//!    backoff decision, instead of being inferred from sleeps;
//! 5. A/B-measures collector overhead with the global kill switch on the
//!    two hot paths the microbenchmarks cover — `Directory::candidates`
//!    (bench_matching) and the cluster submit→run→complete cycle
//!    (bench_scheduler) — and asserts < 5 %.

use faucets_bench::{figure1_scenario, Bound, ExitCode, Report};
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

fn matching_workload() -> (Directory, Vec<QosContract>) {
    let mut d = Directory::new(SimDuration::from_secs(120));
    for i in 0..1_000usize {
        let pes = 16u32 << (i % 6);
        let info = ServerInfo {
            mem_per_pe_mb: if i % 3 == 0 { 512 } else { 2048 },
            ..MachineSpec::commodity(ClusterId(i as u64), format!("cs{i}"), pes)
                .server_info("10.0.0.1", 9000)
        };
        let apps = ["namd", if i % 2 == 0 { "cfd" } else { "qmc" }];
        d.register(info, apps.map(String::from), SimTime::ZERO);
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
fn matching_pass(d: &Directory, jobs: &[QosContract], iters: usize) {
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

/// (enabled_secs, disabled_secs, overhead_pct) of `f` with the collector
/// on and off: the medians over `runs` back-to-back pairs, and the median
/// of the pairs' own on/off ratios. A pair's two runs are milliseconds
/// apart, so a drift of the box lands on both, the order inside a pair
/// alternates, and a median does not see the pair a neighbour disturbed:
/// on a shared 2-core box block medians swung ±14 % and even each arm's
/// fastest run of 100 swung ±10 %.
fn ab_overhead(mut f: impl FnMut(), runs: usize) -> (f64, f64, f64) {
    let mut timed = |enabled: bool| {
        set_enabled(enabled);
        let t = Instant::now();
        f();
        t.elapsed().as_secs_f64()
    };
    timed(true); // warmup
    let mut pairs: Vec<(f64, f64)> = (0..runs)
        .map(|i| match i % 2 {
            0 => (timed(true), timed(false)),
            _ => {
                let off = timed(false);
                (timed(true), off)
            }
        })
        .collect();
    set_enabled(true);
    let mut median = |key: fn(&(f64, f64)) -> f64| {
        pairs.sort_by(|a, b| key(a).total_cmp(&key(b)));
        key(&pairs[pairs.len() / 2])
    };
    let ratio = median(|(on, off)| on / off.max(1e-12));
    (median(|p| p.0), median(|p| p.1), (ratio - 1.0) * 100.0)
}

fn main() -> ExitCode {
    let mut report = Report::new("E20", "observability");
    let jobs_per_client: usize = report.flag("jobs", 3);
    let overhead_runs: usize = report.flag("overhead-runs", 100);
    let clock = Clock::new(3_000.0);

    // ---- 1. The E1 live stack, telemetry on. -------------------------
    let (grid, mut clients) = figure1_scenario(&clock, jobs_per_client);
    let (fs, aspect) = (grid.fs.service.addr, grid.appspector.service.addr);
    let awarded_trace = clients[0].last_trace.expect("submit recorded its trace");

    // ---- 2. Every Figure-1 arrow has a nonzero counter. --------------
    // One arrow: requests of `endpoint` served by `service`, read back
    // through a Metrics endpoint. The three daemons share this process's
    // registry, so the first FD answers for all of them.
    let fs_snap = metrics_of(fs);
    let fd_snap = metrics_of(grid.fds[0].service.addr);
    let as_snap = metrics_of(aspect);
    for (snap, service, endpoints) in [
        // client → FS and FD → FS arrows.
        (
            &fs_snap,
            "fs",
            &[
                "CreateUser",
                "Login",
                "ListServers",
                "VerifyToken",
                "RegisterCluster",
                "Heartbeat",
            ][..],
        ),
        // client → FD arrows.
        (&fd_snap, "fd", &["RequestBid", "Award", "UploadFile"][..]),
        // FD → AS and client → AS arrows.
        (
            &as_snap,
            "appspector",
            &["RegisterJob", "CompleteJob", "Watch", "Download"][..],
        ),
    ] {
        for endpoint in endpoints {
            let labels = [("service", service), ("endpoint", *endpoint)];
            let n = snap.counter_sum("net_requests_total", &labels);
            let edge = format!("figure1_edge.{service}/{endpoint}");
            report.gate(&edge, n, Bound::gt(0));
        }
    }
    let latency = fs_snap.histogram_sum("net_request_seconds", &[("service", "fs")]);
    report.gate("fs_latency.samples", latency.count, Bound::gt(0));
    report.metric("fs_latency.mean_s", latency.mean(), "s");
    report.metric("fs_latency.p95_s", latency.quantile(0.95), "s");

    // ---- 3. Reconstruct the awarded job's end-to-end trace. ----------
    let spans = trace::spans_for(awarded_trace);
    // The match step, the RFB fan-out and the award, each under the one
    // trace id the client started.
    for (service, name) in [
        ("client", None),
        ("fs", Some("ListServers")),
        ("fd", Some("RequestBid")),
        ("fd", Some("Award")),
    ] {
        let seen = spans
            .iter()
            .any(|s| s.service == service && name.is_none_or(|n| s.name == n));
        let step = format!("trace.has.{service}/{}", name.unwrap_or("*"));
        report.check(&step, seen);
    }
    report.metric("trace.spans", spans.len(), "count");
    println!("\nE20: end-to-end trace {awarded_trace} of the first awarded job:");
    print!("{}", trace::render_trace(awarded_trace));

    // ---- 4. The grid dashboard. --------------------------------------
    let view = clients[0].grid_view().expect("grid view");
    // All three clusters, and the FS + FDs + AS snapshots aggregated.
    report.gate("dashboard.clusters", view.clusters.len(), Bound::eq(3));
    report.gate("dashboard.services", view.services.len(), Bound::ge(2));
    println!("\n{}", view.render());

    // ---- 5. Faulted client: retries are counted, not slept-for. ------
    // A caller that loses every frame it sends (`drop: 1.0`): whatever the
    // frames' bytes (they carry per-process trace ids, so any plan that
    // decides by them is seeded in name only), each attempt times out and
    // every backoff decision is counted: attempts − 1 retries, exactly.
    let retries = || {
        faucets_telemetry::global()
            .snapshot()
            .counter_sum("net_call_retries_total", &[])
    };
    let retries_before = retries();
    let lossy = FaultConfig {
        drop: 1.0,
        ..FaultConfig::none()
    };
    let opts = CallOptions {
        faults: Some(Arc::new(FaultPlan::new(0xE20, lossy))),
        retry: RetryPolicy::standard(0xE20),
        timeouts: Timeouts::both(Duration::from_millis(50)),
        ..CallOptions::default()
    };
    let lost = call_with(fs, &Request::Metrics, &opts);
    report.check("faulted_client.call_failed", lost.is_err());
    let backoffs = Bound::eq(opts.retry.attempts - 1);
    report.gate(
        "faulted_client.counted_retries",
        retries() - retries_before,
        backoffs,
    );

    drop(clients);
    for fd in grid.fds {
        fd.shutdown();
    }

    // ---- 6. Collector overhead A/B on the microbenchmark loops. ------
    let (dir, jobs) = matching_workload();
    let (match_on, match_off, match_pct) =
        ab_overhead(|| matching_pass(&dir, &jobs, 1_000), overhead_runs);
    let (sched_on, sched_off, sched_pct) = ab_overhead(|| scheduler_pass(10), overhead_runs);
    report.metric("overhead.matching_on_s", match_on, "s");
    report.metric("overhead.matching_off_s", match_off, "s");
    report.metric("overhead.scheduler_on_s", sched_on, "s");
    report.metric("overhead.scheduler_off_s", sched_off, "s");
    report.gate("overhead.matching_pct", match_pct, Bound::lt(5));
    report.gate("overhead.scheduler_pct", sched_pct, Bound::lt(5));
    report.finish()
}
