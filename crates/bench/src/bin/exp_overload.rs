//! E22 — Overload protection: graceful degradation under a bid storm.
//!
//! The paper sizes the grid at "hundreds of Compute Servers" and
//! "millions of jobs per day" (§5); this experiment drives a single FD
//! far past its bid capacity and checks that the overload machinery
//! degrades *gracefully* instead of collapsing:
//!
//! 1. **Load ladder** — an FD with a known bid capacity (2 gate slots ×
//!    40 ms probe floor ≈ 50 bids/s) is offered 0.5x, 1x, 2x, and 4x its
//!    capacity. Acceptance: goodput at 4x stays within 20% of the peak
//!    arm (no congestion collapse), accepted-work p99 latency stays
//!    bounded by the callers' 250 ms deadline (no unbounded queueing),
//!    and the shed counters are nonzero at 4x.
//! 2. **Payoff-aware shedding** — the storm alternates rich ($100 for
//!    100 CPU-s) and poor ($10) solicitations; under 4x overload the
//!    gate must favour the rich ones (§4 profit maximization).
//! 3. **FS query throttle** — choking the directory token bucket turns
//!    a `ListServers` hammer into `Overloaded` answers, counted.
//!
//! `--arm-ms` and `--workers` resize the run.

use faucets_bench::{closed_loop, spawn_daemon, ArmResult, Bound, ExitCode, GridTarget, Report};
use faucets_core::auth::SessionToken;
use faucets_core::bid::BidRequest;
use faucets_core::ids::{JobId, UserId};
use faucets_core::money::Money;
use faucets_core::qos::{PayoffFn, QosBuilder, QosContract};
use faucets_net::fd::FdOptions;
use faucets_net::prelude::*;
use faucets_net::proto::is_overload_error;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// The FD's engineered bid capacity: `GATE_SLOTS / PROBE_FLOOR` ≈ 50/s.
const GATE_SLOTS: usize = 2;
const PROBE_FLOOR: Duration = Duration::from_millis(40);
const CAPACITY_PER_SEC: f64 = GATE_SLOTS as f64 / 0.040;
/// Per-call budget the storm's clients give the grid.
const CALL_DEADLINE: Duration = Duration::from_millis(250);

/// A rich ($100) or poor ($10) contract for 100 CPU-seconds of namd —
/// payoff rates 1.0 vs 0.1 $/CPU-s at 1 flop/PE/s.
fn qos(clock: &Clock, rich: bool) -> QosContract {
    QosBuilder::new("namd", 4, 16, 100.0)
        .payoff(PayoffFn::hard_only(
            clock
                .now()
                .saturating_add(faucets_sim::time::SimDuration::from_hours(48)),
            Money::from_units(if rich { 100 } else { 10 }),
            Money::from_units(1),
        ))
        .build()
        .expect("qos")
}

/// What an arm's solicitations came to beyond the driver's own counts
/// (`iters` offered, `calls` accepted, `errors` not).
#[derive(Default)]
struct Tally {
    accepted_rich: AtomicU64,
    overloaded: AtomicU64,
}

/// Offer `rps` solicitations/second to the FD for `arm_ms`, alternating
/// rich/poor payoffs, each call carrying a 250 ms deadline and no retry.
fn run_arm(
    fd_addr: SocketAddr,
    token: &SessionToken,
    user: UserId,
    clock: &Clock,
    rps: f64,
    arm_ms: u64,
    workers: usize,
) -> (ArmResult, Tally) {
    let (rich_qos, poor_qos, now) = (qos(clock, true), qos(clock, false), clock.now());
    let opts = CallOptions {
        retry: RetryPolicy::none(),
        deadline: Some(CALL_DEADLINE),
        ..CallOptions::default()
    };
    let tally = Tally::default();
    let arm = closed_loop(workers, arm_ms, u64::MAX, Some(rps), || {
        |t| {
            let rich = t % 2 == 0;
            let req = Request::RequestBid {
                token: token.clone(),
                request: BidRequest {
                    job: JobId(1_000_000 + t),
                    user,
                    qos: if rich { &rich_qos } else { &poor_qos }.clone(),
                    issued_at: now,
                },
            };
            match call_with(fd_addr, &req, &opts) {
                Ok(Response::BidReply(_)) => {
                    tally
                        .accepted_rich
                        .fetch_add(u64::from(rich), Ordering::Relaxed);
                    return (1, 0);
                }
                Err(e) if is_overload_error(&e) => {
                    tally.overloaded.fetch_add(1, Ordering::Relaxed);
                }
                _ => {}
            }
            (0, 1)
        }
    });
    (arm, tally)
}

/// A counter of the process-wide registry, summed over its labels.
fn counter(name: &str) -> u64 {
    faucets_telemetry::global()
        .snapshot()
        .counter_sum(name, &[])
}

/// Phase 3: choke the FS query bucket and hammer the directory.
fn fs_throttle_demo(r: &mut Report, fs: &faucets_net::fs::FsHandle, token: &SessionToken) {
    let before = counter("fs_query_throttled_total");
    fs.query_bucket.set_rate(1.0);
    fs.query_bucket.set_burst(2.0);
    let opts = CallOptions {
        retry: RetryPolicy::none(),
        ..CallOptions::default()
    };
    let req = Request::ListClusters {
        token: token.clone(),
    };
    let shed = |_: &u32| matches!(call_with(fs.service.addr, &req, &opts), Err(e) if is_overload_error(&e));
    let throttled = (0..50).filter(shed).count();
    // Restore a generous bucket for anything that still needs the FS.
    fs.query_bucket.set_rate(1000.0);
    fs.query_bucket.set_burst(2000.0);
    r.gate("fs_throttle.throttled", throttled, Bound::gt(0));
    let counted = counter("fs_query_throttled_total") - before;
    r.gate("fs_throttle.counted", counted, Bound::gt(0));
}

fn main() -> ExitCode {
    let mut report = Report::new("E22", "overload");
    let arm_ms = report.flag("arm-ms", 2_000u64);
    let workers = report.flag("workers", 64usize);
    report.knob("capacity_per_sec", CAPACITY_PER_SEC);
    report.knob("call_deadline_ms", CALL_DEADLINE.as_millis());
    println!("E22 — overload protection: admission, deadlines, payoff-aware shedding\n");

    let clock = Clock::new(600.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 81).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 32).expect("AS");
    let at = GridTarget::single(fs.service.addr, aspect.service.addr, clock.clone());
    let gated = FdOptions {
        bid_gate: GateConfig {
            max_inflight: GATE_SLOTS,
            max_queue: 4,
        },
        bid_probe_floor: PROBE_FLOOR,
        ..FdOptions::default()
    };
    let fd = spawn_daemon(1, "turing", &at, gated);

    let login = |req| call(fs.service.addr, &req).expect("FS call");
    login(Request::CreateUser {
        user: "storm".into(),
        password: "pw".into(),
    });
    let session = login(Request::Login {
        user: "storm".into(),
        password: "pw".into(),
    });
    let Response::Session { user, token } = session else {
        panic!("expected session, got {session:?}");
    };

    // Phase 1+2: the load ladder; its last arm is the overload arm.
    let mut peak = 0.0f64;
    let mut last = None;
    for m in [0.5, 1.0, 2.0, 4.0] {
        let rps = CAPACITY_PER_SEC * m;
        let (arm, tally) = run_arm(fd.service.addr, &token, user, &clock, rps, arm_ms, workers);
        let (rich, overloaded) = (
            tally.accepted_rich.into_inner(),
            tally.overloaded.into_inner(),
        );
        let level = format!("x{m}");
        report.metrics(&level, &arm.fields());
        report.metric(&format!("{level}.accepted_rich"), rich, "count");
        report.metric(&format!("{level}.overloaded"), overloaded, "count");
        peak = peak.max(arm.per_sec);
        last = Some((arm, rich, overloaded));
    }
    let (arm, rich, overloaded) = last.expect("4x arm");
    // No congestion collapse, no unbounded queueing, shed not absorbed,
    // and the gate favours rich contracts (§4 profit maximization).
    report.gate("x4.goodput_over_peak", arm.per_sec / peak, Bound::ge(0.8));
    report.gate("x4.accepted_p99_ms", arm.p99_ms, Bound::le(400));
    report.gate("x4.overloaded", overloaded, Bound::gt(0));
    let poor = arm.calls - rich;
    report.gate("x4.accepted_rich_vs_poor", rich, Bound::ge(poor));

    // The gate and serve layers instrumented themselves along the way.
    let snap = faucets_telemetry::global().snapshot();
    let sheds = counter("fd_bid_sheds_total") + counter("fd_doomed_sheds_total");
    let admitted = counter("fd_bids_admitted_total");
    report.metric("bid_gate.admitted", admitted, "count");
    report.metric("bid_gate.handle_queue_peak", fd.gate.peak_queue(), "count");
    report.gate("bid_gate.sheds", sheds, Bound::gt(0));
    let queue_peak = snap.gauge_max("fd_bid_queue_peak", &[]);
    report.gate("bid_gate.queue_peak", queue_peak, Bound::ge(1));

    fs_throttle_demo(&mut report, &fs, &token);

    fd.shutdown();
    report.finish()
}
