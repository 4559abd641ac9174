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
//! 4. **Circuit breaker** — calls to a killed service trip the breaker
//!    open after 3 transport failures; further calls fast-fail locally.
//! 5. **Injected rejection** — `FaultConfig::reject = 1.0` makes a
//!    healthy service answer `Overloaded` deterministically (chaos knob).
//!
//! Writes `BENCH_overload.json` (uploaded as a CI artifact); prints
//! `E22 PASS` when every assertion holds. `--arm-ms` and `--workers`
//! resize the run.

use faucets_bench::{flag, percentile, spawn_daemon};
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
use std::sync::Arc;
use std::time::{Duration, Instant};

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

#[derive(Default)]
struct ArmResult {
    offered: u64,
    accepted: u64,
    accepted_rich: u64,
    accepted_poor: u64,
    overloaded: u64,
    failed: u64,
    latencies_ms: Vec<f64>,
    goodput_per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
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
) -> ArmResult {
    let rich_qos = qos(clock, true);
    let poor_qos = qos(clock, false);
    let interval = Duration::from_secs_f64(1.0 / rps);
    let started = Instant::now();
    let end = started + Duration::from_millis(arm_ms);
    let tickets = Arc::new(AtomicU64::new(0));

    let mut handles = vec![];
    for _ in 0..workers {
        let (tickets, token) = (Arc::clone(&tickets), token.clone());
        let (rich_qos, poor_qos, now) = (rich_qos.clone(), poor_qos.clone(), clock.now());
        handles.push(std::thread::spawn(move || {
            let opts = CallOptions {
                retry: RetryPolicy::none(),
                deadline: Some(CALL_DEADLINE),
                ..CallOptions::default()
            };
            let mut out = ArmResult::default();
            loop {
                let t = tickets.fetch_add(1, Ordering::Relaxed);
                let sched = started + interval.mul_f64(t as f64);
                if sched >= end {
                    break;
                }
                let wait = sched.saturating_duration_since(Instant::now());
                if !wait.is_zero() {
                    std::thread::sleep(wait);
                }
                let rich = t % 2 == 0;
                let req = Request::RequestBid {
                    token: token.clone(),
                    request: BidRequest {
                        job: JobId(1_000_000 + t),
                        user,
                        qos: if rich {
                            rich_qos.clone()
                        } else {
                            poor_qos.clone()
                        },
                        issued_at: now,
                    },
                };
                out.offered += 1;
                let t0 = Instant::now();
                match call_with(fd_addr, &req, &opts) {
                    Ok(Response::BidReply(_)) => {
                        out.accepted += 1;
                        if rich {
                            out.accepted_rich += 1;
                        } else {
                            out.accepted_poor += 1;
                        }
                        out.latencies_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    Err(e) if is_overload_error(&e) => out.overloaded += 1,
                    _ => out.failed += 1,
                }
            }
            out
        }));
    }

    let mut arm = ArmResult::default();
    for h in handles {
        let w = h.join().expect("worker");
        arm.offered += w.offered;
        arm.accepted += w.accepted;
        arm.accepted_rich += w.accepted_rich;
        arm.accepted_poor += w.accepted_poor;
        arm.overloaded += w.overloaded;
        arm.failed += w.failed;
        arm.latencies_ms.extend(w.latencies_ms);
    }
    let elapsed = started.elapsed().as_secs_f64();
    arm.goodput_per_sec = arm.accepted as f64 / elapsed.max(1e-9);
    arm.latencies_ms.sort_by(|a, b| a.total_cmp(b));
    arm.p50_ms = percentile(&arm.latencies_ms, 0.50);
    arm.p99_ms = percentile(&arm.latencies_ms, 0.99);
    arm
}

/// Phase 3: choke the FS query bucket and hammer the directory.
fn fs_throttle_demo(fs: &faucets_net::fs::FsHandle, token: &SessionToken) -> u64 {
    let before = faucets_telemetry::global()
        .snapshot()
        .counter_sum("fs_query_throttled_total", &[]);
    fs.query_bucket.set_rate(1.0);
    fs.query_bucket.set_burst(2.0);
    let mut throttled = 0u64;
    for _ in 0..50 {
        let r = call_with(
            fs.service.addr,
            &Request::ListClusters {
                token: token.clone(),
            },
            &CallOptions {
                retry: RetryPolicy::none(),
                ..CallOptions::default()
            },
        );
        if matches!(&r, Err(e) if is_overload_error(e)) {
            throttled += 1;
        }
    }
    // Restore a generous bucket for anything that still needs the FS.
    fs.query_bucket.set_rate(1000.0);
    fs.query_bucket.set_burst(2000.0);
    let after = faucets_telemetry::global()
        .snapshot()
        .counter_sum("fs_query_throttled_total", &[]);
    assert!(throttled > 0, "a choked bucket must throttle the hammer");
    assert!(after > before, "fs_query_throttled_total moved");
    throttled
}

/// Phase 4: a killed service trips its breaker; further calls fast-fail.
fn breaker_demo() -> (u64, u64) {
    let victim = serve("127.0.0.1:0", "victim", |_req| Response::Ok).expect("victim");
    let addr = victim.addr;
    victim.kill();
    let breakers = Arc::new(BreakerSet::new(BreakerConfig {
        failures_to_open: 3,
        cooldown: Duration::from_secs(5),
    }));
    let opts = CallOptions {
        retry: RetryPolicy::none(),
        connect: Duration::from_millis(200),
        breakers: Some(Arc::clone(&breakers)),
        ..CallOptions::default()
    };
    let snap = || {
        let s = faucets_telemetry::global().snapshot();
        (
            s.counter_sum("net_breaker_fastfails_total", &[]),
            s.counter_sum("net_breaker_transitions_total", &[("to", "open")]),
        )
    };
    let (fastfails0, opened0) = snap();
    for _ in 0..10 {
        let _ = call_with(
            addr,
            &Request::ListClusters {
                token: SessionToken("x".into()),
            },
            &opts,
        );
    }
    let (fastfails, opened) = snap();
    assert!(opened > opened0, "breaker opened after repeated failures");
    assert!(
        fastfails > fastfails0,
        "calls after the trip fast-failed locally"
    );
    (fastfails - fastfails0, opened - opened0)
}

/// Phase 5: the chaos knob — `reject: 1.0` makes a healthy service shed
/// every request, deterministically and counted.
fn injected_rejection_demo() -> u64 {
    let plan = Arc::new(FaultPlan::new(
        0xE22,
        FaultConfig {
            drop: 0.0,
            truncate: 0.0,
            garble: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
            reject: 1.0,
        },
    ));
    let svc = serve_with(
        "127.0.0.1:0",
        "rejector",
        ServeOptions {
            faults: Some(Arc::clone(&plan)),
            ..ServeOptions::default()
        },
        |_req| Response::Ok,
    )
    .expect("rejector");
    let r = call_with(
        svc.addr,
        &Request::ListClusters {
            token: SessionToken("x".into()),
        },
        &CallOptions {
            retry: RetryPolicy::none(),
            ..CallOptions::default()
        },
    );
    assert!(
        matches!(&r, Err(e) if is_overload_error(e)),
        "reject=1.0 must shed every request (got {r:?})"
    );
    let rejected = plan.stats().rejected;
    assert!(rejected > 0, "injected rejections counted");
    svc.shutdown();
    rejected
}

fn main() {
    let arm_ms = flag("arm-ms", 2_000u64);
    let workers = flag("workers", 64usize);

    println!("E22 — overload protection: admission, deadlines, payoff-aware shedding\n");

    let clock = Clock::new(600.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 81).expect("FS");
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 32).expect("AS");
    let fd = spawn_daemon(
        1,
        "turing",
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        FdOptions {
            bid_gate: GateConfig {
                max_inflight: GATE_SLOTS,
                max_queue: 4,
            },
            bid_probe_floor: PROBE_FLOOR,
            ..FdOptions::default()
        },
    );

    call(
        fs.service.addr,
        &Request::CreateUser {
            user: "storm".into(),
            password: "pw".into(),
        },
    )
    .expect("create user");
    let (user, token) = match call(
        fs.service.addr,
        &Request::Login {
            user: "storm".into(),
            password: "pw".into(),
        },
    )
    .expect("login")
    {
        Response::Session { user, token } => (user, token),
        other => panic!("expected session, got {other:?}"),
    };

    // Phase 1+2: the load ladder.
    let multipliers = [0.5, 1.0, 2.0, 4.0];
    let mut arms = vec![];
    for m in multipliers {
        let rps = CAPACITY_PER_SEC * m;
        let arm = run_arm(fd.service.addr, &token, user, &clock, rps, arm_ms, workers);
        println!(
            "E22: {m:>3}x load ({rps:>5.0} rps) — offered {:>4}, accepted {:>3} \
             ({:.0}/s), overloaded {:>4}, failed {:>2}, p50 {:>5.1} ms, p99 {:>5.1} ms",
            arm.offered,
            arm.accepted,
            arm.goodput_per_sec,
            arm.overloaded,
            arm.failed,
            arm.p50_ms,
            arm.p99_ms
        );
        arms.push(arm);
    }
    let peak = arms
        .iter()
        .map(|a| a.goodput_per_sec)
        .fold(0.0_f64, f64::max);
    let overload_arm = arms.last().expect("4x arm");
    assert!(
        overload_arm.goodput_per_sec >= 0.8 * peak,
        "goodput collapsed under 4x load: {:.0}/s vs peak {:.0}/s",
        overload_arm.goodput_per_sec,
        peak
    );
    assert!(
        overload_arm.p99_ms <= 400.0,
        "accepted-work p99 unbounded under overload: {:.1} ms",
        overload_arm.p99_ms
    );
    assert!(
        overload_arm.overloaded > 0,
        "4x load must be shed, not absorbed"
    );
    assert!(
        overload_arm.accepted_rich >= overload_arm.accepted_poor,
        "payoff-aware shedding must favour rich contracts (rich {} < poor {})",
        overload_arm.accepted_rich,
        overload_arm.accepted_poor
    );
    println!(
        "E22: payoff-aware — at 4x the gate served {} rich vs {} poor solicitations",
        overload_arm.accepted_rich, overload_arm.accepted_poor
    );

    // The gate and serve layers instrumented themselves along the way.
    let snap = faucets_telemetry::global().snapshot();
    let bid_sheds = snap.counter_sum("fd_bid_sheds_total", &[]);
    let doomed = snap.counter_sum("fd_doomed_sheds_total", &[]);
    let admitted = snap.counter_sum("fd_bids_admitted_total", &[]);
    let queue_peak = snap.gauge_max("fd_bid_queue_peak", &[]);
    println!(
        "E22: gate telemetry — {admitted} admitted, {bid_sheds} shed, {doomed} doomed, \
         queue peak {queue_peak:.0} (handle: {})",
        fd.gate.peak_queue()
    );
    assert!(bid_sheds + doomed > 0, "shed counters populated");
    assert!(queue_peak >= 1.0, "queue-depth gauge populated");

    let throttled = fs_throttle_demo(&fs, &token);
    println!("E22: FS throttle — {throttled} directory queries throttled by the token bucket");

    let (fastfails, opened) = breaker_demo();
    println!("E22: breaker — opened {opened}x, {fastfails} calls fast-failed locally");

    let rejected = injected_rejection_demo();
    println!("E22: fault injection — reject=1.0 shed {rejected} requests deterministically");

    let report = serde_json::json!({
        "experiment": "E22",
        "capacity_per_sec": CAPACITY_PER_SEC,
        "call_deadline_ms": CALL_DEADLINE.as_millis() as u64,
        "arms": multipliers
            .iter()
            .zip(&arms)
            .map(|(m, a)| {
                serde_json::json!({
                    "multiplier": m,
                    "offered": a.offered,
                    "accepted": a.accepted,
                    "accepted_rich": a.accepted_rich,
                    "accepted_poor": a.accepted_poor,
                    "overloaded": a.overloaded,
                    "failed": a.failed,
                    "goodput_per_sec": a.goodput_per_sec,
                    "p50_ms": a.p50_ms,
                    "p99_ms": a.p99_ms,
                })
            })
            .collect::<Vec<_>>(),
        "gate": {
            "admitted": admitted,
            "shed": bid_sheds,
            "doomed": doomed,
            "queue_peak": queue_peak,
        },
        "fs_throttled": throttled,
        "breaker": { "opened": opened, "fastfails": fastfails },
        "injected_rejections": rejected,
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_overload.json",
        serde_json::to_vec_pretty(&report).unwrap(),
    )
    .expect("write BENCH_overload.json");

    fd.shutdown();
    println!("\nE22 PASS — wrote BENCH_overload.json");
}
