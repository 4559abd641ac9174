//! E28 — Pipelined RPC: request multiplexing vs sequential pooled calls.
//!
//! E23 bought back the TCP connect; the round-trip wait is what's left.
//! A pooled caller still pays one full wire round-trip per request — the
//! warm socket sits idle while the server thinks. Request pipelining
//! ([`faucets_net::pool::MuxPool`] + [`call_batch`]) writes a whole burst
//! of frames in one vectored write and matches the replies by
//! `request_id`, so a batch costs roughly one round-trip plus the
//! *concurrent* service time instead of the *sum* of sequential ones.
//!
//! 1. **Ladder** — 1, 2, 4, and 8 concurrent clients each drive a closed
//!    loop of 16-request batches against one echo service whose handler
//!    stalls `--stall-us` (default 300 µs, the shape of a directory
//!    lookup): once as 16 sequential pooled round-trips (the E23 winner),
//!    once as one pipelined `call_batch` over a shared mux socket.
//! 2. **Acceptance** — at every ladder level the pipelined arm must
//!    sustain **≥ 2×** the sequential-pooled throughput (≥ 1.4× under
//!    `--smoke`, where short arms leave more noise), with zero transport
//!    errors in either arm.
//! 3. **Soak** — 10,000 idle connections (1,000 under `--smoke`, always
//!    clamped to the process fd limit with the clamp logged) park on the
//!    reactor while pipelined batches keep flowing: zero transport
//!    errors, and the open-connection gauge drains once they hang up.
//!
//! Writes `BENCH_pipeline.json` (uploaded as a CI artifact); prints
//! `E28 PASS` when every assertion holds. `--arm-ms`, `--stall-us`,
//! `--soak-conns`, and `--smoke` resize the run.

use faucets_bench::{flag, percentile, switch};
use faucets_net::prelude::*;
use faucets_telemetry::metrics::Registry;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per batch: one bid fan-out's worth of work on one socket.
const BATCH: usize = 16;

/// Safety cap on batches per arm so short smoke arms and full arms alike
/// stay bounded no matter how fast the loopback is.
const MAX_BATCHES_PER_ARM: u64 = 4_000;

#[derive(Default)]
struct ArmResult {
    batches: u64,
    calls: u64,
    errors: u64,
    per_sec: f64,
    batch_p50_ms: f64,
    batch_p99_ms: f64,
}

/// The soft fd ceiling for this process, read straight from the kernel so
/// the soak can clamp itself instead of dying on EMFILE. Falls back to a
/// conservative 1024 if the syscall refuses.
fn fd_limit() -> u64 {
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    const RLIMIT_NOFILE: i32 = 7;
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    }
    let mut r = RLimit { cur: 0, max: 0 };
    if unsafe { getrlimit(RLIMIT_NOFILE, &mut r) } == 0 {
        r.cur
    } else {
        1024
    }
}

/// Drive `clients` closed-loop callers, each issuing 16-request batches
/// until the arm clock (or the batch cap) runs out. `pipelined` decides
/// whether a batch is one `call_batch` burst or 16 sequential `call_with`
/// round-trips; `opts` carries the pool or mux.
fn run_arm(
    addr: SocketAddr,
    clients: usize,
    arm_ms: u64,
    opts: &CallOptions,
    pipelined: bool,
) -> ArmResult {
    let end = Instant::now() + Duration::from_millis(arm_ms);
    let tickets = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = vec![];
    for _ in 0..clients {
        let opts = opts.clone();
        let tickets = Arc::clone(&tickets);
        handles.push(std::thread::spawn(move || {
            let reqs: Vec<Request> = (0..BATCH)
                .map(|_| Request::VerifyToken {
                    token: faucets_core::auth::SessionToken("bench".into()),
                })
                .collect();
            let mut out = ArmResult::default();
            let mut lat = Vec::new();
            while Instant::now() < end
                && tickets.fetch_add(1, Ordering::Relaxed) < MAX_BATCHES_PER_ARM
            {
                let t0 = Instant::now();
                if pipelined {
                    for r in call_batch(addr, &reqs, &opts) {
                        match r {
                            Ok(Response::Ok) => out.calls += 1,
                            _ => out.errors += 1,
                        }
                    }
                } else {
                    for req in &reqs {
                        match call_with(addr, req, &opts) {
                            Ok(Response::Ok) => out.calls += 1,
                            _ => out.errors += 1,
                        }
                    }
                }
                out.batches += 1;
                lat.push(t0.elapsed().as_secs_f64() * 1e3);
            }
            (out, lat)
        }));
    }
    let mut arm = ArmResult::default();
    let mut lat = Vec::new();
    for h in handles {
        let (w, l) = h.join().expect("client");
        arm.batches += w.batches;
        arm.calls += w.calls;
        arm.errors += w.errors;
        lat.extend(l);
    }
    arm.per_sec = arm.calls as f64 / started.elapsed().as_secs_f64().max(1e-9);
    lat.sort_by(f64::total_cmp);
    arm.batch_p50_ms = percentile(&lat, 0.50);
    arm.batch_p99_ms = percentile(&lat, 0.99);
    arm
}

/// Spawn the echo service for one arm pair: every request stalls
/// `stall_us` (the simulated service time) and answers `Ok`.
fn spawn_echo(reg: &Arc<Registry>, stall_us: u64) -> ServiceHandle {
    serve_with(
        "127.0.0.1:0",
        "pipe-echo",
        ServeOptions {
            registry: Some(Arc::clone(reg)),
            ..ServeOptions::default()
        },
        move |_| {
            if stall_us > 0 {
                std::thread::sleep(Duration::from_micros(stall_us));
            }
            Response::Ok
        },
    )
    .expect("echo service")
}

fn main() {
    let smoke = switch("smoke");
    let arm_ms = flag("arm-ms", if smoke { 500u64 } else { 1_500 });
    let stall_us = flag("stall-us", 300u64);
    let soak_want: u64 = flag("soak-conns", if smoke { 1_000u64 } else { 10_000 });
    let speedup_floor = if smoke { 1.4 } else { 2.0 };

    println!(
        "E28 — pipelined RPC: call_batch over a mux socket vs sequential pooled calls{}\n",
        if smoke { " (smoke)" } else { "" }
    );

    // ── Ladder ──────────────────────────────────────────────────────────
    let ladder = [1usize, 2, 4, 8];
    let mut levels = vec![];
    for &clients in &ladder {
        // Fresh service + registry per arm so counters never bleed.
        let seq_reg = Arc::new(Registry::new());
        let h = spawn_echo(&seq_reg, stall_us);
        let pool = Arc::new(ConnPool::new(
            "pipe-seq",
            PoolConfig {
                max_idle_per_peer: clients.max(8),
                ..PoolConfig::default()
            },
        ));
        let sequential = run_arm(
            h.addr,
            clients,
            arm_ms,
            &CallOptions {
                pool: Some(pool),
                registry: Some(Arc::clone(&seq_reg)),
                timeouts: Timeouts::both(Duration::from_secs(5)),
                retry: RetryPolicy::none(),
                ..CallOptions::default()
            },
            false,
        );
        h.shutdown();

        let pipe_reg = Arc::new(Registry::new());
        let h = spawn_echo(&pipe_reg, stall_us);
        let mux = Arc::new(MuxPool::new("pipe-mux", MuxConfig::default()));
        let pipelined = run_arm(
            h.addr,
            clients,
            arm_ms,
            &CallOptions {
                mux: Some(Arc::clone(&mux)),
                registry: Some(Arc::clone(&pipe_reg)),
                timeouts: Timeouts::both(Duration::from_secs(5)),
                retry: RetryPolicy::none(),
                ..CallOptions::default()
            },
            true,
        );
        h.shutdown();

        let snap = pipe_reg.snapshot();
        let dials = snap.counter_sum("net_mux_dials_total", &[("pool", "pipe-mux")]);
        let speedup = pipelined.per_sec / sequential.per_sec.max(1e-9);
        println!(
            "E28: {clients} clients — sequential {:>7.0}/s (batch p50 {:>6.2} ms), \
             pipelined {:>7.0}/s (batch p50 {:>6.2} ms), speedup {speedup:>4.1}x, \
             {dials} mux dials",
            sequential.per_sec, sequential.batch_p50_ms, pipelined.per_sec, pipelined.batch_p50_ms
        );
        assert_eq!(sequential.errors, 0, "sequential arm saw transport errors");
        assert_eq!(pipelined.errors, 0, "pipelined arm saw transport errors");
        assert!(
            speedup >= speedup_floor,
            "pipelined throughput must be ≥ {speedup_floor}x sequential-pooled \
             at {clients} clients, got {speedup:.2}x"
        );
        let sequential_json = serde_json::json!({
            "calls": sequential.calls,
            "per_sec": sequential.per_sec,
            "batch_p50_ms": sequential.batch_p50_ms,
            "batch_p99_ms": sequential.batch_p99_ms,
            "errors": sequential.errors,
        });
        let pipelined_json = serde_json::json!({
            "calls": pipelined.calls,
            "per_sec": pipelined.per_sec,
            "batch_p50_ms": pipelined.batch_p50_ms,
            "batch_p99_ms": pipelined.batch_p99_ms,
            "errors": pipelined.errors,
            "mux_dials": dials,
            "open_conns": mux.open_connections(),
        });
        levels.push(serde_json::json!({
            "clients": clients,
            "sequential": sequential_json,
            "pipelined": pipelined_json,
            "speedup": speedup,
        }));
    }

    // ── Soak: thousands of parked connections, work keeps flowing ──────
    // Each parked client costs two fds (client end + reactor end) plus
    // headroom for the mux sockets, the listener, and the runtime.
    let limit = fd_limit();
    let budget = limit.saturating_sub(256) / 2;
    let soak_conns = soak_want.min(budget);
    if soak_conns < soak_want {
        println!(
            "E28: fd limit {limit} clamps the soak to {soak_conns} connections \
             (wanted {soak_want})"
        );
    }

    let soak_reg = Arc::new(Registry::new());
    let h = spawn_echo(&soak_reg, 0);
    let mut parked = Vec::with_capacity(soak_conns as usize);
    for i in 0..soak_conns {
        match TcpStream::connect(h.addr) {
            Ok(s) => parked.push(s),
            Err(e) => panic!("soak connect {i}/{soak_conns}: {e}"),
        }
    }
    // Every parked socket registers with the reactor before the work runs.
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = soak_reg
            .snapshot()
            .gauge_sum("net_open_conns", &[("service", "pipe-echo")]);
        if open >= soak_conns as f64 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "reactor registered only {open}/{soak_conns} parked connections"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    let soak = run_arm(
        h.addr,
        4,
        arm_ms,
        &CallOptions {
            mux: Some(Arc::new(MuxPool::new("pipe-soak", MuxConfig::default()))),
            registry: Some(Arc::clone(&soak_reg)),
            timeouts: Timeouts::both(Duration::from_secs(5)),
            retry: RetryPolicy::none(),
            ..CallOptions::default()
        },
        true,
    );
    println!(
        "E28: soak — {soak_conns} parked connections, pipelined {:>7.0}/s \
         (batch p99 {:>6.2} ms), {} errors",
        soak.per_sec, soak.batch_p99_ms, soak.errors
    );
    assert_eq!(
        soak.errors, 0,
        "pipelined traffic under {soak_conns} parked connections saw transport errors"
    );
    assert!(soak.calls > 0, "the soak arm made no calls");

    // Hanging up drains the gauge: parked connections were state, and the
    // reactor reaps every one of them.
    drop(parked);
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let open = soak_reg
            .snapshot()
            .gauge_sum("net_open_conns", &[("service", "pipe-echo")]);
        if open == 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "open-connection gauge never drained after the soak: {open}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    let t = Instant::now();
    h.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(5),
        "shutdown stayed prompt after the soak: {:?}",
        t.elapsed()
    );

    let soak_json = serde_json::json!({
        "wanted_conns": soak_want,
        "parked_conns": soak_conns,
        "fd_limit": limit,
        "calls": soak.calls,
        "per_sec": soak.per_sec,
        "batch_p99_ms": soak.batch_p99_ms,
        "errors": soak.errors,
    });
    let report = serde_json::json!({
        "experiment": "E28",
        "smoke": smoke,
        "arm_ms": arm_ms,
        "stall_us": stall_us,
        "batch": BATCH,
        "speedup_floor": speedup_floor,
        "levels": levels,
        "soak": soak_json,
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_pipeline.json",
        serde_json::to_vec_pretty(&report).unwrap(),
    )
    .expect("write BENCH_pipeline.json");

    println!("\nE28 PASS — wrote BENCH_pipeline.json");
}
