//! E23 — RPC throughput: pooled connections vs connection-per-call.
//!
//! The paper's production numbers ("millions of jobs per day", §5) put
//! the RPC layer on the hot path: every bid solicitation, heartbeat, and
//! token check is a round-trip, and the seed system paid a fresh TCP
//! connect for each one. This experiment measures what the connection
//! pool ([`faucets_net::pool::ConnPool`]) buys:
//!
//! 1. **Ladder** — 1, 2, 4, 8, and 16 concurrent clients drive a closed
//!    loop of echo RPCs against one service for `--arm-ms` (default
//!    1000 ms), once with connection-per-call (the seed behaviour) and
//!    once with a shared pool.
//! 2. **Acceptance** — at 8 and 16 clients the pooled arm must sustain
//!    **≥ 2×** the per-call throughput, with zero transport errors in
//!    either arm.
//! 3. **Observability** — the pooled arm runs caller and server on one
//!    shared registry, and the pool counters
//!    (`net_pool_{hits,misses}_total`) must be visible through the
//!    service's own `Metrics` endpoint, exactly as an operator would
//!    scrape them.
//!
//! Writes `BENCH_rpc.json` (uploaded as a CI artifact); prints `E23 PASS`
//! when every assertion holds. `--arm-ms` resizes the run.

use faucets_bench::{flag, percentile};
use faucets_net::prelude::*;
use faucets_telemetry::metrics::Registry;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Safety cap on calls per arm so short `--arm-ms` smoke runs and full
/// runs alike can never exhaust ephemeral ports on the per-call arms.
const MAX_CALLS_PER_ARM: u64 = 20_000;

#[derive(Default)]
struct ArmResult {
    calls: u64,
    errors: u64,
    elapsed_s: f64,
    per_sec: f64,
    p50_ms: f64,
    p99_ms: f64,
}

/// Drive `clients` closed-loop callers at `addr` for `arm_ms`, each call
/// a `VerifyToken` echo answered `Ok`. `opts` decides pooled vs per-call.
fn run_arm(addr: SocketAddr, clients: usize, arm_ms: u64, opts: &CallOptions) -> ArmResult {
    let end = Instant::now() + Duration::from_millis(arm_ms);
    let tickets = Arc::new(AtomicU64::new(0));
    let started = Instant::now();
    let mut handles = vec![];
    for _ in 0..clients {
        let opts = opts.clone();
        let tickets = Arc::clone(&tickets);
        handles.push(std::thread::spawn(move || {
            let req = Request::VerifyToken {
                token: faucets_core::auth::SessionToken("bench".into()),
            };
            let mut out = ArmResult::default();
            let mut lat = Vec::new();
            while Instant::now() < end
                && tickets.fetch_add(1, Ordering::Relaxed) < MAX_CALLS_PER_ARM
            {
                let t0 = Instant::now();
                match call_with(addr, &req, &opts) {
                    Ok(Response::Ok) => {
                        out.calls += 1;
                        lat.push(t0.elapsed().as_secs_f64() * 1e3);
                    }
                    _ => out.errors += 1,
                }
            }
            (out, lat)
        }));
    }
    let mut arm = ArmResult::default();
    let mut lat = Vec::new();
    for h in handles {
        let (w, l) = h.join().expect("client");
        arm.calls += w.calls;
        arm.errors += w.errors;
        lat.extend(l);
    }
    arm.elapsed_s = started.elapsed().as_secs_f64();
    arm.per_sec = arm.calls as f64 / arm.elapsed_s.max(1e-9);
    lat.sort_by(f64::total_cmp);
    arm.p50_ms = percentile(&lat, 0.50);
    arm.p99_ms = percentile(&lat, 0.99);
    arm
}

fn main() {
    let arm_ms = flag("arm-ms", 1_000u64);

    println!("E23 — RPC throughput: pooled connections vs connection-per-call\n");

    let ladder = [1usize, 2, 4, 8, 16];
    let mut levels = vec![];
    let mut speedup_at = vec![];
    for &clients in &ladder {
        // Fresh service + registries per arm pair so counters never bleed
        // between levels. The pooled arm shares one registry between
        // caller and server, so the pool counters surface through the
        // service's Metrics endpoint (asserted below).
        let percall_reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "echo",
            ServeOptions {
                registry: Some(Arc::clone(&percall_reg)),
                ..ServeOptions::default()
            },
            |_| Response::Ok,
        )
        .expect("echo service");
        let percall = run_arm(
            h.addr,
            clients,
            arm_ms,
            &CallOptions {
                registry: Some(Arc::clone(&percall_reg)),
                ..CallOptions::default()
            },
        );
        h.shutdown();

        let shared_reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "echo",
            ServeOptions {
                registry: Some(Arc::clone(&shared_reg)),
                ..ServeOptions::default()
            },
            |_| Response::Ok,
        )
        .expect("echo service");
        let pool = Arc::new(ConnPool::new(
            "bench",
            PoolConfig {
                max_idle_per_peer: clients.max(8),
                ..PoolConfig::default()
            },
        ));
        let pooled = run_arm(
            h.addr,
            clients,
            arm_ms,
            &CallOptions {
                pool: Some(Arc::clone(&pool)),
                registry: Some(Arc::clone(&shared_reg)),
                ..CallOptions::default()
            },
        );
        // The operator's view: pool counters through the wire endpoint.
        let Response::Metrics(snap) = call(h.addr, &Request::Metrics).expect("metrics") else {
            panic!("expected metrics reply");
        };
        h.shutdown();
        let hits = snap.counter_sum("net_pool_hits_total", &[("pool", "bench")]);
        let misses = snap.counter_sum("net_pool_misses_total", &[("pool", "bench")]);
        assert!(
            hits > 0,
            "pool counters must be visible through the Metrics endpoint"
        );
        let hit_rate = hits as f64 / (hits + misses).max(1) as f64;

        let speedup = pooled.per_sec / percall.per_sec.max(1e-9);
        println!(
            "E23: {clients:>2} clients — per-call {:>7.0}/s (p50 {:>5.2} ms), \
             pooled {:>7.0}/s (p50 {:>5.2} ms), speedup {speedup:>4.1}x, \
             hit rate {hit_rate:.3}",
            percall.per_sec, percall.p50_ms, pooled.per_sec, pooled.p50_ms
        );
        assert_eq!(percall.errors, 0, "per-call arm saw transport errors");
        assert_eq!(pooled.errors, 0, "pooled arm saw transport errors");
        if clients >= 8 {
            speedup_at.push((clients, speedup));
        }
        levels.push(serde_json::json!({
            "clients": clients,
            "percall": {
                "calls": percall.calls,
                "per_sec": percall.per_sec,
                "p50_ms": percall.p50_ms,
                "p99_ms": percall.p99_ms,
                "errors": percall.errors,
            },
            "pooled": {
                "calls": pooled.calls,
                "per_sec": pooled.per_sec,
                "p50_ms": pooled.p50_ms,
                "p99_ms": pooled.p99_ms,
                "errors": pooled.errors,
                "hits": hits,
                "misses": misses,
                "hit_rate": hit_rate,
                "open_conns": pool.open_connections(),
            },
            "speedup": speedup,
        }));
    }

    for &(clients, speedup) in &speedup_at {
        assert!(
            speedup >= 2.0,
            "pooled throughput must be ≥ 2x per-call at {clients} clients, got {speedup:.2}x"
        );
    }

    let report = serde_json::json!({
        "experiment": "E23",
        "arm_ms": arm_ms,
        "max_calls_per_arm": MAX_CALLS_PER_ARM,
        "levels": levels,
        "verdict": "PASS",
    });
    std::fs::write(
        "BENCH_rpc.json",
        serde_json::to_vec_pretty(&report).unwrap(),
    )
    .expect("write BENCH_rpc.json");

    println!("\nE23 PASS — wrote BENCH_rpc.json");
}
