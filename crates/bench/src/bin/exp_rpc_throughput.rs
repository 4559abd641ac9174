//! E23 — RPC transports: pooled connections vs connection-per-call.
//!
//! The paper's production numbers ("millions of jobs per day", §5) put
//! the RPC layer on the hot path: every bid solicitation, heartbeat, and
//! token check is a round-trip, and the seed system paid a fresh TCP
//! connect for each one. The *speed* of that path is no longer this
//! experiment's claim: the repository benchmark's `rpc_pingpong` workload
//! measures it on every PR (`throughput_ops_s`, compared with the parent
//! commit at a few percent of spread). What stays here is what a
//! throughput number cannot show:
//!
//! 1. **Arms** — 8 and 16 concurrent clients drive a closed loop of echo
//!    RPCs against one service for `--arm-ms` (default 1000 ms), once with
//!    connection-per-call (the seed behaviour: no pool in the options, so
//!    the process's pool that keeps nothing) and once with a shared
//!    [`faucets_net::pool::ConnPool`].
//! 2. **Correctness gates** — zero transport errors in either arm at
//!    either level, no reply delivered to a caller other than its own
//!    (every request is numbered and echoed), and the pool counters
//!    (`net_pool_{hits,misses}_total`) visible through the service's own
//!    `Metrics` endpoint, exactly as an operator would scrape them (each
//!    arm runs caller and server on one shared registry): the pooled arm
//!    hits, the per-call arm never does — it really dials per call.
//! 3. **Recorded, not gated** — each arm's rate and latency and the
//!    pooled/per-call ratio.

use faucets_bench::{
    closed_loop, numbered_batch, numbered_echo, ArmResult, Bound, ExitCode, Report,
};
use faucets_net::prelude::*;
use faucets_telemetry::metrics::MetricsSnapshot;
use std::net::SocketAddr;
use std::sync::atomic::AtomicU64;
use std::sync::Arc;

/// Safety cap on calls per arm so short `--arm-ms` smoke runs and full
/// runs alike can never exhaust ephemeral ports on the per-call arms.
const MAX_CALLS_PER_ARM: u64 = 20_000;

/// Drive `clients` closed-loop callers at `addr` for `arm_ms`, one numbered
/// echo call at a time. `opts` decides pooled vs per-call.
fn run_arm(
    addr: SocketAddr,
    clients: usize,
    arm_ms: u64,
    opts: &CallOptions,
    crossed: &AtomicU64,
) -> ArmResult {
    closed_loop(clients, arm_ms, MAX_CALLS_PER_ARM, None, || {
        move |ticket| numbered_batch(addr, ticket, 1, opts, false, crossed)
    })
}

/// The operator's view: the service's counters through its wire endpoint.
fn scrape(addr: SocketAddr) -> MetricsSnapshot {
    let Response::Metrics(snap) = call(addr, &Request::Metrics).expect("metrics") else {
        panic!("expected metrics reply");
    };
    snap
}

fn main() -> ExitCode {
    let mut report = Report::new("E23", "rpc");
    let arm_ms = report.flag("arm-ms", 1_000u64);
    report.knob("max_calls_per_arm", MAX_CALLS_PER_ARM);
    println!("E23 — RPC transports: pooled connections vs connection-per-call\n");

    let crossed = AtomicU64::new(0);
    for clients in [8usize, 16] {
        // Fresh service + registry per arm so counters never bleed between
        // levels. Caller and server share the registry, so the pooled
        // arm's pool counters surface through the Metrics endpoint.
        let (h, reg) = numbered_echo("echo", 0);
        let opts = CallOptions {
            registry: Some(reg),
            ..CallOptions::default()
        };
        let percall = run_arm(h.addr, clients, arm_ms, &opts, &crossed);
        let percall_hits = scrape(h.addr).counter_sum("net_pool_hits_total", &[]);
        h.shutdown();

        let (h, reg) = numbered_echo("echo", 0);
        let pool = PoolConfig {
            conns_per_peer: clients.max(8),
            ..PoolConfig::default()
        };
        let opts = CallOptions {
            pool: Some(Arc::new(ConnPool::new("bench", pool))),
            registry: Some(reg),
            ..CallOptions::default()
        };
        let pooled = run_arm(h.addr, clients, arm_ms, &opts, &crossed);
        let snap = scrape(h.addr);
        h.shutdown();
        let hits = snap.counter_sum("net_pool_hits_total", &[("pool", "bench")]);
        let misses = snap.counter_sum("net_pool_misses_total", &[("pool", "bench")]);

        let level = format!("c{clients}");
        report.metrics(&format!("{level}.percall"), &percall.fields());
        report.metrics(&format!("{level}.pooled"), &pooled.fields());
        report.metric(&format!("{level}.pool_misses"), misses, "count");
        let speedup = pooled.per_sec / percall.per_sec.max(1e-9);
        report.metric(&format!("{level}.pooled_over_percall"), speedup, "ratio");
        let zero = Bound::eq(0);
        report.gate(&format!("{level}.percall.errors"), percall.errors, zero);
        report.gate(&format!("{level}.pooled.errors"), pooled.errors, zero);
        // Through the service's own Metrics endpoint, as an operator scrapes.
        report.gate(&format!("{level}.pool_hits_scraped"), hits, Bound::gt(0));
        let percall_hits_at = format!("{level}.percall.pool_hits_scraped");
        report.gate(&percall_hits_at, percall_hits, zero);
    }
    let crossed = crossed.into_inner();
    report.gate("crossed_replies", crossed, Bound::eq(0));
    report.finish()
}
