//! E28 — Pipelined RPC: one burst vs sequential round trips, same pool.
//!
//! E23 bought back the TCP connect; the round-trip wait is what's left.
//! [`call_batch`] on a pooled socket writes a whole burst of frames in one
//! vectored write and matches the replies by `request_id`, on the caller's
//! own thread. How *fast* that is is no longer this experiment's claim: the
//! repository benchmark's `rpc_pipelined` workload measures 64-deep
//! `call_batch` bursts on every PR (`throughput_ops_s`, compared with the
//! parent commit). What stays here is what a throughput number cannot show:
//!
//! 1. **Arms** — 1 and 8 concurrent clients each drive a closed loop of
//!    16-request batches against one echo service whose handler stalls
//!    `--stall-us` (default 300 µs, the shape of a directory lookup), on
//!    one [`ConnPool`] per arm: once as 16 sequential round trips, once as
//!    one pipelined `call_batch`. Every request carries its own number and
//!    the service answers with it, so a reply delivered to the wrong slot
//!    is seen, not assumed away.
//! 2. **Correctness gates** — zero transport errors and zero crossed
//!    replies in either arm at either level.
//! 3. **Soak** — 10,000 idle connections (1,000 under `--smoke`, always
//!    clamped to the process fd limit with the clamp logged) park on the
//!    reactor while pipelined batches keep flowing: zero transport
//!    errors, the open-connection gauge counts every parked socket and
//!    drains to exactly zero once they hang up and the soak's pool is
//!    dropped, and shutdown stays prompt.
//! 4. **Recorded, not gated** — each arm's rate and batch latency, the
//!    pipelined/sequential ratio and the pipelined arm's dial count.
//!
//! `--arm-ms`, `--stall-us`, `--soak-conns`, and `--smoke` resize the run.

use faucets_bench::{
    closed_loop, numbered_batch, numbered_echo, ArmResult, Bound, ExitCode, Report,
};
use faucets_net::prelude::*;
use faucets_telemetry::metrics::Registry;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per batch: one bid fan-out's worth of work on one socket.
const BATCH: u64 = 16;

/// Safety cap on batches per arm so short smoke arms and full arms alike
/// stay bounded no matter how fast the loopback is.
const MAX_BATCHES_PER_ARM: u64 = 4_000;

/// The soft fd ceiling of this process, so the soak can clamp itself
/// instead of dying on EMFILE; a conservative 1024 if `/proc` will not say.
fn fd_limit() -> u64 {
    let limits = std::fs::read_to_string("/proc/self/limits").unwrap_or_default();
    let soft = limits
        .lines()
        .find_map(|l| l.strip_prefix("Max open files"))
        .and_then(|rest| rest.split_whitespace().next()?.parse().ok());
    soft.unwrap_or(1024)
}

/// Drive `clients` closed-loop callers, each issuing 16-request batches
/// until the arm clock (or the batch cap) runs out. `pipelined` decides
/// whether a batch is one `call_batch` burst or 16 sequential `call_with`
/// round-trips; `opts` carries the pool.
fn run_arm(
    addr: SocketAddr,
    clients: usize,
    arm_ms: u64,
    opts: &CallOptions,
    pipelined: bool,
    crossed: &AtomicU64,
) -> ArmResult {
    closed_loop(clients, arm_ms, MAX_BATCHES_PER_ARM, None, || {
        move |ticket| numbered_batch(addr, ticket, BATCH, opts, pipelined, crossed)
    })
}

/// Call options for one arm: a pool of its own named `pool`, the arm's
/// registry, generous timeouts and no retry (a lost reply must show as an
/// error).
fn arm_opts(pool: &'static str, reg: &Arc<Registry>) -> CallOptions {
    CallOptions {
        pool: Some(Arc::new(ConnPool::new(pool, PoolConfig::default()))),
        registry: Some(Arc::clone(reg)),
        timeouts: Timeouts::both(Duration::from_secs(5)),
        retry: RetryPolicy::none(),
        ..CallOptions::default()
    }
}

fn open_conns(reg: &Registry) -> f64 {
    reg.snapshot()
        .gauge_sum("net_open_conns", &[("service", "pipe-echo")])
}

fn main() -> ExitCode {
    let mut report = Report::new("E28", "pipeline");
    let smoke = report.switch("smoke");
    let arm_ms = report.flag("arm-ms", if smoke { 500u64 } else { 1_500 });
    let stall_us = report.flag("stall-us", 300u64);
    let soak_want: u64 = report.flag("soak-conns", if smoke { 1_000u64 } else { 10_000 });
    report.knob("batch", BATCH);
    println!("E28 — pipelined RPC: one call_batch burst vs sequential calls on the same pool\n");

    let crossed = AtomicU64::new(0);
    let zero = Bound::eq(0);
    for clients in [1usize, 8] {
        // Fresh service + registry per arm so counters never bleed.
        let (h, reg) = numbered_echo("pipe-echo", stall_us);
        let opts = arm_opts("pipe-seq", &reg);
        let sequential = run_arm(h.addr, clients, arm_ms, &opts, false, &crossed);
        h.shutdown();

        let (h, reg) = numbered_echo("pipe-echo", stall_us);
        let opts = arm_opts("pipe-burst", &reg);
        let pipelined = run_arm(h.addr, clients, arm_ms, &opts, true, &crossed);
        h.shutdown();
        let dials = reg
            .snapshot()
            .counter_sum("net_pool_misses_total", &[("pool", "pipe-burst")]);

        let level = format!("c{clients}");
        report.metrics(&format!("{level}.sequential"), &sequential.fields());
        report.metrics(&format!("{level}.pipelined"), &pipelined.fields());
        report.metric(&format!("{level}.pipelined.dials"), dials, "count");
        let speedup = pipelined.per_sec / sequential.per_sec.max(1e-9);
        report.metric(
            &format!("{level}.pipelined_over_sequential"),
            speedup,
            "ratio",
        );
        report.gate(
            &format!("{level}.sequential.errors"),
            sequential.errors,
            zero,
        );
        report.gate(&format!("{level}.pipelined.errors"), pipelined.errors, zero);
    }

    // ── Soak: thousands of parked connections, work keeps flowing ──────
    // Each parked client costs two fds (client end + reactor end) plus
    // headroom for the pooled sockets, the listener, and the runtime.
    let limit = fd_limit();
    let soak_conns = soak_want.min(limit.saturating_sub(256) / 2);
    report.metric("soak.fd_limit", limit, "count");
    report.metric("soak.parked_conns", soak_conns, "count");
    let (h, reg) = numbered_echo("pipe-echo", 0);
    let parked: Vec<TcpStream> = (0..soak_conns)
        .map(|i| {
            TcpStream::connect(h.addr)
                .unwrap_or_else(|e| panic!("soak connect {i}/{soak_conns}: {e}"))
        })
        .collect();
    // Every parked socket registers with the reactor before the work runs.
    report.wait("the reactor to register every parked connection", || {
        open_conns(&reg) >= soak_conns as f64
    });

    let opts = arm_opts("pipe-soak", &reg);
    let soak = run_arm(h.addr, 4, arm_ms, &opts, true, &crossed);
    report.metrics("soak.pipelined", &soak.fields());
    report.gate("soak.pipelined.errors", soak.errors, zero);
    report.gate("soak.pipelined.calls", soak.calls, Bound::gt(0));
    report.gate("crossed_replies", crossed.load(Ordering::Relaxed), zero);

    // Hanging up drains the gauge to exactly zero: parked connections and
    // the soak's own pooled sockets (closed when its pool drops) were state,
    // and the reactor reaps every one of them.
    drop(parked);
    drop(opts);
    report.wait("the open-connection gauge to drain to zero", || {
        open_conns(&reg) == 0.0
    });
    let t = Instant::now();
    h.shutdown();
    let secs = t.elapsed().as_secs_f64();
    report.gate("soak.shutdown_secs", secs, Bound::lt(5));
    report.finish()
}
