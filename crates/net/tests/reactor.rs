//! Reactor serve-path integration: hostile clients under chaos, idle
//! connections held as parked state (not threads), multiplexed callers
//! surviving a poisoned shared socket, and the shutdown-latency
//! regression tests for the fixed-tick sleep sweep (FD pump, sentinel
//! probe loop, federation gossip loop).
//!
//! Deflake convention: every wait synchronizes on a telemetry readout or
//! a handle readout under a bounded deadline — never a bare sleep sized
//! by hope.

use faucets_core::daemon::FaucetsDaemon;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use faucets_net::prelude::*;
use faucets_sched::adaptive::ResizeCostModel;
use faucets_sched::cluster::Cluster;
use faucets_sched::equipartition::Equipartition;
use faucets_sched::machine::MachineSpec;
use faucets_telemetry::metrics::Registry;
use std::io::Write;
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn gauge(reg: &Registry, name: &str, service: &'static str) -> f64 {
    reg.snapshot().gauge_sum(name, &[("service", service)])
}

fn await_gauge(reg: &Registry, name: &str, service: &'static str, want: f64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let v = gauge(reg, name, service);
        if v == want {
            return;
        }
        assert!(
            Instant::now() < deadline,
            "gauge {name} stuck at {v}, want {want}"
        );
        std::thread::sleep(Duration::from_millis(3));
    }
}

/// Hostile clients throw protocol garbage at the reactor — oversized
/// length prefixes, truncated frames, raw binary noise — while clean
/// clients keep calling. Every hostile connection must be closed (not
/// crash the reactor, not wedge a worker), every clean call must succeed,
/// and shutdown must stay prompt.
#[test]
fn hostile_frames_never_wedge_the_reactor() {
    let reg = Arc::new(Registry::new());
    let h = serve_with(
        "127.0.0.1:0",
        "hostile",
        ServeOptions {
            registry: Some(Arc::clone(&reg)),
            workers: 2,
            ..ServeOptions::default()
        },
        |_| Response::Ok,
    )
    .unwrap();
    let addr = h.addr;

    std::thread::scope(|s| {
        for kind in 0..3usize {
            s.spawn(move || {
                for _ in 0..20 {
                    let mut sock = TcpStream::connect(addr).unwrap();
                    let garbage: &[u8] = match kind {
                        // Length prefix far over MAX_FRAME.
                        0 => &[0xFF, 0xFF, 0xFF, 0xFF, 1, 2, 3],
                        // Valid length, payload that is not JSON.
                        1 => &[0, 0, 0, 4, 0xDE, 0xAD, 0xBE, 0xEF],
                        // Truncated: promises 64 bytes, sends 3, hangs up.
                        _ => &[0, 0, 0, 64, 1, 2, 3],
                    };
                    let _ = sock.write_all(garbage);
                    drop(sock);
                }
            });
        }
        for _ in 0..3usize {
            s.spawn(move || {
                let req = Request::VerifyToken {
                    token: faucets_core::auth::SessionToken("t".into()),
                };
                for i in 0..30 {
                    let r = call(addr, &req).unwrap_or_else(|e| panic!("clean call {i}: {e}"));
                    assert!(matches!(r, Response::Ok), "clean call {i} got {r:?}");
                }
            });
        }
    });

    // Every hostile connection was reaped: the gauge drains to zero.
    await_gauge(&reg, "net_open_conns", "hostile", 0.0);
    let t = Instant::now();
    h.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown stayed prompt after chaos: {:?}",
        t.elapsed()
    );
}

/// Hundreds of idle connections are parked reactor state, not threads:
/// they all register (gauge counts them), a live call still answers
/// promptly while they sit there, and closing them drains the gauge.
#[test]
fn idle_connections_are_parked_state_not_threads() {
    const IDLE: usize = 300;
    let reg = Arc::new(Registry::new());
    let h = serve_with(
        "127.0.0.1:0",
        "idle",
        ServeOptions {
            registry: Some(Arc::clone(&reg)),
            // Two workers serve fine no matter how many sockets exist —
            // connections no longer occupy executor threads.
            workers: 2,
            ..ServeOptions::default()
        },
        |_| Response::Ok,
    )
    .unwrap();

    let mut idle = Vec::with_capacity(IDLE);
    for _ in 0..IDLE {
        idle.push(TcpStream::connect(h.addr).unwrap());
    }
    await_gauge(&reg, "net_open_conns", "idle", IDLE as f64);

    // The reactor still answers new work promptly with all those parked.
    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    let t = Instant::now();
    assert!(matches!(call(h.addr, &req).unwrap(), Response::Ok));
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "call under {IDLE} idle conns answered promptly: {:?}",
        t.elapsed()
    );

    drop(idle);
    await_gauge(&reg, "net_open_conns", "idle", 0.0);
    let t = Instant::now();
    h.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown stayed prompt: {:?}",
        t.elapsed()
    );
}

/// Chaos on the multiplexed client path: garbled reply frames kill the
/// shared socket (a desynchronised mux stream must fail everyone with a
/// typed disconnect, never pay caller A caller B's reply), the retry loop
/// redials, and most calls recover — the mux twin of the pooled
/// poison-and-recover suite.
#[test]
fn garbled_replies_poison_the_mux_socket_and_calls_recover() {
    let h = serve_with("127.0.0.1:0", "mux-chaos", ServeOptions::default(), |_| {
        Response::Ok
    })
    .unwrap();

    let mux = Arc::new(MuxPool::new("mux-chaos", MuxConfig { conns_per_peer: 1 }));
    let reg = Arc::new(Registry::new());
    let plan = Arc::new(FaultPlan::new(
        0xBADCAB,
        FaultConfig {
            garble: 0.25,
            ..FaultConfig::none()
        },
    ));
    let opts = CallOptions {
        mux: Some(Arc::clone(&mux)),
        registry: Some(Arc::clone(&reg)),
        faults: Some(plan),
        timeouts: Timeouts::both(Duration::from_millis(500)),
        retry: RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            jitter: 0.5,
            seed: 13,
        },
        ..CallOptions::default()
    };

    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    let mut ok = 0;
    for _ in 0..40 {
        // A garbled frame can only ever produce a typed failure —
        // Response::Ok is the sole legitimate success payload here, so
        // anything else would be a crossed wire.
        if let Ok(r) = call_with(h.addr, &req, &opts) {
            assert!(matches!(r, Response::Ok), "crossed wire: {r:?}");
            ok += 1;
        }
    }

    let snap = reg.snapshot();
    let failures = snap.counter_sum("net_mux_conn_failures_total", &[("pool", "mux-chaos")]);
    let dials = snap.counter_sum("net_mux_dials_total", &[("pool", "mux-chaos")]);
    assert!(ok >= 20, "retries recover most calls under faults: {ok}/40");
    assert!(
        failures >= 1,
        "at least one garbled reply killed the socket"
    );
    assert!(
        dials >= failures,
        "every killed socket was replaced by a fresh dial \
         (dials {dials} < failures {failures})"
    );
    assert!(
        mux.open_connections() <= 1,
        "dead mux connections were dropped, not leaked: {} open",
        mux.open_connections()
    );
    h.shutdown();
}

/// A frame parked because the executor queue was full — on a connection
/// with nothing else in flight — is dispatched when the queue drains.
/// Regression: the reactor only re-serviced a connection for its own fd
/// events or completions, so such a frame starved until the client's
/// read timeout while other connections' traffic drained the queue past
/// it.
#[test]
fn queue_full_parked_frames_are_not_starved() {
    let h = serve_with(
        "127.0.0.1:0",
        "starve",
        ServeOptions {
            // One worker and a one-slot queue: three concurrent hogs keep
            // the executor saturated, so the victim's frame must park.
            workers: 1,
            queue: 1,
            ..ServeOptions::default()
        },
        |req| {
            if matches!(&req, Request::Login { user, .. } if user == "hog") {
                std::thread::sleep(Duration::from_millis(150));
            }
            Response::Ok
        },
    )
    .unwrap();
    let addr = h.addr;

    let hogs: Vec<_> = (0..3)
        .map(|_| {
            std::thread::spawn(move || {
                let req = Request::Login {
                    user: "hog".into(),
                    password: String::new(),
                };
                for _ in 0..3 {
                    // Fresh connection per call: each hog's later calls
                    // enqueue behind the victim, never ahead of it.
                    call(addr, &req).unwrap();
                }
            })
        })
        .collect();
    // Land mid-burst: the worker is busy and the queue slot is taken, so
    // this frame parks on a connection with zero in-flight jobs. Only the
    // queue-drain re-service can ever dispatch it.
    std::thread::sleep(Duration::from_millis(50));
    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    let t = Instant::now();
    let r = call(addr, &req).unwrap();
    assert!(matches!(r, Response::Ok));
    assert!(
        t.elapsed() < Duration::from_secs(8),
        "parked frame starved: {:?}",
        t.elapsed()
    );
    for hog in hogs {
        hog.join().unwrap();
    }
    h.shutdown();
}

/// A pipelining client whose replies transiently exceed the per-connection
/// write buffer is paused — dispatch and reads stop until the backlog
/// drains — never killed: a batch caller reading at full speed must not be
/// cut off as a "slow consumer" mid-burst.
#[test]
fn reply_bursts_over_the_write_buffer_pause_not_kill() {
    let big = "x".repeat(64 * 1024);
    let h = serve_with(
        "127.0.0.1:0",
        "burst",
        ServeOptions {
            // Far below a single reply: the write queue saturates on the
            // first completion and stays saturated for the whole burst.
            write_buf: 32 * 1024,
            ..ServeOptions::default()
        },
        move |_| Response::Error(big.clone()),
    )
    .unwrap();

    let mux = Arc::new(MuxPool::new("burst", MuxConfig { conns_per_peer: 1 }));
    let opts = CallOptions {
        mux: Some(mux),
        timeouts: Timeouts::both(Duration::from_secs(10)),
        retry: RetryPolicy::none(),
        ..CallOptions::default()
    };
    let reqs: Vec<Request> = (0..32)
        .map(|i| Request::Login {
            user: format!("u{i}"),
            password: String::new(),
        })
        .collect();
    for (i, r) in call_batch(h.addr, &reqs, &opts).into_iter().enumerate() {
        match r.unwrap_or_else(|e| panic!("slot {i} cut off as a slow consumer: {e}")) {
            Response::Error(s) => assert_eq!(s.len(), 64 * 1024, "slot {i} truncated"),
            other => panic!("slot {i}: unexpected {other:?}"),
        }
    }
    h.shutdown();
}

/// A legacy peer that pipelines frames *without* request ids is owed
/// replies in request order (the pre-multiplexing wire contract): the
/// reactor dispatches its frames one at a time instead of letting the
/// executor pool answer in completion order.
#[test]
fn idless_pipelined_frames_answer_in_request_order() {
    let h = serve_with("127.0.0.1:0", "legacy", ServeOptions::default(), |req| {
        let Request::Login { user, .. } = req else {
            return Response::Error("unexpected".into());
        };
        let n: u64 = user.trim_start_matches('u').parse().unwrap_or(0);
        // Later requests finish *faster*: concurrent dispatch would
        // invert the reply order.
        std::thread::sleep(Duration::from_millis(80u64.saturating_sub(n * 20)));
        Response::Error(user)
    })
    .unwrap();

    let mut sock = TcpStream::connect(h.addr).unwrap();
    for i in 0..4 {
        let env = Envelope {
            ctx: None,
            deadline_ms: None,
            request_id: None,
            msg: Request::Login {
                user: format!("u{i}"),
                password: String::new(),
            },
        };
        write_frame(&mut sock, &env).unwrap();
    }
    for i in 0..4 {
        let env: Envelope<Response> = read_frame(&mut sock).unwrap().expect("reply");
        match env.msg {
            Response::Error(tag) => assert_eq!(
                tag,
                format!("u{i}"),
                "id-less pipelined replies must keep request order"
            ),
            other => panic!("slot {i}: unexpected {other:?}"),
        }
    }
    h.shutdown();
}

/// The FD pump is paced by its next due event on a condvar; `shutdown()`
/// must wake it immediately, not wait out a tick or a heartbeat.
#[test]
fn fd_pump_shutdown_is_prompt() {
    let clock = Clock::new(100.0);
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 17).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 8).unwrap();
    let machine = MachineSpec::commodity(ClusterId(3), "prompt", 16);
    let daemon = FaucetsDaemon::new(
        machine.server_info("127.0.0.1", 0),
        ["namd".to_string()],
        Box::new(faucets_core::market::Baseline),
        Money::from_units_f64(0.01),
    );
    let cluster = Cluster::new(machine, Box::new(Equipartition), ResizeCostModel::default());
    let fd = spawn_fd(
        "127.0.0.1:0",
        daemon,
        cluster,
        fs.service.addr,
        aspect.service.addr,
        clock,
    )
    .unwrap();

    let t = Instant::now();
    fd.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "pump woke from its paced wait immediately: {:?}",
        t.elapsed()
    );
    aspect.service.shutdown();
    fs.shutdown();
}

/// The sentinel probe loop waits on a stop-aware signal: shutting it down
/// mid-interval must not sleep out the rest of the probe interval.
#[test]
fn sentinel_shutdown_is_prompt_mid_interval() {
    let h = serve("127.0.0.1:0", "fake-primary", |_| {
        Response::Error("no lease here".into())
    })
    .unwrap();
    let sentinel = spawn_sentinel(
        h.addr,
        vec![],
        SentinelOptions {
            service: "prompt-svc".into(),
            // Long enough that a shutdown that *waits for the tick*
            // visibly fails the assertion below.
            probe_every: Duration::from_secs(30),
            ..SentinelOptions::default()
        },
        |_, _| panic!("must never promote"),
    )
    .unwrap();
    // Give the thread a moment to enter its inter-probe wait.
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    sentinel.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "sentinel woke mid-interval: {:?}",
        t.elapsed()
    );
    h.shutdown();
}

/// The federation gossip loop waits on the same stop-aware signal:
/// stopping a shard mid-interval costs a join, not a gossip round.
#[test]
fn federation_stop_is_prompt_mid_interval() {
    let fed = Arc::new(Federation::new(FederationOptions {
        gossip_interval: Duration::from_secs(30),
        ..FederationOptions::new("prompt-shard")
    }));
    fed.activate("127.0.0.1:9".parse().unwrap());
    // Give the gossiper a moment to enter its inter-round wait.
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    fed.stop();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "gossip loop woke mid-interval: {:?}",
        t.elapsed()
    );
}
