//! Reactor serve-path integration: hostile clients under chaos, idle
//! connections held as parked state (not threads), pipelined bursts
//! surviving garbled replies and outgrowing the socket buffers, the edges
//! where a reply leaves from the executor instead of the reactor, and the
//! shutdown-latency regression tests for the periodic loops (the FD pump
//! and federation gossip, ticks on their service's reactor; the sentinel
//! probe loop, a thread).
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
use faucets_sim::check::for_seeds;
use faucets_telemetry::metrics::Registry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write;
use std::net::{SocketAddr, TcpStream};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

fn gauge(reg: &Registry, name: &str, service: &'static str) -> f64 {
    reg.snapshot().gauge_sum(name, &[("service", service)])
}

fn await_gauge(reg: &Registry, name: &str, service: &'static str, want: f64) {
    await_gauge_within(reg, name, service, want, Duration::from_secs(10));
}

fn await_gauge_within(
    reg: &Registry,
    name: &str,
    service: &'static str,
    want: f64,
    within: Duration,
) {
    let deadline = Instant::now() + within;
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

/// Chaos on the pipelined client path: a garbled reply fails every slot
/// of its burst that is still unanswered with a typed error and poisons
/// the pooled socket (a desynchronised stream must never pay request A
/// request B's reply), the next burst dials fresh, and clean stretches
/// reuse the warm socket — the burst twin of the pooled poison-and-recover
/// suite.
#[test]
fn garbled_replies_poison_the_pooled_socket_and_bursts_recover() {
    let h = serve_with(
        "127.0.0.1:0",
        "burst-chaos",
        ServeOptions::default(),
        |_| Response::Ok,
    )
    .unwrap();

    let pool = Arc::new(ConnPool::new("burst-chaos", PoolConfig::default()));
    let reg = Arc::new(Registry::new());
    let plan = Arc::new(FaultPlan::new(
        0xBADCAB,
        FaultConfig {
            garble: 0.05,
            ..FaultConfig::none()
        },
    ));
    let opts = CallOptions {
        pool: Some(Arc::clone(&pool)),
        registry: Some(Arc::clone(&reg)),
        faults: Some(plan),
        timeouts: Timeouts::both(Duration::from_millis(500)),
        ..CallOptions::default()
    };

    let reqs = vec![
        Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        4
    ];
    let mut clean = 0;
    for _ in 0..40 {
        let replies = call_batch(h.addr, &reqs, &opts);
        // A garbled frame can only ever produce a typed failure —
        // Response::Ok is the sole legitimate success payload here, so
        // anything else would be a crossed wire.
        for r in replies.iter().flatten() {
            assert!(matches!(r, Response::Ok), "crossed wire: {r:?}");
        }
        clean += replies.iter().all(|r| r.is_ok()) as u32;
    }

    let snap = reg.snapshot();
    let count = |name: &str| snap.counter_sum(name, &[("pool", "burst-chaos")]);
    let (poisoned, misses) = (
        count("net_pool_poisoned_total"),
        count("net_pool_misses_total"),
    );
    assert!(clean >= 10, "most bursts ride out the faults: {clean}/40");
    assert!(
        poisoned >= 1,
        "at least one garbled frame poisoned a socket"
    );
    assert!(
        misses >= poisoned,
        "every poisoned socket was replaced by a fresh dial \
         (misses {misses} < poisoned {poisoned})"
    );
    assert!(
        count("net_pool_hits_total") >= 1,
        "clean stretches reused the warm socket"
    );
    assert!(
        pool.open_connections() <= 1,
        "poisoned sockets were closed, not leaked: {} open",
        pool.open_connections()
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

/// One 32-request burst of `request_bytes` each against a service that
/// answers every request with `reply_bytes` through a 32 KiB reply buffer —
/// far below a single reply, so its write queue saturates on the first
/// completion and stays saturated for the whole burst.
fn burst_through_a_small_write_buffer(request_bytes: usize, reply_bytes: usize) {
    let big = "x".repeat(reply_bytes);
    let h = serve_with(
        "127.0.0.1:0",
        "burst",
        ServeOptions {
            write_buf: 32 * 1024,
            ..ServeOptions::default()
        },
        move |_| Response::Error(big.clone()),
    )
    .unwrap();

    let opts = CallOptions {
        pool: Some(Arc::new(ConnPool::new("burst", PoolConfig::default()))),
        timeouts: Timeouts::both(Duration::from_secs(10)),
        ..CallOptions::default()
    };
    let reqs: Vec<Request> = (0..32)
        .map(|i| Request::Login {
            user: format!("u{i}"),
            password: "p".repeat(request_bytes),
        })
        .collect();
    for (i, r) in call_batch(h.addr, &reqs, &opts).into_iter().enumerate() {
        match r.unwrap_or_else(|e| panic!("slot {i} cut off mid-burst: {e}")) {
            Response::Error(s) => assert_eq!(s.len(), reply_bytes, "slot {i} truncated"),
            other => panic!("slot {i}: unexpected {other:?}"),
        }
    }
    h.shutdown();
}

/// A pipelining client whose replies transiently exceed the per-connection
/// write buffer is paused — dispatch and reads stop until the backlog
/// drains — never killed: a batch caller reading at full speed must not be
/// cut off as a "slow consumer" mid-burst.
#[test]
fn reply_bursts_over_the_write_buffer_pause_not_kill() {
    burst_through_a_small_write_buffer(0, 64 * 1024);
}

/// 32 MiB of requests against 32 MiB of replies through the paused
/// server: megabyte frames leave the client in short writes that resume
/// mid-frame while replies are already coming back. (Whether a client that
/// only wrote would wedge here depends on how much the kernel buffers —
/// `tests/pool.rs` pins that with a peer whose buffers are small.)
#[test]
fn bursts_over_the_socket_buffers_in_both_directions_complete() {
    burst_through_a_small_write_buffer(1 << 20, 1 << 20);
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

/// A lone request's reply leaves from the executor that made it: 200
/// round trips on one pooled socket never wake the reactor (the reply
/// used to go back through the completion list and an eventfd kick).
#[test]
fn lone_requests_answer_without_waking_the_reactor() {
    let reg = Arc::new(Registry::new());
    let h = serve_with(
        "127.0.0.1:0",
        "direct",
        ServeOptions {
            registry: Some(Arc::clone(&reg)),
            ..ServeOptions::default()
        },
        |_| Response::Ok,
    )
    .unwrap();
    let client = Arc::new(Registry::new());
    let opts = CallOptions {
        pool: Some(Arc::new(ConnPool::new("direct", PoolConfig::default()))),
        registry: Some(Arc::clone(&client)),
        ..CallOptions::default()
    };
    let wakeups = || {
        let snap = reg.snapshot();
        snap.counter_sum("net_reactor_wakeups_total", &[("service", "direct")])
    };
    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    let before = wakeups();
    for i in 0..200 {
        assert_eq!(
            call_with(h.addr, &req, &opts).unwrap(),
            Response::Ok,
            "call {i}"
        );
    }
    assert_eq!(wakeups() - before, 0, "a lone reply woke the reactor");
    let dials = client
        .snapshot()
        .counter_sum("net_pool_misses_total", &[("pool", "direct")]);
    assert_eq!(dials, 1, "every call rode the one pooled socket");
    h.shutdown();
}

/// Peers that hang up while their lone request is still in the handler are
/// reaped once the reply is written, with no further traffic: the reactor
/// waits on that completion, so the executor that files it must wake it.
/// The handler is held until the reactor has read the hang-up. One peer
/// closes outright; the other only shuts its sending side, and still gets
/// its reply.
#[test]
fn a_peer_that_hangs_up_mid_request_is_reaped_without_more_traffic() {
    let reg = Arc::new(Registry::new());
    let (started, handler_started) = mpsc::channel();
    let (release, handler_released) = mpsc::channel::<()>();
    let handler_released = Mutex::new(handler_released);
    let h = serve_with(
        "127.0.0.1:0",
        "hangup",
        ServeOptions {
            registry: Some(Arc::clone(&reg)),
            ..ServeOptions::default()
        },
        move |_| {
            started.send(()).unwrap();
            // Bounded, so a failed assertion below cannot wedge shutdown.
            let released = handler_released.lock().unwrap();
            let _ = released.recv_timeout(Duration::from_secs(10));
            Response::Ok
        },
    )
    .unwrap();
    let ready_events = || {
        let snap = reg.snapshot();
        snap.histogram_sum("net_reactor_ready_events", &[("service", "hangup")])
            .count
    };
    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    for half_close in [false, true] {
        let mut sock = TcpStream::connect(h.addr).unwrap();
        write_frame(&mut sock, &Envelope::wrap(req.clone())).unwrap();
        handler_started
            .recv_timeout(Duration::from_secs(10))
            .unwrap();
        let seen = ready_events();
        let kept = if half_close {
            sock.shutdown(std::net::Shutdown::Write).unwrap();
            Some(sock)
        } else {
            drop(sock);
            None
        };
        let deadline = Instant::now() + Duration::from_secs(10);
        while ready_events() == seen {
            assert!(
                Instant::now() < deadline,
                "the reactor never saw the hang-up"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        release.send(()).unwrap();
        let two_seconds = Duration::from_secs(2);
        await_gauge_within(&reg, "net_open_conns", "hangup", 0.0, two_seconds);
        if let Some(mut sock) = kept {
            let reply: Envelope<Response> = read_frame(&mut sock).unwrap().expect("the reply");
            assert_eq!(reply.msg, Response::Ok);
            assert!(read_frame::<_, Envelope<Response>>(&mut sock)
                .unwrap()
                .is_none());
        }
    }
    h.shutdown();
}

/// One storm caller: lone id-less calls and 8-deep bursts on its pooled
/// socket, id-less pipelined pairs and abrupt hang-ups on sockets of their
/// own. Every reply must carry its own request's tag.
fn storm_caller(addr: SocketAddr, caller: usize, seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let opts = CallOptions {
        pool: Some(Arc::new(ConnPool::new("storm", PoolConfig::default()))),
        timeouts: Timeouts::both(Duration::from_secs(5)),
        ..CallOptions::default()
    };
    let mut issued = 0;
    let mut login = |rng: &mut StdRng| {
        issued += 1;
        let user = format!("c{caller}-{issued}");
        // Half the handlers answer at once: an instant first reply is
        // what races the reactor parking the frame behind it.
        let sleep_us: u64 = if rng.random_bool(0.5) {
            0
        } else {
            rng.random_range(1..=200)
        };
        let req = Request::Login {
            user: user.clone(),
            password: sleep_us.to_string(),
        };
        (req, Response::Error(user))
    };
    let idless = |msg| Envelope {
        ctx: None,
        deadline_ms: None,
        request_id: None,
        msg,
    };
    for op in 0..32 {
        match rng.random_range(0..4) {
            0 => {
                let (req, want) = login(&mut rng);
                assert_eq!(call_with(addr, &req, &opts).unwrap(), want, "lone op {op}");
            }
            1 => {
                let mut sock = TcpStream::connect(addr).unwrap();
                sock.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
                let pair = [login(&mut rng), login(&mut rng)];
                // Both frames in one write, so they tend to land in one read.
                let mut frames = Vec::new();
                for (req, _) in &pair {
                    write_frame(&mut frames, &idless(req.clone())).unwrap();
                }
                sock.write_all(&frames).unwrap();
                for (i, (_, want)) in pair.into_iter().enumerate() {
                    let env: Envelope<Response> = read_frame(&mut sock).unwrap().expect("reply");
                    assert_eq!(
                        env.msg, want,
                        "id-less pair, op {op}, reply {i} out of order"
                    );
                }
            }
            2 => {
                let (reqs, wants): (Vec<_>, Vec<_>) = (0..8).map(|_| login(&mut rng)).unzip();
                let replies = call_batch(addr, &reqs, &opts);
                for (i, (got, want)) in replies.into_iter().zip(wants).enumerate() {
                    assert_eq!(got.unwrap(), want, "burst op {op}, slot {i}");
                }
            }
            _ => {
                let mut sock = TcpStream::connect(addr).unwrap();
                let (req, _) = login(&mut rng);
                write_frame(&mut sock, &idless(req)).unwrap();
            }
        }
    }
}

/// A seeded storm over both reply paths: lone id-less calls (direct),
/// id-less pipelined pairs (the second frame parks behind the first
/// reply), 8-deep bursts (the reactor's path) and peers that hang up with
/// a request in the handler, from four callers against handlers sleeping
/// 0–200 µs. Every reply lands in its own slot, id-less replies in request
/// order, and every connection is reaped.
#[test]
fn a_seeded_storm_over_both_reply_paths_keeps_every_reply_in_its_slot() {
    for_seeds(32, |rng| {
        let reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "storm",
            ServeOptions {
                registry: Some(Arc::clone(&reg)),
                workers: 4,
                ..ServeOptions::default()
            },
            |req| {
                let Request::Login { user, password } = req else {
                    return Response::Error("unexpected".into());
                };
                let sleep_us = password.parse().unwrap_or(0);
                std::thread::sleep(Duration::from_micros(sleep_us));
                Response::Error(user)
            },
        )
        .unwrap();
        let seeds: Vec<u64> = (0..4).map(|_| rng.random()).collect();
        std::thread::scope(|s| {
            for (caller, seed) in seeds.into_iter().enumerate() {
                s.spawn(move || storm_caller(h.addr, caller, seed));
            }
        });
        await_gauge(&reg, "net_open_conns", "storm", 0.0);
        h.shutdown();
    });
}

/// The FD pump is a tick paced by its next due event; `shutdown()` must
/// stop it immediately, not wait out a tick or a heartbeat.
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

/// Federation gossip is the FS service's tick: shutting a federated shard
/// down mid-interval costs a join, not a gossip round.
#[test]
fn federation_stop_is_prompt_mid_interval() {
    let opts = FsOptions {
        federation: Some(FederationOptions {
            gossip_interval: Duration::from_secs(30),
            ..FederationOptions::new("prompt-shard")
        }),
        ..FsOptions::default()
    };
    let fs = spawn_fs_durable("127.0.0.1:0", Clock::realtime(), 18, opts).unwrap();
    // Let the reactor arm the gossip tick's 30 s due.
    std::thread::sleep(Duration::from_millis(50));
    let t = Instant::now();
    fs.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(1),
        "the shard waited out its gossip interval: {:?}",
        t.elapsed()
    );
}
