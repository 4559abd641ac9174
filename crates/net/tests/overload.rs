//! Overload-protection integration tests: real sockets, tight limits.
//!
//! Exercises the E22 machinery end-to-end: the FD's payoff gate shedding
//! a bid storm, a client treating a saturated daemon as "no bid this
//! round" (breaker stays closed), the serve layer's typed shed, the
//! deadline-shed fast path, and the retry loop's deadline cap.

mod common;

use faucets_core::auth::SessionToken;
use faucets_core::bid::BidRequest;
use faucets_core::ids::{ClusterId, JobId};
use faucets_core::qos::QosBuilder;
use faucets_net::fd::{FdHandle, FdOptions};
use faucets_net::overload::breaker_state;
use faucets_net::prelude::*;
use faucets_net::proto::is_overload_error;
use faucets_sched::machine::MachineSpec;
use std::net::{SocketAddr, TcpStream};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn spawn_daemon(fs: SocketAddr, aspect: SocketAddr, clock: Clock, opts: FdOptions) -> FdHandle {
    common::spawn_cs(1, "turing", 64, fs, aspect, clock, opts)
}

fn session(fs: SocketAddr, name: &str) -> (faucets_core::ids::UserId, SessionToken) {
    call(
        fs,
        &Request::CreateUser {
            user: name.into(),
            password: "pw".into(),
        },
    )
    .unwrap();
    match call(
        fs,
        &Request::Login {
            user: name.into(),
            password: "pw".into(),
        },
    )
    .unwrap()
    {
        Response::Session { user, token } => (user, token),
        other => panic!("expected session, got {other:?}"),
    }
}

/// A bid storm against an FD with a one-slot, one-waiter gate: most of
/// the flood is answered `Overloaded` and the gate's shed counter moves,
/// while at least one solicitation is served.
#[test]
fn fd_sheds_bid_storm_through_payoff_gate() {
    let clock = Clock::realtime();
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 51).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
    let fd = spawn_daemon(
        fs.service.addr,
        aspect.service.addr,
        clock.clone(),
        FdOptions {
            bid_gate: GateConfig {
                max_inflight: 1,
                max_queue: 1,
            },
            bid_probe_floor: Duration::from_millis(150),
            ..FdOptions::default()
        },
    );
    let fd_addr = fd.service.addr;
    let (user, token) = session(fs.service.addr, "flooder");
    let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();

    let before = faucets_telemetry::global()
        .snapshot()
        .counter_sum("fd_bid_sheds_total", &[]);
    let n = 8;
    let barrier = Arc::new(Barrier::new(n));
    let mut handles = vec![];
    for i in 0..n {
        let (barrier, token, qos, now) = (
            Arc::clone(&barrier),
            token.clone(),
            qos.clone(),
            clock.now(),
        );
        handles.push(std::thread::spawn(move || {
            barrier.wait();
            call(
                fd_addr,
                &Request::RequestBid {
                    token,
                    request: BidRequest {
                        job: JobId(1000 + i as u64),
                        user,
                        qos,
                        issued_at: now,
                    },
                },
            )
        }));
    }
    let mut served = 0;
    let mut overloaded = 0;
    for h in handles {
        match h.join().unwrap() {
            Ok(Response::BidReply(_)) => served += 1,
            Err(e) if is_overload_error(&e) => overloaded += 1,
            other => panic!("unexpected bid outcome: {other:?}"),
        }
    }
    assert!(served >= 1, "the gate serves within its bound");
    assert!(overloaded >= 1, "a 1-slot gate sheds an 8-way storm");
    let after = faucets_telemetry::global()
        .snapshot()
        .counter_sum("fd_bid_sheds_total", &[]);
    assert!(after > before, "sheds counted in telemetry");
    fd.shutdown();
}

/// A daemon answering every solicitation `Overloaded` is busy, not dead:
/// the client records "no bid this round" (`AllDeclined`, never
/// `NegotiationExhausted`), counts the overloads, and keeps the peer's
/// breaker closed so the healthy-but-busy cluster is not evicted.
#[test]
fn client_treats_overloaded_daemon_as_no_bid_not_dead() {
    let clock = Clock::realtime();
    let fs = spawn_fs("127.0.0.1:0", clock.clone(), 52).unwrap();
    let aspect = spawn_appspector("127.0.0.1:0", fs.service.addr, 16).unwrap();
    // A "daemon" that is permanently saturated.
    let fake = serve("127.0.0.1:0", "fakefd", |_req| Response::Overloaded {
        retry_after_ms: 5,
    })
    .unwrap();
    let machine = MachineSpec::commodity(ClusterId(7), "drowning", 64);
    let info = machine.server_info("127.0.0.1", fake.addr.port());
    call(
        fs.service.addr,
        &Request::RegisterCluster {
            info,
            apps: vec!["namd".into()],
        },
    )
    .unwrap();

    let mut client =
        FaucetsClient::register(fs.service.addr, aspect.service.addr, clock, "gwen", "pw").unwrap();
    let before = faucets_telemetry::global()
        .snapshot()
        .counter("client_bids_overloaded_total");
    let qos = QosBuilder::new("namd", 4, 16, 100.0).build().unwrap();
    match client.submit(qos, &[]) {
        Err(ClientError::AllDeclined { solicited }) => assert_eq!(solicited, 1),
        other => panic!("expected AllDeclined, got {other:?}"),
    }
    let after = faucets_telemetry::global()
        .snapshot()
        .counter("client_bids_overloaded_total");
    assert!(
        after >= before + faucets_core::market::MAX_ROUNDS as u64,
        "every round's overload counted ({before} -> {after})"
    );
    // Overloaded answers are breaker *successes*: the peer stays callable.
    assert_eq!(
        client.breakers.breaker(fake.addr).state_name(),
        breaker_state::CLOSED
    );
    fake.shutdown();
}

/// A serve-layer shed reaches the caller as the typed overload error and
/// `net_overload_rejections_total{service}` counts it. The trigger is a
/// fault plan rejecting every request, so the handler must never run.
#[test]
fn serve_layer_shed_is_typed_and_counted() {
    let plan = FaultPlan::new(
        22,
        FaultConfig {
            reject: 1.0,
            ..FaultConfig::none()
        },
    );
    let svc = serve_with(
        "127.0.0.1:0",
        "shedsvc",
        ServeOptions {
            faults: Some(Arc::new(plan)),
            ..ServeOptions::default()
        },
        |_req| panic!("a shed request must never reach the handler"),
    )
    .unwrap();
    match call(
        svc.addr,
        &Request::Login {
            user: "x".into(),
            password: "y".into(),
        },
    ) {
        Err(e) if is_overload_error(&e) => {}
        other => panic!("a shed call must surface as the overload error: {other:?}"),
    }
    let rejections = faucets_telemetry::global()
        .snapshot()
        .counter_sum("net_overload_rejections_total", &[("service", "shedsvc")]);
    assert_eq!(rejections, 1, "rejection counted for shedsvc");
    svc.shutdown();
}

/// A request arriving with `deadline_ms: 0` is doomed on arrival: the
/// serve layer sheds it before the handler runs and answers
/// `Overloaded { retry_after_ms: 0 }`.
#[test]
fn expired_deadline_is_shed_before_the_handler() {
    let svc = serve("127.0.0.1:0", "dlsvc", |_req| {
        panic!("doomed work must never reach the handler")
    })
    .unwrap();
    let mut stream = TcpStream::connect(svc.addr).unwrap();
    let env = Envelope {
        ctx: None,
        deadline_ms: Some(0),
        request_id: None,
        msg: Request::Login {
            user: "x".into(),
            password: "y".into(),
        },
    };
    write_frame(&mut stream, &env).unwrap();
    let reply: Envelope<Response> = read_frame(&mut stream).unwrap().expect("a reply frame");
    assert_eq!(reply.msg, Response::Overloaded { retry_after_ms: 0 });
    let sheds = faucets_telemetry::global()
        .snapshot()
        .counter_sum("net_deadline_sheds_total", &[("service", "dlsvc")]);
    assert!(sheds >= 1, "deadline shed counted for dlsvc");
    svc.shutdown();
}

/// The retry loop never backs off past the caller's deadline: against a
/// dead peer with a generous retry budget, a 300 ms deadline cuts the
/// attempt count short and records the exhaustion.
#[test]
fn call_deadline_caps_retry_wall_clock() {
    // Bind-then-drop yields an address that refuses connections fast.
    let dead = {
        let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap()
    };
    // `Download` is an endpoint no other test in this binary calls, so
    // the per-endpoint counter deltas below are isolated even though the
    // tests share the process-global registry.
    let snapshot = |name: &str| {
        faucets_telemetry::global()
            .snapshot()
            .counter_sum(name, &[("endpoint", "Download")])
    };
    let (attempts0, exhausted0) = (
        snapshot("net_call_attempts_total"),
        snapshot("net_call_deadline_exhausted_total"),
    );
    let opts = CallOptions {
        retry: RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(200),
            cap: Duration::from_millis(200),
            jitter: 0.0,
            seed: 7,
        },
        deadline: Some(Duration::from_millis(300)),
        ..CallOptions::default()
    };
    let started = Instant::now();
    let err = call_with(
        dead,
        &Request::Download {
            token: SessionToken("t".into()),
            job: JobId(1),
            name: "out.dat".into(),
        },
        &opts,
    )
    .expect_err("dead peer");
    assert!(!is_overload_error(&err), "a dead peer is not 'overloaded'");
    assert!(
        started.elapsed() < Duration::from_millis(1200),
        "without the deadline cap this would sleep 7 x 200 ms"
    );
    let attempts = snapshot("net_call_attempts_total") - attempts0;
    assert!(
        (1..8).contains(&attempts),
        "deadline cut the retry budget short (made {attempts} attempts)"
    );
    assert!(
        snapshot("net_call_deadline_exhausted_total") > exhausted0,
        "exhaustion counted"
    );
}
