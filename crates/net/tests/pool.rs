//! Connection-pool integration tests: real sockets, fixed seeds.
//!
//! Covers the pool behaviours the unit tests can't reach end-to-end:
//! frame faults poisoning a warm socket (and the next call recovering on a
//! fresh one), per-call connection churn staying bounded by the live
//! client count, a many-client stress run where the shared pool keeps
//! the hit rate high and every counter visible through the server's own
//! `Metrics` endpoint, pipelined bursts against stand-in peers that
//! answer wrongly, not at all, or only as fast as they are read, and the
//! thread-free solicitation round (`call_many`) over peers that are dead,
//! shedding, slow, mute, restarted or wrong.

use faucets_net::prelude::*;
use faucets_telemetry::metrics::Registry;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A truncated or garbled frame on a pooled connection must poison the
/// warm socket — the stream may be desynchronised, and the next caller
/// must not be paid the previous caller's reply. The retry loop then
/// checks a *fresh* socket out of the pool and the call succeeds.
#[test]
fn faulty_frames_poison_the_pooled_socket_and_calls_recover() {
    // A truncated request parks as a partial frame on the reactor (it
    // holds no worker); the caller's own read timeout abandons it.
    let h = serve("127.0.0.1:0", "chaos", |_| Response::Ok).unwrap();

    let pool = Arc::new(ConnPool::new("chaos", PoolConfig::default()));
    let reg = Arc::new(Registry::new());
    let plan = Arc::new(FaultPlan::new(
        0xC0FFEE,
        FaultConfig {
            truncate: 0.2,
            garble: 0.3,
            ..FaultConfig::none()
        },
    ));
    let opts = CallOptions {
        pool: Some(Arc::clone(&pool)),
        registry: Some(Arc::clone(&reg)),
        faults: Some(Arc::clone(&plan)),
        timeouts: Timeouts::both(Duration::from_millis(500)),
        retry: RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            jitter: 0.5,
            seed: 7,
        },
        ..CallOptions::default()
    };

    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    let mut ok = 0;
    for _ in 0..40 {
        if matches!(call_with(h.addr, &req, &opts), Ok(Response::Ok)) {
            ok += 1;
        }
    }

    let snap = reg.snapshot();
    let poisoned = snap.counter_sum("net_pool_poisoned_total", &[("pool", "chaos")]);
    let misses = snap.counter_sum("net_pool_misses_total", &[("pool", "chaos")]);
    let hits = snap.counter_sum("net_pool_hits_total", &[("pool", "chaos")]);
    assert!(ok >= 20, "retries recover most calls under faults: {ok}/40");
    assert!(
        poisoned >= 1,
        "at least one faulted frame poisoned a socket"
    );
    assert!(
        misses >= poisoned,
        "every poisoned socket was replaced by a fresh connect \
         (misses {misses} < poisoned {poisoned})"
    );
    assert!(hits >= 1, "clean stretches reused the warm socket");
    assert!(
        pool.open_connections() <= 1,
        "poisoned sockets were closed, not leaked: {} open",
        pool.open_connections()
    );
    h.shutdown();
}

/// Per-call connections from many concurrent clients: the reactor keeps
/// open connections bounded by twice the live client count (connections are
/// parked state, not threads, so churn never accumulates handles), the
/// gauge drains back to zero, and shutdown stays prompt (no poll loop, no
/// per-connection threads to orphan).
#[test]
fn connection_churn_keeps_handles_bounded() {
    const WORKERS: usize = 4;
    const CLIENTS: usize = 8;
    const CALLS: usize = 20;
    let server_reg = Arc::new(Registry::new());
    let h = serve_with(
        "127.0.0.1:0",
        "churn",
        ServeOptions {
            registry: Some(Arc::clone(&server_reg)),
            workers: WORKERS,
            ..ServeOptions::default()
        },
        |_| Response::Ok,
    )
    .unwrap();

    let addr = h.addr;
    let max_open = std::thread::scope(|s| {
        let done = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(move || {
                    let req = Request::VerifyToken {
                        token: faucets_core::auth::SessionToken("t".into()),
                    };
                    for _ in 0..CALLS {
                        // No pool: every call opens and closes its own socket.
                        call(addr, &req).expect("per-call connection served");
                    }
                })
            })
            .collect();
        let reg = Arc::clone(&server_reg);
        let flag = Arc::clone(&done);
        let sampler = s.spawn(move || {
            let mut max = 0.0f64;
            while !flag.load(std::sync::atomic::Ordering::Relaxed) {
                let open = reg
                    .snapshot()
                    .gauge_sum("net_open_conns", &[("service", "churn")]);
                max = max.max(open);
                std::thread::sleep(Duration::from_millis(1));
            }
            max
        });
        for c in clients {
            c.join().unwrap();
        }
        done.store(true, std::sync::atomic::Ordering::Relaxed);
        sampler.join().unwrap()
    });

    // Each client runs one call at a time on its own socket, but it closes
    // that socket and dials the next before the reactor has consumed the
    // first one's EOF, so a client can own one open and one closing
    // connection at the same instant: twice the live clients is the bound
    // the reactor keeps (connections are parked state, bounded by the
    // sockets that actually exist, not by WORKERS).
    assert!(
        max_open <= (2 * CLIENTS) as f64,
        "live connection handles never exceeded twice the client count: \
         saw {max_open}, clients {CLIENTS}"
    );
    let snap = server_reg.snapshot();
    assert_eq!(
        snap.counter_sum("net_conns_accepted_total", &[("service", "churn")]),
        (CLIENTS * CALLS) as u64,
        "every per-call connection was accepted exactly once"
    );
    // The gauge drains once the churn stops — no leaked handles.
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let open = server_reg
            .snapshot()
            .gauge_sum("net_open_conns", &[("service", "churn")]);
        if open == 0.0 {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "open-connection gauge never drained: {open}"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    // Blocking accept must not stall shutdown: the stop path wakes it.
    let t = Instant::now();
    h.shutdown();
    assert!(
        t.elapsed() < Duration::from_secs(2),
        "shutdown stayed prompt: {:?}",
        t.elapsed()
    );
}

/// Sixteen clients hammer one FS through a shared pool: zero transport
/// errors, a hit rate over 0.9, bounded open connections — and because
/// everything runs on the process-global registry, the pool counters are
/// visible through the FS's own `Metrics` endpoint, exactly as an
/// operator would see them.
#[test]
fn sixteen_pooled_clients_stress_one_fs() {
    const CLIENTS: usize = 16;
    const CALLS: usize = 100;
    let fs = spawn_fs("127.0.0.1:0", Clock::realtime(), 11).unwrap();
    call(
        fs.service.addr,
        &Request::CreateUser {
            user: "stress".into(),
            password: "pw".into(),
        },
    )
    .unwrap();
    let Response::Session { token, .. } = call(
        fs.service.addr,
        &Request::Login {
            user: "stress".into(),
            password: "pw".into(),
        },
    )
    .unwrap() else {
        panic!("expected session");
    };

    // One pool shared by all sixteen clients; the idle cap is raised to
    // the client count so the steady state keeps one warm socket each.
    let pool = Arc::new(ConnPool::new(
        "stress",
        PoolConfig {
            conns_per_peer: CLIENTS,
            ..PoolConfig::default()
        },
    ));
    let opts = CallOptions {
        pool: Some(Arc::clone(&pool)),
        ..CallOptions::default()
    };

    let addr = fs.service.addr;
    std::thread::scope(|s| {
        for _ in 0..CLIENTS {
            let opts = opts.clone();
            let token = token.clone();
            s.spawn(move || {
                for i in 0..CALLS {
                    let r = call_with(
                        addr,
                        &Request::VerifyToken {
                            token: token.clone(),
                        },
                        &opts,
                    )
                    .unwrap_or_else(|e| panic!("call {i} failed: {e}"));
                    assert!(matches!(r, Response::Verified { .. }), "call {i} got {r:?}");
                }
            });
        }
    });

    // The pool counters ran on the global registry, so they surface
    // through the server's Metrics endpoint like any other metric.
    let Response::Metrics(snap) = call(addr, &Request::Metrics).unwrap() else {
        panic!("expected metrics");
    };
    let hits = snap.counter_sum("net_pool_hits_total", &[("pool", "stress")]);
    let misses = snap.counter_sum("net_pool_misses_total", &[("pool", "stress")]);
    assert_eq!(
        hits + misses,
        (CLIENTS * CALLS) as u64,
        "every call checked out of the pool"
    );
    let hit_rate = hits as f64 / (hits + misses) as f64;
    assert!(
        hit_rate > 0.9,
        "warm sockets served the steady state: hit rate {hit_rate:.3} \
         ({hits} hits / {misses} misses)"
    );
    assert!(
        pool.open_connections() <= CLIENTS,
        "open connections bounded by the client count: {}",
        pool.open_connections()
    );
    assert_eq!(
        snap.counter_sum("net_pool_poisoned_total", &[("pool", "stress")]),
        0,
        "a healthy service never poisons"
    );
    fs.shutdown();
}

/// The honest reply to a numbered `Login`: its user tag and password,
/// under its id.
fn echo(env: &Envelope<Request>) -> Envelope<Response> {
    let Request::Login { user, password } = &env.msg else {
        panic!("stand-in peers are sent numbered logins, got {:?}", env.msg);
    };
    Envelope {
        ctx: None,
        deadline_ms: None,
        request_id: env.request_id,
        msg: Response::Error(user.clone() + password),
    }
}

fn numbered_logins(n: usize, password: &str) -> Vec<Request> {
    (0..n)
        .map(|i| Request::Login {
            user: format!("u{i}"),
            password: password.into(),
        })
        .collect()
}

/// How a stand-in peer wrongs the first burst it is sent.
#[derive(Debug, Clone, Copy)]
enum Misbehaviour {
    /// Request 1 is answered under an id no request of the burst carries.
    ForeignId,
    /// Request 1's reply comes under request 0's id, after request 0's own.
    DuplicateId,
    /// Every reply is right, and two more bytes follow the last.
    TrailingBytes,
    /// Request 1 is never answered; the connection stays up.
    LostReply,
    /// Every reply is right; the next request on the connection is taken
    /// in and the connection dies with it unanswered, as a restart does.
    Restart,
}

/// A stand-in peer: its first connection reads a burst of `n` numbered
/// logins and answers all of it in one write, wronged as `how` says; every
/// later connection answers honestly, frame by frame.
fn misbehaving_peer(n: usize, how: Misbehaviour) -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (conn, stream) in listener.incoming().enumerate() {
            let Ok(mut stream) = stream else { return };
            if conn > 0 {
                while let Ok(Some(env)) = read_frame::<_, Envelope<Request>>(&mut stream) {
                    write_frame(&mut stream, &echo(&env)).unwrap();
                }
                continue;
            }
            let mut replies: Vec<Envelope<Response>> = (0..n)
                .map(|_| echo(&read_frame(&mut stream).unwrap().expect("a whole burst")))
                .collect();
            match how {
                Misbehaviour::ForeignId => replies[1].request_id = Some(u64::MAX),
                Misbehaviour::DuplicateId => replies[1].request_id = replies[0].request_id,
                Misbehaviour::LostReply => drop(replies.remove(1)),
                Misbehaviour::TrailingBytes | Misbehaviour::Restart => {}
            }
            let mut wire = Vec::new();
            for reply in &replies {
                write_frame(&mut wire, reply).unwrap();
            }
            if matches!(how, Misbehaviour::TrailingBytes) {
                wire.extend_from_slice(&[0, 0]);
            }
            stream.write_all(&wire).unwrap();
            // Hold the connection until the client gives it up, or sends
            // the request that `Restart` hangs up on.
            let _ = stream.read(&mut [0u8; 1]);
        }
    });
    addr
}

/// A peer that answers a burst with a reply nobody asked for, the same id
/// twice, bytes past the last reply, or one reply short: each slot holds
/// its own request's reply or a typed error — never another request's —
/// the socket is poisoned, and the next call dials fresh.
#[test]
fn a_wronged_burst_fails_typed_poisons_the_socket_and_the_next_call_redials() {
    const N: usize = 4;
    let all = [0, 1, 2, 3];
    for (how, answered, error) in [
        // The burst stops at the first reply it cannot place.
        (Misbehaviour::ForeignId, &[0][..], ErrorKind::InvalidData),
        (Misbehaviour::DuplicateId, &[0][..], ErrorKind::InvalidData),
        (
            Misbehaviour::TrailingBytes,
            &all[..],
            ErrorKind::InvalidData,
        ),
        (Misbehaviour::LostReply, &[0, 2, 3][..], ErrorKind::TimedOut),
    ] {
        let addr = misbehaving_peer(N, how);
        let pool = Arc::new(ConnPool::new("wronged", PoolConfig::default()));
        let reg = Arc::new(Registry::new());
        let opts = CallOptions {
            pool: Some(Arc::clone(&pool)),
            registry: Some(Arc::clone(&reg)),
            timeouts: Timeouts::both(Duration::from_millis(300)),
            ..CallOptions::default()
        };
        let reqs = numbered_logins(N, "");
        for (i, result) in call_batch(addr, &reqs, &opts).into_iter().enumerate() {
            match result {
                Ok(reply) => {
                    assert_eq!(
                        reply,
                        Response::Error(format!("u{i}")),
                        "{how:?}: slot {i} holds another request's reply"
                    );
                    assert!(answered.contains(&i), "{how:?}: slot {i} was not answered");
                }
                Err(e) => {
                    assert_eq!(e.kind(), error, "{how:?}: slot {i} failed as {e}");
                    assert!(!answered.contains(&i), "{how:?}: slot {i} lost its reply");
                }
            }
        }
        assert_eq!(pool.open_connections(), 0, "{how:?}: the socket is gone");
        assert_eq!(
            call_with(addr, &reqs[0], &opts).unwrap(),
            Response::Error("u0".into()),
            "{how:?}: the next call is served on a fresh connection"
        );
        let snap = reg.snapshot();
        let count = |name: &str| snap.counter_sum(name, &[("pool", "wronged")]);
        assert_eq!(count("net_pool_poisoned_total"), 1, "{how:?}");
        assert_eq!(count("net_pool_misses_total"), 2, "{how:?}: two dials");
        assert_eq!(count("net_pool_hits_total"), 0, "{how:?}");
    }
}

extern "C" {
    fn setsockopt(fd: i32, level: i32, name: i32, value: *const i32, len: u32) -> i32;
}

/// A burst far larger than the socket buffers against a peer that reads
/// the next request only once its last reply is written in full, the way
/// the reactor pauses a connection whose reply backlog is over
/// `ServeOptions::write_buf`. Its buffers are pinned small (the kernel's
/// defaults grow to tens of megabytes), so it can finish a reply only while
/// the client reads: a client that wrote its whole burst before reading
/// would block with the peer blocked against it, for good.
#[test]
fn a_burst_over_the_socket_buffers_never_wedges_writer_against_writer() {
    const N: usize = 8;
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    for name in [SO_SNDBUF, SO_RCVBUF] {
        let bytes: i32 = 256 * 1024;
        // SAFETY: `value` points at one live `i32` and `len` is its size;
        // accepted sockets inherit the listener's buffer sizes.
        let rc = unsafe {
            use std::os::unix::io::AsRawFd;
            setsockopt(listener.as_raw_fd(), SOL_SOCKET, name, &bytes, 4)
        };
        assert_eq!(rc, 0, "setsockopt({name})");
    }
    let addr = listener.local_addr().unwrap();
    let peer = std::thread::spawn(move || {
        let (mut stream, _): (TcpStream, _) = listener.accept().unwrap();
        for _ in 0..N {
            let env = read_frame(&mut stream).unwrap().expect("a request");
            write_frame(&mut stream, &echo(&env)).unwrap();
        }
    });

    let opts = CallOptions {
        pool: Some(Arc::new(ConnPool::new("wedge", PoolConfig::default()))),
        timeouts: Timeouts::both(Duration::from_secs(10)),
        ..CallOptions::default()
    };
    // 8 MiB each way: the client's own send buffer tops out at 4 MiB.
    let reqs = numbered_logins(N, &"p".repeat(1 << 20));
    for (i, r) in call_batch(addr, &reqs, &opts).into_iter().enumerate() {
        match r.unwrap_or_else(|e| panic!("slot {i} wedged: {e}")) {
            Response::Error(s) => assert!(
                s.starts_with(&format!("u{i}p")) && s.len() > 1 << 20,
                "slot {i}"
            ),
            other => panic!("slot {i}: unexpected {other:?}"),
        }
    }
    peer.join().unwrap();
}

/// An honest peer for numbered logins, on the real serve path.
fn honest_peer() -> ServiceHandle {
    serve("127.0.0.1:0", "honest", |req| match req {
        Request::Login { user, password } => Response::Error(user + &password),
        other => Response::Error(format!("unexpected {other:?}")),
    })
    .unwrap()
}

/// A solicitation round's options: its own pool and registry.
fn round_opts(pool: &'static str) -> (CallOptions, Arc<ConnPool>, Arc<Registry>) {
    let (pool, reg) = (
        Arc::new(ConnPool::new(pool, PoolConfig::default())),
        Arc::new(Registry::new()),
    );
    let opts = CallOptions {
        pool: Some(Arc::clone(&pool)),
        registry: Some(Arc::clone(&reg)),
        timeouts: Timeouts::both(Duration::from_secs(2)),
        ..CallOptions::default()
    };
    (opts, pool, reg)
}

/// Two rounds of `req` (the numbered login `u0`/`pw`) over `addrs`, every
/// slot of both answered, and with its own reply.
fn two_rounds_answered(addrs: &[SocketAddr], req: &Request, opts: &CallOptions) {
    for round in 0..2 {
        for (i, reply) in call_many(addrs, req, opts, 4).into_iter().enumerate() {
            let reply = reply.unwrap_or_else(|e| panic!("round {round}, slot {i}: {e}"));
            assert_eq!(reply, Response::Error("u0pw".into()));
        }
    }
}

/// One round over a dead peer, a shedding one, a slow one and a prompt
/// one: each slot is graded as a lone `call_with` grades it — the dead
/// slot a transport error after its retries, the shed slot the typed
/// error no layer retries — each breaker heard its own peer's outcome, and
/// the round took the slow peer's time. Then the patience rule itself:
/// three mute peers cost a round one `timeouts.read`, not three.
#[test]
fn a_round_grades_each_peer_alone_and_waits_one_timeout_not_their_sum() {
    const SLOW: Duration = Duration::from_millis(200);
    let dead = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let shedding = serve("127.0.0.1:0", "shedding", |_| Response::Overloaded {
        retry_after_ms: 7,
    })
    .unwrap();
    let slow = serve("127.0.0.1:0", "slow", |_| {
        std::thread::sleep(SLOW);
        Response::Ok
    })
    .unwrap();
    let prompt = serve("127.0.0.1:0", "prompt", |_| Response::Ok).unwrap();
    let addrs = [dead, shedding.addr, slow.addr, prompt.addr];

    let (opts, pool, reg) = round_opts("graded");
    let breakers = Arc::new(BreakerSet::new(BreakerConfig {
        failures_to_open: 2,
        ..BreakerConfig::default()
    }));
    // One failure on record for each live peer: only an outcome graded a
    // success clears it.
    for addr in &addrs[1..] {
        breakers.breaker(*addr).on_failure();
    }
    let opts = CallOptions {
        retry: RetryPolicy {
            attempts: 2,
            ..RetryPolicy::standard(3)
        },
        breakers: Some(Arc::clone(&breakers)),
        ..opts
    };
    let req = Request::VerifyToken {
        token: faucets_core::auth::SessionToken("t".into()),
    };
    let started = Instant::now();
    let results = call_many(&addrs, &req, &opts, addrs.len());
    let took = started.elapsed();

    let [dead_slot, shed_slot, slow_slot, prompt_slot] = &results[..] else {
        panic!("four slots, index-aligned: {results:?}");
    };
    let e = dead_slot.as_ref().expect_err("nobody listens there");
    assert_eq!(e.kind(), ErrorKind::ConnectionRefused, "{e}");
    let e = shed_slot.as_ref().expect_err("a shed is a typed error");
    let shed = e.get_ref().and_then(|e| e.downcast_ref::<ProtoError>());
    assert!(
        matches!(shed, Some(ProtoError::Overloaded { retry_after_ms: 7 })),
        "{e}"
    );
    assert_eq!(*slow_slot.as_ref().unwrap(), Response::Ok);
    assert_eq!(*prompt_slot.as_ref().unwrap(), Response::Ok);
    assert!(
        took >= SLOW && took < 3 * SLOW,
        "the round takes its slowest peer's time: {took:?}"
    );

    let snap = reg.snapshot();
    let count = |name: &str, endpoint| snap.counter_sum(name, &[("endpoint", endpoint)]);
    assert_eq!(count("net_call_attempts_total", "VerifyToken"), 3 + 2);
    assert_eq!(
        count("net_call_retries_total", "VerifyToken"),
        1,
        "dead only"
    );
    assert_eq!(count("net_call_failures_total", "VerifyToken"), 1);
    assert_eq!(count("net_call_overloaded_total", "VerifyToken"), 1);
    assert_eq!(pool.idle_count(), 3, "the live peers' sockets stay warm");
    let state = |addr| breakers.breaker(addr).state_name();
    assert_eq!(state(dead), "open", "two transport failures");
    for addr in &addrs[1..] {
        breakers.breaker(*addr).on_failure();
        assert_eq!(state(*addr), "closed", "an answer cleared {addr}'s record");
    }
    // The open breaker sheds the dead peer's slot of the next round
    // locally; the others are asked as before.
    let results = call_many(&addrs, &req, &opts, addrs.len());
    let e = results[0].as_ref().expect_err("shed by the breaker");
    assert!(e.to_string().contains("overloaded"), "{e}");
    assert_eq!(*results[3].as_ref().unwrap(), Response::Ok);
    let fastfails = reg
        .snapshot()
        .counter_sum("net_breaker_fastfails_total", &[]);
    assert_eq!(fastfails, 1);
    for h in [shedding, slow, prompt] {
        h.shutdown();
    }

    // Mute peers: the accept queue completes the handshake and nobody
    // ever reads. Every read of the round shares one `timeouts.read`.
    const PATIENCE: Duration = Duration::from_millis(200);
    let mute: Vec<TcpListener> = (0..3)
        .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
        .collect();
    let addrs: Vec<SocketAddr> = mute.iter().map(|l| l.local_addr().unwrap()).collect();
    let (opts, pool, _reg) = round_opts("mute");
    let opts = CallOptions {
        timeouts: Timeouts::both(PATIENCE),
        ..opts
    };
    let started = Instant::now();
    let results = call_many(&addrs, &req, &opts, addrs.len());
    let took = started.elapsed();
    assert!(results.iter().all(|r| r.is_err()), "{results:?}");
    assert!(
        took >= PATIENCE && took < 2 * PATIENCE,
        "one timeout for the round, not one per peer: {took:?}"
    );
    assert_eq!(pool.open_connections(), 0, "a timed-out socket is poisoned");
}

/// A peer restarted while its socket sat idle in the pool costs the round
/// one stale retry on a fresh connection — no error, and none of the
/// caller's retry budget.
#[test]
fn a_round_rides_out_a_peer_restarted_under_its_idle_socket() {
    let honest: Vec<ServiceHandle> = (0..3).map(|_| honest_peer()).collect();
    let mut addrs: Vec<SocketAddr> = honest.iter().map(|h| h.addr).collect();
    addrs.insert(1, misbehaving_peer(1, Misbehaviour::Restart));
    let (opts, pool, reg) = round_opts("restarted");
    let req = &numbered_logins(1, "pw")[0];
    two_rounds_answered(&addrs, req, &opts);
    let snap = reg.snapshot();
    let count = |name: &str| snap.counter_sum(name, &[]);
    assert_eq!(count("net_pool_stale_retries_total"), 1);
    assert_eq!(
        count("net_call_attempts_total"),
        8,
        "one per slot per round"
    );
    assert_eq!(count("net_call_retries_total"), 0);
    assert_eq!(count("net_call_failures_total"), 0);
    assert_eq!(count("net_pool_misses_total"), 4 + 1, "one redial");
    assert_eq!((pool.open_connections(), pool.idle_count()), (4, 4));
    honest.into_iter().for_each(ServiceHandle::shutdown);
}

/// A socket that carried more than its reply, or whose request was lost,
/// is never lent again — and it is the only one: the other peers of the
/// round keep their warm sockets.
#[test]
fn a_wronged_or_lossy_slot_of_a_round_costs_only_its_own_socket() {
    let honest: Vec<ServiceHandle> = (0..4).map(|_| honest_peer()).collect();
    let req = &numbered_logins(1, "pw")[0];

    // Two bytes past the reply: the reply itself is right and is
    // delivered; the checkout of the next round refuses the socket.
    let mut addrs: Vec<SocketAddr> = honest[..3].iter().map(|h| h.addr).collect();
    addrs.insert(2, misbehaving_peer(1, Misbehaviour::TrailingBytes));
    let (opts, pool, reg) = round_opts("trailing");
    two_rounds_answered(&addrs, req, &opts);
    let snap = reg.snapshot();
    let count = |name: &str| snap.counter_sum(name, &[("pool", "trailing")]);
    let closed = count("net_pool_poisoned_total") + count("net_pool_evictions_total");
    assert_eq!(closed, 1, "the desynchronised socket, and only it");
    assert_eq!(count("net_pool_misses_total"), 4 + 1);
    assert_eq!(count("net_pool_hits_total"), 3);
    assert_eq!((pool.open_connections(), pool.idle_count()), (4, 4));

    // A fault plan that loses exactly one of the round's four identical
    // frames (the n-th transmission of the same bytes has its own verdict).
    let addrs: Vec<SocketAddr> = honest.iter().map(|h| h.addr).collect();
    let mut frame = Vec::new();
    let envelope = Envelope {
        ctx: None,
        deadline_ms: None,
        request_id: None,
        msg: req.clone(),
    };
    write_frame(&mut frame, &envelope).unwrap();
    let lossy = FaultConfig {
        drop: 0.25,
        ..FaultConfig::none()
    };
    let lost =
        |seed: u64, nth| FaultPlan::new(seed, lossy).decide_nth(&frame, nth) == FrameFault::Drop;
    let seed = (0..)
        .find(|&seed| (0..4).filter(|&nth| lost(seed, nth)).count() == 1)
        .unwrap();
    let victim = (0..4).position(|nth| lost(seed, nth as u64)).unwrap();
    let plan = Arc::new(FaultPlan::new(seed, lossy));
    let (opts, pool, reg) = round_opts("lossy");
    let opts = CallOptions {
        faults: Some(Arc::clone(&plan)),
        timeouts: Timeouts::both(Duration::from_millis(200)),
        ..opts
    };
    // No trace context: the frames on the wire are the bytes searched.
    let results = faucets_telemetry::trace::propagate(None, || call_many(&addrs, req, &opts, 4));
    assert_eq!(plan.stats().dropped, 1);
    for (i, reply) in results.iter().enumerate() {
        assert_eq!(reply.is_err(), i == victim, "slot {i}: {reply:?}");
    }
    let poisoned = reg.snapshot().counter_sum("net_pool_poisoned_total", &[]);
    assert_eq!(poisoned, 1, "the socket whose request was lost");
    assert_eq!((pool.open_connections(), pool.idle_count()), (3, 3));
    honest.into_iter().for_each(ServiceHandle::shutdown);
}
