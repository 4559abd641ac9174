//! Transport parity: every pass of the client call path is one launch and
//! one land, so what a caller gets back — and what the breaker and the
//! `net_call_*` counters record — may depend on the *outcome* of a call
//! but never on whether a connection per call or a pooled socket carried
//! it, nor on whether it went in through `call_with`, as a one-element
//! `call_batch`, as one slot of a pipelined burst, or as one slot of a
//! `call_many` sweep.

use faucets_net::overload::breaker_state;
use faucets_net::prelude::*;
use faucets_net::proto::is_overload_error;
use faucets_telemetry::metrics::Registry;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::Duration;

#[derive(Debug, Clone, Copy, PartialEq)]
enum Transport {
    PerCall,
    Pooled,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Outcome {
    Answer,
    Overloaded,
    TransportError,
    BreakerOpen,
}

#[derive(Debug, Clone, Copy, PartialEq)]
enum Entry {
    CallWith,
    /// A `call_batch` of this many copies of the request: pipelined on one
    /// socket when there are more than one.
    Batch(u64),
    /// A `call_many` round of this many slots, all to the one peer and in
    /// one sweep: launched together, on a socket each, when there are more
    /// than one.
    Sweep(u64),
}

impl Entry {
    /// Requests sent: each is counted as a lone call would be.
    fn requests(self) -> u64 {
        match self {
            Entry::CallWith => 1,
            Entry::Batch(n) | Entry::Sweep(n) => n,
        }
    }
}

/// Everything observable about one call (or one burst of the same call).
#[derive(Debug, PartialEq)]
struct Observed {
    /// `Ok(response)`, `Err("overloaded:<hint>")` or `Err("transport")`;
    /// of a burst, what every slot held.
    result: Result<Response, String>,
    attempts: u64,
    overloaded: u64,
    failures: u64,
    retries: u64,
    fastfails: u64,
    breaker_transitions: u64,
    breaker: &'static str,
}

const COOLDOWN: Duration = Duration::from_secs(60);
const SHED_HINT_MS: u64 = 7;

fn options(transport: Transport, reg: &Arc<Registry>, breakers: &Arc<BreakerSet>) -> CallOptions {
    CallOptions {
        connect: Duration::from_millis(500),
        timeouts: Timeouts::both(Duration::from_secs(5)),
        registry: Some(Arc::clone(reg)),
        breakers: Some(Arc::clone(breakers)),
        pool: (transport == Transport::Pooled)
            .then(|| Arc::new(ConnPool::new("parity", PoolConfig::default()))),
        ..CallOptions::default()
    }
}

fn observe(transport: Transport, outcome: Outcome, entry: Entry) -> Observed {
    // Answers `VerifyToken`, sheds `Login`.
    let server = serve("127.0.0.1:0", "parity", |req| match req {
        Request::Login { .. } => Response::Overloaded {
            retry_after_ms: SHED_HINT_MS,
        },
        _ => Response::Ok,
    })
    .unwrap();
    // A port nobody listens on: bound, read back, released.
    let dead: SocketAddr = TcpListener::bind("127.0.0.1:0")
        .unwrap()
        .local_addr()
        .unwrap();
    let addr = match outcome {
        Outcome::TransportError => dead,
        _ => server.addr,
    };
    let req = match outcome {
        Outcome::Overloaded => Request::Login {
            user: "u".into(),
            password: "p".into(),
        },
        _ => Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        },
    };
    let reg = Arc::new(Registry::new());
    // One failure opens the breaker, and it stays open for the test.
    let breakers = Arc::new(BreakerSet::new(BreakerConfig {
        failures_to_open: 1,
        cooldown: COOLDOWN,
    }));
    if outcome == Outcome::BreakerOpen {
        // Tripped out of band, against a registry nobody reads.
        breakers.on_failure(addr, &Registry::new());
    }
    let opts = options(transport, &reg, &breakers);
    let results = match entry {
        Entry::CallWith => vec![call_with(addr, &req, &opts)],
        Entry::Batch(n) => call_batch(addr, &vec![req; n as usize], &opts),
        Entry::Sweep(n) => call_many(&vec![addr; n as usize], &req, &opts, n as usize),
    };
    assert_eq!(
        results.len() as u64,
        entry.requests(),
        "one slot per request"
    );
    let describe = |result: std::io::Result<Response>| {
        result.map_err(|e| {
            if is_overload_error(&e) {
                let Some(ProtoError::Overloaded { retry_after_ms }) =
                    e.get_ref().and_then(|inner| inner.downcast_ref())
                else {
                    unreachable!("is_overload_error vouched for the payload")
                };
                format!("overloaded:{retry_after_ms}")
            } else {
                "transport".to_string()
            }
        })
    };
    let mut slots: Vec<_> = results.into_iter().map(describe).collect();
    slots.dedup();
    assert_eq!(
        slots.len(),
        1,
        "every slot of a burst fares alike: {slots:?}"
    );
    let result = slots.pop().unwrap();
    let snap = reg.snapshot();
    let count = |name: &str| snap.counter_sum(name, &[]);
    server.shutdown();
    Observed {
        result,
        attempts: count("net_call_attempts_total"),
        overloaded: count("net_call_overloaded_total"),
        failures: count("net_call_failures_total"),
        retries: count("net_call_retries_total"),
        fastfails: count("net_breaker_fastfails_total"),
        breaker_transitions: count("net_breaker_transitions_total"),
        breaker: breakers.breaker(addr).state_name(),
    }
}

/// What `n` requests with this outcome leave behind: `n` times the
/// per-request counters, and the breaker transitions of one.
fn expected(outcome: Outcome, n: u64) -> Observed {
    let quiet = Observed {
        result: Ok(Response::Ok),
        attempts: n,
        overloaded: 0,
        failures: 0,
        retries: 0,
        fastfails: 0,
        breaker_transitions: 0,
        breaker: breaker_state::CLOSED,
    };
    match outcome {
        Outcome::Answer => quiet,
        // The peer answered: a breaker success, a typed shed for the caller.
        Outcome::Overloaded => Observed {
            result: Err(format!("overloaded:{SHED_HINT_MS}")),
            overloaded: n,
            ..quiet
        },
        Outcome::TransportError => Observed {
            result: Err("transport".into()),
            failures: n,
            breaker_transitions: 1,
            breaker: breaker_state::OPEN,
            ..quiet
        },
        // Shed locally, before the network: no attempt is counted.
        Outcome::BreakerOpen => Observed {
            result: Err(format!("overloaded:{}", COOLDOWN.as_millis())),
            attempts: 0,
            fastfails: n,
            breaker: breaker_state::OPEN,
            ..quiet
        },
    }
}

#[test]
fn every_transport_and_entry_point_grades_every_outcome_alike() {
    for outcome in [
        Outcome::Answer,
        Outcome::Overloaded,
        Outcome::TransportError,
        Outcome::BreakerOpen,
    ] {
        // Without a pool a longer batch is a burst and a longer round a
        // sweep too, each on sockets dialled for it alone.
        let entries = [
            Entry::CallWith,
            Entry::Batch(1),
            Entry::Sweep(1),
            Entry::Batch(3),
            Entry::Sweep(3),
        ];
        for transport in [Transport::PerCall, Transport::Pooled] {
            for entry in entries {
                assert_eq!(
                    observe(transport, outcome, entry),
                    expected(outcome, entry.requests()),
                    "{outcome:?} over {transport:?} through {entry:?}"
                );
            }
        }
    }
}

/// A stand-in peer that loses one connection the way a restart does: the
/// first connection answers one request, takes the next one in, and dies
/// with it unanswered; the second connection answers everything. The
/// client's health check cannot see this coming — the socket is fine until
/// the request is already on it.
fn restarting_peer() -> SocketAddr {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    std::thread::spawn(move || {
        for (n, stream) in listener.incoming().take(2).enumerate() {
            let Ok(mut stream) = stream else { return };
            let mut served = 0;
            while let Ok(Some(env)) = read_frame::<_, Envelope<Request>>(&mut stream) {
                if n == 0 && served == 1 {
                    break; // the "restart": hang up on a request in hand
                }
                let reply = Envelope {
                    ctx: None,
                    deadline_ms: None,
                    request_id: env.request_id,
                    msg: Response::Ok,
                };
                if write_frame(&mut stream, &reply).is_err() {
                    break;
                }
                served += 1;
            }
        }
    });
    addr
}

#[test]
fn a_reused_socket_lost_to_a_restart_costs_one_stale_retry_and_no_budget() {
    // The second call, or the whole burst, is what the restart swallows.
    for burst in [1usize, 2] {
        let addr = restarting_peer();
        let reg = Arc::new(Registry::new());
        let breakers = Arc::new(BreakerSet::default());
        let opts = CallOptions {
            retry: RetryPolicy::standard(1),
            ..options(Transport::Pooled, &reg, &breakers)
        };
        let req = Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        // Warm the socket, then lose it mid-call.
        assert_eq!(call_with(addr, &req, &opts).unwrap(), Response::Ok);
        for reply in call_batch(addr, &vec![req; burst], &opts) {
            assert_eq!(
                reply.unwrap(),
                Response::Ok,
                "burst of {burst}: the lost socket is invisible to the caller"
            );
        }
        let snap = reg.snapshot();
        let count = |name: &str| snap.counter_sum(name, &[]);
        assert_eq!(
            count("net_pool_stale_retries_total"),
            1,
            "burst of {burst}: one stale retry"
        );
        assert_eq!(
            count("net_call_attempts_total"),
            1 + burst as u64,
            "burst of {burst}: one attempt per request"
        );
        assert_eq!(count("net_call_retries_total"), 0, "burst of {burst}");
        assert_eq!(count("net_call_failures_total"), 0, "burst of {burst}");
        assert_eq!(
            breakers.breaker(addr).state_name(),
            breaker_state::CLOSED,
            "burst of {burst}"
        );
    }
}
