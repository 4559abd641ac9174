//! Transport parity: the client call path is one `admit → exchange →
//! grade` pipeline, so what a caller gets back — and what the breaker and
//! the `net_call_*` counters record — may depend on the *outcome* of a
//! call but never on which transport carried it, nor on whether it went in
//! through `call_with` or as a one-element `call_batch`.

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
    Mux,
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
    BatchOfOne,
}

/// Everything observable about one call.
#[derive(Debug, PartialEq)]
struct Observed {
    /// `Ok(response)`, `Err("overloaded:<hint>")` or `Err("transport")`.
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
        mux: (transport == Transport::Mux)
            .then(|| Arc::new(MuxPool::new("parity", MuxConfig::default()))),
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
    let result = match entry {
        Entry::CallWith => call_with(addr, &req, &opts),
        Entry::BatchOfOne => {
            let mut results = call_batch(addr, std::slice::from_ref(&req), &opts);
            assert_eq!(results.len(), 1, "one slot per request");
            results.pop().unwrap()
        }
    };
    let result = result.map_err(|e| {
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
    });
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

fn expected(outcome: Outcome) -> Observed {
    let quiet = Observed {
        result: Ok(Response::Ok),
        attempts: 1,
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
            overloaded: 1,
            ..quiet
        },
        Outcome::TransportError => Observed {
            result: Err("transport".into()),
            failures: 1,
            breaker_transitions: 1,
            breaker: breaker_state::OPEN,
            ..quiet
        },
        // Shed locally, before the network: no attempt is counted.
        Outcome::BreakerOpen => Observed {
            result: Err(format!("overloaded:{}", COOLDOWN.as_millis())),
            attempts: 0,
            fastfails: 1,
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
        for transport in [Transport::PerCall, Transport::Pooled, Transport::Mux] {
            for entry in [Entry::CallWith, Entry::BatchOfOne] {
                assert_eq!(
                    observe(transport, outcome, entry),
                    expected(outcome),
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
    for (transport, stale_counter) in [
        (Transport::Pooled, "net_pool_stale_retries_total"),
        (Transport::Mux, "net_mux_stale_retries_total"),
    ] {
        let addr = restarting_peer();
        let reg = Arc::new(Registry::new());
        let breakers = Arc::new(BreakerSet::default());
        let opts = CallOptions {
            retry: RetryPolicy::standard(1),
            ..options(transport, &reg, &breakers)
        };
        let req = Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        // Warm the socket, then lose it mid-call.
        assert_eq!(call_with(addr, &req, &opts).unwrap(), Response::Ok);
        assert_eq!(
            call_with(addr, &req, &opts).unwrap(),
            Response::Ok,
            "{transport:?}: the lost socket is invisible to the caller"
        );
        let snap = reg.snapshot();
        let count = |name: &str| snap.counter_sum(name, &[]);
        assert_eq!(
            count(stale_counter),
            1,
            "{transport:?}: one stale retry, under its transport's name"
        );
        assert_eq!(
            count("net_pool_stale_retries_total") + count("net_mux_stale_retries_total"),
            1,
            "{transport:?}: and under no other"
        );
        assert_eq!(
            count("net_call_attempts_total"),
            2,
            "{transport:?}: one attempt per call"
        );
        assert_eq!(count("net_call_retries_total"), 0, "{transport:?}");
        assert_eq!(count("net_call_failures_total"), 0, "{transport:?}");
        assert_eq!(
            breakers.breaker(addr).state_name(),
            breaker_state::CLOSED,
            "{transport:?}"
        );
    }
}
