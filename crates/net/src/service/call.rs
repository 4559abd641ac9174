//! The client call path: one request (or one pipelined burst) to one peer
//! is admit → exchange → grade, whatever transport carries it.

use super::time::{RetryPolicy, Timeouts};
use crate::fault::FaultPlan;
use crate::overload::BreakerSet;
use crate::pool::{ConnPool, MuxPool};
use crate::proto::{
    is_disconnect_error, is_overload_error, read_frame_with, write_frame_with, Envelope,
    ProtoError, Request, Response,
};
use faucets_telemetry::metrics::{global, Registry};
use faucets_telemetry::trace::{self, TraceContext};
use parking_lot::Mutex;
use serde::Serialize;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Options for [`call_with`].
#[derive(Clone)]
pub struct CallOptions {
    /// Socket deadlines for the round-trip.
    pub timeouts: Timeouts,
    /// Connection-establishment deadline.
    pub connect: Duration,
    /// Transport-failure retry policy (server `Response::Error`s are
    /// answers, not failures, and are never retried here).
    pub retry: RetryPolicy,
    /// Fault injection applied to this caller's traffic.
    pub faults: Option<Arc<FaultPlan>>,
    /// Metric registry for the caller-side attempt/retry/failure counters.
    /// `None` uses the process-global registry.
    pub registry: Option<Arc<Registry>>,
    /// Total wall-clock budget for the call, retries and backoff included.
    /// The remaining budget is stamped into the request's [`Envelope`]
    /// (`deadline_ms`) so the server can shed the work once it is doomed,
    /// and no retry backoff is allowed to sleep past it. `None` (the
    /// default) keeps the pre-deadline behaviour.
    pub deadline: Option<Duration>,
    /// Per-peer circuit breakers shared across calls: after enough
    /// consecutive transport failures the peer's breaker opens and calls
    /// fast-fail locally (typed [`ProtoError::Overloaded`]) until a
    /// cooldown probe succeeds. `None` (the default) disables breaking.
    pub breakers: Option<Arc<BreakerSet>>,
    /// Persistent connection pool shared across calls: each round-trip
    /// checks a health-checked warm socket out of the pool instead of
    /// opening a fresh TCP connection, and returns it afterwards. Any
    /// failure poisons the socket (closed, never reused), so retries,
    /// deadlines, breakers, and fault injection behave exactly as on
    /// per-call connections. `None` (the default) keeps the seed's
    /// connection-per-call behaviour.
    pub pool: Option<Arc<ConnPool>>,
    /// Multiplexed connections shared across calls: requests are stamped
    /// with a `request_id`, many can be in flight on one warm socket at
    /// once, and responses match back by id in any order (a dedicated
    /// reader thread demultiplexes). Takes precedence over
    /// [`CallOptions::pool`]. Retries, deadlines, breakers, and fault
    /// injection behave exactly as on pooled connections; a transport
    /// failure kills the shared socket and fails every call in flight on
    /// it with a typed disconnect, never a crossed wire. `None` (the
    /// default) keeps one-request-per-checkout semantics.
    pub mux: Option<Arc<MuxPool>>,
}

impl Default for CallOptions {
    fn default() -> Self {
        CallOptions {
            timeouts: Timeouts::default(),
            connect: Duration::from_secs(5),
            retry: RetryPolicy::none(),
            faults: None,
            registry: None,
            deadline: None,
            breakers: None,
            pool: None,
            mux: None,
        }
    }
}

/// Resolve an optional registry override to a usable reference.
pub(crate) fn effective(registry: &Option<Arc<Registry>>) -> &Registry {
    registry.as_deref().unwrap_or_else(|| global())
}

/// One round-trip request against a Faucets service, default options.
pub fn call(addr: SocketAddr, req: &Request) -> io::Result<Response> {
    call_with(addr, req, &CallOptions::default())
}

/// [`call`], with explicit timeouts, bounded retry, and optional fault
/// injection. Transport failures (connect, send, receive) are retried up
/// to the policy's budget with exponential backoff + jitter; a received
/// [`Response`] — including `Response::Error` — always returns.
pub fn call_with(addr: SocketAddr, req: &Request, opts: &CallOptions) -> io::Result<Response> {
    drive(addr, std::slice::from_ref(req), opts, opts.retry.attempts)
        .pop()
        .expect("one result per request")
}

/// Pipeline a batch of requests over one multiplexed connection: every
/// request frame is written in a single vectored burst (one syscall for
/// the whole batch on the happy path), all of them are then in flight at
/// once, and replies are collected as they come back — in any order,
/// matched by `request_id`. The result vector is index-aligned with
/// `reqs`.
///
/// Without [`CallOptions::mux`] this degrades to sequential [`call_with`]
/// calls. With it, per-request results map exactly as `call_with` maps
/// them (`Response::Overloaded` becomes a typed error, breaker bookkeeping
/// per result) — but there is **no retry loop** inside the batch; callers
/// that want retries issue them per failed slot.
pub fn call_batch(
    addr: SocketAddr,
    reqs: &[Request],
    opts: &CallOptions,
) -> Vec<io::Result<Response>> {
    if reqs.is_empty() {
        return vec![];
    }
    if opts.mux.is_none() {
        return reqs.iter().map(|r| call_with(addr, r, opts)).collect();
    }
    drive(addr, reqs, opts, 1)
}

/// Bump one of the caller-side, per-endpoint `net_call_*` counters.
fn count(reg: &Registry, name: &str, req: &Request) {
    reg.counter(name, &[("endpoint", req.endpoint())]).inc();
}

/// The one client call path: `reqs` go to `addr` in up to `attempts`
/// passes of admit → exchange → grade, index-aligned results back. (A
/// lone request brings its retry budget; a batch brings one attempt.)
fn drive(
    addr: SocketAddr,
    reqs: &[Request],
    opts: &CallOptions,
    attempts: u32,
) -> Vec<io::Result<Response>> {
    let reg = effective(&opts.registry);
    let deadline = opts.deadline.map(|d| Instant::now() + d);
    // Only a transport failure earns another pass. An answer stands, and
    // so does a shed — by the peer or by the local breaker — because
    // retrying one would feed the storm.
    let failed = |r: &io::Result<Response>| matches!(r, Err(e) if !is_overload_error(e));
    let mut results = attempt(addr, reqs, opts, deadline);
    for retry in 1..attempts {
        if !results.iter().all(failed) {
            break;
        }
        // Retry wall-clock is capped by the caller's deadline: a backoff
        // that would sleep into (or past) it can only produce an answer
        // the caller has already abandoned.
        let backoff = opts.retry.backoff(retry);
        if deadline.is_some_and(|d| Instant::now() + backoff >= d) {
            reqs.iter()
                .for_each(|r| count(reg, "net_call_deadline_exhausted_total", r));
            break;
        }
        // Every backoff decision is counted, so chaos tests can assert
        // "the caller retried N times" instead of sleeping and hoping.
        reqs.iter()
            .for_each(|r| count(reg, "net_call_retries_total", r));
        std::thread::sleep(backoff);
        results = attempt(addr, reqs, opts, deadline);
    }
    for (result, req) in results.iter().zip(reqs) {
        if failed(result) {
            count(reg, "net_call_failures_total", req);
        }
    }
    results
}

/// One pass of `reqs` against one peer, in three steps.
fn attempt(
    addr: SocketAddr,
    reqs: &[Request],
    opts: &CallOptions,
    deadline: Option<Instant>,
) -> Vec<io::Result<Response>> {
    let reg = effective(&opts.registry);
    // Admit: one breaker decision gates the whole burst. An open breaker
    // fast-fails locally — no connect, no retry storm against a peer that
    // is dead or drowning — with its cooldown as the retry hint.
    if let Some(open) = opts.breakers.as_ref().filter(|b| !b.allow(addr, reg)) {
        let retry_after_ms = open.config().cooldown.as_millis() as u64;
        let shed = |req| {
            count(reg, "net_breaker_fastfails_total", req);
            Err(ProtoError::Overloaded { retry_after_ms }.into())
        };
        return reqs.iter().map(shed).collect();
    }
    reqs.iter()
        .for_each(|r| count(reg, "net_call_attempts_total", r));
    let mut results = exchange(addr, reqs, opts, deadline, reg);
    // Grade each slot. Any answer is a breaker success — `Overloaded`
    // included: the peer is alive, just shedding — and a transport error a
    // failure. The caller gets an `Overloaded` answer as the typed error
    // that no layer above retries.
    for (result, req) in results.iter_mut().zip(reqs) {
        if let Some(breakers) = &opts.breakers {
            match result {
                Ok(_) => breakers.on_success(addr, reg),
                Err(_) => breakers.on_failure(addr, reg),
            }
        }
        if let Ok(Response::Overloaded { retry_after_ms }) = *result {
            count(reg, "net_call_overloaded_total", req);
            *result = Err(ProtoError::Overloaded { retry_after_ms }.into());
        }
    }
    results
}

/// Send `reqs` to `addr` over the transport the options select —
/// multiplexed over pooled over a connection per call.
fn exchange(
    addr: SocketAddr,
    reqs: &[Request],
    opts: &CallOptions,
    deadline: Option<Instant>,
    reg: &Registry,
) -> Vec<io::Result<Response>> {
    // One pass; a transport sets `reused` when its socket had carried
    // traffic before, and `fresh` asks a pool for a new connect.
    let pass = |fresh: bool, reused: &mut bool| -> Vec<io::Result<Response>> {
        if let Some(mux) = &opts.mux {
            // `Err`: nothing went out, so every slot fails the same way
            // (`io::Error` is not `Clone`; kind and message survive).
            return mux
                .exchange(addr, reqs, opts, deadline, reused)
                .unwrap_or_else(|e| {
                    let slot = |_| Err(io::Error::new(e.kind(), e.to_string()));
                    reqs.iter().map(slot).collect()
                });
        }
        let each = |req| match &opts.pool {
            Some(pool) => pool.round_trip(addr, req, opts, deadline, fresh, reused),
            // Seed behaviour: one connection per call.
            None => {
                let mut stream = TcpStream::connect_timeout(&addr, opts.connect)?;
                round_trip(&mut stream, req, opts, deadline)
            }
        };
        reqs.iter().map(each).collect()
    };
    let mut reused = false;
    let results = pass(false, &mut reused);
    // A *reused* socket that died on first use usually went stale between
    // its last use and this write (the peer restarted while it sat idle).
    // One immediate retry on a fresh connection keeps that invisible,
    // without consuming the caller's retry budget — and only when every
    // slot came back a disconnect, never for timeouts, where the request
    // may still be running remotely.
    let disconnected = |r: &io::Result<Response>| matches!(r, Err(e) if is_disconnect_error(e));
    if !(reused && results.iter().all(disconnected)) {
        return results;
    }
    let (counter, pool) = match (&opts.mux, &opts.pool) {
        (Some(mux), _) => ("net_mux_stale_retries_total", mux.name()),
        (None, Some(pool)) => ("net_pool_stale_retries_total", pool.name()),
        (None, None) => unreachable!("a per-call socket is never reused"),
    };
    reg.counter(counter, &[("pool", pool)]).inc();
    pass(true, &mut reused)
}

/// Borrowing twin of [`Envelope`] so the send path never clones the
/// request just to attach a context (field names must match `Envelope`).
#[derive(Serialize)]
struct EnvelopeRef<'a, T> {
    ctx: Option<TraceContext>,
    #[serde(skip_serializing_if = "Option::is_none")]
    deadline_ms: Option<u64>,
    #[serde(skip_serializing_if = "Option::is_none")]
    request_id: Option<u64>,
    msg: &'a T,
}

/// Milliseconds of budget left until `deadline`, for envelope stamping.
pub(crate) fn remaining_ms(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
}

/// Write `req` to `w` in its envelope: the one place a request is stamped.
/// A fault plan may "lose" the frame — nothing is written, and the
/// caller's read times out as on a real lossy wire.
pub(crate) fn stamp<W: Write>(
    w: &mut W,
    msg: &Request,
    request_id: Option<u64>,
    ctx: Option<TraceContext>,
    deadline_ms: Option<u64>,
    faults: Option<&FaultPlan>,
) -> io::Result<()> {
    let env = EnvelopeRef {
        ctx,
        deadline_ms,
        request_id,
        msg,
    };
    write_frame_with(w, &env, faults).map_err(io::Error::from)
}

/// One request/response exchange on an established stream.
pub(crate) fn round_trip(
    stream: &mut TcpStream,
    req: &Request,
    opts: &CallOptions,
    deadline: Option<Instant>,
) -> io::Result<Response> {
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(opts.timeouts.read))?;
    stream.set_write_timeout(Some(opts.timeouts.write))?;
    let (ctx, budget) = (trace::current(), remaining_ms(deadline));
    stamp(stream, req, None, ctx, budget, opts.faults.as_deref())?;
    read_frame_with::<_, Envelope<Response>>(stream, None)
        .map_err(io::Error::from)?
        .map(|e| e.msg)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before reply",
            )
        })
}

/// Fan one request out to many peers concurrently over at most
/// `max_concurrency` threads, each call going through [`call_with`] with
/// the full retry/breaker/deadline/pool machinery. The result vector is
/// index-aligned with `addrs`, and every worker runs under the calling
/// thread's trace context, so the fan-out's frames all join the caller's
/// trace — this is the client's one-round bid solicitation (§2.2) over
/// warm pooled connections. With [`CallOptions::mux`] set, concurrent
/// workers targeting the same peer share warm sockets and their frames
/// pipeline on them, instead of each worker holding a socket exclusively
/// for its round-trip.
pub fn call_many(
    addrs: &[SocketAddr],
    req: &Request,
    opts: &CallOptions,
    max_concurrency: usize,
) -> Vec<io::Result<Response>> {
    let n = addrs.len();
    if n == 0 {
        return vec![];
    }
    let ctx = trace::current();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<io::Result<Response>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..max_concurrency.clamp(1, n) {
            scope.spawn(|| {
                trace::propagate(ctx, || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    *slots[i].lock() = Some(call_with(addrs[i], req, opts));
                })
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .unwrap_or_else(|| Err(io::Error::other("fan-out worker vanished")))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::super::{serve, serve_with, ServeOptions};
    use super::*;
    use crate::fault::FaultConfig;

    #[test]
    fn echo_service_round_trip() {
        let h = serve("127.0.0.1:0", "echo", |req| match req {
            Request::Login { user, .. } => Response::Error(format!("hello {user}")),
            _ => Response::Ok,
        })
        .unwrap();
        let resp = call(
            h.addr,
            &Request::Login {
                user: "bob".into(),
                password: "x".into(),
            },
        )
        .unwrap();
        assert_eq!(resp, Response::Error("hello bob".into()));
        // Multiple sequential calls work.
        let resp = call(
            h.addr,
            &Request::VerifyToken {
                token: faucets_core::auth::SessionToken("t".into()),
            },
        )
        .unwrap();
        assert_eq!(resp, Response::Ok);
        h.shutdown();
    }

    #[test]
    fn retry_rides_out_dropped_frames() {
        // A caller that loses half the frames it sends: a single attempt
        // fails every other time; twelve attempts with backoff all but
        // never. The plan is on the caller and the calls run under a pinned
        // (absent) trace context, so every frame's bytes, and with them the
        // whole drop schedule, are the same in every run: a reply carries
        // the server span's fresh id, which is why a plan on the server
        // was seeded in name only. A lost frame costs one read timeout;
        // the retry *count* below is the assertion, not wall time.
        let plan = Arc::new(FaultPlan::new(
            77,
            FaultConfig {
                drop: 0.5,
                ..FaultConfig::none()
            },
        ));
        let h = serve("127.0.0.1:0", "echo", |_| Response::Ok).unwrap();
        let reg = Arc::new(Registry::new());
        let opts = CallOptions {
            timeouts: Timeouts::both(Duration::from_millis(150)),
            retry: RetryPolicy {
                attempts: 12,
                ..RetryPolicy::standard(5)
            },
            faults: Some(Arc::clone(&plan)),
            registry: Some(Arc::clone(&reg)),
            ..CallOptions::default()
        };
        trace::propagate(None, || {
            for i in 0..10 {
                let r = call_with(
                    h.addr,
                    &Request::Login {
                        user: format!("u{i}"),
                        password: "p".into(),
                    },
                    &opts,
                );
                assert!(r.is_ok(), "attempt {i} failed: {r:?}");
            }
        });
        assert!(plan.stats().dropped > 0, "the plan did inject loss");
        // The backoff decisions went through the caller's registry: every
        // lost frame shows up as a counted retry, none as a failure.
        let snap = reg.snapshot();
        assert!(
            snap.counter_sum("net_call_retries_total", &[("endpoint", "Login")])
                >= plan.stats().dropped,
            "every lost frame forces a counted retry"
        );
        assert!(snap.counter_sum("net_call_attempts_total", &[]) >= 10);
        assert_eq!(snap.counter_sum("net_call_failures_total", &[]), 0);
        h.shutdown();
    }

    #[test]
    fn killed_service_fails_fast_then_caller_times_out() {
        let h = serve("127.0.0.1:0", "victim", |_| Response::Ok).unwrap();
        let addr = h.addr;
        h.kill();
        std::thread::sleep(Duration::from_millis(20));
        let reg = Arc::new(Registry::new());
        let opts = CallOptions {
            timeouts: Timeouts::both(Duration::from_millis(250)),
            connect: Duration::from_millis(250),
            retry: RetryPolicy {
                attempts: 2,
                ..RetryPolicy::standard(1)
            },
            registry: Some(Arc::clone(&reg)),
            ..CallOptions::default()
        };
        let r = call_with(
            addr,
            &Request::VerifyToken {
                token: faucets_core::auth::SessionToken("x".into()),
            },
            &opts,
        );
        assert!(r.is_err(), "a killed service must not answer");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_sum("net_call_attempts_total", &[]),
            2,
            "both attempts counted"
        );
        assert_eq!(
            snap.counter_sum("net_call_failures_total", &[]),
            1,
            "exhaustion counted once"
        );
    }

    #[test]
    fn pooled_calls_reuse_one_connection() {
        use crate::pool::{ConnPool, PoolConfig};
        let server_reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "pooled",
            ServeOptions {
                registry: Some(Arc::clone(&server_reg)),
                ..ServeOptions::default()
            },
            |_| Response::Ok,
        )
        .unwrap();
        let pool = Arc::new(ConnPool::new("test", PoolConfig::default()));
        let call_reg = Arc::new(Registry::new());
        let opts = CallOptions {
            pool: Some(Arc::clone(&pool)),
            registry: Some(Arc::clone(&call_reg)),
            ..CallOptions::default()
        };
        for _ in 0..10 {
            let r = call_with(
                h.addr,
                &Request::VerifyToken {
                    token: faucets_core::auth::SessionToken("t".into()),
                },
                &opts,
            )
            .unwrap();
            assert_eq!(r, Response::Ok);
        }
        assert_eq!(pool.open_connections(), 1, "one warm socket did all ten");
        let snap = call_reg.snapshot();
        assert_eq!(snap.counter_sum("net_pool_misses_total", &[]), 1);
        assert_eq!(
            snap.counter_sum("net_pool_hits_total", &[("pool", "test")]),
            9
        );
        assert_eq!(
            server_reg
                .snapshot()
                .counter_sum("net_conns_accepted_total", &[("service", "pooled")]),
            1,
            "the server accepted exactly one connection"
        );
        h.shutdown();
    }

    #[test]
    fn mux_calls_share_one_connection_and_batch_pipelines() {
        use crate::pool::{MuxConfig, MuxPool};
        let server_reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "muxed",
            ServeOptions {
                registry: Some(Arc::clone(&server_reg)),
                ..ServeOptions::default()
            },
            |req| match req {
                Request::Login { user, .. } => Response::Error(user),
                _ => Response::Ok,
            },
        )
        .unwrap();
        let mux = Arc::new(MuxPool::new("test-mux", MuxConfig { conns_per_peer: 1 }));
        let opts = CallOptions {
            mux: Some(Arc::clone(&mux)),
            ..CallOptions::default()
        };
        // Sequential calls ride the same shared socket.
        for _ in 0..5 {
            let r = call_with(
                h.addr,
                &Request::VerifyToken {
                    token: faucets_core::auth::SessionToken("t".into()),
                },
                &opts,
            )
            .unwrap();
            assert_eq!(r, Response::Ok);
        }
        // A batch pipelines on it too, results index-aligned.
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request::Login {
                user: format!("u{i}"),
                password: "p".into(),
            })
            .collect();
        let results = call_batch(h.addr, &reqs, &opts);
        assert_eq!(results.len(), 8);
        for (i, r) in results.iter().enumerate() {
            assert_eq!(
                *r.as_ref().expect("batch slot succeeded"),
                Response::Error(format!("u{i}")),
                "slot {i} got its own reply"
            );
        }
        assert_eq!(
            server_reg
                .snapshot()
                .counter_sum("net_conns_accepted_total", &[("service", "muxed")]),
            1,
            "five calls and an 8-deep batch all shared one connection"
        );
        assert_eq!(mux.open_connections(), 1);
        h.shutdown();
    }

    #[test]
    fn call_many_aligns_results_and_joins_the_trace() {
        let ok = serve("127.0.0.1:0", "fan-ok", |_| Response::Ok).unwrap();
        let err = serve("127.0.0.1:0", "fan-err", |_| Response::Error("no".into())).unwrap();
        let addrs = [ok.addr, err.addr, ok.addr];
        let req = Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        let trace_id;
        let results;
        {
            let root = trace::span("client", "solicit");
            trace_id = root.trace();
            results = call_many(&addrs, &req, &CallOptions::default(), 2);
        }
        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().unwrap(), Response::Ok);
        assert_eq!(*results[1].as_ref().unwrap(), Response::Error("no".into()));
        assert_eq!(*results[2].as_ref().unwrap(), Response::Ok);
        let spans = trace::spans_for(trace_id);
        assert!(
            spans.iter().any(|s| s.service == "fan-ok"),
            "fan-out worker threads carried the caller's trace: {spans:?}"
        );
        ok.shutdown();
        err.shutdown();
    }
}
