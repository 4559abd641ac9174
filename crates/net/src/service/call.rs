//! The client call path: one request (or one pipelined burst) to one peer
//! is admit → exchange → grade, whatever transport carries it.

use super::time::{RetryPolicy, Timeouts};
use crate::fault::FaultPlan;
use crate::overload::BreakerSet;
use crate::pool::ConnPool;
use crate::proto::{
    apply_receive_faults, is_disconnect_error, is_overload_error, parse_payload, read_frame_with,
    write_frame_with, Envelope, ProtoError, Request, Response, MAX_FRAME,
};
use crate::reactor::{poll_ready, FrameBuf, Interest, WriteQueue};
use faucets_telemetry::metrics::{global, Registry};
use faucets_telemetry::trace::{self, TraceContext};
use parking_lot::Mutex;
use serde::Serialize;
use std::io::{self, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
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
    /// Persistent connection pool shared across calls: each round trip (or
    /// pipelined [`call_batch`] burst) has a health-checked warm socket of
    /// the pool to itself instead of opening a fresh TCP connection. Any
    /// failure poisons the socket (closed, never reused), so retries,
    /// deadlines, breakers, and fault injection behave exactly as on
    /// per-call connections. `None` (the default) keeps the seed's
    /// connection-per-call behaviour.
    pub pool: Option<Arc<ConnPool>>,
    /// The frozen benchmark harness's name for [`CallOptions::pool`]: the
    /// same thing, looked at first when both are set.
    pub mux: Option<Arc<ConnPool>>,
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

/// Pipeline a batch of requests on one pooled socket: every request frame
/// is written in a vectored burst (one syscall for the whole batch on the
/// happy path), all of them are then in flight at once, and replies are
/// collected as they come back — in any order, matched by `request_id` —
/// into a result vector index-aligned with `reqs`.
///
/// Without a pool ([`CallOptions::pool`]) this degrades to sequential
/// [`call_with`] calls. With one, each result maps exactly as `call_with`
/// maps it (`Response::Overloaded` becomes a typed error, breaker
/// bookkeeping per result) — but there is **no retry loop** inside the
/// batch; callers that want retries issue them per failed slot.
pub fn call_batch(
    addr: SocketAddr,
    reqs: &[Request],
    opts: &CallOptions,
) -> Vec<io::Result<Response>> {
    if reqs.is_empty() {
        return vec![];
    }
    if opts.pool.is_none() && opts.mux.is_none() {
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

/// Send `reqs` to `addr` over the transport the options select: a pooled
/// socket, or a connection per call.
fn exchange(
    addr: SocketAddr,
    reqs: &[Request],
    opts: &CallOptions,
    deadline: Option<Instant>,
    reg: &Registry,
) -> Vec<io::Result<Response>> {
    let Some(pool) = opts.mux.as_ref().or(opts.pool.as_ref()) else {
        // Seed behaviour: one connection per call.
        let each = |req| {
            let mut stream = TcpStream::connect_timeout(&addr, opts.connect)?;
            round_trip(&mut stream, req, opts, deadline)
        };
        return reqs.iter().map(each).collect();
    };
    let mut reused = false;
    let results = pool.exchange(addr, reqs, opts, deadline, false, &mut reused);
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
    reg.counter("net_pool_stale_retries_total", &[("pool", pool.name())])
        .inc();
    pool.exchange(addr, reqs, opts, deadline, true, &mut reused)
}

/// `io::Error` is not `Clone`; its kind and message are.
pub(crate) fn copy_of(e: &io::Error) -> io::Error {
    io::Error::new(e.kind(), e.to_string())
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
fn remaining_ms(deadline: Option<Instant>) -> Option<u64> {
    deadline.map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64)
}

/// Write `req` to `w` in its envelope: the one place a request is stamped.
/// A fault plan may "lose" the frame — nothing is written, and the
/// caller's read times out as on a real lossy wire.
fn stamp<W: Write>(
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

/// One exchange on an established stream this caller holds exclusively:
/// the index-aligned results, and whether the stream is still clean —
/// every request answered and not a byte more — and so may be reused.
pub(crate) fn converse(
    stream: &mut TcpStream,
    reqs: &[Request],
    opts: &CallOptions,
    deadline: Option<Instant>,
) -> (Vec<io::Result<Response>>, bool) {
    // A lone request (every negotiation RPC) is a blocking round trip:
    // pipelined at N = 1, `rpc_pingpong` read −9.1 % `throughput_ops_s` and
    // +10.1 % `cpu_ms_per_op` in 5 of 5 alternating pairs (PR 18).
    if let [req] = reqs {
        let reply = round_trip(stream, req, opts, deadline);
        let clean = reply.is_ok();
        return (vec![reply], clean);
    }
    let mut slots: Vec<Option<Response>> = reqs.iter().map(|_| None).collect();
    let outcome = pipeline(stream, reqs, &mut slots, opts, deadline);
    let fill = |slot: Option<Response>| {
        slot.ok_or_else(|| copy_of(outcome.as_ref().expect_err("an empty slot has a reason")))
    };
    (slots.into_iter().map(fill).collect(), outcome.is_ok())
}

/// Pipeline a burst on the caller's own thread: each request is stamped
/// with its own `request_id`, the frames drain from a [`WriteQueue`] while
/// replies are reassembled in a [`FrameBuf`] — both at once, under
/// [`poll_ready`], so a burst larger than the socket buffers cannot wedge
/// this writer against the peer's. A reply fills only the slot whose id it
/// carries, and only once. `Ok`: every slot is filled and the stream holds
/// nothing more. `Err` — a fault, a timeout, EOF, a reply with a foreign,
/// repeated or missing id — is why the remaining slots stay empty.
fn pipeline(
    stream: &mut TcpStream,
    reqs: &[Request],
    slots: &mut [Option<Response>],
    opts: &CallOptions,
    deadline: Option<Instant>,
) -> io::Result<()> {
    // Ids never repeat within the process, so a reply left over from an
    // earlier burst on this socket is foreign to this one.
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    let first_id = NEXT_ID.fetch_add(reqs.len() as u64, Ordering::Relaxed);
    let faults = opts.faults.as_deref();
    let (ctx, budget) = (trace::current(), remaining_ms(deadline));
    let mut out = WriteQueue::default();
    for (id, req) in (first_id..).zip(reqs) {
        let mut frame = Vec::new();
        stamp(&mut frame, req, Some(id), ctx, budget, faults)?;
        out.push(frame);
    }
    let invalid = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why);
    stream.set_nodelay(true)?;
    stream.set_nonblocking(true)?;
    let mut replies = FrameBuf::new(MAX_FRAME as usize);
    let mut open = slots.len();
    while open > 0 {
        // Write what the socket takes (the first pass without asking: a
        // checked-out socket has room), then sleep until it takes more or
        // the peer has answered.
        match out.flush(stream) {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => return Err(e),
            _ => {}
        }
        let (want, patience) = if out.is_empty() {
            (Interest::READ, opts.timeouts.read)
        } else {
            (Interest::BOTH, opts.timeouts.write)
        };
        let ready = poll_ready(stream.as_raw_fd(), want, patience)?;
        if !ready.readable && !ready.writable {
            let why = "no reply within the timeout (the request may still complete remotely)";
            return Err(io::Error::new(io::ErrorKind::TimedOut, why));
        }
        if !ready.readable {
            continue;
        }
        // Replies that came with the peer's hang-up are still replies.
        let filled = replies.fill_from(stream);
        while let Some(mut payload) = replies.next_frame()? {
            apply_receive_faults(&mut payload, faults);
            let env: Envelope<Response> = parse_payload(&payload)?;
            let slot = env
                .request_id
                .and_then(|id| id.checked_sub(first_id))
                .and_then(|i| slots.get_mut(usize::try_from(i).ok()?))
                .filter(|slot| slot.is_none())
                .ok_or_else(|| invalid("reply carries no unanswered request id of this burst"))?;
            *slot = Some(env.msg);
            open -= 1;
        }
        filled?;
    }
    if replies.pending_bytes() > 0 {
        return Err(invalid("bytes after the burst's last reply"));
    }
    // Back to blocking: `round_trip` and the pool's health check assume it.
    stream.set_nonblocking(false)
}

/// Fan one request out to many peers concurrently over at most
/// `max_concurrency` threads, each call going through [`call_with`] with
/// the full retry/breaker/deadline/pool machinery. The result vector is
/// index-aligned with `addrs`, and every worker runs under the calling
/// thread's trace context, so the fan-out's frames all join the caller's
/// trace — this is the client's one-round bid solicitation (§2.2) over
/// warm pooled connections, each worker holding its socket for its round
/// trip.
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
    fn lone_calls_and_a_pipelined_batch_share_one_pooled_connection() {
        use crate::pool::{ConnPool, PoolConfig};
        let server_reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "burst",
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
        let pool = Arc::new(ConnPool::new("test-burst", PoolConfig::default()));
        let call_reg = Arc::new(Registry::new());
        let opts = CallOptions {
            pool: Some(Arc::clone(&pool)),
            registry: Some(Arc::clone(&call_reg)),
            ..CallOptions::default()
        };
        let lone = Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        for _ in 0..5 {
            assert_eq!(call_with(h.addr, &lone, &opts).unwrap(), Response::Ok);
        }
        // A batch pipelines on the same socket, results index-aligned.
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
        // The burst left the socket in blocking mode, clean: the next lone
        // round trip takes it straight back out of the pool.
        assert_eq!(call_with(h.addr, &lone, &opts).unwrap(), Response::Ok);
        assert_eq!(
            server_reg
                .snapshot()
                .counter_sum("net_conns_accepted_total", &[("service", "burst")]),
            1,
            "six calls and an 8-deep batch all shared one connection"
        );
        assert_eq!(pool.open_connections(), 1);
        let snap = call_reg.snapshot();
        let count = |name: &str| snap.counter_sum(name, &[("pool", "test-burst")]);
        assert_eq!(count("net_pool_misses_total"), 1, "one dial");
        assert_eq!(count("net_pool_hits_total"), 6, "a burst is one checkout");
        assert_eq!(count("net_pool_poisoned_total"), 0);
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
