//! The client call path: one pass of one request (or one pipelined burst)
//! to one peer is two halves — *launch* (admit → a socket → write) and
//! *land* (read → settle the socket → grade) — whichever pool lent the
//! socket and whichever entry point the call came in by.

use super::time::{RetryPolicy, Timeouts};
use crate::fault::FaultPlan;
use crate::overload::BreakerSet;
use crate::pool::{ConnPool, PoolConfig, PooledConn};
use crate::proto::{
    apply_receive_faults, is_disconnect_error, is_overload_error, parse_payload, read_frame_with,
    write_frame_with, Envelope, ProtoError, Request, Response, MAX_FRAME,
};
use crate::reactor::{poll_ready, FrameBuf, Interest, WriteQueue};
use faucets_telemetry::metrics::{global, Registry};
use faucets_telemetry::trace::{self, TraceContext};
use serde::Serialize;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LazyLock};
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
    /// Persistent connection pool shared across calls: each round trip,
    /// pipelined [`call_batch`] burst or [`call_many`] slot has a
    /// health-checked warm socket of the pool to itself instead of opening
    /// a fresh TCP connection. Any failure poisons the socket (closed,
    /// never reused), so retries, deadlines, breakers, and fault injection
    /// behave alike with and without one. `None` (the default) is the
    /// process's pool that keeps nothing (`conns_per_peer` 0, telemetry
    /// label `per-call`): every pass dials a socket of its own and closes
    /// it after — the seed's connection per call, down the same path.
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
    let leg = Leg::new(addr, std::slice::from_ref(req), opts);
    let mut replies = leg.persist(opts.retry.attempts, leg.attempt());
    // A pass answers every request of its leg, and this leg has one.
    replies.pop().expect("one result per request")
}

/// Pipeline a batch of requests on one socket — checked out of
/// [`CallOptions::pool`], or dialled fresh without one: every request frame
/// is written in a vectored burst (one syscall for the whole batch on the
/// happy path), all of them are then in flight at once, and replies are
/// collected as they come back — in any order, matched by `request_id` —
/// into a result vector index-aligned with `reqs`.
///
/// Each result maps exactly as `call_with` maps it (`Response::Overloaded`
/// becomes a typed error, breaker bookkeeping per result) — but there is
/// **no retry loop** inside the batch; callers that want retries issue
/// them per failed slot.
pub fn call_batch(
    addr: SocketAddr,
    reqs: &[Request],
    opts: &CallOptions,
) -> Vec<io::Result<Response>> {
    if reqs.is_empty() {
        return vec![];
    }
    let leg = Leg::new(addr, reqs, opts);
    leg.persist(1, leg.attempt())
}

/// Solicit many peers with one request — the client's one-round bid
/// solicitation (§2.2) — on the caller's own thread, index-aligned results
/// back.
///
/// The peers are taken in sweeps of at most `max_concurrency`. A sweep
/// launches every peer's leg — through its breaker, onto a socket of its
/// own out of [`CallOptions::pool`] — so all the peers work at once, then
/// lands each leg in address order, exactly as a lone [`call_with`] lands
/// its one. One request per socket cannot wedge writer against
/// writer, so the writes and reads are plain blocking ones.
///
/// **A sweep's patience is one timeout.** Each of its reads gets the
/// remainder of one `timeouts.read`, counted from the sweep's last write
/// (floor 1 ms: a reply already in the socket is still collected), so a
/// sweep waits for its slowest peer, never for the sum of them. Only after
/// its last landing does a slot that failed in transport go on to
/// [`call_with`]'s backoff and retries, under the caller's budget and
/// deadline, with the same counters and breaker bookkeeping.
pub fn call_many(
    addrs: &[SocketAddr],
    req: &Request,
    opts: &CallOptions,
    max_concurrency: usize,
) -> Vec<io::Result<Response>> {
    let reqs = std::slice::from_ref(req);
    let legs: Vec<Leg> = addrs.iter().map(|&a| Leg::new(a, reqs, opts)).collect();
    let mut results = Vec::with_capacity(legs.len());
    for sweep in legs.chunks(max_concurrency.max(1)) {
        let flights: Vec<Flight> = sweep.iter().map(Leg::launch).collect();
        let patience_ends = Instant::now() + opts.timeouts.read;
        let landed: Vec<Replies> = std::iter::zip(sweep, flights)
            .map(|(leg, flight)| {
                let left = patience_ends.saturating_duration_since(Instant::now());
                leg.land(flight, left.max(Duration::from_millis(1)))
            })
            .collect();
        results.extend(std::iter::zip(sweep, landed).map(|(leg, first)| {
            // Each leg carries the one `req`, so its pass answers once.
            let last = leg.persist(opts.retry.attempts, first).pop();
            last.expect("one result per request")
        }));
    }
    results
}

/// Bump one of the caller-side, per-endpoint `net_call_*` counters.
fn count(reg: &Registry, name: &str, req: &Request) {
    reg.counter(name, &[("endpoint", req.endpoint())]).inc();
}

/// Index-aligned results of a leg's requests.
type Replies = Vec<io::Result<Response>>;

/// The pool the options select, or the process's one that keeps nothing.
fn pool_of(opts: &CallOptions) -> &Arc<ConnPool> {
    static PER_CALL: LazyLock<Arc<ConnPool>> = LazyLock::new(|| {
        let keep_nothing = PoolConfig {
            conns_per_peer: 0,
            ..PoolConfig::default()
        };
        Arc::new(ConnPool::new("per-call", keep_nothing))
    });
    let chosen = opts.mux.as_ref().or(opts.pool.as_ref());
    chosen.unwrap_or(&PER_CALL)
}

/// One peer's share of a call: what is asked of whom, under whose options,
/// by when.
struct Leg<'a> {
    addr: SocketAddr,
    reqs: &'a [Request],
    opts: &'a CallOptions,
    /// [`CallOptions::deadline`] from the moment the call began.
    deadline: Option<Instant>,
}

/// A pass of a [`Leg`] between its two halves.
enum Flight {
    /// Refused by the peer's open breaker: nothing was sent, and the typed
    /// errors are final — not graded, not retried.
    Shed(Replies),
    /// On a socket: the replies are awaited there, unless the write failed.
    Aloft(PooledConn, io::Result<Burst>),
    /// No socket to be had.
    Grounded(io::Error),
}

/// What [`send`] leaves [`pipeline`] of a burst: the frames the socket has
/// not taken yet, and its first `request_id`. Of a lone request, nothing.
type Burst = (WriteQueue, u64);

impl<'a> Leg<'a> {
    fn new(addr: SocketAddr, reqs: &'a [Request], opts: &'a CallOptions) -> Self {
        let deadline = opts.deadline.map(|d| Instant::now() + d);
        Leg {
            addr,
            reqs,
            opts,
            deadline,
        }
    }

    fn reg(&self) -> &'a Registry {
        effective(&self.opts.registry)
    }

    /// Bump a caller-side `net_call_*` counter once per request.
    fn count_each(&self, name: &str) {
        self.reqs.iter().for_each(|r| count(self.reg(), name, r));
    }

    /// The same transport error in every slot; the last one holds `e` itself.
    fn fail_all(&self, e: io::Error) -> Replies {
        let mut all: Replies = self.reqs[1..].iter().map(|_| Err(copy_of(&e))).collect();
        all.push(Err(e));
        all
    }

    /// The passes after the first, whose graded `results` come in: up to
    /// `attempts - 1` more while every slot is a transport failure, then
    /// the failure count. (A lone request brings its retry budget; a batch
    /// brings one attempt.)
    fn persist(&self, attempts: u32, mut results: Replies) -> Replies {
        // Only a transport failure earns another pass. An answer stands,
        // and so does a shed — by the peer or by the local breaker —
        // because retrying one would feed the storm.
        let failed = |r: &io::Result<Response>| matches!(r, Err(e) if !is_overload_error(e));
        for retry in 1..attempts {
            if !results.iter().all(failed) {
                break;
            }
            // Retry wall-clock is capped by the caller's deadline: a
            // backoff that would sleep into (or past) it can only produce
            // an answer the caller has already abandoned.
            let backoff = self.opts.retry.backoff(retry);
            if self.deadline.is_some_and(|d| Instant::now() + backoff >= d) {
                self.count_each("net_call_deadline_exhausted_total");
                break;
            }
            // Every backoff decision is counted, so chaos tests can assert
            // "the caller retried N times" instead of sleeping and hoping.
            self.count_each("net_call_retries_total");
            std::thread::sleep(backoff);
            results = self.attempt();
        }
        for (result, req) in results.iter().zip(self.reqs) {
            if failed(result) {
                count(self.reg(), "net_call_failures_total", req);
            }
        }
        results
    }

    /// One pass against the peer: both halves, back to back.
    fn attempt(&self) -> Replies {
        self.land(self.launch(), self.opts.timeouts.read)
    }

    /// The first half of a pass: through the breaker, onto a socket.
    fn launch(&self) -> Flight {
        match self.admit() {
            Ok(()) => self.depart(false),
            Err(shed) => Flight::Shed(shed),
        }
    }

    /// Admit: one breaker decision gates the whole burst. An open breaker
    /// fast-fails locally — no connect, no retry storm against a peer that
    /// is dead or drowning — with its cooldown as the retry hint, one
    /// typed error per request in `Err`.
    fn admit(&self) -> Result<(), Replies> {
        let (addr, reg) = (self.addr, self.reg());
        let breakers = self.opts.breakers.as_ref();
        if let Some(open) = breakers.filter(|b| !b.allow(addr, reg)) {
            let retry_after_ms = open.config().cooldown.as_millis() as u64;
            let shed = |req| {
                count(reg, "net_breaker_fastfails_total", req);
                Err(ProtoError::Overloaded { retry_after_ms }.into())
            };
            return Err(self.reqs.iter().map(shed).collect());
        }
        self.count_each("net_call_attempts_total");
        Ok(())
    }

    /// Check a socket out of the pool (a newly dialled one when `fresh`)
    /// and [`send`] on it what can be written without reading.
    fn depart(&self, fresh: bool) -> Flight {
        let (opts, reg) = (self.opts, self.reg());
        match pool_of(opts).checkout(self.addr, opts.connect, fresh, reg) {
            Ok(mut conn) => {
                let sent = send(conn.stream(), self.reqs, opts, self.deadline);
                Flight::Aloft(conn, sent)
            }
            Err(e) => Flight::Grounded(e),
        }
    }

    /// The second half of a pass: read the replies (each wait for one at
    /// most `patience`), settle the socket — clean, with every request
    /// answered and not a byte more, or never to be lent again — and grade.
    ///
    /// A *reused* socket that died on first use usually went stale between
    /// its last use and this write (the peer restarted while it sat idle).
    /// One immediate second flight on a fresh connection keeps that
    /// invisible, without consuming the caller's retry budget — and only
    /// when every slot came back a disconnect, never for timeouts, where
    /// the request may still be running remotely.
    fn land(&self, mut flight: Flight, mut patience: Duration) -> Replies {
        let disconnected = |r: &io::Result<Response>| matches!(r, Err(e) if is_disconnect_error(e));
        loop {
            let (results, reused) = match flight {
                Flight::Shed(shed) => return shed,
                Flight::Grounded(e) => (self.fail_all(e), false),
                Flight::Aloft(mut conn, sent) => {
                    let (results, clean) = match sent {
                        Err(e) => (self.fail_all(e), false),
                        // A lone request (every negotiation RPC) is a
                        // blocking round trip: pipelined at N = 1,
                        // `rpc_pingpong` read −9.1 % `throughput_ops_s` and
                        // +10.1 % `cpu_ms_per_op` in 5 of 5 alternating
                        // pairs (PR 18).
                        Ok(_) if self.reqs.len() == 1 => {
                            let reply = receive(conn.stream(), patience);
                            let clean = reply.is_ok();
                            (vec![reply], clean)
                        }
                        Ok(mut burst) => {
                            let mut slots: Vec<_> = self.reqs.iter().map(|_| None).collect();
                            let stream = conn.stream();
                            let outcome =
                                pipeline(stream, &mut burst, &mut slots, self.opts, patience);
                            let why = || outcome.as_ref().expect_err("an empty slot has a reason");
                            let fill = |slot: Option<Response>| slot.ok_or_else(|| copy_of(why()));
                            (slots.into_iter().map(fill).collect(), outcome.is_ok())
                        }
                    };
                    let reused = conn.reused;
                    conn.settle(clean, self.reg());
                    (results, reused)
                }
            };
            if !(reused && results.iter().all(disconnected)) {
                return self.grade(results);
            }
            let stale = "net_pool_stale_retries_total";
            let pool = pool_of(self.opts).name();
            self.reg().counter(stale, &[("pool", pool)]).inc();
            // Newly dialled, so this flight cannot come back stale again.
            flight = self.depart(true);
            patience = self.opts.timeouts.read;
        }
    }

    /// Grade each slot. Any answer is a breaker success — `Overloaded`
    /// included: the peer is alive, just shedding — and a transport error
    /// a failure. The caller gets an `Overloaded` answer as the typed
    /// error that no layer above retries.
    fn grade(&self, mut results: Replies) -> Replies {
        let (addr, reg) = (self.addr, self.reg());
        for (result, req) in results.iter_mut().zip(self.reqs) {
            if let Some(breakers) = &self.opts.breakers {
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
}

/// `io::Error` is not `Clone`; its kind and message are.
fn copy_of(e: &io::Error) -> io::Error {
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

/// The write half of an exchange on a stream this caller holds
/// exclusively, and the one place a request is stamped into its envelope.
/// A fault plan may "lose" a frame: nothing of it is written, and the
/// caller's read times out as on a real lossy wire.
///
/// A lone request goes out whole, under the write timeout. A burst makes
/// the socket nonblocking, stamps each request with its own `request_id`
/// and writes what the socket takes at once (a checked-out socket has
/// room): back comes what [`pipeline`] has still to write.
fn send(
    stream: &mut TcpStream,
    reqs: &[Request],
    opts: &CallOptions,
    deadline: Option<Instant>,
) -> io::Result<Burst> {
    // Ids never repeat within the process, so a reply left over from an
    // earlier burst on this socket is foreign to this one.
    static NEXT_ID: AtomicU64 = AtomicU64::new(1);
    let faults = opts.faults.as_deref();
    let ctx = trace::current();
    let deadline_ms =
        deadline.map(|d| d.saturating_duration_since(Instant::now()).as_millis() as u64);
    let envelope = |msg, request_id| EnvelopeRef {
        ctx,
        deadline_ms,
        request_id,
        msg,
    };
    let mut unsent = WriteQueue::default();
    if let [req] = reqs {
        stream.set_write_timeout(Some(opts.timeouts.write))?;
        write_frame_with(stream, &envelope(req, None), faults)?;
        return Ok((unsent, 0));
    }
    let first_id = NEXT_ID.fetch_add(reqs.len() as u64, Ordering::Relaxed);
    for (id, req) in (first_id..).zip(reqs) {
        let mut frame = Vec::new();
        write_frame_with(&mut frame, &envelope(req, Some(id)), faults)?;
        unsent.push(frame);
    }
    stream.set_nonblocking(true)?;
    match unsent.flush(stream) {
        Err(e) if e.kind() != io::ErrorKind::WouldBlock => Err(e),
        _ => Ok((unsent, first_id)),
    }
}

/// The read half for a lone request: the stream's next frame, waited for
/// `patience`.
fn receive(stream: &mut TcpStream, patience: Duration) -> io::Result<Response> {
    stream.set_read_timeout(Some(patience))?;
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

/// The read half for a burst, on the caller's own thread: the frames
/// [`send`] left unsent drain from their [`WriteQueue`] while replies are
/// reassembled in a [`FrameBuf`] — both at once, under [`poll_ready`], so a
/// burst larger than the socket buffers cannot wedge this writer against
/// the peer's. A reply fills only the slot whose id it carries, and only
/// once. `Ok`: every slot is filled and the stream holds nothing more.
/// `Err` — a fault, a timeout, EOF, a reply with a foreign, repeated or
/// missing id — is why the remaining slots stay empty.
fn pipeline(
    stream: &mut TcpStream,
    (unsent, first_id): &mut Burst,
    slots: &mut [Option<Response>],
    opts: &CallOptions,
    patience: Duration,
) -> io::Result<()> {
    let faults = opts.faults.as_deref();
    let invalid = |why: &str| io::Error::new(io::ErrorKind::InvalidData, why);
    let mut replies = FrameBuf::new(MAX_FRAME as usize);
    let mut open = slots.len();
    while open > 0 {
        // Write what the socket takes, then sleep until it takes more or
        // the peer has answered.
        match unsent.flush(stream) {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => return Err(e),
            _ => {}
        }
        let (want, patience) = if unsent.is_empty() {
            (Interest::READ, patience)
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
                .and_then(|id| id.checked_sub(*first_id))
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
    // Back to blocking: a lone request and the pool's health check assume it.
    stream.set_nonblocking(false)
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
    fn a_batch_without_a_pool_pipelines_on_one_fresh_socket() {
        let server_reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "unpooled",
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
        let reqs: Vec<Request> = (0..8)
            .map(|i| Request::Login {
                user: format!("u{i}"),
                password: "p".into(),
            })
            .collect();
        let results = call_batch(h.addr, &reqs, &CallOptions::default());
        for (i, r) in results.iter().enumerate() {
            let reply = r.as_ref().expect("batch slot succeeded");
            assert_eq!(*reply, Response::Error(format!("u{i}")), "slot {i}");
        }
        let accepted = server_reg
            .snapshot()
            .counter_sum("net_conns_accepted_total", &[("service", "unpooled")]);
        assert_eq!(accepted, 1, "eight requests, one connection");
        h.shutdown();
    }

    #[test]
    fn a_sweep_without_a_pool_waits_one_timeout_not_one_per_peer() {
        // Stand-ins whose backlog completes the handshake and takes the
        // request, and which never answer.
        let mute: Vec<_> = (0..4)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let addrs: Vec<SocketAddr> = mute.iter().map(|l| l.local_addr().unwrap()).collect();
        let read = Duration::from_millis(300);
        let opts = CallOptions {
            timeouts: Timeouts::both(read),
            ..CallOptions::default()
        };
        let req = Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        let began = Instant::now();
        let results = call_many(&addrs, &req, &opts, addrs.len());
        let took = began.elapsed();
        for r in &results {
            let kind = r.as_ref().expect_err("nobody answers").kind();
            let timed_out = matches!(kind, io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut);
            assert!(timed_out, "a read timeout, not {kind:?}");
        }
        assert_eq!(results.len(), 4);
        assert!(took < 2 * read, "one patience for the sweep: {took:?}");
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
            "the solicited peers joined the caller's trace: {spans:?}"
        );
        ok.shutdown();
        err.shutdown();
    }

    /// A raw stand-in peer: answers every request `Ok` and hands the test
    /// each request envelope as it came off the wire.
    fn recording_peer() -> (SocketAddr, std::sync::mpsc::Receiver<Envelope<Request>>) {
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            for stream in listener.incoming() {
                let Ok(mut stream) = stream else { return };
                while let Ok(Some(env)) = read_frame_with::<_, Envelope<Request>>(&mut stream, None)
                {
                    let reply = Envelope {
                        request_id: env.request_id,
                        ..Envelope::wrap(Response::Ok)
                    };
                    if tx.send(env).is_err() || write_frame_with(&mut stream, &reply, None).is_err()
                    {
                        return;
                    }
                }
            }
        });
        (addr, rx)
    }

    #[test]
    fn a_round_stamps_the_callers_trace_and_deadline_as_call_with_does() {
        use crate::pool::{ConnPool, PoolConfig};
        let peers: Vec<_> = (0..3).map(|_| recording_peer()).collect();
        let addrs: Vec<SocketAddr> = peers.iter().map(|(addr, _)| *addr).collect();
        let opts = CallOptions {
            pool: Some(Arc::new(ConnPool::new("stamped", PoolConfig::default()))),
            deadline: Some(Duration::from_secs(5)),
            ..CallOptions::default()
        };
        let req = Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        let root = trace::span("client", "solicit");
        let seen = |peer: usize| peers[peer].1.try_recv().expect("the peer was asked");
        // Two sweeps: two peers, then the third.
        assert!(call_many(&addrs, &req, &opts, 2).iter().all(|r| r.is_ok()));
        let by_the_round: Vec<Envelope<Request>> = (0..3).map(seen).collect();
        assert_eq!(call_with(addrs[0], &req, &opts).unwrap(), Response::Ok);
        let by_call_with = seen(0);
        assert_eq!(by_call_with.ctx, Some(root.ctx()));
        for (peer, env) in by_the_round.into_iter().enumerate() {
            assert_eq!(env.ctx, by_call_with.ctx, "peer {peer}: the caller's span");
            assert_eq!(env.request_id, None, "peer {peer}: one frame at a time");
            let budget = env.deadline_ms.expect("the caller has a deadline");
            assert!((4_000..=5_000).contains(&budget), "peer {peer}: {budget}");
            assert_eq!(env.msg, req);
        }
    }

    #[test]
    fn sweeps_of_one_and_of_all_return_the_same_aligned_results() {
        use crate::pool::{ConnPool, PoolConfig};
        let named = |name: &'static str| {
            serve("127.0.0.1:0", name, move |_| Response::Error(name.into())).unwrap()
        };
        let live = [named("a"), named("b"), named("c")];
        // Bound and dropped within the statement: nobody listens there.
        let dead = std::net::TcpListener::bind("127.0.0.1:0").and_then(|l| l.local_addr());
        let dead = dead.unwrap();
        // `a` twice: two slots to one peer are two sockets, not one shared.
        let addrs = [live[0].addr, dead, live[1].addr, live[0].addr, live[2].addr];
        let req = Request::VerifyToken {
            token: faucets_core::auth::SessionToken("t".into()),
        };
        let round = |max_concurrency| {
            let opts = CallOptions {
                pool: Some(Arc::new(ConnPool::new("sweeps", PoolConfig::default()))),
                ..CallOptions::default()
            };
            call_many(&addrs, &req, &opts, max_concurrency)
                .into_iter()
                .map(|r| r.map_err(|e| e.kind()))
                .collect::<Vec<_>>()
        };
        let reply = |name: &str| Ok(Response::Error(name.into()));
        let expected = vec![
            reply("a"),
            Err(io::ErrorKind::ConnectionRefused),
            reply("b"),
            reply("a"),
            reply("c"),
        ];
        for max_concurrency in [1, 2, addrs.len(), 0, usize::MAX] {
            assert_eq!(
                round(max_concurrency),
                expected,
                "{max_concurrency} at once"
            );
        }
        live.into_iter().for_each(|h| h.shutdown());
    }
}
