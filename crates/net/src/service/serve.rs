//! The serve path: a leader/follower pool, its threads spawned as
//! concurrency needs them, up to `workers`. Every waiting worker blocks in
//! `epoll_wait` on the service's one one-shot epoll set; the thread that
//! takes a connection's readiness reads it, runs its complete frames in
//! order (fault injection, deadline shedding, tracing, the handler),
//! writes their replies in one vectored write and re-arms it. The
//! listener, the due tick and stop are tokens of the same set, taken the
//! same way.

use super::call::effective;
use crate::fault::FaultPlan;
use crate::proto::{
    apply_receive_faults, parse_payload, write_frame_with, Envelope, Request, Response, MAX_FRAME,
};
use crate::reactor::{Epoll, FrameBuf, Interest, Timer, Waker, WriteQueue};
use faucets_telemetry::metrics::{Counter, Gauge, Histogram, Registry};
use faucets_telemetry::trace::{self, TraceContext};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::HashMap;
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The `retry_after_ms` hint attached to serve-side overload rejections.
const OVERLOAD_RETRY_HINT_MS: u64 = 25;

thread_local! {
    static REQUEST_DEADLINE: Cell<Option<Instant>> = const { Cell::new(None) };
}

/// The propagated deadline of the request the current thread is serving,
/// if the caller stamped one into its [`Envelope`]. Handlers (and anything
/// they call, like the FD's payoff gate) use this to drop work the moment
/// it becomes doomed, without any change to the handler signature.
pub fn request_deadline() -> Option<Instant> {
    REQUEST_DEADLINE.with(|d| d.get())
}

/// Clears the thread's request deadline on drop, so worker threads never
/// leak one request's deadline into the next.
struct DeadlineGuard;

impl Drop for DeadlineGuard {
    fn drop(&mut self) {
        REQUEST_DEADLINE.with(|d| d.set(None));
    }
}

fn set_request_deadline(deadline: Option<Instant>) -> DeadlineGuard {
    REQUEST_DEADLINE.with(|d| d.set(deadline));
    DeadlineGuard
}

/// Options for [`serve_with`].
#[derive(Clone)]
pub struct ServeOptions {
    /// Fault injection applied to this service's traffic.
    pub faults: Option<Arc<FaultPlan>>,
    /// Metric registry for per-endpoint counters/latency and the `Metrics`
    /// endpoint. `None` uses the process-global registry.
    pub registry: Option<Arc<Registry>>,
    /// The most worker threads a service spawns, as concurrency needs
    /// them (default 32): the bound on concurrent *handler* executions,
    /// not on connections. Each waits on the service's epoll set and
    /// answers the requests it reads.
    pub workers: usize,
    /// Outbound reply bytes buffered per connection before it is paused —
    /// no frames run, no reads — until the peer drains its backlog
    /// (default 4 × `MAX_FRAME`). A pause, never a kill: buffering stays
    /// bounded by the cap plus one turn's replies.
    pub write_buf: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            faults: None,
            registry: None,
            workers: 32,
            write_buf: WRITE_BUF_CAP,
        }
    }
}

/// A running TCP service; dropping the handle stops it.
pub struct ServiceHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    shared: Arc<Shared>,
}

impl ServiceHandle {
    /// Request shutdown and wait for every worker thread to exit.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    /// Simulate a crash: stop serving at once, no goodbye to peers, whose
    /// in-flight calls see connection errors or timeouts. Mechanically
    /// [`ServiceHandle::shutdown`]: the crash is in what the owner discards.
    pub fn kill(mut self) {
        self.stop_inner();
    }

    /// Give the service its periodic loop (one due slot: a second call
    /// replaces the first). `tick` runs one round on a worker, `first`
    /// from now and then each time the wall `Duration` it returned has
    /// passed, never twice at once. A stopped service runs no more rounds;
    /// [`ServiceHandle::shutdown`] joins one in flight with the workers.
    pub fn tick(
        &self,
        first: Duration,
        tick: impl Fn() -> Duration + Send + Sync + 'static,
    ) -> Nudge {
        self.shared.due.lock().tick = Some(Arc::new(tick));
        self.shared.timer.arm(first);
        Nudge(Arc::downgrade(&self.shared))
    }

    fn stop_inner(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        // The stop fd stays readable: each worker that takes it re-arms it
        // for the next and exits once its turn or round is done.
        self.shared.stop_fd.wake();
        // A worker may be spawning a successor while `stop` is set: it
        // reads `stop` under this lock, so either it saw `stop` and spawned
        // nothing, or its thread is in the list taken here.
        let threads = std::mem::take(&mut *self.shared.threads.lock());
        for t in threads {
            let _ = t.join();
        }
        // Kick every connection loose (pops clients blocked in reads).
        for (_, conn) in self.shared.conns.lock().drain() {
            let _ = conn.stream.shutdown(Shutdown::Both);
        }
        self.shared.g_open.set(0.0);
        self.shared.g_fds.set(0.0);
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Runs a service's tick early (see [`ServiceHandle::tick`]).
pub struct Nudge(Weak<Shared>);

impl Nudge {
    /// Run the tick at once or, if a round is running, once more when it
    /// returns: a nudge is never lost. Does nothing once the service is
    /// gone.
    pub fn nudge(&self) {
        if let Some(shared) = self.0.upgrade() {
            let mut due = shared.due.lock();
            if due.running {
                due.nudged = true;
            } else {
                shared.timer.arm(Duration::ZERO);
            }
        }
    }
}

/// Serve `handler` on `addr` ("host:0" picks a free port) with default
/// options. Connections are multiplexed on one epoll set; the worker that
/// reads a request runs the handler and writes the reply.
pub fn serve<F>(addr: &str, name: &'static str, handler: F) -> io::Result<ServiceHandle>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    serve_with(addr, name, ServeOptions::default(), handler)
}

const TOK_LISTENER: u64 = 0;
const TOK_STOP: u64 = 1;
const TOK_TIMER: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 3;

/// Default for [`ServeOptions::write_buf`].
const WRITE_BUF_CAP: usize = 4 * MAX_FRAME as usize;

/// How long after a round that panicked the tick runs again.
const TICK_AFTER_PANIC: Duration = Duration::from_millis(50);

/// The most frames one turn runs: a connection with more buffered goes to
/// the back of the ready list, so a pipelining peer cannot starve the
/// others.
const FRAMES_PER_TURN: usize = 64;

/// A service's periodic loop: one round per call, returning the wall time
/// until the next is due.
type Tick = Arc<dyn Fn() -> Duration + Send + Sync>;

/// The one due slot: the tick, whether a round is running, and whether a
/// nudge landed during it. The timer holds when it is due.
#[derive(Default)]
struct Due {
    tick: Option<Tick>,
    running: bool,
    nudged: bool,
}

/// What the workers share with each other and the handle.
struct Shared {
    epoll: Epoll,
    /// Workers blocked in `epoll_wait`.
    idle: AtomicUsize,
    /// Every worker spawned and not yet joined.
    threads: Mutex<Vec<JoinHandle<()>>>,
    listener: TcpListener,
    /// Open connections; a connection is out of the map while a worker
    /// runs its turn, and the one-shot arming keeps every other worker off it.
    conns: Mutex<HashMap<u64, Conn>>,
    next_token: AtomicU64,
    stop: AtomicBool,
    stop_fd: Waker,
    timer: Timer,
    due: Mutex<Due>,
    write_buf: usize,
    g_open: Gauge,
    g_fds: Gauge,
    c_accepted: Counter,
    h_ready: Histogram,
}

/// A flush failed for a reason other than a full socket buffer.
fn refused(flushed: io::Result<()>) -> bool {
    flushed.is_err_and(|e| e.kind() != io::ErrorKind::WouldBlock)
}

/// One connection's frame state machine, touched by one worker at a time.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    replies: WriteQueue,
    /// Read side saw EOF or an error; no more requests will arrive.
    peer_gone: bool,
    /// The last turn left a whole frame unrun: it hit [`FRAMES_PER_TURN`]
    /// or the reply cap.
    more: bool,
}

impl Conn {
    /// One turn: read what the socket holds, run up to
    /// [`FRAMES_PER_TURN`] complete frames in order, write their replies
    /// in one vectored write. Returns the interest to re-arm with, or
    /// `None` to close: a protocol violation, a refused write, or a peer
    /// that is gone and owed nothing more.
    fn turn(
        &mut self,
        write_buf: usize,
        mut run: impl FnMut(Vec<u8>) -> Option<Vec<u8>>,
    ) -> Option<Interest> {
        // A backlog left by a short write goes first: what it leaves
        // decides whether this turn reads and runs.
        if !self.replies.is_empty() && refused(self.replies.flush(&mut &self.stream)) {
            return None;
        }
        // Frames left over from the last turn run before more are read.
        let paused = self.replies.bytes() > write_buf;
        if !self.peer_gone && !self.more && !paused {
            self.peer_gone = self.frames.fill_from(&mut &self.stream).is_err();
        }
        let mut ran = 0;
        while ran < FRAMES_PER_TURN && self.replies.bytes() <= write_buf {
            // An oversized length prefix: the stream cannot be resynchronised.
            let Some(frame) = self.frames.next_frame().ok()? else {
                break;
            };
            self.replies.push(run(frame)?);
            ran += 1;
        }
        self.more = self.frames.has_frame();
        if refused(self.replies.flush(&mut &self.stream)) {
            return None;
        }
        let queued = self.replies.bytes();
        if self.peer_gone && queued == 0 && !self.more {
            return None;
        }
        // Read while the peer may send and drains its replies; write while
        // replies are queued. Frames left over ask for writability too: a
        // socket with room reports it at once, behind the ready list.
        Some(Interest {
            readable: !self.peer_gone && queued <= write_buf,
            writable: queued > 0 || self.more,
        })
    }
}

/// [`serve`], with explicit options.
///
/// Worker threads block in `epoll_wait` on one epoll set holding the
/// nonblocking listener, the due tick's timerfd, a stop eventfd and every
/// accepted socket (a connection is a few hundred bytes, not a thread).
/// They are spawned as concurrency needs them, up to `workers`: one here,
/// then a successor by each worker that takes an event while no other
/// waits, so one watches the set even while every handler blocks. Every
/// registration is one-shot, so each readiness goes to exactly one
/// worker, which does the whole turn itself and re-arms the fd: a
/// connection's turn reads it, runs its complete frames in order, at most
/// 64, and flushes their replies in one vectored write. So a connection's
/// frames run one at a time, in order: an id-less peer's replies keep
/// request order by construction; all echo the `request_id`. A reply backlog over
/// [`ServeOptions::write_buf`] re-arms the connection for writing only —
/// no reads, no frames (TCP back-pressure) — until the peer drains it. The
/// listener's turn accepts; the timer's runs the tick
/// ([`ServiceHandle::tick`]), never twice at once; stop's ends the worker.
pub fn serve_with<F>(
    addr: &str,
    name: &'static str,
    opts: ServeOptions,
    handler: F,
) -> io::Result<ServiceHandle>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    let listener = TcpListener::bind(addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let reg = effective(&opts.registry);
    let labels = [("service", name)];
    let shared = Arc::new(Shared {
        epoll: Epoll::new()?,
        idle: AtomicUsize::new(0),
        threads: Mutex::new(Vec::new()),
        listener,
        conns: Mutex::new(HashMap::new()),
        next_token: AtomicU64::new(FIRST_CONN_TOKEN),
        stop: AtomicBool::new(false),
        stop_fd: Waker::new()?,
        timer: Timer::new()?,
        due: Mutex::new(Due::default()),
        write_buf: opts.write_buf.max(1),
        g_open: reg.gauge("net_open_conns", &labels),
        g_fds: reg.gauge("net_reactor_registered_fds", &labels),
        c_accepted: reg.counter("net_conns_accepted_total", &labels),
        h_ready: reg.histogram("net_reactor_ready_events", &labels),
    });
    let epoll = &shared.epoll;
    epoll.add(shared.listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    epoll.add(shared.stop_fd.fd(), TOK_STOP, Interest::READ)?;
    epoll.add(shared.timer.fd(), TOK_TIMER, Interest::READ)?;

    spawn_worker(&shared, &Arc::new(handler), &opts, name)?;
    Ok(ServiceHandle { addr, shared })
}

/// Add a worker to `shared`'s pool, unless the service is stopping or
/// `opts.workers` threads exist already. Start-up and growth both spawn
/// here.
fn spawn_worker<F>(
    shared: &Arc<Shared>,
    handler: &Arc<F>,
    opts: &ServeOptions,
    name: &'static str,
) -> io::Result<()>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    // `stop` is read under the lock the stop takes the list with.
    let mut threads = shared.threads.lock();
    if shared.stop.load(Ordering::SeqCst) || threads.len() >= opts.workers.max(1) {
        return Ok(());
    }
    let (shared, handler, opts) = (Arc::clone(shared), Arc::clone(handler), opts.clone());
    let worker = std::thread::Builder::new()
        .name(format!("faucets-{name}-{}", threads.len()))
        .spawn(move || shared.work(&handler, &opts, name))?;
    threads.push(worker);
    Ok(())
}

impl Shared {
    /// A worker's loop: take one event, spawn a successor if no other
    /// worker waits, do the event's whole turn, re-arm.
    fn work<F>(self: &Arc<Self>, handler: &Arc<F>, opts: &ServeOptions, name: &'static str)
    where
        F: Fn(Request) -> Response + Send + Sync + 'static,
    {
        let mut meters = Meters::new();
        loop {
            self.idle.fetch_add(1, Ordering::Relaxed);
            let waited = self.epoll.wait(None);
            // One counter's updates are totally ordered: a worker that
            // reads 1 here was the last one waiting.
            let alone = self.idle.fetch_sub(1, Ordering::Relaxed) == 1;
            let ev = match waited {
                Ok(Some(ev)) => ev,
                Ok(None) => continue,
                Err(_) => return,
            };
            if ev.token == TOK_STOP || self.stop.load(Ordering::SeqCst) {
                // Pass the stop on: its fd is still readable for the next.
                let _ = self
                    .epoll
                    .modify(self.stop_fd.fd(), TOK_STOP, Interest::READ);
                return;
            }
            // A failed spawn leaves this worker serving with the pool it has.
            if alone && spawn_worker(self, handler, opts, name).is_err() {
                let reg = effective(&opts.registry);
                reg.counter("net_worker_spawn_failures_total", &[("service", name)])
                    .inc();
            }
            self.h_ready.record(1.0);
            match ev.token {
                TOK_LISTENER => self.accept(),
                TOK_TIMER => self.run_tick(),
                token => self.turn(token, |frame| {
                    // Frames behind a shutdown are dropped with their connection.
                    if self.stop.load(Ordering::Relaxed) {
                        return None;
                    }
                    process_frame(frame, &**handler, opts, name, &mut meters)
                }),
            }
        }
    }

    /// Accept every pending connection, armed for reads, then re-arm the
    /// listener.
    fn accept(&self) {
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = stream.set_nodelay(true);
                    let token = self.next_token.fetch_add(1, Ordering::Relaxed);
                    let fd = stream.as_raw_fd();
                    // In the map before it is armed: its first event may
                    // go to another worker at once.
                    self.conns.lock().insert(
                        token,
                        Conn {
                            stream,
                            frames: FrameBuf::new(MAX_FRAME as usize),
                            replies: WriteQueue::default(),
                            peer_gone: false,
                            more: false,
                        },
                    );
                    if self.epoll.add(fd, token, Interest::READ).is_err() {
                        self.conns.lock().remove(&token);
                        continue;
                    }
                    self.c_accepted.inc();
                    self.g_open.add(1.0);
                    self.g_fds.add(1.0);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
        let _ = self
            .epoll
            .modify(self.listener.as_raw_fd(), TOK_LISTENER, Interest::READ);
    }

    /// Run the tick, once more for each nudge that landed meanwhile, arm
    /// the timer for the next round, then re-arm the timer's fd. A round
    /// that panics is over: the next is due [`TICK_AFTER_PANIC`] later.
    fn run_tick(&self) {
        loop {
            let Some(tick) = self.due.lock().start() else {
                break;
            };
            let next = catch_unwind(AssertUnwindSafe(|| tick())).unwrap_or(TICK_AFTER_PANIC);
            let mut due = self.due.lock();
            if !std::mem::take(&mut due.nudged) || self.stop.load(Ordering::SeqCst) {
                due.running = false;
                self.timer.arm(next);
                break;
            }
        }
        let _ = self
            .epoll
            .modify(self.timer.fd(), TOK_TIMER, Interest::READ);
    }

    /// A connection's turn, out of the map; back in and re-armed, or closed.
    fn turn(&self, token: u64, run: impl FnMut(Vec<u8>) -> Option<Vec<u8>>) {
        let Some(mut conn) = self.conns.lock().remove(&token) else {
            return;
        };
        if let Some(want) = conn.turn(self.write_buf, run) {
            let fd = conn.stream.as_raw_fd();
            self.conns.lock().insert(token, conn);
            if self.epoll.modify(fd, token, want).is_ok() {
                return;
            }
            // Unarmed, nothing else can take it: close it here.
            let Some(back) = self.conns.lock().remove(&token) else {
                return;
            };
            conn = back;
        }
        // Closing the socket takes it out of the epoll set.
        let _ = conn.stream.shutdown(Shutdown::Both);
        self.g_open.add(-1.0);
        self.g_fds.add(-1.0);
    }
}

impl Due {
    /// A round starts: the tick to run, if the service has one.
    fn start(&mut self) -> Option<Tick> {
        let tick = self.tick.clone()?;
        (self.running, self.nudged) = (true, false);
        Some(tick)
    }
}

/// An endpoint's `net_requests_total` and `net_request_seconds` on one
/// worker thread, resolved by its first request there: the registry is
/// fixed per service, so the thread's own map needs no lock. The counters
/// of rarer events (errors, sheds) are looked up when they fire.
type Meters = HashMap<&'static str, (Counter, Histogram)>;

/// Everything that happens to one request frame once it is read:
/// receive-side fault injection, parsing, the metrics exemption, injected
/// rejection, deadline shedding, tracing, the handler itself, and reply
/// serialization (with send-side faults). `None` closes the connection.
/// A panicking handler is answered `Response::Error` and counted.
fn process_frame<F>(
    mut payload: Vec<u8>,
    handler: &F,
    opts: &ServeOptions,
    name: &'static str,
    meters: &mut Meters,
) -> Option<Vec<u8>>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    let faults = opts.faults.as_deref();
    apply_receive_faults(&mut payload, faults);
    // A frame that parses to garbage means the stream is garbled or
    // desynchronized; the connection is closed.
    let Envelope {
        ctx,
        deadline_ms,
        request_id,
        msg: req,
    } = parse_payload::<Envelope<Request>>(&payload).ok()?;
    let reg = effective(&opts.registry);
    let reply = |ctx: Option<TraceContext>, msg: Response| Envelope {
        ctx,
        deadline_ms: None,
        // Echo the request's id so pipelined clients can match this reply
        // out of order.
        request_id,
        msg,
    };
    // The serve layer answers metrics queries itself, so every service
    // exposes the endpoint without touching its handler. Metrics are
    // exempt from every shed below: observability must keep working
    // precisely when the service is drowning.
    if matches!(req, Request::Metrics) {
        return encode_reply(&reply(ctx, Response::Metrics(reg.snapshot())), faults);
    }
    let endpoint = req.endpoint();
    let labels = [("service", name), ("endpoint", endpoint)];
    let (requests, seconds) = meters.entry(endpoint).or_insert_with(|| {
        let requests = reg.counter("net_requests_total", &labels);
        (requests, reg.histogram("net_request_seconds", &labels))
    });
    requests.inc();
    // The serve layer's own shed, triggered by `FaultConfig::reject`: a
    // typed `Overloaded` answer, counted, and the handler never runs.
    if faults.is_some_and(|p| p.inject_overload(endpoint.as_bytes())) {
        reg.counter("net_overload_rejections_total", &labels).inc();
        let env = reply(
            ctx,
            Response::Overloaded {
                retry_after_ms: OVERLOAD_RETRY_HINT_MS,
            },
        );
        return encode_reply(&env, faults);
    }
    // Doomed-work elimination: a request whose propagated deadline
    // already expired in flight is shed before the handler spends
    // anything on it — the caller has abandoned the answer.
    if deadline_ms == Some(0) {
        reg.counter("net_deadline_sheds_total", &labels).inc();
        let env = reply(ctx, Response::Overloaded { retry_after_ms: 0 });
        return encode_reply(&env, faults);
    }
    let _deadline_guard =
        set_request_deadline(deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)));
    // The server span becomes this thread's current context, so any
    // outbound call the handler makes rides the same trace.
    let mut span = trace::server_span(ctx, name, endpoint);
    let started = trace::wall_secs();
    let resp = catch_unwind(AssertUnwindSafe(|| handler(req))).unwrap_or_else(|_| {
        reg.counter("net_handler_panics_total", &labels).inc();
        Response::Error(format!("{name} panicked serving {endpoint}"))
    });
    seconds.record(trace::wall_secs() - started);
    if matches!(resp, Response::Error(_)) {
        reg.counter("net_errors_total", &labels).inc();
        span.fail();
    }
    let reply_ctx = Some(span.ctx());
    drop(span);
    encode_reply(&reply(reply_ctx, resp), faults)
}

/// Serialize a reply envelope, send-side faults included: a dropped frame
/// yields empty bytes — "lost on the wire" — and a truncated one a partial
/// frame, exactly as on a real socket.
fn encode_reply(env: &Envelope<Response>, faults: Option<&FaultPlan>) -> Option<Vec<u8>> {
    let mut bytes = Vec::new();
    write_frame_with(&mut bytes, env, faults).ok()?;
    Some(bytes)
}

#[cfg(test)]
mod tests {
    use super::super::{call, call_with, CallOptions, Timeouts};
    use super::*;
    use std::io::Write;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn shutdown_stops_accepting() {
        let h = serve("127.0.0.1:0", "stop", |_| Response::Ok).unwrap();
        let addr = h.addr;
        h.shutdown();
        // Give the OS a beat, then the port should refuse or time out.
        std::thread::sleep(Duration::from_millis(20));
        let r = TcpStream::connect_timeout(&addr, Duration::from_millis(200));
        // Either refused outright or accepted by a lingering backlog that
        // never answers; both count as "not serving".
        if let Ok(mut s) = r {
            let _ = crate::proto::write_frame(
                &mut s,
                &Envelope::wrap(Request::VerifyToken {
                    token: faucets_core::auth::SessionToken("x".into()),
                }),
            );
            s.set_read_timeout(Some(Duration::from_millis(400)))
                .unwrap();
            assert!(crate::proto::read_frame::<_, Envelope<Response>>(&mut s)
                .map(|o| o.is_none())
                .unwrap_or(true));
        }
    }

    /// `kill()` (and drop) must stay prompt with no throwaway self-connect,
    /// even while clients are actively churning connections — the stop
    /// eventfd pops every worker out of `epoll_wait` regardless of socket
    /// traffic.
    #[test]
    fn kill_is_prompt_under_connection_churn() {
        let h = serve("127.0.0.1:0", "churnkill", |_| Response::Ok).unwrap();
        let addr = h.addr;
        let done = Arc::new(AtomicBool::new(false));
        let churners: Vec<_> = (0..4)
            .map(|_| {
                let done = Arc::clone(&done);
                std::thread::spawn(move || {
                    let req = Request::VerifyToken {
                        token: faucets_core::auth::SessionToken("t".into()),
                    };
                    let opts = CallOptions {
                        timeouts: Timeouts::both(Duration::from_millis(300)),
                        connect: Duration::from_millis(300),
                        ..CallOptions::default()
                    };
                    while !done.load(Ordering::Relaxed) {
                        let _ = call_with(addr, &req, &opts);
                    }
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(50));
        let t = Instant::now();
        h.kill();
        let elapsed = t.elapsed();
        done.store(true, Ordering::Relaxed);
        for c in churners {
            c.join().unwrap();
        }
        assert!(
            elapsed < Duration::from_secs(2),
            "kill() under churn took {elapsed:?}"
        );
    }

    /// The serve path's pipelining contract: many request frames written in
    /// one burst on a single connection, replies matched by `request_id`
    /// even when handler latencies force them out of order.
    #[test]
    fn pipelined_frames_match_replies_by_request_id() {
        let h = serve("127.0.0.1:0", "pipeline", |req| match req {
            Request::Login { user, .. } => {
                // Earlier requests sleep longer, so replies tend to come
                // back in reverse order of submission.
                let n: u64 = user.parse().unwrap_or(0);
                std::thread::sleep(Duration::from_millis((16 - n) * 3));
                Response::Error(user)
            }
            _ => Response::Ok,
        })
        .unwrap();
        let mut s = TcpStream::connect(h.addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        const N: u64 = 16;
        let mut burst = Vec::new();
        for i in 0..N {
            let env = Envelope {
                ctx: None,
                deadline_ms: None,
                request_id: Some(1000 + i),
                msg: Request::Login {
                    user: format!("{i}"),
                    password: "p".into(),
                },
            };
            crate::proto::write_frame(&mut burst, &env).unwrap();
        }
        s.write_all(&burst).unwrap();
        let mut seen = std::collections::HashMap::new();
        for _ in 0..N {
            let reply: Envelope<Response> = crate::proto::read_frame(&mut s)
                .unwrap()
                .expect("a reply per request");
            let id = reply.request_id.expect("server echoes the request id");
            let Response::Error(user) = reply.msg else {
                panic!("echo handler answers Error(user)")
            };
            seen.insert(id, user);
        }
        for i in 0..N {
            assert_eq!(
                seen.get(&(1000 + i)).map(String::as_str),
                Some(format!("{i}").as_str()),
                "reply for id {} carries its own request's payload",
                1000 + i
            );
        }
        h.shutdown();
    }

    /// A nudge that lands while the tick runs is not lost: the tick runs
    /// again as soon as it returns, well before the 30 s it asked for.
    #[test]
    fn a_nudge_mid_tick_runs_it_again_promptly() {
        let h = serve("127.0.0.1:0", "nudged", |_| Response::Ok).unwrap();
        let (started_tx, started_rx) = std::sync::mpsc::channel();
        let (release_tx, release_rx) = std::sync::mpsc::channel::<()>();
        let release_rx = Mutex::new(release_rx);
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let nudge = h.tick(Duration::ZERO, move || {
            if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                let _ = started_tx.send(());
                let _ = release_rx.lock().recv();
            }
            Duration::from_secs(30)
        });
        started_rx
            .recv_timeout(Duration::from_secs(10))
            .expect("the first round runs at once");
        nudge.nudge();
        release_tx.send(()).unwrap();
        let t = Instant::now();
        while runs.load(Ordering::SeqCst) < 2 {
            assert!(
                t.elapsed() < Duration::from_secs(10),
                "the nudge that landed mid-round was lost"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(50));
        assert_eq!(runs.load(Ordering::SeqCst), 2, "one nudge, one more round");
        h.shutdown();
    }

    /// A handler that panics costs its caller an error answer, not the
    /// worker: a one-worker service answers the next call.
    #[test]
    fn a_panicking_handler_is_answered_and_its_worker_serves_on() {
        let reg = Arc::new(Registry::new());
        let opts = ServeOptions {
            registry: Some(Arc::clone(&reg)),
            workers: 1,
            ..ServeOptions::default()
        };
        let h = serve_with("127.0.0.1:0", "fragile", opts, |req| match req {
            Request::VerifyToken { token } if token.0 == "boom" => panic!("a handler bug"),
            _ => Response::Ok,
        })
        .unwrap();
        let opts = CallOptions {
            timeouts: Timeouts::both(Duration::from_secs(2)),
            ..CallOptions::default()
        };
        let verify = |token: &str| {
            let token = faucets_core::auth::SessionToken(token.into());
            call_with(h.addr, &Request::VerifyToken { token }, &opts)
        };
        let Ok(Response::Error(why)) = verify("boom") else {
            panic!("the panic is answered as an error")
        };
        assert!(why.contains("panicked"), "{why}");
        assert_eq!(verify("fine").unwrap(), Response::Ok, "the worker lives");
        let labels = [("service", "fragile"), ("endpoint", "VerifyToken")];
        let panics = reg
            .snapshot()
            .counter_sum("net_handler_panics_total", &labels);
        assert_eq!(panics, 1);
        h.shutdown();
    }

    /// Calls that each run `handler` on their own connection, at once,
    /// answered within 10 s.
    fn call_at_once(n: usize, opts: ServeOptions, handler: impl Fn() + Send + Sync + 'static) {
        let h = serve_with("127.0.0.1:0", "grown", opts, move |_| {
            handler();
            Response::Ok
        })
        .unwrap();
        let addr = h.addr;
        let callers: Vec<_> = (0..n)
            .map(|_| {
                std::thread::spawn(move || {
                    let opts = CallOptions {
                        timeouts: Timeouts::both(Duration::from_secs(10)),
                        ..CallOptions::default()
                    };
                    let token = faucets_core::auth::SessionToken("t".into());
                    call_with(addr, &Request::VerifyToken { token }, &opts)
                })
            })
            .collect();
        for c in callers {
            assert_eq!(c.join().unwrap().unwrap(), Response::Ok);
        }
        h.shutdown();
    }

    /// Sixteen handlers that each wait for all sixteen are all answered:
    /// a service that started with one worker grows one per blocked
    /// handler, and a thread still watches the epoll set.
    #[test]
    fn handlers_that_wait_for_each_other_grow_the_pool() {
        const N: usize = 16;
        let arrived = Arc::new((Mutex::new(0), parking_lot::Condvar::new()));
        call_at_once(N, ServeOptions::default(), move || {
            let (count, all) = &*arrived;
            let mut count = count.lock();
            *count += 1;
            all.notify_all();
            let until = Instant::now() + Duration::from_secs(10);
            let left = || until.saturating_duration_since(Instant::now());
            while *count < N && !all.wait_for(&mut count, left()).timed_out() {}
            assert_eq!(*count, N, "the handlers never all ran at once");
        });
    }

    /// However many callers wait, no more than `workers` handlers run at
    /// once: the ceiling binds.
    #[test]
    fn workers_caps_the_handlers_running_at_once() {
        let (inside, most) = (Arc::new(AtomicUsize::new(0)), Arc::new(AtomicUsize::new(0)));
        let opts = ServeOptions {
            workers: 2,
            ..ServeOptions::default()
        };
        let seen = Arc::clone(&most);
        call_at_once(8, opts, move || {
            seen.fetch_max(inside.fetch_add(1, Ordering::SeqCst) + 1, Ordering::SeqCst);
            std::thread::sleep(Duration::from_millis(20));
            inside.fetch_sub(1, Ordering::SeqCst);
        });
        assert_eq!(most.load(Ordering::SeqCst), 2);
    }

    /// A round that panics ends like any other: the tick runs again.
    #[test]
    fn a_tick_that_panics_runs_again() {
        let h = serve("127.0.0.1:0", "ticking", |_| Response::Ok).unwrap();
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        h.tick(Duration::ZERO, move || {
            if counted.fetch_add(1, Ordering::SeqCst) == 0 {
                panic!("a round's bug");
            }
            Duration::from_secs(30)
        });
        let t = Instant::now();
        while runs.load(Ordering::SeqCst) < 2 {
            assert!(
                t.elapsed() < Duration::from_secs(10),
                "the panicked round stopped the tick"
            );
            std::thread::sleep(Duration::from_millis(1));
        }
        h.shutdown();
    }

    /// An idle service with a tick due every 20 ms runs it about 25 times
    /// in half a second, and its workers take about one event a round:
    /// the timer's. A due cut down to whole milliseconds would spin through
    /// the last fraction of one before every round.
    #[test]
    fn an_idle_service_paces_its_tick_without_spinning() {
        let reg = Arc::new(Registry::new());
        let opts = ServeOptions {
            registry: Some(Arc::clone(&reg)),
            ..ServeOptions::default()
        };
        let h = serve_with("127.0.0.1:0", "paced", opts, |_| Response::Ok).unwrap();
        let passes = || {
            let snap = reg.snapshot();
            snap.histogram_sum("net_reactor_ready_events", &[("service", "paced")])
                .count
        };
        let runs = Arc::new(AtomicUsize::new(0));
        let counted = Arc::clone(&runs);
        let every = Duration::from_millis(20);
        let before = passes();
        h.tick(every, move || {
            counted.fetch_add(1, Ordering::SeqCst);
            every
        });
        std::thread::sleep(Duration::from_millis(500));
        let (ran, passed) = (runs.load(Ordering::SeqCst) as u64, passes() - before);
        h.shutdown();
        assert!((12..=25).contains(&ran), "{ran} rounds in 500 ms");
        assert!(
            passed <= 2 * ran + 4,
            "{passed} worker wakes for {ran} rounds"
        );
    }

    #[test]
    fn every_service_answers_the_metrics_endpoint() {
        let reg = Arc::new(Registry::new());
        let h = serve_with(
            "127.0.0.1:0",
            "probe",
            ServeOptions {
                registry: Some(Arc::clone(&reg)),
                ..ServeOptions::default()
            },
            |_| Response::Ok,
        )
        .unwrap();
        for _ in 0..3 {
            call(
                h.addr,
                &Request::VerifyToken {
                    token: faucets_core::auth::SessionToken("t".into()),
                },
            )
            .unwrap();
        }
        let Response::Metrics(snap) = call(h.addr, &Request::Metrics).unwrap() else {
            panic!("expected a metrics snapshot")
        };
        assert_eq!(
            snap.counter_sum(
                "net_requests_total",
                &[("service", "probe"), ("endpoint", "VerifyToken")]
            ),
            3,
            "per-endpoint request counter travels over the wire"
        );
        let lat = snap.histogram_sum("net_request_seconds", &[("service", "probe")]);
        assert_eq!(lat.count, 3, "latency histogram recorded every request");
        h.shutdown();
    }

    #[test]
    fn server_spans_parent_under_the_caller() {
        let h = serve("127.0.0.1:0", "traced", |_| Response::Ok).unwrap();
        let trace_id;
        {
            let root = trace::span("client", "negotiate");
            trace_id = root.trace();
            call(
                h.addr,
                &Request::VerifyToken {
                    token: faucets_core::auth::SessionToken("t".into()),
                },
            )
            .unwrap();
        }
        let spans = trace::spans_for(trace_id);
        assert!(
            spans
                .iter()
                .any(|s| s.service == "traced" && s.name == "VerifyToken"),
            "server span joined the caller's trace: {spans:?}"
        );
        h.shutdown();
    }
}
