//! The serve path: a readiness-driven epoll reactor that owns the
//! nonblocking listener and every connection's frame state machine, feeding
//! a bounded executor pool where fault injection, deadline shedding,
//! tracing and the handler run.

use super::call::effective;
use crate::fault::FaultPlan;
use crate::proto::{
    apply_receive_faults, parse_payload, write_frame_with, Envelope, Request, Response, MAX_FRAME,
};
use crate::reactor::{Epoll, Event, FrameBuf, Interest, Waker, WriteQueue};
use faucets_telemetry::metrics::Registry;
use faucets_telemetry::trace::{self, TraceContext};
use faucets_telemetry::TelemetryClock;
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
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

/// Clears the thread's request deadline on drop, so executor threads never
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
    /// Executor threads per service (default 32). Connections no longer
    /// pin a thread each — the reactor multiplexes every socket on one
    /// event loop — so this bounds concurrent *handler* executions, not
    /// concurrent connections. Decoded frames hand off to the executor
    /// over a bounded queue ([`ServeOptions::queue`]); when it is full
    /// the reactor parks frames per-connection and stops reading that
    /// socket, which is TCP back-pressure all the way to the client.
    pub workers: usize,
    /// Depth of the reactor → executor hand-off queue (default 1024).
    pub queue: usize,
    /// Outbound reply bytes buffered per connection before the reactor
    /// pauses that connection — no new frames dispatched, read interest
    /// dropped — until the peer drains its backlog (default 4 ×
    /// `MAX_FRAME`). This is back-pressure, not a kill: a client
    /// pipelining a burst whose replies transiently exceed the cap is
    /// paused and resumed, never closed, and total buffering stays
    /// bounded by the cap plus the replies already in flight on the
    /// executor.
    pub write_buf: usize,
}

impl Default for ServeOptions {
    fn default() -> Self {
        ServeOptions {
            faults: None,
            registry: None,
            workers: 32,
            queue: 1024,
            write_buf: WRITE_BUF_CAP,
        }
    }
}

/// A running TCP service; dropping the handle stops it.
pub struct ServiceHandle {
    /// The bound address (useful with port 0).
    pub addr: SocketAddr,
    stop: Arc<AtomicBool>,
    shared: Arc<ReactorShared>,
    join: Option<JoinHandle<()>>,
    workers: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// Request shutdown and wait for the reactor and every executor
    /// thread to exit.
    pub fn shutdown(mut self) {
        self.stop_inner();
    }

    /// Simulate a crash: stop serving immediately. No deregistration, no
    /// goodbye to peers — in-flight callers see connection errors or
    /// timeouts, exactly as if the process died. (Mechanically identical
    /// to [`ServiceHandle::shutdown`]; the crash semantics come from the
    /// owner discarding state that a graceful path would have persisted.)
    pub fn kill(mut self) {
        self.stop_inner();
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The reactor parks in epoll_wait; its wakeup eventfd pops it
        // immediately. (The old accept loop needed a throwaway self-
        // connect here — the reactor does not.) The reactor observes the
        // flag, shuts every connection down, closes the listener, and
        // drops the job sender so the executor drains and exits.
        self.shared.waker.wake();
        if let Some(j) = self.join.take() {
            let _ = j.join();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Serve `handler` on `addr` ("host:0" picks a free port) with default
/// options. Connections are multiplexed on one reactor; the handler maps
/// requests to responses on the executor pool.
pub fn serve<F>(addr: &str, name: &'static str, handler: F) -> io::Result<ServiceHandle>
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    serve_with(addr, name, ServeOptions::default(), handler)
}

// ---------------------------------------------------------------------------
// Reactor serve path
// ---------------------------------------------------------------------------

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Default for [`ServeOptions::write_buf`]: outbound reply bytes buffered
/// per connection before the reactor pauses dispatching that connection's
/// frames. Saturation is back-pressure, never a kill: dispatch (and reads)
/// resume as the peer drains, so a fast-reading client pipelining a burst
/// whose replies transiently outrun the socket is paused, not cut off.
const WRITE_BUF_CAP: usize = 4 * MAX_FRAME as usize;

/// Decoded-but-undispatched frames a connection may hold while the
/// executor queue is full before the reactor stops reading its socket.
const PARKED_FRAMES_CAP: usize = 256;

/// One decoded request frame, handed to the executor.
struct Job {
    conn: u64,
    payload: Vec<u8>,
}

/// What the executor hands back to the reactor.
enum Completion {
    /// Append these bytes (a serialized reply frame; possibly empty when a
    /// fault plan "lost" it) to the connection's write queue.
    Reply {
        conn: u64,
        bytes: Vec<u8>,
        /// The request carried a `request_id`: the peer can match replies
        /// out of order, so its connection may dispatch concurrently.
        had_id: bool,
    },
    /// The frame was unparseable — the stream can't be trusted; close it.
    Close { conn: u64 },
}

/// State shared between the reactor, the executor, and the handle.
struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl ReactorShared {
    fn push(&self, c: Completion) {
        self.completions.lock().push(c);
        self.waker.wake();
    }
}

/// Per-connection frame state machine.
struct Conn {
    stream: TcpStream,
    frames: FrameBuf,
    /// Decoded frames waiting for an executor slot.
    parked: VecDeque<Vec<u8>>,
    /// Outbound reply frames; the first may be partially written.
    out: WriteQueue,
    /// Frames dispatched to the executor and not yet completed.
    inflight: usize,
    /// Read side saw EOF or an error; no more requests will arrive.
    peer_gone: bool,
    /// Unrecoverable (protocol violation, write failure): close now.
    dead: bool,
    /// Dispatch one frame at a time. A peer that never stamps a
    /// `request_id` (the pre-multiplexing wire contract) is owed replies
    /// in request order, which concurrent executor dispatch would
    /// scramble; the first id seen proves the peer matches by id and
    /// lifts the restriction for the connection's lifetime.
    serial: bool,
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            frames: FrameBuf::new(MAX_FRAME as usize),
            parked: VecDeque::new(),
            out: WriteQueue::default(),
            inflight: 0,
            peer_gone: false,
            dead: false,
            serial: true,
            interest: Interest::READ,
        }
    }

    /// Drain the socket into the frame buffer (never blocks).
    fn on_readable(&mut self) {
        if self.frames.fill_from(&mut self.stream).is_err() {
            self.peer_gone = true;
        }
    }

    /// Flush queued reply frames (never blocks): a full socket buffer
    /// leaves the rest queued for the next writable event, any other
    /// failure marks the connection dead.
    fn flush(&mut self) {
        match self.out.flush(&mut self.stream) {
            Err(e) if e.kind() != io::ErrorKind::WouldBlock => self.dead = true,
            _ => {}
        }
    }
}

/// [`serve`], with explicit options.
///
/// The serve path is a readiness-driven reactor: one thread owns a
/// nonblocking listener, a wakeup eventfd, and every accepted socket
/// through a level-triggered epoll set — concurrent connections cost a few
/// hundred bytes each instead of a thread each. Complete frames hand off
/// to a bounded executor pool (`workers` threads) where fault injection,
/// deadline shedding, tracing, and the handler run
/// exactly as they did on the blocking path; serialized replies return to
/// the reactor over a completion queue and go out with vectored writes.
/// Responses carry the request's `request_id`, so pipelined clients may
/// have many frames in flight and receive replies out of order; a peer
/// that never stamps ids keeps the pre-multiplexing contract — its frames
/// dispatch one at a time, so its replies come back in request order.
/// When the executor queue is full (or a peer's reply backlog exceeds
/// [`ServeOptions::write_buf`]) the reactor parks frames and stops
/// reading that connection — back-pressure reaches the client as TCP flow
/// control, not as unbounded memory — and every parked connection is
/// re-serviced as completions drain the queue, never left waiting on its
/// own (already consumed) fd. Shutdown is prompt and needs no
/// self-connect: the eventfd pops `epoll_wait`.
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
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let handler = Arc::new(handler);
    let shared = Arc::new(ReactorShared {
        completions: Mutex::new(Vec::new()),
        waker: Waker::new()?,
    });
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    epoll.add(shared.waker.fd(), TOK_WAKER, Interest::READ)?;

    let worker_count = opts.workers.max(1);
    let (tx, rx) = crossbeam::channel::bounded::<Job>(opts.queue.max(worker_count));
    let mut workers = Vec::with_capacity(worker_count);
    for i in 0..worker_count {
        let rx = rx.clone();
        let handler = Arc::clone(&handler);
        let opts = opts.clone();
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        workers.push(
            std::thread::Builder::new()
                .name(format!("faucets-{name}-x{i}"))
                .spawn(move || {
                    while let Ok(job) = rx.recv() {
                        // Frames queued behind a shutdown are dropped, not
                        // served one last time.
                        if stop.load(Ordering::SeqCst) {
                            continue;
                        }
                        let done = process_frame(job, &*handler, &opts, name);
                        shared.push(done);
                    }
                })?,
        );
    }
    drop(rx);

    let stop2 = Arc::clone(&stop);
    let shared2 = Arc::clone(&shared);
    let registry = opts.registry.clone();
    let write_buf = opts.write_buf.max(1);
    let join = std::thread::Builder::new()
        .name(format!("faucets-{name}"))
        .spawn(move || {
            reactor_loop(
                epoll, listener, stop2, shared2, tx, registry, write_buf, name,
            )
        })?;

    Ok(ServiceHandle {
        addr: local,
        stop,
        shared,
        join: Some(join),
        workers,
    })
}

#[allow(clippy::too_many_arguments)]
fn reactor_loop(
    epoll: Epoll,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    shared: Arc<ReactorShared>,
    jobs: crossbeam::channel::Sender<Job>,
    registry: Option<Arc<Registry>>,
    write_buf: usize,
    name: &'static str,
) {
    let reg = effective(&registry);
    let labels = [("service", name)];
    let g_fds = reg.gauge("net_reactor_registered_fds", &labels);
    let g_open = reg.gauge("net_open_conns", &labels);
    let c_accepted = reg.counter("net_conns_accepted_total", &labels);
    let h_ready = reg.histogram("net_reactor_ready_events", &labels);
    let g_queue = reg.gauge("net_reactor_executor_queue", &labels);
    let c_wakeups = reg.counter("net_reactor_wakeups_total", &labels);

    let mut conns: HashMap<u64, Conn> = HashMap::new();
    let mut next_token = FIRST_CONN_TOKEN;
    let mut events: Vec<Event> = Vec::new();
    let mut touched: Vec<u64> = Vec::new();
    // Connections holding parked frames (executor queue was full, write
    // queue saturated, or serial dispatch). Their sockets may never fire
    // again — a parked frame is already read — so they are re-serviced on
    // every pass, not just on their own events.
    let mut parked_conns: HashSet<u64> = HashSet::new();

    loop {
        // Harvest executor completions first: replies join their
        // connection's write queue, inflight counts drop, protocol
        // violations mark their connection dead.
        {
            let mut pending = shared.completions.lock();
            for c in pending.drain(..) {
                let (token, bytes, had_id) = match c {
                    Completion::Reply {
                        conn,
                        bytes,
                        had_id,
                    } => (conn, Some(bytes), had_id),
                    Completion::Close { conn } => (conn, None, false),
                };
                // The connection may already be gone (closed for its own
                // reasons while the job ran); its reply is simply dropped.
                if let Some(conn) = conns.get_mut(&token) {
                    conn.inflight -= 1;
                    if had_id {
                        conn.serial = false;
                    }
                    match bytes {
                        // Empty when a fault plan dropped the reply.
                        Some(b) => conn.out.push(b),
                        None => conn.dead = true,
                    }
                    touched.push(token);
                }
            }
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }

        // Every completion harvested above freed an executor-queue slot,
        // so every connection still holding parked frames gets another
        // dispatch attempt — not just the one whose completion arrived.
        // Without this, a queue-full park on a connection with nothing in
        // flight starves forever: its fd never fires again, and queue
        // drain driven by *other* connections never touches it.
        touched.extend(parked_conns.iter().copied());

        // Service every connection something happened to: decode newly
        // buffered frames, dispatch to the executor, flush writes, adjust
        // epoll interest, and reap finished connections.
        touched.sort_unstable();
        touched.dedup();
        for token in touched.drain(..) {
            service_conn(
                &epoll,
                &mut conns,
                token,
                &jobs,
                write_buf,
                &mut parked_conns,
                &g_open,
                &g_fds,
            );
        }
        g_queue.set(jobs.len() as f64);

        // Block until something is ready. No timeout: every state change
        // arrives as an fd event (socket readiness, accept, eventfd).
        if epoll.wait(&mut events, None).is_err() {
            break;
        }
        h_ready.record(events.len() as f64);
        for &ev in &events {
            match ev.token {
                TOK_LISTENER => {
                    let accepted =
                        accept_ready(&listener, &epoll, &mut conns, &mut next_token, &mut touched);
                    c_accepted.add(accepted as u64);
                    g_open.add(accepted as f64);
                    g_fds.set(conns.len() as f64);
                }
                TOK_WAKER => {
                    shared.waker.drain();
                    c_wakeups.inc();
                }
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable {
                            conn.on_readable();
                        }
                        if ev.writable {
                            conn.flush();
                        }
                        touched.push(token);
                    }
                }
            }
        }
    }

    // Teardown: kick every connection loose (pops clients blocked in
    // reads) and drop the job sender so the executor pool drains and
    // exits.
    for conn in conns.values() {
        let _ = conn.stream.shutdown(Shutdown::Both);
    }
    g_open.set(0.0);
    g_fds.set(0.0);
    drop(conns);
    drop(jobs);
}

fn accept_ready(
    listener: &TcpListener,
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    next_token: &mut u64,
    touched: &mut Vec<u64>,
) -> usize {
    let mut accepted = 0;
    loop {
        match listener.accept() {
            Ok((stream, _)) => {
                if stream.set_nonblocking(true).is_err() {
                    continue;
                }
                let _ = stream.set_nodelay(true);
                let token = *next_token;
                *next_token += 1;
                if epoll
                    .add(stream.as_raw_fd(), token, Interest::READ)
                    .is_err()
                {
                    continue;
                }
                conns.insert(token, Conn::new(stream));
                touched.push(token);
                accepted += 1;
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }
    accepted
}

/// Decode, dispatch, flush, re-arm interest, and reap one connection.
#[allow(clippy::too_many_arguments)]
fn service_conn(
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    jobs: &crossbeam::channel::Sender<Job>,
    write_buf: usize,
    parked_conns: &mut HashSet<u64>,
    g_open: &faucets_telemetry::metrics::Gauge,
    g_fds: &faucets_telemetry::metrics::Gauge,
) {
    let Some(conn) = conns.get_mut(&token) else {
        parked_conns.remove(&token);
        return;
    };
    if !conn.dead {
        // Decode buffered bytes into frames, bounded by the parking cap.
        while conn.parked.len() < PARKED_FRAMES_CAP {
            match conn.frames.next_frame() {
                Ok(Some(payload)) => conn.parked.push_back(payload),
                Ok(None) => break,
                Err(_) => {
                    // Oversized length prefix: the stream cannot be
                    // re-synchronized.
                    conn.dead = true;
                    break;
                }
            }
        }
        // Replies go out before any dispatch decision: a backlog the
        // socket takes whole must not hold this pass's parked frames back,
        // because with nothing queued and nothing in flight no later event
        // would ever come to release them.
        if !conn.out.is_empty() {
            conn.flush();
        }
        // Hand frames to the executor. Dispatch pauses — frames stay
        // parked — when the executor queue is full, when the peer has not
        // drained its reply backlog (piling more replies onto a saturated
        // write queue is how buffering becomes unbounded), or while an
        // id-less peer's previous frame is still in flight (its replies
        // must keep request order).
        while !conn.parked.is_empty() {
            if conn.out.bytes() > write_buf {
                break;
            }
            if conn.serial && conn.inflight > 0 {
                break;
            }
            let payload = conn.parked.pop_front().expect("checked non-empty");
            match jobs.try_send(Job {
                conn: token,
                payload,
            }) {
                Ok(()) => conn.inflight += 1,
                Err(crossbeam::channel::TrySendError::Full(job)) => {
                    conn.parked.push_front(job.payload);
                    break;
                }
                Err(crossbeam::channel::TrySendError::Disconnected(_)) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }
    let finished =
        conn.peer_gone && conn.inflight == 0 && conn.parked.is_empty() && conn.out.is_empty();
    if conn.dead || finished {
        let _ = epoll.remove(conn.stream.as_raw_fd());
        let _ = conn.stream.shutdown(Shutdown::Both);
        conns.remove(&token);
        parked_conns.remove(&token);
        g_open.add(-1.0);
        g_fds.set(conns.len() as f64);
        return;
    }
    // A connection still holding parked frames must be revisited on the
    // next pass even if its fd never fires again.
    if conn.parked.is_empty() {
        parked_conns.remove(&token);
    } else {
        parked_conns.insert(token);
    }
    // Read while the peer may still send, there is parking room, and the
    // peer is draining its replies; write while replies are queued.
    let want = Interest {
        readable: !conn.peer_gone
            && conn.parked.len() < PARKED_FRAMES_CAP
            && conn.out.bytes() <= write_buf,
        writable: !conn.out.is_empty(),
    };
    if want != conn.interest {
        if epoll.modify(conn.stream.as_raw_fd(), token, want).is_err() {
            conn.dead = true;
        } else {
            conn.interest = want;
        }
    }
    g_fds.set(conns.len() as f64);
}

/// Everything that happens to one request frame once it leaves the
/// reactor: receive-side fault injection, parsing, the metrics exemption,
/// injected rejection, deadline shedding, tracing, the handler itself, and
/// reply serialization (with send-side faults). This is the same pipeline
/// the blocking serve path ran inline, now on an executor thread.
fn process_frame<F>(job: Job, handler: &F, opts: &ServeOptions, name: &'static str) -> Completion
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    let token = job.conn;
    let mut payload = job.payload;
    let faults = opts.faults.as_deref();
    apply_receive_faults(&mut payload, faults);
    let env: Envelope<Request> = match parse_payload(&payload) {
        Ok(env) => env,
        // A frame that parses to garbage means the stream is garbled or
        // desynchronized; the connection is closed, as the blocking path
        // did by breaking its read loop.
        Err(_) => return Completion::Close { conn: token },
    };
    let Envelope {
        ctx,
        deadline_ms,
        request_id,
        msg: req,
    } = env;
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
        return encode_reply(
            token,
            &reply(ctx, Response::Metrics(reg.snapshot())),
            faults,
        );
    }
    let endpoint = req.endpoint();
    let labels = [("service", name), ("endpoint", endpoint)];
    reg.counter("net_requests_total", &labels).inc();
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
        return encode_reply(token, &env, faults);
    }
    // Doomed-work elimination: a request whose propagated deadline
    // already expired in flight is shed before the handler spends
    // anything on it — the caller has abandoned the answer.
    if deadline_ms == Some(0) {
        reg.counter("net_deadline_sheds_total", &labels).inc();
        let env = reply(ctx, Response::Overloaded { retry_after_ms: 0 });
        return encode_reply(token, &env, faults);
    }
    let _deadline_guard =
        set_request_deadline(deadline_ms.map(|ms| Instant::now() + Duration::from_millis(ms)));
    // The server span becomes this thread's current context, so any
    // outbound call the handler makes rides the same trace.
    let mut span = trace::server_span(ctx, name, endpoint);
    let sw = TelemetryClock::wall().stopwatch();
    let resp = handler(req);
    sw.observe(&reg.histogram("net_request_seconds", &labels));
    if matches!(resp, Response::Error(_)) {
        reg.counter("net_errors_total", &labels).inc();
        span.fail();
    }
    let reply_ctx = Some(span.ctx());
    drop(span);
    encode_reply(token, &reply(reply_ctx, resp), faults)
}

/// Serialize a reply envelope (send-side faults included: a dropped frame
/// yields empty bytes — "lost on the wire" — and a truncated one a partial
/// frame, exactly as on a real socket).
fn encode_reply(token: u64, env: &Envelope<Response>, faults: Option<&FaultPlan>) -> Completion {
    let mut bytes = Vec::new();
    match write_frame_with(&mut bytes, env, faults) {
        Ok(()) => Completion::Reply {
            conn: token,
            bytes,
            // The reply echoes the request's id; its presence tells the
            // reactor the peer matches replies by id, so the connection
            // may dispatch frames concurrently from here on.
            had_id: env.request_id.is_some(),
        },
        Err(_) => Completion::Close { conn: token },
    }
}

#[cfg(test)]
mod tests {
    use super::super::{call, call_with, CallOptions, Timeouts};
    use super::*;
    use std::io::Write;

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

    /// Satellite regression: `kill()` (and drop) must stay prompt with no
    /// throwaway self-connect, even while clients are actively churning
    /// connections — the eventfd wakeup pops the reactor out of
    /// `epoll_wait` regardless of socket traffic.
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

    /// The reactor's pipelining contract: many request frames written in
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
