//! The serve path: a readiness-driven epoll reactor that owns the
//! nonblocking listener, every connection's frame state machine and the
//! service's one due slot, feeding a bounded executor pool where fault
//! injection, deadline shedding, tracing, the handler and the tick run.

use super::call::effective;
use crate::fault::FaultPlan;
use crate::proto::{
    apply_receive_faults, parse_payload, write_frame_with, Envelope, Request, Response, MAX_FRAME,
};
use crate::reactor::{Epoll, Event, FrameBuf, Interest, Waker, WriteQueue};
use crossbeam::channel::{Sender, TrySendError};
use faucets_telemetry::metrics::{Counter, Histogram, Registry};
use faucets_telemetry::trace::{self, TraceContext};
use parking_lot::Mutex;
use std::cell::Cell;
use std::collections::{HashMap, HashSet, VecDeque};
use std::io;
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
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
    /// Executor threads per service (default 32): the bound on concurrent
    /// *handler* executions, not on connections. Frames reach the executor
    /// over a bounded queue ([`ServeOptions::queue`]); when it is full the
    /// reactor parks them and stops reading that socket (TCP back-pressure).
    pub workers: usize,
    /// Depth of the reactor → executor hand-off queue (default 1024).
    pub queue: usize,
    /// Outbound reply bytes buffered per connection before the reactor
    /// pauses it — no dispatch, no reads — until the peer drains its backlog
    /// (default 4 × `MAX_FRAME`). A pause, never a kill: buffering stays
    /// bounded by the cap plus the replies in flight on the executor.
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
    /// The executors, then the reactor.
    threads: Vec<JoinHandle<()>>,
}

impl ServiceHandle {
    /// Request shutdown and wait for the reactor and every executor
    /// thread to exit.
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
    /// replaces the first). `tick` runs one round on an executor, `first`
    /// from now and then each time the wall `Duration` it returned has
    /// passed, never twice at once. A stopped service runs no more rounds;
    /// [`ServiceHandle::shutdown`] joins one in flight with the executors.
    pub fn tick(
        &self,
        first: Duration,
        tick: impl Fn() -> Duration + Send + Sync + 'static,
    ) -> Nudge {
        *self.shared.due.lock() = Some((Arc::new(tick), Due::After(first)));
        self.shared.waker.wake();
        Nudge(Arc::downgrade(&self.shared))
    }

    fn stop_inner(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // The eventfd pops the reactor out of epoll_wait: it sees the flag,
        // shuts every connection down and drops the job sender, which ends
        // the executors once they finish what they hold.
        self.shared.waker.wake();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
    }
}

impl Drop for ServiceHandle {
    fn drop(&mut self) {
        self.stop_inner();
    }
}

/// Runs a service's tick early (see [`ServiceHandle::tick`]).
pub struct Nudge(Weak<ReactorShared>);

impl Nudge {
    /// Run the tick at the reactor's next look or, if a round is running,
    /// once more when it returns: a nudge is never lost. Does nothing once
    /// the service is gone.
    pub fn nudge(&self) {
        if let Some(shared) = self.0.upgrade() {
            if let Some((_, due)) = shared.due.lock().as_mut() {
                *due = match due {
                    Due::Running(_) => Due::Running(true),
                    _ => Due::After(Duration::ZERO),
                };
            }
            shared.waker.wake();
        }
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

const TOK_LISTENER: u64 = 0;
const TOK_WAKER: u64 = 1;
const FIRST_CONN_TOKEN: u64 = 2;

/// Default for [`ServeOptions::write_buf`].
const WRITE_BUF_CAP: usize = 4 * MAX_FRAME as usize;

/// Decoded-but-undispatched frames a connection may hold while the
/// executor queue is full before the reactor stops reading its socket.
const PARKED_FRAMES_CAP: usize = 256;

/// A connection that wants nothing from its socket is out of the epoll set.
const UNWATCHED: Interest = Interest {
    readable: false,
    writable: false,
};

/// What the executor runs: a frame, or a due tick.
enum Work {
    Frame(Job),
    Tick(Tick),
}

/// One decoded request frame, handed to the executor. Only a frame
/// dispatched with nothing else of its connection in flight is lent the
/// connection's outbox: only its reply may leave from the executor.
struct Job {
    conn: u64,
    payload: Vec<u8>,
    outbox: Option<Arc<Outbox>>,
}

/// A service's periodic loop: one round per call, returning the wall time
/// until the next is due.
type Tick = Arc<dyn Fn() -> Duration + Send + Sync>;

/// When the tick runs next. A registration, a finished round and a nudge
/// arm `After`, which the reactor's next look turns into `At`: the slot's
/// one clock read.
#[derive(Clone, Copy, PartialEq)]
enum Due {
    After(Duration),
    At(Instant),
    /// On an executor; `true` once a nudge landed meanwhile.
    Running(bool),
}

/// What the executor hands back about one request: its connection,
/// whether it carried a `request_id` (the peer matches replies by id, so
/// its connection may dispatch concurrently), and the reply.
type Completion = (u64, bool, Reply);

enum Reply {
    /// Reactor path: queue (empty if a fault "lost" it), then count out.
    Queue(Vec<u8>),
    /// Direct path: written (or queued) and counted out by the executor.
    Sent,
    /// An unparseable frame or a refused write: close the connection.
    Close,
}

/// State shared between the reactor, the executor, and the handle. Two
/// rules make the direct path safe:
/// 1. The completion list and an outbox lock are never held together: the
///    harvest swaps the list out before it touches any connection, and an
///    executor files its completion after it let go of the outbox.
/// 2. No completion the reactor needs is filed without a wake: the reactor
///    raises `Outbox::awaited` or `starved` before its last look at the
///    list, and an executor reads both holding the list, whose lock orders them.
struct ReactorShared {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
    /// Frames are parked for want of an executor-queue slot, which any
    /// completion frees.
    starved: AtomicBool,
    /// The one due slot: a service hosts at most one periodic loop.
    due: Mutex<Option<(Tick, Due)>>,
}

impl ReactorShared {
    /// File a finished request, its reply sent first if it may go direct;
    /// wake the reactor only for what it must act on.
    fn file(&self, conn: u64, had_id: bool, reply: Reply, outbox: Option<&Outbox>) {
        let (reply, mut wake) = match (reply, outbox) {
            (Reply::Queue(bytes), Some(outbox)) => outbox.send(bytes),
            (reply, _) => (reply, true),
        };
        let mut list = self.completions.lock();
        list.push((conn, had_id, reply));
        wake |= self.starved.load(Ordering::Relaxed)
            || outbox.is_some_and(|o| o.awaited.load(Ordering::Relaxed));
        drop(list);
        if wake {
            self.waker.wake();
        }
    }

    /// Hand a due tick to the executor (a full queue leaves it armed and
    /// the pass starved: a completion brings the reactor back), and say how
    /// long epoll may block.
    fn dispatch_due(&self, jobs: &Sender<Work>, pass: &mut Pass) -> Option<Duration> {
        let mut slot = self.due.lock();
        let (tick, due) = slot.as_mut()?;
        let now = Instant::now();
        let at = match *due {
            Due::After(wait) => now + wait,
            Due::At(at) => at,
            Due::Running(_) => return None,
        };
        *due = Due::At(at);
        if at > now {
            return Some(at - now);
        }
        match jobs.try_send(Work::Tick(Arc::clone(tick))) {
            Ok(()) => *due = Due::Running(false),
            Err(_) => pass.starved = true,
        }
        None
    }

    /// A round returned `next`: run it again at once if a nudge landed
    /// meanwhile, else hand the due back to the reactor.
    fn ticked(&self, next: Duration) -> bool {
        if let Some((_, due)) = self.due.lock().as_mut() {
            if *due == Due::Running(true) {
                *due = Due::Running(false);
                return true;
            }
            *due = Due::After(next);
        }
        self.waker.wake();
        false
    }
}

/// The write half of one connection, shared by the reactor and the
/// executor: the one socket (one fd, never `try_clone`d), the reply queue,
/// its requests on the executor — counted up at dispatch (the job's channel
/// send publishes that), down under the `queue` lock once the reply is out
/// or queued — and whether the reactor waits on its next completion.
struct Outbox {
    stream: TcpStream,
    queue: Mutex<WriteQueue>,
    inflight: AtomicUsize,
    awaited: AtomicBool,
}

impl Outbox {
    /// The direct path, if the reply to the connection's only request in
    /// flight has nothing queued ahead of it: write it on the nonblocking
    /// socket. Returns what to file and whether the reactor must hear it.
    fn send(&self, bytes: Vec<u8>) -> (Reply, bool) {
        let mut queue = self.queue.lock();
        if !queue.is_empty() || self.inflight.load(Ordering::Acquire) != 1 {
            return (Reply::Queue(bytes), true);
        }
        // Counted out first: the peer's next request finds nothing in flight.
        self.inflight.fetch_sub(1, Ordering::Release);
        queue.push(bytes);
        if refused(queue.flush(&mut &self.stream)) {
            return (Reply::Close, true);
        }
        (Reply::Sent, !queue.is_empty())
    }
}

/// A flush failed for a reason other than a full socket buffer.
fn refused(flushed: io::Result<()>) -> bool {
    flushed.is_err_and(|e| e.kind() != io::ErrorKind::WouldBlock)
}

/// Per-connection frame state machine.
struct Conn {
    outbox: Arc<Outbox>,
    frames: FrameBuf,
    /// Decoded frames waiting for an executor slot.
    parked: VecDeque<Vec<u8>>,
    /// Replies harvested off the reactor's path, queued at the next service.
    replies: Vec<Vec<u8>>,
    /// Read side saw EOF or an error; no more requests will arrive.
    peer_gone: bool,
    /// Unrecoverable (protocol violation, write failure): close now.
    dead: bool,
    /// Dispatch one frame at a time: a peer that never stamps a
    /// `request_id` is owed replies in request order. The first id seen
    /// proves the peer matches by id and lifts this for good.
    serial: bool,
    interest: Interest,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            outbox: Arc::new(Outbox {
                stream,
                queue: Mutex::new(WriteQueue::default()),
                inflight: AtomicUsize::new(0),
                awaited: AtomicBool::new(false),
            }),
            frames: FrameBuf::new(MAX_FRAME as usize),
            parked: VecDeque::new(),
            replies: Vec::new(),
            peer_gone: false,
            dead: false,
            serial: true,
            interest: Interest::READ,
        }
    }

    /// Drain the socket into the frame buffer (never blocks).
    fn on_readable(&mut self) {
        if self.frames.fill_from(&mut &self.outbox.stream).is_err() {
            self.peer_gone = true;
        }
    }

    /// The pass's one outbox lock: queue the harvested replies, count them
    /// out, flush (never blocks), and read what is in flight and queued
    /// together — with nothing in flight, nothing can join the queue.
    fn settle_outbox(&mut self) -> (usize, usize) {
        let outbox = &*self.outbox;
        let mut queue = outbox.queue.lock();
        let answered = self.replies.len();
        self.replies.drain(..).for_each(|r| queue.push(r));
        let inflight = match answered {
            0 => outbox.inflight.load(Ordering::Acquire),
            n => outbox.inflight.fetch_sub(n, Ordering::AcqRel) - n,
        };
        self.dead |= refused(queue.flush(&mut &outbox.stream));
        (inflight, queue.bytes())
    }
}

/// [`serve`], with explicit options.
///
/// One reactor thread owns the nonblocking listener, a wakeup eventfd and
/// every accepted socket in a level-triggered epoll set (a connection is a
/// few hundred bytes, not a thread); complete frames run on a bounded
/// executor pool. A reply leaves by one of two paths. **Direct**: the
/// answer to a connection's only request in flight, nothing queued ahead
/// of it, is written on the nonblocking socket by the executor that made
/// it, and the reactor is not woken — unless the socket left bytes queued,
/// the write failed, or the reactor waits on that completion (an id-less
/// peer's next frame is parked behind it, or the peer hung up).
/// **Reactor**: everything else (bursts, replies behind a backlog, closes)
/// returns over a completion list plus an eventfd kick and goes out in
/// vectored writes. The list and an outbox lock are never held together,
/// and the reactor raises its wait before its last look at the list, so no
/// completion it needs is filed unseen. Replies echo the `request_id`, so
/// a pipelining client may have many frames in flight; an id-less peer's
/// frames dispatch one at a time, so its replies keep request order. A
/// full executor queue or a reply backlog over [`ServeOptions::write_buf`]
/// parks frames and stops reading the connection (TCP back-pressure), and
/// parked connections are re-serviced as completions drain the queue. A
/// due tick ([`ServiceHandle::tick`]) goes to the executor pool like a
/// frame, and the reactor blocks no longer than until it is due.
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
        starved: AtomicBool::new(false),
        due: Mutex::new(None),
    });
    let epoll = Epoll::new()?;
    epoll.add(listener.as_raw_fd(), TOK_LISTENER, Interest::READ)?;
    epoll.add(shared.waker.fd(), TOK_WAKER, Interest::READ)?;

    let worker_count = opts.workers.max(1);
    let (tx, rx) = crossbeam::channel::bounded::<Work>(opts.queue.max(worker_count));
    let mut threads = Vec::with_capacity(worker_count + 1);
    for i in 0..worker_count {
        let rx = rx.clone();
        let handler = Arc::clone(&handler);
        let opts = opts.clone();
        let stop = Arc::clone(&stop);
        let shared = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name(format!("faucets-{name}-x{i}"))
                .spawn(move || {
                    let mut meters = HashMap::new();
                    while let Ok(work) = rx.recv() {
                        // Work queued behind a shutdown is dropped.
                        if stop.load(Ordering::SeqCst) {
                            continue;
                        }
                        match work {
                            Work::Frame(job) => {
                                let (had_id, reply) =
                                    process_frame(job.payload, &*handler, &opts, name, &mut meters);
                                shared.file(job.conn, had_id, reply, job.outbox.as_deref());
                            }
                            Work::Tick(tick) => while shared.ticked(tick()) {},
                        }
                    }
                })?,
        );
    }
    drop(rx);

    let stop2 = Arc::clone(&stop);
    let shared2 = Arc::clone(&shared);
    let registry = opts.registry.clone();
    let write_buf = opts.write_buf.max(1);
    threads.push(
        std::thread::Builder::new()
            .name(format!("faucets-{name}"))
            .spawn(move || {
                reactor_loop(
                    epoll, listener, stop2, shared2, tx, registry, write_buf, name,
                )
            })?,
    );
    Ok(ServiceHandle {
        addr: local,
        stop,
        shared,
        threads,
    })
}

#[allow(clippy::too_many_arguments)]
fn reactor_loop(
    epoll: Epoll,
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    shared: Arc<ReactorShared>,
    jobs: Sender<Work>,
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
    // Connections holding parked frames (a full executor queue, a
    // saturated write queue, serial dispatch), re-serviced on every pass.
    let mut parked_conns: HashSet<u64> = HashSet::new();
    let mut harvest: Vec<Completion> = Vec::new();

    loop {
        // Harvest completions first, the list swapped out whole (both
        // buffers keep their capacity) before any connection is touched:
        // rule 1. A connection closed while the job ran drops its reply.
        std::mem::swap(&mut harvest, &mut *shared.completions.lock());
        for (token, had_id, reply) in harvest.drain(..) {
            let Some(conn) = conns.get_mut(&token) else {
                continue;
            };
            conn.serial &= !had_id;
            match reply {
                Reply::Queue(bytes) => conn.replies.push(bytes),
                Reply::Sent => {}
                Reply::Close => conn.dead = true,
            }
            touched.push(token);
        }
        if stop.load(Ordering::SeqCst) {
            break;
        }

        // A completion frees an executor-queue slot, so every connection
        // holding parked frames gets another dispatch attempt: a queue-full
        // park with nothing in flight has no fd event left to wake it.
        touched.extend(parked_conns.iter().copied());
        touched.sort_unstable();
        touched.dedup();
        let (mut pass, open) = (Pass::default(), conns.len());
        for token in touched.drain(..) {
            service_conn(
                &epoll,
                &mut conns,
                token,
                &jobs,
                write_buf,
                &mut parked_conns,
                &mut pass,
            );
        }
        g_open.add(conns.len() as f64 - open as f64);
        g_fds.set(conns.len() as f64);
        let timeout = shared.dispatch_due(&jobs, &mut pass);
        if pass.starved != shared.starved.load(Ordering::Relaxed) {
            shared.starved.store(pass.starved, Ordering::Relaxed);
            pass.raised |= pass.starved;
        }
        g_queue.set(jobs.len() as f64);

        // Rule 2: a wait raised in this pass needs one more look at the
        // list before blocking (one raised earlier had the harvest above).
        if pass.raised && !shared.completions.lock().is_empty() {
            continue;
        }
        // Block until the tick is due: every other state change arrives as
        // an fd event (socket readiness, accept, eventfd).
        if epoll.wait(&mut events, timeout).is_err() {
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
                // A writable socket is flushed by its service.
                token => {
                    if let Some(conn) = conns.get_mut(&token) {
                        if ev.readable {
                            conn.on_readable();
                        }
                        touched.push(token);
                    }
                }
            }
        }
    }

    // Teardown: kick every connection loose (pops clients blocked in
    // reads) and drop the job sender so the executor pool drains.
    for conn in conns.values() {
        let _ = conn.outbox.stream.shutdown(Shutdown::Both);
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
                let fd = stream.as_raw_fd();
                if epoll.add(fd, token, Interest::READ).is_err() {
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

/// A pass's news: the executor queue was full; a wait went up (rule 2).
#[derive(Default)]
struct Pass {
    starved: bool,
    raised: bool,
}

/// Decode, dispatch, flush, re-arm interest, and reap one connection.
fn service_conn(
    epoll: &Epoll,
    conns: &mut HashMap<u64, Conn>,
    token: u64,
    jobs: &Sender<Work>,
    write_buf: usize,
    parked_conns: &mut HashSet<u64>,
    pass: &mut Pass,
) {
    let Some(conn) = conns.get_mut(&token) else {
        parked_conns.remove(&token);
        return;
    };
    let (mut inflight, mut queued) = (0, 0);
    if !conn.dead {
        // Decode buffered bytes into frames, bounded by the parking cap.
        while conn.parked.len() < PARKED_FRAMES_CAP {
            match conn.frames.next_frame() {
                Ok(Some(payload)) => conn.parked.push_back(payload),
                Ok(None) => break,
                Err(_) => {
                    conn.dead = true; // oversized length prefix: unrecoverable
                    break;
                }
            }
        }
        // Replies go out before any dispatch decision: a backlog the socket
        // takes whole must not hold back frames no later event would free.
        (inflight, queued) = conn.settle_outbox();
        // Hand frames to the executor. Dispatch pauses — frames stay
        // parked — while the executor queue is full, the peer's reply
        // backlog is over the cap, or an id-less peer's previous frame is
        // in flight (its replies must keep request order).
        while !conn.dead && queued <= write_buf && !(conn.serial && inflight > 0) {
            let Some(payload) = conn.parked.pop_front() else {
                break;
            };
            // Counted before the executor can see the job.
            conn.outbox.inflight.fetch_add(1, Ordering::Relaxed);
            let outbox = (inflight == 0).then(|| Arc::clone(&conn.outbox));
            let job = Work::Frame(Job {
                conn: token,
                payload,
                outbox,
            });
            match jobs.try_send(job) {
                Ok(()) => inflight += 1,
                Err(TrySendError::Full(Work::Frame(job))) => {
                    conn.outbox.inflight.fetch_sub(1, Ordering::Relaxed);
                    conn.parked.push_front(job.payload);
                    pass.starved = true;
                    break;
                }
                Err(_) => {
                    conn.dead = true;
                    break;
                }
            }
        }
    }
    let finished = conn.peer_gone && inflight == 0 && conn.parked.is_empty() && queued == 0;
    if conn.dead || finished {
        let _ = epoll.remove(conn.outbox.stream.as_raw_fd());
        let _ = conn.outbox.stream.shutdown(Shutdown::Both);
        conns.remove(&token);
        parked_conns.remove(&token);
        return;
    }
    // A connection still holding parked frames must be revisited on the
    // next pass even if its fd never fires again.
    if conn.parked.is_empty() {
        parked_conns.remove(&token);
    } else {
        parked_conns.insert(token);
    }
    // Only a completion moves an id-less peer's parked frame or reaps a
    // hung-up peer: the executor that files it must wake the reactor.
    let awaited = inflight > 0 && (conn.peer_gone || (conn.serial && !conn.parked.is_empty()));
    if awaited != conn.outbox.awaited.load(Ordering::Relaxed) {
        conn.outbox.awaited.store(awaited, Ordering::Relaxed);
        pass.raised |= awaited;
    }
    // Read while the peer may send, there is parking room and the peer
    // drains its replies; write while replies are queued. Wanting neither,
    // leave the epoll set: a hang-up cannot be masked, and would spin the
    // level-triggered reactor until the executor's wake comes.
    let want = Interest {
        readable: !conn.peer_gone && conn.parked.len() < PARKED_FRAMES_CAP && queued <= write_buf,
        writable: queued > 0,
    };
    if want != conn.interest {
        let fd = conn.outbox.stream.as_raw_fd();
        let set = if want == UNWATCHED {
            epoll.remove(fd)
        } else if conn.interest == UNWATCHED {
            epoll.add(fd, token, want)
        } else {
            epoll.modify(fd, token, want)
        };
        match set {
            Ok(()) => conn.interest = want,
            Err(_) => conn.dead = true,
        }
    }
}

/// An endpoint's `net_requests_total` and `net_request_seconds` on one
/// executor thread, resolved by its first request there: the registry is
/// fixed per service, so the thread's own map needs no lock. The counters
/// of rarer events (errors, sheds) are looked up when they fire.
type Meters = HashMap<&'static str, (Counter, Histogram)>;

/// Everything that happens to one request frame once it leaves the
/// reactor: receive-side fault injection, parsing, the metrics exemption,
/// injected rejection, deadline shedding, tracing, the handler itself, and
/// reply serialization (with send-side faults). This is the same pipeline
/// the blocking serve path ran inline, now on an executor thread.
fn process_frame<F>(
    mut payload: Vec<u8>,
    handler: &F,
    opts: &ServeOptions,
    name: &'static str,
    meters: &mut Meters,
) -> (bool, Reply)
where
    F: Fn(Request) -> Response + Send + Sync + 'static,
{
    let faults = opts.faults.as_deref();
    apply_receive_faults(&mut payload, faults);
    let env: Envelope<Request> = match parse_payload(&payload) {
        Ok(env) => env,
        // A frame that parses to garbage means the stream is garbled or
        // desynchronized; the connection is closed, as the blocking path
        // did by breaking its read loop.
        Err(_) => return (false, Reply::Close),
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
    let resp = handler(req);
    seconds.record(trace::wall_secs() - started);
    if matches!(resp, Response::Error(_)) {
        reg.counter("net_errors_total", &labels).inc();
        span.fail();
    }
    let reply_ctx = Some(span.ctx());
    drop(span);
    encode_reply(&reply(reply_ctx, resp), faults)
}

/// Serialize a reply envelope (send-side faults included: a dropped frame
/// yields empty bytes — "lost on the wire" — and a truncated one a partial
/// frame, exactly as on a real socket), and say whether it echoes a
/// `request_id`.
fn encode_reply(env: &Envelope<Response>, faults: Option<&FaultPlan>) -> (bool, Reply) {
    let mut bytes = Vec::new();
    match write_frame_with(&mut bytes, env, faults) {
        Ok(()) => (env.request_id.is_some(), Reply::Queue(bytes)),
        Err(_) => (false, Reply::Close),
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

    /// An idle service with a tick due every 20 ms runs it about 25 times
    /// in half a second, and its reactor makes about two passes a round:
    /// one when the due expires, one when the round hands its next due
    /// back. A timeout cut down to whole milliseconds would spin through
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
            "{passed} reactor passes for {ran} rounds"
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
