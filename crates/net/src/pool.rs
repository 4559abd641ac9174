//! Persistent connection pooling for the RPC client path.
//!
//! The paper sizes the grid at "hundreds of Compute Servers" handling
//! "millions of jobs per day" (§2, §5); at that rate a fresh TCP connect
//! per call is pure overhead, because [`crate::service::serve_with`]
//! already serves frame-by-frame on persistent streams. A [`ConnPool`]
//! keeps health-checked idle sockets per peer and hands them to
//! [`crate::service::call_with`] (see [`CallOptions::pool`])
//! so retries, deadlines, breakers, and fault injection all operate
//! unchanged — the pool swaps only where the bytes flow.
//!
//! The safety invariant is *poison on error*: a checked-out stream that saw
//! any failure — a frame fault, a timeout, a short read — is closed, never
//! returned, because a desynchronised stream would pay the next caller the
//! previous caller's reply. Idle sockets are additionally bounded per peer,
//! evicted after [`PoolConfig::idle_ttl`], and health-checked with a
//! non-blocking peek at checkout so a peer that restarted while we were
//! idle costs a reconnect, not an error.
//!
//! Everything the pool does is counted in the caller's metric registry
//! under a `pool` label: `net_pool_{hits,misses,evictions,poisoned}_total`
//! and the `net_pool_open_conns` gauge.

use crate::proto::{Request, Response};
use crate::reactor::WriteQueue;
use crate::service::{effective, remaining_ms, round_trip, stamp, CallOptions};
use faucets_telemetry::metrics::Registry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, Weak};
use std::time::{Duration, Instant};

/// Tuning knobs for a [`ConnPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Idle sockets kept per peer; a returned socket over the bound is
    /// closed instead of cached.
    pub max_idle_per_peer: usize,
    /// How long an idle socket may sit before eviction. Servers never
    /// reap an idle connection, so this only bounds how long an unused
    /// socket (and the server's parked state for it) is kept, and how
    /// stale a socket a restarted peer can leave in the cache.
    pub idle_ttl: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            max_idle_per_peer: 8,
            idle_ttl: Duration::from_secs(5),
        }
    }
}

/// One idle socket and when it went idle.
struct IdleConn {
    stream: TcpStream,
    since: Instant,
}

/// A pool of persistent, health-checked TCP connections keyed by peer
/// address. Cheap to share: one `Arc<ConnPool>` per client (or daemon)
/// serves every peer that client talks to.
pub struct ConnPool {
    name: &'static str,
    cfg: PoolConfig,
    idle: Mutex<HashMap<SocketAddr, Vec<IdleConn>>>,
    /// Sockets alive through this pool: idle + checked out.
    open: AtomicUsize,
}

impl ConnPool {
    /// A pool named `name` (the telemetry `pool` label) with the given
    /// config.
    pub fn new(name: &'static str, cfg: PoolConfig) -> Self {
        ConnPool {
            name,
            cfg,
            idle: Mutex::new(HashMap::new()),
            open: AtomicUsize::new(0),
        }
    }

    /// The pool's telemetry label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The pool's tuning knobs.
    pub fn config(&self) -> PoolConfig {
        self.cfg
    }

    /// Sockets currently alive through this pool (idle + checked out).
    pub fn open_connections(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// Idle sockets currently cached across all peers.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().unwrap().values().map(|v| v.len()).sum()
    }

    fn labels(&self) -> [(&'static str, &'static str); 1] {
        [("pool", self.name)]
    }

    fn set_open_gauge(&self, reg: &Registry) {
        reg.gauge("net_pool_open_conns", &self.labels())
            .set(self.open.load(Ordering::SeqCst) as f64);
    }

    /// Close a socket the pool owns (evicted, over cap, or poisoned).
    fn discard(&self, stream: TcpStream, reg: &Registry) {
        drop(stream);
        self.open.fetch_sub(1, Ordering::SeqCst);
        self.set_open_gauge(reg);
    }

    /// Is this idle socket still usable? A healthy idle stream has nothing
    /// to read: `peek` must block. `Ok(0)` means the peer closed it;
    /// `Ok(n)` means unsolicited bytes are waiting — a desynchronised
    /// stream we must never hand to a caller.
    fn healthy(stream: &TcpStream) -> bool {
        if stream.set_nonblocking(true).is_err() {
            return false;
        }
        let mut byte = [0u8; 1];
        let usable =
            matches!(stream.peek(&mut byte), Err(e) if e.kind() == io::ErrorKind::WouldBlock);
        usable && stream.set_nonblocking(false).is_ok()
    }

    /// Check out a connection to `addr`: unless `fresh` is asked for, a
    /// cached idle socket when a healthy one exists (most recently used
    /// first — warm sockets stay warm); otherwise a new connect within
    /// `connect_timeout`.
    fn checkout(
        self: &Arc<Self>,
        addr: SocketAddr,
        connect_timeout: Duration,
        fresh: bool,
        reg: &Registry,
    ) -> io::Result<PooledConn> {
        loop {
            if fresh {
                break;
            }
            let candidate = {
                let mut idle = self.idle.lock().unwrap();
                let Some(peer) = idle.get_mut(&addr) else {
                    break;
                };
                // Expired sockets age from the front (oldest first).
                while peer
                    .first()
                    .is_some_and(|c| c.since.elapsed() > self.cfg.idle_ttl)
                {
                    let dead = peer.remove(0);
                    reg.counter("net_pool_evictions_total", &self.labels())
                        .inc();
                    self.discard(dead.stream, reg);
                }
                peer.pop()
            };
            let Some(candidate) = candidate else { break };
            if Self::healthy(&candidate.stream) {
                reg.counter("net_pool_hits_total", &self.labels()).inc();
                return Ok(PooledConn {
                    stream: Some(candidate.stream),
                    addr,
                    reused: true,
                    pool: Arc::clone(self),
                });
            }
            // Went stale while idle (peer closed or desynced): evict and
            // try the next cached socket.
            reg.counter("net_pool_evictions_total", &self.labels())
                .inc();
            self.discard(candidate.stream, reg);
        }
        reg.counter("net_pool_misses_total", &self.labels()).inc();
        let stream = TcpStream::connect_timeout(&addr, connect_timeout)?;
        self.open.fetch_add(1, Ordering::SeqCst);
        self.set_open_gauge(reg);
        Ok(PooledConn {
            stream: Some(stream),
            addr,
            reused: false,
            pool: Arc::clone(self),
        })
    }

    /// One request/response exchange on a pooled socket (a fresh connect
    /// when `fresh`), after which the socket goes back to the idle cache —
    /// or, on any failure, is poisoned: after a fault or timeout the stream
    /// may hold half a frame, and returning it would pay the next caller
    /// this caller's bytes. Sets `reused` when the socket came out of the
    /// cache, which gates the call path's one-shot stale retry.
    pub(crate) fn round_trip(
        self: &Arc<Self>,
        addr: SocketAddr,
        req: &Request,
        opts: &CallOptions,
        deadline: Option<Instant>,
        fresh: bool,
        reused: &mut bool,
    ) -> io::Result<Response> {
        let reg = effective(&opts.registry);
        let mut conn = self.checkout(addr, opts.connect, fresh, reg)?;
        *reused |= conn.reused;
        let stream = conn.stream.as_mut().expect("checked out with a stream");
        let result = round_trip(stream, req, opts, deadline);
        match result {
            Ok(_) => conn.give_back(reg),
            Err(_) => conn.poison(reg),
        }
        result
    }
}

/// A connection checked out of a [`ConnPool`]. Exactly one of three things
/// must happen to it: [`PooledConn::give_back`] after a clean round-trip,
/// [`PooledConn::poison`] after any failure, or a plain drop (which closes
/// the socket — the safe default for code paths that bail early).
struct PooledConn {
    stream: Option<TcpStream>,
    addr: SocketAddr,
    /// Whether this socket came out of the idle cache (vs a fresh
    /// connect). A reused socket that fails with a disconnect may be
    /// retried once on a fresh one — see the call path's `exchange`.
    reused: bool,
    pool: Arc<ConnPool>,
}

impl PooledConn {
    /// Return a healthy socket to the pool for reuse. Over the per-peer
    /// idle bound the socket is closed instead (counted as an eviction).
    fn give_back(mut self, reg: &Registry) {
        let Some(stream) = self.stream.take() else {
            return;
        };
        let mut idle = self.pool.idle.lock().unwrap();
        let peer = idle.entry(self.addr).or_default();
        if peer.len() >= self.pool.cfg.max_idle_per_peer.max(1) {
            drop(idle);
            reg.counter("net_pool_evictions_total", &self.pool.labels())
                .inc();
            self.pool.discard(stream, reg);
            return;
        }
        peer.push(IdleConn {
            stream,
            since: Instant::now(),
        });
    }

    /// Close a socket that saw a failure. It must never be reused: after a
    /// frame fault or timeout the stream may hold half a frame, and the
    /// next caller would read the previous caller's bytes.
    fn poison(mut self, reg: &Registry) {
        if let Some(stream) = self.stream.take() {
            reg.counter("net_pool_poisoned_total", &self.pool.labels())
                .inc();
            self.pool.discard(stream, reg);
        }
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        // Neither returned nor poisoned: close the socket and fix the
        // count. (No registry here, so the gauge catches up on the next
        // counted pool operation.)
        if self.stream.take().is_some() {
            self.pool.open.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

// ---------------------------------------------------------------------------
// Multiplexed connections: many requests in flight per socket
// ---------------------------------------------------------------------------

/// Soft in-flight target per multiplexed connection: checkout prefers a
/// connection under this, and dials a new one (up to
/// [`MuxConfig::conns_per_peer`]) when every existing one is at or over it.
const MUX_INFLIGHT_TARGET: usize = 128;

/// Tuning knobs for a [`MuxPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MuxConfig {
    /// Shared connections dialed per peer before calls start queueing on
    /// the least-loaded one.
    pub conns_per_peer: usize,
}

impl Default for MuxConfig {
    fn default() -> Self {
        MuxConfig { conns_per_peer: 2 }
    }
}

/// The completion slot a multiplexed caller waits on. `Ticket::id` is the
/// `request_id` stamped into the request envelope; the reader thread (or
/// [`PendingMap::fail_all`]) fills the slot and wakes the waiter.
///
/// A ticket dropped without [`PendingMap::wait`] cleans up after itself:
/// its id is abandoned (the late reply becomes an orphan, not a leaked
/// slot) and any in-flight accounting it carries is released — a caller
/// that panics mid-batch must not leave ids registered and the connection
/// looking loaded forever.
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
    pending: Weak<PendingMap>,
    /// The owning connection's in-flight counter, once this ticket is
    /// counted in it (set by the mux layer after a successful send).
    inflight: Weak<AtomicUsize>,
    /// Cleared when `wait` consumes the ticket: from then on the explicit
    /// abandon/decrement paths own the bookkeeping.
    armed: bool,
}

impl Ticket {
    /// The request id this ticket is waiting for.
    pub fn id(&self) -> u64 {
        self.id
    }
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if !self.armed {
            return;
        }
        if let Some(pending) = self.pending.upgrade() {
            pending.abandon(self.id);
        }
        if let Some(inflight) = self.inflight.upgrade() {
            inflight.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

struct Slot {
    state: parking_lot::Mutex<Option<Result<Response, String>>>,
    cv: parking_lot::Condvar,
}

/// Out-of-order response matching: each in-flight request registers a
/// slot under its `request_id`; whoever holds the matching id completes
/// exactly that slot. Ids make interleaving safe — a late or reordered
/// response can only ever reach its own caller, never cross wires. Pure
/// bookkeeping (no sockets), so its matching laws are property-tested
/// directly in `tests/prop_pipeline.rs`.
#[derive(Default)]
pub struct PendingMap {
    slots: parking_lot::Mutex<HashMap<u64, Arc<Slot>>>,
}

impl PendingMap {
    /// An empty map with nothing in flight.
    pub fn new() -> PendingMap {
        PendingMap::default()
    }

    /// Register a waiter for `id`. Panics if `id` is already in flight
    /// (callers allocate ids from an atomic counter, so a collision is a
    /// bug, not a race).
    pub fn register(self: &Arc<Self>, id: u64) -> Ticket {
        let slot = Arc::new(Slot {
            state: parking_lot::Mutex::new(None),
            cv: parking_lot::Condvar::new(),
        });
        let prev = self.slots.lock().insert(id, Arc::clone(&slot));
        assert!(prev.is_none(), "request id {id} registered twice");
        Ticket {
            id,
            slot,
            pending: Arc::downgrade(self),
            inflight: Weak::new(),
            armed: true,
        }
    }

    /// Deliver the response for `id`. Returns `false` (an orphan) when no
    /// waiter is registered — the caller already timed out and abandoned
    /// the id, or never existed.
    pub fn complete(&self, id: u64, resp: Response) -> bool {
        let Some(slot) = self.slots.lock().remove(&id) else {
            return false;
        };
        *slot.state.lock() = Some(Ok(resp));
        slot.cv.notify_all();
        true
    }

    /// Fail every in-flight request (connection lost): each waiter gets a
    /// typed disconnect error, never another caller's bytes.
    pub fn fail_all(&self, why: &str) {
        let drained: Vec<Arc<Slot>> = self.slots.lock().drain().map(|(_, s)| s).collect();
        for slot in drained {
            *slot.state.lock() = Some(Err(why.to_string()));
            slot.cv.notify_all();
        }
    }

    /// Abandon a ticket (caller timed out): the id is deregistered so a
    /// late response counts as an orphan instead of filling a dead slot.
    pub fn abandon(&self, id: u64) {
        self.slots.lock().remove(&id);
    }

    /// In-flight request count.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True when nothing is in flight.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Block until the ticket's slot fills or `timeout` passes. On
    /// timeout the id is abandoned; a response that arrives later is an
    /// orphan, not a wrong answer for the next request.
    pub fn wait(&self, mut ticket: Ticket, timeout: Duration) -> io::Result<Response> {
        // `wait` consumes the ticket on every path below; its drop must
        // not also abandon the id or release in-flight accounting.
        ticket.armed = false;
        let deadline = Instant::now() + timeout;
        {
            let mut state = ticket.slot.state.lock();
            while state.is_none() {
                if ticket.slot.cv.wait_until(&mut state, deadline).timed_out() {
                    break;
                }
            }
            match state.take() {
                Some(Ok(resp)) => return Ok(resp),
                Some(Err(why)) => {
                    return Err(io::Error::new(io::ErrorKind::ConnectionAborted, why))
                }
                None => {}
            }
        }
        self.abandon(ticket.id);
        Err(io::Error::new(
            io::ErrorKind::TimedOut,
            "no reply within the read timeout (the request may still complete remotely)",
        ))
    }
}

/// One multiplexed connection: a writer half shared under a mutex (frames
/// are written atomically, many callers interleaved), a dedicated reader
/// thread that demultiplexes responses back to their callers by
/// `request_id`, and the [`PendingMap`] tying them together. Any transport
/// failure kills the whole connection and fails every in-flight call with
/// a typed disconnect.
pub struct MuxConn {
    writer: Mutex<TcpStream>,
    pending: Arc<PendingMap>,
    next_id: std::sync::atomic::AtomicU64,
    inflight: Arc<AtomicUsize>,
    dead: Arc<std::sync::atomic::AtomicBool>,
}

impl MuxConn {
    fn dial(
        addr: SocketAddr,
        pool_name: &'static str,
        connect: Duration,
        write_timeout: Duration,
        faults: Option<Arc<crate::fault::FaultPlan>>,
        registry: Option<Arc<Registry>>,
    ) -> io::Result<Arc<MuxConn>> {
        let stream = TcpStream::connect_timeout(&addr, connect)?;
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(write_timeout))?;
        let reader = stream.try_clone()?;
        // The reader blocks until frames arrive or the socket dies; no
        // read timeout, in-flight callers bound their own waits.
        reader.set_read_timeout(None)?;
        let pending = Arc::new(PendingMap::new());
        let inflight = Arc::new(AtomicUsize::new(0));
        let dead = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let conn = Arc::new(MuxConn {
            writer: Mutex::new(stream),
            pending: Arc::clone(&pending),
            next_id: std::sync::atomic::AtomicU64::new(1),
            inflight: Arc::clone(&inflight),
            dead: Arc::clone(&dead),
        });
        let labels_pool = pool_name;
        std::thread::Builder::new()
            .name(format!("faucets-mux-{addr}"))
            .spawn(move || mux_reader_loop(reader, pending, dead, faults, registry, labels_pool))?;
        Ok(conn)
    }

    /// Transport failure or reader exit: no new requests may start here.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::SeqCst)
    }

    /// Requests currently awaiting a response on this connection.
    pub fn inflight(&self) -> usize {
        self.inflight.load(Ordering::SeqCst)
    }

    /// Kill the connection: shutting the socket down pops the reader out
    /// of its blocking read, which marks the connection dead and fails
    /// every in-flight call.
    fn kill(&self) {
        self.dead.store(true, Ordering::SeqCst);
        let _ = self
            .writer
            .lock()
            .unwrap()
            .shutdown(std::net::Shutdown::Both);
    }

    /// Stamp and serialize a whole batch, then push every frame in one
    /// vectored write burst — the pipelining hot path: one syscall (plus
    /// short-write continuations) for N requests. A fault plan may "lose"
    /// a frame (nothing written, ticket still returned — that caller's
    /// wait times out, as on a real lossy wire).
    fn begin_batch(
        &self,
        reqs: &[Request],
        opts: &CallOptions,
        deadline: Option<Instant>,
    ) -> io::Result<Vec<Ticket>> {
        if self.is_dead() {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionAborted,
                "mux connection is dead",
            ));
        }
        let faults = opts.faults.as_deref();
        let ctx = faucets_telemetry::trace::current();
        let deadline_ms = remaining_ms(deadline);
        let mut tickets = Vec::with_capacity(reqs.len());
        let mut frames = WriteQueue::with_capacity(reqs.len());
        for req in reqs {
            let id = self.next_id.fetch_add(1, Ordering::Relaxed);
            let mut frame = Vec::new();
            // On failure, dropping `tickets` abandons every registered id.
            stamp(&mut frame, req, Some(id), ctx, deadline_ms, faults)?;
            tickets.push(self.pending.register(id));
            frames.push(frame);
        }
        let mut w = self.writer.lock().unwrap();
        if let Err(e) = frames.flush(&mut *w) {
            drop(w);
            self.kill();
            return Err(e);
        }
        drop(w);
        // Every ticket is now in flight; `wait` decrements one by one,
        // and a ticket the caller drops instead releases its own slot.
        self.inflight.fetch_add(tickets.len(), Ordering::SeqCst);
        for t in &mut tickets {
            t.inflight = Arc::downgrade(&self.inflight);
        }
        Ok(tickets)
    }

    /// Wait out one ticket under the caller's read timeout.
    fn wait(&self, ticket: Ticket, opts: &CallOptions) -> io::Result<Response> {
        let out = self.pending.wait(ticket, opts.timeouts.read);
        self.inflight.fetch_sub(1, Ordering::SeqCst);
        out
    }
}

impl Drop for MuxConn {
    /// The reader thread holds its own clone of the socket and blocks in a
    /// read: without the shutdown a dropped pool would leave the thread and
    /// the connection (as the peer counts it) open for good.
    fn drop(&mut self) {
        let writer = self.writer.get_mut().unwrap_or_else(|e| e.into_inner());
        let _ = writer.shutdown(std::net::Shutdown::Both);
    }
}

fn mux_reader_loop(
    mut reader: TcpStream,
    pending: Arc<PendingMap>,
    dead: Arc<std::sync::atomic::AtomicBool>,
    faults: Option<Arc<crate::fault::FaultPlan>>,
    registry: Option<Arc<Registry>>,
    pool_name: &'static str,
) {
    use crate::proto::{read_frame_with, Envelope};
    let reg = effective(&registry);
    let labels = [("pool", pool_name)];
    let why = loop {
        match read_frame_with::<_, Envelope<Response>>(&mut reader, faults.as_deref()) {
            Ok(Some(env)) => match env.request_id {
                Some(id) => {
                    if !pending.complete(id, env.msg) {
                        // The caller timed out and abandoned the id; the
                        // late reply is discarded, never mis-delivered.
                        reg.counter("net_mux_orphans_total", &labels).inc();
                    }
                }
                // A response with no id cannot be matched to a caller —
                // the peer predates multiplexing or the stream is
                // desynchronized. Fail everything rather than guess.
                None => break "mux peer answered without a request id",
            },
            Ok(None) => break "mux connection closed by peer",
            Err(_) => break "mux connection lost",
        }
    };
    dead.store(true, Ordering::SeqCst);
    let _ = reader.shutdown(std::net::Shutdown::Both);
    pending.fail_all(why);
    reg.counter("net_mux_conn_failures_total", &labels).inc();
    reg.gauge("net_mux_open_conns", &labels).add(-1.0);
}

/// A pool of [`MuxConn`]s keyed by peer: calls check out the least-loaded
/// live connection (dialing up to [`MuxConfig::conns_per_peer`]), stamp a
/// `request_id`, and wait on the [`PendingMap`] while other callers'
/// frames interleave on the same socket. Share one `Arc<MuxPool>` per
/// client — see [`CallOptions::mux`] and
/// [`crate::service::call_batch`].
pub struct MuxPool {
    name: &'static str,
    cfg: MuxConfig,
    peers: Mutex<HashMap<SocketAddr, Vec<Arc<MuxConn>>>>,
}

impl MuxPool {
    /// An empty pool; `name` labels its metrics.
    pub fn new(name: &'static str, cfg: MuxConfig) -> MuxPool {
        MuxPool {
            name,
            cfg,
            peers: Mutex::new(HashMap::new()),
        }
    }

    /// The label this pool's metrics are counted under.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Live (non-dead) connections across all peers.
    pub fn open_connections(&self) -> usize {
        self.peers
            .lock()
            .unwrap()
            .values()
            .map(|v| v.iter().filter(|c| !c.is_dead()).count())
            .sum()
    }

    /// Check out a live connection to `addr`, dialing if the peer has
    /// none (or all existing ones are saturated and there is dial budget
    /// left). Returns the connection and whether it was reused — fresh
    /// dials report `false`, which gates the caller's one-shot stale
    /// retry exactly as [`ConnPool`] checkouts do.
    fn checkout(
        &self,
        addr: SocketAddr,
        opts: &CallOptions,
        reg: &Registry,
    ) -> io::Result<(Arc<MuxConn>, bool)> {
        let labels = [("pool", self.name)];
        {
            let mut peers = self.peers.lock().unwrap();
            let conns = peers.entry(addr).or_default();
            conns.retain(|c| !c.is_dead());
            // Prefer a connection with headroom; dial only when all
            // existing ones are at the soft in-flight target and the
            // per-peer budget allows one more.
            let budget = self.cfg.conns_per_peer.max(1);
            let best = conns.iter().min_by_key(|c| c.inflight()).map(Arc::clone);
            if let Some(best) = best {
                if best.inflight() < MUX_INFLIGHT_TARGET || conns.len() >= budget {
                    reg.counter("net_mux_hits_total", &labels).inc();
                    return Ok((best, true));
                }
            }
        }
        // Dial with the pool lock released: one slow or unreachable peer
        // must not stall every other peer's checkout for its whole
        // connect timeout. Callers racing here may both dial — the
        // occasional connection over the per-peer budget is tolerated
        // (it still serves traffic and is reaped with the rest when it
        // dies) in exchange for never serializing the pool on one dial.
        let conn = MuxConn::dial(
            addr,
            self.name,
            opts.connect,
            opts.timeouts.write,
            opts.faults.clone(),
            opts.registry.clone(),
        )?;
        reg.counter("net_mux_dials_total", &labels).inc();
        reg.gauge("net_mux_open_conns", &labels).add(1.0);
        let mut peers = self.peers.lock().unwrap();
        let conns = peers.entry(addr).or_default();
        conns.retain(|c| !c.is_dead());
        conns.push(Arc::clone(&conn));
        Ok((conn, false))
    }

    /// Pipeline `reqs` on one connection to `addr` and wait every reply
    /// out, index-aligned. `Err` means nothing went out (no connection, a
    /// dead one, a failed write); `reused` is set as for [`ConnPool`].
    pub(crate) fn exchange(
        &self,
        addr: SocketAddr,
        reqs: &[Request],
        opts: &CallOptions,
        deadline: Option<Instant>,
        reused: &mut bool,
    ) -> io::Result<Vec<io::Result<Response>>> {
        let (conn, was_reused) = self.checkout(addr, opts, effective(&opts.registry))?;
        *reused |= was_reused;
        let tickets = conn.begin_batch(reqs, opts, deadline)?;
        Ok(tickets.into_iter().map(|t| conn.wait(t, opts)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn pool(cfg: PoolConfig) -> Arc<ConnPool> {
        Arc::new(ConnPool::new("test", cfg))
    }

    const CONNECT: Duration = Duration::from_millis(500);

    #[test]
    fn second_checkout_reuses_the_first_socket() {
        // The listener's accept queue completes handshakes without an
        // accept loop, which is all the pool's health check needs.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        let c1 = p.checkout(addr, CONNECT, false, &reg).unwrap();
        let first_port = c1.stream.as_ref().unwrap().local_addr().unwrap().port();
        assert!(!c1.reused);
        c1.give_back(&reg);
        assert_eq!(p.idle_count(), 1);
        let c2 = p.checkout(addr, CONNECT, false, &reg).unwrap();
        assert!(c2.reused, "idle socket reused");
        assert_eq!(
            c2.stream.as_ref().unwrap().local_addr().unwrap().port(),
            first_port,
            "the very same socket came back"
        );
        assert_eq!(p.open_connections(), 1, "no second connect happened");
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_sum("net_pool_hits_total", &[("pool", "test")]),
            1
        );
        assert_eq!(snap.counter_sum("net_pool_misses_total", &[]), 1);
    }

    #[test]
    fn expired_idle_sockets_are_evicted() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig {
            idle_ttl: Duration::from_millis(20),
            ..PoolConfig::default()
        });
        let c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        c.give_back(&reg);
        std::thread::sleep(Duration::from_millis(60));
        let c2 = p.checkout(addr, CONNECT, false, &reg).unwrap();
        assert!(!c2.reused, "expired socket must not be reused");
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("net_pool_evictions_total", &[]), 1);
        assert_eq!(snap.counter_sum("net_pool_misses_total", &[]), 2);
        assert_eq!(p.open_connections(), 1, "the evicted socket was closed");
    }

    #[test]
    fn peer_closing_an_idle_socket_is_detected_at_checkout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        let c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        c.give_back(&reg);
        // The peer accepts and immediately closes — a server restart
        // from the pool's point of view.
        let (accepted, _) = listener.accept().unwrap();
        drop(accepted);
        // The FIN races our checkout: poll until the health check
        // observes the dead socket instead of hoping a fixed grace
        // period outruns the kernel.
        let deadline = Instant::now() + Duration::from_secs(5);
        let c2 = loop {
            let c2 = p.checkout(addr, CONNECT, false, &reg).unwrap();
            if !c2.reused {
                break c2;
            }
            assert!(Instant::now() < deadline, "FIN never observed");
            c2.give_back(&reg);
            std::thread::sleep(Duration::from_millis(2));
        };
        assert!(!c2.reused, "a dead socket failed the health check");
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("net_pool_evictions_total", &[]), 1);
        assert_eq!(p.open_connections(), 1);
    }

    #[test]
    fn idle_cache_is_bounded_per_peer() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig {
            max_idle_per_peer: 2,
            ..PoolConfig::default()
        });
        let conns: Vec<PooledConn> = (0..3)
            .map(|_| p.checkout(addr, CONNECT, false, &reg).unwrap())
            .collect();
        assert_eq!(p.open_connections(), 3);
        for c in conns {
            c.give_back(&reg);
        }
        assert_eq!(p.idle_count(), 2, "cache capped at the per-peer bound");
        assert_eq!(p.open_connections(), 2, "the overflow socket was closed");
    }

    #[test]
    fn poison_closes_and_counts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        let c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        c.poison(&reg);
        assert_eq!(p.open_connections(), 0);
        assert_eq!(p.idle_count(), 0);
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("net_pool_poisoned_total", &[]), 1);
        assert_eq!(snap.gauge_sum("net_pool_open_conns", &[]), 0.0);
        // The next checkout gets a fresh socket, not the poisoned one.
        let c2 = p.checkout(addr, CONNECT, false, &reg).unwrap();
        assert!(!c2.reused);
    }

    #[test]
    fn dropped_batch_tickets_release_inflight_and_ids() {
        // The listener's backlog completes the handshake; nobody ever
        // reads, which is fine — this exercises send-side bookkeeping.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let conn = MuxConn::dial(
            addr,
            "drop-test",
            CONNECT,
            Duration::from_secs(1),
            None,
            None,
        )
        .unwrap();
        let reqs: Vec<Request> = (0..4).map(|_| Request::Metrics).collect();
        let opts = CallOptions::default();
        let tickets = conn.begin_batch(&reqs, &opts, None).unwrap();
        assert_eq!(conn.inflight(), 4);
        assert_eq!(conn.pending.len(), 4);
        // A caller that panics (or bails) between send and wait drops its
        // tickets: each one must release its in-flight slot and abandon
        // its id, or least-loaded checkout is skewed until the connection
        // dies.
        drop(tickets);
        assert_eq!(conn.inflight(), 0, "dropped tickets freed their slots");
        assert!(
            conn.pending.is_empty(),
            "dropped tickets abandoned their ids"
        );
    }

    #[test]
    fn checkout_does_not_hold_the_pool_lock_across_a_dial() {
        // TEST-NET-1 blackholes SYNs in most environments, so this dial
        // hangs until its connect timeout; if the network answers fast
        // (unreachable error) the test degrades to the happy path — it
        // cannot flake, it just stops exercising the regression.
        let dead: SocketAddr = "192.0.2.1:9".parse().unwrap();
        let live_listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let live = live_listener.local_addr().unwrap();
        let mux = Arc::new(MuxPool::new("lock-test", MuxConfig::default()));
        let opts = CallOptions {
            connect: Duration::from_secs(3),
            ..Default::default()
        };
        let slow = {
            let mux = Arc::clone(&mux);
            let opts = opts.clone();
            std::thread::spawn(move || {
                let reg = Registry::new();
                let _ = mux.checkout(dead, &opts, &reg);
            })
        };
        // Give the slow dial time to start (and, pre-fix, hold the lock).
        std::thread::sleep(Duration::from_millis(100));
        let reg = Registry::new();
        let t = Instant::now();
        mux.checkout(live, &opts, &reg).unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "a live peer's checkout stalled behind a dead peer's dial: {:?}",
            t.elapsed()
        );
        slow.join().unwrap();
    }

    #[test]
    fn plain_drop_closes_the_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        let c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        drop(c);
        assert_eq!(p.open_connections(), 0);
        assert_eq!(p.idle_count(), 0);
    }
}
