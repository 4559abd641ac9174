//! The one warm transport of the RPC client path.
//!
//! The paper sizes the grid at "hundreds of Compute Servers" handling
//! "millions of jobs per day" (§2, §5); at that rate a fresh TCP connect
//! per call is pure overhead, because [`crate::service::serve_with`]
//! already serves frame-by-frame on persistent streams. A [`ConnPool`]
//! keeps health-checked idle sockets per peer and lends one, exclusively,
//! to whoever checks it out (see [`crate::service::CallOptions::pool`]):
//! it owns sockets and knows nothing of requests, so retries, deadlines,
//! breakers, and fault injection all operate unchanged — the pool swaps
//! only where the bytes flow. It owns no thread. A call without a pool
//! rides the process's pool that keeps nothing: connection per call.
//!
//! The safety invariant is *poison on error*: a checked-out stream that saw
//! any failure — a frame fault, a timeout, a short read, a reply nothing
//! asked for, a byte past its reply — is closed, never returned, because a
//! desynchronised stream would pay the next caller the previous caller's
//! reply. Idle sockets are additionally bounded per peer, evicted after
//! [`PoolConfig::idle_ttl`] (every peer's, whenever a socket is dialled),
//! and health-checked at checkout with one nonblocking peek, so a peer that
//! restarted while we were idle costs a reconnect, not an error. A socket
//! keeps the timeouts last set on it, and a call sets one only when it
//! changes: a warm lone call is a peek, a write and (mostly) one read.
//!
//! Everything the pool does is counted in the caller's metric registry
//! under a `pool` label: `net_pool_{hits,misses,evictions,poisoned,
//! stale_retries}_total` and the `net_pool_open_conns` gauge.

use crate::proto::Response;
use crate::reactor::idle_open;
use faucets_telemetry::metrics::Registry;
use std::collections::HashMap;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// The frozen benchmark harness's name for [`ConnPool`].
pub type MuxPool = ConnPool;
/// The frozen benchmark harness's name for [`PoolConfig`].
pub type MuxConfig = PoolConfig;

/// Tuning knobs for a [`ConnPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolConfig {
    /// Idle sockets kept per peer; a returned socket over the bound is
    /// closed instead of cached (at 0, every one: connection per call).
    pub conns_per_peer: usize,
    /// How long an idle socket may sit before eviction. Servers never
    /// reap an idle connection, so this only bounds how long an unused
    /// socket (and the server's parked state for it) is kept, and how
    /// stale a socket a restarted peer can leave in the cache.
    pub idle_ttl: Duration,
}

impl Default for PoolConfig {
    fn default() -> Self {
        PoolConfig {
            conns_per_peer: 8,
            idle_ttl: Duration::from_secs(5),
        }
    }
}

/// The client side's one connect, and so the one place its socket is
/// configured: small RPC frames must not wait out Nagle's algorithm.
fn dial(addr: SocketAddr, within: Duration) -> io::Result<Socket> {
    let stream = TcpStream::connect_timeout(&addr, within)?;
    stream.set_nodelay(true)?;
    Ok(Socket {
        stream,
        read: None,
        write: None,
    })
}

/// A socket of the pool and the timeouts last set on it (`None`: unknown).
struct Socket {
    stream: TcpStream,
    read: Option<Duration>,
    write: Option<Duration>,
}

/// One idle socket and when it went idle.
struct IdleConn {
    socket: Socket,
    since: Instant,
}

/// A pool of persistent, health-checked TCP connections keyed by peer
/// address. Cheap to share: one `Arc<ConnPool>` per client (or daemon)
/// serves every peer that client talks to.
pub struct ConnPool {
    name: &'static str,
    cfg: PoolConfig,
    idle: parking_lot::Mutex<HashMap<SocketAddr, Vec<IdleConn>>>,
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
            idle: parking_lot::Mutex::new(HashMap::new()),
            open: AtomicUsize::new(0),
        }
    }

    /// The pool's telemetry label.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// Sockets currently alive through this pool (idle + checked out).
    pub fn open_connections(&self) -> usize {
        self.open.load(Ordering::SeqCst)
    }

    /// Idle sockets currently cached across all peers.
    pub fn idle_count(&self) -> usize {
        self.idle.lock().values().map(|v| v.len()).sum()
    }

    fn labels(&self) -> [(&'static str, &'static str); 1] {
        [("pool", self.name)]
    }

    fn set_open_gauge(&self, reg: &Registry) {
        reg.gauge("net_pool_open_conns", &self.labels())
            .set(self.open.load(Ordering::SeqCst) as f64);
    }

    /// Close a socket the pool owns (evicted, over cap, or poisoned).
    fn discard(&self, socket: Socket, reg: &Registry) {
        drop(socket);
        self.open.fetch_sub(1, Ordering::SeqCst);
        self.set_open_gauge(reg);
    }

    /// Close the sockets of `peer` idle for longer than `idle_ttl`; they
    /// age from the front (oldest first).
    fn evict_expired(&self, peer: &mut Vec<IdleConn>, reg: &Registry) {
        let expired = |c: &&IdleConn| c.since.elapsed() > self.cfg.idle_ttl;
        let dead = peer.iter().take_while(expired).count();
        for dead in peer.drain(..dead) {
            reg.counter("net_pool_evictions_total", &self.labels())
                .inc();
            self.discard(dead.socket, reg);
        }
    }

    /// On the dial path only (a pool miss, off the hot path): close every
    /// peer's expired sockets and forget the peers left with none, so a
    /// peer never called again costs no fd and no map entry past
    /// `idle_ttl`.
    fn sweep_expired(&self, reg: &Registry) {
        self.idle.lock().retain(|_, peer| {
            self.evict_expired(peer, reg);
            !peer.is_empty()
        });
    }

    /// Check out a connection to `addr`: unless `fresh` is asked for, a
    /// cached idle socket when a healthy one exists (most recently used
    /// first — warm sockets stay warm); otherwise a new one, [`dial`]led
    /// `within` the given time after a sweep of every peer's expired
    /// sockets.
    pub(crate) fn checkout(
        self: &Arc<Self>,
        addr: SocketAddr,
        within: Duration,
        fresh: bool,
        reg: &Registry,
    ) -> io::Result<PooledConn> {
        let lend = |socket, reused| PooledConn {
            socket: Some(socket),
            addr,
            reused,
            pool: Arc::clone(self),
        };
        let next_idle = || {
            let mut idle = self.idle.lock();
            let peer = idle.get_mut(&addr).filter(|_| !fresh)?;
            self.evict_expired(peer, reg);
            peer.pop()
        };
        while let Some(candidate) = next_idle() {
            // A healthy idle socket has nothing to read; one gone stale
            // while idle (peer closed, or desynced) is evicted.
            if idle_open(candidate.socket.stream.as_raw_fd()) {
                reg.counter("net_pool_hits_total", &self.labels()).inc();
                return Ok(lend(candidate.socket, true));
            }
            reg.counter("net_pool_evictions_total", &self.labels())
                .inc();
            self.discard(candidate.socket, reg);
        }
        reg.counter("net_pool_misses_total", &self.labels()).inc();
        self.sweep_expired(reg);
        let socket = dial(addr, within)?;
        self.open.fetch_add(1, Ordering::SeqCst);
        self.set_open_gauge(reg);
        Ok(lend(socket, false))
    }
}

/// A connection checked out of a [`ConnPool`]. Exactly one of two things
/// must happen to it: [`PooledConn::settle`] — back to the idle cache if
/// its borrower left it clean, poisoned if not — or a plain drop (which
/// closes the socket — the safe default for code paths that bail early).
pub(crate) struct PooledConn {
    socket: Option<Socket>,
    addr: SocketAddr,
    /// Whether this socket came out of the idle cache (vs a fresh
    /// connect). A reused socket that fails with a disconnect may be
    /// retried once on a fresh one — see the call path's `land`.
    pub(crate) reused: bool,
    pool: Arc<ConnPool>,
}

impl PooledConn {
    /// The socket, this caller's alone: only `settle` and `drop` take it, and both end the loan.
    fn socket(&mut self) -> &mut Socket {
        self.socket.as_mut().expect("checked out with a socket")
    }

    /// The stream; its timeouts are set through this loan's setters.
    pub(crate) fn stream(&mut self) -> &mut TcpStream {
        &mut self.socket().stream
    }

    /// `TcpStream::set_read_timeout`, by a system call only on a change.
    pub(crate) fn set_read_timeout(&mut self, patience: Duration) -> io::Result<()> {
        let Socket { stream, read, .. } = self.socket();
        if *read != Some(patience) {
            *read = None;
            stream.set_read_timeout(Some(patience))?;
            *read = Some(patience);
        }
        Ok(())
    }

    /// `TcpStream::set_write_timeout`, by a system call only on a change.
    pub(crate) fn set_write_timeout(&mut self, within: Duration) -> io::Result<()> {
        let Socket { stream, write, .. } = self.socket();
        if *write != Some(within) {
            *write = None;
            stream.set_write_timeout(Some(within))?;
            *write = Some(within);
        }
        Ok(())
    }

    /// End the loan. A socket its borrower left `clean` — nothing
    /// half-written, nothing still to come — goes back to the idle cache,
    /// or over the per-peer idle bound is closed (counted as an eviction).
    /// Any other is poisoned: closed, never lent again.
    pub(crate) fn settle(mut self, clean: bool, reg: &Registry) {
        let Some(socket) = self.socket.take() else {
            return;
        };
        let closed_as = if clean {
            let mut idle = self.pool.idle.lock();
            let peer = idle.entry(self.addr).or_default();
            if peer.len() < self.pool.cfg.conns_per_peer {
                let since = Instant::now();
                peer.push(IdleConn { socket, since });
                return;
            }
            "net_pool_evictions_total"
        } else {
            "net_pool_poisoned_total"
        };
        reg.counter(closed_as, &self.pool.labels()).inc();
        self.pool.discard(socket, reg);
    }
}

impl Drop for PooledConn {
    fn drop(&mut self) {
        // Never settled: close the socket and fix the count. (No registry
        // here, so the gauge catches up on the next counted pool operation.)
        if self.socket.take().is_some() {
            self.pool.open.fetch_sub(1, Ordering::SeqCst);
        }
    }
}

/// The completion slot a [`PendingMap`] waiter blocks on. `Ticket::id` is
/// the `request_id` it registered; [`PendingMap::complete`] (or
/// [`PendingMap::fail_all`]) fills the slot and wakes the waiter.
///
/// A ticket dropped without [`PendingMap::wait`] abandons its id: the late
/// reply becomes an orphan, not a leaked slot.
pub struct Ticket {
    id: u64,
    slot: Arc<Slot>,
    pending: Weak<PendingMap>,
    /// Cleared when `wait` consumes the ticket: from then on the explicit
    /// abandon path owns the bookkeeping.
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
    }
}

struct Slot {
    state: parking_lot::Mutex<Option<Result<Response, String>>>,
    cv: parking_lot::Condvar,
}

/// Out-of-order response matching: each in-flight request registers a
/// slot under its `request_id`; whoever holds the matching id completes
/// exactly that slot. Pure bookkeeping (no sockets), property-tested in
/// `tests/prop_pipeline.rs`.
///
/// Nothing in this crate uses it any more (a burst fills its own slots):
/// its one caller is the frozen benchmark harness (`pool.pending_us` in
/// `benchmark/src/layers.rs`), and it goes when a `benchmark` PR lets it.
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
        // not also abandon the id.
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
        let first_port = c1
            .socket
            .as_ref()
            .unwrap()
            .stream
            .local_addr()
            .unwrap()
            .port();
        assert!(!c1.reused);
        c1.settle(true, &reg);
        assert_eq!(p.idle_count(), 1);
        let c2 = p.checkout(addr, CONNECT, false, &reg).unwrap();
        assert!(c2.reused, "idle socket reused");
        assert_eq!(
            c2.socket
                .as_ref()
                .unwrap()
                .stream
                .local_addr()
                .unwrap()
                .port(),
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
    fn a_fresh_socket_and_a_reused_one_both_carry_nodelay() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        for reused in [false, true] {
            let mut c = p.checkout(addr, CONNECT, false, &reg).unwrap();
            assert_eq!(c.reused, reused);
            assert!(c.stream().nodelay().unwrap(), "reused: {reused}");
            c.settle(true, &reg);
        }
        assert!(dial(addr, CONNECT).unwrap().stream.nodelay().unwrap());
    }

    #[test]
    fn a_socket_keeps_its_timeouts_through_the_idle_cache() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        let (long, short) = (Duration::from_millis(300), Duration::from_millis(20));
        let mut c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        c.set_read_timeout(long).unwrap();
        c.set_write_timeout(short).unwrap();
        c.settle(true, &reg);
        let mut c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        assert!(c.reused);
        let known = |c: &mut PooledConn| (c.socket().read, c.socket().write);
        assert_eq!(known(&mut c), (Some(long), Some(short)), "carried back");
        c.set_read_timeout(short).unwrap();
        assert_eq!(
            c.stream().read_timeout().unwrap(),
            Some(short),
            "a change is set"
        );
        // A zero timeout is refused: the socket's timeout is unknown now.
        assert!(c.set_write_timeout(Duration::ZERO).is_err());
        assert_eq!(known(&mut c), (Some(short), None));
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
        c.settle(true, &reg);
        std::thread::sleep(Duration::from_millis(60));
        let c2 = p.checkout(addr, CONNECT, false, &reg).unwrap();
        assert!(!c2.reused, "expired socket must not be reused");
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("net_pool_evictions_total", &[]), 1);
        assert_eq!(snap.counter_sum("net_pool_misses_total", &[]), 2);
        assert_eq!(p.open_connections(), 1, "the evicted socket was closed");
    }

    /// Regression: expired sockets were evicted only from the list of the
    /// peer being asked for, and an emptied list kept its key, so a client
    /// held one fd and one map entry for every peer it ever stopped calling.
    #[test]
    fn a_dial_closes_the_expired_sockets_of_peers_never_called_again() {
        let reg = Registry::new();
        let p = pool(PoolConfig {
            idle_ttl: Duration::from_millis(20),
            ..PoolConfig::default()
        });
        let listeners: Vec<TcpListener> = (0..9)
            .map(|_| TcpListener::bind("127.0.0.1:0").unwrap())
            .collect();
        let (ninth, eight) = listeners.split_last().unwrap();
        for l in eight {
            let c = p.checkout(l.local_addr().unwrap(), CONNECT, false, &reg);
            c.unwrap().settle(true, &reg);
        }
        assert_eq!((p.open_connections(), p.idle_count()), (8, 8));
        std::thread::sleep(Duration::from_millis(60));
        let c = p.checkout(ninth.local_addr().unwrap(), CONNECT, false, &reg);
        c.unwrap().settle(true, &reg);
        assert_eq!(p.open_connections(), 1, "eight expired sockets closed");
        assert_eq!(p.idle_count(), 1);
        assert_eq!(p.idle.lock().len(), 1, "emptied peers forgotten");
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("net_pool_evictions_total", &[]), 8);
        assert_eq!(snap.gauge_sum("net_pool_open_conns", &[]), 1.0);
    }

    #[test]
    fn peer_closing_an_idle_socket_is_detected_at_checkout() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        let c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        c.settle(true, &reg);
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
            c2.settle(true, &reg);
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
        // At 0 the pool keeps nothing: a call without a pool of its own.
        for bound in [2, 0] {
            let p = pool(PoolConfig {
                conns_per_peer: bound,
                ..PoolConfig::default()
            });
            let conns: Vec<PooledConn> = (0..3)
                .map(|_| p.checkout(addr, CONNECT, false, &reg).unwrap())
                .collect();
            assert_eq!(p.open_connections(), 3);
            for c in conns {
                c.settle(true, &reg);
            }
            assert_eq!(p.idle_count(), bound, "cache capped at the bound");
            assert_eq!(p.open_connections(), bound, "the overflow was closed");
        }
    }

    #[test]
    fn poison_closes_and_counts() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let reg = Registry::new();
        let p = pool(PoolConfig::default());
        let c = p.checkout(addr, CONNECT, false, &reg).unwrap();
        c.settle(false, &reg);
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
