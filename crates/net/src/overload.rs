//! Overload protection for the Figure-1 services.
//!
//! The paper claims the architecture scales to "hundreds of Compute
//! Servers" and "millions of jobs per day" (§5), which means every service
//! must keep answering *something* when offered load exceeds capacity —
//! degrade by shedding the least valuable work, never by letting queues
//! (and latency) grow without bound. This module holds the three primitives
//! the rest of the crate threads together:
//!
//! * [`TokenBucket`] — a rate limiter (the FS uses one to throttle
//!   directory queries): admits at most `rate · elapsed + burst` requests
//!   over any window, runtime-retunable.
//! * [`CircuitBreaker`] / [`BreakerSet`] — per-peer closed → open →
//!   half-open breakers for the client/retry path of
//!   [`crate::service::call_with`], replacing blind retry storms against a
//!   dead peer with a fast local failure until a cooldown probe succeeds.
//! * [`PayoffGate`] — the Faucets Daemon's *payoff-aware* admission gate:
//!   over the inflight bound, bid solicitations queue (bounded) and are
//!   shed in ascending payoff-rate order, so the profit-maximizing
//!   contracts of §4 survive overload; a queued request whose propagated
//!   deadline expires is dropped as doomed work before any CPU is spent
//!   on it.
//!
//! Every limit is set where the primitive is built (the bucket's rate and
//! burst can also be retuned live) and every decision is
//! counted in the telemetry registry, so experiments (E22, `exp_overload`)
//! can assert on sheds, rejections, and breaker transitions instead of
//! timing.
//!
//! All three primitives are transport-agnostic: they sit above the socket,
//! so enabling connection pooling ([`crate::service::CallOptions::pool`])
//! changes none of their semantics — an `Overloaded` answer on a warm
//! socket is still a breaker success, and a poisoned pooled stream is
//! still just a transport failure to the retry loop.

use faucets_telemetry::metrics::Registry;
use faucets_telemetry::{Counter, Gauge};
use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Token bucket
// ---------------------------------------------------------------------------

/// A classic token bucket: starts full at `burst` tokens, refills at
/// `rate` tokens per second, each admitted request consumes one token.
/// Over any window of `t` seconds it therefore admits at most
/// `rate · t + burst` requests — the property `tests/prop_overload.rs` checks.
///
/// Rate and burst are runtime-adjustable ([`TokenBucket::set_rate`],
/// [`TokenBucket::set_burst`]); the clock is injectable
/// ([`TokenBucket::try_admit_at`]) so tests are deterministic.
pub struct TokenBucket {
    /// Tokens per second, as `f64` bits (lock-free runtime knob).
    rate_bits: AtomicU64,
    /// Bucket capacity, as `f64` bits (lock-free runtime knob).
    burst_bits: AtomicU64,
    state: Mutex<BucketState>,
    epoch: Instant,
}

struct BucketState {
    tokens: f64,
    /// Microseconds since `epoch` of the last refill.
    last_micros: u64,
}

impl TokenBucket {
    /// A bucket refilling at `rate` tokens/second with capacity `burst`,
    /// starting full.
    pub fn new(rate: f64, burst: f64) -> Self {
        assert!(rate >= 0.0 && burst >= 0.0, "rate and burst must be ≥ 0");
        TokenBucket {
            rate_bits: AtomicU64::new(rate.to_bits()),
            burst_bits: AtomicU64::new(burst.to_bits()),
            state: Mutex::new(BucketState {
                tokens: burst,
                last_micros: 0,
            }),
            epoch: Instant::now(),
        }
    }

    /// The current refill rate (tokens/second).
    pub fn rate(&self) -> f64 {
        f64::from_bits(self.rate_bits.load(Ordering::Relaxed))
    }

    /// The current capacity.
    pub fn burst(&self) -> f64 {
        f64::from_bits(self.burst_bits.load(Ordering::Relaxed))
    }

    /// Retune the refill rate at runtime.
    pub fn set_rate(&self, rate: f64) {
        assert!(rate >= 0.0);
        self.rate_bits.store(rate.to_bits(), Ordering::Relaxed);
    }

    /// Retune the capacity at runtime (tokens above the new cap are
    /// forfeited on the next admit).
    pub fn set_burst(&self, burst: f64) {
        assert!(burst >= 0.0);
        self.burst_bits.store(burst.to_bits(), Ordering::Relaxed);
    }

    /// Try to admit one request at `now_micros` microseconds since the
    /// bucket's creation. Time injectable for deterministic tests; a clock
    /// that runs backwards is clamped, never panics.
    pub fn try_admit_at(&self, now_micros: u64) -> bool {
        let rate = self.rate();
        let burst = self.burst();
        let mut s = self.state.lock();
        let now = now_micros.max(s.last_micros);
        let dt = (now - s.last_micros) as f64 / 1e6;
        s.tokens = (s.tokens + rate * dt).min(burst);
        s.last_micros = now;
        if s.tokens >= 1.0 {
            s.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Try to admit one request now (wall clock).
    pub fn try_admit(&self) -> bool {
        self.try_admit_at(self.epoch.elapsed().as_micros() as u64)
    }
}

// ---------------------------------------------------------------------------
// Circuit breaker (call side)
// ---------------------------------------------------------------------------

/// Breaker tuning shared by every peer in a [`BreakerSet`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive transport failures that trip the breaker open.
    pub failures_to_open: u32,
    /// How long an open breaker fast-fails before letting one probe
    /// through (half-open).
    pub cooldown: Duration,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failures_to_open: 3,
            cooldown: Duration::from_millis(250),
        }
    }
}

#[derive(Debug, Clone, Copy)]
enum BreakerState {
    Closed {
        fails: u32,
    },
    Open {
        since: Instant,
    },
    /// One probe is in flight; `since` lets a second probe through if the
    /// first one never reports back (its caller died mid-call).
    HalfOpen {
        since: Instant,
    },
}

/// A per-peer circuit breaker: closed (normal) → open after
/// `failures_to_open` consecutive transport failures (every call
/// fast-fails locally, no network) → half-open after `cooldown` (exactly
/// one probe goes through; success closes the breaker, failure re-opens
/// it). A received response — any response, including
/// [`crate::proto::Response::Overloaded`] — counts as success: a busy peer
/// is alive, and must not be evicted by its own load shedding.
///
/// All methods take an explicit `now` so tests can script time; the
/// wall-clock wrappers are what production code calls.
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: Mutex<BreakerState>,
}

/// Names of the three breaker states, used as the `to` label on
/// `net_breaker_transitions_total`.
pub mod breaker_state {
    /// Normal operation.
    pub const CLOSED: &str = "closed";
    /// Fast-failing locally.
    pub const OPEN: &str = "open";
    /// Cooldown elapsed; one probe in flight.
    pub const HALF_OPEN: &str = "half_open";
}

impl CircuitBreaker {
    /// A closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        CircuitBreaker {
            cfg,
            state: Mutex::new(BreakerState::Closed { fails: 0 }),
        }
    }

    /// The current state's name (see [`breaker_state`]).
    pub fn state_name(&self) -> &'static str {
        match *self.state.lock() {
            BreakerState::Closed { .. } => breaker_state::CLOSED,
            BreakerState::Open { .. } => breaker_state::OPEN,
            BreakerState::HalfOpen { .. } => breaker_state::HALF_OPEN,
        }
    }

    /// May a call proceed at `now`? Returns the transition this decision
    /// caused, if any (open → half-open when the cooldown has elapsed).
    pub fn allow_at(&self, now: Instant) -> (bool, Option<&'static str>) {
        let mut s = self.state.lock();
        match *s {
            BreakerState::Closed { .. } => (true, None),
            BreakerState::Open { since } => {
                if now.saturating_duration_since(since) >= self.cfg.cooldown {
                    *s = BreakerState::HalfOpen { since: now };
                    (true, Some(breaker_state::HALF_OPEN))
                } else {
                    (false, None)
                }
            }
            BreakerState::HalfOpen { since } => {
                // The probe's caller may have died without reporting; after
                // another full cooldown of silence, let a new probe through.
                if now.saturating_duration_since(since) >= self.cfg.cooldown {
                    *s = BreakerState::HalfOpen { since: now };
                    (true, None)
                } else {
                    (false, None)
                }
            }
        }
    }

    /// Record a successful call (any received response). Returns the
    /// transition, if any (anything → closed).
    pub fn on_success_at(&self, _now: Instant) -> Option<&'static str> {
        let mut s = self.state.lock();
        let was_closed = matches!(*s, BreakerState::Closed { .. });
        *s = BreakerState::Closed { fails: 0 };
        (!was_closed).then_some(breaker_state::CLOSED)
    }

    /// Record a transport failure. Returns the transition, if any
    /// (closed → open at the threshold, half-open → open on a failed
    /// probe).
    pub fn on_failure_at(&self, now: Instant) -> Option<&'static str> {
        let mut s = self.state.lock();
        match *s {
            BreakerState::Closed { fails } => {
                let fails = fails + 1;
                if fails >= self.cfg.failures_to_open.max(1) {
                    *s = BreakerState::Open { since: now };
                    Some(breaker_state::OPEN)
                } else {
                    *s = BreakerState::Closed { fails };
                    None
                }
            }
            BreakerState::HalfOpen { .. } => {
                *s = BreakerState::Open { since: now };
                Some(breaker_state::OPEN)
            }
            BreakerState::Open { .. } => None,
        }
    }

    /// [`CircuitBreaker::allow_at`] on the wall clock.
    pub fn allow(&self) -> (bool, Option<&'static str>) {
        self.allow_at(Instant::now())
    }

    /// [`CircuitBreaker::on_success_at`] on the wall clock.
    pub fn on_success(&self) -> Option<&'static str> {
        self.on_success_at(Instant::now())
    }

    /// [`CircuitBreaker::on_failure_at`] on the wall clock.
    pub fn on_failure(&self) -> Option<&'static str> {
        self.on_failure_at(Instant::now())
    }
}

/// A family of [`CircuitBreaker`]s keyed by peer address, sharing one
/// [`BreakerConfig`]. Transitions are counted in the process-global
/// telemetry registry as `net_breaker_transitions_total{peer,to}`.
pub struct BreakerSet {
    cfg: BreakerConfig,
    peers: Mutex<HashMap<SocketAddr, Arc<CircuitBreaker>>>,
}

impl Default for BreakerSet {
    fn default() -> Self {
        BreakerSet::new(BreakerConfig::default())
    }
}

impl BreakerSet {
    /// An empty set; breakers are created closed on first use.
    pub fn new(cfg: BreakerConfig) -> Self {
        BreakerSet {
            cfg,
            peers: Mutex::new(HashMap::new()),
        }
    }

    /// The tuning shared by every peer in this set.
    pub fn config(&self) -> BreakerConfig {
        self.cfg
    }

    /// The breaker for `peer` (created closed on first use).
    pub fn breaker(&self, peer: SocketAddr) -> Arc<CircuitBreaker> {
        Arc::clone(
            self.peers
                .lock()
                .entry(peer)
                .or_insert_with(|| Arc::new(CircuitBreaker::new(self.cfg))),
        )
    }

    fn record(reg: &Registry, peer: SocketAddr, transition: Option<&'static str>) {
        if let Some(to) = transition {
            let peer = peer.to_string();
            reg.counter(
                "net_breaker_transitions_total",
                &[("peer", peer.as_str()), ("to", to)],
            )
            .inc();
        }
    }

    /// May a call to `peer` proceed? Transitions are counted in `reg`.
    pub fn allow(&self, peer: SocketAddr, reg: &Registry) -> bool {
        let (ok, transition) = self.breaker(peer).allow();
        Self::record(reg, peer, transition);
        ok
    }

    /// Record a received response from `peer`.
    pub fn on_success(&self, peer: SocketAddr, reg: &Registry) {
        Self::record(reg, peer, self.breaker(peer).on_success());
    }

    /// Record a transport failure against `peer`.
    pub fn on_failure(&self, peer: SocketAddr, reg: &Registry) {
        Self::record(reg, peer, self.breaker(peer).on_failure());
    }
}

// ---------------------------------------------------------------------------
// Payoff-aware admission gate (FD side)
// ---------------------------------------------------------------------------

/// [`PayoffGate`] tuning, fixed when the gate is built.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GateConfig {
    /// Bid solicitations evaluated concurrently.
    pub max_inflight: usize,
    /// Solicitations allowed to wait for a slot; beyond this, the lowest
    /// payoff-rate request (queued or incoming) is shed.
    pub max_queue: usize,
}

impl Default for GateConfig {
    /// Defaults that never bind behind the serve layer's default 32
    /// executor threads: a solicitation holds its thread while it is
    /// served and while it is queued, so at most `workers` are inside the
    /// gate at once and the reachable queue depth is `workers −
    /// max_inflight`, not `max_queue`. The gate acts when `max_inflight`
    /// is set below the executor count (E22 runs 2 slots, queue 4).
    fn default() -> Self {
        GateConfig {
            max_inflight: 64,
            max_queue: 256,
        }
    }
}

/// The outcome of [`PayoffGate::enter`].
pub enum GateVerdict {
    /// A slot was granted; hold the permit for the duration of the work.
    Served(GatePermit),
    /// Shed: the gate was full and this request's payoff-rate lost the
    /// comparison (ascending payoff-rate order, §4's profit maximization
    /// under overload).
    Shed,
    /// The request's propagated deadline expired before a slot opened —
    /// doomed work, dropped before any CPU was spent on it.
    Doomed,
}

#[derive(Clone, Copy)]
struct Waiter {
    id: u64,
    rate: f64,
}

#[derive(Default)]
struct GateState {
    inflight: usize,
    next_id: u64,
    waiting: Vec<Waiter>,
    /// Waiter ids shed by a higher-rate arrival; owners notice on wake.
    shed: Vec<u64>,
    /// Waiter ids granted a slot (inflight already counts them).
    granted: Vec<u64>,
    /// Peak queue depth since creation (reported as a gauge).
    peak_queue: usize,
}

/// The Faucets Daemon's payoff-aware admission gate for bid solicitations.
///
/// Up to `max_inflight` requests are evaluated at once; up to `max_queue`
/// more may wait. When both are full, the *lowest payoff-rate* request —
/// queued or incoming — is shed, so under overload the daemon's capacity
/// goes to the contracts worth the most per CPU-second (§4). A queued
/// request whose deadline passes is dropped as doomed. Freed slots go to
/// the highest-rate waiter.
pub struct PayoffGate {
    cfg: GateConfig,
    state: Mutex<GateState>,
    cond: Condvar,
    m_sheds: Counter,
    m_doomed: Counter,
    m_served: Counter,
    g_queue: Gauge,
    g_queue_peak: Gauge,
}

impl PayoffGate {
    /// A gate with the given tuning, reporting telemetry under
    /// `cluster` (`fd_bid_sheds_total`, `fd_doomed_sheds_total`,
    /// `fd_bids_admitted_total`, `fd_bid_queue_depth`,
    /// `fd_bid_queue_peak`).
    pub fn new(cfg: GateConfig, cluster: &str, reg: &Registry) -> Arc<Self> {
        let labels = [("cluster", cluster)];
        Arc::new(PayoffGate {
            cfg,
            state: Mutex::new(GateState::default()),
            cond: Condvar::new(),
            m_sheds: reg.counter("fd_bid_sheds_total", &labels),
            m_doomed: reg.counter("fd_doomed_sheds_total", &labels),
            m_served: reg.counter("fd_bids_admitted_total", &labels),
            g_queue: reg.gauge("fd_bid_queue_depth", &labels),
            g_queue_peak: reg.gauge("fd_bid_queue_peak", &labels),
        })
    }

    fn note_queue(&self, s: &mut GateState) {
        let depth = s.waiting.len();
        s.peak_queue = s.peak_queue.max(depth);
        self.g_queue.set(depth as f64);
        self.g_queue_peak.set(s.peak_queue as f64);
    }

    /// Ask for an evaluation slot for a request worth `rate` (payoff per
    /// CPU-second), giving up at `deadline` if one is set. Blocks while
    /// queued; returns the verdict.
    pub fn enter(self: &Arc<Self>, rate: f64, deadline: Option<Instant>) -> GateVerdict {
        let cfg = self.cfg;
        let mut s = self.state.lock();
        if deadline.is_some_and(|d| Instant::now() >= d) {
            self.m_doomed.inc();
            return GateVerdict::Doomed;
        }
        if cfg.max_inflight == 0 || s.inflight < cfg.max_inflight {
            s.inflight += 1;
            self.m_served.inc();
            return GateVerdict::Served(GatePermit {
                gate: Arc::clone(self),
            });
        }
        // Inflight full: queue if there is room, otherwise shed the lowest
        // payoff-rate request among the queue and this arrival.
        if s.waiting.len() >= cfg.max_queue {
            let min_idx = s
                .waiting
                .iter()
                .enumerate()
                .min_by(|(_, a), (_, b)| a.rate.total_cmp(&b.rate))
                .map(|(i, _)| i);
            match min_idx {
                Some(i) if s.waiting[i].rate < rate => {
                    // The incoming request outbids the cheapest waiter:
                    // shed the waiter, take its queue slot.
                    let victim = s.waiting.swap_remove(i);
                    s.shed.push(victim.id);
                    self.m_sheds.inc();
                    self.cond.notify_all();
                }
                _ => {
                    // Queue empty (max_queue = 0) or the incoming request
                    // is the cheapest: shed it.
                    self.m_sheds.inc();
                    return GateVerdict::Shed;
                }
            }
        }
        let id = s.next_id;
        s.next_id += 1;
        s.waiting.push(Waiter { id, rate });
        self.note_queue(&mut s);

        loop {
            if let Some(i) = s.granted.iter().position(|g| *g == id) {
                s.granted.swap_remove(i);
                self.note_queue(&mut s);
                if deadline.is_some_and(|d| Instant::now() >= d) {
                    // Granted too late: release the slot we were handed.
                    drop(s);
                    drop(GatePermit {
                        gate: Arc::clone(self),
                    });
                    self.m_doomed.inc();
                    return GateVerdict::Doomed;
                }
                self.m_served.inc();
                return GateVerdict::Served(GatePermit {
                    gate: Arc::clone(self),
                });
            }
            if let Some(i) = s.shed.iter().position(|g| *g == id) {
                s.shed.swap_remove(i);
                self.note_queue(&mut s);
                return GateVerdict::Shed;
            }
            match deadline {
                Some(d) => {
                    if Instant::now() >= d || self.cond.wait_until(&mut s, d).timed_out() {
                        // Doomed while queued: remove ourselves (unless a
                        // grant or shed raced in, handled on next loop).
                        if let Some(i) = s.waiting.iter().position(|w| w.id == id) {
                            s.waiting.swap_remove(i);
                            self.note_queue(&mut s);
                            self.m_doomed.inc();
                            return GateVerdict::Doomed;
                        }
                        continue;
                    }
                }
                None => self.cond.wait(&mut s),
            }
        }
    }

    /// Peak queue depth observed since creation.
    pub fn peak_queue(&self) -> usize {
        self.state.lock().peak_queue
    }

    fn release(&self) {
        let mut s = self.state.lock();
        s.inflight -= 1;
        // Hand the freed slot to the highest payoff-rate waiter.
        let max_idx = s
            .waiting
            .iter()
            .enumerate()
            .max_by(|(_, a), (_, b)| a.rate.total_cmp(&b.rate))
            .map(|(i, _)| i);
        if let Some(i) = max_idx {
            let w = s.waiting.swap_remove(i);
            s.granted.push(w.id);
            s.inflight += 1;
            self.note_queue(&mut s);
        }
        drop(s);
        self.cond.notify_all();
    }
}

/// One occupied [`PayoffGate`] slot; dropping it releases the slot to the
/// highest payoff-rate waiter.
pub struct GatePermit {
    gate: Arc<PayoffGate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        self.gate.release();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // ---- token bucket ----

    #[test]
    fn bucket_admits_burst_then_refills() {
        let b = TokenBucket::new(10.0, 3.0);
        // The initial burst.
        assert!(b.try_admit_at(0));
        assert!(b.try_admit_at(0));
        assert!(b.try_admit_at(0));
        assert!(!b.try_admit_at(0), "burst exhausted");
        // 100 ms at 10/s refills exactly one token.
        assert!(b.try_admit_at(100_000));
        assert!(!b.try_admit_at(100_000));
    }

    #[test]
    fn bucket_never_exceeds_burst_after_idle() {
        let b = TokenBucket::new(10.0, 2.0);
        // A long idle period must not bank unlimited tokens.
        let t = 60_000_000; // one minute
        assert!(b.try_admit_at(t));
        assert!(b.try_admit_at(t));
        assert!(!b.try_admit_at(t), "capped at burst");
    }

    #[test]
    fn bucket_knobs_are_live() {
        let b = TokenBucket::new(0.0, 1.0);
        assert!(b.try_admit_at(0));
        assert!(!b.try_admit_at(1_000_000), "rate 0 never refills");
        b.set_rate(1000.0);
        b.set_burst(10.0);
        assert!(b.try_admit_at(2_000_000), "retuned rate refills");
        assert_eq!(b.rate(), 1000.0);
        assert_eq!(b.burst(), 10.0);
    }

    #[test]
    fn bucket_tolerates_backwards_clock() {
        let b = TokenBucket::new(1.0, 1.0);
        assert!(b.try_admit_at(5_000_000));
        // Clock runs backwards: clamped, no refill, no panic.
        assert!(!b.try_admit_at(1_000_000));
    }

    // ---- circuit breaker ----

    fn cfg() -> BreakerConfig {
        BreakerConfig {
            failures_to_open: 3,
            cooldown: Duration::from_millis(100),
        }
    }

    #[test]
    fn breaker_opens_after_consecutive_failures() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(cfg());
        assert_eq!(b.on_failure_at(t0), None);
        assert_eq!(b.on_failure_at(t0), None);
        assert_eq!(b.on_failure_at(t0), Some(breaker_state::OPEN));
        assert_eq!(b.state_name(), breaker_state::OPEN);
        assert!(!b.allow_at(t0).0, "open fast-fails");
        assert!(
            !b.allow_at(t0 + Duration::from_millis(99)).0,
            "still cooling down"
        );
    }

    #[test]
    fn breaker_success_resets_failure_streak() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(cfg());
        b.on_failure_at(t0);
        b.on_failure_at(t0);
        assert_eq!(b.on_success_at(t0), None, "already closed, no transition");
        // The streak restarted: two more failures don't open it.
        b.on_failure_at(t0);
        assert_eq!(b.on_failure_at(t0), None);
        assert_eq!(b.state_name(), breaker_state::CLOSED);
    }

    /// The half-open chaos scenario the issue calls for: a breaker in
    /// half-open closes after one success and re-opens after one failure —
    /// scripted against injected instants, so no sleeps and no flake.
    #[test]
    fn half_open_closes_on_one_success_reopens_on_one_failure() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure_at(t0);
        }
        // Cooldown elapses: exactly one probe is allowed through.
        let t1 = t0 + Duration::from_millis(100);
        let (ok, tr) = b.allow_at(t1);
        assert!(ok, "cooldown elapsed: the probe goes");
        assert_eq!(tr, Some(breaker_state::HALF_OPEN));
        assert!(!b.allow_at(t1).0, "only one probe at a time");
        // One success closes it.
        assert_eq!(b.on_success_at(t1), Some(breaker_state::CLOSED));
        assert!(b.allow_at(t1).0);

        // Trip it again, probe again — this time the probe fails.
        for _ in 0..3 {
            b.on_failure_at(t1);
        }
        let t2 = t1 + Duration::from_millis(100);
        assert!(b.allow_at(t2).0);
        assert_eq!(
            b.on_failure_at(t2),
            Some(breaker_state::OPEN),
            "one failed probe re-opens"
        );
        assert!(!b.allow_at(t2).0);
        // And the re-opened cooldown starts from the probe failure.
        assert!(b.allow_at(t2 + Duration::from_millis(100)).0);
    }

    #[test]
    fn half_open_allows_fresh_probe_if_first_never_reports() {
        let t0 = Instant::now();
        let b = CircuitBreaker::new(cfg());
        for _ in 0..3 {
            b.on_failure_at(t0);
        }
        let t1 = t0 + Duration::from_millis(100);
        assert!(b.allow_at(t1).0);
        // The probe's caller dies silently. After another cooldown the
        // breaker lets a new probe through instead of wedging open.
        let t2 = t1 + Duration::from_millis(100);
        assert!(b.allow_at(t2).0, "stuck probe does not wedge the breaker");
    }

    #[test]
    fn breaker_set_counts_transitions() {
        let reg = Registry::new();
        let set = BreakerSet::new(cfg());
        let peer: SocketAddr = "127.0.0.1:9999".parse().unwrap();
        for _ in 0..3 {
            set.on_failure(peer, &reg);
        }
        assert!(!set.allow(peer, &reg));
        let snap = reg.snapshot();
        assert_eq!(
            snap.counter_sum("net_breaker_transitions_total", &[("to", "open")]),
            1
        );
        // An unrelated peer is unaffected.
        let other: SocketAddr = "127.0.0.1:9998".parse().unwrap();
        assert!(set.allow(other, &reg));
    }

    // ---- payoff gate ----

    #[test]
    fn gate_serves_under_the_bound() {
        let reg = Registry::new();
        let g = PayoffGate::new(
            GateConfig {
                max_inflight: 2,
                max_queue: 2,
            },
            "t",
            &reg,
        );
        let a = g.enter(1.0, None);
        let b = g.enter(1.0, None);
        assert!(matches!(a, GateVerdict::Served(_)));
        assert!(matches!(b, GateVerdict::Served(_)));
    }

    #[test]
    fn gate_sheds_lowest_payoff_rate_first() {
        let reg = Registry::new();
        let g = PayoffGate::new(
            GateConfig {
                max_inflight: 1,
                max_queue: 0,
            },
            "t",
            &reg,
        );
        let held = g.enter(1.0, None);
        assert!(matches!(held, GateVerdict::Served(_)));
        // Queue of zero: the incoming request is shed immediately.
        assert!(matches!(g.enter(5.0, None), GateVerdict::Shed));
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("fd_bid_sheds_total", &[]), 1);
    }

    #[test]
    fn gate_queue_full_sheds_cheapest_waiter_for_richer_arrival() {
        let reg = Registry::new();
        let g = PayoffGate::new(
            GateConfig {
                max_inflight: 1,
                max_queue: 1,
            },
            "t",
            &reg,
        );
        let GateVerdict::Served(held) = g.enter(1.0, None) else {
            panic!("first enter must be served")
        };
        // A cheap request queues (in a helper thread, since enter blocks).
        let g2 = Arc::clone(&g);
        let cheap = std::thread::spawn(move || g2.enter(0.1, None));
        // Wait until it is actually queued.
        while g.state.lock().waiting.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        // A richer request arrives: the cheap waiter is shed, the rich one
        // takes its queue slot.
        let g3 = Arc::clone(&g);
        let rich = std::thread::spawn(move || g3.enter(2.0, None));
        let cheap_verdict = cheap.join().unwrap();
        assert!(
            matches!(cheap_verdict, GateVerdict::Shed),
            "ascending payoff-rate order: the cheapest goes first"
        );
        // Releasing the held slot grants the rich waiter.
        drop(held);
        assert!(matches!(rich.join().unwrap(), GateVerdict::Served(_)));
        assert_eq!(reg.snapshot().counter_sum("fd_bid_sheds_total", &[]), 1);
        assert!(g.peak_queue() >= 1);
    }

    #[test]
    fn gate_dooms_expired_deadlines() {
        let reg = Registry::new();
        let g = PayoffGate::new(
            GateConfig {
                max_inflight: 1,
                max_queue: 4,
            },
            "t",
            &reg,
        );
        let _held = g.enter(1.0, None);
        // Already expired on arrival.
        let past = Instant::now() - Duration::from_millis(1);
        assert!(matches!(g.enter(1.0, Some(past)), GateVerdict::Doomed));
        // Expires while queued.
        let soon = Instant::now() + Duration::from_millis(30);
        assert!(matches!(g.enter(1.0, Some(soon)), GateVerdict::Doomed));
        let snap = reg.snapshot();
        assert_eq!(snap.counter_sum("fd_doomed_sheds_total", &[]), 2);
    }

    #[test]
    fn gate_grants_freed_slots_to_highest_rate_waiter() {
        let reg = Registry::new();
        let g = PayoffGate::new(
            GateConfig {
                max_inflight: 1,
                max_queue: 4,
            },
            "t",
            &reg,
        );
        let GateVerdict::Served(held) = g.enter(1.0, None) else {
            panic!()
        };
        let spawn_enter = |rate: f64| {
            let g = Arc::clone(&g);
            std::thread::spawn(move || match g.enter(rate, None) {
                GateVerdict::Served(p) => {
                    drop(p);
                    rate
                }
                _ => f64::NAN,
            })
        };
        let low = spawn_enter(0.5);
        while g.state.lock().waiting.is_empty() {
            std::thread::sleep(Duration::from_millis(1));
        }
        let high = spawn_enter(3.0);
        while g.state.lock().waiting.len() < 2 {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(held); // frees one slot: must go to rate 3.0 first
        assert_eq!(high.join().unwrap(), 3.0);
        assert_eq!(low.join().unwrap(), 0.5, "then the low-rate waiter");
    }
}
