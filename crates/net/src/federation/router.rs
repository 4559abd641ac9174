//! The federation runtime: gossip driver, ring maintenance, routing.
//!
//! One [`Federation`] lives inside each federated FS process. Gossip is
//! the FS service's tick ([`ServiceHandle::tick`]): each round, on one of
//! the FS's executors, runs push-pull gossip against every alive peer
//! (full exchange — shard counts are small, so convergence in a
//! handful of rounds beats fan-out economy), grades liveness by
//! heartbeat staleness, and rebuilds the [`Ring`] with a bumped epoch on
//! every alive-set change. Ring epochs converge federation-wide to the
//! max seen, so directory rows stamped with an epoch are comparable
//! across shards.
//!
//! Routing is two primitives the FS handler composes:
//!
//! - [`Federation::forward_addr`]/[`Federation::forward`] — ownership
//!   routing for registrations and heartbeats: the ring names the owner,
//!   and a request for a cluster we don't own is relayed to its owner
//!   over the pooled/breaker call stack.
//! - [`Federation::scatter`] — directory queries fan out a
//!   [`FedQuery`] to every alive peer via [`call_many`]. A `FedQuery` is
//!   executed *purely locally* by the receiver (never re-scattered), so
//!   the forwarding depth is bounded at one hop and worker pools cannot
//!   deadlock across shards.
//!
//! A shard that cannot be reached simply contributes nothing to a
//! scatter round; its registrations reappear when their daemons' own
//! failover re-registers them with a surviving shard.

use super::gossip::{GossipView, MembershipView};
use super::ring::Ring;
use crate::pool::{ConnPool, PoolConfig};
use crate::proto::{FedQuery, Request, Response};
use crate::service::{call_many, call_with, CallOptions, RetryPolicy, ServiceHandle};
use faucets_core::auth::SessionToken;
use faucets_core::ids::ClusterId;
use faucets_telemetry::{Counter, Gauge};
use parking_lot::Mutex;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Gossip rounds without a heartbeat advance before a peer is graded dead
/// and drops off the ring.
const DEAD_AFTER_ROUNDS: u64 = 10;

/// Concurrent connections used by a scatter round.
const SCATTER_FAN_OUT: usize = 8;

/// Knobs for one federated FS shard.
#[derive(Clone)]
pub struct FederationOptions {
    /// This shard's name — its ring identity. Must be unique across the
    /// federation.
    pub name: String,
    /// Bootstrap peers to gossip at until they introduce themselves
    /// ([`Federation::join`] adds more at runtime, which is how tests and
    /// tooling wire up shards spawned on port 0).
    pub seeds: Vec<SocketAddr>,
    /// Wall pause between gossip rounds.
    pub gossip_interval: Duration,
    /// Options for shard-to-shard calls (gossip, forwards, scatters).
    /// Defaults to no retry — the failure detector wants fast verdicts,
    /// and client-visible operations have their own retry above us.
    pub call: CallOptions,
}

impl FederationOptions {
    /// Defaults tuned for tests and localhost ladders: 15 ms gossip
    /// rounds, death after 10 silent rounds (~150 ms).
    pub fn new(name: &str) -> Self {
        FederationOptions {
            name: name.into(),
            seeds: vec![],
            gossip_interval: Duration::from_millis(15),
            call: CallOptions {
                retry: RetryPolicy::none(),
                pool: Some(Arc::new(ConnPool::new("federation", PoolConfig::default()))),
                ..CallOptions::default()
            },
        }
    }
}

struct FedState {
    view: MembershipView,
    ring: Ring,
}

impl FedState {
    /// Rebuild the ring from the alive set at `epoch`.
    fn rebuild(&mut self, epoch: u64) {
        self.ring = Ring::build(self.view.alive_names(), epoch);
    }

    /// Adopt a remote epoch and/or a liveness change, keeping the local
    /// epoch monotone and ≥ every epoch seen.
    fn converge(&mut self, remote_epoch: u64, liveness_changed: bool) {
        let adopted = self.ring.epoch().max(remote_epoch);
        if liveness_changed {
            self.rebuild(adopted + 1);
        } else if adopted != self.ring.epoch() {
            self.rebuild(adopted);
        }
    }
}

/// The federation runtime inside one FS shard (see module docs).
pub struct Federation {
    opts: FederationOptions,
    incarnation: u64,
    state: Mutex<FedState>,
    seeds: Mutex<Vec<SocketAddr>>,
    m_rounds: Counter,
    m_failures: Counter,
    m_stable: Counter,
    m_forwarded: Counter,
    m_scatters: Counter,
    g_alive: Gauge,
    g_epoch: Gauge,
}

/// Process-unique incarnation nonces (monotone within a process; mixed
/// with wall nanos so a restarted shard dominates its previous life).
fn next_incarnation() -> u64 {
    static SEQ: AtomicU64 = AtomicU64::new(1);
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos.wrapping_add(SEQ.fetch_add(1, Ordering::Relaxed))
}

impl Federation {
    /// Build the runtime (inert until [`Federation::activate`]).
    pub fn new(opts: FederationOptions) -> Federation {
        let reg = faucets_telemetry::global();
        let labels = [("shard", opts.name.as_str())];
        let placeholder = SocketAddr::from(([0, 0, 0, 0], 0));
        let incarnation = next_incarnation();
        let view = MembershipView::new(&opts.name, placeholder, incarnation);
        let ring = Ring::build([opts.name.clone()], 1);
        let seeds = opts.seeds.clone();
        Federation {
            m_rounds: reg.counter("fed_gossip_rounds_total", &labels),
            m_failures: reg.counter("fed_gossip_failures_total", &labels),
            m_stable: reg.counter("fed_gossip_stable_rounds_total", &labels),
            m_forwarded: reg.counter("fed_forwarded_requests_total", &labels),
            m_scatters: reg.counter("fed_scatter_queries_total", &labels),
            g_alive: reg.gauge("fed_members_alive", &labels),
            g_epoch: reg.gauge("fed_ring_epoch", &labels),
            opts,
            incarnation,
            state: Mutex::new(FedState { view, ring }),
            seeds: Mutex::new(seeds),
        }
    }

    /// This shard's name.
    pub fn name(&self) -> &str {
        &self.opts.name
    }

    /// Fix our advertised address (known only once the FS `service` binds)
    /// and make gossip its tick, first due one interval from now. A stopped
    /// service falls silent, and its peers grade it dead in ten rounds.
    pub fn activate(self: &Arc<Self>, service: &ServiceHandle) {
        {
            let mut st = self.state.lock();
            // Rebuild the self entry with the real address, preserving the
            // incarnation (the view is still just us at this point).
            st.view = MembershipView::new(&self.opts.name, service.addr, self.incarnation);
        }
        let fed = Arc::clone(self);
        service.tick(self.opts.gossip_interval, move || fed.gossip());
    }

    /// Add a bootstrap peer at runtime (how port-0 shards are wired up).
    pub fn join(&self, seed: SocketAddr) {
        self.seeds.lock().push(seed);
    }

    /// One gossip round; returns the interval until the next.
    fn gossip(&self) -> Duration {
        let (digest, mut targets) = {
            let mut st = self.state.lock();
            st.view.tick();
            if st.view.grade(DEAD_AFTER_ROUNDS) {
                let epoch = st.ring.epoch();
                st.rebuild(epoch + 1);
            }
            self.g_alive.set(st.view.alive_names().len() as f64);
            self.g_epoch.set(st.ring.epoch() as f64);
            let targets: Vec<SocketAddr> =
                st.view.alive_peers().into_iter().map(|(_, a)| a).collect();
            (st.view.digest(st.ring.epoch()), targets)
        };
        // Dial seeds that have not introduced themselves yet.
        {
            let mut seeds = self.seeds.lock();
            seeds.retain(|s| !targets.contains(s));
            targets.extend(seeds.iter().copied());
        }
        self.m_rounds.inc();
        let mut refreshed = false;
        for peer in targets {
            let req = Request::Gossip {
                from: self.opts.name.clone(),
                view: digest.clone(),
            };
            match call_with(peer, &req, &self.opts.call) {
                Ok(Response::Gossip(remote)) => {
                    let mut st = self.state.lock();
                    let out = st.view.merge(&remote);
                    st.converge(remote.ring_epoch, out.liveness_changed);
                    refreshed |= out.refreshed;
                }
                _ => self.m_failures.inc(),
            }
        }
        if !refreshed {
            // Nothing new anywhere: the federation has converged (the
            // deflake counter tests synchronize on).
            self.m_stable.inc();
        }
        self.opts.gossip_interval
    }

    /// Handle an incoming [`Request::Gossip`]: merge and answer with our
    /// own digest (push-pull).
    pub fn handle_gossip(&self, view: &GossipView) -> Response {
        let mut st = self.state.lock();
        let out = st.view.merge(view);
        st.converge(view.ring_epoch, out.liveness_changed);
        self.g_alive.set(st.view.alive_names().len() as f64);
        self.g_epoch.set(st.ring.epoch() as f64);
        Response::Gossip(st.view.digest(st.ring.epoch()))
    }

    /// Where to forward a request keyed by `cluster`: `None` means we own
    /// it (or are the only routable shard) and must handle it locally.
    pub fn forward_addr(&self, cluster: ClusterId) -> Option<(String, SocketAddr)> {
        let st = self.state.lock();
        let owner = st.ring.owner(cluster)?;
        if owner == self.opts.name {
            return None;
        }
        let owner = owner.to_string();
        st.view.addr_of(&owner).map(|a| (owner, a))
    }

    /// Relay `req` to the owning shard, mapping transport failure to a
    /// retryable answer (the daemon's heartbeat loop re-registers).
    pub fn forward(&self, shard: &str, addr: SocketAddr, req: &Request) -> Response {
        self.m_forwarded.inc();
        match call_with(addr, req, &self.opts.call) {
            Ok(resp) => resp,
            Err(e) if crate::proto::is_overload_error(&e) => {
                Response::Overloaded { retry_after_ms: 25 }
            }
            Err(e) => Response::Error(format!("forward to shard {shard} failed: {e}")),
        }
    }

    /// Fan a [`FedQuery`] out to every alive peer, returning the answers
    /// that arrived (an unreachable shard contributes nothing).
    pub fn scatter(&self, query: FedQuery) -> Vec<Response> {
        let peers: Vec<SocketAddr> = {
            let st = self.state.lock();
            st.view.alive_peers().into_iter().map(|(_, a)| a).collect()
        };
        if peers.is_empty() {
            return vec![];
        }
        self.m_scatters.inc();
        let req = Request::FedQuery {
            from: self.opts.name.clone(),
            query,
        };
        call_many(&peers, &req, &self.opts.call, SCATTER_FAN_OUT)
            .into_iter()
            .filter_map(|r| r.ok())
            .collect()
    }

    /// Verify a token some other shard may have minted: first `Verified`
    /// answer wins.
    pub fn scatter_verify(&self, token: &SessionToken) -> Response {
        for resp in self.scatter(FedQuery::Verify {
            token: token.clone(),
        }) {
            if let Response::Verified { user } = resp {
                return Response::Verified { user };
            }
        }
        Response::Error("session token unknown to every federated shard".into())
    }

    // ---- readouts (tests, experiments, dashboards) ----

    /// Alive member names, ourselves included.
    pub fn alive_members(&self) -> Vec<String> {
        self.state.lock().view.alive_names()
    }

    /// The current ring epoch.
    pub fn ring_epoch(&self) -> u64 {
        self.state.lock().ring.epoch()
    }

    /// The shard owning `cluster` under the current ring.
    pub fn owner_of(&self, cluster: ClusterId) -> Option<String> {
        self.state.lock().ring.owner(cluster).map(String::from)
    }
}
