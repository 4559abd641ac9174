//! Sentinel: automatic, lease-driven failover for the replicated control
//! plane.
//!
//! PR 7 built the mechanism — WAL-frame shipping, `pick_primary`
//! elections, epoch fencing — but left the *orchestration* to an operator
//! or test harness: somebody had to notice the primary was dead, probe
//! the survivors, promote the winner, and restart the service. At
//! "hundreds of Compute Servers" (§5) that somebody must be a program.
//! The sentinel is that program:
//!
//! 1. **Lease probing** — every [`SentinelOptions::probe_every`] the
//!    sentinel sends [`crate::proto::Request::LeaseProbe`] to the current
//!    primary. Answering *is* the renewal: the primary replies with its
//!    replication position and fencing state, and the sentinel records
//!    the answer as a renewal. The lease lives only here, on the
//!    sentinel's clock; the primary persists nothing for it.
//! 2. **Suspicion** — the sentinel tracks renewals on its own clamped
//!    clock. When no renewal lands for
//!    [`SentinelOptions::lease_ttl`], the primary is suspect. Clock
//!    discipline matters here: the clamp means a backwards jump can only
//!    *delay* an election (safe), never fire one spuriously, and a
//!    forward jump alone cannot depose a primary that is still
//!    answering — expiry is always "missed renewals", never "bad clock".
//! 3. **Election** — probe every replica's durable position
//!    ([`crate::proto::Request::ReplStatus`]). A majority of the
//!    configured replica set must answer or
//!    the election aborts and suspicion restarts — a partitioned
//!    sentinel must not promote a minority island. A sync commit is
//!    acked only once every follower holds it, so any replica that
//!    answers has every acked frame. The winner is chosen
//!    by the same deterministic [`faucets_store::pick_primary`] rule the
//!    operator used (max `(epoch, generation, acked)`, ties to lowest
//!    index), so every sentinel replica-set view elects the same node.
//! 4. **Fencing** — before promoting, the sentinel best-effort sends
//!    [`crate::proto::Request::Fence`] with the new epoch to the deposed
//!    primary, closing the window where a paused-not-dead primary keeps
//!    acknowledging sync commits it will never be allowed to keep. (The
//!    shipping path would fence it anyway on its next frame; the wire
//!    fence makes it immediate.)
//! 5. **Promotion** — [`crate::proto::Request::ReplRelease`] detaches
//!    the winner's journal directory,
//!    [`faucets_store::prepare_promotion`] raises the epoch on disk, and
//!    the caller-supplied promote callback reopens the directory as the
//!    new primary service. For an FD that respawn re-registers with the
//!    FS under the same cluster id, flipping the directory row — clients
//!    and daemons discover the new primary through the same
//!    fallback-rotation they already use for federated FS shards.
//!
//! Every failover is recorded as a [`FailoverEvent`] with its measured
//! MTTR (suspicion to promoted), and the whole pipeline is counted:
//! `sentinel_probes_total`, `sentinel_probe_failures_total`,
//! `sentinel_failovers_total`, `sentinel_aborted_elections_total`, and
//! the `sentinel_epoch` gauge. Experiment E27 (`exp_selfheal`) drives a
//! seeded nemesis schedule against a sentinel-guarded grid and gates on
//! zero acked-award loss, one primary per epoch, and automatic MTTR
//! bounded against the operator-driven E24 baseline.

use crate::proto::{Request, Response};
use crate::service::{call_with, CallOptions, StopSignal};
use faucets_store::{pick_primary, prepare_promotion, ReplPosition};
use parking_lot::Mutex;
use std::io;
use std::net::SocketAddr;
use std::path::PathBuf;
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Milliseconds since the Unix epoch (0 if the system clock is before
/// it). Unclamped: [`clamped_now`] is the sentinel's one reader.
fn unix_ms() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

/// Tuning for a [`Sentinel`]. Defaults suit tests and localhost grids;
/// production deployments raise the TTL well above probe latency.
#[derive(Clone)]
pub struct SentinelOptions {
    /// Name of the replicated service the lease guards (e.g. `fd-cs-1` —
    /// must match the journal's service name on primary and replicas).
    pub service: String,
    /// How long the sentinel tolerates missed renewals before declaring
    /// the primary suspect and starting an election. Should comfortably
    /// exceed `probe_every` plus worst-case probe latency.
    pub lease_ttl: Duration,
    /// How often to probe the primary's lease.
    pub probe_every: Duration,
    /// RPC options for probes, fences, and releases (retry, timeouts,
    /// pooling, fault injection).
    pub call: CallOptions,
    /// Signed skew, in milliseconds, added to the sentinel's wall-clock
    /// reads. Nemesis schedules use this to inject clock jumps; the
    /// sentinel's clamped clock must keep both jump directions from
    /// causing a spurious failover.
    pub skew_ms: Arc<AtomicI64>,
}

impl Default for SentinelOptions {
    fn default() -> Self {
        SentinelOptions {
            service: String::new(),
            lease_ttl: Duration::from_millis(500),
            probe_every: Duration::from_millis(50),
            call: CallOptions::default(),
            skew_ms: Arc::new(AtomicI64::new(0)),
        }
    }
}

/// One completed automatic failover.
#[derive(Clone, Debug)]
pub struct FailoverEvent {
    /// The epoch the winner was promoted into.
    pub epoch: u64,
    /// The deposed primary's address.
    pub from: SocketAddr,
    /// The promoted primary's address.
    pub to: SocketAddr,
    /// Suspicion-to-promoted: lease declared expired → promote callback
    /// returned the new primary. The paper's recovery clock starts when
    /// detection *could* start, so probe cadence is included by design.
    pub mttr: Duration,
}

struct SentinelState {
    primary: SocketAddr,
    replicas: Vec<SocketAddr>,
    events: Vec<FailoverEvent>,
    /// Epochs ever observed holding a lease or promoted — the invariant
    /// checker asserts no epoch appears with two different primaries.
    reigns: Vec<(u64, SocketAddr)>,
}

/// Handle to a running sentinel thread. Dropping it stops the sentinel
/// without a join: a round in flight, an election included, finishes
/// first. [`Sentinel::shutdown`] stops the thread and joins it.
pub struct Sentinel {
    state: Arc<Mutex<SentinelState>>,
    stop: Arc<StopSignal>,
    thread: Option<JoinHandle<()>>,
}

impl Sentinel {
    /// The primary the sentinel currently trusts.
    pub fn primary(&self) -> SocketAddr {
        self.state.lock().primary
    }

    /// The replica set the sentinel will elect from.
    pub fn replicas(&self) -> Vec<SocketAddr> {
        self.state.lock().replicas.clone()
    }

    /// Completed failovers, oldest first.
    pub fn events(&self) -> Vec<FailoverEvent> {
        self.state.lock().events.clone()
    }

    /// Every `(epoch, primary)` reign observed. At most one primary per
    /// epoch is the dual-primary invariant E27 checks.
    pub fn reigns(&self) -> Vec<(u64, SocketAddr)> {
        self.state.lock().reigns.clone()
    }

    /// Tell the sentinel a replica moved — e.g. a bounced daemon that
    /// came back on a fresh port. `old` is replaced in the promotion
    /// pool; an unknown `old` appends `new` instead (the sentinel would
    /// rather probe a stranger than miss a survivor). Elections read the
    /// pool fresh each round, so the swap takes effect immediately.
    pub fn swap_replica(&self, old: SocketAddr, new: SocketAddr) {
        let mut s = self.state.lock();
        if let Some(slot) = s.replicas.iter_mut().find(|a| **a == old) {
            *slot = new;
        } else {
            s.replicas.push(new);
        }
    }

    /// Block until at least `n` failovers have completed, polling with a
    /// deadline. Returns whether the target was reached.
    pub fn await_failovers(&self, n: usize, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if self.state.lock().events.len() >= n {
                return true;
            }
            std::thread::sleep(Duration::from_millis(3));
        }
        self.state.lock().events.len() >= n
    }

    /// Stop probing and join the sentinel thread. In-flight elections
    /// finish first (a half-promoted service would be worse than a late
    /// shutdown).
    pub fn shutdown(mut self) {
        // Wakes the probe loop out of its inter-probe wait immediately
        // instead of letting shutdown eat up to a full probe interval.
        self.stop.stop();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for Sentinel {
    fn drop(&mut self) {
        self.stop.stop();
    }
}

/// Spawn a sentinel guarding `primary` with `replicas` as the promotion
/// pool. `promote` is invoked with the released, promotion-prepared
/// journal directory and the new epoch; it must reopen the directory as
/// the new primary service and return its address (for an FD: respawn
/// with the directory as `FdOptions::store`, which re-registers with the
/// FS and flips the directory row).
pub fn spawn_sentinel<F>(
    primary: SocketAddr,
    replicas: Vec<SocketAddr>,
    opts: SentinelOptions,
    promote: F,
) -> io::Result<Sentinel>
where
    F: FnMut(PathBuf, u64) -> io::Result<SocketAddr> + Send + 'static,
{
    if opts.service.is_empty() {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            "SentinelOptions::service must name the replicated service",
        ));
    }
    let state = Arc::new(Mutex::new(SentinelState {
        primary,
        replicas,
        events: Vec::new(),
        reigns: Vec::new(),
    }));
    let stop = Arc::new(StopSignal::default());
    let thread = {
        let state = Arc::clone(&state);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name(format!("sentinel-{}", opts.service))
            .spawn(move || run(state, stop, opts, promote))?
    };
    Ok(Sentinel {
        state,
        stop,
        thread: Some(thread),
    })
}

/// The sentinel's monotone wall clock: raw reading plus injected skew,
/// clamped against the last value handed out (like
/// [`crate::overload::TokenBucket`]), so a backwards step can only delay
/// an election, never fire one.
fn clamped_now(last: &mut u64, skew: &AtomicI64) -> u64 {
    let raw = unix_ms().saturating_add_signed(skew.load(Ordering::Relaxed));
    *last = (*last).max(raw);
    *last
}

fn run<F>(
    state: Arc<Mutex<SentinelState>>,
    stop: Arc<StopSignal>,
    opts: SentinelOptions,
    mut promote: F,
) where
    F: FnMut(PathBuf, u64) -> io::Result<SocketAddr> + Send + 'static,
{
    let reg = faucets_telemetry::global();
    let labels = [("service", opts.service.as_str())];
    let m_probes = reg.counter("sentinel_probes_total", &labels);
    let m_probe_failures = reg.counter("sentinel_probe_failures_total", &labels);
    let m_failovers = reg.counter("sentinel_failovers_total", &labels);
    let m_aborted = reg.counter("sentinel_aborted_elections_total", &labels);
    let m_epoch = reg.gauge("sentinel_epoch", &labels);

    let ttl_ms = opts.lease_ttl.as_millis() as u64;
    let mut clock = 0u64;
    // Grant the initial primary a full TTL from startup so a sentinel
    // that boots during a brief stall does not instantly depose it.
    let mut last_renewal = clamped_now(&mut clock, &opts.skew_ms);
    let mut suspect_since: Option<Instant> = None;

    loop {
        // Stop-aware pacing: wakes the instant `shutdown()` flips the
        // signal, instead of sleeping out the rest of the interval.
        if stop.wait_for(opts.probe_every) {
            break;
        }
        let primary = state.lock().primary;
        m_probes.inc();
        let probe = call_with(
            primary,
            &Request::LeaseProbe {
                service: opts.service.clone(),
            },
            &opts.call,
        );
        let now = clamped_now(&mut clock, &opts.skew_ms);
        match probe {
            Ok(Response::Lease { position, fenced }) if !fenced => {
                last_renewal = now;
                suspect_since = None;
                m_epoch.set(position.epoch as f64);
                let mut s = state.lock();
                if !s.reigns.iter().any(|&(e, _)| e == position.epoch) {
                    s.reigns.push((position.epoch, primary));
                }
                continue;
            }
            // A fenced primary is already deposed: skip straight past
            // the TTL wait — there is nothing left to renew.
            Ok(Response::Lease { .. }) => {
                m_probe_failures.inc();
                last_renewal = now.saturating_sub(ttl_ms.saturating_add(1));
            }
            Ok(_) | Err(_) => m_probe_failures.inc(),
        }
        if now <= last_renewal.saturating_add(ttl_ms) {
            continue;
        }
        let started = *suspect_since.get_or_insert_with(Instant::now);

        // ---- Election ----
        let replicas = state.lock().replicas.clone();
        let mut answers: Vec<(usize, ReplPosition)> = Vec::new();
        for (i, addr) in replicas.iter().enumerate() {
            let req = Request::ReplStatus {
                service: opts.service.clone(),
            };
            if let Ok(Response::Repl(faucets_store::ReplReply::Ok(pos))) =
                call_with(*addr, &req, &opts.call)
            {
                answers.push((i, pos));
            }
        }
        // An election needs answers from a majority of the configured
        // replica set.
        let quorum = replicas.len() / 2 + 1;
        if answers.len() < quorum || answers.is_empty() {
            // Short of quorum this sentinel might be the partitioned
            // minority; promoting here risks dual primaries. Abort and
            // re-suspect on the next probe round.
            m_aborted.inc();
            continue;
        }
        let positions: Vec<ReplPosition> = answers.iter().map(|&(_, p)| p).collect();
        let Some(win) = pick_primary(&positions) else {
            m_aborted.inc();
            continue;
        };
        let winner_idx = answers[win].0;
        let winner_addr = replicas[winner_idx];
        let new_epoch = positions.iter().map(|p| p.epoch).max().unwrap_or(0) + 1;

        // Fence the deposed primary first (best effort: it may be dead,
        // which fences it more thoroughly than any RPC).
        let _ = call_with(
            primary,
            &Request::Fence {
                service: opts.service.clone(),
                epoch: new_epoch,
            },
            &opts.call,
        );

        // Release the winner's journal and promote it.
        let released = call_with(
            winner_addr,
            &Request::ReplRelease {
                service: opts.service.clone(),
            },
            &opts.call,
        );
        let dir = match released {
            Ok(Response::Released { dir }) => PathBuf::from(dir),
            _ => {
                m_aborted.inc();
                continue;
            }
        };
        if prepare_promotion(&dir, &opts.service, new_epoch).is_err() {
            m_aborted.inc();
            continue;
        }
        match promote(dir, new_epoch) {
            Ok(new_primary) => {
                let mttr = started.elapsed();
                m_failovers.inc();
                m_epoch.set(new_epoch as f64);
                let mut s = state.lock();
                s.replicas.retain(|a| *a != winner_addr);
                let from = s.primary;
                s.primary = new_primary;
                s.reigns.push((new_epoch, new_primary));
                s.events.push(FailoverEvent {
                    epoch: new_epoch,
                    from,
                    to: new_primary,
                    mttr,
                });
                drop(s);
                suspect_since = None;
                last_renewal = clamped_now(&mut clock, &opts.skew_ms);
            }
            Err(_) => {
                // The journal directory is released and epoch-raised but
                // nothing serves it; retrying promote would need the dir
                // back. Count it and keep watching — the operator path
                // (E24) still works on the prepared directory.
                m_aborted.inc();
            }
        }
    }
}
