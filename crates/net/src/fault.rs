//! Deterministic fault injection for the Figure-1 services.
//!
//! A grid of "hundreds of Compute Servers" handling "millions of jobs per
//! day" will see daemons crash mid-negotiation and links stall, so every
//! recovery path in this crate is exercised under *injected* faults rather
//! than waiting for real ones. A [`FaultPlan`] is a seeded, reproducible
//! description of what goes wrong:
//!
//! * **frame faults** — each wire frame may be dropped, delayed, truncated
//!   mid-frame, or garbled (bit-flipped), decided by a pure function of the
//!   plan seed and the frame bytes, so the same seed applied to the same
//!   traffic always injects the same faults regardless of thread
//!   interleaving;
//! * **process outages** — a deterministic kill/restart schedule for the
//!   spawned services ([`FaultPlan::outages`]), which experiments use to
//!   crash Faucets Daemons at planned instants.
//!
//! The plan is threaded through [`crate::service::serve_with`] and
//! [`crate::service::call_with`] down into the
//! [`crate::proto::read_frame_with`] / [`crate::proto::write_frame_with`]
//! framing layer, so any test or experiment can run the full Figure-1
//! stack under faults. [`FaultStats`] counts what was actually injected.
//! Faults compose with connection pooling ([`crate::pool::ConnPool`]): a
//! truncated or garbled frame fails the round-trip, which *poisons* the
//! pooled socket, so the same seed also exercises the pool's
//! fresh-socket recovery path.

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// What happens to one wire frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// The frame goes through untouched.
    Deliver,
    /// The frame is silently lost (the peer sees nothing and times out).
    Drop,
    /// The frame is delivered after an extra latency.
    Delay(Duration),
    /// Only the first `keep` bytes of the encoded frame are delivered; the
    /// connection then looks cut mid-frame to the peer.
    Truncate {
        /// Bytes of the encoded frame (prefix + payload) that get through.
        keep: usize,
    },
    /// One payload byte is XOR-flipped in flight; the peer sees a frame
    /// that frames correctly but fails to parse (or parses to garbage).
    Garble {
        /// Index into the payload to corrupt (reduced modulo its length).
        offset: usize,
        /// Non-zero XOR mask applied to that byte.
        xor: u8,
    },
}

/// Frame-fault probabilities. All in `[0, 1]`; they are tried in the order
/// drop → truncate → garble → delay, carving disjoint slices out of one
/// uniform draw, so their sum must stay ≤ 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Probability a frame is dropped outright.
    pub drop: f64,
    /// Probability a frame is cut off mid-frame.
    pub truncate: f64,
    /// Probability a payload byte is bit-flipped.
    pub garble: f64,
    /// Probability a frame is delayed.
    pub delay: f64,
    /// Upper bound for injected delays.
    pub max_delay: Duration,
    /// Probability a request is rejected at admission with
    /// [`crate::proto::Response::Overloaded`], before the handler runs.
    /// Drawn independently of the frame faults above (it applies to the
    /// endpoint, not the frame bytes), so it does not count toward their
    /// sum-≤-1 budget.
    pub reject: f64,
}

impl FaultConfig {
    /// No frame faults at all (outage scheduling still works).
    pub fn none() -> Self {
        FaultConfig {
            drop: 0.0,
            truncate: 0.0,
            garble: 0.0,
            delay: 0.0,
            max_delay: Duration::ZERO,
            reject: 0.0,
        }
    }

    /// A mildly hostile network: ~3% loss, ~2% truncation, ~2% corruption,
    /// ~5% delays up to 40 ms. Retrying clients should ride this out.
    pub fn flaky() -> Self {
        FaultConfig {
            drop: 0.03,
            truncate: 0.02,
            garble: 0.02,
            delay: 0.05,
            max_delay: Duration::from_millis(40),
            reject: 0.0,
        }
    }

    fn validate(&self) {
        let total = self.drop + self.truncate + self.garble + self.delay;
        assert!(
            (0.0..=1.0).contains(&total)
                && self.drop >= 0.0
                && self.truncate >= 0.0
                && self.garble >= 0.0
                && self.delay >= 0.0,
            "fault probabilities must be non-negative and sum to at most 1 (got {total})"
        );
        assert!(
            (0.0..=1.0).contains(&self.reject),
            "reject probability must be in [0, 1] (got {})",
            self.reject
        );
    }
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::none()
    }
}

/// Counters of faults actually injected, readable while the plan is live.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Frames passed through untouched.
    pub delivered: u64,
    /// Frames dropped.
    pub dropped: u64,
    /// Frames truncated mid-frame.
    pub truncated: u64,
    /// Frames with a corrupted payload byte.
    pub garbled: u64,
    /// Frames delayed.
    pub delayed: u64,
    /// Requests rejected at admission ([`FaultPlan::inject_overload`]).
    pub rejected: u64,
}

/// One planned service outage: kill `victim`, restart it later (or never).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outage {
    /// Index of the daemon to kill (into the experiment's daemon list).
    pub victim: usize,
    /// When to kill it, in milliseconds from the start of the run.
    pub kill_after_ms: u64,
    /// How long it stays down before restarting, in milliseconds.
    pub downtime_ms: u64,
}

/// A seeded, deterministic fault plan shared by every service in a run.
///
/// Frame decisions are a pure function of `(seed, frame bytes, occurrence
/// index of those bytes)`: the n-th transmission of identical bytes always
/// receives the same verdict under the same seed, independent of how
/// threads interleave — which is what makes runs reproducible and lets a
/// retried frame get a fresh (but still deterministic) draw.
pub struct FaultPlan {
    seed: u64,
    config: FaultConfig,
    occurrences: Mutex<HashMap<u64, u64>>,
    delivered: AtomicU64,
    dropped: AtomicU64,
    truncated: AtomicU64,
    garbled: AtomicU64,
    delayed: AtomicU64,
    rejected: AtomicU64,
}

impl std::fmt::Debug for FaultPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultPlan")
            .field("seed", &self.seed)
            .field("config", &self.config)
            .field("stats", &self.stats())
            .finish()
    }
}

/// SplitMix64 — the standard 64-bit finalizer/mixer; tiny and portable.
/// The crate's one copy: fault verdicts, ring points and retry jitter all
/// draw from it.
pub(crate) fn mix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// FNV-1a over the frame bytes — stable content fingerprint.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Map a hash to a uniform draw in `[0, 1)`.
fn unit(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

impl FaultPlan {
    /// A plan that injects `config` faults, seeded for reproducibility.
    pub fn new(seed: u64, config: FaultConfig) -> Self {
        config.validate();
        FaultPlan {
            seed,
            config,
            occurrences: Mutex::new(HashMap::new()),
            delivered: AtomicU64::new(0),
            dropped: AtomicU64::new(0),
            truncated: AtomicU64::new(0),
            garbled: AtomicU64::new(0),
            delayed: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
        }
    }

    /// A plan that injects nothing (useful as the "control" arm).
    pub fn inert(seed: u64) -> Self {
        FaultPlan::new(seed, FaultConfig::none())
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured probabilities.
    pub fn config(&self) -> FaultConfig {
        self.config
    }

    /// Faults injected so far.
    pub fn stats(&self) -> FaultStats {
        FaultStats {
            delivered: self.delivered.load(Ordering::Relaxed),
            dropped: self.dropped.load(Ordering::Relaxed),
            truncated: self.truncated.load(Ordering::Relaxed),
            garbled: self.garbled.load(Ordering::Relaxed),
            delayed: self.delayed.load(Ordering::Relaxed),
            rejected: self.rejected.load(Ordering::Relaxed),
        }
    }

    /// Should this request be rejected at admission? Deterministic in
    /// `(seed, key, occurrence)` like frame faults — `key` is normally the
    /// endpoint name, and the n-th request to the same endpoint always
    /// gets the same verdict under the same seed. Injections are counted
    /// in [`FaultPlan::stats`] as `rejected`.
    pub fn inject_overload(&self, key: &[u8]) -> bool {
        if self.config.reject <= 0.0 {
            return false;
        }
        let occurrence = {
            let mut occ = self.occurrences.lock().unwrap_or_else(|e| e.into_inner());
            // Salt the key so endpoint draws never collide with the frame
            // occurrence counters for identical bytes.
            let n = occ.entry(fnv1a(key) ^ 0x7265_6a65_6374).or_insert(0);
            let cur = *n;
            *n += 1;
            cur
        };
        let h = mix64(
            self.seed
                ^ 0x7265_6a65_6374
                ^ fnv1a(key).wrapping_add(occurrence.wrapping_mul(0x9e37_79b9)),
        );
        let rejected = unit(h) < self.config.reject;
        if rejected {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        rejected
    }

    /// The verdict for the n-th occurrence of a frame with these bytes —
    /// pure in `(seed, bytes, n)`, no counters touched. `bytes` is the
    /// fully encoded frame (length prefix + payload).
    pub fn decide_nth(&self, bytes: &[u8], occurrence: u64) -> FrameFault {
        let c = &self.config;
        let h = mix64(self.seed ^ fnv1a(bytes).wrapping_add(occurrence.wrapping_mul(0x9e37_79b9)));
        let u = unit(h);
        let mut edge = c.drop;
        if u < edge {
            return FrameFault::Drop;
        }
        edge += c.truncate;
        if u < edge {
            // Keep at least the length prefix's first byte, never the whole
            // frame: the cut must land strictly inside it.
            let keep = 1 + (mix64(h ^ 1) as usize) % bytes.len().saturating_sub(1).max(1);
            return FrameFault::Truncate { keep };
        }
        edge += c.garble;
        if u < edge {
            let payload_len = bytes.len().saturating_sub(4).max(1);
            return FrameFault::Garble {
                offset: (mix64(h ^ 2) as usize) % payload_len,
                xor: ((mix64(h ^ 3) % 255) + 1) as u8,
            };
        }
        edge += c.delay;
        if u < edge {
            let span = c.max_delay.as_millis().max(1) as u64;
            return FrameFault::Delay(Duration::from_millis(mix64(h ^ 4) % span));
        }
        FrameFault::Deliver
    }

    /// The verdict for this transmission of `bytes`: looks up how many
    /// times these exact bytes have been sent before, decides, and records
    /// the injection in [`FaultPlan::stats`].
    pub fn decide(&self, bytes: &[u8]) -> FrameFault {
        let occurrence = {
            let mut occ = self.occurrences.lock().unwrap_or_else(|e| e.into_inner());
            let n = occ.entry(fnv1a(bytes)).or_insert(0);
            let cur = *n;
            *n += 1;
            cur
        };
        let fault = self.decide_nth(bytes, occurrence);
        let counter = match fault {
            FrameFault::Deliver => &self.delivered,
            FrameFault::Drop => &self.dropped,
            FrameFault::Truncate { .. } => &self.truncated,
            FrameFault::Garble { .. } => &self.garbled,
            FrameFault::Delay(_) => &self.delayed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        fault
    }

    /// Adapt this plan into a [`faucets_store`] write-fault hook, so the
    /// same seeded schedule that mangles wire frames can mangle WAL
    /// appends (E19-style injection against the E21 durability engine):
    /// dropped frames become failed writes, truncations become torn
    /// tails, garbles become flipped bytes. Delays pass through — the WAL
    /// append path has no clock to stall.
    pub fn store_hook(self: &Arc<Self>) -> faucets_store::StoreFaultFn {
        let plan = Arc::clone(self);
        Arc::new(move |bytes: &[u8]| match plan.decide(bytes) {
            FrameFault::Deliver | FrameFault::Delay(_) => faucets_store::WriteFault::Deliver,
            FrameFault::Drop => faucets_store::WriteFault::Fail,
            FrameFault::Truncate { keep } => faucets_store::WriteFault::Torn { keep },
            FrameFault::Garble { offset, xor } => faucets_store::WriteFault::Garble { offset, xor },
        })
    }

    /// A deterministic kill/restart schedule: `kills` outages spread over
    /// the first `window_ms` of the run, victims drawn round-robin-ish from
    /// `daemons` services, each down for `downtime_ms`. Same seed → same
    /// schedule, byte for byte (see [`FaultPlan::schedule_description`]).
    pub fn outages(
        &self,
        daemons: usize,
        kills: usize,
        window_ms: u64,
        downtime_ms: u64,
    ) -> Vec<Outage> {
        assert!(daemons > 0, "need at least one daemon to kill");
        let mut out = Vec::with_capacity(kills);
        for k in 0..kills {
            let h = mix64(
                self.seed ^ 0x6f75_7461_6765 ^ (k as u64).wrapping_mul(0xd134_2543_de82_ef95),
            );
            let victim = (h as usize) % daemons;
            // Spread kill instants over the window, jittered but ordered.
            let slot = window_ms / (kills as u64 + 1);
            let jitter = mix64(h ^ 5) % slot.max(1);
            let kill_after_ms = slot * (k as u64 + 1) - jitter / 2;
            out.push(Outage {
                victim,
                kill_after_ms,
                downtime_ms,
            });
        }
        out
    }

    /// Render the outage schedule as a canonical string — two plans with
    /// the same seed produce byte-for-byte identical descriptions, which is
    /// how experiments prove reproducibility.
    pub fn schedule_description(
        &self,
        daemons: usize,
        kills: usize,
        window_ms: u64,
        downtime_ms: u64,
    ) -> String {
        use std::fmt::Write as _;
        let mut s = format!(
            "seed={} drop={} truncate={} garble={} delay={} max_delay_ms={}\n",
            self.seed,
            self.config.drop,
            self.config.truncate,
            self.config.garble,
            self.config.delay,
            self.config.max_delay.as_millis()
        );
        for o in self.outages(daemons, kills, window_ms, downtime_ms) {
            let _ = writeln!(
                s,
                "kill fd[{}] at +{}ms for {}ms",
                o.victim, o.kill_after_ms, o.downtime_ms
            );
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let a = FaultPlan::new(42, FaultConfig::flaky());
        let b = FaultPlan::new(42, FaultConfig::flaky());
        for i in 0..200u32 {
            let bytes = i.to_be_bytes();
            for occ in 0..3 {
                assert_eq!(a.decide_nth(&bytes, occ), b.decide_nth(&bytes, occ));
            }
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = FaultPlan::new(1, FaultConfig::flaky());
        let b = FaultPlan::new(2, FaultConfig::flaky());
        let disagreements = (0..500u32)
            .filter(|i| a.decide_nth(&i.to_be_bytes(), 0) != b.decide_nth(&i.to_be_bytes(), 0))
            .count();
        assert!(
            disagreements > 0,
            "seeds should produce different schedules"
        );
    }

    #[test]
    fn occurrence_counter_gives_retries_fresh_draws() {
        let cfg = FaultConfig {
            drop: 0.5,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(7, cfg);
        let bytes = b"the same frame";
        let verdicts: Vec<FrameFault> = (0..64).map(|_| plan.decide(bytes)).collect();
        assert!(verdicts.contains(&FrameFault::Drop));
        assert!(
            verdicts.contains(&FrameFault::Deliver),
            "a retried frame eventually gets through"
        );
        let s = plan.stats();
        assert_eq!(s.delivered + s.dropped, 64);
    }

    #[test]
    fn inert_plan_always_delivers() {
        let plan = FaultPlan::inert(9);
        for i in 0..100u32 {
            assert_eq!(plan.decide(&i.to_be_bytes()), FrameFault::Deliver);
        }
        assert_eq!(plan.stats().delivered, 100);
    }

    #[test]
    fn truncation_stays_inside_the_frame() {
        let cfg = FaultConfig {
            truncate: 1.0,
            ..FaultConfig::none()
        };
        let plan = FaultPlan::new(3, cfg);
        for i in 0..100u32 {
            let bytes = [i.to_be_bytes().as_slice(), &[0u8; 16]].concat();
            match plan.decide_nth(&bytes, 0) {
                FrameFault::Truncate { keep } => {
                    assert!(
                        keep >= 1 && keep < bytes.len(),
                        "keep={keep} len={}",
                        bytes.len()
                    );
                }
                other => panic!("expected truncate, got {other:?}"),
            }
        }
    }

    #[test]
    fn outage_schedule_reproduces_byte_for_byte() {
        let a = FaultPlan::new(123, FaultConfig::flaky());
        let b = FaultPlan::new(123, FaultConfig::flaky());
        assert_eq!(
            a.schedule_description(4, 6, 10_000, 500),
            b.schedule_description(4, 6, 10_000, 500)
        );
        let c = FaultPlan::new(124, FaultConfig::flaky());
        assert_ne!(
            a.schedule_description(4, 6, 10_000, 500),
            c.schedule_description(4, 6, 10_000, 500)
        );
    }

    #[test]
    fn outages_land_inside_the_window() {
        let plan = FaultPlan::inert(5);
        let outages = plan.outages(3, 8, 20_000, 1_000);
        assert_eq!(outages.len(), 8);
        for o in &outages {
            assert!(o.victim < 3);
            assert!(o.kill_after_ms <= 20_000);
            assert_eq!(o.downtime_ms, 1_000);
        }
    }

    #[test]
    fn store_hook_maps_frame_faults_to_write_faults() {
        use faucets_store::WriteFault;
        let plan = Arc::new(FaultPlan::new(
            11,
            FaultConfig {
                truncate: 1.0,
                ..FaultConfig::none()
            },
        ));
        let hook = plan.store_hook();
        let frame = [0u8; 32];
        match hook(&frame) {
            WriteFault::Torn { keep } => assert!(keep >= 1 && keep < frame.len()),
            other => panic!("expected a torn write, got {other:?}"),
        }
        // The injection is visible in the plan's shared stats.
        assert_eq!(plan.stats().truncated, 1);

        let inert = Arc::new(FaultPlan::inert(11));
        assert!(matches!(inert.store_hook()(&frame), WriteFault::Deliver));
    }

    #[test]
    fn overload_injection_is_deterministic_and_counted() {
        let cfg = FaultConfig {
            reject: 0.5,
            ..FaultConfig::none()
        };
        let a = FaultPlan::new(21, cfg);
        let b = FaultPlan::new(21, cfg);
        let va: Vec<bool> = (0..64).map(|_| a.inject_overload(b"RequestBid")).collect();
        let vb: Vec<bool> = (0..64).map(|_| b.inject_overload(b"RequestBid")).collect();
        assert_eq!(va, vb, "same seed, same endpoint, same verdicts");
        assert!(va.contains(&true) && va.contains(&false));
        assert_eq!(a.stats().rejected, va.iter().filter(|&&r| r).count() as u64);
        // Frame faults are untouched by admission draws.
        assert_eq!(a.stats().delivered, 0);
        // An inert plan never rejects.
        assert!(!FaultPlan::inert(21).inject_overload(b"RequestBid"));
    }

    #[test]
    #[should_panic(expected = "reject probability")]
    fn out_of_range_reject_probability_rejected() {
        FaultPlan::new(
            1,
            FaultConfig {
                reject: 1.5,
                ..FaultConfig::none()
            },
        );
    }

    #[test]
    #[should_panic(expected = "sum to at most 1")]
    fn overfull_probabilities_rejected() {
        FaultPlan::new(
            1,
            FaultConfig {
                drop: 0.6,
                truncate: 0.6,
                ..FaultConfig::none()
            },
        );
    }
}
