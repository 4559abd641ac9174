//! Seeded nemesis: deterministic fault schedules for the self-healing
//! control plane, plus the invariant checker that grades a run.
//!
//! A chaos test is only as good as its reproducibility. Like
//! [`faucets_net::fault::FaultPlan`] before it, a [`NemesisPlan`] derives
//! *everything* — event times, victims, downtimes, skew magnitudes — from
//! one seed via splitmix64, and renders the whole schedule as a canonical
//! byte-for-byte [`NemesisPlan::description`]. A failing E27 run is
//! re-run exactly by quoting its seed; two plans with the same seed and
//! config are `==` down to the last byte.
//!
//! The plan itself is pure data: it names *what* to break and *when*,
//! never *how* — [`fire`] walks the schedule on the wall clock and hands
//! each [`FaultKind`] to a caller-supplied applier that holds the actual
//! grid handles (kill -9 the primary FD, bounce a replica daemon, black-
//! hole the sentinel's probes for a partition window, shove its wall
//! clock around). That split keeps the schedule unit-testable without a
//! grid and the applier free of randomness.
//!
//! After the storm, [`InvariantChecker`] grades what the paper's §5
//! deployment would have cared about:
//!
//! 1. **Zero acked-award loss** — every submission the client was
//!    acknowledged completes, across any number of failovers.
//! 2. **One primary per epoch** — no epoch ever had two primaries
//!    (dual-primary means fencing failed).
//! 3. **Bounded MTTR** — every automatic failover finished inside the
//!    configured bound.

use faucets_core::ids::JobId;
use faucets_net::sentinel::FailoverEvent;
use std::collections::HashSet;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// One thing the nemesis does to the grid.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// kill -9 the current sync primary. The sentinel must notice, elect,
    /// fence, and promote with nobody watching.
    KillPrimary,
    /// Kill replica daemon `replica` (an index into the applier's replica
    /// pool) and restart it after `downtime_ms` — a follower flapping
    /// while the primary keeps committing.
    RestartReplica {
        /// Index into the replica pool (modulo its size).
        replica: usize,
        /// How long the replica stays dead.
        downtime_ms: u64,
    },
    /// Partition the sentinel from the grid for `heal_ms`: its probes
    /// fail while primary and replicas stay healthy. A correct sentinel
    /// aborts short-of-quorum elections instead of promoting a minority
    /// view.
    Partition {
        /// How long the partition lasts before healing.
        heal_ms: u64,
    },
    /// Jump the sentinel's wall clock by `delta_ms` (either direction).
    /// The clamped lease clock must turn this into at worst a *delayed*
    /// failover, never a spurious one.
    ClockSkew {
        /// Signed clock displacement.
        delta_ms: i64,
    },
}

impl FaultKind {
    fn describe(&self) -> String {
        match self {
            FaultKind::KillPrimary => "kill-primary".to_string(),
            FaultKind::RestartReplica {
                replica,
                downtime_ms,
            } => format!("restart-replica replica={replica} downtime={downtime_ms}ms"),
            FaultKind::Partition { heal_ms } => format!("partition heal={heal_ms}ms"),
            FaultKind::ClockSkew { delta_ms } => format!("clock-skew delta={delta_ms}ms"),
        }
    }
}

/// A fault pinned to its firing offset from the start of the run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ScheduledFault {
    /// Milliseconds after [`fire`] starts.
    pub at_ms: u64,
    /// What breaks.
    pub kind: FaultKind,
}

/// Knobs for [`NemesisPlan::generate`].
#[derive(Clone, Debug)]
pub struct NemesisConfig {
    /// Total events in the schedule.
    pub events: usize,
    /// Guaranteed minimum number of [`FaultKind::KillPrimary`] events
    /// (the earliest non-kill events are upgraded if the draw falls
    /// short) — an E27 schedule that never kills the primary proves
    /// nothing.
    pub min_kills: usize,
    /// Schedule horizon: every event fires within `[window_ms/10,
    /// window_ms]`, leaving a warm-up head for the load to ramp.
    pub window_ms: u64,
    /// Size of the replica pool `RestartReplica` draws victims from.
    pub replicas: usize,
    /// Upper bound on replica downtime.
    pub max_downtime_ms: u64,
    /// Upper bound on partition duration.
    pub max_partition_ms: u64,
    /// Magnitude bound for clock skew (drawn in `±max_skew_ms`).
    pub max_skew_ms: u64,
}

impl Default for NemesisConfig {
    fn default() -> Self {
        NemesisConfig {
            events: 6,
            min_kills: 1,
            window_ms: 8_000,
            replicas: 2,
            max_downtime_ms: 500,
            max_partition_ms: 400,
            max_skew_ms: 2_000,
        }
    }
}

/// The seeded, fully deterministic fault schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NemesisPlan {
    seed: u64,
    window_ms: u64,
    /// Events in firing order.
    pub faults: Vec<ScheduledFault>,
}

/// splitmix64 — same generator family as `faucets_net::fault`, kept
/// independent so the two schedules never entangle.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl NemesisPlan {
    /// Derive the whole schedule from `seed`. Same seed + same config →
    /// identical plan, byte for byte.
    pub fn generate(seed: u64, cfg: &NemesisConfig) -> Self {
        let mut s = seed ^ 0xD6E8_FEB8_6659_FD93;
        let head = cfg.window_ms / 10;
        let span = cfg.window_ms.saturating_sub(head).max(1);
        let mut faults: Vec<ScheduledFault> = (0..cfg.events)
            .map(|_| {
                let at_ms = head + splitmix(&mut s) % span;
                let kind = match splitmix(&mut s) % 100 {
                    0..=29 => FaultKind::KillPrimary,
                    30..=59 => FaultKind::RestartReplica {
                        replica: (splitmix(&mut s) as usize) % cfg.replicas.max(1),
                        downtime_ms: 1 + splitmix(&mut s) % cfg.max_downtime_ms.max(1),
                    },
                    60..=79 => FaultKind::Partition {
                        heal_ms: 1 + splitmix(&mut s) % cfg.max_partition_ms.max(1),
                    },
                    _ => FaultKind::ClockSkew {
                        delta_ms: {
                            let mag = (splitmix(&mut s) % cfg.max_skew_ms.max(1)) as i64;
                            if splitmix(&mut s).is_multiple_of(2) {
                                mag
                            } else {
                                -mag
                            }
                        },
                    },
                };
                ScheduledFault { at_ms, kind }
            })
            .collect();
        // Chronological order; ties break on the (already deterministic)
        // generation order, which sort_by_key preserves (stable sort).
        faults.sort_by_key(|f| f.at_ms);
        // Guarantee the headline event: upgrade the earliest non-kills
        // until the minimum kill count holds.
        let mut kills = faults
            .iter()
            .filter(|f| f.kind == FaultKind::KillPrimary)
            .count();
        for f in faults.iter_mut() {
            if kills >= cfg.min_kills.min(cfg.events) {
                break;
            }
            if f.kind != FaultKind::KillPrimary {
                f.kind = FaultKind::KillPrimary;
                kills += 1;
            }
        }
        NemesisPlan {
            seed,
            window_ms: cfg.window_ms,
            faults,
        }
    }

    /// The generating seed (quote it to reproduce a failing run).
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Canonical rendering of the whole schedule. Two runs with the same
    /// seed and config produce *identical bytes* — diffable, greppable,
    /// and asserted on by the determinism test.
    pub fn description(&self) -> String {
        let mut out = format!(
            "nemesis seed={} window={}ms events={}\n",
            self.seed,
            self.window_ms,
            self.faults.len()
        );
        for f in &self.faults {
            out.push_str(&format!("  @{}ms {}\n", f.at_ms, f.kind.describe()));
        }
        out
    }
}

/// Walk the plan on the wall clock: sleep to each event's offset (from
/// the moment `fire` is entered) and hand its kind to `apply`. Late
/// events (a slow applier pushed past the next offset) fire immediately —
/// the schedule never skips.
pub fn fire<F: FnMut(&FaultKind)>(plan: &NemesisPlan, mut apply: F) {
    let start = Instant::now();
    for f in &plan.faults {
        let target = Duration::from_millis(f.at_ms);
        let elapsed = start.elapsed();
        if elapsed < target {
            std::thread::sleep(target - elapsed);
        }
        apply(&f.kind);
    }
}

/// Collects acked/completed jobs during a nemesis run and grades the
/// three E27 invariants afterwards.
#[derive(Debug, Default)]
pub struct InvariantChecker {
    acked: Vec<JobId>,
    completed: HashSet<JobId>,
}

impl InvariantChecker {
    /// Fresh checker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record a submission the grid *acknowledged* (the client got its
    /// award confirmation). From this moment the job may not be lost.
    pub fn acked(&mut self, job: JobId) {
        self.acked.push(job);
    }

    /// Record a completion observed through AppSpector.
    pub fn completed(&mut self, job: JobId) {
        self.completed.insert(job);
    }

    /// Grade the run: `reigns` and `events` come from
    /// [`faucets_net::sentinel::Sentinel`] (`reigns()` / `events()`),
    /// `mttr_bound` is the automatic-recovery budget.
    pub fn report(
        &self,
        reigns: &[(u64, SocketAddr)],
        events: &[FailoverEvent],
        mttr_bound: Duration,
    ) -> InvariantReport {
        let lost: Vec<JobId> = self
            .acked
            .iter()
            .filter(|j| !self.completed.contains(j))
            .copied()
            .collect();
        let mut dual_primary_epochs: Vec<u64> = Vec::new();
        for (i, &(epoch, addr)) in reigns.iter().enumerate() {
            if reigns[..i].iter().any(|&(e, a)| e == epoch && a != addr)
                && !dual_primary_epochs.contains(&epoch)
            {
                dual_primary_epochs.push(epoch);
            }
        }
        let worst_mttr = events.iter().map(|e| e.mttr).max();
        InvariantReport {
            acked: self.acked.len(),
            completed: self.acked.len() - lost.len(),
            lost,
            dual_primary_epochs,
            failovers: events.len(),
            worst_mttr,
            mttr_bound,
        }
    }
}

/// The graded outcome of a nemesis run. [`InvariantReport::holds`] is
/// the gate; the fields are the evidence.
#[derive(Debug, Clone)]
pub struct InvariantReport {
    /// Awards the client was acknowledged.
    pub acked: usize,
    /// Of those, how many completed.
    pub completed: usize,
    /// Acked jobs that never completed — must be empty.
    pub lost: Vec<JobId>,
    /// Epochs observed with two different primaries — must be empty.
    pub dual_primary_epochs: Vec<u64>,
    /// Automatic failovers the sentinel performed.
    pub failovers: usize,
    /// Slowest failover, if any happened.
    pub worst_mttr: Option<Duration>,
    /// The automatic-recovery budget each failover must fit.
    pub mttr_bound: Duration,
}

impl InvariantReport {
    /// All three invariants hold.
    pub fn holds(&self) -> bool {
        self.lost.is_empty()
            && self.dual_primary_epochs.is_empty()
            && self.worst_mttr.is_none_or(|m| m <= self.mttr_bound)
    }

    /// One-line human verdict.
    pub fn summary(&self) -> String {
        format!(
            "acked={} completed={} lost={} dual_primary_epochs={:?} \
             failovers={} worst_mttr={:?} (bound {:?}) => {}",
            self.acked,
            self.completed,
            self.lost.len(),
            self.dual_primary_epochs,
            self.failovers,
            self.worst_mttr,
            self.mttr_bound,
            if self.holds() { "PASS" } else { "FAIL" }
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_plan_different_seed_different_plan() {
        let cfg = NemesisConfig::default();
        let a = NemesisPlan::generate(42, &cfg);
        let b = NemesisPlan::generate(42, &cfg);
        assert_eq!(a, b);
        assert_eq!(a.description(), b.description());
        let c = NemesisPlan::generate(43, &cfg);
        assert_ne!(
            a.description(),
            c.description(),
            "different seeds must not collide on the whole schedule"
        );
    }

    #[test]
    fn plan_honours_config_bounds() {
        let cfg = NemesisConfig {
            events: 40,
            min_kills: 3,
            window_ms: 10_000,
            replicas: 2,
            max_downtime_ms: 100,
            max_partition_ms: 50,
            max_skew_ms: 500,
        };
        let plan = NemesisPlan::generate(7, &cfg);
        assert_eq!(plan.faults.len(), 40);
        assert!(plan.faults.windows(2).all(|w| w[0].at_ms <= w[1].at_ms));
        let kills = plan
            .faults
            .iter()
            .filter(|f| f.kind == FaultKind::KillPrimary)
            .count();
        assert!(kills >= 3, "min_kills honoured, got {kills}");
        for f in &plan.faults {
            assert!(f.at_ms >= 1_000 && f.at_ms <= 10_000, "in window: {f:?}");
            match &f.kind {
                FaultKind::RestartReplica {
                    replica,
                    downtime_ms,
                } => {
                    assert!(*replica < 2);
                    assert!(*downtime_ms >= 1 && *downtime_ms <= 100);
                }
                FaultKind::Partition { heal_ms } => {
                    assert!(*heal_ms >= 1 && *heal_ms <= 50)
                }
                FaultKind::ClockSkew { delta_ms } => {
                    assert!(delta_ms.unsigned_abs() < 500)
                }
                FaultKind::KillPrimary => {}
            }
        }
    }

    #[test]
    fn checker_flags_loss_dual_primary_and_slow_mttr() {
        let a1: SocketAddr = "127.0.0.1:1000".parse().unwrap();
        let a2: SocketAddr = "127.0.0.1:2000".parse().unwrap();
        let mut ck = InvariantChecker::new();
        ck.acked(JobId(1));
        ck.acked(JobId(2));
        ck.completed(JobId(1));
        let events = vec![FailoverEvent {
            epoch: 2,
            from: a1,
            to: a2,
            mttr: Duration::from_secs(9),
        }];
        // Lost job 2, epoch 1 claimed by both addresses, MTTR over budget:
        // every invariant trips at once.
        let report = ck.report(
            &[(1, a1), (1, a2), (2, a2)],
            &events,
            Duration::from_secs(5),
        );
        assert!(!report.holds());
        assert_eq!(report.lost, vec![JobId(2)]);
        assert_eq!(report.dual_primary_epochs, vec![1]);
        assert_eq!(report.worst_mttr, Some(Duration::from_secs(9)));

        // And the clean version passes.
        ck.completed(JobId(2));
        let clean = ck.report(&[(1, a1), (2, a2)], &events, Duration::from_secs(30));
        assert!(clean.holds(), "{}", clean.summary());
        assert_eq!(clean.completed, 2);
    }
}
