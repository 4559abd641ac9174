//! Deterministic, pre-computed arrival schedules.
//!
//! A schedule is built **before** the run from the same workload models
//! the simulator uses, for two reasons. First, determinism: the same
//! seed yields a byte-identical schedule (the determinism test
//! serializes two builds and compares the bytes), so a perf regression
//! hunt replays the exact same offered load. Second, open-loop honesty:
//! generating arrivals on the fly couples the generator's pace to the
//! grid's responsiveness; a frozen schedule cannot be slowed down by the
//! thing it is measuring.
//!
//! Times are **sim time** relative to the run start. The grid runs under
//! a sped-up [`faucets_net::service::Clock`], and QoS deadlines drawn by
//! [`JobMix::draw`] are anchored at the arrival instant, so the schedule
//! stays portable: the runner maps entry `at` to a wall instant via the
//! clock's speedup and shifts the deadlines by the grid clock's value at
//! run start ([`ScheduledJob::anchor`]).

use faucets_core::qos::QosContract;
use faucets_grid::workload::{ArrivalProcess, JobMix};
use faucets_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// A light, interactive-flavoured mix whose jobs finish in wall
/// milliseconds under a sped-up grid clock: small processor requests,
/// ~2 CPU-minutes of median work with a modest tail, generous slack.
/// The default for harness smoke and soak runs, where the point is to
/// measure the *grid machinery* under sustained arrivals, not to wait
/// on the jobs themselves.
pub fn snappy_mix() -> JobMix {
    use faucets_core::money::Money;
    use faucets_sim::dist::{LogNormal, UniformDist};
    JobMix {
        apps: vec!["namd".into()],
        log2_min_pes: (0, 3),
        max_over_min: 4,
        work: LogNormal::with_median(120.0, 0.8),
        work_clamp: (30.0, 600.0),
        efficiency: (0.95, 0.85),
        adaptive_fraction: 1.0,
        slack: UniformDist::new(4.0, 10.0),
        hard_over_soft: 2.0,
        payoff_rate: Money::from_units_f64(0.05),
        penalty_fraction: 0.25,
        mem_per_pe_mb: 64,
    }
}

/// One QoS class in the offered mix: its own arrival process and job
/// population, scheduled independently and merged.
#[derive(Debug, Clone)]
pub struct ClassSpec {
    /// Report label ("batch", "interactive", …).
    pub name: String,
    /// When this class's jobs arrive.
    pub arrivals: ArrivalProcess,
    /// What this class's jobs look like.
    pub mix: JobMix,
}

/// Everything a schedule build needs; same config + seed → same bytes.
#[derive(Debug, Clone)]
pub struct ScheduleConfig {
    /// Master seed; each class derives an independent stream from it.
    pub seed: u64,
    /// Virtual-user population size (entries carry an index in
    /// `0..users`).
    pub users: u32,
    /// Schedule length in sim time.
    pub horizon: SimDuration,
    /// The per-class offered mix.
    pub classes: Vec<ClassSpec>,
}

/// One scheduled submission.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScheduledJob {
    /// Arrival instant, sim time relative to run start.
    pub at: SimTime,
    /// Virtual user index in `0..users`.
    pub user: u32,
    /// Index into [`Schedule::classes`].
    pub class: u16,
    /// The contract, deadlines anchored at `at` (shift with
    /// [`ScheduledJob::anchor`] before submitting to a live grid).
    pub qos: QosContract,
}

impl ScheduledJob {
    /// The contract re-anchored to a grid whose clock read `base` at run
    /// start: every deadline shifts forward by `base` so "soft deadline =
    /// arrival + slack" holds on the live clock exactly as it did in
    /// schedule time.
    pub fn anchor(&self, base: SimTime) -> QosContract {
        let shift = SimDuration(base.as_micros());
        let mut qos = self.qos.clone();
        qos.payoff.soft_deadline = qos.payoff.soft_deadline.saturating_add(shift);
        qos.payoff.hard_deadline = qos.payoff.hard_deadline.saturating_add(shift);
        qos
    }
}

/// A frozen arrival schedule: entries sorted by arrival instant.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Schedule {
    /// The master seed it was built from.
    pub seed: u64,
    /// Virtual-user population size.
    pub users: u32,
    /// Sim-time length.
    pub horizon: SimDuration,
    /// Class labels, indexed by [`ScheduledJob::class`].
    pub classes: Vec<String>,
    /// The arrivals, ascending by `at`.
    pub entries: Vec<ScheduledJob>,
}

impl Schedule {
    /// Build the schedule: walk each class's arrival process over the
    /// horizon with an independent derived RNG stream, then merge-sort.
    /// Two builds from the same config are identical, entry for entry.
    pub fn build(cfg: &ScheduleConfig) -> Schedule {
        assert!(cfg.users > 0, "schedule needs at least one virtual user");
        assert!(!cfg.classes.is_empty(), "schedule needs at least one class");
        assert!(
            cfg.classes.len() <= u16::MAX as usize,
            "class index is a u16"
        );
        let horizon = SimTime(cfg.horizon.as_micros());
        let mut entries: Vec<ScheduledJob> = Vec::new();
        for (ci, class) in cfg.classes.iter().enumerate() {
            // Weyl-sequence stream split: widely separated, deterministic
            // per-class seeds from one master seed.
            let stream = cfg
                .seed
                .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(ci as u64 + 1));
            let mut rng = StdRng::seed_from_u64(stream);
            let mut t = SimTime::ZERO;
            loop {
                t = class.arrivals.next_after(t, &mut rng);
                if t > horizon {
                    break;
                }
                let user = rng.random_range(0..cfg.users);
                let qos = class.mix.draw(t, &mut rng);
                entries.push(ScheduledJob {
                    at: t,
                    user,
                    class: ci as u16,
                    qos,
                });
            }
        }
        // Stable sort: same-instant arrivals keep class order, so the
        // merged stream is as deterministic as its inputs.
        entries.sort_by_key(|e| (e.at, e.class, e.user));
        Schedule {
            seed: cfg.seed,
            users: cfg.users,
            horizon: cfg.horizon,
            classes: cfg.classes.iter().map(|c| c.name.clone()).collect(),
            entries,
        }
    }

    /// Number of scheduled arrivals.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Mean offered arrival rate over the horizon, jobs per sim second.
    pub fn offered_rate(&self) -> f64 {
        let h = self.horizon.as_secs_f64();
        if h <= 0.0 {
            0.0
        } else {
            self.entries.len() as f64 / h
        }
    }

    /// Canonical serialized form — what the determinism test compares
    /// byte for byte, and what a soak can archive next to its report.
    pub fn to_json_bytes(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("schedule serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use faucets_sim::time::SimDuration;

    fn cfg(seed: u64) -> ScheduleConfig {
        ScheduleConfig {
            seed,
            users: 100,
            horizon: SimDuration::from_secs(3_600),
            classes: vec![
                ClassSpec {
                    name: "batch".into(),
                    arrivals: ArrivalProcess::Poisson {
                        mean_interarrival: SimDuration::from_secs(30),
                    },
                    mix: JobMix::default(),
                },
                ClassSpec {
                    name: "bursty".into(),
                    arrivals: ArrivalProcess::DailyCycle {
                        mean_interarrival: SimDuration::from_secs(60),
                        amplitude: 0.6,
                    },
                    mix: JobMix::default(),
                },
            ],
        }
    }

    #[test]
    fn sorted_in_bounds_and_anchored() {
        let s = Schedule::build(&cfg(7));
        assert!(!s.is_empty());
        assert!(s.entries.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        for e in &s.entries {
            assert!(e.at <= SimTime(s.horizon.as_micros()));
            assert!(e.user < s.users);
            assert!((e.class as usize) < s.classes.len());
            assert!(e.qos.payoff.soft_deadline > e.at, "deadline after arrival");
            let shifted = e.anchor(SimTime::from_secs(500));
            assert_eq!(
                shifted.payoff.soft_deadline.as_micros(),
                e.qos.payoff.soft_deadline.as_micros() + 500_000_000
            );
        }
    }

    #[test]
    fn both_classes_present() {
        let s = Schedule::build(&cfg(11));
        let batch = s.entries.iter().filter(|e| e.class == 0).count();
        let bursty = s.entries.iter().filter(|e| e.class == 1).count();
        assert!(batch > 0 && bursty > 0, "batch {batch}, bursty {bursty}");
    }
}
