//! Property tests for the schedule builder: determinism and structural
//! invariants over the whole configuration space the harness exposes.

use faucets_grid::workload::{ArrivalProcess, JobMix};
use faucets_load::prelude::*;
use faucets_sim::check::for_seeds;
use faucets_sim::time::{SimDuration, SimTime};
use rand::Rng;

fn config(seed: u64, users: u32, horizon_s: u64, inter_s: u64, daily: bool) -> ScheduleConfig {
    let arrivals = if daily {
        ArrivalProcess::DailyCycle {
            mean_interarrival: SimDuration::from_secs(inter_s),
            amplitude: 0.5,
        }
    } else {
        ArrivalProcess::Poisson {
            mean_interarrival: SimDuration::from_secs(inter_s),
        }
    };
    ScheduleConfig {
        seed,
        users,
        horizon: SimDuration::from_secs(horizon_s),
        classes: vec![
            ClassSpec {
                name: "a".into(),
                arrivals,
                mix: JobMix::default(),
            },
            ClassSpec {
                name: "b".into(),
                arrivals: ArrivalProcess::Poisson {
                    mean_interarrival: SimDuration::from_secs(inter_s * 2),
                },
                mix: JobMix {
                    adaptive_fraction: 0.0,
                    ..JobMix::default()
                },
            },
        ],
    }
}

/// Same config → byte-identical bytes; and every entry satisfies the
/// structural invariants the runner and report rely on.
#[test]
fn schedules_are_deterministic_and_well_formed() {
    for_seeds(32, |rng| {
        let users = rng.random_range(1u32..2_000);
        let cfg = config(
            rng.random(),
            users,
            rng.random_range(60u64..4_000),
            rng.random_range(1u64..120),
            rng.random(),
        );
        let s = Schedule::build(&cfg);
        assert_eq!(
            s.to_json_bytes(),
            Schedule::build(&cfg).to_json_bytes(),
            "determinism"
        );
        let horizon = SimTime(s.horizon.as_micros());
        assert!(s.entries.windows(2).all(|w| w[0].at <= w[1].at), "sorted");
        for e in &s.entries {
            assert!(e.at <= horizon, "inside the horizon");
            assert!(e.user < users, "user index in population");
            assert!((e.class as usize) < s.classes.len(), "class index valid");
            assert!(e.qos.validate().is_ok(), "contract validates");
            assert!(
                e.qos.payoff.soft_deadline > e.at,
                "deadline anchored after arrival"
            );
            assert!(e.qos.payoff.hard_deadline >= e.qos.payoff.soft_deadline);
        }
    });
}

/// Anchoring shifts both deadlines by exactly the base and touches
/// nothing else.
#[test]
fn anchoring_is_a_pure_deadline_shift() {
    for_seeds(32, |rng| {
        let cfg = config(rng.random(), 10, 600, 30, false);
        let base = SimTime::from_secs(rng.random_range(0u64..100_000));
        let s = Schedule::build(&cfg);
        if s.is_empty() {
            return;
        }
        let e = &s.entries[0];
        let anchored = e.anchor(base);
        assert_eq!(
            anchored.payoff.soft_deadline.as_micros(),
            e.qos.payoff.soft_deadline.as_micros() + base.as_micros()
        );
        assert_eq!(
            anchored.payoff.hard_deadline.as_micros(),
            e.qos.payoff.hard_deadline.as_micros() + base.as_micros()
        );
        let mut unshifted = anchored;
        unshifted.payoff.soft_deadline = e.qos.payoff.soft_deadline;
        unshifted.payoff.hard_deadline = e.qos.payoff.hard_deadline;
        assert_eq!(&unshifted, &e.qos, "nothing but deadlines changed");
    });
}
