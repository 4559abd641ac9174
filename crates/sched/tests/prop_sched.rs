//! Property tests for the scheduler substrate: allocator tiling invariants,
//! equipartition bounds, and running-job work conservation under arbitrary
//! resize schedules.

use faucets_core::ids::{ContractId, JobId, UserId};
use faucets_core::job::JobSpec;
use faucets_core::money::Money;
use faucets_core::qos::{QosBuilder, SpeedupModel};
use faucets_sched::allocation::Allocator;
use faucets_sched::gantt::GanttProfile;
use faucets_sched::policy::equipartition_targets;
use faucets_sched::running::RunningJob;
use faucets_sim::check::{for_seeds, vec_of};
use faucets_sim::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

#[derive(Debug, Clone)]
enum AllocOp {
    Alloc(u64, u32),
    Release(u64),
    Shrink(u64, u32),
    Grow(u64, u32),
}

/// 1..120 operations on jobs 0..8, the four kinds equally likely.
fn alloc_ops(rng: &mut StdRng) -> Vec<AllocOp> {
    vec_of(rng, 1..120, |rng| {
        let j = rng.random_range(0u64..8);
        match rng.random_range(0..4) {
            0 => AllocOp::Alloc(j, rng.random_range(1u32..40)),
            1 => AllocOp::Release(j),
            2 => AllocOp::Shrink(j, rng.random_range(1u32..20)),
            _ => AllocOp::Grow(j, rng.random_range(1u32..20)),
        }
    })
}

/// After any op sequence, held + free ranges exactly tile the machine.
#[test]
fn allocator_always_tiles_machine() {
    for_seeds(256, |rng| {
        let mut a = Allocator::new(100);
        let mut held: std::collections::HashSet<u64> = Default::default();
        for op in alloc_ops(rng) {
            match op {
                AllocOp::Alloc(j, n) => {
                    if !held.contains(&j) && a.alloc(JobId(j), n) {
                        held.insert(j);
                    }
                }
                AllocOp::Release(j) => {
                    if a.release(JobId(j)) {
                        held.remove(&j);
                    }
                }
                AllocOp::Shrink(j, n) => {
                    let _ = a.shrink(JobId(j), n);
                }
                AllocOp::Grow(j, n) => {
                    let _ = a.grow(JobId(j), n);
                }
            }
            assert!(a.check_invariants().is_ok(), "{:?}", a.check_invariants());
            let held_total: u32 = held.iter().map(|&j| a.held_by(JobId(j))).sum();
            assert_eq!(held_total + a.free_pes(), 100);
        }
    });
}

/// `equipartition_targets` as first written, with a pinning loop quadratic
/// in the number of jobs: the oracle the linear loop must agree with.
fn equipartition_targets_oracle(bounds: &[(u32, u32)], total: u32) -> Vec<u32> {
    let mut targets = vec![0u32; bounds.len()];
    let mut active: Vec<usize> = vec![];
    let mut used = 0u32;
    for (i, &(min, _)) in bounds.iter().enumerate() {
        if used + min <= total {
            used += min;
            active.push(i);
        }
    }
    let mut capacity = total;
    while !active.is_empty() {
        let share = capacity / active.len() as u32;
        let lows: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| bounds[i].0 > share)
            .collect();
        if !lows.is_empty() {
            for &i in &lows {
                targets[i] = bounds[i].0;
                capacity -= bounds[i].0;
            }
            active.retain(|i| !lows.contains(i));
            continue;
        }
        let highs: Vec<usize> = active
            .iter()
            .copied()
            .filter(|&i| bounds[i].1 < share)
            .collect();
        if !highs.is_empty() {
            for &i in &highs {
                targets[i] = bounds[i].1;
                capacity -= bounds[i].1;
            }
            active.retain(|i| !highs.contains(i));
            continue;
        }
        let mut remainder = capacity - share * active.len() as u32;
        for &i in &active {
            targets[i] = share;
        }
        for &i in &active {
            if remainder == 0 {
                break;
            }
            if bounds[i].1 > share {
                targets[i] += 1;
                remainder -= 1;
            }
        }
        break;
    }
    let mut leftover = total - targets.iter().sum::<u32>();
    for (i, t) in targets.iter_mut().enumerate() {
        if leftover == 0 {
            break;
        }
        if *t > 0 && *t < bounds[i].1 {
            let add = (bounds[i].1 - *t).min(leftover);
            *t += add;
            leftover -= add;
        }
    }
    targets
}

/// The linear pinning loop decides exactly as the quadratic one did, on
/// 0–400 jobs: `snappy_mix`'s shape on 4,096 PEs, that shape with rigid
/// jobs among it, and random bounds on a random machine.
#[test]
fn equipartition_matches_the_quadratic_oracle() {
    for_seeds(1_000, |rng| {
        let jobs = rng.random_range(0usize..=400);
        let shape = rng.random_range(0..3);
        let total = if shape == 2 {
            rng.random_range(1u32..5_000)
        } else {
            4_096
        };
        let bounds: Vec<(u32, u32)> = (0..jobs)
            .map(|_| match shape {
                0 => {
                    let min = 1u32 << rng.random_range(0..=3);
                    (min, 4 * min)
                }
                1 => {
                    let min = 1u32 << rng.random_range(0..=3);
                    let pes = rng.random_range(min..=4 * min);
                    if rng.random_range(0..4) == 0 {
                        (pes, pes)
                    } else {
                        (min, 4 * min)
                    }
                }
                _ => {
                    let min = rng.random_range(1u32..300);
                    (min, min + rng.random_range(0u32..300))
                }
            })
            .collect();
        assert_eq!(
            equipartition_targets(&bounds, total),
            equipartition_targets_oracle(&bounds, total),
            "{jobs} jobs on {total} PEs: {bounds:?}"
        );
    });
}

/// Equipartition targets always respect bounds and never oversubscribe.
#[test]
fn equipartition_respects_bounds() {
    for_seeds(256, |rng| {
        let bounds: Vec<(u32, u32)> = vec_of(rng, 0..12, |rng| {
            let min = rng.random_range(1u32..200);
            (min, min + rng.random_range(0u32..200))
        });
        let total = rng.random_range(1u32..1000);
        let t = equipartition_targets(&bounds, total);
        assert_eq!(t.len(), bounds.len());
        let sum: u32 = t.iter().sum();
        assert!(sum <= total, "oversubscribed: {sum} > {total}");
        for (i, &target) in t.iter().enumerate() {
            if target > 0 {
                assert!(
                    target >= bounds[i].0 && target <= bounds[i].1,
                    "target {} outside [{}, {}]",
                    target,
                    bounds[i].0,
                    bounds[i].1
                );
            }
        }
        // Work conservation: if anything was left unallocated, every
        // admitted job is at its max or no job was admitted.
        if sum < total {
            for (i, &target) in t.iter().enumerate() {
                if target > 0 {
                    assert_eq!(target, bounds[i].1, "stranded capacity with headroom");
                }
            }
        }
    });
}

/// A running job completes exactly its declared work no matter how it is
/// resized along the way (work conservation).
#[test]
fn running_job_conserves_work() {
    for_seeds(256, |rng| {
        let mut schedule: Vec<(u64, u32)> = vec_of(rng, 0..10, |rng| {
            (rng.random_range(1u64..100), rng.random_range(1u32..64))
        });
        let qos = QosBuilder::new("app", 1, 64, 1000.0)
            .speedup(SpeedupModel::Perfect)
            .adaptive()
            .build()
            .unwrap();
        let spec = JobSpec::new(JobId(1), UserId(0), qos, SimTime::ZERO).unwrap();
        let mut r = RunningJob::start(spec, ContractId(0), Money::ZERO, 32, 1.0, SimTime::ZERO);

        schedule.sort();
        let mut drained = 0.0;
        let mut prev_remaining = r.remaining_work();
        let mut last_t = SimTime::ZERO;
        for (secs, pes) in schedule {
            let t = last_t + SimDuration::from_secs(secs);
            r.advance(t);
            drained += prev_remaining - r.remaining_work();
            r.resize(t, pes, SimDuration::ZERO);
            prev_remaining = r.remaining_work();
            last_t = t;
            if r.is_done() {
                break;
            }
        }
        if !r.is_done() {
            let fin = r.est_finish(last_t);
            r.advance(fin);
            drained += prev_remaining - r.remaining_work();
            assert!(r.is_done(), "job must finish by its own estimate");
        }
        assert!(
            (drained - 1000.0).abs() < 1e-6,
            "drained {drained} != declared 1000"
        );
    });
}

/// A machine of 64..512 processors and up to 12 running jobs as (finish
/// second, processors), their concurrent usage capped at the machine size.
fn profile_inputs(rng: &mut StdRng) -> (u32, Vec<(u64, u32)>) {
    let total = rng.random_range(64u32..512);
    let mut runs = vec_of(rng, 0..12, |rng| {
        (rng.random_range(1u64..10_000), rng.random_range(1u32..64))
    });
    let mut used = 0u32;
    runs.retain(|&(_, pes)| {
        let fits = used + pes <= total;
        if fits {
            used += pes;
        }
        fits
    });
    (total, runs)
}

/// earliest_window returns a start whose whole window has capacity,
/// and no profile breakpoint before it would also fit (minimality).
#[test]
fn earliest_window_is_feasible_and_minimal() {
    for_seeds(256, |rng| {
        let (total, runs) = profile_inputs(rng);
        let pes = rng.random_range(1u32..256);
        let dur = SimDuration::from_secs(rng.random_range(1u64..5_000));
        let used: u32 = runs.iter().map(|&(_, p)| p).sum();
        let free_now = total - used;
        let gantt = GanttProfile::new(
            SimTime::ZERO,
            total,
            free_now,
            runs.iter().map(|&(t, p)| (SimTime::from_secs(t), p)),
        );
        match gantt.earliest_window(pes, dur, SimTime::ZERO) {
            Some(start) => {
                assert!(
                    gantt.min_free_over(start, dur) >= pes,
                    "window lacks capacity"
                );
                // Minimality over candidate breakpoints.
                let mut t = SimTime::ZERO;
                for &(ft, _) in runs.iter() {
                    let cand = SimTime::from_secs(ft).min(start);
                    if cand < start && cand >= t {
                        assert!(
                            gantt.min_free_over(cand, dur) < pes,
                            "earlier breakpoint {cand} would fit"
                        );
                    }
                    t = t.max(cand);
                }
                if start > SimTime::ZERO {
                    assert!(gantt.min_free_over(SimTime::ZERO, dur) < pes);
                }
            }
            None => assert!(pes > total, "only over-sized jobs never fit"),
        }
    });
}

/// Reservations subtract capacity exactly over their span and leave
/// the rest of the timeline untouched.
#[test]
fn reserve_subtracts_exactly() {
    for_seeds(256, |rng| {
        let (total, runs) = profile_inputs(rng);
        let start = SimTime::from_secs(rng.random_range(0u64..8_000));
        let dur = SimDuration::from_secs(rng.random_range(1u64..4_000));
        let used: u32 = runs.iter().map(|&(_, p)| p).sum();
        let mut gantt = GanttProfile::new(
            SimTime::ZERO,
            total,
            total - used,
            runs.iter().map(|&(t, p)| (SimTime::from_secs(t), p)),
        );
        let before_in = gantt.free_at(start);
        let probe_after = start + dur + SimDuration::from_secs(1);
        let before_out = gantt.free_at(probe_after);
        let pes = before_in.min(gantt.min_free_over(start, dur));
        if pes == 0 {
            return;
        }
        gantt.reserve(start, dur, pes);
        assert_eq!(gantt.free_at(start), before_in - pes);
        assert_eq!(
            gantt.free_at(probe_after),
            before_out,
            "outside the window untouched"
        );
    });
}
