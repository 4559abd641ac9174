//! Property tests for the engine's pending-event set: events fire in
//! `(time, id)` order, each live event exactly once, and any interleaving of
//! scheduling, cancellation and bounded runs agrees with a plain ordered-map
//! model of the same simulation.

use faucets_sim::check::{for_seeds, vec_of};
use faucets_sim::engine::{RunOutcome, Scheduler, Simulation, World};
use faucets_sim::event::EventId;
use faucets_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;
use std::collections::BTreeMap;

/// Logs `(time, id)` for every event it handles. Every event is scheduled
/// through [`Log::schedule`], so its payload is its own id; an event whose id
/// is a multiple of 3 schedules one follow-up, `id % 5` ticks later (0 ties
/// it with its parent's instant).
#[derive(Default)]
struct Log {
    next_id: u64,
    fired: Vec<(u64, u64)>,
}

impl Log {
    fn schedule(&mut self, sched: &mut Scheduler<u64>, at: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        assert_eq!(sched.schedule_at(SimTime(at), id), EventId(id));
        id
    }
}

impl World for Log {
    type Event = u64;
    fn handle(&mut self, sched: &mut Scheduler<u64>, id: u64) {
        self.fired.push((sched.now().0, id));
        if let Some(delay) = follow_up(id) {
            self.schedule(sched, sched.now().0 + delay);
        }
    }
}

fn follow_up(id: u64) -> Option<u64> {
    id.is_multiple_of(3).then_some(id % 5)
}

/// Schedule one event at `at` from outside the world.
fn schedule(sim: &mut Simulation<Log>, at: u64) -> u64 {
    let (log, sched) = sim.split();
    log.schedule(sched, at)
}

/// The same simulation over an eagerly cancelled `BTreeMap<(time, id), _>`.
#[derive(Default)]
struct Model {
    pending: BTreeMap<(u64, u64), ()>,
    now: u64,
    next_id: u64,
    fired: Vec<(u64, u64)>,
}

impl Model {
    fn schedule(&mut self, at: u64) -> u64 {
        let id = self.next_id;
        self.next_id += 1;
        self.pending.insert((at, id), ());
        id
    }

    fn run_until(&mut self, horizon: u64, budget: u64) -> RunOutcome {
        for _ in 0..budget {
            let Some((&(t, id), _)) = self.pending.first_key_value() else {
                return RunOutcome::Drained;
            };
            if t > horizon {
                self.now = self.now.max(horizon);
                return RunOutcome::Horizon;
            }
            self.pending.remove(&(t, id));
            self.now = t;
            self.fired.push((t, id));
            if let Some(delay) = follow_up(id) {
                self.schedule(t + delay);
            }
        }
        RunOutcome::Budget
    }
}

/// A scripted step of the property below.
#[derive(Debug)]
enum Op {
    /// Schedule an event this many ticks after the clock.
    Schedule(u64),
    /// Cancel the id drawn modulo (ids handed out + 2): a pending, fired,
    /// cancelled or not yet issued event.
    Cancel(u64),
    /// `run_until(horizon, budget)`.
    Run(u64, u64),
}

fn op(rng: &mut StdRng, now_hint: u64) -> Op {
    match rng.random_range(0..10) {
        0..=4 => Op::Schedule(rng.random_range(0u64..20)),
        5..=6 => Op::Cancel(rng.random()),
        _ => {
            let horizon = match rng.random_range(0..4) {
                0 => u64::MAX,
                1 => now_hint.saturating_sub(rng.random_range(0u64..10)),
                _ => now_hint + rng.random_range(0u64..25),
            };
            let budget = match rng.random_range(0..4) {
                0 => u64::MAX,
                _ => rng.random_range(0u64..6),
            };
            Op::Run(horizon, budget)
        }
    }
}

/// Interleaved `schedule_at`, `cancel` and `run_until` with random horizons
/// and budgets fire the same events at the same instants, leave the same
/// clock and report the same outcomes as the ordered-map model.
#[test]
fn engine_matches_btreemap_model() {
    for_seeds(512, |rng| {
        let mut sim = Simulation::new(Log::default());
        let mut model = Model::default();
        let n = rng.random_range(1..120);
        for step in 0..n {
            match op(rng, model.now) {
                Op::Schedule(after) => {
                    let at = sim.now().0 + after;
                    let id = schedule(&mut sim, at);
                    assert_eq!(id, model.schedule(at), "step {step}: ids diverge");
                }
                Op::Cancel(pick) => {
                    let id = pick % (model.next_id + 2);
                    let live = model.pending.keys().any(|&(_, p)| p == id);
                    if live {
                        model.pending.retain(|&(_, p), _| p != id);
                    }
                    let recorded = sim.scheduler().cancel(EventId(id));
                    if live {
                        assert!(
                            recorded,
                            "step {step}: cancelling live {id} recorded nothing"
                        );
                    }
                }
                Op::Run(horizon, budget) => {
                    let got = sim.run_until(SimTime(horizon), budget);
                    let want = model.run_until(horizon, budget);
                    assert_eq!(got, want, "step {step}: run_until({horizon}, {budget})");
                }
            }
            assert_eq!(sim.now().0, model.now, "step {step}: clocks diverge");
            assert_eq!(
                sim.world().fired,
                model.fired,
                "step {step}: firings diverge"
            );
        }
        assert_eq!(sim.run(), model.run_until(u64::MAX, u64::MAX));
        assert_eq!(sim.world().fired, model.fired);
        assert_eq!(sim.now().0, model.now);
    });
}

/// Interleaved scheduling and single steps: every scheduled event fires
/// exactly once, and the engine's count of processed events agrees.
#[test]
fn heap_queue_total_order() {
    for_seeds(256, |rng| {
        let mut sim = Simulation::new(Log::default());
        let mut scheduled = 0u64;
        let script = vec_of(rng, 1..200, |rng| rng.random_range(0u64..4));
        for &s in &script {
            if s < 3 {
                let at = sim.now().0 + rng.random_range(0u64..1_000);
                schedule(&mut sim, at);
                scheduled += 1;
            } else {
                sim.step();
            }
        }
        assert_eq!(sim.run(), RunOutcome::Drained);
        let mut ids: Vec<u64> = sim.world().fired.iter().map(|&(_, id)| id).collect();
        let children = ids.iter().filter(|&&id| follow_up(id).is_some()).count() as u64;
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len() as u64, sim.processed(), "an event fired twice");
        assert_eq!(
            sim.processed(),
            scheduled + children,
            "an event never fired"
        );
    });
}

/// With every event scheduled up front, the firing order is sorted by
/// `(time, id)`.
#[test]
fn drain_is_sorted() {
    for_seeds(256, |rng| {
        let times = vec_of(rng, 1..300, |rng| rng.random_range(0u64..1_000_000));
        let mut sim = Simulation::new(Log::default());
        for &t in &times {
            schedule(&mut sim, t);
        }
        sim.run();
        let fired = &sim.world().fired;
        assert!(fired.len() >= times.len());
        for pair in fired.windows(2) {
            assert!(
                pair[0] < pair[1],
                "out of order: {:?} then {:?}",
                pair[0],
                pair[1]
            );
        }
    });
}
