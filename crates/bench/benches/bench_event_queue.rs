//! E10 — DES engine performance (§5.4): the engine's binary heap.
//!
//! The classic *hold model* run through the engine itself: a world of `n`
//! self-rescheduling timers keeps the pending-event set at population `n`,
//! and every dispatched event pops one entry and pushes one. The paper's
//! framework must sustain millions of events for grid-scale studies; this
//! bench regenerates the events/second series. An iteration seeds the `n`
//! timers and dispatches 200 000 events.

use faucets_bench::ns_per_iter;
use faucets_sim::engine::{Scheduler, Simulation, World};
use faucets_sim::time::{SimDuration, SimTime};

/// A world that keeps a fixed population of self-rescheduling timers alive.
struct Timers {
    fired: u64,
}
impl World for Timers {
    type Event = u32;
    fn handle(&mut self, sched: &mut Scheduler<u32>, ev: u32) {
        self.fired += 1;
        sched.schedule_in(SimDuration((ev as u64 % 97) * 13 + 1), ev);
    }
}

fn main() {
    let events = 200_000u64;
    for width in [16u32, 1024, 10_000, 100_000] {
        ns_per_iter(&format!("engine_throughput/timers/{width}"), || {
            let mut sim = Simulation::new(Timers { fired: 0 });
            for i in 0..width {
                sim.scheduler().schedule_at(SimTime(i as u64), i);
            }
            sim.run_until(SimTime::MAX, events);
            sim.world().fired
        });
    }
}
