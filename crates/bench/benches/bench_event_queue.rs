//! E10 — DES engine performance (§5.4): binary heap vs calendar queue.
//!
//! The classic *hold model*: keep the pending-event set at population `n`
//! and measure steady-state pop-then-push pairs, plus raw engine throughput
//! with a self-rescheduling world. The paper's framework must sustain
//! millions of events for grid-scale studies; this bench regenerates the
//! events/second series: a `hold_model` iteration is 50 000 pop-then-push
//! pairs, an `engine_throughput` iteration 200 000 dispatched events.

use faucets_bench::ns_per_iter;
use faucets_sim::calendar::CalendarQueue;
use faucets_sim::engine::{Scheduler, Simulation, World};
use faucets_sim::event::EventId;
use faucets_sim::queue::{BinaryHeapQueue, EventQueue};
use faucets_sim::time::{SimDuration, SimTime};

/// Deterministic pseudo-random inter-event gaps (LCG; no RNG dependency in
/// the hot loop).
struct Gaps(u64);
impl Gaps {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) % 10_000 + 1
    }
}

fn hold_model<Q: EventQueue<u64>>(mut q: Q, n: usize, ops: usize) -> u64 {
    let mut gaps = Gaps(42);
    let mut id = 0u64;
    let mut now = 0u64;
    for _ in 0..n {
        q.push(SimTime(now + gaps.next()), EventId(id), id);
        id += 1;
    }
    let mut acc = 0u64;
    for _ in 0..ops {
        let ev = q.pop().expect("hold model never empties");
        now = ev.time.0;
        acc ^= ev.payload;
        q.push(SimTime(now + gaps.next()), EventId(id), id);
        id += 1;
    }
    acc
}

fn bench_hold() {
    for n in [1_000usize, 10_000, 100_000] {
        let ops = 50_000;
        ns_per_iter(&format!("hold_model/binary_heap/{n}"), || {
            hold_model(BinaryHeapQueue::new(), n, ops)
        });
        ns_per_iter(&format!("hold_model/calendar/{n}"), || {
            hold_model(CalendarQueue::new(), n, ops)
        });
    }
}

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

fn bench_engine() {
    let events = 200_000u64;
    for width in [16u32, 1024] {
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

fn main() {
    bench_hold();
    bench_engine();
}
