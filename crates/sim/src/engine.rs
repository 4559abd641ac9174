//! The discrete-event simulation engine.
//!
//! This is the framework of §5.4 of the paper: *"each entity in the Faucets
//! system … is represented by an object, and discrete-event simulation is
//! carried out over patterns of job submissions under study."* A [`World`]
//! holds those entity objects and dispatches events to them; the engine owns
//! the clock and the pending-event set.
//!
//! ```
//! use faucets_sim::prelude::*;
//!
//! struct Counter { fired: u32 }
//! impl World for Counter {
//!     type Event = &'static str;
//!     fn handle(&mut self, sched: &mut Scheduler<Self::Event>, ev: Self::Event) {
//!         self.fired += 1;
//!         if ev == "tick" && self.fired < 3 {
//!             sched.schedule_in(SimDuration::from_secs(1), "tick");
//!         }
//!     }
//! }
//!
//! let mut sim = Simulation::new(Counter { fired: 0 });
//! sim.scheduler().schedule_at(SimTime::ZERO, "tick");
//! sim.run();
//! assert_eq!(sim.world().fired, 3);
//! assert_eq!(sim.now(), SimTime::from_secs(2));
//! ```

use crate::event::EventId;
use crate::time::{SimDuration, SimTime};
use std::cmp::Ordering;
use std::collections::{BinaryHeap, HashSet};

/// The simulated system: entity state plus the event dispatch logic.
pub trait World {
    /// The event payload type exchanged through the engine.
    type Event;
    /// React to `event` firing at `sched.now()`; schedule follow-ups on `sched`.
    fn handle(&mut self, sched: &mut Scheduler<Self::Event>, event: Self::Event);
}

/// A pending event. Only `(time, id)` takes part in the order, and the order
/// is reversed so that `BinaryHeap`, a max-heap, pops the earliest key first;
/// the id breaks same-time ties in scheduling order.
struct Pending<E> {
    time: SimTime,
    id: EventId,
    payload: E,
}

impl<E> PartialEq for Pending<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.time, self.id) == (other.time, other.id)
    }
}
impl<E> Eq for Pending<E> {}
impl<E> PartialOrd for Pending<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Pending<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.time, other.id).cmp(&(self.time, self.id))
    }
}

/// Clock plus pending-event set; the only interface a [`World`] needs.
pub struct Scheduler<E> {
    now: SimTime,
    pending: BinaryHeap<Pending<E>>,
    next_id: u64,
    cancelled: HashSet<u64>,
}

impl<E> Scheduler<E> {
    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the past — a causality violation that would
    /// silently corrupt results if allowed through.
    pub fn schedule_at(&mut self, at: SimTime, event: E) -> EventId {
        assert!(
            at >= self.now,
            "cannot schedule into the past: now={}, requested={}",
            self.now,
            at
        );
        let id = EventId(self.next_id);
        self.next_id += 1;
        self.pending.push(Pending {
            time: at,
            id,
            payload: event,
        });
        id
    }

    /// Schedule `event` to fire `after` from now.
    pub fn schedule_in(&mut self, after: SimDuration, event: E) -> EventId {
        let at = self.now.saturating_add(after);
        self.schedule_at(at, event)
    }

    /// Cancel a previously scheduled event. Cancelling an event that already
    /// fired (or was already cancelled) is a silent no-op; returns whether a
    /// new cancellation was recorded.
    pub fn cancel(&mut self, id: EventId) -> bool {
        if id.0 >= self.next_id {
            return false;
        }
        self.cancelled.insert(id.0)
    }

    /// Number of events currently pending (including not-yet-reaped
    /// cancelled events).
    pub fn pending(&self) -> usize {
        self.pending.len()
    }

    /// Reap cancelled events off the head of the set and return the firing
    /// time of the earliest live one, which is then the head.
    fn next_live_time(&mut self) -> Option<SimTime> {
        while let Some(head) = self.pending.peek() {
            if !self.cancelled.remove(&head.id.0) {
                return Some(head.time);
            }
            self.pending.pop();
        }
        None
    }
}

/// Outcome of a [`Simulation::run_until`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The pending-event set drained.
    Drained,
    /// The time horizon was reached with events still pending.
    Horizon,
    /// The event budget was exhausted.
    Budget,
}

/// A discrete-event simulation: a [`World`] plus a [`Scheduler`].
pub struct Simulation<W: World> {
    world: W,
    sched: Scheduler<W::Event>,
    processed: u64,
}

impl<W: World> Simulation<W> {
    /// A simulation of `world` with nothing pending, at time zero.
    pub fn new(world: W) -> Self {
        Simulation {
            world,
            sched: Scheduler {
                now: SimTime::ZERO,
                pending: BinaryHeap::new(),
                next_id: 0,
                cancelled: HashSet::new(),
            },
            processed: 0,
        }
    }

    /// The scheduler, for seeding initial events and inspecting the clock.
    pub fn scheduler(&mut self) -> &mut Scheduler<W::Event> {
        &mut self.sched
    }

    /// Immutable access to the world.
    pub fn world(&self) -> &W {
        &self.world
    }

    /// Mutable access to the world (for wiring between runs).
    pub fn world_mut(&mut self) -> &mut W {
        &mut self.world
    }

    /// Borrow the world and the scheduler together (for priming a world
    /// that needs to seed its own initial events).
    pub fn split(&mut self) -> (&mut W, &mut Scheduler<W::Event>) {
        (&mut self.world, &mut self.sched)
    }

    /// The current simulation time.
    pub fn now(&self) -> SimTime {
        self.sched.now
    }

    /// Events processed so far.
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Process a single event; returns `false` if none are pending.
    pub fn step(&mut self) -> bool {
        let live = self.sched.next_live_time().is_some();
        if live {
            self.fire_head();
        }
        live
    }

    /// Fire the head of the pending set, which [`Scheduler::next_live_time`]
    /// has just found live.
    fn fire_head(&mut self) {
        let ev = self.sched.pending.pop().expect("a live head is pending");
        debug_assert!(ev.time >= self.sched.now, "the heap popped a past event");
        self.sched.now = ev.time;
        self.processed += 1;
        self.world.handle(&mut self.sched, ev.payload);
    }

    /// Run until the pending-event set drains, the next live event lies past
    /// `horizon`, or `max_events` have been processed. The clock never
    /// advances past `horizon` (events after it remain pending) and never
    /// moves back.
    pub fn run_until(&mut self, horizon: SimTime, max_events: u64) -> RunOutcome {
        for _ in 0..max_events {
            match self.sched.next_live_time() {
                None => return RunOutcome::Drained,
                Some(t) if t > horizon => {
                    self.sched.now = self.sched.now.max(horizon);
                    return RunOutcome::Horizon;
                }
                Some(_) => self.fire_head(),
            }
        }
        RunOutcome::Budget
    }

    /// Run until the pending-event set drains.
    pub fn run(&mut self) -> RunOutcome {
        self.run_until(SimTime::MAX, u64::MAX)
    }

    /// Consume the simulation and return the world.
    pub fn into_world(self) -> W {
        self.world
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records (time, tag) pairs; "spawn:<n>" schedules n follow-up events.
    struct Recorder {
        log: Vec<(SimTime, String)>,
    }

    impl World for Recorder {
        type Event = String;
        fn handle(&mut self, sched: &mut Scheduler<String>, ev: String) {
            self.log.push((sched.now(), ev.clone()));
            if let Some(n) = ev.strip_prefix("spawn:") {
                let n: u64 = n.parse().unwrap();
                for i in 0..n {
                    sched.schedule_in(SimDuration::from_secs(i + 1), format!("child{i}"));
                }
            }
        }
    }

    fn recorder() -> Simulation<Recorder> {
        Simulation::new(Recorder { log: vec![] })
    }

    #[test]
    fn events_fire_in_order_and_clock_advances() {
        let mut sim = recorder();
        sim.scheduler()
            .schedule_at(SimTime::from_secs(5), "b".into());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(1), "a".into());
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.now(), SimTime::from_secs(5));
        let tags: Vec<&str> = sim.world().log.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(tags, vec!["a", "b"]);
    }

    #[test]
    fn handlers_can_schedule_followups() {
        let mut sim = recorder();
        sim.scheduler().schedule_at(SimTime::ZERO, "spawn:3".into());
        sim.run();
        assert_eq!(sim.world().log.len(), 4);
        assert_eq!(sim.processed(), 4);
        assert_eq!(sim.now(), SimTime::from_secs(3));
    }

    #[test]
    fn cancellation_suppresses_events() {
        let mut sim = recorder();
        let id = sim
            .scheduler()
            .schedule_at(SimTime::from_secs(1), "never".into());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(2), "yes".into());
        assert!(sim.scheduler().cancel(id));
        assert!(!sim.scheduler().cancel(id), "double cancel is a no-op");
        sim.run();
        let tags: Vec<&str> = sim.world().log.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(tags, vec!["yes"]);
    }

    #[test]
    fn cancel_unknown_id_is_false() {
        let mut sim = recorder();
        assert!(!sim.scheduler().cancel(EventId(99)));
    }

    #[test]
    #[should_panic(expected = "cannot schedule into the past")]
    fn scheduling_into_the_past_panics() {
        let mut sim = recorder();
        sim.scheduler()
            .schedule_at(SimTime::from_secs(10), "a".into());
        sim.run();
        sim.scheduler()
            .schedule_at(SimTime::from_secs(1), "late".into());
    }

    #[test]
    fn horizon_stops_clock_without_losing_events() {
        let mut sim = recorder();
        sim.scheduler()
            .schedule_at(SimTime::from_secs(1), "a".into());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(100), "far".into());
        let out = sim.run_until(SimTime::from_secs(10), u64::MAX);
        assert_eq!(out, RunOutcome::Horizon);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert_eq!(sim.scheduler().pending(), 1);
        // Resume past the horizon.
        assert_eq!(sim.run(), RunOutcome::Drained);
        assert_eq!(sim.now(), SimTime::from_secs(100));
    }

    #[test]
    fn event_budget_is_respected() {
        let mut sim = recorder();
        for i in 0..10 {
            sim.scheduler()
                .schedule_at(SimTime::from_secs(i), format!("e{i}"));
        }
        assert_eq!(sim.run_until(SimTime::MAX, 4), RunOutcome::Budget);
        assert_eq!(sim.processed(), 4);
    }

    #[test]
    fn same_time_events_fire_in_scheduling_order() {
        let mut sim = recorder();
        for i in 0..5 {
            sim.scheduler()
                .schedule_at(SimTime::from_secs(1), format!("e{i}"));
        }
        sim.run();
        let tags: Vec<&str> = sim.world().log.iter().map(|(_, s)| s.as_str()).collect();
        assert_eq!(tags, vec!["e0", "e1", "e2", "e3", "e4"]);
    }

    #[test]
    fn empty_simulation_drains_at_once() {
        let mut sim = recorder();
        assert!(!sim.step());
        assert_eq!(
            sim.run_until(SimTime::from_secs(10), u64::MAX),
            RunOutcome::Drained
        );
        assert_eq!(sim.now(), SimTime::ZERO);
        assert_eq!(sim.scheduler().pending(), 0);
    }

    /// A cancelled head must not hide the horizon: the next live event past it
    /// stays pending.
    #[test]
    fn horizon_holds_behind_a_cancelled_head() {
        let mut sim = recorder();
        let early = sim
            .scheduler()
            .schedule_at(SimTime::from_secs(5), "cancelled".into());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(100), "far".into());
        sim.scheduler().cancel(early);
        let out = sim.run_until(SimTime::from_secs(10), u64::MAX);
        assert_eq!(out, RunOutcome::Horizon);
        assert_eq!(sim.now(), SimTime::from_secs(10));
        assert!(sim.world().log.is_empty(), "fired {:?}", sim.world().log);
        assert_eq!(sim.scheduler().pending(), 1);
    }

    #[test]
    fn a_horizon_behind_the_clock_leaves_it_alone() {
        let mut sim = recorder();
        sim.scheduler()
            .schedule_at(SimTime::from_secs(50), "a".into());
        sim.scheduler()
            .schedule_at(SimTime::from_secs(100), "b".into());
        assert_eq!(sim.run_until(SimTime::MAX, 1), RunOutcome::Budget);
        let out = sim.run_until(SimTime::from_secs(10), u64::MAX);
        assert_eq!(out, RunOutcome::Horizon);
        assert_eq!(sim.now(), SimTime::from_secs(50));
    }
}
