//! Property tests: both pending-event set implementations behave as a stable
//! priority queue and agree with each other under arbitrary workloads.

use faucets_sim::calendar::CalendarQueue;
use faucets_sim::check::{for_seeds, vec_of};
use faucets_sim::event::EventId;
use faucets_sim::queue::{BinaryHeapQueue, EventQueue};
use faucets_sim::time::SimTime;
use rand::rngs::StdRng;
use rand::Rng;

/// A scripted queue operation.
#[derive(Debug, Clone)]
enum Op {
    Push(u64),
    Pop,
}

/// Three pushes to every pop, 1..200 operations.
fn ops(rng: &mut StdRng) -> Vec<Op> {
    vec_of(rng, 1..200, |rng| {
        if rng.random_range(0..4) < 3 {
            Op::Push(rng.random_range(0u64..1_000_000))
        } else {
            Op::Pop
        }
    })
}

/// Run a script against a queue, returning the sequence of popped keys.
fn run<Q: EventQueue<u64>>(mut q: Q, script: &[Op]) -> Vec<(u64, u64)> {
    let mut next_id = 0u64;
    let mut popped = vec![];
    for op in script {
        match op {
            Op::Push(t) => {
                q.push(SimTime(*t), EventId(next_id), next_id);
                next_id += 1;
            }
            Op::Pop => {
                if let Some(s) = q.pop() {
                    popped.push((s.time.0, s.id.0));
                }
            }
        }
    }
    // Drain the rest.
    while let Some(s) = q.pop() {
        popped.push((s.time.0, s.id.0));
    }
    popped
}

/// The heap queue is a total-order priority queue with FIFO tie-break.
#[test]
fn heap_queue_total_order() {
    for_seeds(256, |rng| {
        let script = ops(rng);
        let out = run(BinaryHeapQueue::new(), &script);
        let n_push = script.iter().filter(|o| matches!(o, Op::Push(_))).count();
        assert_eq!(out.len(), n_push, "every push must eventually pop");
    });
}

/// The calendar queue produces exactly the heap queue's output.
#[test]
fn calendar_matches_heap() {
    for_seeds(256, |rng| {
        let script = ops(rng);
        let heap = run(BinaryHeapQueue::new(), &script);
        let cal = run(CalendarQueue::new(), &script);
        assert_eq!(heap, cal);
    });
}

/// With pops only at the end, output is fully sorted by (time, id).
#[test]
fn drain_is_sorted() {
    for_seeds(256, |rng| {
        let times = vec_of(rng, 1..300, |rng| rng.random_range(0u64..1_000_000));
        let mut q = CalendarQueue::new();
        for (i, t) in times.iter().enumerate() {
            q.push(SimTime(*t), EventId(i as u64), i as u64);
        }
        let mut prev = None;
        while let Some(s) = q.pop() {
            let key = (s.time.0, s.id.0);
            if let Some(p) = prev {
                assert!(p < key, "calendar queue out of order: {p:?} then {key:?}");
            }
            prev = Some(key);
        }
    });
}
