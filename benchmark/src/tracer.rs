//! The harness's own span log for traced runs: spans around its calls
//! into each layer's `pub` functions, kept in memory per caller thread and
//! written out once when the benchmark ends. Nothing inside the program
//! is instrumented by this.

use serde::Serialize;
use std::time::Instant;

/// One closed span. Spans of one op share `op`.
#[derive(Debug, Clone, PartialEq, Serialize)]
pub struct SpanRec {
    /// The op (request) this span belongs to.
    pub op: u64,
    /// Index of this span in its tracer's log.
    pub id: u32,
    /// The span that caused it, if any.
    pub parent: Option<u32>,
    pub name: &'static str,
    /// Microseconds since the tracer's epoch.
    pub start_us: f64,
    pub end_us: f64,
}

impl SpanRec {
    pub fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// A per-thread span recorder.
pub struct Tracer {
    epoch: Instant,
    op: u64,
    open: Vec<u32>,
    pub spans: Vec<SpanRec>,
}

impl Tracer {
    /// A tracer whose timestamps count from `epoch` (shared by all
    /// callers of a run, so their logs line up).
    pub fn new(epoch: Instant) -> Tracer {
        Tracer {
            epoch,
            op: 0,
            open: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Spans recorded from here on belong to `op`.
    pub fn begin_op(&mut self, op: u64) {
        self.op = op;
    }

    /// Run `f` inside a span named `name`, child of the innermost open
    /// span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Tracer) -> T) -> T {
        let id = self.spans.len() as u32;
        self.spans.push(SpanRec {
            op: self.op,
            id,
            parent: self.open.last().copied(),
            name,
            start_us: self.epoch.elapsed().as_secs_f64() * 1e6,
            end_us: f64::NAN,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id as usize].end_us = self.epoch.elapsed().as_secs_f64() * 1e6;
        out
    }

    /// Durations (µs) of every closed span named `name`.
    pub fn durations_us(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(SpanRec::duration_us)
            .collect()
    }
}

/// Every span's self time: its duration minus the part of its interval
/// that its direct children cover (overlapping children — a parallel
/// fan-out — are counted once). `spans` is one tracer's log; the result is
/// indexed like it.
pub fn self_times_us(spans: &[SpanRec]) -> Vec<f64> {
    // Children grouped by parent, each group in order of start.
    let mut kids: Vec<&SpanRec> = spans.iter().filter(|s| s.parent.is_some()).collect();
    kids.sort_by(|a, b| {
        (a.parent, a.start_us)
            .partial_cmp(&(b.parent, b.start_us))
            .expect("no NaN")
    });
    let mut own: Vec<f64> = spans.iter().map(SpanRec::duration_us).collect();
    let mut reach = f64::NEG_INFINITY;
    let mut current = None;
    for kid in kids {
        let parent = &spans[kid.parent.expect("filtered") as usize];
        if current != kid.parent {
            (current, reach) = (kid.parent, parent.start_us);
        }
        let (from, to) = (kid.start_us.max(reach), kid.end_us.min(parent.end_us));
        if to > from {
            own[parent.id as usize] -= to - from;
            reach = to;
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: Option<u32>, start_us: f64, end_us: f64) -> SpanRec {
        SpanRec {
            op: 1,
            id,
            parent,
            name: "t",
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let spans = vec![
            rec(0, None, 0.0, 100.0),
            rec(1, Some(0), 10.0, 30.0),
            // Overlaps span 1: the shared 20..30 counts once.
            rec(2, Some(0), 20.0, 50.0),
            rec(3, Some(0), 70.0, 80.0),
            // A grandchild covers nothing of the root directly.
            rec(4, Some(1), 12.0, 28.0),
            // A child leaking past its parent is clipped to it.
            rec(5, Some(0), 95.0, 120.0),
        ];
        // Cover = [10,50) + [70,80) + [95,100) = 55.
        let own = self_times_us(&spans);
        assert_eq!((own[0], own[1], own[3]), (45.0, 20.0 - 16.0, 10.0));
        assert_eq!(own[4], 16.0);
    }

    #[test]
    fn spans_nest_and_share_the_op() {
        let mut t = Tracer::new(Instant::now());
        t.begin_op(7);
        t.span("root", |t| {
            t.span("child", |_| ());
            t.span("child", |_| ());
        });
        assert_eq!(t.spans.len(), 3);
        assert!(t.spans.iter().all(|s| s.op == 7 && s.end_us >= s.start_us));
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[2].parent, Some(0));
        assert_eq!(t.durations_us("child").len(), 2);
        assert!(self_times_us(&t.spans)[0] >= 0.0);
    }
}
