//! The load generator: an open loop that fires ops at pre-computed due
//! instants and times each from the instant it was *due*, and a closed
//! loop in which every caller issues its next op when the previous one
//! returns.

use crate::procinfo;
use crate::reference::Pinger;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// What one op came to, in units (requests): an `rpc_pipelined` op is a
/// 64-request batch, every other op is one unit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Outcome {
    pub ok: u32,
    pub failed: u32,
}

impl Outcome {
    pub fn ok(units: u32) -> Outcome {
        Outcome {
            ok: units,
            failed: 0,
        }
    }

    pub fn failed(units: u32) -> Outcome {
        Outcome {
            ok: 0,
            failed: units,
        }
    }
}

/// One caller thread's operation: given the op's ticket, do it.
pub type Op<'a> = Box<dyn FnMut(u64) -> Outcome + Send + 'a>;

/// What a phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    pub wall_s: f64,
    /// Process user+sys CPU seconds consumed during the phase.
    pub cpu_s: f64,
    /// Ops issued.
    pub ops: u64,
    pub ok_units: u64,
    pub failed_units: u64,
    /// Latency of every op with no failed unit. Open loop: from the due
    /// instant, so time spent queueing behind a stalled op is charged.
    pub latency_ms: Vec<f64>,
    /// The same ops' time from start to return (equal to the latency in
    /// a closed loop).
    pub service_ms: Vec<f64>,
    /// Open loop only: how long after its due instant each op started.
    pub lateness_ms: Vec<f64>,
    /// Open loop only: latency, from the due instant, of each reference
    /// round trip that rode in the schedule.
    pub reference_ms: Vec<f64>,
}

impl Phase {
    pub fn attempted_units(&self) -> u64 {
        self.ok_units + self.failed_units
    }

    /// The callers' parts of one phase (or of several phases of equal
    /// shape, whose walls and CPU then add up) as one.
    pub fn merged<'a>(parts: impl IntoIterator<Item = &'a Phase>) -> Phase {
        let mut all = Phase::default();
        for part in parts {
            all.wall_s = all.wall_s.max(part.wall_s);
            all.cpu_s = all.cpu_s.max(part.cpu_s);
            all.ops += part.ops;
            all.ok_units += part.ok_units;
            all.failed_units += part.failed_units;
            all.latency_ms.extend(&part.latency_ms);
            all.service_ms.extend(&part.service_ms);
            all.lateness_ms.extend(&part.lateness_ms);
            all.reference_ms.extend(&part.reference_ms);
        }
        all
    }

    /// Successful units per second of wall time.
    pub fn throughput(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.ok_units as f64 / self.wall_s
        } else {
            0.0
        }
    }

    fn record(&mut self, outcome: Outcome, latency: Duration, service: Duration) {
        self.ops += 1;
        self.ok_units += u64::from(outcome.ok);
        self.failed_units += u64::from(outcome.failed);
        if outcome.failed == 0 {
            self.latency_ms.push(latency.as_secs_f64() * 1e3);
            self.service_ms.push(service.as_secs_f64() * 1e3);
        }
    }
}

/// A seeded stream of uniform `(0, 1]` draws (splitmix64), private to the
/// harness so its schedules do not depend on any crate's generator.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }
}

/// Due offsets of a Poisson process of `rate_per_s` over `length`.
pub fn poisson_offsets(seed: u64, rate_per_s: f64, length: Duration) -> Vec<Duration> {
    let mut rng = SplitMix(seed);
    let mut t = 0.0;
    let mut out = Vec::new();
    loop {
        t += -rng.unit().ln() / rate_per_s;
        if t >= length.as_secs_f64() {
            return out;
        }
        out.push(Duration::from_secs_f64(t));
    }
}

/// One arrival of an open-loop schedule: an op of the workload, or a
/// reference round trip ([`Pinger::ping`]) timed the same way.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Arrival {
    pub at: Duration,
    pub reference: bool,
}

/// Two independent Poisson processes over `length`, merged by due offset:
/// ops at `rate_per_s` from `seed`, reference round trips at
/// `reference_per_s` (0 for none).
pub fn schedule(
    seed: u64,
    rate_per_s: f64,
    reference_per_s: f64,
    length: Duration,
) -> Vec<Arrival> {
    let tag = |reference| move |at| Arrival { at, reference };
    let mut all: Vec<Arrival> = poisson_offsets(seed, rate_per_s, length)
        .into_iter()
        .map(tag(false))
        .collect();
    if reference_per_s > 0.0 {
        let offsets = poisson_offsets(!seed, reference_per_s, length);
        all.extend(offsets.into_iter().map(tag(true)));
        all.sort_by_key(|a| a.at);
    }
    all
}

/// Run `body` once per caller on a thread of its own. Returns each
/// caller's part, in the order of `callers`; every part carries the
/// phase's wall time and the process CPU time it consumed.
fn run<C: Send>(callers: &mut [C], body: impl Fn(&mut C, &mut Phase) + Sync) -> Vec<Phase> {
    let cpu0 = procinfo::cpu_seconds();
    let start = Instant::now();
    let mut parts: Vec<Phase> = std::thread::scope(|s| {
        let body = &body;
        let handles: Vec<_> = callers
            .iter_mut()
            .map(|caller| {
                s.spawn(move || {
                    let mut part = Phase::default();
                    body(caller, &mut part);
                    part
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("caller thread panicked"))
            .collect()
    });
    let (wall_s, cpu_s) = (
        start.elapsed().as_secs_f64(),
        procinfo::cpu_seconds() - cpu0,
    );
    for part in &mut parts {
        (part.wall_s, part.cpu_s) = (wall_s, cpu_s);
    }
    parts
}

/// Serve one arrival per entry of `arrivals` (ascending, relative to now),
/// each from whichever caller is free first, regardless of how the
/// previous ones fared. `pingers` holds one reference connection per
/// caller, or none if the schedule has no reference arrivals. `tickets`
/// numbers the ops across phases.
pub fn open_loop(
    arrivals: &[Arrival],
    ops: &mut [Op<'_>],
    pingers: &mut [Pinger],
    tickets: &AtomicU64,
) -> Vec<Phase> {
    let next = AtomicU64::new(0);
    let start = Instant::now();
    let mut pingers: Vec<Option<&mut Pinger>> = pingers.iter_mut().map(Some).collect();
    pingers.resize_with(ops.len(), || None);
    let mut callers: Vec<_> = ops.iter_mut().zip(pingers).collect();
    run(&mut callers, |(op, pinger), part| loop {
        let slot = next.fetch_add(1, Ordering::Relaxed) as usize;
        let Some(arrival) = arrivals.get(slot) else {
            break;
        };
        let due = start + arrival.at;
        let now = Instant::now();
        if due > now {
            std::thread::sleep(due - now);
        }
        if arrival.reference {
            let pinger = pinger.as_mut().expect("a pinger per caller");
            if pinger.ping().is_ok() {
                part.reference_ms.push(due.elapsed().as_secs_f64() * 1e3);
            }
            continue;
        }
        let begun = Instant::now();
        part.lateness_ms
            .push(begun.saturating_duration_since(due).as_secs_f64() * 1e3);
        let outcome = op(tickets.fetch_add(1, Ordering::Relaxed));
        part.record(outcome, due.elapsed(), begun.elapsed());
    })
}

/// Every caller issues ops back to back for `length`.
pub fn closed_loop(length: Duration, ops: &mut [Op<'_>], tickets: &AtomicU64) -> Vec<Phase> {
    let end = Instant::now() + length;
    run(ops, |op, part| {
        while Instant::now() < end {
            let begun = Instant::now();
            let outcome = op(tickets.fetch_add(1, Ordering::Relaxed));
            let took = begun.elapsed();
            part.record(outcome, took, took);
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    #[test]
    fn poisson_schedule_is_seeded_and_has_the_asked_rate() {
        let a = poisson_offsets(7, 1000.0, Duration::from_secs(10));
        let b = poisson_offsets(7, 1000.0, Duration::from_secs(10));
        let c = poisson_offsets(8, 1000.0, Duration::from_secs(10));
        assert_eq!(a, b, "same seed, same schedule");
        assert_ne!(a, c, "another seed, another schedule");
        assert!(a.windows(2).all(|w| w[0] <= w[1]), "ascending");
        assert!((9_500..10_500).contains(&a.len()), "{} arrivals", a.len());
    }

    #[test]
    fn reference_round_trips_ride_in_the_schedule() {
        let length = Duration::from_millis(200);
        let arrivals = schedule(3, 500.0, 1000.0, length);
        assert!(arrivals.windows(2).all(|w| w[0].at <= w[1].at), "ascending");
        let ops: Vec<Duration> = arrivals
            .iter()
            .filter(|a| !a.reference)
            .map(|a| a.at)
            .collect();
        assert_eq!(
            ops,
            poisson_offsets(3, 500.0, length),
            "the ops' own schedule is untouched"
        );
        let references = arrivals.len() - ops.len();
        assert!(
            (150..250).contains(&references),
            "{references} reference arrivals"
        );

        let tickets = AtomicU64::new(0);
        let op: Op = Box::new(|_| Outcome::ok(1));
        let mut pingers = [Pinger::new().expect("loopback pair")];
        let phase = Phase::merged(&open_loop(&arrivals, &mut [op], &mut pingers, &tickets));
        assert_eq!(phase.ops as usize, ops.len());
        assert_eq!(phase.reference_ms.len(), references);
        assert!(phase.reference_ms.iter().all(|ms| *ms > 0.0));
    }

    #[test]
    fn stalled_op_charges_queueing_to_later_ops() {
        // One caller, ops due every 2 ms; the first stalls for 60 ms. An
        // open loop keeps the later ops' due instants, so they start late
        // and their latency includes the wait — a closed loop would have
        // hidden it by simply issuing them later.
        let arrivals: Vec<Arrival> = (0..20)
            .map(|i| Arrival {
                at: Duration::from_millis(2 * i),
                reference: false,
            })
            .collect();
        let tickets = AtomicU64::new(0);
        let op: Op = Box::new(|ticket| {
            if ticket == 0 {
                std::thread::sleep(Duration::from_millis(60));
            }
            Outcome::ok(1)
        });
        let phase = Phase::merged(&open_loop(&arrivals, &mut [op], &mut [], &tickets));
        assert_eq!(phase.ops, 20);
        assert_eq!(phase.ok_units, 20);
        let late = stats::sorted(phase.lateness_ms.clone());
        let lat = stats::sorted(phase.latency_ms.clone());
        // The op due at 2 ms could not start before 60 ms.
        assert!(stats::quantile(&late, 0.99) >= 20.0, "lateness {late:?}");
        // More than half the ops were due inside the stall: their latency,
        // taken from the due instant, carries it though each ran instantly.
        assert!(stats::quantile(&lat, 0.5) >= 20.0, "latency {lat:?}");
        assert!(
            phase.lateness_ms[0] < 20.0,
            "the first op itself was on time"
        );
    }

    #[test]
    fn closed_loop_counts_failed_units_and_skips_their_latency() {
        let tickets = AtomicU64::new(0);
        let op: Op = Box::new(|ticket| {
            std::thread::sleep(Duration::from_millis(1));
            if ticket % 2 == 0 {
                Outcome::ok(4)
            } else {
                Outcome::failed(4)
            }
        });
        let phase = Phase::merged(&closed_loop(Duration::from_millis(50), &mut [op], &tickets));
        assert!(phase.ops >= 4);
        assert_eq!(phase.attempted_units(), phase.ops * 4);
        assert_eq!(phase.latency_ms.len() as u64 * 4, phase.ok_units);
        assert!(phase.failed_units > 0);
    }
}
