//! One benchmark run: set-up → warm-up → paced (open loop) → saturate
//! (closed loop) → drain and checks. `--trace 0` times the end-to-end
//! metrics with the harness's tracing off; `--trace 1` splits each phase
//! into a plain and a traced segment and yields the per-layer metrics.

use crate::layers::{self, Values, Window};
use crate::loadgen::{self, Op, Phase};
use crate::procinfo;
use crate::reference::{self, Pinger};
use crate::report::{Metrics, PhaseReport, Report, ResultLine, SCHEMA};
use crate::spec::spec;
use crate::stats;
use crate::tracer::{self, SpanRec, Tracer};
use crate::workloads::{self, Knobs, Probes, Workload};
use faucets_telemetry::{global, trace};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Discarded closed-loop traffic before anything is timed — connections
/// dialled, pools warm, allocator and page cache settled: as many units as
/// the paced phase offers in this long (a count and not a time, so that
/// the work done before `rss_peak_mb` is read does not depend on how fast
/// the sandbox happened to be).
const WARMUP: Duration = Duration::from_secs(3);
/// `setup_s` is the median over this many set-ups (a fixed count: the
/// peak memory of a run depends on how many services it has spawned).
const SETUPS: usize = 30;
/// Length of a paced slice of an untraced run, unless the paced rate needs
/// longer for [`SLICE_ARRIVALS`] …
const PACED_SLICE: Duration = Duration::from_millis(250);
/// … arrivals, which a slice must hold for its median latency to mean much.
const SLICE_ARRIVALS: f64 = 100.0;
/// Reference round trips per second that ride in a paced slice's schedule.
const REFERENCE_PER_S: f64 = 1000.0;
/// Length of a saturate slice: short next to the sandbox's slow spells
/// (tenths of a second), so that the reference readings on either side of
/// a slice were mostly taken in the spell the slice ran in.
const SATURATE_SLICE: Duration = Duration::from_millis(100);
/// Slices between two readings of the arithmetic reference.
const CPU_REFERENCE_EVERY: usize = 20;
/// On/off slice pairs the traced run's saturate phase is cut into.
const SATURATE_ROUNDS: u32 = 3;
/// Open-loop generator threads per closed-loop caller. Arrivals come from
/// independent users, so the paced phase keeps enough threads that an op
/// is not left waiting for a free one (`load.lateness_p99_ms` shows it).
const PACED_THREADS_PER_CALLER: usize = 4;
/// Round trips per kind of idle probe in a traced run.
const PROBE_ROUNDS: usize = 200;
/// Estimated registry lookups per served request (3–5 on the serve path,
/// 1–2 on the call path), for `telemetry.share`.
const LOOKUPS_PER_RPC: f64 = 5.0;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    /// Where the report (and span dump) go.
    pub out: PathBuf,
}

/// The run's scratch directory, removed when the run ends — also after a
/// failed check or a panic.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// CPUs this process could run on when it started (before
/// [`procinfo::pin_to_one_cpu`] narrowed that to one).
fn parallelism() -> usize {
    static AT_START: OnceLock<usize> = OnceLock::new();
    *AT_START.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// Closed-loop callers: as many as the box has cores, at most four.
pub fn callers() -> usize {
    parallelism().min(4)
}

fn plain_ops(w: &dyn Workload, n: usize) -> Vec<Op<'_>> {
    (0..n).map(|_| w.op()).collect()
}

/// `tracers.len()` plain ops followed by as many traced ones: run
/// together, the two halves see the same instants of the same grid.
fn mixed_ops<'a>(w: &'a dyn Workload, tracers: &'a mut [Tracer]) -> Vec<Op<'a>> {
    let mut ops = plain_ops(w, tracers.len());
    ops.extend(tracers.iter_mut().map(|t| w.traced_op(t)));
    ops
}

/// One measured slice and the reference round trip read with it, in µs.
struct Slice {
    phase: Phase,
    reference_us: f64,
}

/// A run in progress: the report being filled in, and what the measured
/// phases produced beyond it.
struct Measured {
    report: Report,
    /// The plain paced and saturate ops the end-to-end metrics read.
    paced: Vec<Slice>,
    saturate: Vec<Slice>,
    /// `VmHWM` when the paced phase ended.
    rss_after_paced_mib: f64,
    per_layer: Option<Values>,
    spans: Vec<SpanRec>,
}

impl Measured {
    /// Add a slice, and the reference reading that goes with it, to its
    /// kind of phase in the report.
    fn log(
        &mut self,
        name: &str,
        open: bool,
        traced: bool,
        threads: usize,
        p: &Phase,
        reference_us: f64,
    ) {
        self.report.attempted += p.attempted_units();
        self.report.failed += p.failed_units;
        let phases = &mut self.report.phases;
        let kind = match phases
            .iter()
            .position(|k| k.name == name && k.traced == traced)
        {
            Some(i) => &mut phases[i],
            None => {
                phases.push(PhaseReport {
                    name: name.into(),
                    loop_kind: if open { "open" } else { "closed" }.into(),
                    traced,
                    threads,
                    slices: 0,
                    seconds: 0.0,
                    ops: 0,
                    attempted_units: 0,
                    failed_units: 0,
                    latency_samples: 0,
                    slice_values: vec![],
                    slice_cpu_ms_per_op: vec![],
                    slice_reference_us: vec![],
                });
                phases.last_mut().expect("just pushed")
            }
        };
        kind.slices += 1;
        kind.seconds += p.wall_s;
        kind.ops += p.ops;
        kind.attempted_units += p.attempted_units();
        kind.failed_units += p.failed_units;
        kind.latency_samples += p.latency_ms.len();
        kind.slice_values.push(if open {
            stats::median(&p.latency_ms)
        } else {
            p.throughput()
        });
        kind.slice_cpu_ms_per_op.push(cpu_ms_per_op(p));
        kind.slice_reference_us.push(reference_us);
    }
}

/// Which way a reading moves when the sandbox slows down.
#[derive(Clone, Copy)]
enum Kind {
    Time,
    Rate,
}

/// The median over `slices` of what `f` reads in each: as the clock read
/// it, and as it would have read with the reference round trip at its
/// nominal length — with the sandbox `reference ÷ nominal` times slower, a
/// time is that much too long and a rate that much too low.
fn over(slices: &[Slice], nominal_us: f64, kind: Kind, f: &dyn Fn(&Phase) -> f64) -> (f64, f64) {
    let median = |scaled: bool| {
        let values = slices.iter().filter(|s| s.reference_us > 0.0).map(|s| {
            let slowdown = if scaled {
                s.reference_us / nominal_us
            } else {
                1.0
            };
            match kind {
                Kind::Time => f(&s.phase) / slowdown,
                Kind::Rate => f(&s.phase) * slowdown,
            }
        });
        stats::median(&values.collect::<Vec<f64>>())
    };
    (median(false), median(true))
}

fn cpu_ms_per_op(p: &Phase) -> f64 {
    p.cpu_s * 1e3 / p.ok_units.max(1) as f64
}

fn measure(m: &mut Measured, args: &Args, knobs: Knobs, tmp: &Path) -> std::io::Result<()> {
    // Set-up, over and over, a reference reading before and after each;
    // the last one is kept and measured.
    let mut kept: Option<Box<dyn Workload>> = None;
    let mut pinger = Pinger::new()?;
    let mut before = reference::busy_rtt_us(&mut pinger)?;
    let setups = &mut m.report.setups;
    while setups.len() < SETUPS {
        let dir = tmp.join("journals");
        if kept.take().is_some() {
            // Torn down; its journals go too, so that no set-up pays for
            // the files its predecessors left on the filesystem.
            let _ = std::fs::remove_dir_all(&dir);
        }
        let begun = Instant::now();
        kept = Some(workloads::setup(knobs.name, args.seed, &dir)?);
        setups.push(begun.elapsed().as_secs_f64());
        let after = reference::busy_rtt_us(&mut pinger)?;
        m.report.setup_reference_us.push((before + after) / 2.0);
        before = after;
    }
    drop(pinger);
    let workload = kept.expect("at least one set-up");
    let w: &dyn Workload = &*workload;

    let tickets = AtomicU64::new(0);
    // In slices like the measured phases, the program's span log emptied
    // before each: left to fill for three seconds it holds as many spans
    // as the sandbox was fast, and the run's peak memory would say so.
    let mut warm_ops = plain_ops(w, callers());
    let mut to_serve = (knobs.rate_ops_s * WARMUP.as_secs_f64()) as u64;
    while to_serve > 0 {
        trace::clear();
        let slice = loadgen::closed_loop(SATURATE_SLICE, &mut warm_ops, &tickets);
        // A slice that serves nothing still counts: no run waits forever.
        to_serve = to_serve.saturating_sub(Phase::merged(&slice).ok_units.max(1));
    }
    drop(warm_ops);
    if args.trace {
        traced_phases(m, args, knobs, w, &tickets, tmp)?;
    } else {
        plain_phases(m, args, knobs, w, &tickets)?;
    }
    m.report.checks = workload.finish(m.report.failed);
    Ok(())
}

fn paced_ops_per_s(knobs: Knobs) -> f64 {
    knobs.rate_ops_s / f64::from(knobs.units_per_op)
}

/// Cut `seconds` into slices, five eighths of the time paced and three
/// eighths saturated: `(paced slice length, paced slices, saturate
/// slices)`.
fn slices(seconds: u64, knobs: Knobs) -> (Duration, usize, usize) {
    let paced = PACED_SLICE.max(Duration::from_secs_f64(
        SLICE_ARRIVALS / paced_ops_per_s(knobs),
    ));
    let n = |share: f64, slice: Duration| {
        ((seconds as f64 * share / slice.as_secs_f64()) as usize).max(1)
    };
    (paced, n(5.0 / 8.0, paced), n(3.0 / 8.0, SATURATE_SLICE))
}

/// The untraced run. Each phase is measured in slices, each slice next to
/// the reference round trip: riding in a paced slice's schedule, read
/// back to back before and after a saturate slice.
fn plain_phases(
    m: &mut Measured,
    args: &Args,
    knobs: Knobs,
    w: &dyn Workload,
    tickets: &AtomicU64,
) -> std::io::Result<()> {
    let callers = callers();
    let paced_threads = callers * PACED_THREADS_PER_CALLER;
    let (paced_slice, paced_slices, saturate_slices) = slices(args.seconds, knobs);
    let mut ops = plain_ops(w, paced_threads);
    let mut pingers = (0..paced_threads)
        .map(|_| Pinger::new())
        .collect::<std::io::Result<Vec<_>>>()?;
    for i in 0..paced_slices {
        if i % CPU_REFERENCE_EVERY == 0 {
            m.report.reference_cpu_ms.push(reference::cpu_ms());
        }
        // The span log freezes once full; each slice starts on an empty
        // one so that the serve path does not change mid-slice.
        trace::clear();
        let arrivals = loadgen::schedule(
            args.seed.wrapping_add(i as u64),
            paced_ops_per_s(knobs),
            REFERENCE_PER_S,
            paced_slice,
        );
        let phase = Phase::merged(&loadgen::open_loop(
            &arrivals,
            &mut ops,
            &mut pingers,
            tickets,
        ));
        let reference_us = stats::median(&phase.reference_ms) * 1e3;
        m.log("paced", true, false, paced_threads, &phase, reference_us);
        m.paced.push(Slice {
            phase,
            reference_us,
        });
    }
    m.rss_after_paced_mib = procinfo::rss_peak_mib();
    ops.truncate(callers);
    let pinger = &mut pingers[0];
    let mut before = reference::busy_rtt_us(pinger)?;
    for i in 0..saturate_slices {
        if i % CPU_REFERENCE_EVERY == 0 {
            m.report.reference_cpu_ms.push(reference::cpu_ms());
        }
        trace::clear();
        let phase = Phase::merged(&loadgen::closed_loop(SATURATE_SLICE, &mut ops, tickets));
        let after = reference::busy_rtt_us(pinger)?;
        let reference_us = (before + after) / 2.0;
        before = after;
        m.log("saturate", false, false, callers, &phase, reference_us);
        m.saturate.push(Slice {
            phase,
            reference_us,
        });
    }
    Ok(())
}

/// What the poller saw while saturate slices ran: gauges of which the
/// registry only holds the latest value.
#[derive(Default)]
struct Polled {
    executor_queue_max: f64,
    repl_lag_max: f64,
    active_contracts: Vec<f64>,
}

fn with_poller<T>(w: &dyn Workload, polled: &mut Polled, body: impl FnOnce() -> T) -> T {
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let poller = s.spawn(|| {
            while !stop.load(Ordering::Relaxed) {
                let snap = global().snapshot();
                polled.executor_queue_max = polled
                    .executor_queue_max
                    .max(snap.gauge_max("net_reactor_executor_queue", &[]));
                polled.repl_lag_max = polled.repl_lag_max.max(snap.gauge_max("repl_lag", &[]));
                if let Some(grid) = w.grid() {
                    let active: usize = grid.fds.iter().map(|f| f.active_contracts()).sum();
                    polled.active_contracts.push(active as f64);
                }
                std::thread::sleep(Duration::from_millis(20));
            }
        });
        let out = body();
        stop.store(true, Ordering::Relaxed);
        poller.join().expect("poller thread panicked");
        out
    })
}

/// Add a later slice of the same shape to `total`.
fn accumulate(total: &mut Phase, slice: Phase) {
    let (wall_s, cpu_s) = (total.wall_s + slice.wall_s, total.cpu_s + slice.cpu_s);
    *total = Phase::merged([&*total, &slice]);
    (total.wall_s, total.cpu_s) = (wall_s, cpu_s);
}

/// The traced run. Plain and traced ops run side by side on equal numbers
/// of threads, and telemetry-on and telemetry-off slices alternate, so
/// that each comparison is between neighbours in time and not between
/// the start of a phase and its end.
fn traced_phases(
    m: &mut Measured,
    args: &Args,
    knobs: Knobs,
    w: &dyn Workload,
    tickets: &AtomicU64,
    tmp: &Path,
) -> std::io::Result<()> {
    let half_callers = callers().div_ceil(2);
    let half_paced = half_callers * PACED_THREADS_PER_CALLER;
    let half = Duration::from_secs(args.seconds) / 2;
    let epoch = Instant::now();
    let tracers = |n: usize| -> Vec<Tracer> { (0..n).map(|_| Tracer::new(epoch)).collect() };
    let (mut paced_tracers, mut sat_tracers) = (tracers(half_paced), tracers(half_callers));

    // No reference readings here: a traced run reports no scaled metric,
    // and each phase goes in as one slice read at the nominal length.
    let (busy, paced_nominal) = (reference::BUSY_NOMINAL_US, reference::PACED_NOMINAL_US);
    trace::clear();
    let arrivals = loadgen::schedule(args.seed, paced_ops_per_s(knobs), 0.0, half);
    let parts = loadgen::open_loop(
        &arrivals,
        &mut mixed_ops(w, &mut paced_tracers),
        &mut [],
        tickets,
    );
    let paced = Phase::merged(&parts[..half_paced]);
    let paced_traced = Phase::merged(&parts[half_paced..]);
    m.log("paced", true, false, half_paced, &paced, paced_nominal);
    m.log(
        "paced",
        true,
        true,
        half_paced,
        &paced_traced,
        paced_nominal,
    );

    trace::clear();
    let mut polled = Polled::default();
    let before = global().snapshot();
    let (mut saturate, mut sat_traced, mut sat_off) =
        (Phase::default(), Phase::default(), Phase::default());
    {
        let mut ops = mixed_ops(w, &mut sat_tracers);
        let slice = half / (2 * SATURATE_ROUNDS);
        for _ in 0..SATURATE_ROUNDS {
            let parts = with_poller(w, &mut polled, || {
                loadgen::closed_loop(slice, &mut ops, tickets)
            });
            accumulate(&mut saturate, Phase::merged(&parts[..half_callers]));
            accumulate(&mut sat_traced, Phase::merged(&parts[half_callers..]));
            // Off, the collectors record nothing, so the registry window
            // around all the slices counts the "on" slices alone.
            faucets_telemetry::metrics::set_enabled(false);
            let parts = loadgen::closed_loop(slice, &mut ops, tickets);
            faucets_telemetry::metrics::set_enabled(true);
            accumulate(&mut sat_off, Phase::merged(&parts));
        }
    }
    let after = global().snapshot();
    let spans_retained = trace::span_count() as f64;
    m.log("saturate", false, false, half_callers, &saturate, busy);
    m.log("saturate", false, true, half_callers, &sat_traced, busy);
    m.log(
        "saturate-telemetry-off",
        false,
        true,
        2 * half_callers,
        &sat_off,
        busy,
    );

    let probes_before = global().snapshot();
    let probes = w.probes(PROBE_ROUNDS);
    let probes_after = global().snapshot();

    let mut values = Values::new();
    per_layer_values(
        &mut values,
        &LayerInputs {
            knobs,
            w,
            tmp,
            paced: &paced,
            paced_traced: &paced_traced,
            saturate: &saturate,
            sat_traced: &sat_traced,
            sat_off: &sat_off,
            window: Window {
                before: &before,
                after: &after,
            },
            probe_window: Window {
                before: &probes_before,
                after: &probes_after,
            },
            probes: &probes,
            polled: &polled,
            paced_tracers: &paced_tracers,
            spans_retained,
            failed_frac: m.report.failed as f64 / m.report.attempted.max(1) as f64,
        },
    )?;
    m.per_layer = Some(values);
    let mut self_times: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for t in paced_tracers.iter().chain(&sat_tracers) {
        for (span, own) in t.spans.iter().zip(tracer::self_times_us(&t.spans)) {
            self_times.entry(span.name).or_default().push(own);
        }
    }
    m.report.span_self_time_us = self_times
        .into_iter()
        .map(|(name, own)| (name.to_string(), stats::median(&own)))
        .collect();
    m.spans = paced_tracers
        .into_iter()
        .chain(sat_tracers)
        .flat_map(|t| t.spans)
        .collect();
    m.paced = vec![Slice {
        phase: paced,
        reference_us: paced_nominal,
    }];
    m.saturate = vec![Slice {
        phase: saturate,
        reference_us: busy,
    }];
    Ok(())
}

struct LayerInputs<'a> {
    knobs: Knobs,
    w: &'a dyn Workload,
    tmp: &'a Path,
    paced: &'a Phase,
    paced_traced: &'a Phase,
    saturate: &'a Phase,
    sat_traced: &'a Phase,
    sat_off: &'a Phase,
    /// Registry movement over the saturate slices with telemetry on …
    window: Window<'a>,
    /// … and over the idle probes.
    probe_window: Window<'a>,
    probes: &'a Probes,
    polled: &'a Polled,
    paced_tracers: &'a [Tracer],
    spans_retained: f64,
    failed_frac: f64,
}

fn per_layer_values(out: &mut Values, x: &LayerInputs) -> std::io::Result<()> {
    let units = (x.saturate.ok_units + x.sat_traced.ok_units) as f64;
    let wall_s = x.saturate.wall_s + x.sat_traced.wall_s;
    layers::registry_counts(&x.window, units, wall_s, out);
    layers::net_isolation(x.probes, out);

    for (name, samples) in &x.probes.rtts_us {
        out.insert(name, stats::median(samples));
    }
    // The probed endpoint's handler time, as its serve layer recorded it
    // during the same idle round trips.
    let service = if x.w.grid().is_some() { "fs" } else { "echo" };
    let handler_us = x.probe_window.histogram_mean(
        "net_request_seconds",
        &[("service", service), ("endpoint", "VerifyToken")],
    ) * 1e6;
    let rtt_idle = out["service.rtt_idle_us"];
    out.insert("service.overhead_us", rtt_idle - handler_us);
    out.insert("service.handler_share", handler_us / rtt_idle);

    out.insert("reactor.executor_queue_max", x.polled.executor_queue_max);
    out.insert("replica.lag_max", x.polled.repl_lag_max);
    out.insert("telemetry.spans_retained", x.spans_retained);
    out.insert(
        "telemetry.off_ratio",
        x.sat_off.throughput() / (x.saturate.throughput() + x.sat_traced.throughput()),
    );

    // Shares of one paced op's service time.
    let op_us = stats::median(&x.paced.service_ms) * 1e3;
    let rpcs_per_op = out["service.rpcs_per_op"] * f64::from(x.knobs.units_per_op);
    let codec_us = 2.0 * (out["proto.encode_us"] + out["proto.decode_us"]);
    out.insert("proto.share", codec_us * rpcs_per_op / op_us);
    let telemetry_us =
        (LOOKUPS_PER_RPC * out["telemetry.counter_lookup_ns"] + out["telemetry.span_ns"]) / 1e3;
    out.insert("telemetry.share", telemetry_us * rpcs_per_op / op_us);

    if let Some(grid) = x.w.grid() {
        let running = stats::mean(&x.polled.active_contracts);
        out.insert("sched.running_mean", running);
        let peak = grid.fds.iter().map(|f| f.gate.peak_queue()).max();
        out.insert("fd.gate_queue_peak", peak.unwrap_or(0) as f64);
        if let Some(job) = &x.probes.job {
            layers::market_isolation(job, running.round() as u64, out);
        }

        // These move under `FaucetsClient::submit` only: the plain ops.
        let jobs = x.window.counter("client_awards_confirmed_total", &[]);
        let bids = x.window.counter("client_bids_received_total", &[]);
        let rounds = x.window.counter("client_negotiation_rounds_total", &[]);
        out.insert("client.bids_per_job", bids / jobs);
        out.insert("client.rounds_per_job", rounds / jobs);

        // Stage times of the paced traced ops, and whether they add up to
        // what `FaucetsClient::submit` took at the same rate.
        let stage_ms = |name: &str| {
            let us: Vec<f64> = x
                .paced_tracers
                .iter()
                .flat_map(|t| t.durations_us(name))
                .collect();
            stats::median(&us) / 1e3
        };
        out.insert("client.match_ms", stage_ms("client.match"));
        out.insert("client.solicit_ms", stage_ms("client.solicit"));
        out.insert("client.award_ms", stage_ms("client.award"));
        // Per op: the stage spans are the children of its root span.
        let mut stage_sums_ms = Vec::new();
        for t in x.paced_tracers {
            let mut sums = vec![0.0; t.spans.len()];
            for s in &t.spans {
                if let Some(parent) = s.parent {
                    sums[parent as usize] += s.duration_us() / 1e3;
                }
            }
            let roots = t.spans.iter().filter(|s| s.parent.is_none());
            stage_sums_ms.extend(roots.map(|root| sums[root.id as usize]));
        }
        out.insert(
            "client.stage_sum_ratio",
            stats::median(&stage_sums_ms) / stats::median(&x.paced.service_ms),
        );

        if let Some(accept) = &x.probes.accept_record {
            // A WAL frame is its payload behind a length and a checksum.
            let frame_bytes = accept.len() as f64 + 8.0;
            let appends = x
                .window
                .counter("store_appends_total", &[("service", "fd")]);
            out.insert("store.bytes_per_op", frame_bytes * appends / units);
            layers::journal_isolation(accept, &x.tmp.join("isolation"), out)?;
        }
    }

    let tail = stats::tail(&stats::sorted(x.paced.latency_ms.clone()), 0.99, 10);
    out.insert("load.lat_p99_ms", tail.map_or(0.0, |t| t.value));
    let late = stats::sorted(x.paced.lateness_ms.clone());
    out.insert("load.lateness_p99_ms", stats::quantile(&late, 0.99));
    out.insert("load.offered_ops", x.paced.attempted_units() as f64);
    let over_limit = x.paced.latency_ms.iter().filter(|l| **l > x.knobs.slo_ms);
    let missed = over_limit.count() as u64 * u64::from(x.knobs.units_per_op) + x.paced.failed_units;
    out.insert(
        "load.slo_miss_frac",
        missed as f64 / x.paced.attempted_units() as f64,
    );
    // Of a traced op's time at the paced rate, the share that a plain op
    // beside it did not need. (Throughputs of the two kinds of callers in
    // saturate say less: sharing one CPU, which of two closed loops the
    // scheduler favours is not the tracer's doing.)
    out.insert(
        "load.trace_overhead_frac",
        1.0 - stats::median(&x.paced.service_ms) / stats::median(&x.paced_traced.service_ms),
    );
    out.insert("load.callers", callers() as f64);
    out.insert("load.failed_frac", x.failed_frac);
    Ok(())
}

/// Run the benchmark as the driver asks; returns the process exit code.
pub fn run(args: &Args) -> u8 {
    let Some(knobs) = workloads::knobs(&args.workload) else {
        let listed: Vec<&str> = spec().workloads.iter().map(|w| w.name.as_str()).collect();
        eprintln!(
            "unknown workload {:?}; BENCHMARK.json lists {listed:?}",
            args.workload
        );
        return 2;
    };
    // Threads of the services and the callers all share one CPU: in this
    // sandbox a wakeup across vCPUs costs several times one on the same
    // CPU and its price swings by half from run to run, which would
    // drown what the program itself does (README, "One CPU").
    let cores = parallelism();
    let pinned_cpu = procinfo::pin_to_one_cpu();
    // … under a scheduling policy with no wakeup preemption …
    let sched_batch = procinfo::batch_policy();
    procinfo::precise_timers();
    // … and that CPU never halts while the run lasts.
    let spinner = procinfo::IdleSpinner::start();
    let manifest = Path::new(env!("CARGO_MANIFEST_DIR"));
    let tmp = TempDir(
        manifest
            .join("tmp")
            .join(format!("run-{}", std::process::id())),
    );
    if let Err(e) = std::fs::create_dir_all(&tmp.0) {
        eprintln!("cannot create {}: {e}", tmp.0.display());
        return 2;
    }
    let report = Report {
        schema: SCHEMA,
        workload: knobs.name.into(),
        seed: args.seed,
        trace: args.trace,
        correct: false,
        error: None,
        git_sha: procinfo::git_sha(),
        rustc: procinfo::rustc_version(),
        kernel: procinfo::kernel(),
        available_parallelism: cores,
        pinned_cpu,
        sched_batch,
        idle_spinner: spinner.is_some(),
        callers: callers(),
        paced_threads: callers() * PACED_THREADS_PER_CALLER,
        transport: "loopback TCP, no injected delay".into(),
        journal_fs: procinfo::fs_type(&tmp.0),
        rate_ops_s: knobs.rate_ops_s,
        slo_ms: knobs.slo_ms,
        seconds: args.seconds,
        warmup_seconds: WARMUP.as_secs_f64(),
        setups: vec![],
        setup_reference_us: vec![],
        reference_busy_nominal_us: reference::BUSY_NOMINAL_US,
        reference_paced_nominal_us: reference::PACED_NOMINAL_US,
        reference_cpu_ms: vec![],
        phases: vec![],
        end_to_end_unscaled: BTreeMap::new(),
        rss_end_mb: 0.0,
        lat_tail_ms: 0.0,
        tail_quantile: 0.0,
        tail_samples_beyond: 0,
        attempted: 0,
        failed: 0,
        jobs_per_day: None,
        end_to_end: Metrics::default(),
        per_layer: Metrics::default(),
        not_applicable: vec![],
        checks: vec![],
        span_self_time_us: BTreeMap::new(),
        spans_file: None,
    };

    let mut measured = Measured {
        report,
        paced: vec![],
        saturate: vec![],
        rss_after_paced_mib: 0.0,
        per_layer: None,
        spans: vec![],
    };
    if let Err(e) = measure(&mut measured, args, knobs, &tmp.0) {
        eprintln!("run failed: {e}");
        measured.report.error = Some(e.to_string());
        if let Err(e) = measured.report.write(&args.out) {
            eprintln!("cannot write the report: {e}");
        }
        return 1;
    }
    let Measured {
        mut report,
        paced,
        saturate,
        rss_after_paced_mib,
        per_layer,
        spans,
    } = measured;

    let (busy, paced_nominal) = (reference::BUSY_NOMINAL_US, reference::PACED_NOMINAL_US);
    let setups: Vec<Slice> = (report.setups.iter().zip(&report.setup_reference_us))
        .map(|(secs, reference_us)| Slice {
            phase: Phase {
                wall_s: *secs,
                ..Phase::default()
            },
            reference_us: *reference_us,
        })
        .collect();
    let readings = [
        ("setup_s", over(&setups, busy, Kind::Time, &|p| p.wall_s)),
        (
            "throughput_ops_s",
            over(&saturate, busy, Kind::Rate, &Phase::throughput),
        ),
        (
            "lat_p50_ms",
            over(&paced, paced_nominal, Kind::Time, &|p| {
                stats::median(&p.latency_ms)
            }),
        ),
        (
            "cpu_ms_per_op",
            over(&saturate, busy, Kind::Time, &cpu_ms_per_op),
        ),
    ];
    for (name, (unscaled, scaled)) in readings {
        report.end_to_end.set(name, scaled);
        report.end_to_end_unscaled.insert(name.into(), unscaled);
    }
    let e2e = &mut report.end_to_end;
    // Read when the paced phase ended: up to there every run of a seed
    // has done the same work, while the jobs a saturate phase gets through
    // — and what the grid's books keep of each — go with the sandbox's
    // speed. (A traced run reports no end-to-end metric and reads it now.)
    report.rss_end_mb = procinfo::rss_peak_mib();
    e2e.set(
        "rss_peak_mb",
        if args.trace {
            report.rss_end_mb
        } else {
            rss_after_paced_mib
        },
    );
    // The tail needs more samples than a slice holds: all of the phase's.
    let all_paced: Vec<f64> = (paced.iter())
        .flat_map(|s| &s.phase.latency_ms)
        .copied()
        .collect();
    let tail = stats::tail(&stats::sorted(all_paced), 0.99, 10);
    report.lat_tail_ms = tail.map_or(0.0, |t| t.value);
    report.tail_quantile = tail.map_or(0.0, |t| t.q);
    report.tail_samples_beyond = tail.map_or(0, |t| t.beyond);
    if knobs.name.starts_with("submit") {
        report.jobs_per_day = Some(e2e.0["throughput_ops_s"].value * 86_400.0);
    }
    if let Some(values) = &per_layer {
        // `Metrics::set` refuses a name BENCHMARK.json does not list.
        for (name, value) in values {
            report.per_layer.set(name, *value);
        }
        for m in &spec().per_layer {
            if !values.contains_key(m.name.as_str()) {
                report.per_layer.set(&m.name, 0.0);
                report.not_applicable.push(m.name.clone());
            }
        }
    }
    report.correct = report.checks.iter().all(|c| c.pass);

    if args.trace {
        let name = format!("spans-{}-seed{}.json", report.workload, report.seed);
        let path = args.out.join(&name);
        let written = std::fs::create_dir_all(&args.out).and_then(|()| {
            let text = serde_json::to_string(&spans).map_err(std::io::Error::other)?;
            std::fs::write(&path, text)
        });
        match written {
            Ok(()) => report.spans_file = Some(name),
            Err(e) => eprintln!("cannot write {}: {e}", path.display()),
        }
    }

    drop(spinner);
    print_human(&report);
    match report.write(&args.out) {
        Ok(path) => println!("report: {}", path.display()),
        Err(e) => eprintln!("cannot write the report: {e}"),
    }
    drop(tmp);
    let line = ResultLine {
        correct: report.correct,
        attempted: report.attempted.max(1),
        failed: report.failed,
        metrics: if args.trace {
            &report.per_layer
        } else {
            &report.end_to_end
        },
    };
    let line = serde_json::to_string(&line).expect("result line serializes");
    println!("{line}");
    u8::from(!report.correct)
}

fn print_human(r: &Report) {
    println!(
        "{} seed {} ({}): {} callers, {} paced threads, paced at {} units/s, limit {} ms; {}",
        r.workload,
        r.seed,
        if r.trace { "traced" } else { "untraced" },
        r.callers,
        r.paced_threads,
        r.rate_ops_s,
        r.slo_ms,
        r.transport,
    );
    for p in &r.phases {
        println!(
            "  phase {:<22} {:>6} loop {:<7} {:>3} slices {:>6.2} s {:>8} ops {:>9} units {:>5} failed {:>7} samples",
            p.name,
            p.loop_kind,
            if p.traced { "traced" } else { "plain" },
            p.slices,
            p.seconds,
            p.ops,
            p.attempted_units,
            p.failed_units,
            p.latency_samples,
        );
    }
    let shown = if r.trace { &r.per_layer } else { &r.end_to_end };
    for (name, m) in &shown.0 {
        let note = if r.not_applicable.contains(name) {
            "  (not exercised by this workload)"
        } else {
            ""
        };
        println!("  {name:<30} {:>16.4} {}{note}", m.value, m.unit);
    }
    if !r.trace {
        println!(
            "  every metric but the memory is the median over its phase's slices, each scaled to a \
             reference round trip of {} us ({} us in the paced phase); as the clock read them:",
            r.reference_busy_nominal_us, r.reference_paced_nominal_us
        );
        for (name, value) in &r.end_to_end_unscaled {
            println!("  {name:<30} {value:>16.4} unscaled");
        }
    }
    for (name, own) in &r.span_self_time_us {
        println!("  span {name:<25} {own:>16.1} us median self time");
    }
    println!(
        "  paced tail latency {:.4} ms: at least the {:.4} quantile, {} samples beyond it (not gated: see README)",
        r.lat_tail_ms, r.tail_quantile, r.tail_samples_beyond
    );
    for p in r.phases.iter().filter(|p| !p.traced && !r.trace) {
        println!(
            "  reference round trip beside the {} slices: {:.1} us (median)",
            p.name,
            stats::median(&p.slice_reference_us)
        );
    }
    println!(
        "  arithmetic reference: {:.2} ms (median)",
        stats::median(&r.reference_cpu_ms)
    );
    if let Some(per_day) = r.jobs_per_day {
        println!(
            "  {:.2} million jobs per day at saturation (the paper: \"millions of jobs per day\")",
            per_day / 1e6
        );
    }
    for c in &r.checks {
        let verdict = if c.pass { "PASS" } else { "FAIL" };
        println!("  check {:<36} {verdict}  {}", c.name, c.detail);
    }
    println!(
        "  journals on {}, kernel {}, {}, {} cores (pinned to {:?}, SCHED_BATCH {}, idle spinner {}), commit {}",
        r.journal_fs,
        r.kernel,
        r.rustc,
        r.available_parallelism,
        r.pinned_cpu,
        if r.sched_batch { "on" } else { "off" },
        if r.idle_spinner { "on" } else { "off" },
        r.git_sha
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sandbox that is twice as slow in one slice as in the other reads
    /// half the rate and twice the time there; scaled, the two agree.
    #[test]
    fn scaling_takes_the_sandbox_speed_out() {
        let slice = |ok_units, cpu_s, reference_us| Slice {
            phase: Phase {
                wall_s: 1.0,
                cpu_s,
                ok_units,
                ..Phase::default()
            },
            reference_us,
        };
        let nominal = 8.0;
        let slices = [
            slice(1000, 0.5, 8.0),
            slice(500, 0.5, 16.0),
            slice(1000, 0.5, 8.0),
        ];
        let (read, scaled) = over(&slices, nominal, Kind::Rate, &Phase::throughput);
        assert_eq!((read, scaled), (1000.0, 1000.0));
        let slow = [
            slice(500, 0.5, 16.0),
            slice(400, 0.5, 20.0),
            slice(250, 0.5, 32.0),
        ];
        let (read, scaled) = over(&slow, nominal, Kind::Rate, &Phase::throughput);
        assert_eq!((read, scaled), (400.0, 1000.0));
        let (read, scaled) = over(&slow, nominal, Kind::Time, &cpu_ms_per_op);
        assert_eq!(read, 1.25);
        assert!((scaled - 0.5).abs() < 1e-12, "{scaled}");
        // A slice without a reference reading is left out, not divided by.
        let (_, scaled) = over(
            &[slice(7, 0.5, 0.0)],
            nominal,
            Kind::Rate,
            &Phase::throughput,
        );
        assert_eq!(scaled, 0.0);
    }

    /// A short traced `submit_repl` run goes through every measurement
    /// the harness has. Whatever it emits must be exactly what
    /// `BENCHMARK.json` lists, under names of the contract's shape.
    #[test]
    fn traced_run_emits_exactly_the_listed_metrics() {
        let out = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join(format!("tmp/selftest-{}", std::process::id()));
        let _cleanup = TempDir(out.clone());
        let code = run(&Args {
            workload: "submit_repl".into(),
            seed: 5,
            seconds: 6,
            trace: true,
            out: out.clone(),
        });
        assert_eq!(code, 0, "output checks pass");
        let report = Report::read(&out.join("report-submit_repl-seed5-trace1.json"))
            .expect("report written");
        assert!(report.correct && report.error.is_none());
        let names = |m: &Metrics| m.0.keys().cloned().collect::<Vec<_>>();
        let listed = |specs: &[crate::spec::MetricSpec]| {
            let mut names: Vec<String> = specs.iter().map(|m| m.name.clone()).collect();
            names.sort();
            names
        };
        assert_eq!(names(&report.per_layer), listed(&spec().per_layer));
        assert_eq!(names(&report.end_to_end), listed(&spec().end_to_end));
        for name in names(&report.per_layer) {
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
        }
        // `submit_repl` exercises every layer.
        assert!(
            report.not_applicable.is_empty(),
            "{:?}",
            report.not_applicable
        );
        let value = |name: &str| report.per_layer.0[name].value;
        assert!(value("store.fsyncs_per_op") > 0.0 && value("replica.ship_rpcs_per_op") > 0.0);
        assert!(value("service.rpcs_per_op") > 12.0);
        assert!(out.join("spans-submit_repl-seed5.json").exists());
        assert!(report.span_self_time_us.contains_key("client.solicit"));
    }
}
