//! One benchmark run: set-up → warm-up → paced (open loop) → saturate
//! (closed loop) → drain and checks. `--trace 0` times the end-to-end
//! metrics with the harness's tracing off; `--trace 1` splits each phase
//! into a plain and a traced segment and yields the per-layer metrics.

use crate::layers::{self, Values, Window};
use crate::loadgen::{self, Op, Phase};
use crate::procinfo;
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

/// Discarded closed-loop traffic before anything is timed: connections
/// dialled, pools warm, allocator and page cache settled.
const WARMUP: Duration = Duration::from_secs(3);
/// `setup_s` is the median over at least [`MIN_SETUPS`] set-ups, and as
/// many more (up to [`MAX_SETUPS`]) as fit in [`SETUP_BUDGET`]: a set-up
/// that takes a millisecond needs many repeats to read steadily.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 200;
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
/// Target length of one measured slice of an untraced run.
const SLICE: Duration = Duration::from_secs(3);
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

/// A run in progress: the report being filled in, and what the measured
/// phases produced beyond it.
struct Measured {
    report: Report,
    /// The plain paced and saturate ops the end-to-end metrics read, one
    /// `Phase` per slice.
    paced: Vec<Phase>,
    saturate: Vec<Phase>,
    per_layer: Option<Values>,
    spans: Vec<SpanRec>,
}

impl Measured {
    fn reference(&mut self) {
        self.report
            .reference_cpu_ms
            .push(crate::reference::cpu_ms());
        if let Ok(us) = crate::reference::tcp_rtt_us() {
            self.report.reference_tcp_rtt_us.push(us);
        }
    }

    fn log(&mut self, name: &str, open: bool, traced: bool, threads: usize, p: &Phase) {
        self.report.attempted += p.attempted_units();
        self.report.failed += p.failed_units;
        self.report.phases.push(PhaseReport {
            name: name.into(),
            loop_kind: if open { "open" } else { "closed" }.into(),
            traced,
            threads,
            seconds: p.wall_s,
            ops: p.ops,
            attempted_units: p.attempted_units(),
            failed_units: p.failed_units,
            latency_samples: p.latency_ms.len(),
        });
    }
}

fn measure(m: &mut Measured, args: &Args, knobs: Knobs, tmp: &Path) -> std::io::Result<()> {
    // Set-up, over and over; the last one is kept and measured.
    let mut kept: Option<Box<dyn Workload>> = None;
    let budget = Instant::now() + SETUP_BUDGET;
    let setups = &mut m.report.setups;
    while setups.len() < MIN_SETUPS || (Instant::now() < budget && setups.len() < MAX_SETUPS) {
        let dir = tmp.join("journals");
        if kept.take().is_some() {
            // Torn down; its journals go too, so that no set-up pays for
            // the files its predecessors left on the filesystem.
            let _ = std::fs::remove_dir_all(&dir);
        }
        let begun = Instant::now();
        kept = Some(workloads::setup(knobs.name, args.seed, &dir)?);
        setups.push(begun.elapsed().as_secs_f64());
    }
    let workload = kept.expect("at least one set-up");
    let w: &dyn Workload = &*workload;

    let tickets = AtomicU64::new(0);
    loadgen::closed_loop(WARMUP, &mut plain_ops(w, callers()), &tickets);
    if args.trace {
        traced_phases(m, args, knobs, w, &tickets, tmp)?;
    } else {
        plain_phases(m, args, knobs, w, &tickets);
    }
    m.report.checks = workload.finish(m.report.failed);
    Ok(())
}

fn paced_offsets(seed: u64, knobs: Knobs, length: Duration) -> Vec<Duration> {
    let ops_per_s = knobs.rate_ops_s / f64::from(knobs.units_per_op);
    loadgen::poisson_offsets(seed, ops_per_s, length)
}

/// Cut `seconds` into slices of about [`SLICE`]: `(slice length, paced
/// slices, saturate slices)`, five paced to every three saturate.
fn slices(seconds: u64) -> (Duration, usize, usize) {
    let total = Duration::from_secs(seconds);
    let n = ((total.as_secs_f64() / SLICE.as_secs_f64()).round() as usize).max(2);
    let paced = (n * 5).div_ceil(8).min(n - 1);
    (total / n as u32, paced, n - paced)
}

/// The untraced run. Each phase is measured in slices and every
/// end-to-end metric is the median over its phase's slices, so that a
/// stall of the sandbox spoils one slice and not the run's numbers.
fn plain_phases(
    m: &mut Measured,
    args: &Args,
    knobs: Knobs,
    w: &dyn Workload,
    tickets: &AtomicU64,
) {
    let callers = callers();
    let paced_threads = callers * PACED_THREADS_PER_CALLER;
    let (slice, paced_slices, saturate_slices) = slices(args.seconds);
    let mut ops = plain_ops(w, paced_threads);
    for i in 0..paced_slices {
        m.reference();
        // The span log freezes once full; each slice starts on an empty
        // one so that the serve path does not change mid-slice.
        trace::clear();
        let offsets = paced_offsets(args.seed.wrapping_add(i as u64), knobs, slice);
        let paced = Phase::merged(&loadgen::open_loop(&offsets, &mut ops, tickets));
        m.log("paced", true, false, paced_threads, &paced);
        m.paced.push(paced);
    }
    ops.truncate(callers);
    for _ in 0..saturate_slices {
        m.reference();
        trace::clear();
        let saturate = Phase::merged(&loadgen::closed_loop(slice, &mut ops, tickets));
        m.log("saturate", false, false, callers, &saturate);
        m.saturate.push(saturate);
    }
    m.reference();
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

    trace::clear();
    let offsets = paced_offsets(args.seed, knobs, half);
    let parts = loadgen::open_loop(&offsets, &mut mixed_ops(w, &mut paced_tracers), tickets);
    let paced = Phase::merged(&parts[..half_paced]);
    let paced_traced = Phase::merged(&parts[half_paced..]);
    m.log("paced", true, false, half_paced, &paced);
    m.log("paced", true, true, half_paced, &paced_traced);

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
    m.log("saturate", false, false, half_callers, &saturate);
    m.log("saturate", false, true, half_callers, &sat_traced);
    m.log(
        "saturate-telemetry-off",
        false,
        true,
        2 * half_callers,
        &sat_off,
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
    (m.paced, m.saturate) = (vec![paced], vec![saturate]);
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
        reference_cpu_ms: vec![],
        reference_tcp_rtt_us: vec![],
        phases: vec![],
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
        per_layer,
        spans,
    } = measured;

    // Per slice, then the median over slices.
    let tails: Vec<Option<stats::Tail>> = paced
        .iter()
        .map(|p| stats::tail(&stats::sorted(p.latency_ms.clone()), 0.99, 10))
        .collect();
    let over = |phase: &[Phase], f: &dyn Fn(&Phase) -> f64| {
        stats::median(&phase.iter().map(f).collect::<Vec<f64>>())
    };
    let e2e = &mut report.end_to_end;
    e2e.set("setup_s", stats::median(&report.setups));
    e2e.set("throughput_ops_s", over(&saturate, &Phase::throughput));
    e2e.set(
        "lat_p50_ms",
        over(&paced, &|p| stats::median(&p.latency_ms)),
    );
    e2e.set(
        "cpu_ms_per_op",
        over(&saturate, &|p| p.cpu_s * 1e3 / p.ok_units.max(1) as f64),
    );
    e2e.set("rss_peak_mb", procinfo::rss_peak_mib());
    // The least-supported slice says what `lat_p99_ms` can be trusted as.
    let weakest = tails.iter().flatten().min_by(|a, b| a.q.total_cmp(&b.q));
    let tail_values: Vec<f64> = tails.iter().map(|t| t.map_or(0.0, |t| t.value)).collect();
    report.lat_tail_ms = stats::median(&tail_values);
    report.tail_quantile = weakest.map_or(0.0, |t| t.q);
    report.tail_samples_beyond = weakest.map_or(0, |t| t.beyond);
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
            "  phase {:<22} {:>6} loop {:<7} {:>6.2} s {:>8} ops {:>9} units {:>5} failed {:>7} samples",
            p.name,
            p.loop_kind,
            if p.traced { "traced" } else { "plain" },
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
        println!("  every metric is the median over its phase's slices");
    }
    for (name, own) in &r.span_self_time_us {
        println!("  span {name:<25} {own:>16.1} us median self time");
    }
    println!(
        "  paced tail latency {:.4} ms: at least the {:.4} quantile, {} samples beyond it (not gated: see README)",
        r.lat_tail_ms, r.tail_quantile, r.tail_samples_beyond
    );
    println!(
        "  sandbox speed between slices: loopback round trip {:.1} us, arithmetic loop {:.2} ms (medians)",
        stats::median(&r.reference_tcp_rtt_us),
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
        "  journals on {}, kernel {}, {}, {} cores (pinned to {:?}, idle spinner {}), commit {}",
        r.journal_fs,
        r.kernel,
        r.rustc,
        r.available_parallelism,
        r.pinned_cpu,
        if r.idle_spinner { "on" } else { "off" },
        r.git_sha
    );
}

#[cfg(test)]
mod tests {
    use super::*;

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
