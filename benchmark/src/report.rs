//! What a run leaves behind: the one-line result the driver reads, and a
//! report file written on FAIL as well as PASS.

use crate::spec::spec;
use crate::workloads::Check;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Version of the report layout.
pub const SCHEMA: u32 = 2;

#[derive(Debug, Clone, Serialize, Deserialize, PartialEq)]
pub struct MetricValue {
    pub value: f64,
    pub unit: String,
}

/// Metric values by name. Inserting looks the name up in
/// `BENCHMARK.json`, so only listed metrics can be reported, each with
/// the unit the file gives it.
#[derive(Debug, Clone, Default, Serialize, Deserialize, PartialEq)]
#[serde(transparent)]
pub struct Metrics(pub BTreeMap<String, MetricValue>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        let unit = spec()
            .metric(name)
            .unwrap_or_else(|| panic!("metric {name:?} is not listed in BENCHMARK.json"))
            .unit
            .clone();
        // A metric with nothing to divide by reads 0, never NaN.
        let value = if value.is_finite() { value } else { 0.0 };
        self.0.insert(name.to_string(), MetricValue { value, unit });
    }
}

/// The last line of standard output.
#[derive(Debug, Serialize)]
pub struct ResultLine<'a> {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: &'a Metrics,
}

/// One kind of phase: its slices added up, and what each slice read —
/// as measured, nothing scaled.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PhaseReport {
    pub name: String,
    /// `open` (paced from a schedule) or `closed` (back to back).
    pub loop_kind: String,
    pub traced: bool,
    pub threads: usize,
    pub slices: usize,
    pub seconds: f64,
    pub ops: u64,
    pub attempted_units: u64,
    pub failed_units: u64,
    pub latency_samples: usize,
    /// Per slice: median op latency in ms (open loop) or successful units
    /// per second (closed loop).
    pub slice_values: Vec<f64>,
    /// Per slice: process CPU ms per successful unit.
    pub slice_cpu_ms_per_op: Vec<f64>,
    /// Per slice of an untraced run, the reference round trip in µs: the
    /// median of those that rode in an open-loop slice's schedule, or the
    /// mean of the back-to-back readings before and after a closed-loop
    /// slice.
    pub slice_reference_us: Vec<f64>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Report {
    pub schema: u32,
    pub workload: String,
    pub seed: u64,
    pub trace: bool,
    /// Every output check passed and the run finished.
    pub correct: bool,
    /// Set when the run could not finish.
    pub error: Option<String>,
    pub git_sha: String,
    pub rustc: String,
    pub kernel: String,
    /// CPUs available when the process started.
    pub available_parallelism: usize,
    /// The one CPU the run was confined to (`None`: could not pin).
    pub pinned_cpu: Option<usize>,
    /// Whether every thread ran under `SCHED_BATCH` (no wakeup preemption).
    pub sched_batch: bool,
    /// Whether an idle-priority spinner kept that CPU from halting.
    pub idle_spinner: bool,
    pub callers: usize,
    pub paced_threads: usize,
    pub transport: String,
    /// Filesystem type under the journals (the fsync cost is its).
    pub journal_fs: String,
    pub rate_ops_s: f64,
    pub slo_ms: f64,
    pub seconds: u64,
    /// The warm-up serves as many units as `rate_ops_s` offers in this
    /// long.
    pub warmup_seconds: f64,
    /// Every set-up as timed, in seconds, and the back-to-back reference
    /// round trip (µs) read around it.
    pub setups: Vec<f64>,
    pub setup_reference_us: Vec<f64>,
    /// What the reference round trips are scaled to (`src/reference.rs`).
    pub reference_busy_nominal_us: f64,
    pub reference_paced_nominal_us: f64,
    /// A fixed arithmetic loop, in ms, timed now and then: the part of the
    /// sandbox's speed that its slow spells leave alone.
    pub reference_cpu_ms: Vec<f64>,
    pub phases: Vec<PhaseReport>,
    /// The end-to-end metrics as the clock read them, before scaling to
    /// the reference's nominal length (untraced runs).
    pub end_to_end_unscaled: BTreeMap<String, f64>,
    /// `VmHWM` in MiB when the run ended (`rss_peak_mb` is read when the
    /// paced phase ends).
    pub rss_end_mb: f64,
    /// Tail latency of the plain paced ops, all slices together and as
    /// the clock read it: the 99th percentile, or with fewer than 1000
    /// samples the highest percentile with ten samples beyond it — that
    /// percentile and count follow. Not gated; `load.lat_p99_ms` in a
    /// traced run is the same quantity.
    pub lat_tail_ms: f64,
    pub tail_quantile: f64,
    pub tail_samples_beyond: usize,
    pub attempted: u64,
    pub failed: u64,
    /// `throughput_ops_s × 86400`, next to the paper's "millions of jobs
    /// per day" (`submit_*` only).
    pub jobs_per_day: Option<f64>,
    pub end_to_end: Metrics,
    pub per_layer: Metrics,
    /// Per-layer metrics this workload does not exercise (reported as 0).
    pub not_applicable: Vec<String>,
    pub checks: Vec<Check>,
    /// Median self time (duration minus what child spans cover) of the
    /// traced run's spans, by span name, in µs.
    pub span_self_time_us: BTreeMap<String, f64>,
    /// File, next to the report, holding the traced run's spans, if any.
    pub spans_file: Option<String>,
}

impl Report {
    pub fn file_name(&self) -> String {
        format!(
            "report-{}-seed{}-trace{}.json",
            self.workload, self.seed, self.trace as u8
        )
    }

    pub fn write(&self, dir: &Path) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(self.file_name());
        let text = serde_json::to_string_pretty(self).map_err(std::io::Error::other)?;
        std::fs::write(&path, text + "\n")?;
        Ok(path)
    }

    pub fn read(path: &Path) -> std::io::Result<Report> {
        let text = std::fs::read_to_string(path)?;
        serde_json::from_str(&text)
            .map_err(|e| std::io::Error::other(format!("{}: {e}", path.display())))
    }
}
