//! AppSpector — the job-monitoring component (§2).
//!
//! *"AppSpector server connects to the job through a network connection and
//! buffers the display data so that multiple clients can monitor the job
//! simultaneously. Any authenticated users … can connect to their running
//! (or just completed) parallel job using its job-ID … One section of this
//! display is application specific and the other section generic, providing
//! the processor utilization/throughput of the application on the Compute
//! Server. At any point of the job execution the user can download the
//! output files generated by the job."*

use crate::error::{FaucetsError, Result};
use crate::ids::{ClusterId, JobId, UserId};
use faucets_sim::time::SimTime;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, VecDeque};

/// One telemetry sample from a running job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TelemetrySample {
    /// Sample time.
    pub at: SimTime,
    /// Processors currently allocated.
    pub pes: u32,
    /// Processor utilization in [0, 1] (the generic display section).
    pub utilization: f64,
    /// Application throughput (e.g. timesteps/s).
    pub throughput: f64,
    /// Application-specific display payload (free-form).
    pub app_data: String,
}

/// A downloadable output file descriptor.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OutputFile {
    /// File name.
    pub name: String,
    /// Size in bytes.
    pub size_bytes: u64,
}

/// Per-job monitor state.
#[derive(Debug)]
struct JobMonitor {
    owner: UserId,
    cluster: ClusterId,
    /// Bounded ring buffer of recent display data.
    samples: VecDeque<TelemetrySample>,
    completed: bool,
    output_files: Vec<OutputFile>,
}

/// A read-only snapshot of a job's monitor, as sent to watching clients.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MonitorSnapshot {
    /// The job.
    pub job: JobId,
    /// Where it runs ("the user doesn't explicitly know which Compute
    /// Server is running his job" — but the monitor does).
    pub cluster: ClusterId,
    /// Recent telemetry, oldest first.
    pub samples: Vec<TelemetrySample>,
    /// Whether the job has finished.
    pub completed: bool,
    /// Output files available for download.
    pub output_files: Vec<OutputFile>,
}

impl MonitorSnapshot {
    /// Render the AppSpector display of Figure 3 as text: one section
    /// application-specific, the other generic, "providing the processor
    /// utilization/throughput of the application on the Compute Server".
    pub fn render_display(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let status = if self.completed {
            "COMPLETED"
        } else {
            "RUNNING"
        };
        let _ = writeln!(
            out,
            "+=== AppSpector: {} on {} [{}] ===+",
            self.job, self.cluster, status
        );

        let _ = writeln!(out, "| generic: processor utilization / throughput");
        if let Some(last) = self.samples.last() {
            let _ = writeln!(
                out,
                "|   t={}  pes={}  util={:>5.1}%  throughput={:.2}",
                last.at,
                last.pes,
                last.utilization * 100.0,
                last.throughput
            );
            let _ = writeln!(
                out,
                "|   util history: {}",
                sparkline(self.samples.iter().map(|s| s.utilization))
            );
            let peak = self
                .samples
                .iter()
                .map(|s| s.throughput)
                .fold(0.0f64, f64::max);
            let _ = writeln!(
                out,
                "|   thpt history: {} (peak {:.2})",
                sparkline(self.samples.iter().map(|s| s.throughput / peak.max(1e-12))),
                peak
            );
        } else {
            let _ = writeln!(out, "|   (no telemetry yet)");
        }

        let _ = writeln!(out, "| application-specific:");
        for s in self
            .samples
            .iter()
            .rev()
            .take(3)
            .collect::<Vec<_>>()
            .into_iter()
            .rev()
        {
            let _ = writeln!(out, "|   [{}] {}", s.at, s.app_data);
        }
        if self.completed {
            let _ = writeln!(out, "| output files (downloadable):");
            for f in &self.output_files {
                let _ = writeln!(out, "|   {} ({} bytes)", f.name, f.size_bytes);
            }
        }
        out.push_str("+======================================+\n");
        out
    }
}

/// The grid-wide dashboard AppSpector aggregates on request: every
/// registered cluster with its latest load and health, plus a metrics
/// snapshot per Figure-1 service (kept per source, never summed — two
/// services sharing one in-process registry would otherwise double-count).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GridView {
    /// When the view was assembled (wall seconds since the AppSpector
    /// process epoch).
    pub at_secs: f64,
    /// One row per registered Compute Server, graded at assembly time.
    pub clusters: Vec<crate::directory::ClusterRow>,
    /// `(service name, registry snapshot)` per service the AppSpector
    /// could reach: `"fs"`, `"fd:<cluster>"`, `"appspector"`.
    pub services: Vec<(String, faucets_telemetry::MetricsSnapshot)>,
    /// Jobs currently monitored by this AppSpector.
    pub jobs_monitored: u64,
}

impl GridView {
    /// Render the dashboard as text: a per-cluster load table (the
    /// satellite view the paper's AppSpector screenshots imply) and the
    /// headline request/error counters per service.
    pub fn render(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "+=== AppSpector: Grid Dashboard (t={:.1}s) ===+",
            self.at_secs
        );
        let _ = writeln!(
            out,
            "| cluster        pes   free  run  queue  util   health"
        );
        for row in &self.clusters {
            let _ = writeln!(
                out,
                "| {:<12} {:>5} {:>6} {:>4} {:>6}  {:>5.1}% {} {:?}",
                row.info.name,
                row.info.total_pes,
                row.status.free_pes,
                row.status.running,
                row.status.queue_len,
                row.status.utilization * 100.0,
                sparkline(std::iter::once(row.status.utilization)),
                row.liveness,
            );
        }
        let _ = writeln!(out, "| jobs monitored: {}", self.jobs_monitored);
        for (name, snap) in &self.services {
            let reqs = snap.counter_sum("net_requests_total", &[]);
            let errs = snap.counter_sum("net_errors_total", &[]);
            let lat = snap.histogram_sum("net_request_seconds", &[]);
            let _ = writeln!(
                out,
                "| {:<12} requests={:<8} errors={:<6} p95={:.4}s",
                name,
                reqs,
                errs,
                lat.quantile(0.95),
            );
        }
        out.push_str("+=============================================+\n");
        out
    }
}

/// Unicode sparkline over values in [0, 1].
fn sparkline(values: impl Iterator<Item = f64>) -> String {
    const BARS: [char; 8] = [
        '\u{2581}', '\u{2582}', '\u{2583}', '\u{2584}', '\u{2585}', '\u{2586}', '\u{2587}',
        '\u{2588}',
    ];
    values
        .map(|v| {
            let i = (v.clamp(0.0, 1.0) * 7.0).round() as usize;
            BARS[i]
        })
        .collect()
}

/// Render the job-submission form of Figure 2 as text: "the user specifies
/// the application name, parameters such as minimum (minpe) and maximum
/// (maxpe) number of processors, estimated time, deadline and files to be
/// uploaded to the parallel machine."
pub fn render_submission_form(qos: &crate::qos::QosContract, files: &[String]) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "+=== Faucets Client: Job Submission ===+");
    let _ = writeln!(out, "| application : {}", qos.env.app);
    let _ = writeln!(out, "| minpe       : {}", qos.min_pes);
    let _ = writeln!(out, "| maxpe       : {}", qos.max_pes);
    let est = qos.wall_time_on(qos.max_pes, 1.0);
    let _ = writeln!(out, "| est. time   : {est} (at maxpe)");
    let _ = writeln!(
        out,
        "| deadline    : soft {}, hard {}",
        qos.payoff.soft_deadline, qos.payoff.hard_deadline
    );
    let _ = writeln!(
        out,
        "| adaptive    : {}",
        if qos.adaptive { "yes" } else { "no" }
    );
    let _ = writeln!(
        out,
        "| files       : {}",
        if files.is_empty() {
            "(none)".to_string()
        } else {
            files.join(", ")
        }
    );
    out.push_str("+=======================================+\n");
    out
}

/// The AppSpector server: buffers per-job display data for any number of
/// simultaneous watchers.
pub struct AppSpector {
    jobs: HashMap<JobId, JobMonitor>,
    /// Samples retained per job.
    buffer_depth: usize,
}

impl AppSpector {
    /// An AppSpector retaining the last `buffer_depth` samples per job.
    pub fn new(buffer_depth: usize) -> Self {
        AppSpector {
            jobs: HashMap::new(),
            buffer_depth: buffer_depth.max(1),
        }
    }

    /// The FD registers a job when it starts (§2: "Once the job starts, the
    /// FD registers the running job with the AppSpector Server").
    ///
    /// A restarted FD registers again every contract its journal restored,
    /// among them jobs whose completion AppSpector heard before the crash
    /// and the journal did not: a completed job that its owner registers
    /// again stays completed, with its output files.
    pub fn register_job(&mut self, job: JobId, owner: UserId, cluster: ClusterId) {
        if self
            .jobs
            .get(&job)
            .is_some_and(|m| m.completed && m.owner == owner)
        {
            return;
        }
        self.jobs.insert(
            job,
            JobMonitor {
                owner,
                cluster,
                samples: VecDeque::new(),
                completed: false,
                output_files: vec![],
            },
        );
    }

    /// Append a telemetry sample from the running application.
    pub fn push_sample(&mut self, job: JobId, sample: TelemetrySample) -> Result<()> {
        let m = self
            .jobs
            .get_mut(&job)
            .ok_or(FaucetsError::UnknownJob(job))?;
        if m.samples.len() == self.buffer_depth {
            m.samples.pop_front();
        }
        m.samples.push_back(sample);
        Ok(())
    }

    /// Mark a job completed, publishing its output files.
    pub fn complete_job(&mut self, job: JobId, output_files: Vec<OutputFile>) -> Result<()> {
        let m = self
            .jobs
            .get_mut(&job)
            .ok_or(FaucetsError::UnknownJob(job))?;
        m.completed = true;
        m.output_files = output_files;
        Ok(())
    }

    /// Connect an authenticated user to a job's monitor. Only the owner may
    /// watch; returns the buffered display data.
    pub fn connect(&self, job: JobId, user: UserId) -> Result<MonitorSnapshot> {
        let m = self.jobs.get(&job).ok_or(FaucetsError::UnknownJob(job))?;
        if m.owner != user {
            return Err(FaucetsError::AuthFailed(format!(
                "{user} does not own {job}"
            )));
        }
        Ok(MonitorSnapshot {
            job,
            cluster: m.cluster,
            samples: m.samples.iter().cloned().collect(),
            completed: m.completed,
            output_files: m.output_files.clone(),
        })
    }

    /// Download an output file (by name) from a job. Models the §2 flow; the
    /// byte transfer itself belongs to the transport layer.
    pub fn download(&self, job: JobId, user: UserId, name: &str) -> Result<OutputFile> {
        let snap = self.connect(job, user)?;
        snap.output_files
            .into_iter()
            .find(|f| f.name == name)
            .ok_or_else(|| FaucetsError::UnknownApplication(name.to_string()))
    }

    /// Number of monitored jobs.
    pub fn job_count(&self) -> usize {
        self.jobs.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(at: u64, util: f64) -> TelemetrySample {
        TelemetrySample {
            at: SimTime::from_secs(at),
            pes: 16,
            utilization: util,
            throughput: 3.5,
            app_data: "step 42".into(),
        }
    }

    fn spect() -> AppSpector {
        let mut a = AppSpector::new(3);
        a.register_job(JobId(1), UserId(1), ClusterId(9));
        a
    }

    #[test]
    fn buffers_and_serves_samples() {
        let mut a = spect();
        a.push_sample(JobId(1), sample(1, 0.9)).unwrap();
        a.push_sample(JobId(1), sample(2, 0.8)).unwrap();
        let snap = a.connect(JobId(1), UserId(1)).unwrap();
        assert_eq!(snap.samples.len(), 2);
        assert_eq!(snap.cluster, ClusterId(9));
        assert!(!snap.completed);
    }

    #[test]
    fn buffer_is_bounded() {
        let mut a = spect();
        for t in 0..10 {
            a.push_sample(JobId(1), sample(t, 0.5)).unwrap();
        }
        let snap = a.connect(JobId(1), UserId(1)).unwrap();
        assert_eq!(snap.samples.len(), 3);
        assert_eq!(
            snap.samples[0].at,
            SimTime::from_secs(7),
            "oldest retained is t=7"
        );
    }

    #[test]
    fn multiple_watchers_see_same_data() {
        let mut a = spect();
        a.push_sample(JobId(1), sample(1, 0.9)).unwrap();
        let s1 = a.connect(JobId(1), UserId(1)).unwrap();
        let s2 = a.connect(JobId(1), UserId(1)).unwrap();
        assert_eq!(s1, s2);
    }

    #[test]
    fn only_owner_may_watch() {
        let a = spect();
        assert!(matches!(
            a.connect(JobId(1), UserId(2)),
            Err(FaucetsError::AuthFailed(_))
        ));
    }

    #[test]
    fn unknown_job_errors() {
        let mut a = spect();
        assert!(a.push_sample(JobId(9), sample(0, 0.0)).is_err());
        assert!(a.connect(JobId(9), UserId(1)).is_err());
        assert!(a.complete_job(JobId(9), vec![]).is_err());
    }

    #[test]
    fn completion_publishes_files() {
        let mut a = spect();
        a.complete_job(
            JobId(1),
            vec![OutputFile {
                name: "out.dcd".into(),
                size_bytes: 1 << 20,
            }],
        )
        .unwrap();
        let snap = a.connect(JobId(1), UserId(1)).unwrap();
        assert!(snap.completed);
        let f = a.download(JobId(1), UserId(1), "out.dcd").unwrap();
        assert_eq!(f.size_bytes, 1 << 20);
        assert!(a.download(JobId(1), UserId(1), "missing").is_err());
        assert!(a.download(JobId(1), UserId(2), "out.dcd").is_err());
    }

    #[test]
    fn registering_a_completed_job_again_keeps_it_completed() {
        let mut a = spect();
        let out = OutputFile {
            name: "out.dcd".into(),
            size_bytes: 7,
        };
        a.complete_job(JobId(1), vec![out.clone()]).unwrap();
        a.register_job(JobId(1), UserId(1), ClusterId(9));
        let snap = a.connect(JobId(1), UserId(1)).unwrap();
        assert!(snap.completed, "a watcher saw a completed job run again");
        assert_eq!(snap.output_files, vec![out]);
        // Another owner's registration is a different job's: it replaces.
        a.register_job(JobId(1), UserId(2), ClusterId(9));
        assert!(!a.connect(JobId(1), UserId(2)).unwrap().completed);
    }

    #[test]
    fn job_count() {
        let a = spect();
        assert_eq!(a.job_count(), 1);
    }

    #[test]
    fn display_renders_both_sections() {
        let mut a = spect();
        for t in 0..5 {
            a.push_sample(JobId(1), sample(t, 0.2 * t as f64)).unwrap();
        }
        a.complete_job(
            JobId(1),
            vec![OutputFile {
                name: "out.dcd".into(),
                size_bytes: 42,
            }],
        )
        .unwrap();
        let snap = a.connect(JobId(1), UserId(1)).unwrap();
        let display = snap.render_display();
        assert!(display.contains("AppSpector: job-1 on cs-9 [COMPLETED]"));
        assert!(display.contains("generic: processor utilization"));
        assert!(display.contains("application-specific:"));
        assert!(display.contains("step 42"));
        assert!(display.contains("out.dcd (42 bytes)"));
        // Sparkline present (one bar per retained sample).
        assert!(display
            .chars()
            .any(|c| ('\u{2581}'..='\u{2588}').contains(&c)));
    }

    #[test]
    fn display_without_samples() {
        let a = spect();
        let snap = a.connect(JobId(1), UserId(1)).unwrap();
        assert!(snap.render_display().contains("(no telemetry yet)"));
    }

    #[test]
    fn grid_view_renders_load_and_services() {
        use crate::directory::{ClusterRow, Liveness, ServerInfo, ServerStatus};
        let reg = faucets_telemetry::Registry::new();
        reg.counter(
            "net_requests_total",
            &[("service", "fs"), ("endpoint", "Login")],
        )
        .add(4);
        let view = GridView {
            at_secs: 12.5,
            clusters: vec![ClusterRow {
                info: ServerInfo {
                    cluster: ClusterId(1),
                    name: "turing".into(),
                    total_pes: 64,
                    mem_per_pe_mb: 1024,
                    cpu_type: "x86-64".into(),
                    flops_per_pe_sec: 1e9,
                    fd_addr: "127.0.0.1".into(),
                    fd_port: 9001,
                },
                status: ServerStatus {
                    free_pes: 16,
                    queue_len: 2,
                    accepting: true,
                    utilization: 0.75,
                    running: 3,
                },
                liveness: Liveness::Alive,
                last_heard: SimTime::from_secs(10),
            }],
            services: vec![("fs".to_string(), reg.snapshot())],
            jobs_monitored: 3,
        };
        let text = view.render();
        assert!(text.contains("turing"), "cluster row rendered:\n{text}");
        assert!(text.contains("75.0%"), "utilization rendered:\n{text}");
        assert!(text.contains("Alive"), "health rendered:\n{text}");
        assert!(
            text.contains("requests=4"),
            "service counters rendered:\n{text}"
        );
        let back: GridView = serde_json::from_str(&serde_json::to_string(&view).unwrap()).unwrap();
        assert_eq!(back, view);
    }

    #[test]
    fn submission_form_lists_figure2_fields() {
        use crate::money::Money;
        use crate::qos::{PayoffFn, QosBuilder};
        let qos = QosBuilder::new("namd", 16, 64, 3600.0)
            .adaptive()
            .payoff(PayoffFn::hard_only(
                SimTime::from_hours(2),
                Money::from_units(10),
                Money::ZERO,
            ))
            .build()
            .unwrap();
        let form = render_submission_form(&qos, &["input.psf".into()]);
        for needle in [
            "application : namd",
            "minpe       : 16",
            "maxpe       : 64",
            "deadline",
            "input.psf",
            "adaptive    : yes",
        ] {
            assert!(form.contains(needle), "missing {needle} in:\n{form}");
        }
    }
}
