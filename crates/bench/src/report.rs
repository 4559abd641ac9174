//! The one experiment report.
//!
//! Every `exp_*` binary opens a [`Report`], states each result once through
//! it and ends in [`Report::finish`]. A [`Report::metric`], [`Report::gate`]
//! or [`Report::table`] call prints the console line, records the value and
//! carries the verdict in one statement, so a number cannot be printed,
//! asserted and serialized three different ways. `finish` writes
//! `BENCH_<name>.json` into the current directory on PASS *and* FAIL and
//! turns the verdict into the exit code; a report dropped before `finish`
//! (a panic, an early return) is written as a FAIL.
//!
//! The file is [`ReportData`], the same for all 28 experiments: experiment
//! id, git sha, cores, knobs, flat dotted metrics with units, tables, and
//! gates with observed value, bound and verdict (EXPERIMENTS.md, "Report
//! schema").

use crate::{flag, switch};
use faucets_grid::report::Table;
use serde::{Deserialize, Serialize};
use std::fmt::Display;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// What `BENCH_<name>.json` holds.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct ReportData {
    /// Experiment id, `"E23"`.
    pub experiment: String,
    /// Report name: the file is `BENCH_<name>.json`.
    pub name: String,
    /// `git rev-parse HEAD` of the source tree, `"unknown"` outside one.
    pub git_sha: String,
    /// `std::thread::available_parallelism` on the box that ran it.
    pub cores: usize,
    /// What the run was configured with: flags, switches and constants.
    pub knobs: Vec<Knob>,
    /// What the run measured, in the order it was measured.
    pub metrics: Vec<Metric>,
    /// The printed tables, cell for cell.
    pub tables: Vec<Table>,
    /// What the run was held to.
    pub gates: Vec<Gate>,
    /// `"PASS"` when every gate passed and `finish` was reached.
    pub verdict: String,
}

/// One configured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Knob {
    /// Flag or constant name.
    pub name: String,
    /// Its value, as printed.
    pub value: String,
}

/// One measured value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Metric {
    /// Dotted name, `"c8.pooled.per_sec"`.
    pub name: String,
    /// The value; `None` (JSON `null`) if it was not finite.
    pub value: Option<f64>,
    /// Unit, `"1/s"`, `"ms"`, `"count"`, `"ratio"`.
    pub unit: String,
}

/// One acceptance gate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Gate {
    /// What is held, `"c8.pooled.errors"`.
    pub name: String,
    /// The observed value; `None` if it was not finite.
    pub observed: Option<f64>,
    /// Comparison, one of `"="`, `"≥"`, `"≤"`, `">"`, `"<"`.
    pub op: String,
    /// The bound the observed value is compared with.
    pub bound: f64,
    /// `"PASS"` or `"FAIL"`.
    pub verdict: String,
}

/// A number a report can hold. Counts, rates, durations' floats and
/// conditions (1 held, 0 not) all become `f64` here, not at the call sites.
pub trait Num: Copy {
    /// The value as the report stores it.
    fn num(self) -> f64;
}

macro_rules! num {
    ($($t:ty)*) => {$(
        impl Num for $t {
            fn num(self) -> f64 {
                self as f64
            }
        }
    )*};
}
num!(u8 u32 u64 usize i32 i64 f64);

impl Num for bool {
    fn num(self) -> f64 {
        f64::from(u8::from(self))
    }
}

/// The bound of a [`Report::gate`]: a comparison and the value compared
/// with.
#[derive(Debug, Clone, Copy)]
pub struct Bound(&'static str, f64);

impl Bound {
    /// Observed must equal `v`.
    pub fn eq(v: impl Num) -> Bound {
        Bound("=", v.num())
    }
    /// Observed must be at least `v`.
    pub fn ge(v: impl Num) -> Bound {
        Bound("≥", v.num())
    }
    /// Observed must be at most `v`.
    pub fn le(v: impl Num) -> Bound {
        Bound("≤", v.num())
    }
    /// Observed must exceed `v`.
    pub fn gt(v: impl Num) -> Bound {
        Bound(">", v.num())
    }
    /// Observed must stay under `v`.
    pub fn lt(v: impl Num) -> Bound {
        Bound("<", v.num())
    }
}

/// How long [`Report::wait`] gives a live grid to converge: generous
/// against the tens of milliseconds it takes, short against a CI job.
pub const CONVERGENCE_DEADLINE: Duration = Duration::from_secs(60);

const PASS: &str = "PASS";
const FAIL: &str = "FAIL";

fn verdict(ok: bool) -> &'static str {
    [FAIL, PASS][usize::from(ok)]
}

/// A value for the console: whole numbers bare, everything else at a
/// precision that keeps three digits of a small value, then the unit (a
/// bare count needs none).
fn quantity(v: f64, unit: &str) -> String {
    let digits = match v.abs() {
        a if v.fract() == 0.0 && a < 1e15 => 0,
        a if a >= 100.0 => 1,
        a if a >= 1.0 => 2,
        _ => 4,
    };
    match unit {
        "" | "count" => format!("{v:.digits$}"),
        _ => format!("{v:.digits$} {unit}"),
    }
}

fn finite(v: f64) -> Option<f64> {
    v.is_finite().then_some(v)
}

/// An open experiment report; see the module docs.
pub struct Report {
    data: ReportData,
    dir: PathBuf,
    finished: bool,
}

impl Report {
    /// Open the report of `experiment` (`"E23"`); `finish` writes
    /// `BENCH_<name>.json` into the current directory.
    pub fn new(experiment: &str, name: &str) -> Report {
        Report::in_dir("", experiment, name)
    }

    /// [`Report::new`], writing into `dir`.
    pub fn in_dir(dir: impl Into<PathBuf>, experiment: &str, name: &str) -> Report {
        let git_sha = std::process::Command::new("git")
            .args(["-C", env!("CARGO_MANIFEST_DIR"), "rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        Report {
            data: ReportData {
                experiment: experiment.into(),
                name: name.into(),
                git_sha,
                cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
                verdict: FAIL.into(),
                ..ReportData::default()
            },
            dir: dir.into(),
            finished: false,
        }
    }

    fn path(&self) -> PathBuf {
        self.dir.join(format!("BENCH_{}.json", self.data.name))
    }

    /// Record a configured value that is not a flag (a constant, a value
    /// derived from flags).
    pub fn knob(&mut self, name: &str, value: impl Display) {
        self.data.knobs.push(Knob {
            name: name.into(),
            value: value.to_string(),
        });
    }

    /// [`crate::flag`], recorded as a knob.
    pub fn flag<T: std::str::FromStr + Display>(&mut self, name: &str, default: T) -> T
    where
        T::Err: std::fmt::Debug,
    {
        let v = flag(name, default);
        self.knob(name, &v);
        v
    }

    /// [`crate::switch`], recorded as a knob.
    pub fn switch(&mut self, name: &str) -> bool {
        let v = switch(name);
        self.knob(name, v);
        v
    }

    /// Record and print one measured value.
    pub fn metric(&mut self, name: &str, value: impl Num, unit: &str) {
        self.metrics("", &[(name, value.num(), unit)]);
    }

    /// Record the `(name, value, unit)` fields of one subject as
    /// `<prefix>.<name>` and print them on one line.
    pub fn metrics(&mut self, prefix: &str, fields: &[(&str, f64, &str)]) {
        let line: Vec<String> = fields
            .iter()
            .map(|(n, v, u)| format!("{n} {}", quantity(*v, u)))
            .collect();
        let (head, dot) = match prefix {
            "" => (String::new(), ""),
            _ => (format!("{prefix} — "), "."),
        };
        println!("{}: {head}{}", self.data.experiment, line.join(", "));
        for (n, v, unit) in fields {
            self.data.metrics.push(Metric {
                name: format!("{prefix}{dot}{n}"),
                value: finite(*v),
                unit: unit.to_string(),
            });
        }
    }

    /// Print the table (and, with `--csv`, its CSV form) and record it.
    pub fn table(&mut self, table: &Table) {
        println!("{table}");
        if switch("csv") {
            println!("{}", table.to_csv());
        }
        self.data.tables.push(table.clone());
    }

    /// Hold `observed` to `bound`: prints the line, records observed, bound
    /// and verdict, and returns whether it held. A failed gate does not
    /// stop the run; it fails the report.
    pub fn gate(&mut self, name: &str, observed: impl Num, bound: Bound) -> bool {
        let (observed, Bound(op, b)) = (observed.num(), bound);
        let held = match op {
            "=" => observed == b,
            "≥" => observed >= b,
            "≤" => observed <= b,
            ">" => observed > b,
            _ => observed < b,
        };
        self.push_gate(name, observed, bound, held)
    }

    fn push_gate(
        &mut self,
        name: &str,
        observed: f64,
        Bound(op, bound): Bound,
        held: bool,
    ) -> bool {
        println!(
            "{}: gate {name}: {} {op} {} {}",
            self.data.experiment,
            quantity(observed, ""),
            quantity(bound, ""),
            verdict(held)
        );
        self.data.gates.push(Gate {
            name: name.into(),
            observed: finite(observed),
            op: op.into(),
            bound,
            verdict: verdict(held).into(),
        });
        held
    }

    /// A gate on a condition: observed 1 (held) or 0, bound `= 1`.
    pub fn check(&mut self, name: &str, held: bool) -> bool {
        self.gate(name, held, Bound::eq(true))
    }

    /// Poll `ready` until it holds or [`CONVERGENCE_DEADLINE`] passes; the
    /// gate records the seconds waited against it. The stages after a
    /// convergence wait mean nothing without it, so a timeout panics; the
    /// drop guard then leaves the FAIL report.
    pub fn wait(&mut self, what: &str, ready: impl Fn() -> bool) {
        let (t0, deadline) = (Instant::now(), CONVERGENCE_DEADLINE);
        let mut held = ready();
        while !held && t0.elapsed() < deadline {
            std::thread::sleep(Duration::from_millis(5));
            held = ready();
        }
        let (waited, bound) = (
            t0.elapsed().as_secs_f64(),
            Bound::lt(deadline.as_secs_f64()),
        );
        if !self.push_gate(&format!("waited for {what}"), waited, bound, held) {
            panic!("timed out waiting for {what}");
        }
    }

    /// Settle the verdict, write the file and print the verdict line.
    fn close(&mut self) -> bool {
        let failed: Vec<&str> = self
            .data
            .gates
            .iter()
            .filter(|g| g.verdict == FAIL)
            .map(|g| g.name.as_str())
            .collect();
        let (id, path) = (self.data.experiment.clone(), self.path());
        let line = match failed.len() {
            0 => format!("{id} PASS"),
            n => format!("{id} FAIL — {n} gate(s) failed ({})", failed.join("; ")),
        };
        let passed = failed.is_empty();
        self.data.verdict = verdict(passed).into();
        let written = serde_json::to_string_pretty(&self.data)
            .map_err(std::io::Error::other)
            .and_then(|text| std::fs::write(&path, text));
        match &written {
            Ok(()) => println!("{line} — wrote {}", path.display()),
            Err(e) => println!("{id} FAIL — cannot write {}: {e}", path.display()),
        }
        passed && written.is_ok()
    }

    /// Write the report and turn the verdict into the exit code. Every
    /// `exp_*` `main` returns this.
    pub fn finish(mut self) -> ExitCode {
        self.finished = true;
        if self.close() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        }
    }
}

impl Drop for Report {
    /// A report that never reached `finish` (a panic unwinding `main`) is
    /// still written, as a FAIL with a gate that says so.
    fn drop(&mut self) {
        if !self.finished {
            self.check("ran to finish", false);
            self.close();
        }
    }
}
