//! The one report writer and the one closed-loop driver, through the
//! surface the 28 experiment binaries use.

use faucets_bench::report::ReportData;
use faucets_bench::{closed_loop, numbered_batch, numbered_echo, Bound, ExitCode, Report};
use faucets_grid::report::Table;
use faucets_net::prelude::CallOptions;
use std::path::{Path, PathBuf};
use std::sync::atomic::AtomicU64;

/// A fresh directory for one test's report.
fn dir(test: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("faucets-report-{test}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("test dir");
    dir
}

fn read(dir: &Path, name: &str) -> ReportData {
    let text = std::fs::read_to_string(dir.join(format!("BENCH_{name}.json"))).expect("report");
    serde_json::from_str(&text).expect("the file parses back into the schema")
}

#[test]
fn a_failing_gate_still_writes_the_file_and_finish_reports_nonzero() {
    let dir = dir("fail");
    let mut r = Report::in_dir(&dir, "E0", "fail");
    assert!(r.gate("errors", 0u64, Bound::eq(0)));
    assert!(
        !r.gate("speedup", 1.5, Bound::ge(2)),
        "a failed gate says so"
    );
    r.metric("after_the_failure", 7usize, "count");
    assert_eq!(r.finish(), ExitCode::FAILURE);

    let data = read(&dir, "fail");
    assert_eq!(data.verdict, "FAIL");
    let verdicts: Vec<_> = data.gates.iter().map(|g| g.verdict.as_str()).collect();
    assert_eq!(verdicts, ["PASS", "FAIL"]);
    assert_eq!(data.metrics.len(), 1, "a failed gate does not stop the run");
}

#[test]
fn a_panic_before_finish_leaves_a_fail_report() {
    let dir = dir("panic");
    let unwound = std::panic::catch_unwind(|| {
        let mut r = Report::in_dir(&dir, "E0", "panic");
        r.check("held_before_the_panic", true);
        panic!("an experiment's expect() went off");
    });
    assert!(unwound.is_err());

    let data = read(&dir, "panic");
    assert_eq!(data.verdict, "FAIL", "every recorded gate passed, yet");
    assert_eq!(data.gates[0].verdict, "PASS");
    let last = data.gates.last().expect("the drop guard's gate");
    assert_eq!(
        (last.name.as_str(), last.verdict.as_str()),
        ("ran to finish", "FAIL")
    );
}

#[test]
fn the_written_json_parses_back_into_the_schema() {
    let dir = dir("pass");
    let mut r = Report::in_dir(&dir, "E0", "pass");
    assert_eq!(r.flag("not-on-the-command-line", 3u32), 3);
    r.knob("batch", 16);
    r.metrics(
        "c8.pooled",
        &[("per_sec", 41_000.5, "1/s"), ("p50_ms", 0.12, "ms")],
    );
    r.metric("not_a_number", f64::NAN, "ratio");
    let mut table = Table::new("E0: demo", &["policy", "util"]);
    table.row(vec!["fcfs".into(), "55.0%".into()]);
    r.table(&table);
    r.gate("c8.pooled.errors", 0u64, Bound::eq(0));
    r.wait("nothing at all", || true);
    assert_eq!(r.finish(), ExitCode::SUCCESS);

    let data = read(&dir, "pass");
    assert_eq!(
        (data.experiment.as_str(), data.name.as_str()),
        ("E0", "pass")
    );
    assert_eq!(data.verdict, "PASS");
    assert!(data.cores >= 1 && !data.git_sha.is_empty());
    let knobs: Vec<_> = data
        .knobs
        .iter()
        .map(|k| (k.name.as_str(), k.value.as_str()))
        .collect();
    assert_eq!(knobs, [("not-on-the-command-line", "3"), ("batch", "16")]);
    let metrics: Vec<_> = data
        .metrics
        .iter()
        .map(|m| (m.name.as_str(), m.value, m.unit.as_str()))
        .collect();
    assert_eq!(
        metrics,
        [
            ("c8.pooled.per_sec", Some(41_000.5), "1/s"),
            ("c8.pooled.p50_ms", Some(0.12), "ms"),
            ("not_a_number", None, "ratio"),
        ]
    );
    assert_eq!(data.tables, [table]);
    let gate = &data.gates[0];
    assert_eq!(
        (gate.observed, gate.op.as_str(), gate.bound),
        (Some(0.0), "=", 0.0)
    );
    assert_eq!(data.gates[1].name, "waited for nothing at all");
}

#[test]
fn the_closed_loop_driver_accounts_for_every_ticket_it_draws() {
    let (echo, _reg) = numbered_echo("driver-echo", 0);
    let (opts, crossed) = (CallOptions::default(), AtomicU64::new(0));
    let arm = closed_loop(4, 10_000, 200, None, || {
        |ticket| numbered_batch(echo.addr, ticket, 1, &opts, false, &crossed)
    });
    echo.shutdown();
    assert_eq!(arm.iters, 200, "the cap, not the clock, ended the arm");
    assert_eq!(
        arm.calls + arm.errors,
        arm.iters,
        "one call per ticket drawn"
    );
    assert_eq!((arm.errors, crossed.into_inner()), (0, 0));
    assert!(arm.per_sec > 0.0 && arm.p50_ms <= arm.p99_ms);
}
