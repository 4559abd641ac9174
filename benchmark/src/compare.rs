//! `compare A B`: two sets of untraced reports of this benchmark, metric
//! by metric against the bounds in `BENCHMARK.json`.

use crate::report::Report;
use crate::spec::{spec, MetricSpec};
use crate::stats;
use std::collections::BTreeMap;
use std::path::Path;

/// End-to-end values by `(workload, metric)` over every untraced report
/// in `dir`.
fn load(dir: &Path) -> std::io::Result<BTreeMap<(String, String), Vec<f64>>> {
    let mut out: BTreeMap<(String, String), Vec<f64>> = BTreeMap::new();
    let mut paths: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with("report-") && n.ends_with(".json"))
        })
        .collect();
    paths.sort();
    for path in paths {
        let report = Report::read(&path)?;
        if report.trace || report.error.is_some() {
            continue;
        }
        for (name, m) in &report.end_to_end.0 {
            out.entry((report.workload.clone(), name.clone()))
                .or_default()
                .push(m.value);
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// A side's run-to-run spread is wider than the bound: the runs
    /// cannot tell "same" from "worse".
    Unresolved,
}

/// Judge `b` against parent `a` for one metric. The change is the share
/// of `a`'s median by which `b`'s median is worse (negative = better).
pub fn judge(metric: &MetricSpec, a: &[f64], b: &[f64]) -> (f64, Verdict) {
    let bound = metric.bound.unwrap_or(0.0);
    let (ma, mb) = (stats::median(a), stats::median(b));
    let toward_worse = if metric.better == "higher" {
        ma - mb
    } else {
        mb - ma
    };
    let change = if ma == 0.0 {
        0.0
    } else {
        toward_worse / ma.abs()
    };
    let verdict = if change > bound {
        Verdict::Worse
    } else if stats::iqr_share(a) > bound || stats::iqr_share(b) > bound {
        Verdict::Unresolved
    } else if change < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    };
    (change, verdict)
}

/// Print one row per (workload, metric); exit code 1 on any "worse".
pub fn compare(a_dir: &Path, b_dir: &Path) -> u8 {
    let (a, b) = match (load(a_dir), load(b_dir)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("cannot read the reports: {e}");
            return 2;
        }
    };
    println!(
        "{:<14} {:<18} {:>5} {:>14} {:>14} {:>8} {:>7} {:>9} {:>9}  verdict",
        "workload",
        "metric",
        "unit",
        "A median",
        "B median",
        "change",
        "bound",
        "A spread",
        "B spread"
    );
    let mut worse = 0;
    for w in &spec().workloads {
        for metric in &spec().end_to_end {
            let key = (w.name.clone(), metric.name.clone());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                println!("{:<14} {:<18} missing from one side", w.name, metric.name);
                continue;
            };
            let (change, verdict) = judge(metric, va, vb);
            worse += u8::from(verdict == Verdict::Worse);
            println!(
                "{:<14} {:<18} {:>5} {:>14.4} {:>14.4} {:>+7.1}% {:>6.1}% {:>8.1}% {:>8.1}%  {}",
                w.name,
                metric.name,
                metric.unit,
                stats::median(va),
                stats::median(vb),
                change * 100.0,
                metric.bound.unwrap_or(0.0) * 100.0,
                stats::iqr_share(va) * 100.0,
                stats::iqr_share(vb) * 100.0,
                format!("{verdict:?}").to_lowercase(),
            );
        }
    }
    println!(
        "(change: share of A's median by which B is worse; spread: interquartile range over median, {} and {} runs)",
        a.values().map(Vec::len).max().unwrap_or(0),
        b.values().map(Vec::len).max().unwrap_or(0)
    );
    u8::from(worse > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metric(better: &str, bound: f64) -> MetricSpec {
        MetricSpec {
            name: "m".into(),
            unit: "ms".into(),
            better: better.into(),
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        let steady = [10.0, 10.1, 9.9, 10.0, 10.05];
        let lower = metric("lower", 0.1);
        assert_eq!(judge(&lower, &steady, &steady).1, Verdict::Same);
        let slower: Vec<f64> = steady.iter().map(|v| v * 1.2).collect();
        let faster: Vec<f64> = steady.iter().map(|v| v * 0.8).collect();
        assert_eq!(judge(&lower, &steady, &slower).1, Verdict::Worse);
        assert_eq!(judge(&lower, &steady, &faster).1, Verdict::Better);
        // For a higher-is-better metric the same numbers read the other way.
        let higher = metric("higher", 0.1);
        assert_eq!(judge(&higher, &steady, &slower).1, Verdict::Better);
        assert_eq!(judge(&higher, &steady, &faster).1, Verdict::Worse);
        // Within the bound but noisier than it: not "same".
        let noisy = [8.0, 12.0, 10.0, 7.5, 12.5];
        assert_eq!(judge(&lower, &steady, &noisy).1, Verdict::Unresolved);
        let (change, _) = judge(&lower, &steady, &slower);
        assert!((change - 0.2).abs() < 1e-9);
    }
}
