//! `BENCHMARK.json`, compiled in: the one place metric names, units,
//! directions and regression bounds are written down. The harness looks
//! every emitted metric up here, so a name the file does not list cannot
//! be reported.

use serde::Deserialize;
use std::sync::OnceLock;

// `command`, `paths` and `why` are for the driver; here only the
// contract self-test reads them.
#[derive(Debug, Deserialize)]
#[allow(dead_code)]
pub struct Spec {
    pub command: Vec<String>,
    pub paths: Vec<String>,
    pub run_seconds: u64,
    pub workloads: Vec<WorkloadSpec>,
    pub end_to_end: Vec<MetricSpec>,
    pub per_layer: Vec<MetricSpec>,
}

#[derive(Debug, Deserialize)]
#[allow(dead_code)]
pub struct WorkloadSpec {
    pub name: String,
    pub why: String,
}

#[derive(Debug, Deserialize)]
pub struct MetricSpec {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

impl Spec {
    pub fn metric(&self, name: &str) -> Option<&MetricSpec> {
        self.end_to_end
            .iter()
            .chain(&self.per_layer)
            .find(|m| m.name == name)
    }
}

/// The benchmark's contract, parsed once.
pub fn spec() -> &'static Spec {
    static SPEC: OnceLock<Spec> = OnceLock::new();
    SPEC.get_or_init(|| {
        serde_json::from_str(include_str!("../../BENCHMARK.json"))
            .expect("BENCHMARK.json at the repository root parses")
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::KNOBS;

    fn is_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn contract_limits_hold() {
        let s = spec();
        assert!((1..=60).contains(&s.run_seconds));
        assert!((2..=8).contains(&s.workloads.len()));
        assert!((1..=16).contains(&s.end_to_end.len()));
        assert!((1..=128).contains(&s.per_layer.len()));
        assert!(s.command.len() <= 32 && s.command.iter().all(|c| c.len() <= 200));
        assert_eq!(s.paths, ["benchmark"]);
        let mut names: Vec<&str> = s
            .workloads
            .iter()
            .map(|w| w.name.as_str())
            .chain(
                s.end_to_end
                    .iter()
                    .chain(&s.per_layer)
                    .map(|m| m.name.as_str()),
            )
            .collect();
        assert!(names.iter().all(|n| is_name(n)), "{names:?}");
        let total = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), total, "every name is used once");
        for w in &s.workloads {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        for m in s.end_to_end.iter().chain(&s.per_layer) {
            assert!(m.better == "lower" || m.better == "higher", "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}: unit {:?}",
                m.name,
                m.unit
            );
        }
        for m in &s.end_to_end {
            let bound = m.bound.expect("end-to-end metrics carry a bound");
            assert!(bound > 0.0 && bound <= 0.25, "{}", m.name);
        }
        assert!(s.per_layer.iter().all(|m| m.bound.is_none()));
        let setup = s.metric("setup_s").expect("setup_s is mandatory");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }

    #[test]
    fn workloads_match_the_harness() {
        let listed: Vec<&str> = spec().workloads.iter().map(|w| w.name.as_str()).collect();
        let built: Vec<&str> = KNOBS.iter().map(|k| k.name).collect();
        assert_eq!(listed, built);
    }
}
