//! Phase structure of applications.
//!
//! §2.1: *"Some applications have distinct phases or components, each with
//! very different requirements. They can potentially be housed on different
//! supercomputers over time … The QoS contract will be able to specify such
//! phases and components, and iterative structures around them (if any).
//! Note that to be useful, such a phase must last for several minutes, to
//! justify the overhead of moving the job."*

use serde::{Deserialize, Serialize};

/// One phase of a phased application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Phase {
    /// Human-readable phase name ("FFT", "I/O", …).
    pub name: String,
    /// Fraction of the job's total work performed in this phase, in (0, 1].
    pub work_fraction: f64,
    /// Memory per processor during this phase, MB.
    pub mem_per_pe_mb: u64,
    /// Relative communication intensity (0 = embarrassingly parallel,
    /// 1 = communication bound); informs scheduler locality decisions.
    pub comm_intensity: f64,
}

/// The phase structure of a job: a sequence of phases, optionally iterated.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct PhaseStructure {
    /// The phases, executed in order within one iteration.
    pub phases: Vec<Phase>,
    /// Number of times the phase sequence repeats (≥ 1 when non-empty).
    pub iterations: u32,
}

impl PhaseStructure {
    /// A single-phase (unphased) structure.
    pub fn monolithic() -> Self {
        PhaseStructure {
            phases: vec![],
            iterations: 0,
        }
    }

    /// True when no phase structure was declared.
    pub fn is_monolithic(&self) -> bool {
        self.phases.is_empty()
    }

    /// Validate: fractions positive and summing to ~1 within one iteration.
    pub fn validate(&self) -> Result<(), String> {
        if self.is_monolithic() {
            return Ok(());
        }
        let sum: f64 = self.phases.iter().map(|p| p.work_fraction).sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("phase work fractions sum to {sum}, expected 1.0"));
        }
        for p in &self.phases {
            if p.work_fraction <= 0.0 {
                return Err(format!("phase '{}' has non-positive work fraction", p.name));
            }
            if !(0.0..=1.0).contains(&p.comm_intensity) {
                return Err(format!("phase '{}' comm_intensity out of [0,1]", p.name));
            }
        }
        Ok(())
    }

    /// The peak per-processor memory over all phases, or `fallback` when
    /// monolithic.
    pub fn peak_mem_per_pe_mb(&self, fallback: u64) -> u64 {
        self.phases
            .iter()
            .map(|p| p.mem_per_pe_mb)
            .max()
            .unwrap_or(fallback)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn phased() -> PhaseStructure {
        PhaseStructure {
            phases: vec![
                Phase {
                    name: "compute".into(),
                    work_fraction: 0.8,
                    mem_per_pe_mb: 512,
                    comm_intensity: 0.2,
                },
                Phase {
                    name: "io".into(),
                    work_fraction: 0.2,
                    mem_per_pe_mb: 2048,
                    comm_intensity: 0.9,
                },
            ],
            iterations: 4,
        }
    }

    #[test]
    fn monolithic_is_valid_and_empty() {
        let m = PhaseStructure::monolithic();
        assert!(m.is_monolithic());
        assert!(m.validate().is_ok());
        assert_eq!(m.peak_mem_per_pe_mb(256), 256);
    }

    #[test]
    fn validation_checks_fraction_sum() {
        assert!(phased().validate().is_ok());
        let mut bad = phased();
        bad.phases[0].work_fraction = 0.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn validation_checks_comm_intensity() {
        let mut bad = phased();
        bad.phases[1].comm_intensity = 1.5;
        assert!(bad.validate().is_err());
    }

    #[test]
    fn peak_memory() {
        assert_eq!(phased().peak_mem_per_pe_mb(0), 2048);
    }
}
