//! The QoS contract — the job-requirements half of the paper's
//! quality-of-service contract (§2.1).
//!
//! The current-implementation fields from the paper are all here: minimum and
//! maximum number of processors, per-processor and total memory requirement,
//! total CPU time, the efficiency at the minimum and maximum processor
//! counts (linear interpolation assumed), a deadline, and the experimental
//! payoff function with soft and hard deadlines. Machine-independent work
//! (FLOP counts resolved against machine speed) and phase structure are the
//! §2.1 "research issue" extensions.

use crate::qos::payoff::PayoffFn;
use crate::qos::phases::PhaseStructure;
use crate::qos::speedup::SpeedupModel;
use faucets_sim::time::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// How the job's total work is specified.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum WorkSpec {
    /// Total CPU time in CPU-seconds on the reference machine.
    CpuSeconds(f64),
    /// Machine-independent floating-point operation count (§2.1: "one might
    /// specify the run time as the floating-point operation count times the
    /// machine speed divided by the parallel efficiency").
    Flops(f64),
}

impl WorkSpec {
    /// Resolve to CPU-seconds on a machine delivering `flops_per_pe_sec`
    /// useful FLOP/s per processor.
    pub fn cpu_seconds_on(&self, flops_per_pe_sec: f64) -> f64 {
        match *self {
            WorkSpec::CpuSeconds(s) => s,
            WorkSpec::Flops(f) => f / flops_per_pe_sec,
        }
    }

    /// True if the declared quantity is positive and finite.
    pub fn is_valid(&self) -> bool {
        let v = match *self {
            WorkSpec::CpuSeconds(s) => s,
            WorkSpec::Flops(f) => f,
        };
        v > 0.0 && v.is_finite()
    }
}

/// The software environment required by the job (§2.1 first bullet).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct Environment {
    /// Application name, matched against each Compute Server's exported
    /// "Known Applications" list (§2.2).
    pub app: String,
    /// Required host operating system ("linux", …); empty = any.
    pub os: String,
    /// Required libraries/compilers; all must be present.
    pub libraries: Vec<String>,
}

impl Environment {
    /// An environment requiring only the named application.
    pub fn app(name: impl Into<String>) -> Self {
        Environment {
            app: name.into(),
            os: String::new(),
            libraries: vec![],
        }
    }
}

/// A complete QoS contract for one job.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QosContract {
    /// Software environment.
    pub env: Environment,
    /// Minimum number of processors the job can run on (≥ 1).
    pub min_pes: u32,
    /// Maximum number of processors the job can use (≥ `min_pes`).
    pub max_pes: u32,
    /// Memory required per processor, MB.
    pub mem_per_pe_mb: u64,
    /// Total memory required across the job, MB (0 = derive from per-PE).
    pub total_mem_mb: u64,
    /// Total work.
    pub work: WorkSpec,
    /// Completion-time model over the processor range.
    pub speedup: SpeedupModel,
    /// Payoff as a function of completion time (deadlines live here).
    pub payoff: PayoffFn,
    /// Whether the job is adaptive — able to shrink/expand at runtime within
    /// `[min_pes, max_pes]` (§4). Rigid jobs run on exactly the processor
    /// count they start with.
    pub adaptive: bool,
    /// Phase/component structure (§2.1), if declared.
    pub phases: PhaseStructure,
    /// Input data to stage in, MB (affects transfer/staging time).
    pub input_mb: u64,
    /// Output data to stage out, MB.
    pub output_mb: u64,
}

impl QosContract {
    /// Validate internal consistency; returns a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if self.env.app.is_empty() {
            return Err("application name is empty".into());
        }
        if self.min_pes < 1 {
            return Err("min_pes must be at least 1".into());
        }
        if self.max_pes < self.min_pes {
            return Err(format!(
                "max_pes {} < min_pes {}",
                self.max_pes, self.min_pes
            ));
        }
        if !self.work.is_valid() {
            return Err("work must be positive and finite".into());
        }
        self.speedup.validate()?;
        self.payoff.validate()?;
        self.phases.validate()?;
        Ok(())
    }

    /// Total CPU-seconds of work on a machine with the given per-PE speed.
    pub fn cpu_seconds(&self, flops_per_pe_sec: f64) -> f64 {
        self.work.cpu_seconds_on(flops_per_pe_sec)
    }

    /// Wall-clock duration on `pes` processors of a machine with the given
    /// per-PE speed.
    pub fn wall_time_on(&self, pes: u32, flops_per_pe_sec: f64) -> SimDuration {
        let secs = self.speedup.wall_seconds(
            self.cpu_seconds(flops_per_pe_sec),
            pes,
            self.min_pes,
            self.max_pes,
        );
        SimDuration::from_secs_f64(secs)
    }

    /// The hard deadline (after which the payoff turns into a penalty).
    pub fn deadline(&self) -> SimTime {
        self.payoff.hard_deadline
    }

    /// Payoff per CPU-second on a machine with the given per-PE speed —
    /// the §4 profit-density of this contract, used by overload shedding
    /// to drop the least valuable work first. Uses the soft-deadline
    /// payoff (the best case the contract can pay).
    pub fn payoff_rate(&self, flops_per_pe_sec: f64) -> f64 {
        self.payoff.payoff_soft.as_units_f64()
            / self.cpu_seconds(flops_per_pe_sec).max(f64::MIN_POSITIVE)
    }

    /// Peak per-PE memory over phases (falls back to the declared per-PE
    /// requirement for monolithic jobs).
    pub fn peak_mem_per_pe_mb(&self) -> u64 {
        self.phases.peak_mem_per_pe_mb(self.mem_per_pe_mb)
    }

    /// Can this job run at all on a node with `node_mem_mb` per processor?
    pub fn fits_node_memory(&self, node_mem_mb: u64) -> bool {
        self.peak_mem_per_pe_mb() <= node_mem_mb
    }
}

/// Builder for [`QosContract`] with sensible defaults (rigid, flat payoff,
/// perfect-efficiency-at-min linear model).
#[derive(Debug, Clone)]
pub struct QosBuilder {
    contract: QosContract,
}

impl QosBuilder {
    /// Start a contract for application `app` needing `work` CPU-seconds and
    /// running on `min_pes..=max_pes` processors.
    pub fn new(app: impl Into<String>, min_pes: u32, max_pes: u32, cpu_seconds: f64) -> Self {
        QosBuilder {
            contract: QosContract {
                env: Environment::app(app),
                min_pes,
                max_pes,
                mem_per_pe_mb: 256,
                total_mem_mb: 0,
                work: WorkSpec::CpuSeconds(cpu_seconds),
                speedup: SpeedupModel::default(),
                payoff: PayoffFn::flat(crate::money::Money::ZERO),
                adaptive: false,
                phases: PhaseStructure::monolithic(),
                input_mb: 0,
                output_mb: 0,
            },
        }
    }

    /// Set the speedup model.
    pub fn speedup(mut self, m: SpeedupModel) -> Self {
        self.contract.speedup = m;
        self
    }

    /// Set the efficiency endpoints of the default linear model.
    pub fn efficiency(self, eff_min: f64, eff_max: f64) -> Self {
        self.speedup(SpeedupModel::LinearEfficiency { eff_min, eff_max })
    }

    /// Set the payoff function.
    pub fn payoff(mut self, p: PayoffFn) -> Self {
        self.contract.payoff = p;
        self
    }

    /// Mark the job adaptive (shrink/expand capable).
    pub fn adaptive(mut self) -> Self {
        self.contract.adaptive = true;
        self
    }

    /// Set memory per processor in MB.
    pub fn mem_per_pe_mb(mut self, mb: u64) -> Self {
        self.contract.mem_per_pe_mb = mb;
        self
    }

    /// Set phase structure.
    pub fn phases(mut self, p: PhaseStructure) -> Self {
        self.contract.phases = p;
        self
    }

    /// Set input/output staging volumes in MB.
    pub fn staging(mut self, input_mb: u64, output_mb: u64) -> Self {
        self.contract.input_mb = input_mb;
        self.contract.output_mb = output_mb;
        self
    }

    /// Specify machine-independent work instead of CPU-seconds.
    pub fn flops(mut self, f: f64) -> Self {
        self.contract.work = WorkSpec::Flops(f);
        self
    }

    /// Finish, validating the contract.
    pub fn build(self) -> Result<QosContract, String> {
        self.contract.validate()?;
        Ok(self.contract)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::money::Money;

    fn basic() -> QosContract {
        QosBuilder::new("namd", 16, 64, 3600.0)
            .efficiency(1.0, 0.8)
            .payoff(PayoffFn::hard_only(
                SimTime::from_hours(2),
                Money::from_units(50),
                Money::from_units(10),
            ))
            .build()
            .unwrap()
    }

    #[test]
    fn builder_produces_valid_contract() {
        let q = basic();
        assert_eq!(q.env.app, "namd");
        assert_eq!((q.min_pes, q.max_pes), (16, 64));
        assert!(!q.adaptive);
        assert_eq!(q.deadline(), SimTime::from_hours(2));
    }

    #[test]
    fn wall_time_uses_speedup_model() {
        let q = basic();
        // On 16 pes at eff 1.0: 3600/16 = 225 s.
        assert_eq!(q.wall_time_on(16, 1.0), SimDuration::from_secs(225));
        // On 64 pes at eff 0.8: 3600/(64*0.8) = 70.3125 s.
        assert_eq!(q.wall_time_on(64, 1.0), SimDuration::from_secs_f64(70.3125));
    }

    #[test]
    fn flops_work_depends_on_machine_speed() {
        let q = QosBuilder::new("cfd", 8, 8, 0.0)
            .flops(8e12)
            .build()
            .unwrap();
        // 8e12 flops at 1e9 flop/s per pe = 8000 cpu-seconds.
        assert!((q.cpu_seconds(1e9) - 8000.0).abs() < 1e-6);
        // A machine twice as fast halves the CPU time.
        assert!((q.cpu_seconds(2e9) - 4000.0).abs() < 1e-6);
    }

    #[test]
    fn payoff_rate_orders_contracts_by_profit_density() {
        let rich = QosBuilder::new("x", 1, 1, 100.0)
            .payoff(PayoffFn::hard_only(
                SimTime::from_hours(1),
                Money::from_units(100),
                Money::ZERO,
            ))
            .build()
            .unwrap();
        let poor = QosBuilder::new("x", 1, 1, 100.0)
            .payoff(PayoffFn::hard_only(
                SimTime::from_hours(1),
                Money::from_units(10),
                Money::ZERO,
            ))
            .build()
            .unwrap();
        assert!(rich.payoff_rate(1.0) > poor.payoff_rate(1.0));
        // $100 over 100 cpu-s = $1 per cpu-second.
        assert!((rich.payoff_rate(1.0) - 1.0).abs() < 1e-9);
        // A zero-payoff contract has rate 0, not NaN.
        let free = QosBuilder::new("x", 1, 1, 100.0).build().unwrap();
        assert_eq!(free.payoff_rate(1.0), 0.0);
    }

    #[test]
    fn memory_demands() {
        let q = QosBuilder::new("x", 4, 10, 100.0)
            .mem_per_pe_mb(512)
            .build()
            .unwrap();
        assert!(q.fits_node_memory(512));
        assert!(!q.fits_node_memory(256));
    }

    #[test]
    fn validation_rejects_bad_contracts() {
        assert!(QosBuilder::new("", 1, 2, 10.0).build().is_err());
        assert!(QosBuilder::new("x", 0, 2, 10.0).build().is_err());
        assert!(QosBuilder::new("x", 4, 2, 10.0).build().is_err());
        assert!(QosBuilder::new("x", 1, 2, 0.0).build().is_err());
        assert!(QosBuilder::new("x", 1, 2, -5.0).build().is_err());
        assert!(QosBuilder::new("x", 1, 2, f64::INFINITY).build().is_err());
    }

    #[test]
    fn serde_round_trip() {
        let q = basic();
        let json = serde_json::to_string(&q).unwrap();
        let back: QosContract = serde_json::from_str(&json).unwrap();
        assert_eq!(q, back);
    }
}
