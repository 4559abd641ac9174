//! The parallel-machine model behind each Compute Server.
//!
//! The paper's scheduling and market decisions depend only on a machine's
//! processor count, per-node memory, speed, and price level — this model
//! carries exactly those (see DESIGN.md's substitution table: this replaces
//! the authors' two physical research clusters).

use faucets_core::directory::ServerInfo;
use faucets_core::ids::ClusterId;
use faucets_core::money::Money;
use serde::{Deserialize, Serialize};

/// Static description of one parallel machine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineSpec {
    /// The cluster this machine realizes.
    pub cluster: ClusterId,
    /// Human-readable name.
    pub name: String,
    /// Number of processors.
    pub total_pes: u32,
    /// Memory per processor, MB.
    pub mem_per_pe_mb: u64,
    /// Useful FLOP/s per processor.
    pub flops_per_pe_sec: f64,
    /// Normalized cost: dollars per CPU-second (the paper's bid-to-dollar
    /// conversion base).
    pub normalized_cost: Money,
}

impl MachineSpec {
    /// A homogeneous x86 cluster with `total_pes` processors — the shape
    /// used throughout the experiments.
    pub fn commodity(cluster: ClusterId, name: impl Into<String>, total_pes: u32) -> Self {
        MachineSpec {
            cluster,
            name: name.into(),
            total_pes,
            mem_per_pe_mb: 1024,
            flops_per_pe_sec: 1.0, // work specified directly in CPU-seconds
            normalized_cost: Money::from_units_f64(0.01),
        }
    }

    /// The [`ServerInfo`] a daemon registers for this machine.
    pub fn server_info(&self, fd_addr: impl Into<String>, fd_port: u16) -> ServerInfo {
        ServerInfo {
            cluster: self.cluster,
            name: self.name.clone(),
            total_pes: self.total_pes,
            mem_per_pe_mb: self.mem_per_pe_mb,
            cpu_type: "x86-64".into(),
            flops_per_pe_sec: self.flops_per_pe_sec,
            fd_addr: fd_addr.into(),
            fd_port,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn commodity_defaults() {
        let m = MachineSpec::commodity(ClusterId(1), "turing", 1000);
        assert_eq!(m.total_pes, 1000);
        assert_eq!(m.normalized_cost, Money::from_units_f64(0.01));
        let info = m.server_info("127.0.0.1", 9001);
        assert_eq!(info.cluster, ClusterId(1));
        assert_eq!(info.total_pes, 1000);
        assert_eq!(info.fd_port, 9001);
    }
}
