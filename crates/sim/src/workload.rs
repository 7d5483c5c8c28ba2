//! Synthetic workload profiles.
//!
//! A profile condenses what a trace-driven simulator would extract from
//! a benchmark: the instruction mix, the available instruction-level
//! parallelism, branch behavior, and memory locality (expressed as a
//! working-set size that the cache model turns into miss-rate curves).

use serde::{Deserialize, Serialize};

/// A statistical description of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadProfile {
    /// Fraction of instructions that are integer ALU ops.
    pub frac_int: f64,
    /// Fraction that are FP ops.
    pub frac_fp: f64,
    /// Fraction that are complex (mul/div) ops.
    pub frac_mul: f64,
    /// Fraction that are loads.
    pub frac_load: f64,
    /// Fraction that are stores.
    pub frac_store: f64,
    /// Fraction that are branches.
    pub frac_branch: f64,
    /// Branch misprediction rate (of branches).
    pub mispredict_rate: f64,
    /// Mean exploitable instruction-level parallelism (dataflow limit).
    pub ilp: f64,
    /// Primary data working-set size, bytes.
    pub data_working_set: u64,
    /// Instruction working-set size, bytes.
    pub inst_working_set: u64,
    /// Fraction of L2 misses that are serviced by other caches/L3 rather
    /// than memory (sharing locality).
    pub l2_miss_locality: f64,
    /// Thread-level parallelism available (≥ 1; caps useful threads).
    pub tlp: f64,
}

impl WorkloadProfile {
    /// A CPU-bound kernel: high ILP, small working set, few misses.
    #[must_use]
    pub fn compute_bound() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.48,
            frac_fp: 0.12,
            frac_mul: 0.02,
            frac_load: 0.20,
            frac_store: 0.08,
            frac_branch: 0.10,
            mispredict_rate: 0.02,
            ilp: 3.5,
            data_working_set: 24 * 1024,
            inst_working_set: 12 * 1024,
            l2_miss_locality: 0.1,
            tlp: 1e9,
        }
    }

    /// A memory-bound streaming workload: large working set, modest ILP.
    #[must_use]
    pub fn memory_bound() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.35,
            frac_fp: 0.10,
            frac_mul: 0.01,
            frac_load: 0.30,
            frac_store: 0.14,
            frac_branch: 0.10,
            mispredict_rate: 0.04,
            ilp: 2.0,
            data_working_set: 64 * 1024 * 1024,
            inst_working_set: 32 * 1024,
            l2_miss_locality: 0.05,
            tlp: 1e9,
        }
    }

    /// A balanced SPEC-like mix.
    #[must_use]
    pub fn balanced() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.42,
            frac_fp: 0.08,
            frac_mul: 0.02,
            frac_load: 0.25,
            frac_store: 0.11,
            frac_branch: 0.12,
            mispredict_rate: 0.05,
            ilp: 2.6,
            data_working_set: 2 * 1024 * 1024,
            inst_working_set: 64 * 1024,
            l2_miss_locality: 0.15,
            tlp: 1e9,
        }
    }

    /// A throughput server / transaction-processing mix: poor locality,
    /// low ILP, abundant TLP (the Niagara design target).
    #[must_use]
    pub fn server_transactional() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.40,
            frac_fp: 0.01,
            frac_mul: 0.01,
            frac_load: 0.28,
            frac_store: 0.12,
            frac_branch: 0.18,
            mispredict_rate: 0.08,
            ilp: 1.4,
            data_working_set: 16 * 1024 * 1024,
            inst_working_set: 512 * 1024,
            l2_miss_locality: 0.3,
            tlp: 1e9,
        }
    }

    /// A SPLASH-2-style shared-memory parallel scientific mix — the
    /// closest stand-in for the paper's case-study workloads.
    #[must_use]
    pub fn splash_like() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.35,
            frac_fp: 0.22,
            frac_mul: 0.03,
            frac_load: 0.22,
            frac_store: 0.08,
            frac_branch: 0.10,
            mispredict_rate: 0.03,
            ilp: 2.8,
            data_working_set: 8 * 1024 * 1024,
            inst_working_set: 48 * 1024,
            l2_miss_locality: 0.25,
            tlp: 1e9,
        }
    }

    /// A web-serving mix: branchy request handling, large instruction
    /// footprint, moderate data locality, high TLP.
    #[must_use]
    pub fn web_serving() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.44,
            frac_fp: 0.01,
            frac_mul: 0.01,
            frac_load: 0.26,
            frac_store: 0.10,
            frac_branch: 0.18,
            mispredict_rate: 0.06,
            ilp: 1.8,
            data_working_set: 4 * 1024 * 1024,
            inst_working_set: 1024 * 1024,
            l2_miss_locality: 0.2,
            tlp: 1e9,
        }
    }

    /// An HPC stencil kernel: streaming FP with predictable branches and
    /// a working set that tiles into the L2.
    #[must_use]
    pub fn hpc_stencil() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.25,
            frac_fp: 0.32,
            frac_mul: 0.02,
            frac_load: 0.26,
            frac_store: 0.10,
            frac_branch: 0.05,
            mispredict_rate: 0.01,
            ilp: 3.2,
            data_working_set: 3 * 1024 * 1024,
            inst_working_set: 8 * 1024,
            l2_miss_locality: 0.1,
            tlp: 1e9,
        }
    }

    /// An in-memory analytics scan: sequential reads over a huge
    /// footprint, almost no FP, bandwidth-bound.
    #[must_use]
    pub fn analytics_scan() -> WorkloadProfile {
        WorkloadProfile {
            frac_int: 0.40,
            frac_fp: 0.02,
            frac_mul: 0.01,
            frac_load: 0.34,
            frac_store: 0.08,
            frac_branch: 0.15,
            mispredict_rate: 0.02,
            ilp: 2.4,
            data_working_set: 256 * 1024 * 1024,
            inst_working_set: 24 * 1024,
            l2_miss_locality: 0.02,
            tlp: 1e9,
        }
    }

    /// The total memory-operation fraction.
    #[must_use]
    pub fn frac_mem(&self) -> f64 {
        self.frac_load + self.frac_store
    }

    /// Validates the profile: the instruction mix must sum to ≈ 1 and
    /// every field must be finite and sensible. Collects all findings.
    #[must_use]
    pub fn validate(&self) -> mcpat_diag::Diagnostics {
        let mut d = mcpat_diag::Diagnostics::new();
        for (field, v) in [
            ("frac_int", self.frac_int),
            ("frac_fp", self.frac_fp),
            ("frac_mul", self.frac_mul),
            ("frac_load", self.frac_load),
            ("frac_store", self.frac_store),
            ("frac_branch", self.frac_branch),
        ] {
            if !(v.is_finite() && (0.0..=1.0).contains(&v)) {
                d.error(field, format!("mix fraction must be in [0, 1], got {v}"));
            }
        }
        let sum = self.frac_int
            + self.frac_fp
            + self.frac_mul
            + self.frac_load
            + self.frac_store
            + self.frac_branch;
        if !d.has_errors() && (sum - 1.0).abs() > 0.02 {
            d.error("", format!("instruction mix sums to {sum:.4}, not 1"));
        }
        d.require_positive("ilp", "ILP", self.ilp);
        if !(self.mispredict_rate.is_finite() && (0.0..=1.0).contains(&self.mispredict_rate)) {
            d.error(
                "mispredict_rate",
                format!("must be in [0, 1], got {}", self.mispredict_rate),
            );
        }
        if !(self.l2_miss_locality.is_finite() && (0.0..=1.0).contains(&self.l2_miss_locality)) {
            d.error(
                "l2_miss_locality",
                format!("must be in [0, 1], got {}", self.l2_miss_locality),
            );
        }
        d
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn preset_mixes_sum_to_one() {
        for wl in [
            WorkloadProfile::compute_bound(),
            WorkloadProfile::memory_bound(),
            WorkloadProfile::balanced(),
            WorkloadProfile::server_transactional(),
            WorkloadProfile::splash_like(),
            WorkloadProfile::web_serving(),
            WorkloadProfile::hpc_stencil(),
            WorkloadProfile::analytics_scan(),
        ] {
            let d = wl.validate();
            assert!(!d.has_errors(), "{d}");
        }
    }

    #[test]
    fn analytics_is_the_most_memory_hungry_preset() {
        let a = WorkloadProfile::analytics_scan();
        for other in [
            WorkloadProfile::compute_bound(),
            WorkloadProfile::web_serving(),
            WorkloadProfile::hpc_stencil(),
        ] {
            assert!(a.data_working_set > other.data_working_set);
        }
    }

    #[test]
    fn compute_bound_has_more_ilp_than_server() {
        assert!(WorkloadProfile::compute_bound().ilp > WorkloadProfile::server_transactional().ilp);
    }
}
