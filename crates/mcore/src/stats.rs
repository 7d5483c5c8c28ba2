//! Runtime activity statistics consumed by the core power model.
//!
//! These are the counters any performance simulator (gem5/M5 in the
//! paper; `mcpat-sim` in this repository) produces for one simulation
//! interval. All counts are absolute event counts over the interval;
//! `cycles` anchors them to time via the core clock.

/// Per-core activity counters for one simulated interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct CoreStats {
    /// Elapsed core cycles in the interval.
    pub cycles: u64,
    /// Cycles in which the core was halted/power-gated.
    pub idle_cycles: u64,
    /// Instructions fetched.
    pub fetches: u64,
    /// Instructions decoded.
    pub decodes: u64,
    /// Instructions renamed (OoO only).
    pub renames: u64,
    /// Instructions issued.
    pub issues: u64,
    /// Instructions committed.
    pub commits: u64,
    /// Integer ALU operations executed.
    pub int_ops: u64,
    /// FP operations executed.
    pub fp_ops: u64,
    /// Complex (mul/div) operations executed.
    pub mul_ops: u64,
    /// Load instructions executed.
    pub loads: u64,
    /// Store instructions executed.
    pub stores: u64,
    /// Branch instructions executed.
    pub branches: u64,
    /// Mispredicted branches.
    pub branch_mispredicts: u64,
    /// I-cache accesses.
    pub icache_accesses: u64,
    /// I-cache misses.
    pub icache_misses: u64,
    /// D-cache read accesses.
    pub dcache_reads: u64,
    /// D-cache write accesses.
    pub dcache_writes: u64,
    /// D-cache misses (reads + writes).
    pub dcache_misses: u64,
    /// ITLB lookups.
    pub itlb_accesses: u64,
    /// DTLB lookups.
    pub dtlb_accesses: u64,
    /// Instruction-window wakeups/selects (OoO).
    pub window_accesses: u64,
    /// ROB reads+writes (OoO).
    pub rob_accesses: u64,
    /// Integer register file reads.
    pub int_regfile_reads: u64,
    /// Integer register file writes.
    pub int_regfile_writes: u64,
    /// FP register file reads.
    pub fp_regfile_reads: u64,
    /// FP register file writes.
    pub fp_regfile_writes: u64,
}

impl CoreStats {
    /// A TDP-style worst-case interval: every unit busy every cycle for
    /// `cycles` cycles on a machine with the given widths.
    ///
    /// McPAT's "peak power" numbers assume sustained maximum activity
    /// with a 50% data toggle; this constructor encodes the event rates,
    /// the energy models encode the toggle.
    #[must_use]
    #[inline]
    pub fn peak(cycles: u64, issue_width: u32, fp_issue_width: u32) -> CoreStats {
        let w = u64::from(issue_width);
        let fw = u64::from(fp_issue_width);
        let n = cycles.saturating_mul(w);
        CoreStats {
            cycles,
            idle_cycles: 0,
            fetches: n,
            decodes: n,
            renames: n,
            issues: n,
            commits: n,
            int_ops: n,
            fp_ops: cycles.saturating_mul(fw),
            mul_ops: cycles / 4,
            loads: n / 4,
            stores: n / 8,
            branches: n / 5,
            branch_mispredicts: n / 100,
            icache_accesses: cycles,
            icache_misses: cycles / 100,
            dcache_reads: n / 4,
            dcache_writes: n / 8,
            dcache_misses: n / 50,
            itlb_accesses: cycles,
            dtlb_accesses: n / 4 + n / 8,
            window_accesses: n.saturating_mul(2),
            rob_accesses: n.saturating_mul(2),
            int_regfile_reads: n.saturating_mul(2),
            int_regfile_writes: n,
            fp_regfile_reads: cycles.saturating_mul(fw).saturating_mul(2),
            fp_regfile_writes: cycles.saturating_mul(fw),
        }
    }

    /// Committed instructions per cycle.
    #[must_use]
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.commits as f64 / self.cycles as f64
        }
    }

    /// Fraction of cycles the core was active.
    #[must_use]
    #[inline]
    pub fn duty(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            1.0 - self.idle_cycles as f64 / self.cycles as f64
        }
    }

    /// Element-wise sum of two intervals.
    #[must_use]
    pub fn merged(&self, other: &CoreStats) -> CoreStats {
        CoreStats {
            cycles: self.cycles + other.cycles,
            idle_cycles: self.idle_cycles + other.idle_cycles,
            fetches: self.fetches + other.fetches,
            decodes: self.decodes + other.decodes,
            renames: self.renames + other.renames,
            issues: self.issues + other.issues,
            commits: self.commits + other.commits,
            int_ops: self.int_ops + other.int_ops,
            fp_ops: self.fp_ops + other.fp_ops,
            mul_ops: self.mul_ops + other.mul_ops,
            loads: self.loads + other.loads,
            stores: self.stores + other.stores,
            branches: self.branches + other.branches,
            branch_mispredicts: self.branch_mispredicts + other.branch_mispredicts,
            icache_accesses: self.icache_accesses + other.icache_accesses,
            icache_misses: self.icache_misses + other.icache_misses,
            dcache_reads: self.dcache_reads + other.dcache_reads,
            dcache_writes: self.dcache_writes + other.dcache_writes,
            dcache_misses: self.dcache_misses + other.dcache_misses,
            itlb_accesses: self.itlb_accesses + other.itlb_accesses,
            dtlb_accesses: self.dtlb_accesses + other.dtlb_accesses,
            window_accesses: self.window_accesses + other.window_accesses,
            rob_accesses: self.rob_accesses + other.rob_accesses,
            int_regfile_reads: self.int_regfile_reads + other.int_regfile_reads,
            int_regfile_writes: self.int_regfile_writes + other.int_regfile_writes,
            fp_regfile_reads: self.fp_regfile_reads + other.fp_regfile_reads,
            fp_regfile_writes: self.fp_regfile_writes + other.fp_regfile_writes,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn peak_stats_are_fully_busy() {
        let s = CoreStats::peak(1000, 4, 2);
        assert_eq!(s.issues, 4000);
        assert_eq!(s.fp_ops, 2000);
        assert!((s.duty() - 1.0).abs() < 1e-12);
        assert!((s.ipc() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn zero_cycles_is_safe() {
        let s = CoreStats::default();
        assert_eq!(s.ipc(), 0.0);
        assert_eq!(s.duty(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let a = CoreStats::peak(100, 2, 1);
        let b = CoreStats::peak(300, 2, 1);
        let m = a.merged(&b);
        assert_eq!(m.cycles, 400);
        assert_eq!(m.issues, 800);
    }
}
