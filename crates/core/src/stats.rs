//! Chip-level runtime statistics — the glue between a performance
//! simulator and the power model.

use mcpat_interconnect::noc::NocStats;
use mcpat_mcore::stats::CoreStats;
use mcpat_uncore::memctrl::MemCtrlStats;
use mcpat_uncore::shared_cache::SharedCacheStats;
use serde::{Deserialize, Serialize};

/// Activity counters for one simulated interval of the whole chip.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct ChipStats {
    /// Interval length, s.
    pub duration_s: f64,
    /// Per-core statistics. Length must equal the core count, or be 1 to
    /// broadcast the same counters to every core.
    pub cores: Vec<CoreStats>,
    /// Aggregate L2 statistics (all instances combined).
    pub l2: SharedCacheStats,
    /// Aggregate L3 statistics.
    pub l3: SharedCacheStats,
    /// Fabric traffic.
    pub noc: NocStats,
    /// Memory controller traffic.
    pub mc: MemCtrlStats,
    /// Utilization of the provisioned other-I/O bandwidth, 0–1.
    pub io_utilization: f64,
    /// Shared-FPU operations executed.
    pub shared_fpu_ops: u64,
    /// Power-gating state transitions (sleep→wake) across all cores in
    /// the interval. Each wakeup recharges the core's virtual supply.
    #[serde(default)]
    pub core_wakeups: u64,
}

/// Splits an aggregate access count into the peak model's 3:1
/// read:write mix so that `reads + writes == total` for every input.
/// (Independent truncation — `total*3/4` and `total/4` — leaks up to
/// one access per call and saturates inconsistently near `u64::MAX`;
/// deriving reads as the complement conserves the aggregate exactly.)
fn split_rw(total: u64) -> (u64, u64) {
    let writes = total / 4;
    (total - writes, writes)
}

impl ChipStats {
    /// A TDP-style worst-case interval of `duration_s` seconds for a chip
    /// with `num_cores` cores at `clock_hz`, issue width `w`. The
    /// interval holds the whole cycles that fit in it, and at least
    /// one: every core is busy throughout, whatever the clock.
    #[must_use]
    pub fn peak(duration_s: f64, num_cores: u32, clock_hz: f64, w: u32, fp_w: u32) -> ChipStats {
        let (mut stats, core) = ChipStats::peak_parts(duration_s, num_cores, clock_hz, w, fp_w);
        stats.cores = vec![core];
        stats
    }

    /// [`ChipStats::peak`] without allocating: the chip-level counters
    /// with an empty `cores` list, plus the one core entry every core
    /// broadcasts.
    pub(crate) fn peak_parts(
        duration_s: f64,
        num_cores: u32,
        clock_hz: f64,
        w: u32,
        fp_w: u32,
    ) -> (ChipStats, CoreStats) {
        let cycles = ((duration_s * clock_hz) as u64).max(1);
        let core = CoreStats::peak(cycles, w, fp_w);
        // Miss traffic spills into the L2 and memory at peak rates; TDP
        // assumes a cache-hostile footprint (≈1 L2 access per 4 cycles
        // per core).
        let l2_accesses = core
            .dcache_misses
            .saturating_add(core.icache_misses)
            .max(cycles / 4);
        // Aggregate accesses across cores; saturate so absurd
        // clock/width inputs degrade instead of overflowing.
        let chip = l2_accesses.saturating_mul(u64::from(num_cores));
        let (l2_reads, l2_writes) = split_rw(chip);
        let stats = ChipStats {
            duration_s,
            cores: Vec::new(),
            l2: SharedCacheStats {
                interval_s: duration_s,
                reads: l2_reads,
                writes: l2_writes,
                misses: chip / 10,
                writebacks: chip / 20,
                snoops: chip / 8,
            },
            l3: SharedCacheStats {
                interval_s: duration_s,
                reads: chip / 10,
                writes: chip / 40,
                misses: chip / 40,
                writebacks: chip / 80,
                snoops: 0,
            },
            noc: NocStats {
                interval_s: duration_s,
                // Request + response packets of ~4 flits per L2 access.
                flits: chip.saturating_mul(8),
                avg_hops: 0.0,
            },
            mc: MemCtrlStats {
                interval_s: duration_s,
                bytes_read: chip.saturating_mul(64) / 10,
                bytes_written: chip.saturating_mul(64) / 40,
            },
            io_utilization: 1.0,
            shared_fpu_ops: cycles / 2,
            core_wakeups: 0,
        };
        (stats, core)
    }

    /// The statistics of core `i` (broadcasting if only one entry).
    #[must_use]
    pub fn core(&self, i: usize) -> CoreStats {
        let last = self.cores.len().saturating_sub(1);
        self.cores.get(i.min(last)).copied().unwrap_or_default()
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn l2_split_conserves_the_aggregate(total in 0u64..u64::MAX) {
            let (reads, writes) = split_rw(total);
            prop_assert_eq!(reads.checked_add(writes), Some(total));
            // The mix stays read-dominated (3:1 up to truncation).
            prop_assert!(reads >= writes.saturating_mul(2));
        }
    }

    #[test]
    fn l2_split_conserves_at_the_extremes() {
        let edges = [
            0,
            1,
            2,
            3,
            4,
            5,
            7,
            u64::MAX - 3,
            u64::MAX - 2,
            u64::MAX - 1,
            u64::MAX,
        ];
        for total in edges {
            let (reads, writes) = split_rw(total);
            assert_eq!(
                reads.checked_add(writes),
                Some(total),
                "split of {total} leaks accesses"
            );
        }
    }

    #[test]
    fn saturated_peak_traffic_still_conserves_reads_plus_writes() {
        // Absurd clock × core count saturates the aggregate to
        // u64::MAX; the split must still sum back exactly.
        let s = ChipStats::peak(1.0, u32::MAX, 1e30, 8, 8);
        assert_eq!(s.l2.reads.checked_add(s.l2.writes), Some(u64::MAX));
    }

    #[test]
    fn peak_stats_populate_every_domain() {
        let s = ChipStats::peak(1e-3, 8, 1.2e9, 1, 1);
        assert!(s.cores[0].cycles > 0);
        assert!(s.l2.reads > 0);
        assert!(s.mc.bytes_read > 0);
        assert!(s.noc.flits > 0);
    }

    #[test]
    fn core_broadcasts_single_entry() {
        let s = ChipStats::peak(1e-3, 4, 2e9, 2, 1);
        assert_eq!(s.core(0).cycles, s.core(3).cycles);
    }

    #[test]
    fn empty_core_list_is_safe() {
        let s = ChipStats::default();
        assert_eq!(s.core(5).cycles, 0);
    }
}
