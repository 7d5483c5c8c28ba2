//! Multicore system assembly: combines the per-core CPI model with
//! shared-cache pressure, fabric latency and memory-bandwidth
//! saturation, and emits `mcpat::ChipStats`.

use crate::cachesim::shared_miss_rate;
use crate::cpu::{CoreTiming, CpuModel};
use crate::workload::WorkloadProfile;
use mcpat::stats::ChipStats;
use mcpat::ProcessorConfig;
use mcpat_interconnect::noc::NocStats;
use mcpat_mcore::stats::CoreStats;
use mcpat_uncore::memctrl::MemCtrlStats;
use mcpat_uncore::shared_cache::SharedCacheStats;

/// DRAM round-trip latency, seconds.
const MEM_LATENCY_S: f64 = 80e-9;

/// Base L2 pipeline latency, cycles.
const L2_BASE_CYCLES: f64 = 14.0;

/// Fabric hop latency, cycles.
const HOP_CYCLES: f64 = 3.0;

/// The result of one simulation.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// Wall-clock time to retire the instruction budget, s.
    pub seconds: f64,
    /// Per-core IPC after bandwidth throttling.
    pub ipc_per_core: f64,
    /// Aggregate committed instructions per second.
    pub aggregate_ips: f64,
    /// Fraction of peak memory bandwidth consumed (≤ 1).
    pub mem_bw_utilization: f64,
    /// Activity statistics for the power model.
    pub stats: ChipStats,
}

/// The system-level analytic model.
#[derive(Debug, Clone)]
pub struct SystemModel {
    config: ProcessorConfig,
    cpu: CpuModel,
}

impl SystemModel {
    /// Wraps a processor configuration.
    #[must_use]
    pub fn new(config: &ProcessorConfig) -> SystemModel {
        SystemModel {
            config: config.clone(),
            cpu: CpuModel::new(&config.core),
        }
    }

    /// Latencies implied by the configuration.
    fn timing(&self) -> CoreTiming {
        let hops = self.config.fabric.topology.average_hops();
        let l2_cycles = L2_BASE_CYCLES + hops * HOP_CYCLES;
        let mem_cycles = MEM_LATENCY_S * self.config.clock_hz + l2_cycles;
        CoreTiming {
            l1_hit_cycles: 2.0,
            l2_cycles,
            l3_cycles: l2_cycles * 2.2,
            mem_cycles,
        }
    }

    /// Peak DRAM bandwidth of the configuration, bytes/s.
    fn mem_bandwidth(&self) -> f64 {
        self.config
            .mc
            .as_ref()
            .map_or(self.config.io_bandwidth, |mc| {
                f64::from(mc.channels) * mc.peak_bw_per_channel
            })
    }

    /// Runs the model: every core retires `insts_per_core` instructions
    /// of the workload (weak scaling, the paper's throughput setup).
    #[must_use]
    pub fn simulate(&self, wl: &WorkloadProfile, insts_per_core: u64) -> SimResult {
        let cfg = &self.config;
        let timing = self.timing();

        // Shared L2 pressure: each cluster's cores contend for one L2.
        let l2_capacity = cfg.l2.as_ref().map_or(0, |l| l.cache.capacity);
        let sharers = cfg.cores_per_cluster();
        let l2_mr = if l2_capacity > 0 {
            shared_miss_rate(
                l2_capacity,
                wl.data_working_set,
                sharers,
                wl.l2_miss_locality,
            )
        } else {
            1.0
        };

        let threads = (wl.tlp / f64::from(cfg.num_cores)).max(1.0) as u32;
        let core_r = self
            .cpu
            .evaluate(wl, &timing, l2_mr, cfg.l3.is_some(), threads);

        // Memory bandwidth saturation across all cores.
        let n = f64::from(cfg.num_cores);
        let inst_rate_unthrottled = core_r.ipc * cfg.clock_hz * n;
        let mem_miss_per_inst =
            core_r.l2_mpki * (1.0 - wl.l2_miss_locality) * if cfg.l3.is_some() { 0.4 } else { 1.0 };
        let bytes_per_inst = mem_miss_per_inst * 64.0 * 1.3; // + writebacks
        let demand = inst_rate_unthrottled * bytes_per_inst;
        let bw = self.mem_bandwidth().max(1.0);
        let throttle = (bw / demand.max(1e-3)).min(1.0);

        let ipc_core = core_r.ipc * throttle;
        let cycles = (insts_per_core as f64 / ipc_core.max(1e-6)).ceil();
        let seconds = cycles / cfg.clock_hz;
        let aggregate_ips = insts_per_core as f64 * n / seconds;
        let mem_bw_utilization = (demand * throttle / bw).min(1.0);

        let stats = self.build_stats(wl, insts_per_core, cycles as u64, &core_r, seconds);
        SimResult {
            seconds,
            ipc_per_core: ipc_core,
            aggregate_ips,
            mem_bw_utilization,
            stats,
        }
    }

    #[allow(clippy::cast_sign_loss)]
    fn build_stats(
        &self,
        wl: &WorkloadProfile,
        insts: u64,
        cycles: u64,
        core_r: &crate::cpu::CoreResult,
        seconds: f64,
    ) -> ChipStats {
        let cfg = &self.config;
        let f = |x: f64| x.max(0.0) as u64;
        let ni = insts as f64;
        let is_ooo = cfg.core.instruction_window_size > 0;

        // Out-of-order machines execute wrong-path (speculative) work
        // that is squashed but still burns energy.
        let spec = if is_ooo { 1.25 } else { 1.02 };
        let dcache_accesses = wl.frac_mem() * ni * spec;
        let l1d_misses = core_r.l1d_mpki * ni;
        let l1i_misses = core_r.l1i_mpki * ni;
        let busy_cycles = (cycles as f64 * core_r.thread_busy).min(cycles as f64);

        let core = CoreStats {
            cycles,
            idle_cycles: cycles - f(busy_cycles).min(cycles),
            fetches: insts,
            decodes: insts,
            renames: if is_ooo { insts } else { 0 },
            issues: f(ni * spec),
            commits: insts,
            int_ops: f(wl.frac_int * ni * spec),
            fp_ops: f(wl.frac_fp * ni * spec),
            mul_ops: f(wl.frac_mul * ni),
            loads: f(wl.frac_load * ni * spec),
            stores: f(wl.frac_store * ni),
            branches: f(wl.frac_branch * ni),
            branch_mispredicts: f(wl.frac_branch * wl.mispredict_rate * ni),
            icache_accesses: f(ni / f64::from(cfg.core.fetch_width.max(1))),
            icache_misses: f(l1i_misses),
            dcache_reads: f(wl.frac_load * ni * spec),
            dcache_writes: f(wl.frac_store * ni),
            dcache_misses: f(l1d_misses),
            itlb_accesses: f(ni / f64::from(cfg.core.fetch_width.max(1))),
            dtlb_accesses: f(dcache_accesses),
            window_accesses: if is_ooo { f(2.0 * ni * spec) } else { 0 },
            rob_accesses: if is_ooo { f(2.0 * ni * spec) } else { 0 },
            int_regfile_reads: f(1.7 * ni * spec),
            int_regfile_writes: f(0.7 * ni * spec),
            fp_regfile_reads: f(2.0 * wl.frac_fp * ni),
            fp_regfile_writes: f(wl.frac_fp * ni),
        };

        let n = f64::from(cfg.num_cores);
        let l2_accesses = (l1d_misses + l1i_misses) * n;
        let l2_misses = core_r.l2_mpki * ni * n;
        let to_mem = l2_misses * (1.0 - wl.l2_miss_locality);
        let (l3_reads, l3_misses) = if cfg.l3.is_some() {
            (to_mem, to_mem * 0.4)
        } else {
            (0.0, to_mem)
        };

        ChipStats {
            duration_s: seconds,
            cores: vec![core],
            l2: SharedCacheStats {
                interval_s: seconds,
                reads: f(l2_accesses * 0.75),
                writes: f(l2_accesses * 0.25),
                misses: f(l2_misses),
                writebacks: f(l2_misses * 0.3),
                // Sharing-locality hits imply cross-cluster probes.
                snoops: f(l2_misses * wl.l2_miss_locality),
            },
            l3: SharedCacheStats {
                interval_s: seconds,
                reads: f(l3_reads * 0.8),
                writes: f(l3_reads * 0.2),
                misses: f(l3_misses),
                writebacks: f(l3_misses * 0.3),
                snoops: 0,
            },
            noc: NocStats {
                interval_s: seconds,
                // Request + response packets (~4 flits each) per L2
                // access, plus memory traffic crossing the fabric.
                flits: f((l2_accesses * 2.0 + to_mem * 4.0) * 4.0),
                avg_hops: 0.0,
            },
            mc: MemCtrlStats {
                interval_s: seconds,
                bytes_read: f(l3_misses * 64.0),
                bytes_written: f(l3_misses * 64.0 * 0.3),
            },
            io_utilization: 0.2,
            shared_fpu_ops: if cfg.num_shared_fpus > 0 {
                f(wl.frac_fp * ni * n)
            } else {
                0
            },
            core_wakeups: 0,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn niagara_runs_server_work_well() {
        let cfg = ProcessorConfig::niagara();
        let sys = SystemModel::new(&cfg);
        let r = sys.simulate(&WorkloadProfile::server_transactional(), 10_000_000);
        assert!(r.seconds > 0.0);
        assert!(r.ipc_per_core > 0.1, "ipc {}", r.ipc_per_core);
        assert!(r.stats.l2.reads > 0);
    }

    #[test]
    fn compute_bound_work_is_faster_than_memory_bound() {
        let cfg = ProcessorConfig::alpha21364();
        let sys = SystemModel::new(&cfg);
        let fast = sys.simulate(&WorkloadProfile::compute_bound(), 10_000_000);
        let slow = sys.simulate(&WorkloadProfile::memory_bound(), 10_000_000);
        assert!(fast.seconds < slow.seconds);
    }

    #[test]
    fn bandwidth_throttling_kicks_in_for_many_cores() {
        let core = mcpat_mcore::config::CoreConfig::generic_inorder();
        let few = ProcessorConfig::manycore(
            "few",
            mcpat_tech::TechNode::N22,
            core.clone(),
            4,
            2,
            1 << 21,
        );
        let many =
            ProcessorConfig::manycore("many", mcpat_tech::TechNode::N22, core, 64, 2, 1 << 21);
        let wl = WorkloadProfile::memory_bound();
        let r_few = SystemModel::new(&few).simulate(&wl, 1_000_000);
        let r_many = SystemModel::new(&many).simulate(&wl, 1_000_000);
        // 16× the cores must not get 16× the throughput on a
        // bandwidth-bound workload with the same memory system.
        let speedup = r_many.aggregate_ips / r_few.aggregate_ips;
        assert!(speedup < 12.5, "speedup {speedup}");
        assert!(r_many.mem_bw_utilization > r_few.mem_bw_utilization);
    }

    #[test]
    fn stats_are_internally_consistent() {
        let cfg = ProcessorConfig::niagara2();
        let r = SystemModel::new(&cfg).simulate(&WorkloadProfile::balanced(), 5_000_000);
        let c = &r.stats.cores[0];
        assert_eq!(c.commits, 5_000_000);
        assert!(c.dcache_misses <= c.dcache_reads + c.dcache_writes);
        assert!(c.idle_cycles <= c.cycles);
        assert!(r.stats.l2.misses <= r.stats.l2.reads + r.stats.l2.writes);
    }

    #[test]
    fn sim_feeds_the_power_model() {
        let cfg = ProcessorConfig::niagara();
        let chip = mcpat::Processor::build(&cfg).unwrap();
        let r =
            SystemModel::new(&cfg).simulate(&WorkloadProfile::server_transactional(), 10_000_000);
        let p = chip.runtime_power(&r.stats);
        let peak = chip.peak_power();
        assert!(p.total() > 0.0);
        assert!(
            p.total() < peak.total() * 1.2,
            "runtime {} vs peak {}",
            p.total(),
            peak.total()
        );
    }
}
