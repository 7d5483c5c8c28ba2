//! A trace-driven, cycle-approximate core simulator.
//!
//! The analytic model in [`crate::cpu`] estimates IPC in closed form;
//! this module provides an independent cross-check: it synthesizes an
//! instruction trace from the same [`WorkloadProfile`] (instruction mix,
//! dependence distances, miss probabilities) and *executes* it on a
//! scoreboard model of the pipeline — in-order or out-of-order with a
//! finite window — producing cycle counts and the same `CoreStats` the
//! power model consumes.
//!
//! Determinism: the generator is seeded, so identical inputs give
//! identical traces and statistics.

use crate::cachesim::miss_rate;
use crate::cpu::CoreTiming;
use crate::workload::WorkloadProfile;
use mcpat_mcore::config::{CoreConfig, MachineType};
use mcpat_mcore::stats::CoreStats;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Instruction classes in a synthetic trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// Integer ALU operation.
    Int,
    /// Floating-point operation.
    Fp,
    /// Integer multiply/divide.
    Mul,
    /// Memory load (latency sampled from the cache model).
    Load,
    /// Memory store.
    Store,
    /// Branch (may be mispredicted).
    Branch,
}

/// Deepest dependence distance the executor resolves exactly (the
/// completion-ring depth in [`run_trace`]).
pub const MAX_DEP_DISTANCE: u32 = 512;

/// One synthetic instruction.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceOp {
    /// Instruction class.
    pub kind: OpKind,
    /// Distance (in instructions) to the producer this op consumes;
    /// 0 = no register dependence.
    pub dep_distance: u32,
    /// Execution latency in cycles, including sampled memory stalls.
    pub latency: u32,
    /// True if this branch was mispredicted (Branch only).
    pub mispredicted: bool,
}

/// Synthesizes a trace from a workload profile.
#[derive(Debug)]
pub struct TraceGenerator {
    profile: WorkloadProfile,
    timing: CoreTiming,
    l1d_mr: f64,
    l2_mr: f64,
    rng: StdRng,
}

impl TraceGenerator {
    /// Creates a generator for a core/workload pair.
    #[must_use]
    pub fn new(cfg: &CoreConfig, profile: &WorkloadProfile, seed: u64) -> TraceGenerator {
        TraceGenerator {
            profile: *profile,
            timing: CoreTiming::default(),
            l1d_mr: miss_rate(cfg.dcache.capacity, profile.data_working_set),
            l2_mr: 0.3, // default shared-cache pressure
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Samples the next instruction.
    pub fn next_op(&mut self) -> TraceOp {
        let p = &self.profile;
        let r: f64 = self.rng.gen();
        let kind = if r < p.frac_int {
            OpKind::Int
        } else if r < p.frac_int + p.frac_fp {
            OpKind::Fp
        } else if r < p.frac_int + p.frac_fp + p.frac_mul {
            OpKind::Mul
        } else if r < p.frac_int + p.frac_fp + p.frac_mul + p.frac_load {
            OpKind::Load
        } else if r < p.frac_int + p.frac_fp + p.frac_mul + p.frac_load + p.frac_store {
            OpKind::Store
        } else {
            OpKind::Branch
        };

        // Dependence distance ~ geometric with mean = ilp (a short
        // distance means a tight dependence chain).
        let mean = self.profile.ilp.max(1.0);
        let dep_distance = if self.rng.gen::<f64>() < 0.2 {
            0 // independent instruction
        } else {
            // Clamped to the executor's completion-ring depth so a long
            // tail sample cannot alias another instruction's slot.
            (1 + (-(1.0 - self.rng.gen::<f64>()).ln() * mean) as u32).min(MAX_DEP_DISTANCE)
        };

        let latency = match kind {
            OpKind::Int | OpKind::Store => 1,
            OpKind::Branch => 1,
            OpKind::Fp => 4,
            OpKind::Mul => 8,
            OpKind::Load => {
                if self.rng.gen::<f64>() < self.l1d_mr {
                    if self.rng.gen::<f64>() < self.l2_mr {
                        self.timing.mem_cycles as u32
                    } else {
                        self.timing.l2_cycles as u32
                    }
                } else {
                    self.timing.l1_hit_cycles as u32
                }
            }
        };
        let mispredicted =
            kind == OpKind::Branch && self.rng.gen::<f64>() < self.profile.mispredict_rate;
        TraceOp {
            kind,
            dep_distance,
            latency,
            mispredicted,
        }
    }
}

/// The result of executing a trace.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceResult {
    /// Cycles consumed.
    pub cycles: u64,
    /// Instructions executed.
    pub instructions: u64,
    /// Achieved IPC.
    pub ipc: f64,
}

/// Executes `n_ops` synthetic instructions on a scoreboard model of the
/// configured core and returns (result, stats-for-the-power-model).
///
/// The scoreboard tracks the completion time of the last 512
/// instructions; an instruction issues when its producer has completed,
/// its issue slot is free, and — for out-of-order machines — it lies
/// within `instruction_window_size` of the oldest incomplete
/// instruction. Mispredicted branches flush the front-end for
/// `pipeline_depth × 0.7` cycles.
#[must_use]
pub fn run_trace(
    cfg: &CoreConfig,
    profile: &WorkloadProfile,
    n_ops: u64,
    seed: u64,
) -> (TraceResult, CoreStats) {
    let mut generator = TraceGenerator::new(cfg, profile, seed);
    let width = u64::from(cfg.issue_width.max(1));
    let is_ooo = cfg.machine_type == MachineType::OutOfOrder;
    let window = if is_ooo {
        u64::from(cfg.instruction_window_size.max(1))
    } else {
        1
    };
    let flush_penalty = (f64::from(cfg.pipeline_depth) * 0.7).ceil() as u64;

    const HISTORY: usize = MAX_DEP_DISTANCE as usize;
    /// Completion times of the last `HISTORY` ops, keyed by op index
    /// modulo the ring depth; all access is checked (slots before the
    /// ring wraps read as 0, their initial value).
    struct CompletionRing([u64; HISTORY]);
    impl CompletionRing {
        fn at(&self, op_index: u64) -> u64 {
            self.0
                .get((op_index as usize) % HISTORY)
                .copied()
                .unwrap_or(0)
        }
        fn set(&mut self, op_index: u64, done_at: u64) {
            if let Some(slot) = self.0.get_mut((op_index as usize) % HISTORY) {
                *slot = done_at;
            }
        }
    }
    let mut completion = CompletionRing([0u64; HISTORY]);
    let mut front_end_ready: u64 = 0;
    let mut issued_this_cycle: u64 = 0;
    let mut current_cycle: u64 = 0;
    let mut last_issue: u64 = 0;
    let mut stats = CoreStats::default();

    for i in 0..n_ops {
        let op = generator.next_op();

        // Data dependence.
        let dep_ready = if op.dep_distance == 0 || u64::from(op.dep_distance) > i {
            0
        } else {
            completion.at(i - u64::from(op.dep_distance))
        };
        // Window occupancy (OoO) / program order (in-order).
        let structural_ready = if is_ooo {
            if i >= window {
                completion.at(i - window)
            } else {
                0
            }
        } else {
            last_issue
        };
        let mut ready = dep_ready.max(structural_ready).max(front_end_ready);

        // Issue bandwidth.
        if ready <= current_cycle {
            ready = current_cycle;
        }
        if ready > current_cycle {
            current_cycle = ready;
            issued_this_cycle = 0;
        }
        if issued_this_cycle >= width {
            current_cycle += 1;
            issued_this_cycle = 0;
        }
        let issue_at = current_cycle;
        issued_this_cycle += 1;
        last_issue = issue_at;
        let done_at = issue_at + u64::from(op.latency);
        completion.set(i, done_at);

        if op.mispredicted {
            front_end_ready = done_at + flush_penalty;
        }

        // Event accounting.
        match op.kind {
            OpKind::Int => stats.int_ops += 1,
            OpKind::Fp => stats.fp_ops += 1,
            OpKind::Mul => stats.mul_ops += 1,
            OpKind::Load => {
                stats.loads += 1;
                stats.dcache_reads += 1;
                if op.latency > 2 {
                    stats.dcache_misses += 1;
                }
            }
            OpKind::Store => {
                stats.stores += 1;
                stats.dcache_writes += 1;
            }
            OpKind::Branch => {
                stats.branches += 1;
                if op.mispredicted {
                    stats.branch_mispredicts += 1;
                }
            }
        }
    }

    // Drain: the last completion bounds the cycle count.
    let end = completion.0.iter().copied().max().unwrap_or(current_cycle);
    let cycles = end.max(current_cycle).max(1);

    stats.cycles = cycles;
    stats.fetches = n_ops;
    stats.decodes = n_ops;
    stats.commits = n_ops;
    stats.issues = n_ops;
    stats.renames = if is_ooo { n_ops } else { 0 };
    stats.window_accesses = if is_ooo { 2 * n_ops } else { 0 };
    stats.rob_accesses = if is_ooo { 2 * n_ops } else { 0 };
    stats.icache_accesses = n_ops / u64::from(cfg.fetch_width.max(1));
    stats.itlb_accesses = stats.icache_accesses;
    stats.dtlb_accesses = stats.loads + stats.stores;
    stats.int_regfile_reads = 17 * n_ops / 10;
    stats.int_regfile_writes = 7 * n_ops / 10;
    stats.fp_regfile_reads = 2 * stats.fp_ops;
    stats.fp_regfile_writes = stats.fp_ops;

    let ipc = n_ops as f64 / cycles as f64;
    (
        TraceResult {
            cycles,
            instructions: n_ops,
            ipc,
        },
        stats,
    )
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::cpu::CpuModel;

    #[test]
    fn trace_execution_is_deterministic() {
        let cfg = CoreConfig::generic_ooo();
        let wl = WorkloadProfile::balanced();
        let (a, sa) = run_trace(&cfg, &wl, 50_000, 42);
        let (b, sb) = run_trace(&cfg, &wl, 50_000, 42);
        assert_eq!(a, b);
        assert_eq!(sa, sb);
    }

    #[test]
    fn different_seeds_change_the_trace_slightly() {
        let cfg = CoreConfig::generic_ooo();
        let wl = WorkloadProfile::balanced();
        let (a, _) = run_trace(&cfg, &wl, 50_000, 1);
        let (b, _) = run_trace(&cfg, &wl, 50_000, 2);
        assert_ne!(a.cycles, b.cycles);
        // But the IPC estimates agree closely (same distribution).
        assert!((a.ipc / b.ipc - 1.0).abs() < 0.1);
    }

    #[test]
    fn ipc_never_exceeds_issue_width() {
        for cfg in [CoreConfig::generic_ooo(), CoreConfig::generic_inorder()] {
            let (r, _) = run_trace(&cfg, &WorkloadProfile::compute_bound(), 50_000, 7);
            assert!(r.ipc <= f64::from(cfg.issue_width) + 1e-9, "{}", r.ipc);
            assert!(r.ipc > 0.05);
        }
    }

    #[test]
    fn ooo_beats_inorder_on_the_same_trace_distribution() {
        let wl = WorkloadProfile::balanced();
        let (io, _) = run_trace(&CoreConfig::generic_inorder(), &wl, 100_000, 3);
        let (ooo, _) = run_trace(&CoreConfig::generic_ooo(), &wl, 100_000, 3);
        assert!(ooo.ipc > io.ipc, "ooo {} vs io {}", ooo.ipc, io.ipc);
    }

    #[test]
    fn memory_bound_traces_run_slower() {
        let cfg = CoreConfig::generic_ooo();
        let (fast, _) = run_trace(&cfg, &WorkloadProfile::compute_bound(), 100_000, 5);
        let (slow, _) = run_trace(&cfg, &WorkloadProfile::memory_bound(), 100_000, 5);
        assert!(fast.ipc > 1.5 * slow.ipc);
    }

    #[test]
    fn trace_and_analytic_models_agree_on_ordering() {
        // The two models are independent; they must rank workloads the
        // same way even if absolute IPCs differ.
        let cfg = CoreConfig::generic_ooo();
        let cpu = CpuModel::new(&cfg);
        let timing = CoreTiming::default();
        let workloads = [
            WorkloadProfile::compute_bound(),
            WorkloadProfile::balanced(),
            WorkloadProfile::memory_bound(),
        ];
        let analytic: Vec<f64> = workloads
            .iter()
            .map(|w| cpu.evaluate(w, &timing, 0.3, false, 1).ipc)
            .collect();
        let traced: Vec<f64> = workloads
            .iter()
            .map(|w| run_trace(&cfg, w, 100_000, 11).0.ipc)
            .collect();
        assert!(analytic[0] > analytic[1] && analytic[1] > analytic[2]);
        assert!(traced[0] > traced[1] && traced[1] > traced[2]);
        // Absolute agreement within a factor of 2 for every workload.
        for (a, t) in analytic.iter().zip(&traced) {
            let ratio = a / t;
            assert!(ratio > 0.4 && ratio < 2.5, "analytic {a} vs traced {t}");
        }
    }

    #[test]
    fn trace_stats_feed_the_core_power_model() {
        let cfg = CoreConfig::generic_inorder();
        let tech = mcpat_tech::TechParams::new(
            mcpat_tech::TechNode::N45,
            mcpat_tech::DeviceType::Hp,
            360.0,
        );
        let core = mcpat_mcore::core::CoreModel::build(&tech, &cfg).unwrap();
        let (_, stats) = run_trace(&cfg, &WorkloadProfile::server_transactional(), 50_000, 9);
        let p = core.runtime_power(&stats);
        assert!(p.total() > 0.0 && p.total().is_finite());
    }

    #[test]
    fn mispredictions_cost_cycles() {
        let cfg = CoreConfig::generic_ooo();
        let mut clean = WorkloadProfile::balanced();
        clean.mispredict_rate = 0.0;
        let mut dirty = clean;
        dirty.mispredict_rate = 0.15;
        let (c, _) = run_trace(&cfg, &clean, 100_000, 13);
        let (d, _) = run_trace(&cfg, &dirty, 100_000, 13);
        assert!(
            d.cycles > c.cycles,
            "dirty {} vs clean {}",
            d.cycles,
            c.cycles
        );
    }
}
