#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the performance model.

use mcpat::ProcessorConfig;
use mcpat_mcore::config::CoreConfig;
use mcpat_sim::{SystemModel, WorkloadProfile};
use mcpat_tech::TechNode;
use proptest::prelude::*;
use rand::Rng;

fn any_workload() -> impl Strategy<Value = WorkloadProfile> {
    prop::sample::select(vec![
        WorkloadProfile::compute_bound(),
        WorkloadProfile::memory_bound(),
        WorkloadProfile::balanced(),
        WorkloadProfile::server_transactional(),
        WorkloadProfile::splash_like(),
    ])
}

/// `base` with its continuous fields jittered by up to ±`spread`
/// (relative), clamped back into their valid ranges.
fn perturbed(base: WorkloadProfile, rng: &mut impl Rng, spread: f64) -> WorkloadProfile {
    let mut p = base;
    let mut jitter = |v: f64| v * (1.0 + rng.gen_range(-spread..=spread));
    p.ilp = jitter(p.ilp).max(1.0);
    p.mispredict_rate = jitter(p.mispredict_rate).clamp(0.0, 0.5);
    p.data_working_set = (jitter(p.data_working_set as f64) as u64).max(1024);
    p.l2_miss_locality = jitter(p.l2_miss_locality).clamp(0.0, 1.0);
    p
}

fn manycore(cores: u32, cluster: u32) -> ProcessorConfig {
    ProcessorConfig::manycore(
        "prop",
        TechNode::N32,
        CoreConfig::generic_inorder(),
        cores,
        cluster,
        u64::from(cluster) * 1024 * 1024,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn simulation_is_deterministic(wl in any_workload(), insts in 1_000_000u64..50_000_000) {
        let cfg = manycore(8, 2);
        let sys = SystemModel::new(&cfg);
        let a = sys.simulate(&wl, insts);
        let b = sys.simulate(&wl, insts);
        prop_assert_eq!(a, b);
    }

    #[test]
    fn time_scales_linearly_with_instruction_budget(
        wl in any_workload(),
        insts in 1_000_000u64..20_000_000,
        k in 2u64..8,
    ) {
        let cfg = manycore(4, 2);
        let sys = SystemModel::new(&cfg);
        let t1 = sys.simulate(&wl, insts).seconds;
        let tk = sys.simulate(&wl, insts * k).seconds;
        let ratio = tk / t1;
        prop_assert!((ratio - k as f64).abs() < 0.01 * k as f64, "ratio {ratio}");
    }

    #[test]
    fn ipc_never_exceeds_issue_width(wl in any_workload(), cores in 1u32..16) {
        let cluster = if cores.is_multiple_of(2) { 2 } else { 1 };
        let cfg = manycore(cores, cluster);
        let run = SystemModel::new(&cfg).simulate(&wl, 5_000_000);
        prop_assert!(run.ipc_per_core <= f64::from(cfg.core.issue_width) + 1e-9);
        prop_assert!(run.ipc_per_core > 0.0);
    }

    #[test]
    fn stats_counters_are_internally_consistent(wl in any_workload(), insts in 1_000_000u64..20_000_000) {
        let cfg = manycore(8, 4);
        let run = SystemModel::new(&cfg).simulate(&wl, insts);
        let c = &run.stats.cores[0];
        prop_assert_eq!(c.commits, insts);
        prop_assert!(c.idle_cycles <= c.cycles);
        prop_assert!(c.dcache_misses <= c.dcache_reads + c.dcache_writes);
        prop_assert!(c.icache_misses <= c.icache_accesses);
        prop_assert!(c.branch_mispredicts <= c.branches);
        prop_assert!(run.stats.duration_s > 0.0);
        prop_assert!(run.mem_bw_utilization >= 0.0 && run.mem_bw_utilization <= 1.0);
    }

    #[test]
    fn bigger_l1_never_hurts_ipc(wl in any_workload()) {
        let mut small = manycore(4, 2);
        small.core.dcache = mcpat_array::cache::CacheSpec::new("d", 8 * 1024, 64, 2);
        let mut big = manycore(4, 2);
        big.core.dcache = mcpat_array::cache::CacheSpec::new("d", 64 * 1024, 64, 2);
        let r_small = SystemModel::new(&small).simulate(&wl, 5_000_000);
        let r_big = SystemModel::new(&big).simulate(&wl, 5_000_000);
        prop_assert!(r_big.ipc_per_core >= r_small.ipc_per_core * 0.999);
    }

    #[test]
    fn perturbed_workloads_still_simulate(seed in 0u64..1_000) {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(seed);
        let wl = perturbed(WorkloadProfile::balanced(), &mut rng, 0.4);
        let cfg = manycore(4, 2);
        let run = SystemModel::new(&cfg).simulate(&wl, 2_000_000);
        prop_assert!(run.seconds > 0.0 && run.seconds.is_finite());
        prop_assert!(run.aggregate_ips > 0.0);
    }
}
