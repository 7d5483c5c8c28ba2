#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Design-space exploration with budgets and a Pareto frontier: sweep
//! in-order and out-of-order manycores at 32 nm over core count,
//! cluster size and L2 size, reject those over the area/power budgets,
//! simulate a workload on the rest, and print the composite-metric
//! Pareto frontier plus per-metric winners.
//!
//! Run with: `cargo run --release --example pareto`

use mcpat::metrics::Metric;
use mcpat::{dse, AxisGrid, Budgets, DseOptions, ProcessorConfig};
use mcpat_mcore::config::{CoreConfig, MachineType};
use mcpat_sim::{SimEvaluator, WorkloadProfile};
use mcpat_tech::{DeviceType, TechNode};

/// `io-8c-x4-2M`: core kind, core count, cores per L2 cluster, and L2
/// capacity per cluster.
fn label(cfg: &ProcessorConfig) -> String {
    let kind = match cfg.core.machine_type {
        MachineType::InOrder => "io",
        MachineType::OutOfOrder => "ooo",
    };
    let cluster = cfg.num_cores / cfg.num_l2s.max(1);
    let l2_mib = cfg.l2.as_ref().map_or(0, |l2| l2.cache.capacity >> 20);
    format!("{kind}-{}c-x{cluster}-{l2_mib}M", cfg.num_cores)
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Both core kinds at one clock, as in the paper's case study.
    let grid = AxisGrid {
        core_templates: vec![CoreConfig::generic_inorder(), CoreConfig::generic_ooo()],
        cores_per_cluster: vec![2, 4],
        ..AxisGrid::manycore(
            vec![TechNode::N32],
            vec![DeviceType::Hp],
            vec![4, 8, 16, 32],
            vec![1 << 20, 2 << 20],
            vec![2.0e9],
        )
    };
    let opts = DseOptions {
        budgets: Budgets {
            max_area: 150e-6,     // 150 mm²
            max_peak_power: 90.0, // 90 W
        },
        ..DseOptions::default()
    };
    let mut evaluator = SimEvaluator {
        workload: WorkloadProfile::balanced(),
        total_insts: 1_600_000_000,
    };
    let result = dse(&grid, &opts, &mut evaluator)?;
    let at = |cursor: u64| {
        grid.config_at(cursor)
            .expect("a swept cursor is on the grid")
    };

    println!(
        "{} candidates, {} evaluated, {} rejected by budgets",
        result.perf.candidates,
        result.frontier.offered(),
        result.perf.rejected
    );
    println!();
    println!(
        "{:<16} {:>9} {:>9} {:>10} {:>10}",
        "frontier point", "mm2", "peak W", "energy J", "delay s"
    );
    for p in result.frontier.points() {
        println!(
            "{:<16} {:>9.1} {:>9.1} {:>10.3} {:>10.4}",
            label(&at(p.cursor)),
            p.area * 1e6,
            p.peak_power,
            p.metrics.energy,
            p.metrics.delay,
        );
    }
    println!();
    for metric in Metric::ALL {
        if let Some(best) = result.frontier.best(metric) {
            println!(
                "best under {:<6}: {}",
                metric.name(),
                label(&at(best.cursor))
            );
        }
    }
    Ok(())
}
