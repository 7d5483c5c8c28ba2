#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Design-space exploration with budgets and a Pareto front: enumerate
//! manycore candidates at 32 nm, reject those over the area/power
//! budgets, simulate a workload on the rest, and print the
//! energy/delay/area Pareto front plus per-metric winners.
//!
//! Run with: `cargo run --release --example pareto`

use mcpat::explore::{explore_batch, Budgets};
use mcpat::metrics::{Metric, MetricSet};
use mcpat::ProcessorConfig;
use mcpat_mcore::config::CoreConfig;
use mcpat_sim::{SystemModel, WorkloadProfile};
use mcpat_tech::TechNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node = TechNode::N32;
    let workload = WorkloadProfile::balanced();
    let total_insts: u64 = 1_600_000_000;

    let mut candidates = Vec::new();
    for (kind, core) in [
        ("io", CoreConfig::generic_inorder()),
        ("ooo", CoreConfig::generic_ooo()),
    ] {
        for cores in [4u32, 8, 16, 32] {
            for cluster in [2u32, 4] {
                if cores % cluster != 0 {
                    continue;
                }
                let cfg = ProcessorConfig::manycore(
                    &format!("{kind}-{cores}c-x{cluster}"),
                    node,
                    core.clone(),
                    cores,
                    cluster,
                    u64::from(cluster) * 512 * 1024,
                );
                candidates.push(cfg);
            }
        }
    }

    let budgets = Budgets {
        max_area: 150e-6,     // 150 mm²
        max_peak_power: 90.0, // 90 W
    };
    let exploration = explore_batch(&candidates, budgets, |chip| {
        let run = SystemModel::new(&chip.config)
            .simulate(&workload, total_insts / u64::from(chip.config.num_cores));
        let power = chip.runtime_power(&run.stats);
        MetricSet::from_power(power.total(), run.seconds, chip.die_area())
    })?
    .0;

    println!(
        "{} candidates, {} feasible, {} rejected by budgets ({:?})",
        candidates.len(),
        exploration.feasible.len(),
        exploration.rejected.len(),
        exploration.rejected
    );
    println!();
    println!(
        "{:<14} {:>9} {:>9} {:>10} {:>10} {:>7}",
        "candidate", "mm2", "peak W", "energy J", "delay s", "pareto"
    );
    for (i, c) in exploration.feasible.iter().enumerate() {
        println!(
            "{:<14} {:>9.1} {:>9.1} {:>10.3} {:>10.4} {:>7}",
            c.name,
            c.area * 1e6,
            c.peak_power,
            c.metrics.energy,
            c.metrics.delay,
            if exploration.pareto.contains(&i) {
                "*"
            } else {
                ""
            },
        );
    }
    println!();
    for metric in Metric::ALL {
        if let Some(best) = exploration.best(metric) {
            println!("best under {:<6}: {}", metric.name(), best.name);
        }
    }
    Ok(())
}
