#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
//! The paper's case study in miniature: sweep manycore design points —
//! in-order vs out-of-order cores, clustering degree {1,2,4,8} cores per
//! shared L2 — at 22 nm, simulate a parallel workload, and rank the
//! points under EDP, ED²P, EDAP and EDA²P.
//!
//! The headline result to look for: the area-aware metrics (EDAP/EDA²P)
//! pick a different optimum than ED²P does.
//!
//! Run with: `cargo run --release --example design_space`

use mcpat::metrics::{best_index, Metric, MetricSet};
use mcpat::{Processor, ProcessorConfig};
use mcpat_mcore::config::CoreConfig;
use mcpat_sim::{SystemModel, WorkloadProfile};
use mcpat_tech::TechNode;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let node = TechNode::N22;
    let num_cores = 16;
    let workload = WorkloadProfile::splash_like();
    let insts_per_core: u64 = 500_000_000;

    let mut labels = Vec::new();
    let mut points = Vec::new();

    for (kind, core) in [
        ("in-order", CoreConfig::niagara2_like()),
        ("ooo", CoreConfig::alpha21364_like()),
    ] {
        for cluster in [1u32, 2, 4, 8] {
            let cfg = ProcessorConfig::manycore(
                &format!("{kind}-x{cluster}"),
                node,
                core.clone(),
                num_cores,
                cluster,
                u64::from(cluster) * 1024 * 1024,
            );
            let chip = Processor::build(&cfg)?;
            let run = SystemModel::new(&cfg).simulate(&workload, insts_per_core);
            let power = chip.runtime_power(&run.stats);
            let m = MetricSet::from_power(power.total(), run.seconds, chip.die_area());
            println!(
                "{:<14} {:>6.1} W  {:>7.1} mm2  {:>6.3} s  ipc/core {:>5.2}  EDP {:.3e}  EDAP {:.3e}",
                cfg.name,
                power.total(),
                chip.die_area_mm2(),
                run.seconds,
                run.ipc_per_core,
                m.edp(),
                m.edap(),
            );
            labels.push(cfg.name.clone());
            points.push(m);
        }
    }

    println!();
    for metric in Metric::ALL {
        if let Some(i) = best_index(&points, metric) {
            println!("best under {:<6}: {}", metric.name(), labels[i]);
        }
    }
    Ok(())
}
