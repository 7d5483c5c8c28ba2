#![allow(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::indexing_slicing
)]
//! Power-management features end to end: DVFS ladder, per-core power
//! gating, clock gating, and the leakage–temperature convergence loop.
//!
//! Run with: `cargo run --release --example power_management`

use mcpat::thermal::{converge, ThermalSpec};
use mcpat::{ChipStats, DvfsPoint, Processor, ProcessorConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let mut cfg = ProcessorConfig::niagara2();
    cfg.power_gating = true;
    let chip = Processor::build(&cfg)?;

    // A half-idle interval: four of eight cores parked.
    let mut stats = ChipStats::peak(1e-3, 8, cfg.clock_hz, 2, 1);
    let busy = stats.cores[0];
    let mut idle = busy;
    idle.idle_cycles = idle.cycles;
    idle.issues = 0;
    idle.int_ops = 0;
    idle.loads = 0;
    idle.stores = 0;
    idle.fetches = 0;
    idle.decodes = 0;
    stats.cores = vec![busy, busy, busy, busy, idle, idle, idle, idle];

    println!("-- DVFS ladder (half-idle Niagara2-like chip, power gating on) --");
    println!(
        "{:>6} {:>10} {:>12} {:>14}",
        "Vdd", "power W", "rel. perf", "rel. J/op"
    );
    let nominal = chip.runtime_power(&stats).total();
    for r in chip.dvfs_sweep(&stats, 5) {
        println!(
            "{:>5.2}x {:>10.1} {:>12.2} {:>14.2}",
            r.point.vdd_scale,
            r.power.total(),
            r.relative_performance,
            r.relative_energy_per_op(nominal),
        );
    }

    println!();
    println!("-- power gating on parked cores --");
    let gated = chip.runtime_power(&stats);
    cfg.power_gating = false;
    let ungated_chip = Processor::build(&cfg)?;
    let ungated = ungated_chip.runtime_power(&stats);
    println!(
        "gated {:.1} W vs ungated {:.1} W (core leakage {:.2} vs {:.2} W)",
        gated.total(),
        ungated.total(),
        gated.component("cores").unwrap().leakage.total(),
        ungated.component("cores").unwrap().leakage.total(),
    );

    println!();
    println!("-- leakage-temperature convergence --");
    for theta in [0.2, 0.35, 0.5] {
        let r = converge(
            &cfg,
            &stats,
            ThermalSpec {
                theta_ja: theta,
                ..ThermalSpec::default()
            },
        )?;
        println!(
            "theta_JA {theta:.2} K/W: junction {:.1} K, power {:.1} W, leakage {:.1} W ({} iters, converged={})",
            r.junction_k,
            r.power.total(),
            r.power.leakage().total(),
            r.iterations,
            r.converged,
        );
    }

    // DVFS point validation demo.
    assert!(chip
        .runtime_power_at(&stats, DvfsPoint::ladder(0.5))
        .is_none());
    println!();
    println!("(points below the 0.6x retention floor are rejected)");
    Ok(())
}
