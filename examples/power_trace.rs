#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Runtime power trace: run a phased workload (compute → memory-bound →
//! idle-ish server load) and print per-phase power as a text chart — the
//! kind of power-over-time view architects pair McPAT with.
//!
//! Run with: `cargo run --release --example power_trace`

use mcpat::{Processor, ProcessorConfig};
use mcpat_sim::{SimEvaluator, WorkloadProfile};

fn bar(width: usize, frac: f64) -> String {
    let n = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    format!("{}{}", "#".repeat(n), ".".repeat(width - n))
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let cfg = ProcessorConfig::niagara2();
    let chip = Processor::build(&cfg)?;
    let peak = chip.peak_power().total();

    let phases = [
        (
            "hpc-stencil",
            WorkloadProfile::hpc_stencil(),
            400_000_000u64,
        ),
        ("analytics", WorkloadProfile::analytics_scan(), 200_000_000),
        ("web", WorkloadProfile::web_serving(), 400_000_000),
        ("compute", WorkloadProfile::compute_bound(), 600_000_000),
        (
            "server",
            WorkloadProfile::server_transactional(),
            300_000_000,
        ),
    ];

    println!("phase         t(ms)    W     of peak {peak:.1} W");
    let mut t = 0.0;
    for (name, workload, insts) in phases {
        let sim = SimEvaluator {
            workload,
            total_insts: insts * u64::from(cfg.num_cores),
        };
        let (run, power) = sim.run(&chip);
        let p = power.total();
        t += run.seconds * 1e3;
        println!("{name:<12} {t:>6.1} {p:>6.1}  |{}|", bar(40, p / peak));
    }
    Ok(())
}
