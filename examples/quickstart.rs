#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Quickstart: model a processor, print its power/area/timing report,
//! then evaluate runtime power under a simulated workload.
//!
//! Run with: `cargo run --example quickstart`

use mcpat::{Processor, ProcessorConfig};
use mcpat_sim::{SimEvaluator, WorkloadProfile};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Describe the chip. Presets exist for the paper's validation
    //    targets; here we take Niagara and tweak nothing.
    let config = ProcessorConfig::niagara();

    // 2. Build the internal chip representation. This runs the array
    //    partition optimizer for every cache/queue/register file on the
    //    chip and sizes wires, crossbars and the clock tree.
    let chip = Processor::build(&config)?;

    // 3. Static outputs: the classic McPAT report.
    println!("{}", chip.report());

    // 4. Runtime analysis: pair the power model with the bundled
    //    analytic performance simulator (the M5 stand-in), which runs
    //    10^9 instructions per core and prices the simulated activity
    //    with `chip.runtime_power`.
    let sim = SimEvaluator {
        workload: WorkloadProfile::server_transactional(),
        total_insts: 1_000_000_000 * u64::from(config.num_cores),
    };
    let (run, power) = sim.run(&chip);

    println!(
        "server workload: {:.2} IPC/core, {:.1} W runtime ({:.1} W peak), {:.0}% DRAM bandwidth",
        run.ipc_per_core,
        power.total(),
        chip.peak_power().total(),
        100.0 * run.mem_bw_utilization,
    );

    // 5. Composite metrics for design comparison.
    let m = mcpat::MetricSet::from_power(power.total(), run.seconds, chip.die_area());
    println!(
        "energy {:.2} J, EDP {:.3e}, ED2P {:.3e}, EDAP {:.3e}, EDA2P {:.3e}",
        m.energy,
        m.edp(),
        m.ed2p(),
        m.edap(),
        m.eda2p()
    );
    Ok(())
}
