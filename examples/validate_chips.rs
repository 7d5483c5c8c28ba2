#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Reproduce the paper's validation: model Niagara, Niagara2, the Alpha
//! 21364 and Xeon Tulsa, and compare modeled power/area against the
//! published numbers.
//!
//! Run with: `cargo run --example validate_chips`

use mcpat::Processor;
use mcpat_bench::published_chips;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    println!(
        "{:<12} {:>10} {:>10} {:>7}   {:>10} {:>10} {:>7}",
        "chip", "pub W", "model W", "err%", "pub mm2", "model mm2", "err%"
    );
    for published in published_chips() {
        let cfg = (published.config)();
        let chip = Processor::build(&cfg)?;
        let power = chip.peak_power().total();
        let area = chip.die_area_mm2();
        println!(
            "{:<12} {:>10.1} {:>10.1} {:>6.1}%   {:>10.0} {:>10.0} {:>6.1}%",
            cfg.name,
            published.power_w,
            power,
            100.0 * (power - published.power_w) / published.power_w,
            published.area_mm2,
            area,
            100.0 * (area - published.area_mm2) / published.area_mm2,
        );
        // Component shares, for the per-chip breakdown tables.
        let p = chip.peak_power();
        let shares: Vec<String> = p
            .items
            .iter()
            .map(|i| format!("{} {:.0}%", i.name, 100.0 * i.total() / p.total()))
            .collect();
        println!("             breakdown: {}", shares.join(", "));
    }
    Ok(())
}
