#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Integration test: the four whole-chip validations of the McPAT paper.
//!
//! The paper reports component-level errors in the 10–25% range against
//! published data. Each chip's power and area are pinned to a band three
//! points above its measured error (EXPERIMENTS.md T-V1..4), so a
//! regression in any layer (tech, circuit, array, core, uncore) that
//! moves a chip away from its published numbers surfaces immediately.

use mcpat::{Processor, ProcessorConfig};
use mcpat_bench::published_chips;

struct Target {
    cfg: ProcessorConfig,
    published_power_w: f64,
    published_area_mm2: f64,
    /// Largest accepted |relative error| of peak power.
    power_band: f64,
    /// Largest accepted |relative error| of die area.
    area_band: f64,
}

/// Per published chip: the largest accepted |relative error| of peak
/// power, then of die area. Measured |error| (EXPERIMENTS.md T-V1..4)
/// plus three points, to the nearest point.
const BANDS: [(&str, f64, f64); 4] = [
    ("niagara", 0.14, 0.25),    // measured 11.1%, 22.1%
    ("niagara2", 0.17, 0.18),   // measured 13.8%, 14.5%
    ("alpha21364", 0.21, 0.12), // measured 18.4%, 9.1%
    ("xeon-tulsa", 0.14, 0.07), // measured 10.8%, 3.9%
];

/// Each published chip (`mcpat_bench::published_chips`) with its bands.
fn targets() -> Vec<Target> {
    let chips = published_chips();
    assert_eq!(chips.len(), BANDS.len(), "one band pair per published chip");
    chips
        .into_iter()
        .map(|chip| {
            let &(_, power_band, area_band) = BANDS
                .iter()
                .find(|(name, ..)| *name == chip.name)
                .unwrap_or_else(|| panic!("no bands for {}", chip.name));
            Target {
                cfg: (chip.config)(),
                published_power_w: chip.power_w,
                published_area_mm2: chip.area_mm2,
                power_band,
                area_band,
            }
        })
        .collect()
}

#[test]
fn chip_power_matches_published_within_measured_error_bands() {
    for t in targets() {
        let chip = Processor::build(&t.cfg).unwrap();
        let power = chip.peak_power().total();
        let err = (power - t.published_power_w).abs() / t.published_power_w;
        assert!(
            err < t.power_band,
            "{}: modeled {power:.1} W vs published {:.1} W ({:.1}% error, band {:.0}%)",
            t.cfg.name,
            t.published_power_w,
            err * 100.0,
            t.power_band * 100.0
        );
    }
}

#[test]
fn chip_area_matches_published_within_measured_error_bands() {
    for t in targets() {
        let chip = Processor::build(&t.cfg).unwrap();
        let area = chip.die_area_mm2();
        let err = (area - t.published_area_mm2).abs() / t.published_area_mm2;
        assert!(
            err < t.area_band,
            "{}: modeled {area:.0} mm² vs published {:.0} mm² ({:.1}% error, band {:.0}%)",
            t.cfg.name,
            t.published_area_mm2,
            err * 100.0,
            t.area_band * 100.0
        );
    }
}

#[test]
fn niagara_cores_and_clock_are_major_consumers() {
    let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
    let p = chip.peak_power();
    assert!(p.share("cores") > 0.15, "cores share {}", p.share("cores"));
    assert!(p.share("clock") > 0.10, "clock share {}", p.share("clock"));
    // 90 nm chip: leakage is a minority of total power.
    assert!(p.leakage().total() < 0.4 * p.total());
}

#[test]
fn tulsa_l3_dominates_leakage() {
    let chip = Processor::build(&ProcessorConfig::tulsa()).unwrap();
    let p = chip.peak_power();
    let l3 = p.component("l3").expect("tulsa has an L3");
    // A 16 MB 65 nm SRAM leaks heavily relative to its activity.
    assert!(l3.leakage.total() > l3.dynamic);
    assert!(l3.leakage.total() > 0.4 * p.leakage().total());
}

#[test]
fn alpha_clock_network_is_the_biggest_single_item() {
    // The 21364's gridded clock was famously ≈ a third of chip power.
    let chip = Processor::build(&ProcessorConfig::alpha21364()).unwrap();
    let p = chip.peak_power();
    let clock = p.component("clock").unwrap().total();
    assert!(
        clock > 0.25 * p.total(),
        "clock share {:.2}",
        clock / p.total()
    );
}

#[test]
fn validation_chips_meet_their_target_clocks() {
    for t in targets() {
        let chip = Processor::build(&t.cfg).unwrap();
        let timing = chip.timing();
        // Allow a small margin: Tulsa's 3.4 GHz NetBurst pushed arrays to
        // the limit (and pipelined its L1 access over two cycles).
        assert!(
            timing.core_max_clock_hz >= 0.9 * timing.target_clock_hz,
            "{}: max {:.2} GHz vs target {:.2} GHz",
            t.cfg.name,
            timing.core_max_clock_hz / 1e9,
            timing.target_clock_hz / 1e9
        );
    }
}

#[test]
fn per_core_unit_breakdown_is_complete_for_ooo_chips() {
    let chip = Processor::build(&ProcessorConfig::alpha21364()).unwrap();
    let p = chip.peak_power();
    let names: Vec<&str> = p.core_detail.items.iter().map(|i| i.name).collect();
    for unit in ["ifu", "rename", "window", "regfile", "exu", "lsu", "mmu"] {
        assert!(names.contains(&unit), "missing core unit {unit}");
    }
}
