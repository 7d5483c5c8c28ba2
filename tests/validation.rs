#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Integration test: the four whole-chip validations of the McPAT paper.
//!
//! The paper reports component-level errors in the 10–25% range against
//! published data; these tests pin our models into comparable bands so
//! regressions in any layer (tech, circuit, array, core, uncore) surface
//! immediately.

use mcpat::{Processor, ProcessorConfig};

struct Target {
    cfg: ProcessorConfig,
    published_power_w: f64,
    published_area_mm2: f64,
}

fn targets() -> Vec<Target> {
    vec![
        Target {
            cfg: ProcessorConfig::niagara(),
            published_power_w: 63.0,
            published_area_mm2: 378.0,
        },
        Target {
            cfg: ProcessorConfig::niagara2(),
            published_power_w: 84.0,
            published_area_mm2: 342.0,
        },
        Target {
            cfg: ProcessorConfig::alpha21364(),
            published_power_w: 125.0,
            published_area_mm2: 397.0,
        },
        Target {
            cfg: ProcessorConfig::tulsa(),
            published_power_w: 150.0,
            published_area_mm2: 435.0,
        },
    ]
}

#[test]
fn chip_power_matches_published_within_30_percent() {
    for t in targets() {
        let chip = Processor::build(&t.cfg).unwrap();
        let power = chip.peak_power().total();
        let err = (power - t.published_power_w).abs() / t.published_power_w;
        assert!(
            err < 0.30,
            "{}: modeled {power:.1} W vs published {:.1} W ({:.0}% error)",
            t.cfg.name,
            t.published_power_w,
            err * 100.0
        );
    }
}

#[test]
fn chip_area_matches_published_within_30_percent() {
    for t in targets() {
        let chip = Processor::build(&t.cfg).unwrap();
        let area = chip.die_area_mm2();
        let err = (area - t.published_area_mm2).abs() / t.published_area_mm2;
        assert!(
            err < 0.30,
            "{}: modeled {area:.0} mm² vs published {:.0} mm² ({:.0}% error)",
            t.cfg.name,
            t.published_area_mm2,
            err * 100.0
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
