#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the technology layer.

use mcpat_tech::{
    DeviceParams, DeviceType, TechNode, TechParams, WireParams, WireProjection, WireType,
};
use proptest::prelude::*;

fn any_node() -> impl Strategy<Value = TechNode> {
    prop::sample::select(TechNode::ALL.to_vec())
}

fn any_flavor() -> impl Strategy<Value = DeviceType> {
    prop::sample::select(DeviceType::ALL.to_vec())
}

fn any_wire_type() -> impl Strategy<Value = WireType> {
    prop::sample::select(WireType::ALL.to_vec())
}

proptest! {
    #[test]
    fn leakage_is_monotone_in_temperature(
        node in any_node(),
        flavor in any_flavor(),
        t1 in 280.0..420.0f64,
        dt in 1.0..80.0f64,
    ) {
        let d = DeviceParams::lookup(node, flavor);
        prop_assert!(d.i_off_n(t1 + dt) > d.i_off_n(t1));
    }

    #[test]
    fn leakage_is_always_positive_and_finite(
        node in any_node(),
        flavor in any_flavor(),
        t in 250.0..450.0f64,
    ) {
        let d = DeviceParams::lookup(node, flavor);
        prop_assert!(d.i_off_n(t) > 0.0);
        prop_assert!(d.i_off_n(t).is_finite());
        prop_assert!(d.i_off_p(t) < d.i_off_n(t));
    }

    #[test]
    fn wire_rc_is_positive_for_every_combination(
        node in any_node(),
        wt in any_wire_type(),
    ) {
        for projection in [WireProjection::Aggressive, WireProjection::Conservative] {
            let w = WireParams::new(node, wt, projection);
            prop_assert!(w.r_per_m > 0.0 && w.r_per_m.is_finite());
            prop_assert!(w.c_per_m > 0.0 && w.c_per_m.is_finite());
            prop_assert!(w.width > 0.0 && w.thickness > 0.0);
        }
    }

    #[test]
    fn static_power_scales_linearly_with_width(
        node in any_node(),
        flavor in any_flavor(),
        w in 1e-7..1e-3f64,
    ) {
        let tech = TechParams::new(node, flavor, 360.0);
        let p1 = tech.subthreshold_leakage(w, w);
        let p2 = tech.subthreshold_leakage(2.0 * w, 2.0 * w);
        prop_assert!((p2 / p1 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn fo4_is_finite_positive_everywhere(
        node in any_node(),
        flavor in any_flavor(),
        t in 280.0..420.0f64,
    ) {
        let tech = TechParams::new(node, flavor, t);
        let fo4 = tech.fo4();
        prop_assert!(fo4 > 1e-12 && fo4 < 1e-9, "fo4 = {fo4:e}");
    }

    #[test]
    fn long_channel_never_increases_gate_leak_or_decreases_speed(
        node in any_node(),
        flavor in any_flavor(),
        w in 1e-7..1e-4f64,
    ) {
        let base = TechParams::new(node, flavor, 360.0);
        let lc = base.with_long_channel_leakage(true);
        prop_assert!(lc.subthreshold_leakage(w, w) < base.subthreshold_leakage(w, w));
        prop_assert!((lc.fo4() - base.fo4()).abs() < 1e-18);
    }

    #[test]
    fn sram_cell_leakage_positive_for_all_corners(
        node in any_node(),
        flavor in any_flavor(),
        t in 280.0..420.0f64,
    ) {
        let tech = TechParams::new(node, flavor, t);
        let cell = tech.sram_cell();
        let p = cell.leakage_power(&tech.device, t);
        prop_assert!(p > 0.0 && p.is_finite());
    }
}
