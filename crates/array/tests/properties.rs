#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Property-based tests for the array solver: invariants that must hold
//! for any array the optimizer is asked to build.

use mcpat_array::{ArraySpec, OptTarget, Ports};
use mcpat_tech::{DeviceType, TechNode, TechParams};
use proptest::prelude::*;

fn tech() -> TechParams {
    TechParams::new(TechNode::N45, DeviceType::Hp, 360.0)
}

fn any_target() -> impl Strategy<Value = OptTarget> {
    prop::sample::select(vec![
        OptTarget::Delay,
        OptTarget::Energy,
        OptTarget::EnergyDelay,
        OptTarget::EnergyDelaySquared,
        OptTarget::Area,
    ])
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn every_solvable_array_has_positive_finite_outputs(
        entries in 4u64..20_000,
        bits in 4u32..600,
        target in any_target(),
    ) {
        let t = tech();
        let a = ArraySpec::table(entries, bits).solve(&t, target).unwrap();
        prop_assert!(a.access_time > 0.0 && a.access_time.is_finite());
        prop_assert!(a.cycle_time > 0.0 && a.cycle_time <= a.access_time * 1.2 + 1e-12);
        prop_assert!(a.read_energy > 0.0 && a.read_energy.is_finite());
        prop_assert!(a.write_energy > 0.0 && a.write_energy.is_finite());
        prop_assert!(a.area > 0.0 && a.area.is_finite());
        prop_assert!(a.leakage.total() > 0.0);
    }

    #[test]
    fn area_is_at_least_the_cell_area(
        entries in 64u64..8_192,
        bits in 8u32..512,
    ) {
        let t = tech();
        let a = ArraySpec::table(entries, bits).solve(&t, OptTarget::Area).unwrap();
        let sram = t.sram_cell();
        let cell = sram.height * sram.width;
        let min_cells = entries as f64 * f64::from(bits) * cell;
        prop_assert!(a.area >= min_cells, "area {} < cells {}", a.area, min_cells);
    }

    #[test]
    fn bigger_arrays_never_leak_less(
        entries in 64u64..4_096,
        bits in 16u32..256,
    ) {
        let t = tech();
        let small = ArraySpec::table(entries, bits).solve(&t, OptTarget::EnergyDelay).unwrap();
        let big = ArraySpec::table(entries * 4, bits).solve(&t, OptTarget::EnergyDelay).unwrap();
        prop_assert!(big.leakage.total() > small.leakage.total());
    }

    #[test]
    fn delay_target_is_never_slower_than_other_targets(
        entries in 256u64..16_384,
        bits in 32u32..512,
        other in any_target(),
    ) {
        let t = tech();
        let spec = ArraySpec::table(entries, bits);
        let fast = spec.solve(&t, OptTarget::Delay).unwrap();
        let o = spec.solve(&t, other).unwrap();
        prop_assert!(fast.access_time <= o.access_time * (1.0 + 1e-9));
    }

    #[test]
    fn extra_ports_monotonically_grow_area(
        entries in 32u64..512,
        bits in 16u32..128,
        r in 1u32..6,
        w in 1u32..4,
    ) {
        let t = tech();
        let small = ArraySpec::table(entries, bits)
            .with_ports(Ports::reg_file(r, w))
            .solve(&t, OptTarget::Delay)
            .unwrap();
        let big = ArraySpec::table(entries, bits)
            .with_ports(Ports::reg_file(r + 2, w + 1))
            .solve(&t, OptTarget::Delay)
            .unwrap();
        prop_assert!(big.area > small.area);
    }

    #[test]
    fn cam_search_energy_scales_with_entries(
        entries in 16u64..256,
        bits in 32u32..128,
    ) {
        let t = tech();
        let small = ArraySpec::cam(entries, bits, bits / 2).solve(&t, OptTarget::EnergyDelay).unwrap();
        let big = ArraySpec::cam(entries * 4, bits, bits / 2).solve(&t, OptTarget::EnergyDelay).unwrap();
        prop_assert!(big.search_energy > small.search_energy);
    }

    #[test]
    fn cycle_constraint_is_always_respected_when_met(
        entries in 256u64..8_192,
        bits in 64u32..512,
        ghz in 0.5..2.5f64,
    ) {
        let t = tech();
        let cycle = 1.0 / (ghz * 1e9);
        // Infeasible constraints are an acceptable outcome; when the
        // solver claims success the constraint must hold.
        if let Ok(a) = ArraySpec::table(entries, bits)
            .with_max_cycle_time(cycle)
            .solve(&t, OptTarget::EnergyDelay)
        {
            prop_assert!(a.cycle_time <= cycle + 1e-15);
        }
    }
}
