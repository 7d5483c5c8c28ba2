//! Chip-level clock distribution: a global H-tree feeding a local grid.
//!
//! At the 180–90 nm nodes the clock network is one of the largest single
//! power consumers (the Alpha 21364 published ≈30% of chip power in
//! clocking); McPAT models it as wire capacitance (tree + grid) plus
//! distributed drivers, switched every cycle at full activity.

use mcpat_circuit::gate::{GateKind, LogicGate};
use mcpat_circuit::metrics::StaticPower;
use mcpat_tech::{TechParams, WireType};

/// Local clock-grid wire pitch, m.
const GRID_PITCH: f64 = 30e-6;

/// Driver capacitance overhead on top of raw wire load.
const DRIVER_OVERHEAD: f64 = 0.4;

/// The clock distribution network of a die.
#[derive(Debug, Clone, Copy)]
pub struct ClockNetwork {
    /// Die width, m.
    pub die_width: f64,
    /// Die height, m.
    pub die_h: f64,
    /// Clock frequency, Hz.
    pub clock_hz: f64,
    /// Total switched capacitance per cycle (wire + drivers + sinks), F.
    pub total_cap: f64,
    /// Supply voltage, V.
    vdd: f64,
    /// Driver leakage, W.
    driver_leakage: StaticPower,
    /// Driver area, m².
    driver_area: f64,
}

impl ClockNetwork {
    /// Builds the network for a `die_width × die_h` die at `clock_hz`, with
    /// `sink_cap` farads of latch/array clock-pin load to drive.
    #[must_use]
    pub fn new(
        tech: &TechParams,
        die_width: f64,
        die_h: f64,
        clock_hz: f64,
        sink_cap: f64,
    ) -> ClockNetwork {
        let area = die_width * die_h;
        let global = tech.wire(WireType::Global);
        let inter = tech.wire(WireType::Intermediate);

        // H-tree: total length ≈ 3× the die half-perimeter per level
        // folded into ~2× diagonal span; grid: two orthogonal wire sets at
        // GRID_PITCH over the whole die.
        let htree_len = 3.0 * (die_width + die_h);
        let grid_len = 2.0 * area / GRID_PITCH;
        let wire_cap = htree_len * global.c_per_m + grid_len * inter.c_per_m;
        let total_cap = (wire_cap + sink_cap) * (1.0 + DRIVER_OVERHEAD);

        // Drivers sized to deliver the cap each cycle: estimate the
        // aggregate driver width from the cap they switch.
        let drive_per_width = tech.gate_cap(1.0) * 40.0; // each unit width drives ~40 gate-cap units
        let total_driver_width = total_cap / drive_per_width.max(1e-30);
        let driver_leakage = StaticPower {
            subthreshold: tech
                .subthreshold_leakage(total_driver_width / 3.0, 2.0 * total_driver_width / 3.0),
            gate: tech.gate_leakage(total_driver_width / 3.0, 2.0 * total_driver_width / 3.0),
        };
        let inv = LogicGate::new(tech, GateKind::Inverter, 1.0);
        let driver_area = inv.area() * total_driver_width / (3.0 * tech.min_w_nmos());

        ClockNetwork {
            die_width,
            die_h,
            clock_hz,
            total_cap,
            vdd: tech.device.vdd,
            driver_leakage,
            driver_area,
        }
    }

    /// Dynamic power of the network (α = 1: the clock switches twice per
    /// cycle, giving `C·V²·f`), W.
    #[must_use]
    pub fn dynamic_power(&self) -> f64 {
        self.total_cap * self.vdd * self.vdd * self.clock_hz
    }

    /// Dynamic power with a fraction of the grid clock-gated off, W.
    #[must_use]
    pub fn dynamic_power_gated(&self, gated_fraction: f64) -> f64 {
        self.dynamic_power() * (1.0 - 0.9 * gated_fraction.clamp(0.0, 1.0))
    }

    /// Driver leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        self.driver_leakage
    }

    /// Driver area, m².
    #[must_use]
    pub fn area(&self) -> f64 {
        self.driver_area
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    #[test]
    fn clock_power_is_watts_scale_for_big_dies() {
        let t = TechParams::new(TechNode::N90, DeviceType::Hp, 360.0);
        // 340 mm² die at 1.2 GHz with 2 nF of sink load (Niagara class).
        let clk = ClockNetwork::new(&t, 18.5e-3, 18.5e-3, 1.2e9, 2e-9);
        let p = clk.dynamic_power();
        assert!(p > 1.0 && p < 40.0, "{p} W");
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let t = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0);
        let slow = ClockNetwork::new(&t, 10e-3, 10e-3, 1e9, 1e-9);
        let fast = ClockNetwork::new(&t, 10e-3, 10e-3, 3e9, 1e-9);
        assert!((fast.dynamic_power() / slow.dynamic_power() - 3.0).abs() < 1e-9);
    }

    #[test]
    fn gating_cuts_up_to_90_percent() {
        let t = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
        let clk = ClockNetwork::new(&t, 12e-3, 12e-3, 2e9, 1e-9);
        assert!((clk.dynamic_power_gated(1.0) / clk.dynamic_power() - 0.1).abs() < 1e-9);
        assert_eq!(clk.dynamic_power_gated(0.0), clk.dynamic_power());
    }

    #[test]
    fn only_clock_hz_depends_on_the_frequency() {
        // Chip clock probes move `clock_hz` in place instead of
        // re-sizing: everything else must not depend on it.
        let t = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
        let mut moved = ClockNetwork::new(&t, 12e-3, 9e-3, 1e9, 1e-9);
        moved.clock_hz = 3.1e9;
        let fresh = ClockNetwork::new(&t, 12e-3, 9e-3, 3.1e9, 1e-9);
        let bits = |c: &ClockNetwork| {
            [
                c.die_width,
                c.die_h,
                c.total_cap,
                c.vdd,
                c.driver_area,
                c.driver_leakage.subthreshold,
                c.driver_leakage.gate,
                c.dynamic_power(),
            ]
            .map(f64::to_bits)
        };
        assert_eq!(bits(&moved), bits(&fresh));
    }

    #[test]
    fn bigger_dies_need_more_clock_power() {
        let t = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
        let small = ClockNetwork::new(&t, 8e-3, 8e-3, 2e9, 1e-9);
        let big = ClockNetwork::new(&t, 20e-3, 20e-3, 2e9, 1e-9);
        assert!(big.dynamic_power() > 2.0 * small.dynamic_power());
    }
}
