//! Shared-bus fabric: the low-cost alternative to a switched NoC for
//! small core counts (and the fabric of the Xeon Tulsa validation
//! target).

use mcpat_circuit::arbiter::MatrixArbiter;
use mcpat_circuit::metrics::{CircuitMetrics, StaticPower};
use mcpat_circuit::repeater::RepeatedWire;
use mcpat_tech::{TechParams, WireType};

/// A shared split-transaction bus connecting `taps` agents.
#[derive(Debug, Clone)]
pub struct Bus {
    /// Number of agents on the bus.
    pub taps: u32,
    /// Data width, bits.
    pub width_bits: u32,
    /// Total bus length, m.
    pub length: f64,
    wire: RepeatedWire,
    arbiter: CircuitMetrics,
    track_pitch: f64,
}

impl Bus {
    /// Builds a bus spanning `length` meters with `taps` agents.
    #[must_use]
    pub fn new(tech: &TechParams, taps: u32, width_bits: u32, length: f64) -> Bus {
        let wire = RepeatedWire::energy_derated(tech, WireType::Global, length.max(1e-6), 1.15);
        let arbiter = MatrixArbiter::new(tech, taps.max(1) as usize).metrics();
        Bus {
            taps,
            width_bits,
            length,
            wire,
            arbiter,
            track_pitch: 2.0 * tech.wire(WireType::Global).pitch,
        }
    }

    /// Energy of one bus transfer (arbitration + full-length broadcast,
    /// ≈50% toggle), J.
    #[must_use]
    pub fn energy_per_transfer(&self) -> f64 {
        self.arbiter.energy_per_op
            + 0.5 * f64::from(self.width_bits) * self.wire.metrics.energy_per_op
    }

    /// Bus area (repeaters + wiring tracks + arbiter), m².
    #[must_use]
    pub fn area(&self) -> f64 {
        // Wiring tracks at double global pitch for shielding.
        let track_area = self.length * f64::from(self.width_bits) * self.track_pitch;
        self.wire.metrics.area * f64::from(self.width_bits) + self.arbiter.area + track_area
    }

    /// Bus leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        self.wire.metrics.leakage.scaled(f64::from(self.width_bits)) + self.arbiter.leakage
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    fn tech() -> TechParams {
        TechParams::new(TechNode::N65, DeviceType::Hp, 360.0)
    }

    #[test]
    fn bus_costs_grow_with_length_and_width() {
        let t = tech();
        let small = Bus::new(&t, 4, 128, 5e-3);
        let long = Bus::new(&t, 4, 128, 15e-3);
        let wide = Bus::new(&t, 4, 512, 5e-3);
        assert!(long.energy_per_transfer() > small.energy_per_transfer());
        assert!(wide.energy_per_transfer() > small.energy_per_transfer());
    }

    #[test]
    fn more_taps_make_arbitration_pricier() {
        let t = tech();
        let few = Bus::new(&t, 2, 128, 5e-3);
        let many = Bus::new(&t, 16, 128, 5e-3);
        assert!(many.arbiter.energy_per_op > few.arbiter.energy_per_op);
    }

    #[test]
    fn transfer_energy_is_plausible() {
        let b = Bus::new(&tech(), 4, 256, 10e-3);
        let pj = b.energy_per_transfer() * 1e12;
        assert!(pj > 1.0 && pj < 2000.0, "{pj} pJ");
    }
}
