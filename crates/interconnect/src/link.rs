//! Point-to-point NoC links: parallel repeated global wires.

use mcpat_circuit::metrics::StaticPower;
use mcpat_circuit::repeater::RepeatedWire;
use mcpat_tech::{TechParams, WireType};

/// A unidirectional link of `flit_bits` wires and a given length.
#[derive(Debug, Clone)]
pub struct Link {
    /// Wires in the link.
    pub flit_bits: u32,
    /// Physical length, m.
    pub length: f64,
    wire: RepeatedWire,
}

impl Link {
    /// Builds a link using energy-derated repeated global wires (McPAT's
    /// optimizer allows 10% delay slack on links).
    #[must_use]
    pub fn new(tech: &TechParams, flit_bits: u32, length: f64) -> Link {
        let wire = RepeatedWire::energy_derated(tech, WireType::Global, length.max(1e-6), 1.10);
        Link {
            flit_bits,
            length,
            wire,
        }
    }

    /// Energy of transmitting one flit (≈50% bit toggle), J.
    #[must_use]
    #[inline]
    pub fn energy_per_flit(&self) -> f64 {
        0.5 * f64::from(self.flit_bits) * self.wire.metrics.energy_per_op
    }

    /// Repeater area of all wires, m².
    #[must_use]
    pub fn area(&self) -> f64 {
        self.wire.metrics.area * f64::from(self.flit_bits)
    }

    /// Leakage of all repeaters, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        self.wire.metrics.leakage.scaled(f64::from(self.flit_bits))
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    fn tech() -> TechParams {
        TechParams::new(TechNode::N32, DeviceType::Hp, 360.0)
    }

    #[test]
    fn longer_links_cost_more() {
        let t = tech();
        let short = Link::new(&t, 128, 1e-3);
        let long = Link::new(&t, 128, 4e-3);
        assert!(long.energy_per_flit() > 2.0 * short.energy_per_flit());
    }

    #[test]
    fn flit_energy_scales_with_width() {
        let t = tech();
        let narrow = Link::new(&t, 64, 2e-3);
        let wide = Link::new(&t, 256, 2e-3);
        assert!((wide.energy_per_flit() / narrow.energy_per_flit() - 4.0).abs() < 0.1);
    }
}
