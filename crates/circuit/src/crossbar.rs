//! Matrix crossbars.
//!
//! The switch fabric of NoC routers and the core-to-L2 crossbar of
//! Niagara-class chips are matrix crossbars: every input port runs a
//! horizontal bus across every output port's vertical bus, with a
//! tri-state connector at each crossing. Area is wire-dominated, which is
//! why crossbar cost grows quadratically with port count and linearly
//! with flit width in each dimension.

use crate::gate::BufferChain;
use crate::metrics::{CircuitMetrics, StaticPower};
use mcpat_tech::{TechParams, WireType};

/// An `n_in` × `n_out` crossbar carrying `width`-bit words.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::crossbar::Crossbar;
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0);
/// let xbar = Crossbar::new(&tech, 5, 5, 128);
/// let m = xbar.metrics_per_traversal();
/// assert!(m.area > 0.0 && m.delay > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct Crossbar {
    n_in: usize,
    n_out: usize,
    width: usize,
    /// Physical datapath height (input-bus side), m.
    pub height: f64,
    /// Physical datapath width (output-bus side), m.
    pub width_m: f64,
    input_driver: BufferChain,
    output_driver: BufferChain,
    tech: TechParams,
}

/// Track pitch multiplier: crossbar tracks are routed on double-pitch
/// intermediate wires for shielding.
const TRACK_PITCH_FACTOR: f64 = 2.0;

impl Crossbar {
    /// Builds a crossbar (all dimensions clamped to ≥ 1).
    #[must_use]
    pub fn new(tech: &TechParams, n_in: usize, n_out: usize, width: usize) -> Crossbar {
        let n_in = n_in.max(1);
        let n_out = n_out.max(1);
        let width = width.max(1);
        let wire = tech.wire(WireType::Intermediate);
        let track = wire.pitch * TRACK_PITCH_FACTOR;
        let height = n_in as f64 * width as f64 * track;
        let width_m = n_out as f64 * width as f64 * track;

        // Each input bus spans the full output side and vice versa.
        let c_in_bus =
            wire.c_per_m * width_m + n_out as f64 * tech.drain_cap(4.0 * tech.min_w_nmos());
        let c_out_bus =
            wire.c_per_m * height + n_in as f64 * tech.drain_cap(4.0 * tech.min_w_nmos());
        let input_driver = BufferChain::for_load(tech, c_in_bus);
        let output_driver = BufferChain::for_load(tech, c_out_bus);
        Crossbar {
            n_in,
            n_out,
            width,
            height,
            width_m,
            input_driver,
            output_driver,
            tech: *tech,
        }
    }

    /// Word width in bits.
    #[must_use]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Metrics of moving one `width`-bit word through one input→output
    /// connection (≈half the bits toggle).
    #[must_use]
    pub fn metrics_per_traversal(&self) -> CircuitMetrics {
        let wire = self.tech.wire(WireType::Intermediate);
        let c_in_bus = wire.c_per_m * self.width_m;
        let c_out_bus = wire.c_per_m * self.height;
        let in_m = self.input_driver.metrics();
        let out_m = self.output_driver.metrics();

        let bits = self.width as f64;
        let toggle = 0.5;
        let energy_per_bit = in_m.energy_per_op
            + out_m.energy_per_op
            + self.tech.switch_energy(c_in_bus + c_out_bus) * 0.0; // bus cap already in drivers
        let energy = bits * toggle * energy_per_bit;

        // Area: the wiring matrix plus drivers on every port.
        let wiring = self.height * self.width_m;
        let drivers = (in_m.area * (self.n_in * self.width) as f64)
            + (out_m.area * (self.n_out * self.width) as f64);

        // Cross-point connector leakage: one pass structure per crossing per bit.
        let crossings = (self.n_in * self.n_out * self.width) as f64;
        let pass_width = 4.0 * self.tech.min_w_nmos();
        let xpoint_leak = StaticPower {
            subthreshold: self.tech.subthreshold_leakage(pass_width, 0.0) * crossings,
            gate: self.tech.gate_leakage(pass_width, 0.0) * crossings,
        };
        let leakage = in_m.leakage.scaled((self.n_in * self.width) as f64)
            + out_m.leakage.scaled((self.n_out * self.width) as f64)
            + xpoint_leak;

        CircuitMetrics {
            area: wiring + drivers,
            delay: in_m.delay + out_m.delay,
            energy_per_op: energy,
            leakage,
        }
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
    fn area_grows_quadratically_with_ports() {
        let t = tech();
        let a5 = Crossbar::new(&t, 5, 5, 64).metrics_per_traversal().area;
        let a10 = Crossbar::new(&t, 10, 10, 64).metrics_per_traversal().area;
        let ratio = a10 / a5;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio = {ratio}");
    }

    #[test]
    fn energy_grows_with_flit_width() {
        let t = tech();
        let e64 = Crossbar::new(&t, 5, 5, 64)
            .metrics_per_traversal()
            .energy_per_op;
        let e256 = Crossbar::new(&t, 5, 5, 256)
            .metrics_per_traversal()
            .energy_per_op;
        assert!(e256 > 3.0 * e64);
    }

    #[test]
    fn traversal_energy_is_picojoule_scale() {
        let t = tech();
        let e = Crossbar::new(&t, 5, 5, 128)
            .metrics_per_traversal()
            .energy_per_op;
        assert!(e > 1e-14 && e < 1e-10, "e = {e:e}");
    }

    #[test]
    fn gate_level_checks() {
        let t = tech();
        let x = Crossbar::new(&t, 2, 3, 16);
        assert_eq!(x.n_in, 2);
        assert_eq!(x.n_out, 3);
        assert_eq!(x.width(), 16);
        let _inv = crate::gate::LogicGate::new(&t, crate::gate::GateKind::Inverter, 1.0);
    }
}
