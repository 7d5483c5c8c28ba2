//! Matrix arbiters.
//!
//! Routers allocate virtual channels and switch ports with matrix
//! arbiters: an `R`-requester arbiter stores `R·(R−1)/2` priority bits
//! and grants via a row of wide NOR gates. This is the Orion-style model
//! McPAT adopts for allocation logic.

use crate::gate::{GateKind, LogicGate};
use crate::metrics::CircuitMetrics;
use mcpat_tech::TechParams;

/// A matrix arbiter among `requesters` inputs.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::arbiter::MatrixArbiter;
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
/// let arb = MatrixArbiter::new(&tech, 5);
/// assert!(arb.metrics().energy_per_op > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct MatrixArbiter {
    requesters: usize,
    grant_gate: LogicGate,
    priority_update_gate: LogicGate,
    tech: TechParams,
}

impl MatrixArbiter {
    /// Builds an arbiter for `requesters` inputs (clamped to ≥ 1).
    #[must_use]
    pub fn new(tech: &TechParams, requesters: usize) -> MatrixArbiter {
        let requesters = requesters.max(1);
        let fan_in = (requesters as u32).clamp(2, 8);
        MatrixArbiter {
            requesters,
            grant_gate: LogicGate::new(tech, GateKind::Nor(fan_in), 2.0),
            priority_update_gate: LogicGate::new(tech, GateKind::Nand(2), 1.0),
            tech: *tech,
        }
    }

    /// Metrics of one arbitration decision.
    #[must_use]
    pub fn metrics(&self) -> CircuitMetrics {
        let r = self.requesters as f64;
        let n_priority_bits = r * (r - 1.0) / 2.0;
        let dff = self.tech.dff();
        let vdd = self.tech.device.vdd;

        let grant = self.grant_gate.metrics(4.0 * self.grant_gate.input_cap());
        let update = self
            .priority_update_gate
            .metrics(self.priority_update_gate.input_cap());

        // One grant gate per requester; priority matrix of DFFs; on each
        // arbitration roughly one requester's row of priority bits updates.
        let energy = grant.energy_per_op * r
            + update.energy_per_op * r
            + dff.write_energy(vdd) * (r - 1.0).max(0.0)
            + dff.clock_energy(vdd) * n_priority_bits;
        let area = grant.area * r + update.area * r + dff.area_per_bit * n_priority_bits;
        let leakage = (grant.leakage + update.leakage).scaled(r)
            + crate::metrics::StaticPower {
                subthreshold: dff.leakage_power(&self.tech.device, self.tech.temperature)
                    * n_priority_bits,
                gate: 0.0,
            };
        CircuitMetrics {
            area,
            delay: grant.delay * 2.0 + update.delay,
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
        TechParams::new(TechNode::N45, DeviceType::Hp, 360.0)
    }

    #[test]
    fn area_grows_quadratically_with_requesters() {
        let t = tech();
        let a4 = MatrixArbiter::new(&t, 4).metrics().area;
        let a16 = MatrixArbiter::new(&t, 16).metrics().area;
        assert!(a16 / a4 > 6.0, "ratio = {}", a16 / a4);
    }

    #[test]
    fn energy_is_sub_picojoule() {
        let t = tech();
        let e = MatrixArbiter::new(&t, 5).metrics().energy_per_op;
        assert!(e > 1e-17 && e < 1e-12, "e = {e:e}");
    }

    #[test]
    fn single_requester_is_fine() {
        let t = tech();
        assert!(MatrixArbiter::new(&t, 1).metrics().delay > 0.0);
    }
}
