//! Tag comparators.
//!
//! Set-associative tag matching, store-queue address checks, and branch
//! target tag checks all reduce to an equality comparator: per-bit XNOR
//! stages feeding an AND reduction tree.

use crate::gate::{GateKind, LogicGate};
use crate::metrics::CircuitMetrics;
use mcpat_tech::TechParams;

/// A `width`-bit equality comparator.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::comparator::TagComparator;
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
/// let cmp = TagComparator::new(&tech, 36);
/// assert!(cmp.metrics().delay > 0.0);
/// ```
#[derive(Debug, Clone)]
pub struct TagComparator {
    width: u32,
    xnor_stage: LogicGate,
    and_gate: LogicGate,
    tree_depth: u32,
}

impl TagComparator {
    /// Builds a comparator for `width`-bit tags (clamped to ≥ 1).
    #[must_use]
    pub fn new(tech: &TechParams, width: u32) -> TagComparator {
        let width = width.max(1);
        // XNOR built from 2 NAND2-equivalents; AND tree of NAND2/NOR2 pairs.
        let xnor_stage = LogicGate::new(tech, GateKind::Nand(2), 1.0);
        let and_gate = LogicGate::new(tech, GateKind::Nand(2), 1.0);
        let tree_depth = (f64::from(width)).log2().ceil() as u32;
        TagComparator {
            width,
            xnor_stage,
            and_gate,
            tree_depth,
        }
    }

    /// Tag width in bits.
    #[must_use]
    pub fn width(&self) -> u32 {
        self.width
    }

    /// Metrics of one comparison.
    #[must_use]
    pub fn metrics(&self) -> CircuitMetrics {
        let load = self.and_gate.input_cap();
        // Two gate levels realize the XNOR, then `tree_depth` AND levels.
        let xnor = self
            .xnor_stage
            .metrics(load)
            .in_series(&self.xnor_stage.metrics(load));
        let and_level = self.and_gate.metrics(load);

        let w = f64::from(self.width);
        // Tree has width-1 internal AND nodes; XNORs: one per bit, each two
        // gate-equivalents.
        let area = xnor.area * w + and_level.area * (w - 1.0).max(0.0);
        // On a typical compare roughly half the bits toggle.
        let energy =
            0.5 * w * xnor.energy_per_op + 0.5 * (w - 1.0).max(0.0) * and_level.energy_per_op;
        let leakage = xnor.leakage.scaled(w) + and_level.leakage.scaled((w - 1.0).max(0.0));
        CircuitMetrics {
            area,
            delay: xnor.delay + and_level.delay * f64::from(self.tree_depth),
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
    fn delay_grows_logarithmically() {
        let t = tech();
        let d8 = TagComparator::new(&t, 8).metrics().delay;
        let d64 = TagComparator::new(&t, 64).metrics().delay;
        let d512 = TagComparator::new(&t, 512).metrics().delay;
        // Each 8× widening adds the same tree increment.
        assert!(((d64 - d8) - (d512 - d64)).abs() < (d64 - d8) * 0.5);
    }

    #[test]
    fn energy_grows_linearly() {
        let t = tech();
        let e16 = TagComparator::new(&t, 16).metrics().energy_per_op;
        let e64 = TagComparator::new(&t, 64).metrics().energy_per_op;
        let ratio = e64 / e16;
        assert!(ratio > 3.0 && ratio < 5.0, "ratio = {ratio}");
    }

    #[test]
    fn one_bit_comparator_works() {
        let t = tech();
        let m = TagComparator::new(&t, 1).metrics();
        assert!(m.delay > 0.0 && m.area > 0.0);
    }
}
