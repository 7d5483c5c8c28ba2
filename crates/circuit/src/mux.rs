//! Pass-gate multiplexers.
//!
//! Column selection in arrays, operand selection at functional-unit
//! inputs, and way selection after tag match are all n-to-1 multiplexers:
//! a one-hot select bus driving pass transistors whose common output is
//! rebuffered.

use crate::gate::{BufferChain, GateKind, LogicGate};
use crate::metrics::CircuitMetrics;
use mcpat_tech::TechParams;

/// An `n`-to-1 pass-transistor multiplexer with an output buffer, one bit
/// wide. Replicate (`CircuitMetrics::replicated`) for wider datapaths.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::mux::Multiplexer;
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
/// let mux = Multiplexer::new(&tech, 8, 10e-15);
/// let per_word = mux.metrics().replicated(64); // a 64-bit 8:1 mux
/// assert!(per_word.energy_per_op > mux.metrics().energy_per_op);
/// ```
#[derive(Debug, Clone)]
pub struct Multiplexer {
    inputs: usize,
    pass_width: f64,
    out_buffer: BufferChain,
    select_driver: LogicGate,
    tech: TechParams,
}

impl Multiplexer {
    /// Builds an `inputs`-to-1 single-bit mux driving `c_load` farads
    /// (`inputs` clamped to ≥ 1).
    #[must_use]
    pub fn new(tech: &TechParams, inputs: usize, c_load: f64) -> Multiplexer {
        let inputs = inputs.max(1);
        let pass_width = 2.0 * tech.min_w_nmos();
        let out_buffer = BufferChain::for_load(tech, c_load.max(1e-18));
        let select_driver = LogicGate::new(tech, GateKind::Inverter, 2.0);
        Multiplexer {
            inputs,
            pass_width,
            out_buffer,
            select_driver,
            tech: *tech,
        }
    }

    /// Number of data inputs.
    #[must_use]
    pub fn inputs(&self) -> usize {
        self.inputs
    }

    /// Capacitance presented to each data input, F.
    #[must_use]
    pub fn input_cap(&self) -> f64 {
        self.tech.drain_cap(self.pass_width)
    }

    /// Metrics of one select-and-pass operation.
    #[must_use]
    pub fn metrics(&self) -> CircuitMetrics {
        let n = self.inputs as f64;
        // Shared output node sees every pass gate's drain.
        let c_shared = n * self.tech.drain_cap(self.pass_width) + self.out_buffer.input_cap();
        let r_pass = self.tech.r_eq_n(self.pass_width);
        let pass_delay = 0.69 * r_pass * c_shared;
        let buf = self.out_buffer.metrics();
        let sel = self
            .select_driver
            .metrics(self.tech.gate_cap(self.pass_width));

        let gate_leak_width = n * self.pass_width;
        let leakage = buf.leakage
            + sel.leakage.scaled(n)
            + crate::metrics::StaticPower {
                subthreshold: self.tech.subthreshold_leakage(gate_leak_width, 0.0),
                gate: self.tech.gate_leakage(gate_leak_width, 0.0),
            };

        CircuitMetrics {
            area: buf.area + sel.area * n + n * self.pass_width * 5.0 * self.tech.node.feature_m(),
            delay: sel.delay + pass_delay + buf.delay,
            energy_per_op: self.tech.switch_energy(c_shared)
                + buf.energy_per_op
                + sel.energy_per_op,
            leakage,
        }
    }
}

/// Every `n`-to-1 multiplexer that drives one fixed load. The output
/// buffer chain and the select driver depend on the load, not on `n`,
/// so they are sized once; [`MuxFamily::metrics`] then costs a few flops
/// per degree. An array solve builds one family for all its column
/// muxes, which all drive the same load.
///
/// `MuxFamily::new(tech, c_load).metrics(n)` is bit-identical to
/// `Multiplexer::new(tech, n, c_load).metrics()`: each cached value is
/// the same expression, and the per-degree arithmetic runs in the same
/// order.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::mux::{Multiplexer, MuxFamily};
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
/// let family = MuxFamily::new(&tech, 10e-15);
/// let eight = Multiplexer::new(&tech, 8, 10e-15).metrics();
/// assert_eq!(family.metrics(8).delay.to_bits(), eight.delay.to_bits());
/// ```
#[derive(Debug, Clone, Copy)]
pub struct MuxFamily {
    pass_width: f64,
    /// Drain capacitance of one pass gate, F.
    pass_drain_cap: f64,
    /// Pass-gate switching resistance, Ω.
    r_pass: f64,
    /// Input capacitance of the output buffer chain, F.
    buf_input_cap: f64,
    /// Output buffer chain metrics into the load.
    buf: CircuitMetrics,
    /// Select driver metrics into one pass gate.
    sel: CircuitMetrics,
    tech: TechParams,
}

impl MuxFamily {
    /// Sizes the shared parts of every mux driving `c_load` farads.
    #[must_use]
    pub fn new(tech: &TechParams, c_load: f64) -> MuxFamily {
        let pass_width = 2.0 * tech.min_w_nmos();
        let out_buffer = BufferChain::for_load(tech, c_load.max(1e-18));
        let select_driver = LogicGate::new(tech, GateKind::Inverter, 2.0);
        MuxFamily {
            pass_width,
            pass_drain_cap: tech.drain_cap(pass_width),
            r_pass: tech.r_eq_n(pass_width),
            buf_input_cap: out_buffer.input_cap(),
            buf: out_buffer.metrics(),
            sel: select_driver.metrics(tech.gate_cap(pass_width)),
            tech: *tech,
        }
    }

    /// Metrics of one select-and-pass operation of the `inputs`-to-1
    /// member (`inputs` clamped to ≥ 1).
    #[must_use]
    pub fn metrics(&self, inputs: usize) -> CircuitMetrics {
        let n = inputs.max(1) as f64;
        let c_shared = n * self.pass_drain_cap + self.buf_input_cap;
        let pass_delay = 0.69 * self.r_pass * c_shared;

        let gate_leak_width = n * self.pass_width;
        let leakage = self.buf.leakage
            + self.sel.leakage.scaled(n)
            + crate::metrics::StaticPower {
                subthreshold: self.tech.subthreshold_leakage(gate_leak_width, 0.0),
                gate: self.tech.gate_leakage(gate_leak_width, 0.0),
            };

        CircuitMetrics {
            area: self.buf.area
                + self.sel.area * n
                + n * self.pass_width * 5.0 * self.tech.node.feature_m(),
            delay: self.sel.delay + pass_delay + self.buf.delay,
            energy_per_op: self.tech.switch_energy(c_shared)
                + self.buf.energy_per_op
                + self.sel.energy_per_op,
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
        TechParams::new(TechNode::N32, DeviceType::Hp, 360.0)
    }

    #[test]
    fn wider_muxes_are_slower() {
        let t = tech();
        let m2 = Multiplexer::new(&t, 2, 10e-15).metrics();
        let m32 = Multiplexer::new(&t, 32, 10e-15).metrics();
        assert!(m32.delay > m2.delay);
        assert!(m32.energy_per_op > m2.energy_per_op);
    }

    #[test]
    fn replication_models_datapath_width() {
        let t = tech();
        let bit = Multiplexer::new(&t, 4, 5e-15).metrics();
        let word = bit.replicated(64);
        assert!((word.energy_per_op / bit.energy_per_op - 64.0).abs() < 1e-9);
        assert_eq!(word.delay, bit.delay);
    }

    #[test]
    fn family_matches_the_single_mux_bit_for_bit() {
        for node in [TechNode::N90, TechNode::N45, TechNode::N22] {
            for flavor in [DeviceType::Hp, DeviceType::Lstp] {
                let t = TechParams::new(node, flavor, 360.0);
                for c_load in [0.0, 1e-15, 20e-15, 500e-15] {
                    let family = MuxFamily::new(&t, c_load);
                    for n in [0usize, 1, 2, 7, 64, 1024] {
                        let fast = family.metrics(n);
                        let reference = Multiplexer::new(&t, n, c_load).metrics();
                        for (a, b, field) in [
                            (fast.area, reference.area, "area"),
                            (fast.delay, reference.delay, "delay"),
                            (fast.energy_per_op, reference.energy_per_op, "energy"),
                            (
                                fast.leakage.subthreshold,
                                reference.leakage.subthreshold,
                                "sub",
                            ),
                            (fast.leakage.gate, reference.leakage.gate, "gate"),
                        ] {
                            assert_eq!(
                                a.to_bits(),
                                b.to_bits(),
                                "{node:?}/{flavor:?} load {c_load:e} n {n}: {field}"
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn one_input_mux_degenerates_gracefully() {
        let t = tech();
        let m = Multiplexer::new(&t, 1, 1e-15).metrics();
        assert!(m.delay > 0.0);
    }
}
