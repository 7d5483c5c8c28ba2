//! Optimally repeated wires.
//!
//! Long on-chip wires are broken into segments driven by inverter
//! repeaters. The delay-optimal segment length and repeater size have the
//! classical closed forms; McPAT's optimizer additionally *derates* the
//! repeaters (smaller, sparser) to trade a bounded delay penalty for large
//! energy savings — the "10% delay for 30%+ power" knob the paper
//! describes. Both modes are exposed here.

use crate::gate::{GateKind, LogicGate};
use crate::metrics::{CircuitMetrics, StaticPower};
use mcpat_tech::{TechParams, WireType};

/// A wire of a given class and length driven through sized repeaters.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::repeater::RepeatedWire;
/// use mcpat_tech::{TechNode, DeviceType, TechParams, WireType};
///
/// let tech = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
/// let fast = RepeatedWire::delay_optimal(&tech, WireType::Global, 5e-3);
/// let frugal = RepeatedWire::energy_derated(&tech, WireType::Global, 5e-3, 1.10);
/// assert!(frugal.metrics.delay <= fast.metrics.delay * 1.11);
/// assert!(frugal.metrics.energy_per_op < fast.metrics.energy_per_op);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepeatedWire {
    /// Wire class used.
    pub wire_type: WireType,
    /// Total length, m.
    pub length: f64,
    /// Number of repeater stages.
    pub num_repeaters: usize,
    /// Repeater drive strength (minimum-inverter multiples).
    pub repeater_size: f64,
    /// Resulting metrics for one bit-transition end to end.
    pub metrics: CircuitMetrics,
}

/// Repeater size derating factors swept by `energy_derated`; index 0 is
/// the delay-optimal sizing.
const SIZE_DERATES: [f64; 6] = [1.0, 0.8, 0.6, 0.5, 0.4, 0.3];

/// Segment-spacing derating factors swept by `energy_derated`.
const SPACING_DERATES: [f64; 5] = [1.0, 1.25, 1.5, 2.0, 2.5];

impl RepeatedWire {
    /// Sizes repeaters for minimum delay.
    #[must_use]
    pub fn delay_optimal(tech: &TechParams, wire_type: WireType, length: f64) -> RepeatedWire {
        Self::build(tech, wire_type, length, 1.0, 1.0)
    }

    /// Derates repeaters for energy: repeater size and density are reduced
    /// until the delay reaches `delay_tolerance` × the optimal delay
    /// (e.g. `1.10` allows 10% slower).
    ///
    /// A tolerance below 1.0 (or non-finite) is clamped to 1.0 — the
    /// delay-optimal design always satisfies its own delay.
    #[must_use]
    pub fn energy_derated(
        tech: &TechParams,
        wire_type: WireType,
        length: f64,
        delay_tolerance: f64,
    ) -> RepeatedWire {
        let delay_tolerance = if delay_tolerance.is_finite() {
            delay_tolerance.max(1.0)
        } else {
            1.0
        };
        let optimal = Self::delay_optimal(tech, wire_type, length);
        let budget = optimal.metrics.delay * delay_tolerance;
        let mut best = optimal;
        // Sweep size/spacing derating factors; keep the lowest-energy
        // solution inside the delay budget.
        // lint: allow(L012, RepeatedWire::build is closed-form arithmetic — 30 combinations run in microseconds, no solver)
        for size_derate in SIZE_DERATES {
            // lint: allow(L012, RepeatedWire::build is closed-form arithmetic — 30 combinations run in microseconds, no solver)
            for spacing_derate in SPACING_DERATES {
                let cand = Self::build(tech, wire_type, length, size_derate, spacing_derate);
                if cand.metrics.delay <= budget
                    && cand.metrics.energy_per_op < best.metrics.energy_per_op
                {
                    best = cand;
                }
            }
        }
        best
    }

    /// Builds a repeated wire with explicit derating factors applied to the
    /// closed-form optimal repeater size (`size_derate ≤ 1`) and segment
    /// length (`spacing_derate ≥ 1`).
    #[must_use]
    pub fn build(
        tech: &TechParams,
        wire_type: WireType,
        length: f64,
        size_derate: f64,
        spacing_derate: f64,
    ) -> RepeatedWire {
        let wire = tech.wire(wire_type);
        let min_inv = LogicGate::new(tech, GateKind::Inverter, 1.0);
        let c0 = min_inv.input_cap() + min_inv.self_cap();
        let r0 = tech.r_eq_n(tech.min_w_nmos());

        // Classical optima for a repeated RC line.
        let l_opt = (2.0 * r0 * c0 / (0.38 * wire.r_per_m * wire.c_per_m)).sqrt();
        let s_opt = ((r0 * wire.c_per_m) / (wire.r_per_m * min_inv.input_cap())).sqrt();

        let seg_len = (l_opt * spacing_derate).min(length.max(1e-9));
        let size = (s_opt * size_derate).max(1.0);
        let num_repeaters = (length / seg_len).ceil().max(1.0) as usize;
        let seg_len = length / num_repeaters as f64;

        let repeater = LogicGate::new(tech, GateKind::Inverter, size);
        let c_wire_seg = wire.c_per_m * seg_len;
        let r_wire_seg = wire.r_per_m * seg_len;
        let c_next = repeater.input_cap();

        // Per-segment Elmore delay: driver through its own R, then the
        // distributed wire, into the next repeater's gate.
        let r_drv = tech.r_eq_n(tech.min_w_nmos()) / size;
        let seg_delay = 0.69 * r_drv * (repeater.self_cap() + c_wire_seg + c_next)
            + 0.38 * r_wire_seg * c_wire_seg
            + 0.69 * r_wire_seg * c_next;
        let seg_energy = tech.switch_energy(repeater.self_cap() + c_wire_seg + c_next);

        let k = num_repeaters as f64;
        let metrics = CircuitMetrics {
            area: repeater.area() * k,
            delay: seg_delay * k,
            energy_per_op: seg_energy * k,
            leakage: StaticPower {
                subthreshold: repeater.leakage().subthreshold * k,
                gate: repeater.leakage().gate * k,
            },
        };
        RepeatedWire {
            wire_type,
            length,
            num_repeaters,
            repeater_size: size,
            metrics,
        }
    }

    /// Delay per unit length, s/m (the figure of merit plotted in the
    /// interconnect-projection figure).
    #[must_use]
    pub fn delay_per_m(&self) -> f64 {
        self.metrics.delay / self.length
    }

    /// Energy per unit length per transition, J/m.
    #[must_use]
    pub fn energy_per_m(&self) -> f64 {
        self.metrics.energy_per_op / self.length
    }
}

/// One precomputed repeater prototype of the derating sweep.
#[derive(Debug, Clone, Copy)]
struct RepeaterGate {
    size: f64,
    input_cap: f64,
    self_cap: f64,
    area: f64,
    leak: StaticPower,
}

/// Everything in [`RepeatedWire::build`] that does not depend on the wire
/// *length*: wire RC per metre, the min-inverter constants, the classical
/// `l_opt`/`s_opt` optima (one `sqrt` each), and one sized repeater gate
/// per entry of the derating sweep. Hoisted once per `(corner, wire
/// class)` so a partition sweep evaluating thousands of H-trees pays only
/// the per-length Elmore arithmetic.
///
/// Every cached value is the result of the identical expression the
/// uncached path evaluates, so [`RepeaterInvariants::energy_derated`] is
/// bit-identical to [`RepeatedWire::energy_derated`]
/// (`invariants_match_reference_bit_for_bit` below enforces this).
#[derive(Debug, Clone, Copy)]
pub struct RepeaterInvariants {
    wire_type: WireType,
    r_per_m: f64,
    c_per_m: f64,
    r0: f64,
    l_opt: f64,
    vdd: f64,
    gates: [RepeaterGate; 6],
}

impl RepeaterInvariants {
    /// Hoists the length-independent parts of a repeated-wire build.
    #[must_use]
    pub fn new(tech: &TechParams, wire_type: WireType) -> RepeaterInvariants {
        let wire = tech.wire(wire_type);
        let min_inv = LogicGate::new(tech, GateKind::Inverter, 1.0);
        let c0 = min_inv.input_cap() + min_inv.self_cap();
        let r0 = tech.r_eq_n(tech.min_w_nmos());
        let l_opt = (2.0 * r0 * c0 / (0.38 * wire.r_per_m * wire.c_per_m)).sqrt();
        let s_opt = ((r0 * wire.c_per_m) / (wire.r_per_m * min_inv.input_cap())).sqrt();
        let gates = SIZE_DERATES.map(|size_derate| {
            let size = (s_opt * size_derate).max(1.0);
            let g = LogicGate::new(tech, GateKind::Inverter, size);
            RepeaterGate {
                size,
                input_cap: g.input_cap(),
                self_cap: g.self_cap(),
                area: g.area(),
                leak: g.leakage(),
            }
        });
        RepeaterInvariants {
            wire_type,
            r_per_m: wire.r_per_m,
            c_per_m: wire.c_per_m,
            r0,
            l_opt,
            vdd: tech.device.vdd,
            gates,
        }
    }

    /// Repeater count of a `length` wire at one spacing derate — the
    /// only way the spacing derate enters a build (the same expressions
    /// as [`RepeatedWire::build`]).
    fn repeater_count(&self, length: f64, spacing_derate: f64) -> usize {
        let seg_len = (self.l_opt * spacing_derate).min(length.max(1e-9));
        (length / seg_len).ceil().max(1.0) as usize
    }

    /// Delay and energy of the build with `gate` and `n` repeaters: the
    /// two figures the derating sweep compares.
    fn delay_energy(&self, length: f64, gate: &RepeaterGate, n: usize) -> (f64, f64) {
        let seg_len = length / n as f64;
        let c_wire_seg = self.c_per_m * seg_len;
        let r_wire_seg = self.r_per_m * seg_len;
        let c_next = gate.input_cap;

        let r_drv = self.r0 / gate.size;
        let seg_delay = 0.69 * r_drv * (gate.self_cap + c_wire_seg + c_next)
            + 0.38 * r_wire_seg * c_wire_seg
            + 0.69 * r_wire_seg * c_next;
        // Same operation sequence as `TechParams::switch_energy`.
        let seg_energy = 0.5 * (gate.self_cap + c_wire_seg + c_next) * self.vdd * self.vdd;

        let k = n as f64;
        (seg_delay * k, seg_energy * k)
    }

    /// The fast equivalent of [`RepeatedWire::build`] for one sweep
    /// entry, given its repeater count.
    fn build(&self, length: f64, gate: &RepeaterGate, n: usize) -> RepeatedWire {
        let (delay, energy_per_op) = self.delay_energy(length, gate, n);
        let k = n as f64;
        let metrics = CircuitMetrics {
            area: gate.area * k,
            delay,
            energy_per_op,
            leakage: StaticPower {
                subthreshold: gate.leak.subthreshold * k,
                gate: gate.leak.gate * k,
            },
        };
        RepeatedWire {
            wire_type: self.wire_type,
            length,
            num_repeaters: n,
            repeater_size: gate.size,
            metrics,
        }
    }

    /// The fast equivalent of [`RepeatedWire::energy_derated`]:
    /// bit-identical output, no per-call `sqrt`/`exp`/gate sizing.
    ///
    /// A build depends on the spacing derate only through its repeater
    /// count, so the sweep compares each distinct `(gate, count)` pair
    /// once, in the reference's gate-major order. A skipped pair is an
    /// exact duplicate of one already compared, and a duplicate can never
    /// win under the strict `<` (the best energy only falls). Only the
    /// winner is built in full.
    #[must_use]
    pub fn energy_derated(&self, length: f64, delay_tolerance: f64) -> RepeatedWire {
        let delay_tolerance = if delay_tolerance.is_finite() {
            delay_tolerance.max(1.0)
        } else {
            1.0
        };
        // Counts only fall as the spacing grows, so a duplicate repeats
        // the last count kept (and no build has zero repeaters).
        let mut counts = [0usize; SPACING_DERATES.len()];
        let (mut n_counts, mut last) = (0, 0);
        for spacing_derate in SPACING_DERATES {
            let n = self.repeater_count(length, spacing_derate);
            if n != last {
                if let Some(slot) = counts.get_mut(n_counts) {
                    *slot = n;
                    n_counts += 1;
                }
                last = n;
            }
        }
        let counts = counts.get(..n_counts).unwrap_or(&[]);

        let optimal = self.gates[0];
        let n_opt = self.repeater_count(length, 1.0);
        let (opt_delay, opt_energy) = self.delay_energy(length, &optimal, n_opt);
        let budget = opt_delay * delay_tolerance;
        let (mut best_gate, mut best_n, mut best_energy) = (optimal, n_opt, opt_energy);
        for gate in &self.gates {
            for &n in counts {
                let (delay, energy) = self.delay_energy(length, gate, n);
                if delay <= budget && energy < best_energy {
                    (best_gate, best_n, best_energy) = (*gate, n, energy);
                }
            }
        }
        self.build(length, &best_gate, best_n)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode, WireProjection};

    fn tech() -> TechParams {
        TechParams::new(TechNode::N45, DeviceType::Hp, 360.0)
    }

    #[test]
    fn repeated_beats_unrepeated_on_long_wires() {
        let t = tech();
        let len = 5e-3;
        let rep = RepeatedWire::delay_optimal(&t, WireType::Global, len);
        // The unrepeated distributed-RC bound, 0.38·R·C·L².
        let w = t.wire(WireType::Global);
        let raw = 0.38 * w.r_per_m * w.c_per_m * len * len;
        assert!(rep.metrics.delay < raw);
    }

    #[test]
    fn delay_is_linear_in_length_once_repeated() {
        let t = tech();
        let d1 = RepeatedWire::delay_optimal(&t, WireType::Global, 2e-3)
            .metrics
            .delay;
        let d2 = RepeatedWire::delay_optimal(&t, WireType::Global, 4e-3)
            .metrics
            .delay;
        let ratio = d2 / d1;
        assert!(ratio > 1.8 && ratio < 2.2, "ratio = {ratio}");
    }

    #[test]
    fn derating_saves_energy_within_budget() {
        let t = tech();
        let opt = RepeatedWire::delay_optimal(&t, WireType::Global, 10e-3);
        let der = RepeatedWire::energy_derated(&t, WireType::Global, 10e-3, 1.2);
        assert!(der.metrics.energy_per_op < opt.metrics.energy_per_op);
        assert!(der.metrics.delay <= opt.metrics.delay * 1.2 * (1.0 + 1e-9));
    }

    #[test]
    fn conservative_wires_are_slower() {
        let t = tech();
        let tc = t.with_projection(WireProjection::Conservative);
        let a = RepeatedWire::delay_optimal(&t, WireType::Global, 5e-3);
        let c = RepeatedWire::delay_optimal(&tc, WireType::Global, 5e-3);
        assert!(c.metrics.delay > a.metrics.delay);
    }

    #[test]
    fn global_wire_speed_is_plausible() {
        // Delay-optimal repeated global wires run ≈ 30–150 ps/mm at 45 nm.
        let t = tech();
        let rep = RepeatedWire::delay_optimal(&t, WireType::Global, 1e-3);
        let ps_per_mm = rep.delay_per_m() * 1e12 * 1e-3;
        assert!(ps_per_mm > 10.0 && ps_per_mm < 300.0, "{ps_per_mm} ps/mm");
    }

    #[test]
    fn short_wires_get_one_repeater() {
        let t = tech();
        let rep = RepeatedWire::delay_optimal(&t, WireType::Local, 10e-6);
        assert_eq!(rep.num_repeaters, 1);
    }

    fn assert_same_wire(fast: &RepeatedWire, reference: &RepeatedWire, ctx: &str) {
        assert_eq!(fast.num_repeaters, reference.num_repeaters, "{ctx}: count");
        for (a, b, field) in [
            (fast.repeater_size, reference.repeater_size, "size"),
            (fast.metrics.delay, reference.metrics.delay, "delay"),
            (
                fast.metrics.energy_per_op,
                reference.metrics.energy_per_op,
                "energy",
            ),
            (fast.metrics.area, reference.metrics.area, "area"),
            (
                fast.metrics.leakage.subthreshold,
                reference.metrics.leakage.subthreshold,
                "sub",
            ),
            (
                fast.metrics.leakage.gate,
                reference.metrics.leakage.gate,
                "gate",
            ),
        ] {
            assert_eq!(a.to_bits(), b.to_bits(), "{ctx}: {field} {a:e} vs {b:e}");
        }
    }

    /// The hoisted, deduplicated sweep against the 30-build reference,
    /// including where the repeater counts change: below the 1e-9 m
    /// segment floor, and one ulp around 1×, 2× and 3× `l_opt` × each
    /// spacing derate (where two spacings start to differ in count).
    #[test]
    fn invariants_match_reference_bit_for_bit() {
        for node in [TechNode::N90, TechNode::N45, TechNode::N22] {
            for proj in [WireProjection::Aggressive, WireProjection::Conservative] {
                let t = TechParams::new(node, DeviceType::Hp, 360.0).with_projection(proj);
                for wt in [WireType::Local, WireType::Intermediate, WireType::Global] {
                    let inv = RepeaterInvariants::new(&t, wt);
                    let mut lengths = vec![0.0, 1e-12, 5e-10, 1e-9, 5e-6, 120e-6, 1.7e-3, 12e-3];
                    for sd in SPACING_DERATES {
                        for k in [1.0, 2.0, 3.0] {
                            let edge = inv.l_opt * sd * k;
                            lengths.extend([edge.next_down(), edge, edge.next_up()]);
                        }
                    }
                    for &length in &lengths {
                        for tol in [1.0, 1.1, 1.5, f64::NAN] {
                            assert_same_wire(
                                &inv.energy_derated(length, tol),
                                &RepeatedWire::energy_derated(&t, wt, length, tol),
                                &format!("{node:?}/{proj:?}/{wt:?} len {length:e} tol {tol}"),
                            );
                        }
                    }
                }
            }
        }
    }
}
