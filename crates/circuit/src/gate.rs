//! Static CMOS gates sized by the method of logical effort.
//!
//! McPAT sizes all random logic with logical effort: a gate's delay is
//! `d = τ·(g·h + p)` where `g` is the logical effort of its topology, `h`
//! the electrical fanout (load/input capacitance), `p` its parasitic
//! delay, and `τ` the process time constant. Energy and leakage come from
//! the resulting transistor widths.

use crate::metrics::{CircuitMetrics, StaticPower};
use mcpat_tech::TechParams;

/// The supported gate topologies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GateKind {
    /// A plain inverter.
    Inverter,
    /// An `n`-input NAND.
    Nand(u32),
    /// An `n`-input NOR.
    Nor(u32),
}

impl GateKind {
    /// Logical effort `g` relative to an inverter.
    #[must_use]
    pub fn logical_effort(self) -> f64 {
        match self {
            GateKind::Inverter => 1.0,
            GateKind::Nand(n) => (f64::from(n) + 2.0) / 3.0,
            GateKind::Nor(n) => (2.0 * f64::from(n) + 1.0) / 3.0,
        }
    }

    /// Parasitic delay `p` in units of the inverter parasitic.
    #[must_use]
    pub fn parasitic(self) -> f64 {
        match self {
            GateKind::Inverter => 1.0,
            GateKind::Nand(n) | GateKind::Nor(n) => f64::from(n),
        }
    }

    /// Number of inputs.
    #[must_use]
    pub fn fan_in(self) -> u32 {
        match self {
            GateKind::Inverter => 1,
            GateKind::Nand(n) | GateKind::Nor(n) => n,
        }
    }
}

/// A sized static CMOS gate.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::gate::{GateKind, LogicGate};
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
/// let inv = LogicGate::new(&tech, GateKind::Inverter, 4.0);
/// let nand = LogicGate::new(&tech, GateKind::Nand(2), 4.0);
/// // Same drive, but the NAND presents more input capacitance.
/// assert!(nand.input_cap() > inv.input_cap());
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogicGate {
    kind: GateKind,
    /// Drive strength as a multiple of the minimum inverter.
    size: f64,
    /// Total NMOS width, m.
    w_n: f64,
    /// Total PMOS width, m.
    w_p: f64,
    tech: TechParams,
}

/// Leakage reduction per extra series device in a stack (the stack effect).
const STACK_FACTOR: f64 = 0.2;

impl LogicGate {
    /// Creates a gate of the given topology with drive strength `size`
    /// (multiples of the minimum inverter; clamped to ≥ 1, the minimum
    /// realizable device).
    #[must_use]
    pub fn new(tech: &TechParams, kind: GateKind, size: f64) -> LogicGate {
        let size = if size.is_finite() { size.max(1.0) } else { 1.0 };
        let wn_min = tech.min_w_nmos();
        let wp_min = tech.min_w_pmos();
        // Series stacks are widened to preserve drive.
        let (w_n, w_p) = match kind {
            GateKind::Inverter => (wn_min * size, wp_min * size),
            GateKind::Nand(n) => {
                let n = f64::from(n);
                (wn_min * size * n * n, wp_min * size * n)
            }
            GateKind::Nor(n) => {
                let n = f64::from(n);
                (wn_min * size * n, wp_min * size * n * n)
            }
        };
        LogicGate {
            kind,
            size,
            w_n,
            w_p,
            tech: *tech,
        }
    }

    /// The gate topology.
    #[must_use]
    pub fn kind(&self) -> GateKind {
        self.kind
    }

    /// Drive strength in minimum-inverter multiples.
    #[must_use]
    pub fn size(&self) -> f64 {
        self.size
    }

    /// The process time constant τ (delay of a fanout-of-1 inverter), s.
    #[must_use]
    pub fn tau(tech: &TechParams) -> f64 {
        let wn = tech.min_w_nmos();
        let wp = tech.min_w_pmos();
        0.69 * tech.r_eq_n(wn) * tech.gate_cap(wn + wp)
    }

    /// Capacitance presented to one input, F.
    #[must_use]
    pub fn input_cap(&self) -> f64 {
        let wn_min = self.tech.min_w_nmos();
        let wp_min = self.tech.min_w_pmos();
        self.tech.gate_cap((wn_min + wp_min) * self.size) * self.kind.logical_effort()
    }

    /// Self (parasitic drain) capacitance at the output, F.
    #[must_use]
    pub fn self_cap(&self) -> f64 {
        self.tech.drain_cap(self.w_n + self.w_p) / self.kind.fan_in() as f64
    }

    /// Delay driving an external load `c_load`, s.
    #[must_use]
    pub fn delay(&self, c_load: f64) -> f64 {
        let g = self.kind.logical_effort();
        let h = c_load / self.input_cap();
        let p = self.kind.parasitic();
        Self::tau(&self.tech) * (g * h + p)
    }

    /// Dynamic energy of one output transition driving `c_load`, J,
    /// including the short-circuit (crowbar) overhead of the gate.
    #[must_use]
    pub fn switch_energy(&self, c_load: f64) -> f64 {
        self.tech
            .switch_energy(self.self_cap() + c_load + self.input_cap())
            * (1.0 + self.tech.short_circuit_factor())
    }

    /// Static power of the gate, W (stack effect applied).
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        let stack = match self.kind {
            GateKind::Inverter => 1.0,
            GateKind::Nand(n) | GateKind::Nor(n) => STACK_FACTOR
                .powi(i32::try_from(n).unwrap_or(1) - 1)
                .max(STACK_FACTOR),
        };
        StaticPower {
            subthreshold: self.tech.subthreshold_leakage(self.w_n, self.w_p) * stack,
            gate: self.tech.gate_leakage(self.w_n, self.w_p),
        }
    }

    /// Layout area of the gate, m².
    ///
    /// Transistor widths folded into a standard-cell row of height ≈ 28 F,
    /// with a 2× overhead for diffusion spacing, contacts and routing.
    #[must_use]
    pub fn area(&self) -> f64 {
        let f = self.tech.node.feature_m();
        let cell_height = 28.0 * f;
        let folded_width = (self.w_n + self.w_p) / (cell_height / 2.0) * 2.5 * f;
        2.0 * cell_height * folded_width.max(2.5 * f * self.kind.fan_in() as f64)
    }

    /// Full metrics for one switching event into `c_load`.
    #[must_use]
    pub fn metrics(&self, c_load: f64) -> CircuitMetrics {
        CircuitMetrics {
            area: self.area(),
            delay: self.delay(c_load),
            energy_per_op: self.switch_energy(c_load),
            leakage: self.leakage(),
        }
    }
}

/// A geometrically tapered buffer (inverter) chain driving a large load.
///
/// Stage count is chosen so each stage has electrical fanout ≈ 4, which is
/// delay-optimal for static CMOS.
///
/// Stage sizes form a pure geometric sequence (`1, r, r², …`), so the
/// chain stores only `(n_stages, r)` and materializes each [`LogicGate`]
/// on the fly — a chain is built per candidate inside the array
/// partition sweep's hot loop, and this keeps it allocation-free. The
/// running size is accumulated by the same repeated multiplication the
/// stored-`Vec` representation used, so every derived number is
/// bit-identical.
#[derive(Debug, Clone, Copy)]
pub struct BufferChain {
    n_stages: usize,
    per_stage: f64,
    c_load: f64,
    tech: TechParams,
}

impl BufferChain {
    /// The per-stage fanout the chain is sized for.
    pub const STAGE_EFFORT: f64 = 4.0;

    /// Builds a chain that drives `c_load` starting from a minimum-size
    /// first stage.
    #[must_use]
    pub fn for_load(tech: &TechParams, c_load: f64) -> BufferChain {
        let min_inv = LogicGate::new(tech, GateKind::Inverter, 1.0);
        let c_in = min_inv.input_cap();
        let total_effort = (c_load / c_in).max(1.0);
        let n_stages = (total_effort.ln() / Self::STAGE_EFFORT.ln())
            .ceil()
            .max(1.0) as usize;
        let per_stage = total_effort.powf(1.0 / n_stages as f64);
        BufferChain {
            n_stages,
            per_stage,
            c_load,
            tech: *tech,
        }
    }

    /// Capacitance presented to whatever drives the chain, F.
    #[must_use]
    pub fn input_cap(&self) -> f64 {
        if self.n_stages == 0 {
            return 0.0;
        }
        LogicGate::new(&self.tech, GateKind::Inverter, 1.0).input_cap()
    }

    /// Metrics of one full transition through the chain into the load.
    #[must_use]
    pub fn metrics(&self) -> CircuitMetrics {
        let mut acc = CircuitMetrics::zero();
        let mut size = 1.0;
        for i in 0..self.n_stages {
            let stage = LogicGate::new(&self.tech, GateKind::Inverter, size);
            size *= self.per_stage;
            let load = if i + 1 < self.n_stages {
                LogicGate::new(&self.tech, GateKind::Inverter, size).input_cap()
            } else {
                self.c_load
            };
            acc = acc.in_series(&stage.metrics(load));
        }
        // The load itself still has to be charged by the final stage's
        // energy; `switch_energy` already accounted for it.
        acc
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
    fn fo4_from_gate_model_matches_params_estimate() {
        let t = tech();
        let inv = LogicGate::new(&t, GateKind::Inverter, 1.0);
        let fo4 = inv.delay(4.0 * inv.input_cap());
        // Same order as the facade's estimate (the models differ slightly
        // in which parasitics they count).
        let est = t.fo4();
        assert!(
            fo4 / est > 0.4 && fo4 / est < 2.5,
            "fo4={fo4:e} est={est:e}"
        );
    }

    #[test]
    fn bigger_gates_are_faster_into_fixed_loads() {
        let t = tech();
        let small = LogicGate::new(&t, GateKind::Inverter, 1.0);
        let big = LogicGate::new(&t, GateKind::Inverter, 8.0);
        let load = 100.0 * small.input_cap();
        assert!(big.delay(load) < small.delay(load));
    }

    #[test]
    fn nor_has_worse_logical_effort_than_nand() {
        assert!(GateKind::Nor(2).logical_effort() > GateKind::Nand(2).logical_effort());
    }

    #[test]
    fn stack_effect_reduces_nand_leakage_density() {
        let t = tech();
        let inv = LogicGate::new(&t, GateKind::Inverter, 1.0);
        let nand4 = LogicGate::new(&t, GateKind::Nand(4), 1.0);
        // Per unit width the NAND leaks less despite being physically wider.
        let inv_density = inv.leakage().subthreshold / (inv.w_n + inv.w_p);
        let nand_density = nand4.leakage().subthreshold / (nand4.w_n + nand4.w_p);
        assert!(nand_density < inv_density);
    }

    #[test]
    fn buffer_chain_stage_count_grows_with_load() {
        let t = tech();
        let small = BufferChain::for_load(&t, 10e-15);
        let big = BufferChain::for_load(&t, 10e-12);
        assert!(big.n_stages > small.n_stages);
    }

    #[test]
    fn buffer_chain_beats_single_inverter_on_big_loads() {
        let t = tech();
        let c_load = 1e-12;
        let chain = BufferChain::for_load(&t, c_load);
        let single = LogicGate::new(&t, GateKind::Inverter, 1.0);
        assert!(chain.metrics().delay < single.delay(c_load));
    }

    #[test]
    fn gate_area_is_positive_and_grows_with_size() {
        let t = tech();
        let a1 = LogicGate::new(&t, GateKind::Inverter, 1.0).area();
        let a8 = LogicGate::new(&t, GateKind::Inverter, 8.0).area();
        assert!(a1 > 0.0);
        assert!(a8 > a1);
    }
}
