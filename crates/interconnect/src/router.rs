//! Virtual-channel router model.

use mcpat_array::{ArrayError, ArraySpec, OptTarget, Ports, SolvedArray};
use mcpat_circuit::arbiter::MatrixArbiter;
use mcpat_circuit::crossbar::Crossbar;
use mcpat_circuit::metrics::{CircuitMetrics, StaticPower};
use mcpat_tech::TechParams;

/// Router microarchitecture parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RouterConfig {
    /// Physical ports (5 for a 2D mesh: N/S/E/W + local).
    pub ports: u32,
    /// Virtual channels per port.
    pub vcs_per_port: u32,
    /// Flit buffers per VC.
    pub buffers_per_vc: u32,
    /// Flit width, bits.
    pub flit_bits: u32,
}

impl Default for RouterConfig {
    fn default() -> RouterConfig {
        RouterConfig {
            ports: 5,
            vcs_per_port: 4,
            buffers_per_vc: 4,
            flit_bits: 128,
        }
    }
}

impl RouterConfig {
    /// Reports every microarchitectural problem into `diags`, with field
    /// paths rooted under `path`.
    pub fn validate_into(&self, path: &str, diags: &mut mcpat_diag::Diagnostics) {
        let at = |field: &str| mcpat_diag::join_path(path, field);
        if self.ports < 2 {
            diags.error(
                at("ports"),
                format!("a router needs at least 2 ports, got {}", self.ports),
            );
        }
        if self.vcs_per_port == 0 {
            diags.error(at("vcs_per_port"), "need at least one virtual channel");
        }
        if self.buffers_per_vc == 0 {
            diags.error(at("buffers_per_vc"), "need at least one buffer per VC");
        }
        if self.flit_bits == 0 {
            diags.error(at("flit_bits"), "flit width must be positive");
        }
    }
}

/// A built router.
#[derive(Debug, Clone)]
pub struct Router {
    /// Configuration used.
    pub config: RouterConfig,
    /// Input buffer array (one instance per port).
    pub input_buffer: SolvedArray,
    /// Crossbar metrics per traversal.
    pub crossbar: CircuitMetrics,
    /// VC allocator metrics per allocation.
    pub vc_allocator: CircuitMetrics,
    /// Switch allocator metrics per allocation.
    pub switch_allocator: CircuitMetrics,
}

impl Router {
    /// Builds the router model.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrayError`] from the buffer array.
    pub fn build(tech: &TechParams, config: &RouterConfig) -> Result<Router, ArrayError> {
        let entries = u64::from(config.vcs_per_port) * u64::from(config.buffers_per_vc);
        let input_buffer = ArraySpec::table(entries.max(2), config.flit_bits)
            .with_ports(Ports::reg_file(1, 1))
            .named("router-input-buffer")
            .solve(tech, OptTarget::EnergyDelay)?;

        let xbar = Crossbar::new(
            tech,
            config.ports as usize,
            config.ports as usize,
            config.flit_bits as usize,
        );
        // VC allocation arbitrates among all VCs competing for an output
        // VC; switch allocation among ports.
        let vc_arb = MatrixArbiter::new(tech, (config.ports * config.vcs_per_port) as usize);
        let sw_arb = MatrixArbiter::new(tech, config.ports as usize);

        Ok(Router {
            config: *config,
            input_buffer,
            crossbar: xbar.metrics_per_traversal(),
            vc_allocator: vc_arb.metrics(),
            switch_allocator: sw_arb.metrics(),
        })
    }

    /// Energy of one flit transiting this router (buffer write + read,
    /// allocation, crossbar traversal), J.
    #[must_use]
    #[inline]
    pub fn energy_per_flit(&self) -> f64 {
        self.input_buffer.write_energy
            + self.input_buffer.read_energy
            + self.vc_allocator.energy_per_op
            + self.switch_allocator.energy_per_op
            + self.crossbar.energy_per_op
    }

    /// Router area (all ports), m².
    #[must_use]
    pub fn area(&self) -> f64 {
        let p = f64::from(self.config.ports);
        self.input_buffer.area * p
            + self.crossbar.area
            + self.vc_allocator.area * p
            + self.switch_allocator.area
    }

    /// Router leakage (all ports), W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        let p = f64::from(self.config.ports);
        self.input_buffer.leakage.scaled(p)
            + self.crossbar.leakage
            + self.vc_allocator.leakage.scaled(p)
            + self.switch_allocator.leakage
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
    fn router_builds_with_positive_costs() {
        let r = Router::build(&tech(), &RouterConfig::default()).unwrap();
        assert!(r.energy_per_flit() > 0.0);
        assert!(r.area() > 0.0);
        assert!(r.leakage().total() > 0.0);
    }

    #[test]
    fn wider_flits_cost_more_energy() {
        let t = tech();
        let narrow = Router::build(
            &t,
            &RouterConfig {
                flit_bits: 64,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let wide = Router::build(
            &t,
            &RouterConfig {
                flit_bits: 256,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        assert!(wide.energy_per_flit() > 2.0 * narrow.energy_per_flit());
    }

    #[test]
    fn more_vcs_mean_more_buffer_leakage() {
        let t = tech();
        let few = Router::build(
            &t,
            &RouterConfig {
                vcs_per_port: 2,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        let many = Router::build(
            &t,
            &RouterConfig {
                vcs_per_port: 8,
                ..RouterConfig::default()
            },
        )
        .unwrap();
        assert!(many.leakage().total() > few.leakage().total());
    }

    #[test]
    fn validate_rejects_degenerate_routers() {
        let mut d = mcpat_diag::Diagnostics::new();
        RouterConfig::default().validate_into("router", &mut d);
        assert!(!d.has_errors(), "{d}");
        let broken = RouterConfig {
            ports: 1,
            buffers_per_vc: 0,
            ..RouterConfig::default()
        };
        let mut d = mcpat_diag::Diagnostics::new();
        broken.validate_into("router", &mut d);
        assert_eq!(d.error_count(), 2, "{d}");
    }

    #[test]
    fn flit_energy_is_picojoule_scale() {
        let r = Router::build(&tech(), &RouterConfig::default()).unwrap();
        let pj = r.energy_per_flit() * 1e12;
        assert!(pj > 0.5 && pj < 500.0, "{pj} pJ");
    }
}
