//! Whole-network assembly and runtime power.

use crate::bus::Bus;
use crate::link::Link;
use crate::router::{Router, RouterConfig};
use mcpat_array::ArrayError;
use mcpat_circuit::arbiter::MatrixArbiter;
use mcpat_circuit::crossbar::Crossbar;
use mcpat_circuit::metrics::CircuitMetrics;
use mcpat_circuit::metrics::StaticPower;
use mcpat_tech::TechParams;

/// Network topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub enum Topology {
    /// 2D mesh of `x × y` routers (5-port).
    Mesh {
        /// Horizontal routers.
        x: u32,
        /// Vertical routers.
        y: u32,
    },
    /// Ring of `n` routers (3-port).
    Ring {
        /// Router count.
        n: u32,
    },
    /// A single shared bus among `n` agents.
    Bus {
        /// Agent count.
        n: u32,
    },
    /// A full crossbar among `n` agents (the Niagara core↔L2 fabric).
    Crossbar {
        /// Agent count.
        n: u32,
    },
}

impl Topology {
    /// Number of routers (0 for a bus).
    #[must_use]
    pub fn router_count(self) -> u32 {
        match self {
            Topology::Mesh { x, y } => x * y,
            Topology::Ring { n } => n,
            Topology::Bus { .. } | Topology::Crossbar { .. } => 0,
        }
    }

    /// Number of unidirectional links (0 for a bus).
    #[must_use]
    pub fn link_count(self) -> u32 {
        match self {
            // Each mesh edge is two unidirectional links.
            Topology::Mesh { x, y } => 2 * (x * (y - 1) + y * (x - 1)),
            Topology::Ring { n } => 2 * n,
            Topology::Bus { .. } | Topology::Crossbar { .. } => 0,
        }
    }

    /// Average hop count of uniform-random traffic.
    #[must_use]
    #[inline]
    pub fn average_hops(self) -> f64 {
        match self {
            Topology::Mesh { x, y } => (f64::from(x) + f64::from(y)) / 3.0,
            Topology::Ring { n } => f64::from(n) / 4.0,
            Topology::Bus { .. } | Topology::Crossbar { .. } => 1.0,
        }
    }
}

/// NoC configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct NocConfig {
    /// Network topology.
    pub topology: Topology,
    /// Flit width, bits.
    pub flit_bits: u32,
    /// Virtual channels per router port.
    pub vcs_per_port: u32,
    /// Buffers per VC.
    pub buffers_per_vc: u32,
    /// Link length between adjacent routers (≈ tile pitch), m.
    pub link_length: f64,
    /// Network clock, Hz.
    pub clock_hz: f64,
}

impl NocConfig {
    /// Full sanity validation: reports **every** violated invariant into
    /// one [`mcpat_diag::Diagnostics`] pass instead of stopping at the
    /// first.
    #[must_use]
    pub fn validate(&self) -> mcpat_diag::Diagnostics {
        let mut d = mcpat_diag::Diagnostics::new();
        match self.topology {
            Topology::Mesh { x, y } => {
                if x == 0 || y == 0 {
                    d.error(
                        "topology",
                        format!("mesh dimensions {x}x{y} must both be positive"),
                    );
                }
            }
            Topology::Ring { n } | Topology::Bus { n } | Topology::Crossbar { n } => {
                if n == 0 {
                    d.error("topology", "fabric needs at least one endpoint");
                }
            }
        }
        // The switched topologies instantiate routers; validate the
        // router [`build`](NocConfig::build) would derive.
        if matches!(self.topology, Topology::Mesh { .. } | Topology::Ring { .. }) {
            let ports = match self.topology {
                Topology::Mesh { .. } => 5,
                _ => 3,
            };
            RouterConfig {
                ports,
                vcs_per_port: self.vcs_per_port,
                buffers_per_vc: self.buffers_per_vc,
                flit_bits: self.flit_bits,
            }
            .validate_into("router", &mut d);
        } else if self.flit_bits == 0 {
            d.error("flit_bits", "flit width must be positive");
        }
        d.require_positive("link_length", "link length", self.link_length);
        d.require_positive("clock_hz", "network clock", self.clock_hz);
        d
    }

    /// Builds the network model.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrayError`] from the router buffers.
    pub fn build(&self, tech: &TechParams) -> Result<NocModel, ArrayError> {
        let (router, link, bus) = match self.topology {
            Topology::Mesh { .. } | Topology::Ring { .. } => {
                let ports = match self.topology {
                    Topology::Mesh { .. } => 5,
                    _ => 3,
                };
                let rc = RouterConfig {
                    ports,
                    vcs_per_port: self.vcs_per_port,
                    buffers_per_vc: self.buffers_per_vc,
                    flit_bits: self.flit_bits,
                };
                let router = Router::build(tech, &rc)?;
                let link = Link::new(tech, self.flit_bits, self.link_length);
                (Some(router), Some(link), None)
            }
            Topology::Bus { n } => {
                let bus = Bus::new(tech, n, self.flit_bits, self.link_length * f64::from(n));
                (None, None, Some(bus))
            }
            Topology::Crossbar { .. } => {
                // Each agent reaches the central switch over a spoke link.
                let spoke = Link::new(tech, self.flit_bits, self.link_length);
                (None, Some(spoke), None)
            }
        };
        let crossbar = if let Topology::Crossbar { n } = self.topology {
            let fabric = Crossbar::new(tech, n as usize, n as usize, self.flit_bits as usize);
            let arb = MatrixArbiter::new(tech, n as usize);
            Some(fabric.metrics_per_traversal().in_series(&arb.metrics()))
        } else {
            None
        };
        Ok(NocModel {
            config: *self,
            router,
            link,
            bus,
            crossbar,
        })
    }
}

/// Runtime traffic statistics for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct NocStats {
    /// Interval length, s.
    pub interval_s: f64,
    /// Flits injected into the network.
    pub flits: u64,
    /// Average hops per flit (defaults to the topology average if 0).
    pub avg_hops: f64,
}

/// A built network.
#[derive(Debug, Clone)]
pub struct NocModel {
    /// Configuration used.
    pub config: NocConfig,
    /// Router model (switched topologies).
    pub router: Option<Router>,
    /// Link model (switched topologies).
    pub link: Option<Link>,
    /// Bus model (bus topology).
    pub bus: Option<Bus>,
    /// Central-crossbar metrics per traversal (crossbar topology).
    pub crossbar: Option<CircuitMetrics>,
}

impl NocModel {
    /// Energy of moving one flit one hop (router + link), J.
    #[must_use]
    #[inline]
    pub fn energy_per_flit_hop(&self) -> f64 {
        match (&self.router, &self.link, &self.bus, &self.crossbar) {
            (_, Some(l), _, Some(x)) => x.energy_per_op + 2.0 * l.energy_per_flit(),
            (Some(r), Some(l), _, _) => r.energy_per_flit() + l.energy_per_flit(),
            (_, _, Some(b), _) => b.energy_per_transfer(),
            (_, _, _, Some(x)) => x.energy_per_op,
            _ => 0.0,
        }
    }

    /// Total network area, m².
    #[must_use]
    pub fn area(&self) -> f64 {
        let t = self.config.topology;
        match (&self.router, &self.link, &self.bus, &self.crossbar) {
            (_, Some(l), _, Some(x)) => {
                let n = f64::from(match t {
                    Topology::Crossbar { n } => n,
                    _ => 0,
                });
                x.area + 2.0 * n * l.area()
            }
            (Some(r), Some(l), _, _) => {
                r.area() * f64::from(t.router_count()) + l.area() * f64::from(t.link_count())
            }
            (_, _, Some(b), _) => b.area(),
            (_, _, _, Some(x)) => x.area,
            _ => 0.0,
        }
    }

    /// Total network leakage, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        let t = self.config.topology;
        match (&self.router, &self.link, &self.bus, &self.crossbar) {
            (_, Some(l), _, Some(x)) => {
                let n = f64::from(match t {
                    Topology::Crossbar { n } => n,
                    _ => 0,
                });
                x.leakage + l.leakage().scaled(2.0 * n)
            }
            (Some(r), Some(l), _, _) => {
                r.leakage().scaled(f64::from(t.router_count()))
                    + l.leakage().scaled(f64::from(t.link_count()))
            }
            (_, _, Some(b), _) => b.leakage(),
            (_, _, _, Some(x)) => x.leakage,
            _ => StaticPower::zero(),
        }
    }

    /// Runtime dynamic power for the given traffic, W.
    #[must_use]
    #[inline]
    pub fn dynamic_power(&self, stats: &NocStats) -> f64 {
        if stats.interval_s <= 0.0 {
            return 0.0;
        }
        let hops = if stats.avg_hops > 0.0 {
            stats.avg_hops
        } else {
            self.config.topology.average_hops()
        };
        stats.flits as f64 * hops * self.energy_per_flit_hop() / stats.interval_s
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

    fn mesh(x: u32, y: u32) -> NocConfig {
        NocConfig {
            topology: Topology::Mesh { x, y },
            flit_bits: 128,
            vcs_per_port: 4,
            buffers_per_vc: 4,
            link_length: 1.5e-3,
            clock_hz: 2e9,
        }
    }

    #[test]
    fn mesh_counts_are_right() {
        let t = Topology::Mesh { x: 4, y: 4 };
        assert_eq!(t.router_count(), 16);
        assert_eq!(t.link_count(), 48);
    }

    #[test]
    fn bigger_meshes_cost_more() {
        let t = tech();
        let small = mesh(2, 2).build(&t).unwrap();
        let big = mesh(8, 8).build(&t).unwrap();
        assert!(big.area() > 10.0 * small.area());
        assert!(big.leakage().total() > 10.0 * small.leakage().total());
    }

    #[test]
    fn bus_beats_mesh_on_leakage_for_small_counts() {
        let t = tech();
        let bus = NocConfig {
            topology: Topology::Bus { n: 4 },
            ..mesh(2, 2)
        }
        .build(&t)
        .unwrap();
        let m = mesh(2, 2).build(&t).unwrap();
        // A bus has no per-router buffers/allocators, so it leaks far less
        // (its area advantage is marginal once wiring tracks are counted).
        assert!(bus.leakage().total() < m.leakage().total());
        assert!(bus.area() < 3.0 * m.area());
    }

    #[test]
    fn dynamic_power_scales_with_traffic() {
        let t = tech();
        let noc = mesh(4, 4).build(&t).unwrap();
        let low = NocStats {
            interval_s: 1e-3,
            flits: 1_000_000,
            avg_hops: 0.0,
        };
        let high = NocStats {
            interval_s: 1e-3,
            flits: 4_000_000,
            avg_hops: 0.0,
        };
        assert!((noc.dynamic_power(&high) / noc.dynamic_power(&low) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn zero_interval_is_safe() {
        let t = tech();
        let noc = mesh(2, 2).build(&t).unwrap();
        assert_eq!(noc.dynamic_power(&NocStats::default()), 0.0);
    }

    #[test]
    fn crossbar_topology_builds_with_positive_costs() {
        let t = tech();
        let xbar = NocConfig {
            topology: Topology::Crossbar { n: 12 },
            ..mesh(2, 2)
        }
        .build(&t)
        .unwrap();
        assert!(xbar.energy_per_flit_hop() > 0.0);
        assert!(xbar.area() > 0.0);
        assert!(xbar.leakage().total() > 0.0);
        // A 12-agent crossbar is wire-dominated: bigger than a 4-agent bus.
        let bus = NocConfig {
            topology: Topology::Bus { n: 4 },
            ..mesh(2, 2)
        }
        .build(&t)
        .unwrap();
        assert!(xbar.area() > bus.area() * 0.1);
    }

    #[test]
    fn validate_accepts_sane_configs() {
        assert!(!mesh(4, 4).validate().has_errors());
        let bus = NocConfig {
            topology: Topology::Bus { n: 4 },
            ..mesh(2, 2)
        };
        assert!(!bus.validate().has_errors());
    }

    #[test]
    fn validate_collects_every_finding() {
        let cfg = NocConfig {
            topology: Topology::Mesh { x: 0, y: 2 },
            flit_bits: 0,
            vcs_per_port: 0,
            link_length: -1.0,
            ..mesh(2, 2)
        };
        let d = cfg.validate();
        assert!(d.error_count() >= 4, "wanted all findings, got: {d}");
        let paths: Vec<&str> = d.iter().map(|f| f.path.as_str()).collect();
        for p in [
            "topology",
            "router.flit_bits",
            "router.vcs_per_port",
            "link_length",
        ] {
            assert!(paths.contains(&p), "missing {p} in {paths:?}");
        }
    }
}
