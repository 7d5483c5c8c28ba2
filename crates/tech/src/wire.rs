//! Interconnect (metal wire) parameters.
//!
//! McPAT inherits CACTI 6's two interconnect roadmaps: an **aggressive**
//! projection (ideal low-k dielectrics, no barrier penalty) and a
//! **conservative** projection (realistic barrier thickness, dishing, and
//! electron-scattering penalties). Three wire classes are modeled — local,
//! intermediate (semi-global), and global — differing in pitch and aspect
//! ratio. Resistance and capacitance per unit length are derived from the
//! physical geometry rather than tabulated, so the trends across nodes are
//! self-consistent.

use crate::node::TechNode;
use crate::EPS0;
use std::fmt;

/// Metal layer class a signal is routed on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum WireType {
    /// Minimum-pitch wiring inside functional blocks.
    Local,
    /// Semi-global wiring between blocks within a core or cache bank.
    Intermediate,
    /// Top-level wiring spanning the chip (NoC links, clock spines).
    Global,
}

impl WireType {
    /// All wire classes, finest pitch first.
    pub const ALL: [WireType; 3] = [WireType::Local, WireType::Intermediate, WireType::Global];

    /// Wire pitch as a multiple of the drawn feature size.
    #[must_use]
    pub fn pitch_in_f(self) -> f64 {
        match self {
            WireType::Local => 2.5,
            WireType::Intermediate => 4.0,
            WireType::Global => 8.0,
        }
    }

    /// Wire aspect ratio (thickness / width).
    #[must_use]
    pub fn aspect_ratio(self) -> f64 {
        match self {
            WireType::Local => 2.0,
            WireType::Intermediate => 2.2,
            WireType::Global => 2.5,
        }
    }
}

impl fmt::Display for WireType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireType::Local => "local",
            WireType::Intermediate => "intermediate",
            WireType::Global => "global",
        };
        f.write_str(s)
    }
}

/// Interconnect technology projection.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum WireProjection {
    /// Optimistic ITRS projection: ideal low-k, negligible barrier.
    #[default]
    Aggressive,
    /// Realistic projection: finite barrier, dishing, surface scattering.
    Conservative,
}

impl fmt::Display for WireProjection {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            WireProjection::Aggressive => "aggressive",
            WireProjection::Conservative => "conservative",
        };
        f.write_str(s)
    }
}

/// Resolved electrical parameters of one wire class at one node.
///
/// # Examples
///
/// ```
/// use mcpat_tech::{TechNode, WireParams, WireProjection, WireType};
///
/// let w = WireParams::new(TechNode::N45, WireType::Global, WireProjection::Aggressive);
/// // A few hundred ohms and ≈0.2 pF per millimeter is the right ballpark.
/// assert!(w.r_per_m * 1e-3 > 50.0 && w.r_per_m * 1e-3 < 5_000.0);
/// assert!(w.c_per_m * 1e-3 > 0.05e-12 && w.c_per_m * 1e-3 < 1.0e-12);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WireParams {
    /// Wire class.
    pub wire_type: WireType,
    /// Projection used.
    pub projection: WireProjection,
    /// Pitch (width + spacing), m.
    pub pitch: f64,
    /// Conductor width after barrier subtraction, m.
    pub width: f64,
    /// Conductor thickness after dishing/barrier, m.
    pub thickness: f64,
    /// Resistance per unit length, Ω/m.
    pub r_per_m: f64,
    /// Effective switching capacitance per unit length (includes a 1.5×
    /// Miller factor on the coupling component), F/m.
    pub c_per_m: f64,
}

/// Relative permittivity of the inter-metal dielectric.
fn dielectric_k(node: TechNode, projection: WireProjection) -> f64 {
    let aggressive = match node {
        TechNode::N180 => 3.50,
        TechNode::N90 => 2.709,
        TechNode::N65 => 2.303,
        TechNode::N45 => 1.958,
        TechNode::N32 => 1.664,
        TechNode::N22 => 1.414,
    };
    match projection {
        WireProjection::Aggressive => aggressive,
        WireProjection::Conservative => aggressive + 0.5,
    }
}

/// Diffusion-barrier thickness eating into the copper cross-section, m.
fn barrier_thickness(node: TechNode, projection: WireProjection) -> f64 {
    if projection == WireProjection::Aggressive {
        return 0.0;
    }
    let nm = match node {
        TechNode::N180 => 17.0,
        TechNode::N90 => 8.0,
        TechNode::N65 => 6.0,
        TechNode::N45 => 4.5,
        TechNode::N32 => 3.4,
        TechNode::N22 => 2.4,
    };
    nm * 1e-9
}

impl WireParams {
    /// Derives the RC parameters of a wire class at a node under a
    /// projection from its physical geometry.
    #[must_use]
    pub fn new(node: TechNode, wire_type: WireType, projection: WireProjection) -> WireParams {
        let f = node.feature_m();
        let pitch = wire_type.pitch_in_f() * f;
        let drawn_width = pitch / 2.0;
        let spacing = pitch / 2.0;
        let drawn_thickness = wire_type.aspect_ratio() * drawn_width;

        let barrier = barrier_thickness(node, projection);
        let (alpha_scatter, rho, dishing) = match projection {
            WireProjection::Aggressive => (1.0, 1.95e-8, 0.0),
            WireProjection::Conservative => (1.05, 2.20e-8, 0.10),
        };
        let width = (drawn_width - 2.0 * barrier).max(drawn_width * 0.3);
        let thickness = (drawn_thickness * (1.0 - dishing) - barrier).max(drawn_thickness * 0.3);
        let r_per_m = alpha_scatter * rho / (width * thickness);

        let k = dielectric_k(node, projection);
        // Parallel-plate sidewall coupling (×2 neighbours, ×1.5 Miller) plus
        // vertical plates to the layers above/below (ILD thickness ≈ width)
        // plus a constant fringe term.
        let miller = 1.5;
        let c_coupling = miller * 2.0 * EPS0 * k * drawn_thickness / spacing;
        let c_vertical = 2.0 * EPS0 * k * drawn_width / drawn_width;
        let c_fringe = 0.115e-9; // 0.115 fF/µm, empirically constant
        let c_per_m = c_coupling + c_vertical + c_fringe;

        WireParams {
            wire_type,
            projection,
            pitch,
            width,
            thickness,
            r_per_m,
            c_per_m,
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn resistance_grows_as_wires_shrink() {
        let mut last = 0.0;
        for node in TechNode::ALL {
            let w = WireParams::new(node, WireType::Intermediate, WireProjection::Aggressive);
            assert!(w.r_per_m > last, "{node}: r = {}", w.r_per_m);
            last = w.r_per_m;
        }
    }

    #[test]
    fn capacitance_per_length_is_roughly_constant() {
        // Geometry scales but k drops, so C' stays within a factor ~2.
        let vals: Vec<f64> = TechNode::ALL
            .iter()
            .map(|&n| WireParams::new(n, WireType::Global, WireProjection::Aggressive).c_per_m)
            .collect();
        let min = vals.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = vals.iter().cloned().fold(0.0_f64, f64::max);
        assert!(max / min < 2.0, "min {min:e} max {max:e}");
    }

    #[test]
    fn conservative_is_worse_than_aggressive() {
        for node in TechNode::ALL {
            for wt in WireType::ALL {
                let a = WireParams::new(node, wt, WireProjection::Aggressive);
                let c = WireParams::new(node, wt, WireProjection::Conservative);
                assert!(c.r_per_m > a.r_per_m);
                assert!(c.c_per_m > a.c_per_m);
            }
        }
    }

    #[test]
    fn wider_classes_have_lower_resistance() {
        for node in TechNode::ALL {
            let local = WireParams::new(node, WireType::Local, WireProjection::Aggressive);
            let global = WireParams::new(node, WireType::Global, WireProjection::Aggressive);
            assert!(global.r_per_m < local.r_per_m);
        }
    }

    #[test]
    fn ninety_nm_global_wire_is_calibrated() {
        // Sanity-check the absolute scale at 90 nm: global wires should be
        // in the hundreds of Ω/mm and ~0.2 pF/mm range.
        let w = WireParams::new(TechNode::N90, WireType::Global, WireProjection::Aggressive);
        let r_per_mm = w.r_per_m * 1e-3;
        let c_per_mm = w.c_per_m * 1e-3;
        assert!(r_per_mm > 20.0 && r_per_mm < 500.0, "r = {r_per_mm} Ω/mm");
        assert!(
            c_per_mm > 0.1e-12 && c_per_mm < 0.5e-12,
            "c = {c_per_mm:e} F/mm"
        );
    }
}
