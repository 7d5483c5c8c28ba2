//! MOSFET device parameters per technology node and device flavor.
//!
//! McPAT follows the ITRS roadmap and distinguishes three transistor
//! flavors per node. The tables in this module are transcriptions of the
//! public CACTI/McPAT technology data, lightly regularized; see DESIGN.md
//! for the calibration caveats. Per-width quantities use SI units
//! (A/m and F/m), which conveniently coincide numerically with the
//! traditional µA/µm and fF/µm·10⁻⁹ engineering units.

use crate::node::TechNode;
use crate::T_REF;
use std::fmt;

/// ITRS transistor flavor.
///
/// # Examples
///
/// ```
/// use mcpat_tech::{DeviceType, DeviceParams, TechNode};
///
/// let hp = DeviceParams::lookup(TechNode::N32, DeviceType::Hp);
/// let lstp = DeviceParams::lookup(TechNode::N32, DeviceType::Lstp);
/// // LSTP devices leak orders of magnitude less than HP devices.
/// assert!(lstp.i_off_n_ref < hp.i_off_n_ref / 100.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum DeviceType {
    /// High performance: maximum drive current, highest leakage.
    /// Used for cores and latency-critical logic.
    Hp,
    /// Low standby power: high threshold voltage, minimal subthreshold
    /// leakage, much slower. Used for large caches.
    Lstp,
    /// Low operating power: reduced supply voltage, intermediate leakage.
    /// Used when dynamic power dominates.
    Lop,
}

impl DeviceType {
    /// All flavors, in roadmap order.
    pub const ALL: [DeviceType; 3] = [DeviceType::Hp, DeviceType::Lstp, DeviceType::Lop];
}

impl fmt::Display for DeviceType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DeviceType::Hp => "HP",
            DeviceType::Lstp => "LSTP",
            DeviceType::Lop => "LOP",
        };
        f.write_str(s)
    }
}

/// Fully resolved transistor parameters for one (node, flavor) pair.
///
/// Obtained from [`DeviceParams::lookup`]; all downstream circuit models
/// consume these numbers and nothing else about the process.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DeviceParams {
    /// Nominal supply voltage, V.
    pub vdd: f64,
    /// Saturation threshold voltage, V.
    pub vth: f64,
    /// Physical (printed) gate length, m.
    pub l_phy: f64,
    /// NMOS saturation drive current per width, A/m.
    pub i_on_n: f64,
    /// PMOS saturation drive current per width, A/m.
    pub i_on_p: f64,
    /// NMOS subthreshold leakage per width at 300 K, A/m.
    pub i_off_n_ref: f64,
    /// NMOS gate leakage per width, A/m (temperature-insensitive).
    pub i_g_n: f64,
    /// Gate capacitance per width (ideal + overlap + fringe), F/m.
    pub c_g: f64,
    /// Drain (junction + overlap) capacitance per width, F/m.
    pub c_d: f64,
    /// Leakage reduction factor when a long-channel variant of the device
    /// is used instead (unitless multiplier < 1 on `i_off`).
    pub long_channel_leakage_reduction: f64,
    /// Temperature slope of subthreshold leakage: `i_off(T) = ref ·
    /// exp((T − 300) / t_slope)`. A slope of ≈ 43.4 K yields the classic
    /// 10× increase per 100 K used by CACTI's tabulated currents.
    pub t_slope: f64,
}

/// PMOS/NMOS drive-current ratio assumed throughout the framework.
const P_TO_N_DRIVE_RATIO: f64 = 0.5;

/// Temperature slope (K) giving 10× leakage per 100 K.
const DEFAULT_T_SLOPE: f64 = 43.429_448;

impl DeviceParams {
    /// Looks up the tabulated parameters for a node/flavor pair.
    ///
    /// # Examples
    ///
    /// ```
    /// use mcpat_tech::{DeviceParams, DeviceType, TechNode};
    /// let d = DeviceParams::lookup(TechNode::N90, DeviceType::Hp);
    /// assert!((d.vdd - 1.2).abs() < 1e-9);
    /// ```
    #[must_use]
    pub fn lookup(node: TechNode, flavor: DeviceType) -> DeviceParams {
        // Columns: vdd, vth, l_phy(nm), i_on_n(µA/µm), i_off_n(µA/µm @300K),
        //          i_g_n(µA/µm), c_g(fF/µm), c_d(fF/µm), long-channel factor.
        let row: [f64; 9] = match (flavor, node) {
            (DeviceType::Hp, TechNode::N180) => {
                [1.65, 0.42, 100.0, 700.0, 5e-3, 1e-4, 1.90, 1.25, 0.80]
            }
            (DeviceType::Hp, TechNode::N90) => {
                [1.2, 0.24, 37.0, 1077.0, 6e-2, 5e-3, 1.00, 0.74, 0.48]
            }
            (DeviceType::Hp, TechNode::N65) => {
                [1.1, 0.22, 25.0, 1197.0, 1.0e-1, 2e-2, 0.83, 0.62, 0.42]
            }
            (DeviceType::Hp, TechNode::N45) => {
                [1.0, 0.18, 18.0, 1420.0, 1.8e-1, 5e-2, 0.75, 0.55, 0.33]
            }
            (DeviceType::Hp, TechNode::N32) => {
                [0.9, 0.21, 13.0, 1630.0, 2.5e-1, 8e-2, 0.68, 0.50, 0.28]
            }
            (DeviceType::Hp, TechNode::N22) => {
                [0.8, 0.20, 9.0, 2000.0, 3.7e-1, 1.2e-1, 0.60, 0.45, 0.24]
            }
            (DeviceType::Lstp, TechNode::N180) => {
                [1.8, 0.55, 120.0, 350.0, 1e-5, 1e-6, 1.80, 1.10, 0.90]
            }
            (DeviceType::Lstp, TechNode::N90) => {
                [1.3, 0.49, 53.0, 465.0, 2e-5, 2e-5, 1.20, 0.80, 0.60]
            }
            (DeviceType::Lstp, TechNode::N65) => {
                [1.25, 0.50, 38.0, 519.0, 3e-5, 3e-5, 1.00, 0.70, 0.55]
            }
            (DeviceType::Lstp, TechNode::N45) => {
                [1.15, 0.50, 28.0, 666.0, 4e-5, 4e-5, 0.90, 0.62, 0.50]
            }
            (DeviceType::Lstp, TechNode::N32) => {
                [1.05, 0.48, 20.0, 798.0, 5e-5, 5e-5, 0.80, 0.56, 0.45]
            }
            (DeviceType::Lstp, TechNode::N22) => {
                [0.95, 0.45, 14.0, 900.0, 8e-5, 8e-5, 0.70, 0.50, 0.40]
            }
            (DeviceType::Lop, TechNode::N180) => {
                [1.2, 0.34, 110.0, 420.0, 1e-3, 1e-5, 1.60, 1.05, 0.85]
            }
            (DeviceType::Lop, TechNode::N90) => {
                [0.9, 0.29, 45.0, 563.0, 5e-3, 2e-3, 1.10, 0.77, 0.55]
            }
            (DeviceType::Lop, TechNode::N65) => {
                [0.8, 0.28, 32.0, 573.0, 8e-3, 4e-3, 0.90, 0.65, 0.50]
            }
            (DeviceType::Lop, TechNode::N45) => {
                [0.7, 0.25, 22.0, 748.0, 1.2e-2, 7e-3, 0.80, 0.58, 0.42]
            }
            (DeviceType::Lop, TechNode::N32) => {
                [0.6, 0.22, 16.0, 916.0, 2.0e-2, 1.2e-2, 0.72, 0.52, 0.36]
            }
            (DeviceType::Lop, TechNode::N22) => {
                [0.55, 0.20, 11.0, 1100.0, 3.0e-2, 2.0e-2, 0.65, 0.47, 0.30]
            }
        };
        let [vdd, vth, l_phy_nm, i_on_n, i_off_n_ref, i_g_n, c_g_f, c_d_f, lcl] = row;
        DeviceParams {
            vdd,
            vth,
            l_phy: l_phy_nm * 1e-9,
            i_on_n,
            i_on_p: i_on_n * P_TO_N_DRIVE_RATIO,
            i_off_n_ref,
            i_g_n,
            c_g: c_g_f * 1e-9,
            c_d: c_d_f * 1e-9,
            long_channel_leakage_reduction: lcl,
            t_slope: DEFAULT_T_SLOPE,
        }
    }

    /// NMOS subthreshold leakage per width at temperature `t_kelvin`, A/m.
    ///
    /// Exponential interpolation matching CACTI's tabulated behaviour
    /// (≈10× per 100 K).
    #[must_use]
    pub fn i_off_n(&self, t_kelvin: f64) -> f64 {
        self.i_off_n_ref * ((t_kelvin - T_REF) / self.t_slope).exp()
    }

    /// PMOS subthreshold leakage per width at temperature `t_kelvin`, A/m.
    ///
    /// PMOS devices leak slightly less than NMOS for the same width; McPAT
    /// uses the NMOS value scaled by the drive ratio.
    #[must_use]
    pub fn i_off_p(&self, t_kelvin: f64) -> f64 {
        self.i_off_n(t_kelvin) * P_TO_N_DRIVE_RATIO
    }

    /// Returns a copy of these parameters re-biased to `scale · Vdd`.
    ///
    /// Drive current follows the alpha-power law
    /// `I_on ∝ (V − Vth)^1.3`, subthreshold leakage drops roughly
    /// linearly with the supply (DIBL), and gate leakage falls
    /// super-linearly; capacitances are bias-independent to first order.
    ///
    /// The scaled supply is clamped to stay 5% above the threshold
    /// voltage — below that the device would no longer switch and the
    /// drive model loses meaning. (`ProcessorConfig::validate` rejects
    /// scales that would hit the clamp.)
    #[must_use]
    pub fn with_vdd_scale(&self, scale: f64) -> DeviceParams {
        let scale = if scale.is_finite() { scale } else { 1.0 };
        let vdd_new = (self.vdd * scale).max(self.vth * 1.05 + 1e-6);
        // Leakage terms scale with the supply actually applied.
        let scale = vdd_new / self.vdd;
        let alpha = 1.3;
        let drive = ((vdd_new - self.vth) / (self.vdd - self.vth)).powf(alpha);
        DeviceParams {
            vdd: vdd_new,
            i_on_n: self.i_on_n * drive,
            i_on_p: self.i_on_p * drive,
            i_off_n_ref: self.i_off_n_ref * scale,
            i_g_n: self.i_g_n * scale * scale,
            ..*self
        }
    }

    /// Effective switching resistance of a 1 m wide NMOS, Ω·m.
    ///
    /// Uses the classical `R = Vdd / I_eff` with `I_eff ≈ I_on / 2`
    /// (the average of the drain current over the output transition),
    /// which reproduces realistic FO4 delays.
    #[must_use]
    pub fn r_on_n(&self) -> f64 {
        self.vdd / (self.i_on_n * 0.5)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn vdd_decreases_with_scaling_for_hp() {
        let mut last = f64::INFINITY;
        for node in TechNode::ALL {
            let d = DeviceParams::lookup(node, DeviceType::Hp);
            assert!(d.vdd <= last, "vdd must be non-increasing");
            last = d.vdd;
        }
    }

    #[test]
    fn drive_current_increases_with_scaling_for_hp() {
        let mut last = 0.0;
        for node in TechNode::ALL {
            let d = DeviceParams::lookup(node, DeviceType::Hp);
            assert!(d.i_on_n > last);
            last = d.i_on_n;
        }
    }

    #[test]
    fn flavor_ordering_holds_at_every_node() {
        for node in TechNode::ALL {
            let hp = DeviceParams::lookup(node, DeviceType::Hp);
            let lstp = DeviceParams::lookup(node, DeviceType::Lstp);
            let lop = DeviceParams::lookup(node, DeviceType::Lop);
            // HP drives hardest and leaks most; LSTP leaks least;
            // LOP has the lowest Vdd.
            assert!(hp.i_on_n > lstp.i_on_n);
            assert!(hp.i_off_n_ref > lop.i_off_n_ref);
            assert!(lop.i_off_n_ref > lstp.i_off_n_ref);
            assert!(lop.vdd < hp.vdd);
            assert!(lstp.vdd >= hp.vdd);
        }
    }

    #[test]
    fn leakage_temperature_scaling_is_10x_per_100k() {
        let d = DeviceParams::lookup(TechNode::N45, DeviceType::Hp);
        let ratio = d.i_off_n(400.0) / d.i_off_n(300.0);
        assert!((ratio - 10.0).abs() < 0.1, "ratio = {ratio}");
    }

    #[test]
    fn long_channel_reduces_leakage() {
        for node in TechNode::ALL {
            for flavor in DeviceType::ALL {
                let d = DeviceParams::lookup(node, flavor);
                assert!(d.long_channel_leakage_reduction > 0.0);
                assert!(d.long_channel_leakage_reduction < 1.0);
            }
        }
    }

    #[test]
    fn vdd_scaling_slows_devices_and_cuts_leakage() {
        let d = DeviceParams::lookup(TechNode::N45, DeviceType::Hp);
        let low = d.with_vdd_scale(0.8);
        assert!(low.vdd < d.vdd);
        assert!(low.i_on_n < d.i_on_n, "drive must drop");
        assert!(low.r_on_n() > d.r_on_n(), "devices get slower");
        assert!(low.i_off_n_ref < d.i_off_n_ref);
        assert!(low.i_g_n < d.i_g_n);
    }

    #[test]
    fn vdd_scaling_clamps_sub_threshold_bias() {
        let d = DeviceParams::lookup(TechNode::N45, DeviceType::Hp);
        let scaled = d.with_vdd_scale(0.15);
        assert!(scaled.vdd > d.vth, "supply must stay above threshold");
        let wild = d.with_vdd_scale(f64::NAN);
        assert!(
            (wild.vdd - d.vdd).abs() < 1e-12,
            "NaN scale falls back to nominal"
        );
    }

    #[test]
    fn fo4_scale_is_plausible() {
        // A rough FO4 estimate: 0.69 · R_on · (C_self + 4·C_in) for a
        // minimum inverter with Wp = 2·Wn = 2 µm equivalent width.
        let d = DeviceParams::lookup(TechNode::N90, DeviceType::Hp);
        let w = 1e-6;
        let r = d.r_on_n() / w;
        let c_in = 3.0 * w * d.c_g;
        let c_self = 3.0 * w * d.c_d;
        let fo4 = 0.69 * r * (c_self + 4.0 * c_in);
        // Published 90 nm HP FO4 is ≈ 20–35 ps.
        assert!(fo4 > 10e-12 && fo4 < 50e-12, "fo4 = {fo4:e}");
    }
}
