//! The [`TechParams`] facade: one value that answers every technology
//! question the upper layers ask.

use crate::cell::{CamCell, DffStorage, EdramCell, SramCell};
use crate::device::{DeviceParams, DeviceType};
use crate::node::TechNode;
use crate::wire::{WireParams, WireProjection, WireType};

/// A fully resolved process corner: node + device flavor + temperature +
/// interconnect projection.
///
/// `TechParams` is cheap to copy and is threaded by value through every
/// model in the framework.
///
/// # Examples
///
/// ```
/// use mcpat_tech::{TechNode, DeviceType, TechParams, WireType};
///
/// let tech = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0)
///     .with_projection(mcpat_tech::WireProjection::Conservative);
/// let fo4 = tech.fo4();
/// assert!(fo4 > 5e-12 && fo4 < 100e-12);
/// let wire = tech.wire(WireType::Global);
/// assert!(wire.r_per_m > 0.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TechParams {
    /// Technology node.
    pub node: TechNode,
    /// Device flavor used for logic in this domain.
    pub device_type: DeviceType,
    /// Junction temperature, K.
    pub temperature: f64,
    /// Interconnect projection.
    pub projection: WireProjection,
    /// Resolved device parameters for `device_type`.
    pub device: DeviceParams,
    /// When true, non-critical transistors use long-channel variants,
    /// multiplying their subthreshold leakage by the device's
    /// `long_channel_leakage_reduction` factor.
    pub long_channel_leakage: bool,
    /// Corner-invariant derived constants, recomputed by every
    /// constructor / `with_*` builder. Private so no caller can desync
    /// them from the fields above.
    derived: TechDerived,
}

/// Values that depend only on the corner itself and are hot on the
/// per-candidate solver path: temperature-resolved leakage currents
/// (each hides an `exp`), the NMOS on-resistance, the FO4 delay, and the three
/// wire classes. Caching them here makes `subthreshold_leakage`,
/// `r_eq_n`, `fo4`, and `wire` branch-and-table-free.
///
/// Every cached value is the result of evaluating the *same expression*
/// the uncached accessor used, exactly once — so reads are bit-identical
/// to recomputation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct TechDerived {
    i_off_n_t: f64,
    i_off_p_t: f64,
    r_on_n: f64,
    fo4: f64,
    wire_local: WireParams,
    wire_intermediate: WireParams,
    wire_global: WireParams,
}

impl TechDerived {
    fn compute(
        node: TechNode,
        device: &DeviceParams,
        temperature: f64,
        projection: WireProjection,
    ) -> TechDerived {
        let r_on_n = device.r_on_n();
        // Same operation sequence as the pre-cache `TechParams::fo4`.
        let wn = 1.5 * node.feature_m();
        let wp = 2.0 * wn;
        let r = r_on_n / wn;
        let c_in = device.c_g * (wn + wp);
        let c_self = device.c_d * (wn + wp);
        TechDerived {
            i_off_n_t: device.i_off_n(temperature),
            i_off_p_t: device.i_off_p(temperature),
            r_on_n,
            fo4: 0.69 * r * (c_self + 4.0 * c_in),
            wire_local: WireParams::new(node, WireType::Local, projection),
            wire_intermediate: WireParams::new(node, WireType::Intermediate, projection),
            wire_global: WireParams::new(node, WireType::Global, projection),
        }
    }
}

impl TechParams {
    /// Creates a corner with the aggressive interconnect projection.
    #[must_use]
    pub fn new(node: TechNode, device_type: DeviceType, temperature: f64) -> TechParams {
        let device = DeviceParams::lookup(node, device_type);
        let projection = WireProjection::Aggressive;
        TechParams {
            node,
            device_type,
            temperature,
            projection,
            device,
            long_channel_leakage: false,
            derived: TechDerived::compute(node, &device, temperature, projection),
        }
    }

    /// Recomputes the derived-constant cache after a builder changed one
    /// of the fields it depends on.
    fn refreshed(mut self) -> TechParams {
        self.derived =
            TechDerived::compute(self.node, &self.device, self.temperature, self.projection);
        self
    }

    /// Replaces the interconnect projection.
    #[must_use]
    pub fn with_projection(mut self, projection: WireProjection) -> TechParams {
        self.projection = projection;
        self.refreshed()
    }

    /// Enables long-channel devices on non-critical paths.
    #[must_use]
    pub fn with_long_channel_leakage(mut self, enabled: bool) -> TechParams {
        self.long_channel_leakage = enabled;
        self
    }

    /// Returns the same corner with its supply re-biased to
    /// `scale · Vdd` (true DVFS: drive, leakage, and hence FO4 all move;
    /// see [`DeviceParams::with_vdd_scale`]).
    ///
    /// # Panics
    ///
    /// Panics if the scaled supply falls below the threshold voltage.
    #[must_use]
    pub fn with_vdd_scale(mut self, scale: f64) -> TechParams {
        self.device = self.device.with_vdd_scale(scale);
        self.refreshed()
    }

    /// Returns the same corner with a different device flavor
    /// (e.g. LSTP for a cache array inside an HP chip).
    #[must_use]
    pub fn with_device_type(mut self, device_type: DeviceType) -> TechParams {
        self.device_type = device_type;
        self.device = DeviceParams::lookup(self.node, device_type);
        self.refreshed()
    }

    /// Minimum NMOS width in this process, m.
    #[must_use]
    pub fn min_w_nmos(&self) -> f64 {
        1.5 * self.node.feature_m()
    }

    /// Minimum PMOS width (sized for equal rise/fall drive), m.
    #[must_use]
    pub fn min_w_pmos(&self) -> f64 {
        2.0 * self.min_w_nmos()
    }

    /// Gate capacitance of a transistor of width `w`, F.
    #[must_use]
    pub fn gate_cap(&self, w: f64) -> f64 {
        self.device.c_g * w
    }

    /// Drain capacitance of a transistor of width `w`, F.
    #[must_use]
    pub fn drain_cap(&self, w: f64) -> f64 {
        self.device.c_d * w
    }

    /// Equivalent switching resistance of an NMOS of width `w`, Ω.
    #[must_use]
    pub fn r_eq_n(&self, w: f64) -> f64 {
        self.derived.r_on_n / w
    }

    /// The fanout-of-4 inverter delay of this corner, s.
    ///
    /// This is the canonical speed unit: pipeline depths and achievable
    /// clock rates are expressed in FO4s by the timing roll-up.
    #[must_use]
    pub fn fo4(&self) -> f64 {
        self.derived.fo4
    }

    /// Subthreshold leakage power of a gate with total NMOS width `w_n`
    /// and PMOS width `w_p`, W. On average half of each stack leaks.
    #[must_use]
    pub fn subthreshold_leakage(&self, w_n: f64, w_p: f64) -> f64 {
        let factor = if self.long_channel_leakage {
            self.device.long_channel_leakage_reduction
        } else {
            1.0
        };
        0.5 * factor
            * (self.derived.i_off_n_t * w_n + self.derived.i_off_p_t * w_p)
            * self.device.vdd
    }

    /// Gate-tunneling leakage power for the same widths, W.
    #[must_use]
    pub fn gate_leakage(&self, w_n: f64, w_p: f64) -> f64 {
        0.5 * self.device.i_g_n * (w_n + w_p / 2.0) * self.device.vdd
    }

    /// Total static power of a gate (subthreshold + gate leakage), W.
    #[must_use]
    pub fn static_power(&self, w_n: f64, w_p: f64) -> f64 {
        self.subthreshold_leakage(w_n, w_p) + self.gate_leakage(w_n, w_p)
    }

    /// Wire parameters for a wire class under this corner's projection.
    #[must_use]
    pub fn wire(&self, wire_type: WireType) -> WireParams {
        match wire_type {
            WireType::Local => self.derived.wire_local,
            WireType::Intermediate => self.derived.wire_intermediate,
            WireType::Global => self.derived.wire_global,
        }
    }

    /// The canonical 6T SRAM cell of this node.
    #[must_use]
    pub fn sram_cell(&self) -> SramCell {
        SramCell::new(self.node)
    }

    /// The canonical CAM cell of this node.
    #[must_use]
    pub fn cam_cell(&self) -> CamCell {
        CamCell::new(self.node)
    }

    /// The canonical eDRAM cell of this node.
    #[must_use]
    pub fn edram_cell(&self) -> EdramCell {
        EdramCell::new(self.node)
    }

    /// Flip-flop storage parameters of this corner.
    #[must_use]
    pub fn dff(&self) -> DffStorage {
        DffStorage::new(self.node, &self.device)
    }

    /// Full-swing switching energy of a capacitance `c` at this corner's
    /// supply, J (the ½·C·V² of one transition).
    #[must_use]
    pub fn switch_energy(&self, c: f64) -> f64 {
        0.5 * c * self.device.vdd * self.device.vdd
    }

    /// Short-circuit energy overhead of static CMOS switching, as a
    /// fraction of the capacitive switching energy.
    ///
    /// Follows the Nose–Sakurai observation that the crowbar current
    /// grows with the supply-to-threshold headroom; ≈10% at Vdd/Vth ≈ 5
    /// and negligible as Vdd approaches 2·Vth.
    #[must_use]
    pub fn short_circuit_factor(&self) -> f64 {
        let ratio = self.device.vdd / self.device.vth.max(1e-3);
        (0.02 * (ratio - 2.0)).clamp(0.0, 0.15)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    fn fo4_improves_with_scaling() {
        let mut last = f64::INFINITY;
        for node in TechNode::ALL {
            let t = TechParams::new(node, DeviceType::Hp, 360.0);
            let fo4 = t.fo4();
            assert!(fo4 < last, "{node}: fo4 = {fo4:e}");
            last = fo4;
        }
    }

    #[test]
    fn lstp_is_slower_than_hp() {
        for node in TechNode::ALL {
            let hp = TechParams::new(node, DeviceType::Hp, 360.0);
            let lstp = TechParams::new(node, DeviceType::Lstp, 360.0);
            assert!(lstp.fo4() > hp.fo4());
        }
    }

    #[test]
    fn long_channel_flag_reduces_subthreshold_only() {
        let base = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
        let lc = base.with_long_channel_leakage(true);
        let w = 1e-6;
        assert!(lc.subthreshold_leakage(w, w) < base.subthreshold_leakage(w, w));
        assert!((lc.gate_leakage(w, w) - base.gate_leakage(w, w)).abs() < 1e-18);
    }

    #[test]
    fn device_type_swap_changes_vdd() {
        let hp = TechParams::new(TechNode::N45, DeviceType::Hp, 360.0);
        let as_lstp = hp.with_device_type(DeviceType::Lstp);
        assert!(as_lstp.device.vdd > hp.device.vdd);
        assert_eq!(as_lstp.node, hp.node);
    }

    #[test]
    fn switch_energy_matches_half_cv2() {
        let t = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0);
        let c = 1e-15;
        let e = t.switch_energy(c);
        assert!((e - 0.5 * c * t.device.vdd * t.device.vdd).abs() < 1e-24);
    }

    #[test]
    fn vdd_scaled_corner_is_slower_but_frugal() {
        let nom = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
        let low = nom.with_vdd_scale(0.8);
        assert!(low.fo4() > nom.fo4());
        let w = 1e-6;
        assert!(low.subthreshold_leakage(w, w) < nom.subthreshold_leakage(w, w));
        assert!(low.switch_energy(1e-15) < nom.switch_energy(1e-15));
    }

    #[test]
    fn derived_cache_matches_direct_recomputation() {
        for node in TechNode::ALL {
            for dt in [DeviceType::Hp, DeviceType::Lstp, DeviceType::Lop] {
                for t in [
                    TechParams::new(node, dt, 340.0),
                    TechParams::new(node, dt, 380.0).with_vdd_scale(0.9),
                    TechParams::new(node, DeviceType::Hp, 360.0).with_device_type(dt),
                    TechParams::new(node, dt, 360.0).with_projection(WireProjection::Conservative),
                ] {
                    let d = &t.derived;
                    assert_eq!(
                        d.i_off_n_t.to_bits(),
                        t.device.i_off_n(t.temperature).to_bits()
                    );
                    assert_eq!(
                        d.i_off_p_t.to_bits(),
                        t.device.i_off_p(t.temperature).to_bits()
                    );
                    assert_eq!(d.r_on_n.to_bits(), t.device.r_on_n().to_bits());
                    // The pre-cache fo4 expression, verbatim.
                    let wn = t.min_w_nmos();
                    let wp = t.min_w_pmos();
                    let r = t.r_eq_n(wn);
                    let c_in = t.gate_cap(wn + wp);
                    let c_self = t.drain_cap(wn + wp);
                    let fo4 = 0.69 * r * (c_self + 4.0 * c_in);
                    assert_eq!(d.fo4.to_bits(), fo4.to_bits());
                    for wt in [WireType::Local, WireType::Intermediate, WireType::Global] {
                        let cached = t.wire(wt);
                        let fresh = WireParams::new(t.node, wt, t.projection);
                        assert_eq!(cached.r_per_m.to_bits(), fresh.r_per_m.to_bits());
                        assert_eq!(cached.c_per_m.to_bits(), fresh.c_per_m.to_bits());
                        assert_eq!(cached.pitch.to_bits(), fresh.pitch.to_bits());
                    }
                }
            }
        }
    }

    #[test]
    fn static_power_scale_is_sane() {
        // One minimum inverter at 32 nm HP, 360 K should leak nW-scale.
        let t = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
        let p = t.static_power(t.min_w_nmos(), t.min_w_pmos());
        assert!(p > 1e-10 && p < 1e-6, "p = {p:e}");
    }
}
