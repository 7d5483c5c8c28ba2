//! Storage cell geometry and electrical characteristics.
//!
//! The array model (`mcpat-array`) builds RAM, CAM and eDRAM mats out of
//! these cells; cores additionally use flip-flop based storage for small
//! latch arrays (pipeline registers, FIFOs). Dimensions are expressed in
//! multiples of the drawn feature size `F` so they scale automatically,
//! matching CACTI's `area = k·F²` formulation.

use crate::device::DeviceParams;
use crate::node::TechNode;

/// A 6T SRAM cell.
///
/// # Examples
///
/// ```
/// use mcpat_tech::{SramCell, TechNode};
/// let cell = SramCell::new(TechNode::N65);
/// let f = TechNode::N65.feature_m();
/// assert!((cell.height * cell.width / (f * f) - 146.0).abs() < 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SramCell {
    /// Cell height, m (wordline direction pitch).
    pub height: f64,
    /// Cell width, m (bitline direction pitch).
    pub width: f64,
    /// Access (pass-gate) transistor width, m.
    pub w_access: f64,
    /// Pull-down NMOS width, m.
    pub w_pulldown: f64,
    /// Pull-up PMOS width, m.
    pub w_pullup: f64,
}

impl SramCell {
    /// Canonical 6T cell area in F².
    pub const AREA_F2: f64 = 146.0;

    /// Builds the canonical 6T cell for a node.
    #[must_use]
    pub fn new(node: TechNode) -> SramCell {
        let f = node.feature_m();
        // 146 F² with a ~1.46 aspect ratio: 10 F tall × 14.6 F wide.
        SramCell {
            height: 10.0 * f,
            width: 14.6 * f,
            w_access: 1.31 * f,
            w_pulldown: 2.0 * f,
            w_pullup: 1.23 * f,
        }
    }

    /// Subthreshold + gate leakage power of one cell, W.
    ///
    /// In a 6T cell exactly one NMOS pull-down, one PMOS pull-up and the two
    /// access devices leak at any time; gate leakage flows through the two
    /// on transistors.
    #[must_use]
    pub fn leakage_power(&self, dev: &DeviceParams, t_kelvin: f64) -> f64 {
        let sub = dev.i_off_n(t_kelvin) * (self.w_pulldown + 2.0 * self.w_access)
            + dev.i_off_p(t_kelvin) * self.w_pullup;
        let gate = dev.i_g_n * (self.w_pulldown + self.w_pullup);
        (sub + gate) * dev.vdd
    }

    /// Capacitance one cell contributes to its bitline (drain of the access
    /// transistor), F.
    #[must_use]
    pub fn bitline_cap_contribution(&self, dev: &DeviceParams) -> f64 {
        dev.c_d * self.w_access
    }

    /// Capacitance one cell contributes to its wordline (gates of the two
    /// access transistors), F.
    #[must_use]
    pub fn wordline_cap_contribution(&self, dev: &DeviceParams) -> f64 {
        2.0 * dev.c_g * self.w_access
    }

    /// Read current available to discharge the bitline, A.
    #[must_use]
    pub fn read_current(&self, dev: &DeviceParams) -> f64 {
        // Series access + pull-down stack ≈ half the weaker device's drive.
        0.5 * dev.i_on_n * self.w_access.min(self.w_pulldown)
    }
}

/// A ternary CAM cell (6T storage + comparison network, 10T total).
///
/// CAM mats are used for fully-associative structures: store queues, TLBs,
/// issue-queue wakeup, and reverse-mapped RATs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CamCell {
    /// Cell height, m.
    pub height: f64,
    /// Cell width, m.
    pub width: f64,
    /// Underlying storage sub-cell.
    pub storage: SramCell,
    /// Comparison pull-down width (drives the matchline), m.
    pub w_compare: f64,
}

impl CamCell {
    /// Canonical CAM cell area in F² (≈2.3× the 6T cell).
    pub const AREA_F2: f64 = 338.0;

    /// Builds the canonical CAM cell for a node.
    #[must_use]
    pub fn new(node: TechNode) -> CamCell {
        let f = node.feature_m();
        CamCell {
            height: 13.0 * f,
            width: 26.0 * f,
            storage: SramCell::new(node),
            w_compare: 2.0 * f,
        }
    }

    /// Leakage power of one CAM cell, W (storage plus comparator stack).
    #[must_use]
    pub fn leakage_power(&self, dev: &DeviceParams, t_kelvin: f64) -> f64 {
        self.storage.leakage_power(dev, t_kelvin) + dev.i_off_n(t_kelvin) * self.w_compare * dev.vdd
    }

    /// Capacitance one cell contributes to its matchline, F.
    #[must_use]
    pub fn matchline_cap_contribution(&self, dev: &DeviceParams) -> f64 {
        2.0 * dev.c_d * self.w_compare
    }

    /// Capacitance one cell contributes to a searchline (comparator gates), F.
    #[must_use]
    pub fn searchline_cap_contribution(&self, dev: &DeviceParams) -> f64 {
        2.0 * dev.c_g * self.w_compare
    }
}

/// A logic-process embedded-DRAM (1T1C) cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdramCell {
    /// Cell height, m.
    pub height: f64,
    /// Cell width, m.
    pub width: f64,
    /// Access transistor width, m.
    pub w_access: f64,
    /// Storage capacitance, F.
    pub c_storage: f64,
    /// Retention time at 350 K, s (halves every +10 K).
    pub retention_s: f64,
}

impl EdramCell {
    /// Canonical eDRAM cell area in F².
    pub const AREA_F2: f64 = 33.0;

    /// Builds the canonical eDRAM cell for a node.
    #[must_use]
    pub fn new(node: TechNode) -> EdramCell {
        let f = node.feature_m();
        EdramCell {
            height: 5.5 * f,
            width: 6.0 * f,
            w_access: 1.5 * f,
            c_storage: 20e-15,
            retention_s: 40e-6,
        }
    }

    /// Retention time at an arbitrary temperature, s.
    #[must_use]
    pub fn retention_at(&self, t_kelvin: f64) -> f64 {
        self.retention_s * 2f64.powf((350.0 - t_kelvin) / 10.0)
    }
}

/// Flip-flop based storage, used for small latch arrays (pipeline
/// registers, small FIFOs, rename checkpoints) where decoded random access
/// is unnecessary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DffStorage {
    /// Area per stored bit, m².
    pub area_per_bit: f64,
    /// Data-input capacitance per bit, F.
    pub c_in: f64,
    /// Clock-pin capacitance per bit, F.
    pub c_clock: f64,
    /// Internal switched capacitance per write toggle, F.
    pub c_internal: f64,
    /// Total leaking transistor width per bit, m.
    pub leak_width: f64,
}

impl DffStorage {
    /// Area of one flip-flop bit in F² (a ~24-transistor standard cell).
    pub const AREA_F2: f64 = 1050.0;

    /// Builds the flip-flop storage parameters for a node.
    #[must_use]
    pub fn new(node: TechNode, dev: &DeviceParams) -> DffStorage {
        let f = node.feature_m();
        let min_width = 1.5 * f; // minimum standard-cell transistor width
        DffStorage {
            area_per_bit: Self::AREA_F2 * f * f,
            c_in: 2.0 * min_width * dev.c_g,
            c_clock: 2.0 * min_width * dev.c_g,
            c_internal: 8.0 * min_width * (dev.c_g + dev.c_d),
            leak_width: 10.0 * min_width,
        }
    }

    /// Energy of one data toggle (write of a changing bit), J.
    #[must_use]
    pub fn write_energy(&self, vdd: f64) -> f64 {
        0.5 * (self.c_in + self.c_internal) * vdd * vdd
    }

    /// Energy drawn from the clock per cycle per bit (clock pin only), J.
    #[must_use]
    pub fn clock_energy(&self, vdd: f64) -> f64 {
        0.5 * self.c_clock * vdd * vdd
    }

    /// Leakage power per stored bit, W.
    #[must_use]
    pub fn leakage_power(&self, dev: &DeviceParams, t_kelvin: f64) -> f64 {
        // Half the devices leak (complementary logic), split N/P evenly.
        let w = self.leak_width / 2.0;
        (dev.i_off_n(t_kelvin) * w / 2.0 + dev.i_off_p(t_kelvin) * w / 2.0 + dev.i_g_n * w / 2.0)
            * dev.vdd
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::device::DeviceType;

    fn sram_area(node: TechNode) -> f64 {
        let c = SramCell::new(node);
        c.height * c.width
    }

    #[test]
    fn sram_cell_area_scales_quadratically() {
        let a90 = sram_area(TechNode::N90);
        let a45 = sram_area(TechNode::N45);
        assert!((a90 / a45 - 4.0).abs() < 0.01);
    }

    #[test]
    fn cam_cell_is_bigger_than_sram_cell() {
        for node in TechNode::ALL {
            let cam = CamCell::new(node);
            assert!(cam.height * cam.width > 2.0 * sram_area(node));
        }
    }

    #[test]
    fn edram_cell_is_denser_than_sram() {
        for node in TechNode::ALL {
            let edram = EdramCell::new(node);
            assert!(edram.height * edram.width < sram_area(node) / 4.0);
        }
    }

    #[test]
    fn sram_leakage_is_positive_and_grows_with_t() {
        let dev = DeviceParams::lookup(TechNode::N32, DeviceType::Hp);
        let cell = SramCell::new(TechNode::N32);
        let p_cold = cell.leakage_power(&dev, 300.0);
        let p_hot = cell.leakage_power(&dev, 380.0);
        assert!(p_cold > 0.0);
        assert!(p_hot > 2.0 * p_cold);
    }

    #[test]
    fn sram_cell_leakage_magnitude_is_sane() {
        // A 65 nm HP 6T cell leaks on the order of tens of nW at 360 K;
        // a 1 MB array would then leak on the order of a watt or less.
        let dev = DeviceParams::lookup(TechNode::N65, DeviceType::Hp);
        let cell = SramCell::new(TechNode::N65);
        let p = cell.leakage_power(&dev, 360.0);
        assert!(p > 1e-10 && p < 1e-6, "leak = {p:e} W");
    }

    #[test]
    fn dff_write_energy_is_femtojoules() {
        let dev = DeviceParams::lookup(TechNode::N45, DeviceType::Hp);
        let dff = DffStorage::new(TechNode::N45, &dev);
        let e = dff.write_energy(dev.vdd);
        assert!(e > 1e-17 && e < 1e-13, "e = {e:e} J");
    }

    #[test]
    fn edram_retention_halves_per_10k() {
        let cell = EdramCell::new(TechNode::N45);
        let r350 = cell.retention_at(350.0);
        let r360 = cell.retention_at(360.0);
        assert!((r350 / r360 - 2.0).abs() < 1e-9);
    }
}
