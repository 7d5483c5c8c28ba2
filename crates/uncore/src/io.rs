//! Generic off-chip I/O interfaces (SerDes-style ports).
//!
//! Whole-chip validation targets publish an "I/O" power bucket covering
//! DRAM pins, coherence links, PCIe-class ports and miscellaneous pads.
//! McPAT treats these empirically: power is proportional to provisioned
//! bandwidth with a standby floor.

use mcpat_circuit::metrics::StaticPower;
use mcpat_tech::TechParams;

/// An off-chip interface block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OffChipIo {
    /// Provisioned bandwidth (both directions), bytes/s.
    pub bandwidth: f64,
    /// Energy per transferred bit, J.
    pub energy_per_bit: f64,
    /// Standby (bias/clocking) power, W.
    pub standby_power: f64,
    /// Pad + SerDes area, m².
    pub area: f64,
}

/// SerDes energy per bit at 90 nm (≈15 mW/Gbps).
const IO_ENERGY_PER_BIT_90NM: f64 = 25e-12;

impl OffChipIo {
    /// Builds an interface provisioned for `bandwidth` bytes/s.
    #[must_use]
    pub fn new(tech: &TechParams, bandwidth: f64) -> OffChipIo {
        // Degenerate bandwidths clamp to zero so every derived figure
        // stays finite; validation reports them separately.
        let bandwidth = if bandwidth.is_finite() {
            bandwidth.max(0.0)
        } else {
            0.0
        };
        let scale = tech.node.scale_from_90nm();
        let gbps = bandwidth / 1e9 * 8.0;
        OffChipIo {
            bandwidth,
            energy_per_bit: IO_ENERGY_PER_BIT_90NM * (0.3 + 0.7 * scale),
            standby_power: 0.035 * gbps * (0.3 + 0.7 * scale),
            area: 0.12e-6 * gbps * scale, // 0.12 mm² per Gbps at 90 nm
        }
    }

    /// Power at a given utilization of the provisioned bandwidth, W.
    #[must_use]
    #[inline]
    pub fn power_at_utilization(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.standby_power + u * self.energy_per_bit * self.bandwidth * 8.0
    }

    /// Peak power (fully utilized), W.
    #[must_use]
    pub fn peak_power(&self) -> f64 {
        self.power_at_utilization(1.0)
    }

    /// Standby contribution expressed as leakage for aggregation, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        StaticPower::new(self.standby_power, 0.0)
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    #[test]
    fn io_power_scales_with_bandwidth_and_utilization() {
        let t = TechParams::new(TechNode::N90, DeviceType::Hp, 360.0);
        let small = OffChipIo::new(&t, 5e9);
        let big = OffChipIo::new(&t, 20e9);
        assert!(big.peak_power() > 3.0 * small.peak_power());
        assert!(small.power_at_utilization(0.5) < small.peak_power());
        assert!(small.power_at_utilization(0.0) >= small.standby_power);
    }

    #[test]
    fn niagara_class_io_is_around_ten_watts() {
        // Niagara provisioned ≈25 GB/s of DRAM + misc I/O and published
        // ≈13 W for the bucket.
        let t = TechParams::new(TechNode::N90, DeviceType::Hp, 360.0);
        let io = OffChipIo::new(&t, 25e9);
        let p = io.peak_power();
        assert!(p > 3.0 && p < 30.0, "{p} W");
    }
}
