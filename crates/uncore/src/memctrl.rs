//! Integrated memory controller: front-end transaction queues and
//! scheduling, back-end engine, and the off-chip PHY.
//!
//! Queue structures are analytical (array models); the PHY is empirical,
//! parameterized by bandwidth, in line with McPAT's treatment.

use mcpat_array::{ArrayError, ArraySpec, OptTarget, Ports, SolvedArray};
use mcpat_circuit::metrics::StaticPower;
use mcpat_tech::TechParams;

/// Memory controller configuration.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct MemCtrlConfig {
    /// Independent channels.
    pub channels: u32,
    /// Data bus width per channel, bits.
    pub bus_bits: u32,
    /// Peak bandwidth per channel, bytes/s.
    pub peak_bw_per_channel: f64,
    /// Read queue depth per channel.
    pub read_queue_depth: u32,
    /// Write queue depth per channel.
    pub write_queue_depth: u32,
    /// Physical address bits.
    pub paddr_bits: u32,
    /// Override for the per-channel PHY standby power, W
    /// (`None` = the default DDR-class value; FB-DIMM-class serial
    /// interfaces burn much more).
    #[serde(default)]
    pub phy_standby_override_w: Option<f64>,
}

impl Default for MemCtrlConfig {
    fn default() -> MemCtrlConfig {
        MemCtrlConfig {
            channels: 2,
            bus_bits: 64,
            peak_bw_per_channel: 6.4e9,
            read_queue_depth: 32,
            write_queue_depth: 32,
            paddr_bits: 40,
            phy_standby_override_w: None,
        }
    }
}

/// Runtime traffic for one interval.
#[derive(Debug, Clone, Copy, PartialEq, Default, serde::Serialize, serde::Deserialize)]
pub struct MemCtrlStats {
    /// Interval length, s.
    pub interval_s: f64,
    /// Bytes read from DRAM.
    pub bytes_read: u64,
    /// Bytes written to DRAM.
    pub bytes_written: u64,
}

/// PHY + pad energy per off-chip bit at 90 nm, J/bit
/// (≈20 mW/Gbps, split between controller-side and I/O).
const PHY_ENERGY_PER_BIT_90NM: f64 = 40e-12;

/// Scheduler random-logic energy per transaction relative to one queue
/// access.
const SCHEDULER_FACTOR: f64 = 2.0;

/// A built memory controller.
#[derive(Debug, Clone)]
pub struct MemCtrl {
    /// Configuration echoed.
    pub config: MemCtrlConfig,
    /// Per-channel read transaction queue.
    pub read_queue: SolvedArray,
    /// Per-channel write transaction queue.
    pub write_queue: SolvedArray,
    /// PHY energy per transferred bit, J.
    pub phy_energy_per_bit: f64,
    /// PHY standby power per channel, W.
    pub phy_standby_per_channel: f64,
    /// PHY + pad area per channel, m².
    pub phy_area_per_channel: f64,
}

impl MemCtrlConfig {
    /// Reports every configuration problem into `diags`, with field
    /// paths rooted under `path`.
    pub fn validate_into(&self, path: &str, diags: &mut mcpat_diag::Diagnostics) {
        let at = |field: &str| mcpat_diag::join_path(path, field);
        if self.channels == 0 {
            diags.error(
                at("channels"),
                "memory controller needs at least one channel",
            );
        }
        if self.bus_bits == 0 {
            diags.error(at("bus_bits"), "data bus must be at least one bit wide");
        }
        // Range checks record relative paths re-rooted on merge, so the
        // joined path is only built for a finding (this runs on every
        // DSE clock probe).
        let mut bw = mcpat_diag::Diagnostics::new();
        bw.require_positive(
            "peak_bw_per_channel",
            "per-channel bandwidth",
            self.peak_bw_per_channel,
        );
        diags.merge_under(path, bw);
        if self.read_queue_depth == 0 || self.write_queue_depth == 0 {
            diags.warning(
                at("read_queue_depth"),
                "zero-depth transaction queues are modeled as single registers",
            );
        }
        if self.paddr_bits == 0 || self.paddr_bits > 64 {
            diags.error(
                at("paddr_bits"),
                format!(
                    "physical address width {} must be in 1..=64",
                    self.paddr_bits
                ),
            );
        }
        if let Some(w) = self.phy_standby_override_w {
            let mut phy = mcpat_diag::Diagnostics::new();
            phy.require_nonnegative("phy_standby_override_w", "PHY standby power", w);
            diags.merge_under(path, phy);
        }
    }
}

impl MemCtrl {
    /// Warning diagnostics from the queue arrays the solver could only
    /// place by relaxing its constraints.
    #[must_use]
    pub fn relaxation_warnings(&self) -> mcpat_diag::Diagnostics {
        [&self.read_queue, &self.write_queue]
            .iter()
            .filter_map(|a| a.relaxation_warning())
            .collect()
    }

    /// Builds the memory controller.
    ///
    /// # Errors
    ///
    /// Propagates [`ArrayError`] from the queue arrays.
    pub fn build(tech: &TechParams, config: &MemCtrlConfig) -> Result<MemCtrl, ArrayError> {
        // A queue entry holds address + a line of data + control.
        let entry_bits = config.paddr_bits + 512 + 16;
        let ports = Ports {
            rw: 0,
            read: 1,
            write: 1,
            search: 0,
        };
        let read_queue = ArraySpec::table(u64::from(config.read_queue_depth.max(1)), entry_bits)
            .with_ports(ports)
            .named("mc-read-queue")
            .solve(tech, OptTarget::EnergyDelay)?;
        let write_queue = ArraySpec::table(u64::from(config.write_queue_depth.max(1)), entry_bits)
            .with_ports(ports)
            .named("mc-write-queue")
            .solve(tech, OptTarget::EnergyDelay)?;

        let scale = tech.node.scale_from_90nm();
        // PHY energy improves roughly linearly with scaling; standby and
        // area are per-channel empirical values calibrated at 90 nm.
        let phy_energy_per_bit = PHY_ENERGY_PER_BIT_90NM * (0.3 + 0.7 * scale);
        let phy_standby_per_channel = config
            .phy_standby_override_w
            .unwrap_or(0.6 * (0.3 + 0.7 * scale));
        let phy_area_per_channel = 6.0e-6 * scale; // 6 mm² at 90 nm

        Ok(MemCtrl {
            config: *config,
            read_queue,
            write_queue,
            phy_energy_per_bit,
            phy_standby_per_channel,
            phy_area_per_channel,
        })
    }

    /// Total controller area, m².
    #[must_use]
    pub fn area(&self) -> f64 {
        let ch = f64::from(self.config.channels);
        (self.read_queue.area + self.write_queue.area + self.phy_area_per_channel) * ch
    }

    /// Total leakage + PHY standby, W.
    #[must_use]
    pub fn leakage(&self) -> StaticPower {
        let ch = f64::from(self.config.channels);
        (self.read_queue.leakage + self.write_queue.leakage).scaled(ch)
            + StaticPower::new(self.phy_standby_per_channel * ch, 0.0)
    }

    /// Runtime dynamic power, W.
    #[must_use]
    #[inline]
    pub fn dynamic_power(&self, stats: &MemCtrlStats) -> f64 {
        if stats.interval_s <= 0.0 {
            return 0.0;
        }
        let line_bytes = 64.0;
        let reads = stats.bytes_read as f64 / line_bytes;
        let writes = stats.bytes_written as f64 / line_bytes;
        let queue_e = reads
            * (self.read_queue.write_energy + self.read_queue.read_energy)
            * (1.0 + SCHEDULER_FACTOR)
            + writes
                * (self.write_queue.write_energy + self.write_queue.read_energy)
                * (1.0 + SCHEDULER_FACTOR);
        let bits = (stats.bytes_read + stats.bytes_written) as f64 * 8.0;
        (queue_e + bits * self.phy_energy_per_bit) / stats.interval_s
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::{DeviceType, TechNode};

    fn tech() -> TechParams {
        TechParams::new(TechNode::N65, DeviceType::Hp, 360.0)
    }

    #[test]
    fn memctrl_builds_with_positive_costs() {
        let mc = MemCtrl::build(&tech(), &MemCtrlConfig::default()).unwrap();
        assert!(mc.area() > 0.0);
        assert!(mc.leakage().total() > 0.0);
    }

    #[test]
    fn saturated_channel_burns_watts() {
        // 6.4 GB/s × 2 channels at ~20 pJ/bit ≈ 2 W of PHY power.
        let mc = MemCtrl::build(&tech(), &MemCtrlConfig::default()).unwrap();
        let bytes = mc.config.peak_bw_per_channel * f64::from(mc.config.channels);
        let p = mc.dynamic_power(&MemCtrlStats {
            interval_s: 1.0,
            bytes_read: (bytes * 0.6) as u64,
            bytes_written: (bytes * 0.4) as u64,
        });
        assert!(p > 0.5 && p < 20.0, "{p} W");
    }

    #[test]
    fn dynamic_power_is_linear_in_traffic() {
        let mc = MemCtrl::build(&tech(), &MemCtrlConfig::default()).unwrap();
        let s1 = MemCtrlStats {
            interval_s: 1.0,
            bytes_read: 1 << 30,
            bytes_written: 0,
        };
        let s2 = MemCtrlStats {
            interval_s: 1.0,
            bytes_read: 2 << 30,
            bytes_written: 0,
        };
        let r = mc.dynamic_power(&s2) / mc.dynamic_power(&s1);
        assert!((r - 2.0).abs() < 1e-9);
    }

    #[test]
    fn more_channels_cost_more_standby() {
        let t = tech();
        let two = MemCtrl::build(
            &t,
            &MemCtrlConfig {
                channels: 2,
                ..Default::default()
            },
        )
        .unwrap();
        let four = MemCtrl::build(
            &t,
            &MemCtrlConfig {
                channels: 4,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(four.leakage().total() > two.leakage().total());
        assert!(four.area() > two.area());
    }
}
