//! Dynamic voltage and frequency scaling.
//!
//! McPAT supports chips with multiple clock and voltage domains; the
//! companion capability exposed here scales an evaluated power result to
//! a different (V, f) operating point using the first-order laws the
//! paper's power model implies:
//!
//! * dynamic power ∝ V² · f;
//! * subthreshold leakage ∝ V (supply on the leaking stacks; DIBL
//!   sensitivity is not modeled — a documented simplification);
//! * gate leakage ∝ V.
//!
//! The voltage floor is the retention limit: points below
//! `MIN_VDD_SCALE` are rejected because the cells no longer hold state.

use crate::power::{ChipPower, ChipPowerItem};
use crate::processor::Processor;
use crate::stats::ChipStats;

/// Lowest supported supply scale (retention limit).
pub const MIN_VDD_SCALE: f64 = 0.6;

/// One DVFS operating point, relative to nominal.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DvfsPoint {
    /// Supply scale (1.0 = nominal).
    pub vdd_scale: f64,
    /// Frequency scale (1.0 = nominal).
    pub freq_scale: f64,
}

impl DvfsPoint {
    /// The nominal operating point.
    #[must_use]
    pub fn nominal() -> DvfsPoint {
        DvfsPoint {
            vdd_scale: 1.0,
            freq_scale: 1.0,
        }
    }

    /// A conventional DVFS ladder: frequency tracks voltage linearly
    /// (the alpha-power-law approximation for V ≫ Vt).
    #[must_use]
    pub fn ladder(vdd_scale: f64) -> DvfsPoint {
        DvfsPoint {
            vdd_scale,
            freq_scale: vdd_scale,
        }
    }

    /// Whether the point is electrically valid.
    #[must_use]
    pub fn is_valid(&self) -> bool {
        self.vdd_scale >= MIN_VDD_SCALE && self.vdd_scale <= 1.2 && self.freq_scale > 0.0
    }
}

/// A power result rescaled to a DVFS point.
#[derive(Debug, Clone)]
pub struct DvfsResult {
    /// The operating point.
    pub point: DvfsPoint,
    /// Rescaled power breakdown.
    pub power: ChipPower,
    /// Relative performance (≈ frequency scale for core-bound work).
    pub relative_performance: f64,
}

impl DvfsResult {
    /// Energy per unit of work relative to nominal at the same workload
    /// (power ratio over performance ratio).
    #[must_use]
    pub fn relative_energy_per_op(&self, nominal_power: f64) -> f64 {
        (self.power.total() / nominal_power) / self.relative_performance
    }
}

/// Rescales a chip power result to an operating point.
///
/// Returns `None` for invalid points (below retention or non-positive
/// frequency).
#[must_use]
pub fn scale_power(power: &ChipPower, point: DvfsPoint) -> Option<ChipPower> {
    if !point.is_valid() {
        return None;
    }
    let dyn_k = point.vdd_scale * point.vdd_scale * point.freq_scale;
    let leak_k = point.vdd_scale;
    let items = power
        .items
        .iter()
        .map(|i| ChipPowerItem {
            name: i.name,
            dynamic: i.dynamic * dyn_k,
            leakage: i.leakage.scaled(leak_k),
        })
        .collect();
    // The per-unit core breakdown scales by the same laws.
    let core_detail = mcpat_mcore::core::CorePower {
        items: power
            .core_detail
            .items
            .iter()
            .map(|i| mcpat_mcore::core::PowerItem {
                name: i.name,
                dynamic: i.dynamic * dyn_k,
                leakage: i.leakage.scaled(leak_k),
            })
            .collect(),
    };
    Some(ChipPower { items, core_detail })
}

impl Processor {
    /// Evaluates runtime power at a DVFS point.
    ///
    /// Returns `None` for invalid points.
    #[must_use]
    pub fn runtime_power_at(&self, stats: &ChipStats, point: DvfsPoint) -> Option<DvfsResult> {
        let nominal = self.runtime_power(stats);
        let power = scale_power(&nominal, point)?;
        Some(DvfsResult {
            point,
            power,
            relative_performance: point.freq_scale,
        })
    }

    /// Sweeps a DVFS ladder and returns the valid points, highest
    /// voltage first.
    #[must_use]
    pub fn dvfs_sweep(&self, stats: &ChipStats, steps: usize) -> Vec<DvfsResult> {
        let mut out = Vec::new();
        for i in 0..steps {
            let v = 1.0 - i as f64 * (1.0 - MIN_VDD_SCALE) / (steps.max(2) - 1) as f64;
            if let Some(r) = self.runtime_power_at(stats, DvfsPoint::ladder(v)) {
                out.push(r);
            }
        }
        out
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use crate::ProcessorConfig;

    fn chip_and_stats() -> (Processor, ChipStats) {
        let cfg = ProcessorConfig::niagara2();
        let chip = Processor::build(&cfg).unwrap();
        let stats = ChipStats::peak(1e-3, 8, cfg.clock_hz, 2, 1);
        (chip, stats)
    }

    #[test]
    fn nominal_point_is_identity() {
        let (chip, stats) = chip_and_stats();
        let base = chip.runtime_power(&stats);
        let r = chip.runtime_power_at(&stats, DvfsPoint::nominal()).unwrap();
        assert!((r.power.total() - base.total()).abs() < 1e-9);
    }

    #[test]
    fn core_detail_scales_consistently_with_items() {
        let (chip, stats) = chip_and_stats();
        let base = chip.runtime_power(&stats);
        let r = chip
            .runtime_power_at(&stats, DvfsPoint::ladder(0.7))
            .unwrap();
        let base_core: f64 = base.core_detail.items.iter().map(|i| i.dynamic).sum();
        let low_core: f64 = r.power.core_detail.items.iter().map(|i| i.dynamic).sum();
        assert!((low_core / base_core - 0.7f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn lower_voltage_saves_cubic_dynamic_power() {
        let (chip, stats) = chip_and_stats();
        let base = chip.runtime_power(&stats);
        let half = chip
            .runtime_power_at(&stats, DvfsPoint::ladder(0.7))
            .unwrap();
        let dyn_ratio = half.power.dynamic() / base.dynamic();
        assert!((dyn_ratio - 0.7f64.powi(3)).abs() < 1e-9);
    }

    #[test]
    fn dvfs_improves_energy_per_op() {
        let (chip, stats) = chip_and_stats();
        let base = chip.runtime_power(&stats);
        let low = chip
            .runtime_power_at(&stats, DvfsPoint::ladder(0.7))
            .unwrap();
        assert!(low.relative_energy_per_op(base.total()) < 1.0);
    }

    #[test]
    fn below_retention_is_rejected() {
        let (chip, stats) = chip_and_stats();
        assert!(chip
            .runtime_power_at(&stats, DvfsPoint::ladder(0.4))
            .is_none());
    }

    #[test]
    fn sweep_is_monotone_in_power() {
        let (chip, stats) = chip_and_stats();
        let sweep = chip.dvfs_sweep(&stats, 5);
        assert!(sweep.len() >= 4);
        for pair in sweep.windows(2) {
            assert!(pair[1].power.total() < pair[0].power.total());
        }
    }
}
