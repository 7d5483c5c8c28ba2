//! Hierarchical row decoders.
//!
//! Array wordlines are selected by a two-level structure: 2-bit NAND
//! pre-decoders whose outputs run across the array edge, followed by a
//! final NOR/NAND row gate plus wordline driver per row. The same
//! structure decodes register identifiers in RAM-based rename tables and
//! register files.

use crate::gate::{BufferChain, GateKind, LogicGate};
use crate::metrics::CircuitMetrics;
use mcpat_tech::TechParams;

/// A row decoder selecting 1 of `num_rows` outputs and driving a wordline
/// load per selected row.
///
/// # Examples
///
/// ```
/// use mcpat_circuit::decoder::RowDecoder;
/// use mcpat_tech::{TechNode, DeviceType, TechParams};
///
/// let tech = TechParams::new(TechNode::N65, DeviceType::Hp, 360.0);
/// let dec = RowDecoder::new(&tech, 256, 50e-15);
/// assert!(dec.metrics().delay > 0.0);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct RowDecoder {
    num_rows: usize,
    /// All predecoders are identically sized 2-input NANDs, so one
    /// prototype plus a count replaces the per-candidate `Vec` the
    /// partition sweep used to allocate on every evaluation.
    predecoder: LogicGate,
    num_predecoders: u32,
    row_gate: LogicGate,
    wordline_driver: BufferChain,
    tech: TechParams,
}

impl RowDecoder {
    /// Builds a decoder for `num_rows` rows (clamped to ≥ 1), each
    /// presenting `c_wordline` farads of wordline load.
    #[must_use]
    pub fn new(tech: &TechParams, num_rows: usize, c_wordline: f64) -> RowDecoder {
        let num_rows = num_rows.max(1);
        let address_bits = (num_rows.max(2) as f64).log2().ceil() as u32;
        // One 2-bit (4-output) predecoder per address-bit pair.
        let num_predecoders = address_bits.div_ceil(2);
        let predecoder = LogicGate::new(tech, GateKind::Nand(2), 2.0);
        // Final row gate combines predecoder outputs.
        let fan_in = num_predecoders.clamp(2, 4);
        let row_gate = LogicGate::new(tech, GateKind::Nand(fan_in), 1.0);
        let wordline_driver = BufferChain::for_load(tech, c_wordline.max(1e-18));
        RowDecoder {
            num_rows,
            predecoder,
            num_predecoders,
            row_gate,
            wordline_driver,
            tech: *tech,
        }
    }

    /// Metrics of one decode operation (one row fires).
    #[must_use]
    pub fn metrics(&self) -> CircuitMetrics {
        // Delay path: predecoder → predecode wire (ignored, short) →
        // row gate → wordline driver.
        // The predecoder output loads: num_rows/4 row-gate inputs hang off
        // each predecode line.
        let rows_per_line = (self.num_rows as f64 / 4.0).max(1.0);
        let predecode_load = rows_per_line * self.row_gate.input_cap();
        let pre = if self.num_predecoders == 0 {
            CircuitMetrics::zero()
        } else {
            self.predecoder.metrics(predecode_load)
        };
        let row = self.row_gate.metrics(self.wordline_driver.input_cap());
        let driver = self.wordline_driver.metrics();

        // Energy: all predecoders switch; one predecode line per group
        // toggles; one row gate and one driver fire. Area: predecoders +
        // one row gate and driver *per row*.
        let num_pre = f64::from(self.num_predecoders);
        let energy = pre.energy_per_op * num_pre + row.energy_per_op + driver.energy_per_op;
        let area = pre.area * num_pre + (row.area + driver.area) * self.num_rows as f64;
        let leakage = pre.leakage.scaled(num_pre)
            + (row.leakage + driver.leakage).scaled(self.num_rows as f64);
        let _ = self.tech;
        CircuitMetrics {
            area,
            delay: pre.delay + row.delay + driver.delay,
            energy_per_op: energy,
            leakage,
        }
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
    fn predecoders_cover_the_rounded_up_address_bits() {
        // 64 rows decode 6 address bits (3 pairs); 65 round up to 7 (4).
        let t = tech();
        assert_eq!(RowDecoder::new(&t, 64, 1e-15).num_predecoders, 3);
        assert_eq!(RowDecoder::new(&t, 65, 1e-15).num_predecoders, 4);
    }

    #[test]
    fn bigger_decoders_are_slower_and_hungrier() {
        let t = tech();
        let small = RowDecoder::new(&t, 64, 20e-15).metrics();
        let big = RowDecoder::new(&t, 4096, 20e-15).metrics();
        assert!(big.delay > small.delay);
        assert!(big.area > small.area);
        assert!(big.leakage.total() > small.leakage.total());
    }

    #[test]
    fn heavier_wordlines_need_longer_driver_chains() {
        let t = tech();
        let light = RowDecoder::new(&t, 256, 5e-15).metrics();
        let heavy = RowDecoder::new(&t, 256, 500e-15).metrics();
        assert!(heavy.delay > light.delay);
        assert!(heavy.energy_per_op > light.energy_per_op);
    }

    #[test]
    fn single_row_degenerate_case_works() {
        let t = tech();
        let d = RowDecoder::new(&t, 1, 1e-15);
        assert!(d.metrics().delay > 0.0);
    }
}
