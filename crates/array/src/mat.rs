//! The electrical model of one subarray ("mat"): cells, wordlines,
//! bitlines, sense amplifiers, row decoder, and — for CAMs — search and
//! match lines.

use mcpat_circuit::decoder::RowDecoder;
use mcpat_circuit::gate::{BufferChain, GateKind, LogicGate};
use mcpat_circuit::metrics::{CircuitMetrics, StaticPower};
use mcpat_tech::{TechParams, WireType};

use crate::spec::{ArrayKind, Ports};

/// Fraction of the supply the bitline swings before the sense amplifier
/// resolves.
const SENSE_SWING_FRACTION: f64 = 0.10;

/// Sense amplifier energy at 90 nm (scales linearly with feature size), J.
const SENSEAMP_ENERGY_90NM: f64 = 6.0e-15;

/// Sense amplifier resolution delay in FO4s.
const SENSEAMP_DELAY_FO4: f64 = 2.0;

/// Layout height of the sense-amp + precharge + write-driver stripe at
/// the bottom of a subarray, in feature sizes.
const COLUMN_PERIPHERY_HEIGHT_F: f64 = 40.0;

/// One subarray of an array organization.
#[derive(Debug, Clone)]
pub struct Mat {
    /// Storage rows in this subarray.
    pub rows: usize,
    /// Storage columns (bits per row) in this subarray.
    pub cols: usize,
    kind: ArrayKind,
    ports: Ports,
    /// Physical cell height including extra port tracks, m.
    pub cell_height: f64,
    /// Physical cell width including extra port tracks, m.
    pub cell_width: f64,
    tech: TechParams,
}

/// Per-operation electrical results for one mat.
#[derive(Debug, Clone, Copy)]
pub struct MatMetrics {
    /// Decode + wordline + bitline + sense critical path for a read, s.
    pub read_delay: f64,
    /// Critical path for a write, s.
    pub write_delay: f64,
    /// Dynamic energy of a read in this mat, J.
    pub read_energy: f64,
    /// Dynamic energy of a write, J.
    pub write_energy: f64,
    /// Dynamic energy of an associative search (CAM only, else 0), J.
    pub search_energy: f64,
    /// Search critical path (CAM only, else 0), s.
    pub search_delay: f64,
    /// Layout area of the mat including its decoder and column
    /// periphery, m².
    pub area: f64,
    /// Mat width, m.
    pub width: f64,
    /// Mat height, m.
    pub height: f64,
    /// Static power of cells + periphery, W.
    pub leakage: StaticPower,
    /// The slowest internal stage, which bounds the random cycle time, s.
    pub max_stage_delay: f64,
}

impl Mat {
    /// Builds the model of a `rows × cols` subarray.
    ///
    /// # Panics
    ///
    /// Panics if `rows` or `cols` is zero.
    #[must_use]
    pub fn new(tech: &TechParams, rows: usize, cols: usize, kind: ArrayKind, ports: Ports) -> Mat {
        // Degenerate dimensions are clamped rather than rejected; the
        // spec-level validation pass reports them.
        let rows = rows.max(1);
        let cols = cols.max(1);
        let f = tech.node.feature_m();
        let local_pitch = tech.wire(WireType::Local).pitch;
        let (mut cell_h, mut cell_width) = match kind {
            ArrayKind::Ram => {
                let c = tech.sram_cell();
                (c.height, c.width)
            }
            ArrayKind::Cam => {
                let c = tech.cam_cell();
                (c.height, c.width)
            }
            ArrayKind::Edram => {
                let c = tech.edram_cell();
                (c.height, c.width)
            }
        };
        // Extra RAM ports add one wordline track (height) and a bitline
        // pair (width) each; extra search ports add a matchline track and
        // a searchline pair.
        let extra_ram = ports.total_ram().saturating_sub(1) as f64;
        let extra_search = if kind == ArrayKind::Cam {
            ports.search.saturating_sub(1) as f64
        } else {
            0.0
        };
        cell_h += (extra_ram + extra_search) * local_pitch;
        cell_width += (extra_ram + extra_search) * 2.0 * local_pitch;
        let _ = f;
        Mat {
            rows,
            cols,
            kind,
            ports,
            cell_height: cell_h,
            cell_width,
            tech: *tech,
        }
    }

    /// Wordline capacitance (one row, one port), F.
    fn wordline_cap(&self) -> f64 {
        let wire = self.tech.wire(WireType::Local);
        let per_cell = match self.kind {
            ArrayKind::Ram | ArrayKind::Cam => self
                .tech
                .sram_cell()
                .wordline_cap_contribution(&self.tech.device),
            ArrayKind::Edram => self.tech.gate_cap(self.tech.edram_cell().w_access),
        };
        self.cols as f64 * (per_cell + wire.c_per_m * self.cell_width)
    }

    /// Bitline capacitance (one column, one port), F.
    fn bitline_cap(&self) -> f64 {
        let wire = self.tech.wire(WireType::Local);
        let per_cell = match self.kind {
            ArrayKind::Ram | ArrayKind::Cam => self
                .tech
                .sram_cell()
                .bitline_cap_contribution(&self.tech.device),
            ArrayKind::Edram => self.tech.drain_cap(self.tech.edram_cell().w_access),
        };
        self.rows as f64 * (per_cell + wire.c_per_m * self.cell_height)
            + self.tech.drain_cap(4.0 * self.tech.min_w_nmos()) // precharge devices
    }

    /// Cell read current available to move the bitline, A.
    fn read_current(&self) -> f64 {
        match self.kind {
            ArrayKind::Ram | ArrayKind::Cam => {
                self.tech.sram_cell().read_current(&self.tech.device)
            }
            ArrayKind::Edram => {
                // Charge-sharing read: treat as an equivalent current that
                // dumps the storage cap in ~2 FO4.
                let cell = self.tech.edram_cell();
                cell.c_storage * self.tech.device.vdd / (2.0 * self.tech.fo4())
            }
        }
    }

    /// Per-cell standby leakage, W.
    fn cell_leakage(&self) -> f64 {
        let t = self.tech.temperature;
        // Array cells conventionally use longer channels / higher Vt.
        let lc = self.tech.device.long_channel_leakage_reduction;
        match self.kind {
            ArrayKind::Ram => self.tech.sram_cell().leakage_power(&self.tech.device, t) * lc,
            ArrayKind::Cam => self.tech.cam_cell().leakage_power(&self.tech.device, t) * lc,
            ArrayKind::Edram => 0.05 * self.tech.sram_cell().leakage_power(&self.tech.device, t),
        }
    }

    /// Evaluates the mat.
    ///
    /// `active_cols` — columns whose bitlines actually swing on a read
    /// (after any column-select gating); `written_cols` — columns driven
    /// on a write; `search_bits` — CAM compare width (0 for RAM).
    #[must_use]
    pub fn evaluate(
        &self,
        active_cols: usize,
        written_cols: usize,
        search_bits: u32,
    ) -> MatMetrics {
        let tech = &self.tech;
        let vdd = tech.device.vdd;
        let fo4 = tech.fo4();
        let f = tech.node.feature_m();

        // --- Decoder + wordline -------------------------------------------------
        let c_wl = self.wordline_cap();
        let decoder = RowDecoder::new(tech, self.rows, c_wl);
        let dec = decoder.metrics();

        // --- Bitline read path --------------------------------------------------
        let c_bl = self.bitline_cap();
        let v_swing = (SENSE_SWING_FRACTION * vdd).max(0.05);
        let i_read = self.read_current();
        let t_bl = c_bl * v_swing / i_read;
        let senseamp_delay = SENSEAMP_DELAY_FO4 * fo4;
        let senseamp_energy = SENSEAMP_ENERGY_90NM * tech.node.scale_from_90nm();

        // All active columns swing by v_swing and are precharged back.
        let e_bl_read = active_cols as f64 * c_bl * vdd * v_swing;
        let e_sense = active_cols as f64 * senseamp_energy;
        let e_wl = tech.switch_energy(c_wl) * 2.0; // rise + fall

        let read_delay = dec.delay + t_bl + senseamp_delay;
        let read_energy = dec.energy_per_op + e_wl + e_bl_read + e_sense;

        // --- Write path ---------------------------------------------------------
        // Full-swing differential write on the written columns.
        let e_bl_write = written_cols as f64 * c_bl * vdd * vdd;
        let write_driver = BufferChain::for_load(tech, c_bl);
        let wd = write_driver.metrics();
        let write_delay = dec.delay + wd.delay + 2.0 * fo4;
        let write_energy = dec.energy_per_op + e_wl + e_bl_write + wd.energy_per_op;

        // --- CAM search path ----------------------------------------------------
        let (search_energy, search_delay) = if self.kind == ArrayKind::Cam && search_bits > 0 {
            let cam = tech.cam_cell();
            let wire = tech.wire(WireType::Local);
            let c_sl = self.rows as f64
                * (cam.searchline_cap_contribution(&tech.device) + wire.c_per_m * self.cell_height);
            let c_ml = search_bits as f64 * cam.matchline_cap_contribution(&tech.device)
                + wire.c_per_m * self.cell_width;
            let sl_driver = BufferChain::for_load(tech, c_sl);
            let slm = sl_driver.metrics();
            // Worst case: every matchline was precharged and discharges.
            let e_ml = self.rows as f64 * c_ml * vdd * v_swing;
            let e_sl = search_bits as f64 * (tech.switch_energy(c_sl) + slm.energy_per_op);
            let i_ml = tech.device.i_on_n * cam.w_compare;
            let t_ml = c_ml * v_swing / i_ml;
            let e = e_ml + e_sl + self.rows as f64 * senseamp_energy * 0.25;
            let d = slm.delay + t_ml + senseamp_delay;
            (e, d)
        } else {
            (0.0, 0.0)
        };

        // --- Area ---------------------------------------------------------------
        let cells_width = self.cols as f64 * self.cell_width;
        let cells_h = self.rows as f64 * self.cell_height;
        // Decoder strip on the left: width from its gate area spread over
        // the rows; column periphery strip on the bottom.
        let dec_strip_width = (dec.area / cells_h.max(1e-9)).max(10.0 * f);
        let periph_h = COLUMN_PERIPHERY_HEIGHT_F * f;
        let width = cells_width + dec_strip_width;
        let height = cells_h + periph_h;
        let area = width * height;

        // --- Leakage ------------------------------------------------------------
        let n_cells = (self.rows * self.cols) as f64;
        let cell_leak = n_cells * self.cell_leakage();
        // Sense amps + precharge + write drivers per column.
        let periph_width = 8.0 * tech.min_w_nmos();
        let periph_leak = self.cols as f64
            * (tech.subthreshold_leakage(periph_width, periph_width)
                + tech.gate_leakage(periph_width, periph_width));
        let leakage = StaticPower {
            subthreshold: cell_leak + periph_leak,
            gate: 0.0,
        } + dec.leakage;

        let max_stage_delay = dec
            .delay
            .max(t_bl + senseamp_delay)
            .max(wd.delay)
            .max(search_delay);

        MatMetrics {
            read_delay,
            write_delay,
            read_energy,
            write_energy,
            search_energy,
            search_delay,
            area,
            width,
            height,
            leakage,
            max_stage_delay,
        }
    }

    /// The per-access metrics with all columns active (the common case
    /// used by the solver before column-select gating).
    #[must_use]
    pub fn evaluate_full(&self, search_bits: u32) -> MatMetrics {
        self.evaluate(self.cols, self.cols, search_bits)
    }

    /// Access the port configuration.
    #[must_use]
    pub fn ports(&self) -> Ports {
        self.ports
    }

    /// The spec kind this mat models.
    #[must_use]
    pub fn kind(&self) -> ArrayKind {
        self.kind
    }
}

/// Everything in [`Mat::evaluate`] that depends only on the corner, the
/// array kind, the port count, and the (spec-fixed) search width —
/// hoisted out of the partition sweep so it is computed once per solve
/// instead of once per `Ndwl × Ndbl × Nspd` candidate.
///
/// Each cached value is the *same expression* the reference path in
/// [`Mat`] evaluates, computed exactly once, so the factored evaluation
/// in [`MatInvariants::evaluate`] is bit-identical to
/// `Mat::new(..).evaluate(..)` (`soa_matches_reference` below and
/// `tests/perf_identity.rs` enforce this).
#[derive(Debug, Clone, Copy)]
pub struct MatInvariants {
    kind: ArrayKind,
    search_bits: u32,
    cell_height: f64,
    cell_width: f64,
    /// Wordline capacitance per column: cell contribution + wire run.
    wl_per_col: f64,
    /// Bitline capacitance per row: cell contribution + wire run.
    bl_per_row: f64,
    /// Bitline precharge-device capacitance (row-count independent).
    bl_fixed: f64,
    i_read: f64,
    cell_leak: f64,
    v_swing: f64,
    senseamp_delay: f64,
    senseamp_energy: f64,
    periph_leak_per_col: f64,
    feature: f64,
    vdd: f64,
    fo4: f64,
    /// Shared 2-input NAND predecoder prototype (size-invariant).
    predecoder: LogicGate,
    /// Input capacitance of every wordline driver: a `BufferChain`
    /// always has a first stage, and that stage is a minimum inverter
    /// whatever the column count.
    wl_driver_input_cap: f64,
    /// CAM matchline capacitance and discharge time (0 for RAM).
    c_ml: f64,
    t_ml: f64,
    tech: TechParams,
}

/// The rows-dependent slice of a mat evaluation, shared by every
/// candidate of the same `rows_per_mat`.
#[derive(Debug, Clone, Copy)]
pub struct MatRowPart {
    rows: usize,
    c_bl: f64,
    t_bl: f64,
    /// Write-driver chain metrics (load is the bitline).
    wd: CircuitMetrics,
    /// Row-gate metrics into the wordline driver's input, which is the
    /// same minimum inverter for every column count.
    row_m: CircuitMetrics,
    num_predecoders: u32,
    /// Predecoder metrics at this row count's predecode load.
    pre: CircuitMetrics,
    cells_h: f64,
    search_energy: f64,
    search_delay: f64,
}

/// The columns-dependent slice of a mat evaluation, shared by every
/// candidate of the same `cols_per_mat`.
#[derive(Debug, Clone, Copy)]
pub struct MatColPart {
    cols: usize,
    /// Wordline-driver chain metrics.
    driver: CircuitMetrics,
    e_wl: f64,
    e_sense: f64,
    cells_width: f64,
    periph_leak: f64,
}

impl MatInvariants {
    /// Hoists the per-candidate-invariant parts of a mat evaluation.
    #[must_use]
    pub fn new(
        tech: &TechParams,
        kind: ArrayKind,
        ports: Ports,
        search_bits: u32,
    ) -> MatInvariants {
        let wire = tech.wire(WireType::Local);
        let local_pitch = wire.pitch;
        let (mut cell_h, mut cell_width) = match kind {
            ArrayKind::Ram => {
                let c = tech.sram_cell();
                (c.height, c.width)
            }
            ArrayKind::Cam => {
                let c = tech.cam_cell();
                (c.height, c.width)
            }
            ArrayKind::Edram => {
                let c = tech.edram_cell();
                (c.height, c.width)
            }
        };
        let extra_ram = ports.total_ram().saturating_sub(1) as f64;
        let extra_search = if kind == ArrayKind::Cam {
            ports.search.saturating_sub(1) as f64
        } else {
            0.0
        };
        cell_h += (extra_ram + extra_search) * local_pitch;
        cell_width += (extra_ram + extra_search) * 2.0 * local_pitch;

        let per_cell_wl = match kind {
            ArrayKind::Ram | ArrayKind::Cam => {
                tech.sram_cell().wordline_cap_contribution(&tech.device)
            }
            ArrayKind::Edram => tech.gate_cap(tech.edram_cell().w_access),
        };
        let per_cell_bl = match kind {
            ArrayKind::Ram | ArrayKind::Cam => {
                tech.sram_cell().bitline_cap_contribution(&tech.device)
            }
            ArrayKind::Edram => tech.drain_cap(tech.edram_cell().w_access),
        };
        let vdd = tech.device.vdd;
        let fo4 = tech.fo4();
        let i_read = match kind {
            ArrayKind::Ram | ArrayKind::Cam => tech.sram_cell().read_current(&tech.device),
            ArrayKind::Edram => {
                let cell = tech.edram_cell();
                cell.c_storage * tech.device.vdd / (2.0 * tech.fo4())
            }
        };
        let t = tech.temperature;
        let lc = tech.device.long_channel_leakage_reduction;
        let cell_leak = match kind {
            ArrayKind::Ram => tech.sram_cell().leakage_power(&tech.device, t) * lc,
            ArrayKind::Cam => tech.cam_cell().leakage_power(&tech.device, t) * lc,
            ArrayKind::Edram => 0.05 * tech.sram_cell().leakage_power(&tech.device, t),
        };
        let v_swing = (SENSE_SWING_FRACTION * vdd).max(0.05);
        let periph_width = 8.0 * tech.min_w_nmos();
        let (c_ml, t_ml) = if kind == ArrayKind::Cam && search_bits > 0 {
            let cam = tech.cam_cell();
            let c_ml = search_bits as f64 * cam.matchline_cap_contribution(&tech.device)
                + wire.c_per_m * cell_width;
            let i_ml = tech.device.i_on_n * cam.w_compare;
            (c_ml, c_ml * v_swing / i_ml)
        } else {
            (0.0, 0.0)
        };
        MatInvariants {
            kind,
            search_bits,
            cell_height: cell_h,
            cell_width,
            wl_per_col: per_cell_wl + wire.c_per_m * cell_width,
            bl_per_row: per_cell_bl + wire.c_per_m * cell_h,
            bl_fixed: tech.drain_cap(4.0 * tech.min_w_nmos()),
            i_read,
            cell_leak,
            v_swing,
            senseamp_delay: SENSEAMP_DELAY_FO4 * fo4,
            senseamp_energy: SENSEAMP_ENERGY_90NM * tech.node.scale_from_90nm(),
            periph_leak_per_col: tech.subthreshold_leakage(periph_width, periph_width)
                + tech.gate_leakage(periph_width, periph_width),
            feature: tech.node.feature_m(),
            vdd,
            fo4,
            predecoder: LogicGate::new(tech, GateKind::Nand(2), 2.0),
            // `BufferChain::input_cap` of a chain with at least one stage.
            wl_driver_input_cap: LogicGate::new(tech, GateKind::Inverter, 1.0).input_cap(),
            c_ml,
            t_ml,
            tech: *tech,
        }
    }

    /// Physical cell height including port tracks, m.
    #[must_use]
    pub fn cell_height(&self) -> f64 {
        self.cell_height
    }

    /// Physical cell width including port tracks, m.
    #[must_use]
    pub fn cell_width(&self) -> f64 {
        self.cell_width
    }

    /// Precomputes the rows-dependent slice for one `rows_per_mat`.
    #[must_use]
    pub fn rows_part(&self, rows: usize) -> MatRowPart {
        let rows = rows.max(1);
        let tech = &self.tech;
        let c_bl = rows as f64 * self.bl_per_row + self.bl_fixed;
        let t_bl = c_bl * self.v_swing / self.i_read;
        let write_driver = BufferChain::for_load(tech, c_bl);
        let wd = write_driver.metrics();

        // Rows-side of the decoder (see `RowDecoder::new`/`metrics`).
        let address_bits = (rows.max(2) as f64).log2().ceil() as u32;
        let num_predecoders = address_bits.div_ceil(2);
        let fan_in = num_predecoders.clamp(2, 4);
        let row_gate = LogicGate::new(tech, GateKind::Nand(fan_in), 1.0);
        let rows_per_line = (rows as f64 / 4.0).max(1.0);
        let predecode_load = rows_per_line * row_gate.input_cap();
        let pre = if num_predecoders == 0 {
            CircuitMetrics::zero()
        } else {
            self.predecoder.metrics(predecode_load)
        };

        let (search_energy, search_delay) = if self.kind == ArrayKind::Cam && self.search_bits > 0 {
            let cam = tech.cam_cell();
            let wire = tech.wire(WireType::Local);
            let c_sl = rows as f64
                * (cam.searchline_cap_contribution(&tech.device) + wire.c_per_m * self.cell_height);
            let sl_driver = BufferChain::for_load(tech, c_sl);
            let slm = sl_driver.metrics();
            let e_ml = rows as f64 * self.c_ml * self.vdd * self.v_swing;
            let e_sl = self.search_bits as f64 * (tech.switch_energy(c_sl) + slm.energy_per_op);
            let e = e_ml + e_sl + rows as f64 * self.senseamp_energy * 0.25;
            let d = slm.delay + self.t_ml + self.senseamp_delay;
            (e, d)
        } else {
            (0.0, 0.0)
        };

        MatRowPart {
            rows,
            c_bl,
            t_bl,
            wd,
            row_m: row_gate.metrics(self.wl_driver_input_cap),
            num_predecoders,
            pre,
            cells_h: rows as f64 * self.cell_height,
            search_energy,
            search_delay,
        }
    }

    /// Precomputes the columns-dependent slice for one `cols_per_mat`.
    #[must_use]
    pub fn cols_part(&self, cols: usize) -> MatColPart {
        let cols = cols.max(1);
        let c_wl = cols as f64 * self.wl_per_col;
        let wordline_driver = BufferChain::for_load(&self.tech, c_wl.max(1e-18));
        MatColPart {
            cols,
            driver: wordline_driver.metrics(),
            e_wl: self.tech.switch_energy(c_wl) * 2.0,
            e_sense: cols as f64 * self.senseamp_energy,
            cells_width: cols as f64 * self.cell_width,
            periph_leak: cols as f64 * self.periph_leak_per_col,
        }
    }

    /// Combines the precomputed slices into full mat metrics —
    /// bit-identical to `Mat::new(..).evaluate(cols, written_cols, ..)`.
    #[must_use]
    pub fn evaluate(&self, row: &MatRowPart, col: &MatColPart, written_cols: usize) -> MatMetrics {
        // Decoder combine, mirroring `RowDecoder::metrics`.
        let row_m = row.row_m;
        let num_pre = f64::from(row.num_predecoders);
        let dec_energy =
            row.pre.energy_per_op * num_pre + row_m.energy_per_op + col.driver.energy_per_op;
        let dec_area = row.pre.area * num_pre + (row_m.area + col.driver.area) * row.rows as f64;
        let dec_leak = row.pre.leakage.scaled(num_pre)
            + (row_m.leakage + col.driver.leakage).scaled(row.rows as f64);
        let dec_delay = row.pre.delay + row_m.delay + col.driver.delay;

        let read_delay = dec_delay + row.t_bl + self.senseamp_delay;
        let e_bl_read = col.cols as f64 * row.c_bl * self.vdd * self.v_swing;
        let read_energy = dec_energy + col.e_wl + e_bl_read + col.e_sense;

        let e_bl_write = written_cols as f64 * row.c_bl * self.vdd * self.vdd;
        let write_delay = dec_delay + row.wd.delay + 2.0 * self.fo4;
        let write_energy = dec_energy + col.e_wl + e_bl_write + row.wd.energy_per_op;

        let dec_strip_width = (dec_area / row.cells_h.max(1e-9)).max(10.0 * self.feature);
        let periph_h = COLUMN_PERIPHERY_HEIGHT_F * self.feature;
        let width = col.cells_width + dec_strip_width;
        let height = row.cells_h + periph_h;
        let area = width * height;

        let n_cells = (row.rows * col.cols) as f64;
        let cell_leak = n_cells * self.cell_leak;
        let leakage = StaticPower {
            subthreshold: cell_leak + col.periph_leak,
            gate: 0.0,
        } + dec_leak;

        let max_stage_delay = dec_delay
            .max(row.t_bl + self.senseamp_delay)
            .max(row.wd.delay)
            .max(row.search_delay);

        MatMetrics {
            read_delay,
            write_delay,
            read_energy,
            write_energy,
            search_energy: row.search_energy,
            search_delay: row.search_delay,
            area,
            width,
            height,
            leakage,
            max_stage_delay,
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

    fn ram_mat(rows: usize, cols: usize) -> Mat {
        Mat::new(&tech(), rows, cols, ArrayKind::Ram, Ports::single_rw())
    }

    #[test]
    fn taller_mats_have_slower_bitlines() {
        let short = ram_mat(64, 128).evaluate_full(0);
        let tall = ram_mat(1024, 128).evaluate_full(0);
        assert!(tall.read_delay > short.read_delay);
    }

    #[test]
    fn wider_mats_burn_more_read_energy() {
        let narrow = ram_mat(256, 64).evaluate_full(0);
        let wide = ram_mat(256, 512).evaluate_full(0);
        assert!(wide.read_energy > 4.0 * narrow.read_energy);
    }

    #[test]
    fn extra_ports_grow_the_cell() {
        let t = tech();
        let single = Mat::new(&t, 128, 128, ArrayKind::Ram, Ports::single_rw());
        let multi = Mat::new(&t, 128, 128, ArrayKind::Ram, Ports::reg_file(6, 3));
        assert!(multi.cell_height > single.cell_height);
        assert!(multi.cell_width > single.cell_width);
        let a1 = single.evaluate_full(0).area;
        let a9 = multi.evaluate_full(0).area;
        assert!(a9 > 2.0 * a1, "9-port cell should be much bigger");
    }

    #[test]
    fn cam_search_costs_energy() {
        let t = tech();
        let cam = Mat::new(
            &t,
            64,
            64,
            ArrayKind::Cam,
            Ports {
                search: 1,
                ..Ports::single_rw()
            },
        );
        let m = cam.evaluate_full(40);
        assert!(m.search_energy > 0.0);
        assert!(m.search_delay > 0.0);
    }

    #[test]
    fn read_energy_magnitude_is_plausible() {
        // A 256×512 (16 KB) subarray read at 65 nm should be tens of pJ.
        let m = ram_mat(256, 512).evaluate_full(0);
        assert!(
            m.read_energy > 1e-12 && m.read_energy < 1e-9,
            "{:e}",
            m.read_energy
        );
    }

    #[test]
    fn leakage_magnitude_is_plausible() {
        // 32 K cells at 65 nm HP, 360 K: milliwatt-scale.
        let m = ram_mat(256, 128).evaluate_full(0);
        let leak = m.leakage.total();
        assert!(leak > 1e-5 && leak < 1e-1, "{leak:e}");
    }

    #[test]
    fn edram_mat_is_denser_but_leakier_logicwise() {
        let t = tech();
        let sram = Mat::new(&t, 512, 512, ArrayKind::Ram, Ports::single_rw());
        let edram = Mat::new(&t, 512, 512, ArrayKind::Edram, Ports::single_rw());
        assert!(edram.evaluate_full(0).area < sram.evaluate_full(0).area);
        assert!(edram.evaluate_full(0).leakage.total() < sram.evaluate_full(0).leakage.total());
    }

    fn assert_metrics_identical(fast: &MatMetrics, reference: &MatMetrics, what: &str) {
        let pairs = [
            (fast.read_delay, reference.read_delay, "read_delay"),
            (fast.write_delay, reference.write_delay, "write_delay"),
            (fast.read_energy, reference.read_energy, "read_energy"),
            (fast.write_energy, reference.write_energy, "write_energy"),
            (fast.search_energy, reference.search_energy, "search_energy"),
            (fast.search_delay, reference.search_delay, "search_delay"),
            (fast.area, reference.area, "area"),
            (fast.width, reference.width, "width"),
            (fast.height, reference.height, "height"),
            (
                fast.leakage.subthreshold,
                reference.leakage.subthreshold,
                "leakage.subthreshold",
            ),
            (fast.leakage.gate, reference.leakage.gate, "leakage.gate"),
            (
                fast.max_stage_delay,
                reference.max_stage_delay,
                "max_stage_delay",
            ),
        ];
        for (a, b, field) in pairs {
            assert_eq!(a.to_bits(), b.to_bits(), "{what}: {field} {a:e} vs {b:e}");
        }
    }

    #[test]
    fn hoisted_invariants_match_reference_bit_for_bit() {
        let cases = [
            (ArrayKind::Ram, Ports::single_rw(), 0u32),
            (ArrayKind::Ram, Ports::reg_file(6, 3), 0),
            (
                ArrayKind::Cam,
                Ports {
                    search: 2,
                    ..Ports::single_rw()
                },
                40,
            ),
            (ArrayKind::Edram, Ports::single_rw(), 0),
        ];
        for node in [TechNode::N90, TechNode::N32] {
            for (kind, ports, sb) in cases {
                let t = TechParams::new(node, DeviceType::Hp, 360.0);
                let inv = MatInvariants::new(&t, kind, ports, sb);
                for rows in [1usize, 64, 256, 1000] {
                    let rp = inv.rows_part(rows);
                    for cols in [1usize, 32, 513] {
                        let cp = inv.cols_part(cols);
                        for written in [1usize, cols] {
                            let fast = inv.evaluate(&rp, &cp, written);
                            let reference =
                                Mat::new(&t, rows, cols, kind, ports).evaluate(cols, written, sb);
                            assert_metrics_identical(
                                &fast,
                                &reference,
                                &format!("{kind:?} {rows}x{cols} w{written} sb{sb} {node:?}"),
                            );
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn write_uses_full_swing_and_costs_more_per_column() {
        let mat = ram_mat(256, 256);
        let m = mat.evaluate(256, 256, 0);
        // Full-swing writes dominate the low-swing read bitline energy for
        // equal column counts (sense energy aside).
        assert!(m.write_energy > m.read_energy * 0.8);
    }
}
