//! Core architecture configuration and validation-target presets.

use mcpat_array::cache::CacheSpec;
use mcpat_diag::Diagnostics;

/// Core clocks above this draw a calibrated-range advisory from
/// [`CoreConfig::validate`], Hz.
pub const MAX_CALIBRATED_CLOCK_HZ: f64 = 1.0e10;

/// Execution paradigm of the core.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, Default, serde::Serialize, serde::Deserialize,
)]
pub enum MachineType {
    /// In-order pipeline (no rename, no issue window, no ROB).
    InOrder,
    /// Out-of-order pipeline with register renaming.
    #[default]
    OutOfOrder,
}

/// Branch predictor configuration (a tournament predictor: global +
/// local histories with a chooser, plus a return-address stack).
#[derive(Debug, Clone, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
pub struct PredictorConfig {
    /// Global predictor entries (2-bit counters).
    pub global_entries: u32,
    /// Local predictor level-1 history entries.
    pub local_l1_entries: u32,
    /// Local predictor level-2 counter entries.
    pub local_l2_entries: u32,
    /// Chooser entries.
    pub chooser_entries: u32,
    /// Return-address stack depth.
    pub ras_entries: u32,
}

impl Default for PredictorConfig {
    fn default() -> PredictorConfig {
        PredictorConfig {
            global_entries: 4096,
            local_l1_entries: 1024,
            local_l2_entries: 1024,
            chooser_entries: 4096,
            ras_entries: 32,
        }
    }
}

impl PredictorConfig {
    /// Reports suspicious predictor geometries into `diags`, with field
    /// paths rooted under `path`.
    ///
    /// Zero entries disable a table (Niagara-style), so only nonzero,
    /// non-power-of-two sizes are flagged: history-indexed tables are
    /// power-of-two by construction, and anything else silently wastes
    /// index bits.
    pub fn validate_into(&self, path: &str, diags: &mut mcpat_diag::Diagnostics) {
        for (field, v) in [
            ("global_entries", self.global_entries),
            ("local_l1_entries", self.local_l1_entries),
            ("local_l2_entries", self.local_l2_entries),
            ("chooser_entries", self.chooser_entries),
            ("ras_entries", self.ras_entries),
        ] {
            if v != 0 && !v.is_power_of_two() {
                diags.warning(
                    mcpat_diag::join_path(path, field),
                    format!("{v} entries is not a power of two; index bits are wasted"),
                );
            }
        }
    }
}

/// Full architectural description of one core.
///
/// The defaults describe a generic 4-wide out-of-order core; use the
/// presets ([`CoreConfig::niagara_like`] etc.) to reproduce the paper's
/// validation targets, and the builder-style `with_*` methods for
/// design-space exploration.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct CoreConfig {
    /// Human-readable name.
    pub name: String,
    /// In-order or out-of-order.
    pub machine_type: MachineType,
    /// Target clock, Hz.
    pub clock_hz: f64,
    /// Hardware thread contexts.
    pub threads: u32,
    /// Instructions fetched per cycle.
    pub fetch_width: u32,
    /// Instructions decoded per cycle.
    pub decode_width: u32,
    /// Instructions issued per cycle.
    pub issue_width: u32,
    /// Instructions committed per cycle.
    pub commit_width: u32,
    /// Peak FP issue per cycle.
    pub fp_issue_width: u32,
    /// Integer pipeline depth (stages).
    pub pipeline_depth: u32,
    /// Architectural integer registers (per thread).
    pub arch_int_regs: u32,
    /// Architectural FP registers (per thread).
    pub arch_fp_regs: u32,
    /// Physical integer registers (OoO only).
    pub phys_int_regs: u32,
    /// Physical FP registers (OoO only).
    pub phys_fp_regs: u32,
    /// Instruction buffer entries per thread.
    pub instruction_buffer_size: u32,
    /// Integer issue-queue / instruction-window entries.
    pub instruction_window_size: u32,
    /// FP issue-queue entries.
    pub fp_instruction_window_size: u32,
    /// Reorder buffer entries (OoO only).
    pub rob_size: u32,
    /// Load queue entries.
    pub load_queue_size: u32,
    /// Store queue entries.
    pub store_queue_size: u32,
    /// Integer ALUs.
    pub num_alus: u32,
    /// FP units.
    pub num_fpus: u32,
    /// Complex units (integer multiply/divide).
    pub num_muls: u32,
    /// Machine word width, bits.
    pub word_bits: u32,
    /// Virtual address width, bits.
    pub vaddr_bits: u32,
    /// Physical address width, bits.
    pub paddr_bits: u32,
    /// Instruction length, bits.
    pub instruction_bits: u32,
    /// Micro-opcode width after decode, bits.
    pub opcode_bits: u32,
    /// Branch target buffer entries.
    pub btb_entries: u32,
    /// Branch predictor tables.
    pub predictor: PredictorConfig,
    /// ITLB entries.
    pub itlb_entries: u32,
    /// DTLB entries.
    pub dtlb_entries: u32,
    /// L1 instruction cache.
    pub icache: CacheSpec,
    /// L1 data cache.
    pub dcache: CacheSpec,
    /// True if idle units are clock-gated (reduces their clock dynamic
    /// power to 10%).
    // lint: allow(L004, pure modeling switch — both boolean values are valid)
    pub clock_gating: bool,
    /// Explicit random-control-logic transistor budget; `None` derives it
    /// from the machine width/threads (see `MiscLogic`). Presets with
    /// unusually heavy control (x86 front-ends) set this.
    pub misc_logic_transistors: Option<f64>,
    /// When true, the latency-critical arrays (L1 caches, integer
    /// register file, issue window) are solved under this core's
    /// cycle-time constraint — McPAT's EIO behavior. If no partitioning
    /// meets the clock, the solver degrades along its relaxation ladder
    /// and records the shortfall (see
    /// [`CoreModel::relaxation_warnings`](crate::core::CoreModel::relaxation_warnings)).
    #[serde(default)]
    // lint: allow(L004, pure modeling switch — both boolean values are valid)
    pub enforce_timing: bool,
}

impl Default for CoreConfig {
    fn default() -> CoreConfig {
        CoreConfig::generic_ooo()
    }
}

impl CoreConfig {
    /// A generic 4-wide out-of-order core (Alpha 21264 class).
    #[must_use]
    pub fn generic_ooo() -> CoreConfig {
        CoreConfig {
            name: "generic-ooo".into(),
            machine_type: MachineType::OutOfOrder,
            clock_hz: 2.0e9,
            threads: 1,
            fetch_width: 4,
            decode_width: 4,
            issue_width: 4,
            commit_width: 4,
            fp_issue_width: 2,
            pipeline_depth: 12,
            arch_int_regs: 32,
            arch_fp_regs: 32,
            phys_int_regs: 128,
            phys_fp_regs: 128,
            instruction_buffer_size: 32,
            instruction_window_size: 32,
            fp_instruction_window_size: 16,
            rob_size: 96,
            load_queue_size: 32,
            store_queue_size: 32,
            num_alus: 4,
            num_fpus: 2,
            num_muls: 1,
            word_bits: 64,
            vaddr_bits: 64,
            paddr_bits: 44,
            instruction_bits: 32,
            opcode_bits: 9,
            btb_entries: 2048,
            predictor: PredictorConfig::default(),
            itlb_entries: 64,
            dtlb_entries: 64,
            icache: CacheSpec::new("icache", 64 * 1024, 64, 2),
            dcache: CacheSpec::new("dcache", 64 * 1024, 64, 2),
            clock_gating: true,
            misc_logic_transistors: None,
            enforce_timing: false,
        }
    }

    /// A generic dual-issue in-order core (Niagara2 class, single thread
    /// group).
    #[must_use]
    pub fn generic_inorder() -> CoreConfig {
        CoreConfig {
            name: "generic-inorder".into(),
            machine_type: MachineType::InOrder,
            clock_hz: 1.4e9,
            threads: 1,
            fetch_width: 2,
            decode_width: 2,
            issue_width: 2,
            commit_width: 2,
            fp_issue_width: 1,
            pipeline_depth: 8,
            arch_int_regs: 32,
            arch_fp_regs: 32,
            phys_int_regs: 32,
            phys_fp_regs: 32,
            instruction_buffer_size: 16,
            instruction_window_size: 0,
            fp_instruction_window_size: 0,
            rob_size: 0,
            load_queue_size: 8,
            store_queue_size: 8,
            num_alus: 2,
            num_fpus: 1,
            num_muls: 1,
            word_bits: 64,
            vaddr_bits: 64,
            paddr_bits: 40,
            instruction_bits: 32,
            opcode_bits: 8,
            btb_entries: 512,
            predictor: PredictorConfig {
                global_entries: 1024,
                local_l1_entries: 256,
                local_l2_entries: 256,
                chooser_entries: 1024,
                ras_entries: 8,
            },
            itlb_entries: 64,
            dtlb_entries: 64,
            icache: CacheSpec::new("icache", 16 * 1024, 32, 4),
            dcache: CacheSpec::new("dcache", 8 * 1024, 16, 4),
            clock_gating: true,
            misc_logic_transistors: None,
            enforce_timing: false,
        }
    }

    /// Sun Niagara (UltraSPARC T1) core: in-order, 4 threads, 1.2 GHz,
    /// 16 KB I$ / 8 KB D$, shared FPU (modeled fractionally per core).
    #[must_use]
    pub fn niagara_like() -> CoreConfig {
        let mut c = CoreConfig::generic_inorder();
        c.name = "niagara".into();
        c.clock_hz = 1.2e9;
        c.threads = 4;
        c.arch_int_regs = 160; // 8 SPARC register windows
        c.fetch_width = 1;
        c.decode_width = 1;
        c.issue_width = 1;
        c.commit_width = 1;
        c.pipeline_depth = 6;
        c.num_alus = 1;
        c.num_fpus = 0; // one FPU shared by 8 cores lives at chip level
        c.num_muls = 1;
        c.btb_entries = 0; // Niagara has no BTB
        c.predictor = PredictorConfig {
            global_entries: 0,
            local_l1_entries: 0,
            local_l2_entries: 0,
            chooser_entries: 0,
            ras_entries: 4,
        };
        c.icache = CacheSpec::new("icache", 16 * 1024, 32, 4);
        c.dcache = CacheSpec::new("dcache", 8 * 1024, 16, 4);
        // Thread select/pick, store buffers per thread, test logic.
        c.misc_logic_transistors = Some(7.0e6);
        c
    }

    /// Sun Niagara2 (UltraSPARC T2) core: in-order, 8 threads in two
    /// groups, 1.4 GHz, per-core FPU.
    #[must_use]
    pub fn niagara2_like() -> CoreConfig {
        let mut c = CoreConfig::generic_inorder();
        c.name = "niagara2".into();
        c.clock_hz = 1.4e9;
        c.threads = 8;
        c.arch_int_regs = 160; // 8 SPARC register windows
        c.fetch_width = 2;
        c.decode_width = 2;
        c.issue_width = 2;
        c.commit_width = 2;
        c.pipeline_depth = 8;
        c.num_alus = 2;
        c.num_fpus = 1;
        c.num_muls = 1;
        c.icache = CacheSpec::new("icache", 16 * 1024, 32, 8);
        c.dcache = CacheSpec::new("dcache", 8 * 1024, 16, 4);
        // Eight thread contexts: pick logic, per-thread store buffers,
        // cryptographic unit, test/debug.
        c.misc_logic_transistors = Some(13.0e6);
        c
    }

    /// Alpha 21364 core (EV68-class OoO core): 4-wide, 1.2 GHz,
    /// 64 KB I$/D$, 80+72 physical registers.
    #[must_use]
    pub fn alpha21364_like() -> CoreConfig {
        let mut c = CoreConfig::generic_ooo();
        c.name = "alpha21364".into();
        c.clock_hz = 1.2e9;
        c.fetch_width = 4;
        c.decode_width = 4;
        c.issue_width = 6; // 4 int + 2 fp issue slots
        c.commit_width = 4;
        c.pipeline_depth = 7;
        c.phys_int_regs = 80;
        c.phys_fp_regs = 72;
        c.instruction_window_size = 20;
        c.fp_instruction_window_size = 15;
        c.rob_size = 80;
        c.load_queue_size = 32;
        c.store_queue_size = 32;
        c.num_alus = 4;
        c.num_fpus = 2;
        c.num_muls = 1;
        c.vaddr_bits = 48;
        c.paddr_bits = 44;
        c.btb_entries = 0; // line predictor folded into I-cache
        c.predictor = PredictorConfig {
            global_entries: 4096,
            local_l1_entries: 1024,
            local_l2_entries: 1024,
            chooser_entries: 4096,
            ras_entries: 32,
        };
        c.itlb_entries = 128;
        c.dtlb_entries = 128;
        c.icache = CacheSpec::new("icache", 64 * 1024, 64, 2);
        c.dcache = CacheSpec::new("dcache", 64 * 1024, 64, 2);
        c.clock_gating = false; // 2001-era design, conditional clocking only
                                // Full-custom Alpha control (issue/retire sequencing, replay
                                // traps, the victim-buffer machinery).
        c.misc_logic_transistors = Some(10.0e6);
        c
    }

    /// Intel Xeon Tulsa core (NetBurst-class): ~3.4 GHz, deep pipeline,
    /// 2 threads, modeled as a wide OoO core with a 16 KB-equivalent L1D.
    #[must_use]
    pub fn tulsa_like() -> CoreConfig {
        let mut c = CoreConfig::generic_ooo();
        c.name = "xeon-tulsa".into();
        c.clock_hz = 3.4e9;
        c.threads = 2;
        c.fetch_width = 3;
        c.decode_width = 3;
        c.issue_width = 6;
        c.commit_width = 3;
        c.pipeline_depth = 31;
        c.phys_int_regs = 128;
        c.phys_fp_regs = 128;
        c.instruction_window_size = 64;
        c.fp_instruction_window_size = 32;
        c.rob_size = 126;
        c.load_queue_size = 48;
        c.store_queue_size = 32;
        c.num_alus = 3;
        c.num_fpus = 2;
        c.num_muls = 1;
        c.paddr_bits = 40;
        c.btb_entries = 4096;
        c.itlb_entries = 128;
        c.dtlb_entries = 64;
        c.icache = CacheSpec::new("trace-cache", 32 * 1024, 64, 8);
        c.dcache = CacheSpec::new("dcache", 16 * 1024, 64, 8);
        c.clock_gating = true;
        // NetBurst carries an x86 decode front-end, microcode ROM, trace
        // cache fill machinery and double-pumped ALU control.
        c.misc_logic_transistors = Some(45.0e6);
        c
    }

    /// Scales the cycle-time constraint implied by the clock, s.
    #[must_use]
    pub fn cycle_time(&self) -> f64 {
        1.0 / self.clock_hz
    }

    /// Physical register tag width, bits.
    #[must_use]
    pub fn phys_tag_bits(&self) -> u32 {
        (f64::from(self.phys_int_regs.max(self.phys_fp_regs).max(2)))
            .log2()
            .ceil() as u32
    }

    /// True for out-of-order machines.
    #[must_use]
    pub fn is_ooo(&self) -> bool {
        self.machine_type == MachineType::OutOfOrder
    }

    /// Full sanity validation of the configuration.
    ///
    /// Collects **every** violated invariant (and softer warnings) into
    /// a [`Diagnostics`] pass instead of stopping at the first. Paths are
    /// relative to the core (`clock_hz`, `icache.capacity`, ...); callers
    /// embedding the core in a larger config re-root them with
    /// [`Diagnostics::merge_under`].
    #[must_use]
    pub fn validate(&self) -> Diagnostics {
        let mut d = Diagnostics::new();
        if self.name.is_empty() {
            d.warning("name", "unnamed core configuration");
        }
        d.require_positive("clock_hz", "core clock", self.clock_hz);
        for (field, v) in [
            ("fetch_width", self.fetch_width),
            ("decode_width", self.decode_width),
            ("issue_width", self.issue_width),
            ("commit_width", self.commit_width),
        ] {
            if v == 0 {
                d.error(field, "pipeline width must be positive");
            }
        }
        if self.pipeline_depth == 0 {
            d.error("pipeline_depth", "pipeline needs at least one stage");
        }
        if self.fp_issue_width > self.issue_width {
            d.warning(
                "fp_issue_width",
                format!(
                    "FP issue width {} exceeds the total issue width {}",
                    self.fp_issue_width, self.issue_width
                ),
            );
        }
        if self.instruction_buffer_size == 0 {
            d.error(
                "instruction_buffer_size",
                "front end needs at least one instruction-buffer entry",
            );
        }
        if self.machine_type == MachineType::InOrder && self.phys_int_regs > self.arch_int_regs {
            d.warning(
                "phys_int_regs",
                "in-order cores do not rename; physical registers beyond the architectural set are ignored",
            );
        }
        if self.is_ooo() {
            if self.rob_size == 0 {
                d.error("rob_size", "out-of-order cores need a reorder buffer");
            }
            if self.instruction_window_size == 0 {
                d.error(
                    "instruction_window_size",
                    "out-of-order cores need an instruction window",
                );
            }
            if self.fp_issue_width > 0 && self.fp_instruction_window_size == 0 {
                d.error(
                    "fp_instruction_window_size",
                    "out-of-order cores issuing FP need an FP instruction window",
                );
            }
            if self.phys_int_regs < self.arch_int_regs {
                d.error(
                    "phys_int_regs",
                    format!(
                        "{} physical integer registers cannot cover {} architectural",
                        self.phys_int_regs, self.arch_int_regs
                    ),
                );
            }
            if self.phys_fp_regs < self.arch_fp_regs {
                d.error(
                    "phys_fp_regs",
                    format!(
                        "{} physical FP registers cannot cover {} architectural",
                        self.phys_fp_regs, self.arch_fp_regs
                    ),
                );
            }
        }
        if self.threads == 0 {
            d.error("threads", "at least one thread context");
        }
        if self.load_queue_size == 0 {
            d.error("load_queue_size", "need at least one load-queue entry");
        }
        if self.store_queue_size == 0 {
            d.error("store_queue_size", "need at least one store-queue entry");
        }
        if self.num_alus == 0 {
            d.error("num_alus", "integer pipeline needs at least one ALU");
        }
        if self.num_fpus > self.issue_width {
            d.warning(
                "num_fpus",
                format!(
                    "{} FP units exceed what issue width {} can feed",
                    self.num_fpus, self.issue_width
                ),
            );
        }
        if self.num_muls == 0 {
            d.warning(
                "num_muls",
                "no complex unit; multiply/divide power is unmodeled",
            );
        }
        if self.word_bits == 0 || self.word_bits > 128 {
            d.error(
                "word_bits",
                format!("word width {} must be in 1..=128", self.word_bits),
            );
        }
        if self.vaddr_bits == 0 || self.vaddr_bits > 64 {
            d.error(
                "vaddr_bits",
                format!(
                    "virtual address width {} must be in 1..=64",
                    self.vaddr_bits
                ),
            );
        }
        if self.paddr_bits == 0 || self.paddr_bits > 64 {
            d.error(
                "paddr_bits",
                format!(
                    "physical address width {} must be in 1..=64",
                    self.paddr_bits
                ),
            );
        }
        if self.instruction_bits == 0 || self.instruction_bits > 128 {
            d.error(
                "instruction_bits",
                format!(
                    "instruction width {} must be in 1..=128",
                    self.instruction_bits
                ),
            );
        }
        if self.opcode_bits == 0 {
            d.error("opcode_bits", "decoded opcode must be at least one bit");
        } else if self.opcode_bits > self.instruction_bits {
            d.warning(
                "opcode_bits",
                format!(
                    "opcode width {} exceeds the instruction width {}",
                    self.opcode_bits, self.instruction_bits
                ),
            );
        }
        if self.btb_entries != 0 && !self.btb_entries.is_power_of_two() {
            d.warning(
                "btb_entries",
                format!(
                    "{} BTB entries is not a power of two; index bits are wasted",
                    self.btb_entries
                ),
            );
        }
        if self.itlb_entries == 0 {
            d.error("itlb_entries", "ITLB needs at least one entry");
        }
        if self.dtlb_entries == 0 {
            d.error("dtlb_entries", "DTLB needs at least one entry");
        }
        self.predictor.validate_into("predictor", &mut d);
        if let Some(t) = self.misc_logic_transistors {
            d.require_nonnegative("misc_logic_transistors", "transistor budget", t);
        }
        if u64::from(self.issue_width) > u64::from(self.fetch_width.max(1)) * 2 {
            d.warning(
                "issue_width",
                format!(
                    "issue width {} is more than twice the fetch width {}; the front end cannot sustain it",
                    self.issue_width, self.fetch_width
                ),
            );
        }
        if self.clock_hz.is_finite() && self.clock_hz > MAX_CALIBRATED_CLOCK_HZ {
            d.warning(
                "clock_hz",
                format!(
                    "{:.1} GHz is outside the model's calibrated range",
                    self.clock_hz / 1e9
                ),
            );
        }
        self.icache.validate_into("icache", &mut d);
        self.dcache.validate_into("dcache", &mut d);
        d
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_array::cache::AccessMode as _AM;

    #[test]
    fn presets_validate() {
        for cfg in [
            CoreConfig::generic_ooo(),
            CoreConfig::generic_inorder(),
            CoreConfig::niagara_like(),
            CoreConfig::niagara2_like(),
            CoreConfig::alpha21364_like(),
            CoreConfig::tulsa_like(),
        ] {
            let d = cfg.validate();
            assert!(!d.has_errors(), "{}: {d}", cfg.name);
        }
    }

    #[test]
    fn ooo_without_rob_is_invalid() {
        let mut c = CoreConfig::generic_ooo();
        c.rob_size = 0;
        assert!(c.validate().has_errors());
    }

    #[test]
    fn validation_collects_every_finding() {
        let mut c = CoreConfig::generic_ooo();
        c.rob_size = 0;
        c.threads = 0;
        c.clock_hz = f64::NAN;
        c.icache.block_bytes = 0;
        let d = c.validate();
        assert!(d.error_count() >= 4, "expected all findings, got: {d}");
        let paths: Vec<&str> = d.iter().map(|f| f.path.as_str()).collect();
        assert!(paths.contains(&"rob_size"));
        assert!(paths.contains(&"threads"));
        assert!(paths.contains(&"clock_hz"));
        assert!(paths.contains(&"icache.block_bytes"));
    }

    #[test]
    fn phys_tag_bits_covers_register_space() {
        let c = CoreConfig::alpha21364_like();
        assert_eq!(c.phys_tag_bits(), 7); // 80 regs -> 7 bits
    }

    #[test]
    fn niagara_has_no_branch_predictor_tables() {
        let c = CoreConfig::niagara_like();
        assert_eq!(c.predictor.global_entries, 0);
        assert_eq!(c.btb_entries, 0);
    }

    #[test]
    fn default_is_generic_ooo() {
        assert_eq!(CoreConfig::default().name, "generic-ooo");
        let _ = _AM::Parallel; // keep the import exercised
    }
}
