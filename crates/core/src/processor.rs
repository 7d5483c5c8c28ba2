//! Whole-processor assembly: the internal chip representation.

use crate::config::{ProcessorConfig, UNNAMED_FINDING_PATH};
use crate::error::McpatError;
use crate::power::{leakage_of, total_of, ChipPower, ChipPowerItem};
use crate::stats::ChipStats;
use mcpat_array::ArrayError;
use mcpat_circuit::metrics::StaticPower;
use mcpat_diag::{AtPath, Diagnostics, ResultExt};
use mcpat_interconnect::noc::{NocConfig, NocModel};
use mcpat_mcore::core::{CoreBuildError, CoreModel, CorePower, CorePowerItems};
use mcpat_mcore::exu::{FuKind, FunctionalUnit};
use mcpat_mcore::stats::CoreStats;
use mcpat_par::ParError;
use mcpat_tech::TechParams;
use mcpat_uncore::clock::ClockNetwork;
use mcpat_uncore::io::OffChipIo;
use mcpat_uncore::memctrl::MemCtrl;
use mcpat_uncore::shared_cache::SharedCache;

/// Layout overhead multiplying the sum of component areas to obtain the
/// core die area (global routing, power grid, whitespace).
const DIE_AREA_OVERHEAD: f64 = 1.25;

/// Width of the pad ring around the active area, m.
const PAD_RING_WIDTH: f64 = 0.6e-3;

/// Clock-sink capacitance contributed per square meter of non-core
/// logic/cache periphery (≈4 pF/mm², calibrated against Niagara-class
/// published clock power).
const CLOCK_SINK_CAP_PER_M2: f64 = 4e-12 / 1e-6;

/// Energy to recharge a power-gated core's virtual supply rail on
/// wakeup, J per mm² of core area (≈ the decap + rail capacitance).
const WAKEUP_ENERGY_PER_M2: f64 = 2e-3;

/// One named area entry of the floorplan summary.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AreaItem {
    /// Component name.
    pub name: &'static str,
    /// Area, m².
    pub area: f64,
}

/// Upper bound on the top-level items of a chip's power or area
/// breakdown (`cores`, `l2`, `l3`, `noc`, `mc`, `io`, `shared-fpu`,
/// `clock`).
const CHIP_ITEMS: usize = 8;

/// The items of a chip's power breakdown, in breakdown order.
const CHIP_ITEM_NAMES: [&str; CHIP_ITEMS] = [
    "cores",
    "l2",
    "l3",
    "noc",
    "mc",
    "io",
    "shared-fpu",
    "clock",
];

/// Writes items into consecutive fixed slots: the allocation-free
/// stand-in for `Vec::push` behind the area roll-up.
fn slot_writer<T>(slots: &mut [Option<T>]) -> impl FnMut(T) + '_ {
    let mut slots = slots.iter_mut();
    move |item| {
        if let Some(slot) = slots.next() {
            *slot = Some(item);
        }
    }
}

/// The allocation-free form of a [`ChipPower`]: the same items in the
/// same order, one slot per entry of [`CHIP_ITEM_NAMES`] (`None` for
/// absent components). Both forms total through the same folds
/// ([`total_of`]), so [`Processor::peak_power_total`] and
/// `peak_power().total()` agree to the bit.
struct PowerItems {
    items: [Option<ChipPowerItem>; CHIP_ITEMS],
    /// The unit breakdown of the first core group, if any.
    core_detail: Option<CorePowerItems>,
}

impl PowerItems {
    fn iter(&self) -> impl Iterator<Item = &ChipPowerItem> + Clone {
        self.items.iter().flatten()
    }

    fn into_chip_power(self) -> ChipPower {
        ChipPower {
            items: self.iter().copied().collect(),
            core_detail: CorePower {
                items: self
                    .core_detail
                    .map_or_else(Vec::new, |d| d.into_iter().flatten().collect()),
            },
        }
    }
}

/// Timing roll-up: the cycle-time limiters of the chip.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimingReport {
    /// FO4 delay of the process corner, s.
    pub fo4: f64,
    /// Maximum clock supported by the cores' critical arrays, Hz.
    pub core_max_clock_hz: f64,
    /// L2 bank cycle time, s (0 if no L2).
    pub l2_cycle_time: f64,
    /// The configured target clock, Hz.
    pub target_clock_hz: f64,
}

/// How the build itself performed: worker threads available to the
/// fan-out and the array-solve cache's effectiveness over this build.
///
/// The counters come from a scoped [`mcpat_obs::Collector`] entered for
/// the duration of the build, so they are exact even when several
/// builds run concurrently: pool tasks carry their submitter's scope
/// chain, and stolen work still bills the build that submitted it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct BuildPerf {
    /// Worker threads the build fan-out could use (see
    /// [`mcpat_par::threads`]).
    pub threads: usize,
    /// Array solves answered by the content-addressed cache.
    pub solve_cache_hits: u64,
    /// Array solves that ran the optimizer.
    pub solve_cache_misses: u64,
    /// Cache entries evicted during this build by the bounded solve
    /// cache (see `MCPAT_SOLVE_CACHE_CAP`). Non-zero values mean the
    /// cache is under pressure and warm rebuilds may re-solve arrays.
    pub solve_cache_evictions: u64,
}

/// Budget checkpoint at a build-stage boundary: a tripped deadline or
/// cancellation surfaces as [`McpatError::Budget`]
/// located at `stage`. Free when no budget is in scope.
pub(crate) fn checkpoint(stage: &str) -> Result<(), McpatError> {
    mcpat_obs::guard::check().map_err(|e| McpatError::Budget(AtPath::new(stage, e)))
}

/// Locates a fan-out failure (a panicked pool task) at `stage`: the
/// `map_err` for every [`mcpat_par::join4`] in the crate.
pub(crate) fn worker_failure(stage: &'static str) -> impl FnOnce(ParError) -> McpatError {
    move |e| {
        McpatError::Array(AtPath::new(
            stage,
            ArrayError::Worker {
                name: stage.to_owned(),
                detail: e.to_string(),
            },
        ))
    }
}

/// True if a [`Delta::Clock`] rebuild of a chip configured as `config`
/// runs as a full build: under `core.enforce_timing` the solver sizes
/// arrays to the target cycle time, so no solved geometry survives a
/// clock change. The DSE engine's probe counters consult this to bill
/// the work they asked for; [`Processor::retarget_clock`] reports the
/// path it took.
pub(crate) fn clock_delta_rebuilds_fully(config: &ProcessorConfig) -> bool {
    config.core.enforce_timing
}

/// The path [`Processor::retarget_clock`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retarget {
    /// The clock fields were patched in place; no array was re-solved.
    Patched,
    /// `core.enforce_timing` ties the solved geometry to the clock, so
    /// the chip was replaced by a full build.
    FullBuild,
}

/// A single-axis change applied to an already-built chip by
/// [`Processor::rebuild_with`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Delta {
    /// Retarget the chip (and core) clock, Hz.
    Clock(f64),
    /// Resize each L2 instance to this capacity, bytes.
    CacheSize(u64),
}

impl Delta {
    /// The configuration `base` describes after this delta is applied.
    #[must_use]
    pub fn apply(self, base: &ProcessorConfig) -> ProcessorConfig {
        let mut config = base.clone();
        match self {
            Delta::Clock(hz) => {
                config.clock_hz = hz;
                config.core.clock_hz = hz;
            }
            Delta::CacheSize(bytes) => {
                if let Some(l2) = &mut config.l2 {
                    l2.cache.capacity = bytes;
                }
            }
        }
        config
    }
}

/// A fully built processor.
#[derive(Debug, Clone)]
pub struct Processor {
    /// Configuration echoed.
    pub config: ProcessorConfig,
    /// Resolved technology corner.
    pub tech: TechParams,
    /// The (homogeneous) core model.
    pub core: CoreModel,
    /// One L2 instance (replicated `config.num_l2s` times), if any.
    pub l2: Option<SharedCache>,
    /// The L3, if any.
    pub l3: Option<SharedCache>,
    /// The on-chip fabric.
    pub noc: NocModel,
    /// The memory controller, if any.
    pub mc: Option<MemCtrl>,
    /// Other off-chip I/O.
    pub io: OffChipIo,
    /// Chip-level shared FPU model (one instance).
    pub shared_fpu: FunctionalUnit,
    /// The clock distribution network.
    pub clock: ClockNetwork,
    /// Warnings accumulated while validating and building: suspicious
    /// configuration values and any solver relaxations that were needed.
    pub warnings: Diagnostics,
    /// Threading and solve-cache statistics of this build.
    pub perf: BuildPerf,
    /// Structured build spans, populated only while
    /// [`mcpat_obs::set_tracing`]`(true)` is active (e.g. `--trace` on
    /// the CLI). `None` in the default, tracing-off configuration.
    pub trace: Option<mcpat_obs::Trace>,
}

impl Processor {
    /// Builds the chip: every component model plus the clock network
    /// sized from the resulting floorplan.
    ///
    /// Validation runs as a collecting pass first: every error is
    /// reported at once via [`McpatError::Invalid`], and the warnings of
    /// a successful pass are kept on [`Processor::warnings`].
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if the configuration fails validation
    /// (with the complete findings), [`McpatError::Array`] naming the
    /// component whose storage array could not be solved, or
    /// [`McpatError::Budget`] when the active budget trips.
    pub fn build(config: &ProcessorConfig) -> Result<Processor, McpatError> {
        Self::scoped("build", || Self::build_inner(config))
    }

    /// Runs one build body — a full build or a delta rebuild — inside
    /// its own collector scope and trace span, then stamps the
    /// collector's counters (and, while tracing, its trace) on the
    /// resulting chip.
    ///
    /// The collector scope makes every solve-cache lookup, pool event
    /// and (probed) allocation of the body — including work stolen by
    /// other pool workers — bill to this build alone.
    fn scoped(
        span: &str,
        body: impl FnOnce() -> Result<Processor, McpatError>,
    ) -> Result<Processor, McpatError> {
        let collector = mcpat_obs::Collector::new();
        let result = {
            let _scope = collector.enter();
            let _span = mcpat_obs::span(span);
            body()
        };
        let snap = collector.snapshot();
        let mut chip = result?;
        chip.perf = BuildPerf {
            threads: mcpat_par::threads(),
            solve_cache_hits: snap.solve_cache_hits,
            solve_cache_misses: snap.solve_cache_misses,
            solve_cache_evictions: snap.solve_cache_evictions,
        };
        chip.trace = mcpat_obs::tracing_enabled().then(|| collector.trace());
        Ok(chip)
    }

    fn build_inner(config: &ProcessorConfig) -> Result<Processor, McpatError> {
        checkpoint("build.validate")?;
        let mut warnings = {
            let _span = mcpat_obs::span("build.validate");
            config
                .validate()
                .into_result()
                .map_err(McpatError::Invalid)?
        };
        mcpat_obs::guard::note_span();
        let mut tech = TechParams::new(config.node, config.device_type, config.temperature_k)
            .with_projection(config.projection)
            .with_long_channel_leakage(config.long_channel_leakage);
        if (config.vdd_scale - 1.0).abs() > 1e-9 {
            tech = tech.with_vdd_scale(config.vdd_scale);
        }

        let mut core_cfg = config.core.clone();
        core_cfg.clock_hz = config.clock_hz;

        // The four heavyweight component families are independent; fan
        // them out. Error priority stays deterministic: core first, then
        // l2, l3, mc — the same order the serial build reported in.
        let (core, l2, l3, mc) = mcpat_par::join4(
            || {
                checkpoint("build.core")?;
                let span = mcpat_obs::span("build.core");
                let r = CoreModel::build(&tech, &core_cfg).map_err(|e| match e {
                    CoreBuildError::Invalid(d) => {
                        let mut all = Diagnostics::new();
                        all.merge_under("core", d);
                        McpatError::Invalid(all)
                    }
                    CoreBuildError::Array(e) => e.under("core").into(),
                });
                if let Ok(core) = &r {
                    span.note_relaxations(core.relaxation_warnings().len() as u64);
                    mcpat_obs::guard::note_span();
                }
                r
            },
            || {
                checkpoint("build.l2")?;
                let span = mcpat_obs::span("build.l2");
                let r = config
                    .l2
                    .as_ref()
                    .map(|c| c.build(&tech).at("l2").map_err(McpatError::from))
                    .transpose();
                if let Ok(r) = &r {
                    if let Some(l2) = r {
                        span.note_relaxations(l2.relaxation_warnings().len() as u64);
                    }
                    mcpat_obs::guard::note_span();
                }
                r
            },
            || {
                checkpoint("build.l3")?;
                let span = mcpat_obs::span("build.l3");
                let r = config
                    .l3
                    .as_ref()
                    .map(|c| c.build(&tech).at("l3").map_err(McpatError::from))
                    .transpose();
                if let Ok(r) = &r {
                    if let Some(l3) = r {
                        span.note_relaxations(l3.relaxation_warnings().len() as u64);
                    }
                    mcpat_obs::guard::note_span();
                }
                r
            },
            || {
                checkpoint("build.mc")?;
                let span = mcpat_obs::span("build.mc");
                let r = config
                    .mc
                    .as_ref()
                    .map(|c| MemCtrl::build(&tech, c).at("mc").map_err(McpatError::from))
                    .transpose();
                if let Ok(r) = &r {
                    if let Some(mc) = r {
                        span.note_relaxations(mc.relaxation_warnings().len() as u64);
                    }
                    mcpat_obs::guard::note_span();
                }
                r
            },
        )
        .map_err(worker_failure("chip"))?;
        let (core, l2, l3, mc) = (core?, l2?, l3?, mc?);
        let io = OffChipIo::new(&tech, config.io_bandwidth);
        let shared_fpu = FunctionalUnit::new(&tech, FuKind::Fpu);
        let noc = build_fabric(config, &tech, &core, l2.as_ref())?;
        merge_relaxations(
            &mut warnings,
            &core,
            l2.as_ref(),
            l3.as_ref(),
            mc.as_ref(),
            &noc,
        );

        checkpoint("build.clock")?;
        let clock_span = mcpat_obs::span("build.clock");
        let clock = clock_network(
            config,
            &tech,
            &core,
            l2.as_ref(),
            l3.as_ref(),
            &noc,
            mc.as_ref(),
            &io,
            &shared_fpu,
        );
        drop(clock_span);
        mcpat_obs::guard::note_span();

        Ok(Processor {
            config: config.clone(),
            tech,
            core,
            l2,
            l3,
            noc,
            mc,
            io,
            shared_fpu,
            clock,
            warnings,
            // `scoped` stamps `perf` (and `trace`) from its collector.
            perf: BuildPerf::default(),
            trace: None,
        })
    }

    /// Re-evaluates this chip under a clock or L2-size change, reusing
    /// every component whose inputs the delta leaves untouched. (A supply
    /// or temperature change re-solves every array: build it instead.)
    ///
    /// The reuse matrix (DESIGN.md §12 argues each row):
    ///
    /// * [`Delta::Clock`] — a clone of this chip, retargeted in place
    ///   by [`Processor::retarget_clock`]: no array re-solves and no
    ///   re-sizing. Under `core.enforce_timing` the solved geometry
    ///   depends on the clock, so this falls back to a full build.
    /// * [`Delta::CacheSize`] — re-solves only the L2 (its geometry is
    ///   the input that changed) and the fabric (whose link length
    ///   follows the cluster footprint); the core, L3, memory
    ///   controller, I/O and shared FPU are reused as-is.
    ///
    /// Whichever path runs, the result is bit-identical to a full build
    /// of `delta.apply(&self.config)` (property-tested per preset).
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if the patched configuration fails
    /// validation, or any build error from the re-solved components.
    pub fn rebuild_with(&self, delta: Delta) -> Result<Processor, McpatError> {
        match delta {
            Delta::Clock(hz) if !clock_delta_rebuilds_fully(&self.config) => {
                Self::scoped("rebuild_with.clock", || {
                    let mut next = self.clone();
                    next.retarget_clock(hz)?;
                    Ok(next)
                })
            }
            // Without an L2 the resize is a no-op patch.
            Delta::CacheSize(_) if self.config.l2.is_some() => {
                Self::scoped("rebuild_with.cache", || {
                    self.rebuild_cache(delta.apply(&self.config))
                })
            }
            _ => Processor::build(&delta.apply(&self.config)),
        }
    }

    /// Moves this chip to `hz` in place: the primitive behind every
    /// clock probe ([`Delta::Clock`] rebuilds, DSE candidates, and
    /// [`crate::clock_budget::max_clock_under_power_budget`]'s bisection).
    ///
    /// Without a cycle-time constraint (`core.enforce_timing == false`,
    /// the default everywhere) the solved geometry of every array is
    /// independent of the target clock: the clock enters only
    /// query-time power math. The clock network's geometry, drivers,
    /// area and leakage follow from the floorplan and the sink load,
    /// not from the frequency, so only its `clock_hz` moves. This
    /// patches the five clock fields (chip and core config, the core
    /// model's and the fabric's config echoes, the clock network).
    /// Nothing is cloned, re-sized or re-solved, so the solver
    /// relaxations stand. The findings stand too when the old and the
    /// new clock are both quiet (`ProcessorConfig::clock_is_quiet`)
    /// and the name rule still reads as it did; otherwise the
    /// configuration is re-validated — advisories such as the
    /// aggressive-clock warning depend on the clock — and the
    /// relaxations are re-merged under the new findings. Under
    /// `core.enforce_timing` the geometry does depend on the clock, so
    /// the chip is replaced by a full build of the patched
    /// configuration.
    ///
    /// Afterwards the chip is bit-identical to a full build of its
    /// configuration with the clock patched (property-tested per
    /// preset), except for [`Processor::perf`] and
    /// [`Processor::trace`], which still describe the build that
    /// produced the chip.
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if the retargeted configuration fails
    /// validation, [`McpatError::Budget`] when the active budget trips,
    /// or any build error of the enforce-timing fallback. On error the
    /// chip is left unchanged. On success, which of the two paths ran.
    pub fn retarget_clock(&mut self, hz: f64) -> Result<Retarget, McpatError> {
        checkpoint("retarget_clock")?;
        let prev = (self.config.clock_hz, self.config.core.clock_hz);
        let findings_stand = [prev.0, prev.1, hz]
            .into_iter()
            .all(|clock| self.config.clock_is_quiet(clock))
            && self.name_finding_is_current();
        self.config.clock_hz = hz;
        self.config.core.clock_hz = hz;
        let result = if clock_delta_rebuilds_fully(&self.config) {
            Processor::build(&self.config).map(|chip| {
                *self = chip;
                Retarget::FullBuild
            })
        } else if findings_stand {
            self.patch_component_clocks(hz);
            Ok(Retarget::Patched)
        } else {
            self.config
                .validate()
                .into_result()
                .map_err(McpatError::Invalid)
                .map(|validation| {
                    self.patch_component_clocks(hz);
                    self.warnings = validation;
                    merge_relaxations(
                        &mut self.warnings,
                        &self.core,
                        self.l2.as_ref(),
                        self.l3.as_ref(),
                        self.mc.as_ref(),
                        &self.noc,
                    );
                    Retarget::Patched
                })
        };
        if result.is_err() {
            (self.config.clock_hz, self.config.core.clock_hz) = prev;
        }
        result
    }

    /// The clock echoes of the components [`Processor::retarget_clock`]
    /// keeps.
    fn patch_component_clocks(&mut self, hz: f64) {
        self.core.config.clock_hz = hz;
        self.noc.config.clock_hz = hz;
        self.clock.clock_hz = hz;
    }

    /// True if [`Processor::warnings`] carries the unnamed-configuration
    /// finding exactly when the name is empty: the DSE engine renames
    /// a chip between probes without re-validating it.
    fn name_finding_is_current(&self) -> bool {
        let flagged = self.warnings.iter().any(|f| f.path == UNNAMED_FINDING_PATH);
        flagged == self.config.name.is_empty()
    }

    /// The incremental body of the [`Delta::CacheSize`] path: re-solve
    /// the L2 and the fabric, reuse everything else, and re-size the
    /// clock network with the functions `build` uses, so the result is
    /// bit-identical to a full build of `config`.
    fn rebuild_cache(&self, config: ProcessorConfig) -> Result<Processor, McpatError> {
        checkpoint("rebuild_with.cache")?;
        let mut warnings = config
            .validate()
            .into_result()
            .map_err(McpatError::Invalid)?;
        let l2 = config
            .l2
            .as_ref()
            .map(|c| c.build(&self.tech).at("l2").map_err(McpatError::from))
            .transpose()?;
        mcpat_obs::guard::note_span();
        // The fabric link spans one cluster tile, whose footprint just
        // changed with the L2.
        let noc = build_fabric(&config, &self.tech, &self.core, l2.as_ref())?;
        merge_relaxations(
            &mut warnings,
            &self.core,
            l2.as_ref(),
            self.l3.as_ref(),
            self.mc.as_ref(),
            &noc,
        );
        let clock = clock_network(
            &config,
            &self.tech,
            &self.core,
            l2.as_ref(),
            self.l3.as_ref(),
            &noc,
            self.mc.as_ref(),
            &self.io,
            &self.shared_fpu,
        );
        Ok(Processor {
            config,
            l2,
            noc,
            clock,
            warnings,
            ..self.clone()
        })
    }

    /// The area items of the floorplan summary in fixed slots: the one
    /// walk behind [`Processor::area_breakdown`] and
    /// [`Processor::die_area`].
    fn area_items(&self) -> [Option<AreaItem>; CHIP_ITEMS] {
        let c = &self.config;
        let gating_overhead = if c.power_gating { 1.04 } else { 1.0 };
        let mut items = [None; CHIP_ITEMS];
        let mut push = slot_writer(&mut items);
        push(AreaItem {
            name: "cores",
            area: self.core.area() * f64::from(c.num_cores) * gating_overhead,
        });
        if let Some(l2) = &self.l2 {
            push(AreaItem {
                name: "l2",
                area: l2.area() * f64::from(c.num_l2s),
            });
        }
        if let Some(l3) = &self.l3 {
            push(AreaItem {
                name: "l3",
                area: l3.area(),
            });
        }
        push(AreaItem {
            name: "noc",
            area: self.noc.area(),
        });
        if let Some(mc) = &self.mc {
            push(AreaItem {
                name: "mc",
                area: mc.area(),
            });
        }
        push(AreaItem {
            name: "io",
            area: self.io.area,
        });
        if c.num_shared_fpus > 0 {
            push(AreaItem {
                name: "shared-fpu",
                area: self.shared_fpu.area * f64::from(c.num_shared_fpus),
            });
        }
        push(AreaItem {
            name: "clock",
            area: self.clock.area(),
        });
        drop(push);
        items
    }

    /// Floorplan summary: per-component areas (component sums, without
    /// the whitespace overhead).
    #[must_use]
    pub fn area_breakdown(&self) -> Vec<AreaItem> {
        self.area_items().into_iter().flatten().collect()
    }

    /// Die area including layout overhead and the pad ring, m². Does
    /// not allocate.
    #[must_use]
    pub fn die_area(&self) -> f64 {
        let components: f64 = self.area_items().iter().flatten().map(|i| i.area).sum();
        let active = components * DIE_AREA_OVERHEAD;
        let edge = active.sqrt() + 2.0 * PAD_RING_WIDTH;
        edge * edge
    }

    /// Die area in mm².
    #[must_use]
    pub fn die_area_mm2(&self) -> f64 {
        self.die_area() * 1e6
    }

    /// Timing roll-up.
    #[must_use]
    pub fn timing(&self) -> TimingReport {
        TimingReport {
            fo4: self.tech.fo4(),
            core_max_clock_hz: self.core.max_clock_hz(),
            l2_cycle_time: self.l2.as_ref().map_or(0.0, |l| l.cache.cycle_time),
            target_clock_hz: self.config.clock_hz,
        }
    }

    /// Runtime power from simulator statistics.
    #[must_use]
    pub fn runtime_power(&self, stats: &ChipStats) -> ChipPower {
        self.power_items(stats, &stats.cores).into_chip_power()
    }

    /// The power walk behind every roll-up: the chip's components under
    /// `stats`, with `cores` standing in for `stats.cores` (entry i
    /// serves core i, the last entry every core beyond the list). Does
    /// not allocate.
    fn power_items(&self, stats: &ChipStats, cores: &[CoreStats]) -> PowerItems {
        let mut core_detail = None;
        let dynamic = self.dynamic_walk(self.clock.clock_hz, stats, cores, |cs| {
            let p = self.core.power_items(cs);
            let dynamic = mcpat_mcore::core::dynamic_of(p.iter().flatten());
            core_detail.get_or_insert(p);
            dynamic
        });
        let leakage = self.leakage_items(dynamic.cores_leakage_scale);
        let mut items = [None; CHIP_ITEMS];
        let walk = items
            .iter_mut()
            .zip(CHIP_ITEM_NAMES.into_iter().zip(dynamic.items).zip(leakage));
        for (slot, ((name, dynamic), leakage)) in walk {
            if let (Some(dynamic), Some(leakage)) = (dynamic, leakage) {
                *slot = Some(ChipPowerItem {
                    name,
                    dynamic,
                    leakage,
                });
            }
        }
        PowerItems { items, core_detail }
    }

    /// The dynamic half of the power walk. `core_dynamic` prices one
    /// core under its stats entry; it runs once per group of cores
    /// sharing one, in core order. The clock network, the one component
    /// that reads a clock of its own, switches at `clock_hz`.
    fn dynamic_walk(
        &self,
        clock_hz: f64,
        stats: &ChipStats,
        cores: &[CoreStats],
        mut core_dynamic: impl FnMut(&CoreStats) -> f64,
    ) -> DynamicWalk {
        let c = &self.config;
        let mut cores_dynamic = 0.0;
        // With power gating, an idle core drops to a retention state
        // that keeps ~10% of its leakage.
        let mut cores_leakage_scale = 0.0;
        for (cs, weight) in core_groups(c.num_cores, cores) {
            cores_dynamic += core_dynamic(&cs) * weight;
            let duty = cs.duty();
            cores_leakage_scale += weight
                * if c.power_gating {
                    duty + (1.0 - duty) * 0.10
                } else {
                    1.0
                };
        }
        // Wakeup transitions recharge the gated rail.
        if c.power_gating && stats.core_wakeups > 0 {
            let e_wake = WAKEUP_ENERGY_PER_M2 * self.core.area();
            cores_dynamic += stats.core_wakeups as f64 * e_wake / stats.duration_s.max(1e-12);
        }

        // Clock: gate the grid by the cores' average idleness when the
        // core supports clock gating.
        let avg_duty = if c.num_cores > 0 {
            core_groups(c.num_cores, cores)
                .map(|(cs, weight)| cs.duty() * weight)
                .sum::<f64>()
                / f64::from(c.num_cores)
        } else {
            0.0
        };
        let gated_fraction = if c.core.clock_gating {
            1.0 - avg_duty
        } else {
            0.0
        };
        let mut clock = self.clock;
        clock.clock_hz = clock_hz;
        let items = [
            Some(cores_dynamic),
            self.l2.as_ref().map(|l2| l2.dynamic_power(&stats.l2)),
            self.l3.as_ref().map(|l3| l3.dynamic_power(&stats.l3)),
            Some(self.noc.dynamic_power(&stats.noc)),
            self.mc.as_ref().map(|mc| mc.dynamic_power(&stats.mc)),
            Some(self.io.power_at_utilization(stats.io_utilization) - self.io.standby_power),
            (c.num_shared_fpus > 0).then(|| {
                stats.shared_fpu_ops as f64 * self.shared_fpu.energy_per_op
                    / stats.duration_s.max(1e-12)
            }),
            Some(clock.dynamic_power_gated(gated_fraction)),
        ];
        DynamicWalk {
            items,
            cores_leakage_scale,
        }
    }

    /// The leakage half of the power walk, W, in the slots of
    /// [`DynamicWalk::items`]. Nothing here depends on the clock except
    /// `cores_scale` ([`DynamicWalk::cores_leakage_scale`]).
    fn leakage_items(&self, cores_scale: f64) -> [Option<StaticPower>; CHIP_ITEMS] {
        let c = &self.config;
        [
            Some(self.core.leakage().scaled(cores_scale)),
            self.l2
                .as_ref()
                .map(|l2| l2.leakage().scaled(f64::from(c.num_l2s))),
            self.l3.as_ref().map(SharedCache::leakage),
            Some(self.noc.leakage()),
            self.mc.as_ref().map(MemCtrl::leakage),
            Some(self.io.leakage()),
            (c.num_shared_fpus > 0)
                .then(|| self.shared_fpu.leakage.scaled(f64::from(c.num_shared_fpus))),
            Some(self.clock.leakage()),
        ]
    }

    /// The TDP-style peak statistics at `clock_hz`: the chip's, and the
    /// one entry every core shares.
    fn peak_stats_at(&self, clock_hz: f64) -> (ChipStats, CoreStats) {
        ChipStats::peak_parts(
            1e-3,
            self.config.num_cores,
            clock_hz,
            self.config.core.issue_width,
            self.config.core.fp_issue_width,
        )
    }

    /// [`Processor::peak_stats_at`] this chip's clock.
    fn peak_stats(&self) -> (ChipStats, CoreStats) {
        self.peak_stats_at(self.config.clock_hz)
    }

    /// The power walk under TDP-style peak statistics, allocation-free.
    fn peak_items(&self) -> PowerItems {
        let (stats, core) = self.peak_stats();
        self.power_items(&stats, std::slice::from_ref(&core))
    }

    /// TDP-style peak power: sustained worst-case activity, W.
    #[must_use]
    pub fn peak_power(&self) -> ChipPower {
        self.peak_items().into_chip_power()
    }

    /// `peak_power().total()` without building the breakdown: the same
    /// bits, no allocation.
    #[must_use]
    pub fn peak_power_total(&self) -> f64 {
        total_of(self.peak_items().iter())
    }

    /// Total chip leakage, W: `peak_power().leakage()` without building
    /// the breakdown. Does not allocate.
    #[must_use]
    // lint: allow(L013, the bit-identity harnesses pin it against peak_power().leakage())
    pub fn total_leakage(&self) -> StaticPower {
        leakage_of(self.peak_items().iter())
    }

    /// The clock-invariant half of [`Processor::peak_power_total`], for
    /// [`Processor::peak_power_total_with`]: one leakage walk.
    pub(crate) fn peak_leakage(&self) -> PeakLeakage {
        let cores_scale = self.peak_dynamic_walk().cores_leakage_scale;
        let leakage: StaticPower = self.leakage_items(cores_scale).into_iter().flatten().sum();
        PeakLeakage {
            total: leakage.total(),
            cores_scale,
        }
    }

    /// [`Processor::peak_power_total`], bit for bit, given the
    /// [`Processor::peak_leakage`] of this chip or of one it was
    /// retargeted from: only the dynamic terms are walked, and the
    /// core's per-unit leakage is never summed. Falls back to the full
    /// walk if the clock moved the cores' leakage scale (a power-gated
    /// chip whose peak window holds no whole cycle).
    pub(crate) fn peak_power_total_with(&self, leakage: &PeakLeakage) -> f64 {
        let walk = self.peak_dynamic_walk();
        if !walk.keeps(leakage) {
            return self.peak_power_total();
        }
        walk.dynamic_total() + leakage.total
    }

    /// A floor under what [`Processor::peak_power_total_with`] returns,
    /// given `leakage`, on this chip retargeted to `hz`
    /// ([`Processor::retarget_clock`]): the same walk at `hz` with the
    /// cores' dynamic term priced at zero. The retargeted chip walks
    /// these very components: only the cores and the clock network
    /// read their clock, and the network is walked at `hz` here. Every
    /// term is non-negative and finite, and round-to-nearest addition
    /// is monotone, so the fold with one term zeroed cannot exceed the
    /// probe's.
    ///
    /// `None` where the probe would not take that walk: under
    /// `core.enforce_timing` (a full build) and where `hz` moves the
    /// cores' leakage scale.
    pub(crate) fn peak_power_floor_at(&self, hz: f64, leakage: &PeakLeakage) -> Option<f64> {
        if clock_delta_rebuilds_fully(&self.config) {
            return None;
        }
        let (stats, core) = self.peak_stats_at(hz);
        let walk = self.dynamic_walk(hz, &stats, std::slice::from_ref(&core), |_| 0.0);
        walk.keeps(leakage)
            .then(|| walk.dynamic_total() + leakage.total)
    }

    /// True if every clock retarget keeps this chip's peak leakage, so
    /// that its total alone is a floor under the probe's peak power at
    /// any clock: no enforced timing (where a probe is a full build)
    /// and no power gating (without it, [`Processor::dynamic_walk`]
    /// counts every core's leakage in full, whatever the clock).
    pub(crate) fn peak_leakage_is_clock_invariant(&self) -> bool {
        !(self.config.power_gating || clock_delta_rebuilds_fully(&self.config))
    }

    /// The dynamic half of the peak power walk, pricing the core with
    /// [`CoreModel::dynamic_power`].
    fn peak_dynamic_walk(&self) -> DynamicWalk {
        let (stats, core) = self.peak_stats();
        self.dynamic_walk(
            self.clock.clock_hz,
            &stats,
            std::slice::from_ref(&core),
            |cs| self.core.dynamic_power(cs),
        )
    }
}

/// The dynamic half of a power walk ([`Processor::dynamic_walk`]).
struct DynamicWalk {
    /// Each item's dynamic power, W, one slot per entry of
    /// [`CHIP_ITEM_NAMES`] (`None` for a component the chip lacks).
    items: [Option<f64>; CHIP_ITEMS],
    /// The factor on one core's leakage for the `cores` item: the core
    /// count, with power gating counting an idle core at the ~10% of
    /// its leakage it retains.
    cores_leakage_scale: f64,
}

impl DynamicWalk {
    /// The dynamic fold of `total_of`, over the same items in the same
    /// order.
    fn dynamic_total(&self) -> f64 {
        self.items.into_iter().flatten().sum()
    }

    /// True if this walk leaves the cores' leakage scale of `leakage`
    /// as it was, so its total still holds.
    fn keeps(&self, leakage: &PeakLeakage) -> bool {
        self.cores_leakage_scale.to_bits() == leakage.cores_scale.to_bits()
    }
}

/// `(stats, weight)` per group of cores sharing one entry of `cores`
/// (entry i serves core i, the last entry every core beyond the list),
/// so a power walk costs the number of distinct entries, not
/// `num_cores`.
fn core_groups(num_cores: u32, cores: &[CoreStats]) -> impl Iterator<Item = (CoreStats, f64)> + '_ {
    let n_cores = num_cores as usize;
    let groups_len = if n_cores == 0 {
        0
    } else {
        cores.len().max(1).min(n_cores)
    };
    let last = cores.len().saturating_sub(1);
    (0..groups_len).map(move |i| {
        let cs = cores.get(i.min(last)).copied().unwrap_or_default();
        let weight = if i + 1 == groups_len {
            (n_cores - groups_len + 1) as f64
        } else {
            1.0
        };
        (cs, weight)
    })
}

/// The clock-invariant part of a chip's peak power, taken once per DSE
/// row ([`Processor::peak_leakage`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PeakLeakage {
    /// [`Processor::total_leakage`]'s total, W.
    pub(crate) total: f64,
    /// The cores' leakage scale it was taken at.
    cores_scale: f64,
}

/// The on-chip fabric; its link length ≈ the pitch of one cluster tile.
fn build_fabric(
    config: &ProcessorConfig,
    tech: &TechParams,
    core: &CoreModel,
    l2: Option<&SharedCache>,
) -> Result<NocModel, McpatError> {
    let cluster_area =
        core.area() * f64::from(config.cores_per_cluster()) + l2.map_or(0.0, SharedCache::area);
    let link_length = cluster_area.max(1e-12).sqrt();
    checkpoint("build.fabric")?;
    let span = mcpat_obs::span("build.fabric");
    let noc = NocConfig {
        topology: config.fabric.topology,
        flit_bits: config.fabric.flit_bits,
        vcs_per_port: config.fabric.vcs_per_port,
        buffers_per_vc: config.fabric.buffers_per_vc,
        link_length,
        clock_hz: config.clock_hz,
    }
    .build(tech)
    .at("fabric")?;
    drop(span);
    mcpat_obs::guard::note_span();
    Ok(noc)
}

/// Appends every array the solver could only place by degrading to
/// `warnings`, rooted at the owning component.
fn merge_relaxations(
    warnings: &mut Diagnostics,
    core: &CoreModel,
    l2: Option<&SharedCache>,
    l3: Option<&SharedCache>,
    mc: Option<&MemCtrl>,
    noc: &NocModel,
) {
    warnings.merge_under("core", core.relaxation_warnings());
    if let Some(l2) = l2 {
        warnings.merge_under("l2", l2.relaxation_warnings());
    }
    if let Some(l3) = l3 {
        warnings.merge_under("l3", l3.relaxation_warnings());
    }
    if let Some(mc) = mc {
        warnings.merge_under("mc", mc.relaxation_warnings());
    }
    if let Some(w) = noc
        .router
        .as_ref()
        .and_then(|r| r.input_buffer.relaxation_warning())
    {
        warnings.push(w.under("fabric"));
    }
}

/// The clock network over the die the components occupy: die area from
/// the component sum plus layout overhead, load from the cores' clocked
/// pipeline plus the periphery's sinks.
#[allow(clippy::too_many_arguments)]
fn clock_network(
    config: &ProcessorConfig,
    tech: &TechParams,
    core: &CoreModel,
    l2: Option<&SharedCache>,
    l3: Option<&SharedCache>,
    noc: &NocModel,
    mc: Option<&MemCtrl>,
    io: &OffChipIo,
    shared_fpu: &FunctionalUnit,
) -> ClockNetwork {
    let component_area = core.area() * f64::from(config.num_cores)
        + l2.map_or(0.0, SharedCache::area) * f64::from(config.num_l2s)
        + l3.map_or(0.0, SharedCache::area)
        + noc.area()
        + mc.map_or(0.0, MemCtrl::area)
        + io.area
        + shared_fpu.area * f64::from(config.num_shared_fpus);
    let die_area = component_area * DIE_AREA_OVERHEAD;
    let die_edge = die_area.sqrt();
    let vdd = tech.device.vdd;
    let core_sink_cap =
        f64::from(config.num_cores) * 2.0 * core.pipeline.clock_energy_per_cycle / (vdd * vdd);
    let sink_cap = core_sink_cap + CLOCK_SINK_CAP_PER_M2 * die_area * 0.5;
    ClockNetwork::new(tech, die_edge, die_edge, config.clock_hz, sink_cap)
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;
    use mcpat_tech::DeviceType;

    #[test]
    fn niagara_builds_and_is_plausible() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        let p = chip.peak_power();
        let area = chip.die_area_mm2();
        // Published: 63 W, 378 mm². Accept a generous modeling band here;
        // the validation bench asserts tighter.
        assert!(p.total() > 20.0 && p.total() < 160.0, "power {}", p.total());
        assert!(area > 80.0 && area < 900.0, "area {area}");
    }

    #[test]
    fn all_validation_presets_build() {
        for cfg in [
            ProcessorConfig::niagara(),
            ProcessorConfig::niagara2(),
            ProcessorConfig::alpha21364(),
            ProcessorConfig::tulsa(),
        ] {
            let chip = Processor::build(&cfg).unwrap_or_else(|e| panic!("{}: {e}", cfg.name));
            assert!(chip.peak_power().total() > 10.0, "{}", cfg.name);
            assert!(chip.die_area_mm2() > 50.0, "{}", cfg.name);
        }
    }

    #[test]
    fn tulsa_l3_banks_reach_the_model() {
        let read_hit = |banks: u32| {
            let mut cfg = ProcessorConfig::tulsa();
            let l3 = cfg.l3.as_mut().unwrap();
            assert_eq!(l3.cache.banks, 8);
            l3.cache.banks = banks;
            Processor::build(&cfg)
                .unwrap()
                .l3
                .unwrap()
                .cache
                .read_hit_energy
        };
        // Eight 2 MB banks: each access reaches one bank, not the whole 16 MB.
        let (eight, one) = (read_hit(8), read_hit(1));
        assert!(eight < one, "8 banks {eight} J vs 1 bank {one} J");
    }

    #[test]
    fn breakdown_contains_expected_components() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        let p = chip.peak_power();
        for name in ["cores", "l2", "noc", "mc", "io", "clock", "shared-fpu"] {
            assert!(p.component(name).is_some(), "missing {name}");
        }
    }

    #[test]
    fn leakage_grows_with_temperature() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.temperature_k = 330.0;
        let cold = Processor::build(&cfg).unwrap().total_leakage().total();
        cfg.temperature_k = 380.0;
        let hot = Processor::build(&cfg).unwrap().total_leakage().total();
        assert!(hot > 1.5 * cold, "cold {cold} hot {hot}");
    }

    #[test]
    fn runtime_power_tracks_utilization() {
        let chip = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        let peak = chip.peak_power();
        let mut quiet = ChipStats::peak(1e-3, 8, 1.4e9, 2, 1);
        for core in &mut quiet.cores {
            core.idle_cycles = core.cycles * 9 / 10;
            core.issues /= 10;
            core.int_ops /= 10;
            core.loads /= 10;
            core.stores /= 10;
            core.fetches /= 10;
            core.decodes /= 10;
        }
        quiet.io_utilization = 0.1;
        let p = chip.runtime_power(&quiet);
        assert!(p.total() < peak.total());
    }

    #[test]
    fn true_vdd_scaling_rebuild_matches_first_order_dvfs_direction() {
        let mut cfg = ProcessorConfig::niagara2();
        let nominal = Processor::build(&cfg).unwrap();
        cfg.vdd_scale = 0.85;
        cfg.clock_hz *= 0.85;
        cfg.core.clock_hz = cfg.clock_hz;
        let scaled = Processor::build(&cfg).unwrap();
        let p_nom = nominal.peak_power();
        let p_low = scaled.peak_power();
        // True rebuild: both dynamic and leakage drop.
        assert!(p_low.dynamic() < p_nom.dynamic());
        assert!(p_low.leakage().total() < p_nom.leakage().total());
        // And the first-order V²f law is the right ballpark for dynamic.
        let first_order = p_nom.dynamic() * 0.85f64.powi(3);
        let ratio = p_low.dynamic() / first_order;
        assert!(ratio > 0.7 && ratio < 1.4, "ratio {ratio}");
        // Timing honestly degrades: the slower corner supports a lower
        // max clock.
        assert!(scaled.timing().core_max_clock_hz < nominal.timing().core_max_clock_hz);
    }

    #[test]
    fn wakeup_energy_is_charged_only_when_gated() {
        let mut cfg = ProcessorConfig::niagara2();
        cfg.power_gating = true;
        let chip = Processor::build(&cfg).unwrap();
        let mut stats = ChipStats::peak(1e-3, 8, 1.4e9, 2, 1);
        let base = chip.runtime_power(&stats).total();
        stats.core_wakeups = 100_000; // aggressive sleep cycling
        let with = chip.runtime_power(&stats).total();
        assert!(with > base, "wakeups must cost energy: {with} vs {base}");

        cfg.power_gating = false;
        let ungated = Processor::build(&cfg).unwrap();
        let p1 = ungated.runtime_power(&stats).total();
        stats.core_wakeups = 0;
        let p0 = ungated.runtime_power(&stats).total();
        assert!((p1 - p0).abs() < 1e-12, "no gating, no wakeup cost");
    }

    #[test]
    fn infeasible_clock_degrades_with_warnings_in_the_report() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.clock_hz = 300e9; // ~3 ps cycle: no array can do this
        cfg.core.enforce_timing = true;
        let chip = Processor::build(&cfg).expect("infeasible clocks degrade, not fail");
        assert!(
            chip.warnings.iter().any(|w| w.path.starts_with("core.")
                && w.message.contains("cycle-time constraint")),
            "expected relaxation warnings rooted under core:\n{}",
            chip.warnings
        );
        let report = chip.report();
        assert!(report.contains("Warnings"), "report must surface warnings");
        assert!(report.contains("cycle-time constraint"), "\n{report}");
    }

    #[test]
    fn feasible_build_has_no_warnings() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        assert!(chip.warnings.is_empty(), "{}", chip.warnings);
    }

    #[test]
    fn rebuild_with_clock_delta_matches_full_build_bit_for_bit() {
        let base = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        for clock in [0.9e9, 1.4e9, 2.7e9, 12.0e9] {
            let fast = base.rebuild_with(Delta::Clock(clock)).unwrap();
            let mut cfg = ProcessorConfig::niagara2();
            cfg.clock_hz = clock;
            cfg.core.clock_hz = clock;
            let full = Processor::build(&cfg).unwrap();
            assert_eq!(
                fast.peak_power().total().to_bits(),
                full.peak_power().total().to_bits(),
                "peak power at {clock:e} Hz"
            );
            assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
            assert_eq!(
                fast.clock.dynamic_power_gated(0.0).to_bits(),
                full.clock.dynamic_power_gated(0.0).to_bits()
            );
            // The >10 GHz advisory must appear on the incremental path
            // exactly as it does on the full one.
            assert_eq!(fast.warnings.len(), full.warnings.len(), "at {clock:e} Hz");
        }
    }

    #[test]
    fn rebuild_with_cache_size_matches_full_build_bit_for_bit() {
        let base = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        assert!(base.config.l2.is_some(), "preset must carry an L2");
        for bytes in [1u64 << 20, 3 << 20, 8 << 20] {
            let fast = base.rebuild_with(Delta::CacheSize(bytes)).unwrap();
            let full = Processor::build(&Delta::CacheSize(bytes).apply(&base.config)).unwrap();
            assert_eq!(
                fast.peak_power().total().to_bits(),
                full.peak_power().total().to_bits(),
                "peak power at {bytes} B"
            );
            assert_eq!(fast.die_area().to_bits(), full.die_area().to_bits());
            assert_eq!(fast.warnings.len(), full.warnings.len(), "at {bytes} B");
        }
    }

    #[test]
    fn rebuild_with_clock_delta_solves_no_arrays() {
        let base = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        let fast = base.rebuild_with(Delta::Clock(2.1e9)).unwrap();
        assert_eq!(fast.perf.solve_cache_hits + fast.perf.solve_cache_misses, 0);
        assert!(!clock_delta_rebuilds_fully(&base.config));
    }

    #[test]
    fn rebuild_with_clock_delta_falls_back_under_enforced_timing() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.core.enforce_timing = true;
        assert!(clock_delta_rebuilds_fully(&cfg));
        let base = Processor::build(&cfg).unwrap();
        let fast = base.rebuild_with(Delta::Clock(2.4e9)).unwrap();
        let mut at = cfg.clone();
        at.clock_hz = 2.4e9;
        at.core.clock_hz = 2.4e9;
        let full = Processor::build(&at).unwrap();
        assert_eq!(
            fast.peak_power().total().to_bits(),
            full.peak_power().total().to_bits()
        );
        assert_eq!(fast.warnings.len(), full.warnings.len());
    }

    #[test]
    fn retarget_clock_falls_back_to_a_full_build_under_enforced_timing() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.core.enforce_timing = true;
        let mut chip = Processor::build(&cfg).unwrap();
        assert_eq!(chip.retarget_clock(2.4e9).unwrap(), Retarget::FullBuild);
        let full = Processor::build(&Delta::Clock(2.4e9).apply(&cfg)).unwrap();
        assert_eq!(
            chip.peak_power_total().to_bits(),
            full.peak_power_total().to_bits()
        );
        assert_eq!(chip.die_area().to_bits(), full.die_area().to_bits());
        assert_eq!(chip.warnings.len(), full.warnings.len());
    }

    #[test]
    fn a_rejected_retarget_leaves_the_chip_unchanged() {
        let mut chip = Processor::build(&ProcessorConfig::niagara2()).unwrap();
        let (clock, power) = (chip.config.clock_hz, chip.peak_power_total());
        for bad in [-1.0, f64::NAN] {
            let err = chip.retarget_clock(bad).expect_err("invalid clock");
            assert!(matches!(err, McpatError::Invalid(_)), "{err}");
            assert_eq!(chip.config.clock_hz.to_bits(), clock.to_bits());
            assert_eq!(chip.config.core.clock_hz.to_bits(), clock.to_bits());
            assert_eq!(chip.peak_power_total().to_bits(), power.to_bits());
        }
    }

    #[test]
    fn retargeting_keeps_findings_only_while_they_hold() {
        for device in [DeviceType::Hp, DeviceType::Lstp] {
            let mut cfg = ProcessorConfig::niagara2();
            cfg.device_type = device;
            let mut chip = Processor::build(&cfg).unwrap();
            // Renames (the DSE engine's) and clocks on both sides of
            // both clock advisories.
            for (name, hz) in [
                ("", 1.0e9),
                ("", 1.1e9),
                ("n2", 1.2e9),
                ("n2", 1.8e9),
                ("n2", 12.0e9),
                ("", 11.0e9),
                ("", 1.3e9),
                ("x", 1.4e9),
            ] {
                chip.config.name = name.into();
                chip.retarget_clock(hz).unwrap();
                let full = Processor::build(&chip.config).unwrap();
                assert_eq!(
                    chip.warnings, full.warnings,
                    "{device:?} {name:?} at {hz:e} Hz"
                );
            }
        }
    }

    #[test]
    fn peak_total_with_row_leakage_equals_the_full_walk() {
        for preset in [
            ProcessorConfig::niagara(),
            ProcessorConfig::niagara2(),
            ProcessorConfig::alpha21364(),
            ProcessorConfig::tulsa(),
        ] {
            for gating in [false, true] {
                let mut cfg = preset.clone();
                cfg.power_gating = gating;
                let base = Processor::build(&cfg).unwrap();
                let leakage = base.peak_leakage();
                assert_eq!(
                    leakage.total.to_bits(),
                    base.total_leakage().total().to_bits()
                );
                let mut chip = base.clone();
                // At 500 Hz the 1 ms peak window holds no whole cycle,
                // which moves a gated chip's leakage: the fallback.
                for hz in [cfg.clock_hz, 0.7e9, 2.9e9, 500.0, 12.0e9, 1.1e9] {
                    chip.retarget_clock(hz).unwrap();
                    assert_eq!(
                        chip.peak_power_total_with(&leakage).to_bits(),
                        chip.peak_power_total().to_bits(),
                        "{} (gating {gating}) at {hz:e} Hz",
                        cfg.name
                    );
                }
            }
        }
    }

    #[test]
    fn timing_report_is_consistent() {
        let chip = Processor::build(&ProcessorConfig::niagara()).unwrap();
        let t = chip.timing();
        assert!(t.fo4 > 0.0);
        assert!(t.core_max_clock_hz > 0.0);
        assert_eq!(t.target_clock_hz, 1.2e9);
        // Niagara's modest 1.2 GHz target is feasible at 90 nm.
        assert!(
            t.core_max_clock_hz >= t.target_clock_hz,
            "max {:e}",
            t.core_max_clock_hz
        );
    }
}
