//! Whole-processor assembly: the internal chip representation.

use crate::config::{ProcessorConfig, UNNAMED_FINDING_PATH};
use crate::error::McpatError;
use crate::power::{total_of, ChipPower, ChipPowerItem};
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
use mcpat_uncore::shared_cache::{SharedCache, SharedCacheConfig};

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

/// The path [`Processor::retarget`] took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retarget {
    /// Patched in place; no array was re-solved.
    Patched,
    /// The L2 and the fabric were re-solved and the clock network
    /// re-sized; every other component was kept.
    L2Resolved,
    /// The clock moved under `core.enforce_timing`, which ties the
    /// solved geometry to it, so the chip was replaced by a full build.
    FullBuild,
}

/// A single-axis change to an already-built chip, applied in place by
/// [`Processor::retarget`] or to a copy by [`Processor::rebuild_with`].
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
    // lint: allow(L013, the bit-identity property tests build it as the reference a retarget must equal)
    pub fn apply(self, base: &ProcessorConfig) -> ProcessorConfig {
        let mut config = base.clone();
        self.patch(&mut config);
        config
    }

    /// Writes this delta into `config`.
    fn patch(self, config: &mut ProcessorConfig) {
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
        let mut warnings = component("build.validate", || findings(config), |_| 0)?;
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
                let build = || {
                    CoreModel::build(&tech, &core_cfg).map_err(|e| match e {
                        CoreBuildError::Invalid(d) => {
                            let mut all = Diagnostics::new();
                            all.merge_under("core", d);
                            McpatError::Invalid(all)
                        }
                        CoreBuildError::Array(e) => e.under("core").into(),
                    })
                };
                component("build.core", build, |core| core.relaxation_warnings().len())
            },
            || cache_stage("build.l2", "l2", config.l2.as_ref(), &tech),
            || cache_stage("build.l3", "l3", config.l3.as_ref(), &tech),
            || {
                let build = |c| MemCtrl::build(&tech, c).at("mc");
                let mc = || {
                    config
                        .mc
                        .as_ref()
                        .map(build)
                        .transpose()
                        .map_err(McpatError::from)
                };
                component("build.mc", mc, |mc| {
                    mc.as_ref().map_or(0, |c| c.relaxation_warnings().len())
                })
            },
        )
        .map_err(worker_failure("chip"))?;
        let (core, l2, l3, mc) = (core?, l2?, l3?, mc?);
        let io = OffChipIo::new(&tech, config.io_bandwidth);
        let shared_fpu = FunctionalUnit::new(&tech, FuKind::Fpu);
        let (noc, clock) = assemble(
            config,
            &tech,
            &core,
            l2.as_ref(),
            l3.as_ref(),
            mc.as_ref(),
            &io,
            &shared_fpu,
            &mut warnings,
        )?;
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

    /// A copy of this chip moved along `delta` by
    /// [`Processor::retarget`], inside its own collector scope, so its
    /// [`Processor::perf`] counts only the work the delta took.
    ///
    /// # Errors
    ///
    /// Any error of [`Processor::retarget`].
    pub fn rebuild_with(&self, delta: Delta) -> Result<Processor, McpatError> {
        Self::scoped("rebuild_with", || {
            let mut next = self.clone();
            next.retarget(delta)?;
            Ok(next)
        })
    }

    /// Moves this chip along `delta` in place, reusing every component
    /// whose inputs the delta leaves untouched, and says which path it
    /// took: the one place that decides how a delta is rebuilt. (A
    /// supply or temperature change re-solves every array: build it
    /// instead.) DESIGN.md §8.2 and §12 argue each path:
    ///
    /// * [`Delta::Clock`] — [`Retarget::Patched`]. Without a cycle-time
    ///   constraint no solved geometry depends on the clock, which
    ///   enters only query-time power math; the clock network's
    ///   geometry follows from the floorplan and the sink load. So the
    ///   five clock fields are patched (chip and core config, the core
    ///   model's and the fabric's config echoes, the clock network).
    ///   The findings stand while the old and the new clock are quiet
    ///   (`ProcessorConfig::clock_is_quiet`) and the name rule reads as
    ///   it did; otherwise the configuration is re-validated and the
    ///   unchanged relaxations re-merged. Under `core.enforce_timing`
    ///   the arrays were sized to the old cycle time, so a clock that
    ///   moves is a [`Retarget::FullBuild`].
    /// * [`Delta::CacheSize`] — [`Retarget::L2Resolved`]: the L2 stage
    ///   of a full build, then its assembly tail (fabric, relaxations,
    ///   clock network) over the kept core, L3, memory controller, I/O
    ///   and shared FPU. Enforced timing changes nothing here: the
    ///   clock, and with it every cycle-time target, stays put. Without
    ///   an L2 the resize changes nothing: [`Retarget::Patched`].
    ///
    /// Afterwards the chip is bit-identical to a full build of
    /// `delta.apply(&config)` (property-tested per preset, with and
    /// without enforced timing), except for [`Processor::perf`] and
    /// [`Processor::trace`], which describe the build that produced it.
    ///
    /// # Errors
    ///
    /// [`McpatError::Invalid`] if the patched configuration fails
    /// validation, [`McpatError::Budget`] when the active budget trips,
    /// or any build error of a re-solved component. On error the chip
    /// is left unchanged.
    pub fn retarget(&mut self, delta: Delta) -> Result<Retarget, McpatError> {
        checkpoint("retarget")?;
        let from = (self.config.clock_hz, self.config.core.clock_hz);
        let capacity = self.config.l2.as_ref().map(|l2| l2.cache.capacity);
        delta.patch(&mut self.config);
        let result = match delta {
            Delta::Clock(hz) => self.move_clock(from, hz),
            Delta::CacheSize(_) if capacity.is_none() => Ok(Retarget::Patched),
            Delta::CacheSize(_) => self.resolve_l2(),
        };
        if result.is_err() {
            (self.config.clock_hz, self.config.core.clock_hz) = from;
            if let (Some(l2), Some(bytes)) = (&mut self.config.l2, capacity) {
                l2.cache.capacity = bytes;
            }
        }
        result
    }

    /// [`Processor::retarget`]'s clock path, after the patch; `from`
    /// holds the chip and core clocks before it.
    fn move_clock(&mut self, from: (f64, f64), hz: f64) -> Result<Retarget, McpatError> {
        if from.0.to_bits() != hz.to_bits() && !self.clock_keeps_geometry() {
            *self = Processor::build(&self.config)?;
            return Ok(Retarget::FullBuild);
        }
        let findings_stand = [from.0, from.1, hz]
            .into_iter()
            .all(|clock| self.config.clock_is_quiet(clock))
            && self.name_finding_is_current();
        if !findings_stand {
            let mut findings = findings(&self.config)?;
            let (l2, l3, mc) = (self.l2.as_ref(), self.l3.as_ref(), self.mc.as_ref());
            merge_relaxations(&mut findings, &self.core, l2, l3, mc, &self.noc);
            self.warnings = findings;
        }
        self.core.config.clock_hz = hz;
        self.noc.config.clock_hz = hz;
        self.clock.clock_hz = hz;
        Ok(Retarget::Patched)
    }

    /// [`Processor::retarget`]'s L2 path, after the patch.
    fn resolve_l2(&mut self) -> Result<Retarget, McpatError> {
        let mut warnings = findings(&self.config)?;
        let l2 = cache_stage("build.l2", "l2", self.config.l2.as_ref(), &self.tech)?;
        let (noc, clock) = assemble(
            &self.config,
            &self.tech,
            &self.core,
            l2.as_ref(),
            self.l3.as_ref(),
            self.mc.as_ref(),
            &self.io,
            &self.shared_fpu,
            &mut warnings,
        )?;
        (self.l2, self.noc, self.clock, self.warnings) = (l2, noc, clock, warnings);
        Ok(Retarget::L2Resolved)
    }

    /// True if [`Processor::warnings`] carries the unnamed-configuration
    /// finding exactly when the name is empty: the DSE engine renames
    /// a chip between probes without re-validating it.
    fn name_finding_is_current(&self) -> bool {
        let flagged = self.warnings.iter().any(|f| f.path == UNNAMED_FINDING_PATH);
        flagged == self.config.name.is_empty()
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
        let mut cores_leakage_scale = 0.0;
        for (cs, weight) in core_groups(c.num_cores, cores) {
            cores_dynamic += core_dynamic(&cs) * weight;
            cores_leakage_scale += weight * self.leakage_share(&cs);
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

    /// The share of its leakage a core under `cs` draws: all of it, or
    /// with power gating, for the idle part of its duty, the ~10% its
    /// retention state keeps.
    fn leakage_share(&self, cs: &CoreStats) -> f64 {
        if self.config.power_gating {
            let duty = cs.duty();
            duty + (1.0 - duty) * 0.10
        } else {
            1.0
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
    /// the breakdown or walking a dynamic term. Does not allocate. The
    /// peak window holds at least one cycle at any clock, so every core
    /// is busy and the total does not depend on the clock.
    #[must_use]
    pub fn total_leakage(&self) -> StaticPower {
        let (_, core) = self.peak_stats();
        let cores_scale = core_groups(self.config.num_cores, std::slice::from_ref(&core))
            .fold(0.0, |scale, (cs, weight)| {
                scale + weight * self.leakage_share(&cs)
            });
        self.leakage_items(cores_scale).into_iter().flatten().sum()
    }

    /// [`Processor::peak_power_total`], bit for bit, given the
    /// [`Processor::total_leakage`] total of this chip or of one it was
    /// retargeted from: only the dynamic terms are walked, and the
    /// core's per-unit leakage is never summed.
    pub(crate) fn peak_power_total_with(&self, leakage: f64) -> f64 {
        self.peak_dynamic_walk().dynamic_total() + leakage
    }

    /// A floor under what [`Processor::peak_power_total_with`] returns,
    /// given `leakage`, on this chip retargeted to `hz`
    /// ([`Processor::retarget`]): the same walk at `hz` with the
    /// cores' dynamic term priced at zero. The retargeted chip walks
    /// these very components: only the cores and the clock network
    /// read their clock, and the network is walked at `hz` here. Every
    /// term is non-negative and finite, and round-to-nearest addition
    /// is monotone, so the fold with one term zeroed cannot exceed the
    /// probe's.
    ///
    /// The floor never falls as `hz` rises, so the floor at a run's
    /// slowest clock is a floor under every clock of the run: each term
    /// is a non-negative constant times activity counts that truncate
    /// `hz × window` (or, for the clock network, times `hz` and the
    /// gating factor of cores busy throughout the window), and every
    /// operation on the way is monotone under round-to-nearest.
    ///
    /// `None` where the probe would not take that walk: where the
    /// solved geometry follows the clock (a full build).
    pub(crate) fn peak_power_floor_at(&self, hz: f64, leakage: f64) -> Option<f64> {
        self.clock_keeps_geometry().then(|| {
            let (stats, core) = self.peak_stats_at(hz);
            let walk = self.dynamic_walk(hz, &stats, std::slice::from_ref(&core), |_| 0.0);
            walk.dynamic_total() + leakage
        })
    }

    /// True if a clock move keeps this chip's solved geometry, so that
    /// a [`Delta::Clock`] retarget patches it and its die area and
    /// leakage hold at every clock. Under `core.enforce_timing` the
    /// solver sizes arrays to the target cycle time, so none survives.
    /// The one predicate behind [`Processor::retarget`]'s choice between
    /// a patch and a full build, the peak-power floors, and a DSE row's
    /// facts.
    pub(crate) fn clock_keeps_geometry(&self) -> bool {
        !self.config.core.enforce_timing
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

/// The findings of validating `config`, or its errors.
fn findings(config: &ProcessorConfig) -> Result<Diagnostics, McpatError> {
    config.validate().into_result().map_err(McpatError::Invalid)
}

/// One stage of a build: a budget checkpoint and a span named `stage`
/// around `build`, whose result, on success, notes its solver
/// relaxations (`relaxations`) on the span.
fn component<T>(
    stage: &str,
    build: impl FnOnce() -> Result<T, McpatError>,
    relaxations: impl FnOnce(&T) -> usize,
) -> Result<T, McpatError> {
    checkpoint(stage)?;
    let span = mcpat_obs::span(stage);
    let built = build()?;
    span.note_relaxations(relaxations(&built) as u64);
    mcpat_obs::guard::note_span();
    Ok(built)
}

/// The stage of a shared cache (the L2 or the L3) whose errors are
/// rooted at `path`; an L2 resize re-runs the L2's alone.
fn cache_stage(
    stage: &str,
    path: &str,
    config: Option<&SharedCacheConfig>,
    tech: &TechParams,
) -> Result<Option<SharedCache>, McpatError> {
    component(
        stage,
        || (config.map(|c| c.build(tech).at(path)).transpose()).map_err(McpatError::from),
        |cache| cache.as_ref().map_or(0, |c| c.relaxation_warnings().len()),
    )
}

/// The assembly tail every build path runs after its component stages:
/// the fabric, whose link length ≈ the pitch of one cluster tile; every
/// component's solver relaxations, merged into `warnings`; and the clock
/// network over the die the components occupy, with the die area from
/// the component sum plus layout overhead and the load from the cores'
/// clocked pipeline plus the periphery's sinks.
#[allow(clippy::too_many_arguments)]
fn assemble(
    config: &ProcessorConfig,
    tech: &TechParams,
    core: &CoreModel,
    l2: Option<&SharedCache>,
    l3: Option<&SharedCache>,
    mc: Option<&MemCtrl>,
    io: &OffChipIo,
    shared_fpu: &FunctionalUnit,
    warnings: &mut Diagnostics,
) -> Result<(NocModel, ClockNetwork), McpatError> {
    let fabric = || {
        let cluster_area =
            core.area() * f64::from(config.cores_per_cluster()) + l2.map_or(0.0, SharedCache::area);
        NocConfig {
            topology: config.fabric.topology,
            flit_bits: config.fabric.flit_bits,
            vcs_per_port: config.fabric.vcs_per_port,
            buffers_per_vc: config.fabric.buffers_per_vc,
            link_length: cluster_area.max(1e-12).sqrt(),
            clock_hz: config.clock_hz,
        }
        .build(tech)
        .at("fabric")
        .map_err(McpatError::from)
    };
    let noc = component("build.fabric", fabric, |_| 0)?;
    merge_relaxations(warnings, core, l2, l3, mc, &noc);
    let clock_network = || {
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
        Ok(ClockNetwork::new(
            tech,
            die_edge,
            die_edge,
            config.clock_hz,
            sink_cap,
        ))
    };
    let clock = component("build.clock", clock_network, |_| 0)?;
    Ok((noc, clock))
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
pub(crate) mod tests {
    use super::*;
    use mcpat_mcore::config::CoreConfig;
    use mcpat_tech::DeviceType;

    /// `core`, with its arrays sized to the target cycle time: the
    /// configurations under which a clock move is a full build.
    pub(crate) fn timing_closed(mut core: CoreConfig) -> CoreConfig {
        core.enforce_timing = true;
        core
    }

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
        assert!(base.clock_keeps_geometry());
    }

    #[test]
    fn rebuild_with_cache_size_on_an_l2_less_chip_solves_no_arrays() {
        let mut cfg = ProcessorConfig::niagara2();
        cfg.l2 = None;
        let mut chip = Processor::build(&cfg).unwrap();
        let fast = chip.rebuild_with(Delta::CacheSize(8 << 20)).unwrap();
        assert_eq!(fast.perf.solve_cache_hits + fast.perf.solve_cache_misses, 0);
        let resized = chip.retarget(Delta::CacheSize(8 << 20));
        assert_eq!(resized.unwrap(), Retarget::Patched);
    }

    #[test]
    fn rebuild_with_clock_delta_falls_back_under_enforced_timing() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.core.enforce_timing = true;
        let base = Processor::build(&cfg).unwrap();
        assert!(!base.clock_keeps_geometry());
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
    fn retarget_falls_back_to_a_full_build_only_when_enforced_timing_moves_the_clock() {
        let mut cfg = ProcessorConfig::niagara();
        cfg.core.enforce_timing = true;
        let mut chip = Processor::build(&cfg).unwrap();
        let bytes = 2 * cfg.l2.as_ref().unwrap().cache.capacity;
        for (delta, path) in [
            (Delta::Clock(2.4e9), Retarget::FullBuild),
            (Delta::Clock(2.4e9), Retarget::Patched),
            (Delta::CacheSize(bytes), Retarget::L2Resolved),
        ] {
            assert_eq!(chip.retarget(delta).unwrap(), path, "{delta:?}");
            cfg = delta.apply(&cfg);
        }
        let full = Processor::build(&cfg).unwrap();
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
        let before = chip.clone();
        for delta in [
            Delta::Clock(-1.0),
            Delta::Clock(f64::NAN),
            Delta::CacheSize(0),
        ] {
            let err = chip.retarget(delta).expect_err("invalid delta");
            assert!(matches!(err, McpatError::Invalid(_)), "{err}");
            assert_eq!(chip.config, before.config, "{delta:?}");
            assert_eq!(
                chip.peak_power_total().to_bits(),
                before.peak_power_total().to_bits()
            );
            assert_eq!(chip.die_area().to_bits(), before.die_area().to_bits());
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
                chip.retarget(Delta::Clock(hz)).unwrap();
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
                let leakage = base.total_leakage().total();
                let mut chip = base.clone();
                // At 500 Hz the 1 ms peak window holds one cycle, as it
                // does at 1 kHz: a gated chip's leakage holds there too.
                for hz in [cfg.clock_hz, 0.7e9, 2.9e9, 500.0, 12.0e9, 1.1e9] {
                    chip.retarget(Delta::Clock(hz)).unwrap();
                    assert_eq!(
                        chip.peak_power_total_with(leakage).to_bits(),
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
