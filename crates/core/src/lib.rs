//! # mcpat — an integrated power, area, and timing modeling framework
//! # for multicore and manycore architectures, in Rust
//!
//! This crate is the top of the mcpat-rs stack: it assembles whole
//! processors — cores, shared caches, networks-on-chip, memory
//! controllers, off-chip I/O, and the clock distribution network — from
//! the component models in `mcpat-mcore`, `mcpat-uncore` and
//! `mcpat-interconnect`, which in turn sit on the CACTI-style array
//! solver (`mcpat-array`), circuit primitives (`mcpat-circuit`) and the
//! ITRS technology layer (`mcpat-tech`).
//!
//! Like the original McPAT (Li et al., MICRO 2009) it is:
//!
//! * **integrated** — power, area and timing come from one internal chip
//!   representation, with an optimizer choosing array partitionings under
//!   timing constraints;
//! * **decoupled from performance simulation** — you feed it a
//!   [`ProcessorConfig`] (the XML-file analog) and, for runtime power,
//!   a [`ChipStats`] produced by any performance simulator (this
//!   repository ships `mcpat-sim`);
//! * **metric-complete** — beyond power/area it computes EDP, ED²P and
//!   the area-aware EDAP / EDA²P that the paper's case study is built on.
//!
//! ## Quick start
//!
//! ```
//! use mcpat::{Processor, ProcessorConfig};
//!
//! // The Sun Niagara validation target: 8 in-order cores at 90 nm.
//! let cfg = ProcessorConfig::niagara();
//! let chip = Processor::build(&cfg)?;
//! let power = chip.peak_power();
//! println!("{}", chip.report());
//! assert!(power.total() > 20.0 && power.total() < 150.0);
//! assert!(chip.die_area_mm2() > 100.0);
//! # Ok::<(), mcpat::McpatError>(())
//! ```

pub mod config;
pub mod dse;
pub mod dvfs;
pub mod error;
pub mod explore;
pub mod floorplan;
pub mod frontier;
pub mod metrics;
pub mod power;
pub mod processor;
pub mod report;
pub mod stats;
pub mod thermal;

pub use config::ProcessorConfig;
pub use dse::{
    dse, dse_streaming, AxisGrid, ChipTotals, DseCheckpoint, DseEvaluator, DseOptions, DsePerf,
    DseResult, RowCandidate, RowFacts, WorkloadModel,
};
pub use dvfs::DvfsPoint;
pub use error::McpatError;
pub use explore::{
    explore_batch, max_clock_under_power_budget, max_clock_under_power_budget_with_perf,
    BisectionPerf, Budgets, Candidate, Exploration, ExplorePerf,
};
pub use floorplan::{Floorplan, Tile};
pub use frontier::{FrontierPoint, ParetoFrontier};
pub use metrics::{Metric, MetricSet};
pub use power::{ChipPower, ChipPowerItem};
pub use processor::{BuildPerf, Delta, Processor};
pub use stats::ChipStats;
pub use thermal::{converge, ThermalResult, ThermalSpec};

// The diagnostics vocabulary is part of this crate's public API:
// `ProcessorConfig::validate` returns `Diagnostics`, and `McpatError`
// carries them.
pub use mcpat_diag::{AtPath, Diagnostic, Diagnostics, Severity};

/// The workspace's single environment-read seam: every `MCPAT_*`
/// variable the stack honors is declared and parsed there.
pub use mcpat_par::knobs;

/// Scoped observability: collectors, spans, tracing control and the
/// JSON trace export (`Processor::build` populates
/// [`processor::Processor::trace`] while `obs::set_tracing(true)` is
/// active).
pub use mcpat_obs as obs;

/// Resource governance: deadlines, cooperative cancellation and memory
/// ceilings for long-running builds. Enter a [`guard::Budget`] around
/// any build/explore call and every checkpointed loop underneath it
/// honors the budget, surfacing trips as [`McpatError::Budget`] (or
/// [`array::ArrayError::Budget`] inside the solver). Named `guard`
/// because [`Budgets`] — the exploration area/power constraints — is an
/// unrelated, older concept.
pub use mcpat_guard as guard;

// Re-export the layers so downstream users need only one dependency.
pub use mcpat_array as array;
pub use mcpat_circuit as circuit;
pub use mcpat_interconnect as interconnect;
pub use mcpat_mcore as mcore;
pub use mcpat_par as par;
pub use mcpat_tech as tech;
pub use mcpat_uncore as uncore;
