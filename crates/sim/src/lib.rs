//! # mcpat-sim — an analytic multicore performance model
//!
//! McPAT deliberately contains no performance simulator: the paper feeds
//! it activity statistics from M5 running parallel workloads. Neither M5
//! nor its workloads are available here, so this crate provides the
//! closest synthetic equivalent: an **analytic performance model** that
//! turns a [`WorkloadProfile`] (instruction mix, locality, ILP) plus a
//! `mcpat::ProcessorConfig` into
//!
//! * end-to-end execution time / throughput, and
//! * a `mcpat::ChipStats` with internally consistent event counts for
//!   every component the power model charges.
//!
//! The model captures the first-order effects the case study depends on:
//! issue-width- and ILP-limited IPC, in-order vs out-of-order stall
//! hiding, multithreading, cache miss-rate curves vs capacity, NoC hop
//! latency, and memory-bandwidth saturation across many cores.
//!
//! [`SimEvaluator`] turns one such run into the case study's metrics, so
//! `mcpat::dse` sweeps can rank chips on simulated delay and energy.
//!
//! ```
//! use mcpat::ProcessorConfig;
//! use mcpat_sim::{SystemModel, WorkloadProfile};
//!
//! let cfg = ProcessorConfig::niagara();
//! let wl = WorkloadProfile::server_transactional();
//! let result = SystemModel::new(&cfg).simulate(&wl, 100_000_000);
//! assert!(result.seconds > 0.0);
//! assert!(result.stats.cores[0].commits > 0);
//! ```

pub mod cachesim;
pub mod cpu;
pub mod evaluator;
pub mod system;
pub mod trace;
pub mod workload;

pub use cachesim::miss_rate;
pub use cpu::{CoreTiming, CpuModel};
pub use evaluator::SimEvaluator;
pub use system::{SimResult, SystemModel};
pub use trace::{run_trace, TraceGenerator, TraceOp, TraceResult};
pub use workload::WorkloadProfile;
