//! # mcpat-bench — the reproduction harness
//!
//! One function per table/figure of the evaluation (see DESIGN.md §4 and
//! EXPERIMENTS.md for the index). Each returns structured rows so that
//!
//! * the `repro` binary can print paper-vs-measured tables, and
//! * the Criterion benches can time the model evaluation itself.
//!
//! Experiment ids:
//!
//! | id | function |
//! | --- | --- |
//! | T-V1..T-V4 | [`experiments::validation_table`] |
//! | F-CS1/F-CS2 | [`experiments::case_study_points_with_tlp`] |
//! | F-CS3/F-CS4 | [`experiments::case_study_metrics`] |
//! | F-TECH1 | [`experiments::tech_scaling`] |
//! | F-TECH2 | [`experiments::device_flavors`] |
//! | F-WIRE1 | [`experiments::wire_projections`] |
//! | F-NOC1 | [`experiments::noc_sweep`] |
//! | F-CLK1 | [`experiments::clock_fraction`] |
//! | A-ABL1 | [`experiments::array_ablation`] |
//! | A-ABL2 | [`experiments::gating_ablation`] |
//! | T-V5 | [`experiments::runtime_validation`] |
//! | F-CS5 | [`experiments::case_study_across_nodes`] |

pub mod experiments;
pub mod reference;
pub mod toolspeed;

pub use experiments::*;
pub use reference::published_chips;
