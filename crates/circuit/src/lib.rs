//! # mcpat-circuit — circuit-level primitives of mcpat-rs
//!
//! The McPAT methodology maps every architectural structure onto a small
//! set of circuit primitives and then evaluates power, area, and timing of
//! those primitives analytically. This crate provides that middle layer:
//!
//! * [`gate`] — logical-effort sized static CMOS gates and buffer chains;
//! * [`repeater`] — optimally repeated wires (delay-optimal and
//!   energy-derated, the knob McPAT's optimizer turns);
//! * [`decoder`] — hierarchical pre-decode + row-decode structures;
//! * [`comparator`] — tag comparators;
//! * [`mux`] — pass-gate multiplexers and output drivers;
//! * [`crossbar`] — matrix crossbars (NoC switch fabric, Niagara-style
//!   core-to-cache crossbars);
//! * [`arbiter`] — matrix arbiters for switch/VC allocation.
//!
//! All primitives report a uniform [`CircuitMetrics`] (area, delay, energy
//! per operation, leakage power) so higher layers can aggregate them
//! without caring what they are.
//!
//! ```
//! use mcpat_tech::{TechNode, DeviceType, TechParams, WireType};
//! use mcpat_circuit::repeater::RepeatedWire;
//!
//! let tech = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
//! let wire = RepeatedWire::delay_optimal(&tech, WireType::Global, 2e-3);
//! assert!(wire.metrics.delay < 1e-9, "2 mm repeated global wire is sub-ns");
//! ```

pub mod arbiter;
pub mod comparator;
pub mod crossbar;
pub mod decoder;
pub mod gate;
pub mod metrics;
pub mod mux;
pub mod repeater;

pub use arbiter::MatrixArbiter;
pub use comparator::TagComparator;
pub use crossbar::Crossbar;
pub use decoder::RowDecoder;
pub use gate::{BufferChain, GateKind, LogicGate};
pub use metrics::{CircuitMetrics, StaticPower};
pub use mux::Multiplexer;
pub use repeater::RepeatedWire;
