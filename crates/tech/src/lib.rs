//! # mcpat-tech — the technology layer of mcpat-rs
//!
//! This crate is the bottom of the McPAT modeling stack. It provides the
//! *technology level* described in the McPAT paper (MICRO 2009): tabulated,
//! ITRS-style MOSFET device parameters for the 180 nm through 22 nm nodes,
//! three device flavors (high performance, low standby power, low operating
//! power), interconnect RC projections (aggressive and conservative), and
//! memory-cell geometry (SRAM, CAM, eDRAM, and flip-flop based storage).
//!
//! Everything higher in the stack — circuit primitives, array models, core
//! models, networks-on-chip — consumes only the scalar parameters exported
//! here, so retargeting the whole framework to a different process is a
//! matter of editing the tables in this crate.
//!
//! ## Quick start
//!
//! ```
//! use mcpat_tech::{TechNode, DeviceType, TechParams};
//!
//! // A 32nm high-performance process at 360 K (typical hot-spot temperature).
//! let tech = TechParams::new(TechNode::N32, DeviceType::Hp, 360.0);
//! assert!(tech.device.vdd > 0.5 && tech.device.vdd < 1.3);
//! // Leakage current is per meter of transistor width and grows with T.
//! let cold = TechParams::new(TechNode::N32, DeviceType::Hp, 300.0);
//! assert!(tech.device.i_off_n(tech.temperature) > cold.device.i_off_n(cold.temperature));
//! ```
//!
//! ## Units
//!
//! All quantities are SI unless the name says otherwise:
//! seconds, meters, volts, amperes, farads, ohms, watts, joules.
//! Transistor widths are expressed in meters; per-width currents and
//! capacitances are per meter of gate width (A/m, F/m).

pub mod cell;
pub mod device;
pub mod node;
pub mod params;
pub mod wire;

pub use cell::{CamCell, DffStorage, EdramCell, SramCell};
pub use device::{DeviceParams, DeviceType};
pub use node::TechNode;
pub use params::TechParams;
pub use wire::{WireParams, WireProjection, WireType};

/// Vacuum permittivity, F/m.
pub const EPS0: f64 = 8.854e-12;

/// Boltzmann constant, J/K.
pub const BOLTZMANN: f64 = 1.380_649e-23;

/// Elementary charge, C.
pub const Q_CHARGE: f64 = 1.602_176_634e-19;

/// Reference temperature for the tabulated leakage currents, kelvin.
pub const T_REF: f64 = 300.0;

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
mod tests {
    use super::*;

    #[test]
    #[allow(clippy::assertions_on_constants)]
    fn constants_are_physical() {
        assert!(EPS0 > 8.8e-12 && EPS0 < 8.9e-12);
        assert!(BOLTZMANN > 0.0);
        assert!(Q_CHARGE > 0.0);
    }

    #[test]
    fn public_api_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<TechParams>();
        assert_send_sync::<DeviceParams>();
        assert_send_sync::<WireParams>();
    }
}
