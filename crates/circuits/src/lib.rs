#![forbid(unsafe_code)]
// Unit tests panic by design; the clippy panic-path lints mirror
// hyflex-lint rule E1, which exempts test code the same way.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # hyflex-circuits
//!
//! Mixed-signal peripheral circuit models and the component-level area /
//! power / energy accounting used by the HyFlexPIM architecture model.
//!
//! The paper's analog PIM module surrounds each 64×128 RRAM array with input
//! and output registers, word-line drivers, sample-and-hold circuits, a
//! shared reconfigurable 6-b/7-b SAR ADC, and a digital shift-and-add unit;
//! the digital PIM module replaces the analog periphery with a Special
//! Function Unit (SFU) for softmax, layer normalization, and GELU
//! (Figure 5, Table 2). This crate models each of those blocks both
//! *functionally* (bit-accurate conversion, Taylor-series exponentials) and
//! *as cost contributors* (area, power, per-event energy at 65 nm).
//!
//! Modules:
//!
//! * [`adc`] — successive-approximation ADC with the paper's MSB-capacitor
//!   bypass reconfiguration between 6-bit (SLC) and 7-bit (MLC) modes.
//! * [`shift_add`] — the digital shift-and-add recombination of bit-line
//!   results for SLC (×2 per column) and MLC (×4 per column) mappings.
//! * [`sfu`] — the floating-point special function unit: max-search,
//!   Taylor-series exponentiation, division, square root; softmax, layer
//!   norm, and GELU built from those primitives with cycle accounting.
//! * [`table2`] — the component-level area/power breakdown of Table 2.
//! * [`energy`] — per-event energies derived from Table 2 (pJ per ADC
//!   conversion, per array read cycle, per SFU input, ...).

pub mod adc;
pub mod energy;
pub mod error;
pub mod sfu;
pub mod shift_add;
pub mod table2;

pub use adc::SarAdc;
pub use energy::EnergyModel;
pub use error::CircuitError;
pub use sfu::SpecialFunctionUnit;
pub use shift_add::ShiftAdder;
pub use table2::{ComponentSpec, ModuleBreakdown, Table2};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, CircuitError>;
