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
//! # hyflex-rram
//!
//! RRAM device, crossbar-array, and digital NOR-PIM substrate models for the
//! HyFlexPIM reproduction.
//!
//! The paper evaluates HyFlexPIM on analog RRAM crossbars (64×128 cells per
//! array, single-level or 2-bit multi-level cells) for static-weight linear
//! layers, and on digital RRAM PIM arrays (1024×1024 single-level cells with
//! NOR-based bit-wise logic) for the dynamic attention operands. This crate
//! provides both, plus the device-level behaviour they rest on:
//!
//! * [`cell`] — SLC/MLC cell models: conductance levels derived from the
//!   paper's `R_ON = 6 kΩ`, on/off ratio 150, programming-pulse counts, and
//!   level quantization.
//! * [`noise`] — the multiplicative Gaussian conductance error model
//!   `W̃ = W ⊙ (1 + η)` of Eq. (5), with the noise σ reverse-calibrated from a
//!   target bit-error rate exactly as the paper does from the measured
//!   4.04 % MLC BER.
//! * [`crossbar`] — an analog crossbar array with bit-serial word-line
//!   inputs, Kirchhoff bit-line current accumulation, and per-column
//!   programming from bit-planes.
//! * [`mapping`] — bit-slicing of INT-quantized weight matrices onto SLC
//!   (one bit per column) or MLC (two bits per column) crossbar columns, and
//!   the shift-and-add recombination of bit-line results (Figures 6 and 7).
//! * [`digital`] — the digital PIM module: NOR-gate bit-wise computation
//!   with the cycle/operation accounting of Section 3.1 (three columns and
//!   five cycles per NOR-based row operation).
//! * [`spec`] — array/module geometry constants shared with the architecture
//!   model (Table 2).
//!
//! The functional accuracy simulator in `hyflex-pim` uses the fast
//! weight-level noise injection from [`noise`]; the cell-level crossbar model
//! here is used to validate that the fast path and the detailed bit-serial
//! path agree (see the `mapping` tests and the workspace integration tests).

pub mod cell;
pub mod crossbar;
pub mod digital;
pub mod error;
pub mod mapping;
pub mod noise;
pub mod spec;

pub use cell::{CellMode, RramCell};
pub use crossbar::CrossbarArray;
pub use error::RramError;
pub use mapping::{MappedMatrix, WeightMapping};
pub use noise::NoiseModel;
pub use spec::ArraySpec;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RramError>;
