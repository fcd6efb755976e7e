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
//! # hyflex-tensor
//!
//! Dense linear-algebra, decomposition, quantization, and statistics substrate
//! for the HyFlexPIM reproduction.
//!
//! The crate intentionally implements everything from scratch on top of plain
//! `Vec<f32>` storage so that the rest of the workspace (RRAM crossbar models,
//! transformer layers, the accelerator performance model) has no external
//! numerical dependencies and stays bit-reproducible across platforms.
//!
//! The main entry points are:
//!
//! * [`Matrix`] — a row-major dense `f32` matrix with the usual algebra
//!   (GEMM, GEMV, transpose, element-wise maps) plus slicing helpers used by
//!   the crossbar tiling code.
//! * [`kernels`] — the register-tiled GEMM, GEMV, and fused rank-k
//!   reconstruction kernels every `Matrix` product routes through,
//!   bit-identical to the naive reference loops.
//! * [`MatrixView`] / [`MatrixViewMut`] — borrowed strided windows (a
//!   transpose, one attention head's columns) the kernels read and write
//!   without copying.
//! * [`svd::Svd`] / [`svd::svd`] / [`svd::svd_with`] — one-sided Jacobi
//!   singular value decomposition (the bit-stable default) and an opt-in
//!   randomized subspace-iteration sketch ([`svd::SvdAlgorithm`]), with
//!   truncation helpers — the core of the paper's *gradient redistribution*
//!   technique (Section 4 of the paper).
//! * [`quant`] — symmetric integer quantization (INT8 by default, arbitrary
//!   bit-width for the bit-sliced RRAM mapping).
//! * [`activations`] — numerically stable softmax / GELU / ReLU / layer norm
//!   with the derivatives needed by the from-scratch trainer.
//! * [`stats`] — accuracy, Matthews correlation, Pearson correlation and
//!   simple descriptive statistics used by the evaluation harness.
//! * [`rng::Rng`] — a small deterministic RNG wrapper (seeded `StdRng` with
//!   Gaussian sampling) shared by every stochastic component in the
//!   workspace.
//!
//! ## Example
//!
//! ```
//! use hyflex_tensor::{Matrix, svd};
//!
//! # fn main() -> Result<(), hyflex_tensor::TensorError> {
//! let mut rng = hyflex_tensor::rng::Rng::seed_from(7);
//! let w = Matrix::random_uniform(8, 6, -1.0, 1.0, &mut rng);
//! let decomposition = svd::svd(&w)?;
//! let reconstructed = decomposition.reconstruct();
//! assert!(w.approx_eq(&reconstructed, 1e-3));
//! # Ok(())
//! # }
//! ```

pub mod activations;
pub mod error;
pub mod kernels;
pub mod matrix;
pub mod quant;
pub mod rng;
pub mod stats;
pub mod svd;
pub mod view;

pub use error::TensorError;
pub use matrix::{ColumnIter, Matrix};
pub use quant::QuantizedMatrix;
pub use svd::{Svd, SvdAlgorithm};
pub use view::{MatrixView, MatrixViewMut};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, TensorError>;
