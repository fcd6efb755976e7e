// @file crates/tensor/src/scale.rs
#![forbid(unsafe_code)]
//! Scaling helpers.
//!
//! ```
//! assert_eq!(hyflex_tensor::scale::double(2), 4);
//! ```

/// Halves `x`.
///
/// ```no_run
/// # use hyflex_tensor::scale::halve;
/// assert_eq!(halve(4), 2);
/// ```
pub fn halve(x: u32) -> u32 {
    x / 2
}

pub fn double(x: u32) -> u32 {
    2 * x
}

/// Triples `x`; the sketch below is prose, not a doc test.
///
/// ```text
/// triple(3) == 9
/// ```
pub fn triple(x: u32) -> u32 {
    3 * x
}
