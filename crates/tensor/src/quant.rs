//! Symmetric integer quantization.
//!
//! HyFlexPIM stores all linear-layer weights and the attention operands
//! Q, K, V as INT8 (paper Section 5.1) and maps the signed integers onto RRAM
//! conductances bit-by-bit (SLC) or two-bits-per-cell (MLC). This module
//! provides the per-tensor symmetric quantizer plus helpers for extracting
//! the unsigned bit-planes consumed by the crossbar mapping code.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;

/// A matrix quantized to signed integers with a single per-tensor scale.
///
/// `value ≈ q * scale` where `q ∈ [-(2^(bits-1)-1), 2^(bits-1)-1]`.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantizedMatrix {
    rows: usize,
    cols: usize,
    bits: u8,
    scale: f32,
    values: Vec<i32>,
}

impl QuantizedMatrix {
    /// Quantizes `m` symmetrically to the given bit width (2..=16).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] for unsupported bit widths.
    pub fn quantize(m: &Matrix, bits: u8) -> Result<Self> {
        if !(2..=16).contains(&bits) {
            return Err(TensorError::InvalidArgument(format!(
                "quantization bit-width {bits} must be in 2..=16"
            )));
        }
        let qmax = ((1i32 << (bits - 1)) - 1) as f32;
        let max_abs = m.max_abs();
        let scale = if max_abs == 0.0 { 1.0 } else { max_abs / qmax };
        let values = m
            .as_slice()
            .iter()
            .map(|&x| (x / scale).round().clamp(-qmax, qmax) as i32)
            .collect();
        Ok(QuantizedMatrix {
            rows: m.rows(),
            cols: m.cols(),
            bits,
            scale,
            values,
        })
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Bit width of the stored integers.
    pub fn bits(&self) -> u8 {
        self.bits
    }

    /// The per-tensor scale factor.
    pub fn scale(&self) -> f32 {
        self.scale
    }

    /// The quantized integer at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    pub fn value(&self, row: usize, col: usize) -> i32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.values[row * self.cols + col]
    }

    /// Reconstructs the floating-point matrix `q * scale`.
    pub fn dequantize(&self) -> Matrix {
        Matrix::from_fn(self.rows, self.cols, |r, c| {
            self.value(r, c) as f32 * self.scale
        })
    }

    /// Extracts the `group`-th group of `bits_per_cell` bits (0 = least
    /// significant group) of the offset representation, as used for MLC cells
    /// that store multiple bits per device (`bits_per_cell = 1` gives the
    /// SLC bit-planes).
    ///
    /// The signed integer `q` is first shifted to the unsigned value
    /// `q + 2^(bits-1)` so every group is a non-negative matrix that can be
    /// written directly into cells; the mapping layer subtracts the offset
    /// after the analog accumulation.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if the group is out of range
    /// or `bits_per_cell` is zero.
    pub fn bit_group(&self, group: u8, bits_per_cell: u8) -> Result<Matrix> {
        if bits_per_cell == 0 {
            return Err(TensorError::InvalidArgument(
                "bits_per_cell must be non-zero".to_string(),
            ));
        }
        let n_groups = self.bits.div_ceil(bits_per_cell);
        if group >= n_groups {
            return Err(TensorError::InvalidArgument(format!(
                "group {group} out of range for {} groups",
                n_groups
            )));
        }
        let offset = 1i32 << (self.bits - 1);
        let shift = group * bits_per_cell;
        let mask = (1i32 << bits_per_cell) - 1;
        Ok(Matrix::from_fn(self.rows, self.cols, |r, c| {
            let unsigned = self.value(r, c) + offset;
            ((unsigned >> shift) & mask) as f32
        }))
    }

    /// Number of cell columns needed per weight column when each cell stores
    /// `bits_per_cell` bits (SLC: 1, 2-b MLC: 2, ...).
    pub fn cells_per_weight(&self, bits_per_cell: u8) -> usize {
        assert!(bits_per_cell > 0, "bits_per_cell must be non-zero");
        usize::from(self.bits.div_ceil(bits_per_cell))
    }
}

/// Quantizes a single vector symmetrically to `bits` and returns
/// `(integers, scale)`.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for unsupported bit widths.
pub fn quantize_vector(v: &[f32], bits: u8) -> Result<(Vec<i32>, f32)> {
    if !(2..=16).contains(&bits) {
        return Err(TensorError::InvalidArgument(format!(
            "quantization bit-width {bits} must be in 2..=16"
        )));
    }
    let qmax = ((1i32 << (bits - 1)) - 1) as f32;
    let max_abs = v.iter().fold(0.0f32, |m, x| m.max(x.abs()));
    let scale = if max_abs == 0.0 { 1.0 } else { max_abs / qmax };
    let q = v
        .iter()
        .map(|&x| (x / scale).round().clamp(-qmax, qmax) as i32)
        .collect();
    Ok((q, scale))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    #[test]
    fn int8_round_trip_error_is_small() {
        let mut rng = Rng::seed_from(1);
        let m = Matrix::random_normal(16, 16, 0.0, 0.5, &mut rng);
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        assert_eq!(q.bits(), 8);
        let diff = q.dequantize().sub(&m).unwrap();
        let err = diff.as_slice().iter().map(|x| x.abs()).sum::<f32>() / diff.len() as f32;
        // Mean error should be well below one quantization step.
        assert!(err < q.scale());
    }

    #[test]
    fn rejects_bad_bit_widths() {
        let m = Matrix::zeros(2, 2);
        assert!(QuantizedMatrix::quantize(&m, 1).is_err());
        assert!(QuantizedMatrix::quantize(&m, 17).is_err());
        assert!(QuantizedMatrix::quantize(&m, 4).is_ok());
    }

    #[test]
    fn zero_matrix_has_unit_scale_and_zero_values() {
        let m = Matrix::zeros(3, 3);
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        assert_eq!(q.scale(), 1.0);
        assert!(q.values.iter().all(|&v| v == 0));
    }

    #[test]
    fn extreme_values_saturate_to_qmax() {
        let m = Matrix::from_rows(&[vec![1.0, -1.0, 0.5]]).unwrap();
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        assert_eq!(q.value(0, 0), 127);
        assert_eq!(q.value(0, 1), -127);
    }

    #[test]
    fn bit_groups_reassemble_to_values_for_mlc() {
        let mut rng = Rng::seed_from(3);
        let m = Matrix::random_uniform(6, 3, -2.0, 2.0, &mut rng);
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        let offset = 1i32 << 7;
        let groups: Vec<Matrix> = (0..4).map(|g| q.bit_group(g, 2).unwrap()).collect();
        for r in 0..6 {
            for c in 0..3 {
                let mut acc = 0i32;
                for (g, group) in groups.iter().enumerate() {
                    acc += (group.at(r, c) as i32) << (2 * g);
                }
                assert_eq!(acc - offset, q.value(r, c));
            }
        }
    }

    #[test]
    fn bit_plane_and_group_bounds_are_checked() {
        let m = Matrix::zeros(2, 2);
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        assert!(q.bit_group(4, 2).is_err());
        assert!(q.bit_group(0, 0).is_err());
    }

    #[test]
    fn cells_per_weight_matches_paper_mapping() {
        let m = Matrix::zeros(2, 2);
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        // 8-bit weights: 8 SLC columns or 4 MLC(2-b) columns per weight column.
        assert_eq!(q.cells_per_weight(1), 8);
        assert_eq!(q.cells_per_weight(2), 4);
        assert_eq!(q.cells_per_weight(3), 3);
    }

    #[test]
    fn vector_quantization_round_trips() {
        let v = vec![0.1f32, -0.7, 0.33, 0.0];
        let (q, scale) = quantize_vector(&v, 8).unwrap();
        for (orig, qv) in v.iter().zip(q.iter()) {
            assert!((orig - *qv as f32 * scale).abs() <= scale);
        }
        assert!(quantize_vector(&v, 1).is_err());
    }

    #[test]
    fn dequantize_preserves_shape() {
        let m = Matrix::zeros(3, 7);
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        assert_eq!(q.dequantize().shape(), (3, 7));
    }
}
