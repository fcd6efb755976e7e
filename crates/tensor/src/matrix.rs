//! Dense row-major `f32` matrices.
//!
//! [`Matrix`] is the single numeric container used by every other crate in
//! the workspace: transformer weights and activations, RRAM conductance maps,
//! and the SVD factors produced by gradient redistribution.

use crate::error::TensorError;
use crate::rng::Rng;
use crate::Result;

/// A dense, row-major matrix of `f32` values.
///
/// The storage layout is `data[row * cols + col]`. Shapes are validated at
/// run time; operations that can fail return [`TensorError`].
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Matrix {
    /// Creates a matrix filled with zeros.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "matrix dimensions must be non-zero");
        Matrix {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with the given value.
    pub fn filled(rows: usize, cols: usize, value: f32) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        m.data.fill(value);
        m
    }

    /// Creates an identity matrix of size `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m.data[i * n + i] = 1.0;
        }
        m
    }

    /// Builds a matrix from a closure evaluated at every `(row, col)`.
    pub fn from_fn<F: FnMut(usize, usize) -> f32>(rows: usize, cols: usize, mut f: F) -> Self {
        let mut m = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                m.data[r * cols + c] = f(r, c);
            }
        }
        m
    }

    /// Builds a matrix from nested row vectors.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if the rows are empty or
    /// ragged.
    // hyflex-lint: allow(U2) — builds the literal matrices that the unit tests of tensor, rram, transformer and core and tests/golden_model.rs check against
    pub fn from_rows(rows: &[Vec<f32>]) -> Result<Self> {
        if rows.is_empty() || rows[0].is_empty() {
            return Err(TensorError::InvalidDimension(
                "from_rows requires at least one non-empty row".to_string(),
            ));
        }
        let cols = rows[0].len();
        if rows.iter().any(|r| r.len() != cols) {
            return Err(TensorError::InvalidDimension(
                "from_rows requires all rows to have equal length".to_string(),
            ));
        }
        let mut data = Vec::with_capacity(rows.len() * cols);
        for row in rows {
            data.extend_from_slice(row);
        }
        Ok(Matrix {
            rows: rows.len(),
            cols,
            data,
        })
    }

    /// Builds a matrix that owns the provided flat buffer.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] if `data.len() != rows * cols`
    /// or either dimension is zero.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Result<Self> {
        if rows == 0 || cols == 0 {
            return Err(TensorError::InvalidDimension(
                "matrix dimensions must be non-zero".to_string(),
            ));
        }
        if data.len() != rows * cols {
            return Err(TensorError::InvalidDimension(format!(
                "buffer of length {} cannot form a {}x{} matrix",
                data.len(),
                rows,
                cols
            )));
        }
        Ok(Matrix { rows, cols, data })
    }

    /// Creates a matrix with entries drawn uniformly from `[lo, hi)`.
    // hyflex-lint: allow(U2) — test-data source of `matrix::tests`, `quant::tests` and the crate-level doc example
    pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| {
            rng.uniform_range(lo as f64, hi as f64) as f32
        })
    }

    /// Creates a matrix with Gaussian entries (`mean`, `std_dev`).
    pub fn random_normal(rows: usize, cols: usize, mean: f32, std_dev: f32, rng: &mut Rng) -> Self {
        Matrix::from_fn(rows, cols, |_, _| {
            rng.normal_with(mean as f64, std_dev as f64) as f32
        })
    }

    /// Xavier/Glorot-style initialization used for transformer weights.
    pub fn xavier(rows: usize, cols: usize, rng: &mut Rng) -> Self {
        let limit = (6.0 / (rows + cols) as f64).sqrt();
        Matrix::from_fn(rows, cols, |_, _| rng.uniform_range(-limit, limit) as f32)
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Always false: zero-dimension matrices cannot be constructed.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Immutable view of the underlying row-major buffer.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Returns the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn at(&self, row: usize, col: usize) -> f32 {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col]
    }

    /// Checked element access.
    pub fn get(&self, row: usize, col: usize) -> Option<f32> {
        if row < self.rows && col < self.cols {
            Some(self.data[row * self.cols + col])
        } else {
            None
        }
    }

    /// Sets the element at `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if the index is out of bounds.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: f32) {
        assert!(row < self.rows && col < self.cols, "index out of bounds");
        self.data[row * self.cols + col] = value;
    }

    /// Borrowed view of a single row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row(&self, row: usize) -> &[f32] {
        assert!(row < self.rows, "row index out of bounds");
        &self.data[row * self.cols..(row + 1) * self.cols]
    }

    /// Mutable view of a single row.
    ///
    /// # Panics
    ///
    /// Panics if `row >= self.rows()`.
    pub fn row_mut(&mut self, row: usize) -> &mut [f32] {
        assert!(row < self.rows, "row index out of bounds");
        let cols = self.cols;
        &mut self.data[row * cols..(row + 1) * cols]
    }

    /// Strided iterator over a single column, top to bottom.
    ///
    /// It allocates nothing, so hot loops (the Jacobi SVD's Gram
    /// accumulations, the factored layers' per-rank reductions) can walk
    /// columns without a fresh `Vec` per call.
    ///
    /// # Panics
    ///
    /// Panics if `col >= self.cols()`.
    pub fn column_iter(&self, col: usize) -> ColumnIter<'_> {
        assert!(col < self.cols, "column index out of bounds");
        ColumnIter {
            data: &self.data,
            pos: col,
            stride: self.cols,
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Matrix multiplication `self * other`.
    ///
    /// Routed through the blocked kernel in [`crate::kernels`]; bit-identical
    /// to the naive `ikj` reference loop (see the kernel docs).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(&self, other: &Matrix) -> Result<Matrix> {
        crate::kernels::matmul(self, other)
    }

    /// Matrix multiplication with the transpose of `other`: `self * otherᵀ`.
    ///
    /// Routed through the blocked kernel in [`crate::kernels`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `self.cols() != other.cols()`.
    pub fn matmul_transpose(&self, other: &Matrix) -> Result<Matrix> {
        crate::kernels::matmul_transpose(self, other)
    }

    /// Element-wise addition.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "add", |a, b| a + b)
    }

    /// Element-wise subtraction.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn sub(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "sub", |a, b| a - b)
    }

    /// Element-wise (Hadamard) product.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn hadamard(&self, other: &Matrix) -> Result<Matrix> {
        self.zip_with(other, "hadamard", |a, b| a * b)
    }

    /// In-place element-wise addition (`self += other`).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    pub fn add_assign(&mut self, other: &Matrix) -> Result<()> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op: "add_assign",
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        for (a, b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
        Ok(())
    }

    /// Returns `self` scaled by a scalar.
    pub fn scale(&self, factor: f32) -> Matrix {
        self.map(|x| x * factor)
    }

    /// Applies a function to every element, producing a new matrix.
    pub fn map<F: Fn(f32) -> f32>(&self, f: F) -> Matrix {
        Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Applies a function to every element in place.
    pub fn map_inplace<F: Fn(f32) -> f32>(&mut self, f: F) {
        for x in &mut self.data {
            *x = f(*x);
        }
    }

    /// Adds a row vector to every row in place (broadcasting), e.g. a bias
    /// term.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when `bias.len() != self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, bias: &[f32]) -> Result<()> {
        if bias.len() != self.cols {
            return Err(TensorError::ShapeMismatch {
                op: "add_row_broadcast_assign",
                lhs: self.shape(),
                rhs: (1, bias.len()),
            });
        }
        for row in self.data.chunks_mut(self.cols) {
            for (value, b) in row.iter_mut().zip(bias) {
                *value += b;
            }
        }
        Ok(())
    }

    /// Extracts the sub-matrix `[row0, row0+n_rows) x [col0, col0+n_cols)`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the block exceeds the
    /// matrix bounds or is empty.
    pub fn submatrix(
        &self,
        row0: usize,
        col0: usize,
        n_rows: usize,
        n_cols: usize,
    ) -> Result<Matrix> {
        if n_rows == 0 || n_cols == 0 {
            return Err(TensorError::InvalidDimension(
                "submatrix must be non-empty".to_string(),
            ));
        }
        if row0 + n_rows > self.rows || col0 + n_cols > self.cols {
            return Err(TensorError::InvalidDimension(format!(
                "submatrix ({row0}+{n_rows}, {col0}+{n_cols}) exceeds {}x{}",
                self.rows, self.cols
            )));
        }
        let mut out = Matrix::zeros(n_rows, n_cols);
        for r in 0..n_rows {
            for c in 0..n_cols {
                out.data[r * n_cols + c] = self.at(row0 + r, col0 + c);
            }
        }
        Ok(out)
    }

    /// Frobenius norm.
    pub fn frobenius_norm(&self) -> f32 {
        self.data
            .iter()
            .map(|x| (*x as f64).powi(2))
            .sum::<f64>()
            .sqrt() as f32
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f32 {
        self.data.iter().fold(0.0f32, |acc, x| acc.max(x.abs()))
    }

    /// Sum of all entries.
    pub fn sum(&self) -> f32 {
        self.data.iter().map(|x| *x as f64).sum::<f64>() as f32
    }

    /// Returns true when every element differs by at most `tol`.
    // hyflex-lint: allow(U2) — the elementwise oracle the svd, factored-layer, attention and property_invariants tests compare results with
    pub fn approx_eq(&self, other: &Matrix, tol: f32) -> bool {
        self.shape() == other.shape()
            && self
                .data
                .iter()
                .zip(other.data.iter())
                .all(|(a, b)| (a - b).abs() <= tol)
    }

    /// Relative Frobenius-norm error `‖self - other‖ / ‖other‖`.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the shapes differ.
    // hyflex-lint: allow(U2) — the reconstruction-error oracle of the svd, cell and property_invariants tests
    pub fn relative_error(&self, other: &Matrix) -> Result<f32> {
        let diff = self.sub(other)?;
        let denom = other.frobenius_norm().max(f32::MIN_POSITIVE);
        Ok(diff.frobenius_norm() / denom)
    }

    fn zip_with<F: Fn(f32, f32) -> f32>(
        &self,
        other: &Matrix,
        op: &'static str,
        f: F,
    ) -> Result<Matrix> {
        if self.shape() != other.shape() {
            return Err(TensorError::ShapeMismatch {
                op,
                lhs: self.shape(),
                rhs: other.shape(),
            });
        }
        Ok(Matrix {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        })
    }
}

/// Borrowing, allocation-free iterator over one matrix column
/// (see [`Matrix::column_iter`]).
#[derive(Debug, Clone)]
pub struct ColumnIter<'a> {
    data: &'a [f32],
    pos: usize,
    stride: usize,
}

impl Iterator for ColumnIter<'_> {
    type Item = f32;

    #[inline]
    fn next(&mut self) -> Option<f32> {
        let value = *self.data.get(self.pos)?;
        self.pos += self.stride;
        Some(value)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = if self.pos < self.data.len() {
            (self.data.len() - self.pos).div_ceil(self.stride)
        } else {
            0
        };
        (remaining, Some(remaining))
    }
}

impl ExactSizeIterator for ColumnIter<'_> {}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]).unwrap()
    }

    #[test]
    fn zeros_and_shape() {
        let m = Matrix::zeros(3, 4);
        assert_eq!(m.shape(), (3, 4));
        assert_eq!(m.len(), 12);
        assert!(m.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zeros_rejects_zero_dimension() {
        let _ = Matrix::zeros(0, 4);
    }

    #[test]
    fn identity_has_unit_diagonal() {
        let id = Matrix::identity(4);
        for r in 0..4 {
            for c in 0..4 {
                assert_eq!(id.at(r, c), if r == c { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn from_rows_rejects_ragged_input() {
        let err = Matrix::from_rows(&[vec![1.0, 2.0], vec![3.0]]).unwrap_err();
        assert!(matches!(err, TensorError::InvalidDimension(_)));
    }

    #[test]
    fn from_vec_validates_length() {
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0]).is_err());
        assert!(Matrix::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]).is_ok());
    }

    #[test]
    fn transpose_round_trips() {
        let m = sample();
        let t = m.transpose();
        assert_eq!(t.shape(), (3, 2));
        assert_eq!(t.at(0, 1), 4.0);
        assert!(t.transpose().approx_eq(&m, 0.0));
    }

    #[test]
    fn matmul_matches_hand_computation() {
        let a = sample(); // 2x3
        let b = Matrix::from_rows(&[vec![7.0, 8.0], vec![9.0, 10.0], vec![11.0, 12.0]]).unwrap();
        let c = a.matmul(&b).unwrap();
        assert_eq!(c.shape(), (2, 2));
        assert_eq!(c.at(0, 0), 58.0);
        assert_eq!(c.at(0, 1), 64.0);
        assert_eq!(c.at(1, 0), 139.0);
        assert_eq!(c.at(1, 1), 154.0);
    }

    #[test]
    fn matmul_rejects_bad_shapes() {
        let a = sample();
        let err = a.matmul(&sample()).unwrap_err();
        assert!(matches!(
            err,
            TensorError::ShapeMismatch { op: "matmul", .. }
        ));
    }

    #[test]
    fn matmul_transpose_equals_explicit_transpose() {
        let mut rng = Rng::seed_from(1);
        let a = Matrix::random_uniform(5, 7, -1.0, 1.0, &mut rng);
        let b = Matrix::random_uniform(4, 7, -1.0, 1.0, &mut rng);
        let fast = a.matmul_transpose(&b).unwrap();
        let slow = a.matmul(&b.transpose()).unwrap();
        assert!(fast.approx_eq(&slow, 1e-5));
    }

    #[test]
    fn matvec_matches_matmul() {
        let a = sample();
        let v = vec![1.0, 0.5, -1.0];
        let out = crate::kernels::matvec(&a, &v).unwrap();
        assert_eq!(out, vec![1.0 + 1.0 - 3.0, 4.0 + 2.5 - 6.0]);
    }

    #[test]
    fn elementwise_ops() {
        let a = sample();
        let b = sample();
        assert_eq!(a.add(&b).unwrap().at(1, 2), 12.0);
        assert_eq!(a.sub(&b).unwrap().max_abs(), 0.0);
        assert_eq!(a.hadamard(&b).unwrap().at(0, 2), 9.0);
        assert_eq!(a.scale(2.0).at(1, 0), 8.0);
    }

    #[test]
    fn broadcast_bias() {
        let mut out = sample();
        out.add_row_broadcast_assign(&[1.0, 1.0, 1.0]).unwrap();
        assert_eq!(out.at(0, 0), 2.0);
        assert_eq!(out.at(1, 2), 7.0);
        assert!(out.add_row_broadcast_assign(&[1.0]).is_err());
        assert_eq!(out.at(1, 2), 7.0);
    }

    #[test]
    fn submatrix_copies_a_block_within_bounds() {
        let m = sample();
        let block = m.submatrix(0, 1, 2, 2).unwrap();
        assert_eq!(block.at(0, 0), 2.0);
        assert_eq!(block.at(1, 1), 6.0);
        assert!(m.submatrix(0, 2, 1, 5).is_err());
    }

    #[test]
    fn norms_and_stats() {
        let m = Matrix::from_rows(&[vec![3.0, 4.0]]).unwrap();
        assert!((m.frobenius_norm() - 5.0).abs() < 1e-6);
        assert_eq!(m.max_abs(), 4.0);
        assert!((m.sum() - 7.0).abs() < 1e-6);
    }

    #[test]
    fn relative_error_is_zero_for_identical() {
        let m = sample();
        assert_eq!(m.relative_error(&m).unwrap(), 0.0);
    }

    #[test]
    fn row_and_column_access() {
        let m = sample();
        assert_eq!(m.row(1), &[4.0, 5.0, 6.0]);
        assert_eq!(m.column_iter(2).collect::<Vec<f32>>(), vec![3.0, 6.0]);
        assert_eq!(m.get(5, 0), None);
        assert_eq!(m.get(1, 1), Some(5.0));
    }

    #[test]
    fn column_iter_matches_column_copy() {
        let m = sample();
        for c in 0..m.cols() {
            let iter = m.column_iter(c);
            assert_eq!(iter.len(), m.rows());
            let copy: Vec<f32> = (0..m.rows()).map(|r| m.at(r, c)).collect();
            assert_eq!(iter.collect::<Vec<f32>>(), copy);
        }
        // Single-column and single-row shapes.
        let tall = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        assert_eq!(
            tall.column_iter(0).collect::<Vec<f32>>(),
            vec![1.0, 2.0, 3.0]
        );
        let wide = Matrix::from_rows(&[vec![7.0, 8.0, 9.0]]).unwrap();
        assert_eq!(wide.column_iter(1).collect::<Vec<f32>>(), vec![8.0]);
    }

    #[test]
    #[should_panic(expected = "column index out of bounds")]
    fn column_iter_rejects_out_of_range() {
        let _ = sample().column_iter(3);
    }

    #[test]
    fn map_and_map_inplace() {
        let mut m = sample();
        let doubled = m.map(|x| 2.0 * x);
        assert_eq!(doubled.at(0, 0), 2.0);
        m.map_inplace(|x| -x);
        assert_eq!(m.at(1, 2), -6.0);
    }

    #[test]
    fn xavier_initialization_bounds() {
        let mut rng = Rng::seed_from(3);
        let m = Matrix::xavier(16, 16, &mut rng);
        let limit = (6.0f32 / 32.0).sqrt() + 1e-6;
        assert!(m.as_slice().iter().all(|x| x.abs() <= limit));
    }
}
