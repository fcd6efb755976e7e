//! Borrowed, strided windows onto a [`Matrix`]'s storage.
//!
//! The kernels in [`crate::kernels`] read their operands through
//! [`MatrixView`], so a transposed operand ([`MatrixView::t`]) or one
//! attention head's columns ([`Matrix::column_window`]) enter a product
//! without being copied into a matrix of their own, and they write through
//! [`MatrixViewMut`], so a product can land in a column window of a larger
//! output ([`Matrix::column_window_mut`]).

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;

/// A read-only `rows × cols` window: element `(r, c)` is
/// `data[r * row_stride + c * col_stride]`.
///
/// Built only from a [`Matrix`] ([`Matrix::view`],
/// [`Matrix::column_window`]) and transposed with [`MatrixView::t`], so
/// every element index is inside `data` and the shape is never empty.
#[derive(Debug, Clone, Copy)]
pub struct MatrixView<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_stride: usize,
    pub(crate) col_stride: usize,
}

impl<'a> MatrixView<'a> {
    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The transposed window over the same storage (no copy).
    pub fn t(self) -> MatrixView<'a> {
        MatrixView {
            data: self.data,
            rows: self.cols,
            cols: self.rows,
            row_stride: self.col_stride,
            col_stride: self.row_stride,
        }
    }

    /// Matrix product `self · rhs` into a new matrix, through the kernel
    /// every [`Matrix`] product runs on ([`crate::kernels::matmul_acc`]).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::ShapeMismatch`] when the inner dimensions differ.
    pub fn matmul(self, rhs: MatrixView<'_>) -> Result<Matrix> {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        crate::kernels::matmul_acc(self, rhs, &mut out.view_mut())?;
        Ok(out)
    }
}

/// A writable `rows × cols` window with unit column stride: element
/// `(r, c)` is `data[r * row_stride + c]`.
///
/// Built only from a [`Matrix`] ([`Matrix::view_mut`],
/// [`Matrix::column_window_mut`]), so every element index is inside `data`.
#[derive(Debug)]
pub struct MatrixViewMut<'a> {
    pub(crate) data: &'a mut [f32],
    pub(crate) rows: usize,
    pub(crate) cols: usize,
    pub(crate) row_stride: usize,
}

impl MatrixViewMut<'_> {
    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }
}

impl Matrix {
    /// The whole matrix as a [`MatrixView`].
    pub fn view(&self) -> MatrixView<'_> {
        MatrixView {
            data: self.as_slice(),
            rows: self.rows(),
            cols: self.cols(),
            row_stride: self.cols(),
            col_stride: 1,
        }
    }

    /// The whole matrix as a [`MatrixViewMut`].
    pub fn view_mut(&mut self) -> MatrixViewMut<'_> {
        let (rows, cols) = self.shape();
        MatrixViewMut {
            data: self.as_mut_slice(),
            rows,
            cols,
            row_stride: cols,
        }
    }

    /// Columns `col0..col0 + cols` of every row as a [`MatrixView`] (e.g.
    /// one attention head of a `[L, heads · head_dim]` activation).
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the window is empty or
    /// exceeds the matrix.
    pub fn column_window(&self, col0: usize, cols: usize) -> Result<MatrixView<'_>> {
        self.check_window(col0, cols)?;
        Ok(MatrixView {
            data: &self.as_slice()[col0..],
            rows: self.rows(),
            cols,
            row_stride: self.cols(),
            col_stride: 1,
        })
    }

    /// Columns `col0..col0 + cols` of every row as a [`MatrixViewMut`].
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidDimension`] when the window is empty or
    /// exceeds the matrix.
    pub fn column_window_mut(&mut self, col0: usize, cols: usize) -> Result<MatrixViewMut<'_>> {
        self.check_window(col0, cols)?;
        let (rows, row_stride) = self.shape();
        Ok(MatrixViewMut {
            data: &mut self.as_mut_slice()[col0..],
            rows,
            cols,
            row_stride,
        })
    }

    /// Rejects an empty column window or one past the last column.
    fn check_window(&self, col0: usize, cols: usize) -> Result<()> {
        if cols == 0 || col0 > self.cols() || cols > self.cols() - col0 {
            return Err(TensorError::InvalidDimension(format!(
                "column window {col0}+{cols} exceeds {} columns",
                self.cols()
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Matrix {
        Matrix::from_rows(&[vec![1.0, 2.0, 3.0, 4.0], vec![5.0, 6.0, 7.0, 8.0]]).unwrap()
    }

    #[test]
    fn windows_and_transposes_read_the_right_elements() {
        let m = sample();
        let w = m.column_window(1, 2).unwrap();
        assert_eq!(w.shape(), (2, 2));
        let t = w.t();
        assert_eq!(t.shape(), (2, 2));
        let ones = Matrix::filled(2, 1, 1.0);
        // Row sums of the window, then of its transpose (column sums).
        assert_eq!(w.matmul(ones.view()).unwrap().as_slice(), &[5.0, 13.0]);
        assert_eq!(t.matmul(ones.view()).unwrap().as_slice(), &[8.0, 10.0]);
        assert!(m.column_window(3, 2).is_err());
        assert!(m.column_window(0, 0).is_err());
    }

    #[test]
    fn mutable_windows_write_only_their_columns() {
        let mut m = Matrix::zeros(2, 4);
        let source = sample();
        let block = source.column_window(0, 2).unwrap();
        let id = Matrix::identity(2);
        crate::kernels::matmul_acc(block, id.view(), &mut m.column_window_mut(2, 2).unwrap())
            .unwrap();
        assert_eq!(m.as_slice(), &[0.0, 0.0, 1.0, 2.0, 0.0, 0.0, 5.0, 6.0]);
        assert!(m.column_window_mut(1, 4).is_err());
    }
}
