//! Register-tiled dense kernels shared by the whole numeric stack.
//!
//! [`Matrix::matmul`], [`Matrix::matmul_transpose`],
//! [`matmul_transpose_left`] and the view products
//! ([`crate::MatrixView::matmul`], [`matmul_acc`]) all run on one
//! micro-kernel, so the transformer layers, the factored-SVD layers, the
//! trainer and the randomized SVD's sketch products share the same inner
//! loop. [`matvec`] and the fused rank-k [`crate::svd::Svd::reconstruct`]
//! live here too.
//!
//! **Bit-identity contract.** Every product in this module is
//! bit-identical to the textbook `ikj` loop with the `a == 0.0` skip:
//! output element `(i, j)` starts from the value already in the output
//! (zero for a fresh product) and adds `a[i][k] · b[k][j]` for every `k` in
//! ascending order whose `a[i][k]` is not zero. Tiling only reorders
//! *memory* — which output elements are worked on together and where the
//! operands are read from — never that chain. `tests/property_invariants.rs`
//! enforces kernel-vs-naive equality exactly, not within a tolerance.
//!
//! **The tile design.** Operands are [`MatrixView`]s, so `aᵀ` and `bᵀ` are
//! strided reads and an attention head is a column window; nothing is
//! transposed or sliced into a temporary. The micro-kernel keeps an
//! `R × W` block of outputs (`R ≤ MR = 2` rows, `W` = 16 or 8 lanes) in a
//! fixed-size accumulator array the compiler holds in vector registers: it
//! loads the block from the output, extends every element's chain over one
//! `k` slab (one broadcast `a` value per row, one `W`-lane row of `b` per
//! `k`), and stores it back. Const-generic `R` and `W` give every loop a
//! compile-time trip count: with a run-time row count the compiler keeps
//! the accumulators in memory. Row-major `b` is read in place. Only the
//! last `width % 8` columns are copied, into an 8-lane panel, so the tail
//! runs the same vector body; its pad lanes are computed and never stored.
//! A `b` with a non-unit column stride (a `bᵀ` view) is packed tile by tile
//! into rows padded to a multiple of 8 lanes, the only copy a transposed
//! operand costs; its last tile may be a 16-lane one ending in pad.
//!
//! **Why the zero skip stays.** It is part of the reference chain, and it
//! is observable: `0 · ∞` is NaN, so without it a zero `a` facing an
//! infinite `b` would poison the output, and a `-0.0` already in an output
//! window ([`matmul_acc`]) would turn `+0.0` once a `±0` product were
//! added. The skip is a per-lane keep-select (`acc` if `a == 0`, else
//! `acc + a·b`) taken only on a `k` step whose broadcast `a` values include
//! a zero; every other step is the plain multiply-add, at the cost of one
//! compare per row. For a finite `b` the skip chain also equals the plain
//! row dot product `Σₖ a[i][k] · b[k][j]` from `+0.0`: such an accumulator
//! never becomes `-0.0`, so adding a `±0` product leaves it unchanged.
//!
//! **Why there is no AVX2 path.** The release build targets baseline
//! x86-64 (SSE2), so one `W = 16` row is four 4-lane registers and a
//! `2 × 16` tile uses eight of the sixteen. Runtime dispatch to an AVX2
//! copy of the kernel would need `#[target_feature]` functions, and calling
//! one is `unsafe`, which the crate's `forbid(unsafe_code)` rules out. Rust
//! never contracts `a * b + c` into a fused multiply-add, so every target
//! gives the same bits.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::view::{MatrixView, MatrixViewMut};
use crate::Result;

/// Inner-dimension (`k`) tile: rows of `b` kept hot while every output row
/// tile runs over them.
const BLOCK_INNER: usize = 64;
/// Column (`j`) tile: bounds the `b`-block working set to
/// `BLOCK_INNER × BLOCK_COLS` floats (~128 KiB), which fits mid-level cache.
const BLOCK_COLS: usize = 512;
/// `f32` lanes of the narrow tile and of the padded tail: two SSE
/// registers (one AVX register).
const LANES: usize = 8;
/// `f32` lanes of the wide tile.
const WIDE: usize = 2 * LANES;
/// Output rows per register tile: `MR × WIDE` accumulators plus one `b`
/// row and `MR` broadcasts fit the sixteen SSE registers.
const MR: usize = 2;
/// Output rows [`matvec`] register-blocks over the shared input vector.
const MATVEC_ROWS: usize = 4;

/// Matrix multiplication `a · b`.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the inner dimensions differ.
pub fn matmul(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(product(a.view(), b.view()))
}

/// Matrix multiplication with the transpose of `b`: `a · bᵀ`, bit-identical
/// to `a.matmul(&b.transpose())` without materializing the transpose.
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.cols() != b.cols()`.
pub fn matmul_transpose(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.cols() != b.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transpose",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(product(a.view(), b.view().t()))
}

/// Matrix multiplication with the transpose of `a`: `aᵀ · b`, bit-identical
/// to `a.transpose().matmul(b)` without materializing the transpose (the
/// skip tests the same element the transposed matmul would).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `a.rows() != b.rows()`.
pub fn matmul_transpose_left(a: &Matrix, b: &Matrix) -> Result<Matrix> {
    if a.rows() != b.rows() {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_transpose_left",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    Ok(product(a.view().t(), b.view()))
}

/// Accumulates `a · b` into `out`: each output element's chain continues
/// from its current value, so on a zeroed window this is exactly the fresh
/// product (see the module docs).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when the inner dimensions differ
/// or `out` is not `a.rows() × b.cols()`.
pub fn matmul_acc(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut MatrixViewMut<'_>) -> Result<()> {
    if a.cols != b.rows || out.shape() != (a.rows, b.cols) {
        return Err(TensorError::ShapeMismatch {
            op: "matmul_acc",
            lhs: a.shape(),
            rhs: b.shape(),
        });
    }
    gemm(a, b, out);
    Ok(())
}

/// The fresh product of two shape-checked views.
fn product(a: MatrixView<'_>, b: MatrixView<'_>) -> Matrix {
    let mut out = Matrix::zeros(a.rows, b.cols);
    gemm(a, b, &mut out.view_mut());
    out
}

/// `W` lanes of `b` per `k` row: row `kk` of the slab starts at
/// `data[kk * stride]`.
#[derive(Clone, Copy)]
struct Panel<'p> {
    data: &'p [f32],
    stride: usize,
}

impl<'p> Panel<'p> {
    /// The panel shifted `j` columns right.
    fn at(self, j: usize) -> Panel<'p> {
        Panel {
            data: &self.data[j..],
            stride: self.stride,
        }
    }
}

/// One `k` slab of one column block: `a`'s columns `k0..k1` against the
/// `b` panels holding output columns `col0..col0 + width`. `body` can be
/// read `readable` lanes wide (a multiple of [`LANES`]), and the padded
/// `tail` holds whatever columns lie past that.
struct Slab<'s> {
    a: MatrixView<'s>,
    k0: usize,
    k1: usize,
    body: Panel<'s>,
    readable: usize,
    tail: Panel<'s>,
    col0: usize,
    width: usize,
}

/// `out += a · b` over shape-checked views.
fn gemm(a: MatrixView<'_>, b: MatrixView<'_>, out: &mut MatrixViewMut<'_>) {
    let (m, inner, n) = (a.rows, a.cols, b.cols);
    let direct = b.col_stride == 1;
    // A transposed `b` is packed whole per tile; a row-major one only in
    // its padded tail. Both buffers are sized to the largest tile used.
    let mut packed = if direct {
        Vec::new()
    } else {
        vec![0.0f32; BLOCK_INNER.min(inner) * BLOCK_COLS.min(n).next_multiple_of(LANES)]
    };
    let mut tail = if direct && n % LANES != 0 {
        vec![0.0f32; BLOCK_INNER.min(inner) * LANES]
    } else {
        Vec::new()
    };
    for col0 in (0..n).step_by(BLOCK_COLS) {
        let width = BLOCK_COLS.min(n - col0);
        for k0 in (0..inner).step_by(BLOCK_INNER) {
            let k1 = (k0 + BLOCK_INNER).min(inner);
            let (body, readable, tail) = if direct {
                let full = width - width % LANES;
                if full < width {
                    pack(b, (k0, k1), (col0 + full, width - full), &mut tail, LANES);
                }
                let body = Panel {
                    data: &b.data[k0 * b.row_stride + col0..],
                    stride: b.row_stride,
                };
                let tail = Panel {
                    data: &tail,
                    stride: LANES,
                };
                (body, full, tail)
            } else {
                let stride = width.next_multiple_of(LANES);
                pack(b, (k0, k1), (col0, width), &mut packed, stride);
                let body = Panel {
                    data: &packed,
                    stride,
                };
                (body, stride, body)
            };
            let slab = Slab {
                a,
                k0,
                k1,
                body,
                readable,
                tail,
                col0,
                width,
            };
            let mut i = 0;
            while i + MR <= m {
                row_tile::<MR>(&slab, i, out);
                i += MR;
            }
            if i < m {
                row_tile::<1>(&slab, i, out);
            }
        }
    }
}

/// Copies `b`'s rows `k0..k1`, columns `c0..c0 + width` into the first
/// `width` lanes of each `stride`-wide row of `buf`. The pad lanes past
/// `width` keep what the buffer held (zeros, or an earlier tile's values):
/// the last tile reads them, and its results there are never stored, so
/// they reach no output.
fn pack(
    b: MatrixView<'_>,
    (k0, k1): (usize, usize),
    (c0, width): (usize, usize),
    buf: &mut [f32],
    stride: usize,
) {
    for (k, row) in (k0..k1).zip(buf.chunks_exact_mut(stride)) {
        let start = k * b.row_stride + c0 * b.col_stride;
        for (jj, slot) in row[..width].iter_mut().enumerate() {
            *slot = b.data[start + jj * b.col_stride];
        }
    }
}

/// Output rows `i..i + R` of one slab: wide tiles and at most one narrow
/// one over the body (the last may end in pad lanes), then the tail.
#[inline(always)]
fn row_tile<const R: usize>(s: &Slab<'_>, i: usize, out: &mut MatrixViewMut<'_>) {
    let lanes = |j: usize, w: usize| (s.col0 + j, w.min(s.width - j));
    let mut j = 0;
    while j + WIDE <= s.readable {
        tile::<R, WIDE>(s, i, s.body.at(j), lanes(j, WIDE), out);
        j += WIDE;
    }
    if j < s.readable {
        tile::<R, LANES>(s, i, s.body.at(j), lanes(j, LANES), out);
    }
    if s.readable < s.width {
        tile::<R, LANES>(s, i, s.tail, lanes(s.readable, LANES), out);
    }
}

/// The micro-kernel: extends the chains of outputs `(i..i + R) ×
/// (col..col + lanes)` over the slab's `k` range, reading `b` from `panel`
/// (`W` lanes per `k`; lanes past `lanes` are pad).
///
/// The accumulators are initialised **from the output** and stored back:
/// `(…(out + x₁) + x₂)…` in registers is the chain the reference builds
/// through memory, bit for bit, across any number of `k` slabs. A fresh
/// `acc = 0.0` added to the output at the end would re-associate the sum,
/// which the contract forbids.
#[inline(always)]
fn tile<const R: usize, const W: usize>(
    s: &Slab<'_>,
    i: usize,
    panel: Panel<'_>,
    (col, lanes): (usize, usize),
    out: &mut MatrixViewMut<'_>,
) {
    // Partial rows go through a scratch row, so the accumulators are only
    // ever moved whole and stay in registers.
    let mut acc = [[0.0f32; W]; R];
    for (r, acc_row) in acc.iter_mut().enumerate() {
        let src = &out.data[(i + r) * out.row_stride + col..][..lanes];
        if lanes == W {
            acc_row.copy_from_slice(src);
        } else {
            let mut row = [0.0f32; W];
            row[..lanes].copy_from_slice(src);
            *acc_row = row;
        }
    }
    let a = s.a;
    for (kk, k) in (s.k0..s.k1).enumerate() {
        let b_row = &panel.data[kk * panel.stride..][..W];
        let mut a_col = [0.0f32; R];
        for (r, x) in a_col.iter_mut().enumerate() {
            *x = a.data[(i + r) * a.row_stride + k * a.col_stride];
        }
        if a_col.contains(&0.0) {
            for (acc_row, &x) in acc.iter_mut().zip(&a_col) {
                for (v, &y) in acc_row.iter_mut().zip(b_row) {
                    let extended = *v + x * y;
                    *v = if x == 0.0 { *v } else { extended };
                }
            }
        } else {
            for (acc_row, &x) in acc.iter_mut().zip(&a_col) {
                for (v, &y) in acc_row.iter_mut().zip(b_row) {
                    *v += x * y;
                }
            }
        }
    }
    for (r, &row) in acc.iter().enumerate() {
        let dst = &mut out.data[(i + r) * out.row_stride + col..][..lanes];
        if lanes == W {
            dst.copy_from_slice(&row);
        } else {
            dst.copy_from_slice(&row[..lanes]);
        }
    }
}

/// Matrix–vector product `a * v` (row dot products, ascending `k`).
///
/// # Errors
///
/// Returns [`TensorError::ShapeMismatch`] when `v.len() != a.cols()`.
pub fn matvec(a: &Matrix, v: &[f32]) -> Result<Vec<f32>> {
    if v.len() != a.cols() {
        return Err(TensorError::ShapeMismatch {
            op: "matvec",
            lhs: a.shape(),
            rhs: (v.len(), 1),
        });
    }
    let m = a.rows();
    let inner = a.cols();
    let a_data = a.as_slice();
    let mut out = vec![0.0f32; m];
    // Register-block MATVEC_ROWS output rows per pass: the input vector —
    // already a contiguous panel — is read once while feeding that many
    // accumulators. Each dot product still accumulates every k in
    // ascending order (no zero skip, matching the reference), so
    // bit-identity holds.
    let mut i = 0;
    while i < m {
        let h = MATVEC_ROWS.min(m - i);
        let empty: &[f32] = &[];
        let mut rows = [empty; MATVEC_ROWS];
        for (r, row) in rows.iter_mut().take(h).enumerate() {
            *row = &a_data[(i + r) * inner..(i + r + 1) * inner];
        }
        let mut acc = [0.0f32; MATVEC_ROWS];
        for (k, &vk) in v.iter().enumerate() {
            for (accv, row) in acc.iter_mut().zip(rows.iter()).take(h) {
                *accv += row[k] * vk;
            }
        }
        out[i..i + h].copy_from_slice(&acc[..h]);
        i += h;
    }
    Ok(out)
}

/// Fused rank-k reconstruction `U · diag(σ) · Vᵀ`.
///
/// Replaces the rank-1-update triple loop (`k` outer, strided column writes
/// into the output) with a row-major sweep: one pass per output row, each
/// rank contributing an AXPY over the contiguous `Vᵀ` row. Per output
/// element the contributions still arrive in ascending `k` order with the
/// same `σ == 0` / `u·σ == 0` skips, so the result is bit-identical to the
/// old loop.
///
/// # Panics
///
/// Panics if `sigmas.len()` exceeds the factor ranks (callers pass factors
/// produced together by the SVD, which are consistent by construction).
pub fn reconstruct_rank_k(u: &Matrix, sigmas: &[f32], vt: &Matrix) -> Matrix {
    assert!(
        sigmas.len() <= u.cols() && sigmas.len() <= vt.rows(),
        "rank exceeds factor dimensions"
    );
    let m = u.rows();
    let n = vt.cols();
    let mut out = Matrix::zeros(m, n);
    for i in 0..m {
        let u_row = u.row(i);
        let out_row = &mut out.as_mut_slice()[i * n..(i + 1) * n];
        for (k, &sigma) in sigmas.iter().enumerate() {
            if sigma == 0.0 {
                continue;
            }
            let ui = u_row[k] * sigma;
            if ui == 0.0 {
                continue;
            }
            let vt_row = &vt.as_slice()[k * n..(k + 1) * n];
            for (o, &v) in out_row.iter_mut().zip(vt_row.iter()) {
                *o += ui * v;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    /// The pre-kernel `ikj` reference loop, kept verbatim as the bit-identity
    /// oracle.
    fn naive_matmul(a: &Matrix, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(a.rows(), b.cols());
        let n = b.cols();
        for i in 0..a.rows() {
            for k in 0..a.cols() {
                let aik = a.at(i, k);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let v = out.at(i, j) + aik * b.at(k, j);
                    out.set(i, j, v);
                }
            }
        }
        out
    }

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        Matrix::random_normal(rows, cols, 0.0, 1.0, &mut rng)
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive_across_shapes() {
        for (m, k, n, seed) in [
            (1, 1, 1, 1u64),
            (3, 5, 7, 2),
            (33, 65, 130, 3),
            (64, 70, 513, 4),
        ] {
            let a = random(m, k, seed);
            let b = random(k, n, seed + 100);
            let blocked = matmul(&a, &b).unwrap();
            let naive = naive_matmul(&a, &b);
            assert_eq!(blocked.as_slice(), naive.as_slice(), "{m}x{k}x{n}");
        }
        // Every tail width: full chunks, a padded last chunk, and widths
        // below one chunk, over row counts that leave a short row block.
        for n in 1..=2 * LANES + 1 {
            for (m, k) in [(1, 3), (5, 9), (6, 70)] {
                let a = random(m, k, 40 + n as u64);
                let b = random(k, n, 80 + n as u64);
                let blocked = matmul(&a, &b).unwrap();
                assert_eq!(
                    blocked.as_slice(),
                    naive_matmul(&a, &b).as_slice(),
                    "{m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose_bitwise() {
        // The first shape packs a full 512-column block and then a 5-wide
        // one into the same buffer, over two `k` slabs.
        for (m, k, n, seed) in [(5, 70, 517, 5u64), (3, 9, 12, 6)] {
            let a = random(m, k, seed);
            let b = random(n, k, seed + 100);
            let fast = matmul_transpose(&a, &b).unwrap();
            assert_eq!(fast.as_slice(), naive_matmul(&a, &b.transpose()).as_slice());
        }
        let a = random(37, 50, 7);
        let b = random(41, 50, 8);
        let fast = matmul_transpose(&a, &b).unwrap();
        let two_step = naive_matmul(&a, &b.transpose());
        assert_eq!(fast.as_slice(), two_step.as_slice());
        // For a finite `b` the skip chain is also the plain row dot product
        // (an accumulator starting at +0.0 never turns -0.0).
        for i in 0..a.rows() {
            for j in 0..b.rows() {
                let mut acc = 0.0f32;
                for (x, y) in a.row(i).iter().zip(b.row(j).iter()) {
                    acc += x * y;
                }
                assert_eq!(fast.at(i, j).to_bits(), acc.to_bits());
            }
        }
    }

    #[test]
    fn matmul_transpose_left_matches_explicit_transpose_bitwise() {
        for (rows, cols_a, cols_b, seed) in [(5, 3, 4, 20u64), (50, 37, 41, 21), (64, 9, 130, 22)] {
            let a = random(rows, cols_a, seed);
            let b = random(rows, cols_b, seed + 100);
            let fused = matmul_transpose_left(&a, &b).unwrap();
            let two_step = matmul(&a.transpose(), &b).unwrap();
            assert_eq!(fused.as_slice(), two_step.as_slice(), "{rows}x{cols_a}");
        }
    }

    #[test]
    fn matvec_matches_naive_row_dots_bitwise() {
        for (m, k, seed) in [(1, 1, 30u64), (7, 13, 31), (130, 65, 32)] {
            let a = random(m, k, seed);
            let v: Vec<f32> = random(1, k, seed + 100).as_slice().to_vec();
            let fast = matvec(&a, &v).unwrap();
            for (r, &got) in fast.iter().enumerate() {
                let mut acc = 0.0f32;
                for (x, y) in a.row(r).iter().zip(v.iter()) {
                    acc += x * y;
                }
                assert_eq!(got.to_bits(), acc.to_bits(), "row {r}");
            }
        }
    }

    #[test]
    fn packed_matmul_preserves_zero_skip_nan_semantics() {
        // 0 × inf would be NaN without the skip; the packed kernel must
        // keep the reference's skip behaviour exactly. Width 2 is all tail;
        // width LANES + 3 puts the non-finite values in both a full chunk
        // and the padded tail chunk, next to an infinite `a` entry whose
        // products with the zeroed pad lanes are NaN.
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for n in [2, LANES + 3] {
            let mut a = Matrix::zeros(3, 3);
            a.set(0, 1, 2.0);
            a.set(1, 0, 1.0);
            a.set(2, 1, f32::INFINITY);
            let mut b = Matrix::zeros(3, n);
            for j in [0, n - 2] {
                b.set(0, j, f32::INFINITY);
                b.set(2, j, f32::NAN);
            }
            b.set(1, n - 1, 4.0);
            let got = matmul(&a, &b).unwrap();
            assert_eq!(bits(&got), bits(&naive_matmul(&a, &b)), "width {n}");
        }
    }

    #[test]
    fn transposed_operands_keep_the_zero_skip() {
        // a[0][1] == 0 faces b[1][*] == inf: the skip keeps NaN out of row 0
        // whichever operand is read transposed.
        let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut a = random(3, 4, 15);
        a.set(0, 1, 0.0);
        a.set(2, 1, -0.0);
        let mut b = random(4, 19, 16);
        for j in [0, 9, 18] {
            b.set(1, j, f32::INFINITY);
        }
        let reference = naive_matmul(&a, &b);
        assert!(reference.at(0, 0).is_finite() && reference.at(1, 0).is_infinite());
        assert_eq!(
            bits(&matmul_transpose(&a, &b.transpose()).unwrap()),
            bits(&reference)
        );
        let left = matmul_transpose_left(&a.transpose(), &b).unwrap();
        assert_eq!(bits(&left), bits(&reference));
    }

    #[test]
    fn matmul_acc_continues_each_chain_from_the_output() {
        // A window whose outputs already hold values, over two `k` slabs.
        // Row 4 of `a` is all zeros, so only the skip keeps its -0.0 output
        // negative (-0.0 + 0.0 is +0.0).
        let mut a = random(5, 70, 17);
        a.set(0, 0, 0.0);
        for p in 0..70 {
            a.set(4, p, if p % 2 == 0 { 0.0 } else { -0.0 });
        }
        let b = random(70, 11, 18);
        let mut out = random(5, 20, 19);
        out.set(4, 3, -0.0);
        let before = out.clone();
        let mut window = out.column_window_mut(3, 11).unwrap();
        matmul_acc(a.view(), b.view(), &mut window).unwrap();
        for i in 0..5 {
            for j in 0..20 {
                let mut expected = before.at(i, j);
                if (3..14).contains(&j) {
                    for p in 0..70 {
                        if a.at(i, p) != 0.0 {
                            expected += a.at(i, p) * b.at(p, j - 3);
                        }
                    }
                }
                assert_eq!(out.at(i, j).to_bits(), expected.to_bits(), "({i}, {j})");
            }
        }
        assert_eq!(out.at(4, 3).to_bits(), (-0.0f32).to_bits());
        let mut wrong = out.column_window_mut(0, 10).unwrap();
        assert!(matmul_acc(a.view(), b.view(), &mut wrong).is_err());
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = random(3, 4, 9);
        let b = random(3, 4, 10);
        assert!(matmul(&a, &b).is_err());
        let c = random(3, 5, 11);
        assert!(matmul_transpose(&a, &c).is_err());
        assert!(matmul_transpose_left(&a, &random(4, 2, 14)).is_err());
        assert!(a.view().matmul(b.view()).is_err());
        assert!(matvec(&a, &[0.0; 3]).is_err());
    }

    #[test]
    fn reconstruct_matches_rank_one_update_reference() {
        let u = random(12, 5, 12);
        let vt = random(5, 9, 13);
        let sigmas = [3.0f32, 2.0, 0.0, 0.5, 0.25];
        // Reference: the old k-outer rank-1-update loop.
        let mut reference = Matrix::zeros(12, 9);
        for (k, &sigma) in sigmas.iter().enumerate() {
            if sigma == 0.0 {
                continue;
            }
            for i in 0..12 {
                let ui = u.at(i, k) * sigma;
                if ui == 0.0 {
                    continue;
                }
                for j in 0..9 {
                    let v = reference.at(i, j) + ui * vt.at(k, j);
                    reference.set(i, j, v);
                }
            }
        }
        let fused = reconstruct_rank_k(&u, &sigmas, &vt);
        assert_eq!(fused.as_slice(), reference.as_slice());
    }
}
