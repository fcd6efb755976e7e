//! Blocked/tiled dense kernels shared by the whole numeric stack.
//!
//! [`Matrix::matmul`], [`Matrix::matmul_transpose`], and [`Matrix::matvec`]
//! route through this module, so the transformer layers, the factored-SVD
//! layers, and the trainer all run on the same cache-blocked inner loops.
//! The randomized SVD's sketch products and the fused rank-k
//! [`crate::svd::Svd::reconstruct`] live here too.
//!
//! **Bit-identity contract.** Every kernel in this module produces output
//! that is bit-identical to the naive reference loop it replaces: blocking
//! and panel packing only reorder *memory* — which output element is worked
//! on next and where the operands sit — never the order in which
//! contributions are accumulated into a given element (always ascending
//! inner index `k`, with the same skip-on-zero shortcuts).
//! `tests/property_invariants.rs` enforces kernel-vs-naive equivalence
//! exactly, not within a tolerance.
//!
//! **The packed panel layer.** [`matmul`] copies each `BLOCK_INNER ×
//! BLOCK_COLS` tile of `b` once into a contiguous, lane-stride-aligned
//! panel buffer and runs `packed_micro_kernel` — a register-blocked
//! (`MR` output rows × `LANES` columns) kernel — over it; the panel is
//! then reused by every row block of `a`. [`matmul_transpose`] packs the
//! rows of `b` into `NR`-interleaved dot panels, [`matmul_transpose_left`]
//! computes `aᵀ · b` without materializing the transpose (the randomized
//! SVD's sketch projections ride on it), and [`matvec`] register-blocks
//! `MR` rows over the shared input vector, which is its own panel already.

use crate::error::TensorError;
use crate::matrix::Matrix;
use crate::Result;

/// Row-block (`i`) tile: output rows worked on together.
const BLOCK_ROWS: usize = 32;
/// Inner-dimension (`k`) tile: rows of `b` kept hot across a row block.
const BLOCK_INNER: usize = 64;
/// Column (`j`) tile: bounds the `b`-block working set to
/// `BLOCK_INNER × BLOCK_COLS` floats (~128 KiB), which fits mid-level cache.
const BLOCK_COLS: usize = 512;
/// `f32` lanes per vector step of the micro-kernels. Eight lanes is one
/// AVX2 register (or two NEON registers); packed panel rows are padded to a
/// multiple of this so every full-chunk load has the same lane phase, which
/// is what lets the autovectorizer emit aligned-width FMA loops.
const LANES: usize = 8;
/// Output rows register-blocked together by [`packed_micro_kernel`]: each
/// packed panel row loaded from cache feeds `MR` independent accumulator
/// rows before the next `k` step.
const MR: usize = 4;
/// `b` rows interleaved per packed dot panel in [`matmul_transpose`].
const NR: usize = 4;

/// Blocked matrix multiplication `a * b`.
///
/// Bit-identical to the textbook `ikj` loop with the `a == 0.0` skip: for
/// every output element the contributions arrive in ascending `k` order.
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
    let mut out = Matrix::zeros(a.rows(), b.cols());
    matmul_rows_into(a, b, 0, a.rows(), out.as_mut_slice());
    Ok(out)
}

/// A contiguous, lane-stride-aligned copy of one `b` tile: rows `k0..k1`,
/// columns `col0..col0 + width`, each packed row starting at a multiple of
/// `stride` (`width` rounded up to [`LANES`]).
struct PackedPanel<'p> {
    data: &'p [f32],
    stride: usize,
    width: usize,
    k0: usize,
    k1: usize,
    col0: usize,
}

/// The output band a micro-kernel writes into: rows `row0..` of the full
/// product, `n` columns wide.
struct OutBand<'o> {
    data: &'o mut [f32],
    n: usize,
    row0: usize,
}

/// Copies the `b` tile (`k0..k1` × `col0..col0 + width`) into `packed` with
/// row stride `stride`. Pad lanes past `width` are never read, so they are
/// left as-is.
fn pack_panel(
    b_data: &[f32],
    n: usize,
    (k0, k1): (usize, usize),
    col0: usize,
    width: usize,
    stride: usize,
    packed: &mut [f32],
) {
    for (kk, k) in (k0..k1).enumerate() {
        let src = &b_data[k * n + col0..k * n + col0 + width];
        packed[kk * stride..kk * stride + width].copy_from_slice(src);
    }
}

/// The register-blocked micro-kernel: accumulates the `[k0, k1)` slab of the
/// product into output rows `i..i + h` (`h ≤ MR`), reading `b` through a
/// [`PackedPanel`].
///
/// **Why packing preserves the bit-identity contract.** Floating-point
/// addition is not associative, so the contract demands that every output
/// element receives its contributions in exactly the reference order:
/// ascending `k`, skipping `a[i][k] == 0.0` terms. This kernel changes three
/// things relative to the unpacked loop, and none of them touch that order:
///
/// 1. *Packing* copies the `b` tile into a contiguous panel — a pure memory
///    relocation; the values multiplied are bit-for-bit the same.
/// 2. *Register blocking* keeps `MR` output rows' accumulators live at
///    once. Each output row's accumulation chain is independent of the
///    others, so interleaving rows reorders nothing within any chain.
/// 3. *Load–accumulate–store*: each `LANES`-wide accumulator is initialised
///    **from the output buffer** (carrying the sum accumulated by earlier
///    `k` slabs), extended in ascending `k` with the same zero skips, and
///    stored back. `(…(out + x₁) + x₂)…` evaluated in registers is the same
///    chain the unpacked loop builds through memory, bit for bit. A fresh
///    `acc = 0.0` summed and added at the end would *not* be — that
///    re-association is exactly what the contract forbids.
///
/// Columns are walked in `LANES`-exact chunks (the vectorized body) with a
/// scalar tail, never by zero-padding the output, so remainder columns also
/// keep the reference chain.
fn packed_micro_kernel(
    a_data: &[f32],
    inner: usize,
    i: usize,
    h: usize,
    panel: &PackedPanel<'_>,
    out: &mut OutBand<'_>,
) {
    let chunks = panel.width / LANES;
    for c in 0..chunks {
        let jo = c * LANES;
        let mut acc = [[0.0f32; LANES]; MR];
        for (r, acc_row) in acc.iter_mut().take(h).enumerate() {
            let base = (i + r - out.row0) * out.n + panel.col0 + jo;
            acc_row.copy_from_slice(&out.data[base..base + LANES]);
        }
        for k in panel.k0..panel.k1 {
            let prow = &panel.data[(k - panel.k0) * panel.stride + jo..][..LANES];
            for (r, acc_row) in acc.iter_mut().take(h).enumerate() {
                let aik = a_data[(i + r) * inner + k];
                if aik == 0.0 {
                    continue;
                }
                for (accv, &pv) in acc_row.iter_mut().zip(prow.iter()) {
                    *accv += aik * pv;
                }
            }
        }
        for (r, acc_row) in acc.iter().take(h).enumerate() {
            let base = (i + r - out.row0) * out.n + panel.col0 + jo;
            out.data[base..base + LANES].copy_from_slice(acc_row);
        }
    }
    for j in (chunks * LANES)..panel.width {
        for r in 0..h {
            let base = (i + r - out.row0) * out.n + panel.col0 + j;
            let mut accv = out.data[base];
            for k in panel.k0..panel.k1 {
                let aik = a_data[(i + r) * inner + k];
                if aik == 0.0 {
                    continue;
                }
                accv += aik * panel.data[(k - panel.k0) * panel.stride + j];
            }
            out.data[base] = accv;
        }
    }
}

/// Computes output rows `[row0, row1)` of `a * b` into `out` (a buffer of
/// exactly `(row1 - row0) * b.cols()` zeros) via the packed panel layer:
/// each `b` tile is packed once and reused by every row block.
fn matmul_rows_into(a: &Matrix, b: &Matrix, row0: usize, row1: usize, out: &mut [f32]) {
    let inner = a.cols();
    let n = b.cols();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    // Sized to the *actual* largest tile, not the BLOCK_* maxima: small
    // matmuls (the layer forward/backward hot path) must not pay a fixed
    // 128 KiB zeroed allocation per call.
    let mut packed =
        vec![0.0f32; BLOCK_INNER.min(inner) * BLOCK_COLS.min(n).next_multiple_of(LANES)];
    let mut band = OutBand { data: out, n, row0 };
    for col0 in (0..n).step_by(BLOCK_COLS) {
        let col1 = (col0 + BLOCK_COLS).min(n);
        let width = col1 - col0;
        let stride = width.next_multiple_of(LANES);
        for k0 in (0..inner).step_by(BLOCK_INNER) {
            let k1 = (k0 + BLOCK_INNER).min(inner);
            pack_panel(b_data, n, (k0, k1), col0, width, stride, &mut packed);
            let panel = PackedPanel {
                data: &packed,
                stride,
                width,
                k0,
                k1,
                col0,
            };
            for i0 in (row0..row1).step_by(BLOCK_ROWS) {
                let i1 = (i0 + BLOCK_ROWS).min(row1);
                let mut i = i0;
                while i < i1 {
                    let h = MR.min(i1 - i);
                    packed_micro_kernel(a_data, inner, i, h, &panel, &mut band);
                    i += h;
                }
            }
        }
    }
}

/// Blocked matrix multiplication with the transpose of `b`: `a * bᵀ`.
///
/// Bit-identical to the naive row-dot-row loop: each output element is a
/// single dot product accumulated in ascending `k` order.
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
    let m = a.rows();
    let n = b.rows();
    let inner = a.cols();
    let mut out = Matrix::zeros(m, n);
    let out_data = out.as_mut_slice();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    // Pack every group of NR `b` rows once into a k-major interleaved dot
    // panel: panel[k * NR + jj] = b[j0 + jj][k]. Walking k then reads the
    // panel strictly sequentially while feeding NR accumulators. Short tail
    // groups are zero-padded for a uniform stride; pad accumulators are
    // computed but never stored. This is a memory relocation only — each
    // stored dot product still accumulates every k in ascending order (no
    // zero skip, matching the reference), so bit-identity holds.
    let groups = n.div_ceil(NR);
    let mut packed = vec![0.0f32; groups * NR * inner];
    for j in 0..n {
        let base = (j / NR) * NR * inner + (j % NR);
        for (k, &v) in b_data[j * inner..(j + 1) * inner].iter().enumerate() {
            packed[base + k * NR] = v;
        }
    }
    for i0 in (0..m).step_by(BLOCK_ROWS) {
        let i1 = (i0 + BLOCK_ROWS).min(m);
        for g in 0..groups {
            let j0 = g * NR;
            let gh = NR.min(n - j0);
            let panel = &packed[g * NR * inner..(g + 1) * NR * inner];
            for i in i0..i1 {
                let a_row = &a_data[i * inner..(i + 1) * inner];
                let mut acc = [0.0f32; NR];
                for (k, &av) in a_row.iter().enumerate() {
                    let pk = &panel[k * NR..k * NR + NR];
                    for (accv, &pv) in acc.iter_mut().zip(pk.iter()) {
                        *accv += av * pv;
                    }
                }
                let dst = &mut out_data[i * n + j0..i * n + j0 + gh];
                dst.copy_from_slice(&acc[..gh]);
            }
        }
    }
    Ok(out)
}

/// Blocked matrix multiplication with the transpose of `a`: `aᵀ * b`,
/// computed without materializing the transpose.
///
/// Element `(i, j)` is `Σₖ a[k][i] · b[k][j]` accumulated in ascending `k`
/// with the `a[k][i] == 0.0` skip — exactly the chain
/// `a.transpose().matmul(b)` builds (the skip tests the same element the
/// transposed matmul would), so the result is bit-identical to that
/// two-step form while reading both operands through their contiguous
/// rows. The randomized SVD's sketch projection (`qᵀ · w`) runs on this.
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
    let m = a.cols();
    let n = b.cols();
    let inner = a.rows();
    let mut out = Matrix::zeros(m, n);
    let out_data = out.as_mut_slice();
    let a_data = a.as_slice();
    let b_data = b.as_slice();
    // k-outer sweep: each a row contributes one rank-1 update slab. The
    // output (m × n, both ≤ the sketch width on the SVD path) stays hot;
    // per output element the contributions arrive in ascending k.
    for k in 0..inner {
        let a_row = &a_data[k * m..(k + 1) * m];
        let b_row = &b_data[k * n..(k + 1) * n];
        for (i, &aki) in a_row.iter().enumerate() {
            if aki == 0.0 {
                continue;
            }
            let out_row = &mut out_data[i * n..(i + 1) * n];
            for (o, &bv) in out_row.iter_mut().zip(b_row.iter()) {
                *o += aki * bv;
            }
        }
    }
    Ok(out)
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
    // Register-block MR output rows per pass: the input vector — already a
    // contiguous panel — is read once while feeding MR accumulators. Each
    // dot product still accumulates every k in ascending order (no zero
    // skip, matching the reference), so bit-identity holds.
    let mut i = 0;
    while i < m {
        let h = MR.min(m - i);
        let empty: &[f32] = &[];
        let mut rows = [empty; MR];
        for (r, row) in rows.iter_mut().take(h).enumerate() {
            *row = &a_data[(i + r) * inner..(i + r + 1) * inner];
        }
        let mut acc = [0.0f32; MR];
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
    }

    #[test]
    fn matmul_transpose_matches_explicit_transpose_bitwise() {
        let a = random(37, 50, 7);
        let b = random(41, 50, 8);
        let fast = matmul_transpose(&a, &b).unwrap();
        // The naive oracle: independent row-dot-row accumulation.
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
        // keep the reference's skip behaviour exactly.
        let mut a = Matrix::zeros(2, 3);
        a.set(0, 1, 2.0);
        a.set(1, 0, 1.0);
        let mut b = Matrix::zeros(3, 2);
        b.set(0, 0, f32::INFINITY);
        b.set(1, 1, 4.0);
        b.set(2, 0, f32::NAN);
        let got = matmul(&a, &b).unwrap();
        let naive = naive_matmul(&a, &b);
        assert_eq!(
            got.as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>(),
            naive
                .as_slice()
                .iter()
                .map(|x| x.to_bits())
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn shape_errors_are_reported() {
        let a = random(3, 4, 9);
        let b = random(3, 4, 10);
        assert!(matmul(&a, &b).is_err());
        let c = random(3, 5, 11);
        assert!(matmul_transpose(&a, &c).is_err());
        assert!(matmul_transpose_left(&a, &random(4, 2, 14)).is_err());
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
