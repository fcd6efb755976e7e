//! Singular value decomposition by one-sided Jacobi rotations.
//!
//! The paper's gradient-redistribution technique (Section 4) decomposes every
//! static transformer weight matrix as `W = U Σ Vᵀ`, truncates the rank to a
//! *hard threshold* `D_Th = (D_h1 · D_h2) / (D_h1 + D_h2)` so the inference
//! MAC count is unchanged, fine-tunes the factors, and maps the ranks whose
//! singular values carry the largest loss gradient onto SLC RRAM.
//!
//! One-sided Jacobi is chosen because it is simple, numerically robust for
//! the well-conditioned weight matrices seen here, and needs no external
//! LAPACK dependency. It orthogonalizes the columns of a working copy of
//! `W` by plane rotations; the column norms become the singular values.
//! Every figure and table in `EXPERIMENTS.md` is produced on this
//! bit-stable path.
//!
//! ## Convergence and non-convergence handling
//!
//! The working copy stores `f32`, so its columns can be made orthogonal
//! only to f32 rounding: on the weight matrices seen here the largest
//! column-pair cosine falls quadratically and then plateaus at a few 1e-8
//! (3e-8–9e-8 on the matrices tried). The sweeps stop there, after 5–10
//! sweeps counting the last one, which only checks. A pair is rotated only while its cosine exceeds the f32-scaled
//! tolerance `√m · ε_f32` (`m` rows, the one-sided Jacobi bound LAPACK's
//! `sgesvj` uses), which sits about ten times above that plateau, and the
//! loop ends after the first sweep in which no pair is left to rotate. A
//! second rule catches a plateau above the tolerance: once the largest
//! cosine is below `√tolerance`, where each sweep should square it, a sweep
//! that does not lower it has reached the rounding floor and ends the loop.
//! `MAX_SWEEPS` stays as a backstop; when it is reached the result is
//! **accepted** (the columns are as orthogonal as rounding allows, so the
//! factors are valid) rather than erroring. Only genuinely broken states
//! are typed errors: non-finite *inputs* are rejected up front with
//! [`TensorError::InvalidArgument`] (they would otherwise defeat the cosine
//! test and come back as silently-"converged" NaN factors), and a working
//! copy that turns non-finite mid-iteration (overflow) surfaces as
//! [`TensorError::NoConvergence`].

use crate::error::TensorError;
use crate::kernels;
use crate::matrix::Matrix;
use crate::Result;

/// Backstop on the Jacobi sweep count. A weight matrix stops at its f32
/// plateau after 5–10 sweeps (see the module docs on convergence), so this
/// bound is reached only by inputs that neither meet the tolerance nor
/// stall; their result is accepted as it stands.
const MAX_SWEEPS: usize = 60;

/// The column-pair cosine below which two columns of an `m`-row working
/// copy count as orthogonal: `√m · ε_f32`, about ten times the f32
/// rounding plateau (see the module docs).
fn cosine_tolerance(m: usize) -> f64 {
    (m as f64).sqrt() * f64::from(f32::EPSILON)
}

/// The one SVD algorithm, one-sided Jacobi. The enum is kept only because
/// `e2ebench`'s accuracy workload names `SvdAlgorithm::Jacobi` when it
/// fills `GradientRedistribution::svd_algorithm`; ROADMAP item 2 deletes
/// both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SvdAlgorithm {
    /// One-sided Jacobi, exact to working precision.
    #[default]
    Jacobi,
}

/// A singular value decomposition `W = U Σ Vᵀ`.
///
/// `u` is `m×r`, `singular_values` has length `r`, and `vt` is `r×n` where
/// `r = min(m, n)` (or less after [`Svd::truncate`]). Singular values are
/// sorted in non-increasing order.
#[derive(Debug, Clone)]
pub struct Svd {
    /// Left singular vectors, one column per retained rank.
    pub u: Matrix,
    /// Singular values in non-increasing order.
    pub singular_values: Vec<f32>,
    /// Right singular vectors (transposed), one row per retained rank.
    pub vt: Matrix,
}

impl Svd {
    /// Number of retained ranks.
    pub fn rank(&self) -> usize {
        self.singular_values.len()
    }

    /// Reconstructs `U Σ Vᵀ` at the current (possibly truncated) rank.
    ///
    /// Runs the fused rank-k kernel
    /// ([`kernels::reconstruct_rank_k`]), which is bit-identical
    /// to the historical rank-1-update triple loop but sweeps the output
    /// row-major exactly once.
    // hyflex-lint: allow(U2) — the `U Σ Vᵀ` oracle the svd unit tests, property_invariants and the svd_pipeline bench check factorizations with
    pub fn reconstruct(&self) -> Matrix {
        kernels::reconstruct_rank_k(&self.u, &self.singular_values, &self.vt)
    }

    /// Returns a copy truncated to the leading `k` ranks.
    ///
    /// # Errors
    ///
    /// Returns [`TensorError::InvalidArgument`] if `k` is zero or exceeds the
    /// current rank.
    pub fn truncate(&self, k: usize) -> Result<Svd> {
        if k == 0 || k > self.rank() {
            return Err(TensorError::InvalidArgument(format!(
                "truncation rank {k} must be in 1..={}",
                self.rank()
            )));
        }
        let u = self.u.submatrix(0, 0, self.u.rows(), k)?;
        let vt = self.vt.submatrix(0, 0, k, self.vt.cols())?;
        Ok(Svd {
            u,
            singular_values: self.singular_values[..k].to_vec(),
            vt,
        })
    }
}

/// The paper's hard rank threshold `D_Th = (D_h1 · D_h2) / (D_h1 + D_h2)`.
///
/// At this rank the post-SVD factored multiply `x·(ΣVᵀ)ᵀ` followed by `·Uᵀ`
/// costs the same number of MACs (and stores the same number of parameters)
/// as the original dense `x·Wᵀ`.
pub fn hard_threshold_rank(rows: usize, cols: usize) -> usize {
    if rows == 0 || cols == 0 {
        return 0;
    }
    ((rows * cols) / (rows + cols)).max(1)
}

/// Computes the full SVD of `w` using one-sided Jacobi rotations.
///
/// Works for any shape; internally operates on the transpose when `m < n` so
/// the working matrix always has at least as many rows as columns.
///
/// # Errors
///
/// Returns [`TensorError::InvalidArgument`] for non-finite inputs and
/// [`TensorError::NoConvergence`] if the working copy turns non-finite
/// during the sweeps (see the module docs on non-convergence handling).
pub fn svd(w: &Matrix) -> Result<Svd> {
    ensure_finite(w)?;
    if w.rows() >= w.cols() {
        svd_tall(w.transpose())
    } else {
        // W = U Σ Vᵀ  ⇔  Wᵀ = V Σ Uᵀ; the columns of Wᵀ are the rows of W.
        let t = svd_tall(w.clone())?;
        Ok(Svd {
            u: t.vt.transpose(),
            singular_values: t.singular_values,
            vt: t.u.transpose(),
        })
    }
}

/// Rejects non-finite inputs up front: NaNs defeat the Jacobi cosine test
/// (every `NaN <= tolerance` comparison is false while `f64::max` ignores
/// NaN), so without this check a NaN matrix would come back as silently
/// "converged" NaN factors.
fn ensure_finite(w: &Matrix) -> Result<()> {
    if w.as_slice().iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(TensorError::InvalidArgument(
            "SVD input contains non-finite values".to_string(),
        ))
    }
}

/// The `len`-element columns `p < q` of a column-major buffer, as two
/// contiguous slices.
fn column_pair(data: &mut [f32], len: usize, p: usize, q: usize) -> (&mut [f32], &mut [f32]) {
    let (head, tail) = data.split_at_mut(q * len);
    (&mut head[p * len..(p + 1) * len], &mut tail[..len])
}

/// One-sided Jacobi for an `m × n` matrix with `m >= n`, given as `columns`,
/// its `n × m` transpose: row `p` of `columns` is column `p`, so each
/// rotated `(p, q)` pair is two contiguous slices.
fn svd_tall(columns: Matrix) -> Result<Svd> {
    let n = columns.rows();
    let m = columns.cols();
    // Column-major working copy whose columns we orthogonalize: starts as
    // W, ends as U·Σ.
    let mut a = columns;
    // Accumulated right rotations V (n×n), column-major as well.
    let mut v = Matrix::identity(n);
    orthogonalize(&mut a, &mut v, cosine_tolerance(m))?;

    // Column norms of the rotated matrix are the singular values.
    let mut order: Vec<usize> = (0..n).collect();
    let sigmas: Vec<f64> = (0..n)
        .map(|j| {
            a.row(j)
                .iter()
                .map(|&x| f64::from(x).powi(2))
                .sum::<f64>()
                .sqrt()
        })
        .collect();
    // Column norms are non-negative and finite, so the total order is the
    // numeric one.
    order.sort_by(|&i, &j| sigmas[j].total_cmp(&sigmas[i]));

    let mut u = Matrix::zeros(m, n);
    let mut vt = Matrix::zeros(n, n);
    let mut singular_values = Vec::with_capacity(n);
    for (new_k, &old_k) in order.iter().enumerate() {
        let sigma = sigmas[old_k];
        singular_values.push(sigma as f32);
        if sigma > 0.0 {
            for (i, &x) in a.row(old_k).iter().enumerate() {
                u.set(i, new_k, (f64::from(x) / sigma) as f32);
            }
        }
        vt.row_mut(new_k).copy_from_slice(v.row(old_k));
    }

    Ok(Svd {
        u,
        singular_values,
        vt,
    })
}

/// Runs Jacobi sweeps over the column-major working copy `a` (`n` columns
/// of `m` rows), accumulating the rotations into `v`, until the stop rule
/// of the module docs holds for `tolerance`. Returns the number of sweeps
/// run.
///
/// # Errors
///
/// Returns [`TensorError::NoConvergence`] if the working copy turned
/// non-finite (overflow).
fn orthogonalize(a: &mut Matrix, v: &mut Matrix, tolerance: f64) -> Result<usize> {
    let mut previous = f64::INFINITY;
    let mut sweeps = 0;
    while sweeps < MAX_SWEEPS {
        sweeps += 1;
        let largest = sweep(a, v, tolerance);
        let stalled = previous < tolerance.sqrt() && largest >= previous;
        if largest <= tolerance || stalled {
            break;
        }
        previous = largest;
    }
    if a.as_slice().iter().any(|x| !x.is_finite()) {
        return Err(TensorError::NoConvergence {
            algorithm: "one-sided Jacobi SVD",
            iterations: sweeps,
        });
    }
    Ok(sweeps)
}

/// One cyclic sweep over every column pair of `a`: rotates each pair whose
/// cosine exceeds `tolerance` and returns the largest cosine seen.
fn sweep(a: &mut Matrix, v: &mut Matrix, tolerance: f64) -> f64 {
    let n = a.rows();
    let m = a.cols();
    let mut largest = 0.0f64;
    for p in 0..n {
        for q in (p + 1)..n {
            let (ap, aq) = column_pair(a.as_mut_slice(), m, p, q);
            // Gram entries for the (p, q) column pair.
            let mut alpha = 0.0f64;
            let mut beta = 0.0f64;
            let mut gamma = 0.0f64;
            for (&xp, &xq) in ap.iter().zip(aq.iter()) {
                let xp = f64::from(xp);
                let xq = f64::from(xq);
                alpha += xp * xp;
                beta += xq * xq;
                gamma += xp * xq;
            }
            if alpha == 0.0 || beta == 0.0 {
                continue;
            }
            let cosine = gamma.abs() / (alpha * beta).sqrt();
            largest = largest.max(cosine);
            if cosine <= tolerance {
                continue;
            }
            // Jacobi rotation that zeroes the (p, q) Gram entry.
            let zeta = (beta - alpha) / (2.0 * gamma);
            let t = zeta.signum() / (zeta.abs() + (1.0 + zeta * zeta).sqrt());
            let c = 1.0 / (1.0 + t * t).sqrt();
            let s = c * t;
            rotate(ap, aq, c, s);
            let (vp, vq) = column_pair(v.as_mut_slice(), n, p, q);
            rotate(vp, vq, c, s);
        }
    }
    largest
}

/// Applies the plane rotation `(c, s)` to the column pair `(p, q)`.
fn rotate(p: &mut [f32], q: &mut [f32], c: f64, s: f64) {
    for (xp, xq) in p.iter_mut().zip(q.iter_mut()) {
        let x = f64::from(*xp);
        let y = f64::from(*xq);
        *xp = (c * x - s * y) as f32;
        *xq = (s * x + c * y) as f32;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng;

    fn random(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        Matrix::random_normal(rows, cols, 0.0, 1.0, &mut rng)
    }

    /// Sweeps the Jacobi loop runs on `w`, through `svd`'s own dispatch,
    /// at `tolerance` (`None`: the default for `w`'s shape).
    fn sweeps_for(w: &Matrix, tolerance: Option<f64>) -> usize {
        let mut a = if w.rows() >= w.cols() {
            w.transpose()
        } else {
            w.clone()
        };
        let mut v = Matrix::identity(a.rows());
        let tolerance = tolerance.unwrap_or_else(|| cosine_tolerance(a.cols()));
        orthogonalize(&mut a, &mut v, tolerance).unwrap()
    }

    #[test]
    fn jacobi_stops_at_the_f32_plateau_well_before_the_backstop() {
        for (rows, cols, seed) in [(64, 64, 40u64), (32, 64, 41)] {
            let w = random(rows, cols, seed);
            let sweeps = sweeps_for(&w, None);
            assert!(sweeps <= 12, "{rows}x{cols}: {sweeps} sweeps");
            let d = svd(&w).unwrap();
            assert!(w.approx_eq(&d.reconstruct(), 1e-3), "{rows}x{cols}");
            // A tolerance below the f32 plateau is never met: the stall
            // rule alone ends the loop, a sweep or two after the plateau.
            let stalled = sweeps_for(&w, Some(1e-12));
            assert!(
                stalled <= sweeps + 3,
                "{rows}x{cols}: stalled after {stalled}"
            );
        }
        // Orthogonal columns need one check sweep and no rotation.
        assert_eq!(sweeps_for(&Matrix::identity(8), None), 1);
    }

    #[test]
    fn reconstructs_tall_matrix() {
        let w = random(12, 8, 1);
        let d = svd(&w).unwrap();
        assert_eq!(d.rank(), 8);
        assert!(w.approx_eq(&d.reconstruct(), 1e-3));
    }

    #[test]
    fn reconstructs_wide_matrix() {
        let w = random(6, 14, 2);
        let d = svd(&w).unwrap();
        assert_eq!(d.rank(), 6);
        assert!(w.approx_eq(&d.reconstruct(), 1e-3));
    }

    #[test]
    fn reconstructs_square_matrix() {
        let w = random(10, 10, 3);
        let d = svd(&w).unwrap();
        assert!(w.approx_eq(&d.reconstruct(), 1e-3));
    }

    #[test]
    fn singular_values_are_sorted_and_nonnegative() {
        let w = random(16, 9, 4);
        let d = svd(&w).unwrap();
        for pair in d.singular_values.windows(2) {
            assert!(pair[0] >= pair[1]);
        }
        assert!(d.singular_values.iter().all(|s| *s >= 0.0));
    }

    #[test]
    fn u_and_v_have_orthonormal_columns() {
        let w = random(12, 6, 5);
        let d = svd(&w).unwrap();
        let utu = d.u.transpose().matmul(&d.u).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(6), 1e-3));
        let vvt = d.vt.matmul(&d.vt.transpose()).unwrap();
        assert!(vvt.approx_eq(&Matrix::identity(6), 1e-3));
    }

    #[test]
    fn matches_known_diagonal_case() {
        let w = Matrix::from_rows(&[vec![3.0, 0.0], vec![0.0, 2.0], vec![0.0, 0.0]]).unwrap();
        let d = svd(&w).unwrap();
        assert!((d.singular_values[0] - 3.0).abs() < 1e-5);
        assert!((d.singular_values[1] - 2.0).abs() < 1e-5);
    }

    #[test]
    fn rank_one_matrix_has_single_nonzero_singular_value() {
        let u = Matrix::from_rows(&[vec![1.0], vec![2.0], vec![3.0]]).unwrap();
        let v = Matrix::from_rows(&[vec![4.0, 5.0]]).unwrap();
        let w = u.matmul(&v).unwrap();
        let d = svd(&w).unwrap();
        assert!(d.singular_values[0] > 1.0);
        assert!(d.singular_values[1].abs() < 1e-4);
    }

    #[test]
    fn truncation_reduces_rank_and_error_grows_gracefully() {
        let w = random(20, 12, 6);
        let d = svd(&w).unwrap();
        let full_err = w.relative_error(&d.reconstruct()).unwrap();
        let half = d.truncate(6).unwrap();
        assert_eq!(half.rank(), 6);
        let half_err = w.relative_error(&half.reconstruct()).unwrap();
        assert!(half_err >= full_err);
        assert!(half_err < 1.0);
        assert!(d.truncate(0).is_err());
        assert!(d.truncate(13).is_err());
    }

    #[test]
    fn hard_threshold_matches_paper_formula() {
        // BERT-Base FFN1: 768 x 3072 -> 768*3072/(768+3072) = 614.4 -> 614.
        assert_eq!(hard_threshold_rank(768, 3072), 614);
        // Square matrix D x D -> D/2.
        assert_eq!(hard_threshold_rank(768, 768), 384);
        assert_eq!(hard_threshold_rank(0, 10), 0);
        assert_eq!(hard_threshold_rank(1, 1), 1);
    }

    #[test]
    fn non_finite_inputs_are_rejected_not_silently_accepted() {
        // Pre-audit, a NaN matrix defeated the cosine test and came back as
        // "converged" NaN factors; now it is a typed error up front.
        let mut w = random(6, 4, 20);
        w.set(2, 1, f32::NAN);
        let err = svd(&w).unwrap_err();
        assert!(matches!(err, TensorError::InvalidArgument(_)));
        let mut w = random(6, 4, 21);
        w.set(0, 0, f32::INFINITY);
        assert!(svd(&w).is_err());
    }

    #[test]
    fn hard_threshold_preserves_parameter_count() {
        let (m, n) = (64usize, 256usize);
        let k = hard_threshold_rank(m, n);
        let factored = k * n + m * k;
        assert!(factored <= m * n);
        // Within one rank of the dense parameter count.
        assert!(m * n - factored <= m + n);
    }
}
