//! Singular value decomposition: one-sided Jacobi rotations and a
//! randomized subspace-iteration sketch.
//!
//! The paper's gradient-redistribution technique (Section 4) decomposes every
//! static transformer weight matrix as `W = U Σ Vᵀ`, truncates the rank to a
//! *hard threshold* `D_Th = (D_h1 · D_h2) / (D_h1 + D_h2)` so the inference
//! MAC count is unchanged, fine-tunes the factors, and maps the ranks whose
//! singular values carry the largest loss gradient onto SLC RRAM.
//!
//! Two algorithms are available behind [`SvdAlgorithm`]:
//!
//! * [`SvdAlgorithm::Jacobi`] (the default) — one-sided Jacobi, chosen
//!   because it is simple, numerically robust for the well-conditioned
//!   weight matrices seen here, and needs no external LAPACK dependency. It
//!   orthogonalizes the columns of a working copy of `W` by plane rotations;
//!   the column norms become the singular values. Every figure and table in
//!   `EXPERIMENTS.md` is produced on this bit-stable path.
//! * [`SvdAlgorithm::Randomized`] — a Halko–Martinsson–Tropp randomized
//!   range sketch (Gaussian sketch → QR orthonormalization → subspace/power
//!   iteration → Jacobi on the small projected matrix). When only the
//!   leading `k ≪ min(m, n)` ranks are needed — the hard-threshold
//!   truncation always is — this replaces the `O(n³)`-per-sweep Jacobi cost
//!   with a handful of `O(m·n·k)` products, which dominates
//!   `GradientRedistribution::apply` wall-clock. Deterministic: the sketch
//!   RNG is seeded from [`RandomizedSvdConfig::seed`], never from global
//!   state. Opt-in via `--svd-algo randomized` on the figure binaries.
//!
//! ## Non-convergence handling
//!
//! The sweep loop would stop once every column-pair cosine falls below
//! `EPS = 1e-10`, but the working copy stores `f32`, and f32 columns cannot
//! be made that orthogonal: on the weight matrices seen here the largest
//! cosine plateaus at a few 1e-8 (3.6e-8–9e-8 on the matrices tried) by
//! sweep 7–8 and stays there. So in practice **every** Jacobi SVD of a
//! weight matrix runs all `MAX_SWEEPS` sweeps (only inputs whose columns
//! start orthogonal, such as a diagonal matrix, stop early) and then
//! **accepts that plateau** (the columns are orthogonal to working
//! precision, so the factors are valid) rather than erroring — this
//! accepted-result fallback is part of the API contract and is exercised
//! by the tests. Stopping at the plateau would be about 7× cheaper, but it
//! moves the factors' bits, and with them every recorded figure that
//! factorizes a model. Only genuinely broken states are typed errors:
//! non-finite *inputs* are rejected up front with
//! [`TensorError::InvalidArgument`] (they would otherwise defeat the cosine
//! test and come back as silently-"converged" NaN factors), and a working
//! copy that turns non-finite mid-iteration (overflow) surfaces as
//! [`TensorError::NoConvergence`].

use crate::error::TensorError;
use crate::kernels;
use crate::matrix::Matrix;
use crate::rng::Rng;
use crate::Result;
use std::fmt;

/// Maximum number of Jacobi sweeps before accepting the precision plateau
/// (see the module docs on non-convergence handling). With f32 working
/// copies this is the sweep count of every weight-matrix decomposition.
const MAX_SWEEPS: usize = 60;

/// Convergence threshold on the off-diagonal cosine; below the f32
/// plateau, so a weight matrix never meets it (see the module docs).
const EPS: f64 = 1e-10;

/// Which SVD algorithm to run (see the module docs for the trade-off).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SvdAlgorithm {
    /// One-sided Jacobi: exact to working precision, bit-stable default.
    #[default]
    Jacobi,
    /// Gaussian-sketch subspace iteration: fast truncated decompositions,
    /// opt-in (`--svd-algo randomized`).
    Randomized,
}

impl SvdAlgorithm {
    /// Parses a command-line name (`jacobi`, `randomized`/`rand`).
    pub fn parse(name: &str) -> Option<Self> {
        match name.to_ascii_lowercase().as_str() {
            "jacobi" => Some(SvdAlgorithm::Jacobi),
            "randomized" | "rand" => Some(SvdAlgorithm::Randomized),
            _ => None,
        }
    }
}

impl fmt::Display for SvdAlgorithm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SvdAlgorithm::Jacobi => write!(f, "jacobi"),
            SvdAlgorithm::Randomized => write!(f, "randomized"),
        }
    }
}

/// Tuning knobs for `svd_randomized`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomizedSvdConfig {
    /// Target rank (0 means the full `min(m, n)`).
    pub rank: usize,
    /// Extra sketch columns beyond `rank`; the classic HMT recommendation of
    /// 5–10 columns makes the captured subspace near-optimal.
    pub oversample: usize,
    /// Subspace (power) iterations `(W Wᵀ)^q W Ω`; each sharpens the sketch
    /// toward the leading singular vectors, which matters for the flat
    /// spectra of freshly initialized weight matrices.
    pub power_iterations: usize,
    /// Seed for the Gaussian sketch; fixed per decomposition so the
    /// algorithm is deterministic and thread-count independent.
    pub seed: u64,
}

impl RandomizedSvdConfig {
    /// The default configuration for a given target rank: 8 oversampling
    /// columns and 3 subspace iterations.
    fn for_rank(rank: usize) -> Self {
        RandomizedSvdConfig::for_rank_seeded(rank, 0x5eed_cafe)
    }

    /// Like `RandomizedSvdConfig::for_rank` but with a caller-chosen
    /// sketch seed. The pooled gradient-redistribution path derives one
    /// seed per layer from the layer's dotted parameter name, so every
    /// layer draws an independent sketch no matter which worker (or how
    /// many workers) factorizes it.
    fn for_rank_seeded(rank: usize, seed: u64) -> Self {
        RandomizedSvdConfig {
            rank,
            oversample: 8,
            power_iterations: 3,
            seed,
        }
    }
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

/// Computes a (possibly truncated) SVD with the selected algorithm.
///
/// `rank == 0` requests the full `min(m, n)` ranks. With
/// [`SvdAlgorithm::Jacobi`] this computes the full decomposition and then
/// truncates — exactly the historical `svd(w)? .truncate(rank)` sequence, so
/// the default path stays bit-identical. With [`SvdAlgorithm::Randomized`]
/// it sketches only the leading subspace
/// (see `svd_randomized` and `RandomizedSvdConfig::for_rank`).
///
/// # Errors
///
/// Propagates decomposition failures from either algorithm.
pub fn svd_with(w: &Matrix, algorithm: SvdAlgorithm, rank: usize) -> Result<Svd> {
    svd_with_seeded(w, algorithm, rank, None)
}

/// [`svd_with`] with an optional per-call sketch seed.
///
/// `seed` only affects [`SvdAlgorithm::Randomized`] (it replaces the fixed
/// default of `RandomizedSvdConfig::for_rank`); the Jacobi path is
/// deterministic with no randomness to seed. Passing `None` is exactly
/// [`svd_with`].
///
/// # Errors
///
/// Propagates decomposition failures from either algorithm.
pub fn svd_with_seeded(
    w: &Matrix,
    algorithm: SvdAlgorithm,
    rank: usize,
    seed: Option<u64>,
) -> Result<Svd> {
    match algorithm {
        SvdAlgorithm::Jacobi => {
            let d = svd(w)?;
            if rank == 0 || rank >= d.rank() {
                Ok(d)
            } else {
                d.truncate(rank)
            }
        }
        SvdAlgorithm::Randomized => {
            let config = match seed {
                Some(seed) => RandomizedSvdConfig::for_rank_seeded(rank, seed),
                None => RandomizedSvdConfig::for_rank(rank),
            };
            svd_randomized(w, &config)
        }
    }
}

/// Randomized truncated SVD by Gaussian-sketch subspace iteration
/// (Halko–Martinsson–Tropp).
///
/// Pipeline: draw a seeded Gaussian test matrix `Ω` (`n × ℓ`,
/// `ℓ = rank + oversample`), orthonormalize `Y = W·Ω` into a range basis
/// `Q`, sharpen it with `power_iterations` rounds of
/// `Q ← orth(W · orth(Wᵀ · Q))`, run the exact Jacobi SVD on the small
/// projected matrix `B = Qᵀ·W` (`ℓ × n`), and lift `U = Q·U_B`. When the
/// sketch width reaches the full rank there is nothing to compress, so the
/// exact Jacobi decomposition (truncated to `rank`) is returned instead.
///
/// # Errors
///
/// Propagates shape/decomposition failures from the underlying products and
/// the small Jacobi solve.
fn svd_randomized(w: &Matrix, config: &RandomizedSvdConfig) -> Result<Svd> {
    ensure_finite(w)?;
    let full = w.rows().min(w.cols());
    let rank = if config.rank == 0 {
        full
    } else {
        config.rank.min(full)
    };
    let sketch = rank.saturating_add(config.oversample).min(full);
    if sketch >= full {
        // No compression possible: fall back to the exact decomposition.
        let d = svd(w)?;
        return if rank == d.rank() {
            Ok(d)
        } else {
            d.truncate(rank)
        };
    }

    let mut rng = Rng::seed_from(config.seed);
    let omega = Matrix::random_normal(w.cols(), sketch, 0.0, 1.0, &mut rng);
    let mut q = w.matmul(&omega)?;
    orthonormalize_columns(&mut q);
    // The sketch products run on the packed kernel layer:
    // `kernels::matmul_transpose_left` computes `wᵀ·q` / `qᵀ·w` without
    // materializing the transposes, bit-identical to the two-step form.
    for _ in 0..config.power_iterations {
        let mut z = kernels::matmul_transpose_left(w, &q)?;
        orthonormalize_columns(&mut z);
        q = w.matmul(&z)?;
        orthonormalize_columns(&mut q);
    }

    // Exact Jacobi on the ℓ×n projection, then lift back to m rows.
    let b = kernels::matmul_transpose_left(&q, w)?;
    let small = svd(&b)?;
    let u = q.matmul(&small.u)?;
    let d = Svd {
        u,
        singular_values: small.singular_values,
        vt: small.vt,
    };
    if rank == d.rank() {
        Ok(d)
    } else {
        d.truncate(rank)
    }
}

/// Rejects non-finite inputs up front: NaNs defeat the Jacobi cosine test
/// (every `NaN <= EPS` comparison is false while `f64::max` ignores NaN), so
/// without this check a NaN matrix would come back as silently "converged"
/// NaN factors.
fn ensure_finite(w: &Matrix) -> Result<()> {
    if w.as_slice().iter().all(|x| x.is_finite()) {
        Ok(())
    } else {
        Err(TensorError::InvalidArgument(
            "SVD input contains non-finite values".to_string(),
        ))
    }
}

/// In-place modified Gram–Schmidt on the columns of `q`. Columns that cancel
/// to (near) zero norm are zeroed out, which downstream code treats as
/// zero singular directions.
fn orthonormalize_columns(q: &mut Matrix) {
    let (m, l) = q.shape();
    for j in 0..l {
        for p in 0..j {
            let dot: f64 = q
                .column_iter(p)
                .zip(q.column_iter(j))
                .map(|(a, b)| f64::from(a) * f64::from(b))
                .sum();
            for i in 0..m {
                let value = f64::from(q.at(i, j)) - dot * f64::from(q.at(i, p));
                q.set(i, j, value as f32);
            }
        }
        let norm: f64 = q
            .column_iter(j)
            .map(|x| f64::from(x).powi(2))
            .sum::<f64>()
            .sqrt();
        if norm > 1e-12 {
            for i in 0..m {
                q.set(i, j, (f64::from(q.at(i, j)) / norm) as f32);
            }
        } else {
            for i in 0..m {
                q.set(i, j, 0.0);
            }
        }
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

    let mut converged = false;
    for _sweep in 0..MAX_SWEEPS {
        let mut off_diagonal = 0.0f64;
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
                off_diagonal = off_diagonal.max(cosine);
                if cosine <= EPS {
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
        if off_diagonal <= EPS {
            converged = true;
            break;
        }
    }
    if !converged {
        // Accepted-result fallback (see the module docs): the input was
        // finite, so after MAX_SWEEPS the columns are orthogonal to f32
        // working precision and the factors are valid. Only a working copy
        // that turned non-finite mid-iteration (overflow) is an error.
        if a.as_slice().iter().any(|x| !x.is_finite()) {
            return Err(TensorError::NoConvergence {
                algorithm: "one-sided Jacobi SVD",
                iterations: MAX_SWEEPS,
            });
        }
    }

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
        for algo in [SvdAlgorithm::Jacobi, SvdAlgorithm::Randomized] {
            let err = svd_with(&w, algo, 2).unwrap_err();
            assert!(matches!(err, TensorError::InvalidArgument(_)), "{algo}");
        }
        let mut w = random(6, 4, 21);
        w.set(0, 0, f32::INFINITY);
        assert!(svd(&w).is_err());
    }

    #[test]
    fn svd_with_jacobi_matches_the_historical_truncation_path() {
        let w = random(14, 9, 22);
        let direct = svd(&w).unwrap().truncate(5).unwrap();
        let via = svd_with(&w, SvdAlgorithm::Jacobi, 5).unwrap();
        assert_eq!(direct.u.as_slice(), via.u.as_slice());
        assert_eq!(direct.singular_values, via.singular_values);
        assert_eq!(direct.vt.as_slice(), via.vt.as_slice());
        // rank 0 requests the full decomposition.
        let full = svd_with(&w, SvdAlgorithm::Jacobi, 0).unwrap();
        assert_eq!(full.rank(), 9);
    }

    #[test]
    fn randomized_svd_tracks_jacobi_at_the_hard_threshold_rank() {
        for (rows, cols, seed) in [(32, 32, 30u64), (32, 64, 31), (48, 24, 32)] {
            let w = random(rows, cols, seed);
            let k = hard_threshold_rank(rows, cols);
            let exact = svd_with(&w, SvdAlgorithm::Jacobi, k).unwrap();
            let sketched = svd_with(&w, SvdAlgorithm::Randomized, k).unwrap();
            assert_eq!(sketched.rank(), k);
            let exact_err = w.relative_error(&exact.reconstruct()).unwrap();
            let sketched_err = w.relative_error(&sketched.reconstruct()).unwrap();
            assert!(
                sketched_err <= exact_err + 1e-3,
                "{rows}x{cols}: randomized err {sketched_err} vs jacobi err {exact_err}"
            );
        }
    }

    #[test]
    fn randomized_svd_has_orthonormal_factors_and_sorted_values() {
        let w = random(40, 28, 33);
        let d = svd_with(&w, SvdAlgorithm::Randomized, 10).unwrap();
        assert_eq!(d.rank(), 10);
        let utu = d.u.transpose().matmul(&d.u).unwrap();
        assert!(utu.approx_eq(&Matrix::identity(10), 1e-3));
        let vvt = d.vt.matmul(&d.vt.transpose()).unwrap();
        assert!(vvt.approx_eq(&Matrix::identity(10), 1e-3));
        for pair in d.singular_values.windows(2) {
            assert!(pair[0] >= pair[1] - 1e-6);
        }
    }

    #[test]
    fn randomized_svd_is_deterministic() {
        let w = random(24, 18, 34);
        let a = svd_with(&w, SvdAlgorithm::Randomized, 6).unwrap();
        let b = svd_with(&w, SvdAlgorithm::Randomized, 6).unwrap();
        assert_eq!(a.u.as_slice(), b.u.as_slice());
        assert_eq!(a.singular_values, b.singular_values);
        assert_eq!(a.vt.as_slice(), b.vt.as_slice());
    }

    #[test]
    fn randomized_svd_falls_back_to_jacobi_when_sketch_covers_full_rank() {
        // rank + oversample >= min(m, n): compression is impossible.
        let w = random(10, 6, 35);
        let sketched = svd_with(&w, SvdAlgorithm::Randomized, 6).unwrap();
        let exact = svd(&w).unwrap();
        assert_eq!(sketched.u.as_slice(), exact.u.as_slice());
        assert_eq!(sketched.singular_values, exact.singular_values);
    }

    #[test]
    fn algorithm_names_parse_and_display() {
        assert_eq!(SvdAlgorithm::parse("jacobi"), Some(SvdAlgorithm::Jacobi));
        assert_eq!(
            SvdAlgorithm::parse("RANDOMIZED"),
            Some(SvdAlgorithm::Randomized)
        );
        assert_eq!(SvdAlgorithm::parse("rand"), Some(SvdAlgorithm::Randomized));
        assert_eq!(SvdAlgorithm::parse("lapack"), None);
        assert_eq!(SvdAlgorithm::Jacobi.to_string(), "jacobi");
        assert_eq!(SvdAlgorithm::Randomized.to_string(), "randomized");
        assert_eq!(SvdAlgorithm::default(), SvdAlgorithm::Jacobi);
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
