//! Truncated-SVD factored linear layers.
//!
//! The paper's gradient redistribution (Section 4) replaces every static
//! weight matrix `W` with its truncated SVD `U_k Σ_k V_kᵀ`, keeps the three
//! factors as separate trainable parameters, fine-tunes for 1–3 epochs, and
//! then ranks the singular values by the magnitude of their accumulated loss
//! gradient. The top-k% ranks are stored in SLC, the rest in MLC.
//!
//! [`FactoredLinear`] is that layer: `y = x · U · diag(σ) · Vᵀ + b`, with
//! per-factor gradients and direct access to `|∂L/∂σ_r|`.

use crate::error::ModelError;
use crate::layers::{column_sums, Layer, LayerCtx};
use crate::param::{Param, ParamPath, ParamVisit};
use crate::Result;
use hyflex_tensor::svd;
use hyflex_tensor::{kernels, Matrix};

/// A linear layer in truncated-SVD form: `y = x · U · diag(σ) · Vᵀ + b`.
#[derive(Debug, Clone, PartialEq)]
pub struct FactoredLinear {
    /// Left factor `U`, shape `[in, k]`.
    u: Param,
    /// Singular values, shape `[1, k]`.
    sigma: Param,
    /// Right factor `Vᵀ`, shape `[k, out]`.
    vt: Param,
    /// Bias, shape `[1, out]`.
    bias: Param,
}

impl FactoredLinear {
    /// Factorizes an explicit `[in, out]` weight matrix at the given rank:
    /// the full Jacobi SVD, truncated to the leading `rank` ranks.
    ///
    /// Rank 0 (or a rank larger than `min(in, out)`) is clamped to the full
    /// rank; pass [`hard_threshold_rank`] for the paper's cost-neutral rank
    /// `D_Th = in·out / (in + out)`, which keeps inference MACs and parameter
    /// count no larger than the dense layer.
    ///
    /// [`hard_threshold_rank`]: hyflex_tensor::svd::hard_threshold_rank
    ///
    /// # Errors
    ///
    /// Propagates SVD failures.
    pub fn from_weight(weight: &Matrix, rank: usize) -> Result<Self> {
        let full = svd::svd(weight)?;
        let k = if rank == 0 {
            full.rank()
        } else {
            rank.min(full.rank())
        };
        let truncated = if k == full.rank() {
            full
        } else {
            full.truncate(k)?
        };
        let sigma_row = Matrix::from_vec(1, k, truncated.singular_values)?;
        Ok(FactoredLinear {
            u: Param::new(truncated.u),
            sigma: Param::new(sigma_row),
            vt: Param::new(truncated.vt),
            bias: Param::new(Matrix::zeros(1, weight.cols())),
        })
    }

    /// Input dimension.
    pub fn in_dim(&self) -> usize {
        self.u.value().rows()
    }

    /// Output dimension.
    pub fn out_dim(&self) -> usize {
        self.vt.value().cols()
    }

    /// Retained rank.
    pub fn rank(&self) -> usize {
        self.sigma.value().cols()
    }

    /// Current singular values (rank-ordered as produced by the SVD; after
    /// fine-tuning they may no longer be sorted).
    pub fn singular_values(&self) -> Vec<f32> {
        self.sigma.value().row(0).to_vec()
    }

    /// Absolute accumulated gradient of the loss w.r.t. each singular value —
    /// the importance signal used for SLC/MLC rank selection.
    pub fn sigma_gradients(&self) -> Vec<f64> {
        self.sigma
            .grad()
            .row(0)
            .iter()
            .map(|g| f64::from(g.abs()))
            .collect()
    }

    /// The left factor `U`.
    pub fn u(&self) -> &Matrix {
        self.u.value()
    }

    /// The right factor `Vᵀ`.
    pub fn vt(&self) -> &Matrix {
        self.vt.value()
    }

    /// Mutable access to the `U` parameter (noise injection).
    pub fn u_param_mut(&mut self) -> &mut Param {
        &mut self.u
    }

    /// Mutable access to the `Vᵀ` parameter (noise injection).
    pub fn vt_param_mut(&mut self) -> &mut Param {
        &mut self.vt
    }

    fn scale_by_sigma(&self, h: &Matrix) -> Matrix {
        let mut out = h.clone();
        let sigma = self.sigma.value();
        for r in 0..out.rows() {
            for (value, &s) in out.row_mut(r).iter_mut().zip(sigma.row(0)) {
                *value *= s;
            }
        }
        out
    }
}

impl ParamVisit for FactoredLinear {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        f(&path.leaf("u"), &self.u);
        f(&path.leaf("sigma"), &self.sigma);
        f(&path.leaf("vt"), &self.vt);
        f(&path.leaf("bias"), &self.bias);
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        f(&path.leaf("u"), &mut self.u);
        f(&path.leaf("sigma"), &mut self.sigma);
        f(&path.leaf("vt"), &mut self.vt);
        f(&path.leaf("bias"), &mut self.bias);
    }
}

/// What [`FactoredLinear`]'s forward pass keeps for its backward pass.
pub struct FactoredSaved {
    /// `h = x · U`, shape `[L, k]`.
    h: Matrix,
    /// `h ⊙ σ`, shape `[L, k]`.
    scaled: Matrix,
}

impl Layer for FactoredLinear {
    type Saved = FactoredSaved;

    fn forward_saved(&self, x: &Matrix, _ctx: &LayerCtx) -> Result<(Matrix, FactoredSaved)> {
        let h = x.matmul(self.u.value())?;
        let scaled = self.scale_by_sigma(&h);
        let mut y = scaled.matmul(self.vt.value())?;
        y.add_row_broadcast_assign(self.bias.value().row(0))?;
        Ok((y, FactoredSaved { h, scaled }))
    }

    /// Accumulates gradients on `U`, `σ`, `Vᵀ`, and the bias, and returns
    /// `dL/dx`.
    fn backward(
        &mut self,
        x: &Matrix,
        saved: &FactoredSaved,
        grad_out: &Matrix,
        _ctx: &LayerCtx,
    ) -> Result<Matrix> {
        let FactoredSaved { h, scaled } = saved;
        if h.shape() != (x.rows(), self.rank()) || scaled.shape() != h.shape() {
            return Err(ModelError::InvalidInput(
                "factored backward got saved state of another shape".to_string(),
            ));
        }

        // dL/dVᵀ = (h ⊙ σ)ᵀ · grad_out
        let d_vt = kernels::matmul_transpose_left(scaled, grad_out)?;
        self.vt.accumulate_grad(&d_vt)?;

        // dL/d(h ⊙ σ) = grad_out · V
        let d_scaled = grad_out.matmul_transpose(self.vt.value())?; // [L, k]

        // dL/dσ_r = Σ_l d_scaled[l, r] · h[l, r], each rank reduced down its
        // column with the allocation-free strided iterators. The
        // accumulation order per rank is ascending row, exactly as the old
        // row-outer element-wise loop produced it.
        let mut d_sigma = Matrix::zeros(1, self.rank());
        for (k, slot) in (0..self.rank()).zip(d_sigma.row_mut(0)) {
            let mut acc = 0.0f32;
            for (d, hv) in d_scaled.column_iter(k).zip(h.column_iter(k)) {
                acc += d * hv;
            }
            *slot = acc;
        }
        self.sigma.accumulate_grad(&d_sigma)?;

        // dL/dh = d_scaled ⊙ σ
        let d_h = self.scale_by_sigma(&d_scaled);

        // dL/dU = xᵀ · d_h
        let d_u = kernels::matmul_transpose_left(x, &d_h)?;
        self.u.accumulate_grad(&d_u)?;

        self.bias.accumulate_grad(&column_sums(grad_out))?;

        // dL/dx = d_h · Uᵀ
        Ok(d_h.matmul_transpose(self.u.value())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{forward_then_backward, Linear};
    use crate::param::AdamWConfig;
    use hyflex_tensor::rng::Rng;
    use hyflex_tensor::svd::hard_threshold_rank;

    const CTX: LayerCtx = LayerCtx::inference();

    /// The factor `diag(σ)·Vᵀ` that the hardware stores alongside `U`
    /// (Figure 10, step 3).
    fn sigma_vt(f: &FactoredLinear) -> Matrix {
        let mut out = f.vt().clone();
        for (k, s) in f.singular_values().into_iter().enumerate() {
            for value in out.row_mut(k) {
                *value *= s;
            }
        }
        out
    }

    fn factor(w: &Matrix, rank: usize) -> FactoredLinear {
        FactoredLinear::from_weight(w, rank).unwrap()
    }

    fn random_weight(rows: usize, cols: usize, seed: u64) -> Matrix {
        let mut rng = Rng::seed_from(seed);
        Matrix::random_normal(rows, cols, 0.0, 0.5, &mut rng)
    }

    #[test]
    fn full_rank_factorization_reproduces_dense_layer() {
        let w = random_weight(10, 6, 1);
        let dense = Linear::from_weight(w.clone());
        let factored = factor(dense.weight(), 0);
        assert_eq!(factored.rank(), 6);
        let mut rng = Rng::seed_from(2);
        let x = Matrix::random_normal(3, 10, 0.0, 1.0, &mut rng);
        let dense_out = dense.forward(&x, &CTX).unwrap();
        let factored_out = factored.forward(&x, &CTX).unwrap();
        assert!(dense_out.approx_eq(&factored_out, 1e-3));
        let product = factored.u().matmul(&sigma_vt(&factored)).unwrap();
        assert!(product.approx_eq(&w, 1e-3));
    }

    #[test]
    fn truncation_reduces_rank_and_parameters_at_hard_threshold() {
        let w = random_weight(64, 256, 3);
        let expected_rank = hard_threshold_rank(64, 256);
        let factored = factor(&w, expected_rank);
        assert_eq!(factored.rank(), expected_rank);
        // Parameter count (excluding sigma and bias bookkeeping) stays at or
        // below the dense count — the paper's cost-neutrality argument.
        let dense_params = 64 * 256;
        let factored_core = factored.u().len() + factored.vt().len();
        assert!(factored_core <= dense_params);
    }

    #[test]
    fn from_weight_is_the_truncated_jacobi_svd() {
        let w = random_weight(14, 9, 22);
        let direct = svd::svd(&w).unwrap().truncate(5).unwrap();
        let f = factor(&w, 5);
        assert_eq!(f.u().as_slice(), direct.u.as_slice());
        assert_eq!(f.singular_values(), direct.singular_values);
        assert_eq!(f.vt().as_slice(), direct.vt.as_slice());
        // Rank 0 requests the full decomposition.
        assert_eq!(factor(&w, 0).rank(), 9);
    }

    #[test]
    fn sigma_vt_combines_scale_into_right_factor() {
        let w = random_weight(8, 5, 4);
        let f = factor(&w, 4);
        let reconstructed = f.u().matmul(&sigma_vt(&f)).unwrap();
        let truncated = svd::svd(&w).unwrap().truncate(4).unwrap();
        assert!(reconstructed.approx_eq(&truncated.reconstruct(), 1e-4));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let w = random_weight(6, 4, 5);
        let mut f = factor(&w, 3);
        let mut rng = Rng::seed_from(6);
        let x = Matrix::random_normal(2, 6, 0.0, 1.0, &mut rng);
        let upstream = Matrix::random_normal(2, 4, 0.0, 1.0, &mut rng);
        let d_input = forward_then_backward(&mut f, &x, &upstream, &CTX).unwrap();
        let probe = f.clone();
        let loss = |input: &Matrix| -> f32 {
            probe
                .forward(input, &CTX)
                .unwrap()
                .hadamard(&upstream)
                .unwrap()
                .sum()
        };
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.at(r, c) + 1e-3);
                let mut minus = x.clone();
                minus.set(r, c, x.at(r, c) - 1e-3);
                let numeric = (loss(&plus) - loss(&minus)) / 2e-3;
                assert!((d_input.at(r, c) - numeric).abs() < 1e-2);
            }
        }
    }

    #[test]
    fn sigma_gradient_matches_finite_difference() {
        let w = random_weight(6, 5, 7);
        let mut f = factor(&w, 4);
        let mut rng = Rng::seed_from(8);
        let x = Matrix::random_normal(3, 6, 0.0, 1.0, &mut rng);
        let upstream = Matrix::random_normal(3, 5, 0.0, 1.0, &mut rng);
        forward_then_backward(&mut f, &x, &upstream, &CTX).unwrap();
        let analytic: Vec<f32> = f.sigma.grad().row(0).to_vec();
        for (k, &analytic_k) in analytic.iter().enumerate() {
            let numeric = {
                let mut plus = f.clone();
                let v = plus.sigma.value().at(0, k) + 1e-3;
                plus.sigma.value_mut().set(0, k, v);
                let mut minus = f.clone();
                let v = minus.sigma.value().at(0, k) - 1e-3;
                minus.sigma.value_mut().set(0, k, v);
                let loss_p = plus
                    .forward(&x, &CTX)
                    .unwrap()
                    .hadamard(&upstream)
                    .unwrap()
                    .sum();
                let loss_m = minus
                    .forward(&x, &CTX)
                    .unwrap()
                    .hadamard(&upstream)
                    .unwrap()
                    .sum();
                (loss_p - loss_m) / 2e-3
            };
            assert!(
                (analytic_k - numeric).abs() < 2e-2,
                "sigma grad[{k}]: {analytic_k} vs {numeric}"
            );
        }
        // The public accessor exposes the absolute values.
        let abs: Vec<f64> = f.sigma_gradients();
        for (a, b) in abs.iter().zip(analytic.iter()) {
            assert!((a - f64::from(b.abs())).abs() < 1e-9);
        }
    }

    #[test]
    fn training_the_factored_layer_reduces_loss() {
        let w = random_weight(4, 1, 9);
        let mut f = factor(&w, 2);
        let config = AdamWConfig {
            learning_rate: 0.02,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        };
        let mut rng = Rng::seed_from(10);
        let inputs: Vec<Matrix> = (0..16)
            .map(|_| Matrix::random_normal(1, 4, 0.0, 1.0, &mut rng))
            .collect();
        let targets: Vec<f32> = inputs
            .iter()
            .map(|x| 2.0 * x.at(0, 0) - x.at(0, 3))
            .collect();
        let loss_of = |f: &FactoredLinear| -> f32 {
            inputs
                .iter()
                .zip(targets.iter())
                .map(|(x, t)| {
                    let y = f.forward(x, &CTX).unwrap().at(0, 0);
                    (y - t) * (y - t)
                })
                .sum::<f32>()
                / inputs.len() as f32
        };
        let initial = loss_of(&f);
        for _ in 0..300 {
            f.zero_grad();
            for (x, t) in inputs.iter().zip(targets.iter()) {
                let (y, saved) = f.forward_saved(x, &CTX).unwrap();
                let grad = Matrix::filled(1, 1, 2.0 * (y.at(0, 0) - t));
                f.backward(x, &saved, &grad, &CTX).unwrap();
            }
            f.step(&config, inputs.len());
        }
        let trained = loss_of(&f);
        assert!(trained < initial * 0.2, "{initial} -> {trained}");
    }

    #[test]
    fn rank_is_clamped_to_full_rank() {
        let w = random_weight(5, 3, 11);
        let f = factor(&w, 100);
        assert_eq!(f.rank(), 3);
        assert_eq!(f.in_dim(), 5);
        assert_eq!(f.out_dim(), 3);
    }
}
