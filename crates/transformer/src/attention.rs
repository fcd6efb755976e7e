//! Multi-head self-attention with full backward pass.
//!
//! The four projection matrices (`W_Q`, `W_K`, `W_V`, `W_proj`) are the
//! static weights HyFlexPIM maps onto analog RRAM (Figure 9, blocks 1 and 2);
//! the score (`Q·Kᵀ`) and context (`softmax·V`) products involve dynamically
//! generated operands and are executed on digital PIM. This module implements
//! the exact functional computation with gradients; the hardware mapping and
//! its costs live in `hyflex-pim`.

use crate::error::ModelError;
use crate::layers::{AnyLinear, AnyLinearSaved, Layer, LayerCtx, Linear};
use crate::param::{Param, ParamPath, ParamVisit};
use crate::Result;
use hyflex_tensor::activations::{softmax, softmax_backward};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::{kernels, Matrix, MatrixView};

/// Attention masking policy for one forward/backward pass.
#[derive(Debug, Clone, Copy)]
pub(crate) enum AttentionMask {
    /// Every position attends to every position.
    Bidirectional,
    /// Position `i` attends only to positions `<= i` (decoder behaviour).
    Causal,
}

/// Writes `fill` into every lane of `m` that `mask` disallows, where row `r`
/// of `m` is query position `r` and column `c` key position `c`.
///
/// The forward pass fills scores with `-inf`, so the row-wise softmax gives
/// those lanes exactly zero probability; the backward pass fills score
/// gradients with `0.0`, because a constant-zero probability passes no
/// gradient.
fn mask_fill(m: &mut Matrix, mask: &AttentionMask, fill: f32) {
    match mask {
        AttentionMask::Bidirectional => {}
        AttentionMask::Causal => {
            for r in 0..m.rows() {
                let row = m.row_mut(r);
                let open = (r + 1).min(row.len());
                row[open..].fill(fill);
            }
        }
    }
}

/// One head's attention probabilities: the row-wise softmax of the masked,
/// scaled scores `q_h·k_hᵀ / √d`.
fn head_probs(q_h: MatrixView<'_>, k_h: MatrixView<'_>, mask: &AttentionMask) -> Result<Matrix> {
    let scale = 1.0 / (q_h.cols() as f32).sqrt();
    let mut scores = q_h.matmul(k_h.t())?;
    scores.map_inplace(|x| x * scale);
    mask_fill(&mut scores, mask, f32::NEG_INFINITY);
    let mut probs = Matrix::zeros(scores.rows(), scores.cols());
    for r in 0..scores.rows() {
        probs.row_mut(r).copy_from_slice(&softmax(scores.row(r)));
    }
    Ok(probs)
}

/// Multi-head self-attention layer.
#[derive(Debug, Clone, PartialEq)]
pub struct MultiHeadAttention {
    wq: AnyLinear,
    wk: AnyLinear,
    wv: AnyLinear,
    wo: AnyLinear,
    num_heads: usize,
}

impl MultiHeadAttention {
    /// Creates an attention layer over hidden size `dim` with `num_heads` heads.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] if `dim` is not divisible by
    /// `num_heads`.
    pub fn new(dim: usize, num_heads: usize, rng: &mut Rng) -> Result<Self> {
        if num_heads == 0 || !dim.is_multiple_of(num_heads) {
            return Err(ModelError::InvalidConfig(format!(
                "hidden dim {dim} must be divisible by {num_heads} heads"
            )));
        }
        Ok(MultiHeadAttention {
            wq: AnyLinear::Dense(Linear::new(dim, dim, rng)),
            wk: AnyLinear::Dense(Linear::new(dim, dim, rng)),
            wv: AnyLinear::Dense(Linear::new(dim, dim, rng)),
            wo: AnyLinear::Dense(Linear::new(dim, dim, rng)),
            num_heads,
        })
    }

    /// Hidden dimension.
    pub fn dim(&self) -> usize {
        self.wq.in_dim()
    }

    /// Per-head dimension.
    fn head_dim(&self) -> usize {
        self.dim() / self.num_heads
    }

    /// Access to the four projection layers, in `[W_Q, W_K, W_V, W_proj]`
    /// order, for factorization and noise injection.
    pub fn projections_mut(&mut self) -> [&mut AnyLinear; 4] {
        [&mut self.wq, &mut self.wk, &mut self.wv, &mut self.wo]
    }

    /// Immutable access to the projection layers in the same order.
    pub fn projections(&self) -> [&AnyLinear; 4] {
        [&self.wq, &self.wk, &self.wv, &self.wo]
    }

    /// The concatenated per-head context `probs_h·v_h` (see [`head_probs`]),
    /// plus each head's probabilities for the backward pass. Each head is a
    /// column window of `q`, `k`, `v` and the context, read and written in
    /// place.
    fn attend(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        mask: &AttentionMask,
    ) -> Result<(Matrix, Vec<Matrix>)> {
        let hd = self.head_dim();
        let mut context = Matrix::zeros(q.rows(), self.dim());
        let mut probs = Vec::with_capacity(self.num_heads);
        for col0 in (0..self.num_heads).map(|head| head * hd) {
            let p = head_probs(q.column_window(col0, hd)?, k.column_window(col0, hd)?, mask)?;
            let mut context_h = context.column_window_mut(col0, hd)?;
            kernels::matmul_acc(p.view(), v.column_window(col0, hd)?, &mut context_h)?;
            probs.push(p);
        }
        Ok((context, probs))
    }
}

impl ParamVisit for MultiHeadAttention {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        path.scope("q_proj", |p| self.wq.visit_params(p, f));
        path.scope("k_proj", |p| self.wk.visit_params(p, f));
        path.scope("v_proj", |p| self.wv.visit_params(p, f));
        path.scope("out_proj", |p| self.wo.visit_params(p, f));
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        path.scope("q_proj", |p| self.wq.visit_params_mut(p, f));
        path.scope("k_proj", |p| self.wk.visit_params_mut(p, f));
        path.scope("v_proj", |p| self.wv.visit_params_mut(p, f));
        path.scope("out_proj", |p| self.wo.visit_params_mut(p, f));
    }
}

/// What [`MultiHeadAttention`]'s forward pass keeps for its backward pass.
pub struct AttentionSaved {
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Each head's attention probabilities, `[L, L]`.
    probs: Vec<Matrix>,
    /// The concatenated per-head context, the output projection's input.
    context: Matrix,
    /// The `[W_Q, W_K, W_V, W_proj]` projections' saved state.
    proj: [AnyLinearSaved; 4],
}

impl Layer for MultiHeadAttention {
    type Saved = AttentionSaved;

    fn forward_saved(&self, x: &Matrix, ctx: &LayerCtx) -> Result<(Matrix, AttentionSaved)> {
        let (q, q_saved) = self.wq.forward_saved(x, ctx)?;
        let (k, k_saved) = self.wk.forward_saved(x, ctx)?;
        let (v, v_saved) = self.wv.forward_saved(x, ctx)?;
        let (context, probs) = self.attend(&q, &k, &v, &ctx.mask)?;
        let (y, o_saved) = self.wo.forward_saved(&context, ctx)?;
        let saved = AttentionSaved {
            q,
            k,
            v,
            probs,
            context,
            proj: [q_saved, k_saved, v_saved, o_saved],
        };
        Ok((y, saved))
    }

    fn backward(
        &mut self,
        x: &Matrix,
        saved: &AttentionSaved,
        grad_out: &Matrix,
        ctx: &LayerCtx,
    ) -> Result<Matrix> {
        let len = x.rows();
        let hd = self.head_dim();
        let scale = 1.0 / (hd as f32).sqrt();
        let AttentionSaved {
            q,
            k,
            v,
            probs,
            context,
            proj: [q_saved, k_saved, v_saved, o_saved],
        } = saved;
        if probs.len() != self.num_heads || probs.iter().any(|p| p.shape() != (len, len)) {
            return Err(ModelError::InvalidInput(
                "attention backward got saved state of another shape".to_string(),
            ));
        }

        // Through the output projection.
        let d_context = self.wo.backward(context, o_saved, grad_out, ctx)?;

        let mut d_q = Matrix::zeros(len, self.dim());
        let mut d_k = Matrix::zeros(len, self.dim());
        let mut d_v = Matrix::zeros(len, self.dim());

        // Each head is a column window: read from q, k, v and d_context,
        // accumulated into the zeroed windows of d_q, d_k and d_v.
        for (head, probs) in probs.iter().enumerate() {
            let col0 = head * hd;
            let q_h = q.column_window(col0, hd)?;
            let k_h = k.column_window(col0, hd)?;
            let v_h = v.column_window(col0, hd)?;
            let d_ctx_h = d_context.column_window(col0, hd)?;

            // d_probs = d_ctx_h · v_hᵀ ; d_v_h = probsᵀ · d_ctx_h
            let d_probs = d_ctx_h.matmul(v_h.t())?;
            let mut d_v_h = d_v.column_window_mut(col0, hd)?;
            kernels::matmul_acc(probs.view().t(), d_ctx_h, &mut d_v_h)?;

            // Through the row-wise softmax.
            let mut d_scores = Matrix::zeros(len, len);
            for r in 0..len {
                let ds = softmax_backward(probs.row(r), d_probs.row(r));
                d_scores.row_mut(r).copy_from_slice(&ds);
            }
            mask_fill(&mut d_scores, &ctx.mask, 0.0);
            d_scores.map_inplace(|x| x * scale);

            // d_q_h = d_scores · k_h ; d_k_h = d_scoresᵀ · q_h
            let mut d_q_h = d_q.column_window_mut(col0, hd)?;
            kernels::matmul_acc(d_scores.view(), k_h, &mut d_q_h)?;
            let mut d_k_h = d_k.column_window_mut(col0, hd)?;
            kernels::matmul_acc(d_scores.view().t(), q_h, &mut d_k_h)?;
        }

        let mut dx = self.wq.backward(x, q_saved, &d_q, ctx)?;
        dx.add_assign(&self.wk.backward(x, k_saved, &d_k, ctx)?)?;
        dx.add_assign(&self.wv.backward(x, v_saved, &d_v, ctx)?)?;
        Ok(dx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factored::FactoredLinear;
    use crate::layers::forward_then_backward;
    use crate::param::AdamWConfig;

    const CTX: LayerCtx = LayerCtx::inference();

    fn make(dim: usize, heads: usize, seed: u64) -> MultiHeadAttention {
        let mut rng = Rng::seed_from(seed);
        MultiHeadAttention::new(dim, heads, &mut rng).unwrap()
    }

    #[test]
    fn construction_validates_head_divisibility() {
        let mut rng = Rng::seed_from(1);
        assert!(MultiHeadAttention::new(8, 3, &mut rng).is_err());
        assert!(MultiHeadAttention::new(8, 0, &mut rng).is_err());
        let attn = MultiHeadAttention::new(8, 2, &mut rng).unwrap();
        assert_eq!(attn.head_dim(), 4);
        assert_eq!(attn.num_heads, 2);
        assert_eq!(attn.dim(), 8);
        assert_eq!(attn.parameter_count(), 4 * (8 * 8 + 8));
    }

    /// `mask_fill` fills exactly the lanes of the per-lane rule: every lane
    /// stays open without a mask, and a causal lane is open iff its column
    /// does not pass its row.
    #[test]
    fn mask_fill_matches_the_per_lane_rule() {
        for (mask, causal) in [
            (AttentionMask::Bidirectional, false),
            (AttentionMask::Causal, true),
        ] {
            for (rows, cols) in [(5, 5), (3, 6), (6, 3)] {
                let mut m = Matrix::zeros(rows, cols);
                mask_fill(&mut m, &mask, 1.0);
                for r in 0..rows {
                    for c in 0..cols {
                        let open = !causal || c <= r;
                        assert_eq!(m.get(r, c) == Some(0.0), open, "{mask:?} ({r}, {c})");
                    }
                }
            }
        }
    }

    #[test]
    fn forward_preserves_shape() {
        let attn = make(8, 2, 2);
        let mut rng = Rng::seed_from(3);
        let x = Matrix::random_normal(5, 8, 0.0, 1.0, &mut rng);
        let y = attn.forward(&x, &CTX).unwrap();
        assert_eq!(y.shape(), (5, 8));
    }

    #[test]
    fn causal_mask_blocks_future_positions() {
        let attn = make(4, 1, 4);
        let mut rng = Rng::seed_from(5);
        let x = Matrix::random_normal(6, 4, 0.0, 1.0, &mut rng);
        // Changing a future token must not change earlier outputs under the
        // causal mask.
        let y1 = attn.forward(&x, &LayerCtx::causal()).unwrap();
        let mut x2 = x.clone();
        for c in 0..4 {
            x2.set(5, c, x.at(5, c) + 3.0);
        }
        let y2 = attn.forward(&x2, &LayerCtx::causal()).unwrap();
        for r in 0..5 {
            for c in 0..4 {
                assert!(
                    (y1.at(r, c) - y2.at(r, c)).abs() < 1e-5,
                    "causal leak at ({r}, {c})"
                );
            }
        }
        // Without the mask the earlier outputs do change.
        let y3 = attn.forward(&x, &CTX).unwrap();
        let y4 = attn.forward(&x2, &CTX).unwrap();
        let changed = (0..5).any(|r| (y3.at(r, 0) - y4.at(r, 0)).abs() > 1e-4);
        assert!(changed);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let attn = make(6, 2, 6);
        let mut rng = Rng::seed_from(7);
        let x = Matrix::random_normal(4, 6, 0.0, 0.8, &mut rng);
        let upstream = Matrix::random_normal(4, 6, 0.0, 1.0, &mut rng);
        let mut attn_mut = attn.clone();
        let d_input = forward_then_backward(&mut attn_mut, &x, &upstream, &CTX).unwrap();
        let loss = |input: &Matrix| -> f32 {
            attn.forward(input, &CTX)
                .unwrap()
                .hadamard(&upstream)
                .unwrap()
                .sum()
        };
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.at(r, c) + 1e-2);
                let mut minus = x.clone();
                minus.set(r, c, x.at(r, c) - 1e-2);
                let numeric = (loss(&plus) - loss(&minus)) / 2e-2;
                assert!(
                    (d_input.at(r, c) - numeric).abs() < 5e-2,
                    "attention d_input[{r},{c}]: {} vs {}",
                    d_input.at(r, c),
                    numeric
                );
            }
        }
    }

    #[test]
    fn causal_input_gradient_matches_finite_difference() {
        let attn = make(4, 2, 8);
        let mut rng = Rng::seed_from(9);
        let x = Matrix::random_normal(3, 4, 0.0, 0.8, &mut rng);
        let upstream = Matrix::random_normal(3, 4, 0.0, 1.0, &mut rng);
        let mut attn_mut = attn.clone();
        let d_input =
            forward_then_backward(&mut attn_mut, &x, &upstream, &LayerCtx::causal()).unwrap();
        let loss = |input: &Matrix| -> f32 {
            attn.forward(input, &LayerCtx::causal())
                .unwrap()
                .hadamard(&upstream)
                .unwrap()
                .sum()
        };
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.at(r, c) + 1e-2);
                let mut minus = x.clone();
                minus.set(r, c, x.at(r, c) - 1e-2);
                let numeric = (loss(&plus) - loss(&minus)) / 2e-2;
                assert!((d_input.at(r, c) - numeric).abs() < 5e-2);
            }
        }
    }

    #[test]
    fn projections_can_be_factorized() {
        let mut attn = make(8, 2, 10);
        for proj in attn.projections_mut() {
            let weight = proj.as_dense_mut().unwrap().weight().clone();
            *proj = AnyLinear::Factored(FactoredLinear::from_weight(&weight, 4).unwrap());
        }
        assert!(attn.projections().iter().all(|p| p.as_factored().is_some()));
        let mut rng = Rng::seed_from(11);
        let x = Matrix::random_normal(3, 8, 0.0, 1.0, &mut rng);
        let y = attn.forward(&x, &CTX).unwrap();
        assert_eq!(y.shape(), (3, 8));
    }

    #[test]
    fn zero_grad_and_step_do_not_panic_and_update() {
        let mut attn = make(4, 1, 12);
        let mut rng = Rng::seed_from(13);
        let x = Matrix::random_normal(2, 4, 0.0, 1.0, &mut rng);
        let upstream = Matrix::filled(2, 4, 0.5);
        let before = attn.forward(&x, &CTX).unwrap();
        forward_then_backward(&mut attn, &x, &upstream, &CTX).unwrap();
        attn.step(
            &AdamWConfig {
                learning_rate: 0.05,
                ..AdamWConfig::default()
            },
            1,
        );
        attn.zero_grad();
        let after = attn.forward(&x, &CTX).unwrap();
        assert!(
            !before.approx_eq(&after, 1e-6),
            "step should change outputs"
        );
    }
}
