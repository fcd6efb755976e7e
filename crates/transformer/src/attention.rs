//! Multi-head self-attention with full backward pass.
//!
//! The four projection matrices (`W_Q`, `W_K`, `W_V`, `W_proj`) are the
//! static weights HyFlexPIM maps onto analog RRAM (Figure 9, blocks 1 and 2);
//! the score (`Q·Kᵀ`) and context (`softmax·V`) products involve dynamically
//! generated operands and are executed on digital PIM. This module implements
//! the exact functional computation with gradients; the hardware mapping and
//! its costs live in `hyflex-pim`.

use crate::error::ModelError;
use crate::kv::LayerKv;
use crate::layers::{AnyLinear, AnyLinearSaved, Layer, LayerCtx, Linear};
use crate::param::{Param, ParamPath, ParamVisit};
use crate::Result;
use hyflex_tensor::activations::{softmax, softmax_backward};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::{kernels, Matrix};
use std::ops::Range;

/// Attention masking policy for one forward/backward pass.
///
/// The packed variant is what makes mixed-length batching exact: several
/// requests share one activation matrix (their rows concatenated), and the
/// mask keeps every request blind to the others, so each row's scores,
/// softmax, and context are bit-identical to running that request alone
/// (out-of-segment lanes contribute `exp(-inf) = +0.0` to the softmax sums
/// and exact zero probabilities to the context product).
#[derive(Debug, Clone, Copy, Default)]
pub enum AttentionMask<'a> {
    /// Every position attends to every position.
    #[default]
    Bidirectional,
    /// Position `i` attends only to positions `<= i` (decoder behaviour).
    Causal,
    /// Packed mixed-length batch: `segments[k]` is the contiguous row range
    /// of request `k`, and attention never crosses a segment boundary.
    /// `causal` additionally applies the causal rule *within* each segment.
    Packed {
        /// Per-request row ranges; together they must cover every row.
        segments: &'a [Range<usize>],
        /// Apply causal masking within each segment.
        causal: bool,
    },
}

impl AttentionMask<'_> {
    /// Whether query row `r` may attend to key column `c`.
    fn allows(&self, r: usize, c: usize) -> bool {
        match self {
            AttentionMask::Bidirectional => true,
            AttentionMask::Causal => c <= r,
            AttentionMask::Packed { segments, causal } => segments
                .iter()
                .any(|s| s.contains(&r) && s.contains(&c) && (!causal || c <= r)),
        }
    }
}

/// Writes `fill` into every lane of `m` that `mask` disallows, where row `r`
/// of `m` is query position `first_row + r` and column `c` key position `c`.
///
/// The forward pass fills scores with `-inf`, so the row-wise softmax gives
/// those lanes exactly zero probability; the backward pass fills score
/// gradients with `0.0`, because a constant-zero probability passes no
/// gradient.
fn mask_fill(m: &mut Matrix, mask: &AttentionMask, first_row: usize, fill: f32) {
    if matches!(mask, AttentionMask::Bidirectional) {
        return;
    }
    for r in 0..m.rows() {
        for c in 0..m.cols() {
            if !mask.allows(first_row + r, c) {
                m.set(r, c, fill);
            }
        }
    }
}

/// One head's attention probabilities: the row-wise softmax of the masked,
/// scaled scores `q_h·k_hᵀ / √d`.
///
/// `q_h`'s rows sit at absolute positions `first_row..first_row + q_h.rows()`
/// and `k_h`'s rows at `0..k_h.rows()`: whole-sequence passes use
/// `first_row = 0`, and a decode step uses the cache length before its
/// append, so the causal rule lets each new row see every cached position up
/// to and including its own.
fn head_probs(
    q_h: &Matrix,
    k_h: &Matrix,
    mask: &AttentionMask,
    first_row: usize,
) -> Result<Matrix> {
    let scale = 1.0 / (q_h.cols() as f32).sqrt();
    let mut scores = q_h.matmul_transpose(k_h)?.scale(scale);
    mask_fill(&mut scores, mask, first_row, f32::NEG_INFINITY);
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

    /// Number of attention heads.
    pub fn num_heads(&self) -> usize {
        self.num_heads
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

    fn head_slice(&self, m: &Matrix, head: usize) -> Result<Matrix> {
        let hd = self.head_dim();
        Ok(m.submatrix(0, head * hd, m.rows(), hd)?)
    }

    /// The `Q`, `K`, `V` projections of `x` (the decode paths' projection;
    /// the whole-sequence pass projects through `forward_saved`).
    fn project(&self, x: &Matrix, ctx: &LayerCtx) -> Result<(Matrix, Matrix, Matrix)> {
        Ok((
            self.wq.forward(x, ctx)?,
            self.wk.forward(x, ctx)?,
            self.wv.forward(x, ctx)?,
        ))
    }

    /// The concatenated per-head context `probs_h·v_h` for queries at
    /// absolute positions `first_row..` (see [`head_probs`]), plus each
    /// head's probabilities for the backward pass.
    fn attend(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        mask: &AttentionMask,
        first_row: usize,
    ) -> Result<(Matrix, Vec<Matrix>)> {
        let hd = self.head_dim();
        let mut context = Matrix::zeros(q.rows(), self.dim());
        let mut probs = Vec::with_capacity(self.num_heads);
        for head in 0..self.num_heads {
            let p = head_probs(
                &self.head_slice(q, head)?,
                &self.head_slice(k, head)?,
                mask,
                first_row,
            )?;
            context.set_submatrix(0, head * hd, &p.matmul(&self.head_slice(v, head)?)?)?;
            probs.push(p);
        }
        Ok((context, probs))
    }

    /// Appends `k`/`v` to one request's cache, then attends `q` causally over
    /// the whole cached history.
    fn attend_cached(
        &self,
        q: &Matrix,
        k: &Matrix,
        v: &Matrix,
        kv: &mut LayerKv,
    ) -> Result<Matrix> {
        let first_row = kv.len();
        kv.append(k, v)?;
        let (Some(k_all), Some(v_all)) = (kv.keys(), kv.values()) else {
            return Err(ModelError::InvalidInput(
                "KV cache is empty after an append".to_string(),
            ));
        };
        let (context, _) = self.attend(q, k_all, v_all, &AttentionMask::Causal, first_row)?;
        Ok(context)
    }

    /// Decode-phase forward: treats `x`'s rows as one request's next tokens,
    /// appends their keys/values to the request's cache, and attends each new
    /// row causally over the full cached history.
    ///
    /// `x` holds the (already pre-normalized) hidden rows of `m` new tokens
    /// at absolute positions `kv.len()..kv.len() + m`; the prefill phase
    /// passes the whole prompt at once (`kv` empty) and decode passes one row
    /// per step. The output is bit-identical to the matching rows of
    /// [`Layer::forward`] with a causal mask over the whole sequence: the
    /// projections are row-independent, softmax over an un-padded prefix
    /// equals softmax over the `-inf`-masked full row (`exp(-inf) = +0.0` and
    /// trailing exact zeros leave the sums unchanged), and zero probabilities
    /// contribute exact zeros to the context product — the same argument
    /// that makes packed batching exact.
    ///
    /// # Errors
    ///
    /// Returns shape errors from the projections or a cache whose width
    /// disagrees with this layer.
    pub fn decode_step(&self, x: &Matrix, kv: &mut LayerKv) -> Result<Matrix> {
        let ctx = LayerCtx::causal();
        let (q, k, v) = self.project(x, &ctx)?;
        let context = self.attend_cached(&q, &k, &v, kv)?;
        self.wo.forward(&context, &ctx)
    }

    /// One iteration-level batched decode step: row `b` of `x` is the next
    /// token of the request owning `caches[b]`.
    ///
    /// The projections run once over the whole batch (they are
    /// row-independent, so each row matches its solo computation bitwise);
    /// attention then runs per request against that request's own cache.
    /// Each output row is bit-identical to calling
    /// [`MultiHeadAttention::decode_step`] for that request alone.
    ///
    /// # Errors
    ///
    /// Returns an error when the row count and cache count disagree, plus
    /// shape errors from the projections.
    pub fn decode_step_batch(&self, x: &Matrix, caches: &mut [&mut LayerKv]) -> Result<Matrix> {
        if x.rows() != caches.len() {
            return Err(ModelError::InvalidInput(format!(
                "batched decode got {} rows for {} caches",
                x.rows(),
                caches.len()
            )));
        }
        let ctx = LayerCtx::causal();
        let (q, k, v) = self.project(x, &ctx)?;
        let mut context = Matrix::zeros(x.rows(), self.dim());
        for (b, kv) in caches.iter_mut().enumerate() {
            let row = |m: &Matrix| m.submatrix(b, 0, 1, m.cols());
            let context_b = self.attend_cached(&row(&q)?, &row(&k)?, &row(&v)?, kv)?;
            context.set_submatrix(b, 0, &context_b)?;
        }
        self.wo.forward(&context, &ctx)
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
        let (context, probs) = self.attend(&q, &k, &v, &ctx.mask, 0)?;
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

        for (head, probs) in probs.iter().enumerate() {
            let qh = self.head_slice(q, head)?;
            let kh = self.head_slice(k, head)?;
            let vh = self.head_slice(v, head)?;
            let d_ctx_h = self.head_slice(&d_context, head)?;

            // d_probs = d_ctx_h · vhᵀ ; d_vh = probsᵀ · d_ctx_h
            let d_probs = d_ctx_h.matmul(&vh.transpose())?;
            let d_vh = kernels::matmul_transpose_left(probs, &d_ctx_h)?;

            // Through the row-wise softmax.
            let mut d_scores = Matrix::zeros(len, len);
            for r in 0..len {
                let ds = softmax_backward(probs.row(r), d_probs.row(r));
                d_scores.row_mut(r).copy_from_slice(&ds);
            }
            mask_fill(&mut d_scores, &ctx.mask, 0, 0.0);
            let d_scores = d_scores.scale(scale);

            // d_qh = d_scores · kh ; d_kh = d_scoresᵀ · qh
            let d_qh = d_scores.matmul(&kh)?;
            let d_kh = kernels::matmul_transpose_left(&d_scores, &qh)?;

            d_q.set_submatrix(0, head * hd, &d_qh)?;
            d_k.set_submatrix(0, head * hd, &d_kh)?;
            d_v.set_submatrix(0, head * hd, &d_vh)?;
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
    use hyflex_tensor::SvdAlgorithm;

    const CTX: LayerCtx<'static> = LayerCtx {
        mask: AttentionMask::Bidirectional,
    };

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
        assert_eq!(attn.num_heads(), 2);
        assert_eq!(attn.dim(), 8);
        assert_eq!(attn.parameter_count(), 4 * (8 * 8 + 8));
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
            *proj = AnyLinear::Factored(
                FactoredLinear::from_weight_seeded(&weight, 4, SvdAlgorithm::Jacobi, None).unwrap(),
            );
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
