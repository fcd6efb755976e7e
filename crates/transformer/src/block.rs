//! A pre-norm transformer block: two [`Residual`] halves (attention, FFN).

use crate::attention::MultiHeadAttention;
use crate::ffn::FeedForward;
use crate::layers::{AnyLinear, Layer, LayerCtx, LayerNorm, Residual, ResidualSaved};
use crate::param::{Param, ParamPath, ParamVisit};
use crate::Result;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;

/// Generates a named static-linear accessor from the single canonical
/// definition of the paper's layer order (`[W_Q, W_K, W_V, W_proj, FFN1,
/// FFN2]`), tagged with the block-relative parameter scopes. The `&` and
/// `&mut` variants are two expansions of the same body, so the list can no
/// longer be edited in one place and forgotten in the other.
macro_rules! impl_block_named_linears {
    ($(#[$doc:meta])* $fn_name:ident, $inner:ident, $projections:ident, $layers:ident, $($mut_:tt)?) => {
        $(#[$doc])*
        pub fn $fn_name(& $($mut_)? self) -> [(&'static str, & $($mut_)? AnyLinear); 6] {
            let [wq, wk, wv, wo] = self.attn.$inner().$projections();
            let [fc1, fc2] = self.ffn.$inner().$layers();
            [
                ("attn.q_proj", wq),
                ("attn.k_proj", wk),
                ("attn.v_proj", wv),
                ("attn.out_proj", wo),
                ("ffn.fc1", fc1),
                ("ffn.fc2", fc2),
            ]
        }
    };
}

/// One transformer block: `x + Attn(LN(x))` followed by `h + FFN(LN(h))` —
/// structurally, `Residual<MultiHeadAttention>` then `Residual<FeedForward>`.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerBlock {
    attn: Residual<MultiHeadAttention>,
    ffn: Residual<FeedForward>,
}

impl TransformerBlock {
    /// Creates a block with the given hidden size, FFN size, and head count.
    ///
    /// # Errors
    ///
    /// Returns a configuration error if `dim` is not divisible by `num_heads`.
    pub fn new(dim: usize, ffn_dim: usize, num_heads: usize, rng: &mut Rng) -> Result<Self> {
        Ok(TransformerBlock {
            attn: Residual::new(
                LayerNorm::new(dim),
                MultiHeadAttention::new(dim, num_heads, rng)?,
            ),
            ffn: Residual::new(LayerNorm::new(dim), FeedForward::new(dim, ffn_dim, rng)),
        })
    }

    /// Hidden dimension.
    pub fn dim(&self) -> usize {
        self.attn.norm().dim()
    }

    /// The attention sub-layer.
    // hyflex-lint: allow(U2) — tests/golden_model.rs fingerprints each block's attention through it
    pub fn attention(&self) -> &MultiHeadAttention {
        self.attn.inner()
    }

    /// The FFN sub-layer.
    // hyflex-lint: allow(U2) — tests/golden_model.rs fingerprints each block's FFN through it
    pub fn ffn(&self) -> &FeedForward {
        self.ffn.inner()
    }

    // Both named-linear accessors are generated from this one definition of
    // the paper's layer order so the `&`/`&mut` variants cannot drift apart.
    impl_block_named_linears!(
        /// The six static linear layers of the block in the paper's order
        /// `[W_Q, W_K, W_V, W_proj, FFN1, FFN2]`, each tagged with its
        /// block-relative parameter scope (`attn.q_proj`, ..., `ffn.fc2`).
        ///
        /// This is the hook the gradient-redistribution pipeline uses to
        /// factorize layers and to inject hardware noise.
        named_linears_mut, inner_mut, projections_mut, layers_mut, mut
    );
    impl_block_named_linears!(
        /// Immutable view of the six named static linear layers, in the same
        /// order as [`TransformerBlock::named_linears_mut`].
        named_linears, inner, projections, layers,
    );
}

impl ParamVisit for TransformerBlock {
    // Hand-written (rather than delegating to the residuals' own `norm`/
    // `inner` scopes) so the canonical dotted names stay flat and readable:
    // `ln1.gamma`, `attn.q_proj.weight`, `ln2.beta`, `ffn.fc1.bias`.
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        path.scope("ln1", |p| self.attn.norm().visit_params(p, f));
        path.scope("attn", |p| self.attn.inner().visit_params(p, f));
        path.scope("ln2", |p| self.ffn.norm().visit_params(p, f));
        path.scope("ffn", |p| self.ffn.inner().visit_params(p, f));
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        let (ln1, attn) = self.attn.parts_mut();
        let (ln2, ffn) = self.ffn.parts_mut();
        path.scope("ln1", |p| ln1.visit_params_mut(p, f));
        path.scope("attn", |p| attn.visit_params_mut(p, f));
        path.scope("ln2", |p| ln2.visit_params_mut(p, f));
        path.scope("ffn", |p| ffn.visit_params_mut(p, f));
    }
}

/// What [`TransformerBlock`]'s forward pass keeps for its backward pass.
pub struct BlockSaved {
    /// The attention half's output, the FFN half's input.
    h: Matrix,
    attn: ResidualSaved<MultiHeadAttention>,
    ffn: ResidualSaved<FeedForward>,
}

impl Layer for TransformerBlock {
    type Saved = BlockSaved;

    fn forward_saved(&self, x: &Matrix, ctx: &LayerCtx) -> Result<(Matrix, BlockSaved)> {
        let (h, attn) = self.attn.forward_saved(x, ctx)?;
        let (y, ffn) = self.ffn.forward_saved(&h, ctx)?;
        Ok((y, BlockSaved { h, attn, ffn }))
    }

    fn backward(
        &mut self,
        x: &Matrix,
        saved: &BlockSaved,
        grad_out: &Matrix,
        ctx: &LayerCtx,
    ) -> Result<Matrix> {
        // Chain the two residual backward passes from the saved attention
        // half's output (FFN half first, mirroring the forward order).
        let d_h = self.ffn.backward(&saved.h, &saved.ffn, grad_out, ctx)?;
        self.attn.backward(x, &saved.attn, &d_h, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attention::AttentionMask;
    use crate::layers::forward_then_backward;
    use crate::param::AdamWConfig;

    const CTX: LayerCtx<'static> = LayerCtx {
        mask: AttentionMask::Bidirectional,
    };

    #[test]
    fn forward_preserves_shape_and_counts_parameters() {
        let mut rng = Rng::seed_from(1);
        let block = TransformerBlock::new(8, 16, 2, &mut rng).unwrap();
        let x = Matrix::random_normal(4, 8, 0.0, 1.0, &mut rng);
        let y = block.forward(&x, &CTX).unwrap();
        assert_eq!(y.shape(), (4, 8));
        assert_eq!(block.dim(), 8);
        let expected = 2 * 2 * 8 + 4 * (8 * 8 + 8) + (8 * 16 + 16) + (16 * 8 + 8);
        assert_eq!(block.parameter_count(), expected);
    }

    #[test]
    fn six_named_linears_are_exposed() {
        let mut rng = Rng::seed_from(2);
        let mut block = TransformerBlock::new(8, 16, 2, &mut rng).unwrap();
        let names: Vec<&str> = block.named_linears().iter().map(|(n, _)| *n).collect();
        assert_eq!(
            names,
            [
                "attn.q_proj",
                "attn.k_proj",
                "attn.v_proj",
                "attn.out_proj",
                "ffn.fc1",
                "ffn.fc2"
            ]
        );
        assert_eq!(block.named_linears_mut().len(), 6);
    }

    #[test]
    fn param_visitation_covers_all_scopes() {
        let mut rng = Rng::seed_from(6);
        let block = TransformerBlock::new(8, 16, 2, &mut rng).unwrap();
        let mut names = Vec::new();
        let mut path = ParamPath::root();
        block.visit_params(&mut path, &mut |name, _| names.push(name.to_string()));
        assert!(names.contains(&"ln1.gamma".to_string()));
        assert!(names.contains(&"attn.q_proj.weight".to_string()));
        assert!(names.contains(&"ln2.beta".to_string()));
        assert!(names.contains(&"ffn.fc2.bias".to_string()));
        // 2 norms x 2 + 6 linears x 2 params each.
        assert_eq!(names.len(), 4 + 12);
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from(3);
        let block = TransformerBlock::new(6, 12, 2, &mut rng).unwrap();
        let x = Matrix::random_normal(3, 6, 0.0, 0.5, &mut rng);
        let upstream = Matrix::random_normal(3, 6, 0.0, 1.0, &mut rng);
        let mut block_mut = block.clone();
        let d_input = forward_then_backward(&mut block_mut, &x, &upstream, &CTX).unwrap();
        let loss = |input: &Matrix| -> f32 {
            block
                .forward(input, &CTX)
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
                    (d_input.at(r, c) - numeric).abs() < 0.1,
                    "block d_input[{r},{c}]: {} vs {}",
                    d_input.at(r, c),
                    numeric
                );
            }
        }
    }

    #[test]
    fn residual_path_keeps_output_close_to_input_at_init() {
        // With Xavier-initialized small weights the block output should stay
        // in the same ballpark as the input (residual connections dominate).
        let mut rng = Rng::seed_from(4);
        let block = TransformerBlock::new(8, 16, 2, &mut rng).unwrap();
        let x = Matrix::random_normal(4, 8, 0.0, 1.0, &mut rng);
        let y = block.forward(&x, &CTX).unwrap();
        let rel = y.sub(&x).unwrap().frobenius_norm() / x.frobenius_norm();
        assert!(rel < 3.0);
    }

    #[test]
    fn step_changes_outputs() {
        let mut rng = Rng::seed_from(5);
        let mut block = TransformerBlock::new(4, 8, 1, &mut rng).unwrap();
        let x = Matrix::random_normal(2, 4, 0.0, 1.0, &mut rng);
        let before = block.forward(&x, &CTX).unwrap();
        let grad = Matrix::filled(2, 4, 1.0);
        forward_then_backward(&mut block, &x, &grad, &CTX).unwrap();
        block.step(
            &AdamWConfig {
                learning_rate: 0.05,
                ..AdamWConfig::default()
            },
            1,
        );
        block.zero_grad();
        let after = block.forward(&x, &CTX).unwrap();
        assert!(!before.approx_eq(&after, 1e-6));
    }
}
