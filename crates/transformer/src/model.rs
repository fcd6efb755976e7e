//! End-to-end transformer models: embeddings, block stack, and task head.
//!
//! [`TransformerModel`] owns construction from a [`ModelConfig`] and the
//! runtime behaviour — one request per forward and backward pass, and the
//! named parameter surface.

use crate::block::TransformerBlock;
use crate::config::{ModelConfig, ModelKind, TaskKind};
use crate::error::ModelError;
use crate::layers::{AnyLinear, Embedding, Layer, LayerCtx, LayerNorm, Linear};
use crate::param::{Param, ParamPath, ParamStore, ParamVisit};
use crate::Result;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;

/// Input to a transformer model.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelInput {
    /// A sequence of token ids (encoder / decoder models).
    Tokens(Vec<usize>),
    /// A matrix of patch/feature vectors, one row per position (vision models).
    Features(Matrix),
}

impl ModelInput {
    /// Sequence length of the input.
    pub fn len(&self) -> usize {
        match self {
            ModelInput::Tokens(t) => t.len(),
            ModelInput::Features(f) => f.rows(),
        }
    }

    /// Whether the input is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// Generates a model-level named-linear accessor by flattening the per-block
/// lists under `blocks.N.` prefixes; the `&`/`&mut` pair shares this one body
/// so the enumeration order (block-major, paper layer order within a block)
/// is defined exactly once.
macro_rules! impl_model_named_linears {
    ($(#[$doc:meta])* $fn_name:ident, $iter:ident, $($mut_:tt)?) => {
        $(#[$doc])*
        pub fn $fn_name(& $($mut_)? self) -> Vec<(String, & $($mut_)? AnyLinear)> {
            self.blocks
                .$iter()
                .enumerate()
                .flat_map(|(i, b)| {
                    b.$fn_name()
                        .into_iter()
                        .map(move |(name, layer)| (format!("blocks.{i}.{name}"), layer))
                })
                .collect()
        }
    };
}

/// A complete transformer model instance.
#[derive(Debug, Clone, PartialEq)]
pub struct TransformerModel {
    config: ModelConfig,
    embedding: Option<Embedding>,
    patch_proj: Option<Linear>,
    blocks: Vec<TransformerBlock>,
    final_norm: LayerNorm,
    head: Linear,
}

impl TransformerModel {
    /// Builds a randomly initialized model from a configuration.
    ///
    /// The RNG is consumed in a fixed order — the stem (token embedding, or
    /// the patch projection of a vision model), then each block in turn,
    /// then the head — so a seed always reproduces the same parameters.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for inconsistent configurations.
    pub fn new(config: ModelConfig, rng: &mut Rng) -> Result<Self> {
        config.validate()?;
        let c = &config;
        let (embedding, patch_proj) = match c.kind {
            ModelKind::VisionEncoder => {
                let patch_dim = c
                    .patch_dim
                    .ok_or_else(|| ModelError::InvalidConfig("missing patch_dim".into()))?;
                (None, Some(Linear::new(patch_dim, c.hidden_dim, rng)))
            }
            _ => (
                Some(Embedding::new(
                    c.vocab_size,
                    c.max_seq_len,
                    c.hidden_dim,
                    rng,
                )),
                None,
            ),
        };
        let blocks = (0..c.num_layers)
            .map(|_| TransformerBlock::new(c.hidden_dim, c.ffn_dim, c.num_heads, rng))
            .collect::<Result<Vec<_>>>()?;
        let final_norm = LayerNorm::new(c.hidden_dim);
        let head = Linear::new(c.hidden_dim, c.task.head_outputs(c.vocab_size), rng);
        Ok(TransformerModel {
            config,
            embedding,
            patch_proj,
            blocks,
            final_norm,
            head,
        })
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The transformer blocks.
    // hyflex-lint: allow(U2) — tests/golden_model.rs walks the blocks to fingerprint each sub-layer
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// A flat, named snapshot of every parameter (see [`ParamStore`]).
    // hyflex-lint: allow(U2) — tests/golden_model.rs fingerprints every parameter through it, and the model and trainer tests look parameters up by name
    pub fn params(&self) -> ParamStore<'_> {
        ParamStore::of(self)
    }

    // Both model-level accessors expand from the same flattening definition,
    // mirroring the macro-generated pair on [`TransformerBlock`].
    impl_model_named_linears!(
        /// Mutable access to every static linear layer of every block as
        /// `(name, layer)` pairs — `blocks.0.attn.q_proj` through
        /// `blocks.N.ffn.fc2` — in block-major, paper layer order.
        ///
        /// This is the hook the gradient-redistribution pipeline uses to
        /// factorize layers and to inject hardware noise.
        named_linears_mut, iter_mut, mut
    );
    impl_model_named_linears!(
        /// Immutable access to every named static linear layer, in the same
        /// order as [`TransformerModel::named_linears_mut`].
        named_linears, iter,
    );

    fn embed(&self, input: &ModelInput) -> Result<Matrix> {
        match (input, &self.embedding, &self.patch_proj) {
            (ModelInput::Tokens(tokens), Some(embedding), _) => embedding.forward(tokens),
            (ModelInput::Features(features), _, Some(proj)) => {
                if features.rows() > self.config.max_seq_len {
                    return Err(ModelError::InvalidInput(format!(
                        "{} patches exceed maximum {}",
                        features.rows(),
                        self.config.max_seq_len
                    )));
                }
                proj.forward(features, &LayerCtx::inference())
            }
            (ModelInput::Tokens(_), None, _) => Err(ModelError::InvalidInput(
                "vision model cannot consume token input".to_string(),
            )),
            (ModelInput::Features(_), _, None) => Err(ModelError::InvalidInput(
                "token model cannot consume feature input".to_string(),
            )),
        }
    }

    /// The whole-sequence context this model's topology implies.
    fn sequence_ctx(&self) -> LayerCtx {
        if self.config.is_causal() {
            LayerCtx::causal()
        } else {
            LayerCtx::inference()
        }
    }

    /// Runs the model and returns the task logits.
    ///
    /// * Classification / regression: a `[1, outputs]` row (mean-pooled).
    /// * Language modeling: a `[L, vocab]` matrix of next-token logits.
    ///
    /// # Errors
    ///
    /// Returns input/shape errors.
    pub fn forward(&self, input: &ModelInput) -> Result<Matrix> {
        let ctx = self.sequence_ctx();
        let mut x = self.embed(input)?;
        for block in &self.blocks {
            x = block.forward(&x, &ctx)?;
        }
        let hidden = self.final_norm.forward(&x, &ctx)?;
        match self.config.task {
            TaskKind::LanguageModeling => self.head.forward(&hidden, &ctx),
            _ => self.head.forward(&mean_pool(&hidden), &ctx),
        }
    }

    /// Runs the model, then back-propagates `d_logits`, accumulating
    /// gradients in every layer. Returns the forward logits so callers can
    /// compute the loss once.
    ///
    /// The forward pass runs once, through [`Layer::forward_saved`]: each
    /// block's input and saved intermediates are kept (the output moves into
    /// the next block's input slot), and the backward pass reads them
    /// instead of running any layer forward again.
    ///
    /// # Errors
    ///
    /// Returns input/shape errors, and any error `d_logits_of` returns.
    pub fn forward_backward(
        &mut self,
        input: &ModelInput,
        d_logits_of: &mut dyn FnMut(&Matrix) -> Result<Matrix>,
    ) -> Result<(Matrix, Matrix)> {
        let (logits, d_logits, d_embedded) = self.backward_to_embedding(input, d_logits_of)?;
        self.embedding_backward(input, d_embedded.as_ref())?;
        Ok((logits, d_logits))
    }

    /// [`TransformerModel::forward_backward`] short of the token embedding:
    /// every other parameter accumulates its gradient, and the gradient at
    /// the embedding output is returned (`None` for a vision model, whose
    /// patch projection accumulates like any other layer) for
    /// [`TransformerModel::embedding_backward`].
    pub(crate) fn backward_to_embedding(
        &mut self,
        input: &ModelInput,
        d_logits_of: &mut dyn FnMut(&Matrix) -> Result<Matrix>,
    ) -> Result<(Matrix, Matrix, Option<Matrix>)> {
        let ctx = self.sequence_ctx();
        // Forward, keeping each block's input and saved intermediates.
        let mut x = self.embed(input)?;
        let mut block_saves = Vec::with_capacity(self.blocks.len());
        for block in &self.blocks {
            let (y, saved) = block.forward_saved(&x, &ctx)?;
            block_saves.push((std::mem::replace(&mut x, y), saved));
        }
        let (hidden, final_saved) = self.final_norm.forward_saved(&x, &ctx)?;
        let pooled = match self.config.task {
            TaskKind::LanguageModeling => None,
            _ => Some(mean_pool(&hidden)),
        };
        let head_in = pooled.as_ref().unwrap_or(&hidden);
        let logits = self.head.forward(head_in, &ctx)?;

        let d_logits = d_logits_of(&logits)?;

        // Backward through the head.
        let d_head_in = self.head.backward(head_in, &(), &d_logits, &ctx)?;
        let d_hidden = if pooled.is_some() {
            // Mean pooling broadcast: every row receives d_pooled / L.
            let len = hidden.rows() as f32;
            let mut d_hidden = Matrix::zeros(hidden.rows(), hidden.cols());
            for r in 0..hidden.rows() {
                for c in 0..hidden.cols() {
                    d_hidden.set(r, c, d_head_in.at(0, c) / len);
                }
            }
            d_hidden
        } else {
            d_head_in
        };

        // Backward through the final layer norm and the block stack.
        let mut d_x = self
            .final_norm
            .backward(&x, &final_saved, &d_hidden, &ctx)?;
        for (block, (block_input, saved)) in self.blocks.iter_mut().zip(&block_saves).rev() {
            d_x = block.backward(block_input, saved, &d_x, &ctx)?;
        }

        // Backward into the patch projection, or hand the embedding's
        // gradient back.
        let d_embedded = match (input, &mut self.patch_proj) {
            (ModelInput::Features(features), Some(proj)) => {
                proj.backward(features, &(), &d_x, &ctx)?;
                None
            }
            _ => Some(d_x),
        };
        Ok((logits, d_logits, d_embedded))
    }

    /// Accumulates the token embedding's gradient from `d_embedded`, the
    /// gradient at the embedding output of one sample: one add per token
    /// occurrence into the table, in position order, and one per position.
    /// A no-op for feature input or without a gradient.
    pub(crate) fn embedding_backward(
        &mut self,
        input: &ModelInput,
        d_embedded: Option<&Matrix>,
    ) -> Result<()> {
        match (input, &mut self.embedding, d_embedded) {
            (ModelInput::Tokens(tokens), Some(embedding), Some(d)) => embedding.backward(tokens, d),
            _ => Ok(()),
        }
    }

    /// A worker replica for data-parallel training: the same values with
    /// cleared gradients and no optimizer state. The master takes the
    /// optimizer steps, and the pooled pass copies the new values into the
    /// replica.
    pub(crate) fn replica(&self) -> TransformerModel {
        let mut replica = self.clone();
        replica.visit_params_mut(&mut ParamPath::unnamed(), &mut |_, p| p.make_replica());
        replica
    }

    /// Splits this model for a pooled fold: the token embedding, whose
    /// table takes one gradient add per token occurrence and so is replayed
    /// from each sample's gradient at the embedding output, and every other
    /// parameter, in visitation order — the order
    /// [`TransformerModel::visit_trunk`] walks a replica's.
    pub(crate) fn fold_targets(&mut self) -> (Option<&mut Embedding>, Vec<&mut Param>) {
        let mut trunk = Vec::new();
        let mut path = ParamPath::unnamed();
        let collect = &mut |_: &str, p| trunk.push(p);
        if let Some(proj) = &mut self.patch_proj {
            proj.visit_params_mut(&mut path, collect);
        }
        for block in &mut self.blocks {
            block.visit_params_mut(&mut path, collect);
        }
        self.final_norm.visit_params_mut(&mut path, collect);
        self.head.visit_params_mut(&mut path, collect);
        (self.embedding.as_mut(), trunk)
    }

    /// Calls `f` on every parameter but the token embedding's, in the
    /// order of [`TransformerModel::fold_targets`].
    pub(crate) fn visit_trunk(&self, f: &mut dyn FnMut(&Param)) {
        let mut path = ParamPath::unnamed();
        let f = &mut |_: &str, p: &Param| f(p);
        if let Some(proj) = &self.patch_proj {
            proj.visit_params(&mut path, f);
        }
        for block in &self.blocks {
            block.visit_params(&mut path, f);
        }
        self.final_norm.visit_params(&mut path, f);
        self.head.visit_params(&mut path, f);
    }
}

impl ParamVisit for TransformerModel {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        if let Some(e) = &self.embedding {
            path.scope("embedding", |p| e.visit_params(p, f));
        }
        if let Some(proj) = &self.patch_proj {
            path.scope("patch_proj", |p| proj.visit_params(p, f));
        }
        for (i, block) in self.blocks.iter().enumerate() {
            path.scope(format_args!("blocks.{i}"), |p| block.visit_params(p, f));
        }
        path.scope("final_norm", |p| self.final_norm.visit_params(p, f));
        path.scope("head", |p| self.head.visit_params(p, f));
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        if let Some(e) = &mut self.embedding {
            path.scope("embedding", |p| e.visit_params_mut(p, f));
        }
        if let Some(proj) = &mut self.patch_proj {
            path.scope("patch_proj", |p| proj.visit_params_mut(p, f));
        }
        for (i, block) in self.blocks.iter_mut().enumerate() {
            path.scope(format_args!("blocks.{i}"), |p| block.visit_params_mut(p, f));
        }
        path.scope("final_norm", |p| self.final_norm.visit_params_mut(p, f));
        path.scope("head", |p| self.head.visit_params_mut(p, f));
    }
}

fn mean_pool(hidden: &Matrix) -> Matrix {
    let mut pooled = Matrix::zeros(1, hidden.cols());
    for c in 0..hidden.cols() {
        let mut acc = 0.0f32;
        for r in 0..hidden.rows() {
            acc += hidden.at(r, c);
        }
        pooled.set(0, c, acc / hidden.rows() as f32);
    }
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_model(seed: u64) -> TransformerModel {
        let mut rng = Rng::seed_from(seed);
        TransformerModel::new(ModelConfig::tiny_encoder(3), &mut rng).unwrap()
    }

    #[test]
    fn classification_forward_produces_one_row_of_logits() {
        let model = tiny_model(1);
        let logits = model
            .forward(&ModelInput::Tokens(vec![1, 5, 9, 2]))
            .unwrap();
        assert_eq!(logits.shape(), (1, 3));
    }

    #[test]
    fn lm_forward_produces_per_position_logits() {
        let mut rng = Rng::seed_from(2);
        let model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        let logits = model
            .forward(&ModelInput::Tokens(vec![3, 1, 4, 1, 5]))
            .unwrap();
        assert_eq!(logits.shape(), (5, 64));
    }

    #[test]
    fn vision_forward_consumes_patch_features() {
        let mut rng = Rng::seed_from(3);
        let config = ModelConfig::tiny_vit(10);
        let model = TransformerModel::new(config, &mut rng).unwrap();
        let patches = Matrix::random_normal(9, 24, 0.0, 1.0, &mut rng);
        let logits = model.forward(&ModelInput::Features(patches)).unwrap();
        assert_eq!(logits.shape(), (1, 10));
        // Token input into a vision model is rejected.
        assert!(model.forward(&ModelInput::Tokens(vec![1])).is_err());
    }

    #[test]
    fn token_model_rejects_feature_input_and_bad_tokens() {
        let model = tiny_model(4);
        assert!(model
            .forward(&ModelInput::Features(Matrix::zeros(2, 2)))
            .is_err());
        assert!(model.forward(&ModelInput::Tokens(vec![1000])).is_err());
        assert!(model.forward(&ModelInput::Tokens(vec![0; 17])).is_err());
    }

    #[test]
    fn named_linears_exposes_six_layers_per_block_with_scoped_names() {
        let mut model = tiny_model(5);
        let named = model.named_linears();
        assert_eq!(named.len(), 2 * 6);
        assert_eq!(named[0].0, "blocks.0.attn.q_proj");
        assert_eq!(named[5].0, "blocks.0.ffn.fc2");
        assert_eq!(named[6].0, "blocks.1.attn.q_proj");
        assert_eq!(named[11].0, "blocks.1.ffn.fc2");
        assert_eq!(model.named_linears_mut().len(), 2 * 6);
    }

    #[test]
    fn param_store_resolves_scoped_names() {
        let model = tiny_model(9);
        let store = model.params();
        let stored: usize = store.iter().map(|(_, p)| p.value().len()).sum();
        assert_eq!(stored, model.parameter_count());
        let q = store.get("blocks.1.attn.q_proj.weight").unwrap();
        assert_eq!(q.value().shape(), (32, 32));
        assert!(store.get("blocks.1.attn.q_proj").is_none());
        assert!(store.get("blocks.1.attn.nonexistent").is_none());
        assert!(store.get("embedding.table").is_some());
        assert!(store.get("final_norm.gamma").is_some());
        assert!(store.get("head.bias").is_some());
    }

    #[test]
    fn parameter_count_is_consistent_with_config_estimate() {
        let model = tiny_model(6);
        let approx = model.config().approx_total_params();
        let exact = model.parameter_count();
        let ratio = exact as f64 / approx as f64;
        assert!(ratio > 0.7 && ratio < 1.5, "exact {exact}, approx {approx}");
    }

    #[test]
    fn forward_backward_returns_logits_and_accumulates_grads() {
        let mut model = tiny_model(7);
        let input = ModelInput::Tokens(vec![1, 2, 3]);
        let (logits, d_logits) = model
            .forward_backward(&input, &mut |logits: &Matrix| Ok(logits.scale(1.0)))
            .unwrap();
        assert_eq!(logits.shape(), (1, 3));
        assert_eq!(d_logits.shape(), (1, 3));
        // The block weight gradients should now be non-zero.
        let any_grad = model.named_linears().iter().any(|(_, l)| match l {
            AnyLinear::Dense(d) => d.weight_param().grad().max_abs() > 0.0,
            AnyLinear::Factored(_) => false,
        });
        assert!(any_grad, "expected gradients to accumulate in block layers");
    }

    #[test]
    fn model_input_len_helpers() {
        assert_eq!(ModelInput::Tokens(vec![1, 2]).len(), 2);
        assert!(!ModelInput::Tokens(vec![1]).is_empty());
        assert_eq!(ModelInput::Features(Matrix::zeros(3, 2)).len(), 3);
    }

    #[test]
    fn invalid_configuration_is_rejected_at_construction() {
        let mut rng = Rng::seed_from(8);
        let mut config = ModelConfig::tiny_encoder(2);
        config.num_heads = 3;
        assert!(TransformerModel::new(config, &mut rng).is_err());
        // A vision model without a patch dimension has no stem to build.
        let mut config = ModelConfig::tiny_vit(10);
        config.patch_dim = None;
        assert!(matches!(
            TransformerModel::new(config, &mut rng),
            Err(ModelError::InvalidConfig(_))
        ));
    }
}
