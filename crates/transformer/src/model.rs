//! End-to-end transformer models: embeddings, block stack, and task head.
//!
//! [`TransformerModel`] is assembled by the declarative builder in
//! [`crate::graph`]; this module owns the runtime behaviour — forward,
//! packed batching, backward, and the named parameter surface.

use crate::attention::AttentionMask;
use crate::block::TransformerBlock;
use crate::config::{ModelConfig, TaskKind};
use crate::error::ModelError;
use crate::graph::ModelGraph;
use crate::kv::{KvCache, LayerKv};
use crate::layers::{AnyLinear, Embedding, Layer, LayerCtx, LayerNorm, Linear};
use crate::param::{Param, ParamPath, ParamStore, ParamVisit};
use crate::Result;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;
use std::ops::Range;

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
    /// Shorthand for [`ModelGraph::from_config`] followed by
    /// [`ModelGraph::build`].
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for inconsistent configurations.
    pub fn new(config: ModelConfig, rng: &mut Rng) -> Result<Self> {
        ModelGraph::from_config(config)?.build(rng)
    }

    /// Assembles a model from already-constructed parts (the graph builder's
    /// final step).
    pub(crate) fn from_parts(
        config: ModelConfig,
        embedding: Option<Embedding>,
        patch_proj: Option<Linear>,
        blocks: Vec<TransformerBlock>,
        final_norm: LayerNorm,
        head: Linear,
    ) -> Self {
        TransformerModel {
            config,
            embedding,
            patch_proj,
            blocks,
            final_norm,
            head,
        }
    }

    /// The model configuration.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The transformer blocks.
    pub fn blocks(&self) -> &[TransformerBlock] {
        &self.blocks
    }

    /// A flat, named snapshot of every parameter (see [`ParamStore`]).
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
    fn sequence_ctx(&self) -> LayerCtx<'static> {
        if self.config.is_causal() {
            LayerCtx::causal()
        } else {
            LayerCtx::inference()
        }
    }

    /// Runs the block stack and the final norm over `x`.
    fn encode(&self, mut x: Matrix, ctx: &LayerCtx) -> Result<Matrix> {
        for block in &self.blocks {
            x = block.forward(&x, ctx)?;
        }
        self.final_norm.forward(&x, ctx)
    }

    /// Applies the task head to one request's final hidden rows.
    fn head_logits(&self, hidden: &Matrix) -> Result<Matrix> {
        let ctx = LayerCtx::inference();
        match self.config.task {
            TaskKind::LanguageModeling => self.head.forward(hidden, &ctx),
            _ => self.head.forward(&mean_pool(hidden), &ctx),
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
        let hidden = self.encode(self.embed(input)?, &self.sequence_ctx())?;
        self.head_logits(&hidden)
    }

    /// Runs the model over a group of requests (a serving batch) and returns
    /// one logits matrix per request, in request order.
    ///
    /// The requests are **packed**: each is embedded on its own (positions
    /// restart at zero per request), the rows are concatenated into a single
    /// activation matrix with no padding, and [`AttentionMask::Packed`] keeps
    /// attention from crossing request boundaries. Every per-request result
    /// is bit-identical to calling [`TransformerModel::forward`] on that
    /// request alone, while the whole group shares one pass over the static
    /// weights — mirroring how the PIM arrays amortize a weight read-out
    /// schedule across a serving batch without wasting crossbar rows on
    /// padding lanes. The runtime crate's batch scheduler uses this to
    /// execute the request groups it forms.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an empty group and propagates
    /// per-request embedding/shape errors.
    pub fn forward_batch(&self, inputs: &[ModelInput]) -> Result<Vec<Matrix>> {
        if inputs.is_empty() {
            return Err(ModelError::InvalidInput(
                "batched forward needs at least one request".to_string(),
            ));
        }
        let (x, segments) = self.pack(inputs)?;
        let ctx = LayerCtx::with_mask(AttentionMask::Packed {
            segments: &segments,
            causal: self.config.is_causal(),
        });
        let hidden = self.encode(x, &ctx)?;
        segments
            .iter()
            .map(|seg| {
                let rows = hidden.submatrix(seg.start, 0, seg.end - seg.start, hidden.cols())?;
                self.head_logits(&rows)
            })
            .collect()
    }

    /// Embeds each request independently and concatenates the rows into one
    /// packed activation matrix, returning it with the per-request segments.
    fn pack(&self, inputs: &[ModelInput]) -> Result<(Matrix, Vec<Range<usize>>)> {
        let mut segments = Vec::with_capacity(inputs.len());
        let mut embedded = Vec::with_capacity(inputs.len());
        let mut rows = 0usize;
        for input in inputs {
            let e = self.embed(input)?;
            segments.push(rows..rows + e.rows());
            rows += e.rows();
            embedded.push(e);
        }
        let mut packed = Matrix::zeros(rows, self.config.hidden_dim);
        for (seg, e) in segments.iter().zip(&embedded) {
            packed.set_submatrix(seg.start, 0, e)?;
        }
        Ok((packed, segments))
    }

    /// The token embedding, once the model and a cache of `cache_layers`
    /// layers are known to support KV-cached decoding.
    fn check_decode_ready(&self, cache_layers: usize) -> Result<&Embedding> {
        if !self.config.is_causal() {
            return Err(ModelError::InvalidInput(
                "KV-cached decoding needs a causal (decoder) model".to_string(),
            ));
        }
        if !matches!(self.config.task, TaskKind::LanguageModeling) {
            return Err(ModelError::InvalidInput(
                "KV-cached decoding needs a language-modeling head".to_string(),
            ));
        }
        let Some(embedding) = &self.embedding else {
            return Err(ModelError::InvalidInput(
                "KV-cached decoding needs a token embedding".to_string(),
            ));
        };
        if cache_layers != self.blocks.len() {
            return Err(ModelError::InvalidInput(format!(
                "KV cache has {cache_layers} layers, model has {}",
                self.blocks.len()
            )));
        }
        Ok(embedding)
    }

    /// Prefill phase: runs `tokens` through the stack in one pass, growing
    /// `cache` by their keys/values, and returns the `[tokens, vocab]`
    /// next-token logits.
    ///
    /// The tokens sit at absolute positions `cache.len()..cache.len() +
    /// tokens.len()`, so calling prefill on an empty cache processes a fresh
    /// prompt and calling it again extends the same request. Every logits row
    /// is bit-identical to the matching row of
    /// [`TransformerModel::forward`] over the request's full token sequence —
    /// the cached decode path reorders no arithmetic (see
    /// [`crate::attention::MultiHeadAttention::decode_step`]).
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for non-causal or non-LM models,
    /// a cache of the wrong depth, out-of-vocabulary tokens, or a sequence
    /// overrunning the maximum length.
    pub fn prefill(&self, tokens: &[usize], cache: &mut KvCache) -> Result<Matrix> {
        let embedding = self.check_decode_ready(cache.num_layers())?;
        let mut x = embedding.forward_from(tokens, cache.len())?;
        for (block, kv) in self.blocks.iter().zip(cache.layers_mut()) {
            x = block.decode_step(&x, kv)?;
        }
        self.decode_logits(&x)
    }

    /// Final norm and LM head over decoded hidden rows.
    fn decode_logits(&self, x: &Matrix) -> Result<Matrix> {
        let ctx = LayerCtx::causal();
        let hidden = self.final_norm.forward(x, &ctx)?;
        self.head.forward(&hidden, &ctx)
    }

    /// Decode phase: appends one token to a request and returns its
    /// `[1, vocab]` next-token logits.
    ///
    /// # Errors
    ///
    /// See [`TransformerModel::prefill`].
    pub fn decode_step(&self, token: usize, cache: &mut KvCache) -> Result<Matrix> {
        self.prefill(&[token], cache)
    }

    /// One iteration-level batched decode step: `tokens[b]` is the next token
    /// of the request owning `caches[b]`, and row `b` of the returned
    /// `[batch, vocab]` matrix is its next-token logits.
    ///
    /// Requests at different positions share the pass — this is what lets the
    /// runtime's continuous batcher admit and retire requests at token
    /// boundaries. Every row is bit-identical to a per-request
    /// [`TransformerModel::decode_step`] call because each sub-layer is
    /// row-independent and attention runs against each request's own cache.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidInput`] for an empty batch or mismatched
    /// token/cache counts, plus the per-request errors of
    /// [`TransformerModel::prefill`].
    pub fn decode_step_batch(
        &self,
        tokens: &[usize],
        caches: &mut [&mut KvCache],
    ) -> Result<Matrix> {
        if tokens.len() != caches.len() {
            return Err(ModelError::InvalidInput(format!(
                "batched decode got {} tokens for {} caches",
                tokens.len(),
                caches.len()
            )));
        }
        let mut embedding = None;
        for cache in caches.iter() {
            embedding = Some(self.check_decode_ready(cache.num_layers())?);
        }
        let Some(embedding) = embedding else {
            return Err(ModelError::InvalidInput(
                "batched decode needs at least one request".to_string(),
            ));
        };
        let mut x = Matrix::zeros(tokens.len(), self.config.hidden_dim);
        for (b, (&tok, cache)) in tokens.iter().zip(caches.iter()).enumerate() {
            let row = embedding.forward_from(&[tok], cache.len())?;
            x.set_submatrix(b, 0, &row)?;
        }
        for (i, block) in self.blocks.iter().enumerate() {
            let mut layer_kvs: Vec<&mut LayerKv> =
                caches.iter_mut().map(|c| &mut c.layers_mut()[i]).collect();
            x = block.decode_step_batch(&x, &mut layer_kvs)?;
        }
        self.decode_logits(&x)
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

        // Backward into the embedding / patch projection.
        match (input, &mut self.embedding, &mut self.patch_proj) {
            (ModelInput::Tokens(tokens), Some(embedding), _) => {
                embedding.backward(tokens, &d_x)?;
            }
            (ModelInput::Features(features), _, Some(proj)) => {
                proj.backward(features, &(), &d_x, &ctx)?;
            }
            _ => {}
        }
        Ok((logits, d_logits))
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
            let scope = format!("blocks.{i}");
            path.scope(&scope, |p| block.visit_params(p, f));
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
            let scope = format!("blocks.{i}");
            path.scope(&scope, |p| block.visit_params_mut(p, f));
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
    fn packed_batched_forward_matches_per_request_forward() {
        let model = tiny_model(7);
        let inputs = vec![
            ModelInput::Tokens(vec![1, 5, 9, 2]),
            ModelInput::Tokens(vec![4, 4]),
            ModelInput::Tokens(vec![7, 0, 3, 3, 3, 1]),
        ];
        let batched = model.forward_batch(&inputs).unwrap();
        assert_eq!(batched.len(), inputs.len());
        for (input, logits) in inputs.iter().zip(&batched) {
            let solo = model.forward(input).unwrap();
            assert_eq!(solo.shape(), logits.shape());
            for r in 0..solo.rows() {
                for (c, (a, b)) in solo.row(r).iter().zip(logits.row(r)).enumerate() {
                    assert_eq!(
                        a.to_bits(),
                        b.to_bits(),
                        "packed logits diverge at [{r},{c}]: {a:?} != {b:?}"
                    );
                }
            }
        }
        assert!(model.forward_batch(&[]).is_err());
    }

    #[test]
    fn packed_causal_batch_matches_per_request_forward() {
        let mut rng = Rng::seed_from(11);
        let model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        let inputs = vec![
            ModelInput::Tokens(vec![3, 1, 4, 1, 5]),
            ModelInput::Tokens(vec![9]),
            ModelInput::Tokens(vec![2, 6, 5]),
        ];
        let batched = model.forward_batch(&inputs).unwrap();
        for (input, logits) in inputs.iter().zip(&batched) {
            let solo = model.forward(input).unwrap();
            assert_eq!(&solo, logits);
        }
    }

    #[test]
    fn kv_decode_matches_full_causal_forward_bitwise() {
        let mut rng = Rng::seed_from(21);
        let model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        let tokens = vec![3usize, 1, 4, 1, 5, 9];
        let full = model.forward(&ModelInput::Tokens(tokens.clone())).unwrap();

        // Prefill the first three tokens in one pass, then decode one by one.
        let mut cache = KvCache::new(model.blocks.len());
        let prefill = model.prefill(&tokens[..3], &mut cache).unwrap();
        assert_eq!(prefill.shape(), (3, full.cols()));
        for r in 0..3 {
            for c in 0..full.cols() {
                assert_eq!(
                    prefill.at(r, c).to_bits(),
                    full.at(r, c).to_bits(),
                    "prefill logits diverge at [{r},{c}]"
                );
            }
        }
        for (t, &tok) in tokens.iter().enumerate().skip(3) {
            let step = model.decode_step(tok, &mut cache).unwrap();
            assert_eq!(step.shape(), (1, full.cols()));
            for c in 0..full.cols() {
                assert_eq!(
                    step.at(0, c).to_bits(),
                    full.at(t, c).to_bits(),
                    "decode logits diverge at step {t}, col {c}"
                );
            }
        }
        assert_eq!(cache.len(), tokens.len());
    }

    #[test]
    fn batched_decode_matches_sequential_decode_bitwise() {
        let mut rng = Rng::seed_from(22);
        let model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        let prompts = [vec![3usize, 1, 4], vec![9usize], vec![2usize, 6, 5, 3]];
        let next = [1usize, 7, 0];

        // Sequential: decode each request alone.
        let mut solo_caches: Vec<KvCache> = prompts
            .iter()
            .map(|p| {
                let mut c = KvCache::new(model.blocks.len());
                model.prefill(p, &mut c).unwrap();
                c
            })
            .collect();
        let solo: Vec<Matrix> = next
            .iter()
            .zip(solo_caches.iter_mut())
            .map(|(&tok, c)| model.decode_step(tok, c).unwrap())
            .collect();

        // Batched: same requests share one iteration.
        let mut batch_caches: Vec<KvCache> = prompts
            .iter()
            .map(|p| {
                let mut c = KvCache::new(model.blocks.len());
                model.prefill(p, &mut c).unwrap();
                c
            })
            .collect();
        let mut refs: Vec<&mut KvCache> = batch_caches.iter_mut().collect();
        let batched = model.decode_step_batch(&next, &mut refs).unwrap();

        assert_eq!(batched.rows(), prompts.len());
        for (b, solo_logits) in solo.iter().enumerate() {
            for c in 0..batched.cols() {
                assert_eq!(
                    batched.at(b, c).to_bits(),
                    solo_logits.at(0, c).to_bits(),
                    "batched decode diverges for request {b}, col {c}"
                );
            }
        }
        // Caches advanced identically.
        for (solo_c, batch_c) in solo_caches.iter().zip(&batch_caches) {
            assert_eq!(solo_c, batch_c);
        }
    }

    #[test]
    fn decode_rejects_bad_models_and_caches() {
        // Encoder models (non-causal, non-LM) cannot decode.
        let encoder = tiny_model(23);
        let mut cache = KvCache::new(encoder.blocks.len());
        assert!(encoder.prefill(&[1, 2], &mut cache).is_err());

        let mut rng = Rng::seed_from(24);
        let decoder = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        // Wrong cache depth.
        let mut shallow = KvCache::new(1);
        assert!(decoder.prefill(&[1], &mut shallow).is_err());
        // Out-of-vocabulary token and over-long sequence.
        let mut cache = KvCache::new(decoder.blocks.len());
        assert!(decoder.prefill(&[1000], &mut cache).is_err());
        let max = decoder.config().max_seq_len;
        let mut cache = KvCache::new(decoder.blocks.len());
        decoder.prefill(&vec![1; max], &mut cache).unwrap();
        assert!(decoder.decode_step(1, &mut cache).is_err());
        // Batch size / cache count mismatch.
        let mut one = KvCache::new(decoder.blocks.len());
        decoder.prefill(&[1], &mut one).unwrap();
        let mut refs: Vec<&mut KvCache> = vec![&mut one];
        assert!(decoder.decode_step_batch(&[1, 2], &mut refs).is_err());
        assert!(decoder.decode_step_batch(&[], &mut []).is_err());
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
        assert_eq!(store.parameter_count(), model.parameter_count());
        // Exact leaf lookup and the `.weight` fallback both resolve.
        let vb = store.root().pp("blocks.1").pp("attn");
        let direct = vb.get("q_proj.weight").unwrap();
        let fallback = vb.get("q_proj").unwrap();
        assert!(std::ptr::eq(direct, fallback));
        assert!(vb.get("nonexistent").is_err());
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
    }
}
