//! Declarative model assembly: [`ModelGraph`] builds encoder, decoder, and
//! vision topologies from the same composable modules.
//!
//! A graph is a linear pipeline of three stages — a [`StemSpec`] that turns
//! raw input into `[L, hidden]` activations, a list of [`BlockSpec`] nodes
//! (encoder or decoder blocks), and a [`HeadSpec`] that maps the final
//! hidden state to task logits. [`ModelGraph::from_config`] derives the
//! graph from a [`ModelConfig`]; [`ModelGraph::build`] instantiates it into
//! a [`TransformerModel`], consuming the RNG in a fixed order (stem, then
//! blocks in sequence, then head) so graph-built models are bit-identical
//! to the historical hand-wired constructor.

use crate::block::TransformerBlock;
use crate::config::{ModelConfig, ModelKind, TaskKind};
use crate::error::ModelError;
use crate::layers::{Embedding, LayerNorm, Linear};
use crate::model::TransformerModel;
use crate::Result;
use hyflex_tensor::rng::Rng;
use std::fmt::Write as _;

/// The input stage of a model graph: raw input to `[L, hidden]` activations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StemSpec {
    /// Token-id lookup: learned token table plus learned positions.
    TokenEmbedding {
        /// Vocabulary size.
        vocab_size: usize,
        /// Maximum sequence length (position table size).
        max_seq_len: usize,
    },
    /// Linear projection of patch/feature vectors (vision models).
    PatchProjection {
        /// Input feature dimension per patch.
        patch_dim: usize,
    },
}

/// One transformer block node in the graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BlockSpec {
    /// Bidirectional self-attention block (BERT/ViT-style).
    Encoder,
    /// Causally masked self-attention block (GPT-style). The causality is
    /// enforced at run time by the mask the model derives from its
    /// configuration; the spec records the topology.
    Decoder,
}

/// The output stage: final hidden state to task logits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HeadSpec {
    /// Mean-pool the sequence, then one linear layer (classification /
    /// regression).
    Pooled {
        /// Number of output logits.
        outputs: usize,
    },
    /// One linear layer applied to every position (language modeling).
    PerToken {
        /// Number of output logits per position (the vocabulary).
        outputs: usize,
    },
}

/// A declarative description of a transformer model's structure.
///
/// ```
/// use hyflex_tensor::rng::Rng;
/// use hyflex_transformer::{ModelConfig, ModelGraph};
///
/// let graph = ModelGraph::from_config(ModelConfig::tiny_decoder()).unwrap();
/// assert_eq!(graph.blocks().len(), 2);
/// let model = graph.build(&mut Rng::seed_from(7)).unwrap();
/// assert_eq!(model.blocks().len(), 2);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ModelGraph {
    config: ModelConfig,
    stem: StemSpec,
    blocks: Vec<BlockSpec>,
    head: HeadSpec,
}

impl ModelGraph {
    /// Derives the layer graph implied by a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for inconsistent configurations
    /// (the same validation [`TransformerModel::new`] applies).
    pub fn from_config(config: ModelConfig) -> Result<Self> {
        config.validate()?;
        let stem = match config.kind {
            ModelKind::VisionEncoder => StemSpec::PatchProjection {
                patch_dim: config
                    .patch_dim
                    .ok_or_else(|| ModelError::InvalidConfig("missing patch_dim".into()))?,
            },
            _ => StemSpec::TokenEmbedding {
                vocab_size: config.vocab_size,
                max_seq_len: config.max_seq_len,
            },
        };
        let block = if config.is_causal() {
            BlockSpec::Decoder
        } else {
            BlockSpec::Encoder
        };
        let blocks = vec![block; config.num_layers];
        let outputs = config.task.head_outputs(config.vocab_size);
        let head = match config.task {
            TaskKind::LanguageModeling => HeadSpec::PerToken { outputs },
            _ => HeadSpec::Pooled { outputs },
        };
        Ok(ModelGraph {
            config,
            stem,
            blocks,
            head,
        })
    }

    /// The configuration this graph was derived from.
    pub fn config(&self) -> &ModelConfig {
        &self.config
    }

    /// The block nodes, in execution order.
    pub fn blocks(&self) -> &[BlockSpec] {
        &self.blocks
    }

    /// The output stage.
    pub fn head(&self) -> &HeadSpec {
        &self.head
    }

    /// A printable multi-line description of the graph.
    pub fn summary(&self) -> String {
        let c = &self.config;
        let mut out = String::new();
        let _ = writeln!(out, "model graph: {}", c.name);
        match &self.stem {
            StemSpec::TokenEmbedding {
                vocab_size,
                max_seq_len,
            } => {
                let _ = writeln!(
                    out,
                    "  stem: token embedding (vocab {vocab_size}, max len {max_seq_len}, dim {})",
                    c.hidden_dim
                );
            }
            StemSpec::PatchProjection { patch_dim } => {
                let _ = writeln!(
                    out,
                    "  stem: patch projection ({patch_dim} -> {})",
                    c.hidden_dim
                );
            }
        }
        let kind = match self.blocks.first() {
            Some(BlockSpec::Decoder) => "decoder (causal)",
            _ => "encoder (bidirectional)",
        };
        let _ = writeln!(
            out,
            "  blocks: {} x {kind} (dim {}, ffn {}, heads {})",
            self.blocks.len(),
            c.hidden_dim,
            c.ffn_dim,
            c.num_heads
        );
        match &self.head {
            HeadSpec::Pooled { outputs } => {
                let _ = writeln!(out, "  head: mean-pool -> linear [{outputs}]");
            }
            HeadSpec::PerToken { outputs } => {
                let _ = writeln!(out, "  head: per-token linear [{outputs}]");
            }
        }
        out
    }

    /// Instantiates the graph with random initialization.
    ///
    /// The RNG is consumed in stem, block (in order), head order — exactly
    /// the order the historical hand-wired constructor used, so seeded
    /// builds reproduce the same parameters bit for bit.
    ///
    /// # Errors
    ///
    /// Returns configuration errors from block construction.
    pub fn build(&self, rng: &mut Rng) -> Result<TransformerModel> {
        let c = &self.config;
        let (embedding, patch_proj) = match &self.stem {
            StemSpec::TokenEmbedding {
                vocab_size,
                max_seq_len,
            } => (
                Some(Embedding::new(*vocab_size, *max_seq_len, c.hidden_dim, rng)),
                None,
            ),
            StemSpec::PatchProjection { patch_dim } => {
                (None, Some(Linear::new(*patch_dim, c.hidden_dim, rng)))
            }
        };
        let blocks = self
            .blocks
            .iter()
            .map(|_| TransformerBlock::new(c.hidden_dim, c.ffn_dim, c.num_heads, rng))
            .collect::<Result<Vec<_>>>()?;
        let final_norm = LayerNorm::new(c.hidden_dim);
        let head_outputs = match &self.head {
            HeadSpec::Pooled { outputs } | HeadSpec::PerToken { outputs } => *outputs,
        };
        let head = Linear::new(c.hidden_dim, head_outputs, rng);
        Ok(TransformerModel::from_parts(
            self.config.clone(),
            embedding,
            patch_proj,
            blocks,
            final_norm,
            head,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelInput;

    #[test]
    fn encoder_graph_has_token_stem_and_pooled_head() {
        let graph = ModelGraph::from_config(ModelConfig::tiny_encoder(3)).unwrap();
        assert!(matches!(&graph.stem, StemSpec::TokenEmbedding { .. }));
        assert!(graph.blocks().iter().all(|b| *b == BlockSpec::Encoder));
        assert!(matches!(graph.head(), HeadSpec::Pooled { outputs: 3 }));
        let summary = graph.summary();
        assert!(summary.contains("token embedding"));
        assert!(summary.contains("encoder (bidirectional)"));
    }

    #[test]
    fn decoder_graph_has_causal_blocks_and_per_token_head() {
        let graph = ModelGraph::from_config(ModelConfig::tiny_decoder()).unwrap();
        assert!(graph.blocks().iter().all(|b| *b == BlockSpec::Decoder));
        assert!(matches!(graph.head(), HeadSpec::PerToken { .. }));
        assert!(graph.summary().contains("decoder (causal)"));
    }

    #[test]
    fn vision_graph_has_patch_stem() {
        let graph = ModelGraph::from_config(ModelConfig::tiny_vit(10)).unwrap();
        assert!(matches!(
            &graph.stem,
            StemSpec::PatchProjection { patch_dim: 24 }
        ));
        assert!(graph.summary().contains("patch projection"));
    }

    #[test]
    fn invalid_config_is_rejected() {
        let mut config = ModelConfig::tiny_encoder(2);
        config.num_heads = 3;
        assert!(ModelGraph::from_config(config).is_err());
    }

    #[test]
    fn graph_build_matches_direct_construction_bit_for_bit() {
        for config in [
            ModelConfig::tiny_encoder(3),
            ModelConfig::tiny_decoder(),
            ModelConfig::tiny_vit(10),
        ] {
            let graph = ModelGraph::from_config(config.clone()).unwrap();
            let mut rng_a = Rng::seed_from(99);
            let built = graph.build(&mut rng_a).unwrap();
            let mut rng_b = Rng::seed_from(99);
            let direct = TransformerModel::new(config, &mut rng_b).unwrap();
            assert_eq!(built, direct);
            if built.config().patch_dim.is_none() {
                let input = ModelInput::Tokens(vec![1, 2, 3]);
                assert_eq!(
                    built.forward(&input).unwrap(),
                    direct.forward(&input).unwrap()
                );
            }
        }
    }
}
