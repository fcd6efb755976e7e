//! Model configurations: the paper's evaluation models and trainable
//! reduced-scale counterparts.

use crate::error::ModelError;
use crate::Result;

/// High-level architecture family.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelKind {
    /// Bidirectional encoder (BERT-style); attention is unmasked.
    Encoder,
    /// Autoregressive decoder (GPT-style); attention is causally masked.
    Decoder,
    /// Vision transformer: patch features in, class logits out.
    VisionEncoder,
}

/// The downstream task a model instance is trained for.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TaskKind {
    /// Sequence classification into `num_classes` classes (GLUE, CIFAR).
    Classification {
        /// Number of output classes.
        num_classes: usize,
    },
    /// Scalar regression (STS-B).
    Regression,
    /// Next-token language modeling (WikiText-2, PTB).
    LanguageModeling,
}

impl TaskKind {
    /// Output dimension of the task head (vocabulary size for LM heads is
    /// resolved by the model, which passes `vocab_size`).
    pub fn head_outputs(&self, vocab_size: usize) -> usize {
        match self {
            TaskKind::Classification { num_classes } => *num_classes,
            TaskKind::Regression => 1,
            TaskKind::LanguageModeling => vocab_size,
        }
    }
}

/// Shape of one static (weight-stationary) linear layer in a transformer
/// block, used by the hardware mapping and the performance model.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum StaticLayerKind {
    /// Query projection `W_Q` (Dh × Dh).
    Query,
    /// Key projection `W_K` (Dh × Dh).
    Key,
    /// Value projection `W_V` (Dh × Dh).
    Value,
    /// Output projection `W_proj` (Dh × Dh).
    Projection,
    /// First feed-forward matrix (Dh × Dff).
    Ffn1,
    /// Second feed-forward matrix (Dff × Dh).
    Ffn2,
}

impl StaticLayerKind {
    /// All six static layers in the paper's order.
    pub fn all() -> [StaticLayerKind; 6] {
        [
            StaticLayerKind::Query,
            StaticLayerKind::Key,
            StaticLayerKind::Value,
            StaticLayerKind::Projection,
            StaticLayerKind::Ffn1,
            StaticLayerKind::Ffn2,
        ]
    }
}

/// A transformer model configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct ModelConfig {
    /// Human-readable model name.
    pub name: String,
    /// Architecture family.
    pub kind: ModelKind,
    /// Downstream task.
    pub task: TaskKind,
    /// Number of transformer blocks.
    pub num_layers: usize,
    /// Hidden dimension `D_h`.
    pub hidden_dim: usize,
    /// Feed-forward inner dimension `D_ff`.
    pub ffn_dim: usize,
    /// Number of attention heads.
    pub num_heads: usize,
    /// Maximum sequence length the model is instantiated for.
    pub max_seq_len: usize,
    /// Vocabulary size (token models) — ignored by vision models.
    pub vocab_size: usize,
    /// Patch feature dimension for vision models (`None` for token models).
    pub patch_dim: Option<usize>,
}

impl ModelConfig {
    /// Validates dimensional consistency.
    ///
    /// # Errors
    ///
    /// Returns [`ModelError::InvalidConfig`] for zero or inconsistent sizes.
    pub fn validate(&self) -> Result<()> {
        if self.num_layers == 0
            || self.hidden_dim == 0
            || self.ffn_dim == 0
            || self.num_heads == 0
            || self.max_seq_len == 0
        {
            return Err(ModelError::InvalidConfig(format!(
                "{}: all dimensions must be non-zero",
                self.name
            )));
        }
        if !self.hidden_dim.is_multiple_of(self.num_heads) {
            return Err(ModelError::InvalidConfig(format!(
                "{}: hidden dim {} not divisible by {} heads",
                self.name, self.hidden_dim, self.num_heads
            )));
        }
        match self.kind {
            ModelKind::VisionEncoder => {
                if self.patch_dim.is_none() {
                    return Err(ModelError::InvalidConfig(format!(
                        "{}: vision models need a patch dimension",
                        self.name
                    )));
                }
            }
            ModelKind::Encoder | ModelKind::Decoder => {
                if self.vocab_size == 0 {
                    return Err(ModelError::InvalidConfig(format!(
                        "{}: token models need a vocabulary",
                        self.name
                    )));
                }
            }
        }
        Ok(())
    }

    /// Whether attention should be causally masked.
    pub fn is_causal(&self) -> bool {
        matches!(self.kind, ModelKind::Decoder)
    }

    /// Shape `(rows, cols)` of one static linear layer.
    pub fn static_layer_shape(&self, layer: StaticLayerKind) -> (usize, usize) {
        match layer {
            StaticLayerKind::Query
            | StaticLayerKind::Key
            | StaticLayerKind::Value
            | StaticLayerKind::Projection => (self.hidden_dim, self.hidden_dim),
            StaticLayerKind::Ffn1 => (self.hidden_dim, self.ffn_dim),
            StaticLayerKind::Ffn2 => (self.ffn_dim, self.hidden_dim),
        }
    }

    /// Total number of static-weight parameters per block
    /// (the weights HyFlexPIM stores in analog RRAM).
    fn static_params_per_layer(&self) -> usize {
        StaticLayerKind::all()
            .iter()
            .map(|l| {
                let (r, c) = self.static_layer_shape(*l);
                r * c
            })
            .sum()
    }

    /// Total static-weight parameters for the whole model.
    pub fn static_params_total(&self) -> usize {
        self.static_params_per_layer() * self.num_layers
    }

    /// Rough total parameter count including embeddings and heads.
    // hyflex-lint: allow(U2) — closed-form oracle `model::tests::parameter_count_is_consistent_with_config_estimate` checks the built model against
    pub fn approx_total_params(&self) -> usize {
        let embeddings = match self.kind {
            ModelKind::VisionEncoder => self.patch_dim.unwrap_or(0) * self.hidden_dim,
            _ => (self.vocab_size + self.max_seq_len) * self.hidden_dim,
        };
        let head = self.hidden_dim * self.task.head_outputs(self.vocab_size);
        self.static_params_total() + embeddings + head + 4 * self.hidden_dim * self.num_layers
    }

    // ----- Paper-scale configurations (used analytically) -----

    /// BERT-Base: 12 layers, hidden 768, FFN 3072, 12 heads (GLUE, MSL 128).
    pub fn bert_base() -> Self {
        ModelConfig {
            name: "BERT-Base".to_string(),
            kind: ModelKind::Encoder,
            task: TaskKind::Classification { num_classes: 2 },
            num_layers: 12,
            hidden_dim: 768,
            ffn_dim: 3072,
            num_heads: 12,
            max_seq_len: 128,
            vocab_size: 30_522,
            patch_dim: None,
        }
    }

    /// BERT-Large: 24 layers, hidden 1024, FFN 4096, 16 heads.
    pub fn bert_large() -> Self {
        ModelConfig {
            name: "BERT-Large".to_string(),
            kind: ModelKind::Encoder,
            task: TaskKind::Classification { num_classes: 2 },
            num_layers: 24,
            hidden_dim: 1024,
            ffn_dim: 4096,
            num_heads: 16,
            max_seq_len: 128,
            vocab_size: 30_522,
            patch_dim: None,
        }
    }

    /// GPT-2 Small: 12 layers, hidden 768, FFN 3072 (WikiText-2, MSL 1024).
    pub fn gpt2_small() -> Self {
        ModelConfig {
            name: "GPT-2".to_string(),
            kind: ModelKind::Decoder,
            task: TaskKind::LanguageModeling,
            num_layers: 12,
            hidden_dim: 768,
            ffn_dim: 3072,
            num_heads: 12,
            max_seq_len: 1024,
            vocab_size: 50_257,
            patch_dim: None,
        }
    }

    /// Llama-3.2-1B: 16 layers, hidden 2048, FFN 8192, 32 heads (PTB, MSL 100).
    pub fn llama3_1b() -> Self {
        ModelConfig {
            name: "Llama3".to_string(),
            kind: ModelKind::Decoder,
            task: TaskKind::LanguageModeling,
            num_layers: 16,
            hidden_dim: 2048,
            ffn_dim: 8192,
            num_heads: 32,
            max_seq_len: 100,
            vocab_size: 128_256,
            patch_dim: None,
        }
    }

    /// ViT-Base: 12 layers, hidden 768, FFN 3072 (CIFAR-10, 224×224, 16×16 patches).
    pub fn vit_base() -> Self {
        ModelConfig {
            name: "ViT-Base".to_string(),
            kind: ModelKind::VisionEncoder,
            task: TaskKind::Classification { num_classes: 10 },
            num_layers: 12,
            hidden_dim: 768,
            ffn_dim: 3072,
            num_heads: 12,
            max_seq_len: 197,
            vocab_size: 0,
            patch_dim: Some(16 * 16 * 3),
        }
    }

    /// All five paper-scale configurations.
    // hyflex-lint: allow(U2) — tests/paper_claims.rs and `config::tests` check every paper model's shape against it
    pub fn paper_models() -> Vec<ModelConfig> {
        vec![
            ModelConfig::bert_base(),
            ModelConfig::bert_large(),
            ModelConfig::gpt2_small(),
            ModelConfig::llama3_1b(),
            ModelConfig::vit_base(),
        ]
    }

    // ----- Trainable reduced-scale configurations -----

    /// A tiny encoder used for the functional accuracy experiments.
    pub fn tiny_encoder(num_classes: usize) -> Self {
        ModelConfig {
            name: "Tiny-Encoder".to_string(),
            kind: ModelKind::Encoder,
            task: TaskKind::Classification { num_classes },
            num_layers: 2,
            hidden_dim: 32,
            ffn_dim: 64,
            num_heads: 2,
            max_seq_len: 16,
            vocab_size: 64,
            patch_dim: None,
        }
    }

    /// A tiny encoder with a regression head (STS-B stand-in).
    pub fn tiny_encoder_regression() -> Self {
        ModelConfig {
            task: TaskKind::Regression,
            name: "Tiny-Encoder-Regression".to_string(),
            ..ModelConfig::tiny_encoder(2)
        }
    }

    /// A tiny decoder used for the functional loss experiments.
    pub fn tiny_decoder() -> Self {
        ModelConfig {
            name: "Tiny-Decoder".to_string(),
            kind: ModelKind::Decoder,
            task: TaskKind::LanguageModeling,
            num_layers: 2,
            hidden_dim: 32,
            ffn_dim: 64,
            num_heads: 2,
            max_seq_len: 16,
            vocab_size: 64,
            patch_dim: None,
        }
    }

    /// A tiny vision transformer used for the CIFAR-10 stand-in.
    pub fn tiny_vit(num_classes: usize) -> Self {
        ModelConfig {
            name: "Tiny-ViT".to_string(),
            kind: ModelKind::VisionEncoder,
            task: TaskKind::Classification { num_classes },
            num_layers: 2,
            hidden_dim: 32,
            ffn_dim: 64,
            num_heads: 2,
            max_seq_len: 16,
            vocab_size: 0,
            patch_dim: Some(24),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_configs_are_valid_and_match_published_dims() {
        for config in ModelConfig::paper_models() {
            config.validate().unwrap();
        }
        let base = ModelConfig::bert_base();
        assert_eq!(base.num_layers, 12);
        assert_eq!(base.hidden_dim, 768);
        assert_eq!(base.ffn_dim, 3072);
        let large = ModelConfig::bert_large();
        assert_eq!(large.num_layers, 24);
        assert_eq!(large.hidden_dim, 1024);
        let llama = ModelConfig::llama3_1b();
        assert_eq!(llama.hidden_dim, 2048);
        assert!(llama.is_causal());
        assert!(!base.is_causal());
    }

    #[test]
    fn static_layer_shapes_match_figure_1() {
        let c = ModelConfig::bert_base();
        assert_eq!(c.static_layer_shape(StaticLayerKind::Query), (768, 768));
        assert_eq!(c.static_layer_shape(StaticLayerKind::Ffn1), (768, 3072));
        assert_eq!(c.static_layer_shape(StaticLayerKind::Ffn2), (3072, 768));
        // 4 * Dh^2 + 2 * Dh * Dff per layer.
        assert_eq!(c.static_params_per_layer(), 4 * 768 * 768 + 2 * 768 * 3072);
        assert_eq!(c.static_params_total(), 12 * c.static_params_per_layer());
    }

    #[test]
    fn bert_base_total_params_are_in_the_right_ballpark() {
        let c = ModelConfig::bert_base();
        let params = c.approx_total_params();
        // BERT-Base is ~110M parameters.
        assert!(params > 80_000_000 && params < 140_000_000, "{params}");
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = ModelConfig::bert_base();
        c.num_heads = 7;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::bert_base();
        c.num_layers = 0;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::vit_base();
        c.patch_dim = None;
        assert!(c.validate().is_err());
        let mut c = ModelConfig::bert_base();
        c.vocab_size = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn tiny_configs_are_valid_and_small() {
        for config in [
            ModelConfig::tiny_encoder(2),
            ModelConfig::tiny_encoder_regression(),
            ModelConfig::tiny_decoder(),
            ModelConfig::tiny_vit(10),
        ] {
            config.validate().unwrap();
            assert!(config.approx_total_params() < 200_000);
        }
    }

    #[test]
    fn task_head_outputs() {
        assert_eq!(
            TaskKind::Classification { num_classes: 3 }.head_outputs(100),
            3
        );
        assert_eq!(TaskKind::Regression.head_outputs(100), 1);
        assert_eq!(TaskKind::LanguageModeling.head_outputs(100), 100);
    }

    #[test]
    fn all_static_layer_kinds_enumerated() {
        assert_eq!(StaticLayerKind::all().len(), 6);
    }
}
