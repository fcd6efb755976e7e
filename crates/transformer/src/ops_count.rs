//! Per-stage operation counting (paper Figure 2).
//!
//! Figure 2 plots the number of computations in each transformer stage as a
//! function of sequence length, motivating the design choice to accelerate
//! the static-weight linear layers (token generation, projection, FFN1, FFN2)
//! on analog PIM: for short and moderate sequences they dominate, while only
//! at very long sequences do the quadratic attention products take over.

use crate::config::ModelConfig;
use serde::{Deserialize, Serialize};

/// A computation stage of the transformer pipeline, in Figure 2's order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Stage {
    /// Q/K/V generation (fully connected, static weights).
    TokenGenerationFc,
    /// Attention score computation `Q·Kᵀ` (dynamic operands).
    ScoreQKt,
    /// Softmax over the score matrix.
    Softmax,
    /// Context computation `P·V` (dynamic operands).
    ProbV,
    /// Output projection (fully connected, static weights).
    ProjectionFc,
    /// First feed-forward layer (static weights).
    Ffn1,
    /// Second feed-forward layer (static weights).
    Ffn2,
}

impl Stage {
    /// All stages in the paper's plotting order.
    pub fn all() -> [Stage; 7] {
        [
            Stage::TokenGenerationFc,
            Stage::ScoreQKt,
            Stage::Softmax,
            Stage::ProbV,
            Stage::ProjectionFc,
            Stage::Ffn1,
            Stage::Ffn2,
        ]
    }

    /// Whether the stage uses static (pre-loadable) weights — i.e. whether
    /// HyFlexPIM maps it onto analog PIM (Figure 9).
    pub fn is_static_weight(&self) -> bool {
        matches!(
            self,
            Stage::TokenGenerationFc | Stage::ProjectionFc | Stage::Ffn1 | Stage::Ffn2
        )
    }

    /// Display label matching the paper's figure.
    pub fn label(&self) -> &'static str {
        match self {
            Stage::TokenGenerationFc => "Token Generation (FC)",
            Stage::ScoreQKt => "Q*K^T = Score",
            Stage::Softmax => "Softmax (S) = P",
            Stage::ProbV => "P*V = O",
            Stage::ProjectionFc => "Proj (FC)",
            Stage::Ffn1 => "FFN1",
            Stage::Ffn2 => "FFN2",
        }
    }
}

/// Operation count for one stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StageOps {
    /// The stage.
    pub stage: Stage,
    /// Number of scalar operations (MACs for matrix products, element
    /// operations for softmax).
    pub ops: u64,
}

/// Operation counts per stage for a single transformer layer at sequence
/// length `seq_len`, in [`Stage::all`] order.
pub fn per_layer_ops(config: &ModelConfig, seq_len: usize) -> [StageOps; 7] {
    let n = seq_len as u64;
    let dh = config.hidden_dim as u64;
    let dff = config.ffn_dim as u64;
    let heads = config.num_heads as u64;
    Stage::all().map(|stage| {
        let ops = match stage {
            Stage::TokenGenerationFc => 3 * n * dh * dh,
            Stage::ScoreQKt => n * n * dh,
            Stage::Softmax => n * n * heads,
            Stage::ProbV => n * n * dh,
            Stage::ProjectionFc => n * dh * dh,
            Stage::Ffn1 => n * dh * dff,
            Stage::Ffn2 => n * dff * dh,
        };
        StageOps { stage, ops }
    })
}

/// Operation counts per stage for the whole model (all layers), in
/// [`Stage::all`] order.
pub fn model_ops(config: &ModelConfig, seq_len: usize) -> [StageOps; 7] {
    per_layer_ops(config, seq_len).map(|s| StageOps {
        stage: s.stage,
        ops: s.ops * config.num_layers as u64,
    })
}

/// Total operations across all stages and layers.
pub fn total_ops(config: &ModelConfig, seq_len: usize) -> u64 {
    model_ops(config, seq_len).iter().map(|s| s.ops).sum()
}

/// Fraction of total operations that use static weights (the portion
/// HyFlexPIM can pre-load into analog PIM). The paper quotes >70 % for
/// typical configurations.
pub fn static_weight_fraction(config: &ModelConfig, seq_len: usize) -> f64 {
    let all = model_ops(config, seq_len);
    let total: u64 = all.iter().map(|s| s.ops).sum();
    let static_ops: u64 = all
        .iter()
        .filter(|s| s.stage.is_static_weight())
        .map(|s| s.ops)
        .sum();
    if total == 0 {
        return 0.0;
    }
    static_ops as f64 / total as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stage_enumeration_and_labels() {
        assert_eq!(Stage::all().len(), 7);
        assert!(Stage::Ffn1.is_static_weight());
        assert!(!Stage::ScoreQKt.is_static_weight());
        assert!(Stage::ScoreQKt.label().contains("Score"));
    }

    #[test]
    fn per_layer_counts_match_closed_forms() {
        let c = ModelConfig::bert_base();
        let ops = per_layer_ops(&c, 128);
        let by_stage = |s: Stage| ops.iter().find(|o| o.stage == s).unwrap().ops;
        assert_eq!(by_stage(Stage::TokenGenerationFc), 3 * 128 * 768 * 768);
        assert_eq!(by_stage(Stage::ScoreQKt), 128 * 128 * 768);
        assert_eq!(by_stage(Stage::Ffn1), 128 * 768 * 3072);
        assert_eq!(by_stage(Stage::Ffn2), by_stage(Stage::Ffn1));
    }

    #[test]
    fn model_ops_scale_with_layers() {
        let c = ModelConfig::bert_base();
        let layer = per_layer_ops(&c, 128);
        let model = model_ops(&c, 128);
        for (l, m) in layer.iter().zip(model.iter()) {
            assert_eq!(m.ops, l.ops * 12);
        }
        assert_eq!(total_ops(&c, 128), model.iter().map(|s| s.ops).sum::<u64>());
    }

    #[test]
    fn static_weights_dominate_at_short_sequences() {
        let c = ModelConfig::bert_base();
        // Paper Section 2.1: >70% of computation comes from static weights.
        assert!(static_weight_fraction(&c, 128) > 0.7);
        assert!(static_weight_fraction(&c, 512) > 0.7);
    }

    #[test]
    fn attention_grows_quadratically_and_eventually_dominates() {
        let c = ModelConfig::bert_base();
        let frac_short = static_weight_fraction(&c, 128);
        let frac_long = static_weight_fraction(&c, 8192);
        assert!(frac_long < frac_short);
        // At 8k tokens the quadratic attention terms are a major share.
        assert!(frac_long < 0.6);
    }

    #[test]
    fn figure2_sequence_sweep_is_monotone_per_stage() {
        let c = ModelConfig::bert_base();
        let lengths = [128usize, 512, 1024, 2048, 3072];
        for stage in Stage::all() {
            let mut prev = 0u64;
            for &n in &lengths {
                let ops = model_ops(&c, n)
                    .into_iter()
                    .find(|s| s.stage == stage)
                    .unwrap()
                    .ops;
                assert!(ops > prev);
                prev = ops;
            }
        }
    }
}
