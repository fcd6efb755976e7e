#![forbid(unsafe_code)]
// Unit tests panic by design; the clippy panic-path lints mirror
// hyflex-lint rule E1, which exempts test code the same way.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # hyflex-transformer
//!
//! A from-scratch transformer substrate: encoder, decoder, and vision models
//! with full forward/backward passes, an AdamW trainer, task metrics, and
//! per-stage operation counting.
//!
//! The HyFlexPIM paper evaluates on BERT-Base/Large, GPT-2, Llama-3.2-1B and
//! ViT-Base. Two kinds of model configuration are provided here:
//!
//! * **Paper-scale configs** ([`config::ModelConfig::bert_base`], ...) carry
//!   the real layer dimensions and are consumed *analytically* by the
//!   operation-count and performance models (Figures 2, 14–17).
//! * **Trainable reduced configs** ([`config::ModelConfig::tiny_encoder`],
//!   ...) are small enough to fine-tune on the synthetic workloads in
//!   `hyflex-workloads` within seconds, and are used for the functional
//!   experiments: SVD truncation, gradient redistribution, hybrid SLC/MLC
//!   noise injection (Figures 11–13 and the accuracy portion of Figure 12).
//!
//! The layer zoo ([`layers`], [`attention`], [`ffn`], [`factored`]) exposes a
//! uniform forward/backward interface — the [`layers::Layer`] trait — built
//! on [`param::Param`], so the gradient-redistribution pipeline in
//! `hyflex-pim` can swap any dense linear layer for its truncated-SVD
//! factored equivalent and read back gradients on the singular values.
//!
//! [`model::TransformerModel::new`] assembles encoder, decoder, and vision
//! topologies from the same composable modules, each with one forward path
//! ([`layers::Layer::forward_saved`]); every parameter is reachable through
//! the named-visitation API in [`param`] ([`param::ParamVisit`],
//! [`param::ParamStore`]) under dotted names such as
//! `blocks.3.attn.q_proj.weight`.

pub mod attention;
pub mod block;
pub mod config;
pub mod error;
pub mod factored;
pub mod ffn;
pub mod layers;
pub mod metrics;
pub mod model;
pub mod ops_count;
pub mod param;
pub mod trainer;

pub use config::{ModelConfig, ModelKind, TaskKind};
pub use error::ModelError;
pub use factored::FactoredLinear;
pub use layers::{Layer, LayerCtx, Residual};
pub use model::{ModelInput, TransformerModel};
pub use param::{AdamWConfig, Param, ParamPath, ParamStore, ParamVisit};
pub use trainer::Trainer;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, ModelError>;
