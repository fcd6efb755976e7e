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
//! # hyflex-workloads
//!
//! Deterministic synthetic workload generators standing in for the paper's
//! evaluation datasets.
//!
//! The paper fine-tunes and evaluates on GLUE (7 tasks), WikiText-2, PTB, and
//! CIFAR-10. Those datasets cannot be redistributed inside this repository,
//! so each is replaced by a seeded generator that produces *learnable*
//! structure of the same shape:
//!
//! * [`glue`] — seven classification/regression tasks named after the GLUE
//!   tasks the paper uses (CoLA, MRPC, QNLI, QQP, RTE, SST-2, STS-B), each a
//!   token-sequence task whose label depends on planted signal tokens with a
//!   task-specific noise level, so the tasks differ in difficulty just as the
//!   real GLUE tasks do.
//! * [`lm`] — synthetic language-modeling corpora generated by a seeded
//!   first-order Markov chain (WikiText-2 and PTB stand-ins with different
//!   vocabulary sizes and sequence lengths).
//! * [`vision`] — a 10-class patch-feature classification task standing in
//!   for CIFAR-10 / ViT.
//!
//! Every generator returns [`dataset::Dataset`] values containing
//! `hyflex-transformer` [`hyflex_transformer::trainer::Sample`]s, so the same
//! training and evaluation code runs on all of them. The substitution is
//! documented in `DESIGN.md`; what matters for the reproduction is that
//! fine-tuning, metric computation, and noise-sensitivity trends are
//! exercised end-to-end, not the absolute accuracy values.

pub mod dataset;
pub mod glue;
pub mod lm;
pub mod vision;

pub use dataset::Dataset;
pub use glue::GlueTask;
