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
//! # hyflex-pim
//!
//! The paper's primary contribution: the **HyFlexPIM** accelerator model and
//! the **SVD-based gradient redistribution** algorithm that makes its hybrid
//! SLC/MLC analog RRAM mapping effective.
//!
//! The crate has two halves that mirror the paper's hardware/software
//! co-design:
//!
//! **Algorithm side** (software, run offline before deployment):
//!
//! * [`gradient_redistribution`] — Algorithm 1: factorize every static
//!   linear layer with a truncated SVD at the cost-neutral hard-threshold
//!   rank, fine-tune for a few epochs, and collect the gradient magnitude of
//!   every singular value.
//! * [`selection`] — SLC/MLC rank-selection strategies: gradient-based (the
//!   paper's proposal), rank-based (top singular values), and
//!   magnitude-based (no SVD), compared in Figure 13.
//! * [`noise_sim`] — the noise-injected inference simulator: INT8
//!   quantization plus the mode-dependent RRAM error model from
//!   `hyflex-rram`, applied per rank according to the SLC/MLC assignment,
//!   then evaluated with the task metrics (Figure 12).
//!
//! **Hardware side** (the analytical architecture model):
//!
//! * [`arch`] — chip / processing-unit / module structure and capacity.
//! * [`mapping`] — how factored layers tile onto 64×128 crossbars in SLC or
//!   MLC mode, and what each mapping costs to program.
//! * [`perf`] — energy, latency, throughput, and area models for full
//!   transformer inference at a given sequence length and SLC protection
//!   rate (Figures 14–16).
//! * [`energy_breakdown`] — per-component end-to-end energy (Figure 15).
//! * [`scalability`] — tensor/pipeline parallelism across PUs and chips
//!   (Figure 17).
//! * [`finetune`] — the fine-tuning hyper-parameters of Table 1.
//! * [`backend`] — the unified [`Backend`] evaluation trait every modeled
//!   accelerator (HyFlexPIM and the `hyflex-baselines` designs) implements,
//!   so the runtime's scheduler and serving simulators are backend-generic.

pub mod arch;
pub mod backend;
pub mod config;
pub mod energy_breakdown;
pub mod error;
pub mod finetune;
pub mod gradient_redistribution;
pub mod mapping;
pub mod noise_sim;
pub mod perf;
pub mod scalability;
pub mod selection;

pub use backend::{Backend, HyFlexPim, InferenceRequest};
pub use config::HyFlexPimConfig;
pub use error::PimError;
pub use gradient_redistribution::{GradientRedistribution, RedistributionReport};
pub use mapping::{kv_token_cost, KvTokenCost};
pub use noise_sim::{HybridMappingSpec, NoiseSimulator, SweepOutcome, SweepPoint};
pub use perf::{BatchPerfSummary, PerformanceModel};
pub use selection::SelectionStrategy;

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, PimError>;
