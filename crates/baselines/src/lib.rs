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
//! # hyflex-baselines
//!
//! Analytical models of the accelerators the paper compares against
//! (Section 5.3):
//!
//! * **ASADI** — an analog/digital hybrid RRAM PIM that keeps every linear
//!   layer in SLC and runs attention in FP32, with a diagonal-compression
//!   scheme that prunes part of the attention work.
//! * **ASADI†** — the paper's fairer variant: INT8 linear layers, everything
//!   else like ASADI.
//! * **SPRINT** — analog RRAM PIM used only to prune attention tokens
//!   (74.6 % sparsity); all remaining computation runs on a conventional
//!   digital INT8 processor fed from on-chip memory.
//! * **NMP** (TransPIM-style) — near-memory processing in HBM banks: compute
//!   sits next to memory but still reads operands from the banks.
//! * **Non-PIM** — a digital INT8 accelerator fed from off-chip DRAM through
//!   an on-chip SRAM cache.
//! * **Analog attention** — a serving-oriented design that runs attention
//!   in analog crossbars over a runtime-programmed KV cache (not part of the
//!   paper's roster; used by the decode-serving study).
//!
//! Every design implements `hyflex_pim::backend::Backend` directly, exactly
//! as HyFlexPIM's own [`HyFlexPim`] does: it is built for one
//! [`ModelConfig`], caches whatever that model fixes at construction (the
//! all-SLC deployment of the ASADI family, for instance), and prices each
//! request from a sequence length.
//! The comparison figures (14–16), the serving simulators in
//! `hyflex-runtime` and the tests therefore go through one trait.
//!
//! The crate also hosts the name-addressed side of the comparison surface:
//!
//! * [`registry`] — [`BackendRegistry`]: name → constructor table for every
//!   comparison backend (`hyflexpim`, `asadi-int8`, `asadi-fp32`, `nmp`,
//!   `sprint`, `non-pim`, `analog-attention`), the one place that knows the
//!   full roster.
//! * [`system`] — [`SystemBuilder`]: validated, fluent construction of a
//!   deployed system
//!   (`SystemBuilder::paper().slc_rate(0.05).backend("asadi-int8").build()`).
//!
//! [`HyFlexPim`]: hyflex_pim::backend::HyFlexPim

pub mod analog_attention;
pub mod asadi;
pub mod nmp;
pub mod non_pim;
pub mod registry;
pub mod sprint;
pub mod system;

use hyflex_transformer::config::ModelConfig;

pub use analog_attention::{AnalogAttention, ANALOG_ATTENTION_EFFICIENCY};
pub use asadi::{Asadi, AsadiPrecision};
pub use nmp::NearMemoryProcessing;
pub use non_pim::NonPim;
pub use registry::{BackendParams, BackendRegistry};
pub use sprint::Sprint;
pub use system::SystemBuilder;

/// Default activation-buffer budget charged against batches on the digital
/// baselines (SPRINT, NMP, non-PIM), bytes. These designs hold a batch's
/// per-layer dynamic data (Q/K/V, scores, FFN intermediate) in an on-chip
/// buffer rather than in digital PIM arrays; 32 MiB is a generous 65 nm SRAM
/// allocation that lets BERT-Large fill a 16-request batch at N = 128.
pub const DEFAULT_TILE_BUFFER_BYTES: usize = 32 << 20;

/// Cells (bits) one request of length `seq_len` occupies in one layer tile
/// of a digital baseline: the INT8 per-layer dynamic data (Q, K, V,
/// attention scores, attention output, FFN intermediate).
pub fn int8_activation_cells(model: &ModelConfig, seq_len: usize) -> usize {
    let n = seq_len;
    let elements = 3 * n * model.hidden_dim
        + model.num_heads * n * n
        + n * model.hidden_dim
        + n * model.ffn_dim;
    elements * 8
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::{Backend, InferenceRequest};
    use hyflex_pim::energy_breakdown::EnergyBreakdown;
    use std::sync::Arc;

    /// Every registered design bound to `model`, HyFlexPIM at `slc`, in
    /// registry order (HyFlexPIM first).
    fn roster(model: &ModelConfig, slc: f64) -> Vec<Box<dyn Backend>> {
        let registry = BackendRegistry::paper();
        let params = BackendParams {
            slc_rank_fraction: slc,
            ..BackendParams::paper(model.clone())
        };
        registry
            .names()
            .into_iter()
            .map(|name| registry.build(name, &params).unwrap())
            .collect()
    }

    fn energy(backend: &dyn Backend, seq_len: usize) -> EnergyBreakdown {
        backend
            .evaluate(&InferenceRequest::of_len(0, seq_len))
            .unwrap()
            .energy
    }

    #[test]
    fn hyflexpim_beats_every_baseline_on_linear_layer_energy() {
        let model = ModelConfig::bert_large();
        let roster = roster(&model, 0.05);
        let ours = roster[0].linear_layer_energy_pj(128).unwrap();
        for baseline in &roster[1..] {
            let theirs = baseline.linear_layer_energy_pj(128).unwrap();
            assert!(
                ours < theirs,
                "{} linear-layer energy {:.3e} should exceed HyFlexPIM {:.3e}",
                baseline.name(),
                theirs,
                ours
            );
        }
    }

    #[test]
    fn hyflexpim_beats_every_baseline_end_to_end() {
        let model = ModelConfig::bert_large();
        let roster = roster(&model, 0.05);
        let ours = energy(roster[0].as_ref(), 128).total_pj();
        for baseline in &roster[1..] {
            let theirs = energy(baseline.as_ref(), 128).total_pj();
            assert!(
                ours < theirs,
                "{}: {:.3e} pJ should exceed HyFlexPIM {:.3e} pJ",
                baseline.name(),
                theirs,
                ours
            );
        }
    }

    #[test]
    fn accelerator_ordering_matches_paper_qualitatively() {
        // Non-PIM (DRAM-bound) is the most expensive end to end; the NMP
        // baseline sits between SPRINT and non-PIM.
        let model = ModelConfig::bert_large();
        let total = |b: &dyn Backend| energy(b, 128).total_pj();
        let asadi_int8 = total(&Asadi::new(AsadiPrecision::Int8, model.clone()).unwrap());
        let asadi_fp32 = total(&Asadi::new(AsadiPrecision::Fp32, model.clone()).unwrap());
        let non_pim = total(&NonPim::new(model.clone()));
        let nmp = total(&NearMemoryProcessing::new(model));
        assert!(asadi_int8 < asadi_fp32);
        assert!(nmp < non_pim);
    }

    #[test]
    fn every_accelerator_reports_a_complete_perf_summary() {
        let model = ModelConfig::bert_large();
        for backend in roster(&model, 0.05) {
            let s = backend.evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
            assert!(
                s.latency.total_ns() > 0.0,
                "{} reports no latency",
                backend.name()
            );
            assert!(s.energy.total_pj() > 0.0);
            assert!(s.area_mm2 > 0.0);
            assert!(s.tops_per_mm2 > 0.0);
            assert!(s.total_ops > 0);
            // The tile budget admits at least one BERT-Large request.
            assert!(backend.request_cells(128) <= backend.capacity());
        }
    }

    /// SPRINT overrides the provided `linear_layer_energy_pj` with its
    /// Figure 14 accounting; the override must survive every pointer the
    /// runtime hands backends around in.
    #[test]
    fn sprint_linear_energy_forwards_through_pointers() {
        fn linear_bits<B: Backend>(backend: B) -> u64 {
            backend.linear_layer_energy_pj(128).unwrap().to_bits()
        }
        let sprint = Sprint::new(ModelConfig::bert_base());
        let own = sprint.linear_layer_energy_pj(128).unwrap().to_bits();
        let breakdown = energy(&sprint, 128).linear_layer_pj().to_bits();
        assert_ne!(own, breakdown);
        let boxed: Box<dyn Backend> = Box::new(sprint.clone());
        let arced: Arc<dyn Backend> = Arc::new(sprint.clone());
        assert_eq!(linear_bits(&sprint), own);
        assert_eq!(linear_bits(boxed), own);
        assert_eq!(linear_bits(arced), own);
    }
}
