#![forbid(unsafe_code)]
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
//!
//! Every baseline implements the [`Accelerator`] trait — the full
//! [`PerfSummary`] surface (latency breakdown, energy breakdown, area) plus
//! batched evaluation — so the benchmark harness prints the
//! normalized-energy figures (14 and 15) and the throughput figure (16) in
//! one loop, and the serving machinery in `hyflex-runtime` can drive any of
//! them. HyFlexPIM itself is exposed through the same trait via
//! [`HyFlexPimAccelerator`].
//!
//! The crate also hosts the model-bound side of the comparison surface:
//!
//! * [`registry`] — [`BackendRegistry`]: name → constructor table for every
//!   comparison backend (`hyflexpim`, `asadi-int8`, `asadi-fp32`, `nmp`,
//!   `sprint`, `non-pim`), the one place that knows the full roster.
//! * [`system`] — [`SystemBuilder`]: validated, fluent construction of a
//!   deployed system
//!   (`SystemBuilder::paper().slc_rate(0.05).backend("asadi-int8").build()`).
//! * [`AcceleratorBackend`] — adapter binding an [`Accelerator`] to a
//!   [`ModelConfig`] so it satisfies the `hyflex_pim::Backend` trait the
//!   runtime consumes.

pub mod analog_attention;
pub mod asadi;
pub mod nmp;
pub mod non_pim;
pub mod registry;
pub mod sprint;
pub mod system;

use hyflex_pim::arch::Chip;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::energy_breakdown::EnergyBreakdown;
use hyflex_pim::perf::{self, BatchPerfSummary, EvaluationPoint, PerfSummary, PerformanceModel};
use hyflex_pim::Result;
use hyflex_transformer::config::ModelConfig;

pub use analog_attention::{AnalogAttention, ANALOG_ATTENTION_EFFICIENCY};
pub use asadi::{Asadi, AsadiPrecision};
pub use nmp::NearMemoryProcessing;
pub use non_pim::NonPim;
pub use registry::{BackendParams, BackendRegistry, BackendSpec};
pub use sprint::Sprint;
pub use system::SystemBuilder;

/// Default activation-buffer budget charged against batches on the digital
/// baselines (SPRINT, NMP, non-PIM), bytes. These designs hold a batch's
/// per-layer dynamic data (Q/K/V, scores, FFN intermediate) in an on-chip
/// buffer rather than in digital PIM arrays; 32 MiB is a generous 65 nm SRAM
/// allocation that lets BERT-Large fill a 16-request batch at N = 128.
pub const DEFAULT_TILE_BUFFER_BYTES: usize = 32 << 20;

/// A transformer accelerator that can be evaluated analytically.
///
/// The three energy/area methods are the original comparison surface of
/// Figures 14–16; [`Accelerator::perf_summary`] and
/// [`Accelerator::batch_summary`] extend every design with the latency model
/// the serving machinery needs, and [`Accelerator::tile_cells`] /
/// [`Accelerator::request_cells`] expose the per-batch buffer budget the
/// `BatchScheduler` admits requests against.
pub trait Accelerator {
    /// Human-readable name used in printed tables.
    fn name(&self) -> &str;

    /// Full evaluation of one inference: latency breakdown, energy
    /// breakdown, throughput, and area.
    ///
    /// # Errors
    ///
    /// Returns configuration/mapping errors.
    fn perf_summary(&self, model: &ModelConfig, seq_len: usize) -> Result<PerfSummary>;

    /// Batched evaluation: `batch_size` requests of the same shape executed
    /// back to back. The default models a layer pipeline (HyFlexPIM/ASADI
    /// style); serial or bandwidth-bound designs override it.
    ///
    /// # Errors
    ///
    /// Returns [`hyflex_pim::PimError::EmptyBatch`] for an empty batch and
    /// propagates single-request evaluation errors.
    fn batch_summary(
        &self,
        model: &ModelConfig,
        seq_len: usize,
        batch_size: usize,
    ) -> Result<BatchPerfSummary> {
        let single = self.perf_summary(model, seq_len)?;
        perf::pipelined_batch(single, model.num_layers, seq_len, batch_size)
    }

    /// Energy of the static-weight linear layers for one inference, pJ.
    ///
    /// # Errors
    ///
    /// Returns configuration/mapping errors.
    fn linear_layer_energy_pj(&self, model: &ModelConfig, seq_len: usize) -> Result<f64> {
        Ok(self.perf_summary(model, seq_len)?.energy.linear_layer_pj())
    }

    /// End-to-end energy breakdown for one inference.
    ///
    /// # Errors
    ///
    /// Returns configuration/mapping errors.
    fn end_to_end_energy(&self, model: &ModelConfig, seq_len: usize) -> Result<EnergyBreakdown> {
        Ok(self.perf_summary(model, seq_len)?.energy)
    }

    /// Area efficiency in TOPS/mm² for the full inference.
    ///
    /// # Errors
    ///
    /// Returns configuration/mapping errors.
    fn tops_per_mm2(&self, model: &ModelConfig, seq_len: usize) -> Result<f64> {
        Ok(self.perf_summary(model, seq_len)?.tops_per_mm2)
    }

    /// Buffer budget of one layer tile, in cells (bits), that a batch of
    /// in-flight requests must fit. Defaults to
    /// [`DEFAULT_TILE_BUFFER_BYTES`] of SRAM.
    fn tile_cells(&self) -> usize {
        DEFAULT_TILE_BUFFER_BYTES * 8
    }

    /// Cells (bits) one request of length `seq_len` occupies in one layer
    /// tile: the INT8 per-layer dynamic data (Q, K, V, attention scores,
    /// attention output, FFN intermediate).
    fn request_cells(&self, model: &ModelConfig, seq_len: usize) -> usize {
        let n = seq_len;
        let elements = 3 * n * model.hidden_dim
            + model.num_heads * n * n
            + n * model.hidden_dim
            + n * model.ffn_dim;
        elements * 8
    }
}

/// HyFlexPIM exposed through the common [`Accelerator`] interface.
#[derive(Debug, Clone)]
pub struct HyFlexPimAccelerator {
    perf: PerformanceModel,
    chip: Chip,
    /// SLC protection rate used for the mapping.
    pub slc_rank_fraction: f64,
    name: String,
}

impl HyFlexPimAccelerator {
    /// Creates the accelerator at a given SLC protection rate.
    pub fn new(slc_rank_fraction: f64) -> Self {
        // The paper's chip and the paper's performance model share one
        // hardware config, so the scheduler's capacity contract cannot drift
        // from the model.
        HyFlexPimAccelerator {
            perf: PerformanceModel::paper_default(),
            chip: Chip::paper_default(),
            slc_rank_fraction,
            name: hyflex_pim::backend::hyflexpim_display_name(slc_rank_fraction),
        }
    }

    fn point(&self, model: &ModelConfig, seq_len: usize) -> EvaluationPoint {
        EvaluationPoint {
            model: model.clone(),
            seq_len,
            slc_rank_fraction: self.slc_rank_fraction,
        }
    }
}

impl Accelerator for HyFlexPimAccelerator {
    fn name(&self) -> &str {
        &self.name
    }

    fn perf_summary(&self, model: &ModelConfig, seq_len: usize) -> Result<PerfSummary> {
        self.perf.evaluate(&self.point(model, seq_len))
    }

    fn batch_summary(
        &self,
        model: &ModelConfig,
        seq_len: usize,
        batch_size: usize,
    ) -> Result<BatchPerfSummary> {
        self.perf
            .evaluate_batched(&self.point(model, seq_len), batch_size)
    }

    fn linear_layer_energy_pj(&self, model: &ModelConfig, seq_len: usize) -> Result<f64> {
        self.perf
            .linear_layer_energy_pj(&self.point(model, seq_len))
    }

    fn tile_cells(&self) -> usize {
        self.perf.hw().digital_cells_per_pu()
    }

    fn request_cells(&self, model: &ModelConfig, seq_len: usize) -> usize {
        self.chip.digital_cells_for_layer(model, seq_len)
    }
}

/// Adapter binding an [`Accelerator`] to the [`ModelConfig`] it serves, so
/// any baseline satisfies the `hyflex_pim::Backend` trait and flows through
/// `BatchScheduler`, `ServingSim`, and the parallel sweep drivers.
#[derive(Debug, Clone)]
pub struct AcceleratorBackend<A> {
    accelerator: A,
    model: ModelConfig,
}

impl<A: Accelerator> AcceleratorBackend<A> {
    /// Binds `accelerator` to `model`.
    pub fn new(accelerator: A, model: ModelConfig) -> Self {
        AcceleratorBackend { accelerator, model }
    }

    /// The wrapped accelerator.
    pub fn accelerator(&self) -> &A {
        &self.accelerator
    }
}

impl<A: Accelerator + Send + Sync + std::fmt::Debug> Backend for AcceleratorBackend<A> {
    fn name(&self) -> &str {
        self.accelerator.name()
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    fn capacity(&self) -> usize {
        self.accelerator.tile_cells()
    }

    fn request_cells(&self, seq_len: usize) -> usize {
        self.accelerator.request_cells(&self.model, seq_len)
    }

    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        self.accelerator.perf_summary(&self.model, request.seq_len)
    }

    fn evaluate_batched(&self, seq_len: usize, batch_size: usize) -> Result<BatchPerfSummary> {
        self.accelerator
            .batch_summary(&self.model, seq_len, batch_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roster(slc: f64) -> Vec<Box<dyn Accelerator>> {
        BackendRegistry::paper().accelerators(slc)
    }

    #[test]
    fn hyflexpim_adapter_matches_the_perf_model() {
        let acc = HyFlexPimAccelerator::new(0.05);
        let model = ModelConfig::bert_large();
        let direct = PerformanceModel::paper_default()
            .evaluate(&EvaluationPoint {
                model: model.clone(),
                seq_len: 128,
                slc_rank_fraction: 0.05,
            })
            .unwrap();
        let via_trait = acc.end_to_end_energy(&model, 128).unwrap();
        assert!((via_trait.total_pj() - direct.energy.total_pj()).abs() < 1e-6);
        assert!(acc.name().contains("HyFlexPIM"));
        assert!(acc.tops_per_mm2(&model, 128).unwrap() > 0.0);
        // The full summary and the batched path are bit-identical too.
        assert_eq!(acc.perf_summary(&model, 128).unwrap(), direct);
        let batched = acc.batch_summary(&model, 128, 4).unwrap();
        assert_eq!(batched.single, direct);
    }

    #[test]
    fn hyflexpim_beats_every_baseline_on_linear_layer_energy() {
        let model = ModelConfig::bert_large();
        let hyflex = HyFlexPimAccelerator::new(0.05);
        let ours = hyflex.linear_layer_energy_pj(&model, 128).unwrap();
        for baseline in roster(0.05).into_iter().skip(1) {
            let theirs = baseline.linear_layer_energy_pj(&model, 128).unwrap();
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
        let hyflex = HyFlexPimAccelerator::new(0.05);
        let ours = hyflex.end_to_end_energy(&model, 128).unwrap().total_pj();
        for baseline in roster(0.05).into_iter().skip(1) {
            let theirs = baseline.end_to_end_energy(&model, 128).unwrap().total_pj();
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
        let energy = |a: &dyn Accelerator| a.end_to_end_energy(&model, 128).unwrap().total_pj();
        let asadi_int8 = energy(&Asadi::new(AsadiPrecision::Int8));
        let asadi_fp32 = energy(&Asadi::new(AsadiPrecision::Fp32));
        let non_pim = energy(&NonPim::new());
        let nmp = energy(&NearMemoryProcessing::new());
        assert!(asadi_int8 < asadi_fp32);
        assert!(nmp < non_pim);
    }

    #[test]
    fn every_accelerator_reports_a_complete_perf_summary() {
        let model = ModelConfig::bert_large();
        for acc in roster(0.05) {
            let s = acc.perf_summary(&model, 128).unwrap();
            assert!(
                s.latency.total_ns() > 0.0,
                "{} reports no latency",
                acc.name()
            );
            assert!(s.energy.total_pj() > 0.0);
            assert!(s.area_mm2 > 0.0);
            assert!(s.tops_per_mm2 > 0.0);
            assert!(s.total_ops > 0);
            // The tile budget admits at least one BERT-Large request.
            assert!(acc.request_cells(&model, 128) <= acc.tile_cells());
        }
    }

    #[test]
    fn accelerator_backend_adapter_forwards_to_the_accelerator() {
        let model = ModelConfig::bert_base();
        let backend = AcceleratorBackend::new(Sprint::new(), model.clone());
        assert_eq!(backend.name(), "SPRINT");
        assert_eq!(backend.model().name, model.name);
        let direct = Sprint::new().perf_summary(&model, 64).unwrap();
        let via = backend.evaluate(&InferenceRequest::of_len(0, 64)).unwrap();
        assert_eq!(direct, via);
        assert_eq!(
            backend.request_cells(64),
            Sprint::new().request_cells(&model, 64)
        );
    }
}
