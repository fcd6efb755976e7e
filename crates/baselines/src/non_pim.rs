//! Non-PIM digital baseline.
//!
//! A conventional INT8 digital accelerator: weights live in a 6.28 GB
//! off-chip DRAM, are staged through a large on-chip SRAM cache, and all
//! arithmetic happens in a dense digital datapath. This is the
//! "data-movement-dominated" reference point of the paper's comparisons.

use crate::{int8_activation_cells, DEFAULT_TILE_BUFFER_BYTES};
use hyflex_circuits::EnergyModel;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::energy_breakdown::EnergyBreakdown;
use hyflex_pim::perf::{self, BatchPerfSummary, LatencyBreakdown, PerfSummary};
use hyflex_pim::Result;
use hyflex_transformer::config::ModelConfig;
use hyflex_transformer::ops_count::{self, Stage};

/// Peak throughput of the digital datapath (operations per second).
pub const NON_PIM_PEAK_OPS_PER_S: f64 = 2.0e12;

/// Off-chip DRAM interface bandwidth, bytes per second (128 GB/s class).
pub const NON_PIM_DRAM_BYTES_PER_S: f64 = 128.0e9;

/// Die area of the digital accelerator, mm² (65 nm).
pub const NON_PIM_AREA_MM2: f64 = 40.0;

/// Average number of times each weight byte crosses the DRAM interface per
/// inference: the on-chip cache cannot hold the multi-hundred-megabyte weight
/// set, so tiles are evicted and re-fetched while iterating over the
/// sequence.
pub const WEIGHT_REFETCH_FACTOR: f64 = 3.0;

/// The non-PIM digital baseline, bound to the model it serves.
#[derive(Debug, Clone)]
pub struct NonPim {
    energy: EnergyModel,
    model: ModelConfig,
}

impl NonPim {
    /// Creates the baseline for `model` with the shared 65 nm energy
    /// constants.
    pub fn new(model: ModelConfig) -> Self {
        NonPim {
            energy: EnergyModel::default(),
            model,
        }
    }

    fn breakdown(&self, seq_len: usize) -> EnergyBreakdown {
        let model = &self.model;
        let stages = ops_count::model_ops(model, seq_len);
        let mut energy = EnergyBreakdown::default();
        let mac_ops: f64 = stages
            .iter()
            .filter(|s| !matches!(s.stage, Stage::Softmax))
            .map(|s| s.ops as f64)
            .sum();
        let softmax_elems: f64 = stages
            .iter()
            .filter(|s| matches!(s.stage, Stage::Softmax))
            .map(|s| s.ops as f64)
            .sum();
        energy.digital_mac_pj = mac_ops * self.energy.int8_mac_pj;
        energy.sfu_pj = softmax_elems * self.energy.sfu_element_pj;

        // Weight tiles cross DRAM and the SRAM cache several times per
        // inference (limited cache capacity); activations bounce through SRAM.
        let weight_bytes = model.static_params_total() as f64 * WEIGHT_REFETCH_FACTOR;
        energy.dram_access_pj = weight_bytes * self.energy.dram_access_byte_pj;
        let activation_bytes = (seq_len * (model.hidden_dim + model.ffn_dim) * model.num_layers)
            as f64
            + (model.num_heads * seq_len * seq_len * model.num_layers) as f64;
        energy.sram_access_pj =
            (weight_bytes + 4.0 * activation_bytes) * self.energy.sram_cache_byte_pj;
        energy
    }
}

impl Backend for NonPim {
    fn name(&self) -> &str {
        "Non-PIM"
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    fn capacity(&self) -> usize {
        DEFAULT_TILE_BUFFER_BYTES * 8
    }

    fn request_cells(&self, seq_len: usize) -> usize {
        int8_activation_cells(&self.model, seq_len)
    }

    /// DRAM-bounded timing: effective latency is the slower of the compute
    /// peak and the rate at which the 128 GB/s DRAM interface can deliver
    /// the weight set — re-streamed [`WEIGHT_REFETCH_FACTOR`] times per
    /// inference, the same traffic the energy model charges; the memory
    /// excess over the compute time is exposed as interconnect stall.
    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        let seq_len = request.seq_len;
        let total_ops = ops_count::total_ops(&self.model, seq_len) * 2;
        let compute_s = total_ops as f64 / NON_PIM_PEAK_OPS_PER_S;
        let weight_bytes = self.model.static_params_total() as f64 * WEIGHT_REFETCH_FACTOR;
        let mem_s = weight_bytes / NON_PIM_DRAM_BYTES_PER_S;
        let latency = LatencyBreakdown {
            analog_ns: 0.0,
            digital_ns: compute_s * 1e9,
            sfu_ns: 0.0,
            interconnect_ns: (mem_s - compute_s).max(0.0) * 1e9,
            queueing_ns: 0.0,
        };
        Ok(PerfSummary::from_parts(
            self.breakdown(seq_len),
            latency,
            total_ops,
            NON_PIM_AREA_MM2,
            1,
        ))
    }

    /// The on-chip cache cannot hold the weight set, so every request
    /// re-streams it (the [`WEIGHT_REFETCH_FACTOR`] energy penalty): batching
    /// amortizes nothing and the initiation interval equals the full request
    /// latency.
    fn evaluate_batched(&self, seq_len: usize, batch_size: usize) -> Result<BatchPerfSummary> {
        let single = self.evaluate(&InferenceRequest::of_len(0, seq_len))?;
        let interval_ns = single.latency.total_ns();
        perf::batch_summary_from_interval(single, interval_ns, batch_size)
    }

    /// Figure 14 charges non-PIM's linear layers their INT8 MACs plus the
    /// re-fetched weight stream through DRAM and the SRAM cache.
    fn linear_layer_energy_pj(&self, seq_len: usize) -> Result<f64> {
        let stages = ops_count::model_ops(&self.model, seq_len);
        let linear_macs: f64 = stages
            .iter()
            .filter(|s| s.stage.is_static_weight())
            .map(|s| s.ops as f64)
            .sum();
        let weight_bytes = self.model.static_params_total() as f64 * WEIGHT_REFETCH_FACTOR;
        Ok(linear_macs * self.energy.int8_mac_pj
            + weight_bytes * (self.energy.dram_access_byte_pj + self.energy.sram_cache_byte_pj))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::HyFlexPim;

    fn summary(backend: &dyn Backend, seq_len: usize) -> PerfSummary {
        backend
            .evaluate(&InferenceRequest::of_len(0, seq_len))
            .unwrap()
    }

    #[test]
    fn dram_traffic_dominates_at_short_sequences() {
        let baseline = NonPim::new(ModelConfig::bert_large());
        let energy = summary(&baseline, 128).energy;
        let share = energy.dram_access_pj / energy.total_pj();
        assert!(
            share > 0.5,
            "DRAM should dominate at N=128, share was {share:.2}"
        );
    }

    #[test]
    fn hyflexpim_end_to_end_gain_is_multiple_x() {
        // Figure 15: ~6.15x at N=128 for BERT-Large.
        let model = ModelConfig::bert_large();
        let baseline = NonPim::new(model.clone());
        let hyflex = HyFlexPim::paper(model, 0.05).unwrap();
        let ratio =
            summary(&baseline, 128).energy.total_pj() / summary(&hyflex, 128).energy.total_pj();
        assert!(ratio > 2.0, "expected a multi-x gain, got {ratio:.2}");
    }

    #[test]
    fn throughput_is_memory_bound_for_large_models_at_short_n() {
        let baseline = NonPim::new(ModelConfig::bert_large());
        let t_short = summary(&baseline, 128).tops_per_mm2;
        let t_long = summary(&baseline, 4096).tops_per_mm2;
        // At longer sequences the compute:weight ratio improves, so the
        // effective TOPS/mm^2 rises until the compute peak binds.
        assert!(t_long >= t_short);
    }
}
