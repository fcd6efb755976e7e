//! Near-memory-processing (TransPIM-style) baseline.
//!
//! TransPIM places lightweight compute units next to HBM banks
//! (function-in-memory DRAM). Data movement is much cheaper than going
//! off-chip to a host accelerator, but every operand still crosses the bank
//! interface, and the near-bank ALUs are less efficient than a dense digital
//! datapath — let alone in-array analog accumulation.

use crate::{int8_activation_cells, DEFAULT_TILE_BUFFER_BYTES};
use hyflex_circuits::EnergyModel;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::energy_breakdown::EnergyBreakdown;
use hyflex_pim::perf::{self, BatchPerfSummary, LatencyBreakdown, PerfSummary};
use hyflex_pim::Result;
use hyflex_transformer::config::ModelConfig;
use hyflex_transformer::ops_count::{self, Stage};

/// Relative inefficiency of a near-bank ALU versus a dense logic-process
/// INT8 datapath. Function-in-memory DRAM implements its ALUs in the DRAM
/// process, which costs several times more energy per operation.
pub const NEAR_BANK_MAC_OVERHEAD: f64 = 8.0;

/// Peak throughput of the near-bank compute (operations per second).
pub const NMP_PEAK_OPS_PER_S: f64 = 1.2e12;

/// Area of the logic-die portion attributable to the accelerator, mm².
pub const NMP_AREA_MM2: f64 = 60.0;

/// Aggregate bank-interface bandwidth available to the near-bank compute,
/// bytes per second. Higher than any off-chip interface (the point of NMP)
/// but finite: every operand still crosses it.
pub const NMP_HBM_BYTES_PER_S: f64 = 512.0e9;

/// The TransPIM-style near-memory-processing baseline, bound to the model
/// it serves.
#[derive(Debug, Clone)]
pub struct NearMemoryProcessing {
    energy: EnergyModel,
    model: ModelConfig,
}

impl NearMemoryProcessing {
    /// Creates the baseline for `model` with the shared 65 nm energy
    /// constants.
    pub fn new(model: ModelConfig) -> Self {
        NearMemoryProcessing {
            energy: EnergyModel::default(),
            model,
        }
    }

    fn mac_pj(&self) -> f64 {
        self.energy.int8_mac_pj * NEAR_BANK_MAC_OVERHEAD
    }

    /// Per-inference weight traffic across the bank interface, bytes.
    fn weight_bytes(&self) -> f64 {
        self.model.static_params_total() as f64
    }

    /// Per-inference activation/intermediate traffic across the bank
    /// interface, bytes (same accounting as the energy model).
    fn activation_bytes(&self, seq_len: usize) -> f64 {
        let model = &self.model;
        (seq_len * (model.hidden_dim + model.ffn_dim) * model.num_layers) as f64
            + (model.num_heads * seq_len * seq_len * model.num_layers) as f64
    }

    fn breakdown(&self, seq_len: usize) -> EnergyBreakdown {
        let stages = ops_count::model_ops(&self.model, seq_len);
        let mut energy = EnergyBreakdown::default();
        let total_macs: f64 = stages
            .iter()
            .filter(|s| !matches!(s.stage, Stage::Softmax))
            .map(|s| s.ops as f64)
            .sum();
        let softmax_elems: f64 = stages
            .iter()
            .filter(|s| matches!(s.stage, Stage::Softmax))
            .map(|s| s.ops as f64)
            .sum();
        energy.digital_mac_pj = total_macs * self.mac_pj();
        energy.sfu_pj = softmax_elems * self.energy.sfu_element_pj * NEAR_BANK_MAC_OVERHEAD;
        // Weights plus activations and attention intermediates cross the bank
        // interface (same traffic accounting as the latency model).
        let bytes = self.weight_bytes() + self.activation_bytes(seq_len);
        energy.dram_access_pj = bytes * self.energy.hbm_access_byte_pj;
        energy
    }
}

impl Backend for NearMemoryProcessing {
    fn name(&self) -> &str {
        "NMP (TransPIM)"
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

    /// DRAM-bounded timing: the near-bank ALUs run at their compute peak,
    /// but weights and activations all cross the bank interface; whichever
    /// is slower bounds the inference, and the excess of the memory time
    /// over the compute time is exposed as interconnect stall.
    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        let seq_len = request.seq_len;
        let total_ops = ops_count::total_ops(&self.model, seq_len) * 2;
        let compute_s = total_ops as f64 / NMP_PEAK_OPS_PER_S;
        let bytes = self.weight_bytes() + self.activation_bytes(seq_len);
        let mem_s = bytes / NMP_HBM_BYTES_PER_S;
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
            NMP_AREA_MM2,
            1,
        ))
    }

    /// Batching amortizes the dominant weight traffic: a streamed weight
    /// tile is applied to every request of the batch before eviction, so at
    /// steady state only the per-request activation traffic and the compute
    /// time bound the initiation interval. The first request still pays the
    /// full weight-streaming latency, and the per-request energy amortizes
    /// the weight-traffic crossing the same way the interval does.
    fn evaluate_batched(&self, seq_len: usize, batch_size: usize) -> Result<BatchPerfSummary> {
        let single = self.evaluate(&InferenceRequest::of_len(0, seq_len))?;
        // The compute time is exactly the digital latency component of the
        // single-request evaluation; only the weight-streaming share of the
        // memory time is amortized away.
        let compute_s = single.latency.digital_ns * 1e-9;
        let act_s = self.activation_bytes(seq_len) / NMP_HBM_BYTES_PER_S;
        let interval_ns = compute_s.max(act_s) * 1e9;
        let mut batch = perf::batch_summary_from_interval(single, interval_ns, batch_size)?;
        // Weight bytes cross the bank interface once per batch, not once per
        // request: keep the energy model consistent with the latency model.
        let weight_pj = self.weight_bytes() * self.energy.hbm_access_byte_pj;
        let b = batch_size as f64;
        batch.energy_per_request_pj -= weight_pj * (b - 1.0) / b;
        Ok(batch)
    }

    /// Figure 14 charges NMP's linear layers their near-bank MACs plus the
    /// full weight stream from the HBM banks.
    fn linear_layer_energy_pj(&self, seq_len: usize) -> Result<f64> {
        let stages = ops_count::model_ops(&self.model, seq_len);
        let linear_macs: f64 = stages
            .iter()
            .filter(|s| s.stage.is_static_weight())
            .map(|s| s.ops as f64)
            .sum();
        // Weights stream from the HBM banks for every inference.
        Ok(linear_macs * self.mac_pj() + self.weight_bytes() * self.energy.hbm_access_byte_pj)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::HyFlexPim;

    fn total_pj(backend: &dyn Backend, seq_len: usize) -> f64 {
        backend
            .evaluate(&InferenceRequest::of_len(0, seq_len))
            .unwrap()
            .energy
            .total_pj()
    }

    #[test]
    fn nmp_is_cheaper_than_dram_bound_but_more_expensive_than_pim() {
        let model = ModelConfig::bert_large();
        let nmp = NearMemoryProcessing::new(model.clone());
        let non_pim = crate::NonPim::new(model.clone());
        let hyflex = HyFlexPim::paper(model, 0.05).unwrap();
        let nmp_e = total_pj(&nmp, 128);
        assert!(nmp_e < total_pj(&non_pim, 128));
        assert!(total_pj(&hyflex, 128) < nmp_e);
    }

    #[test]
    fn linear_energy_includes_weight_streaming() {
        let model = ModelConfig::bert_base();
        let nmp = NearMemoryProcessing::new(model.clone());
        let at_n1 = nmp.linear_layer_energy_pj(1).unwrap();
        // Even a single-token inference pays the full weight traffic.
        let weight_bytes = model.static_params_total() as f64;
        assert!(at_n1 > weight_bytes * EnergyModel::default().hbm_access_byte_pj);
        let summary = nmp.evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
        assert!(summary.tops_per_mm2 > 0.0);
    }

    #[test]
    fn batching_amortizes_weight_streaming_in_energy_and_latency_alike() {
        let model = ModelConfig::bert_base();
        let nmp = NearMemoryProcessing::new(model.clone());
        let b1 = nmp.evaluate_batched(128, 1).unwrap();
        let b8 = nmp.evaluate_batched(128, 8).unwrap();
        // A batch of one amortizes nothing.
        assert_eq!(b1.energy_per_request_pj, b1.single.energy.total_pj());
        assert_eq!(b1.makespan_ns, b1.single.latency.total_ns());
        // Larger batches stream the weight set once per batch: both the
        // per-request energy and the initiation interval drop below the
        // single-request figures, and energy stays above the no-weight floor.
        assert!(b8.energy_per_request_pj < b1.energy_per_request_pj);
        let weight_pj =
            model.static_params_total() as f64 * EnergyModel::default().hbm_access_byte_pj;
        assert!(b8.energy_per_request_pj > b1.energy_per_request_pj - weight_pj);
        assert!(b8.initiation_interval_ns <= b8.first_request_ns);
        // Compute-bound at this shape: batching can only help, never hurt.
        assert!(b8.requests_per_s >= b1.requests_per_s);
    }
}
