//! SPRINT baseline model.
//!
//! SPRINT (MICRO'22) uses analog RRAM PIM only as a pre-processor: it
//! computes approximate `Q·K` correlation scores in memory to prune
//! unimportant tokens (74.6 % attention sparsity), then runs every remaining
//! operation — including all linear layers — on a conventional digital INT8
//! processor backed by on-chip SRAM and RRAM storage. Its shortcoming, which
//! the paper leverages, is that the dominant FFN/projection work never
//! benefits from in-memory computing.

use crate::{int8_activation_cells, DEFAULT_TILE_BUFFER_BYTES};
use hyflex_circuits::EnergyModel;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::energy_breakdown::EnergyBreakdown;
use hyflex_pim::perf::{self, BatchPerfSummary, LatencyBreakdown, PerfSummary};
use hyflex_pim::Result;
use hyflex_transformer::config::ModelConfig;
use hyflex_transformer::ops_count::{self, Stage};

/// Attention sparsity achieved by SPRINT's in-memory token pruning.
pub const SPRINT_ATTENTION_SPARSITY: f64 = 0.746;

/// Peak INT8 throughput of SPRINT's digital processor (operations/second).
pub const SPRINT_PEAK_OPS_PER_S: f64 = 2.0e12;

/// Average number of times each weight byte is streamed from memory per
/// inference (tile re-fetches while iterating over the sequence).
pub const WEIGHT_STREAM_FACTOR: f64 = 1.5;

/// Die area of the SPRINT-style digital accelerator, mm² (65 nm).
pub const SPRINT_AREA_MM2: f64 = 30.0;

/// Throughput of the in-RRAM pruning pre-processor, (query, key) pairs per
/// second: the MSB-precision correlation pass runs massively parallel across
/// the crossbar banks, so it contributes only a small latency term.
pub const SPRINT_PRUNE_PAIRS_PER_S: f64 = 1.0e13;

/// Aggregate on-chip memory bandwidth feeding the digital datapath, bytes
/// per second. Weight streaming overlaps with compute; only the excess over
/// the compute time is exposed as stall.
pub const SPRINT_MEM_BYTES_PER_S: f64 = 1.0e12;

/// The SPRINT baseline, bound to the model it serves.
#[derive(Debug, Clone)]
pub struct Sprint {
    energy: EnergyModel,
    model: ModelConfig,
}

/// Per-inference operation tallies: linear-layer MACs, attention MACs, and
/// softmax elements.
struct StageTally {
    linear_macs: f64,
    attention_macs: f64,
    softmax_elems: f64,
}

impl Sprint {
    /// Creates the baseline for `model` with the shared 65 nm energy
    /// constants.
    pub fn new(model: ModelConfig) -> Self {
        Sprint {
            energy: EnergyModel::default(),
            model,
        }
    }

    fn tally(&self, seq_len: usize) -> StageTally {
        let mut tally = StageTally {
            linear_macs: 0.0,
            attention_macs: 0.0,
            softmax_elems: 0.0,
        };
        for s in &ops_count::model_ops(&self.model, seq_len) {
            match s.stage {
                Stage::TokenGenerationFc | Stage::ProjectionFc | Stage::Ffn1 | Stage::Ffn2 => {
                    tally.linear_macs += s.ops as f64
                }
                Stage::ScoreQKt | Stage::ProbV => tally.attention_macs += s.ops as f64,
                Stage::Softmax => tally.softmax_elems += s.ops as f64,
            }
        }
        tally
    }

    fn breakdown(&self, seq_len: usize, tally: &StageTally) -> EnergyBreakdown {
        let model = &self.model;
        let mut energy = EnergyBreakdown::default();
        // Linear layers: digital INT8 MACs plus weight streaming. SPRINT's
        // RRAM is used for storage and token pruning, not as a weight-
        // stationary compute fabric, so the multi-hundred-megabyte weight set
        // still streams through the off-chip interface and the on-chip cache
        // while the sequence is processed.
        energy.digital_mac_pj = tally.linear_macs * self.energy.int8_mac_pj;
        let weight_bytes = model.static_params_total() as f64 * WEIGHT_STREAM_FACTOR;
        energy.dram_access_pj = weight_bytes * self.energy.dram_access_byte_pj;
        energy.sram_access_pj = weight_bytes * self.energy.sram_cache_byte_pj;

        // Attention: 74.6% pruned by the in-RRAM pre-processor; the surviving
        // fraction runs on the digital datapath. The pruning pass itself costs
        // one analog MAC-equivalent per (query, key) pair at MSB precision.
        let surviving = 1.0 - SPRINT_ATTENTION_SPARSITY;
        energy.digital_mac_pj += tally.attention_macs * surviving * self.energy.int8_mac_pj;
        let pruning_pairs = (seq_len * seq_len * model.num_layers) as f64;
        energy.linear_adc_pj = pruning_pairs * self.energy.adc_conversion_pj;
        energy.analog_rram_read_pj = pruning_pairs / 128.0 * self.energy.analog_array_read_cycle_pj;

        // Softmax and other non-linearities on the digital datapath.
        energy.sfu_pj = tally.softmax_elems * surviving * self.energy.sfu_element_pj;

        // Activations move between the processor and SRAM every layer.
        let activation_bytes = (seq_len * model.hidden_dim * model.num_layers) as f64;
        energy.sram_access_pj += activation_bytes * 4.0 * self.energy.sram_cache_byte_pj;
        energy
    }
}

impl Backend for Sprint {
    fn name(&self) -> &str {
        "SPRINT"
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

    /// Sparsity-scaled digital timing: the datapath executes the linear
    /// layers in full and only the surviving 25.4 % of the attention work;
    /// the in-RRAM pruning pass adds a small analog term, and weight
    /// streaming is exposed only where it exceeds the compute time.
    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        let (model, seq_len) = (&self.model, request.seq_len);
        let tally = self.tally(seq_len);
        let surviving = 1.0 - SPRINT_ATTENTION_SPARSITY;
        let digital_s =
            (tally.linear_macs + tally.attention_macs * surviving) * 2.0 / SPRINT_PEAK_OPS_PER_S;
        let sfu_s = tally.softmax_elems * surviving * 2.0 / SPRINT_PEAK_OPS_PER_S;
        let pruning_pairs = (seq_len * seq_len * model.num_layers) as f64;
        let analog_s = pruning_pairs / SPRINT_PRUNE_PAIRS_PER_S;
        let weight_bytes = model.static_params_total() as f64 * WEIGHT_STREAM_FACTOR;
        let mem_s = weight_bytes / SPRINT_MEM_BYTES_PER_S;
        let interconnect_s = (mem_s - digital_s).max(0.0);
        let latency = LatencyBreakdown {
            analog_ns: analog_s * 1e9,
            digital_ns: digital_s * 1e9,
            sfu_ns: sfu_s * 1e9,
            interconnect_ns: interconnect_s * 1e9,
            queueing_ns: 0.0,
        };
        let total_ops = ops_count::total_ops(model, seq_len) * 2;
        Ok(PerfSummary::from_parts(
            self.breakdown(seq_len, &tally),
            latency,
            total_ops,
            SPRINT_AREA_MM2,
            1,
        ))
    }

    /// SPRINT's digital processor works through a batch serially (weight
    /// streaming already overlaps compute for any realistic shape, so there
    /// is no traffic left for batching to amortize): the initiation interval
    /// is the full request latency.
    fn evaluate_batched(&self, seq_len: usize, batch_size: usize) -> Result<BatchPerfSummary> {
        let single = self.evaluate(&InferenceRequest::of_len(0, seq_len))?;
        let interval_ns = single.latency.total_ns();
        perf::batch_summary_from_interval(single, interval_ns, batch_size)
    }

    /// Figure 14 charges SPRINT's linear layers their digital MACs plus the
    /// full weight stream through DRAM and the SRAM cache.
    fn linear_layer_energy_pj(&self, seq_len: usize) -> Result<f64> {
        let linear_macs = self.tally(seq_len).linear_macs;
        let weight_bytes = self.model.static_params_total() as f64 * WEIGHT_STREAM_FACTOR;
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
    fn pruning_only_helps_attention_not_linear_layers() {
        let sprint = Sprint::new(ModelConfig::bert_large());
        let short = summary(&sprint, 128).energy.total_pj();
        let long = summary(&sprint, 1024).energy.total_pj();
        assert!(long > short);
        // Linear energy scales linearly with N and dominates at short N.
        let linear = sprint.linear_layer_energy_pj(128).unwrap();
        assert!(linear / short > 0.5);
    }

    #[test]
    fn hyflexpim_advantage_over_sprint_is_large_and_shrinks_with_n() {
        // Figure 14/16: the advantage is biggest at small N where FFNs
        // dominate and SPRINT accelerates nothing of them.
        let model = ModelConfig::bert_large();
        let sprint = Sprint::new(model.clone());
        let hyflex = HyFlexPim::paper(model, 0.1).unwrap();
        let ratio_at = |n: usize| {
            sprint.linear_layer_energy_pj(n).unwrap() / hyflex.linear_layer_energy_pj(n).unwrap()
        };
        let small = ratio_at(128);
        assert!(
            small > 1.2,
            "expected a clear linear-layer gain, got {small:.2}"
        );
        let speedup = summary(&hyflex, 128).tops_per_mm2 / summary(&sprint, 128).tops_per_mm2;
        assert!(speedup > 3.0, "throughput speedup {speedup:.1}");
    }
}
