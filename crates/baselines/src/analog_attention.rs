//! Analog in-memory attention over a runtime-programmed KV cache.
//!
//! Models the serving-oriented designs of Leroux et al. (arXiv:2409.19315)
//! and Moradifirouzabadi et al. (arXiv:2409.04940): the attention score and
//! context products execute *inside* analog crossbars, against key/value
//! operands that are programmed into the arrays at runtime as the sequence
//! grows. Linear layers stay all-SLC INT8 (ASADI-style); the defining trade
//! is that cheap in-memory attention reads are bought with RRAM programming
//! of every cached K/V row.
//!
//! That trade is exactly backwards for the prefill/encoder regime the paper's
//! figures evaluate — a whole prompt's KV must be programmed for one pass
//! over it — which is why this design loses the Figure 14/15 comparisons.
//! It earns its keep in decode serving, where the marginal step programs a
//! single token and then attends over an already-programmed cache (see
//! `Backend::evaluate_decode_step`, whose component-wise marginal pricing
//! charges precisely that).

use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::mapping::{kv_token_cost, KvTokenCost};
use hyflex_pim::perf::{Deployment, PerfSummary, PerformanceModel};
use hyflex_pim::Result;
use hyflex_transformer::config::ModelConfig;

/// Fraction of the digital-PIM dot-product energy the analog attention path
/// retains. Charge-domain analog MACs drop the per-operation switching
/// energy, but the score/context results still pay ADC conversions, which
/// dominate the residual — both cited designs land near half the digital
/// energy once conversion overheads are counted.
pub const ANALOG_ATTENTION_EFFICIENCY: f64 = 0.5;

/// The analog in-memory attention baseline, bound to the model it serves.
#[derive(Debug, Clone)]
pub struct AnalogAttention {
    perf: PerformanceModel,
    /// Linear layers keep the all-SLC mapping (no hybrid protection
    /// scheme), deployed once at construction.
    deployment: Deployment,
    /// Cost of programming one token's K/V rows into SLC.
    kv: KvTokenCost,
    model: ModelConfig,
}

impl AnalogAttention {
    /// Deploys `model` on the paper's hardware constants.
    ///
    /// # Errors
    ///
    /// Propagates mapping and hardware-configuration errors.
    pub fn new(model: ModelConfig) -> Result<Self> {
        let perf = PerformanceModel::paper_default();
        let deployment = perf.deploy(&model, 1.0)?;
        let kv = kv_token_cost(&model, perf.hw(), perf.energy_model())?;
        Ok(AnalogAttention {
            perf,
            deployment,
            kv,
            model,
        })
    }
}

impl Backend for AnalogAttention {
    fn name(&self) -> &str {
        "AnalogAttention"
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// The KV cache lives in analog crossbars, so requests are admitted
    /// against the analog capacity of one PU.
    fn capacity(&self) -> usize {
        self.perf.hw().analog_cells_per_pu()
    }

    /// Cells one request's programmed KV occupies: K and V rows for every
    /// token of every layer, in SLC.
    fn request_cells(&self, seq_len: usize) -> usize {
        let values_per_token = 2 * self.model.hidden_dim * self.model.num_layers;
        seq_len * values_per_token * usize::from(self.perf.hw().weight_bits)
    }

    /// The all-SLC evaluation with the attention dot products moved into the
    /// analog arrays: their energy shrinks to [`ANALOG_ATTENTION_EFFICIENCY`]
    /// of the digital cost, and in exchange every one of the sequence's K/V
    /// rows is programmed into SLC crossbars at runtime — an
    /// `analog_rram_write` energy adder and a per-layer write-pulse latency
    /// adder, both linear in the sequence length.
    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        let base = self
            .perf
            .evaluate_deployed(&self.model, &self.deployment, request.seq_len);
        let tokens = request.seq_len as f64;
        let mut energy = base.energy;
        energy.attention_dot_product_pj *= ANALOG_ATTENTION_EFFICIENCY;
        energy.analog_rram_write_pj += tokens * self.kv.slc_write_pj;
        let mut latency = base.latency;
        latency.analog_ns += tokens * self.kv.slc_write_ns;
        Ok(PerfSummary::from_parts(
            energy,
            latency,
            base.total_ops,
            base.area_mm2,
            base.chips,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_pim::energy_breakdown::EnergyBreakdown;

    fn energy(backend: &dyn Backend, seq_len: usize) -> EnergyBreakdown {
        backend
            .evaluate(&InferenceRequest::of_len(0, seq_len))
            .unwrap()
            .energy
    }

    #[test]
    fn prefill_regime_loses_to_hybrid_hyflexpim() {
        // Figure 14/15 conditions: BERT-Large at N = 128. Programming the
        // whole prompt's KV for a single pass costs more than the analog
        // attention saves, and the all-SLC linear mapping gives up the MLC
        // density win.
        let model = ModelConfig::bert_large();
        let ours = AnalogAttention::new(model.clone()).unwrap();
        let hyflex = HyFlexPim::paper(model, 0.05).unwrap();
        assert!(
            ours.linear_layer_energy_pj(128).unwrap() > hyflex.linear_layer_energy_pj(128).unwrap()
        );
        assert!(energy(&ours, 128).total_pj() > energy(&hyflex, 128).total_pj());
    }

    #[test]
    fn kv_programming_shows_up_as_analog_writes() {
        let model = ModelConfig::bert_large();
        let ours = AnalogAttention::new(model.clone()).unwrap();
        let short = energy(&ours, 64);
        let long = energy(&ours, 128);
        // The write adder grows with the sequence, and dominates the
        // amortized one-time weight programming of the base evaluation.
        assert!(long.analog_rram_write_pj > 1.9 * short.analog_rram_write_pj);
        // Attention runs cheaper than the digital-PIM baseline path.
        let digital = energy(&HyFlexPim::paper(model, 1.0).unwrap(), 128);
        assert!(long.attention_dot_product_pj < digital.attention_dot_product_pj);
    }

    #[test]
    fn decode_step_is_cheap_relative_to_prefill() {
        let backend = AnalogAttention::new(ModelConfig::bert_large()).unwrap();
        let prefill = backend.evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
        let step = backend.evaluate_decode_step(128, 1).unwrap();
        // One decoded token programs one token's KV, not 128 of them.
        assert!(
            step.single.energy.analog_rram_write_pj < prefill.energy.analog_rram_write_pj / 64.0
        );
        assert!(step.single.latency.total_ns() < prefill.latency.total_ns() / 8.0);
    }

    #[test]
    fn kv_capacity_bounds_requests() {
        let ours = AnalogAttention::new(ModelConfig::bert_large()).unwrap();
        assert!(ours.request_cells(128) <= ours.capacity());
        // Cache cells grow linearly with context.
        assert_eq!(ours.request_cells(128), 2 * ours.request_cells(64));
    }
}
