//! ASADI and ASADI† baseline models.
//!
//! ASADI (HPCA'24) is the closest prior design: a hybrid analog/digital RRAM
//! PIM for transformers. The differences the paper exploits are (1) ASADI
//! stores every linear-layer weight in SLC, forgoing the density/efficiency
//! of MLC, and (2) its attention path runs at FP32. Its diagonal-compression
//! scheme does reduce attention work, which is credited here as a fixed
//! attention-sparsity factor. ASADI† is the paper's fairer variant with INT8
//! linear layers.

use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::energy_breakdown::EnergyBreakdown;
use hyflex_pim::perf::{Deployment, PerfSummary, PerformanceModel};
use hyflex_pim::Result;
use hyflex_transformer::config::ModelConfig;
use serde::{Deserialize, Serialize};

/// Precision of ASADI's linear-layer datapath.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AsadiPrecision {
    /// Published ASADI: FP32 everywhere.
    Fp32,
    /// ASADI†: INT8 linear layers (conservative comparison).
    Int8,
}

/// Fraction of attention work ASADI's diagonal compression removes.
pub const ASADI_ATTENTION_SAVINGS: f64 = 0.3;

/// The ASADI / ASADI† baseline, bound to the model it serves.
#[derive(Debug, Clone)]
pub struct Asadi {
    perf: PerformanceModel,
    /// The all-SLC mapping — the defining difference from HyFlexPIM —
    /// deployed once at construction.
    deployment: Deployment,
    model: ModelConfig,
    precision: AsadiPrecision,
}

impl Asadi {
    /// Deploys `model` all-SLC on the paper's hardware at the chosen
    /// precision.
    ///
    /// # Errors
    ///
    /// Propagates mapping errors.
    pub fn new(precision: AsadiPrecision, model: ModelConfig) -> Result<Self> {
        let perf = PerformanceModel::paper_default();
        let deployment = perf.deploy(&model, 1.0)?;
        Ok(Asadi {
            perf,
            deployment,
            model,
            precision,
        })
    }

    /// FP32 stores and moves 4x the bits of INT8; bit-serial analog PIM work
    /// scales with the operand width.
    fn linear_precision_factor(&self) -> f64 {
        match self.precision {
            AsadiPrecision::Fp32 => 4.0,
            AsadiPrecision::Int8 => 1.0,
        }
    }

    /// Attention always runs at FP32 in both ASADI variants.
    fn attention_precision_factor(&self) -> f64 {
        4.0
    }

    fn scaled_energy(&self, mut energy: EnergyBreakdown) -> EnergyBreakdown {
        let linear_factor = self.linear_precision_factor();
        energy.linear_adc_pj *= linear_factor;
        energy.analog_rram_read_pj *= linear_factor;
        energy.analog_rram_write_pj *= linear_factor;
        energy.sh_sa_pj *= linear_factor;
        energy.analog_wldrv_pj *= linear_factor;
        let attention_factor = self.attention_precision_factor() * (1.0 - ASADI_ATTENTION_SAVINGS);
        energy.attention_dot_product_pj *= attention_factor;
        energy.digital_wldrv_pj *= attention_factor;
        energy.digital_rram_write_pj *= self.attention_precision_factor();
        energy
    }
}

impl Backend for Asadi {
    fn name(&self) -> &str {
        match self.precision {
            AsadiPrecision::Fp32 => "ASADI",
            AsadiPrecision::Int8 => "ASADI\u{2020}",
        }
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    /// ASADI's tile budget mirrors HyFlexPIM's digital-PIM capacity (same
    /// class of hybrid design).
    fn capacity(&self) -> usize {
        self.perf.hw().digital_cells_per_pu()
    }

    /// Per-layer dynamic state like the common model, but ASADI's FP32
    /// attention state is 4× wider (and in the FP32 variant so is the rest).
    fn request_cells(&self, seq_len: usize) -> usize {
        let (model, n) = (&self.model, seq_len);
        let attention_state = model.num_heads * n * n;
        let linear_state = 3 * n * model.hidden_dim + n * model.hidden_dim + n * model.ffn_dim;
        (linear_state * self.linear_precision_factor() as usize
            + attention_state * self.attention_precision_factor() as usize)
            * 8
    }

    /// ASADI through the all-SLC mapping: the same layer-pipeline latency
    /// model as HyFlexPIM evaluated at a 100 % SLC rate (twice the occupied
    /// arrays per layer ⇒ more serialized passes), with every stage
    /// stretched by the bit-serial operand width (4× for the FP32 variant —
    /// analog reads, digital products, SFU, and activation movement all
    /// scale with the operand bits).
    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        let base = self
            .perf
            .evaluate_deployed(&self.model, &self.deployment, request.seq_len);
        let energy = self.scaled_energy(base.energy);
        let stretch = self.linear_precision_factor();
        let mut latency = base.latency;
        latency.analog_ns *= stretch;
        latency.digital_ns *= stretch;
        latency.sfu_ns *= stretch;
        latency.interconnect_ns *= stretch;
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

    fn tops(backend: &dyn Backend, seq_len: usize) -> f64 {
        backend
            .evaluate(&InferenceRequest::of_len(0, seq_len))
            .unwrap()
            .tops_per_mm2
    }

    #[test]
    fn fp32_variant_is_more_expensive_than_int8_variant() {
        let model = ModelConfig::bert_large();
        let fp32 = Asadi::new(AsadiPrecision::Fp32, model.clone()).unwrap();
        let int8 = Asadi::new(AsadiPrecision::Int8, model).unwrap();
        assert!(
            fp32.linear_layer_energy_pj(128).unwrap() > int8.linear_layer_energy_pj(128).unwrap()
        );
        let total = |b: &Asadi| {
            b.evaluate(&InferenceRequest::of_len(0, 128))
                .unwrap()
                .energy
                .total_pj()
        };
        assert!(total(&fp32) > total(&int8));
        assert!(tops(&fp32, 128) < tops(&int8, 128));
        assert_eq!(int8.name(), "ASADI\u{2020}");
        assert_eq!(fp32.name(), "ASADI");
    }

    #[test]
    fn asadi_linear_energy_exceeds_hybrid_mapping_by_a_modest_factor() {
        // Figure 14: HyFlexPIM at 5% SLC is up to ~1.24x more efficient than
        // ASADI-dagger on linear layers.
        let model = ModelConfig::bert_large();
        let asadi = Asadi::new(AsadiPrecision::Int8, model.clone()).unwrap();
        let hyflex = HyFlexPim::paper(model, 0.05).unwrap();
        let ratio = asadi.linear_layer_energy_pj(128).unwrap()
            / hyflex.linear_layer_energy_pj(128).unwrap();
        assert!(ratio > 1.05 && ratio < 2.5, "ratio {ratio:.2}");
    }

    #[test]
    fn asadi_throughput_deficit_is_in_the_paper_band() {
        // Figure 16: HyFlexPIM achieves 1.1 - 1.86x speedup over ASADI-dagger.
        let model = ModelConfig::bert_large();
        let asadi = Asadi::new(AsadiPrecision::Int8, model.clone()).unwrap();
        let hyflex = HyFlexPim::paper(model, 0.1).unwrap();
        let speedup = tops(&hyflex, 1024) / tops(&asadi, 1024);
        assert!((1.0..3.0).contains(&speedup), "speedup {speedup:.2}");
    }
}
