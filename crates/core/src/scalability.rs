//! Scalability analysis: tensor and pipeline parallelism (paper Figure 17).
//!
//! Section 3.1 describes three scaling modes:
//!
//! 1. Long sequences or wide hidden dimensions: several PUs cooperate on one
//!    layer, exchanging small partial sums (<3 KB) over the on-chip
//!    interconnect.
//! 2. Models with fewer layers than PUs (GPT-2, BERT-Base): several PUs
//!    compute one layer in parallel, nearly doubling throughput.
//! 3. Models too large for one chip (Llama3 at long sequences): layers are
//!    spread across chips connected by PCIe 6.0, passing only a single
//!    hidden-state vector (0.75–2 KB) per token between chips.
//!
//! Figure 17 reports memory requirements at N = 8192 and the resulting
//! throughput scaling; this module reproduces both.

use crate::arch::Chip;
use crate::config::{GLOBAL_BUS_BYTES_PER_S, ON_CHIP_INTERCONNECT_BYTES_PER_S};
use crate::error::PimError;
use crate::perf::{EvaluationPoint, PerformanceModel};
use crate::Result;
use hyflex_transformer::config::ModelConfig;

/// Memory requirement of a model on HyFlexPIM (Figure 17 left axis).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MemoryRequirement {
    /// Static weights held in analog PIM RRAM, bytes.
    pub analog_bytes: f64,
    /// Dynamic data held in digital PIM RRAM, bytes.
    pub digital_bytes: f64,
}

impl MemoryRequirement {
    /// Total bytes.
    fn total_bytes(&self) -> f64 {
        self.analog_bytes + self.digital_bytes
    }

    /// Total gigabytes.
    pub fn total_gb(&self) -> f64 {
        self.total_bytes() / 1e9
    }
}

/// One throughput-scaling configuration (a bar of Figure 17's right axis).
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingPoint {
    /// Configuration label (e.g. "GPT-2 x2 PUs", "Llama3 quad-chip").
    pub label: String,
    /// Number of PUs cooperating on each layer.
    pub pus_per_layer: usize,
    /// Number of chips used.
    pub chips: usize,
    /// Throughput normalized to the single-PU-per-layer (or dual-chip) base.
    pub normalized_throughput: f64,
    /// The ideal (communication-free) normalized throughput.
    pub ideal_throughput: f64,
}

/// The scalability model.
#[derive(Debug, Clone)]
pub struct ScalabilityModel {
    perf: PerformanceModel,
}

impl ScalabilityModel {
    /// Builds the model on top of a performance model.
    pub fn new(perf: PerformanceModel) -> Self {
        ScalabilityModel { perf }
    }

    /// The paper's configuration.
    pub fn paper_default() -> Self {
        ScalabilityModel::new(PerformanceModel::paper_default())
    }

    /// Memory requirement of a model at sequence length `seq_len`.
    ///
    /// # Errors
    ///
    /// Returns configuration errors.
    pub fn memory_requirement(
        &self,
        model: &ModelConfig,
        seq_len: usize,
    ) -> Result<MemoryRequirement> {
        let chip = Chip::new(*self.perf.hw())?;
        Ok(MemoryRequirement {
            analog_bytes: chip.model_analog_weight_bytes(model),
            digital_bytes: chip.model_digital_bytes(model, seq_len),
        })
    }

    /// Per-token stage latency used as the basis for parallelism overheads.
    fn stage_latency_ns(&self, model: &ModelConfig, seq_len: usize, slc: f64) -> Result<f64> {
        let summary = self.perf.evaluate(&EvaluationPoint {
            model: model.clone(),
            seq_len,
            slc_rank_fraction: slc,
        })?;
        Ok(summary.latency.total_ns() / model.num_layers as f64 / seq_len as f64)
    }

    /// Tensor parallelism: `pus` PUs cooperate on each layer (scaling cases 1
    /// and 2). Returns the throughput normalized to a single PU per layer.
    ///
    /// The overhead is the partial-sum exchange (<3 KB per PU per token) over
    /// the on-chip interconnect, so the result is slightly below the ideal
    /// factor of `pus` (the paper reports 1.99× for two PUs).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] when `pus` is zero.
    fn tensor_parallel_speedup(
        &self,
        model: &ModelConfig,
        seq_len: usize,
        slc: f64,
        pus: usize,
    ) -> Result<ScalingPoint> {
        if pus == 0 {
            return Err(PimError::InvalidConfig("pus must be non-zero".to_string()));
        }
        let stage_ns = self.stage_latency_ns(model, seq_len, slc)?;
        // Partial-sum transfer: each cooperating PU sends <3 KB per token.
        let partial_sum_bytes = 3.0 * 1024.0;
        let comm_ns = if pus > 1 {
            partial_sum_bytes * (pus - 1) as f64 / ON_CHIP_INTERCONNECT_BYTES_PER_S * 1e9
        } else {
            0.0
        };
        let ideal = pus as f64;
        let achieved = ideal * stage_ns / (stage_ns + comm_ns * pus as f64 / ideal);
        Ok(ScalingPoint {
            label: format!("{} x{} PUs per layer", model.name, pus),
            pus_per_layer: pus,
            chips: 1,
            normalized_throughput: achieved,
            ideal_throughput: ideal,
        })
    }

    /// Pipeline parallelism across chips (scaling case 3). Throughput is
    /// normalized to `base_chips` (the minimum configuration, e.g. dual-chip
    /// Llama3), and includes the PCIe hop that forwards one hidden vector per
    /// token between chips.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for zero chip counts or
    /// `chips < base_chips`.
    fn multi_chip_speedup(
        &self,
        model: &ModelConfig,
        seq_len: usize,
        slc: f64,
        base_chips: usize,
        chips: usize,
    ) -> Result<ScalingPoint> {
        if base_chips == 0 || chips < base_chips {
            return Err(PimError::InvalidConfig(format!(
                "invalid chip counts: base {base_chips}, target {chips}"
            )));
        }
        let stage_ns = self.stage_latency_ns(model, seq_len, slc)?;
        let hidden_bytes = model.hidden_dim as f64;
        let hop_ns = hidden_bytes / GLOBAL_BUS_BYTES_PER_S * 1e9;
        let ideal = chips as f64 / base_chips as f64;
        // With more chips the pipeline has more chip-boundary crossings per
        // token; each crossing adds a PCIe hop that cannot be hidden.
        let base_crossings = (base_chips - 1) as f64;
        let crossings = (chips - 1) as f64;
        let base_time = stage_ns + base_crossings * hop_ns / model.num_layers as f64;
        let time = stage_ns / ideal + crossings * hop_ns / model.num_layers as f64;
        let achieved = base_time / time;
        Ok(ScalingPoint {
            label: format!("{} x{} chips", model.name, chips),
            pus_per_layer: 0,
            chips,
            normalized_throughput: achieved,
            ideal_throughput: ideal,
        })
    }

    /// The full Figure 17 sweep: GPT-2 with one and two PUs per layer, and
    /// Llama3 with dual/quad/octa chips, at N = 8192.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    pub fn figure17(&self) -> Result<Vec<ScalingPoint>> {
        let n = 8192;
        let gpt2 = ModelConfig::gpt2_small();
        let llama = ModelConfig::llama3_1b();
        let mut points = vec![
            self.tensor_parallel_speedup(&gpt2, n, 0.2, 1)?,
            self.tensor_parallel_speedup(&gpt2, n, 0.2, 2)?,
            self.multi_chip_speedup(&llama, n, 0.2, 2, 2)?,
            self.multi_chip_speedup(&llama, n, 0.2, 2, 4)?,
            self.multi_chip_speedup(&llama, n, 0.2, 2, 8)?,
        ];
        // Give the Llama3 entries distinguishing labels matching the paper.
        points[2].label = "Llama3 dual-chip".to_string();
        points[3].label = "Llama3 quad-chip".to_string();
        points[4].label = "Llama3 octa-chip".to_string();
        Ok(points)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memory_requirements_rank_models_sensibly() {
        let model = ScalabilityModel::paper_default();
        let gpt2 = model
            .memory_requirement(&ModelConfig::gpt2_small(), 8192)
            .unwrap();
        let llama = model
            .memory_requirement(&ModelConfig::llama3_1b(), 8192)
            .unwrap();
        assert!(llama.analog_bytes > gpt2.analog_bytes);
        assert!(llama.total_gb() > gpt2.total_gb());
        // GPT-2 static weights are ~85M x 1 byte; Llama3 ~1.2B x 1 byte.
        assert!(gpt2.analog_bytes > 50e6 && gpt2.analog_bytes < 200e6);
        assert!(llama.analog_bytes > 0.8e9 && llama.analog_bytes < 2.5e9);
    }

    #[test]
    fn two_pus_per_layer_nearly_double_throughput() {
        let model = ScalabilityModel::paper_default();
        let point = model
            .tensor_parallel_speedup(&ModelConfig::gpt2_small(), 8192, 0.2, 2)
            .unwrap();
        assert!(
            point.normalized_throughput > 1.9 && point.normalized_throughput < 2.0,
            "expected ~1.99x, got {:.3}",
            point.normalized_throughput
        );
        assert_eq!(point.ideal_throughput, 2.0);
    }

    #[test]
    fn multi_chip_scaling_tracks_the_paper_numbers() {
        let model = ScalabilityModel::paper_default();
        let quad = model
            .multi_chip_speedup(&ModelConfig::llama3_1b(), 8192, 0.2, 2, 4)
            .unwrap();
        let octa = model
            .multi_chip_speedup(&ModelConfig::llama3_1b(), 8192, 0.2, 2, 8)
            .unwrap();
        // Paper: 1.96x and 3.65x vs the dual-chip base.
        assert!(
            quad.normalized_throughput > 1.8 && quad.normalized_throughput <= 2.0,
            "quad {:.3}",
            quad.normalized_throughput
        );
        assert!(
            octa.normalized_throughput > 3.2 && octa.normalized_throughput <= 4.0,
            "octa {:.3}",
            octa.normalized_throughput
        );
        assert!(octa.normalized_throughput > quad.normalized_throughput);
    }

    #[test]
    fn figure17_sweep_produces_five_points() {
        let model = ScalabilityModel::paper_default();
        let points = model.figure17().unwrap();
        assert_eq!(points.len(), 5);
        assert!(points.iter().any(|p| p.label.contains("octa")));
        // The single-PU GPT-2 entry is the normalization base.
        assert!((points[0].normalized_throughput - 1.0).abs() < 1e-9);
    }

    #[test]
    fn invalid_parallelism_arguments_are_rejected() {
        let model = ScalabilityModel::paper_default();
        assert!(model
            .tensor_parallel_speedup(&ModelConfig::gpt2_small(), 128, 0.2, 0)
            .is_err());
        assert!(model
            .multi_chip_speedup(&ModelConfig::llama3_1b(), 128, 0.2, 2, 1)
            .is_err());
        assert!(model
            .multi_chip_speedup(&ModelConfig::llama3_1b(), 128, 0.2, 0, 4)
            .is_err());
    }
}
