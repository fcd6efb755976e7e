//! Structural architecture model: chip → processing units → PIM modules.
//!
//! Figure 5 of the paper: a HyFlexPIM chip contains 24 processing units
//! (PUs); each PU contains 24 analog PIM modules (512 arrays of 64×128 cells
//! each) and 8 digital PIM modules (256 arrays of 1024×1024 cells each) plus
//! a special function unit. Each PU is normally dedicated to one transformer
//! layer so the PUs form a layer pipeline; Section 3.1 describes the three
//! scaling modes (multiple PUs per layer, multiple layers per PU, multiple
//! chips) that [`crate::scalability`] models quantitatively.

use crate::config::HyFlexPimConfig;
use crate::Result;
use hyflex_transformer::config::{ModelConfig, StaticLayerKind};

/// The chip-level structural model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chip {
    config: HyFlexPimConfig,
}

impl Chip {
    /// Builds a chip from a validated configuration.
    ///
    /// # Errors
    ///
    /// Returns configuration errors.
    pub fn new(config: HyFlexPimConfig) -> Result<Self> {
        config.validate()?;
        Ok(Chip { config })
    }

    /// The underlying configuration.
    pub fn config(&self) -> &HyFlexPimConfig {
        &self.config
    }

    /// Number of processing units.
    fn pus(&self) -> usize {
        self.config.pus_per_chip
    }

    /// Analog cells needed to store one transformer layer's static weights
    /// when `slc_rank_fraction` of the factored ranks are stored in SLC.
    ///
    /// Weights are counted in their factored form (`U` plus `Σ·Vᵀ` at the
    /// hard-threshold rank, which is parameter-neutral versus dense).
    fn analog_cells_for_layer(&self, model: &ModelConfig, slc_rank_fraction: f64) -> usize {
        let slc = slc_rank_fraction.clamp(0.0, 1.0);
        let slc_cells_per_weight = self.config.slc_cells_per_weight() as f64;
        let mlc_cells_per_weight = self.config.mlc_cells_per_weight() as f64;
        let mut cells = 0.0f64;
        for layer in StaticLayerKind::all() {
            let (rows, cols) = model.static_layer_shape(layer);
            let weights = (rows * cols) as f64;
            cells += weights * (slc * slc_cells_per_weight + (1.0 - slc) * mlc_cells_per_weight);
        }
        cells.ceil() as usize
    }

    /// Digital cells needed per layer for the dynamically generated data
    /// (Q, K, V, attention scores and the intermediate FFN activation) at
    /// sequence length `seq_len`, stored as INT8 SLC.
    pub fn digital_cells_for_layer(&self, model: &ModelConfig, seq_len: usize) -> usize {
        let n = seq_len;
        let dh = model.hidden_dim;
        let dff = model.ffn_dim;
        // Q, K, V (3·N·Dh), scores (heads·N·N), attention output (N·Dh),
        // FFN intermediate (N·Dff) — all INT8, one byte per element.
        let elements = 3 * n * dh + model.num_heads * n * n + n * dh + n * dff;
        elements * usize::from(self.config.weight_bits)
    }

    /// PUs needed to hold one layer's static weights: the analog half of the
    /// PUs one layer needs, fixed once the model is mapped (it does not
    /// depend on sequence length).
    pub(crate) fn analog_pus_per_layer(
        &self,
        model: &ModelConfig,
        slc_rank_fraction: f64,
    ) -> usize {
        let analog_needed = self.analog_cells_for_layer(model, slc_rank_fraction);
        analog_needed.div_ceil(self.config.analog_cells_per_pu())
    }

    /// Number of PUs needed to hold one layer (tensor parallelism, scaling
    /// case 1 of Section 3.1) from its precomputed analog half
    /// ([`Chip::analog_pus_per_layer`]): the larger of that and the PUs the
    /// layer's dynamic data needs at `seq_len`, at least 1.
    pub(crate) fn pus_per_layer_given_analog(
        &self,
        analog_pus: usize,
        model: &ModelConfig,
        seq_len: usize,
    ) -> usize {
        let digital_needed = self.digital_cells_for_layer(model, seq_len);
        let by_digital = digital_needed.div_ceil(self.config.digital_cells_per_pu());
        analog_pus.max(by_digital).max(1)
    }

    /// Number of chips needed for the whole model when each layer occupies
    /// `pus_per_layer` PUs.
    pub(crate) fn chips_for_layer_pus(&self, pus_per_layer: usize, model: &ModelConfig) -> usize {
        let total_pus = pus_per_layer * model.num_layers;
        total_pus.div_ceil(self.pus())
    }

    /// Total analog weight-storage requirement of the model in bytes
    /// (Figure 17's "Analog PIM RRAM" bars), independent of cell mode.
    pub fn model_analog_weight_bytes(&self, model: &ModelConfig) -> f64 {
        model.static_params_total() as f64 * f64::from(self.config.weight_bits) / 8.0
    }

    /// Total digital storage requirement of the model at `seq_len`, bytes.
    pub fn model_digital_bytes(&self, model: &ModelConfig, seq_len: usize) -> f64 {
        (self.digital_cells_for_layer(model, seq_len) * model.num_layers) as f64 / 8.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_chip() -> Chip {
        Chip::new(HyFlexPimConfig::paper_default()).unwrap()
    }

    fn pus_per_layer(chip: &Chip, model: &ModelConfig, seq_len: usize, slc: f64) -> usize {
        let by_analog = chip.analog_pus_per_layer(model, slc);
        chip.pus_per_layer_given_analog(by_analog, model, seq_len)
    }

    #[test]
    fn pu_resources_match_table_2_geometry() {
        let chip = paper_chip();
        let config = chip.config();
        assert_eq!(
            config.analog_modules_per_pu * config.analog_arrays_per_module,
            24 * 512
        );
        assert_eq!(config.analog_cells_per_pu(), 24 * 512 * 64 * 128);
        assert_eq!(config.digital_cells_per_pu(), 8 * 256 * 1024 * 1024);
        assert_eq!(chip.pus(), 24);
    }

    #[test]
    fn mlc_mapping_needs_half_the_cells_of_slc() {
        let chip = paper_chip();
        let model = ModelConfig::bert_large();
        let all_slc = chip.analog_cells_for_layer(&model, 1.0);
        let all_mlc = chip.analog_cells_for_layer(&model, 0.0);
        assert_eq!(all_slc, 2 * all_mlc);
        // 10% SLC sits between the two, closer to the MLC end.
        let hybrid = chip.analog_cells_for_layer(&model, 0.1);
        assert!(hybrid > all_mlc && hybrid < all_slc);
        assert!((hybrid as f64) < 0.6 * all_slc as f64);
    }

    #[test]
    fn bert_large_fits_one_layer_per_pu_in_hybrid_mode() {
        // Section 5.4: each PU is assigned one BERT-Large layer.
        let chip = paper_chip();
        let model = ModelConfig::bert_large();
        assert_eq!(pus_per_layer(&chip, &model, 128, 0.1), 1);
        assert_eq!(chip.chips_for_layer_pus(1, &model), 1);
        assert_eq!(chip.pus(), 24);
    }

    #[test]
    fn gpt2_gets_two_layers_per_pu_worth_of_headroom() {
        // BERT-Base and GPT-2 have 12 layers, so a 24-PU chip can dedicate
        // two PUs per layer (the paper's 2x throughput argument).
        let chip = paper_chip();
        let model = ModelConfig::gpt2_small();
        let per_layer = pus_per_layer(&chip, &model, 1024, 0.2);
        assert_eq!(per_layer, 1);
        assert!(chip.pus() / per_layer >= 12);
    }

    #[test]
    fn llama3_needs_multiple_pus_and_chips_at_long_sequences() {
        // Section 6.3.5: Llama3 layers exceed one PU and the model needs at
        // least two chips.
        let chip = paper_chip();
        let model = ModelConfig::llama3_1b();
        let per_layer = pus_per_layer(&chip, &model, 8192, 0.2);
        assert!(
            per_layer >= 2,
            "expected >=2 PUs per Llama3 layer, got {per_layer}"
        );
        let chips = chip.chips_for_layer_pus(per_layer, &model);
        assert!(chips >= 2, "expected >=2 chips, got {chips}");
    }

    #[test]
    fn capacity_errors_are_reported() {
        let mut config = HyFlexPimConfig::paper_default();
        config.analog_arrays_per_module = 4;
        config.digital_arrays_per_module = 4;
        let chip = Chip::new(config).unwrap();
        let model = ModelConfig::llama3_1b();
        assert!(pus_per_layer(&chip, &model, 8192, 0.5) > chip.pus());
    }

    #[test]
    fn memory_requirement_helpers_scale_with_model_and_sequence() {
        let chip = paper_chip();
        let gpt2 = ModelConfig::gpt2_small();
        let llama = ModelConfig::llama3_1b();
        assert!(chip.model_analog_weight_bytes(&llama) > chip.model_analog_weight_bytes(&gpt2));
        assert!(chip.model_digital_bytes(&gpt2, 8192) > chip.model_digital_bytes(&gpt2, 1024));
    }
}
