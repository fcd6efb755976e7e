//! Mapping factored transformer layers onto analog crossbar arrays.
//!
//! After gradient redistribution each static layer is a pair of matrices
//! (`U` of shape `in × k` and `Σ·Vᵀ` of shape `k × out`). The ranks selected
//! for protection live in SLC arrays (8 cell-columns per INT8 weight), the
//! rest in 2-bit MLC arrays (4 cell-columns per weight). This module counts
//! the physical resources each choice consumes — arrays, cells, ADC
//! conversions per token, programming energy — which the performance model
//! then turns into energy and latency.

use crate::config::HyFlexPimConfig;
use crate::error::PimError;
use crate::Result;
use hyflex_circuits::EnergyModel;
use hyflex_tensor::svd::hard_threshold_rank;
use hyflex_transformer::config::{ModelConfig, StaticLayerKind};

/// Resource usage of one stored matrix portion (one mode, one factor).
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct PortionResources {
    /// Number of logical weights stored.
    pub weights: usize,
    /// Number of physical cells used.
    pub cells: usize,
    /// Number of 64×128 arrays occupied.
    pub arrays: usize,
    /// Crossbar read cycles needed per token per input bit
    /// (`row_tiles × column_arrays`).
    pub read_cycles_per_input_bit: usize,
}

/// Complete mapping of one static layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LayerMapping {
    /// Truncated rank `k` (hard threshold).
    pub rank: usize,
    /// Ranks stored in SLC.
    pub slc_ranks: usize,
    /// Ranks stored in MLC.
    pub mlc_ranks: usize,
    /// SLC resources (U columns plus ΣVᵀ rows for protected ranks).
    pub slc: PortionResources,
    /// MLC resources for the unprotected ranks.
    pub mlc: PortionResources,
    /// One-time programming energy for the whole layer, picojoules.
    pub write_energy_pj: f64,
}

impl LayerMapping {
    /// Total arrays occupied by the layer.
    pub fn total_arrays(&self) -> usize {
        self.slc.arrays + self.mlc.arrays
    }
}

fn portion(
    hw: &HyFlexPimConfig,
    rows: usize,
    cols_weights: usize,
    cells_per_weight: usize,
) -> PortionResources {
    if rows == 0 || cols_weights == 0 {
        return PortionResources::default();
    }
    let weights = rows * cols_weights;
    let cells = weights * cells_per_weight;
    let row_tiles = rows.div_ceil(hw.analog_array_rows);
    let col_arrays = (cols_weights * cells_per_weight).div_ceil(hw.analog_array_cols);
    PortionResources {
        weights,
        cells,
        arrays: row_tiles * col_arrays,
        read_cycles_per_input_bit: row_tiles * col_arrays,
    }
}

/// Maps one static layer of `model` at the given SLC rank fraction.
///
/// # Errors
///
/// Returns configuration errors from an invalid hardware description.
pub fn map_layer(
    model: &ModelConfig,
    layer: StaticLayerKind,
    hw: &HyFlexPimConfig,
    slc_rank_fraction: f64,
    energy: &EnergyModel,
) -> Result<LayerMapping> {
    hw.validate()?;
    if !(0.0..=1.0).contains(&slc_rank_fraction) {
        return Err(PimError::InvalidConfig(format!(
            "SLC rank fraction {slc_rank_fraction} must be in [0, 1]"
        )));
    }
    let (in_dim, out_dim) = model.static_layer_shape(layer);
    let rank = hard_threshold_rank(in_dim, out_dim);
    let slc_ranks = ((rank as f64) * slc_rank_fraction).round() as usize;
    let slc_ranks = slc_ranks.min(rank);
    let mlc_ranks = rank - slc_ranks;

    let slc_cpw = hw.slc_cells_per_weight();
    let mlc_cpw = hw.mlc_cells_per_weight();

    // U factor: `in_dim` rows, one column per rank.
    let u_slc = portion(hw, in_dim, slc_ranks, slc_cpw);
    let u_mlc = portion(hw, in_dim, mlc_ranks, mlc_cpw);
    // Σ·Vᵀ factor: one row per rank, `out_dim` columns.
    let v_slc = portion(hw, slc_ranks, out_dim, slc_cpw);
    let v_mlc = portion(hw, mlc_ranks, out_dim, mlc_cpw);

    let combine = |a: PortionResources, b: PortionResources| PortionResources {
        weights: a.weights + b.weights,
        cells: a.cells + b.cells,
        arrays: a.arrays + b.arrays,
        read_cycles_per_input_bit: a.read_cycles_per_input_bit + b.read_cycles_per_input_bit,
    };
    let slc = combine(u_slc, v_slc);
    let mlc = combine(u_mlc, v_mlc);

    let write_energy_pj =
        energy.array_write_pj(slc.cells, false) + energy.array_write_pj(mlc.cells, true);

    Ok(LayerMapping {
        rank,
        slc_ranks,
        mlc_ranks,
        slc,
        mlc,
        write_energy_pj,
    })
}

/// Maps all six static layers of one transformer block.
///
/// # Errors
///
/// Propagates [`map_layer`] errors.
pub fn map_block(
    model: &ModelConfig,
    hw: &HyFlexPimConfig,
    slc_rank_fraction: f64,
    energy: &EnergyModel,
) -> Result<Vec<LayerMapping>> {
    StaticLayerKind::all()
        .iter()
        .map(|&layer| map_layer(model, layer, hw, slc_rank_fraction, energy))
        .collect()
}

/// Physical cost of caching one decoded token's K and V vectors across all
/// layers, in each cell mode.
///
/// Decode serving appends `2 · hidden_dim · num_layers` INT8 values per token
/// (one key and one value row per layer). SLC stores each value in 8 cells
/// programmed with a single pulse; 2-bit MLC halves the cells but needs four
/// program-and-verify pulses, so MLC appends are denser yet slower and more
/// energy-hungry per value — the trade the KV placement policies in
/// `hyflex-runtime` arbitrate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KvTokenCost {
    /// INT8 values cached per token (`2 · hidden_dim · num_layers`).
    pub values: usize,
    /// Cells consumed per token when stored in SLC.
    pub slc_cells: usize,
    /// Cells consumed per token when stored in MLC.
    pub mlc_cells: usize,
    /// Energy to program one token's K/V into SLC, picojoules.
    pub slc_write_pj: f64,
    /// Energy to program one token's K/V into MLC, picojoules.
    pub mlc_write_pj: f64,
    /// Latency of an SLC append on the decode critical path, nanoseconds.
    /// One row write per layer; rows program pulse-parallel across cells.
    pub slc_write_ns: f64,
    /// Latency of an MLC append (or demotion rewrite), nanoseconds.
    pub mlc_write_ns: f64,
}

/// Computes the per-token KV-cache cost for `model` on `hw`.
///
/// # Errors
///
/// Returns configuration errors from an invalid hardware description.
pub fn kv_token_cost(
    model: &ModelConfig,
    hw: &HyFlexPimConfig,
    energy: &EnergyModel,
) -> Result<KvTokenCost> {
    hw.validate()?;
    let values = 2 * model.hidden_dim * model.num_layers;
    let slc_cells = values * hw.slc_cells_per_weight();
    let mlc_cells = values * hw.mlc_cells_per_weight();
    let slc_pulses = f64::from(hyflex_rram::cell::CellMode::Slc.write_pulses());
    let mlc_pulses = f64::from(hw.mlc_mode.write_pulses());
    let per_layer_rows = model.num_layers as f64;
    Ok(KvTokenCost {
        values,
        slc_cells,
        mlc_cells,
        slc_write_pj: energy.array_write_pj(slc_cells, false),
        mlc_write_pj: energy.array_write_pj(mlc_cells, true),
        slc_write_ns: per_layer_rows * slc_pulses * crate::config::RRAM_WRITE_PULSE_NS,
        mlc_write_ns: per_layer_rows * mlc_pulses * crate::config::RRAM_WRITE_PULSE_NS,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Total cells occupied by the layer.
    fn total_cells(m: &LayerMapping) -> usize {
        m.slc.cells + m.mlc.cells
    }

    /// Fraction of stored weights that live in MLC (the paper aims for
    /// 90–95 % on encoder models).
    fn mlc_weight_fraction(m: &LayerMapping) -> f64 {
        let total = m.slc.weights + m.mlc.weights;
        if total == 0 {
            0.0
        } else {
            m.mlc.weights as f64 / total as f64
        }
    }

    fn setup() -> (ModelConfig, HyFlexPimConfig, EnergyModel) {
        (
            ModelConfig::bert_base(),
            HyFlexPimConfig::paper_default(),
            EnergyModel::default(),
        )
    }

    #[test]
    fn hard_threshold_rank_is_used() {
        let (model, hw, energy) = setup();
        let m = map_layer(&model, StaticLayerKind::Ffn1, &hw, 0.1, &energy).unwrap();
        assert_eq!(m.rank, hard_threshold_rank(768, 3072));
        assert_eq!(m.slc_ranks + m.mlc_ranks, m.rank);
        assert_eq!(m.slc_ranks, (m.rank as f64 * 0.1).round() as usize);
    }

    #[test]
    fn all_mlc_uses_half_the_cells_of_all_slc() {
        let (model, hw, energy) = setup();
        let slc = map_layer(&model, StaticLayerKind::Query, &hw, 1.0, &energy).unwrap();
        let mlc = map_layer(&model, StaticLayerKind::Query, &hw, 0.0, &energy).unwrap();
        assert_eq!(total_cells(&slc), 2 * total_cells(&mlc));
        assert!(mlc.total_arrays() < slc.total_arrays());
        assert_eq!(mlc_weight_fraction(&slc), 0.0);
        assert_eq!(mlc_weight_fraction(&mlc), 1.0);
    }

    #[test]
    fn low_protection_rates_leave_most_weights_in_mlc() {
        let (model, hw, energy) = setup();
        for layer in StaticLayerKind::all() {
            let m = map_layer(&model, layer, &hw, 0.05, &energy).unwrap();
            assert!(
                mlc_weight_fraction(&m) > 0.9,
                "{layer:?}: {}",
                mlc_weight_fraction(&m)
            );
        }
    }

    #[test]
    fn parameter_count_is_cost_neutral_versus_dense() {
        let (model, hw, energy) = setup();
        for layer in StaticLayerKind::all() {
            let (rows, cols) = model.static_layer_shape(layer);
            let m = map_layer(&model, layer, &hw, 0.1, &energy).unwrap();
            let stored = m.slc.weights + m.mlc.weights;
            assert!(
                stored <= rows * cols,
                "{layer:?}: factored stores {stored} > dense {}",
                rows * cols
            );
        }
    }

    #[test]
    fn write_energy_reflects_mode_mix() {
        let (model, hw, energy) = setup();
        let all_slc = map_layer(&model, StaticLayerKind::Ffn2, &hw, 1.0, &energy).unwrap();
        let all_mlc = map_layer(&model, StaticLayerKind::Ffn2, &hw, 0.0, &energy).unwrap();
        // MLC writes cost more per cell but use half the cells; with the
        // default constants (4x pulses, 0.5x cells) all-MLC programming is
        // more expensive overall.
        assert!(all_mlc.write_energy_pj > all_slc.write_energy_pj);
        assert!(all_slc.write_energy_pj > 0.0);
    }

    #[test]
    fn block_mapping_covers_six_layers_and_fits_one_pu_when_hybrid() {
        let (model, hw, energy) = setup();
        let block = map_block(&model, &hw, 0.1, &energy).unwrap();
        assert_eq!(block.len(), 6);
        let arrays: usize = block.iter().map(|m| m.total_arrays()).sum();
        let arrays_per_pu = hw.analog_modules_per_pu * hw.analog_arrays_per_module;
        assert!(
            arrays <= arrays_per_pu,
            "BERT-Base block needs {arrays} arrays, PU has {arrays_per_pu}"
        );
    }

    #[test]
    fn kv_token_cost_trades_density_against_write_speed() {
        let (model, hw, energy) = setup();
        let kv = kv_token_cost(&model, &hw, &energy).unwrap();
        assert_eq!(kv.values, 2 * model.hidden_dim * model.num_layers);
        // SLC needs twice the cells of 2-bit MLC.
        assert_eq!(kv.slc_cells, 2 * kv.mlc_cells);
        // ...but MLC programming is slower (4x pulses) and costs more energy
        // overall (4x per-cell energy on half the cells).
        assert!(kv.mlc_write_ns > kv.slc_write_ns);
        assert!((kv.mlc_write_ns / kv.slc_write_ns - 4.0).abs() < 1e-9);
        assert!(kv.mlc_write_pj > kv.slc_write_pj);
        assert!(kv.slc_write_ns > 0.0);
    }

    #[test]
    fn invalid_inputs_are_rejected() {
        let (model, hw, energy) = setup();
        assert!(map_layer(&model, StaticLayerKind::Query, &hw, 1.5, &energy).is_err());
        assert!(map_layer(&model, StaticLayerKind::Query, &hw, -0.1, &energy).is_err());
    }
}
