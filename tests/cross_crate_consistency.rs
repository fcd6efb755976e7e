//! Consistency checks between independent implementations of the same
//! quantity in different crates.

use hyflex_circuits::adc::{AdcMode, SarAdc};
use hyflex_pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex_pim::config::HyFlexPimConfig;
use hyflex_pim::mapping;
use hyflex_pim::perf::PerformanceModel;
use hyflex_rram::mapping::{MappedMatrix, WeightMapping};
use hyflex_rram::noise::NoiseModel;
use hyflex_rram::spec::ArraySpec;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;
use hyflex_transformer::config::{ModelConfig, StaticLayerKind};
use hyflex_transformer::ops_count;

#[test]
fn adc_resolution_formula_matches_adc_modes() {
    // The array-spec formula (ceil(log2 rows) + bits/cell - 1) must agree
    // with the two ADC modes the circuit model implements.
    let spec = ArraySpec::analog();
    assert_eq!(spec.required_adc_bits(1), AdcMode::Slc6Bit.bits());
    assert_eq!(spec.required_adc_bits(2), AdcMode::Mlc7Bit.bits());
    // And the ADC full scale matches the maximum column sum of that geometry.
    let adc = SarAdc::for_crossbar(AdcMode::Mlc7Bit, spec.rows, 2).unwrap();
    assert_eq!(adc.full_scale(), (spec.rows * 3) as f64);
}

#[test]
fn bit_serial_crossbar_gemv_matches_dense_reference_within_quantization() {
    // The digit-level RRAM model and the plain float GEMV must agree when the
    // device is ideal and the ADC is not truncating.
    let mut rng = Rng::seed_from(3);
    let weights = Matrix::random_normal(64, 12, 0.0, 0.4, &mut rng);
    let input: Vec<f32> = (0..64).map(|_| rng.normal_with(0.0, 0.4) as f32).collect();
    let mut mapping = WeightMapping::mlc_default();
    mapping.adc_bits = None;
    let mapped = MappedMatrix::program(&weights, mapping, &NoiseModel::ideal(), &mut rng).unwrap();
    let pim = mapped.gemv(&input).unwrap();
    let exact = weights.transpose().matvec(&input).unwrap();
    for (a, b) in pim.iter().zip(exact.iter()) {
        assert!((a - b).abs() < 0.05, "PIM {a} vs exact {b}");
    }
}

#[test]
fn layer_mapping_cell_counts_match_config_capacity_accounting() {
    // crates/core/mapping (per-layer) and HyFlexPimConfig (per-chip capacity)
    // must use the same cells-per-weight constants.
    let hw = HyFlexPimConfig::paper_default();
    let energy = hyflex_circuits::EnergyModel::default();
    let model = ModelConfig::bert_base();
    let m = mapping::map_layer(&model, StaticLayerKind::Query, &hw, 1.0, &energy).unwrap();
    let weights = m.slc.weights;
    assert_eq!(m.slc.cells, weights * hw.slc_cells_per_weight());
    let m = mapping::map_layer(&model, StaticLayerKind::Query, &hw, 0.0, &energy).unwrap();
    assert_eq!(m.mlc.cells, m.mlc.weights * hw.mlc_cells_per_weight());
}

#[test]
fn performance_model_ops_match_ops_count_totals() {
    let model = ModelConfig::bert_base();
    let summary = HyFlexPim::paper(model.clone(), 0.1)
        .unwrap()
        .evaluate(&InferenceRequest::of_len(0, 512))
        .unwrap();
    assert_eq!(summary.total_ops, ops_count::total_ops(&model, 512) * 2);
}

#[test]
fn table2_area_matches_performance_model_area() {
    let perf = PerformanceModel::paper_default();
    let table = hyflex_circuits::Table2::paper_65nm();
    assert!((perf.chip_area_mm2() - table.chip_area_mm2()).abs() < 1e-9);
}

#[test]
fn noise_model_is_shared_between_rram_and_core_defaults() {
    let hw = HyFlexPimConfig::paper_default();
    let standalone = NoiseModel::calibrated_to_paper();
    assert_eq!(hw.noise, standalone);
}
