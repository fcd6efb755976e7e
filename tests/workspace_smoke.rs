//! Workspace surface smoke test: the default configuration must construct,
//! validate, and drive one end-to-end performance-model evaluation. Catches
//! config regressions (invalid defaults, broken re-exports, non-finite
//! outputs) before the heavier integration tests run.

use hyflex_pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex_pim::perf::PerformanceModel;
use hyflex_pim::HyFlexPimConfig;
use hyflex_transformer::ModelConfig;

#[test]
fn default_config_is_valid() {
    let config = HyFlexPimConfig::default();
    config.validate().expect("default config must validate");
    // The default must match the paper's published configuration so every
    // downstream experiment starts from Table 2 numbers.
    assert_eq!(config.weight_bits, 8);
    assert_eq!(config.input_bits, 8);
    assert_eq!(
        config.analog_array_rows * config.analog_array_cols,
        64 * 128,
        "analog arrays should be the paper's 64x128 geometry"
    );
}

#[test]
fn default_performance_model_evaluates_one_point() {
    let model = PerformanceModel::new(HyFlexPimConfig::default())
        .expect("default config must build a performance model");
    let deployed = HyFlexPim::new(model, ModelConfig::bert_base(), 0.10)
        .expect("default model must deploy BERT-Base");
    let summary = deployed
        .evaluate(&InferenceRequest::of_len(0, 128))
        .expect("default model must evaluate BERT-Base at n=128");
    assert!(
        summary.energy.total_pj().is_finite() && summary.energy.total_pj() > 0.0,
        "total energy must be positive and finite"
    );
    assert!(
        summary.latency.total_ns().is_finite() && summary.latency.total_ns() > 0.0,
        "total latency must be positive and finite"
    );
    assert!(
        summary.tops_per_mm2.is_finite() && summary.tops_per_mm2 > 0.0,
        "area efficiency must be positive and finite"
    );
}

#[test]
fn facade_reexports_resolve() {
    // The root `hyflex` facade must expose every member crate.
    let _ = hyflex::pim::HyFlexPimConfig::default();
    let _ = hyflex::tensor::Matrix::zeros(2, 2);
    let _ = hyflex::transformer::ModelConfig::bert_base();
    let _ = hyflex::rram::ArraySpec::analog();
    let _ = hyflex::circuits::Table2::paper_65nm();
    let _ = hyflex::workloads::GlueTask::all();
}
