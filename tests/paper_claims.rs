//! Tests of the paper's headline quantitative claims, checked against the
//! reproduction's own models (shape and direction, not absolute joules).

use hyflex_baselines::{Asadi, AsadiPrecision, NonPim, Sprint};
use hyflex_pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex_pim::mapping;
use hyflex_pim::perf::PerfSummary;
use hyflex_pim::scalability::ScalabilityModel;
use hyflex_transformer::config::{ModelConfig, StaticLayerKind};
use hyflex_transformer::ops_count;

fn summary(backend: &dyn Backend, seq_len: usize) -> PerfSummary {
    backend
        .evaluate(&InferenceRequest::of_len(0, seq_len))
        .unwrap()
}

/// Section 2.1: more than 70 % of transformer computation comes from static
/// weights at typical sequence lengths.
#[test]
fn static_weights_dominate_computation() {
    for model in [ModelConfig::bert_base(), ModelConfig::bert_large()] {
        for n in [128, 512, 1024] {
            assert!(
                ops_count::static_weight_fraction(&model, n) > 0.7,
                "{} at N={n}",
                model.name
            );
        }
    }
}

/// Section 3.3 / 6.1: with 5-10 % protection, 90-95 % of the encoder weights
/// are processed in MLC.
#[test]
fn low_protection_rates_keep_most_weights_in_mlc() {
    let hw = hyflex_pim::HyFlexPimConfig::paper_default();
    let energy = hyflex_circuits::EnergyModel::default();
    for rate in [0.05, 0.10] {
        let block = mapping::map_block(&ModelConfig::bert_base(), &hw, rate, &energy).unwrap();
        let weights: usize = block.iter().map(|m| m.slc.weights + m.mlc.weights).sum();
        let mlc: usize = block.iter().map(|m| m.mlc.weights).sum();
        let fraction = mlc as f64 / weights as f64;
        assert!(
            fraction > 0.88 && fraction < 0.97,
            "MLC weight fraction {fraction:.3} at rate {rate}"
        );
    }
}

/// Section 6.3.1 / Figure 16: HyFlexPIM achieves a 1.1-1.86x (max ~1.9x)
/// throughput advantage over ASADI-dagger; our model must land in a
/// comparable band and never fall below parity.
#[test]
fn throughput_speedup_over_asadi_is_in_band() {
    let model = ModelConfig::bert_large();
    let asadi = Asadi::new(AsadiPrecision::Int8, model.clone()).unwrap();
    for (n, rate) in [(128usize, 0.05f64), (1024, 0.10), (4096, 0.30)] {
        let hyflex = HyFlexPim::paper(model.clone(), rate).unwrap();
        let speedup = summary(&hyflex, n).tops_per_mm2 / summary(&asadi, n).tops_per_mm2;
        assert!(
            (1.0..=2.6).contains(&speedup),
            "speedup {speedup:.2} at N={n}, rate {rate}"
        );
    }
}

/// Figure 14: linear-layer energy advantage over ASADI-dagger peaks around
/// the paper's ~1.24x at low SLC rates and shrinks as the SLC rate grows.
#[test]
fn linear_layer_energy_gain_over_asadi_shrinks_with_slc_rate() {
    let model = ModelConfig::bert_large();
    let asadi = Asadi::new(AsadiPrecision::Int8, model.clone()).unwrap();
    let gain = |rate: f64| {
        let hyflex = HyFlexPim::paper(model.clone(), rate).unwrap();
        asadi.linear_layer_energy_pj(128).unwrap() / hyflex.linear_layer_energy_pj(128).unwrap()
    };
    let at_5 = gain(0.05);
    let at_50 = gain(0.50);
    assert!(
        at_5 > at_50,
        "gain should shrink with SLC rate: {at_5:.2} vs {at_50:.2}"
    );
    assert!(at_5 > 1.1 && at_5 < 2.0, "gain at 5% SLC: {at_5:.2}");
}

/// Figures 14/15: HyFlexPIM is more energy-efficient than SPRINT, the NMP
/// baseline, and the non-PIM baseline, with the largest margins against the
/// movement-dominated designs.
#[test]
fn end_to_end_energy_beats_all_baselines() {
    let model = ModelConfig::bert_large();
    let hyflex = HyFlexPim::paper(model.clone(), 0.05).unwrap();
    let ours = summary(&hyflex, 128).energy.total_pj();
    let sprint = summary(&Sprint::new(model.clone()), 128).energy.total_pj();
    let non_pim = summary(&NonPim::new(model), 128).energy.total_pj();
    assert!(ours < sprint);
    assert!(ours < non_pim);
    assert!(
        non_pim / ours > 2.0,
        "expected a multi-x advantage over the non-PIM baseline, got {:.2}",
        non_pim / ours
    );
}

/// Figure 16 (SPRINT comparison): the throughput advantage over SPRINT is an
/// order of magnitude, and it is larger at short sequences where the FFNs
/// SPRINT cannot accelerate dominate.
#[test]
fn speedup_over_sprint_is_large_and_shrinks_with_sequence_length() {
    let model = ModelConfig::bert_large();
    let sprint = Sprint::new(model.clone());
    let hyflex = HyFlexPim::paper(model, 0.10).unwrap();
    let speedup = |n: usize| summary(&hyflex, n).tops_per_mm2 / summary(&sprint, n).tops_per_mm2;
    let short = speedup(128);
    let long = speedup(4096);
    assert!(short > 5.0, "short-sequence speedup {short:.1}");
    assert!(
        short > long,
        "advantage should shrink with N: {short:.1} vs {long:.1}"
    );
}

/// Figure 17: two PUs per layer give ~1.99x throughput; quad- and octa-chip
/// Llama3 give ~1.96x and ~3.65x over dual-chip.
#[test]
fn scalability_matches_figure_17_shape() {
    let model = ScalabilityModel::paper_default();
    let points = model.figure17().unwrap();
    let by_label = |needle: &str| {
        points
            .iter()
            .find(|p| p.label.contains(needle))
            .unwrap()
            .normalized_throughput
    };
    let dual_pu = by_label("x2 PUs");
    assert!((1.9..=2.0).contains(&dual_pu), "x2 PUs -> {dual_pu:.3}");
    let quad = by_label("quad");
    let octa = by_label("octa");
    assert!((1.8..=2.0).contains(&quad), "quad-chip -> {quad:.3}");
    assert!((3.2..=4.0).contains(&octa), "octa-chip -> {octa:.3}");
}

/// Section 5.4 / Table 2: the hard-threshold factorization keeps every
/// BERT-Large layer within one PU (one layer per PU across 24 PUs).
#[test]
fn bert_large_maps_one_layer_per_pu() {
    let deployed = HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap();
    assert_eq!(summary(&deployed, 128).chips, 1);
    // All six static layers of one block fit in one PU's analog arrays.
    let hw = hyflex_pim::HyFlexPimConfig::paper_default();
    let energy = hyflex_circuits::EnergyModel::default();
    let block = mapping::map_block(&ModelConfig::bert_large(), &hw, 0.05, &energy).unwrap();
    let arrays: usize = block.iter().map(|m| m.total_arrays()).sum();
    assert!(arrays <= hw.analog_modules_per_pu * hw.analog_arrays_per_module);
}

/// The reconfigurable ADC claim: switching an analog module between SLC and
/// MLC modes changes only the resolution (6 vs 7 bits), not the hardware.
#[test]
fn adc_reconfiguration_covers_both_modes() {
    use hyflex_circuits::adc::{AdcMode, SarAdc};
    let mut adc = SarAdc::for_crossbar(AdcMode::Slc6Bit, 64, 1).unwrap();
    assert_eq!(adc.convert(33.0).comparisons, 6);
    adc.reconfigure(AdcMode::Mlc7Bit, 192.0).unwrap();
    assert_eq!(adc.convert(33.0).comparisons, 7);
}

/// Static-weight shapes used throughout the hardware model match the paper's
/// Figure 1 dimensions for every evaluated model.
#[test]
fn static_layer_shapes_match_figure_1_for_all_models() {
    for model in ModelConfig::paper_models() {
        let dh = model.hidden_dim;
        let dff = model.ffn_dim;
        assert_eq!(model.static_layer_shape(StaticLayerKind::Query), (dh, dh));
        assert_eq!(model.static_layer_shape(StaticLayerKind::Ffn1), (dh, dff));
        assert_eq!(model.static_layer_shape(StaticLayerKind::Ffn2), (dff, dh));
    }
}
