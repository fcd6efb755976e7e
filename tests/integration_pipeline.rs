//! End-to-end integration test: synthetic workload → training → gradient
//! redistribution → hybrid SLC/MLC noise injection → evaluation, plus the
//! architecture model on the same mapping.

use hyflex_pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex_pim::gradient_redistribution::GradientRedistribution;
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

fn trainer() -> Trainer {
    Trainer::new(
        AdamWConfig {
            learning_rate: 3e-3,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        },
        16,
    )
}

#[test]
fn full_software_hardware_pipeline_runs_end_to_end() {
    // 1. Train a tiny encoder on a synthetic GLUE task.
    let dataset = glue::generate(GlueTask::Qnli, &GlueConfig::default(), 7);
    let mut rng = Rng::seed_from(7);
    let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
    let trainer = trainer();
    trainer.train(&mut model, &dataset.train, 4).unwrap();
    let dense = trainer.evaluate(&model, &dataset.eval).unwrap();
    assert!(
        dense.metrics.primary_value() > 0.6,
        "dense training should learn the synthetic task, got {:.3}",
        dense.metrics.primary_value()
    );

    // 2. Gradient redistribution.
    let pipeline = GradientRedistribution {
        finetune_epochs: 2,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline
        .apply(&mut model, &dataset.train, &dataset.eval)
        .unwrap();
    assert_eq!(report.layer_profiles.len(), 12);
    assert!(report.eval_finetuned.metrics.primary_value() > 0.55);

    // 3. Hybrid mapping + noise injection at the paper's protection range.
    let simulator = NoiseSimulator::paper_default();
    let spec = HybridMappingSpec::gradient_based(0.10);
    let (noisy, stats) = simulator
        .evaluate(&model, &report.layer_profiles, &spec, &dataset.eval, 11)
        .unwrap();
    assert!(stats.slc_ranks > 0 && stats.mlc_ranks > stats.slc_ranks);
    let drop = report.eval_finetuned.metrics.primary_value() - noisy.metrics.primary_value();
    assert!(
        drop < 0.15,
        "10% SLC protection should keep the accuracy drop small, got {drop:.3}"
    );

    // 4. The architecture model evaluates the same mapping at paper scale.
    let summary = HyFlexPim::paper(ModelConfig::bert_large(), 0.10)
        .unwrap()
        .evaluate(&InferenceRequest::of_len(0, 128))
        .unwrap();
    assert!(summary.energy.total_pj() > 0.0);
    assert!(summary.latency.total_ns() > 0.0);
    assert!(summary.tops_per_mm2 > 0.0);
}

#[test]
fn decoder_pipeline_runs_end_to_end() {
    let dataset = hyflex_workloads::lm::wikitext2_dataset(13);
    let mut rng = Rng::seed_from(13);
    let mut model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
    let trainer = trainer();
    trainer.train(&mut model, &dataset.train, 4).unwrap();
    let pipeline = GradientRedistribution {
        finetune_epochs: 1,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline
        .apply(&mut model, &dataset.train, &dataset.eval)
        .unwrap();

    let simulator = NoiseSimulator::paper_default();
    // The paper uses up to 20% SLC for decoder models.
    let protected = simulator
        .evaluate(
            &model,
            &report.layer_profiles,
            &HybridMappingSpec::gradient_based(0.20),
            &dataset.eval,
            3,
        )
        .unwrap()
        .0;
    let unprotected = simulator
        .evaluate(
            &model,
            &report.layer_profiles,
            &HybridMappingSpec::gradient_based(0.0),
            &dataset.eval,
            3,
        )
        .unwrap()
        .0;
    // Loss with protection should not exceed loss without protection.
    assert!(protected.mean_loss <= unprotected.mean_loss + 0.05);
}

#[test]
fn vision_pipeline_runs_end_to_end() {
    let dataset = hyflex_workloads::vision::generate(
        &hyflex_workloads::vision::VisionConfig {
            train_samples: 120,
            eval_samples: 40,
            ..Default::default()
        },
        17,
    );
    let mut rng = Rng::seed_from(17);
    let mut model = TransformerModel::new(ModelConfig::tiny_vit(10), &mut rng).unwrap();
    let trainer = trainer();
    trainer.train(&mut model, &dataset.train, 5).unwrap();
    let pipeline = GradientRedistribution {
        finetune_epochs: 1,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline
        .apply(&mut model, &dataset.train, &dataset.eval)
        .unwrap();
    assert!(report.eval_finetuned.metrics.primary_value() > 0.3);
    let simulator = NoiseSimulator::paper_default();
    let (noisy, _) = simulator
        .evaluate(
            &model,
            &report.layer_profiles,
            &HybridMappingSpec::gradient_based(0.05),
            &dataset.eval,
            5,
        )
        .unwrap();
    assert!(noisy.metrics.primary_value() > 0.2);
}
