//! Vision scenario: a tiny ViT on the synthetic CIFAR-10 stand-in, evaluated
//! under the hybrid SLC/MLC mapping, plus the ViT-Base paper-scale cost.
//!
//! Run with: `cargo run --release --example vit_inference`

use hyflex_pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex_pim::gradient_redistribution::GradientRedistribution;
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::vision::{self, VisionConfig};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let dataset = vision::generate(&VisionConfig::default(), 99);
    let mut rng = Rng::seed_from(99);
    let mut model = TransformerModel::new(ModelConfig::tiny_vit(10), &mut rng)?;
    let trainer = Trainer::new(
        AdamWConfig {
            learning_rate: 3e-3,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        },
        16,
    );
    trainer.train(&mut model, &dataset.train, 5)?;
    let pipeline = GradientRedistribution {
        finetune_epochs: 2,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline.apply(&mut model, &dataset.train, &dataset.eval)?;
    println!(
        "tiny ViT accuracy: dense {:.3} -> factored+fine-tuned {:.3}",
        report.eval_dense.metrics.primary_value(),
        report.eval_finetuned.metrics.primary_value()
    );

    let simulator = NoiseSimulator::paper_default();
    for rate in [0.0, 0.05, 0.30, 1.0] {
        let spec = HybridMappingSpec::gradient_based(rate);
        let (eval, stats) =
            simulator.evaluate(&model, &report.layer_profiles, &spec, &dataset.eval, 5)?;
        println!(
            "  SLC rate {:>3.0}% -> accuracy {:.3} (SLC ranks {}, MLC ranks {})",
            rate * 100.0,
            eval.metrics.primary_value(),
            stats.slc_ranks,
            stats.mlc_ranks
        );
    }

    // Paper-scale ViT-Base inference cost (197 patch tokens).
    let deployed = HyFlexPim::paper(ModelConfig::vit_base(), 0.05)?;
    let summary = deployed.evaluate(&InferenceRequest::of_len(0, 197))?;
    println!(
        "\nViT-Base @ 197 tokens, 5% SLC: {:.2} mJ, {:.1} us, {:.2} TOPS/mm^2",
        summary.energy.total_pj() / 1e9,
        summary.latency.total_ns() / 1e3,
        summary.tops_per_mm2
    );
    Ok(())
}
