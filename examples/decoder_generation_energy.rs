//! Decoder scenario: fine-tune a tiny decoder on the synthetic WikiText-2
//! stand-in, check how the hybrid mapping affects its loss, and estimate the
//! energy/latency of GPT-2-scale decoding on HyFlexPIM versus the baselines.
//!
//! Run with: `cargo run --release --example decoder_generation_energy`

use hyflex_baselines::{SystemBuilder, BACKENDS};
use hyflex_pim::backend::InferenceRequest;
use hyflex_pim::gradient_redistribution::GradientRedistribution;
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::lm;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // Functional part: tiny decoder on the synthetic corpus.
    let dataset = lm::wikitext2_dataset(77);
    let mut rng = Rng::seed_from(77);
    let mut model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng)?;
    let trainer = Trainer::new(
        AdamWConfig {
            learning_rate: 3e-3,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        },
        8,
    );
    trainer.train(&mut model, &dataset.train, 5)?;
    let pipeline = GradientRedistribution {
        finetune_epochs: 2,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline.apply(&mut model, &dataset.train, &dataset.eval)?;
    println!(
        "tiny decoder eval loss: dense {:.3} -> factored+fine-tuned {:.3}",
        report.eval_dense.mean_loss, report.eval_finetuned.mean_loss
    );

    let simulator = NoiseSimulator::paper_default();
    for rate in [0.0, 0.20, 0.50, 1.0] {
        let spec = HybridMappingSpec::gradient_based(rate);
        let (eval, _) =
            simulator.evaluate(&model, &report.layer_profiles, &spec, &dataset.eval, 3)?;
        println!(
            "  SLC rate {:>3.0}% -> eval loss {:.3} (perplexity {:.2})",
            rate * 100.0,
            eval.mean_loss,
            eval.metrics.perplexity().unwrap_or(f64::NAN)
        );
    }

    // Architecture part: GPT-2-scale decoding cost at N = 1024.
    println!("\nGPT-2 @ N=1024, end-to-end energy per inference (paper-scale dimensions):");
    for name in BACKENDS {
        let backend = SystemBuilder::paper()
            .model(ModelConfig::gpt2_small())
            .slc_rate(0.20)
            .backend(name)
            .build()?;
        let energy = backend.evaluate(&InferenceRequest::of_len(0, 1024))?.energy;
        println!("  {:<22} {:>10.2} mJ", backend.name(), energy.total_mj());
    }
    Ok(())
}
