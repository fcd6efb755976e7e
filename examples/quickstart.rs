//! Quickstart: the full HyFlexPIM flow on a tiny encoder in under a minute.
//!
//! 1. Generate a synthetic GLUE-like task and train a tiny encoder on it.
//! 2. Run SVD-based gradient redistribution (factorize, fine-tune, collect
//!    singular-value gradients).
//! 3. Map the factored model onto hybrid SLC/MLC RRAM at a 10 % protection
//!    rate and evaluate accuracy under the calibrated device noise.
//! 4. Ask the analytical performance model what the same mapping costs on the
//!    paper-scale BERT-Large configuration.
//!
//! Run with: `cargo run --release --example quickstart`

use hyflex_pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex_pim::gradient_redistribution::GradientRedistribution;
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Synthetic task + tiny encoder.
    let dataset = glue::generate(GlueTask::Mrpc, &GlueConfig::default(), 42);
    let mut rng = Rng::seed_from(42);
    let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng)?;
    let trainer = Trainer::new(
        AdamWConfig {
            learning_rate: 3e-3,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        },
        16,
    );
    trainer.train(&mut model, &dataset.train, 4)?;
    let dense_eval = trainer.evaluate(&model, &dataset.eval)?;
    println!(
        "dense model accuracy:            {:.3}",
        dense_eval.metrics.primary_value()
    );

    // 2. Gradient redistribution (Algorithm 1).
    let pipeline = GradientRedistribution {
        finetune_epochs: 2,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline.apply(&mut model, &dataset.train, &dataset.eval)?;
    println!(
        "factored + fine-tuned accuracy:  {:.3}",
        report.eval_finetuned.metrics.primary_value()
    );
    println!(
        "top-10% ranks hold {:.0}% of the singular-value gradient mass",
        100.0 * report.mean_concentration(0.10)
    );

    // 3. Hybrid SLC/MLC mapping with noise injection.
    let simulator = NoiseSimulator::paper_default();
    for rate in [0.0, 0.10, 1.0] {
        let spec = HybridMappingSpec::gradient_based(rate);
        let (noisy_eval, stats) =
            simulator.evaluate(&model, &report.layer_profiles, &spec, &dataset.eval, 7)?;
        println!(
            "SLC rate {:>3.0}% -> accuracy {:.3}  ({} SLC ranks / {} MLC ranks)",
            rate * 100.0,
            noisy_eval.metrics.primary_value(),
            stats.slc_ranks,
            stats.mlc_ranks
        );
    }

    // 4. What does this mapping cost at paper scale?
    let deployed = HyFlexPim::paper(ModelConfig::bert_large(), 0.10)?;
    let summary = deployed.evaluate(&InferenceRequest::of_len(0, 128))?;
    println!(
        "BERT-Large @ N=128, 10% SLC: {:.2} mJ per inference, {:.1} us latency, {:.2} TOPS/mm^2",
        summary.energy.total_mj(),
        summary.latency.total_ns() / 1e3,
        summary.tops_per_mm2
    );
    Ok(())
}
