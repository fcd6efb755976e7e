#![forbid(unsafe_code)]
//! # hyflex-bench
//!
//! Benchmark harness for the HyFlexPIM reproduction.
//!
//! Two kinds of targets live here:
//!
//! * **Figure/table binaries** (`src/bin/fig*.rs`, `table*.rs`) — one per
//!   table and figure of the paper's evaluation. Each prints the rows or
//!   series the paper reports (normalized energies, accuracies versus SLC
//!   rate, throughput scaling, ...). `EXPERIMENTS.md` records the mapping and
//!   the measured-vs-paper comparison.
//! * **Criterion benches** (`benches/*.rs`) — micro-benchmarks of the
//!   simulation kernels themselves (crossbar GEMV, SVD pipeline, ADC/SFU,
//!   full accelerator evaluation).
//!
//! The helpers in this library keep the binaries small: common experiment
//! setup (train a tiny model, run gradient redistribution) and simple table
//! formatting.

use hyflex_pim::gradient_redistribution::{GradientRedistribution, RedistributionReport};
use hyflex_pim::Result;
use hyflex_runtime::JobPool;
use hyflex_tensor::rng::Rng;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::Dataset;

pub mod cli;
pub mod output;
pub mod serving;

pub use cli::BinArgs;
pub use output::emit;

/// Prints a simple aligned table row (to stdout and, when `--out` is set,
/// the output file).
pub fn print_row(label: &str, values: &[String]) {
    let mut line = format!("{label:<28}");
    for v in values {
        line.push_str(&format!(" {v:>12}"));
    }
    output::emit(&line);
}

/// Formats a float with the given number of decimals.
pub fn fmt(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// A trained tiny model together with its dataset and redistribution report,
/// shared by the accuracy-oriented figure binaries (11, 12, 13).
pub struct FunctionalExperiment {
    /// The factored, fine-tuned model.
    pub model: TransformerModel,
    /// The synthetic dataset it was trained on.
    pub dataset: Dataset,
    /// Gradient-redistribution output (profiles + accuracy checkpoints).
    pub report: RedistributionReport,
    /// The trainer used (for further evaluation calls).
    pub trainer: Trainer,
}

/// Trains a tiny encoder on the given dataset, runs gradient redistribution,
/// and returns everything the accuracy figures need. Training and the layer
/// factorization run on `pool` (`--threads`); every width gives the same
/// bits.
///
/// # Errors
///
/// Propagates model/training errors.
pub fn run_functional_experiment_with(
    config: ModelConfig,
    dataset: Dataset,
    pretrain_epochs: usize,
    finetune_epochs: usize,
    seed: u64,
    pool: &JobPool,
) -> Result<FunctionalExperiment> {
    let mut rng = Rng::seed_from(seed);
    let mut model = TransformerModel::new(config, &mut rng)?;
    let trainer = Trainer {
        pool: *pool,
        ..Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        )
    };
    trainer.train(&mut model, &dataset.train, pretrain_epochs)?;
    let pipeline = GradientRedistribution {
        finetune_epochs,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline.apply(&mut model, &dataset.train, &dataset.eval)?;
    Ok(FunctionalExperiment {
        model,
        dataset,
        report,
        trainer,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

    #[test]
    fn fmt_and_rows_do_not_panic() {
        assert_eq!(fmt(1.23456, 2), "1.23");
        print_row("label", &["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn functional_experiment_produces_profiles() {
        let dataset = glue::generate(GlueTask::Sst2, &GlueConfig::default(), 3);
        let exp = run_functional_experiment_with(
            ModelConfig::tiny_encoder(2),
            dataset,
            2,
            1,
            3,
            &JobPool::new(2),
        )
        .unwrap();
        assert_eq!(exp.report.layer_profiles.len(), 12);
        assert!(!exp.dataset.eval.is_empty());
    }
}
