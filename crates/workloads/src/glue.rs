//! Synthetic GLUE-like tasks.
//!
//! The seven GLUE tasks the paper evaluates (CoLA, MRPC, QNLI, QQP, RTE,
//! SST-2, STS-B) are replaced by seeded token-sequence tasks. Each
//! classification task plants a small number of class-dependent "signal"
//! tokens into otherwise random sequences and flips labels with a
//! task-specific noise probability, so tasks differ in learnability the same
//! way the real GLUE tasks differ in difficulty (RTE and CoLA are harder than
//! SST-2, etc.). STS-B is a regression task whose target is the fraction of
//! planted signal tokens.

use crate::dataset::Dataset;
use hyflex_tensor::rng::Rng;
use hyflex_transformer::trainer::{Sample, Target};
use hyflex_transformer::ModelInput;

/// The seven GLUE tasks used in the paper's encoder evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GlueTask {
    /// Linguistic acceptability (metric: Matthews correlation).
    Cola,
    /// Paraphrase detection.
    Mrpc,
    /// Question–answer entailment.
    Qnli,
    /// Question-pair duplicate detection.
    Qqp,
    /// Recognizing textual entailment (small and hard).
    Rte,
    /// Sentiment classification (easy).
    Sst2,
    /// Semantic textual similarity (regression, metric: Pearson).
    Stsb,
}

impl GlueTask {
    /// All seven tasks in the paper's reporting order.
    pub fn all() -> [GlueTask; 7] {
        [
            GlueTask::Mrpc,
            GlueTask::Cola,
            GlueTask::Qnli,
            GlueTask::Qqp,
            GlueTask::Sst2,
            GlueTask::Stsb,
            GlueTask::Rte,
        ]
    }

    /// Task name as printed in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            GlueTask::Cola => "CoLA",
            GlueTask::Mrpc => "MRPC",
            GlueTask::Qnli => "QNLI",
            GlueTask::Qqp => "QQP",
            GlueTask::Rte => "RTE",
            GlueTask::Sst2 => "SST-2",
            GlueTask::Stsb => "STS-B",
        }
    }

    /// Whether the task is regression (STS-B) rather than classification.
    pub fn is_regression(&self) -> bool {
        matches!(self, GlueTask::Stsb)
    }

    /// Label-noise probability controlling task difficulty. Values chosen so
    /// the relative ordering of task difficulty mirrors GLUE (SST-2/QQP easy,
    /// RTE/CoLA hard).
    fn label_noise(&self) -> f64 {
        match self {
            GlueTask::Sst2 => 0.02,
            GlueTask::Qqp => 0.04,
            GlueTask::Qnli => 0.06,
            GlueTask::Mrpc => 0.08,
            GlueTask::Stsb => 0.05,
            GlueTask::Cola => 0.12,
            GlueTask::Rte => 0.15,
        }
    }

    /// Deterministic per-task seed offset so different tasks get different
    /// vocabular structure from the same experiment seed.
    fn seed_offset(&self) -> u64 {
        match self {
            GlueTask::Cola => 11,
            GlueTask::Mrpc => 23,
            GlueTask::Qnli => 37,
            GlueTask::Qqp => 41,
            GlueTask::Rte => 53,
            GlueTask::Sst2 => 67,
            GlueTask::Stsb => 79,
        }
    }
}

/// Configuration for synthetic GLUE generation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlueConfig {
    /// Vocabulary size of the target model.
    pub vocab_size: usize,
    /// Sequence length of every sample.
    pub seq_len: usize,
    /// Number of training samples.
    pub train_samples: usize,
    /// Number of evaluation samples.
    pub eval_samples: usize,
}

impl Default for GlueConfig {
    fn default() -> Self {
        GlueConfig {
            vocab_size: 64,
            seq_len: 12,
            train_samples: 160,
            eval_samples: 64,
        }
    }
}

/// Generates the synthetic dataset for one GLUE task.
///
/// The generator is fully determined by `(task, config, seed)`.
pub fn generate(task: GlueTask, config: &GlueConfig, seed: u64) -> Dataset {
    // The signal-token pool is `vocab_size / 4 - 1` values; two distinct
    // class tokens must exist or the rejection loop below cannot terminate.
    assert!(
        config.vocab_size / 4 > 2,
        "GlueConfig.vocab_size must be >= 12 so two distinct signal tokens exist, got {}",
        config.vocab_size
    );
    let mut rng = Rng::seed_from(
        seed.wrapping_mul(0x9e37_79b9)
            .wrapping_add(task.seed_offset()),
    );
    // Two class-specific signal tokens drawn from the first quarter of the
    // vocabulary; filler tokens come from the rest.
    let signal_positive = 1 + rng.below(config.vocab_size / 4 - 1);
    // The negative-class token must differ from the positive one, otherwise
    // both classes plant the same signal and the task collapses to label
    // noise. Rejection sampling keeps the stream identical for the (vast
    // majority of) seeds where the first draw already differs.
    let signal_negative = loop {
        let candidate = 1 + rng.below(config.vocab_size / 4 - 1);
        if candidate != signal_positive {
            break candidate;
        }
    };
    let total = config.train_samples + config.eval_samples;
    let mut samples = Vec::with_capacity(total);
    for _ in 0..total {
        let mut tokens: Vec<usize> = (0..config.seq_len)
            .map(|_| config.vocab_size / 4 + rng.below(config.vocab_size * 3 / 4))
            .collect();
        if task.is_regression() {
            // STS-B: target is the planted-signal density in [0, 1].
            let planted = rng.below(config.seq_len / 2 + 1);
            for slot in 0..planted {
                let pos = rng.below(config.seq_len);
                tokens[pos] = signal_positive;
                let _ = slot;
            }
            let density = tokens.iter().filter(|&&t| t == signal_positive).count() as f32
                / config.seq_len as f32;
            samples.push(Sample {
                input: ModelInput::Tokens(tokens),
                target: Target::Value(density),
            });
        } else {
            let mut label = rng.below(2);
            let signal = if label == 1 {
                signal_positive
            } else {
                signal_negative
            };
            // Plant 2-3 signal tokens for the true class.
            let plant_count = 2 + rng.below(2);
            for _ in 0..plant_count {
                let pos = rng.below(config.seq_len);
                tokens[pos] = signal;
            }
            // Task-difficulty label noise.
            if rng.bernoulli(task.label_noise()) {
                label = 1 - label;
            }
            samples.push(Sample {
                input: ModelInput::Tokens(tokens),
                target: Target::Class(label),
            });
        }
    }
    let eval_fraction = config.eval_samples as f64 / total as f64;
    Dataset::from_samples(
        format!("{} (synthetic)", task.name()),
        samples,
        eval_fraction,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn task_metadata_is_consistent() {
        assert_eq!(GlueTask::all().len(), 7);
        assert!(GlueTask::Stsb.is_regression());
        assert!(!GlueTask::Mrpc.is_regression());
        assert!(GlueTask::Rte.label_noise() > GlueTask::Sst2.label_noise());
        assert_eq!(GlueTask::Cola.name(), "CoLA");
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let config = GlueConfig::default();
        let a = generate(GlueTask::Mrpc, &config, 42);
        let b = generate(GlueTask::Mrpc, &config, 42);
        assert_eq!(a, b);
        let c = generate(GlueTask::Mrpc, &config, 43);
        assert_ne!(a, c);
    }

    #[test]
    fn different_tasks_differ_with_same_seed() {
        let config = GlueConfig::default();
        let a = generate(GlueTask::Mrpc, &config, 7);
        let b = generate(GlueTask::Rte, &config, 7);
        assert_ne!(a.train, b.train);
    }

    #[test]
    fn split_sizes_match_config() {
        let config = GlueConfig {
            train_samples: 100,
            eval_samples: 40,
            ..GlueConfig::default()
        };
        let d = generate(GlueTask::Qnli, &config, 1);
        assert_eq!(d.train.len(), 100);
        assert_eq!(d.eval.len(), 40);
    }

    #[test]
    fn classification_tasks_have_binary_labels_and_valid_tokens() {
        let config = GlueConfig::default();
        let d = generate(GlueTask::Sst2, &config, 3);
        for sample in d.train.iter().chain(d.eval.iter()) {
            match (&sample.input, &sample.target) {
                (ModelInput::Tokens(tokens), Target::Class(label)) => {
                    assert!(*label < 2);
                    assert_eq!(tokens.len(), config.seq_len);
                    assert!(tokens.iter().all(|&t| t < config.vocab_size));
                }
                _ => panic!("unexpected sample kind"),
            }
        }
    }

    #[test]
    fn stsb_targets_are_densities_in_unit_interval() {
        let config = GlueConfig::default();
        let d = generate(GlueTask::Stsb, &config, 5);
        let mut distinct = std::collections::BTreeSet::new();
        for sample in d.train.iter() {
            match &sample.target {
                Target::Value(v) => {
                    assert!((0.0..=1.0).contains(v));
                    distinct.insert((v * 100.0) as i32);
                }
                _ => panic!("STS-B must be regression"),
            }
        }
        assert!(distinct.len() > 2, "regression targets should vary");
    }
}
