//! Synthetic language-modeling corpus (WikiText-2 stand-in).
//!
//! A seeded first-order Markov chain with a sparse, strongly-peaked
//! transition matrix generates token sequences with learnable structure: a
//! small decoder fine-tuned on them shows clearly decreasing loss, and noise
//! injected into its weights shows clearly increasing loss — the two signals
//! the paper's decoder experiments (Figure 12(b)) rely on.

use crate::dataset::Dataset;
use hyflex_tensor::rng::Rng;
use hyflex_transformer::trainer::{Sample, Target};
use hyflex_transformer::ModelInput;

/// Configuration for the synthetic corpus generator.
#[derive(Debug, Clone, Copy, PartialEq)]
struct LmConfig {
    /// Vocabulary size of the target model.
    vocab_size: usize,
    /// Sequence length of every sample (tokens per sample).
    seq_len: usize,
    /// Number of training sequences.
    train_sequences: usize,
    /// Number of evaluation sequences.
    eval_sequences: usize,
    /// Number of high-probability successors per token (sparsity of the
    /// transition structure). Smaller = more predictable corpus.
    branching: usize,
}

impl LmConfig {
    /// WikiText-2 stand-in sized for the tiny decoder configuration.
    fn wikitext2_stand_in() -> Self {
        LmConfig {
            vocab_size: 64,
            seq_len: 12,
            train_sequences: 96,
            eval_sequences: 32,
            branching: 3,
        }
    }
}

/// A seeded Markov-chain corpus generator.
#[derive(Debug, Clone)]
struct MarkovCorpus {
    config: LmConfig,
    /// `successors[t]` lists the preferred next tokens of token `t`.
    successors: Vec<Vec<usize>>,
}

impl MarkovCorpus {
    /// Builds the transition structure from a seed.
    fn new(config: LmConfig, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed ^ 0xabcd_ef01_2345_6789);
        let successors = (0..config.vocab_size)
            .map(|_| {
                (0..config.branching.max(1))
                    .map(|_| rng.below(config.vocab_size))
                    .collect()
            })
            .collect();
        MarkovCorpus { config, successors }
    }

    /// Samples one token sequence of length `seq_len + 1` (so that inputs and
    /// next-token targets can both be extracted).
    fn sample_sequence(&self, rng: &mut Rng) -> Vec<usize> {
        let mut seq = Vec::with_capacity(self.config.seq_len + 1);
        let mut current = rng.below(self.config.vocab_size);
        seq.push(current);
        for _ in 0..self.config.seq_len {
            // With 90% probability follow the preferred successors, otherwise
            // jump uniformly (keeps entropy non-trivial).
            current = if rng.bernoulli(0.9) {
                let options = &self.successors[current];
                options[rng.below(options.len())]
            } else {
                rng.below(self.config.vocab_size)
            };
            seq.push(current);
        }
        seq
    }

    /// Generates the full dataset.
    fn generate(&self, seed: u64) -> Dataset {
        let mut rng = Rng::seed_from(seed);
        let total = self.config.train_sequences + self.config.eval_sequences;
        let samples: Vec<Sample> = (0..total)
            .map(|_| {
                let seq = self.sample_sequence(&mut rng);
                let input = seq[..self.config.seq_len].to_vec();
                let next = seq[1..=self.config.seq_len].to_vec();
                Sample {
                    input: ModelInput::Tokens(input),
                    target: Target::NextTokens(next),
                }
            })
            .collect();
        let eval_fraction = self.config.eval_sequences as f64 / total as f64;
        Dataset::from_samples("Markov LM (synthetic)", samples, eval_fraction)
    }
}

/// Convenience constructor: WikiText-2 stand-in dataset.
pub fn wikitext2_dataset(seed: u64) -> Dataset {
    MarkovCorpus::new(LmConfig::wikitext2_stand_in(), seed).generate(seed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let a = wikitext2_dataset(9);
        let b = wikitext2_dataset(9);
        assert_eq!(a, b);
        assert_ne!(a, wikitext2_dataset(10));
    }

    #[test]
    fn sample_shapes_are_consistent() {
        let config = LmConfig::wikitext2_stand_in();
        let d = wikitext2_dataset(1);
        assert_eq!(d.train.len(), config.train_sequences);
        assert_eq!(d.eval.len(), config.eval_sequences);
        for sample in d.train.iter().chain(d.eval.iter()) {
            match (&sample.input, &sample.target) {
                (ModelInput::Tokens(input), Target::NextTokens(next)) => {
                    assert_eq!(input.len(), config.seq_len);
                    assert_eq!(next.len(), config.seq_len);
                    // Targets are the inputs shifted by one.
                    assert_eq!(&input[1..], &next[..next.len() - 1]);
                    assert!(input.iter().all(|&t| t < config.vocab_size));
                }
                _ => panic!("unexpected sample kind"),
            }
        }
    }

    #[test]
    fn corpus_has_predictable_structure() {
        // The preferred-successor structure should make bigrams much more
        // concentrated than uniform: measure how often the most common
        // successor of each token occurs.
        let config = LmConfig::wikitext2_stand_in();
        let corpus = MarkovCorpus::new(config, 4);
        let d = corpus.generate(4);
        let v = config.vocab_size;
        let mut counts = vec![vec![0u32; v]; v];
        for sample in &d.train {
            if let ModelInput::Tokens(tokens) = &sample.input {
                for w in tokens.windows(2) {
                    counts[w[0]][w[1]] += 1;
                }
            }
        }
        let mut concentrated = 0usize;
        let mut observed = 0usize;
        for row in &counts {
            let total: u32 = row.iter().sum();
            if total < 5 {
                continue;
            }
            observed += 1;
            let max = *row.iter().max().unwrap();
            if f64::from(max) / f64::from(total) > 2.0 / v as f64 {
                concentrated += 1;
            }
        }
        assert!(observed > 0);
        assert!(concentrated * 10 >= observed * 9);
    }
}
