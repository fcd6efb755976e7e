//! Training and evaluation loops.
//!
//! The trainer implements the paper's fine-tuning recipe (AdamW, a handful of
//! epochs, small batches — Table 1) generically over classification,
//! regression, and language-modeling tasks so both the dense pre-training of
//! the tiny models and the post-SVD fine-tuning of the gradient
//! redistribution pipeline reuse the same code.

use crate::config::TaskKind;
use crate::error::ModelError;
use crate::metrics::TaskMetrics;
use crate::model::{ModelInput, TransformerModel};
use crate::param::{AdamWConfig, ParamVisit};
use crate::Result;
use hyflex_tensor::activations::softmax;
use hyflex_tensor::stats;
use hyflex_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// The supervised target for one sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Target {
    /// Class index for classification tasks.
    Class(usize),
    /// Scalar value for regression tasks.
    Value(f32),
    /// Next-token ids (same length as the input) for language modeling.
    NextTokens(Vec<usize>),
}

/// One supervised sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Model input.
    pub input: ModelInput,
    /// Supervised target.
    pub target: Target,
}

/// Loss value and gradient for one sample's logits.
fn loss_and_grad(task: &TaskKind, logits: &Matrix, target: &Target) -> Result<(f64, Matrix)> {
    match (task, target) {
        (TaskKind::Classification { num_classes }, Target::Class(label)) => {
            if *label >= *num_classes || logits.cols() != *num_classes {
                return Err(ModelError::InvalidInput(format!(
                    "label {label} incompatible with {num_classes}-way head"
                )));
            }
            let probs = softmax(logits.row(0));
            let loss = -(probs[*label].max(1e-12) as f64).ln();
            let mut grad = Matrix::zeros(1, *num_classes);
            for (c, &p) in probs.iter().enumerate() {
                let indicator = if c == *label { 1.0 } else { 0.0 };
                grad.set(0, c, p - indicator);
            }
            Ok((loss, grad))
        }
        (TaskKind::Regression, Target::Value(value)) => {
            let prediction = logits.at(0, 0);
            let diff = prediction - value;
            let grad = Matrix::from_vec(1, 1, vec![2.0 * diff])?;
            Ok((f64::from(diff * diff), grad))
        }
        (TaskKind::LanguageModeling, Target::NextTokens(next)) => {
            if next.len() != logits.rows() {
                return Err(ModelError::InvalidInput(format!(
                    "{} next tokens for {} positions",
                    next.len(),
                    logits.rows()
                )));
            }
            let vocab = logits.cols();
            let mut grad = Matrix::zeros(logits.rows(), vocab);
            let mut total_loss = 0.0f64;
            for (r, &tok) in next.iter().enumerate() {
                if tok >= vocab {
                    return Err(ModelError::InvalidInput(format!(
                        "target token {tok} outside vocabulary {vocab}"
                    )));
                }
                let probs = softmax(logits.row(r));
                total_loss += -(probs[tok].max(1e-12) as f64).ln();
                for (c, &p) in probs.iter().enumerate() {
                    let indicator = if c == tok { 1.0 } else { 0.0 };
                    grad.set(r, c, (p - indicator) / next.len() as f32);
                }
            }
            Ok((total_loss / next.len() as f64, grad))
        }
        _ => Err(ModelError::InvalidInput(
            "target kind does not match the model task".to_string(),
        )),
    }
}

/// Runs one sample's forward/backward pass, accumulating its gradients into
/// `model`, and returns the sample's loss.
fn accumulate_sample(
    model: &mut TransformerModel,
    task: &TaskKind,
    sample: &Sample,
) -> Result<f64> {
    let mut sample_loss = 0.0f64;
    model.forward_backward(&sample.input, &mut |logits: &Matrix| {
        let (loss, grad) = loss_and_grad(task, logits, &sample.target)?;
        sample_loss = loss;
        Ok(grad)
    })?;
    Ok(sample_loss)
}

/// Evaluation summary over a dataset split.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct EvalReport {
    /// Mean loss over the split.
    pub mean_loss: f64,
    /// Task-appropriate quality metrics.
    pub metrics: TaskMetrics,
}

/// Fine-tuning driver.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Trainer {
    /// Optimizer hyper-parameters.
    pub optimizer: AdamWConfig,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
}

impl Trainer {
    /// Creates a trainer with the given optimizer settings and batch size.
    pub fn new(optimizer: AdamWConfig, batch_size: usize) -> Self {
        Trainer {
            optimizer,
            batch_size: batch_size.max(1),
        }
    }

    /// Runs one epoch of training and returns the mean training loss.
    ///
    /// # Errors
    ///
    /// Returns input/shape errors from the model.
    pub fn train_epoch(&self, model: &mut TransformerModel, samples: &[Sample]) -> Result<f64> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let task = model.config().task;
        let mut total_loss = 0.0f64;
        for batch in samples.chunks(self.batch_size) {
            model.zero_grad();
            for sample in batch {
                total_loss += accumulate_sample(model, &task, sample)?;
            }
            model.step(&self.optimizer, batch.len());
        }
        Ok(total_loss / samples.len() as f64)
    }

    /// Runs several epochs, returning the loss after each epoch.
    ///
    /// # Errors
    ///
    /// Returns input/shape errors from the model.
    pub fn train(
        &self,
        model: &mut TransformerModel,
        samples: &[Sample],
        epochs: usize,
    ) -> Result<Vec<f64>> {
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            losses.push(self.train_epoch(model, samples)?);
        }
        Ok(losses)
    }

    /// Evaluates a model on a dataset split without updating parameters.
    ///
    /// # Errors
    ///
    /// Returns input/shape errors from the model.
    pub fn evaluate(&self, model: &TransformerModel, samples: &[Sample]) -> Result<EvalReport> {
        evaluate_model(model, samples)
    }

    /// Accumulates loss gradients over `samples` **without** updating any
    /// parameter or clearing existing gradients. Returns the mean loss.
    ///
    /// The gradient-redistribution pipeline uses this after fine-tuning to
    /// measure `|∂L/∂σ_r|` for every retained singular value (Algorithm 1,
    /// step 4). Call `model.zero_grad()` first if a fresh accumulation is
    /// wanted.
    ///
    /// # Errors
    ///
    /// Returns input/shape errors from the model.
    pub fn accumulate_gradients(
        &self,
        model: &mut TransformerModel,
        samples: &[Sample],
    ) -> Result<f64> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let task = model.config().task;
        let mut total_loss = 0.0f64;
        for sample in samples {
            total_loss += accumulate_sample(model, &task, sample)?;
        }
        Ok(total_loss / samples.len() as f64)
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer::new(AdamWConfig::default(), 8)
    }
}

/// Evaluates a model on a dataset split (free function so that callers
/// without a [`Trainer`] — e.g. the noise simulator — can reuse it).
///
/// # Errors
///
/// Returns input/shape errors from the model.
pub fn evaluate_model(model: &TransformerModel, samples: &[Sample]) -> Result<EvalReport> {
    let task = model.config().task;
    let mut total_loss = 0.0f64;
    let mut predicted_classes = Vec::new();
    let mut actual_classes = Vec::new();
    let mut predicted_values = Vec::new();
    let mut actual_values = Vec::new();

    for sample in samples {
        let logits = model.forward(&sample.input)?;
        let (loss, _) = loss_and_grad(&task, &logits, &sample.target)?;
        total_loss += loss;
        match (&task, &sample.target) {
            (TaskKind::Classification { .. }, Target::Class(label)) => {
                predicted_classes.push(stats::argmax(logits.row(0)));
                actual_classes.push(*label);
            }
            (TaskKind::Regression, Target::Value(v)) => {
                predicted_values.push(logits.at(0, 0));
                actual_values.push(*v);
            }
            _ => {}
        }
    }

    let n = samples.len().max(1) as f64;
    let mean_loss = total_loss / n;
    let metrics = match task {
        TaskKind::Classification { .. } => {
            TaskMetrics::classification(&predicted_classes, &actual_classes)
        }
        TaskKind::Regression => TaskMetrics::regression(&predicted_values, &actual_values),
        TaskKind::LanguageModeling => TaskMetrics::language_modeling(mean_loss),
    };
    Ok(EvalReport { mean_loss, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ModelConfig;
    use hyflex_tensor::rng::Rng;

    fn classification_dataset(rng: &mut Rng, n: usize) -> Vec<Sample> {
        // Simple learnable rule: class = (whether token 1 appears in the
        // first half of the sequence).
        (0..n)
            .map(|_| {
                let label = rng.below(2);
                let mut tokens: Vec<usize> = (0..8).map(|_| 2 + rng.below(30)).collect();
                if label == 1 {
                    tokens[rng.below(4)] = 1;
                }
                Sample {
                    input: ModelInput::Tokens(tokens),
                    target: Target::Class(label),
                }
            })
            .collect()
    }

    #[test]
    fn training_improves_classification_accuracy() {
        let mut rng = Rng::seed_from(1);
        let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let train = classification_dataset(&mut rng, 96);
        let test = classification_dataset(&mut rng, 48);
        let trainer = Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        );
        let before = trainer.evaluate(&model, &test).unwrap();
        let losses = trainer.train(&mut model, &train, 8).unwrap();
        let after = trainer.evaluate(&model, &test).unwrap();
        assert!(losses.last().unwrap() < losses.first().unwrap());
        assert!(
            after.metrics.primary_value() > before.metrics.primary_value(),
            "accuracy should improve: {:?} -> {:?}",
            before.metrics,
            after.metrics
        );
        assert!(after.metrics.primary_value() > 0.7);
    }

    #[test]
    fn language_model_training_reduces_loss() {
        let mut rng = Rng::seed_from(2);
        let mut model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        // Deterministic cyclic sequences are easy to learn.
        let samples: Vec<Sample> = (0..24)
            .map(|i| {
                let start = i % 8;
                let tokens: Vec<usize> = (0..8).map(|t| (start + t) % 16).collect();
                let next: Vec<usize> = (0..8).map(|t| (start + t + 1) % 16).collect();
                Sample {
                    input: ModelInput::Tokens(tokens),
                    target: Target::NextTokens(next),
                }
            })
            .collect();
        let trainer = Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            8,
        );
        let losses = trainer.train(&mut model, &samples, 6).unwrap();
        assert!(
            losses.last().unwrap() < &(losses[0] * 0.9),
            "LM loss should fall: {losses:?}"
        );
        let report = trainer.evaluate(&model, &samples).unwrap();
        assert!(report.metrics.perplexity().unwrap() < (64.0f64));
    }

    #[test]
    fn regression_training_learns_a_signal() {
        let mut rng = Rng::seed_from(3);
        let mut model =
            TransformerModel::new(ModelConfig::tiny_encoder_regression(), &mut rng).unwrap();
        // Target = fraction of token-1 occurrences.
        let samples: Vec<Sample> = (0..64)
            .map(|_| {
                let ones = rng.below(9);
                let mut tokens = vec![2usize; 8];
                for slot in tokens.iter_mut().take(ones) {
                    *slot = 1;
                }
                Sample {
                    input: ModelInput::Tokens(tokens),
                    target: Target::Value(ones as f32 / 8.0),
                }
            })
            .collect();
        let trainer = Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        );
        trainer.train(&mut model, &samples, 8).unwrap();
        let report = trainer.evaluate(&model, &samples).unwrap();
        assert!(
            report.metrics.primary_value() > 0.5,
            "Pearson correlation should be positive and sizeable: {:?}",
            report.metrics
        );
    }

    #[test]
    fn mismatched_targets_are_rejected() {
        let mut rng = Rng::seed_from(4);
        let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let bad = vec![Sample {
            input: ModelInput::Tokens(vec![1, 2, 3]),
            target: Target::Value(0.3),
        }];
        let trainer = Trainer::default();
        assert!(trainer.evaluate(&model, &bad).is_err());
        assert!(trainer.train_epoch(&mut model, &[]).unwrap() == 0.0);
    }

    #[test]
    fn class_label_out_of_range_is_rejected() {
        let mut rng = Rng::seed_from(5);
        let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let bad = vec![Sample {
            input: ModelInput::Tokens(vec![1, 2, 3]),
            target: Target::Class(5),
        }];
        assert!(evaluate_model(&model, &bad).is_err());
    }
}
