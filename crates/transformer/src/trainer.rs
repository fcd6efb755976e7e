//! Training and evaluation loops.
//!
//! The trainer implements the paper's fine-tuning recipe (AdamW, a handful of
//! epochs, small batches — Table 1) generically over classification,
//! regression, and language-modeling tasks so both the dense pre-training of
//! the tiny models and the post-SVD fine-tuning of the gradient
//! redistribution pipeline reuse the same code.
//!
//! ## Data-parallel passes
//!
//! [`Trainer::train`] and [`Trainer::accumulate_gradients`] run the samples
//! of a batch on the trainer's [`JobPool`], and every model, loss and
//! gradient is bit-identical to the serial loop for every pool width. Each
//! worker owns a replica of the model (values and gradients, no optimizer
//! moments) for the whole call; it runs one sample's forward/backward pass
//! with gradients formed from zero and, when the sample's turn comes
//! ([`JobPool::map_fold_in_order`]), adds them into the master model and
//! the sample's loss into the running total. Every parameter but the token
//! table receives one gradient add per sample, so `G + (0 + g)` is the
//! serial chain `G + g`; the table receives one add per token occurrence,
//! so its rows are replayed in position order from the gradient at the
//! embedding output. After each optimizer step the replicas copy the
//! master's values.

use crate::config::TaskKind;
use crate::error::ModelError;
use crate::metrics::TaskMetrics;
use crate::model::{ModelInput, TransformerModel};
use crate::param::{AdamWConfig, ParamVisit};
use crate::Result;
use hyflex_parallel::JobPool;
use hyflex_tensor::activations::softmax;
use hyflex_tensor::stats;
use hyflex_tensor::Matrix;

/// The supervised target for one sample.
#[derive(Debug, Clone, PartialEq)]
pub enum Target {
    /// Class index for classification tasks.
    Class(usize),
    /// Scalar value for regression tasks.
    Value(f32),
    /// Next-token ids (same length as the input) for language modeling.
    NextTokens(Vec<usize>),
}

/// One supervised sample.
#[derive(Debug, Clone, PartialEq)]
pub struct Sample {
    /// Model input.
    pub input: ModelInput,
    /// Supervised target.
    pub target: Target,
}

/// Loss value and gradient for one sample's logits.
fn loss_and_grad(task: &TaskKind, logits: &Matrix, target: &Target) -> Result<(f64, Matrix)> {
    let mut grad = Matrix::zeros(logits.rows(), logits.cols());
    let loss = sample_loss(task, logits, target, Some(&mut grad))?;
    Ok((loss, grad))
}

/// Loss for one sample's logits. With `grad` (shaped like `logits`) it
/// also writes `dL/dlogits` there; evaluation passes `None` and so builds
/// no gradient, with the same loss bits as [`loss_and_grad`].
fn sample_loss(
    task: &TaskKind,
    logits: &Matrix,
    target: &Target,
    mut grad: Option<&mut Matrix>,
) -> Result<f64> {
    match (task, target) {
        (TaskKind::Classification { num_classes }, Target::Class(label)) => {
            if *label >= *num_classes || logits.cols() != *num_classes {
                return Err(ModelError::InvalidInput(format!(
                    "label {label} incompatible with {num_classes}-way head"
                )));
            }
            let probs = softmax(logits.row(0));
            if let Some(grad) = grad {
                for (c, &p) in probs.iter().enumerate() {
                    let indicator = if c == *label { 1.0 } else { 0.0 };
                    grad.set(0, c, p - indicator);
                }
            }
            Ok(-(probs[*label].max(1e-12) as f64).ln())
        }
        (TaskKind::Regression, Target::Value(value)) => {
            let diff = logits.at(0, 0) - value;
            if let Some(grad) = grad {
                grad.set(0, 0, 2.0 * diff);
            }
            Ok(f64::from(diff * diff))
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
            let mut total_loss = 0.0f64;
            for (r, &tok) in next.iter().enumerate() {
                if tok >= vocab {
                    return Err(ModelError::InvalidInput(format!(
                        "target token {tok} outside vocabulary {vocab}"
                    )));
                }
                let probs = softmax(logits.row(r));
                total_loss += -(probs[tok].max(1e-12) as f64).ln();
                if let Some(grad) = grad.as_deref_mut() {
                    for (c, &p) in probs.iter().enumerate() {
                        let indicator = if c == tok { 1.0 } else { 0.0 };
                        grad.set(r, c, (p - indicator) / next.len() as f32);
                    }
                }
            }
            Ok(total_loss / next.len() as f64)
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

/// One sample's pass on a worker replica: the loss, with every gradient but
/// the token table's accumulated into `replica` from zero, and the gradient
/// at the embedding output for the master to replay.
fn replica_pass(
    replica: &mut TransformerModel,
    task: &TaskKind,
    sample: &Sample,
) -> Result<(f64, Option<Matrix>)> {
    let mut sample_loss = 0.0f64;
    let (_, _, d_embedded) = replica.backward_to_embedding(&sample.input, &mut |logits| {
        let (loss, grad) = loss_and_grad(task, logits, &sample.target)?;
        sample_loss = loss;
        Ok(grad)
    })?;
    Ok((sample_loss, d_embedded))
}

/// Evaluation summary over a dataset split.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalReport {
    /// Mean loss over the split.
    pub mean_loss: f64,
    /// Task-appropriate quality metrics.
    pub metrics: TaskMetrics,
}

/// Fine-tuning driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Trainer {
    /// Optimizer hyper-parameters.
    pub optimizer: AdamWConfig,
    /// Mini-batch size (gradients are averaged over the batch).
    pub batch_size: usize,
    /// Workers for the samples of a batch (see the module docs); every
    /// width gives the same bits.
    pub pool: JobPool,
}

impl Trainer {
    /// Creates a trainer with the given optimizer settings and batch size,
    /// running on the machine's default parallelism.
    pub fn new(optimizer: AdamWConfig, batch_size: usize) -> Self {
        Trainer {
            optimizer,
            batch_size: batch_size.max(1),
            pool: JobPool::with_default_parallelism(),
        }
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
        let mut replicas = self.replicas(model, self.batch_size.min(samples.len()));
        let mut losses = Vec::with_capacity(epochs);
        for _ in 0..epochs {
            losses.push(self.epoch(model, &mut replicas, samples)?);
        }
        Ok(losses)
    }

    /// Evaluates a model on a dataset split without updating parameters,
    /// running the samples on the trainer's pool ([`evaluate_model`]).
    ///
    /// # Errors
    ///
    /// Returns input/shape errors from the model.
    pub fn evaluate(&self, model: &TransformerModel, samples: &[Sample]) -> Result<EvalReport> {
        evaluate_model(model, samples, &self.pool)
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
        let mut replicas = self.replicas(model, samples.len());
        let mut total_loss = 0.0f64;
        self.accumulate(model, &mut replicas, samples, &mut total_loss)?;
        Ok(total_loss / samples.len() as f64)
    }

    /// One worker replica per worker a pass over `batch` samples runs on;
    /// none when it runs serially on the master.
    fn replicas(&self, model: &TransformerModel, batch: usize) -> Vec<TransformerModel> {
        match self.pool.workers_for(batch) {
            1 => Vec::new(),
            workers => (0..workers).map(|_| model.replica()).collect(),
        }
    }

    /// One epoch over `samples`, batch by batch, re-syncing the replicas
    /// after every optimizer step.
    fn epoch(
        &self,
        model: &mut TransformerModel,
        replicas: &mut [TransformerModel],
        samples: &[Sample],
    ) -> Result<f64> {
        if samples.is_empty() {
            return Ok(0.0);
        }
        let mut total_loss = 0.0f64;
        for batch in samples.chunks(self.batch_size) {
            model.zero_grad();
            self.accumulate(model, replicas, batch, &mut total_loss)?;
            model.step(&self.optimizer, batch.len());
            for replica in replicas.iter_mut() {
                model.sync_replica(replica);
            }
        }
        Ok(total_loss / samples.len() as f64)
    }

    /// Accumulates the gradients of `batch` into `model` and adds each
    /// sample's loss to `total_loss`, in sample order: serially on the
    /// master without replicas, otherwise on the pool.
    fn accumulate(
        &self,
        model: &mut TransformerModel,
        replicas: &mut [TransformerModel],
        batch: &[Sample],
        total_loss: &mut f64,
    ) -> Result<()> {
        let task = model.config().task;
        if replicas.is_empty() {
            for sample in batch {
                *total_loss += accumulate_sample(model, &task, sample)?;
            }
            return Ok(());
        }
        let mut failure = None;
        self.pool.map_fold_in_order(
            batch,
            replicas,
            |replica, sample| replica_pass(replica, &task, sample),
            |replica, sample, pass| {
                if failure.is_some() {
                    // Past the first failure the serial loop has stopped:
                    // drop the sample's gradients instead of adding them.
                    replica.zero_grad();
                    return;
                }
                let folded = pass.and_then(|(loss, d_embedded)| {
                    model.absorb_sample(replica, &sample.input, d_embedded.as_ref())?;
                    *total_loss += loss;
                    Ok(())
                });
                if let Err(e) = folded {
                    replica.zero_grad();
                    failure = Some(e);
                }
            },
        );
        failure.map_or(Ok(()), Err)
    }
}

impl Default for Trainer {
    fn default() -> Self {
        Trainer::new(AdamWConfig::default(), 8)
    }
}

/// What one evaluated sample adds to an [`EvalReport`] besides its loss.
enum Prediction {
    /// Predicted and labelled class.
    Class(usize, usize),
    /// Predicted and target value.
    Value(f32, f32),
    /// Nothing (language modeling reports the loss alone).
    None,
}

/// Evaluates a model on a dataset split, running the samples' forward
/// passes on `pool` and folding their losses and predictions in sample
/// order, so every pool width gives the same bits. A free function so that
/// callers without a [`Trainer`] can reuse it: the noise simulator passes
/// [`JobPool::serial`], since its sweep already runs points in parallel.
///
/// # Errors
///
/// Returns input/shape errors from the model: the first failing sample's.
pub fn evaluate_model(
    model: &TransformerModel,
    samples: &[Sample],
    pool: &JobPool,
) -> Result<EvalReport> {
    let task = model.config().task;
    let passes = pool.par_map(samples, |sample| -> Result<(f64, Prediction)> {
        let logits = model.forward(&sample.input)?;
        let loss = sample_loss(&task, &logits, &sample.target, None)?;
        let prediction = match (&task, &sample.target) {
            (TaskKind::Classification { .. }, Target::Class(label)) => {
                Prediction::Class(stats::argmax(logits.row(0)), *label)
            }
            (TaskKind::Regression, Target::Value(v)) => Prediction::Value(logits.at(0, 0), *v),
            _ => Prediction::None,
        };
        Ok((loss, prediction))
    });

    let mut total_loss = 0.0f64;
    let mut predicted_classes = Vec::new();
    let mut actual_classes = Vec::new();
    let mut predicted_values = Vec::new();
    let mut actual_values = Vec::new();
    for pass in passes {
        let (loss, prediction) = pass?;
        total_loss += loss;
        match prediction {
            Prediction::Class(predicted, actual) => {
                predicted_classes.push(predicted);
                actual_classes.push(actual);
            }
            Prediction::Value(predicted, actual) => {
                predicted_values.push(predicted);
                actual_values.push(actual);
            }
            Prediction::None => {}
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
    use crate::factored::FactoredLinear;
    use crate::layers::AnyLinear;
    use hyflex_tensor::rng::Rng;
    use hyflex_tensor::svd::hard_threshold_rank;

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
        assert!(matches!(
            report.metrics,
            TaskMetrics::LanguageModeling { perplexity, .. } if perplexity < 64.0
        ));
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
        let losses = trainer.train(&mut model, &[], 1).unwrap();
        assert!(losses.iter().all(|&loss| loss == 0.0));
    }

    /// Trains `model` for 2 epochs and then accumulates gradients on top of
    /// the last batch's, on a pool of `width`; returns the model and every
    /// loss.
    fn pooled_run(
        model: &TransformerModel,
        samples: &[Sample],
        width: usize,
    ) -> (TransformerModel, Vec<f64>) {
        let trainer = Trainer {
            pool: JobPool::new(width),
            ..Trainer::new(
                AdamWConfig {
                    learning_rate: 3e-3,
                    ..AdamWConfig::default()
                },
                4,
            )
        };
        let mut model = model.clone();
        let mut losses = trainer.train(&mut model, samples, 2).unwrap();
        losses.push(trainer.accumulate_gradients(&mut model, samples).unwrap());
        (model, losses)
    }

    /// Every parameter (value, gradient, both moments, step count) and every
    /// loss is bit-identical across pool widths; width 1 is the serial loop
    /// on the master model.
    fn assert_pooled_training_is_exact(name: &str, model: &TransformerModel, samples: &[Sample]) {
        let (serial, serial_losses) = pooled_run(model, samples, 1);
        for width in [2, 3, 4] {
            let (pooled, losses) = pooled_run(model, samples, width);
            let bits = |l: &[f64]| l.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&losses),
                bits(&serial_losses),
                "{name}: losses, width {width}"
            );
            for ((label, p), (_, q)) in serial.params().iter().zip(pooled.params().iter()) {
                assert!(p == q, "{name}: {label} differs at width {width}");
            }
        }
    }

    /// Evaluation folds every sample's loss and prediction in sample
    /// order, so each pool width reports the serial bits, for every task
    /// kind (a sample count that does not divide into the widths).
    #[test]
    fn pooled_evaluation_is_exact_across_widths() {
        let mut rng = Rng::seed_from(24);
        let classifier = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let classes = classification_dataset(&mut rng, 13);
        let regressor =
            TransformerModel::new(ModelConfig::tiny_encoder_regression(), &mut rng).unwrap();
        let values: Vec<Sample> = classes
            .iter()
            .map(|s| Sample {
                input: s.input.clone(),
                target: Target::Value(rng.uniform() as f32),
            })
            .collect();
        let decoder = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        let next_tokens: Vec<Sample> = classes
            .iter()
            .map(|s| {
                let ModelInput::Tokens(tokens) = &s.input else {
                    unreachable!("the dataset is token input")
                };
                Sample {
                    input: s.input.clone(),
                    target: Target::NextTokens(tokens.iter().map(|t| (t + 1) % 64).collect()),
                }
            })
            .collect();
        for (model, samples) in [
            (&classifier, &classes),
            (&regressor, &values),
            (&decoder, &next_tokens),
        ] {
            let serial = evaluate_model(model, samples, &JobPool::serial()).unwrap();
            for width in [2, 3, 4] {
                let pooled = evaluate_model(model, samples, &JobPool::new(width)).unwrap();
                assert_eq!(pooled.mean_loss.to_bits(), serial.mean_loss.to_bits());
                assert_eq!(pooled, serial, "{} at width {width}", model.config().name);
            }
        }
    }

    #[test]
    fn pooled_training_is_exact_with_repeated_tokens() {
        // Every sample repeats tokens, so the table gradient depends on the
        // in-order row replay.
        let mut rng = Rng::seed_from(21);
        let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let samples: Vec<Sample> = (0..13)
            .map(|i| {
                let tokens: Vec<usize> = (0..10).map(|_| 1 + rng.below(5)).collect();
                Sample {
                    input: ModelInput::Tokens(tokens),
                    target: Target::Class(i % 2),
                }
            })
            .collect();
        assert_pooled_training_is_exact("repeated tokens", &model, &samples);
    }

    #[test]
    fn pooled_training_is_exact_on_a_factored_model() {
        let mut rng = Rng::seed_from(22);
        let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        for (_, layer) in model.named_linears_mut() {
            if let AnyLinear::Dense(dense) = &*layer {
                let w = dense.weight();
                let rank = hard_threshold_rank(w.rows(), w.cols());
                let factored = FactoredLinear::from_weight(w, rank).unwrap();
                *layer = AnyLinear::Factored(factored);
            }
        }
        let samples = classification_dataset(&mut rng, 13);
        assert_pooled_training_is_exact("factored", &model, &samples);
    }

    #[test]
    fn pooled_training_is_exact_on_tiny_decoder() {
        let mut rng = Rng::seed_from(23);
        let model = TransformerModel::new(ModelConfig::tiny_decoder(), &mut rng).unwrap();
        let samples: Vec<Sample> = (0..13)
            .map(|_| {
                let tokens: Vec<usize> = (0..9).map(|_| rng.below(64)).collect();
                let next = tokens[1..].iter().copied().chain([rng.below(64)]).collect();
                Sample {
                    input: ModelInput::Tokens(tokens),
                    target: Target::NextTokens(next),
                }
            })
            .collect();
        assert_pooled_training_is_exact("tiny_decoder", &model, &samples);
    }

    #[test]
    fn pooled_training_is_exact_on_tiny_vit() {
        let mut rng = Rng::seed_from(24);
        let model = TransformerModel::new(ModelConfig::tiny_vit(10), &mut rng).unwrap();
        let samples: Vec<Sample> = (0..13)
            .map(|_| Sample {
                input: ModelInput::Features(Matrix::random_normal(9, 24, 0.0, 1.0, &mut rng)),
                target: Target::Class(rng.below(10)),
            })
            .collect();
        assert_pooled_training_is_exact("tiny_vit", &model, &samples);
    }

    #[test]
    fn pooled_training_reports_the_first_failing_sample() {
        let mut rng = Rng::seed_from(25);
        let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let mut samples = classification_dataset(&mut rng, 9);
        samples[5].target = Target::Class(7);
        samples[7].input = ModelInput::Tokens(vec![1000]);
        for width in [1, 2, 3] {
            let trainer = Trainer {
                pool: JobPool::new(width),
                ..Trainer::default()
            };
            let err = trainer.train(&mut model.clone(), &samples, 1).unwrap_err();
            assert!(err.to_string().contains("label 7"), "width {width}: {err}");
        }
    }

    #[test]
    fn class_label_out_of_range_is_rejected() {
        let mut rng = Rng::seed_from(5);
        let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let bad = vec![Sample {
            input: ModelInput::Tokens(vec![1, 2, 3]),
            target: Target::Class(5),
        }];
        for workers in [1, 2] {
            assert!(evaluate_model(&model, &bad, &JobPool::new(workers)).is_err());
        }
    }
}
