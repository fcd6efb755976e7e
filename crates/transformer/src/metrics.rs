//! Task-level evaluation metrics.
//!
//! The paper reports accuracy for most GLUE tasks and CIFAR-10, Matthews
//! correlation for CoLA, Pearson correlation for STS-B, and evaluation loss
//! for the decoder models. [`TaskMetrics`] packages those so the benchmark
//! harness can print whichever one the paper uses for a given task.

use hyflex_tensor::stats::{self, ConfusionMatrix};

/// Quality metrics for one evaluation run.
#[derive(Debug, Clone, PartialEq)]
pub enum TaskMetrics {
    /// Classification metrics.
    Classification {
        /// Plain accuracy in `[0, 1]`.
        accuracy: f64,
        /// Matthews correlation coefficient (binary tasks; 0 otherwise).
        matthews: f64,
        /// F1 score (binary tasks; 0 otherwise).
        f1: f64,
    },
    /// Regression metrics.
    Regression {
        /// Pearson correlation between predictions and targets.
        pearson: f64,
    },
    /// Language-modeling metrics.
    LanguageModeling {
        /// Mean cross-entropy loss (natural log).
        loss: f64,
        /// Perplexity `exp(loss)`.
        perplexity: f64,
    },
}

impl TaskMetrics {
    /// Builds classification metrics from predicted and true class indices.
    pub fn classification(predicted: &[usize], actual: &[usize]) -> Self {
        let accuracy = stats::accuracy(predicted, actual);
        // Binary confusion-matrix metrics when the label space is {0, 1}.
        let is_binary = predicted.iter().chain(actual.iter()).all(|&c| c < 2);
        let (matthews, f1) = if is_binary && !predicted.is_empty() {
            let p: Vec<bool> = predicted.iter().map(|&c| c == 1).collect();
            let a: Vec<bool> = actual.iter().map(|&c| c == 1).collect();
            let cm = ConfusionMatrix::from_labels(&p, &a);
            (cm.matthews_correlation(), cm.f1())
        } else {
            (0.0, 0.0)
        };
        TaskMetrics::Classification {
            accuracy,
            matthews,
            f1,
        }
    }

    /// Builds regression metrics from predictions and targets.
    pub fn regression(predicted: &[f32], actual: &[f32]) -> Self {
        TaskMetrics::Regression {
            pearson: stats::pearson(predicted, actual),
        }
    }

    /// Builds language-modeling metrics from the mean cross-entropy loss.
    pub fn language_modeling(mean_loss: f64) -> Self {
        TaskMetrics::LanguageModeling {
            loss: mean_loss,
            perplexity: stats::perplexity(mean_loss),
        }
    }

    /// The single "headline" number the paper reports for this kind of task:
    /// accuracy, Matthews correlation (if the accuracy field is not the
    /// published metric the caller can still read it directly), Pearson, or
    /// negative loss (so that "higher is better" holds uniformly).
    pub fn primary_value(&self) -> f64 {
        match self {
            TaskMetrics::Classification { accuracy, .. } => *accuracy,
            TaskMetrics::Regression { pearson } => *pearson,
            TaskMetrics::LanguageModeling { loss, .. } => -loss,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Matthews correlation, if this is a classification metric.
    fn matthews(m: &TaskMetrics) -> Option<f64> {
        match m {
            TaskMetrics::Classification { matthews, .. } => Some(*matthews),
            _ => None,
        }
    }

    /// Accuracy, if this is a classification metric.
    fn accuracy(m: &TaskMetrics) -> Option<f64> {
        match m {
            TaskMetrics::Classification { accuracy, .. } => Some(*accuracy),
            _ => None,
        }
    }

    /// Pearson correlation, if this is a regression metric.
    fn pearson(m: &TaskMetrics) -> Option<f64> {
        match m {
            TaskMetrics::Regression { pearson } => Some(*pearson),
            _ => None,
        }
    }

    /// Evaluation loss and perplexity, if this is a language-modeling metric.
    fn loss_and_perplexity(m: &TaskMetrics) -> Option<(f64, f64)> {
        match m {
            TaskMetrics::LanguageModeling { loss, perplexity } => Some((*loss, *perplexity)),
            _ => None,
        }
    }

    #[test]
    fn classification_metrics_for_perfect_predictions() {
        let m = TaskMetrics::classification(&[0, 1, 1, 0], &[0, 1, 1, 0]);
        assert_eq!(accuracy(&m), Some(1.0));
        assert_eq!(matthews(&m), Some(1.0));
        assert!((m.primary_value() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn multiclass_predictions_skip_binary_metrics() {
        let m = TaskMetrics::classification(&[0, 1, 2], &[0, 2, 2]);
        assert!((accuracy(&m).unwrap() - 2.0 / 3.0).abs() < 1e-9);
        assert_eq!(matthews(&m), Some(0.0));
    }

    #[test]
    fn regression_metrics_report_pearson() {
        let m = TaskMetrics::regression(&[1.0, 2.0, 3.0], &[2.0, 4.0, 6.0]);
        assert!((pearson(&m).unwrap() - 1.0).abs() < 1e-9);
        assert!(accuracy(&m).is_none());
    }

    #[test]
    fn language_modeling_metrics_expose_loss_and_perplexity() {
        let m = TaskMetrics::language_modeling(2.0);
        let (loss, perplexity) = loss_and_perplexity(&m).unwrap();
        assert_eq!(loss, 2.0);
        assert!((perplexity - 2.0f64.exp()).abs() < 1e-9);
        assert!((m.primary_value() + 2.0).abs() < 1e-12);
    }
}
