//! Descriptive statistics and evaluation metrics.
//!
//! The paper reports accuracy for most GLUE tasks, Matthews correlation for
//! CoLA, Pearson correlation for STS-B, and loss/perplexity for the decoder
//! models. All of those metrics are implemented here so the benchmark
//! harness can print the same kinds of rows.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f32]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().map(|x| *x as f64).sum::<f64>() / xs.len() as f64
}

/// Pearson correlation coefficient between two equal-length slices.
///
/// Returns 0 when either input is constant or the slices are empty.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn pearson(xs: &[f32], ys: &[f32]) -> f64 {
    assert_eq!(xs.len(), ys.len(), "pearson requires equal-length inputs");
    if xs.is_empty() {
        return 0.0;
    }
    let mx = mean(xs);
    let my = mean(ys);
    let mut cov = 0.0f64;
    let mut var_x = 0.0f64;
    let mut var_y = 0.0f64;
    for (x, y) in xs.iter().zip(ys.iter()) {
        let dx = *x as f64 - mx;
        let dy = *y as f64 - my;
        cov += dx * dy;
        var_x += dx * dx;
        var_y += dy * dy;
    }
    if var_x == 0.0 || var_y == 0.0 {
        return 0.0;
    }
    cov / (var_x.sqrt() * var_y.sqrt())
}

/// Binary confusion matrix.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ConfusionMatrix {
    /// True positives.
    tp: usize,
    /// True negatives.
    tn: usize,
    /// False positives.
    fp: usize,
    /// False negatives.
    fn_: usize,
}

impl ConfusionMatrix {
    /// Builds a confusion matrix from predicted and true binary labels.
    ///
    /// # Panics
    ///
    /// Panics if the slices have different lengths.
    pub fn from_labels(predicted: &[bool], actual: &[bool]) -> Self {
        assert_eq!(
            predicted.len(),
            actual.len(),
            "confusion matrix requires equal-length inputs"
        );
        let mut cm = ConfusionMatrix::default();
        for (&p, &a) in predicted.iter().zip(actual.iter()) {
            match (p, a) {
                (true, true) => cm.tp += 1,
                (false, false) => cm.tn += 1,
                (true, false) => cm.fp += 1,
                (false, true) => cm.fn_ += 1,
            }
        }
        cm
    }

    /// Total number of samples.
    pub fn total(&self) -> usize {
        self.tp + self.tn + self.fp + self.fn_
    }

    /// Matthews correlation coefficient (the CoLA metric).
    ///
    /// Returns 0 when any marginal is zero (the conventional definition).
    pub fn matthews_correlation(&self) -> f64 {
        let tp = self.tp as f64;
        let tn = self.tn as f64;
        let fp = self.fp as f64;
        let fn_ = self.fn_ as f64;
        let denom = ((tp + fp) * (tp + fn_) * (tn + fp) * (tn + fn_)).sqrt();
        if denom == 0.0 {
            return 0.0;
        }
        (tp * tn - fp * fn_) / denom
    }

    /// F1 score.
    pub fn f1(&self) -> f64 {
        let precision_denom = (self.tp + self.fp) as f64;
        let recall_denom = (self.tp + self.fn_) as f64;
        if precision_denom == 0.0 || recall_denom == 0.0 {
            return 0.0;
        }
        let precision = self.tp as f64 / precision_denom;
        let recall = self.tp as f64 / recall_denom;
        if precision + recall == 0.0 {
            return 0.0;
        }
        2.0 * precision * recall / (precision + recall)
    }
}

/// Multi-class classification accuracy from predicted and true class indices.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn accuracy(predicted: &[usize], actual: &[usize]) -> f64 {
    assert_eq!(
        predicted.len(),
        actual.len(),
        "accuracy requires equal-length inputs"
    );
    if predicted.is_empty() {
        return 0.0;
    }
    let correct = predicted
        .iter()
        .zip(actual.iter())
        .filter(|(p, a)| p == a)
        .count();
    correct as f64 / predicted.len() as f64
}

/// Perplexity from a mean cross-entropy (natural-log) loss.
pub fn perplexity(mean_loss: f64) -> f64 {
    mean_loss.exp()
}

/// Geometric mean of a set of positive values (used for the paper's G-AVG
/// column across GLUE tasks). Returns 0 if any value is non-positive.
// hyflex-lint: allow(U2) — examples/encoder_glue_pipeline.rs prints its G-AVG row with it
pub fn geometric_mean(values: &[f64]) -> f64 {
    if values.is_empty() || values.iter().any(|v| *v <= 0.0) {
        return 0.0;
    }
    let log_sum: f64 = values.iter().map(|v| v.ln()).sum();
    (log_sum / values.len() as f64).exp()
}

/// Index of the maximum element (first occurrence). Returns 0 for empty input.
pub fn argmax(xs: &[f32]) -> usize {
    xs.iter()
        .enumerate()
        .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
        .map(|(i, _)| i)
        .unwrap_or(0)
}

/// Returns the indices of the `k` largest values in descending order.
pub fn top_k_indices(xs: &[f32], k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..xs.len()).collect();
    idx.sort_by(|&a, &b| {
        xs[b]
            .partial_cmp(&xs[a])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    idx.truncate(k.min(xs.len()));
    idx
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_variance_std() {
        let xs = [2.0f32, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-9);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn pearson_perfect_and_inverse_correlation() {
        let xs = [1.0f32, 2.0, 3.0, 4.0];
        let ys = [2.0f32, 4.0, 6.0, 8.0];
        assert!((pearson(&xs, &ys) - 1.0).abs() < 1e-9);
        let zs = [8.0f32, 6.0, 4.0, 2.0];
        assert!((pearson(&xs, &zs) + 1.0).abs() < 1e-9);
    }

    #[test]
    fn pearson_degenerate_inputs_return_zero() {
        assert_eq!(pearson(&[1.0, 1.0, 1.0], &[1.0, 2.0, 3.0]), 0.0);
        assert_eq!(pearson(&[], &[]), 0.0);
    }

    #[test]
    fn confusion_matrix_counts() {
        let predicted = [true, true, false, false, true];
        let actual = [true, false, false, true, true];
        let cm = ConfusionMatrix::from_labels(&predicted, &actual);
        assert_eq!(cm.tp, 2);
        assert_eq!(cm.fp, 1);
        assert_eq!(cm.fn_, 1);
        assert_eq!(cm.tn, 1);
        assert_eq!(cm.total(), 5);
    }

    #[test]
    fn matthews_correlation_perfect_prediction_is_one() {
        let labels = [true, false, true, false, true];
        let cm = ConfusionMatrix::from_labels(&labels, &labels);
        assert!((cm.matthews_correlation() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn matthews_correlation_inverted_prediction_is_minus_one() {
        let actual = [true, false, true, false];
        let predicted = [false, true, false, true];
        let cm = ConfusionMatrix::from_labels(&predicted, &actual);
        assert!((cm.matthews_correlation() + 1.0).abs() < 1e-9);
    }

    #[test]
    fn matthews_correlation_degenerate_is_zero() {
        let cm = ConfusionMatrix::from_labels(&[true, true], &[true, true]);
        assert_eq!(cm.matthews_correlation(), 0.0);
    }

    #[test]
    fn f1_score_behaviour() {
        let cm = ConfusionMatrix {
            tp: 8,
            tn: 5,
            fp: 2,
            fn_: 1,
        };
        let f1 = cm.f1();
        assert!(f1 > 0.8 && f1 < 1.0);
        let empty = ConfusionMatrix::default();
        assert_eq!(empty.f1(), 0.0);
    }

    #[test]
    fn multiclass_accuracy() {
        assert!((accuracy(&[0, 1, 2, 1], &[0, 1, 1, 1]) - 0.75).abs() < 1e-9);
        assert_eq!(accuracy(&[], &[]), 0.0);
    }

    #[test]
    fn perplexity_of_zero_loss_is_one() {
        assert!((perplexity(0.0) - 1.0).abs() < 1e-12);
        assert!(perplexity(2.0) > perplexity(1.0));
    }

    #[test]
    fn geometric_mean_behaviour() {
        assert!((geometric_mean(&[4.0, 1.0]) - 2.0).abs() < 1e-9);
        assert_eq!(geometric_mean(&[]), 0.0);
        assert_eq!(geometric_mean(&[1.0, 0.0]), 0.0);
    }

    #[test]
    fn argmax_and_top_k() {
        let xs = [0.1f32, 0.9, 0.5, 0.7];
        assert_eq!(argmax(&xs), 1);
        assert_eq!(top_k_indices(&xs, 2), vec![1, 3]);
        assert_eq!(top_k_indices(&xs, 10).len(), 4);
        assert_eq!(argmax(&[]), 0);
    }
}
