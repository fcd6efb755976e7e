//! Dataset containers and splitting helpers.

use hyflex_transformer::trainer::Sample;

/// A named dataset with train and evaluation splits.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Human-readable dataset name (e.g. "MRPC (synthetic)").
    pub name: String,
    /// Training split.
    pub train: Vec<Sample>,
    /// Held-out evaluation split.
    pub eval: Vec<Sample>,
}

/// A pre-split constructor for the tests of this crate.
#[cfg(test)]
impl Dataset {
    /// Creates a dataset from pre-split samples.
    fn new(name: impl Into<String>, train: Vec<Sample>, eval: Vec<Sample>) -> Self {
        Dataset {
            name: name.into(),
            train,
            eval,
        }
    }
}

impl Dataset {
    /// Splits a flat sample list into train/eval with the given eval fraction.
    pub fn from_samples(
        name: impl Into<String>,
        mut samples: Vec<Sample>,
        eval_fraction: f64,
    ) -> Self {
        let eval_len = ((samples.len() as f64) * eval_fraction.clamp(0.0, 1.0)).round() as usize;
        let eval = samples.split_off(samples.len().saturating_sub(eval_len));
        Dataset {
            name: name.into(),
            train: samples,
            eval,
        }
    }

    /// Total number of samples across both splits.
    pub fn len(&self) -> usize {
        self.train.len() + self.eval.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_transformer::trainer::Target;
    use hyflex_transformer::ModelInput;

    fn dummy_samples(n: usize) -> Vec<Sample> {
        (0..n)
            .map(|i| Sample {
                input: ModelInput::Tokens(vec![i % 5, (i + 1) % 5]),
                target: Target::Class(i % 2),
            })
            .collect()
    }

    #[test]
    fn from_samples_splits_by_fraction() {
        let d = Dataset::from_samples("toy", dummy_samples(10), 0.3);
        assert_eq!(d.train.len(), 7);
        assert_eq!(d.eval.len(), 3);
        assert_eq!(d.len(), 10);
        assert!(!d.is_empty());
    }

    #[test]
    fn extreme_fractions_are_clamped() {
        let all_eval = Dataset::from_samples("x", dummy_samples(4), 2.0);
        assert_eq!(all_eval.train.len(), 0);
        assert_eq!(all_eval.eval.len(), 4);
        let none_eval = Dataset::from_samples("y", dummy_samples(4), -1.0);
        assert_eq!(none_eval.eval.len(), 0);
    }

    #[test]
    fn explicit_construction_keeps_splits() {
        let d = Dataset::new("z", dummy_samples(2), dummy_samples(3));
        assert_eq!(d.train.len(), 2);
        assert_eq!(d.eval.len(), 3);
        assert_eq!(d.name, "z");
    }
}
