//! Synthetic vision workload (CIFAR-10 / ViT stand-in).
//!
//! Each class is a random prototype in patch-feature space; samples are the
//! prototype plus Gaussian pixel noise, split into patch rows the way a ViT
//! splits an image into patches. A tiny ViT reaches high accuracy on this
//! task after a couple of epochs, giving the Figure 12 ViT curve a functional
//! stand-in.

use crate::dataset::Dataset;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;
use hyflex_transformer::trainer::{Sample, Target};
use hyflex_transformer::ModelInput;

/// Configuration of the synthetic vision task.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VisionConfig {
    /// Number of classes (CIFAR-10 has 10).
    pub num_classes: usize,
    /// Number of patches per image.
    pub patches: usize,
    /// Feature dimension per patch.
    pub patch_dim: usize,
    /// Pixel noise standard deviation (controls difficulty).
    pub noise_std: f32,
    /// Training samples.
    pub train_samples: usize,
    /// Evaluation samples.
    pub eval_samples: usize,
}

impl Default for VisionConfig {
    fn default() -> Self {
        VisionConfig {
            num_classes: 10,
            patches: 9,
            patch_dim: 24,
            noise_std: 0.4,
            train_samples: 200,
            eval_samples: 80,
        }
    }
}

/// Generates the synthetic CIFAR-10 stand-in dataset.
pub fn generate(config: &VisionConfig, seed: u64) -> Dataset {
    let mut rng = Rng::seed_from(seed ^ 0x51f1_a0e5);
    // One prototype image (patches x patch_dim) per class.
    let prototypes: Vec<Matrix> = (0..config.num_classes)
        .map(|_| Matrix::random_normal(config.patches, config.patch_dim, 0.0, 1.0, &mut rng))
        .collect();
    let total = config.train_samples + config.eval_samples;
    let samples: Vec<Sample> = (0..total)
        .map(|_| {
            let class = rng.below(config.num_classes);
            let mut image = Matrix::random_normal(
                config.patches,
                config.patch_dim,
                0.0,
                config.noise_std,
                &mut rng,
            );
            // Noise plus prototype, added in place: both have the image
            // shape by construction, so no shape check can fail.
            for (x, &p) in image
                .as_mut_slice()
                .iter_mut()
                .zip(prototypes[class].as_slice())
            {
                *x += p;
            }
            Sample {
                input: ModelInput::Features(image),
                target: Target::Class(class),
            }
        })
        .collect();
    let eval_fraction = config.eval_samples as f64 / total as f64;
    Dataset::from_samples("CIFAR-10 (synthetic)", samples, eval_fraction)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_and_sized() {
        let config = VisionConfig::default();
        let a = generate(&config, 3);
        let b = generate(&config, 3);
        assert_eq!(a, b);
        assert_eq!(a.train.len(), config.train_samples);
        assert_eq!(a.eval.len(), config.eval_samples);
    }

    #[test]
    fn samples_have_patch_features_and_valid_labels() {
        let config = VisionConfig::default();
        let d = generate(&config, 5);
        for sample in d.train.iter().take(10) {
            match (&sample.input, &sample.target) {
                (ModelInput::Features(f), Target::Class(c)) => {
                    assert_eq!(f.shape(), (config.patches, config.patch_dim));
                    assert!(*c < config.num_classes);
                }
                _ => panic!("unexpected sample kind"),
            }
        }
    }

    #[test]
    fn classes_are_separable_a_linear_probe_on_prototypes() {
        // Nearest-prototype classification on the raw features should be far
        // above chance, confirming the task is learnable.
        let config = VisionConfig {
            train_samples: 60,
            eval_samples: 40,
            ..VisionConfig::default()
        };
        let d = generate(&config, 7);
        // Estimate per-class means from train split.
        let mut sums: Vec<Matrix> =
            vec![Matrix::zeros(config.patches, config.patch_dim); config.num_classes];
        let mut counts = vec![0usize; config.num_classes];
        for s in &d.train {
            if let (ModelInput::Features(f), Target::Class(c)) = (&s.input, &s.target) {
                sums[*c].add_assign(f).unwrap();
                counts[*c] += 1;
            }
        }
        let means: Vec<Matrix> = sums
            .into_iter()
            .zip(counts.iter())
            .map(|(m, &c)| m.scale(1.0 / c.max(1) as f32))
            .collect();
        let mut correct = 0usize;
        for s in &d.eval {
            if let (ModelInput::Features(f), Target::Class(c)) = (&s.input, &s.target) {
                let mut best = 0usize;
                let mut best_dist = f32::INFINITY;
                for (k, mean) in means.iter().enumerate() {
                    let dist = f.sub(mean).unwrap().frobenius_norm();
                    if dist < best_dist {
                        best_dist = dist;
                        best = k;
                    }
                }
                if best == *c {
                    correct += 1;
                }
            }
        }
        let accuracy = correct as f64 / d.eval.len() as f64;
        assert!(accuracy > 0.8, "nearest-prototype accuracy {accuracy}");
    }
}
