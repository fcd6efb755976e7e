//! SVD-based gradient redistribution (paper Section 4, Algorithm 1).
//!
//! The pipeline:
//!
//! 1. **SVD decomposition** of every static linear layer (`W_Q`, `W_K`,
//!    `W_V`, `W_proj`, `FFN1`, `FFN2`).
//! 2. **Truncation** to the hard-threshold rank
//!    `D_Th = D_h1·D_h2 / (D_h1 + D_h2)` so the factored layer costs no more
//!    MACs or parameters than the dense one.
//! 3. **Fine-tuning** for 1–3 epochs with AdamW to recover the truncation
//!    loss. During this fine-tuning the information lost from the truncated
//!    ranks is re-absorbed by the retained ranks, which *concentrates* the
//!    loss gradient onto the leading singular values — the redistribution the
//!    technique is named after (Figure 11).
//! 4. **Gradient collection**: a final pass over the training data
//!    accumulates `|∂L/∂σ_r|` for every retained rank of every layer.
//! 5. **Rank selection / mapping** (in [`crate::selection`] and
//!    [`crate::noise_sim`]): the top-k% ranks by gradient magnitude go to
//!    SLC, the rest to MLC.

use crate::error::PimError;
use crate::Result;
use hyflex_parallel::JobPool;
use hyflex_tensor::svd::hard_threshold_rank;
pub use hyflex_tensor::svd::SvdAlgorithm;
use hyflex_tensor::Matrix;
use hyflex_transformer::layers::AnyLinear;
use hyflex_transformer::trainer::{EvalReport, Sample};
use hyflex_transformer::{FactoredLinear, ParamVisit, Trainer, TransformerModel};

/// Deterministic per-layer sketch seed: FNV-1a over the dotted parameter
/// name (`blocks.3.attn.q_proj`, ...).
///
/// Seeding each layer's randomized SVD from its own *name* — not from a
/// shared RNG stream or a worker index — is what keeps the pooled
/// factorization bit-identical to the serial one for every worker count:
/// the sketch a layer draws depends only on which layer it is, never on
/// which worker ran it or in what order. (The Jacobi default has no
/// randomness; the seed is ignored there.)
fn layer_sketch_seed(name: &str) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// How aggressively to truncate each layer's SVD.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruncationPolicy {
    /// The paper's cost-neutral rank `in·out / (in + out)`.
    HardThreshold,
    /// A fixed rank for every layer (clamped to the full rank).
    FixedRank(usize),
    /// Keep the full rank (ablation: SVD without truncation, Figure 11(b)).
    FullRank,
}

impl TruncationPolicy {
    /// The rank this policy picks for a layer of shape `in × out`.
    fn rank_for(&self, in_dim: usize, out_dim: usize) -> usize {
        let full = in_dim.min(out_dim);
        match self {
            TruncationPolicy::HardThreshold => hard_threshold_rank(in_dim, out_dim).min(full),
            TruncationPolicy::FixedRank(k) => (*k).clamp(1, full),
            TruncationPolicy::FullRank => full,
        }
    }
}

/// Gradient profile of one factored layer after redistribution.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradientProfile {
    /// Index of the layer in [`TransformerModel::named_linears`] order.
    pub layer_index: usize,
    /// Dotted parameter scope of the layer (`blocks.N.attn.q_proj`, ...,
    /// `blocks.N.ffn.fc2`), from the model's named parameter surface.
    pub name: String,
    /// Retained rank.
    pub rank: usize,
    /// Singular values after fine-tuning.
    pub singular_values: Vec<f32>,
    /// `|∂L/∂σ_r|` accumulated over the gradient-collection pass.
    pub sigma_gradients: Vec<f64>,
}

impl LayerGradientProfile {
    /// Fraction of total gradient mass carried by the `top_fraction` of ranks
    /// with the largest gradients. Near 1.0 means strong concentration.
    fn gradient_concentration(&self, top_fraction: f64) -> f64 {
        if self.sigma_gradients.is_empty() {
            return 0.0;
        }
        let mut sorted = self.sigma_gradients.clone();
        sorted.sort_by(|a, b| b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal));
        let k = ((self.rank as f64 * top_fraction).ceil() as usize).clamp(1, self.rank);
        let total: f64 = sorted.iter().sum();
        if total == 0.0 {
            return 0.0;
        }
        sorted[..k].iter().sum::<f64>() / total
    }
}

/// Result of running the full gradient-redistribution pipeline.
#[derive(Debug, Clone, PartialEq)]
pub struct RedistributionReport {
    /// Per-layer gradient profiles (one per static linear layer).
    pub layer_profiles: Vec<LayerGradientProfile>,
    /// Training loss after each fine-tuning epoch.
    pub finetune_losses: Vec<f64>,
    /// Evaluation before SVD truncation (dense fine-tuned model).
    pub eval_dense: EvalReport,
    /// Evaluation immediately after truncation, before fine-tuning.
    pub eval_truncated: EvalReport,
    /// Evaluation after fine-tuning the factored model.
    pub eval_finetuned: EvalReport,
}

impl RedistributionReport {
    /// Mean gradient concentration across layers for the given top fraction.
    pub fn mean_concentration(&self, top_fraction: f64) -> f64 {
        if self.layer_profiles.is_empty() {
            return 0.0;
        }
        self.layer_profiles
            .iter()
            .map(|p| p.gradient_concentration(top_fraction))
            .sum::<f64>()
            / self.layer_profiles.len() as f64
    }
}

/// The gradient-redistribution pipeline driver.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GradientRedistribution {
    /// Truncation policy (Algorithm 1 step 2).
    pub truncation: TruncationPolicy,
    /// SVD algorithm used to factorize each layer (Algorithm 1 step 1).
    /// Jacobi is the bit-stable default; the randomized sketch is the
    /// opt-in fast path for truncated ranks (`--svd-algo randomized`).
    pub svd_algorithm: SvdAlgorithm,
    /// Fine-tuning epochs (the paper uses 1–3).
    pub finetune_epochs: usize,
    /// Trainer (optimizer + batch size) used for fine-tuning and for the
    /// gradient-collection pass.
    pub trainer: Trainer,
}

impl GradientRedistribution {
    /// Creates a pipeline with the paper's defaults (hard threshold, Jacobi
    /// SVD, 2 epochs).
    pub fn new(trainer: Trainer) -> Self {
        GradientRedistribution {
            truncation: TruncationPolicy::HardThreshold,
            svd_algorithm: SvdAlgorithm::Jacobi,
            finetune_epochs: 2,
            trainer,
        }
    }

    /// Factorizes every static linear layer of `model` under the truncation
    /// policy with the configured SVD algorithm, serially. Returns the
    /// chosen rank per layer. Bit-identical to
    /// [`GradientRedistribution::factorize_model_pooled`] at any width.
    ///
    /// # Errors
    ///
    /// Propagates SVD failures.
    pub fn factorize_model(&self, model: &mut TransformerModel) -> Result<Vec<usize>> {
        self.factorize_model_pooled(model, &JobPool::serial())
    }

    /// Factorizes the model's static linear layers concurrently on `pool`.
    ///
    /// Each dense layer in the `ParamVisit` tree becomes one job that
    /// borrows its (index, name, weight, rank) from the model and is
    /// dispatched through [`JobPool::par_map`]; the SVDs are mutually
    /// independent and each layer's sketch is seeded from its own name, so
    /// the factored model is bit-identical to the serial path for every
    /// worker count.
    ///
    /// # Errors
    ///
    /// Propagates SVD failures (the first failing layer in model order).
    pub fn factorize_model_pooled(
        &self,
        model: &mut TransformerModel,
        pool: &JobPool,
    ) -> Result<Vec<usize>> {
        let mut layers = model.named_linears_mut();
        let mut ranks = Vec::with_capacity(layers.len());
        let mut jobs: Vec<(usize, &str, &Matrix, usize)> = Vec::new();
        for (index, (name, layer)) in layers.iter().enumerate() {
            let rank = self.truncation.rank_for(layer.in_dim(), layer.out_dim());
            ranks.push(rank);
            if let AnyLinear::Dense(dense) = &**layer {
                jobs.push((index, name, dense.weight(), rank));
            }
        }
        let algorithm = self.svd_algorithm;
        let factored = pool.par_map(&jobs, |&(index, name, weight, rank)| {
            let seed = layer_sketch_seed(name);
            let result = FactoredLinear::from_weight_seeded(weight, rank, algorithm, Some(seed));
            (index, result)
        });
        // par_map preserves input order, so the first failure seen here is
        // the first failing layer in model order — matching the serial
        // loop's error.
        for (index, result) in factored {
            let layer = result.map_err(PimError::from)?;
            if let Some((_, slot)) = layers.get_mut(index) {
                **slot = AnyLinear::Factored(layer);
            }
        }
        Ok(ranks)
    }

    /// Runs the full pipeline (Algorithm 1 steps 1–4) on a model that has
    /// already been trained in dense form on `train`/`eval`.
    ///
    /// The factorization, fine-tuning and gradient-collection steps run
    /// pooled at the machine's default parallelism
    /// ([`JobPool::with_default_parallelism`]); the result is bit-identical
    /// to the serial pipeline for every worker count (see
    /// [`GradientRedistribution::factorize_model_pooled`] and `Trainer`).
    /// Use [`GradientRedistribution::apply_with_pool`] to control the width.
    ///
    /// # Errors
    ///
    /// Returns model or decomposition errors.
    pub fn apply(
        &self,
        model: &mut TransformerModel,
        train: &[Sample],
        eval: &[Sample],
    ) -> Result<RedistributionReport> {
        self.apply_with_pool(model, train, eval, &JobPool::with_default_parallelism())
    }

    /// [`GradientRedistribution::apply`] with an explicit pool for the
    /// layer factorization, and for the trainer in place of its own.
    ///
    /// # Errors
    ///
    /// Returns model or decomposition errors.
    pub fn apply_with_pool(
        &self,
        model: &mut TransformerModel,
        train: &[Sample],
        eval: &[Sample],
        pool: &JobPool,
    ) -> Result<RedistributionReport> {
        let pooled = GradientRedistribution {
            trainer: Trainer {
                pool: *pool,
                ..self.trainer
            },
            ..*self
        };
        pooled.run(model, train, eval, pool)
    }

    /// Algorithm 1 steps 1–4 with this pipeline's own trainer.
    fn run(
        &self,
        model: &mut TransformerModel,
        train: &[Sample],
        eval: &[Sample],
        pool: &JobPool,
    ) -> Result<RedistributionReport> {
        if self.finetune_epochs == 0 {
            return Err(PimError::InvalidConfig(
                "gradient redistribution needs at least one fine-tuning epoch".to_string(),
            ));
        }
        let eval_dense = self.trainer.evaluate(model, eval).map_err(PimError::from)?;

        // Steps 1-2: SVD decomposition + truncation, one pooled job per
        // independent layer.
        self.factorize_model_pooled(model, pool)?;
        let eval_truncated = self.trainer.evaluate(model, eval).map_err(PimError::from)?;

        // Step 3: fine-tune the factored model.
        let finetune_losses = self
            .trainer
            .train(model, train, self.finetune_epochs)
            .map_err(PimError::from)?;
        let eval_finetuned = self.trainer.evaluate(model, eval).map_err(PimError::from)?;

        // Step 4: gradient collection (no parameter updates).
        let layer_profiles = self.collect_profiles(model, train)?;

        Ok(RedistributionReport {
            layer_profiles,
            finetune_losses,
            eval_dense,
            eval_truncated,
            eval_finetuned,
        })
    }

    /// Runs only the gradient-collection pass on an already-factored model.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] if any static layer is still dense.
    pub fn collect_profiles(
        &self,
        model: &mut TransformerModel,
        train: &[Sample],
    ) -> Result<Vec<LayerGradientProfile>> {
        model.zero_grad();
        self.trainer
            .accumulate_gradients(model, train)
            .map_err(PimError::from)?;
        let mut profiles = Vec::new();
        for (layer_index, (name, layer)) in model.named_linears().into_iter().enumerate() {
            match layer {
                AnyLinear::Factored(f) => profiles.push(LayerGradientProfile {
                    layer_index,
                    name,
                    rank: f.rank(),
                    singular_values: f.singular_values(),
                    sigma_gradients: f.sigma_gradients(),
                }),
                AnyLinear::Dense(_) => {
                    return Err(PimError::InvalidConfig(format!(
                        "static layer {name} is still dense; factorize the model first"
                    )))
                }
            }
        }
        model.zero_grad();
        Ok(profiles)
    }

    /// Figure 11(a): the per-weight gradient magnitudes of one row of a dense
    /// static layer, before any SVD is applied.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for an out-of-range layer index or
    /// a layer that is not dense.
    pub fn dense_row_gradient_profile(
        &self,
        model: &mut TransformerModel,
        train: &[Sample],
        layer_index: usize,
        row: usize,
    ) -> Result<Vec<f64>> {
        model.zero_grad();
        self.trainer
            .accumulate_gradients(model, train)
            .map_err(PimError::from)?;
        let layers = model.named_linears();
        let (_name, layer) = layers.get(layer_index).ok_or_else(|| {
            PimError::InvalidConfig(format!("layer index {layer_index} out of range"))
        })?;
        let profile = match layer {
            AnyLinear::Dense(d) => {
                let grad = d.weight_param().grad();
                if row >= grad.rows() {
                    return Err(PimError::InvalidConfig(format!(
                        "row {row} out of range for layer {layer_index}"
                    )));
                }
                grad.row(row).iter().map(|g| f64::from(g.abs())).collect()
            }
            AnyLinear::Factored(_) => {
                return Err(PimError::InvalidConfig(
                    "dense gradient profile requested on a factored layer".to_string(),
                ))
            }
        };
        model.zero_grad();
        Ok(profile)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_tensor::rng::Rng;
    use hyflex_transformer::{AdamWConfig, ModelConfig};
    use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

    fn trained_tiny_model(seed: u64) -> (TransformerModel, hyflex_workloads::Dataset, Trainer) {
        let mut rng = Rng::seed_from(seed);
        let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let dataset = glue::generate(GlueTask::Mrpc, &GlueConfig::default(), seed);
        let trainer = Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        );
        trainer.train(&mut model, &dataset.train, 4).unwrap();
        (model, dataset, trainer)
    }

    #[test]
    fn truncation_policy_ranks() {
        assert_eq!(TruncationPolicy::HardThreshold.rank_for(768, 3072), 614);
        assert_eq!(TruncationPolicy::HardThreshold.rank_for(32, 32), 16);
        assert_eq!(TruncationPolicy::FixedRank(8).rank_for(32, 64), 8);
        assert_eq!(TruncationPolicy::FixedRank(100).rank_for(32, 64), 32);
        assert_eq!(TruncationPolicy::FullRank.rank_for(32, 64), 32);
    }

    #[test]
    fn factorize_model_converts_every_static_layer() {
        let (mut model, _dataset, trainer) = trained_tiny_model(1);
        let pipeline = GradientRedistribution::new(trainer);
        let ranks = pipeline.factorize_model(&mut model).unwrap();
        assert_eq!(ranks.len(), 12); // 2 layers x 6 static linears
                                     // Attention projections are 32x32 -> hard threshold 16; FFN 32x64 -> 21.
        assert_eq!(ranks[0], 16);
        assert_eq!(ranks[4], hard_threshold_rank(32, 64));
        assert!(model
            .named_linears()
            .iter()
            .all(|(_, l)| matches!(l, AnyLinear::Factored(_))));
    }

    #[test]
    fn pipeline_recovers_accuracy_and_concentrates_gradients() {
        let (mut model, dataset, trainer) = trained_tiny_model(2);
        let pipeline = GradientRedistribution {
            truncation: TruncationPolicy::HardThreshold,
            finetune_epochs: 3,
            ..GradientRedistribution::new(trainer)
        };
        let report = pipeline
            .apply(&mut model, &dataset.train, &dataset.eval)
            .unwrap();

        // Fine-tuning keeps the factored model close to (or better than) the
        // dense model: the paper's "accuracy recovered after 1-3 epochs"
        // claim. A small tolerance absorbs eval-split noise on the tiny task.
        assert!(
            report.eval_finetuned.metrics.primary_value()
                >= report.eval_dense.metrics.primary_value() - 0.08,
            "factored+fine-tuned accuracy {:.3} fell too far below dense accuracy {:.3}",
            report.eval_finetuned.metrics.primary_value(),
            report.eval_dense.metrics.primary_value()
        );
        // Fine-tuning makes progress on the training objective.
        assert!(
            report.finetune_losses.last().unwrap() <= report.finetune_losses.first().unwrap(),
            "fine-tuning loss did not decrease: {:?}",
            report.finetune_losses
        );

        // Profiles exist for every layer, carry the model's dotted scope
        // names, and have matching lengths.
        assert_eq!(report.layer_profiles.len(), 12);
        assert_eq!(report.layer_profiles[0].name, "blocks.0.attn.q_proj");
        assert_eq!(report.layer_profiles[11].name, "blocks.1.ffn.fc2");
        for p in &report.layer_profiles {
            assert_eq!(p.singular_values.len(), p.rank);
            assert_eq!(p.sigma_gradients.len(), p.rank);
        }

        // The top 10% of ranks should hold disproportionately much gradient
        // mass (paper: 5-10% of weights have dominantly large gradients).
        let concentration = report.mean_concentration(0.10);
        assert!(
            concentration > 0.2,
            "top-10% ranks should carry well over 10% of gradient mass, got {concentration:.3}"
        );
    }

    #[test]
    fn randomized_svd_matches_jacobi_error_on_the_fig11_workload() {
        // The fig11 workload: a tiny encoder trained on synthetic MRPC. At
        // the paper's hard-threshold rank the randomized sketch must stay
        // within 1e-3 relative reconstruction error of the exact Jacobi
        // factorization for every static layer (the acceptance bound).
        let (model, _dataset, trainer) = trained_tiny_model(6);
        for (_, layer) in model.named_linears() {
            let weight = match layer {
                AnyLinear::Dense(d) => d.weight().clone(),
                AnyLinear::Factored(_) => unreachable!("the trained model is dense"),
            };
            let k = hard_threshold_rank(weight.rows(), weight.cols());
            let jacobi =
                FactoredLinear::from_weight_seeded(&weight, k, SvdAlgorithm::Jacobi, None).unwrap();
            let randomized =
                FactoredLinear::from_weight_seeded(&weight, k, SvdAlgorithm::Randomized, None)
                    .unwrap();
            let err_jacobi = jacobi.to_dense().unwrap().relative_error(&weight).unwrap();
            let err_randomized = randomized
                .to_dense()
                .unwrap()
                .relative_error(&weight)
                .unwrap();
            assert!(
                err_randomized <= err_jacobi + 1e-3,
                "layer {}x{}: randomized err {err_randomized} vs jacobi err {err_jacobi}",
                weight.rows(),
                weight.cols()
            );
        }
        // The whole pipeline also runs end to end on the randomized path.
        let (mut model, dataset, _) = trained_tiny_model(6);
        let pipeline = GradientRedistribution {
            svd_algorithm: SvdAlgorithm::Randomized,
            ..GradientRedistribution::new(trainer)
        };
        let report = pipeline
            .apply(&mut model, &dataset.train, &dataset.eval)
            .unwrap();
        assert_eq!(report.layer_profiles.len(), 12);
    }

    #[test]
    fn pooled_factorization_is_bit_identical_to_serial_for_both_algorithms() {
        for algorithm in [SvdAlgorithm::Jacobi, SvdAlgorithm::Randomized] {
            let (reference_model, _dataset, trainer) = trained_tiny_model(7);
            let pipeline = GradientRedistribution {
                svd_algorithm: algorithm,
                ..GradientRedistribution::new(trainer)
            };
            let mut serial = reference_model.clone();
            pipeline.factorize_model(&mut serial).unwrap();
            for workers in [2, 4, 8] {
                let mut pooled = reference_model.clone();
                pipeline
                    .factorize_model_pooled(&mut pooled, &JobPool::new(workers))
                    .unwrap();
                assert_eq!(pooled, serial, "{algorithm} workers={workers}");
            }
        }
    }

    #[test]
    fn gradient_collection_requires_a_factored_model() {
        let (mut model, dataset, trainer) = trained_tiny_model(3);
        let pipeline = GradientRedistribution::new(trainer);
        let err = pipeline.collect_profiles(&mut model, &dataset.train);
        assert!(err.is_err());
    }

    #[test]
    fn dense_profile_requires_a_dense_layer_and_valid_indices() {
        let (mut model, dataset, trainer) = trained_tiny_model(4);
        let pipeline = GradientRedistribution::new(trainer);
        let profile = pipeline
            .dense_row_gradient_profile(&mut model, &dataset.train, 0, 0)
            .unwrap();
        assert_eq!(profile.len(), 32);
        assert!(profile.iter().any(|g| *g > 0.0));
        assert!(pipeline
            .dense_row_gradient_profile(&mut model, &dataset.train, 999, 0)
            .is_err());
        assert!(pipeline
            .dense_row_gradient_profile(&mut model, &dataset.train, 0, 999)
            .is_err());
        pipeline.factorize_model(&mut model).unwrap();
        assert!(pipeline
            .dense_row_gradient_profile(&mut model, &dataset.train, 0, 0)
            .is_err());
    }

    #[test]
    fn zero_epochs_is_rejected() {
        let (mut model, dataset, trainer) = trained_tiny_model(5);
        let pipeline = GradientRedistribution {
            truncation: TruncationPolicy::HardThreshold,
            finetune_epochs: 0,
            ..GradientRedistribution::new(trainer)
        };
        assert!(pipeline
            .apply(&mut model, &dataset.train, &dataset.eval)
            .is_err());
    }

    #[test]
    fn concentration_helper_behaviour() {
        let profile = LayerGradientProfile {
            layer_index: 0,
            name: "blocks.0.attn.q_proj".to_string(),
            rank: 4,
            singular_values: vec![4.0, 3.0, 2.0, 1.0],
            sigma_gradients: vec![10.0, 0.1, 0.1, 0.1],
        };
        assert!(profile.gradient_concentration(0.25) > 0.9);
        assert!((profile.gradient_concentration(1.0) - 1.0).abs() < 1e-12);
        let empty = LayerGradientProfile {
            layer_index: 0,
            name: "blocks.0.attn.k_proj".to_string(),
            rank: 0,
            singular_values: vec![],
            sigma_gradients: vec![],
        };
        assert_eq!(empty.gradient_concentration(0.5), 0.0);
    }
}
