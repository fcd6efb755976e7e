//! Noise-injected inference simulation for the hybrid SLC/MLC mapping.
//!
//! This is the functional counterpart of the paper's accuracy evaluation
//! (Section 5.2, Figure 12): weights are quantized to INT8, mapped either to
//! SLC or MLC cells according to the protection rate and selection strategy,
//! perturbed with the calibrated RRAM error model from `hyflex-rram`
//! (write-time Gaussian conductance error plus retention-driven level flips),
//! and the perturbed model is evaluated with the ordinary task metrics.
//!
//! For factored layers the protection granularity is a *rank*: rank `r`
//! occupies column `r` of the stored `U` factor and row `r` of the stored
//! `Σ·Vᵀ` factor, and both are perturbed with the noise of the chosen cell
//! mode. For dense layers (the magnitude-based baseline, which skips SVD)
//! protection is per weight element.

use crate::error::PimError;
use crate::gradient_redistribution::LayerGradientProfile;
use crate::selection::{self, SelectionStrategy};
use crate::Result;
use hyflex_parallel::JobPool;
use hyflex_rram::cell::CellMode;
use hyflex_rram::noise::NoiseModel;
use hyflex_tensor::quant::QuantizedMatrix;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;
use hyflex_transformer::layers::AnyLinear;
use hyflex_transformer::trainer::{evaluate_model, EvalReport, Sample};
use hyflex_transformer::TransformerModel;

/// How a model's static weights are mapped onto SLC and MLC cells.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HybridMappingSpec {
    /// Fraction of ranks (or weights) protected in SLC, in `[0, 1]`.
    pub protection_rate: f64,
    /// Which ranks/weights get the protection.
    pub strategy: SelectionStrategy,
    /// Cell mode used for the unprotected portion.
    pub mlc_mode: CellMode,
}

impl HybridMappingSpec {
    /// The paper's default: gradient-based selection onto 2-bit MLC with
    /// INT8 quantization.
    pub fn gradient_based(protection_rate: f64) -> Self {
        HybridMappingSpec {
            protection_rate,
            strategy: SelectionStrategy::GradientBased,
            mlc_mode: CellMode::MLC2,
        }
    }
}

/// Bookkeeping from one noise-injection pass.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NoiseStats {
    /// Number of ranks mapped to SLC (factored layers).
    pub slc_ranks: usize,
    /// Number of ranks mapped to MLC (factored layers).
    pub mlc_ranks: usize,
    /// Number of individual weights mapped to SLC (dense layers).
    pub slc_weights: usize, // hyflex-lint: allow(U3) — checked by `dense_model_uses_magnitude_masking`
    /// Number of individual weights mapped to MLC (dense layers).
    pub mlc_weights: usize, // hyflex-lint: allow(U3) — checked by `dense_model_uses_magnitude_masking`
}

impl NoiseStats {
    /// Fraction of ranks protected in SLC (0 when no factored layer was seen).
    pub fn slc_rank_fraction(&self) -> f64 {
        let total = self.slc_ranks + self.mlc_ranks;
        if total == 0 {
            0.0
        } else {
            self.slc_ranks as f64 / total as f64
        }
    }
}

/// One point of a protection-rate × seed accuracy sweep (Figure 12 style).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepPoint {
    /// SLC protection rate for this point.
    pub protection_rate: f64,
    /// Noise seed for this point; the point's entire RNG stream derives from
    /// it, making every point independent of evaluation order.
    pub seed: u64,
}

impl SweepPoint {
    /// The full rate × seed grid, seeds `base_seed..base_seed + seeds_per_rate`
    /// for each rate, rate-major (matching the serial nested-loop order the
    /// figure binaries used before the worker pool).
    pub fn grid(rates: &[f64], seeds_per_rate: u64, base_seed: u64) -> Vec<SweepPoint> {
        rates
            .iter()
            .flat_map(|&protection_rate| {
                (0..seeds_per_rate).map(move |s| SweepPoint {
                    protection_rate,
                    seed: base_seed + s,
                })
            })
            .collect()
    }
}

/// Result of one sweep point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SweepOutcome {
    /// The evaluated point.
    pub point: SweepPoint,
    /// Primary task metric of the perturbed model (accuracy, Pearson, -loss).
    pub primary_metric: f64,
    /// SLC/MLC mapping statistics of the pass.
    pub stats: NoiseStats,
}

/// The noise-injected inference simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseSimulator {
    noise: NoiseModel,
    weight_bits: u8,
}

impl NoiseSimulator {
    /// Creates a simulator with the given device noise model and weight
    /// precision.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for unsupported precisions.
    // hyflex-lint: allow(U2) — builds the noise-free simulator `noise_sim::tests` compare exact arithmetic with, and `constructor_validates_precision_and_stats_helpers_work` checks its validation
    pub fn new(noise: NoiseModel, weight_bits: u8) -> Result<Self> {
        if !(2..=16).contains(&weight_bits) {
            return Err(PimError::InvalidConfig(format!(
                "weight precision {weight_bits} must be in 2..=16"
            )));
        }
        Ok(NoiseSimulator { noise, weight_bits })
    }

    /// Simulator matching the paper's calibration (INT8, measured BER).
    pub fn paper_default() -> Self {
        NoiseSimulator {
            noise: NoiseModel::calibrated_to_paper(),
            weight_bits: 8,
        }
    }

    /// Perturbs `model` in place according to the mapping spec.
    ///
    /// `profiles` provides the gradient information for factored layers; it
    /// may be empty when every layer is dense or the strategy does not need
    /// gradients.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] when a factored layer needs a
    /// gradient profile that is missing.
    fn apply_to_model(
        &self,
        model: &mut TransformerModel,
        profiles: &[LayerGradientProfile],
        spec: &HybridMappingSpec,
        rng: &mut Rng,
    ) -> Result<NoiseStats> {
        spec.mlc_mode.validate().map_err(PimError::from)?;
        let mut stats = NoiseStats::default();
        for (layer_index, (name, layer)) in model.named_linears_mut().into_iter().enumerate() {
            match layer {
                AnyLinear::Factored(f) => {
                    let protected = match spec.strategy {
                        SelectionStrategy::MagnitudeBased => {
                            // Magnitude selection has no notion of rank
                            // importance; fall back to singular-value order
                            // using a synthetic profile.
                            let profile = LayerGradientProfile {
                                layer_index,
                                name: name.clone(),
                                rank: f.rank(),
                                singular_values: f.singular_values(),
                                sigma_gradients: vec![0.0; f.rank()],
                            };
                            selection::select_protected_ranks(
                                &profile,
                                SelectionStrategy::RankBased,
                                spec.protection_rate,
                            )
                        }
                        _ => {
                            let profile = profiles
                                .iter()
                                .find(|p| p.layer_index == layer_index)
                                .ok_or_else(|| {
                                    PimError::InvalidConfig(format!(
                                        "no gradient profile for factored layer {layer_index}"
                                    ))
                                })?;
                            selection::select_protected_ranks(
                                profile,
                                spec.strategy,
                                spec.protection_rate,
                            )
                        }
                    };
                    stats.slc_ranks += protected.iter().filter(|p| **p).count();
                    stats.mlc_ranks += protected.iter().filter(|p| !**p).count();
                    self.perturb_factored(f, &protected, spec, rng)?;
                }
                AnyLinear::Dense(d) => {
                    let weight = d.weight().clone();
                    let mask = selection::select_protected_weights(&weight, spec.protection_rate);
                    stats.slc_weights += mask.sum() as usize;
                    stats.mlc_weights += weight.len() - mask.sum() as usize;
                    let perturbed = self.perturb_dense(&weight, &mask, spec, rng)?;
                    *d.weight_param_mut().value_mut() = perturbed;
                }
            }
        }
        Ok(stats)
    }

    /// Clones `model`, perturbs the clone, and evaluates it on `eval`.
    ///
    /// # Errors
    ///
    /// Propagates mapping and evaluation errors.
    pub fn evaluate(
        &self,
        model: &TransformerModel,
        profiles: &[LayerGradientProfile],
        spec: &HybridMappingSpec,
        eval: &[Sample],
        seed: u64,
    ) -> Result<(EvalReport, NoiseStats)> {
        let mut noisy = model.clone();
        let mut rng = Rng::seed_from(seed);
        let stats = self.apply_to_model(&mut noisy, profiles, spec, &mut rng)?;
        let report = evaluate_model(&noisy, eval, &JobPool::serial()).map_err(PimError::from)?;
        Ok((report, stats))
    }

    /// Evaluates one sweep point: `base` with the point's protection rate,
    /// perturbed and scored with the point's own seed.
    ///
    /// Each point derives its RNG purely from `point.seed`, so points are
    /// independent and may be evaluated in any order — this is the
    /// per-point entry used by both [`NoiseSimulator::evaluate_sweep`] and
    /// the parallel driver in `hyflex-runtime`.
    ///
    /// # Errors
    ///
    /// Propagates mapping and evaluation errors.
    pub fn evaluate_point(
        &self,
        model: &TransformerModel,
        profiles: &[LayerGradientProfile],
        base: &HybridMappingSpec,
        eval: &[Sample],
        point: SweepPoint,
    ) -> Result<SweepOutcome> {
        let spec = HybridMappingSpec {
            protection_rate: point.protection_rate,
            ..*base
        };
        let (report, stats) = self.evaluate(model, profiles, &spec, eval, point.seed)?;
        Ok(SweepOutcome {
            point,
            primary_metric: report.metrics.primary_value(),
            stats,
        })
    }

    /// Serial protection-rate × seed sweep; the reference the parallel
    /// driver in `hyflex-runtime` must match bit for bit.
    ///
    /// # Errors
    ///
    /// Propagates the first point's error.
    // hyflex-lint: allow(U2) — serial oracle of the pooled sweep: `sweep::tests` in hyflex-runtime, runtime/tests/determinism.rs and `noise_sim::tests` compare against it
    pub fn evaluate_sweep(
        &self,
        model: &TransformerModel,
        profiles: &[LayerGradientProfile],
        base: &HybridMappingSpec,
        eval: &[Sample],
        points: &[SweepPoint],
    ) -> Result<Vec<SweepOutcome>> {
        points
            .iter()
            .map(|&point| self.evaluate_point(model, profiles, base, eval, point))
            .collect()
    }

    /// `m` after a round trip through the simulator's weight precision: the
    /// quantization error every stored weight carries before the analog
    /// noise (the paper's baseline already includes INT8 quantization).
    fn quantize(&self, m: &Matrix) -> Result<Matrix> {
        Ok(QuantizedMatrix::quantize(m, self.weight_bits)?.dequantize())
    }

    fn perturb_factored(
        &self,
        layer: &mut hyflex_transformer::FactoredLinear,
        protected: &[bool],
        spec: &HybridMappingSpec,
        rng: &mut Rng,
    ) -> Result<()> {
        let u = self.quantize(layer.u())?;
        let vt = self.quantize(layer.vt())?;
        let u_scale = flip_scale(&u, self.weight_bits);
        let vt_scale = flip_scale(&vt, self.weight_bits);

        let mut new_u = u;
        let mut new_vt = vt;
        for (rank, &is_slc) in protected.iter().enumerate() {
            let mode = if is_slc { CellMode::Slc } else { spec.mlc_mode };
            // Column `rank` of U.
            let mut column: Vec<f32> = (0..new_u.rows()).map(|r| new_u.at(r, rank)).collect();
            self.perturb_values(&mut column, mode, u_scale, rng);
            for (r, v) in column.into_iter().enumerate() {
                new_u.set(r, rank, v);
            }
            // Row `rank` of Vᵀ (equivalently of Σ·Vᵀ, since the row scale
            // commutes with multiplicative noise).
            let mut row: Vec<f32> = new_vt.row(rank).to_vec();
            self.perturb_values(&mut row, mode, vt_scale, rng);
            new_vt.row_mut(rank).copy_from_slice(&row);
        }
        *layer.u_param_mut().value_mut() = new_u;
        *layer.vt_param_mut().value_mut() = new_vt;
        Ok(())
    }

    fn perturb_dense(
        &self,
        weight: &Matrix,
        slc_mask: &Matrix,
        spec: &HybridMappingSpec,
        rng: &mut Rng,
    ) -> Result<Matrix> {
        let base = self.quantize(weight)?;
        let scale = flip_scale(&base, self.weight_bits);
        let mut out = base;
        for r in 0..out.rows() {
            for c in 0..out.cols() {
                let mode = if slc_mask.at(r, c) > 0.5 {
                    CellMode::Slc
                } else {
                    spec.mlc_mode
                };
                let mut value = [out.at(r, c)];
                self.perturb_values(&mut value, mode, scale, rng);
                out.set(r, c, value[0]);
            }
        }
        Ok(out)
    }

    /// Applies the mode-dependent Gaussian error and level flips to a slice
    /// of stored values sharing one flip scale.
    fn perturb_values(&self, values: &mut [f32], mode: CellMode, flip_scale: f32, rng: &mut Rng) {
        let sigma = self.noise.weight_sigma(mode);
        let ber = self.noise.bit_error_rate(mode);
        let bits_per_cell = mode.bits_per_cell();
        let n_cells = self.weight_bits.div_ceil(bits_per_cell);
        for v in values.iter_mut() {
            if sigma > 0.0 {
                *v *= 1.0 + rng.normal_with(0.0, sigma) as f32;
            }
            if ber > 0.0 && flip_scale > 0.0 {
                for cell in 0..n_cells {
                    if rng.bernoulli(ber) {
                        let magnitude =
                            (1i64 << (u32::from(cell) * u32::from(bits_per_cell))) as f32;
                        let sign = if rng.bernoulli(0.5) { 1.0 } else { -1.0 };
                        *v += sign * magnitude * flip_scale;
                    }
                }
            }
        }
    }
}

/// Quantization-step scale used to convert level flips into weight-space
/// deltas: one LSB of the stored integer representation.
fn flip_scale(m: &Matrix, weight_bits: u8) -> f32 {
    let max_int = ((1i64 << (weight_bits - 1)) - 1) as f32;
    m.max_abs() / max_int
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gradient_redistribution::GradientRedistribution;
    use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer};
    use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

    struct Fixture {
        model: TransformerModel,
        profiles: Vec<LayerGradientProfile>,
        eval: Vec<Sample>,
        clean_accuracy: f64,
    }

    fn fixture() -> Fixture {
        let mut rng = Rng::seed_from(100);
        let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let dataset = glue::generate(GlueTask::Sst2, &GlueConfig::default(), 100);
        let trainer = Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        );
        trainer.train(&mut model, &dataset.train, 5).unwrap();
        let pipeline = GradientRedistribution {
            finetune_epochs: 2,
            ..GradientRedistribution::new(trainer)
        };
        let report = pipeline
            .apply(&mut model, &dataset.train, &dataset.eval)
            .unwrap();
        let clean_accuracy = report.eval_finetuned.metrics.primary_value();
        Fixture {
            model,
            profiles: report.layer_profiles,
            eval: dataset.eval,
            clean_accuracy,
        }
    }

    #[test]
    fn full_slc_protection_preserves_accuracy() {
        let fx = fixture();
        let sim = NoiseSimulator::paper_default();
        let spec = HybridMappingSpec::gradient_based(1.0);
        let (report, stats) = sim
            .evaluate(&fx.model, &fx.profiles, &spec, &fx.eval, 7)
            .unwrap();
        assert_eq!(stats.mlc_ranks, 0);
        assert!(stats.slc_ranks > 0);
        let drop = fx.clean_accuracy - report.metrics.primary_value();
        assert!(
            drop < 0.05,
            "100% SLC should be near-lossless (drop {drop:.3})"
        );
    }

    #[test]
    fn all_mlc_mapping_degrades_more_than_protected_mapping() {
        let fx = fixture();
        let sim = NoiseSimulator::paper_default();
        // Average over several seeds to avoid a lucky noise draw.
        let mean_acc = |rate: f64| -> f64 {
            (0..5)
                .map(|s| {
                    let spec = HybridMappingSpec::gradient_based(rate);
                    sim.evaluate(&fx.model, &fx.profiles, &spec, &fx.eval, 40 + s)
                        .unwrap()
                        .0
                        .metrics
                        .primary_value()
                })
                .sum::<f64>()
                / 5.0
        };
        let unprotected = mean_acc(0.0);
        let protected = mean_acc(0.3);
        let full = mean_acc(1.0);
        assert!(
            protected >= unprotected,
            "protecting top ranks should not hurt: {unprotected:.3} -> {protected:.3}"
        );
        assert!(full + 1e-9 >= protected * 0.95);
    }

    #[test]
    fn ideal_noise_with_quantization_is_near_lossless() {
        let fx = fixture();
        let sim = NoiseSimulator::new(NoiseModel::ideal(), 8).unwrap();
        let spec = HybridMappingSpec {
            protection_rate: 0.0,
            strategy: SelectionStrategy::GradientBased,
            mlc_mode: CellMode::MLC2,
        };
        let (report, _) = sim
            .evaluate(&fx.model, &fx.profiles, &spec, &fx.eval, 3)
            .unwrap();
        let drop = fx.clean_accuracy - report.metrics.primary_value();
        assert!(
            drop < 0.06,
            "INT8 quantization alone should be benign: {drop:.3}"
        );
    }

    #[test]
    fn missing_profiles_are_detected_for_gradient_strategy() {
        let fx = fixture();
        let sim = NoiseSimulator::paper_default();
        let spec = HybridMappingSpec::gradient_based(0.1);
        let err = sim.evaluate(&fx.model, &[], &spec, &fx.eval, 1);
        assert!(err.is_err());
        // Magnitude-based does not need profiles even on a factored model.
        let spec = HybridMappingSpec {
            strategy: SelectionStrategy::MagnitudeBased,
            ..spec
        };
        assert!(sim.evaluate(&fx.model, &[], &spec, &fx.eval, 1).is_ok());
    }

    #[test]
    fn dense_model_uses_magnitude_masking() {
        let mut rng = Rng::seed_from(5);
        let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let dataset = glue::generate(GlueTask::Mrpc, &GlueConfig::default(), 5);
        let trainer = Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        );
        trainer.train(&mut model, &dataset.train, 3).unwrap();
        let sim = NoiseSimulator::paper_default();
        let spec = HybridMappingSpec {
            protection_rate: 0.2,
            strategy: SelectionStrategy::MagnitudeBased,
            mlc_mode: CellMode::MLC2,
        };
        let (report, stats) = sim.evaluate(&model, &[], &spec, &dataset.eval, 9).unwrap();
        assert!(stats.slc_weights > 0);
        assert!(stats.mlc_weights > stats.slc_weights);
        assert_eq!(stats.slc_ranks + stats.mlc_ranks, 0);
        assert!(report.metrics.primary_value() >= 0.0);
    }

    #[test]
    fn higher_level_mlc_is_worse_than_two_bit_mlc() {
        let fx = fixture();
        let sim = NoiseSimulator::paper_default();
        let mean_acc = |mode: CellMode| -> f64 {
            (0..5)
                .map(|s| {
                    let spec = HybridMappingSpec {
                        protection_rate: 0.0,
                        strategy: SelectionStrategy::GradientBased,
                        mlc_mode: mode,
                    };
                    sim.evaluate(&fx.model, &fx.profiles, &spec, &fx.eval, 80 + s)
                        .unwrap()
                        .0
                        .metrics
                        .primary_value()
                })
                .sum::<f64>()
                / 5.0
        };
        let mlc2 = mean_acc(CellMode::MLC2);
        let mlc4 = mean_acc(CellMode::Mlc { bits: 4 });
        assert!(
            mlc4 <= mlc2 + 0.02,
            "4-bit MLC ({mlc4:.3}) should not beat 2-bit MLC ({mlc2:.3})"
        );
    }

    #[test]
    fn sweep_matches_per_point_evaluation_and_grid_is_rate_major() {
        let fx = fixture();
        let sim = NoiseSimulator::paper_default();
        let base = HybridMappingSpec::gradient_based(0.0);
        let points = SweepPoint::grid(&[0.0, 0.3], 2, 50);
        assert_eq!(points.len(), 4);
        assert_eq!(points[0].protection_rate, 0.0);
        assert_eq!(points[0].seed, 50);
        assert_eq!(points[1].seed, 51);
        assert_eq!(points[2].protection_rate, 0.3);
        let outcomes = sim
            .evaluate_sweep(&fx.model, &fx.profiles, &base, &fx.eval, &points)
            .unwrap();
        assert_eq!(outcomes.len(), points.len());
        for (point, outcome) in points.iter().zip(&outcomes) {
            let lone = sim
                .evaluate_point(&fx.model, &fx.profiles, &base, &fx.eval, *point)
                .unwrap();
            assert_eq!(outcome, &lone, "point {point:?} must be order-independent");
        }
        // The sweep must also agree with the pre-existing evaluate() API.
        let spec = HybridMappingSpec::gradient_based(0.3);
        let (report, stats) = sim
            .evaluate(&fx.model, &fx.profiles, &spec, &fx.eval, 50)
            .unwrap();
        assert_eq!(outcomes[2].primary_metric, report.metrics.primary_value());
        assert_eq!(outcomes[2].stats, stats);
    }

    #[test]
    fn constructor_validates_precision_and_stats_helpers_work() {
        assert!(NoiseSimulator::new(NoiseModel::ideal(), 1).is_err());
        assert!(NoiseSimulator::new(NoiseModel::ideal(), 8).is_ok());
        let stats = NoiseStats {
            slc_ranks: 3,
            mlc_ranks: 7,
            ..NoiseStats::default()
        };
        assert!((stats.slc_rank_fraction() - 0.3).abs() < 1e-12);
        assert_eq!(NoiseStats::default().slc_rank_fraction(), 0.0);
    }
}
