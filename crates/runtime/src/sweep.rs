//! Parallel drivers for the embarrassingly parallel evaluation surfaces:
//! noise-accuracy sweeps (`NoiseSimulator`) and analytical performance
//! sweeps over any [`Backend`].
//!
//! Both drivers fan the per-point entry points of `hyflex-pim` out over a
//! [`JobPool`] and return results **in input order**. Because every sweep
//! point seeds its own RNG from the point itself, the parallel result is
//! bit-identical to the serial reference (`NoiseSimulator::evaluate_sweep`,
//! `PerformanceModel::evaluate_many`) — a property the determinism tests in
//! this crate and CI (with `RUST_TEST_THREADS` 1 and default) enforce.

use crate::JobPool;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::gradient_redistribution::LayerGradientProfile;
use hyflex_pim::noise_sim::{HybridMappingSpec, SweepOutcome, SweepPoint};
use hyflex_pim::perf::PerfSummary;
use hyflex_pim::NoiseSimulator;
use hyflex_transformer::trainer::Sample;
use hyflex_transformer::TransformerModel;

/// Evaluates a noise sweep in parallel over `pool`.
///
/// Results are returned in `points` order and are bit-identical to
/// [`NoiseSimulator::evaluate_sweep`] on the same inputs.
///
/// # Errors
///
/// Propagates the first failing point's error (points are still all
/// evaluated; failure of one point does not depend on scheduling).
pub fn par_noise_sweep(
    pool: &JobPool,
    simulator: &NoiseSimulator,
    model: &TransformerModel,
    profiles: &[LayerGradientProfile],
    base: &HybridMappingSpec,
    eval: &[Sample],
    points: &[SweepPoint],
) -> hyflex_pim::Result<Vec<SweepOutcome>> {
    pool.par_map(points, |&point| {
        simulator.evaluate_point(model, profiles, base, eval, point)
    })
    .into_iter()
    .collect()
}

/// Evaluates requests against any [`Backend`] in parallel over `pool`.
///
/// Results are returned in `requests` order and are bit-identical to calling
/// [`Backend::evaluate`] serially (for the HyFlexPIM backend, to
/// [`hyflex_pim::PerformanceModel::evaluate_many`] on the equivalent
/// points — the determinism suite enforces this).
///
/// # Errors
///
/// Propagates the first failing request's error.
pub fn par_backend_eval<B: Backend>(
    pool: &JobPool,
    backend: &B,
    requests: &[InferenceRequest],
) -> hyflex_pim::Result<Vec<PerfSummary>> {
    pool.par_map(requests, |request| backend.evaluate(request))
        .into_iter()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_pim::perf::EvaluationPoint;
    use hyflex_pim::PerformanceModel;
    use hyflex_transformer::ModelConfig;

    #[test]
    fn parallel_perf_eval_is_bit_identical_to_serial() {
        let model = PerformanceModel::paper_default();
        let seq_lens = [128usize, 512, 1024];
        let requests: Vec<InferenceRequest> = seq_lens
            .iter()
            .enumerate()
            .map(|(id, &seq_len)| InferenceRequest::of_len(id as u64, seq_len))
            .collect();
        for slc in [0.05, 0.3, 1.0] {
            let backend = HyFlexPim::new(model.clone(), ModelConfig::bert_large(), slc).unwrap();
            let points: Vec<EvaluationPoint> = seq_lens
                .iter()
                .map(|&seq_len| EvaluationPoint {
                    model: ModelConfig::bert_large(),
                    seq_len,
                    slc_rank_fraction: slc,
                })
                .collect();
            let serial = model.evaluate_many(&points).unwrap();
            for workers in [1, 2, 8] {
                let pool = JobPool::new(workers);
                let parallel = par_backend_eval(&pool, &backend, &requests).unwrap();
                assert_eq!(serial, parallel, "slc = {slc}, workers = {workers}");
            }
        }
    }
}
