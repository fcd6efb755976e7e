//! The parallel driver for noise-accuracy sweeps (`NoiseSimulator`).
//!
//! It fans the per-point entry point of `hyflex-pim` out over a [`JobPool`]
//! and returns results **in input order**. Because every sweep point seeds
//! its own RNG from the point itself, the parallel result is bit-identical
//! to the serial reference (`NoiseSimulator::evaluate_sweep`) — a property
//! the determinism tests in this crate and CI (with `RUST_TEST_THREADS` 1
//! and default) enforce.

use crate::JobPool;
use hyflex_pim::gradient_redistribution::LayerGradientProfile;
use hyflex_pim::noise_sim::{HybridMappingSpec, SweepOutcome, SweepPoint};
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
