//! The serving workload the comparison figures share.
//!
//! fig19–fig21 price every design on BERT-Large at the paper's 5 % SLC
//! point. fig20 and fig21 also offer the same two-class mix: latency-critical
//! "interactive" requests (N = 64, an SLO of [`SLO_FACTOR`]x the design's
//! own single-request latency, priority 0) and throughput-oriented "batch"
//! requests (N = 256, no SLO, priority 1) at 3:1 weight, with offered load
//! anchored to each design's own [`sustainable_qps`].

use hyflex_baselines::SystemBuilder;
use hyflex_pim::backend::Backend;
use hyflex_pim::Result;
use hyflex_runtime::RequestClass;
use hyflex_transformer::ModelConfig;

/// Sequence length of the interactive class.
pub const INTERACTIVE_SEQ: usize = 64;
/// Sequence length of the batch class.
pub const BATCH_SEQ: usize = 256;
/// Sampling weight of the interactive class.
pub const INTERACTIVE_WEIGHT: f64 = 3.0;
/// Sampling weight of the batch class.
pub const BATCH_WEIGHT: f64 = 1.0;
/// SLC rate of the HyFlexPIM deployment.
pub const SLC_RATE: f64 = 0.05;
/// Batch cap of the mixed workload's scheduler.
pub const BATCH_CAP: usize = 16;
/// Interactive SLO in units of the backend's own single-request latency.
pub const SLO_FACTOR: f64 = 25.0;

/// The roster backend `name` bound to BERT-Large at [`SLC_RATE`].
///
/// # Errors
///
/// Returns the builder's error for a name outside the roster.
pub fn build(name: &str) -> Result<Box<dyn Backend>> {
    SystemBuilder::paper()
        .model(ModelConfig::bert_large())
        .slc_rate(SLC_RATE)
        .backend(name)
        .build()
}

/// The mixed workload's sustainable rate on `backend` at the batch cap:
/// the weighted mean per-request initiation interval of full batches.
///
/// # Errors
///
/// Propagates the backend's error pricing a full batch of either class.
pub fn sustainable_qps(backend: &dyn Backend) -> Result<f64> {
    let weighted_interval_ns = [
        (INTERACTIVE_SEQ, INTERACTIVE_WEIGHT),
        (BATCH_SEQ, BATCH_WEIGHT),
    ]
    .iter()
    .map(|&(seq, weight)| {
        let summary = backend.evaluate_batched(seq, BATCH_CAP)?;
        Ok(weight * summary.makespan_ns / BATCH_CAP as f64)
    })
    .sum::<Result<f64>>()?
        / (INTERACTIVE_WEIGHT + BATCH_WEIGHT);
    Ok(1e9 / weighted_interval_ns)
}

/// The backend's interactive SLO: [`SLO_FACTOR`]x its own single-request
/// latency at the interactive shape, ns.
///
/// # Errors
///
/// Propagates the backend's error pricing a single interactive request.
pub fn interactive_slo_ns(backend: &dyn Backend) -> Result<f64> {
    Ok(SLO_FACTOR * backend.evaluate_batched(INTERACTIVE_SEQ, 1)?.makespan_ns)
}

/// The two-class mix with the interactive class carrying `slo_ns`.
pub fn two_class_mix(slo_ns: f64) -> Vec<RequestClass> {
    vec![
        RequestClass::new(INTERACTIVE_SEQ, INTERACTIVE_WEIGHT)
            .with_slo_ns(slo_ns)
            .with_priority(0),
        RequestClass::new(BATCH_SEQ, BATCH_WEIGHT).with_priority(1),
    ]
}
