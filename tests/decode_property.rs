//! Property-based proof for the decode-serving subsystem: the `DecodeSim`
//! engine's accounting must conserve requests under any traffic and any
//! placement policy. Every offered request is admitted or shed, and every
//! admitted request completes or is evicted — nothing is lost or
//! double-counted, and identical inputs give bit-identical reports.

use hyflex_pim::backend::{Backend, HyFlexPim};
use hyflex_pim::PerformanceModel;
use hyflex_runtime::{
    ArrivalProcess, DecodeConfig, DecodeSim, KvPlacementPolicy, RequestTrace, TrafficConfig,
};
use hyflex_transformer::ModelConfig;
use proptest::prelude::*;
use std::sync::Arc;

fn paper_backend() -> Arc<dyn Backend> {
    Arc::new(
        HyFlexPim::new(
            PerformanceModel::paper_default(),
            ModelConfig::bert_large(),
            0.05,
        )
        .unwrap(),
    )
}

/// Runs a randomized decode-serving workload and checks the conservation
/// identities plus run-to-run determinism.
fn check_decode_serving_conserves_requests(
    placement: KvPlacementPolicy,
    qps: f64,
    num_requests: usize,
    output_tokens: usize,
    kv_pus: usize,
    seed: u64,
) {
    let trace = RequestTrace::new(TrafficConfig {
        process: ArrivalProcess::Poisson { qps },
        num_requests,
        seq_len: 128,
        seed,
        ..TrafficConfig::default()
    })
    .unwrap();
    let sim = DecodeSim::new(
        paper_backend(),
        trace,
        DecodeConfig {
            placement,
            output_tokens,
            max_batch_size: 8,
            kv_pus,
            ..DecodeConfig::default()
        },
    )
    .unwrap();
    let report = sim.run().unwrap();
    assert_eq!(report.offered, num_requests);
    assert_eq!(
        report.offered,
        report.admitted + report.shed,
        "admission leak: {report:?}"
    );
    assert_eq!(
        report.admitted,
        report.completed + report.evicted,
        "retirement leak: {report:?}"
    );
    assert!(
        report.decoded_tokens <= report.admitted * output_tokens,
        "decoded more tokens than admitted work allows: {report:?}"
    );
    assert!(
        report.decoded_tokens >= report.completed * output_tokens,
        "completed requests decode their full output: {report:?}"
    );
    assert!(report.peak_kv_cells <= report.kv_capacity_cells);
    // Identical inputs, identical report — bit for bit.
    assert_eq!(report, sim.run().unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Request conservation holds for every placement policy across
    /// randomized traffic, pool sizes, and output lengths — including
    /// overloaded pools that shed and evict.
    #[test]
    fn decode_serving_conserves_requests(
        qps in 500f64..40_000.0,
        num_requests in 10usize..60,
        output_tokens in 1usize..48,
        kv_pus in 1usize..6,
        seed in any::<u64>(),
        placement_index in 0usize..3,
    ) {
        let placement = [
            KvPlacementPolicy::SlcOnly,
            KvPlacementPolicy::MlcOnly,
            KvPlacementPolicy::Hybrid { hot_window: 16 },
        ][placement_index];
        check_decode_serving_conserves_requests(
            placement,
            qps,
            num_requests,
            output_tokens,
            kv_pus,
            seed,
        );
    }
}
