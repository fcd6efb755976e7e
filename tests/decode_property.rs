//! Property-based proof for the decode-serving subsystem: the `DecodeSim`
//! engine's accounting must conserve requests under any traffic, any
//! placement policy and any admission gate. Every offered request is
//! admitted, shed or rejected, and every admitted request completes or is
//! evicted — nothing is lost or double-counted, and identical inputs give
//! bit-identical reports.

use hyflex_pim::backend::{Backend, HyFlexPim};
use hyflex_pim::PerformanceModel;
use hyflex_runtime::{
    AdmissionPolicy, ArrivalProcess, DecodeConfig, DecodeReport, DecodeSim, KvPlacementPolicy,
    MmppState, RequestClass, RequestTrace, TrafficConfig,
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

/// One decode-serving workload: its traffic (three 128-token prompts to
/// one `long_prompt`) and its engine settings.
struct Workload {
    placement: KvPlacementPolicy,
    admission: AdmissionPolicy,
    process: ArrivalProcess,
    num_requests: usize,
    long_prompt: usize,
    output_tokens: usize,
    kv_pus: usize,
    seed: u64,
}

/// Runs a decode-serving workload, checks the conservation identities
/// plus run-to-run determinism, and returns the report.
///
/// A 1-PU pool holds 256 SLC or 512 MLC tokens of the BERT-Large KV cache
/// (496 under the 16-token hybrid window), so a long prompt of up to 640
/// tokens can never fit a small pool and is shed; the layer tile holds
/// about 26 k tokens, so no prompt drawn here is a capacity error.
fn check_decode_serving_conserves_requests(w: Workload) -> DecodeReport {
    let Workload {
        placement,
        admission,
        process,
        num_requests,
        long_prompt,
        output_tokens,
        kv_pus,
        seed,
    } = w;
    let trace = RequestTrace::new(TrafficConfig {
        process,
        num_requests,
        classes: vec![
            RequestClass::new(128, 3.0),
            RequestClass::new(long_prompt, 1.0),
        ],
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
            admission,
        },
    )
    .unwrap();
    let report = sim.run().unwrap();
    assert_eq!(report.offered, num_requests);
    assert_eq!(
        report.offered,
        report.admitted + report.shed + report.rejected,
        "admission leak: {report:?}"
    );
    if admission == AdmissionPolicy::Unbounded {
        assert_eq!(report.rejected, 0, "the open gate rejected: {report:?}");
    }
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
    report
}

/// The shed path, pinned: on a 1-PU SLC pool a 600-token prompt never
/// fits, so every long prompt is admitted and shed at once, while the
/// 128-token prompts are served.
#[test]
fn decode_serving_sheds_prompts_that_never_fit() {
    let report = check_decode_serving_conserves_requests(Workload {
        placement: KvPlacementPolicy::SlcOnly,
        admission: AdmissionPolicy::Unbounded,
        process: ArrivalProcess::Poisson { qps: 2_000.0 },
        num_requests: 40,
        long_prompt: 600,
        output_tokens: 8,
        kv_pus: 1,
        seed: 3,
    });
    assert!(report.shed > 0, "no long prompt was shed: {report:?}");
    assert!(
        report.completed > 0,
        "no short prompt was served: {report:?}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Request conservation holds for every placement policy and admission
    /// gate across randomized Poisson and two-phase MMPP traffic, pool
    /// sizes, prompt mixes and output lengths — including overloaded pools
    /// that shed, reject and evict.
    #[test]
    fn decode_serving_conserves_requests(
        qps in 500f64..40_000.0,
        num_requests in 10usize..60,
        output_tokens in 1usize..48,
        kv_pus in 1usize..6,
        seed in any::<u64>(),
        placement_index in 0usize..3,
        admission_index in 0usize..3,
        max_outstanding in 1usize..64,
        bucket_rate in 100f64..20_000.0,
        bucket_burst in 1f64..16.0,
        mmpp in any::<bool>(),
        long_prompt in 64usize..640,
    ) {
        let placement = [
            KvPlacementPolicy::SlcOnly,
            KvPlacementPolicy::MlcOnly,
            KvPlacementPolicy::Hybrid { hot_window: 16 },
        ][placement_index];
        let admission = [
            AdmissionPolicy::Unbounded,
            AdmissionPolicy::QueueDepth { max_outstanding },
            AdmissionPolicy::TokenBucket { rate_qps: bucket_rate, burst: bucket_burst },
        ][admission_index];
        let process = if mmpp {
            ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", qps * 2.0, 0.002),
                    MmppState::new("trough", qps * 0.25, 0.002),
                ],
            }
        } else {
            ArrivalProcess::Poisson { qps }
        };
        check_decode_serving_conserves_requests(Workload {
            placement,
            admission,
            process,
            num_requests,
            long_prompt,
            output_tokens,
            kv_pus,
            seed,
        });
    }
}
