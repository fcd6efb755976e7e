//! Cross-crate integration of the batched-inference runtime: the facade
//! re-export, the batch-aware performance model, the scheduler's capacity
//! contract, and full closed-loop serving runs — homogeneous, mixed
//! sequence lengths (property-tested end to end), SLO-aware policies, and
//! multi-chip clusters — exercised together the way
//! `examples/serving_sim.rs` and `examples/cluster_serving.rs` use them.

use hyflex::pim::backend::{Backend, HyFlexPim};
use hyflex::runtime::{
    ClusterConfig, ClusterSim, DispatchPolicy, InferenceRequest, RequestClass, SchedulerConfig,
    SchedulingPolicy, ServingConfig,
};
use hyflex::transformer::ModelConfig;
use hyflex_runtime::BatchScheduler;
use proptest::prelude::*;
use std::sync::Arc;

/// `backend` serving `serving` as a single device: a one-chip cluster.
fn one_chip<B: Backend + 'static>(backend: B, serving: ServingConfig) -> ClusterSim<B> {
    ClusterSim::with_backend(
        backend,
        ClusterConfig {
            chips: 1,
            dispatch: DispatchPolicy::RoundRobin,
            serving,
        },
    )
    .expect("serving sim builds")
}

fn serving_config(max_batch_size: usize) -> ServingConfig {
    ServingConfig {
        qps: 5000.0,
        num_requests: 600,
        seq_len: 128,
        seed: 18,
        scheduler: SchedulerConfig {
            max_batch_size,
            ..SchedulerConfig::default()
        },
        ..ServingConfig::default()
    }
}

#[test]
fn serving_reports_throughput_and_tail_latency_for_required_batch_sizes() {
    let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap();
    let mut achieved = Vec::new();
    for batch in [1usize, 4, 16] {
        let report = one_chip(backend.clone(), serving_config(batch))
            .run()
            .expect("serving run completes");
        assert_eq!(report.completed, 600);
        assert!(report.achieved_qps > 0.0);
        assert!(report.latency.p50_ms > 0.0);
        assert!(report.latency.p50_ms <= report.latency.p95_ms);
        assert!(report.latency.p95_ms <= report.latency.p99_ms);
        achieved.push(report.achieved_qps);
    }
    // 5000 QPS exceeds the ~3.7k single-request service rate: only the
    // batched configurations can keep up with the offered load.
    assert!(
        achieved[1] > achieved[0] && achieved[2] > achieved[0],
        "batching must raise sustained throughput under overload: {achieved:?}"
    );
}

#[test]
fn scheduler_capacity_contract_holds_through_the_facade() {
    let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap();
    let mut scheduler = BatchScheduler::for_backend(
        Arc::new(backend),
        SchedulerConfig {
            max_batch_size: 8,
            max_wait_ns: 0.0,
            pus_per_layer: 1,
            ..SchedulerConfig::default()
        },
    )
    .unwrap();
    for id in 0..40 {
        scheduler
            .submit(InferenceRequest::new(id, id as f64, 512))
            .unwrap();
    }
    while let Some(batch) = scheduler.next_batch() {
        assert!(batch.len() <= 8);
        assert!(batch.cells_used <= scheduler.capacity_cells());
    }
}

fn paper_backend() -> HyFlexPim {
    HyFlexPim::paper(ModelConfig::bert_base(), 0.05).unwrap()
}

/// An arbitrary heterogeneous workload: 2–4 classes over a spread of
/// sequence lengths, random weights, load, and batch cap.
fn arbitrary_mix() -> impl Strategy<Value = ServingConfig> {
    let class = (
        proptest::sample::select(vec![32usize, 64, 128, 256, 384]),
        0.5..4.0f64,
    );
    (
        proptest::collection::vec(class, 2..5),
        500.0..20_000.0f64,
        1usize..=16,
        any::<u64>(),
    )
        .prop_map(|(classes, qps, max_batch_size, seed)| ServingConfig {
            qps,
            num_requests: 80,
            classes: classes
                .into_iter()
                .map(|(seq_len, weight)| RequestClass::new(seq_len, weight))
                .collect(),
            seed,
            scheduler: SchedulerConfig {
                max_batch_size,
                ..SchedulerConfig::default()
            },
            ..ServingConfig::default()
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed sequence lengths through the full closed loop: every request
    /// completes exactly once, batches respect FCFS order and both caps,
    /// and capacity is charged at the padded (max-sequence) shape.
    #[test]
    fn mixed_length_serving_preserves_order_caps_and_padding(config in arbitrary_mix()) {
        let backend = paper_backend();
        let capacity_cells = backend.capacity() * config.scheduler.pus_per_layer;
        let cap = config.scheduler.max_batch_size;
        let sim = one_chip(backend.clone(), config.clone());
        let (report, traces) = sim.run_traced().unwrap();
        prop_assert_eq!(report.completed, config.num_requests);

        let mut served_ids = Vec::new();
        let mut last_launch = f64::NEG_INFINITY;
        for trace in &traces {
            let batch = &trace.batch;
            prop_assert!(!batch.is_empty());
            prop_assert!(batch.len() <= cap);
            // Capacity bound, charged at the padded execution shape.
            prop_assert!(batch.cells_used <= capacity_cells);
            prop_assert_eq!(
                batch.cells_used,
                batch.len() * backend.request_cells(batch.max_seq_len)
            );
            // Padding monotonicity: the executed shape is the batch max,
            // and every member fits under it.
            let member_max = batch.requests.iter().map(|r| r.seq_len).max().unwrap();
            prop_assert_eq!(batch.max_seq_len, member_max);
            prop_assert!(batch.requests.iter().all(|r| r.seq_len <= batch.max_seq_len));
            // Batches launch in time order on the single chip, never
            // before every member has arrived.
            prop_assert!(trace.launch_ns >= last_launch);
            last_launch = trace.launch_ns;
            for r in &batch.requests {
                prop_assert!(r.arrival_ns <= trace.launch_ns);
                served_ids.push(r.id);
            }
        }
        // FCFS: the concatenated batch membership is exactly arrival order.
        prop_assert!(served_ids.windows(2).all(|w| w[0] < w[1]));
        prop_assert_eq!(served_ids.len(), config.num_requests);
    }
}

#[test]
fn edf_beats_fcfs_on_slo_attainment_under_overload() {
    // The fig20 scenario, pinned as a regression: interactive requests
    // with a meetable SLO drown behind no-SLO batch work under FCFS, and
    // EDF recovers them.
    let backend = paper_backend();
    let slo_ns = 25.0 * backend.evaluate_batched(64, 1).unwrap().makespan_ns;
    let sustainable = {
        let short = backend.evaluate_batched(64, 16).unwrap().makespan_ns / 16.0;
        let long = backend.evaluate_batched(256, 16).unwrap().makespan_ns / 16.0;
        1e9 / ((3.0 * short + long) / 4.0)
    };
    let run = |policy: SchedulingPolicy| {
        let config = ServingConfig {
            qps: 1.3 * sustainable,
            num_requests: 500,
            classes: vec![
                RequestClass::new(64, 3.0)
                    .with_slo_ns(slo_ns)
                    .with_priority(0),
                RequestClass::new(256, 1.0).with_priority(1),
            ],
            seed: 20,
            ..ServingConfig::default()
        };
        let config = ServingConfig {
            scheduler: SchedulerConfig {
                policy,
                ..SchedulerConfig::default()
            },
            ..config
        };
        one_chip(paper_backend(), config).run().unwrap()
    };
    let fcfs = run(SchedulingPolicy::Fcfs);
    let edf = run(SchedulingPolicy::Edf);
    assert!(
        edf.slo_attainment > fcfs.slo_attainment + 0.05,
        "EDF must clearly beat FCFS under overload: edf {} vs fcfs {}",
        edf.slo_attainment,
        fcfs.slo_attainment
    );
    // Both ran the same closed loop to completion.
    assert_eq!(fcfs.completed, 500);
    assert_eq!(edf.completed, 500);
}

#[test]
fn cluster_conserves_requests_across_chips_and_dispatchers() {
    for dispatch in DispatchPolicy::ALL {
        let config = ClusterConfig {
            chips: 3,
            dispatch,
            serving: ServingConfig {
                qps: 9000.0,
                num_requests: 360,
                classes: vec![RequestClass::new(64, 2.0), RequestClass::new(256, 1.0)],
                seed: 11,
                ..ServingConfig::default()
            },
        };
        let (report, traces) = ClusterSim::with_backend(paper_backend(), config)
            .unwrap()
            .run_traced()
            .unwrap();
        // Exactly num_requests complete, each request on exactly one chip.
        assert_eq!(report.completed, 360, "{dispatch}");
        assert_eq!(report.per_chip_completed.iter().sum::<usize>(), 360);
        let mut ids: Vec<u64> = traces
            .iter()
            .flat_map(|t| t.batch.requests.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..360u64).collect::<Vec<_>>(), "{dispatch}");
        assert!(
            report.per_chip_completed.iter().all(|&c| c > 0),
            "{dispatch}"
        );
    }
}
