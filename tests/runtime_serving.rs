//! Cross-crate integration of the batched-inference runtime: the facade
//! re-export, the batch-aware performance model, the scheduler's capacity
//! contract, and full closed-loop serving runs — homogeneous, mixed
//! sequence lengths (property-tested end to end), SLO-aware policies, and
//! multi-chip clusters — exercised together the way
//! `examples/serving_sim.rs` and `examples/cluster_serving.rs` use them.

use hyflex::pim::backend::{Backend, HyFlexPim};
use hyflex::runtime::{
    ArrivalProcess, DispatchPolicy, InferenceRequest, OverloadConfig, OverloadSim, RequestClass,
    RequestTrace, SchedulerConfig, SchedulingPolicy, TrafficConfig,
};
use hyflex::transformer::ModelConfig;
use hyflex_runtime::BatchScheduler;
use proptest::prelude::*;
use std::sync::Arc;

/// `num_requests` Poisson arrivals at `qps` (homogeneous at N = 128
/// unless `classes` is set).
fn poisson(qps: f64, num_requests: usize, classes: Vec<RequestClass>, seed: u64) -> TrafficConfig {
    TrafficConfig {
        process: ArrivalProcess::Poisson { qps },
        num_requests,
        classes,
        seed,
        ..TrafficConfig::default()
    }
}

/// `backend` serving `traffic` under `scheduler` as a single device.
fn one_chip(
    backend: impl Backend + 'static,
    traffic: TrafficConfig,
    scheduler: SchedulerConfig,
) -> OverloadSim {
    OverloadSim::with_backend(
        backend,
        OverloadConfig {
            scheduler,
            ..OverloadConfig::new(RequestTrace::new(traffic).expect("trace is valid"))
        },
    )
    .expect("serving sim builds")
}

fn batch_cap(max_batch_size: usize) -> SchedulerConfig {
    SchedulerConfig {
        max_batch_size,
        ..SchedulerConfig::default()
    }
}

#[test]
fn serving_reports_throughput_and_tail_latency_for_required_batch_sizes() {
    let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap();
    let mut achieved = Vec::new();
    for batch in [1usize, 4, 16] {
        let traffic = poisson(5000.0, 600, Vec::new(), 18);
        let report = one_chip(backend.clone(), traffic, batch_cap(batch))
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
    let backend = Arc::new(HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap());
    // One PU per layer: a batch may fill one backend tile.
    let capacity_cells = backend.capacity();
    let mut scheduler = BatchScheduler::for_backend(
        backend,
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
        assert!(batch.cells_used <= capacity_cells);
    }
}

fn paper_backend() -> HyFlexPim {
    HyFlexPim::paper(ModelConfig::bert_base(), 0.05).unwrap()
}

/// An arbitrary heterogeneous workload: 2–4 classes over a spread of
/// sequence lengths, random weights, load, and batch cap.
fn arbitrary_mix() -> impl Strategy<Value = (TrafficConfig, SchedulerConfig)> {
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
        .prop_map(|(classes, qps, max_batch_size, seed)| {
            let classes = classes
                .into_iter()
                .map(|(seq_len, weight)| RequestClass::new(seq_len, weight))
                .collect();
            (poisson(qps, 80, classes, seed), batch_cap(max_batch_size))
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Mixed sequence lengths through the full closed loop: every request
    /// completes exactly once, batches respect FCFS order and both caps,
    /// and capacity is charged at the padded (max-sequence) shape.
    #[test]
    fn mixed_length_serving_preserves_order_caps_and_padding(
        (traffic, scheduler) in arbitrary_mix()
    ) {
        let backend = paper_backend();
        let capacity_cells = backend.capacity() * scheduler.pus_per_layer;
        let cap = scheduler.max_batch_size;
        let sim = one_chip(backend.clone(), traffic.clone(), scheduler);
        let (report, traces) = sim.replay_traced(&sim.config().trace.collect()).unwrap();
        prop_assert_eq!(report.completed, traffic.num_requests);

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
        prop_assert_eq!(served_ids.len(), traffic.num_requests);
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
        let classes = vec![
            RequestClass::new(64, 3.0)
                .with_slo_ns(slo_ns)
                .with_priority(0),
            RequestClass::new(256, 1.0).with_priority(1),
        ];
        let scheduler = SchedulerConfig {
            policy,
            ..SchedulerConfig::default()
        };
        let traffic = poisson(1.3 * sustainable, 500, classes, 20);
        one_chip(paper_backend(), traffic, scheduler).run().unwrap()
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
        let classes = vec![RequestClass::new(64, 2.0), RequestClass::new(256, 1.0)];
        let trace = RequestTrace::new(poisson(9000.0, 360, classes, 11)).unwrap();
        let backend: Arc<dyn Backend> = Arc::new(paper_backend());
        let (report, traces) = OverloadSim::with_replicas(
            vec![backend; 3],
            OverloadConfig {
                dispatch,
                ..OverloadConfig::new(trace.clone())
            },
        )
        .unwrap()
        .replay_traced(&trace.collect())
        .unwrap();
        // Exactly num_requests complete, each request on exactly one chip.
        assert_eq!(report.completed, 360, "{dispatch}");
        assert_eq!(report.per_replica_completed.iter().sum::<usize>(), 360);
        let mut ids: Vec<u64> = traces
            .iter()
            .flat_map(|t| t.batch.requests.iter().map(|r| r.id))
            .collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..360u64).collect::<Vec<_>>(), "{dispatch}");
        assert!(
            report.per_replica_completed.iter().all(|&c| c > 0),
            "{dispatch}"
        );
    }
}
