//! Criterion benches for the serving engine's host cost: EDF batch formation
//! from a deep queue, and one `OverloadSim` pass of a fleet under overload.

use criterion::{criterion_group, criterion_main, Criterion};
use hyflex_baselines::SystemBuilder;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_runtime::{
    AdmissionPolicy, ArrivalProcess, AutoscalerConfig, BatchScheduler, DispatchPolicy, MmppState,
    OverloadConfig, OverloadSim, RequestClass, RequestTrace, SchedulerConfig, SchedulingPolicy,
    TrafficConfig,
};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::ModelConfig;
use std::hint::black_box;
use std::sync::Arc;

const BATCH_CAP: usize = 16;
const QUEUE_DEPTH: usize = 512;
/// Spread of the queued requests' deadlines, ns.
const DEADLINE_SPAN_NS: f64 = 1e6;

fn backend(name: &str) -> Arc<dyn Backend> {
    let backend = SystemBuilder::paper()
        .model(ModelConfig::bert_large())
        .slc_rate(0.05)
        .backend(name)
        .build()
        .expect("paper backend builds");
    Arc::from(backend)
}

fn edf() -> SchedulerConfig {
    SchedulerConfig {
        max_batch_size: BATCH_CAP,
        policy: SchedulingPolicy::Edf,
        ..SchedulerConfig::default()
    }
}

fn bench_edf_next_batch(c: &mut Criterion) {
    // A 512-deep EDF queue of two shapes with random deadlines. Each
    // iteration forms one batch and resubmits its requests with deadlines
    // one span later, so the queue stays 512 deep and rotates.
    let mut scheduler =
        BatchScheduler::for_backend(backend("hyflexpim"), edf()).expect("scheduler builds");
    let mut rng = Rng::seed_from(7);
    for id in 0..QUEUE_DEPTH as u64 {
        let seq_len = if id % 4 == 3 { 256 } else { 64 };
        let deadline = rng.uniform() * DEADLINE_SPAN_NS;
        let request = InferenceRequest::new(id, id as f64, seq_len).with_deadline_ns(deadline);
        scheduler.submit(request).expect("request fits the tile");
    }
    c.bench_function("serving/edf_next_batch_q512", |b| {
        b.iter(|| {
            let batch = scheduler.next_batch().expect("queue is never empty");
            for request in black_box(batch).requests {
                let later = request.with_deadline_ns(request.deadline_ns + DEADLINE_SPAN_NS);
                scheduler.submit(later).expect("request fits the tile");
            }
        })
    });
}

fn bench_overload_run(c: &mut Criterion) {
    // The overload_fleet shape at 5 000 requests: 3 HyFlexPIM + 1 ASADI-dagger
    // at 1.5x their sustainable rate (MMPP burst/trough), EDF, join-shortest-
    // queue dispatch, a 512-deep queue gate with preemption, shedding and
    // the autoscaler.
    let replicas: Vec<Arc<dyn Backend>> = ["hyflexpim", "hyflexpim", "hyflexpim", "asadi-int8"]
        .iter()
        .map(|name| backend(name))
        .collect();
    let mut sustainable_qps = 0.0;
    for replica in &replicas {
        let mut interval_ns = 0.0;
        for (seq_len, weight) in [(64, 3.0), (256, 1.0)] {
            let batch = replica
                .evaluate_batched(seq_len, BATCH_CAP)
                .expect("batch prices");
            interval_ns += weight * batch.makespan_ns / BATCH_CAP as f64;
        }
        sustainable_qps += 1e9 * 4.0 / interval_ns;
    }
    let slo_ns = 25.0
        * replicas[0]
            .evaluate_batched(64, 1)
            .expect("single request prices")
            .makespan_ns;
    let trace = RequestTrace::new(TrafficConfig {
        process: ArrivalProcess::Mmpp {
            states: vec![
                MmppState::new("burst", sustainable_qps * 2.5, 0.02),
                MmppState::new("trough", sustainable_qps * 5.0 / 6.0, 0.03),
            ],
        },
        num_requests: 5_000,
        classes: vec![
            RequestClass::new(64, 3.0)
                .with_slo_ns(slo_ns)
                .with_priority(0),
            RequestClass::new(256, 1.0).with_priority(1),
        ],
        seed: 601,
        ..TrafficConfig::default()
    })
    .expect("trace config is valid");
    let sim = OverloadSim::with_replicas(
        replicas,
        OverloadConfig {
            scheduler: edf(),
            dispatch: DispatchPolicy::JoinShortestQueue,
            admission: AdmissionPolicy::QueueDepth {
                max_outstanding: QUEUE_DEPTH,
            },
            shed: true,
            preempt: true,
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 2,
                max_replicas: 4,
                check_interval_s: 0.002,
                actuation_lag_s: 0.005,
                scale_up_outstanding: 48.0,
                scale_down_outstanding: 4.0,
                ewma_alpha: Some(0.5),
            }),
            ..OverloadConfig::new(trace)
        },
    )
    .expect("fleet sim builds");
    c.bench_function("serving/overload_fleet_run_5k", |b| {
        b.iter(|| sim.run().expect("overload run"))
    });
}

criterion_group!(benches, bench_edf_next_batch, bench_overload_run);
criterion_main!(benches);
