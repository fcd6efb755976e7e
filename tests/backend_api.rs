//! Cross-crate integration of the unified `Backend` API: every roster
//! backend (HyFlexPIM, the five baseline designs and analog attention)
//! flows through `SystemBuilder`, `BatchScheduler`, and a one-replica
//! `OverloadSim`; the deployed HyFlexPIM
//! backend is bit-identical to `PerformanceModel`'s `deploy` +
//! `evaluate_deployed`; and the batched-evaluation edge cases (batch of one,
//! empty batch, padded mixed-length batches) hold for all of them.

use hyflex::baselines::{SystemBuilder, BACKENDS};
use hyflex::pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex::pim::perf::pipelined_batch;
use hyflex::pim::{PerformanceModel, PimError};
use hyflex::runtime::{
    ArrivalProcess, BatchScheduler, OverloadConfig, OverloadSim, RequestTrace, SchedulerConfig,
    TrafficConfig,
};
use hyflex::transformer::ModelConfig;
use std::sync::Arc;

fn all_backends() -> Vec<Box<dyn Backend>> {
    BACKENDS
        .into_iter()
        .map(|name| SystemBuilder::paper().backend(name).build().unwrap())
        .collect()
}

#[test]
fn every_registered_backend_runs_through_serving_sim() {
    for backend in all_backends() {
        let name = backend.name().to_string();
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: 500.0 },
            num_requests: 150,
            seq_len: 128,
            seed: 19,
            ..TrafficConfig::default()
        })
        .unwrap();
        let report = OverloadSim::with_backend(backend, OverloadConfig::new(trace))
            .unwrap_or_else(|e| panic!("{name}: sim construction failed: {e}"))
            .run()
            .unwrap_or_else(|e| panic!("{name}: run failed: {e}"));
        assert_eq!(report.completed, 150, "{name}");
        assert!(report.latency.p50_ms > 0.0, "{name}");
        assert!(report.latency.p50_ms <= report.latency.p95_ms, "{name}");
        assert!(report.latency.p95_ms <= report.latency.p99_ms, "{name}");
        assert!(
            report.mean_utilization > 0.0 && report.mean_utilization <= 1.0,
            "{name}: utilization {}",
            report.mean_utilization
        );
    }
}

#[test]
fn hyflexpim_backend_is_bit_identical_to_the_performance_model() {
    // The backend deploys once; the reference deploys afresh for every
    // length, through the facade.
    let slc = 0.05;
    let model = ModelConfig::bert_large();
    let backend = HyFlexPim::paper(model.clone(), slc).unwrap();
    let perf = PerformanceModel::paper_default();
    for seq_len in [64usize, 128, 512, 2048] {
        let deployment = perf.deploy(&model, slc).unwrap();
        let single = perf.evaluate_deployed(&model, &deployment, seq_len);
        assert_eq!(
            backend
                .evaluate(&InferenceRequest::of_len(0, seq_len))
                .unwrap(),
            single
        );
        for batch in [1usize, 4, 32] {
            assert_eq!(
                backend.evaluate_batched(seq_len, batch).unwrap(),
                pipelined_batch(single.clone(), model.num_layers, seq_len, batch).unwrap()
            );
        }
    }
}

#[test]
fn batch_of_one_is_bit_identical_to_evaluate_for_every_backend() {
    for backend in all_backends() {
        let name = backend.name().to_string();
        let single = backend.evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
        let batched = backend.evaluate_batched(128, 1).unwrap();
        assert_eq!(batched.single, single, "{name}");
        assert_eq!(batched.batch_size, 1, "{name}");
        assert_eq!(batched.latency.queueing_ns, 0.0, "{name}");
        assert_eq!(
            batched.first_request_ns,
            single.latency.total_ns(),
            "{name}"
        );
        assert_eq!(batched.makespan_ns, single.latency.total_ns(), "{name}");
    }
}

#[test]
fn empty_batch_is_a_typed_error_not_a_nan() {
    for backend in all_backends() {
        let name = backend.name().to_string();
        let err = backend.evaluate_batched(128, 0).unwrap_err();
        assert!(
            matches!(err, PimError::EmptyBatch),
            "{name}: expected PimError::EmptyBatch, got {err:?}"
        );
    }
}

#[test]
fn mixed_seq_len_padding_never_shrinks_the_initiation_interval() {
    // A mixed batch executes padded to its longest sequence. That padded
    // shape must never have a smaller initiation interval than any of its
    // constituent shapes, otherwise padding would *raise* modeled throughput.
    let lengths = [64usize, 128, 256, 512, 1024];
    for backend in all_backends() {
        let name = backend.name().to_string();
        let mut last = 0.0f64;
        for &seq_len in &lengths {
            let interval = backend
                .evaluate_batched(seq_len, 8)
                .unwrap()
                .initiation_interval_ns;
            assert!(
                interval >= last,
                "{name}: interval shrank from {last} to {interval} ns at N={seq_len}"
            );
            last = interval;
        }
    }
    // End to end through the scheduler: a mixed batch is charged and
    // evaluated at its max sequence length.
    let backend: Arc<dyn Backend> =
        Arc::new(HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap());
    let mut scheduler =
        BatchScheduler::for_backend(Arc::clone(&backend), SchedulerConfig::default()).unwrap();
    for (id, seq) in [64usize, 512, 128, 256].iter().enumerate() {
        scheduler
            .submit(InferenceRequest::new(id as u64, id as f64, *seq))
            .unwrap();
    }
    let batch = scheduler.next_batch().unwrap();
    assert_eq!(batch.max_seq_len, 512);
    let padded = backend
        .evaluate_batched(batch.max_seq_len, batch.len())
        .unwrap();
    for &seq in &[64usize, 128, 256] {
        let shorter = backend.evaluate_batched(seq, batch.len()).unwrap();
        assert!(padded.initiation_interval_ns >= shorter.initiation_interval_ns);
    }
}

#[test]
fn system_builder_validates_rates_and_backend_names() {
    // SLC rates outside [0, 1] are rejected up front...
    for bad in [-0.5, 1.5, f64::NAN] {
        assert!(SystemBuilder::paper().slc_rate(bad).build().is_err());
    }
    // ...and unknown backend names fail with a message listing the roster.
    let err = SystemBuilder::paper()
        .backend("systolic-array")
        .build()
        .unwrap_err()
        .to_string();
    for name in BACKENDS {
        assert!(err.contains(name), "error should list {name}: {err}");
    }
    // The happy path builds every roster backend.
    for name in BACKENDS {
        let backend = SystemBuilder::paper().backend(name).build().unwrap();
        assert!(!backend.name().is_empty());
    }
}

#[test]
fn baselines_are_slower_than_hyflexpim_in_the_serving_model() {
    // Ordering sanity for Figure 19: at N = 128 the single-request makespan
    // of every baseline exceeds HyFlexPIM's.
    let backends = all_backends();
    let hyflex = backends[0].evaluate_batched(128, 1).unwrap().makespan_ns;
    for backend in &backends[1..] {
        let theirs = backend.evaluate_batched(128, 1).unwrap().makespan_ns;
        assert!(
            theirs > hyflex,
            "{}: {theirs} ns should exceed HyFlexPIM's {hyflex} ns",
            backend.name()
        );
    }
}
