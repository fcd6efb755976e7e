//! Criterion benches for the architecture-level evaluation paths used by the
//! figure binaries: the HyFlexPIM performance model and the baselines.

use criterion::{criterion_group, criterion_main, Criterion};
use hyflex_baselines::{Asadi, AsadiPrecision, NonPim, Sprint};
use hyflex_pim::backend::{Backend, HyFlexPim, InferenceRequest};
use hyflex_pim::scalability::ScalabilityModel;
use hyflex_transformer::ModelConfig;
use std::hint::black_box;

fn bench_perf_model(c: &mut Criterion) {
    // HyFlexPIM is priced as the figures and sims price it: a backend bound
    // to its deployment once, then one 1024-token request per call.
    let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.1).unwrap();
    let request = InferenceRequest::of_len(0, 1024);
    c.bench_function("perf/hyflexpim_deployed_bert_large_n1024", |b| {
        b.iter(|| backend.evaluate(black_box(&request)).unwrap())
    });
    // One decode iteration as the serving sims price it: the same bound
    // backend, 16 requests against a 256-token context.
    c.bench_function("perf/hyflexpim_decode_step_bert_large_ctx256_b16", |b| {
        b.iter(|| {
            backend
                .evaluate_decode_step(black_box(256), black_box(16))
                .unwrap()
        })
    });
}

fn bench_baselines(c: &mut Criterion) {
    // Each design is built for the model once; the timed body prices one
    // 1024-token request from the prebuilt backend.
    let config = ModelConfig::bert_large();
    let request = InferenceRequest::of_len(0, 1024);
    let mut group = c.benchmark_group("perf/baselines_end_to_end_n1024");
    group.bench_function("asadi_int8", |b| {
        let backend = Asadi::new(AsadiPrecision::Int8, config.clone()).unwrap();
        b.iter(|| backend.evaluate(black_box(&request)).unwrap())
    });
    group.bench_function("sprint", |b| {
        let backend = Sprint::new(config.clone());
        b.iter(|| backend.evaluate(black_box(&request)).unwrap())
    });
    group.bench_function("non_pim", |b| {
        let backend = NonPim::new(config.clone());
        b.iter(|| backend.evaluate(black_box(&request)).unwrap())
    });
    group.finish();
}

fn bench_scalability(c: &mut Criterion) {
    let model = ScalabilityModel::paper_default();
    c.bench_function("perf/figure17_sweep", |b| {
        b.iter(|| model.figure17().unwrap())
    });
}

criterion_group!(
    benches,
    bench_perf_model,
    bench_baselines,
    bench_scalability
);
criterion_main!(benches);
