//! Criterion benches for the pooled gradient-redistribution factorization:
//! every static layer of the tiny 2-block encoder decomposed serially vs on
//! the scoped `par_map` pool, with both SVD algorithms.
//!
//! The serial and pooled paths are bit-identical by construction (each
//! layer's sketch is seeded from its own name), so this bench measures pure
//! scheduling cost/win at equal output.

use criterion::{criterion_group, criterion_main, Criterion};
use hyflex_parallel::JobPool;
use hyflex_pim::gradient_redistribution::{GradientRedistribution, SvdAlgorithm};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use std::hint::black_box;

fn bench_factorize_model(c: &mut Criterion) {
    let mut rng = Rng::seed_from(11);
    let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
    let trainer = Trainer::new(AdamWConfig::default(), 16);

    for algorithm in [SvdAlgorithm::Jacobi, SvdAlgorithm::Randomized] {
        let pipeline = GradientRedistribution {
            svd_algorithm: algorithm,
            ..GradientRedistribution::new(trainer)
        };
        let mut group = c.benchmark_group(format!("grad_redistribution/factorize_{algorithm}"));
        group.bench_function("serial", |b| {
            b.iter(|| {
                let mut m = black_box(&model).clone();
                pipeline.factorize_model(&mut m).unwrap();
                m
            })
        });
        for workers in [2usize, 4] {
            let pool = JobPool::new(workers);
            group.bench_function(format!("pooled_{workers}"), |b| {
                b.iter(|| {
                    let mut m = black_box(&model).clone();
                    pipeline.factorize_model_pooled(&mut m, &pool).unwrap();
                    m
                })
            });
        }
        group.finish();
    }
}

criterion_group!(benches, bench_factorize_model);
criterion_main!(benches);
