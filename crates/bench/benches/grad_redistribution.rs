//! Criterion benches for the gradient-redistribution pipeline: the pooled
//! factorization (every static layer of the tiny 2-block encoder decomposed
//! by Jacobi serially vs on the scoped `par_map` pool) and the training
//! steps that pre-training, fine-tuning and gradient collection repeat (one
//! `forward_backward`, one `Trainer::train` epoch).
//!
//! The serial and pooled factorizations are bit-identical by construction
//! (each layer's SVD is deterministic and independent of the others), so
//! that group measures pure scheduling cost/win at equal output.

use criterion::{criterion_group, criterion_main, Criterion};
use hyflex_parallel::JobPool;
use hyflex_pim::gradient_redistribution::GradientRedistribution;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};
use std::hint::black_box;

fn bench_factorize_model(c: &mut Criterion) {
    let mut rng = Rng::seed_from(11);
    let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
    let trainer = Trainer::new(AdamWConfig::default(), 16);

    let pipeline = GradientRedistribution::new(trainer);
    let mut group = c.benchmark_group("grad_redistribution/factorize_jacobi");
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

/// One training step and one training epoch of the tiny encoder on synthetic
/// MRPC (sequence length 12, 160 training samples, batch 16): the unit of
/// work that pre-training, fine-tuning and `collect_profiles` repeat.
fn bench_training(c: &mut Criterion) {
    let dataset = glue::generate(GlueTask::Mrpc, &GlueConfig::default(), 11);
    let mut rng = Rng::seed_from(12);
    let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
    let trainer = Trainer::new(AdamWConfig::default(), 16);
    let sample = &dataset.train[0];

    let mut group = c.benchmark_group("transformer");
    let mut grad_model = model.clone();
    group.bench_function("forward_backward_tiny_encoder_l12", |b| {
        b.iter(|| {
            grad_model
                .forward_backward(black_box(&sample.input), &mut |logits: &Matrix| {
                    Ok(logits.scale(0.5))
                })
                .unwrap()
        })
    });
    group.bench_function("train_epoch_tiny_encoder_mrpc", |b| {
        b.iter(|| {
            let mut m = black_box(&model).clone();
            trainer.train(&mut m, &dataset.train, 1).unwrap();
            m
        })
    });
    group.finish();
}

criterion_group!(benches, bench_factorize_model, bench_training);
criterion_main!(benches);
