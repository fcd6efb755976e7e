//! Criterion benches for the SVD / gradient-redistribution pipeline pieces.

use criterion::{criterion_group, criterion_main, Criterion};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::{svd, Matrix};
use hyflex_transformer::layers::Linear;
use hyflex_transformer::{FactoredLinear, Layer, LayerCtx};
use std::hint::black_box;

fn bench_svd(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    let mut group = c.benchmark_group("svd/jacobi");
    for &size in &[16usize, 32, 64] {
        let w = Matrix::random_normal(size, size, 0.0, 0.5, &mut rng);
        group.bench_function(format!("{size}x{size}"), |b| {
            b.iter(|| svd::svd(black_box(&w)).unwrap())
        });
    }
    group.finish();
}

/// Jacobi vs randomized at the paper's hard-threshold rank — the truncated
/// decomposition `GradientRedistribution::apply` actually needs.
fn bench_svd_algorithms_at_hard_threshold(c: &mut Criterion) {
    let mut rng = Rng::seed_from(5);
    for &size in &[32usize, 64] {
        let w = Matrix::random_normal(size, size, 0.0, 0.5, &mut rng);
        let k = svd::hard_threshold_rank(size, size);
        let mut group = c.benchmark_group(format!("svd/truncated_{size}x{size}_rank{k}"));
        group.bench_function("jacobi", |b| {
            b.iter(|| svd::svd_with(black_box(&w), svd::SvdAlgorithm::Jacobi, k).unwrap())
        });
        group.bench_function("randomized", |b| {
            b.iter(|| svd::svd_with(black_box(&w), svd::SvdAlgorithm::Randomized, k).unwrap())
        });
        group.finish();
    }
}

fn bench_factored_layer(c: &mut Criterion) {
    let mut rng = Rng::seed_from(4);
    let weight = Matrix::random_normal(64, 64, 0.0, 0.5, &mut rng);
    let dense = Linear::from_weight(weight.clone());
    let mut factored = FactoredLinear::from_weight_hard_threshold(&weight).unwrap();
    let x = Matrix::random_normal(16, 64, 0.0, 1.0, &mut rng);
    let upstream = Matrix::random_normal(16, 64, 0.0, 1.0, &mut rng);
    let ctx = LayerCtx::inference();

    let mut group = c.benchmark_group("factored_linear_64x64");
    group.bench_function("factorize_hard_threshold", |b| {
        b.iter(|| FactoredLinear::from_weight_hard_threshold(black_box(&weight)).unwrap())
    });
    group.bench_function("dense_forward", |b| {
        b.iter(|| dense.forward(black_box(&x), &ctx).unwrap())
    });
    group.bench_function("factored_forward", |b| {
        b.iter(|| factored.forward(black_box(&x), &ctx).unwrap())
    });
    // The backward pass alone, from the state one forward pass saved.
    let (_, saved) = factored.forward_saved(&x, &ctx).unwrap();
    group.bench_function("factored_backward", |b| {
        b.iter(|| {
            factored
                .backward(black_box(&x), &saved, black_box(&upstream), &ctx)
                .unwrap()
        })
    });
    group.finish();
}

fn bench_matmul_tails(c: &mut Criterion) {
    // Output widths on and off the kernel's 8-lane chunk: a rank-21 factored
    // layer or a 12-token attention product runs a remainder chunk.
    let mut rng = Rng::seed_from(11);
    let mut group = c.benchmark_group("kernels/matmul");
    for (m, k, n) in [(12, 64, 31), (12, 64, 32), (12, 32, 12), (12, 32, 16)] {
        let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
        group.bench_function(format!("{m}x{k}x{n}"), |bench| {
            bench.iter(|| black_box(&a).matmul(black_box(&b)).unwrap())
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_svd,
    bench_svd_algorithms_at_hard_threshold,
    bench_factored_layer,
    bench_matmul_tails
);
criterion_main!(benches);
