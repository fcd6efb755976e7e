//! Criterion benches for the SVD / gradient-redistribution pipeline pieces.

use criterion::{criterion_group, criterion_main, Criterion};
use hyflex_tensor::activations::{gelu, gelu_derivative};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::{kernels, svd, Matrix};
use hyflex_transformer::layers::Linear;
use hyflex_transformer::{FactoredLinear, Layer, LayerCtx};
use std::hint::black_box;

fn bench_svd(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    let mut group = c.benchmark_group("svd/jacobi");
    // Square, tall and wide: the wide case runs on the transpose.
    for &(rows, cols) in &[(16usize, 16usize), (32, 32), (64, 64), (64, 32), (32, 64)] {
        let w = Matrix::random_normal(rows, cols, 0.0, 0.5, &mut rng);
        group.bench_function(format!("{rows}x{cols}"), |b| {
            b.iter(|| svd::svd(black_box(&w)).unwrap())
        });
    }
    group.finish();
}

/// Jacobi truncated to the paper's hard-threshold rank — the decomposition
/// `GradientRedistribution::apply` actually needs.
fn bench_svd_at_hard_threshold(c: &mut Criterion) {
    let mut rng = Rng::seed_from(5);
    for &size in &[32usize, 64] {
        let w = Matrix::random_normal(size, size, 0.0, 0.5, &mut rng);
        let k = svd::hard_threshold_rank(size, size);
        let mut group = c.benchmark_group(format!("svd/truncated_{size}x{size}_rank{k}"));
        group.bench_function("jacobi", |b| {
            b.iter(|| svd::svd(black_box(&w)).unwrap().truncate(k).unwrap())
        });
        group.finish();
    }
}

fn bench_factored_layer(c: &mut Criterion) {
    let mut rng = Rng::seed_from(4);
    let weight = Matrix::random_normal(64, 64, 0.0, 0.5, &mut rng);
    let dense = Linear::from_weight(weight.clone());
    let rank = svd::hard_threshold_rank(64, 64);
    let mut factored = FactoredLinear::from_weight(&weight, rank).unwrap();
    let x = Matrix::random_normal(16, 64, 0.0, 1.0, &mut rng);
    let upstream = Matrix::random_normal(16, 64, 0.0, 1.0, &mut rng);
    let ctx = LayerCtx::inference();

    let mut group = c.benchmark_group("factored_linear_64x64");
    group.bench_function("factorize_hard_threshold", |b| {
        b.iter(|| FactoredLinear::from_weight(black_box(&weight), rank).unwrap())
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
    // The per-sample transformer pass's products (12 tokens; 9 on the ViT
    // task): dense 32×32 and FFN layers, rank-16 attention and rank-21 FFN
    // factors, 12×12 attention, plus output widths on and off the kernel's
    // 8-lane chunk (a rank-21 factored layer runs a padded tail).
    let mut rng = Rng::seed_from(11);
    let mut group = c.benchmark_group("kernels/matmul");
    for (m, k, n) in [
        (12, 64, 31),
        (12, 64, 32),
        (12, 32, 12),
        (12, 32, 16),
        (12, 16, 32),
        (12, 32, 32),
        (12, 64, 21),
        (12, 21, 64),
        (12, 12, 16),
        (9, 32, 16),
    ] {
        let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
        group.bench_function(format!("{m}x{k}x{n}"), |bench| {
            bench.iter(|| black_box(&a).matmul(black_box(&b)).unwrap())
        });
    }
    group.finish();

    // `aᵀ · b` (`m × n` out of a `k`-row pair): weight gradients `xᵀ · g`
    // and attention's `probsᵀ · d_ctx`, `d_scoresᵀ · q`.
    let mut group = c.benchmark_group("kernels/matmul_transpose_left");
    for (m, k, n) in [(32, 12, 32), (12, 12, 16), (21, 12, 64)] {
        let a = Matrix::random_normal(k, m, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
        group.bench_function(format!("{m}x{k}x{n}"), |bench| {
            bench.iter(|| kernels::matmul_transpose_left(black_box(&a), black_box(&b)).unwrap())
        });
    }
    group.finish();

    // The backward input gradient `g · Wᵀ` (12 × 32 against a 32 × 32
    // weight): `matmul_transpose` next to the two-step form that
    // materializes `Wᵀ` first.
    let g = Matrix::random_normal(12, 32, 0.0, 1.0, &mut rng);
    let w = Matrix::random_normal(32, 32, 0.0, 1.0, &mut rng);
    let mut group = c.benchmark_group("kernels/g_wt_12x32x32");
    group.bench_function("matmul_transpose", |bench| {
        bench.iter(|| black_box(&g).matmul_transpose(black_box(&w)).unwrap())
    });
    group.bench_function("transpose_then_matmul", |bench| {
        bench.iter(|| black_box(&g).matmul(&black_box(&w).transpose()).unwrap())
    });
    group.finish();
}

/// The FFN activation and its derivative mapped over the tiny encoder's
/// FFN hidden (12 tokens × 64), as `FeedForward` runs them.
fn bench_gelu(c: &mut Criterion) {
    let mut rng = Rng::seed_from(12);
    let hidden = Matrix::random_normal(12, 64, 0.0, 1.0, &mut rng);
    // Named functions, not a loop over fn pointers, so each `map` inlines
    // its activation as `FeedForward`'s does.
    let mut group = c.benchmark_group("kernels/gelu");
    group.bench_function("12x64", |b| b.iter(|| black_box(&hidden).map(gelu)));
    group.finish();
    let mut group = c.benchmark_group("kernels/gelu_derivative");
    group.bench_function("12x64", |b| {
        b.iter(|| black_box(&hidden).map(gelu_derivative))
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_svd,
    bench_svd_at_hard_threshold,
    bench_factored_layer,
    bench_matmul_tails,
    bench_gelu
);
criterion_main!(benches);
