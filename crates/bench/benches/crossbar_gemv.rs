//! Criterion benches for the RRAM crossbar substrate: cell-level column sums,
//! digit-level bit-serial GEMV in SLC and MLC modes, and digital NOR-PIM dot
//! products.

use criterion::{criterion_group, criterion_main, Criterion};
use hyflex_rram::cell::CellMode;
use hyflex_rram::crossbar::CrossbarArray;
use hyflex_rram::digital::DigitalPimModule;
use hyflex_rram::mapping::{MappedMatrix, WeightMapping};
use hyflex_rram::noise::NoiseModel;
use hyflex_rram::spec::ArraySpec;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;
use std::hint::black_box;

fn bench_cell_level_crossbar(c: &mut Criterion) {
    let mut rng = Rng::seed_from(1);
    let mut xbar = CrossbarArray::new(
        ArraySpec::analog(),
        CellMode::MLC2,
        NoiseModel::calibrated_to_paper(),
    )
    .unwrap();
    let levels = Matrix::from_fn(64, 128, |r, c| ((r + c) % 4) as f32);
    xbar.program_levels(&levels, &mut rng).unwrap();
    let active = vec![true; 64];
    c.bench_function("crossbar/cell_level_column_sums_64x128", |b| {
        b.iter(|| xbar.column_level_sums(black_box(&active)).unwrap())
    });
}

fn bench_bit_serial_gemv(c: &mut Criterion) {
    let mut rng = Rng::seed_from(2);
    let weights = Matrix::random_normal(64, 32, 0.0, 0.5, &mut rng);
    let input: Vec<f32> = (0..64).map(|_| rng.normal() as f32).collect();
    let noise = NoiseModel::calibrated_to_paper();

    let slc =
        MappedMatrix::program(&weights, WeightMapping::slc_default(), &noise, &mut rng).unwrap();
    let mlc =
        MappedMatrix::program(&weights, WeightMapping::mlc_default(), &noise, &mut rng).unwrap();

    let mut group = c.benchmark_group("crossbar/bit_serial_gemv_64x32");
    group.bench_function("slc_6b_adc", |b| {
        b.iter(|| slc.gemv(black_box(&input)).unwrap())
    });
    group.bench_function("mlc_7b_adc", |b| {
        b.iter(|| mlc.gemv(black_box(&input)).unwrap())
    });
    group.finish();
}

/// A 4-tile matrix: the shape where the program-time tile plans matter.
fn bench_multi_tile_gemv(c: &mut Criterion) {
    let mut rng = Rng::seed_from(3);
    let weights = Matrix::random_normal(256, 32, 0.0, 0.5, &mut rng);
    let input: Vec<f32> = (0..256).map(|_| rng.normal() as f32).collect();
    let noise = NoiseModel::calibrated_to_paper();
    let slc =
        MappedMatrix::program(&weights, WeightMapping::slc_default(), &noise, &mut rng).unwrap();

    let mut group = c.benchmark_group("crossbar/bit_serial_gemv_256x32");
    group.bench_function("slc_6b_adc_serial", |b| {
        b.iter(|| slc.gemv(black_box(&input)).unwrap())
    });
    group.finish();
}

fn bench_digital_pim(c: &mut Criterion) {
    let mut module = DigitalPimModule::paper_default();
    let q: Vec<Vec<i32>> = (0..16)
        .map(|i| (0..64).map(|j| ((i * j) % 17) - 8).collect())
        .collect();
    let k = q.clone();
    c.bench_function("digital_pim/qk_scores_16x64", |b| {
        b.iter(|| {
            module
                .matmul_transposed(black_box(&q), black_box(&k))
                .unwrap()
        })
    });
}

criterion_group!(
    benches,
    bench_cell_level_crossbar,
    bench_bit_serial_gemv,
    bench_multi_tile_gemv,
    bench_digital_pim
);
criterion_main!(benches);
