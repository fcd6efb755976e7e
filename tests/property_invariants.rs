//! Property-based tests of core invariants, using proptest.

use hyflex_parallel::JobPool;
use hyflex_pim::selection::{self, SelectionStrategy};
use hyflex_rram::cell::CellMode;
use hyflex_rram::noise::{ber_from_sigma, sigma_from_ber};
use hyflex_tensor::activations::softmax;
use hyflex_tensor::quant::QuantizedMatrix;
use hyflex_tensor::rng::Rng;
use hyflex_tensor::svd::hard_threshold_rank;
use hyflex_tensor::{kernels, svd, Matrix};
use proptest::prelude::*;

fn arbitrary_matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim, any::<u64>()).prop_map(|(rows, cols, seed)| {
        let mut rng = Rng::seed_from(seed);
        Matrix::random_normal(rows, cols, 0.0, 1.0, &mut rng)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The SVD reconstructs any matrix and its singular values are sorted.
    #[test]
    fn svd_reconstructs_and_sorts(m in arbitrary_matrix(12)) {
        let d = svd::svd(&m).unwrap();
        let reconstructed = d.reconstruct();
        prop_assert!(m.approx_eq(&reconstructed, 1e-2));
        for pair in d.singular_values.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-6);
        }
    }

    /// Truncated reconstruction error never decreases as rank is reduced.
    #[test]
    fn truncation_error_is_monotone(m in arbitrary_matrix(10)) {
        let d = svd::svd(&m).unwrap();
        let mut last_err = -1.0f32;
        for k in (1..=d.rank()).rev() {
            let err = m.relative_error(&d.truncate(k).unwrap().reconstruct()).unwrap();
            prop_assert!(err + 1e-4 >= last_err);
            last_err = err;
        }
    }

    /// INT8 quantization keeps every element within one quantization step.
    #[test]
    fn quantization_error_is_bounded(m in arbitrary_matrix(16)) {
        let q = QuantizedMatrix::quantize(&m, 8).unwrap();
        let deq = q.dequantize();
        let max_err = m.sub(&deq).unwrap().max_abs();
        prop_assert!(max_err <= q.scale() * 0.5 + 1e-6);
    }

    /// Softmax outputs are a probability distribution for any finite logits.
    #[test]
    fn softmax_is_a_distribution(values in proptest::collection::vec(-50.0f32..50.0, 1..32)) {
        let p = softmax(&values);
        prop_assert_eq!(p.len(), values.len());
        prop_assert!(p.iter().all(|x| (0.0..=1.0).contains(x)));
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
    }

    /// The BER model is monotone in sigma and inverts correctly.
    ///
    /// The range stays below ~20% because an SLC cell's lowest level has an
    /// enormous noise margin: its flip probability saturates, so average BERs
    /// approaching 25% are physically unreachable for SLC.
    #[test]
    fn ber_sigma_round_trip(ber in 0.001f64..0.2) {
        for mode in [CellMode::Slc, CellMode::MLC2] {
            let sigma = sigma_from_ber(ber, mode).unwrap();
            let back = ber_from_sigma(sigma, mode);
            prop_assert!((back - ber).abs() < 1e-3);
        }
    }

    /// SVD invariants hold at the hard-threshold rank: singular values are
    /// non-negative and non-increasing, and U/V columns are orthonormal
    /// within tolerance.
    #[test]
    fn svd_invariants_hold_at_the_hard_threshold_rank(m in arbitrary_matrix(16)) {
        let k = hard_threshold_rank(m.rows(), m.cols());
        let d = svd::svd(&m).unwrap().truncate(k).unwrap();
        prop_assert_eq!(d.rank(), k);
        for pair in d.singular_values.windows(2) {
            prop_assert!(pair[0] >= pair[1] - 1e-5, "{:?}", pair);
        }
        prop_assert!(d.singular_values.iter().all(|s| *s >= 0.0));
        let utu = d.u.transpose().matmul(&d.u).unwrap();
        prop_assert!(utu.approx_eq(&Matrix::identity(k), 1e-2), "UᵀU ≉ I");
        let vvt = d.vt.matmul(&d.vt.transpose()).unwrap();
        prop_assert!(vvt.approx_eq(&Matrix::identity(k), 1e-2), "VᵀV ≉ I");
    }

    /// The blocked kernels are bit-identical to the naive reference loops.
    #[test]
    fn kernel_matmul_is_bit_identical_to_naive(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let m = 1 + (seed % 40) as usize;
        let k = 1 + ((seed >> 8) % 40) as usize;
        let n = 1 + ((seed >> 16) % 40) as usize;
        let a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
        // Naive ikj reference with the zero-skip, exactly as `Matrix::matmul`
        // computed it before the kernel layer.
        let mut naive = Matrix::zeros(m, n);
        for i in 0..m {
            for kk in 0..k {
                let aik = a.at(i, kk);
                if aik == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let v = naive.at(i, j) + aik * b.at(kk, j);
                    naive.set(i, j, v);
                }
            }
        }
        let blocked = a.matmul(&b).unwrap();
        prop_assert_eq!(blocked.as_slice(), naive.as_slice());
    }

    /// The matrix product is associative within floating-point tolerance.
    #[test]
    fn matmul_is_associative(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let a = Matrix::random_normal(4, 6, 0.0, 1.0, &mut rng);
        let b = Matrix::random_normal(6, 5, 0.0, 1.0, &mut rng);
        let c = Matrix::random_normal(5, 3, 0.0, 1.0, &mut rng);
        let left = a.matmul(&b).unwrap().matmul(&c).unwrap();
        let right = a.matmul(&b.matmul(&c).unwrap()).unwrap();
        prop_assert!(left.approx_eq(&right, 1e-3));
    }

    /// Rank selection always protects exactly the requested number of ranks
    /// (and at least one when the rate is non-zero), for every strategy.
    #[test]
    fn rank_selection_counts_are_exact(rank in 1usize..128, rate in 0.0f64..1.0, seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let profile = hyflex_pim::gradient_redistribution::LayerGradientProfile {
            layer_index: 0,
            name: "blocks.0.attn.q_proj".to_string(),
            rank,
            singular_values: (0..rank).map(|_| rng.uniform() as f32).collect(),
            sigma_gradients: (0..rank).map(|_| rng.uniform()).collect(),
        };
        let expected = selection::protected_count(rank, rate);
        for strategy in SelectionStrategy::all() {
            let mask = selection::select_protected_ranks(&profile, strategy, rate);
            prop_assert_eq!(mask.len(), rank);
            prop_assert_eq!(mask.iter().filter(|m| **m).count(), expected);
        }
    }

    /// SLC cell fraction is monotone in the rank protection rate.
    #[test]
    fn slc_cell_fraction_is_monotone(a in 0.0f64..1.0, b in 0.0f64..1.0) {
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        prop_assert!(selection::slc_cell_fraction(lo, 2) <= selection::slc_cell_fraction(hi, 2) + 1e-12);
    }

    /// Every product kernel (`matmul`, `matmul_transpose`,
    /// `matmul_transpose_left`) and `matvec` is bit-identical to its naive
    /// reference loop: tiling relocates memory, never the per-element
    /// accumulation chain. `a` carries exact `0.0`, `-0.0` and `±inf`
    /// entries, and each `b` a few infinities, each facing a zero `a` entry
    /// in its row of the sum: there the skip is all that keeps `0 · inf =
    /// NaN` out of the chain. Dimensions up to 70 cross the 16- and 8-lane
    /// tiles, the padded tail and the 64-deep `k` slab.
    #[test]
    fn packed_kernels_are_bit_identical_to_naive(seed in any::<u64>()) {
        let mut rng = Rng::seed_from(seed);
        let m = 1 + (seed % 70) as usize;
        let k = 1 + ((seed >> 8) % 70) as usize;
        let n = 1 + ((seed >> 16) % 70) as usize;
        let bits = |x: &[f32]| x.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut a = Matrix::random_normal(m, k, 0.0, 1.0, &mut rng);
        let specials = [0.0f32, -0.0, f32::INFINITY, f32::NEG_INFINITY, 0.0, -0.0];
        for _ in 0..(m * k).div_ceil(8) {
            let special = specials[rng.below(specials.len())];
            a.set(rng.below(m), rng.below(k), special);
        }
        // b (k × n) and c (m × n) with two infinities each; every infinity
        // at row p meets a zero a(i, p) (for c, a zero aᵀ(i, p) = a(p, i)).
        let mut b = Matrix::random_normal(k, n, 0.0, 1.0, &mut rng);
        let mut c = Matrix::random_normal(m, n, 0.0, 1.0, &mut rng);
        for inf in [f32::INFINITY, f32::NEG_INFINITY] {
            let p = rng.below(k);
            b.set(p, rng.below(n), inf);
            a.set(rng.below(m), p, 0.0);
            let p = rng.below(m);
            c.set(p, rng.below(n), inf);
            a.set(p, rng.below(k), -0.0);
        }
        // The ikj reference: out[i][j] starts at 0 and adds x(i, p)·y(p, j)
        // for ascending p whose x(i, p) is not zero.
        let naive = |rows: usize, inner: usize, cols: usize,
                     x_at: &dyn Fn(usize, usize) -> f32,
                     y_at: &dyn Fn(usize, usize) -> f32| {
            let mut out = vec![0.0f32; rows * cols];
            for i in 0..rows {
                for p in 0..inner {
                    let x = x_at(i, p);
                    if x == 0.0 {
                        continue;
                    }
                    for j in 0..cols {
                        out[i * cols + j] += x * y_at(p, j);
                    }
                }
            }
            out
        };

        // a · b, and a · bᵀ with bᵀ stored as an n × k matrix.
        let reference = naive(m, k, n, &|i, p| a.at(i, p), &|p, j| b.at(p, j));
        let fast = kernels::matmul(&a, &b).unwrap();
        prop_assert_eq!(bits(fast.as_slice()), bits(&reference));
        let fast = kernels::matmul_transpose(&a, &b.transpose()).unwrap();
        prop_assert_eq!(bits(fast.as_slice()), bits(&reference));

        // aᵀ · c: `a` read as its k × m transpose.
        let reference = naive(k, m, n, &|i, p| a.at(p, i), &|p, j| c.at(p, j));
        let fused = kernels::matmul_transpose_left(&a, &c).unwrap();
        prop_assert_eq!(bits(fused.as_slice()), bits(&reference));

        // a · v: row dots, ascending k, no skip.
        let v: Vec<f32> = (0..k).map(|_| rng.normal() as f32).collect();
        let fast = kernels::matvec(&a, &v).unwrap();
        for (r, &got) in fast.iter().enumerate() {
            let mut acc = 0.0f32;
            for (x, y) in a.row(r).iter().zip(v.iter()) {
                acc += x * y;
            }
            prop_assert_eq!(got.to_bits(), acc.to_bits());
        }
    }
}

// The full-pipeline bit-identity proptest runs far fewer cases: each case
// runs `GradientRedistribution::apply` five times (serial + four pool
// widths) end to end.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(2))]

    /// `GradientRedistribution::apply` on the `par_map` pool is
    /// bit-identical to the serial pipeline — same factored model, same
    /// report — for worker counts {1, 2, 4, 8}.
    #[test]
    fn pooled_gradient_redistribution_apply_matches_serial_bitwise(seed in any::<u64>()) {
        use hyflex_pim::gradient_redistribution::GradientRedistribution;
        use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
        use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

        let mut rng = Rng::seed_from(seed);
        let model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
        let dataset = glue::generate(GlueTask::Mrpc, &GlueConfig::default(), seed);
        let train = &dataset.train[..dataset.train.len().min(16)];
        let eval = &dataset.eval[..dataset.eval.len().min(8)];
        let trainer = Trainer::new(AdamWConfig::default(), 8);
        let pipeline = |pool: JobPool| GradientRedistribution {
            finetune_epochs: 1,
            ..GradientRedistribution::new(Trainer { pool, ..trainer })
        };

        let mut serial_model = model.clone();
        let serial_report = pipeline(JobPool::serial())
            .apply(&mut serial_model, train, eval)
            .unwrap();
        for workers in [1usize, 2, 4, 8] {
            let mut pooled_model = model.clone();
            let pooled_report = pipeline(JobPool::new(workers))
                .apply(&mut pooled_model, train, eval)
                .unwrap();
            prop_assert_eq!(&pooled_model, &serial_model, "model diverged at workers={}", workers);
            prop_assert_eq!(&pooled_report, &serial_report, "report diverged at workers={}", workers);
        }
    }
}

/// Stress: 10⁴ tiny jobs with uneven costs through `par_map`, each outer job
/// occasionally re-entering the pool with two nested scoped `par_map` calls
/// (both run inline on the worker — no thread explosion), with the result
/// checked against the serial map.
#[test]
fn pool_stress_nested_scopes_inside_ten_thousand_uneven_jobs() {
    fn uneven(x: u64) -> u64 {
        // Cost varies by two orders of magnitude across neighbours.
        let spins = (x % 64) * 16;
        let mut acc = x;
        for i in 0..spins {
            acc = acc.wrapping_mul(2654435761).wrapping_add(i);
        }
        acc
    }

    let pool = JobPool::new(4);
    let items: Vec<u64> = (0..10_000).collect();
    let work = |&x: &u64| {
        let mut value = uneven(x);
        if x % 97 == 0 {
            // Nested borrowed entry points from inside a pool job.
            let parts = pool.par_map(&[x, x + 1, x + 2], |&y| uneven(y));
            let sum = std::sync::atomic::AtomicU64::new(0);
            pool.par_map(&parts, |&p| {
                sum.fetch_add(p, std::sync::atomic::Ordering::Relaxed)
            });
            value = value.wrapping_add(sum.load(std::sync::atomic::Ordering::Relaxed));
        }
        value
    };
    let expected: Vec<u64> = items.iter().map(work).collect();
    let got = pool.par_map(&items, work);
    assert_eq!(got, expected);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The allocation-free `ops_count::total_ops` equals the sum of the
    /// `model_ops` stages, which are the per-layer counts times the layers.
    #[test]
    fn total_ops_is_the_sum_of_the_model_stages(
        seq_len in 0usize..4097,
        num_layers in 1usize..65,
        hidden_dim in 1usize..4097,
        ffn_dim in 1usize..16385,
        num_heads in 1usize..65,
    ) {
        use hyflex_transformer::{ops_count, ModelConfig};

        let config = ModelConfig {
            num_layers,
            hidden_dim,
            ffn_dim,
            num_heads,
            ..ModelConfig::bert_base()
        };
        let layer = ops_count::per_layer_ops(&config, seq_len);
        let model = ops_count::model_ops(&config, seq_len);
        for ((l, m), stage) in layer.iter().zip(&model).zip(ops_count::Stage::all()) {
            prop_assert_eq!(l.stage, stage);
            prop_assert_eq!(m.stage, stage);
            prop_assert_eq!(m.ops, l.ops * num_layers as u64);
        }
        let stage_sum: u64 = model.iter().map(|s| s.ops).sum();
        prop_assert_eq!(ops_count::total_ops(&config, seq_len), stage_sum);
    }
}
