//! Figure 11: gradient distribution before SVD, after SVD without the hard
//! threshold, and after hard-threshold truncation plus fine-tuning.
//! Training runs on the worker pool (`--threads N`); the output is the same
//! for every width.

use hyflex_bench::{emitln, run_functional_experiment_with, BinArgs};
use hyflex_pim::gradient_redistribution::{GradientRedistribution, TruncationPolicy};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::SvdAlgorithm;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

fn summarize(label: &str, gradients: &[f64]) {
    let total: f64 = gradients.iter().sum();
    let mut sorted = gradients.to_vec();
    sorted.sort_by(|a, b| b.partial_cmp(a).unwrap());
    let top10_count = (gradients.len() as f64 * 0.1).ceil() as usize;
    let top10: f64 = sorted.iter().take(top10_count.max(1)).sum();
    let max = sorted.first().copied().unwrap_or(0.0);
    let mean = total / gradients.len().max(1) as f64;
    emitln!(
        "{label:<42} entries={:<5} max/mean={:<8.2} top-10% share={:.1}%",
        gradients.len(),
        if mean > 0.0 { max / mean } else { 0.0 },
        100.0 * if total > 0.0 { top10 / total } else { 0.0 }
    );
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    args.require_hyflexpim("fig11 profiles the SVD gradient-redistribution pipeline of HyFlexPIM");
    let seed = args.seed_or(11);
    let svd_algo = args.svd_algo_or_exit(SvdAlgorithm::Jacobi);
    let dataset = glue::generate(GlueTask::Mrpc, &GlueConfig::default(), seed);
    emitln!("Figure 11 — gradient redistribution (tiny encoder, synthetic MRPC)");

    // (a) Before SVD: per-weight gradients of the first row of the first FC layer.
    let mut rng = Rng::seed_from(seed);
    let mut dense_model =
        TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).expect("valid config");
    let pool = args.pool();
    let trainer = Trainer {
        pool,
        ..Trainer::new(
            AdamWConfig {
                learning_rate: 3e-3,
                weight_decay: 0.0,
                ..AdamWConfig::default()
            },
            16,
        )
    };
    trainer
        .train(&mut dense_model, &dataset.train, 3)
        .expect("training succeeds");
    let pipeline = GradientRedistribution {
        svd_algorithm: svd_algo,
        ..GradientRedistribution::new(trainer)
    };
    let dense_profile = pipeline
        .dense_row_gradient_profile(&mut dense_model, &dataset.train, 0, 0)
        .expect("dense profile");
    summarize("(a) before SVD (weights in one row)", &dense_profile);

    // (b) After SVD, full rank, no fine-tuning: gradients on singular values.
    let mut full_rank_model = dense_model.clone();
    let full_rank_pipeline = GradientRedistribution {
        truncation: TruncationPolicy::FullRank,
        ..pipeline
    };
    full_rank_pipeline
        .factorize_model(&mut full_rank_model)
        .expect("factorization succeeds");
    let profiles = full_rank_pipeline
        .collect_profiles(&mut full_rank_model, &dataset.train)
        .expect("profiles");
    summarize(
        "(b) after SVD, no hard threshold",
        &profiles[0].sigma_gradients,
    );

    // (c) After hard threshold + fine-tuning (the full pipeline).
    let experiment = run_functional_experiment_with(
        ModelConfig::tiny_encoder(2),
        dataset,
        3,
        3,
        seed,
        svd_algo,
        &pool,
    )
    .expect("experiment succeeds");
    summarize(
        "(c) after SVD + hard threshold + fine-tune",
        &experiment.report.layer_profiles[0].sigma_gradients,
    );
    emitln!(
        "mean top-10% gradient concentration across all layers: {:.1}%",
        100.0 * experiment.report.mean_concentration(0.10)
    );
}
