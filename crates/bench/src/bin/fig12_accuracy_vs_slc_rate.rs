//! Figure 12: accuracy / loss versus SLC protection rate.
//!
//! Encoder tasks (synthetic GLUE stand-ins), a decoder task (synthetic
//! WikiText-2 stand-in), and a vision task (synthetic CIFAR-10 stand-in) are
//! fine-tuned through the gradient-redistribution pipeline and evaluated
//! under the hybrid SLC/MLC noise model at protection rates from 0 % to
//! 100 %. The rate × seed grid is evaluated in parallel on the
//! `hyflex-runtime` worker pool; per-point seeding keeps the numbers
//! bit-identical to the serial sweep. Common flags: `--mlc-bits 3|4` for the
//! higher-level-MLC ablation, `--threads N`, `--seed N`, `--out PATH`.

use hyflex_bench::{emitln, fmt, print_row, run_functional_experiment_with, BinArgs};
use hyflex_pim::noise_sim::SweepPoint;
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator};
use hyflex_pim::selection::SelectionStrategy;
use hyflex_rram::cell::CellMode;
use hyflex_runtime::{par_noise_sweep, JobPool};
use hyflex_tensor::SvdAlgorithm;
use hyflex_transformer::ModelConfig;
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};
use hyflex_workloads::{lm, vision};

const RATES: [f64; 7] = [0.0, 0.05, 0.10, 0.30, 0.40, 0.50, 1.0];
const SEEDS_PER_RATE: u64 = 3;

fn sweep(
    pool: &JobPool,
    name: &str,
    model: ModelConfig,
    dataset: hyflex_workloads::Dataset,
    mlc: CellMode,
    seed: u64,
    svd_algo: SvdAlgorithm,
) {
    let experiment = run_functional_experiment_with(model, dataset, 4, 2, seed, svd_algo, pool)
        .expect("experiment");
    let simulator = NoiseSimulator::paper_default();
    let baseline = experiment.report.eval_finetuned.metrics.primary_value();
    let base = HybridMappingSpec {
        protection_rate: 0.0,
        strategy: SelectionStrategy::GradientBased,
        mlc_mode: mlc,
    };
    // Average a few noise seeds per rate to smooth the small synthetic tasks.
    let points = SweepPoint::grid(&RATES, SEEDS_PER_RATE, seed * 100);
    let outcomes = par_noise_sweep(
        pool,
        &simulator,
        &experiment.model,
        &experiment.report.layer_profiles,
        &base,
        &experiment.dataset.eval,
        &points,
    )
    .expect("noise evaluation");
    let values: Vec<String> = outcomes
        .chunks(SEEDS_PER_RATE as usize)
        .map(|chunk| {
            let mean = chunk.iter().map(|o| o.primary_metric).sum::<f64>() / chunk.len() as f64;
            fmt(mean, 3)
        })
        .collect();
    print_row(name, &values);
    emitln!("{:<28} baseline (no PIM noise): {:.3}", "", baseline);
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    // Only HyFlexPIM has a noise/accuracy model; anything else is rejected
    // (unknown names with the roster listing).
    args.require_hyflexpim("fig12 sweeps task accuracy under the HyFlexPIM noise model");
    let pool = args.pool();
    let mlc = args.mlc_mode();
    let svd_algo = args.svd_algo_or_exit(SvdAlgorithm::Jacobi);
    emitln!(
        "Figure 12 — task quality vs SLC protection rate (MLC = {}-bit cells, {} workers)",
        mlc.bits_per_cell(),
        pool.workers()
    );
    emitln!("Metric: accuracy (classification), Pearson (STS-B), -loss (LM); higher is better.");
    print_row(
        "Task",
        &RATES
            .iter()
            .map(|r| format!("{}%", (r * 100.0) as u32))
            .collect::<Vec<_>>(),
    );

    // (a) Encoder: synthetic GLUE tasks on the tiny encoder.
    let glue_config = GlueConfig::default();
    for task in [
        GlueTask::Mrpc,
        GlueTask::Cola,
        GlueTask::Sst2,
        GlueTask::Rte,
    ] {
        let seed = args.seed_or(21);
        let dataset = glue::generate(task, &glue_config, seed);
        sweep(
            &pool,
            task.name(),
            ModelConfig::tiny_encoder(2),
            dataset,
            mlc,
            seed,
            svd_algo,
        );
    }
    let stsb_seed = args.seed_or(22);
    let stsb = glue::generate(GlueTask::Stsb, &glue_config, stsb_seed);
    sweep(
        &pool,
        "STS-B",
        ModelConfig::tiny_encoder_regression(),
        stsb,
        mlc,
        stsb_seed,
        svd_algo,
    );

    // (b) Decoder: synthetic WikiText-2 stand-in on the tiny decoder.
    let wiki_seed = args.seed_or(23);
    let wiki = lm::wikitext2_dataset(wiki_seed);
    sweep(
        &pool,
        "WikiText-2 (GPT-2 proxy)",
        ModelConfig::tiny_decoder(),
        wiki,
        mlc,
        wiki_seed,
        svd_algo,
    );

    // Vision: synthetic CIFAR-10 stand-in on the tiny ViT.
    let vit_seed = args.seed_or(24);
    let cifar = vision::generate(&vision::VisionConfig::default(), vit_seed);
    sweep(
        &pool,
        "CIFAR-10 (ViT proxy)",
        ModelConfig::tiny_vit(10),
        cifar,
        mlc,
        vit_seed,
        svd_algo,
    );
}
