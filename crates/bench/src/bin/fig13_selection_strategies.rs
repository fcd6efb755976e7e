//! Figure 13: gradient-based vs rank-based vs magnitude-based SLC selection.
//!
//! Each strategy's rate × seed grid runs in parallel on the `hyflex-runtime`
//! worker pool; per-point seeding keeps results bit-identical to the serial
//! sweep. Common flags: `--threads N`, `--seed N`, `--out PATH`.

use hyflex_bench::{emitln, fmt, print_row, run_functional_experiment_with, BinArgs};
use hyflex_pim::noise_sim::{HybridMappingSpec, NoiseSimulator, SweepPoint};
use hyflex_pim::selection::SelectionStrategy;
use hyflex_rram::cell::CellMode;
use hyflex_runtime::par_noise_sweep;
use hyflex_transformer::ModelConfig;
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};

const RATES: [f64; 6] = [0.0, 0.05, 0.10, 0.30, 0.40, 0.50];
const SEEDS_PER_RATE: u64 = 3;

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    // SLC selection is a HyFlexPIM-mapping concern; reject other backends
    // (and unknown names, with the roster listing).
    args.require_hyflexpim("fig13 compares SLC selection strategies of the HyFlexPIM mapping");
    let pool = args.pool();
    emitln!(
        "Figure 13 — SLC selection strategy comparison (tiny encoder, {} workers)",
        pool.workers()
    );
    for (task, default_seed) in [(GlueTask::Mrpc, 31u64), (GlueTask::Cola, 32u64)] {
        let seed = args.seed_or(default_seed);
        let dataset = glue::generate(task, &GlueConfig::default(), seed);
        let experiment = run_functional_experiment_with(
            ModelConfig::tiny_encoder(2),
            dataset,
            4,
            2,
            seed,
            &pool,
        )
        .expect("experiment");
        let simulator = NoiseSimulator::paper_default();
        emitln!("\nTask: {} (metric: accuracy)", task.name());
        print_row(
            "Strategy",
            &RATES
                .iter()
                .map(|r| format!("{}%", (r * 100.0) as u32))
                .collect::<Vec<_>>(),
        );
        let mut means: Vec<(SelectionStrategy, f64)> = Vec::new();
        for strategy in SelectionStrategy::all() {
            let base = HybridMappingSpec {
                protection_rate: 0.0,
                strategy,
                mlc_mode: CellMode::MLC2,
            };
            let points = SweepPoint::grid(&RATES, SEEDS_PER_RATE, seed * 1000);
            let outcomes = par_noise_sweep(
                &pool,
                &simulator,
                &experiment.model,
                &experiment.report.layer_profiles,
                &base,
                &experiment.dataset.eval,
                &points,
            )
            .expect("noise evaluation");
            let per_rate: Vec<f64> = outcomes
                .chunks(SEEDS_PER_RATE as usize)
                .map(|chunk| {
                    chunk.iter().map(|o| o.primary_metric).sum::<f64>() / chunk.len() as f64
                })
                .collect();
            let row: Vec<String> = per_rate.iter().map(|&m| fmt(m, 3)).collect();
            means.push((
                strategy,
                per_rate.iter().sum::<f64>() / per_rate.len() as f64,
            ));
            print_row(strategy.label(), &row);
        }
        let best = means
            .iter()
            .max_by(|a, b| a.1.partial_cmp(&b.1).unwrap())
            .unwrap();
        emitln!("best average strategy: {}", best.0.label());
    }
}
