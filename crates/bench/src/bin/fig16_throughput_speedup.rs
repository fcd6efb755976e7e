//! Figure 16: throughput (TOPS/mm²) speedup over ASADI† and SPRINT.
//!
//! Common flags: `--out PATH` (tee rows to a file), `--backend NAME`
//! (compare HyFlexPIM against one baseline instead of the default
//! ASADI† + SPRINT pair).

use hyflex_baselines::SystemBuilder;
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_transformer::ModelConfig;

const LENGTHS: [usize; 6] = [128, 512, 1024, 2048, 4096, 8192];
const SLC_RATES: [f64; 5] = [0.05, 0.10, 0.30, 0.40, 0.50];
/// One SLC rate for every denominator design (only HyFlexPIM reads it;
/// picking `--backend hyflexpim` thus normalizes against the 5% point).
const BASELINE_SLC: f64 = 0.05;

fn tops(backend: &dyn Backend, seq_len: usize) -> f64 {
    backend
        .evaluate(&InferenceRequest::of_len(0, seq_len))
        .expect("tops")
        .tops_per_mm2
}

fn versus(hyflex: &[Box<dyn Backend>], baseline: &dyn Backend, decimals: usize) {
    for (&rate, ours) in SLC_RATES.iter().zip(hyflex) {
        let speedups: Vec<String> = LENGTHS
            .iter()
            .map(|&n| fmt(tops(ours.as_ref(), n) / tops(baseline, n), decimals))
            .collect();
        print_row(
            &format!("{}% SLC vs {}", (rate * 100.0) as u32, baseline.name()),
            &speedups,
        );
    }
}

/// Deploys HyFlexPIM at every SLC rate and each named baseline once for
/// `model`, then prints the speedup table.
fn sweep(title: &str, model: ModelConfig, baselines: &[String]) {
    let build = |name: &str, slc_rate: f64| {
        SystemBuilder::paper()
            .model(model.clone())
            .slc_rate(slc_rate)
            .backend(name)
            .build()
            .expect("roster backend builds")
    };
    let hyflex: Vec<Box<dyn Backend>> = SLC_RATES
        .iter()
        .map(|&rate| build("hyflexpim", rate))
        .collect();
    emitln!("\n{title}: normalized TOPS/mm^2 of HyFlexPIM vs baselines");
    print_row(
        "SLC rate / N",
        &LENGTHS.iter().map(|n| format!("N={n}")).collect::<Vec<_>>(),
    );
    for (i, name) in baselines.iter().enumerate() {
        // Historical formatting: two decimals for the first (ASADI-class)
        // comparison, one for the wide-margin digital baselines.
        let baseline = build(name, BASELINE_SLC);
        versus(&hyflex, baseline.as_ref(), if i == 0 { 2 } else { 1 });
    }
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    // Default comparison set: ASADI-dagger and SPRINT (the paper's Figure
    // 16); --backend narrows it to a single design.
    let baselines = args.backends_or_exit(&["asadi-int8", "sprint"]);
    emitln!("Figure 16 — throughput speedup (TOPS/mm^2)");
    // (a) GLUE proxy: BERT-Large; (b) WikiText-2 proxy: GPT-2.
    sweep(
        "(a) GLUE / BERT-Large",
        ModelConfig::bert_large(),
        &baselines,
    );
    sweep(
        "(b) WikiText-2 / GPT-2",
        ModelConfig::gpt2_small(),
        &baselines,
    );
}
