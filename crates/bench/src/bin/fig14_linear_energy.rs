//! Figure 14: normalized linear-layer energy versus the baselines, across
//! sequence lengths and SLC protection rates.
//!
//! Common flags: `--out PATH`, `--backend NAME` (restrict the baseline rows
//! to one design).

use hyflex_baselines::{NonPim, SystemBuilder, PAPER_FIGURE_BACKENDS};
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::Backend;
use hyflex_transformer::ModelConfig;

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    let model = ModelConfig::bert_large();
    // Every design is deployed once for the model; the cells below only
    // price sequence lengths.
    let build = |name: &str, slc_rate: f64| {
        SystemBuilder::paper()
            .model(model.clone())
            .slc_rate(slc_rate)
            .backend(name)
            .build()
            .expect("roster backend builds")
    };
    // --backend restricts the comparison rows; default shows every baseline.
    let baselines: Vec<Box<dyn Backend>> = args
        .backends_or_exit(&PAPER_FIGURE_BACKENDS[1..])
        .iter()
        .map(|name| build(name, 0.05))
        .collect();
    let lengths = [128usize, 512, 1024, 2048, 4096, 8192];
    let slc_rates = [0.05, 0.10, 0.30, 0.40, 0.50];
    let hyflex: Vec<Box<dyn Backend>> = slc_rates
        .iter()
        .map(|&rate| build("hyflexpim", rate))
        .collect();
    let non_pim = NonPim::new(model.clone());
    emitln!("Figure 14 — linear-layer energy, normalized to the non-PIM baseline (%)");
    emitln!("Model: {} (lower is better)", model.name);

    for &n in &lengths {
        emitln!("\nSequence length N = {n}");
        let reference = non_pim.linear_layer_energy_pj(n).expect("baseline energy");
        print_row("Accelerator", &[format!("{:>12}", "norm. energy")]);
        for (&rate, backend) in slc_rates.iter().zip(&hyflex) {
            let e = backend.linear_layer_energy_pj(n).expect("energy");
            print_row(
                &format!("HyFlexPIM {}% SLC", (rate * 100.0) as u32),
                &[fmt(100.0 * e / reference, 1)],
            );
        }
        for backend in &baselines {
            let e = backend.linear_layer_energy_pj(n).expect("energy");
            print_row(backend.name(), &[fmt(100.0 * e / reference, 1)]);
        }
    }
}
