//! Figure 15: end-to-end energy comparison and HyFlexPIM component breakdown.
//!
//! Common flags: `--out PATH`, `--backend NAME` (restrict the comparison
//! rows to one design).

use hyflex_baselines::{SystemBuilder, PAPER_FIGURE_BACKENDS};
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::energy_breakdown::EnergyBreakdown;
use hyflex_transformer::ModelConfig;

const LENGTHS: [usize; 3] = [128, 512, 1024];

fn energy(backend: &dyn Backend, seq_len: usize) -> EnergyBreakdown {
    backend
        .evaluate(&InferenceRequest::of_len(0, seq_len))
        .expect("energy")
        .energy
}

/// Prints the comparison table and the HyFlexPIM breakdown for one model,
/// deploying every design once at `slc_rate` (only HyFlexPIM reads it).
fn figure(model: ModelConfig, slc_rate: f64, names: &[String]) {
    let build = |name: &str| {
        SystemBuilder::paper()
            .model(model.clone())
            .slc_rate(slc_rate)
            .backend(name)
            .build()
            .expect("roster backend builds")
    };
    let hyflex = build("hyflexpim");
    let rows: Vec<Box<dyn Backend>> = names.iter().map(|name| build(name)).collect();
    comparison(hyflex.as_ref(), &rows, slc_rate);
    breakdown(hyflex.as_ref(), slc_rate);
}

fn comparison(hyflex: &dyn Backend, rows: &[Box<dyn Backend>], slc_rate: f64) {
    emitln!(
        "\nEnd-to-end energy for {} (HyFlexPIM at {}% SLC), normalized to HyFlexPIM = 1.0",
        hyflex.model().name,
        (slc_rate * 100.0) as u32
    );
    print_row(
        "Accelerator",
        &LENGTHS.iter().map(|n| format!("N={n}")).collect::<Vec<_>>(),
    );
    let reference: Vec<f64> = LENGTHS
        .iter()
        .map(|&n| energy(hyflex, n).total_pj())
        .collect();
    for backend in rows {
        let values: Vec<String> = LENGTHS
            .iter()
            .zip(&reference)
            .map(|(&n, r)| fmt(energy(backend.as_ref(), n).total_pj() / r, 2))
            .collect();
        print_row(backend.name(), &values);
    }
}

fn breakdown(hyflex: &dyn Backend, slc_rate: f64) {
    emitln!(
        "\nHyFlexPIM component breakdown for {} at {}% SLC (% of total energy)",
        hyflex.model().name,
        (slc_rate * 100.0) as u32
    );
    print_row(
        "Component",
        &LENGTHS.iter().map(|n| format!("N={n}")).collect::<Vec<_>>(),
    );
    let breakdowns: Vec<_> = LENGTHS.iter().map(|&n| energy(hyflex, n)).collect();
    let component_names: Vec<&'static str> =
        breakdowns[0].components().iter().map(|(n, _)| *n).collect();
    for name in component_names {
        let values: Vec<String> = breakdowns
            .iter()
            .map(|b| {
                let share = b
                    .shares()
                    .into_iter()
                    .find(|(n, _)| *n == name)
                    .map(|(_, s)| s)
                    .unwrap_or(0.0);
                fmt(100.0 * share, 1)
            })
            .collect();
        print_row(name, &values);
    }
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    // --backend restricts the comparison rows; default shows every design.
    let names = args.backends_or_exit(&PAPER_FIGURE_BACKENDS);
    emitln!("Figure 15 — end-to-end energy comparison and breakdown");
    // (a, b): BERT-Large at 5% SLC.
    figure(ModelConfig::bert_large(), 0.05, &names);
    // (c, d): GPT-2 at 30% SLC.
    figure(ModelConfig::gpt2_small(), 0.30, &names);
}
