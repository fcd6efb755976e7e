//! Figure 22 (extension): autoregressive decode serving on the SLC/MLC
//! hybrid fabric.
//!
//! The paper's figures price prefill-style inference; this one asks what
//! the hybrid SLC/MLC fabric buys when the *KV cache* of autoregressive
//! decode lives in the analog arrays. The [`DecodeSim`] engine streams an
//! open-loop trace through a continuous batcher (waiting requests join in
//! arrival order and retire at token boundaries) and charges every KV
//! append, prefill write, and background demotion at the cell model's
//! write energy/latency.
//!
//! Three placement policies compete for the same pool: **slc-only** writes
//! one pulse per append but burns 2x the cells per token (evicts under
//! capacity pressure), **mlc-only** packs 2 bits/cell but pays 4
//! program-and-verify pulses on the decode critical path and 2x the write
//! energy, and **hybrid** writes a prompt's hot tail to SLC and its cold
//! prefix straight to MLC, stages appends in SLC, and demotes tokens that
//! cool past the hot window to MLC off the critical path — the decode-time
//! analogue of the paper's gradient-redistribution mapping. The "demoted"
//! column counts those decode-time demotions only. Part (a)
//! compares the three under KV-capacity pressure, part (b) sweeps offered
//! load, and part (c) swaps in the analog in-memory attention backend,
//! which prices attention over the cached KV inside the arrays.
//!
//! Common flags: `--seed N`, `--out PATH`, `--backend NAME` (parts (a)/(b)
//! backend, default hyflexpim), `--requests N` (part (a) trace length),
//! `--trace PATH` (replace part (a)'s workload with a trace file),
//! `--smoke` (shrink every part to a seconds-scale CI run).

use hyflex_baselines::SystemBuilder;
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::Backend;
use hyflex_runtime::{
    ArrivalProcess, DecodeConfig, DecodeReport, DecodeSim, KvPlacementPolicy, RequestTrace,
    TrafficConfig,
};
use std::sync::Arc;

const SEQ_LEN: usize = 128;
const OUTPUT_TOKENS: usize = 32;
const KV_PUS: usize = 4;
const HOT_WINDOW: usize = 16;
/// Part (a) offered load: far past the pool's churn point, so capacity
/// pressure (evictions) separates the placements.
const PRESSURE_QPS: f64 = 20_000.0;

const PLACEMENTS: [KvPlacementPolicy; 3] = [
    KvPlacementPolicy::SlcOnly,
    KvPlacementPolicy::Hybrid {
        hot_window: HOT_WINDOW,
    },
    KvPlacementPolicy::MlcOnly,
];

fn build(name: &str) -> Arc<dyn Backend> {
    Arc::from(
        SystemBuilder::paper()
            .backend(name)
            .build()
            .expect("roster backend builds"),
    )
}

fn poisson_trace(qps: f64, num_requests: usize, seed: u64) -> RequestTrace {
    RequestTrace::new(TrafficConfig {
        process: ArrivalProcess::Poisson { qps },
        num_requests,
        seq_len: SEQ_LEN,
        seed,
        ..TrafficConfig::default()
    })
    .expect("trace config is valid")
}

fn run_one(
    backend: Arc<dyn Backend>,
    trace: RequestTrace,
    placement: KvPlacementPolicy,
) -> DecodeReport {
    DecodeSim::new(
        backend,
        trace,
        DecodeConfig {
            placement,
            output_tokens: OUTPUT_TOKENS,
            kv_pus: KV_PUS,
            ..DecodeConfig::default()
        },
    )
    .expect("decode sim builds")
    .run()
    .expect("decode run")
}

fn placement_header() {
    print_row(
        "Placement",
        &[
            "goodput".to_string(),
            "tok/s".to_string(),
            "TPOT ms".to_string(),
            "p99.9 ms".to_string(),
            "evicted".to_string(),
            "shed".to_string(),
            "demoted".to_string(),
            "nJ/tok".to_string(),
            "KV peak %".to_string(),
        ],
    );
}

fn placement_row(report: &DecodeReport) {
    print_row(
        &report.placement,
        &[
            fmt(report.goodput_rps, 0),
            fmt(report.tokens_per_s, 0),
            fmt(report.tpot.tpot_ms.unwrap_or(f64::NAN), 3),
            report
                .tpot
                .p999_ms
                .map_or_else(|| "n/a".to_string(), |ms| fmt(ms, 3)),
            report.evicted.to_string(),
            report.shed.to_string(),
            report.demoted_tokens.to_string(),
            fmt(report.energy_per_token_pj / 1e3, 1),
            fmt(
                100.0 * report.peak_kv_cells as f64 / report.kv_capacity_cells as f64,
                1,
            ),
        ],
    );
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    let seed = args.seed_or(23);
    let backend_name = args.backend_or_exit("hyflexpim");
    let n_main = args.requests_or(if args.smoke { 300 } else { 2000 });
    let n_sweep = if args.smoke { 200 } else { 1000 };
    let trace = args.trace_or_exit(|| poisson_trace(PRESSURE_QPS, n_main, seed));

    emitln!("Figure 22 — decode serving: KV cache on the SLC/MLC hybrid fabric (extension)");
    emitln!(
        "BERT-Large, prompt N = {SEQ_LEN}, {OUTPUT_TOKENS} output tokens/request, \
         continuous batching (width {}), KV pool {KV_PUS} PUs, hybrid hot window \
         {HOT_WINDOW}, seed {seed}",
        DecodeConfig::default().max_batch_size
    );

    // ---- (a) Placement comparison under KV-capacity pressure -------------
    emitln!(
        "\n(a) {backend_name} at {:.0} QPS offered ({} requests): KV placement under \
         capacity pressure",
        trace.mean_qps(),
        trace.config().num_requests
    );
    placement_header();
    for placement in PLACEMENTS {
        placement_row(&run_one(build(&backend_name), trace.clone(), placement));
    }

    // ---- (b) Offered-load sweep ------------------------------------------
    emitln!("\n(b) Offered-load sweep ({n_sweep} requests per run):");
    placement_header();
    for qps in [2000.0, 8000.0, PRESSURE_QPS] {
        emitln!("-- {} QPS offered --", fmt(qps, 0));
        for placement in PLACEMENTS {
            placement_row(&run_one(
                build(&backend_name),
                poisson_trace(qps, n_sweep, seed),
                placement,
            ));
        }
    }

    // ---- (c) Analog in-memory attention over the cached KV ---------------
    emitln!(
        "\n(c) Hybrid placement, {} QPS: digital attention (hyflexpim) vs analog \
         in-memory attention over the cached KV ({n_sweep} requests):",
        fmt(8000.0, 0)
    );
    print_row(
        "Backend",
        &[
            "goodput".to_string(),
            "tok/s".to_string(),
            "TPOT ms".to_string(),
            "nJ/tok".to_string(),
            "evicted".to_string(),
        ],
    );
    for name in ["hyflexpim", "analog-attention"] {
        let report = run_one(
            build(name),
            poisson_trace(8000.0, n_sweep, seed),
            KvPlacementPolicy::Hybrid {
                hot_window: HOT_WINDOW,
            },
        );
        print_row(
            name,
            &[
                fmt(report.goodput_rps, 0),
                fmt(report.tokens_per_s, 0),
                fmt(report.tpot.tpot_ms.unwrap_or(f64::NAN), 3),
                fmt(report.energy_per_token_pj / 1e3, 1),
                report.evicted.to_string(),
            ],
        );
    }
}
