//! Figure 19 (extension): cross-backend serving comparison at matched load.
//!
//! The first payoff of the unified `Backend` API: one serving workload
//! (BERT-Large, N = 128, Poisson arrivals, batch cap 16) driven across every
//! figure backend — HyFlexPIM and the five baseline designs (ASADI in both
//! precisions, SPRINT, NMP, non-PIM) — through the same `BatchScheduler`
//! and one-replica `OverloadSim` machinery. The offered load is
//! **matched**: every backend is offered the same QPS, anchored to
//! HyFlexPIM's single-request service rate, so tail latency and sustained
//! throughput are directly comparable. Designs slower than the offered load saturate and
//! their percentiles explode — that is the comparison.
//!
//! Common flags: `--seed N`, `--out PATH`, `--backend NAME` (restrict the
//! table to one backend).

use hyflex_baselines::PAPER_FIGURE_BACKENDS;
use hyflex_bench::serving::{build, SLC_RATE};
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::Backend;
use hyflex_runtime::{ArrivalProcess, OverloadConfig, OverloadSim, RequestTrace, TrafficConfig};
use std::sync::Arc;

const SEQ_LEN: usize = 128;
const NUM_REQUESTS: usize = 600;
const LOAD_FACTORS: [f64; 2] = [0.25, 1.0];

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    let names = args.backends_or_exit(&PAPER_FIGURE_BACKENDS);
    let seed = args.seed_or(19);

    // Matched load: every backend is offered the same QPS, anchored to the
    // HyFlexPIM single-request service rate.
    let anchor = build("hyflexpim")
        .expect("registered backend builds")
        .evaluate_batched(SEQ_LEN, 1)
        .expect("anchor evaluation");
    let anchor_qps = 1e9 / anchor.makespan_ns;

    emitln!("Figure 19 — per-backend serving at matched load (extension)");
    emitln!(
        "BERT-Large, N = {SEQ_LEN}, {}% SLC (HyFlexPIM), {NUM_REQUESTS} Poisson arrivals, \
         batch cap 16, seed {seed}",
        (SLC_RATE * 100.0) as u32
    );
    emitln!(
        "anchor: HyFlexPIM single-request service rate = {:.0} QPS",
        anchor_qps
    );

    // Backend construction and the single-request latency are
    // load-independent; build once and share across the load tables.
    let backends: Vec<(Arc<dyn Backend>, f64)> = names
        .iter()
        .map(|name| {
            let backend: Arc<dyn Backend> =
                Arc::from(build(name).expect("registered backend builds"));
            let single_us = backend
                .evaluate_batched(SEQ_LEN, 1)
                .expect("single-request evaluation")
                .makespan_ns
                / 1e3;
            (backend, single_us)
        })
        .collect();

    for load in LOAD_FACTORS {
        emitln!(
            "\nOffered load: {:.0} QPS ({load}x anchor)",
            anchor_qps * load
        );
        print_row(
            "Backend",
            &[
                "single us".to_string(),
                "achieved".to_string(),
                "p50 ms".to_string(),
                "p95 ms".to_string(),
                "p99 ms".to_string(),
                "mean batch".to_string(),
                "util %".to_string(),
            ],
        );
        for (backend, single_us) in &backends {
            let label = backend.name().to_string();
            let trace = RequestTrace::new(TrafficConfig {
                process: ArrivalProcess::Poisson {
                    qps: anchor_qps * load,
                },
                num_requests: NUM_REQUESTS,
                seq_len: SEQ_LEN,
                seed,
                ..TrafficConfig::default()
            })
            .expect("trace config is valid");
            let report =
                OverloadSim::with_replicas(vec![Arc::clone(backend)], OverloadConfig::new(trace))
                    .expect("serving sim")
                    .run()
                    .expect("serving run");
            print_row(
                &label,
                &[
                    fmt(*single_us, 1),
                    fmt(report.achieved_qps, 0),
                    fmt(report.latency.p50_ms, 3),
                    fmt(report.latency.p95_ms, 3),
                    fmt(report.latency.p99_ms, 3),
                    fmt(report.mean_batch_size, 1),
                    fmt(report.mean_utilization * 100.0, 1),
                ],
            );
        }
    }
}
