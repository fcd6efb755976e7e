//! Figure 20 (extension): scheduling-policy comparison at matched overload.
//!
//! The serving stack's policy payoff: a heterogeneous request mix —
//! latency-critical "interactive" requests (N = 64, finite SLO, priority 0)
//! interleaved with throughput-oriented "batch" requests (N = 256, no SLO,
//! priority 1) — offered to every registered backend at a load slightly
//! above what the device sustains. Under that overload FCFS serves strictly
//! in arrival order, so interactive requests queue behind batch work and
//! blow their deadlines; EDF and strict priority reorder the queue and
//! recover SLO attainment at the cost of batch-request latency. Offered
//! load and SLOs are **matched per backend** (anchored to each design's own
//! batched service rate), so the policy effect is comparable across
//! designs.
//!
//! Common flags: `--seed N`, `--out PATH`, `--backend NAME` (restrict
//! the table to one registered backend), `--chips N` and
//! `--dispatch rr|jsq` (run each policy on an N-chip cluster; the offered
//! load scales with the fleet).

use hyflex_baselines::{SystemBuilder, PAPER_FIGURE_BACKENDS};
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::Backend;
use hyflex_runtime::{
    ClusterConfig, ClusterSim, DispatchPolicy, RequestClass, SchedulerConfig, SchedulingPolicy,
    ServingConfig,
};
use hyflex_transformer::ModelConfig;

const INTERACTIVE_SEQ: usize = 64;
const BATCH_SEQ: usize = 256;
const INTERACTIVE_WEIGHT: f64 = 3.0;
const BATCH_WEIGHT: f64 = 1.0;
const SLC_RATE: f64 = 0.05;
const NUM_REQUESTS: usize = 600;
const BATCH_CAP: usize = 16;
/// Offered load relative to the backend's own mixed sustainable rate.
const OVERLOAD: f64 = 1.3;
/// Interactive SLO in units of the backend's own single-request latency.
const SLO_FACTOR: f64 = 25.0;

fn build(name: &str) -> Box<dyn Backend> {
    SystemBuilder::paper()
        .model(ModelConfig::bert_large())
        .slc_rate(SLC_RATE)
        .backend(name)
        .build()
        .expect("registered backend builds")
}

/// The mixed workload's sustainable rate on `backend` at the batch cap:
/// the weighted mean per-request initiation interval of full batches.
fn sustainable_qps(backend: &dyn Backend) -> f64 {
    let weighted_interval_ns = [
        (INTERACTIVE_SEQ, INTERACTIVE_WEIGHT),
        (BATCH_SEQ, BATCH_WEIGHT),
    ]
    .iter()
    .map(|&(seq, weight)| {
        let summary = backend
            .evaluate_batched(seq, BATCH_CAP)
            .expect("batched evaluation");
        weight * summary.makespan_ns / BATCH_CAP as f64
    })
    .sum::<f64>()
        / (INTERACTIVE_WEIGHT + BATCH_WEIGHT);
    1e9 / weighted_interval_ns
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    let names = args.backends_or_exit(&PAPER_FIGURE_BACKENDS);
    let seed = args.seed_or(20);
    let chips = args.chips_or(1);
    let dispatch = args.dispatch_or_exit(DispatchPolicy::RoundRobin);

    emitln!("Figure 20 — scheduling policies under overload (extension)");
    emitln!(
        "BERT-Large; mix: interactive N = {INTERACTIVE_SEQ} (weight {INTERACTIVE_WEIGHT}, \
         SLO = {SLO_FACTOR}x own single-request latency, priority 0) + batch \
         N = {BATCH_SEQ} (weight {BATCH_WEIGHT}, no SLO, priority 1)"
    );
    emitln!(
        "{NUM_REQUESTS} Poisson arrivals at {OVERLOAD}x each backend's sustainable \
         mixed rate, batch cap {BATCH_CAP}, {chips} chip(s), {dispatch} dispatch, \
         seed {seed}"
    );

    let mut edf_wins = 0usize;
    let mut compared = 0usize;
    for name in &names {
        let probe = build(name);
        let anchor_qps = sustainable_qps(probe.as_ref()) * chips as f64;
        let slo_ns = SLO_FACTOR
            * probe
                .evaluate_batched(INTERACTIVE_SEQ, 1)
                .expect("single-request evaluation")
                .makespan_ns;
        emitln!(
            "\n{}: offered {:.0} QPS, interactive SLO {:.2} ms",
            probe.name(),
            anchor_qps * OVERLOAD,
            slo_ns / 1e6
        );
        print_row(
            "Policy",
            &[
                "achieved".to_string(),
                "p50 ms".to_string(),
                "p99 ms".to_string(),
                "SLO att %".to_string(),
                "mean batch".to_string(),
            ],
        );
        let mut attainment = Vec::new();
        for policy in SchedulingPolicy::ALL {
            let config = ClusterConfig {
                chips,
                dispatch,
                serving: ServingConfig {
                    qps: anchor_qps * OVERLOAD,
                    num_requests: NUM_REQUESTS,
                    classes: vec![
                        RequestClass::new(INTERACTIVE_SEQ, INTERACTIVE_WEIGHT)
                            .with_slo_ns(slo_ns)
                            .with_priority(0),
                        RequestClass::new(BATCH_SEQ, BATCH_WEIGHT).with_priority(1),
                    ],
                    seed,
                    scheduler: SchedulerConfig {
                        max_batch_size: BATCH_CAP,
                        policy,
                        ..SchedulerConfig::default()
                    },
                    ..ServingConfig::default()
                },
            };
            let report = ClusterSim::with_backend(build(name), config)
                .expect("cluster sim")
                .run()
                .expect("cluster run");
            attainment.push(report.slo_attainment);
            print_row(
                policy.name(),
                &[
                    fmt(report.achieved_qps, 0),
                    fmt(report.latency.p50_ms, 3),
                    fmt(report.latency.p99_ms, 3),
                    fmt(report.slo_attainment * 100.0, 1),
                    fmt(report.mean_batch_size, 1),
                ],
            );
        }
        // attainment[0] is FCFS, [1] is EDF (SchedulingPolicy::ALL order).
        compared += 1;
        if attainment[1] >= attainment[0] {
            edf_wins += 1;
        }
    }
    emitln!(
        "\nEDF meets at least as many SLOs as FCFS on {edf_wins}/{compared} backends \
         (deadline-aware reordering recovers interactive attainment under overload)."
    );
}
