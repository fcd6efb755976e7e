//! Compare every registered backend on one serving workload.
//!
//! Demonstrates the unified `Backend` API: `SystemBuilder` constructs a
//! validated, model-bound backend by name, and the same closed-loop
//! one-chip `ClusterSim` drives HyFlexPIM and all four baselines at a
//! matched offered load (see also the `fig19_backend_serving` binary).
//!
//! Run with: `cargo run --release --example backend_comparison`

use hyflex::baselines::{SystemBuilder, BACKENDS};
use hyflex::runtime::{ClusterConfig, ClusterSim, DispatchPolicy, ServingConfig};
use hyflex::transformer::ModelConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seq_len = 128;
    let slc_rate = 0.05;

    // Anchor the offered load to HyFlexPIM's single-request service rate so
    // every backend faces the same traffic.
    let anchor = SystemBuilder::paper()
        .model(ModelConfig::bert_large())
        .slc_rate(slc_rate)
        .build()?
        .evaluate_batched(seq_len, 1)?;
    let offered_qps = 1e9 / anchor.makespan_ns;
    println!(
        "BERT-Large, N = {seq_len}, offered load {offered_qps:.0} QPS \
         (HyFlexPIM's single-request service rate), 400 Poisson arrivals\n"
    );
    println!(
        "{:<22} {:>12} {:>10} {:>10} {:>10} {:>8}",
        "backend", "achieved QPS", "p50 ms", "p95 ms", "p99 ms", "util %"
    );

    for name in BACKENDS {
        let backend = SystemBuilder::paper()
            .model(ModelConfig::bert_large())
            .slc_rate(slc_rate)
            .backend(name)
            .build()?;
        let label = backend.name().to_string();
        let report = ClusterSim::with_backend(
            backend,
            ClusterConfig {
                chips: 1,
                dispatch: DispatchPolicy::RoundRobin,
                serving: ServingConfig {
                    qps: offered_qps,
                    num_requests: 400,
                    seq_len,
                    seed: 7,
                    ..ServingConfig::default()
                },
            },
        )?
        .run()?;
        println!(
            "{:<22} {:>12.0} {:>10.3} {:>10.3} {:>10.3} {:>8.1}",
            label,
            report.achieved_qps,
            report.latency.p50_ms,
            report.latency.p95_ms,
            report.latency.p99_ms,
            report.mean_chip_utilization * 100.0
        );
    }
    println!(
        "\nBackends that cannot sustain the offered load saturate: their tail \
         percentiles grow with queue depth. Deterministic for a fixed seed."
    );
    Ok(())
}
