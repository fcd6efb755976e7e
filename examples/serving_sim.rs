//! Closed-loop batched serving on the HyFlexPIM device model.
//!
//! Simulates Poisson request arrivals against one chip serving the analytical
//! BERT-Large deployment (5 % SLC protection) for batch caps 1, 4, and 16,
//! and reports
//! throughput plus p50/p95/p99 latency for each. Batching overlaps requests
//! in the layer pipeline, recovering the fill/drain overhead of a single
//! request (the `1 + (L-1)/N` latency factor): under an overload the
//! saturated throughput climbs from the single-request service rate toward
//! the pipeline's steady-state rate, and the queue drains faster, so every
//! latency percentile drops as the batch cap grows.
//!
//! Run with: `cargo run --release --example serving_sim`

use hyflex_pim::backend::{Backend, HyFlexPim};
use hyflex_runtime::{ClusterConfig, ClusterSim, DispatchPolicy, SchedulerConfig, ServingConfig};
use hyflex_transformer::ModelConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let seq_len = 128;
    let slc_rank_fraction = 0.05;
    let backend = HyFlexPim::paper(ModelConfig::bert_large(), slc_rank_fraction)?;

    // Offer twice the single-request service rate: a saturating overload
    // under which the batch cap decides the sustained rate.
    let single = backend.evaluate_batched(seq_len, 1)?;
    let offered_qps = 2.0 * 1e9 / single.makespan_ns;
    println!(
        "BERT-Large, N = {seq_len}, {:.0}% SLC — single-request latency {:.1} µs",
        slc_rank_fraction * 100.0,
        single.makespan_ns / 1e3
    );
    println!(
        "offered load: {offered_qps:.0} QPS (2x the single-request service rate), 4000 requests\n"
    );
    println!(
        "{:>10} {:>12} {:>10} {:>10} {:>10} {:>11} {:>8}",
        "batch cap", "QPS", "p50 ms", "p95 ms", "p99 ms", "mean batch", "util %"
    );

    for max_batch_size in [1usize, 4, 16] {
        let config = ClusterConfig {
            chips: 1,
            dispatch: DispatchPolicy::RoundRobin,
            serving: ServingConfig {
                qps: offered_qps,
                num_requests: 4000,
                seq_len,
                seed: 7,
                scheduler: SchedulerConfig {
                    max_batch_size,
                    ..SchedulerConfig::default()
                },
                ..ServingConfig::default()
            },
        };
        let report = ClusterSim::with_backend(backend.clone(), config)?.run()?;
        println!(
            "{:>10} {:>12.0} {:>10.3} {:>10.3} {:>10.3} {:>11.1} {:>8.1}",
            max_batch_size,
            report.achieved_qps,
            report.latency.p50_ms,
            report.latency.p95_ms,
            report.latency.p99_ms,
            report.mean_batch_size,
            report.mean_chip_utilization * 100.0
        );
    }
    println!("\nDeterministic for a fixed seed; see crates/runtime for the scheduler model.");
    Ok(())
}
