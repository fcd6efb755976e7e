//! Multi-chip serving: batched HyFlexPIM replicas behind a dispatcher.
//!
//! Offers one Poisson request stream — a 3:1 mix of short interactive
//! requests (with an SLO) and long batch requests — to clusters of 1, 2,
//! and 4 HyFlexPIM chips under round-robin and join-shortest-queue
//! dispatch. The offered load saturates a single chip, so adding replicas
//! raises sustained throughput and pulls tail latency and SLO attainment
//! back up; join-shortest-queue reacts to the work each request actually
//! carries, where round-robin only counts requests.
//!
//! Run with: `cargo run --release --example cluster_serving`

use hyflex::pim::backend::HyFlexPim;
use hyflex::runtime::{
    ClusterConfig, ClusterSim, DispatchPolicy, RequestClass, SchedulerConfig, ServingConfig,
};
use hyflex::transformer::ModelConfig;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.05)?;
    // ~3x one chip's sustained rate for this mix: a single chip saturates
    // hard, two chips still run overloaded, four have headroom.
    let offered_qps = 6000.0;
    let slo_ns = 5e6; // 5 ms interactive SLO
    println!(
        "BERT-Large, 5% SLC; mix: 3x N=64 (SLO {} ms) : 1x N=256; offered {offered_qps} QPS\n",
        slo_ns / 1e6
    );
    println!(
        "{:>6} {:>13} {:>12} {:>10} {:>10} {:>11} {:>10}",
        "chips", "dispatch", "QPS", "p50 ms", "p99 ms", "SLO att %", "util %"
    );
    for chips in [1usize, 2, 4] {
        for dispatch in DispatchPolicy::ALL {
            let config = ClusterConfig {
                chips,
                dispatch,
                serving: ServingConfig {
                    qps: offered_qps,
                    num_requests: 2000,
                    classes: vec![
                        RequestClass::new(64, 3.0).with_slo_ns(slo_ns),
                        RequestClass::new(256, 1.0).with_priority(1),
                    ],
                    seed: 7,
                    scheduler: SchedulerConfig::default(),
                    ..ServingConfig::default()
                },
            };
            let report = ClusterSim::with_backend(backend.clone(), config)?.run()?;
            println!(
                "{:>6} {:>13} {:>12.0} {:>10.3} {:>10.3} {:>11.1} {:>10.1}",
                chips,
                dispatch.name(),
                report.achieved_qps,
                report.latency.p50_ms,
                report.latency.p99_ms,
                report.slo_attainment * 100.0,
                report.mean_chip_utilization * 100.0
            );
        }
    }
    println!("\nDeterministic for a fixed seed; see crates/runtime/src/cluster.rs for the engine.");
    Ok(())
}
