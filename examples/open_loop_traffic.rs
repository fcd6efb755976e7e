//! Open-loop traffic and overload survival on a heterogeneous fleet.
//!
//! Builds a gamma-burst arrival trace (coefficient of variation 2) shaped
//! by a three-phase diurnal rate curve, and offers it — at roughly 1.5x
//! the fleet's sustainable rate — to a mixed fleet of two HyFlexPIM chips
//! and one ASADI† chip under EDF batching. Three operating points show the
//! survival toolkit working together:
//!
//! 1. **naive** — everything admitted, nothing shed: the queue eats the
//!    overload and the tail (p99/p99.9) explodes;
//! 2. **shed + token bucket** — admission capped near capacity with
//!    deadline-aware shedding behind it: goodput recovers because device
//!    time stops being spent on requests that were already dead;
//! 3. **autoscaled** — the same trace against a four-replica fleet that
//!    starts at one active chip and grows reactively as queues build.
//!
//! Run with: `cargo run --release --example open_loop_traffic`

use hyflex::baselines::{Asadi, AsadiPrecision};
use hyflex::pim::backend::{Backend, HyFlexPim};
use hyflex::runtime::{
    AdmissionPolicy, ArrivalProcess, AutoscalerConfig, OverloadConfig, OverloadReport, OverloadSim,
    RatePhase, RequestClass, RequestTrace, SchedulerConfig, SchedulingPolicy, TrafficConfig,
};
use hyflex::transformer::ModelConfig;
use std::sync::Arc;

fn trace(num_requests: usize) -> Result<RequestTrace, Box<dyn std::error::Error>> {
    Ok(RequestTrace::new(TrafficConfig {
        // Gamma inter-arrivals with shape 0.25: CV = 2, i.e. much burstier
        // than Poisson, under a morning/peak/night diurnal curve.
        process: ArrivalProcess::GammaBurst {
            qps: 5200.0,
            shape: 0.25,
        },
        rate_curve: vec![
            RatePhase::new("morning", 0.4, 0.8),
            RatePhase::new("peak", 0.4, 1.5),
            RatePhase::new("night", 0.4, 0.7),
        ],
        num_requests,
        classes: vec![
            RequestClass::new(64, 3.0).with_slo_ns(5e6), // 5 ms interactive SLO
            RequestClass::new(256, 1.0).with_priority(1),
        ],
        seed: 7,
        ..TrafficConfig::default()
    })?)
}

fn mixed_fleet() -> Result<Vec<Arc<dyn Backend>>, Box<dyn std::error::Error>> {
    let hyflex = HyFlexPim::paper(ModelConfig::bert_large(), 0.05)?;
    Ok(vec![
        Arc::new(hyflex.clone()),
        Arc::new(hyflex),
        Arc::new(Asadi::new(AsadiPrecision::Int8, ModelConfig::bert_large())?),
    ])
}

fn row(label: &str, report: &OverloadReport) {
    println!(
        "{:>22} {:>9.0} {:>9.0} {:>10.1} {:>10.2} {:>10} {:>7} {:>9}",
        label,
        report.goodput_qps,
        report.achieved_qps,
        report.slo_attainment * 100.0,
        report.latency.p99_ms,
        report
            .latency
            .p999_ms
            .map_or_else(|| "n/a".to_string(), |ms| format!("{ms:.2}")),
        report.shed,
        report.rejected
    );
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let num_requests = 40_000;
    let trace_mean = trace(num_requests)?.mean_qps();
    println!(
        "BERT-Large mix 3x N=64 (5 ms SLO) : 1x N=256; gamma-burst arrivals (CV 2) under a \
         diurnal curve, long-run mean {trace_mean:.0} QPS, {num_requests} requests\n"
    );
    println!(
        "{:>22} {:>9} {:>9} {:>10} {:>10} {:>10} {:>7} {:>9}",
        "operating point",
        "goodput",
        "achieved",
        "SLO att %",
        "p99 ms",
        "p99.9 ms",
        "shed",
        "rejected"
    );

    let scheduler = SchedulerConfig {
        policy: SchedulingPolicy::Edf,
        ..SchedulerConfig::default()
    };

    // 1. Naive: unbounded admission, no shedding — the closed-loop answer.
    let naive = OverloadSim::with_replicas(
        mixed_fleet()?,
        OverloadConfig {
            scheduler,
            ..OverloadConfig::new(trace(num_requests)?)
        },
    )?
    .run()?;
    row("naive (queue it all)", &naive);

    // 2. Survival: token-bucket admission near fleet capacity, plus
    //    deadline-aware shedding for what the bucket lets through.
    let survival = OverloadSim::with_replicas(
        mixed_fleet()?,
        OverloadConfig {
            scheduler,
            admission: AdmissionPolicy::TokenBucket {
                rate_qps: 4200.0,
                burst: 256.0,
            },
            shed: true,
            ..OverloadConfig::new(trace(num_requests)?)
        },
    )?
    .run()?;
    row("shed + token bucket", &survival);

    // 3. Autoscaled: a 4-replica fleet that starts at one active chip and
    //    grows when per-replica queues build up (50 ms actuation lag).
    let mut fleet = mixed_fleet()?;
    fleet.push(Arc::new(HyFlexPim::paper(ModelConfig::bert_large(), 0.05)?));
    let autoscaled = OverloadSim::with_replicas(
        fleet,
        OverloadConfig {
            scheduler,
            admission: AdmissionPolicy::QueueDepth {
                max_outstanding: 512,
            },
            shed: true,
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 1,
                max_replicas: 4,
                check_interval_s: 0.02,
                actuation_lag_s: 0.05,
                scale_up_outstanding: 48.0,
                scale_down_outstanding: 4.0,
                ewma_alpha: None,
            }),
            ..OverloadConfig::new(trace(num_requests)?)
        },
    )?
    .run()?;
    row("autoscaled fleet", &autoscaled);
    println!(
        "\nautoscaler: peak {} of 4 replicas active, {} actuations",
        autoscaled.peak_active_replicas,
        autoscaled.autoscale_events.len()
    );

    println!("\nPer-phase breakdown (shed + token bucket):");
    println!(
        "{:>10} {:>9} {:>10} {:>7} {:>9} {:>10} {:>9}",
        "phase", "offered", "completed", "shed", "rejected", "SLO att %", "p99 ms"
    );
    for phase in &survival.phases {
        println!(
            "{:>10} {:>9} {:>10} {:>7} {:>9} {:>10.1} {:>9.2}",
            phase.label,
            phase.offered,
            phase.completed,
            phase.shed,
            phase.rejected,
            phase.slo_attainment * 100.0,
            phase.p99_ms
        );
    }
    println!(
        "\nDeterministic for a fixed seed; see crates/runtime/src/overload.rs for the engine."
    );
    Ok(())
}
