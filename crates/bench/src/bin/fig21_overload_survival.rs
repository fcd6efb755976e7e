//! Figure 21 (extension): overload survival under open-loop traffic.
//!
//! The closed-loop figures stop at "which policy meets more SLOs"; this one
//! asks what happens when offered load **exceeds** capacity and stays
//! there. A million-request MMPP trace (burst/trough, long-run mean 1.5x
//! the chip's sustainable mixed rate) streams through the open-loop
//! [`OverloadSim`] twice — once queueing everything admitted, once with
//! deadline-aware shedding — and the comparison is made on *goodput under
//! SLO* and the p99/p99.9 tail, per traffic phase. A cross-backend sweep
//! then repeats the shed/no-shed comparison for FCFS and EDF on every
//! registered design at matched 1.5x overload, and a final section lets a
//! reactive autoscaler grow a four-replica fleet against a 3x
//! single-replica load.
//!
//! The trace is streamed (O(1) memory in the request count) and the queue
//! is bounded by a queue-depth admission gate, so the million-request part
//! runs in constant memory; latency tails come from the log-linear
//! histogram (≤ 1.6 % bucket error, mean/max exact).
//!
//! Common flags: `--seed N`, `--out PATH`, `--backend NAME` (restrict
//! part (b) to one registered backend), `--requests N` (part (a) trace
//! length, default 1,000,000), `--smoke` (shrink every part to a
//! seconds-scale CI run).

use hyflex_baselines::PAPER_FIGURE_BACKENDS;
use hyflex_bench::serving::{
    self, two_class_mix, BATCH_CAP, BATCH_SEQ, BATCH_WEIGHT, INTERACTIVE_SEQ, INTERACTIVE_WEIGHT,
    SLO_FACTOR,
};
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::Backend;
use hyflex_runtime::{
    AdmissionPolicy, ArrivalProcess, AutoscalerConfig, DispatchPolicy, MmppState, OverloadConfig,
    OverloadReport, OverloadSim, RequestTrace, SchedulerConfig, SchedulingPolicy, TrafficConfig,
};
use std::sync::Arc;

/// Long-run offered load relative to the backend's sustainable mixed rate:
/// dwell-weighted mean of the burst and trough states below.
const OVERLOAD: f64 = 1.5;
/// Burst state: rate multiple and mean dwell.
const BURST_RATE: f64 = 2.5;
const BURST_DWELL_S: f64 = 0.2;
/// Trough state: rate multiple and mean dwell.
/// (0.2 * 2.5 + 0.3 * 5/6) / 0.5 = 1.5 — the OVERLOAD constant.
const TROUGH_RATE: f64 = 5.0 / 6.0;
const TROUGH_DWELL_S: f64 = 0.3;
/// Queue-depth admission gate (bounds memory and queue-wait).
const QUEUE_CAP: usize = 1024;

fn build(name: &str) -> Box<dyn Backend> {
    serving::build(name).expect("registered backend builds")
}

/// The mixed workload's sustainable rate on `backend` (same anchor as
/// fig20, so overload factors are comparable across designs).
fn sustainable_qps(backend: &dyn Backend) -> f64 {
    serving::sustainable_qps(backend).expect("batched evaluation")
}

fn interactive_slo_ns(backend: &dyn Backend) -> f64 {
    serving::interactive_slo_ns(backend).expect("single-request evaluation")
}

/// Burst/trough MMPP trace with long-run mean `OVERLOAD` x `anchor_qps`.
fn overload_trace(anchor_qps: f64, slo_ns: f64, num_requests: usize, seed: u64) -> RequestTrace {
    RequestTrace::new(TrafficConfig {
        process: ArrivalProcess::Mmpp {
            states: vec![
                MmppState::new("burst", anchor_qps * BURST_RATE, BURST_DWELL_S),
                MmppState::new("trough", anchor_qps * TROUGH_RATE, TROUGH_DWELL_S),
            ],
        },
        num_requests,
        classes: two_class_mix(slo_ns),
        seed,
        ..TrafficConfig::default()
    })
    .expect("trace config is valid")
}

fn run_one(
    backend: Box<dyn Backend>,
    trace: RequestTrace,
    policy: SchedulingPolicy,
    shed: bool,
) -> OverloadReport {
    OverloadSim::with_backend(
        backend,
        OverloadConfig {
            scheduler: SchedulerConfig {
                max_batch_size: BATCH_CAP,
                policy,
                ..SchedulerConfig::default()
            },
            admission: AdmissionPolicy::QueueDepth {
                max_outstanding: QUEUE_CAP,
            },
            shed,
            ..OverloadConfig::new(trace)
        },
    )
    .expect("overload sim builds")
    .run()
    .expect("overload run")
}

fn survival_row(label: &str, report: &OverloadReport) {
    print_row(
        label,
        &[
            fmt(report.goodput_qps, 0),
            fmt(report.achieved_qps, 0),
            fmt(report.slo_attainment * 100.0, 1),
            fmt(report.latency.p99_ms, 2),
            report
                .latency
                .p999_ms
                .map_or_else(|| "n/a".to_string(), |ms| fmt(ms, 2)),
            report.shed.to_string(),
            report.rejected.to_string(),
        ],
    );
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    let seed = args.seed_or(21);
    // --requests overrides part (a); --smoke shrinks every part.
    let n_main = args.requests_or(if args.smoke { 20_000 } else { 1_000_000 });
    let n_sweep = if args.smoke { 5_000 } else { 100_000 };
    let n_scale = if args.smoke { 20_000 } else { 200_000 };

    emitln!("Figure 21 — overload survival under open-loop traffic (extension)");
    emitln!(
        "BERT-Large; mix: interactive N = {INTERACTIVE_SEQ} (weight {INTERACTIVE_WEIGHT}, \
         SLO = {SLO_FACTOR}x own single-request latency, priority 0) + batch \
         N = {BATCH_SEQ} (weight {BATCH_WEIGHT}, no SLO, priority 1)"
    );
    emitln!(
        "MMPP arrivals: burst {BURST_RATE}x sustainable for ~{BURST_DWELL_S} s, trough \
         {TROUGH_RATE:.3}x for ~{TROUGH_DWELL_S} s (long-run mean {OVERLOAD}x); \
         queue-depth gate {QUEUE_CAP}, batch cap {BATCH_CAP}, seed {seed}"
    );

    // ---- (a) Million-request shed/no-shed on HyFlexPIM -------------------
    let probe = build("hyflexpim");
    let anchor = sustainable_qps(probe.as_ref());
    let slo_ns = interactive_slo_ns(probe.as_ref());
    emitln!(
        "\n(a) {} at {:.0} QPS offered ({n_main} requests, EDF), interactive SLO {:.2} ms",
        probe.name(),
        anchor * OVERLOAD,
        slo_ns / 1e6
    );
    print_row(
        "Variant",
        &[
            "goodput".to_string(),
            "achieved".to_string(),
            "SLO att %".to_string(),
            "p99 ms".to_string(),
            "p99.9 ms".to_string(),
            "shed".to_string(),
            "rejected".to_string(),
        ],
    );
    let mut main_reports = Vec::new();
    for shed in [false, true] {
        let trace = overload_trace(anchor, slo_ns, n_main, seed);
        let report = run_one(build("hyflexpim"), trace, SchedulingPolicy::Edf, shed);
        survival_row(if shed { "shed" } else { "no-shed" }, &report);
        main_reports.push(report);
    }
    emitln!("\nPer-phase breakdown (shed run):");
    print_row(
        "Phase",
        &[
            "offered".to_string(),
            "completed".to_string(),
            "shed".to_string(),
            "rejected".to_string(),
            "SLO att %".to_string(),
            "p99 ms".to_string(),
            "p99.9 ms".to_string(),
        ],
    );
    for phase in &main_reports[1].phases {
        print_row(
            &phase.label,
            &[
                phase.offered.to_string(),
                phase.completed.to_string(),
                phase.shed.to_string(),
                phase.rejected.to_string(),
                fmt(phase.slo_attainment * 100.0, 1),
                fmt(phase.p99_ms, 2),
                phase
                    .p999_ms
                    .map_or_else(|| "n/a".to_string(), |ms| fmt(ms, 2)),
            ],
        );
    }

    // ---- (b) Cross-backend shed/no-shed sweep ----------------------------
    let names = args.backends_or_exit(&PAPER_FIGURE_BACKENDS);
    emitln!("\n(b) Shed vs no-shed at {OVERLOAD}x matched overload, {n_sweep} requests per run:");
    let mut shed_wins = 0usize;
    for name in &names {
        let probe = build(name);
        let anchor = sustainable_qps(probe.as_ref());
        let slo_ns = interactive_slo_ns(probe.as_ref());
        emitln!(
            "\n{}: offered {:.0} QPS, interactive SLO {:.2} ms",
            probe.name(),
            anchor * OVERLOAD,
            slo_ns / 1e6
        );
        print_row(
            "Policy/variant",
            &[
                "goodput".to_string(),
                "achieved".to_string(),
                "SLO att %".to_string(),
                "p99 ms".to_string(),
                "p99.9 ms".to_string(),
                "shed".to_string(),
                "rejected".to_string(),
            ],
        );
        let mut edf_goodput = [0.0f64; 2];
        for policy in [SchedulingPolicy::Fcfs, SchedulingPolicy::Edf] {
            for shed in [false, true] {
                let trace = overload_trace(anchor, slo_ns, n_sweep, seed);
                let report = run_one(build(name), trace, policy, shed);
                if policy == SchedulingPolicy::Edf {
                    edf_goodput[shed as usize] = report.goodput_qps;
                }
                survival_row(
                    &format!(
                        "{}/{}",
                        policy.name(),
                        if shed { "shed" } else { "no-shed" }
                    ),
                    &report,
                );
            }
        }
        if edf_goodput[1] > edf_goodput[0] {
            shed_wins += 1;
        }
    }
    emitln!(
        "\nShedding strictly improves EDF goodput-under-SLO on {shed_wins}/{} backends \
         at {OVERLOAD}x sustained overload.",
        names.len()
    );

    // ---- (c) Reactive autoscaling ----------------------------------------
    emitln!(
        "\n(c) Autoscaler: 4-replica HyFlexPIM fleet (floor 1) against 3x a single \
         replica's rate, {n_scale} requests:"
    );
    let probe = build("hyflexpim");
    let anchor = sustainable_qps(probe.as_ref());
    let slo_ns = interactive_slo_ns(probe.as_ref());
    let replicas: Vec<Arc<dyn Backend>> = (0..4)
        .map(|_| -> Arc<dyn Backend> { Arc::new(build("hyflexpim")) })
        .collect();
    let trace = RequestTrace::new(TrafficConfig {
        process: ArrivalProcess::Poisson { qps: anchor * 3.0 },
        num_requests: n_scale,
        classes: two_class_mix(slo_ns),
        seed,
        ..TrafficConfig::default()
    })
    .expect("trace config is valid");
    let report = OverloadSim::with_replicas(
        replicas,
        OverloadConfig {
            scheduler: SchedulerConfig {
                max_batch_size: BATCH_CAP,
                policy: SchedulingPolicy::Edf,
                ..SchedulerConfig::default()
            },
            dispatch: DispatchPolicy::JoinShortestQueue,
            admission: AdmissionPolicy::QueueDepth {
                max_outstanding: QUEUE_CAP,
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
            ..OverloadConfig::new(trace)
        },
    )
    .expect("fleet sim builds")
    .run()
    .expect("fleet run");
    emitln!(
        "peak active replicas {} (of 4, floor 1), {} autoscale events, per-replica \
         completions {:?}",
        report.peak_active_replicas,
        report.autoscale_events.len(),
        report.per_replica_completed
    );
    print_row(
        "fleet",
        &[
            fmt(report.goodput_qps, 0),
            fmt(report.achieved_qps, 0),
            fmt(report.slo_attainment * 100.0, 1),
            fmt(report.latency.p99_ms, 2),
            report
                .latency
                .p999_ms
                .map_or_else(|| "n/a".to_string(), |ms| fmt(ms, 2)),
            report.shed.to_string(),
            report.rejected.to_string(),
        ],
    );
    emitln!(
        "\nConservation: offered {} = completed {} + shed {} + rejected {} + preempted {}.",
        report.offered,
        report.completed,
        report.shed,
        report.rejected,
        report.preempted
    );
}
