//! The three serving workloads: `overload_fleet` (`OverloadSim`),
//! `decode_kv` (`DecodeSim`) and `cluster_poisson` (`ClusterSim`).
//!
//! Every workload serves BERT-Large with the 64/256-token two-class mix
//! (interactive class first, carrying the SLO) or, for decode, a short/long
//! prompt mix. Traffic is open-loop at fixed rates in *simulated* time, so
//! the host never falls behind a schedule. One pass is one simulator run;
//! every pass of a run uses the same seed and must give the same report.

use crate::report::{self, median, timed, Rows, Tally};
use crate::timed::{perf_rows, Counters, PerfCounters, TimedBackend};
use crate::Args;
use hyflex_baselines::SystemBuilder;
use hyflex_pim::backend::Backend;
use hyflex_runtime::{
    AdmissionPolicy, ArrivalProcess, AutoscalerConfig, ClusterConfig, ClusterReport, ClusterSim,
    DecodeConfig, DecodeReport, DecodeSim, DispatchPolicy, KvPlacementPolicy, MmppState,
    OverloadConfig, OverloadReport, OverloadSim, RequestClass, RequestTrace, RuntimeError,
    SchedulerConfig, SchedulingPolicy, ServingConfig, TrafficConfig,
};
use hyflex_transformer::ModelConfig;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

const INTERACTIVE_SEQ: usize = 64;
const BATCH_SEQ: usize = 256;
const INTERACTIVE_WEIGHT: f64 = 3.0;
const BATCH_WEIGHT: f64 = 1.0;
const SLC_RATE: f64 = 0.05;
const BATCH_CAP: usize = 16;
/// Interactive SLO in units of HyFlexPIM's own single-request latency.
const SLO_FACTOR: f64 = 25.0;

/// Requests one pass of each workload simulates.
const OVERLOAD_REQUESTS: usize = 50_000;
const DECODE_REQUESTS: usize = 4_000;
const CLUSTER_REQUESTS: usize = 10_000;

/// Overload: long-run offered load relative to the fleet's sustainable
/// rate, from a burst/trough MMPP: (0.02 · 2.5 + 0.03 · 5/6) / 0.05 = 1.5.
/// Fig21's shape with its time constants (dwells, autoscaler interval and
/// lag) scaled by 1/10, so one pass spans about 50 burst/trough cycles and
/// its host work barely depends on the seed.
const BURST_RATE: f64 = 2.5;
const BURST_DWELL_S: f64 = 0.02;
const TROUGH_RATE: f64 = 5.0 / 6.0;
const TROUGH_DWELL_S: f64 = 0.03;
const AUTOSCALE_CHECK_S: f64 = 0.002;
const AUTOSCALE_LAG_S: f64 = 0.005;
const QUEUE_CAP: usize = 512;

/// Decode: fig22's KV-pressure point.
const DECODE_QPS: f64 = 20_000.0;
const DECODE_SHORT_PROMPT: usize = 64;
const DECODE_LONG_PROMPT: usize = 256;
const OUTPUT_TOKENS: usize = 32;
const KV_PUS: usize = 4;
const HOT_WINDOW: usize = 16;

/// Cluster: replicas and offered load relative to their sustainable rate.
const CLUSTER_CHIPS: usize = 4;
const CLUSTER_LOAD: f64 = 0.9;

/// Which serving simulator a workload drives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    Overload,
    Decode,
    Cluster,
}

/// A simulator ready to run.
enum Sim {
    Overload(OverloadSim),
    Decode(DecodeSim),
    Cluster(ClusterSim<Arc<dyn Backend>>),
}

/// The report of one run.
#[derive(Debug, PartialEq)]
enum Report {
    Overload(OverloadReport),
    Decode(DecodeReport),
    Cluster(ClusterReport),
}

impl Sim {
    fn run(&self) -> Result<Report, RuntimeError> {
        Ok(match self {
            Sim::Overload(sim) => Report::Overload(sim.run()?),
            Sim::Decode(sim) => Report::Decode(sim.run()?),
            Sim::Cluster(sim) => Report::Cluster(sim.run()?),
        })
    }
}

/// The simulator configuration of a workload.
enum Workload {
    Overload(OverloadConfig),
    Decode(DecodeConfig),
    Cluster(ClusterConfig),
}

/// Everything built before the measured loop: the fleet and the workload.
struct Setup {
    /// One backend per replica (the cluster replicates its single entry).
    replicas: Vec<Arc<dyn Backend>>,
    /// The arrival trace: the simulator's own for overload and decode; for
    /// the cluster, a trace bit-identical to the arrivals `ClusterSim`
    /// samples internally, used only to time traffic generation.
    trace: RequestTrace,
    workload: Workload,
}

fn build_backend(name: &str) -> Result<Arc<dyn Backend>, String> {
    SystemBuilder::paper()
        .model(ModelConfig::bert_large())
        .slc_rate(SLC_RATE)
        .backend(name)
        .build()
        .map(Arc::from)
        .map_err(|e| e.to_string())
}

/// The fleet each workload runs on (the `hyflex-baselines` layer).
fn build_fleet(kind: Kind) -> Result<Vec<Arc<dyn Backend>>, String> {
    match kind {
        // 3x HyFlexPIM at 5 % SLC + 1x ASADI-dagger (all-SLC, INT8 linear).
        Kind::Overload => ["hyflexpim", "hyflexpim", "hyflexpim", "asadi-int8"]
            .iter()
            .map(|name| build_backend(name))
            .collect(),
        Kind::Decode | Kind::Cluster => Ok(vec![build_backend("hyflexpim")?]),
    }
}

/// The two-class mix's sustainable rate on `backend` at the batch cap.
fn sustainable_qps(backend: &dyn Backend) -> Result<f64, String> {
    let mut interval_ns = 0.0;
    for (seq, weight) in [
        (INTERACTIVE_SEQ, INTERACTIVE_WEIGHT),
        (BATCH_SEQ, BATCH_WEIGHT),
    ] {
        let summary = backend
            .evaluate_batched(seq, BATCH_CAP)
            .map_err(|e| e.to_string())?;
        interval_ns += weight * summary.makespan_ns / BATCH_CAP as f64;
    }
    Ok(1e9 * (INTERACTIVE_WEIGHT + BATCH_WEIGHT) / interval_ns)
}

/// The two-class mix; the interactive class carries the SLO.
fn two_class_mix(hyflexpim: &dyn Backend) -> Result<Vec<RequestClass>, String> {
    let single_ns = hyflexpim
        .evaluate_batched(INTERACTIVE_SEQ, 1)
        .map_err(|e| e.to_string())?
        .makespan_ns;
    Ok(vec![
        RequestClass::new(INTERACTIVE_SEQ, INTERACTIVE_WEIGHT)
            .with_slo_ns(SLO_FACTOR * single_ns)
            .with_priority(0),
        RequestClass::new(BATCH_SEQ, BATCH_WEIGHT).with_priority(1),
    ])
}

fn trace(
    process: ArrivalProcess,
    num_requests: usize,
    classes: Vec<RequestClass>,
    seed: u64,
) -> Result<RequestTrace, String> {
    RequestTrace::new(TrafficConfig {
        process,
        num_requests,
        classes,
        seed,
        ..TrafficConfig::default()
    })
    .map_err(|e| e.to_string())
}

impl Setup {
    fn new(kind: Kind, replicas: Vec<Arc<dyn Backend>>, seed: u64) -> Result<Self, String> {
        let hyflexpim = replicas.first().ok_or("empty fleet")?.as_ref();
        let edf = SchedulerConfig {
            max_batch_size: BATCH_CAP,
            policy: SchedulingPolicy::Edf,
            ..SchedulerConfig::default()
        };
        let (trace, workload) = match kind {
            Kind::Overload => {
                let mut anchor = 0.0;
                for replica in &replicas {
                    anchor += sustainable_qps(replica.as_ref())?;
                }
                let states = vec![
                    MmppState::new("burst", anchor * BURST_RATE, BURST_DWELL_S),
                    MmppState::new("trough", anchor * TROUGH_RATE, TROUGH_DWELL_S),
                ];
                let trace = trace(
                    ArrivalProcess::Mmpp { states },
                    OVERLOAD_REQUESTS,
                    two_class_mix(hyflexpim)?,
                    seed,
                )?;
                let config = OverloadConfig {
                    scheduler: edf,
                    dispatch: DispatchPolicy::JoinShortestQueue,
                    admission: AdmissionPolicy::QueueDepth {
                        max_outstanding: QUEUE_CAP,
                    },
                    shed: true,
                    preempt: true,
                    autoscaler: Some(AutoscalerConfig {
                        min_replicas: 2,
                        max_replicas: replicas.len(),
                        check_interval_s: AUTOSCALE_CHECK_S,
                        actuation_lag_s: AUTOSCALE_LAG_S,
                        scale_up_outstanding: 48.0,
                        scale_down_outstanding: 4.0,
                        ewma_alpha: Some(0.5),
                    }),
                    ..OverloadConfig::new(trace.clone())
                };
                (trace, Workload::Overload(config))
            }
            Kind::Decode => {
                let prompts = vec![
                    RequestClass::new(DECODE_SHORT_PROMPT, 3.0),
                    RequestClass::new(DECODE_LONG_PROMPT, 1.0),
                ];
                let trace = trace(
                    ArrivalProcess::Poisson { qps: DECODE_QPS },
                    DECODE_REQUESTS,
                    prompts,
                    seed,
                )?;
                let config = DecodeConfig {
                    placement: KvPlacementPolicy::Hybrid {
                        hot_window: HOT_WINDOW,
                    },
                    output_tokens: OUTPUT_TOKENS,
                    max_batch_size: BATCH_CAP,
                    kv_pus: KV_PUS,
                    ..DecodeConfig::default()
                };
                (trace, Workload::Decode(config))
            }
            Kind::Cluster => {
                let qps = CLUSTER_LOAD * CLUSTER_CHIPS as f64 * sustainable_qps(hyflexpim)?;
                let classes = two_class_mix(hyflexpim)?;
                let trace = trace(
                    ArrivalProcess::Poisson { qps },
                    CLUSTER_REQUESTS,
                    classes.clone(),
                    seed,
                )?;
                let config = ClusterConfig {
                    chips: CLUSTER_CHIPS,
                    dispatch: DispatchPolicy::JoinShortestQueue,
                    serving: ServingConfig {
                        qps,
                        num_requests: CLUSTER_REQUESTS,
                        classes,
                        slc_rank_fraction: SLC_RATE,
                        seed,
                        scheduler: edf,
                        ..ServingConfig::default()
                    },
                };
                (trace, Workload::Cluster(config))
            }
        };
        Ok(Setup {
            replicas,
            trace,
            workload,
        })
    }

    /// Requests one pass offers.
    fn offered(&self) -> usize {
        self.trace.config().num_requests
    }

    /// Builds the simulator over the fleet, each backend passed through
    /// `wrap` (the identity for untraced runs, the decorator for traced).
    fn sim(&self, wrap: impl Fn(&Arc<dyn Backend>) -> Arc<dyn Backend>) -> Result<Sim, String> {
        let mut fleet = self.replicas.iter().map(wrap);
        let sim = match &self.workload {
            Workload::Overload(config) => {
                OverloadSim::with_replicas(fleet.collect(), config.clone()).map(Sim::Overload)
            }
            Workload::Decode(config) => {
                let backend = fleet.next().ok_or("empty fleet")?;
                DecodeSim::new(backend, self.trace.clone(), config.clone()).map(Sim::Decode)
            }
            Workload::Cluster(config) => {
                let backend = fleet.next().ok_or("empty fleet")?;
                ClusterSim::with_backend(backend, config.clone()).map(Sim::Cluster)
            }
        };
        sim.map_err(|e| e.to_string())
    }

    /// Host seconds to generate the pass's arrivals alone, the way the
    /// simulator consumes them (streamed for overload, collected otherwise).
    fn traffic_s(&self) -> f64 {
        let ((), s) = timed(|| match self.workload {
            Workload::Overload(_) => {
                let sum: f64 = self.trace.stream().map(|r| r.arrival_ns).sum();
                black_box(sum);
            }
            Workload::Decode(_) | Workload::Cluster(_) => {
                black_box(self.trace.collect());
            }
        });
        s
    }
}

/// The conservation identities every report must satisfy.
fn check_conservation(report: &Report, offered: usize, replicas: usize, tally: &mut Tally) {
    match report {
        Report::Overload(r) => {
            tally.check(r.offered == offered, "overload: offered = trace length");
            tally.check(
                r.offered == r.admitted + r.rejected,
                "overload: offered = admitted + rejected",
            );
            tally.check(
                r.admitted == r.completed + r.shed + r.preempted,
                "overload: admitted = completed + shed + preempted",
            );
            tally.check(
                r.per_replica_completed.len() == replicas
                    && r.per_replica_completed.iter().sum::<usize>() == r.completed,
                "overload: per-replica completions sum to completed",
            );
            let sum = |f: fn(&hyflex_runtime::PhaseReport) -> usize| -> usize {
                r.phases.iter().map(f).sum()
            };
            tally.check(
                sum(|p| p.offered) == r.offered
                    && sum(|p| p.admitted) == r.admitted
                    && sum(|p| p.rejected) == r.rejected
                    && sum(|p| p.completed) == r.completed
                    && sum(|p| p.shed) == r.shed
                    && sum(|p| p.preempted) == r.preempted,
                "overload: per-phase counts sum to the totals",
            );
            tally.check(
                r.phases.iter().all(|p| {
                    p.offered == p.admitted + p.rejected
                        && p.admitted == p.completed + p.shed + p.preempted
                }),
                "overload: every phase conserves requests",
            );
            tally.check(
                r.latency.p999_ms.is_some(),
                "overload: p99.9 resolved (>= 1000 completions)",
            );
        }
        Report::Decode(r) => {
            tally.check(r.offered == offered, "decode: offered = trace length");
            tally.check(
                r.offered == r.admitted + r.shed,
                "decode: offered = admitted + shed",
            );
            tally.check(
                r.admitted == r.completed + r.evicted,
                "decode: admitted = completed + evicted",
            );
            tally.check(
                r.peak_kv_cells <= r.kv_capacity_cells,
                "decode: KV peak within the pool",
            );
            tally.check(
                r.decoded_tokens >= r.completed * OUTPUT_TOKENS,
                "decode: every completion decoded its tokens",
            );
            tally.check(
                r.request_latency.p999_ms.is_some() && r.tpot.tpot_ms.is_some(),
                "decode: p99.9 and TPOT resolved",
            );
        }
        Report::Cluster(r) => {
            tally.check(r.completed == offered, "cluster: every request completes");
            tally.check(
                r.per_chip_completed.len() == CLUSTER_CHIPS
                    && r.per_chip_completed.iter().sum::<usize>() == r.completed,
                "cluster: per-chip completions sum to completed",
            );
            tally.check(
                r.latency.p999_ms.is_some(),
                "cluster: p99.9 resolved (>= 1000 completions)",
            );
        }
    }
}

/// Modeled figures of the report (exact for a fixed seed), plus the number
/// of batches the simulator launched (for the memo hit fraction).
fn modeled_rows(report: &Report, counters: &PerfCounters, rows: &mut Rows) -> u64 {
    let frac = |part: usize, whole: usize| part as f64 / whole.max(1) as f64;
    match report {
        Report::Overload(r) => {
            rows.set("modeled_goodput_qps", r.goodput_qps);
            rows.set("modeled_slo_attainment", r.slo_attainment);
            rows.set("modeled_p50_ms", r.latency.p50_ms);
            rows.set("modeled_p999_ms", r.latency.p999_ms.unwrap_or(0.0));
            rows.set("runtime.overload.admit_frac", frac(r.admitted, r.offered));
            rows.set("runtime.overload.shed_frac", frac(r.shed, r.offered));
            rows.set(
                "runtime.overload.preempt_frac",
                frac(r.preempted, r.offered),
            );
            if r.achieved_qps > 0.0 {
                rows.set(
                    "runtime.overload.useful_frac",
                    r.goodput_qps / r.achieved_qps,
                );
            }
            rows.set("runtime.overload.mean_batch", r.mean_batch_size);
            rows.set("runtime.overload.mean_queue_ms", r.mean_queue_ms);
            rows.set(
                "runtime.overload.autoscale_events",
                r.autoscale_events.len() as f64,
            );
            rows.set(
                "runtime.overload.peak_active_replicas",
                r.peak_active_replicas as f64,
            );
            r.batches as u64
        }
        Report::Decode(r) => {
            rows.set("modeled_goodput_qps", r.goodput_rps);
            rows.set("modeled_p50_ms", r.request_latency.p50_ms);
            rows.set("modeled_p999_ms", r.request_latency.p999_ms.unwrap_or(0.0));
            rows.set("modeled_tpot_ms", r.tpot.tpot_ms.unwrap_or(0.0));
            rows.set("modeled_nj_per_token", r.energy_per_token_pj / 1e3);
            rows.set("runtime.decode.evict_frac", frac(r.evicted, r.admitted));
            rows.set(
                "runtime.decode.demote_frac",
                frac(r.demoted_tokens, r.slc_tokens_written),
            );
            if counters.decode_step_calls > 0 {
                rows.set(
                    "runtime.decode.mean_batch",
                    counters.decode_step_requests as f64 / counters.decode_step_calls as f64,
                );
            }
            rows.set(
                "runtime.decode.peak_kv_frac",
                frac(r.peak_kv_cells, r.kv_capacity_cells),
            );
            if r.total_energy_pj > 0.0 {
                rows.set(
                    "runtime.decode.kv_write_frac",
                    r.kv_write_pj / r.total_energy_pj,
                );
            }
            // Every iteration is priced afresh: no memo.
            counters.calls()
        }
        Report::Cluster(r) => {
            rows.set("modeled_goodput_qps", r.goodput_qps);
            rows.set("modeled_slo_attainment", r.slo_attainment);
            rows.set("modeled_p50_ms", r.latency.p50_ms);
            rows.set("modeled_p999_ms", r.latency.p999_ms.unwrap_or(0.0));
            rows.set("runtime.cluster.mean_batch", r.mean_batch_size);
            rows.set("runtime.cluster.mean_queue_ms", r.mean_queue_ms);
            rows.set(
                "runtime.cluster.mean_chip_utilization",
                r.mean_chip_utilization,
            );
            r.batches as u64
        }
    }
}

/// Host-time rows of the traced passes.
struct TracedPass {
    run_s: f64,
    traffic_s: f64,
    counters: PerfCounters,
}

/// Host seconds of every set-up repetition, whole and fleet build alone.
#[derive(Default)]
struct SetupTimes {
    total: Vec<f64>,
    build: Vec<f64>,
}

/// One set-up repetition: the fleet (baselines), the workload and the
/// simulator (runtime).
fn set_up(kind: Kind, seed: u64, times: &mut SetupTimes) -> Result<(Setup, Sim), String> {
    let start = Instant::now();
    let (fleet, build_s) = timed(|| build_fleet(kind));
    let setup = Setup::new(kind, fleet?, seed)?;
    let sim = setup.sim(Arc::clone)?;
    times.total.push(start.elapsed().as_secs_f64());
    times.build.push(build_s);
    Ok((setup, sim))
}

/// Runs one serving workload and fills its metric rows.
pub fn run(kind: Kind, args: &Args, tally: &mut Tally, rows: &mut Rows) {
    let mut times = SetupTimes::default();
    let mut built = set_up(kind, args.seed, &mut times);
    for _ in 1..report::SETUP_REPS {
        built = set_up(kind, args.seed, &mut times);
    }
    let Some((setup, sim)) = tally.op(built, "set-up") else {
        return;
    };

    let offered = setup.offered();
    let budget = if args.trace {
        args.seconds / 2
    } else {
        args.seconds
    };

    // Untraced passes: the end-to-end measurement.
    let mut walls = Vec::new();
    let mut reference: Option<Report> = None;
    report::repeat_for(budget, || {
        tally.op(set_up(kind, args.seed, &mut times).map(drop), "set-up");
        let (result, wall_s) = timed(|| sim.run());
        let Some(report) = tally.op(result, "simulator run") else {
            return;
        };
        walls.push(wall_s);
        match &reference {
            None => {
                check_conservation(&report, offered, setup.replicas.len(), tally);
                reference = Some(report);
            }
            Some(first) => tally.check(
                *first == report,
                "every pass of one seed gives the same report",
            ),
        }
    });
    let Some(reference) = reference else {
        return;
    };
    report::log_passes("untraced", &walls);
    rows.set("setup_s", median(&times.total));
    rows.set("baselines.build_s", median(&times.build));
    let wall_s = report::fastest(&walls);
    if let Report::Decode(r) = &reference {
        rows.set("sim_tok_per_s", r.decoded_tokens as f64 / wall_s);
    }
    if !args.trace {
        rows.set("wall_s", wall_s);
        rows.set("sim_req_per_s", offered as f64 / wall_s);
        if let Some(mb) = report::peak_rss_mb() {
            rows.set("peak_rss_mb", mb);
        }
        return;
    }

    // Traced passes: the same runs through the timed decorator.
    let mut passes: Vec<TracedPass> = Vec::new();
    report::repeat_for(budget, || {
        let counters: Counters = Arc::new(Mutex::new(PerfCounters::default()));
        let built = setup.sim(|backend| TimedBackend::wrap(Arc::clone(backend), &counters));
        let Some(traced) = tally.op(built, "traced simulator set-up") else {
            return;
        };
        let (result, run_s) = timed(|| traced.run());
        let traffic_s = setup.traffic_s();
        let Some(report) = tally.op(result, "traced simulator run") else {
            return;
        };
        tally.check(
            report == reference,
            "the traced report equals the untraced report",
        );
        let counters = counters.lock().unwrap_or_else(|e| e.into_inner()).clone();
        passes.push(TracedPass {
            run_s,
            traffic_s,
            counters,
        });
    });
    let Some(first) = passes.first() else {
        return;
    };
    let mut counters = first.counters.clone();
    counters.eval_s =
        report::fastest(&passes.iter().map(|p| p.counters.eval_s).collect::<Vec<_>>());
    let run_s = report::fastest(&passes.iter().map(|p| p.run_s).collect::<Vec<_>>());
    let traffic_s = report::fastest(&passes.iter().map(|p| p.traffic_s).collect::<Vec<_>>());
    let self_s = report::fastest(
        &passes
            .iter()
            .map(|p| p.run_s - p.counters.eval_s - p.traffic_s)
            .collect::<Vec<_>>(),
    );

    if let Report::Decode(r) = &reference {
        // The decorator's energy rows must account for all compute energy.
        let compute_pj = r.total_energy_pj - r.kv_write_pj;
        let rows_pj = counters.energy.total_pj();
        tally.check(
            (rows_pj - compute_pj).abs() <= 1e-9 * compute_pj.abs(),
            "decode: decorator energy rows sum to total - kv_write",
        );
    }
    let batches = modeled_rows(&reference, &counters, rows);
    perf_rows(&counters, batches, rows);
    let (run_name, self_name, per_req_name) = match kind {
        Kind::Overload => (
            "runtime.overload.run_s",
            "runtime.overload.self_s",
            "runtime.overload.ns_per_req",
        ),
        Kind::Decode => (
            "runtime.decode.run_s",
            "runtime.decode.self_s",
            "runtime.decode.ns_per_req",
        ),
        Kind::Cluster => (
            "runtime.cluster.run_s",
            "runtime.cluster.self_s",
            "runtime.cluster.ns_per_req",
        ),
    };
    rows.set(run_name, run_s);
    rows.set(self_name, self_s);
    rows.set(per_req_name, run_s * 1e9 / offered as f64);
    rows.set(
        "runtime.traffic.ns_per_req",
        traffic_s * 1e9 / offered as f64,
    );
    rows.set("bench.trace_overhead_frac", run_s / wall_s - 1.0);
}
