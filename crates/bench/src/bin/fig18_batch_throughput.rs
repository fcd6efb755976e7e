//! Figure 18 (extension): batched-inference throughput and serving latency.
//!
//! Not a figure of the source paper — X-Former-style batched pipelining
//! applied to the HyFlexPIM model. Part (a) sweeps the batch size through
//! `Backend::evaluate_batched`: pipelining B requests through the layer
//! pipeline amortizes fill/drain (the `1 + (L-1)/N` overhead of the
//! single-request latency), so gains are largest for short, decode-like
//! sequences where N < L. Part (b) serves one chip (a one-replica
//! `OverloadSim`) at increasing offered load and reports latency
//! percentiles. Common flags: `--seed N`, `--out PATH`, `--backend NAME`
//! (run the sweep on a baseline backend instead of HyFlexPIM; defaults
//! reproduce the historical HyFlexPIM rows bit for bit).

use hyflex_baselines::SystemBuilder;
use hyflex_bench::{emitln, fmt, print_row, BinArgs};
use hyflex_pim::backend::{Backend, HyFlexPim};
use hyflex_pim::perf::packed_batch;
use hyflex_runtime::{
    ArrivalProcess, BatchScheduler, InferenceRequest, OverloadConfig, OverloadSim, RequestTrace,
    SchedulerConfig, TrafficConfig,
};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::ModelConfig;
use std::sync::Arc;

const BATCH_SIZES: [usize; 6] = [1, 2, 4, 8, 16, 32];
const SLC_RATE: f64 = 0.05;

/// The `--backend` design (default HyFlexPIM) bound to `model`, with the
/// `--mlc-bits` ablation folded in.
fn build(args: &BinArgs, model: ModelConfig) -> Box<dyn Backend> {
    SystemBuilder::paper()
        .model(model)
        .slc_rate(SLC_RATE)
        .mlc_bits(args.mlc_mode().bits_per_cell())
        .backend(&args.backend_or_exit("hyflexpim"))
        .build()
        .expect("roster backend builds")
}

fn batch_sweep(args: &BinArgs, title: &str, model: ModelConfig, seq_len: usize) {
    let backend = build(args, model);
    // The backend name already carries the mapping parameters where they
    // apply (e.g. "HyFlexPIM (5% SLC)"); baselines have no SLC rate.
    emitln!(
        "\n(a) {title}: batch-size sweep on {} (N = {seq_len})",
        backend.name()
    );
    print_row(
        "Batch",
        &[
            "req/s".to_string(),
            "makespan us".to_string(),
            "latency us".to_string(),
            "queue us".to_string(),
            "util %".to_string(),
            "TOPS".to_string(),
        ],
    );
    for s in BATCH_SIZES.iter().map(|&b| {
        backend
            .evaluate_batched(seq_len, b)
            .expect("batched evaluation")
    }) {
        print_row(
            &format!("B={}", s.batch_size),
            &[
                fmt(s.requests_per_s, 0),
                fmt(s.makespan_ns / 1e3, 1),
                fmt(s.latency.total_ns() / 1e3, 1),
                fmt(s.latency.queueing_ns / 1e3, 1),
                fmt(s.pipeline_utilization * 100.0, 1),
                fmt(s.throughput_tops, 2),
            ],
        );
    }
}

fn serving_sweep(args: &BinArgs, seed: u64, model: ModelConfig, seq_len: usize) {
    let backend: Arc<dyn Backend> = Arc::from(build(args, model.clone()));
    emitln!(
        "\n(b) {}: closed-loop serving on {} (Poisson arrivals, batch cap 16, N = {seq_len})",
        model.name,
        backend.name()
    );
    print_row(
        "Offered QPS",
        &[
            "achieved".to_string(),
            "p50 ms".to_string(),
            "p95 ms".to_string(),
            "p99 ms".to_string(),
            "mean batch".to_string(),
            "util %".to_string(),
        ],
    );
    // Anchor the load sweep to the modeled single-request service rate.
    let single = backend
        .evaluate_batched(seq_len, 1)
        .expect("single-request evaluation");
    let service_qps = 1e9 / single.makespan_ns;
    for load in [0.25, 0.5, 1.0, 2.0, 4.0] {
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson {
                qps: service_qps * load,
            },
            num_requests: 2000,
            seq_len,
            seed,
            ..TrafficConfig::default()
        })
        .expect("trace config is valid");
        let report =
            OverloadSim::with_replicas(vec![Arc::clone(&backend)], OverloadConfig::new(trace))
                .expect("serving sim")
                .run()
                .expect("serving run");
        print_row(
            &format!("{:.0} ({load}x)", service_qps * load),
            &[
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

/// Mixed-length request streams padded to the batch maximum waste tokens;
/// the functional model's packed batching (`AttentionMask::Packed`) executes
/// only the real rows. This section quantifies the recoverable fraction by
/// draining a seeded mixed-length queue through the scheduler at several
/// batch caps and comparing [`hyflex_runtime::Batch::padded_token_count`]
/// against [`hyflex_runtime::Batch::actual_token_count`], then prices both
/// shapes on one HyFlexPIM deployment: the padded columns charge every batch
/// at its maximum length (`evaluate_batched`), the packed columns charge
/// only the real tokens ([`packed_batch`]), so "saved %" is the device time
/// packed execution recovers on this request stream.
fn padding_waste_sweep(seed: u64, model: ModelConfig) {
    emitln!(
        "\n(c) {}: padded-token waste on mixed-length batches (packed batching recovers this)",
        model.name
    );
    print_row(
        "Batch cap",
        &[
            "batches".to_string(),
            "actual tok".to_string(),
            "padded tok".to_string(),
            "waste %".to_string(),
            "padded us".to_string(),
            "packed us".to_string(),
            "saved %".to_string(),
        ],
    );
    const LENGTHS: [usize; 6] = [32, 64, 96, 128, 256, 384];
    let backend: Arc<dyn Backend> =
        Arc::new(HyFlexPim::paper(model, SLC_RATE).expect("HyFlexPIM deployment"));
    for cap in [2usize, 4, 8, 16] {
        let mut scheduler = BatchScheduler::for_backend(
            Arc::clone(&backend),
            SchedulerConfig {
                max_batch_size: cap,
                max_wait_ns: 0.0,
                pus_per_layer: 4,
                ..SchedulerConfig::default()
            },
        )
        .expect("scheduler");
        let mut rng = Rng::seed_from(seed);
        for id in 0..256u64 {
            let seq_len = LENGTHS[rng.below(LENGTHS.len())];
            scheduler
                .submit(InferenceRequest::new(id, id as f64, seq_len))
                .expect("submit");
        }
        let (mut batches, mut actual, mut padded) = (0usize, 0usize, 0usize);
        let (mut padded_ns, mut packed_ns) = (0.0f64, 0.0f64);
        while let Some(batch) = scheduler.next_batch() {
            batches += 1;
            actual += batch.actual_token_count();
            padded += batch.padded_token_count();
            let padded_batch = backend
                .evaluate_batched(batch.max_seq_len, batch.len())
                .expect("padded evaluation");
            padded_ns += padded_batch.makespan_ns;
            packed_ns += packed_batch(padded_batch, batch.max_seq_len, batch.actual_token_count())
                .expect("packed evaluation")
                .makespan_ns;
        }
        let waste = 100.0 * (1.0 - actual as f64 / padded as f64);
        print_row(
            &format!("B={cap}"),
            &[
                batches.to_string(),
                actual.to_string(),
                padded.to_string(),
                fmt(waste, 1),
                fmt(padded_ns / 1e3, 1),
                fmt(packed_ns / 1e3, 1),
                fmt(100.0 * (1.0 - packed_ns / padded_ns), 1),
            ],
        );
    }
}

fn main() {
    let args = BinArgs::parse();
    args.init_output();
    emitln!("Figure 18 — batched inference throughput and serving latency");
    batch_sweep(&args, "GLUE / BERT-Large", ModelConfig::bert_large(), 128);
    batch_sweep(&args, "WikiText-2 / GPT-2", ModelConfig::gpt2_small(), 1024);
    // Decode proxy: short sequences leave the layer pipeline mostly empty,
    // so batching recovers the largest throughput factor here.
    batch_sweep(
        &args,
        "decode proxy / BERT-Large",
        ModelConfig::bert_large(),
        16,
    );
    serving_sweep(&args, args.seed_or(18), ModelConfig::bert_large(), 128);
    padding_waste_sweep(args.seed_or(18), ModelConfig::bert_large());
}
