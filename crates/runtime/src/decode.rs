//! Autoregressive decode serving: KV cache on the SLC/MLC hybrid fabric
//! with continuous batching.
//!
//! The encoder-pass serving engine ([`crate::overload`], with the
//! [`crate::cluster`] front-end running the closed-loop workload that
//! [`crate::serving`] describes) prices a request as **one** batched pass —
//! the encoder/prefill regime of the paper's figures. Generative serving is different: after its prompt is
//! prefetched, a request produces output tokens one *iteration* at a time,
//! and every iteration attends over the request's cached K/V. On HyFlexPIM
//! that cache competes for the same RRAM real estate the weights live in,
//! and the SLC/MLC trade that Section 4 exploits for weights reappears for
//! the cache:
//!
//! * **SLC** takes one programming pulse per append (fast, cheap writes) but
//!   spends 8 cells per INT8 value — half the token capacity.
//! * **MLC2** packs the same value into 4 cells (double capacity) but every
//!   append needs 4 program-and-verify pulses — 4× the write latency on the
//!   decode critical path and 2× the write energy.
//!
//! [`KvPlacementPolicy`] maps the cache onto this fabric. The hybrid policy
//! is the recency analogue of the paper's gradient redistribution: the *hot*
//! tail of each sequence (the newest tokens, the ones every decode step was
//! just written against) stays in SLC, and a background demotion engine
//! migrates older tokens to MLC off the critical path — exactly how
//! `hyflex_pim::GradientRedistribution` keeps gradient-hot singular vectors
//! in SLC and relegates the cold mass to MLC.
//!
//! [`DecodeSim`] drives the system with **continuous (iteration-level)
//! batching**: requests join and leave the running batch at token
//! boundaries ([`BatchScheduler::admit_continuous`]), admission is bounded
//! by KV-cell capacity, and when optimistic admission overcommits the pool
//! (every admitted request grows by one token per iteration) the engine
//! evicts the least-progressed resident. Every offered request ends in
//! exactly one of four ways — shed before prefill, rejected by the
//! queue-depth gate, evicted mid-decode, or completed — so the report's
//! counters satisfy `offered = admitted + shed + rejected` and
//! `admitted = completed + evicted`. Every run checks both identities
//! before it reports, returning [`RuntimeError::Internal`] on a mismatch,
//! and `tests/decode_property.rs` pins them under randomized traffic.
//!
//! The trace streams in, and request latency and time-per-output-token
//! accumulate into the same log-linear histogram as the encoder engine's
//! (see [`LatencySummary`]), so memory is bounded in token count. It is
//! bounded in request count only with the queue-depth gate
//! ([`DecodeConfig::admission`]): without it, an overloaded trace grows the
//! waiting queue with the number of requests.

use crate::batch::{BatchScheduler, SchedulerConfig};
use crate::error::RuntimeError;
use crate::overload::{conserve, AdmissionPolicy, LatencyHistogram};
use crate::serving::LatencySummary;
use crate::traffic::RequestTrace;
use crate::Result;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::perf::PerformanceModel;
use hyflex_pim::{kv_token_cost, HyFlexPimConfig, KvTokenCost};
use std::sync::Arc;

/// Where a request's cached K/V rows live on the RRAM fabric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum KvPlacementPolicy {
    /// Every token in SLC: single-pulse appends, half the token capacity.
    SlcOnly,
    /// Every token in MLC: double capacity, 4× append latency and 2× append
    /// energy on the decode critical path.
    MlcOnly,
    /// Appends land in SLC (single-pulse, on the critical path); once a
    /// sequence holds more than `hot_window` SLC tokens, the oldest are
    /// demoted to MLC by a background engine, off the critical path. The
    /// steady-state footprint is `hot_window` tokens at SLC density plus
    /// the cold prefix at MLC density.
    Hybrid {
        /// Newest tokens of each sequence kept at SLC density.
        hot_window: usize,
    },
}

impl KvPlacementPolicy {
    /// Display label used in report tables.
    pub fn label(&self) -> String {
        match self {
            KvPlacementPolicy::SlcOnly => "slc-only".to_string(),
            KvPlacementPolicy::MlcOnly => "mlc-only".to_string(),
            KvPlacementPolicy::Hybrid { hot_window } => format!("hybrid({hot_window})"),
        }
    }
}

/// Workload and placement policy of one decode-serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeConfig {
    /// KV placement policy.
    pub placement: KvPlacementPolicy,
    /// Output tokens every request generates after its prompt.
    pub output_tokens: usize,
    /// Most requests decoding concurrently (the continuous batch's width).
    pub max_batch_size: usize,
    /// Processing units whose analog arrays are provisioned as KV-cache
    /// pool; capacity is `kv_pus × analog_cells_per_pu()` cells.
    pub kv_pus: usize,
    /// Fraction of the KV pool admission may fill, in `(0, 1]`. Admission
    /// is optimistic about *generation* (it charges only the prompt), so
    /// the gap between this watermark and the pool is the headroom that
    /// absorbs decode growth between completions; filling to 1.0 turns
    /// every admission into a near-immediate eviction.
    pub admit_watermark: f64,
    /// Hardware constants the KV cost model reads (cells per value, write
    /// pulses). Defaults to the paper configuration.
    pub hw: HyFlexPimConfig,
    /// Arrival gate. [`AdmissionPolicy::Unbounded`] (the default) admits
    /// every request whose prompt fits the pool.
    /// [`AdmissionPolicy::QueueDepth`] rejects an arrival while
    /// `max_outstanding` or more requests are outstanding (waiting plus
    /// resident), which bounds the waiting queue. The token bucket is not
    /// supported here.
    pub admission: AdmissionPolicy,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        DecodeConfig {
            placement: KvPlacementPolicy::Hybrid { hot_window: 32 },
            output_tokens: 64,
            max_batch_size: 16,
            kv_pus: 8,
            admit_watermark: 0.9,
            hw: HyFlexPimConfig::paper_default(),
            admission: AdmissionPolicy::Unbounded,
        }
    }
}

/// Outcome of one decode-serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeReport {
    /// Backend display name.
    pub backend: String,
    /// Placement policy label.
    pub placement: String,
    /// Requests the trace offered.
    pub offered: usize,
    /// Requests accepted into the engine (offered minus the shed ones whose
    /// prompt alone could never fit the KV pool).
    pub admitted: usize,
    /// Requests that generated every output token.
    pub completed: usize,
    /// Requests dropped before prefill (prompt KV exceeds the whole pool).
    pub shed: usize,
    /// Requests the queue-depth gate turned away at arrival.
    pub rejected: usize,
    /// Most requests waiting (admitted, not yet resident) at once.
    pub peak_waiting: usize,
    /// Requests evicted mid-decode when the KV pool overcommitted.
    pub evicted: usize,
    /// Output tokens decoded across the run (completed and evicted work).
    pub decoded_tokens: usize,
    /// Wall-clock span from first arrival to last completion, seconds.
    pub sim_seconds: f64,
    /// Completed requests per simulated second.
    pub goodput_rps: f64,
    /// Decoded tokens per simulated second.
    pub tokens_per_s: f64,
    /// Time-per-output-token distribution over every decoded token
    /// (iteration compute plus the policy's critical-path KV append),
    /// histogram-quantized; `tpot_ms` carries the exact mean.
    pub tpot: LatencySummary,
    /// Arrival-to-completion latency distribution over completed requests
    /// (histogram-quantized percentiles, exact mean and max).
    pub request_latency: LatencySummary,
    /// Total energy, pJ: compute plus KV programming.
    pub total_energy_pj: f64,
    /// KV programming energy, pJ (appends, prefill writes, demotions).
    pub kv_write_pj: f64,
    /// Energy per decoded token, pJ.
    pub energy_per_token_pj: f64,
    /// Tokens written at SLC density (appends and prefill).
    pub slc_tokens_written: usize,
    /// Tokens written at MLC density (direct appends and demotions).
    pub mlc_tokens_written: usize,
    /// Tokens migrated SLC → MLC by the background demotion engine.
    pub demoted_tokens: usize,
    /// Most KV cells resident at once.
    pub peak_kv_cells: usize,
    /// KV pool capacity, cells.
    pub kv_capacity_cells: usize,
}

/// One resident (admitted, still decoding) request.
#[derive(Debug, Clone)]
struct Resident {
    request: InferenceRequest,
    /// Tokens cached at SLC density.
    slc_tokens: usize,
    /// Tokens cached at MLC density.
    mlc_tokens: usize,
    /// Output tokens decoded so far.
    decoded: usize,
}

impl Resident {
    fn context_len(&self) -> usize {
        self.slc_tokens + self.mlc_tokens
    }

    fn cells(&self, kv: &KvTokenCost) -> usize {
        self.slc_tokens * kv.slc_cells + self.mlc_tokens * kv.mlc_cells
    }
}

/// Deterministic continuous-batching decode-serving simulator.
///
/// Virtual-time model: the engine runs one *iteration* at a time. At each
/// token boundary it admits waiting requests (KV-capacity-bounded, policy
/// order), prefills them (batched compute plus prompt KV programming),
/// evicts residents if the pool overcommitted, then prices one decode
/// iteration for the whole batch ([`Backend::evaluate_decode_step`] at the
/// batch's longest context) plus the placement policy's critical-path
/// append. Identical inputs produce bit-identical reports.
#[derive(Debug, Clone)]
pub struct DecodeSim {
    backend: Arc<dyn Backend>,
    trace: RequestTrace,
    config: DecodeConfig,
    kv: KvTokenCost,
    capacity_cells: usize,
}

impl DecodeSim {
    /// Builds a simulator.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for a zero output length,
    /// batch width, KV pool, hybrid hot window or queue-depth limit, or a
    /// token-bucket gate, and propagates hardware validation errors.
    pub fn new(
        backend: Arc<dyn Backend>,
        trace: RequestTrace,
        config: DecodeConfig,
    ) -> Result<Self> {
        if config.output_tokens == 0 {
            return Err(RuntimeError::InvalidConfig(
                "output_tokens must be at least 1".to_string(),
            ));
        }
        if config.max_batch_size == 0 {
            return Err(RuntimeError::InvalidConfig(
                "max_batch_size must be at least 1".to_string(),
            ));
        }
        if config.kv_pus == 0 {
            return Err(RuntimeError::InvalidConfig(
                "kv_pus must be at least 1".to_string(),
            ));
        }
        if let KvPlacementPolicy::Hybrid { hot_window } = config.placement {
            if hot_window == 0 {
                return Err(RuntimeError::InvalidConfig(
                    "hybrid hot_window must be at least 1".to_string(),
                ));
            }
        }
        match config.admission {
            AdmissionPolicy::Unbounded => {}
            AdmissionPolicy::QueueDepth { max_outstanding } => {
                if max_outstanding == 0 {
                    return Err(RuntimeError::InvalidConfig(
                        "queue-depth gate needs max_outstanding >= 1".to_string(),
                    ));
                }
            }
            AdmissionPolicy::TokenBucket { .. } => {
                return Err(RuntimeError::InvalidConfig(
                    "decode serving supports the queue-depth gate, not the token bucket"
                        .to_string(),
                ));
            }
        }
        if !(config.admit_watermark > 0.0 && config.admit_watermark <= 1.0) {
            return Err(RuntimeError::InvalidConfig(format!(
                "admit_watermark {} must be in (0, 1]",
                config.admit_watermark
            )));
        }
        // The KV cost model shares the perf model's calibrated energy table.
        let perf = PerformanceModel::new(config.hw)?;
        let kv = kv_token_cost(backend.model(), perf.hw(), perf.energy_model())?;
        let capacity_cells = config.kv_pus * config.hw.analog_cells_per_pu();
        Ok(DecodeSim {
            backend,
            trace,
            config,
            kv,
            capacity_cells,
        })
    }

    /// KV pool capacity, cells.
    pub fn capacity_cells(&self) -> usize {
        self.capacity_cells
    }

    /// Cells a prompt of `tokens` occupies at its steady-state placement.
    fn prompt_cells(&self, tokens: usize) -> usize {
        match self.config.placement {
            KvPlacementPolicy::SlcOnly => tokens * self.kv.slc_cells,
            KvPlacementPolicy::MlcOnly => tokens * self.kv.mlc_cells,
            KvPlacementPolicy::Hybrid { hot_window } => {
                let hot = tokens.min(hot_window);
                hot * self.kv.slc_cells + (tokens - hot) * self.kv.mlc_cells
            }
        }
    }

    /// Critical-path latency of appending one token per resident, ns. All
    /// residents program their own arrays concurrently, so the batch pays
    /// one write, not `B`.
    fn append_latency_ns(&self) -> f64 {
        match self.config.placement {
            KvPlacementPolicy::MlcOnly => self.kv.mlc_write_ns,
            _ => self.kv.slc_write_ns,
        }
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates backend evaluation errors, and returns
    /// [`RuntimeError::Internal`] if the run breaks request conservation.
    pub fn run(&self) -> Result<DecodeReport> {
        let mut arrivals = self.trace.stream().peekable();
        let mut offered = 0usize;
        let mut queue = BatchScheduler::for_backend(
            Arc::clone(&self.backend),
            SchedulerConfig {
                max_batch_size: self.config.max_batch_size,
                max_wait_ns: 0.0,
                ..SchedulerConfig::default()
            },
        )?;
        let mut residents: Vec<Resident> = Vec::new();
        let mut now_ns = 0.0f64;
        let mut admitted = 0usize;
        let mut completed = 0usize;
        let mut shed = 0usize;
        let mut rejected = 0usize;
        let mut peak_waiting = 0usize;
        let mut evicted = 0usize;
        let mut decoded_tokens = 0usize;
        let mut demoted_tokens = 0usize;
        let mut slc_tokens_written = 0usize;
        let mut mlc_tokens_written = 0usize;
        let mut kv_write_pj = 0.0f64;
        let mut compute_pj = 0.0f64;
        let mut peak_kv_cells = 0usize;
        let mut tpot = LatencyHistogram::default();
        let mut request_latency = LatencyHistogram::default();
        let mut first_arrival_ns = f64::NAN;
        let mut last_completion_ns = 0.0f64;

        while arrivals.peek().is_some() || queue.queue_len() > 0 || !residents.is_empty() {
            // Idle engine: jump to the next arrival.
            if residents.is_empty() && queue.queue_len() == 0 {
                if let Some(next) = arrivals.peek() {
                    now_ns = now_ns.max(next.arrival_ns);
                }
            }
            // Feed arrivals at or before the current token boundary; a
            // prompt that could never fit the empty pool is shed outright.
            while let Some(request) = arrivals.next_if(|r| r.arrival_ns <= now_ns) {
                offered += 1;
                if first_arrival_ns.is_nan() {
                    first_arrival_ns = request.arrival_ns;
                }
                if self.prompt_cells(request.seq_len + self.config.output_tokens)
                    > self.capacity_cells
                {
                    shed += 1;
                    continue;
                }
                if let AdmissionPolicy::QueueDepth { max_outstanding } = self.config.admission {
                    if queue.queue_len() + residents.len() >= max_outstanding {
                        rejected += 1;
                        continue;
                    }
                }
                admitted += 1;
                queue.submit(request)?;
            }
            peak_waiting = peak_waiting.max(queue.queue_len());
            // Token boundary: waiting requests join the running batch while
            // batch width and (optimistically: prompt-only) KV capacity
            // allow.
            let mut used: usize = residents.iter().map(|r| r.cells(&self.kv)).sum();
            let slots = self.config.max_batch_size - residents.len();
            let watermark =
                (self.config.admit_watermark * self.capacity_cells as f64).floor() as usize;
            let joined = queue.admit_continuous(slots, |request| {
                let cells = self.prompt_cells(request.seq_len);
                if used + cells <= watermark {
                    used += cells;
                    true
                } else {
                    false
                }
            });
            if !joined.is_empty() {
                now_ns +=
                    self.prefill(&joined, &mut residents, &mut kv_write_pj, &mut compute_pj)?;
                slc_tokens_written += joined
                    .iter()
                    .map(|r| match self.config.placement {
                        KvPlacementPolicy::MlcOnly => 0,
                        _ => r.seq_len,
                    })
                    .sum::<usize>();
                mlc_tokens_written += joined
                    .iter()
                    .map(|r| match self.config.placement {
                        KvPlacementPolicy::SlcOnly => 0,
                        KvPlacementPolicy::MlcOnly => r.seq_len,
                        KvPlacementPolicy::Hybrid { hot_window } => {
                            r.seq_len.saturating_sub(hot_window)
                        }
                    })
                    .sum::<usize>();
                demoted_tokens += joined
                    .iter()
                    .map(|r| match self.config.placement {
                        KvPlacementPolicy::Hybrid { hot_window } => {
                            r.seq_len.saturating_sub(hot_window)
                        }
                        _ => 0,
                    })
                    .sum::<usize>();
            }
            if residents.is_empty() {
                // Nothing joined (capacity-blocked queue drains only as
                // residents leave — impossible with an empty batch — or the
                // queue is empty and the next arrival is in the future).
                continue;
            }
            // Every resident grows one token this iteration: when optimistic
            // admission overcommitted the pool, evict the least-progressed
            // resident (least decoded work lost; ties break toward the
            // youngest arrival) until the pool holds.
            let mut projected: usize = residents
                .iter()
                .map(|r| r.cells(&self.kv) + self.append_cells())
                .sum();
            while projected > self.capacity_cells && !residents.is_empty() {
                let Some(victim) = residents
                    .iter()
                    .enumerate()
                    .min_by_key(|(_, r)| (r.decoded, std::cmp::Reverse(r.request.id)))
                    .map(|(index, _)| index)
                else {
                    break;
                };
                let gone = residents.remove(victim);
                projected -= gone.cells(&self.kv) + self.append_cells();
                evicted += 1;
            }
            // One decode iteration for the whole batch, priced at the
            // longest resident context (the executed shape). The max is
            // `None` exactly when no resident survived eviction.
            let Some(longest) = residents.iter().map(Resident::context_len).max() else {
                continue;
            };
            let context = longest + 1;
            let step = self
                .backend
                .evaluate_decode_step(context, residents.len())?;
            let iteration_ns = step.makespan_ns + self.append_latency_ns();
            now_ns += iteration_ns;
            compute_pj += step.energy_per_request_pj * residents.len() as f64;
            // Append one token per resident and run the demotion engine.
            let (append_pj, append_slc) = match self.config.placement {
                KvPlacementPolicy::MlcOnly => (self.kv.mlc_write_pj, false),
                _ => (self.kv.slc_write_pj, true),
            };
            for resident in &mut residents {
                if append_slc {
                    resident.slc_tokens += 1;
                    slc_tokens_written += 1;
                } else {
                    resident.mlc_tokens += 1;
                    mlc_tokens_written += 1;
                }
                kv_write_pj += append_pj;
                if let KvPlacementPolicy::Hybrid { hot_window } = self.config.placement {
                    while resident.slc_tokens > hot_window {
                        resident.slc_tokens -= 1;
                        resident.mlc_tokens += 1;
                        demoted_tokens += 1;
                        mlc_tokens_written += 1;
                        kv_write_pj += self.kv.mlc_write_pj;
                    }
                }
                resident.decoded += 1;
                decoded_tokens += 1;
                tpot.record(iteration_ns);
            }
            peak_kv_cells =
                peak_kv_cells.max(residents.iter().map(|r| r.cells(&self.kv)).sum::<usize>());
            // Leave at the token boundary.
            residents.retain(|resident| {
                if resident.decoded >= self.config.output_tokens {
                    completed += 1;
                    request_latency.record(now_ns - resident.request.arrival_ns);
                    last_completion_ns = last_completion_ns.max(now_ns);
                    false
                } else {
                    true
                }
            });
        }

        let sim_seconds = if first_arrival_ns.is_nan() {
            0.0
        } else {
            ((last_completion_ns - first_arrival_ns) * 1e-9).max(0.0)
        };
        conserve(
            "offered = admitted + shed + rejected",
            offered,
            &[admitted, shed, rejected],
        )?;
        conserve(
            "admitted = completed + evicted",
            admitted,
            &[completed, evicted],
        )?;
        // The histogram's mean is exact: it is the mean TPOT.
        let mut tpot = tpot.summary();
        tpot.tpot_ms = (decoded_tokens > 0).then_some(tpot.mean_ms);
        let total_energy_pj = compute_pj + kv_write_pj;
        Ok(DecodeReport {
            backend: self.backend.name().to_string(),
            placement: self.config.placement.label(),
            offered,
            admitted,
            completed,
            shed,
            rejected,
            peak_waiting,
            evicted,
            decoded_tokens,
            sim_seconds,
            goodput_rps: if sim_seconds > 0.0 {
                completed as f64 / sim_seconds
            } else {
                0.0
            },
            tokens_per_s: if sim_seconds > 0.0 {
                decoded_tokens as f64 / sim_seconds
            } else {
                0.0
            },
            tpot,
            request_latency: request_latency.summary(),
            total_energy_pj,
            kv_write_pj,
            energy_per_token_pj: if decoded_tokens > 0 {
                total_energy_pj / decoded_tokens as f64
            } else {
                0.0
            },
            slc_tokens_written,
            mlc_tokens_written,
            demoted_tokens,
            peak_kv_cells,
            kv_capacity_cells: self.capacity_cells,
        })
    }

    /// Cells one append adds before any demotion rebalancing.
    fn append_cells(&self) -> usize {
        match self.config.placement {
            KvPlacementPolicy::MlcOnly => self.kv.mlc_cells,
            _ => self.kv.slc_cells,
        }
    }

    /// Prefills newly joined requests: batched compute at the longest
    /// prompt plus prompt KV programming (the SLC-staged portion on the
    /// critical path; hybrid's direct-to-MLC cold prefix is programmed by
    /// the background engine). Returns the critical-path latency and
    /// registers the new residents.
    fn prefill(
        &self,
        joined: &[InferenceRequest],
        residents: &mut Vec<Resident>,
        kv_write_pj: &mut f64,
        compute_pj: &mut f64,
    ) -> Result<f64> {
        let max_prompt = joined.iter().map(|r| r.seq_len).max().ok_or_else(|| {
            RuntimeError::Internal("prefill called with no joined requests".to_string())
        })?;
        let batch = self.backend.evaluate_batched(max_prompt, joined.len())?;
        *compute_pj += batch.energy_per_request_pj * joined.len() as f64;
        let mut critical_write_ns = 0.0f64;
        for request in joined {
            let tokens = request.seq_len;
            let (slc_tokens, mlc_tokens) = match self.config.placement {
                KvPlacementPolicy::SlcOnly => (tokens, 0),
                KvPlacementPolicy::MlcOnly => (0, tokens),
                KvPlacementPolicy::Hybrid { hot_window } => {
                    let hot = tokens.min(hot_window);
                    (hot, tokens - hot)
                }
            };
            *kv_write_pj +=
                slc_tokens as f64 * self.kv.slc_write_pj + mlc_tokens as f64 * self.kv.mlc_write_pj;
            // Prompts program token rows concurrently across requests; the
            // batch pays the slowest request's critical-path writes.
            let request_write_ns = match self.config.placement {
                KvPlacementPolicy::SlcOnly => tokens as f64 * self.kv.slc_write_ns,
                KvPlacementPolicy::MlcOnly => tokens as f64 * self.kv.mlc_write_ns,
                // Hybrid stages the hot tail through SLC on the critical
                // path; the cold prefix goes to MLC in the background.
                KvPlacementPolicy::Hybrid { hot_window } => {
                    tokens.min(hot_window) as f64 * self.kv.slc_write_ns
                }
            };
            critical_write_ns = critical_write_ns.max(request_write_ns);
            residents.push(Resident {
                request: *request,
                slc_tokens,
                mlc_tokens,
                decoded: 0,
            });
        }
        Ok(batch.makespan_ns + critical_write_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::{ArrivalProcess, TrafficConfig};
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_transformer::ModelConfig;

    fn backend() -> Arc<dyn Backend> {
        Arc::new(HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap())
    }

    fn trace(qps: f64, n: usize, seq_len: usize) -> RequestTrace {
        RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps },
            num_requests: n,
            seq_len,
            ..TrafficConfig::default()
        })
        .unwrap()
    }

    fn sim(placement: KvPlacementPolicy, qps: f64, n: usize) -> DecodeSim {
        DecodeSim::new(
            backend(),
            trace(qps, n, 128),
            DecodeConfig {
                placement,
                output_tokens: 32,
                kv_pus: 4,
                ..DecodeConfig::default()
            },
        )
        .unwrap()
    }

    #[test]
    fn construction_rejects_degenerate_configs() {
        let bad = |config: DecodeConfig| {
            DecodeSim::new(backend(), trace(100.0, 10, 128), config).is_err()
        };
        assert!(bad(DecodeConfig {
            output_tokens: 0,
            ..DecodeConfig::default()
        }));
        assert!(bad(DecodeConfig {
            max_batch_size: 0,
            ..DecodeConfig::default()
        }));
        assert!(bad(DecodeConfig {
            kv_pus: 0,
            ..DecodeConfig::default()
        }));
        assert!(bad(DecodeConfig {
            placement: KvPlacementPolicy::Hybrid { hot_window: 0 },
            ..DecodeConfig::default()
        }));
        assert!(bad(DecodeConfig {
            admission: AdmissionPolicy::QueueDepth { max_outstanding: 0 },
            ..DecodeConfig::default()
        }));
        assert!(bad(DecodeConfig {
            admission: AdmissionPolicy::TokenBucket {
                rate_qps: 100.0,
                burst: 4.0,
            },
            ..DecodeConfig::default()
        }));
    }

    #[test]
    fn unloaded_run_completes_everything_and_conserves_requests() {
        for placement in [
            KvPlacementPolicy::SlcOnly,
            KvPlacementPolicy::MlcOnly,
            KvPlacementPolicy::Hybrid { hot_window: 32 },
        ] {
            let report = sim(placement, 50.0, 40).run().unwrap();
            assert_eq!(report.offered, 40);
            assert_eq!(report.admitted, 40, "{}", report.placement);
            assert_eq!(report.completed, 40, "{}", report.placement);
            assert_eq!(report.shed, 0);
            assert_eq!(report.evicted, 0);
            assert_eq!(report.decoded_tokens, 40 * 32);
            assert_eq!(
                report.admitted,
                report.completed + report.evicted,
                "conservation"
            );
            assert!(report.tpot.tpot_ms.unwrap() > 0.0);
            assert!(report.peak_kv_cells <= report.kv_capacity_cells);
            assert!(report.total_energy_pj > 0.0);
        }
    }

    #[test]
    fn runs_are_bit_identical_per_seed() {
        let a = sim(KvPlacementPolicy::Hybrid { hot_window: 16 }, 4000.0, 120)
            .run()
            .unwrap();
        let b = sim(KvPlacementPolicy::Hybrid { hot_window: 16 }, 4000.0, 120)
            .run()
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn hybrid_beats_the_extremes_on_their_weak_axes() {
        // Overload the pool so capacity pressure is real.
        let run = |placement| sim(placement, 20_000.0, 150).run().unwrap();
        let slc = run(KvPlacementPolicy::SlcOnly);
        let mlc = run(KvPlacementPolicy::MlcOnly);
        let hybrid = run(KvPlacementPolicy::Hybrid { hot_window: 16 });
        // SLC-only burns capacity: hybrid loses fewer requests to eviction.
        assert!(
            hybrid.evicted < slc.evicted,
            "hybrid {} vs slc-only {}",
            hybrid.evicted,
            slc.evicted
        );
        // MLC-only pays 4 program-and-verify pulses per append on the
        // critical path: hybrid decodes tokens faster.
        assert!(
            hybrid.tpot.tpot_ms.unwrap() < mlc.tpot.tpot_ms.unwrap(),
            "hybrid {:?} vs mlc-only {:?}",
            hybrid.tpot.tpot_ms,
            mlc.tpot.tpot_ms
        );
        // Demotion traffic exists only under the hybrid policy.
        assert!(hybrid.demoted_tokens > 0);
        assert_eq!(slc.demoted_tokens, 0);
        assert_eq!(mlc.demoted_tokens, 0);
        // Conservation under pressure.
        for report in [&slc, &mlc, &hybrid] {
            assert_eq!(
                report.admitted,
                report.completed + report.evicted,
                "{}",
                report.placement
            );
            assert_eq!(report.offered, report.admitted + report.shed);
        }
    }

    #[test]
    fn oversized_prompts_are_shed_not_wedged() {
        let report = DecodeSim::new(
            backend(),
            trace(100.0, 5, 2048),
            DecodeConfig {
                kv_pus: 1,
                output_tokens: 4,
                ..DecodeConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report.shed, 5);
        assert_eq!(report.admitted, 0);
        assert_eq!(report.completed, 0);
    }

    #[test]
    fn queue_depth_gate_bounds_the_waiting_queue_under_overload() {
        // Far more arrivals than the engine serves: without a gate the
        // waiting queue holds most of the trace; with one it stays below
        // the limit.
        let run = |admission| {
            DecodeSim::new(
                backend(),
                trace(50_000.0, 2_000, 128),
                DecodeConfig {
                    output_tokens: 32,
                    kv_pus: 4,
                    admission,
                    ..DecodeConfig::default()
                },
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let open = run(AdmissionPolicy::Unbounded);
        assert_eq!(open.rejected, 0);
        assert_eq!(open.peak_waiting, 1_843);
        let gated = run(AdmissionPolicy::QueueDepth {
            max_outstanding: 64,
        });
        // Waiting plus resident never passes 64.
        assert_eq!(gated.peak_waiting, 55);
        assert_eq!(gated.rejected, 1_789);
        assert_eq!(gated.offered, gated.admitted + gated.shed + gated.rejected);
        assert_eq!(gated.admitted, gated.completed + gated.evicted);
        // Deterministic: the same count on every run.
        assert_eq!(
            gated,
            run(AdmissionPolicy::QueueDepth {
                max_outstanding: 64
            })
        );
    }
}
