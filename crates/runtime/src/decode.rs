//! Autoregressive decode serving: KV cache on the SLC/MLC hybrid fabric
//! with continuous batching.
//!
//! The encoder-pass serving engine ([`crate::overload`], which also runs
//! the closed-loop workloads) prices a request as **one** batched pass —
//! the encoder/prefill regime of the paper's figures. Generative serving is
//! different: after its prompt is prefetched, a request produces output
//! tokens one *iteration* at a time, and every iteration attends over the
//! request's cached K/V. On HyFlexPIM that cache competes for the same
//! RRAM real estate the weights live in, and the SLC/MLC trade that
//! Section 4 exploits for weights reappears for the cache:
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
//! One rule decides every tier: a sequence of `n` cached tokens holds the
//! placement's split of `n` (all SLC, all MLC, or the newest `hot_window`
//! in SLC and the rest in MLC). A prompt is written straight to its split —
//! a hybrid prompt's cold prefix goes to MLC in the background and is never
//! demoted — and each decode append lands where the split of one token puts
//! it; the demotion engine then moves whatever SLC tokens the split of the
//! grown sequence no longer holds. The report counts every token written
//! to each tier, and its KV write energy is priced from those counts.
//!
//! [`DecodeSim`] drives the system with **continuous (iteration-level)
//! batching**: waiting requests join the running batch in arrival order at
//! token boundaries and leave when their last token is decoded. Admission
//! is bounded by the batch width and by a KV-cell watermark (90 % of the
//! pool), and when optimistic admission overcommits the pool (every
//! admitted request grows by one token per iteration) the engine evicts the
//! least-progressed resident. Every offered request ends in exactly one of
//! four ways — shed before prefill, rejected by the admission gate,
//! evicted mid-decode, or completed — so the report's counters satisfy
//! `offered = admitted + shed + rejected` and `admitted = completed +
//! evicted`. Arrivals pass the encoder engine's intake (arrival ledger,
//! [`AdmissionPolicy`] gate, conservation check), which records a shed
//! prompt as admitted and shed at once and an eviction as a preemption, so
//! every run checks the engine's two identities before it reports
//! ([`RuntimeError::Internal`] on a mismatch); `tests/decode_property.rs`
//! pins them under randomized traffic.
//!
//! The trace streams in, and request latency and time-per-output-token
//! accumulate into the engine's log-linear histogram (see
//! [`LatencySummary`]), so memory is bounded in token count. It is bounded
//! in request count only with the queue-depth gate
//! ([`DecodeConfig::admission`]): without it, an overloaded trace grows the
//! waiting queue with the number of requests.

use crate::error::{invalid_if, RuntimeError};
use crate::intake::{AdmissionPolicy, Intake, LatencyHistogram};
use crate::serving::LatencySummary;
use crate::traffic::RequestTrace;
use crate::Result;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::perf::PerformanceModel;
use hyflex_pim::{kv_token_cost, KvTokenCost};
use std::collections::VecDeque;
use std::sync::Arc;

/// Fraction of the KV pool admission may fill. Admission is optimistic
/// about *generation* (it charges only the prompt), so the gap between
/// this watermark and the pool is the headroom that absorbs decode growth
/// between completions; filling to 1.0 turns every admission into a
/// near-immediate eviction.
const ADMIT_WATERMARK: f64 = 0.9;

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

    /// `(slc, mlc)` tokens of a sequence of `tokens` cached tokens: where a
    /// prompt is written, where one append lands (`split(1)`), and what the
    /// demotion engine leaves in SLC.
    fn split(&self, tokens: usize) -> (usize, usize) {
        match *self {
            KvPlacementPolicy::SlcOnly => (tokens, 0),
            KvPlacementPolicy::MlcOnly => (0, tokens),
            KvPlacementPolicy::Hybrid { hot_window } => {
                let hot = tokens.min(hot_window);
                (hot, tokens - hot)
            }
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
    /// pool; capacity is `kv_pus × analog_cells_per_pu()` cells of the
    /// paper configuration.
    pub kv_pus: usize,
    /// Arrival gate. [`AdmissionPolicy::Unbounded`] (the default) admits
    /// every request whose prompt fits the pool.
    /// [`AdmissionPolicy::QueueDepth`] rejects an arrival while
    /// `max_outstanding` or more requests are outstanding (waiting plus
    /// resident), which bounds the waiting queue;
    /// [`AdmissionPolicy::TokenBucket`] caps the admitted rate.
    pub admission: AdmissionPolicy,
}

impl Default for DecodeConfig {
    fn default() -> Self {
        DecodeConfig {
            placement: KvPlacementPolicy::Hybrid { hot_window: 32 },
            output_tokens: 64,
            max_batch_size: 16,
            kv_pus: 8,
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
    /// Requests accepted into the engine (offered minus the shed and the
    /// rejected ones).
    pub admitted: usize,
    /// Requests that generated every output token.
    pub completed: usize,
    /// Requests dropped before prefill (prompt KV exceeds the whole pool).
    pub shed: usize,
    /// Requests the admission gate turned away at arrival.
    pub rejected: usize,
    /// Most requests waiting (admitted, not yet resident) at once.
    pub peak_waiting: usize,
    /// Requests evicted mid-decode when the KV pool overcommitted.
    pub evicted: usize,
    /// Output tokens decoded across the run (completed and evicted work).
    pub decoded_tokens: usize,
    /// Span from the first arrival to the last completion (or the last
    /// arrival if later), seconds.
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
    /// KV programming energy, pJ: `slc_tokens_written` at the SLC write
    /// energy plus `mlc_tokens_written` at the MLC write energy.
    pub kv_write_pj: f64,
    /// Energy per decoded token, pJ.
    pub energy_per_token_pj: f64,
    /// Tokens written at SLC density (prompt hot tails and appends).
    pub slc_tokens_written: usize,
    /// Tokens written at MLC density (prompt cold prefixes, direct appends
    /// and demotions).
    pub mlc_tokens_written: usize,
    /// Tokens migrated SLC → MLC by the background demotion engine during
    /// decode.
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

/// Tokens written to each tier and demoted, the run's KV write ledger.
#[derive(Debug, Default)]
struct KvWrites {
    slc: usize,
    mlc: usize,
    demoted: usize,
}

/// Deterministic continuous-batching decode-serving simulator.
///
/// Virtual-time model: the engine runs one *iteration* at a time. At each
/// token boundary it admits waiting requests in arrival order (bounded by
/// batch width and the KV watermark), prefills them (batched compute plus
/// prompt KV programming), evicts residents if the pool overcommitted, then
/// prices one decode iteration for the whole batch
/// ([`Backend::evaluate_decode_step`] at the batch's longest context) plus
/// the placement policy's critical-path append. Identical inputs produce
/// bit-identical reports.
///
/// The engine prices every iteration through the backend and keeps no
/// pricing cache of its own. A run repeats a few hundred `(context, batch)`
/// shapes thousands of times, so pass a backend from `SystemBuilder::build`,
/// which wraps it in a [`hyflex_pim::backend::PriceMemo`]: each shape is
/// then priced once per built backend. The memo sits under the backend
/// rather than in here so that a decorator stacked on the built backend
/// (e2ebench's timing probe, which counts calls and sums their energy)
/// still sees every iteration's pricing call.
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
    /// batch width, KV pool or hybrid hot window, or a degenerate admission
    /// policy, and propagates KV cost-model errors.
    pub fn new(
        backend: Arc<dyn Backend>,
        trace: RequestTrace,
        config: DecodeConfig,
    ) -> Result<Self> {
        invalid_if(config.output_tokens == 0, || {
            "output_tokens must be at least 1".to_string()
        })?;
        invalid_if(config.max_batch_size == 0, || {
            "max_batch_size must be at least 1".to_string()
        })?;
        invalid_if(config.kv_pus == 0, || {
            "kv_pus must be at least 1".to_string()
        })?;
        invalid_if(
            matches!(
                config.placement,
                KvPlacementPolicy::Hybrid { hot_window: 0 }
            ),
            || "hybrid hot_window must be at least 1".to_string(),
        )?;
        config.admission.validate()?;
        // The KV cost model shares the perf model's calibrated energy table.
        let perf = PerformanceModel::paper_default();
        let kv = kv_token_cost(backend.model(), perf.hw(), perf.energy_model())?;
        let capacity_cells = config.kv_pus * perf.hw().analog_cells_per_pu();
        Ok(DecodeSim {
            backend,
            trace,
            config,
            kv,
            capacity_cells,
        })
    }

    /// Cells a sequence of `tokens` occupies at its placement's split.
    fn cells(&self, tokens: usize) -> usize {
        let (slc, mlc) = self.config.placement.split(tokens);
        slc * self.kv.slc_cells + mlc * self.kv.mlc_cells
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates backend evaluation errors, returns
    /// [`RuntimeError::CapacityExceeded`] for a prompt wider than one layer
    /// tile, and returns [`RuntimeError::Internal`] if the run breaks
    /// request conservation.
    pub fn run(&self) -> Result<DecodeReport> {
        let mut arrivals = self.trace.stream().peekable();
        let mut intake = Intake::new(self.config.admission, &self.trace);
        let mut waiting: VecDeque<InferenceRequest> = VecDeque::new();
        let mut residents: Vec<Resident> = Vec::new();
        let mut now_ns = 0.0f64;
        let mut peak_waiting = 0usize;
        let mut decoded_tokens = 0usize;
        let mut writes = KvWrites::default();
        let mut compute_pj = 0.0f64;
        let mut peak_kv_cells = 0usize;
        let mut tpot = LatencyHistogram::default();
        // One append lands where the placement puts a one-token sequence.
        let (append_slc, append_mlc) = self.config.placement.split(1);
        let append_cells = self.cells(1);
        let append_ns =
            append_slc as f64 * self.kv.slc_write_ns + append_mlc as f64 * self.kv.mlc_write_ns;
        let tile_cells = self.backend.capacity();
        let watermark_cells = (ADMIT_WATERMARK * self.capacity_cells as f64).floor() as usize;

        while arrivals.peek().is_some() || !waiting.is_empty() || !residents.is_empty() {
            // Idle engine: jump to the next arrival.
            if residents.is_empty() && waiting.is_empty() {
                if let Some(next) = arrivals.peek() {
                    now_ns = now_ns.max(next.arrival_ns);
                }
            }
            // Feed arrivals at or before the current token boundary. A
            // prompt that could never fit the empty pool is admitted and
            // shed at once; the others then face the admission gate.
            while let Some(request) = arrivals.next_if(|r| r.arrival_ns <= now_ns) {
                intake.on_offered(&request)?;
                if self.cells(request.seq_len + self.config.output_tokens) > self.capacity_cells {
                    let phase = intake.phase(&request);
                    phase.admitted += 1;
                    phase.shed += 1;
                    continue;
                }
                if !intake.take_token(request.arrival_ns)
                    || intake.queue_full(|| waiting.len() + residents.len())
                {
                    intake.phase(&request).rejected += 1;
                    continue;
                }
                let cells = self.backend.request_cells(request.seq_len);
                if cells > tile_cells {
                    return Err(RuntimeError::CapacityExceeded(format!(
                        "request {} needs {cells} tile cells but the layer tile has {tile_cells}",
                        request.id
                    )));
                }
                intake.phase(&request).admitted += 1;
                waiting.push_back(request);
            }
            peak_waiting = peak_waiting.max(waiting.len());
            // Token boundary: waiting requests join the running batch in
            // arrival order while batch width and (optimistically:
            // prompt-only) KV capacity allow.
            let mut used: usize = residents.iter().map(|r| r.cells(&self.kv)).sum();
            let mut joined = Vec::new();
            while residents.len() + joined.len() < self.config.max_batch_size {
                let Some(front) = waiting.front() else {
                    break;
                };
                let cells = self.cells(front.seq_len);
                if used + cells > watermark_cells {
                    break;
                }
                used += cells;
                joined.extend(waiting.pop_front());
            }
            if !joined.is_empty() {
                now_ns += self.prefill(&joined, &mut residents, &mut writes, &mut compute_pj)?;
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
                .map(|r| r.cells(&self.kv) + append_cells)
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
                projected -= gone.cells(&self.kv) + append_cells;
                intake.phase(&gone.request).preempted += 1;
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
            let iteration_ns = step.makespan_ns + append_ns;
            now_ns += iteration_ns;
            compute_pj += step.energy_per_request_pj * residents.len() as f64;
            // Append one token per resident, then the demotion engine moves
            // every SLC token the grown sequence's split no longer holds.
            for resident in &mut residents {
                resident.slc_tokens += append_slc;
                resident.mlc_tokens += append_mlc;
                writes.slc += append_slc;
                writes.mlc += append_mlc;
                let (hot, _) = self.config.placement.split(resident.context_len());
                let demoted = resident.slc_tokens.saturating_sub(hot);
                resident.slc_tokens -= demoted;
                resident.mlc_tokens += demoted;
                writes.demoted += demoted;
                writes.mlc += demoted;
                resident.decoded += 1;
                decoded_tokens += 1;
                tpot.record(iteration_ns);
            }
            peak_kv_cells =
                peak_kv_cells.max(residents.iter().map(|r| r.cells(&self.kv)).sum::<usize>());
            // Leave at the token boundary.
            residents.retain(|resident| {
                if resident.decoded >= self.config.output_tokens {
                    intake.on_completed(&resident.request, now_ns);
                    false
                } else {
                    true
                }
            });
        }

        intake.check()?;
        // The intake's `shed` are the never-fits prompts it counted as
        // admitted, and its `preempted` are the evictions.
        let shed = intake.total(|p| p.shed);
        let completed = intake.total(|p| p.completed);
        // The histogram's mean is exact: it is the mean TPOT.
        let mut tpot = tpot.summary();
        tpot.tpot_ms = (decoded_tokens > 0).then_some(tpot.mean_ms);
        let kv_write_pj =
            writes.slc as f64 * self.kv.slc_write_pj + writes.mlc as f64 * self.kv.mlc_write_pj;
        let total_energy_pj = compute_pj + kv_write_pj;
        Ok(DecodeReport {
            backend: self.backend.name().to_string(),
            placement: self.config.placement.label(),
            offered: intake.total(|p| p.offered),
            admitted: intake.total(|p| p.admitted) - shed,
            completed,
            shed,
            rejected: intake.total(|p| p.rejected),
            peak_waiting,
            evicted: intake.total(|p| p.preempted),
            decoded_tokens,
            sim_seconds: intake.sim_seconds(),
            goodput_rps: intake.per_second(completed),
            tokens_per_s: intake.per_second(decoded_tokens),
            tpot,
            request_latency: intake.hist.summary(),
            total_energy_pj,
            kv_write_pj,
            energy_per_token_pj: if decoded_tokens > 0 {
                total_energy_pj / decoded_tokens as f64
            } else {
                0.0
            },
            slc_tokens_written: writes.slc,
            mlc_tokens_written: writes.mlc,
            demoted_tokens: writes.demoted,
            peak_kv_cells,
            kv_capacity_cells: self.capacity_cells,
        })
    }

    /// Prefills newly joined requests: batched compute at the longest
    /// prompt plus each prompt written straight to its placement split.
    /// SLC rows are programmed on the critical path; MLC rows are too,
    /// except under the hybrid policy, whose cold prefix the background
    /// engine programs. Returns the critical-path latency and registers the
    /// new residents.
    fn prefill(
        &self,
        joined: &[InferenceRequest],
        residents: &mut Vec<Resident>,
        writes: &mut KvWrites,
        compute_pj: &mut f64,
    ) -> Result<f64> {
        let max_prompt = joined.iter().map(|r| r.seq_len).max().ok_or_else(|| {
            RuntimeError::Internal("prefill called with no joined requests".to_string())
        })?;
        let batch = self.backend.evaluate_batched(max_prompt, joined.len())?;
        *compute_pj += batch.energy_per_request_pj * joined.len() as f64;
        let background_mlc = matches!(self.config.placement, KvPlacementPolicy::Hybrid { .. });
        let mut critical_write_ns = 0.0f64;
        for request in joined {
            let (slc_tokens, mlc_tokens) = self.config.placement.split(request.seq_len);
            writes.slc += slc_tokens;
            writes.mlc += mlc_tokens;
            // Prompts program token rows concurrently across requests; the
            // batch pays the slowest request's critical-path writes.
            let request_write_ns = if background_mlc {
                slc_tokens as f64 * self.kv.slc_write_ns
            } else {
                slc_tokens as f64 * self.kv.slc_write_ns + mlc_tokens as f64 * self.kv.mlc_write_ns
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
                rate_qps: 0.0,
                burst: 10.0,
            },
            ..DecodeConfig::default()
        }));
        assert!(bad(DecodeConfig {
            admission: AdmissionPolicy::TokenBucket {
                rate_qps: 100.0,
                burst: 0.5,
            },
            ..DecodeConfig::default()
        }));
    }

    #[test]
    fn token_bucket_caps_the_admitted_rate() {
        // 20 000 qps offered against a 2 000 qps bucket: the bucket, not
        // the KV pool, decides who gets in.
        let (rate_qps, burst) = (2_000.0, 8.0);
        let report = DecodeSim::new(
            backend(),
            trace(20_000.0, 600, 128),
            DecodeConfig {
                output_tokens: 32,
                kv_pus: 4,
                admission: AdmissionPolicy::TokenBucket { rate_qps, burst },
                ..DecodeConfig::default()
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.rejected > 0);
        // Admissions track the bucket's rate over the run, give or take
        // the burst.
        let expected = rate_qps * report.sim_seconds;
        assert!(
            (report.admitted as f64 - expected).abs() <= burst,
            "{} admitted over {} s, expected about {expected}",
            report.admitted,
            report.sim_seconds
        );
        assert_eq!(
            report.offered,
            report.admitted + report.shed + report.rejected
        );
        assert_eq!(report.admitted, report.completed + report.evicted);
    }

    #[test]
    fn unloaded_run_completes_everything_and_conserves_requests() {
        // 40 requests × (128 prompt + 32 appended) = 6 400 tokens written.
        // Hybrid(32) writes each prompt's 32-token hot tail to SLC and its
        // 96-token cold prefix straight to MLC; every append lands in SLC
        // and demotes one token.
        for (placement, (slc, mlc, demoted)) in [
            (KvPlacementPolicy::SlcOnly, (6_400, 0, 0)),
            (KvPlacementPolicy::MlcOnly, (0, 6_400, 0)),
            (
                KvPlacementPolicy::Hybrid { hot_window: 32 },
                (2_560, 5_120, 1_280),
            ),
        ] {
            let sim = sim(placement, 50.0, 40);
            let report = sim.run().unwrap();
            assert_eq!(
                (
                    report.slc_tokens_written,
                    report.mlc_tokens_written,
                    report.demoted_tokens
                ),
                (slc, mlc, demoted),
                "{}",
                report.placement
            );
            // Write energy is the write counts priced per tier.
            assert_eq!(
                report.kv_write_pj,
                slc as f64 * sim.kv.slc_write_pj + mlc as f64 * sim.kv.mlc_write_pj,
                "{}",
                report.placement
            );
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

    /// fig22 part (a) at its smoke size, on the memoized backend
    /// `SystemBuilder` builds and on the bare performance model: the
    /// pricing memo changes no field of the report.
    #[test]
    fn a_memoized_builder_backend_reports_what_the_bare_model_reports() {
        let built: Arc<dyn Backend> =
            Arc::from(hyflex_baselines::SystemBuilder::paper().build().unwrap());
        for placement in [
            KvPlacementPolicy::SlcOnly,
            KvPlacementPolicy::Hybrid { hot_window: 16 },
            KvPlacementPolicy::MlcOnly,
        ] {
            let run = |backend: Arc<dyn Backend>| {
                DecodeSim::new(
                    backend,
                    trace(20_000.0, 300, 128),
                    DecodeConfig {
                        placement,
                        output_tokens: 32,
                        kv_pus: 4,
                        ..DecodeConfig::default()
                    },
                )
                .unwrap()
                .run()
                .unwrap()
            };
            // The shared memo is warm from the second placement on.
            assert_eq!(run(Arc::clone(&built)), run(backend()), "{placement:?}");
        }
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
