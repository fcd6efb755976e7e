//! The timed `Backend` decorator of the traced runs.
//!
//! [`TimedBackend`] wraps an `Arc<dyn Backend>` and forwards every trait
//! method to it unchanged, so a simulator driven through the wrapper
//! produces a bit-identical report. Around the two pricing calls the
//! serving simulators make — `evaluate_batched` and `evaluate_decode_step`
//! — it counts calls, times them with the host clock, and sums the returned
//! energy and latency breakdowns by component, weighted by batch size.

use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::energy_breakdown::EnergyBreakdown;
use hyflex_pim::perf::{BatchPerfSummary, LatencyBreakdown, PerfSummary};
use hyflex_pim::Result;
use hyflex_transformer::ModelConfig;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// What the decorator observed over one simulator run.
#[derive(Debug, Clone, Default)]
pub struct PerfCounters {
    /// `evaluate_batched` calls.
    pub batched_calls: u64,
    /// `evaluate_decode_step` calls.
    pub decode_step_calls: u64,
    /// Requests priced by decode steps (sum of their batch sizes).
    pub decode_step_requests: u64,
    /// Host seconds spent inside the wrapped pricing calls.
    pub eval_s: f64,
    /// Per-request energy of every priced call, times its batch size, pJ.
    pub energy: EnergyBreakdown,
    /// Per-request latency of every priced call, times its batch size, ns.
    pub latency: LatencyBreakdown,
}

impl PerfCounters {
    /// Pricing calls of either kind.
    pub fn calls(&self) -> u64 {
        self.batched_calls + self.decode_step_calls
    }

    fn record(&mut self, summary: &BatchPerfSummary, elapsed_s: f64) {
        let b = summary.batch_size as f64;
        self.eval_s += elapsed_s;
        self.energy.accumulate(&summary.single.energy.scaled(b));
        let l = &summary.single.latency;
        self.latency.analog_ns += l.analog_ns * b;
        self.latency.digital_ns += l.digital_ns * b;
        self.latency.sfu_ns += l.sfu_ns * b;
        self.latency.interconnect_ns += l.interconnect_ns * b;
    }
}

/// Shared handle to the counters one run's wrappers write into.
pub type Counters = Arc<Mutex<PerfCounters>>;

/// A backend that forwards to `inner` and records its pricing calls.
#[derive(Debug)]
pub struct TimedBackend {
    inner: Arc<dyn Backend>,
    counters: Counters,
}

impl TimedBackend {
    /// Wraps `inner`, recording into `counters`.
    pub fn wrap(inner: Arc<dyn Backend>, counters: &Counters) -> Arc<dyn Backend> {
        Arc::new(TimedBackend {
            inner,
            counters: Arc::clone(counters),
        })
    }

    fn timed(
        &self,
        decode: bool,
        price: impl FnOnce() -> Result<BatchPerfSummary>,
    ) -> Result<BatchPerfSummary> {
        let start = Instant::now();
        let result = price();
        let elapsed_s = start.elapsed().as_secs_f64();
        // The simulators are single-threaded, so the lock is uncontended; a
        // poisoned lock still holds valid counts.
        let mut counters = self.counters.lock().unwrap_or_else(|e| e.into_inner());
        if decode {
            counters.decode_step_calls += 1;
        } else {
            counters.batched_calls += 1;
        }
        if let Ok(summary) = &result {
            if decode {
                counters.decode_step_requests += summary.batch_size as u64;
            }
            counters.record(summary, elapsed_s);
        }
        result
    }
}

impl Backend for TimedBackend {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn model(&self) -> &ModelConfig {
        self.inner.model()
    }

    fn capacity(&self) -> usize {
        self.inner.capacity()
    }

    fn request_cells(&self, seq_len: usize) -> usize {
        self.inner.request_cells(seq_len)
    }

    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        self.inner.evaluate(request)
    }

    fn evaluate_batched(&self, seq_len: usize, batch_size: usize) -> Result<BatchPerfSummary> {
        self.timed(false, || self.inner.evaluate_batched(seq_len, batch_size))
    }

    fn evaluate_decode_step(
        &self,
        context_len: usize,
        batch_size: usize,
    ) -> Result<BatchPerfSummary> {
        self.timed(true, || {
            self.inner.evaluate_decode_step(context_len, batch_size)
        })
    }
}

/// Per-layer rows derived from one run's counters: call counts, host time,
/// and each energy and latency component's share of its total.
pub fn perf_rows(counters: &PerfCounters, batches: u64, rows: &mut crate::report::Rows) {
    let calls = counters.calls();
    rows.set("core.perf.batched_calls", counters.batched_calls as f64);
    rows.set(
        "core.perf.decode_step_calls",
        counters.decode_step_calls as f64,
    );
    rows.set("core.perf.eval_s", counters.eval_s);
    if calls > 0 {
        rows.set(
            "core.perf.ns_per_call",
            counters.eval_s * 1e9 / calls as f64,
        );
    }
    if batches > 0 {
        rows.set(
            "core.perf.memo_hit_frac",
            (1.0 - calls as f64 / batches as f64).max(0.0),
        );
    }
    let e = &counters.energy;
    let total_pj = e.total_pj();
    if total_pj > 0.0 {
        for (name, pj) in [
            ("core.energy.linear_adc_frac", e.linear_adc_pj),
            ("core.energy.analog_rram_read_frac", e.analog_rram_read_pj),
            ("core.energy.analog_rram_write_frac", e.analog_rram_write_pj),
            ("core.energy.sh_sa_frac", e.sh_sa_pj),
            ("core.energy.analog_wldrv_frac", e.analog_wldrv_pj),
            (
                "core.energy.attention_dot_product_frac",
                e.attention_dot_product_pj,
            ),
            ("core.energy.sfu_frac", e.sfu_pj),
            (
                "core.energy.digital_rram_write_frac",
                e.digital_rram_write_pj,
            ),
            ("core.energy.digital_wldrv_frac", e.digital_wldrv_pj),
            ("core.energy.sram_access_frac", e.sram_access_pj),
            ("core.energy.dram_access_frac", e.dram_access_pj),
            ("core.energy.interconnect_frac", e.interconnect_pj),
            ("core.energy.digital_mac_frac", e.digital_mac_pj),
        ] {
            rows.set(name, pj / total_pj);
        }
    }
    let l = &counters.latency;
    let service_ns = l.analog_ns + l.digital_ns + l.sfu_ns + l.interconnect_ns;
    if service_ns > 0.0 {
        rows.set("core.latency.analog_frac", l.analog_ns / service_ns);
        rows.set("core.latency.digital_frac", l.digital_ns / service_ns);
        rows.set("core.latency.sfu_frac", l.sfu_ns / service_ns);
        rows.set(
            "core.latency.interconnect_frac",
            l.interconnect_ns / service_ns,
        );
    }
}
