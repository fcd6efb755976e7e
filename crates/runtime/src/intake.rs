//! The intake both serving engines share. [`OverloadSim`](crate::overload::OverloadSim)
//! and [`DecodeSim`](crate::decode::DecodeSim) pass every arrival through
//! one [`Intake`]: it rejects unsorted arrivals, runs the
//! [`AdmissionPolicy`] gate (the engine counts what is outstanding), keeps
//! every request's fate per arrival phase with the latency histogram, and
//! checks conservation and measures the span at the end of the run.

use crate::error::{invalid_if, RuntimeError};
use crate::serving::LatencySummary;
use crate::traffic::RequestTrace;
use crate::Result;
use hyflex_pim::backend::InferenceRequest;

/// Gate deciding at arrival time whether a request enters the system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdmissionPolicy {
    /// Admit everything (the closed-loop behavior; queues are unbounded).
    Unbounded,
    /// Token bucket: the bucket refills continuously at `rate_qps` tokens
    /// per second up to `burst`; a request is admitted iff a whole token
    /// is available, consuming it. Caps the *sustained* admitted rate at
    /// `rate_qps` while letting bursts of up to `burst` requests through.
    TokenBucket {
        /// Sustained admitted rate, requests per second.
        rate_qps: f64,
        /// Bucket capacity, requests.
        burst: f64,
    },
    /// Queue-depth gate: a request is rejected while `max_outstanding` or
    /// more requests are outstanding (queued plus in-flight on its replica,
    /// unless preemption evicts a less urgent one; waiting plus resident in
    /// decode). Bounds queue memory and queue-wait regardless of how far
    /// offered load exceeds service capacity.
    QueueDepth {
        /// Maximum outstanding requests (per replica in the encoder engine).
        max_outstanding: usize,
    },
}

impl AdmissionPolicy {
    /// Stable display name (for table rows).
    pub fn name(&self) -> &'static str {
        match self {
            AdmissionPolicy::Unbounded => "unbounded",
            AdmissionPolicy::TokenBucket { .. } => "token-bucket",
            AdmissionPolicy::QueueDepth { .. } => "queue-depth",
        }
    }

    /// Checks the policy at simulator construction: [`RuntimeError::InvalidConfig`]
    /// for a token bucket's non-positive rate or sub-one burst, or a zero
    /// queue-depth limit.
    pub(crate) fn validate(&self) -> Result<()> {
        match *self {
            AdmissionPolicy::Unbounded => Ok(()),
            AdmissionPolicy::TokenBucket { rate_qps, burst } => {
                invalid_if(!(rate_qps.is_finite() && rate_qps > 0.0), || {
                    format!("token-bucket rate {rate_qps} must be positive and finite")
                })?;
                invalid_if(!(burst.is_finite() && burst >= 1.0), || {
                    format!("token-bucket burst {burst} must be at least 1")
                })
            }
            AdmissionPolicy::QueueDepth { max_outstanding } => {
                invalid_if(max_outstanding == 0, || {
                    "queue-depth gate needs max_outstanding >= 1".to_string()
                })
            }
        }
    }
}

/// Per-phase (burst/trough/curve-segment) slice of the report.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseReport {
    /// Phase label from the traffic generator.
    pub label: String,
    /// Requests that arrived in this phase.
    pub offered: usize,
    /// ... of which admitted.
    pub admitted: usize,
    /// ... of which completed.
    pub completed: usize,
    /// ... rejected at admission.
    pub rejected: usize,
    /// ... shed after admission.
    pub shed: usize,
    /// ... preempted after admission.
    pub preempted: usize,
    /// Deadline-carrying arrivals of this phase that met their deadline,
    /// over all deadline-carrying arrivals (rejected/shed/preempted ones
    /// count as misses); 1.0 when the phase carried no SLOs.
    pub slo_attainment: f64,
    /// 99th-percentile completion latency of the phase, ms (0 when the
    /// phase completed nothing). Histogram-quantized (≤ 1.6 % error).
    pub p99_ms: f64,
    /// 99.9th-percentile completion latency of the phase, ms; `None` below
    /// 1000 completions (see [`LatencySummary`]).
    pub p999_ms: Option<f64>,
}

/// Log-linear latency histogram: exact counts below 64 ns, then 64
/// sub-buckets per power-of-two octave, giving nearest-rank quantiles with
/// ≤ 1/64 ≈ 1.6 % relative error in O(1) memory. It is the one percentile
/// path of every serving simulator, so no run holds a latency per request.
/// Mean and max are tracked exactly.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct LatencyHistogram {
    counts: Vec<u64>,
    total: u64,
    sum_ns: f64,
    max_ns: f64,
}

/// Values below this are binned exactly (1 ns buckets).
const LINEAR_BUCKETS: usize = 64;
/// Sub-buckets per octave above the linear range.
const SUB_BUCKETS: usize = 64;
/// Octaves 2⁶..2⁶³ after the linear range.
const NUM_BUCKETS: usize = LINEAR_BUCKETS + (64 - 6) * SUB_BUCKETS;

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram {
            counts: vec![0; NUM_BUCKETS],
            total: 0,
            sum_ns: 0.0,
            max_ns: 0.0,
        }
    }
}

impl LatencyHistogram {
    fn bucket_index(value_ns: f64) -> usize {
        let v = if value_ns.is_finite() && value_ns > 0.0 {
            value_ns as u64
        } else {
            0
        };
        if v < LINEAR_BUCKETS as u64 {
            v as usize
        } else {
            let exponent = 63 - v.leading_zeros() as usize; // >= 6
            let mantissa = ((v >> (exponent - 6)) & 63) as usize;
            LINEAR_BUCKETS + (exponent - 6) * SUB_BUCKETS + mantissa
        }
    }

    /// Midpoint of a bucket's value range (the reported quantile value).
    fn bucket_mid_ns(index: usize) -> f64 {
        if index < LINEAR_BUCKETS {
            index as f64 + 0.5
        } else {
            let exponent = 6 + (index - LINEAR_BUCKETS) / SUB_BUCKETS;
            let mantissa = ((index - LINEAR_BUCKETS) % SUB_BUCKETS) as f64;
            let base = (exponent as f64).exp2();
            let width = base / SUB_BUCKETS as f64;
            base + mantissa * width + width / 2.0
        }
    }

    pub(crate) fn record(&mut self, value_ns: f64) {
        self.counts[Self::bucket_index(value_ns)] += 1;
        self.total += 1;
        self.sum_ns += value_ns.max(0.0);
        self.max_ns = self.max_ns.max(value_ns);
    }

    /// Nearest-rank quantile (bucket midpoint), ns; `None` on an empty
    /// histogram.
    fn quantile_ns(&self, q: f64) -> Option<f64> {
        if self.total == 0 {
            return None;
        }
        let rank = ((q * self.total as f64).ceil() as u64).clamp(1, self.total);
        let mut seen = 0u64;
        for (index, &count) in self.counts.iter().enumerate() {
            seen += count;
            if seen >= rank {
                return Some(Self::bucket_mid_ns(index));
            }
        }
        Some(self.max_ns)
    }

    /// Summary with the p99.9 small-sample rule (`None` below 1000
    /// samples); percentiles are bucket midpoints, mean/max exact.
    pub(crate) fn summary(&self) -> LatencySummary {
        if self.total == 0 {
            return LatencySummary::default();
        }
        LatencySummary {
            p50_ms: self.quantile_ns(0.50).unwrap_or(0.0) / 1e6,
            p95_ms: self.quantile_ns(0.95).unwrap_or(0.0) / 1e6,
            p99_ms: self.quantile_ns(0.99).unwrap_or(0.0) / 1e6,
            p999_ms: (self.total >= 1000).then(|| self.quantile_ns(0.999).unwrap_or(0.0) / 1e6),
            mean_ms: self.sum_ns / self.total as f64 / 1e6,
            max_ms: self.max_ns / 1e6,
            tpot_ms: None,
        }
    }
}

/// One arrival phase's slice of the [`Intake`]: how its requests ended.
#[derive(Debug, Clone, Default)]
pub(crate) struct PhaseLedger {
    pub(crate) offered: usize,
    pub(crate) admitted: usize,
    pub(crate) rejected: usize,
    pub(crate) shed: usize,
    pub(crate) preempted: usize,
    pub(crate) completed: usize,
    /// Deadline-carrying arrivals; of those, the ones that completed (met
    /// or missed), and the ones that met their deadline.
    pub(crate) slo_tracked: usize,
    pub(crate) slo_completed: usize,
    pub(crate) slo_met: usize,
    hist: LatencyHistogram,
}

impl PhaseLedger {
    pub(crate) fn report(&self, label: String) -> PhaseReport {
        let latency = self.hist.summary();
        PhaseReport {
            label,
            offered: self.offered,
            admitted: self.admitted,
            completed: self.completed,
            rejected: self.rejected,
            shed: self.shed,
            preempted: self.preempted,
            slo_attainment: if self.slo_tracked > 0 {
                self.slo_met as f64 / self.slo_tracked as f64
            } else {
                1.0
            },
            p99_ms: latency.p99_ms,
            p999_ms: latency.p999_ms,
        }
    }
}

/// One run's intake: the admission gate, every request's fate per arrival
/// phase (run-wide counts sum the phases), the latency histogram and span.
#[derive(Debug)]
pub(crate) struct Intake {
    admission: AdmissionPolicy,
    /// Token-bucket level and the time it was last refilled.
    tokens: f64,
    last_refill_ns: f64,
    pub(crate) phases: Vec<PhaseLedger>,
    pub(crate) hist: LatencyHistogram,
    /// NaN until the first arrival.
    pub(crate) first_arrival_ns: f64,
    last_arrival_ns: f64,
    last_completion_ns: f64,
}

impl Intake {
    /// An empty intake gating with `admission`, one phase ledger per
    /// arrival phase of `trace`.
    pub(crate) fn new(admission: AdmissionPolicy, trace: &RequestTrace) -> Self {
        Intake {
            admission,
            tokens: match admission {
                AdmissionPolicy::TokenBucket { burst, .. } => burst,
                _ => 0.0,
            },
            last_refill_ns: 0.0,
            phases: vec![PhaseLedger::default(); trace.phase_labels().len()],
            hist: LatencyHistogram::default(),
            first_arrival_ns: f64::NAN,
            last_arrival_ns: f64::NEG_INFINITY,
            last_completion_ns: 0.0,
        }
    }

    /// The ledger of `request`'s arrival phase.
    pub(crate) fn phase(&mut self, request: &InferenceRequest) -> &mut PhaseLedger {
        let index = (request.phase as usize).min(self.phases.len() - 1);
        &mut self.phases[index]
    }

    /// A run-wide count: one phase counter summed over the phases.
    pub(crate) fn total(&self, count: fn(&PhaseLedger) -> usize) -> usize {
        self.phases.iter().map(count).sum()
    }

    /// Counts an offered request, rejecting a NaN arrival time or a step
    /// back in time.
    pub(crate) fn on_offered(&mut self, request: &InferenceRequest) -> Result<()> {
        let now = request.arrival_ns;
        if now.is_nan() || now < self.last_arrival_ns {
            return Err(RuntimeError::InvalidConfig(
                "arrivals must be sorted by non-decreasing arrival_ns".to_string(),
            ));
        }
        if self.first_arrival_ns.is_nan() {
            self.first_arrival_ns = now;
        }
        self.last_arrival_ns = now;
        let phase = self.phase(request);
        phase.offered += 1;
        phase.slo_tracked += usize::from(request.has_deadline());
        Ok(())
    }

    /// The token bucket at `now_ns`: refills, then spends a whole token or
    /// refuses. Every other policy passes.
    pub(crate) fn take_token(&mut self, now_ns: f64) -> bool {
        let AdmissionPolicy::TokenBucket { rate_qps, burst } = self.admission else {
            return true;
        };
        self.tokens = (self.tokens + (now_ns - self.last_refill_ns) * 1e-9 * rate_qps).min(burst);
        self.last_refill_ns = now_ns;
        if self.tokens < 1.0 {
            return false;
        }
        self.tokens -= 1.0;
        true
    }

    /// The queue-depth gate: true when `outstanding()` requests fill it.
    /// Every other policy has room and never asks for the count.
    pub(crate) fn queue_full(&self, outstanding: impl FnOnce() -> usize) -> bool {
        match self.admission {
            AdmissionPolicy::QueueDepth { max_outstanding } => outstanding() >= max_outstanding,
            _ => false,
        }
    }

    /// Counts a completion at `completion_ns` with its latency.
    pub(crate) fn on_completed(&mut self, request: &InferenceRequest, completion_ns: f64) {
        let latency = completion_ns - request.arrival_ns;
        self.last_completion_ns = self.last_completion_ns.max(completion_ns);
        self.hist.record(latency);
        let phase = self.phase(request);
        phase.completed += 1;
        phase.hist.record(latency);
        if request.has_deadline() {
            phase.slo_completed += 1;
            phase.slo_met += usize::from(completion_ns <= request.deadline_ns);
        }
    }

    /// Checks both conservation identities of every phase after the final
    /// drain; a mismatch (a lost or double-counted request, an engine bug)
    /// is [`RuntimeError::Internal`] naming the identity.
    pub(crate) fn check(&self) -> Result<()> {
        for p in &self.phases {
            for (identity, total, sum) in [
                (
                    "offered = admitted + rejected",
                    p.offered,
                    p.admitted + p.rejected,
                ),
                (
                    "admitted = completed + shed + preempted",
                    p.admitted,
                    p.completed + p.shed + p.preempted,
                ),
            ] {
                if total != sum {
                    return Err(RuntimeError::Internal(format!(
                        "conservation violated: {identity} ({total} != {sum})"
                    )));
                }
            }
        }
        Ok(())
    }

    /// Span from the first arrival to the last completion (or the last
    /// arrival if later), seconds; 0 before any arrival.
    pub(crate) fn sim_seconds(&self) -> f64 {
        let span_end = self.last_completion_ns.max(self.last_arrival_ns);
        (span_end - self.first_arrival_ns).max(0.0) * 1e-9
    }

    /// `count` per simulated second; 0 over an empty span.
    pub(crate) fn per_second(&self, count: usize) -> f64 {
        let sim_seconds = self.sim_seconds();
        if sim_seconds > 0.0 {
            count as f64 / sim_seconds
        } else {
            0.0
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficConfig;

    #[test]
    fn histogram_quantiles_track_exact_values_within_bucket_error() {
        let mut hist = LatencyHistogram::default();
        let mut exact: Vec<f64> = (0..20_000)
            .map(|i| 1e3 + (i as f64 * 997.0) % 9.7e7)
            .collect();
        for &v in &exact {
            hist.record(v);
        }
        exact.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for q in [0.5, 0.95, 0.99, 0.999] {
            let rank = ((q * exact.len() as f64).ceil() as usize).clamp(1, exact.len());
            let truth = exact[rank - 1];
            let approx = hist.quantile_ns(q).unwrap();
            assert!(
                (approx - truth).abs() / truth < 0.016,
                "q={q}: histogram {approx} vs exact {truth}"
            );
        }
        let summary = hist.summary();
        assert!(summary.p999_ms.is_some());
        let exact_mean = exact.iter().sum::<f64>() / exact.len() as f64;
        assert!((summary.mean_ms * 1e6 - exact_mean).abs() < 1e-3);
        assert_eq!(summary.max_ms * 1e6, *exact.last().unwrap());
    }

    #[test]
    fn histogram_p999_follows_the_small_sample_rule() {
        let mut hist = LatencyHistogram::default();
        for i in 0..999 {
            hist.record(1e6 + i as f64);
        }
        assert_eq!(hist.summary().p999_ms, None);
        hist.record(2e6);
        assert!(hist.summary().p999_ms.is_some());
        assert_eq!(
            LatencyHistogram::default().summary(),
            LatencySummary::default()
        );
    }

    #[test]
    fn ledger_check_catches_a_lost_request() {
        let trace = RequestTrace::new(TrafficConfig::default()).unwrap();
        let phase = PhaseLedger {
            offered: 3,
            admitted: 2,
            rejected: 1,
            completed: 1,
            ..PhaseLedger::default()
        };
        let ledger = Intake {
            phases: vec![phase.clone()],
            ..Intake::new(AdmissionPolicy::Unbounded, &trace)
        };
        let err = ledger.check().unwrap_err();
        assert!(matches!(err, RuntimeError::Internal(_)), "{err}");
        assert!(err.to_string().contains("admitted = completed"), "{err}");
        // The same phase with the request accounted for passes.
        let balanced = Intake {
            phases: vec![PhaseLedger { shed: 1, ..phase }],
            ..Intake::new(AdmissionPolicy::Unbounded, &trace)
        };
        assert!(balanced.check().is_ok());
    }
}
