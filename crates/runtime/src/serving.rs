//! The closed-loop serving workload: Poisson arrivals at a configurable
//! offered QPS, a homogeneous or heterogeneous request mix, and the batching
//! policy — plus the latency summary every simulator reports.
//!
//! A [`ServingConfig`] describes one run: requests either all at
//! [`ServingConfig::seq_len`] or drawn from a weighted mix of
//! [`RequestClass`]es (per-request sequence lengths, SLOs and priority
//! classes, sampled from a seeded, deterministic distribution), queued in a
//! [`BatchScheduler`](crate::batch::BatchScheduler) under the configured
//! [`SchedulingPolicy`](crate::policy::SchedulingPolicy) and launched under
//! the batching-window semantics documented on
//! [`SchedulerConfig::max_wait_ns`].
//!
//! [`ClusterSim`](crate::cluster::ClusterSim) runs it: its arrivals are the
//! Poisson [`RequestTrace`](crate::traffic::RequestTrace) built from the
//! config, fanned out over `chips` replicas of any `hyflex_pim::Backend`
//! (one chip is the single-device case), and driven through the one serving
//! engine, [`OverloadSim`](crate::overload::OverloadSim), with admission,
//! shedding, preemption and autoscaling off. Its latency percentiles come
//! from the engine's log-linear histogram (see [`LatencySummary`]). The
//! unit tests here pin the single-device behaviour of that path: the
//! batching window, SLO accounting, goodput and the request mix.

pub use crate::batch::SchedulerConfig;

/// One stratum of a heterogeneous request mix: a sequence length with a
/// sampling weight, and the SLO metadata its requests carry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RequestClass {
    /// Sequence length of requests in this class.
    pub seq_len: usize,
    /// Relative sampling weight (any positive scale; weights are
    /// normalized over the mix).
    pub weight: f64,
    /// Relative SLO: a request arriving at `t` carries the absolute
    /// deadline `t + slo_ns`. `f64::INFINITY` (the default) means the
    /// class carries no SLO and is excluded from attainment accounting.
    pub slo_ns: f64,
    /// Priority class for the strict-priority policy (lower = more urgent).
    pub priority: u8,
}

impl RequestClass {
    /// A class of the given shape and weight, with no SLO and the default
    /// priority.
    pub fn new(seq_len: usize, weight: f64) -> Self {
        RequestClass {
            seq_len,
            weight,
            slo_ns: f64::INFINITY,
            priority: 0,
        }
    }

    /// The same class with a relative SLO attached.
    #[must_use]
    pub fn with_slo_ns(mut self, slo_ns: f64) -> Self {
        self.slo_ns = slo_ns;
        self
    }

    /// The same class assigned to a priority level (lower = more urgent).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }
}

/// Workload and policy of one serving run.
#[derive(Debug, Clone, PartialEq)]
pub struct ServingConfig {
    /// Offered load: mean arrival rate, requests per second.
    pub qps: f64,
    /// Number of requests in the run.
    pub num_requests: usize,
    /// Sequence length of every request when [`classes`](ServingConfig::classes) is empty.
    pub seq_len: usize,
    /// Relative SLO applied to every request when
    /// [`classes`](ServingConfig::classes) is empty; `f64::INFINITY` (the
    /// default) tracks no deadline.
    pub slo_ns: f64,
    /// Heterogeneous request mix: each request samples a [`RequestClass`]
    /// by weight (seeded, deterministic). Empty (the default) means a
    /// homogeneous run at (`seq_len`, `slo_ns`, priority 0) — and, because
    /// no mix draw consumes randomness, an arrival process bit-identical
    /// to the pre-mix simulator's.
    pub classes: Vec<RequestClass>,
    /// Read by nothing: a backend carries its own mapping (for HyFlexPIM,
    /// the SLC rate passed to `HyFlexPim::new`). The field stays only
    /// because the stand-alone `e2ebench` package still sets it.
    pub slc_rank_fraction: f64,
    /// Seed of the arrival process (inter-arrival times and mix draws).
    pub seed: u64,
    /// Batching policy.
    pub scheduler: SchedulerConfig,
}

impl Default for ServingConfig {
    fn default() -> Self {
        ServingConfig {
            qps: 1000.0,
            num_requests: 2000,
            seq_len: 128,
            slo_ns: f64::INFINITY,
            classes: Vec::new(),
            slc_rank_fraction: 0.1,
            seed: 7,
            scheduler: SchedulerConfig::default(),
        }
    }
}

/// Latency distribution of a run, milliseconds.
///
/// Every serving simulator fills it from one log-linear histogram (64
/// sub-buckets per power-of-two octave). A percentile is the midpoint of
/// the bucket holding the nearest-rank sample `x[⌈q·n⌉]` (1-indexed), so it
/// is within 1/64 ≈ 1.6 % of that sample — not necessarily a latency any
/// request observed, and possibly a little above the exact maximum. The
/// histogram holds O(1) memory however many requests a run completes. Mean
/// and maximum are exact. Nearest rank is only meaningful once the sample can resolve the
/// quantile — for `n < 1/(1−q)` the rank clamps to `n` and the
/// "percentile" degenerates to the maximum — so the low quantiles
/// (p50/p95/p99) are always reported, while the p99.9 tail is `Option` and
/// stays `None` until the run completed at least 1000 samples.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencySummary {
    /// Median latency.
    pub p50_ms: f64,
    /// 95th-percentile latency.
    pub p95_ms: f64,
    /// 99th-percentile latency.
    pub p99_ms: f64,
    /// 99.9th-percentile latency, or `None` when the run completed fewer
    /// than 1000 samples (`1/(1−0.999)` — the smallest sample whose
    /// nearest-rank p99.9 is distinguishable from the maximum).
    pub p999_ms: Option<f64>,
    /// Mean latency.
    pub mean_ms: f64,
    /// Worst-case latency.
    pub max_ms: f64,
    /// Mean time per output token over the run's decoded tokens, or `None`
    /// for prefill-only runs (the encoder-pass simulators, whose requests
    /// complete in one batched pass). Populated by the decode-serving
    /// engine ([`crate::decode`]), where a request's latency spans many
    /// generation iterations and the tail is better read per token than
    /// per request.
    pub tpot_ms: Option<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::InferenceRequest;
    use crate::cluster::{ClusterConfig, ClusterSim, DispatchPolicy};
    use crate::policy::SchedulingPolicy;
    use crate::Result;
    use hyflex_baselines::{NonPim, Sprint};
    use hyflex_pim::backend::{Backend, HyFlexPim};
    use hyflex_transformer::ModelConfig;

    /// `backend` serving `config` as a single device: a one-chip cluster.
    fn one_chip<B: Backend + 'static>(backend: B, config: ServingConfig) -> Result<ClusterSim<B>> {
        ClusterSim::with_backend(
            backend,
            ClusterConfig {
                chips: 1,
                dispatch: DispatchPolicy::RoundRobin,
                serving: config,
            },
        )
    }

    /// One paper chip serving BERT-Base at 10 % SLC.
    fn serve(config: ServingConfig) -> Result<ClusterSim> {
        one_chip(
            HyFlexPim::paper(ModelConfig::bert_base(), 0.1).unwrap(),
            config,
        )
    }

    fn sim(qps: f64, max_batch_size: usize, num_requests: usize) -> ClusterSim {
        serve(ServingConfig {
            qps,
            num_requests,
            scheduler: SchedulerConfig {
                max_batch_size,
                ..SchedulerConfig::default()
            },
            ..ServingConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn construction_rejects_bad_loads() {
        let bad_qps = ServingConfig {
            qps: 0.0,
            ..ServingConfig::default()
        };
        assert!(serve(bad_qps).is_err());
        let empty = ServingConfig {
            num_requests: 0,
            ..ServingConfig::default()
        };
        assert!(serve(empty).is_err());
        let bad_slo = ServingConfig {
            slo_ns: 0.0,
            ..ServingConfig::default()
        };
        assert!(serve(bad_slo).is_err());
        let bad_class = ServingConfig {
            classes: vec![RequestClass::new(128, 0.0)],
            ..ServingConfig::default()
        };
        assert!(serve(bad_class).is_err());
        let bad_class_slo = ServingConfig {
            classes: vec![RequestClass::new(128, 1.0).with_slo_ns(-1.0)],
            ..ServingConfig::default()
        };
        assert!(serve(bad_class_slo).is_err());
    }

    #[test]
    fn run_completes_every_request_with_ordered_percentiles() {
        let report = sim(500.0, 8, 400).run().unwrap();
        assert_eq!(report.completed, 400);
        assert!(report.batches >= 400 / 8);
        assert!(report.sim_seconds > 0.0);
        assert!(report.latency.p50_ms > 0.0);
        assert!(report.latency.p50_ms <= report.latency.p95_ms);
        assert!(report.latency.p95_ms <= report.latency.p99_ms);
        assert!(report.latency.p99_ms <= report.latency.max_ms);
        assert!(report.latency.mean_ms <= report.latency.max_ms);
        assert!(report.mean_batch_size >= 1.0);
        assert!(report.mean_batch_size <= 8.0);
        assert!(report.mean_chip_utilization > 0.0 && report.mean_chip_utilization <= 1.0);
        // No request carries an SLO, so attainment is trivially perfect.
        assert_eq!(report.slo_attainment, 1.0);
    }

    #[test]
    fn runs_are_deterministic_for_a_seed() {
        let a = sim(800.0, 8, 300).run().unwrap();
        let b = sim(800.0, 8, 300).run().unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn baseline_backends_serve_through_the_same_machinery() {
        let config = ServingConfig {
            qps: 200.0,
            num_requests: 120,
            ..ServingConfig::default()
        };
        for report in [
            one_chip(Sprint::new(ModelConfig::bert_base()), config.clone())
                .unwrap()
                .run()
                .unwrap(),
            one_chip(NonPim::new(ModelConfig::bert_base()), config.clone())
                .unwrap()
                .run()
                .unwrap(),
        ] {
            assert_eq!(report.completed, 120);
            assert!(report.latency.p50_ms > 0.0);
            assert!(report.latency.p50_ms <= report.latency.p99_ms);
            assert!(report.mean_chip_utilization > 0.0 && report.mean_chip_utilization <= 1.0);
        }
    }

    #[test]
    fn batching_raises_throughput_under_overload() {
        // Offer far more load than the single-request service rate; the
        // larger batch cap must complete the run sooner.
        let single = sim(20_000.0, 1, 300).run().unwrap();
        let batched = sim(20_000.0, 16, 300).run().unwrap();
        assert!(
            batched.achieved_qps > single.achieved_qps,
            "batched {} <= single {}",
            batched.achieved_qps,
            single.achieved_qps
        );
        assert!(batched.mean_batch_size > 2.0);
        assert!(batched.latency.p99_ms < single.latency.p99_ms);
    }

    #[test]
    fn light_load_keeps_batches_small_and_queues_short() {
        let report = sim(50.0, 16, 200).run().unwrap();
        assert!(report.mean_batch_size < 4.0);
        assert!(report.mean_chip_utilization < 0.9);
        assert!(report.mean_queue_ms <= report.latency.mean_ms);
    }

    #[test]
    fn saturated_device_never_adds_window_delay() {
        // Regression for the window-anchor bug: the old timer re-armed the
        // batching window at `ready = max(device_free, first_arrival)`, so
        // a request that had already out-waited the window while the device
        // was busy waited an *extra* full `max_wait` after the device freed.
        // The fixed anchor is `oldest_arrival + max_wait` (clamped to
        // `ready`): a saturated device launches the moment it frees.
        let max_wait = 10_000.0; // 10 µs, far below the batch makespan
        let s = serve(ServingConfig {
            scheduler: SchedulerConfig {
                max_batch_size: 2,
                max_wait_ns: max_wait,
                ..SchedulerConfig::default()
            },
            ..ServingConfig::default()
        })
        .unwrap();
        let arrivals = [
            // A full batch launches at t = 0 and occupies the device.
            InferenceRequest::new(0, 0.0, 128),
            InferenceRequest::new(1, 0.0, 128),
            // Arrives while the device executes batch 0 and out-waits the
            // window long before the device frees.
            InferenceRequest::new(2, 1_000.0, 128),
            // A distant future arrival keeps the run "mid-stream" when
            // batch 1's launch is decided.
            InferenceRequest::new(3, 1e12, 128),
        ];
        let (_, traces) = s.replay_traced(&arrivals).unwrap();
        assert_eq!(traces.len(), 3);
        assert_eq!(traces[0].batch.len(), 2);
        assert_eq!(traces[0].launch_ns, 0.0);
        let device_free = traces[0].launch_ns + traces[0].makespan_ns;
        assert!(
            device_free > arrivals[2].arrival_ns + max_wait,
            "test premise: request 2 out-waits the window while the device is busy"
        );
        assert_eq!(
            traces[1].launch_ns, device_free,
            "a request that already out-waited the window must launch the \
             moment the device frees"
        );
    }

    #[test]
    fn window_is_non_clairvoyant_at_end_of_run() {
        // Regression for the end-of-run clairvoyance bug: the old timer
        // launched the final non-full batch instantly because it could see
        // there were no further arrivals, while an identical mid-run batch
        // idled until its window deadline. The fixed window always waits
        // min(max_wait, time-to-fill), so the two cases agree.
        let s = sim(1.0, 16, 3);
        let max_wait = SchedulerConfig::default().max_wait_ns;
        let lone = [InferenceRequest::new(0, 0.0, 128)];
        let (_, lone_traces) = s.replay_traced(&lone).unwrap();
        assert_eq!(lone_traces.len(), 1);
        assert_eq!(
            lone_traces[0].launch_ns, max_wait,
            "a lone request must wait out the batching window"
        );
        // The same request followed by an arrival provably beyond the
        // window deadline: the first batch must launch identically.
        let followed = [
            InferenceRequest::new(0, 0.0, 128),
            InferenceRequest::new(1, 100.0 * max_wait, 128),
        ];
        let (_, followed_traces) = s.replay_traced(&followed).unwrap();
        assert_eq!(followed_traces[0].launch_ns, lone_traces[0].launch_ns);
    }

    #[test]
    fn window_still_launches_early_the_moment_the_batch_fills() {
        let s = sim(1.0, 2, 3); // batch cap 2
        let max_wait = SchedulerConfig::default().max_wait_ns;
        let fill_at = max_wait / 4.0;
        let arrivals = [
            InferenceRequest::new(0, 0.0, 128),
            InferenceRequest::new(1, fill_at, 128),
            InferenceRequest::new(2, 1e12, 128),
        ];
        let (_, traces) = s.replay_traced(&arrivals).unwrap();
        assert_eq!(traces[0].batch.len(), 2);
        assert_eq!(
            traces[0].launch_ns, fill_at,
            "a filling arrival launches the batch immediately"
        );
    }

    #[test]
    fn heterogeneous_mix_draws_every_class_deterministically() {
        let config = ServingConfig {
            qps: 2000.0,
            num_requests: 400,
            classes: vec![
                RequestClass::new(64, 3.0).with_slo_ns(2e6).with_priority(0),
                RequestClass::new(256, 1.0).with_priority(1),
            ],
            ..ServingConfig::default()
        };
        let sim = serve(config).unwrap();
        let (report, traces) = sim.run_traced().unwrap();
        let arrivals: Vec<InferenceRequest> = traces
            .iter()
            .flat_map(|t| t.batch.requests.iter().copied())
            .collect();
        let short = arrivals.iter().filter(|r| r.seq_len == 64).count();
        let long = arrivals.iter().filter(|r| r.seq_len == 256).count();
        assert_eq!(short + long, 400);
        // 3:1 weights: both classes are well represented.
        assert!(short > long && long > 40, "short {short}, long {long}");
        // Class metadata flows onto the requests.
        assert!(arrivals
            .iter()
            .filter(|r| r.seq_len == 64)
            .all(|r| r.has_deadline() && r.priority == 0));
        assert!(arrivals
            .iter()
            .filter(|r| r.seq_len == 256)
            .all(|r| !r.has_deadline() && r.priority == 1));
        // Deterministic: the same seed reproduces the stream and report.
        assert_eq!((report.clone(), traces), sim.run_traced().unwrap());
        assert_eq!(report, sim.run().unwrap());
        assert_eq!(report.completed, 400);
    }

    #[test]
    fn slo_attainment_tracks_only_deadline_carrying_requests() {
        // Light load, generous SLO: everything tracked meets its deadline.
        let generous = ServingConfig {
            qps: 100.0,
            num_requests: 150,
            slo_ns: 1e9, // 1 s
            ..ServingConfig::default()
        };
        let report = serve(generous).unwrap().run().unwrap();
        assert_eq!(report.slo_attainment, 1.0);
        // An SLO tighter than the single-request latency can never be met.
        let impossible = ServingConfig {
            qps: 100.0,
            num_requests: 150,
            slo_ns: 1.0, // 1 ns
            ..ServingConfig::default()
        };
        let report = serve(impossible).unwrap().run().unwrap();
        assert_eq!(report.slo_attainment, 0.0);
    }

    #[test]
    fn edf_policy_runs_deterministically_with_mixed_deadlines() {
        let config = ServingConfig {
            qps: 8000.0,
            num_requests: 300,
            classes: vec![
                RequestClass::new(64, 1.0).with_slo_ns(3e6),
                RequestClass::new(128, 1.0),
            ],
            scheduler: SchedulerConfig {
                policy: SchedulingPolicy::Edf,
                ..SchedulerConfig::default()
            },
            ..ServingConfig::default()
        };
        let sim = serve(config).unwrap();
        let a = sim.run().unwrap();
        assert_eq!(a, sim.run().unwrap());
        assert_eq!(a.completed, 300);
        assert!(a.slo_attainment >= 0.0 && a.slo_attainment <= 1.0);
    }

    #[test]
    fn replay_rejects_degenerate_streams() {
        let s = sim(100.0, 4, 10);
        assert!(s.replay_traced(&[]).is_err());
        let unsorted = [
            InferenceRequest::new(0, 10.0, 128),
            InferenceRequest::new(1, 5.0, 128),
        ];
        assert!(s.replay_traced(&unsorted).is_err());
    }

    #[test]
    fn goodput_counts_only_useful_completions() {
        // No SLOs anywhere: every completion is useful.
        let report = sim(500.0, 8, 300).run().unwrap();
        assert_eq!(report.goodput_qps, report.achieved_qps);
        // An SLO tighter than the single-request latency: every completion
        // misses, so the run achieves throughput but zero goodput.
        let impossible = ServingConfig {
            qps: 100.0,
            num_requests: 150,
            slo_ns: 1.0, // 1 ns
            ..ServingConfig::default()
        };
        let report = serve(impossible).unwrap().run().unwrap();
        assert!(report.achieved_qps > 0.0);
        assert_eq!(report.goodput_qps, 0.0);
    }
}
