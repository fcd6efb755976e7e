//! Closed-loop serving: N backend replicas behind a dispatcher.
//!
//! [`ClusterSim`] runs the closed-loop [`ServingConfig`] workload on a fleet
//! of identical chips; one chip is the single-device serving run. One
//! Poisson arrival stream (with the config's heterogeneous request mix and
//! SLO semantics) is routed to chips by a [`DispatchPolicy`] — round-robin
//! or join-shortest-queue — and every chip runs its own
//! [`BatchScheduler`](crate::batch::BatchScheduler) with the configured
//! batching window and [`SchedulingPolicy`](crate::policy::SchedulingPolicy).
//!
//! A cluster is a configuration of the one serving engine,
//! [`OverloadSim`]: unbounded admission, no shedding, no preemption and no
//! autoscaler, over a Poisson [`RequestTrace`] built from the
//! [`ServingConfig`]. The batching-window semantics, dispatch rules and
//! histogram-quantized latency percentiles are therefore the engine's (see
//! [`crate::overload`]), and a run is deterministic for a seed.

use crate::batch::{Batch, InferenceRequest};
use crate::overload::{OverloadConfig, OverloadSim};
use crate::serving::{LatencySummary, ServingConfig};
use crate::traffic::{ArrivalProcess, RequestTrace, TrafficConfig};
use crate::Result;
use hyflex_pim::backend::{Backend, HyFlexPim};
use std::marker::PhantomData;
use std::sync::Arc;

/// How the cluster routes an arriving request to a chip.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// Cycle through chips in index order, one request each.
    #[default]
    RoundRobin,
    /// Send each request to the chip with the fewest outstanding requests
    /// (queued plus launched-but-incomplete) at its arrival time; ties go
    /// to the lowest chip index.
    JoinShortestQueue,
}

impl DispatchPolicy {
    /// Every dispatch policy, in display order.
    pub const ALL: [DispatchPolicy; 2] = [
        DispatchPolicy::RoundRobin,
        DispatchPolicy::JoinShortestQueue,
    ];

    /// Stable name (accepted back by [`DispatchPolicy::parse`]).
    pub fn name(&self) -> &'static str {
        match self {
            DispatchPolicy::RoundRobin => "round-robin",
            DispatchPolicy::JoinShortestQueue => "jsq",
        }
    }

    /// Parses a policy name as accepted by the binaries' `--dispatch` flag.
    pub fn parse(name: &str) -> Option<DispatchPolicy> {
        match name.to_ascii_lowercase().as_str() {
            "round-robin" | "rr" => Some(DispatchPolicy::RoundRobin),
            "jsq" | "shortest-queue" | "join-shortest-queue" => {
                Some(DispatchPolicy::JoinShortestQueue)
            }
            _ => None,
        }
    }
}

impl std::fmt::Display for DispatchPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Cluster topology and workload of one multi-chip run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Number of identical backend replicas.
    pub chips: usize,
    /// Request routing policy.
    pub dispatch: DispatchPolicy,
    /// Workload and per-chip batching policy (the single-chip config; its
    /// `qps` is the load offered to the whole cluster).
    pub serving: ServingConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            chips: 2,
            dispatch: DispatchPolicy::RoundRobin,
            serving: ServingConfig::default(),
        }
    }
}

/// One launched batch, as observed by the engine (returned by the
/// `*_traced` entry points for tests and trace analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTrace {
    /// Index of the chip that executed the batch (always 0 single-chip).
    pub chip: usize,
    /// Time the batch launched, ns.
    pub launch_ns: f64,
    /// Modeled makespan of the batch, ns.
    pub makespan_ns: f64,
    /// The formed batch (requests, padded shape, cells used).
    pub batch: Batch,
}

/// Outcome of one cluster run.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Number of chips simulated.
    pub chips: usize,
    /// Dispatch policy of the run.
    pub dispatch: DispatchPolicy,
    /// Requests completed across the cluster (the loop is closed, so this
    /// always equals the number of offered requests).
    pub completed: usize,
    /// Batches executed across all chips.
    pub batches: usize,
    /// Wall-clock span from first arrival to last completion, seconds.
    pub sim_seconds: f64,
    /// Configured offered load (whole cluster), requests per second.
    pub offered_qps: f64,
    /// Completed requests per simulated second.
    pub achieved_qps: f64,
    /// Goodput under SLO: *useful* completions per simulated second, where
    /// a completion is useful if it met its deadline or carried no SLO.
    /// Equals `achieved_qps` when no request carries an SLO.
    pub goodput_qps: f64,
    /// End-to-end request latency distribution.
    pub latency: LatencySummary,
    /// Fraction of deadline-carrying requests that completed by their
    /// deadline (1.0 when no request carries an SLO).
    pub slo_attainment: f64,
    /// Mean formed batch size across the cluster.
    pub mean_batch_size: f64,
    /// Mean time a request waited before its batch launched, milliseconds.
    pub mean_queue_ms: f64,
    /// Per-chip completed-request counts (sums to `completed`).
    pub per_chip_completed: Vec<usize>,
    /// Per-chip busy fraction over the chip's active span.
    pub per_chip_utilization: Vec<f64>,
    /// Mean of `per_chip_utilization`.
    pub mean_chip_utilization: f64,
}

/// The closed-loop serving simulator on one chip or many, generic over the
/// replicated device.
#[derive(Debug)]
pub struct ClusterSim<B: Backend = HyFlexPim> {
    engine: OverloadSim,
    /// The replicated device type; the engine holds the replicas.
    backend: PhantomData<B>,
}

impl<B: Backend> Clone for ClusterSim<B> {
    fn clone(&self) -> Self {
        ClusterSim {
            engine: self.engine.clone(),
            backend: PhantomData,
        }
    }
}

impl<B: Backend> ClusterSim<B> {
    /// Number of chips in the cluster.
    pub fn chips(&self) -> usize {
        self.engine.replicas()
    }

    /// The dispatch policy.
    pub fn dispatch(&self) -> DispatchPolicy {
        self.engine.config().dispatch
    }
}

impl<B: Backend + 'static> ClusterSim<B> {
    /// Builds a cluster of `config.chips` replicas of `backend`.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`](crate::RuntimeError::InvalidConfig)
    /// for a zero-chip cluster, non-positive load, an empty run, or a
    /// degenerate request mix (non-positive weight or SLO), and propagates
    /// scheduler-configuration errors (including any request shape in the
    /// mix that does not fit the backend's tile capacity).
    pub fn with_backend(backend: B, config: ClusterConfig) -> Result<Self> {
        let serving = config.serving;
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: serving.qps },
            rate_curve: Vec::new(),
            num_requests: serving.num_requests,
            seq_len: serving.seq_len,
            slo_ns: serving.slo_ns,
            classes: serving.classes,
            seed: serving.seed,
        })?;
        let replica: Arc<dyn Backend> = Arc::new(backend);
        let engine = OverloadSim::with_replicas(
            vec![replica; config.chips],
            OverloadConfig {
                scheduler: serving.scheduler,
                dispatch: config.dispatch,
                ..OverloadConfig::new(trace)
            },
        )?;
        Ok(ClusterSim {
            engine,
            backend: PhantomData,
        })
    }

    /// Runs the simulation to completion.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and device-model errors.
    pub fn run(&self) -> Result<ClusterReport> {
        self.report(self.engine.config().trace.stream(), None)
    }

    /// Runs the simulation and also returns every launched batch.
    ///
    /// # Errors
    ///
    /// Propagates scheduler and device-model errors.
    pub fn run_traced(&self) -> Result<(ClusterReport, Vec<BatchTrace>)> {
        let mut traces = Vec::new();
        let report = self.report(self.engine.config().trace.stream(), Some(&mut traces))?;
        Ok((report, traces))
    }

    /// Replays an explicit arrival stream (sorted by `arrival_ns`) through
    /// the cluster instead of sampling the configured Poisson process.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`](crate::RuntimeError::InvalidConfig)
    /// for an empty or unsorted stream and propagates scheduler and
    /// device-model errors.
    pub fn replay_traced(
        &self,
        arrivals: &[InferenceRequest],
    ) -> Result<(ClusterReport, Vec<BatchTrace>)> {
        let mut traces = Vec::new();
        let report = self.report(arrivals.iter().copied(), Some(&mut traces))?;
        Ok((report, traces))
    }

    /// Drives `requests` through the engine and reads the report off its
    /// ledger; launched batches go to `sink` when one is given.
    fn report(
        &self,
        requests: impl IntoIterator<Item = InferenceRequest>,
        sink: Option<&mut Vec<BatchTrace>>,
    ) -> Result<ClusterReport> {
        let (ledger, replicas) = self.engine.drive(requests, sink)?;
        let span_start = ledger.first_arrival_ns;
        let run = self.engine.report(ledger, &replicas);
        let per_chip_utilization: Vec<f64> = (replicas.iter())
            .map(|r| {
                if r.device_free > span_start {
                    r.busy_ns / (r.device_free - span_start)
                } else {
                    0.0
                }
            })
            .collect();
        Ok(ClusterReport {
            chips: run.replicas,
            dispatch: self.dispatch(),
            completed: run.completed,
            batches: run.batches,
            sim_seconds: run.sim_seconds,
            offered_qps: run.offered_qps,
            achieved_qps: run.achieved_qps,
            goodput_qps: run.goodput_qps,
            latency: run.latency,
            slo_attainment: run.slo_attainment,
            mean_batch_size: run.mean_batch_size,
            mean_queue_ms: run.mean_queue_ms,
            per_chip_completed: run.per_replica_completed,
            mean_chip_utilization: per_chip_utilization.iter().sum::<f64>() / replicas.len() as f64,
            per_chip_utilization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::PerformanceModel;
    use hyflex_transformer::ModelConfig;

    fn cluster(chips: usize, dispatch: DispatchPolicy, qps: f64) -> ClusterSim {
        let backend = HyFlexPim::new(
            PerformanceModel::paper_default(),
            ModelConfig::bert_base(),
            0.05,
        )
        .unwrap();
        ClusterSim::with_backend(
            backend,
            ClusterConfig {
                chips,
                dispatch,
                serving: ServingConfig {
                    qps,
                    num_requests: 240,
                    ..ServingConfig::default()
                },
            },
        )
        .unwrap()
    }

    #[test]
    fn dispatch_names_round_trip_and_reject_unknowns() {
        for policy in DispatchPolicy::ALL {
            assert_eq!(DispatchPolicy::parse(policy.name()), Some(policy));
            assert_eq!(policy.to_string(), policy.name());
        }
        assert_eq!(
            DispatchPolicy::parse("rr"),
            Some(DispatchPolicy::RoundRobin)
        );
        assert_eq!(
            DispatchPolicy::parse("shortest-queue"),
            Some(DispatchPolicy::JoinShortestQueue)
        );
        assert_eq!(DispatchPolicy::parse("random"), None);
    }

    #[test]
    fn construction_rejects_zero_chips() {
        let backend = HyFlexPim::new(
            PerformanceModel::paper_default(),
            ModelConfig::bert_base(),
            0.05,
        )
        .unwrap();
        let config = ClusterConfig {
            chips: 0,
            ..ClusterConfig::default()
        };
        assert!(ClusterSim::with_backend(backend, config).is_err());
    }

    #[test]
    fn every_chip_serves_and_the_cluster_conserves_requests() {
        for dispatch in DispatchPolicy::ALL {
            let report = cluster(3, dispatch, 6000.0).run().unwrap();
            assert_eq!(report.completed, 240, "{dispatch}");
            assert_eq!(report.per_chip_completed.iter().sum::<usize>(), 240);
            assert_eq!(report.per_chip_completed.len(), 3);
            assert_eq!(report.per_chip_utilization.len(), 3);
            assert!(
                report.per_chip_completed.iter().all(|&c| c > 0),
                "{dispatch}: every chip should serve part of the stream, got \
                 {:?}",
                report.per_chip_completed
            );
            assert!(report.latency.p50_ms > 0.0);
            assert!(report.latency.p50_ms <= report.latency.p99_ms);
            assert!(report.mean_chip_utilization > 0.0 && report.mean_chip_utilization <= 1.0);
        }
    }

    #[test]
    fn cluster_runs_are_deterministic_for_a_seed() {
        for dispatch in DispatchPolicy::ALL {
            let a = cluster(2, dispatch, 5000.0).run().unwrap();
            let b = cluster(2, dispatch, 5000.0).run().unwrap();
            assert_eq!(a, b);
        }
    }

    #[test]
    fn a_one_chip_cluster_matches_the_single_device_simulator() {
        // One chip is the single-device case: the engine on one replica
        // with admission off, over the Poisson trace of the serving config.
        // Driving `OverloadSim` directly on the same backend and trace must
        // give byte-identical numbers.
        let report = cluster(1, DispatchPolicy::RoundRobin, 4000.0)
            .run()
            .unwrap();
        let serving = ServingConfig {
            qps: 4000.0,
            num_requests: 240,
            ..ServingConfig::default()
        };
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps: serving.qps },
            num_requests: serving.num_requests,
            seq_len: serving.seq_len,
            seed: serving.seed,
            ..TrafficConfig::default()
        })
        .unwrap();
        let single = OverloadSim::with_backend(
            HyFlexPim::new(
                PerformanceModel::paper_default(),
                ModelConfig::bert_base(),
                0.05,
            )
            .unwrap(),
            OverloadConfig {
                scheduler: serving.scheduler,
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report.completed, single.completed);
        assert_eq!(report.batches, single.batches);
        assert_eq!(report.latency, single.latency);
        assert_eq!(report.achieved_qps, single.achieved_qps);
        assert_eq!(report.goodput_qps, single.goodput_qps);
        assert_eq!(report.slo_attainment, single.slo_attainment);
        assert_eq!(report.sim_seconds, single.sim_seconds);
        assert_eq!(report.mean_batch_size, single.mean_batch_size);
        assert_eq!(report.mean_queue_ms, single.mean_queue_ms);
        assert_eq!(report.per_chip_completed, single.per_replica_completed);
    }

    #[test]
    fn more_chips_drain_an_overload_faster() {
        // Offered load far beyond one chip's service rate: doubling the
        // fleet must raise sustained throughput and cut tail latency.
        let one = cluster(1, DispatchPolicy::RoundRobin, 12_000.0)
            .run()
            .unwrap();
        let four = cluster(4, DispatchPolicy::RoundRobin, 12_000.0)
            .run()
            .unwrap();
        assert!(
            four.achieved_qps > one.achieved_qps,
            "4 chips {} <= 1 chip {}",
            four.achieved_qps,
            one.achieved_qps
        );
        assert!(four.latency.p99_ms < one.latency.p99_ms);
    }

    #[test]
    fn jsq_balances_at_least_as_evenly_as_round_robin_under_skew() {
        // With a heterogeneous mix, round-robin ignores how much work each
        // request carries; join-shortest-queue reacts to it. Both must
        // still conserve the stream.
        let make = |dispatch| {
            let backend = HyFlexPim::new(
                PerformanceModel::paper_default(),
                ModelConfig::bert_base(),
                0.05,
            )
            .unwrap();
            ClusterSim::with_backend(
                backend,
                ClusterConfig {
                    chips: 3,
                    dispatch,
                    serving: ServingConfig {
                        qps: 9000.0,
                        num_requests: 300,
                        classes: vec![
                            crate::serving::RequestClass::new(64, 2.0),
                            crate::serving::RequestClass::new(384, 1.0),
                        ],
                        ..ServingConfig::default()
                    },
                },
            )
            .unwrap()
        };
        let rr = make(DispatchPolicy::RoundRobin).run().unwrap();
        let jsq = make(DispatchPolicy::JoinShortestQueue).run().unwrap();
        assert_eq!(rr.completed, 300);
        assert_eq!(jsq.completed, 300);
        assert_eq!(jsq.per_chip_completed.iter().sum::<usize>(), 300);
    }
}
