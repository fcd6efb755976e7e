//! `ClusterSim`: the closed-loop [`ServingConfig`] workload on N replicas
//! of one backend, kept only for the end-to-end benchmark.
//!
//! The workspace serves encoder-pass traffic through [`OverloadSim`]
//! directly: a Poisson [`RequestTrace`] and an [`OverloadConfig`] with the
//! scheduler and [`DispatchPolicy`] set. This wrapper is that same
//! construction behind the names the stand-alone `e2ebench` package's
//! `cluster_poisson` workload still uses ([`ClusterSim::with_backend`],
//! [`ClusterSim::run`], [`ClusterConfig`], [`ClusterReport`]); it goes once
//! a benchmark change moves that workload onto [`OverloadSim`].

use crate::overload::{DispatchPolicy, OverloadConfig, OverloadSim};
use crate::serving::{LatencySummary, ServingConfig};
use crate::traffic::{ArrivalProcess, RequestTrace, TrafficConfig};
use crate::Result;
use hyflex_pim::backend::{Backend, HyFlexPim};
use std::marker::PhantomData;
use std::sync::Arc;

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

/// Outcome of one cluster run: the [`OverloadReport`](crate::OverloadReport)
/// fields the benchmark reads, under their cluster names.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterReport {
    /// Requests completed across the cluster (the loop is closed, so this
    /// always equals the number of offered requests).
    pub completed: usize,
    /// Batches executed across all chips.
    pub batches: usize,
    /// Useful completions (met their deadline, or carried none) per
    /// simulated second.
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
    /// Mean per-chip busy fraction over the chip's active span.
    pub mean_chip_utilization: f64,
}

/// The closed-loop serving run on `chips` replicas of one backend.
#[derive(Debug)]
pub struct ClusterSim<B: Backend = HyFlexPim> {
    engine: OverloadSim,
    /// The replicated device type; the engine holds the replicas.
    backend: PhantomData<B>,
}

impl<B: Backend + 'static> ClusterSim<B> {
    /// Builds a cluster of `config.chips` replicas of `backend` serving the
    /// Poisson trace of `config.serving`.
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
        let run = self.engine.run()?;
        Ok(ClusterReport {
            completed: run.completed,
            batches: run.batches,
            goodput_qps: run.goodput_qps,
            latency: run.latency,
            slo_attainment: run.slo_attainment,
            mean_batch_size: run.mean_batch_size,
            mean_queue_ms: run.mean_queue_ms,
            per_chip_completed: run.per_replica_completed,
            mean_chip_utilization: run.mean_utilization,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::SchedulerConfig;
    use crate::overload::OverloadReport;
    use crate::policy::SchedulingPolicy;
    use crate::serving::RequestClass;
    use hyflex_pim::PerformanceModel;
    use hyflex_transformer::ModelConfig;

    fn bert_base() -> Arc<dyn Backend> {
        Arc::new(
            HyFlexPim::new(
                PerformanceModel::paper_default(),
                ModelConfig::bert_base(),
                0.05,
            )
            .unwrap(),
        )
    }

    /// `chips` replicas of BERT-Base serving `num_requests` Poisson
    /// arrivals of the `classes` mix at `qps` under `scheduler`.
    fn fleet(
        chips: usize,
        dispatch: DispatchPolicy,
        qps: f64,
        num_requests: usize,
        classes: Vec<RequestClass>,
        scheduler: SchedulerConfig,
    ) -> OverloadSim {
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Poisson { qps },
            num_requests,
            classes,
            ..TrafficConfig::default()
        })
        .unwrap();
        OverloadSim::with_replicas(
            vec![bert_base(); chips],
            OverloadConfig {
                scheduler,
                dispatch,
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap()
    }

    fn cluster(chips: usize, dispatch: DispatchPolicy, qps: f64) -> OverloadSim {
        fleet(
            chips,
            dispatch,
            qps,
            240,
            Vec::new(),
            SchedulerConfig::default(),
        )
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
        let trace = RequestTrace::new(TrafficConfig {
            num_requests: 2000,
            ..TrafficConfig::default()
        })
        .unwrap();
        let config = OverloadConfig {
            dispatch: DispatchPolicy::RoundRobin,
            ..OverloadConfig::new(trace)
        };
        assert!(OverloadSim::with_replicas(Vec::new(), config).is_err());
    }

    #[test]
    fn every_chip_serves_and_the_cluster_conserves_requests() {
        for dispatch in DispatchPolicy::ALL {
            let report = cluster(3, dispatch, 6000.0).run().unwrap();
            assert_eq!(report.completed, 240, "{dispatch}");
            assert_eq!(report.per_replica_completed.iter().sum::<usize>(), 240);
            assert_eq!(report.per_replica_completed.len(), 3);
            assert!(
                report.per_replica_completed.iter().all(|&c| c > 0),
                "{dispatch}: every chip should serve part of the stream, got \
                 {:?}",
                report.per_replica_completed
            );
            assert!(report.latency.p50_ms > 0.0);
            assert!(report.latency.p50_ms <= report.latency.p99_ms);
            assert!(report.mean_utilization > 0.0 && report.mean_utilization <= 1.0);
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

    /// Every `ClusterReport` field equals the engine's field it renames.
    fn assert_renames(cluster: &ClusterReport, engine: &OverloadReport) {
        assert_eq!(cluster.completed, engine.completed);
        assert_eq!(cluster.batches, engine.batches);
        assert_eq!(cluster.goodput_qps, engine.goodput_qps);
        assert_eq!(cluster.latency, engine.latency);
        assert_eq!(cluster.slo_attainment, engine.slo_attainment);
        assert_eq!(cluster.mean_batch_size, engine.mean_batch_size);
        assert_eq!(cluster.mean_queue_ms, engine.mean_queue_ms);
        assert_eq!(cluster.per_chip_completed, engine.per_replica_completed);
        assert_eq!(cluster.mean_chip_utilization, engine.mean_utilization);
    }

    #[test]
    fn a_one_chip_cluster_matches_the_single_device_simulator() {
        // The shim builds the engine's own construction: on one chip, and
        // on the benchmark's cluster shape (4 replicas, JSQ, EDF, the
        // 64/256 two-class mix with an interactive SLO), `ClusterSim` and
        // `OverloadSim` over the same backend and trace give the same
        // numbers.
        let backend = bert_base();
        let single_ns = backend.evaluate_batched(64, 1).unwrap().makespan_ns;
        let interval_ns = (3.0 * backend.evaluate_batched(64, 16).unwrap().makespan_ns
            + backend.evaluate_batched(256, 16).unwrap().makespan_ns)
            / 16.0
            / 4.0;
        let edf = SchedulerConfig {
            max_batch_size: 16,
            policy: SchedulingPolicy::Edf,
            ..SchedulerConfig::default()
        };
        let mix = vec![
            RequestClass::new(64, 3.0)
                .with_slo_ns(25.0 * single_ns)
                .with_priority(0),
            RequestClass::new(256, 1.0).with_priority(1),
        ];
        let cases = [
            (
                1,
                DispatchPolicy::RoundRobin,
                4000.0,
                240,
                Vec::new(),
                SchedulerConfig::default(),
            ),
            (
                4,
                DispatchPolicy::JoinShortestQueue,
                0.9 * 4.0 * 1e9 / interval_ns,
                1200,
                mix,
                edf,
            ),
        ];
        for (chips, dispatch, qps, num_requests, classes, scheduler) in cases {
            let shim = ClusterSim::with_backend(
                Arc::clone(&backend),
                ClusterConfig {
                    chips,
                    dispatch,
                    serving: ServingConfig {
                        qps,
                        num_requests,
                        classes: classes.clone(),
                        scheduler,
                        ..ServingConfig::default()
                    },
                },
            )
            .unwrap()
            .run()
            .unwrap();
            let engine = fleet(chips, dispatch, qps, num_requests, classes, scheduler)
                .run()
                .unwrap();
            assert_renames(&shim, &engine);
            assert_eq!(engine.replicas, chips);
            assert_eq!(engine.completed, num_requests);
        }
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
            fleet(
                3,
                dispatch,
                9000.0,
                300,
                vec![RequestClass::new(64, 2.0), RequestClass::new(384, 1.0)],
                SchedulerConfig::default(),
            )
        };
        let rr = make(DispatchPolicy::RoundRobin).run().unwrap();
        let jsq = make(DispatchPolicy::JoinShortestQueue).run().unwrap();
        assert_eq!(rr.completed, 300);
        assert_eq!(jsq.completed, 300);
        assert_eq!(jsq.per_replica_completed.iter().sum::<usize>(), 300);
    }
}
