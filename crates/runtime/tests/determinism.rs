// Integration tests panic by design (mirrors hyflex-lint rule E1's
// test exemption).
#![allow(clippy::unwrap_used, clippy::expect_used, clippy::panic)]
//! Determinism contract of the parallel runtime: the worker pool must
//! produce bit-identical results to the serial reference regardless of
//! worker count or OS scheduling. CI runs this suite with
//! `RUST_TEST_THREADS` at both 1 and the default so scheduling races have
//! two distinct chances to surface.

use hyflex_pim::gradient_redistribution::{GradientRedistribution, LayerGradientProfile};
use hyflex_pim::noise_sim::SweepPoint;
use hyflex_pim::{HybridMappingSpec, NoiseSimulator};
use hyflex_runtime::{par_noise_sweep, JobPool};
use hyflex_tensor::rng::Rng;
use hyflex_transformer::trainer::Sample;
use hyflex_transformer::{AdamWConfig, ModelConfig, Trainer, TransformerModel};
use hyflex_workloads::glue::{self, GlueConfig, GlueTask};
use proptest::prelude::*;

fn trained_fixture() -> (TransformerModel, Vec<LayerGradientProfile>, Vec<Sample>) {
    let mut rng = Rng::seed_from(1234);
    let mut model = TransformerModel::new(ModelConfig::tiny_encoder(2), &mut rng).unwrap();
    let dataset = glue::generate(GlueTask::Sst2, &GlueConfig::default(), 60);
    let trainer = Trainer::new(
        AdamWConfig {
            learning_rate: 3e-3,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        },
        16,
    );
    trainer.train(&mut model, &dataset.train, 2).unwrap();
    let pipeline = GradientRedistribution {
        finetune_epochs: 1,
        ..GradientRedistribution::new(trainer)
    };
    let report = pipeline
        .apply(&mut model, &dataset.train, &dataset.eval)
        .unwrap();
    (model, report.layer_profiles, dataset.eval)
}

#[test]
fn determinism_parallel_noise_sweep_is_bit_identical_to_serial() {
    let (model, profiles, eval) = trained_fixture();
    let simulator = NoiseSimulator::paper_default();
    let base = HybridMappingSpec::gradient_based(0.0);
    let points = SweepPoint::grid(&[0.0, 0.1, 0.5, 1.0], 3, 900);
    let serial = simulator
        .evaluate_sweep(&model, &profiles, &base, &eval, &points)
        .unwrap();
    for workers in [1, 2, 4, 7] {
        let pool = JobPool::new(workers);
        let parallel =
            par_noise_sweep(&pool, &simulator, &model, &profiles, &base, &eval, &points).unwrap();
        assert_eq!(
            serial, parallel,
            "parallel sweep with {workers} workers diverged from serial"
        );
    }
    // The machine-sized default pool must agree too.
    let parallel = par_noise_sweep(
        &JobPool::default(),
        &simulator,
        &model,
        &profiles,
        &base,
        &eval,
        &points,
    )
    .unwrap();
    assert_eq!(serial, parallel);
}

#[test]
fn determinism_policy_serving_is_reproducible_and_fcfs_default_unchanged() {
    // The policy-aware scheduler and the heterogeneous mix must be exact
    // functions of the seed, and the explicit-FCFS configuration must be
    // byte-identical to the default (policy is additive, not perturbing).
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_runtime::{
        ClusterConfig, ClusterSim, DispatchPolicy, RequestClass, SchedulerConfig, SchedulingPolicy,
        ServingConfig,
    };

    let base = ServingConfig {
        qps: 4000.0,
        num_requests: 260,
        classes: vec![
            RequestClass::new(64, 2.0).with_slo_ns(4e6).with_priority(0),
            RequestClass::new(256, 1.0).with_priority(1),
        ],
        seed: 21,
        ..ServingConfig::default()
    };
    let serve = |serving: ServingConfig| {
        ClusterSim::with_backend(
            HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap(),
            ClusterConfig {
                chips: 1,
                dispatch: DispatchPolicy::RoundRobin,
                serving,
            },
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let run = |policy: SchedulingPolicy| {
        serve(ServingConfig {
            scheduler: SchedulerConfig {
                policy,
                ..SchedulerConfig::default()
            },
            ..base.clone()
        })
    };
    for policy in SchedulingPolicy::ALL {
        assert_eq!(run(policy), run(policy), "{policy} run not reproducible");
    }
    assert_eq!(run(SchedulingPolicy::Fcfs), serve(base.clone()));
}

#[test]
fn determinism_cluster_serving_is_reproducible_and_one_chip_matches_single() {
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_runtime::{ClusterConfig, ClusterSim, DispatchPolicy, ServingConfig};

    let serving = ServingConfig {
        qps: 6000.0,
        num_requests: 240,
        seq_len: 128,
        seed: 33,
        ..ServingConfig::default()
    };
    let cluster = |chips: usize, dispatch: DispatchPolicy| {
        ClusterSim::with_backend(
            HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap(),
            ClusterConfig {
                chips,
                dispatch,
                serving: serving.clone(),
            },
        )
        .unwrap()
        .run()
        .unwrap()
    };
    for dispatch in DispatchPolicy::ALL {
        for chips in [1usize, 3] {
            assert_eq!(
                cluster(chips, dispatch),
                cluster(chips, dispatch),
                "{chips}-chip {dispatch} cluster run not reproducible"
            );
        }
    }
    // One replica is the single-device run whichever dispatcher fronts
    // it: only the report's dispatch label differs.
    let single = cluster(1, DispatchPolicy::RoundRobin);
    for dispatch in DispatchPolicy::ALL {
        let report = cluster(1, dispatch);
        assert_eq!(report.dispatch, dispatch);
        assert_eq!(
            hyflex_runtime::ClusterReport {
                dispatch: single.dispatch,
                ..report
            },
            single
        );
    }
}

#[test]
fn determinism_overload_runs_conserve_requests_and_reproduce() {
    // The open-loop overload engine is an exact function of its seed, and
    // every offered request is accounted for exactly once after the final
    // drain: offered = admitted + rejected, admitted = completed + shed +
    // preempted. CI runs this under RUST_TEST_THREADS at both 1 and the
    // default, so the engine cannot hide scheduling dependence.
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_runtime::{
        AdmissionPolicy, ArrivalProcess, MmppState, OverloadConfig, OverloadSim, RequestClass,
        RequestTrace, SchedulerConfig, SchedulingPolicy, TrafficConfig,
    };

    let run = || {
        let trace = RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", 60_000.0, 0.01),
                    MmppState::new("trough", 12_000.0, 0.02),
                ],
            },
            num_requests: 4000,
            classes: vec![
                RequestClass::new(64, 3.0).with_slo_ns(3e6),
                RequestClass::new(256, 1.0).with_priority(1),
            ],
            seed: 97,
            ..TrafficConfig::default()
        })
        .unwrap();
        OverloadSim::with_backend(
            HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap(),
            OverloadConfig {
                scheduler: SchedulerConfig {
                    policy: SchedulingPolicy::Edf,
                    ..SchedulerConfig::default()
                },
                admission: AdmissionPolicy::QueueDepth {
                    max_outstanding: 96,
                },
                shed: true,
                preempt: true,
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap()
        .run()
        .unwrap()
    };
    let report = run();
    assert_eq!(report.offered, 4000);
    assert_eq!(report.offered, report.admitted + report.rejected);
    assert_eq!(
        report.admitted,
        report.completed + report.shed + report.preempted
    );
    assert!(report.shed > 0 && report.rejected > 0);
    assert_eq!(
        report,
        run(),
        "overload run is not a pure function of the seed"
    );
}

proptest! {
    #[test]
    fn determinism_mmpp_traces_are_bit_identical_for_a_seed(
        seed in any::<u64>(),
        burst_qps in 1e3f64..1e5,
        dwell_ms in 1.0f64..50.0,
        n in 50usize..400,
    ) {
        use hyflex_runtime::{ArrivalProcess, MmppState, RequestTrace, TrafficConfig};
        let make = || RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", burst_qps, dwell_ms * 1e-3),
                    MmppState::new("trough", burst_qps * 0.2, dwell_ms * 2e-3),
                ],
            },
            num_requests: n,
            seed,
            ..TrafficConfig::default()
        }).unwrap();
        let a: Vec<_> = make().stream().collect();
        let b: Vec<_> = make().stream().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn determinism_gamma_traces_are_bit_identical_for_a_seed(
        seed in any::<u64>(),
        qps in 1e2f64..1e5,
        shape in 0.1f64..8.0,
        n in 50usize..400,
    ) {
        use hyflex_runtime::{ArrivalProcess, RatePhase, RequestTrace, TrafficConfig};
        let make = || RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::GammaBurst { qps, shape },
            rate_curve: vec![
                RatePhase::new("am", 0.02, 0.6),
                RatePhase::new("pm", 0.03, 1.4),
            ],
            num_requests: n,
            seed,
            ..TrafficConfig::default()
        }).unwrap();
        let a: Vec<_> = make().stream().collect();
        let b: Vec<_> = make().stream().collect();
        prop_assert_eq!(a, b);
    }

    #[test]
    fn determinism_par_map_equals_serial_map(
        values in proptest::collection::vec(any::<u64>(), 1..200usize),
        workers in 1usize..9,
    ) {
        let pool = JobPool::new(workers);
        let f = |x: &u64| x.rotate_left(7) ^ 0x9e37_79b9_7f4a_7c15;
        let serial: Vec<u64> = values.iter().map(f).collect();
        let parallel = pool.par_map(&values, f);
        prop_assert_eq!(serial, parallel);
    }
}
