#![forbid(unsafe_code)]
// Unit tests panic by design; the clippy panic-path lints mirror
// hyflex-lint rule E1, which exempts test code the same way.
#![cfg_attr(
    test,
    allow(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable
    )
)]
//! # hyflex-runtime
//!
//! The parallel batched-inference runtime of the HyFlexPIM reproduction.
//! Where `hyflex-pim` models one inference at a time, this crate models and
//! drives **production-shaped** execution:
//!
//! * [`JobPool`] — the scoped, order-preserving `par_map` of
//!   `hyflex-parallel`, re-exported here because the noise-accuracy sweeps
//!   and the figure binaries size their pools through this crate.
//! * [`sweep`] — the parallel driver for `NoiseSimulator` sweeps,
//!   bit-identical to the serial entry point in `hyflex-pim`.
//! * [`batch`] — [`BatchScheduler`]: batching of
//!   [`InferenceRequest`]s bounded by the tile
//!   capacity the serving backend reports, admitted in
//!   [`policy`] order (FCFS, earliest-deadline-first, or strict priority).
//! * [`overload`] — [`OverloadSim`]: the one serving engine and the one
//!   front end for encoder-pass requests. A [`RequestTrace`] plus an
//!   [`OverloadConfig`] describe a run. Its event loop drives a
//!   chip-heterogeneous fleet behind a round-robin or join-shortest-queue
//!   [`DispatchPolicy`] under the batching-window launch rule, with
//!   admission control (token-bucket / queue-depth), deadline-aware
//!   shedding, policy-driven preemption, and a reactive autoscaler; it
//!   reports throughput, utilization, goodput under SLO, p50–p99.9 tails
//!   and per-phase (burst vs. trough) breakdowns, and checks request
//!   conservation at the end of every run. With admission off over a
//!   Poisson trace it is the closed-loop run (`fig18_batch_throughput`–
//!   `fig21_overload_survival`, `examples/serving_sim.rs`,
//!   `examples/cluster_serving.rs`, `examples/open_loop_traffic.rs`).
//! * [`cluster`] — [`ClusterSim`]: a shim over [`OverloadSim`] kept only
//!   because the stand-alone end-to-end benchmark's `cluster_poisson`
//!   workload names it; no workspace code outside its unit tests calls it.
//! * [`serving`] — the request mix ([`RequestClass`]) and
//!   [`LatencySummary`], the one latency summary of every simulator:
//!   histogram-quantized percentiles (≤ 1.6 % error) with exact mean and
//!   max, in O(1) memory. [`ServingConfig`] is [`ClusterSim`]'s workload.
//! * [`traffic`] — [`RequestTrace`]: the one arrival generator — seeded
//!   deterministic Poisson, MMPP and gamma-burst processes under piecewise
//!   diurnal rate curves, streaming to 10⁶–10⁷ requests in O(1) memory.
//! * [`decode`] — [`DecodeSim`]: autoregressive decode serving with
//!   continuous batching and the KV cache on the SLC/MLC fabric. It runs
//!   its own token-iteration loop, but streams its trace and shares the
//!   engine's latency histogram and conservation checks
//!   (`fig22_decode_serving`).
//!
//! The whole execution layer is **backend-generic**: the scheduler and the
//! serving simulators consume any `hyflex_pim::Backend` ([`HyFlexPim`] or
//! the baselines from `hyflex-baselines`), so one workload drives
//! interchangeable device models (`fig19_backend_serving`). A backend is
//! the only way in: every simulator is built from one (or a fleet of them),
//! and runs are exact functions of their seed (CI-enforced determinism
//! suite).

pub mod batch;
pub mod cluster;
pub mod decode;
pub mod error;
pub mod overload;
pub mod policy;
pub mod serving;
pub mod sweep;
pub mod traffic;

pub use batch::{Batch, BatchScheduler, InferenceRequest, SchedulerConfig};
pub use cluster::{ClusterConfig, ClusterReport, ClusterSim};
pub use decode::{DecodeConfig, DecodeReport, DecodeSim, KvPlacementPolicy};
pub use error::RuntimeError;
pub use hyflex_parallel::JobPool;
pub use hyflex_pim::backend::{Backend, HyFlexPim};
pub use overload::{
    AdmissionPolicy, AutoscaleEvent, AutoscalerConfig, BatchTrace, DispatchPolicy, OverloadConfig,
    OverloadReport, OverloadSim, PhaseReport,
};
pub use policy::SchedulingPolicy;
pub use serving::{LatencySummary, RequestClass, ServingConfig};
pub use sweep::par_noise_sweep;
pub use traffic::{
    ArrivalProcess, MmppState, RatePhase, RequestTrace, TrafficConfig, TrafficStream,
};

/// Convenience result alias used across the crate.
pub type Result<T> = std::result::Result<T, RuntimeError>;
