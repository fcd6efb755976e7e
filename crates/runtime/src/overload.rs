//! The serving engine: one discrete-event loop over a chip-heterogeneous
//! fleet, with admission control, deadline-aware shedding, preemption, and
//! reactive autoscaling.
//!
//! [`OverloadSim`] is the crate's one front end for encoder-pass serving:
//! every figure, example and test builds a [`RequestTrace`] and an
//! [`OverloadConfig`] and runs it here. The closed-loop runs are
//! configurations of it — [`AdmissionPolicy::Unbounded`], no shedding, no
//! preemption and no autoscaler over a Poisson trace, with one replica for
//! the single-device case or N replicas behind a [`DispatchPolicy`]. With
//! admission off every offered request completes, so under sustained
//! overload the queues grow without bound. The survival policies let the
//! operator *refuse* work instead:
//!
//! * **Admission control** ([`AdmissionPolicy`]) — a token bucket or a
//!   per-replica queue-depth gate decides at arrival whether a request
//!   enters the system at all.
//! * **Deadline-aware shedding** (`shed`) — at every batch launch a replica
//!   drops queued requests that cannot meet their deadline even if launched
//!   immediately ([`BatchScheduler::shed_doomed`]).
//! * **Preemption** (`preempt`) — at a full queue-depth gate, a more-urgent
//!   newcomer evicts the least-urgent queued request
//!   ([`BatchScheduler::preempt_for`]) instead of being rejected.
//! * **Autoscaling** ([`AutoscalerConfig`]) — a control loop activates or
//!   retires replicas after an actuation lag; retired replicas drain their
//!   queues, activated ones come up cold.
//!
//! Every replica runs its own [`BatchScheduler`] and launches batches under
//! the batching-window rule documented on [`SchedulerConfig::max_wait_ns`].
//! Dispatch ([`DispatchPolicy`]) is decided at arrival time from information
//! available then, and replicas advance in index order, so a run is a
//! deterministic function of its inputs. Each replica is its own
//! `Arc<dyn Backend>`, so a fleet can mix HyFlexPIM chips with any comparison
//! baseline; batch evaluations are memoized per replica. That engine-level
//! memo is a plain map the shedding pass reads once per queued request,
//! with no lock; it stays even though a backend from `SystemBuilder::build`
//! carries its own locked [`PriceMemo`](hyflex_pim::backend::PriceMemo),
//! which here sees only the engine memo's misses.
//!
//! Arrivals pass the intake [`DecodeSim`](crate::decode::DecodeSim) also
//! uses, which checks `offered = admitted + rejected` and `admitted =
//! completed + shed + preempted` per phase after every run, in release
//! builds too. Latencies accumulate into a log-linear histogram, so p99.9
//! is available at 10⁶–10⁷ requests in O(1) memory. The report carries
//! goodput under SLO, shed/preempt/reject counts, and per-phase (burst vs.
//! trough) breakdowns keyed by the arrival phase the traffic generator
//! tagged each request with.

use crate::batch::{Batch, BatchScheduler, SchedulerConfig};
use crate::error::{invalid_if, RuntimeError};
use crate::intake::Intake;
pub use crate::intake::{AdmissionPolicy, PhaseReport};
use crate::policy::order_key;
use crate::serving::LatencySummary;
use crate::traffic::RequestTrace;
use crate::Result;
use hyflex_pim::backend::{Backend, InferenceRequest};
use hyflex_pim::perf::BatchPerfSummary;
use std::cmp::Reverse;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BinaryHeap};
use std::sync::Arc;

/// How the engine routes an arriving request to an active replica.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash)]
pub enum DispatchPolicy {
    /// Cycle through the active replicas in index order, one request each.
    #[default]
    RoundRobin,
    /// Send each request to the active replica with the fewest outstanding
    /// requests (queued plus launched-but-incomplete) at its arrival time;
    /// ties go to the lowest replica index.
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

/// One launched batch, as observed by the engine (returned by
/// [`OverloadSim::replay_traced`] for tests and trace analysis).
#[derive(Debug, Clone, PartialEq)]
pub struct BatchTrace {
    /// Index of the replica that executed the batch.
    pub chip: usize,
    /// Time the batch launched, ns.
    pub launch_ns: f64,
    /// Modeled makespan of the batch, ns.
    pub makespan_ns: f64,
    /// The formed batch (requests, padded shape, cells used).
    pub batch: Batch,
}

/// Reactive autoscaling policy over the fleet.
///
/// At every `check_interval_s` the controller computes mean outstanding
/// work per *active* replica. Above `scale_up_outstanding` it schedules one
/// activation, below `scale_down_outstanding` one retirement, each taking
/// effect `actuation_lag_s` later (modeling provisioning delay). At most
/// one actuation is in flight at a time, which doubles as a cooldown.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscalerConfig {
    /// Fewest replicas kept active (the fleet starts here).
    pub min_replicas: usize,
    /// Most replicas the controller may activate (≤ fleet size).
    pub max_replicas: usize,
    /// Observation interval, seconds.
    pub check_interval_s: f64,
    /// Delay between a scale decision and its taking effect, seconds.
    pub actuation_lag_s: f64,
    /// Mean outstanding requests per active replica above which one
    /// replica is added.
    pub scale_up_outstanding: f64,
    /// Mean outstanding requests per active replica below which one
    /// replica is retired.
    pub scale_down_outstanding: f64,
    /// Optional EWMA load predictor (Holt double smoothing with the given
    /// level/trend gain `α ∈ (0, 1]`). When set, the controller smooths
    /// the per-replica outstanding, projects it one actuation lag ahead
    /// along its trend, and compares the thresholds against
    /// `max(measured, projected)`: it scales *up* on either the forecast
    /// or the evidence — starting to pay the lag while a burst is still
    /// ramping — but scales *down* only when both agree, so a draining
    /// (yet still full) queue's negative trend cannot retire the replicas
    /// the next burst needs. `None` keeps the historical reactive
    /// controller, decision for decision.
    pub ewma_alpha: Option<f64>,
}

impl Default for AutoscalerConfig {
    fn default() -> Self {
        AutoscalerConfig {
            min_replicas: 1,
            max_replicas: usize::MAX, // clamped to the fleet size
            check_interval_s: 0.05,
            actuation_lag_s: 0.1,
            scale_up_outstanding: 64.0,
            scale_down_outstanding: 8.0,
            ewma_alpha: None,
        }
    }
}

/// One autoscaler actuation, as recorded in the report.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleEvent {
    /// Time the actuation took effect, seconds.
    pub at_s: f64, // hyflex-lint: allow(U3) — checked by `autoscaler_grows_the_fleet_under_load_and_records_events`; the event stream of ROADMAP item 4 replaces this log
    /// Active replica count after the actuation.
    pub active_replicas: usize, // hyflex-lint: allow(U3) — checked by `autoscaler_grows_the_fleet_under_load_and_records_events`; the event stream of ROADMAP item 4 replaces this log
}

/// Workload and survival policy of one open-loop run.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadConfig {
    /// The arrival trace (process, rate curve, mix, seed).
    pub trace: RequestTrace,
    /// Per-replica batching policy.
    pub scheduler: SchedulerConfig,
    /// How arrivals are routed to active replicas.
    pub dispatch: DispatchPolicy,
    /// Admission gate.
    pub admission: AdmissionPolicy,
    /// Deadline-aware load shedding at batch launch.
    pub shed: bool,
    /// Preemption at the queue-depth gate (no effect under
    /// [`AdmissionPolicy::Unbounded`] / token bucket, which never consult
    /// the queue).
    pub preempt: bool,
    /// Reactive autoscaling; `None` keeps every replica active.
    pub autoscaler: Option<AutoscalerConfig>,
}

impl OverloadConfig {
    /// A config serving `trace` with everything else at its default: FCFS
    /// batching, join-shortest-queue dispatch, unbounded admission, no
    /// shedding, no preemption, no autoscaler.
    pub fn new(trace: RequestTrace) -> Self {
        OverloadConfig {
            trace,
            scheduler: SchedulerConfig::default(),
            dispatch: DispatchPolicy::JoinShortestQueue,
            admission: AdmissionPolicy::Unbounded,
            shed: false,
            preempt: false,
            autoscaler: None,
        }
    }
}

/// Outcome of one open-loop overload run.
///
/// Counts satisfy `offered = admitted + rejected` and
/// `admitted = completed + shed + preempted` exactly (the final drain
/// leaves nothing in flight). `slo_attainment` is over *offered*
/// deadline-carrying requests — a shed or rejected request is a miss, not
/// a statistical disappearance.
#[derive(Debug, Clone, PartialEq)]
pub struct OverloadReport {
    /// Fleet size (replicas provisioned, whether or not ever active).
    pub replicas: usize,
    /// Requests the trace offered.
    pub offered: usize,
    /// Requests past the admission gate.
    pub admitted: usize,
    /// Requests refused at admission.
    pub rejected: usize,
    /// Admitted requests dropped by deadline-aware shedding.
    pub shed: usize,
    /// Admitted requests evicted by a more-urgent newcomer.
    pub preempted: usize,
    /// Requests that completed execution.
    pub completed: usize,
    /// Batches executed across the fleet.
    pub batches: usize,
    /// Span from first arrival to the last completion (or last arrival if
    /// later), seconds.
    pub sim_seconds: f64,
    /// Completed requests per simulated second.
    pub achieved_qps: f64,
    /// Goodput under SLO: useful completions (met their deadline, or
    /// carried none) per simulated second.
    pub goodput_qps: f64,
    /// Fraction of deadline-carrying *offered* requests that completed by
    /// their deadline (1.0 when nothing carried an SLO).
    pub slo_attainment: f64,
    /// Completion-latency distribution (histogram-quantized percentiles,
    /// ≤ 1.6 % relative error; mean and max exact).
    pub latency: LatencySummary,
    /// Mean formed batch size.
    pub mean_batch_size: f64,
    /// Mean queue wait of completed requests, milliseconds.
    pub mean_queue_ms: f64,
    /// Per-replica completed-request counts (sums to `completed`).
    pub per_replica_completed: Vec<usize>,
    /// Mean over the fleet of each replica's busy fraction from the first
    /// arrival to its last completion (0 for a replica that never ran).
    pub mean_utilization: f64,
    /// Per-phase breakdown, indexed like the trace's phase labels.
    pub phases: Vec<PhaseReport>,
    /// Autoscaler actuations, in time order (empty without an autoscaler).
    pub autoscale_events: Vec<AutoscaleEvent>,
    /// Most replicas simultaneously active during the run.
    pub peak_active_replicas: usize,
}

/// The run's accounting: the shared [`Intake`] (every request's fate, the
/// latency histogram, the span) plus what only the fleet has — batches,
/// queue wait and the autoscaler log. The report is read off the ledger.
struct Ledger {
    intake: Intake,
    batches: usize,
    queue_ns_sum: f64,
    autoscale_events: Vec<AutoscaleEvent>,
    peak_active: usize,
}

/// One replica of the fleet: a scheduler queue plus device timing and its
/// own batch-evaluation memo (replicas may be heterogeneous).
struct Replica {
    index: usize,
    scheduler: BatchScheduler,
    backend: Arc<dyn Backend>,
    device_free: f64,
    busy_ns: f64,
    completed: usize,
    /// Completion times of launched requests as order keys, earliest on
    /// top (for the outstanding count); popped lazily.
    inflight: BinaryHeap<Reverse<u64>>,
    active: bool,
    shed: bool,
    /// (padded seq_len, batch size) → evaluation. A `BTreeMap` because the
    /// determinism policy (lint rule D1) bans hash-ordered containers in
    /// runtime code. Under shedding it starts with every mix shape at batch
    /// size 1: the single-request makespan is the optimistic service
    /// estimate shedding judges against.
    memo: BTreeMap<(usize, usize), BatchPerfSummary>,
}

impl Replica {
    fn new(
        index: usize,
        backend: &Arc<dyn Backend>,
        config: &OverloadConfig,
        active: bool,
    ) -> Result<Self> {
        let mut memo = BTreeMap::new();
        if config.shed {
            for seq_len in config.trace.seq_lens() {
                memo.insert((seq_len, 1), backend.evaluate_batched(seq_len, 1)?);
            }
        }
        Ok(Replica {
            index,
            scheduler: BatchScheduler::for_backend(Arc::clone(backend), config.scheduler)?,
            backend: Arc::clone(backend),
            device_free: 0.0,
            busy_ns: 0.0,
            completed: 0,
            inflight: BinaryHeap::new(),
            active,
            shed: config.shed,
            memo,
        })
    }

    /// Requests dispatched to this replica that have not completed by `now`.
    fn outstanding(&mut self, now: f64) -> usize {
        let now = order_key(now);
        while self
            .inflight
            .peek()
            .is_some_and(|&Reverse(done)| done <= now)
        {
            self.inflight.pop();
        }
        self.scheduler.queue_len() + self.inflight.len()
    }

    /// Commits every batch whose launch time is at or before `now` under
    /// the batching-window rule of [`SchedulerConfig::max_wait_ns`],
    /// shedding doomed requests at each launch decision when enabled, and
    /// pushing each launched batch to `sink` when one is given.
    ///
    /// Launch times are decided purely from the queue (whose members all
    /// arrived in the past), so a launch at `t <= now` can never be changed
    /// by an arrival after `now` — this is what makes the lazy event loop
    /// exact.
    fn advance(
        &mut self,
        now: f64,
        ledger: &mut Ledger,
        mut sink: Option<&mut Vec<BatchTrace>>,
    ) -> Result<()> {
        // Arrivals are submitted in non-decreasing time order and removals
        // preserve queue order, so the front request is the oldest queued.
        while let Some(oldest) = self.scheduler.front_arrival_ns() {
            let ready = self.device_free.max(oldest);
            let max_wait = self.scheduler.config().max_wait_ns;
            let launch = if max_wait == 0.0 {
                ready
            } else {
                // Window deadline anchored at the oldest queued arrival,
                // clamped to ready; a full queue launches at its fill time
                // (or ready, whichever is later), a non-full one waits out
                // the window.
                let deadline = ready.max(oldest + max_wait);
                match self.scheduler.fill_time_ns() {
                    Some(fill) => deadline.min(ready.max(fill)),
                    None => deadline,
                }
            };
            if launch > now {
                break;
            }
            if self.shed {
                // Judged at the launch decision: a queued request whose
                // deadline precedes even an immediate solo completion is
                // dead weight — drop it before it poisons a batch. The
                // shed may change the window anchor, so re-decide. An
                // unknown shape estimates 0 (never shed early).
                let memo = &self.memo;
                let shed = self.scheduler.shed_doomed(launch, |seq_len| {
                    memo.get(&(seq_len, 1)).map_or(0.0, |s| s.makespan_ns)
                });
                if !shed.is_empty() {
                    for request in &shed {
                        ledger.intake.phase(request).shed += 1;
                    }
                    continue;
                }
            }
            let Some(batch) = self.scheduler.next_batch() else {
                break;
            };
            let summary = match self.memo.entry((batch.max_seq_len, batch.len())) {
                Entry::Occupied(entry) => entry.into_mut(),
                Entry::Vacant(entry) => entry.insert(
                    self.backend
                        .evaluate_batched(batch.max_seq_len, batch.len())?,
                ),
            };
            for (k, request) in batch.requests.iter().enumerate() {
                let completion = launch + summary.completion_ns(k);
                ledger.queue_ns_sum += launch - request.arrival_ns;
                ledger.intake.on_completed(request, completion);
                self.inflight.push(Reverse(order_key(completion)));
            }
            self.device_free = launch + summary.makespan_ns;
            self.busy_ns += summary.makespan_ns;
            self.completed += batch.len();
            ledger.batches += 1;
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(BatchTrace {
                    chip: self.index,
                    launch_ns: launch,
                    makespan_ns: summary.makespan_ns,
                    batch,
                });
            }
        }
        Ok(())
    }
}

/// Routes an arrival at `now` to an active replica: round-robin over the
/// active replicas in index order, or the one with the fewest outstanding
/// requests (ties to the lowest index).
fn dispatch(
    policy: DispatchPolicy,
    replicas: &mut [Replica],
    round_robin: &mut usize,
    now: f64,
) -> Result<usize> {
    let target = match policy {
        DispatchPolicy::RoundRobin => {
            let active = replicas.iter().filter(|r| r.active).count();
            let slot = round_robin.checked_rem(active);
            *round_robin += 1;
            slot.and_then(|slot| {
                replicas
                    .iter()
                    .enumerate()
                    .filter(|(_, r)| r.active)
                    .nth(slot)
                    .map(|(index, _)| index)
            })
        }
        DispatchPolicy::JoinShortestQueue => {
            let mut best = None;
            let mut best_load = usize::MAX;
            for (index, replica) in replicas.iter_mut().enumerate() {
                if !replica.active {
                    continue;
                }
                let load = replica.outstanding(now);
                if load < best_load {
                    best = Some(index);
                    best_load = load;
                }
            }
            best
        }
    };
    target.ok_or_else(|| RuntimeError::Internal("no active replica to dispatch to".to_string()))
}

/// The autoscaler's control state during a run.
struct Autoscaler {
    config: AutoscalerConfig,
    /// The ceiling, clamped to the fleet size.
    fleet_max: usize,
    active: usize,
    next_check_ns: f64,
    /// (actuation time ns, scale up?) — at most one in flight.
    pending: Option<(f64, bool)>,
    /// Holt level/trend state of the EWMA load predictor.
    ewma: Option<(f64, f64)>,
}

impl Autoscaler {
    /// Fires every check and actuation due at or before `now`, in time
    /// order (an actuation may precede the next check or vice versa).
    fn catch_up(
        &mut self,
        now: f64,
        replicas: &mut [Replica],
        ledger: &mut Ledger,
        sink: &mut Option<&mut Vec<BatchTrace>>,
    ) -> Result<()> {
        let s = self.config;
        loop {
            let check = self.next_check_ns;
            if self.pending.map_or(check, |(at, _)| at.min(check)) > now {
                return Ok(());
            }
            // An actuation due at or before the next check fires first;
            // `take_if` tests and consumes it in one step.
            if let Some((at, up)) = self.pending.take_if(|&mut (at, _)| at <= check) {
                if up && self.active < self.fleet_max {
                    // Activate the lowest-index inactive replica; it comes
                    // up cold at the actuation time.
                    if let Some(replica) = replicas.iter_mut().find(|r| !r.active) {
                        replica.active = true;
                        replica.device_free = replica.device_free.max(at);
                        self.active += 1;
                    }
                } else if !up && self.active > s.min_replicas {
                    // Retire the highest-index active replica; it drains
                    // but receives no new dispatches.
                    if let Some(replica) = replicas.iter_mut().rev().find(|r| r.active) {
                        replica.active = false;
                        self.active -= 1;
                    }
                }
                ledger.peak_active = ledger.peak_active.max(self.active);
                ledger.autoscale_events.push(AutoscaleEvent {
                    at_s: at * 1e-9,
                    active_replicas: self.active,
                });
                continue;
            }
            // Observation: advance the fleet to the check time so
            // outstanding work is measured, not stale.
            for replica in replicas.iter_mut() {
                replica.advance(check, ledger, sink.as_deref_mut())?;
            }
            if self.pending.is_none() {
                let outstanding: usize = replicas
                    .iter_mut()
                    .filter(|r| r.active)
                    .map(|r| r.outstanding(check))
                    .sum();
                let per_replica = self.forecast(outstanding as f64 / self.active as f64);
                if per_replica > s.scale_up_outstanding && self.active < self.fleet_max {
                    self.pending = Some((check + s.actuation_lag_s * 1e9, true));
                } else if per_replica < s.scale_down_outstanding && self.active > s.min_replicas {
                    self.pending = Some((check + s.actuation_lag_s * 1e9, false));
                }
            }
            self.next_check_ns += s.check_interval_s * 1e9;
        }
    }

    /// The per-replica load the thresholds are compared against: the
    /// measurement itself, or under the EWMA predictor
    /// `max(measured, projected)` with `projected` the Holt forecast one
    /// actuation lag ahead. Scaling up on the forecast OR the evidence,
    /// and down only when both agree, keeps a draining — but still full —
    /// queue from retiring the replicas the next burst needs.
    fn forecast(&mut self, measured: f64) -> f64 {
        let Some(alpha) = self.config.ewma_alpha else {
            return measured;
        };
        let (level, trend) = match self.ewma {
            None => (measured, 0.0),
            Some((prev_level, prev_trend)) => {
                let level = alpha * measured + (1.0 - alpha) * (prev_level + prev_trend);
                let trend = alpha * (level - prev_level) + (1.0 - alpha) * prev_trend;
                (level, trend)
            }
        };
        self.ewma = Some((level, trend));
        let horizon_checks = self.config.actuation_lag_s / self.config.check_interval_s;
        measured.max((level + trend * horizon_checks).max(0.0))
    }
}

/// The serving engine over a (possibly heterogeneous) fleet.
#[derive(Debug, Clone)]
pub struct OverloadSim {
    replicas: Vec<Arc<dyn Backend>>,
    config: OverloadConfig,
}

impl OverloadSim {
    /// Builds a simulator over an explicit fleet — one `Arc<dyn Backend>`
    /// per replica, freely mixing designs (clone one `Arc` N times for a
    /// homogeneous fleet).
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an empty fleet, a
    /// degenerate admission or autoscaler policy, or a request shape in
    /// the trace's mix that does not fit some replica's tile capacity;
    /// propagates scheduler-configuration errors.
    pub fn with_replicas(replicas: Vec<Arc<dyn Backend>>, config: OverloadConfig) -> Result<Self> {
        invalid_if(replicas.is_empty(), || {
            "the fleet needs at least one replica".to_string()
        })?;
        config.admission.validate()?;
        if let Some(scaler) = &config.autoscaler {
            let (floor, max) = (scaler.min_replicas, scaler.max_replicas.min(replicas.len()));
            invalid_if(floor == 0 || floor > max, || {
                format!("autoscaler floor {floor} must be in 1..={max} (fleet-clamped ceiling)")
            })?;
            let interval = scaler.check_interval_s;
            invalid_if(!(interval.is_finite() && interval > 0.0), || {
                format!("autoscaler check interval {interval} must be positive")
            })?;
            let lag = scaler.actuation_lag_s;
            invalid_if(lag.is_nan() || lag < 0.0, || {
                format!("autoscaler actuation lag {lag} must be non-negative")
            })?;
            let (down, up) = (scaler.scale_down_outstanding, scaler.scale_up_outstanding);
            invalid_if(!(up > down && down >= 0.0 && up.is_finite()), || {
                format!("autoscaler thresholds need 0 <= down ({down}) < up ({up})")
            })?;
            let alpha = scaler.ewma_alpha.unwrap_or(1.0);
            invalid_if(!(alpha > 0.0 && alpha <= 1.0), || {
                format!("autoscaler EWMA gain {alpha} must be in (0, 1]")
            })?;
        }
        // Probe every replica with every shape in the mix so capacity
        // violations surface at construction, not mid-run.
        let shapes = config.trace.seq_lens();
        for backend in &replicas {
            let mut probe = BatchScheduler::for_backend(Arc::clone(backend), config.scheduler)?;
            for &seq_len in &shapes {
                probe.submit(InferenceRequest::new(0, 0.0, seq_len))?;
            }
        }
        Ok(OverloadSim { replicas, config })
    }

    /// Single-replica sugar over [`OverloadSim::with_replicas`].
    ///
    /// # Errors
    ///
    /// As for [`OverloadSim::with_replicas`].
    pub fn with_backend(backend: impl Backend + 'static, config: OverloadConfig) -> Result<Self> {
        OverloadSim::with_replicas(vec![Arc::new(backend)], config)
    }

    /// The run configuration.
    pub fn config(&self) -> &OverloadConfig {
        &self.config
    }

    /// Fleet size.
    pub fn replicas(&self) -> usize {
        self.replicas.len()
    }

    /// Streams the trace through the fleet. One pass, O(1) memory in the
    /// request count (histograms, memo tables, and bounded queues only).
    ///
    /// # Errors
    ///
    /// Propagates scheduler and device-model errors, and returns
    /// [`RuntimeError::Internal`] if the run breaks request conservation.
    pub fn run(&self) -> Result<OverloadReport> {
        let (ledger, replicas) = self.drive(self.config.trace.stream(), None)?;
        Ok(self.report(ledger, &replicas))
    }

    /// Replays an explicit arrival stream (sorted by `arrival_ns`) through
    /// the fleet instead of streaming the configured trace, and also
    /// returns every launched batch. `replay_traced(&trace.collect())`
    /// reports exactly what [`OverloadSim::run`] does on that trace.
    ///
    /// # Errors
    ///
    /// Returns [`RuntimeError::InvalidConfig`] for an empty or unsorted
    /// stream, propagates scheduler and device-model errors, and returns
    /// [`RuntimeError::Internal`] if the run breaks request conservation.
    // hyflex-lint: allow(U2) — the serving and traffic tests read per-batch traces through it until ROADMAP item 4's event stream replaces it
    pub fn replay_traced(
        &self,
        arrivals: &[InferenceRequest],
    ) -> Result<(OverloadReport, Vec<BatchTrace>)> {
        let mut traces = Vec::new();
        let (ledger, replicas) = self.drive(arrivals.iter().copied(), Some(&mut traces))?;
        Ok((self.report(ledger, &replicas), traces))
    }

    /// Reads a run's report off its ledger and final replica states.
    fn report(&self, ledger: Ledger, replicas: &[Replica]) -> OverloadReport {
        let intake = &ledger.intake;
        let completed = intake.total(|p| p.completed);
        // A completion is useful unless it carried a deadline and missed it.
        let missed = intake.total(|p| p.slo_completed) - intake.total(|p| p.slo_met);
        let slo_tracked = intake.total(|p| p.slo_tracked);
        OverloadReport {
            replicas: replicas.len(),
            offered: intake.total(|p| p.offered),
            admitted: intake.total(|p| p.admitted),
            rejected: intake.total(|p| p.rejected),
            shed: intake.total(|p| p.shed),
            preempted: intake.total(|p| p.preempted),
            completed,
            batches: ledger.batches,
            sim_seconds: intake.sim_seconds(),
            achieved_qps: intake.per_second(completed),
            goodput_qps: intake.per_second(completed - missed),
            slo_attainment: if slo_tracked > 0 {
                intake.total(|p| p.slo_met) as f64 / slo_tracked as f64
            } else {
                1.0
            },
            latency: intake.hist.summary(),
            mean_batch_size: completed as f64 / ledger.batches.max(1) as f64,
            mean_queue_ms: ledger.queue_ns_sum / completed.max(1) as f64 / 1e6,
            per_replica_completed: replicas.iter().map(|r| r.completed).collect(),
            mean_utilization: (replicas.iter())
                .map(|r| {
                    if r.device_free > intake.first_arrival_ns {
                        r.busy_ns / (r.device_free - intake.first_arrival_ns)
                    } else {
                        0.0
                    }
                })
                .sum::<f64>()
                / replicas.len() as f64,
            phases: (self.config.trace.phase_labels().into_iter())
                .zip(&intake.phases)
                .map(|(label, phase)| phase.report(label))
                .collect(),
            autoscale_events: ledger.autoscale_events,
            peak_active_replicas: ledger.peak_active,
        }
    }

    /// The event loop: streams `requests` through the fleet, drains it,
    /// checks conservation, and returns the ledger with the final replica
    /// states. Arrivals must come in non-decreasing `arrival_ns`; one that
    /// steps back in time is rejected as it streams past. Every launched
    /// batch is pushed to `sink` when one is given.
    fn drive(
        &self,
        requests: impl IntoIterator<Item = InferenceRequest>,
        mut sink: Option<&mut Vec<BatchTrace>>,
    ) -> Result<(Ledger, Vec<Replica>)> {
        let fleet = self.replicas.len();
        let initially_active = self.config.autoscaler.map_or(fleet, |s| s.min_replicas);
        let mut replicas = (self.replicas.iter().enumerate())
            .map(|(index, backend)| {
                Replica::new(index, backend, &self.config, index < initially_active)
            })
            .collect::<Result<Vec<_>>>()?;
        let mut ledger = Ledger {
            intake: Intake::new(self.config.admission, &self.config.trace),
            batches: 0,
            queue_ns_sum: 0.0,
            autoscale_events: Vec::new(),
            peak_active: initially_active,
        };
        let mut autoscaler = self.config.autoscaler.map(|config| Autoscaler {
            config,
            fleet_max: config.max_replicas.min(fleet),
            active: initially_active,
            next_check_ns: config.check_interval_s * 1e9,
            pending: None,
            ewma: None,
        });
        let mut round_robin = 0usize;

        for request in requests {
            let now = request.arrival_ns;
            ledger.intake.on_offered(&request)?;
            // Autoscaler events due at or before this arrival.
            if let Some(autoscaler) = &mut autoscaler {
                autoscaler.catch_up(now, &mut replicas, &mut ledger, &mut sink)?;
            }
            // Retired replicas keep draining their queues.
            for replica in &mut replicas {
                replica.advance(now, &mut ledger, sink.as_deref_mut())?;
            }
            // The token bucket does not consult the target queue.
            if !ledger.intake.take_token(now) {
                ledger.intake.phase(&request).rejected += 1;
                continue;
            }
            let target = dispatch(self.config.dispatch, &mut replicas, &mut round_robin, now)?;
            let replica = &mut replicas[target];
            // The queue-depth gate (with optional preemption).
            if ledger.intake.queue_full(|| replica.outstanding(now)) {
                let preempted = if self.config.preempt {
                    replica.scheduler.preempt_for(&request)
                } else {
                    None
                };
                match preempted {
                    Some(victim) => ledger.intake.phase(&victim).preempted += 1,
                    None => {
                        ledger.intake.phase(&request).rejected += 1;
                        continue;
                    }
                }
            }
            ledger.intake.phase(&request).admitted += 1;
            replica.scheduler.submit(request)?;
        }
        if ledger.intake.first_arrival_ns.is_nan() {
            return Err(RuntimeError::InvalidConfig(
                "the arrival stream is empty".to_string(),
            ));
        }
        // Drain: every queued request either completes or (under shedding)
        // is dropped at its final launch decision.
        for replica in &mut replicas {
            replica.advance(f64::INFINITY, &mut ledger, sink.as_deref_mut())?;
        }
        ledger.intake.check()?;
        Ok((ledger, replicas))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::SchedulingPolicy;
    use crate::serving::RequestClass;
    use crate::traffic::{ArrivalProcess, MmppState, TrafficConfig};
    use hyflex_baselines::{Asadi, AsadiPrecision, NonPim};
    use hyflex_pim::backend::HyFlexPim;
    use hyflex_pim::PerformanceModel;
    use hyflex_transformer::ModelConfig;

    fn hyflex_backend() -> HyFlexPim {
        HyFlexPim::new(
            PerformanceModel::paper_default(),
            ModelConfig::bert_base(),
            0.05,
        )
        .unwrap()
    }

    fn overload_trace(qps: f64, n: usize, slo_ns: f64) -> RequestTrace {
        RequestTrace::new(TrafficConfig {
            process: ArrivalProcess::Mmpp {
                states: vec![
                    MmppState::new("burst", qps * 2.0, 0.01),
                    MmppState::new("trough", qps * 0.5, 0.015),
                ],
            },
            num_requests: n,
            classes: vec![
                RequestClass::new(64, 3.0).with_slo_ns(slo_ns),
                RequestClass::new(128, 1.0).with_priority(1),
            ],
            seed: 11,
            ..TrafficConfig::default()
        })
        .unwrap()
    }

    #[test]
    fn construction_rejects_degenerate_policies() {
        let trace = overload_trace(1000.0, 100, 1e7);
        let base = OverloadConfig::new(trace);
        let bad =
            |config: OverloadConfig| OverloadSim::with_backend(hyflex_backend(), config).is_err();
        assert!(OverloadSim::with_replicas(vec![], base.clone()).is_err());
        assert!(bad(OverloadConfig {
            admission: AdmissionPolicy::TokenBucket {
                rate_qps: 0.0,
                burst: 10.0,
            },
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            admission: AdmissionPolicy::TokenBucket {
                rate_qps: 100.0,
                burst: 0.5,
            },
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            admission: AdmissionPolicy::QueueDepth { max_outstanding: 0 },
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 0,
                ..AutoscalerConfig::default()
            }),
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            autoscaler: Some(AutoscalerConfig {
                min_replicas: 2, // fleet of 1: floor above the ceiling
                ..AutoscalerConfig::default()
            }),
            ..base.clone()
        }));
        assert!(bad(OverloadConfig {
            autoscaler: Some(AutoscalerConfig {
                scale_up_outstanding: 4.0,
                scale_down_outstanding: 8.0,
                ..AutoscalerConfig::default()
            }),
            ..base
        }));
    }

    #[test]
    fn conservation_holds_under_shedding_preemption_and_rejection() {
        // A hard overload with a bounded queue, EDF + shed + preempt: every
        // offered request must be exactly one of completed / rejected /
        // shed / preempted after the final drain.
        let trace = overload_trace(60_000.0, 6000, 3e6);
        let sim = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig {
                scheduler: SchedulerConfig {
                    policy: SchedulingPolicy::Edf,
                    ..SchedulerConfig::default()
                },
                admission: AdmissionPolicy::QueueDepth {
                    max_outstanding: 64,
                },
                shed: true,
                preempt: true,
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.offered, 6000);
        assert_eq!(report.offered, report.admitted + report.rejected);
        assert_eq!(
            report.admitted,
            report.completed + report.shed + report.preempted
        );
        assert!(report.shed > 0, "overload this hard must shed");
        assert!(report.rejected > 0, "the bounded queue must reject");
        assert!(report.preempted > 0, "EDF newcomers must preempt");
        // Phase counts partition the run-wide counts.
        let sum = |f: fn(&PhaseReport) -> usize| report.phases.iter().map(f).sum::<usize>();
        assert_eq!(sum(|p| p.offered), report.offered);
        assert_eq!(sum(|p| p.completed), report.completed);
        assert_eq!(sum(|p| p.shed), report.shed);
        assert_eq!(sum(|p| p.rejected), report.rejected);
        assert_eq!(sum(|p| p.preempted), report.preempted);
        assert_eq!(
            report.per_replica_completed.iter().sum::<usize>(),
            report.completed
        );
    }

    #[test]
    fn overload_runs_are_deterministic() {
        let make = || {
            OverloadSim::with_backend(
                hyflex_backend(),
                OverloadConfig {
                    admission: AdmissionPolicy::QueueDepth {
                        max_outstanding: 128,
                    },
                    shed: true,
                    ..OverloadConfig::new(overload_trace(30_000.0, 3000, 5e6))
                },
            )
            .unwrap()
        };
        assert_eq!(make().run().unwrap(), make().run().unwrap());
    }

    #[test]
    fn token_bucket_caps_the_sustained_admitted_rate() {
        let trace = overload_trace(40_000.0, 4000, f64::INFINITY);
        let sim = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig {
                admission: AdmissionPolicy::TokenBucket {
                    rate_qps: 10_000.0,
                    burst: 50.0,
                },
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert!(report.rejected > 0);
        // Admissions over the arrival span stay near the bucket rate (the
        // burst allowance loosens the bound slightly).
        let admitted_qps = report.admitted as f64 / report.sim_seconds;
        assert!(
            admitted_qps < 13_000.0,
            "bucket leaked: admitted at {admitted_qps:.0} qps"
        );
    }

    #[test]
    fn shedding_improves_goodput_under_hard_overload() {
        // 3x a chip's sustainable rate with tight SLOs and a deep queue:
        // without shedding, doomed requests poison batches and goodput
        // collapses; with shedding the chip spends its time on requests
        // that can still make their deadline.
        let make = |shed| {
            OverloadSim::with_backend(
                hyflex_backend(),
                OverloadConfig {
                    scheduler: SchedulerConfig {
                        policy: SchedulingPolicy::Edf,
                        ..SchedulerConfig::default()
                    },
                    admission: AdmissionPolicy::QueueDepth {
                        max_outstanding: 512,
                    },
                    shed,
                    ..OverloadConfig::new(overload_trace(50_000.0, 8000, 2e6))
                },
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let without = make(false);
        let with = make(true);
        assert!(with.shed > 0);
        assert_eq!(without.shed, 0);
        assert!(
            with.goodput_qps > without.goodput_qps,
            "shed {} <= no-shed {}",
            with.goodput_qps,
            without.goodput_qps
        );
        assert!(with.slo_attainment >= without.slo_attainment);
    }

    #[test]
    fn autoscaler_grows_the_fleet_under_load_and_records_events() {
        // Four replicas, floor 1: sustained overload must scale the fleet
        // up (after the actuation lag) and the report must say so.
        let backend: Arc<dyn Backend> = Arc::new(hyflex_backend());
        let trace = overload_trace(30_000.0, 5000, f64::INFINITY);
        let sim = OverloadSim::with_replicas(
            vec![
                Arc::clone(&backend),
                Arc::clone(&backend),
                Arc::clone(&backend),
                backend,
            ],
            OverloadConfig {
                autoscaler: Some(AutoscalerConfig {
                    min_replicas: 1,
                    max_replicas: 4,
                    check_interval_s: 0.005,
                    actuation_lag_s: 0.01,
                    scale_up_outstanding: 32.0,
                    scale_down_outstanding: 2.0,
                    ewma_alpha: None,
                }),
                ..OverloadConfig::new(trace)
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert!(report.peak_active_replicas > 1, "never scaled up");
        assert!(!report.autoscale_events.is_empty());
        // Events are time-ordered and respect the fleet bounds.
        for pair in report.autoscale_events.windows(2) {
            assert!(pair[0].at_s <= pair[1].at_s);
        }
        for event in &report.autoscale_events {
            assert!((1..=4).contains(&event.active_replicas));
        }
        // The first actuation cannot precede check + lag.
        assert!(report.autoscale_events[0].at_s >= 0.005 + 0.01 - 1e-9);
        assert_eq!(report.completed, report.admitted);
        // More replicas than the static floor would manage alone.
        let static_one = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig::new(overload_trace(30_000.0, 5000, f64::INFINITY)),
        )
        .unwrap()
        .run()
        .unwrap();
        assert!(report.achieved_qps > static_one.achieved_qps);
    }

    #[test]
    fn ewma_predictor_beats_the_reactive_autoscaler_on_the_burst() {
        // Same fleet, same MMPP burst/trough trace with deadlines: the Holt
        // predictor orders the scale-up while the burst is still ramping
        // (it projects the smoothed per-replica load one actuation lag
        // ahead), so the extra replicas arrive sooner than under the
        // reactive controller, which waits for the raw sample to cross the
        // threshold before even starting to pay the lag.
        // Anchor the workload to the backend's own sustainable rate, like
        // fig21: troughs fit one replica, bursts need most of the fleet.
        let probe = hyflex_backend();
        let single = probe.evaluate_batched(64, 16).unwrap();
        let sustainable_qps = 16.0 * 1e9 / single.makespan_ns;
        let slo_ns = 25.0 * probe.evaluate_batched(64, 1).unwrap().makespan_ns;
        let trace = || {
            RequestTrace::new(TrafficConfig {
                process: ArrivalProcess::Mmpp {
                    states: vec![
                        MmppState::new("burst", sustainable_qps * 3.0, 0.4),
                        MmppState::new("trough", sustainable_qps * 0.3, 0.6),
                    ],
                },
                num_requests: 50_000,
                classes: vec![RequestClass::new(64, 1.0).with_slo_ns(slo_ns)],
                seed: 11,
                ..TrafficConfig::default()
            })
            .unwrap()
        };
        let run = |alpha: Option<f64>| {
            let backend: Arc<dyn Backend> = Arc::new(hyflex_backend());
            OverloadSim::with_replicas(
                vec![
                    Arc::clone(&backend),
                    Arc::clone(&backend),
                    Arc::clone(&backend),
                    backend,
                ],
                OverloadConfig {
                    autoscaler: Some(AutoscalerConfig {
                        min_replicas: 1,
                        max_replicas: 4,
                        check_interval_s: 0.01,
                        actuation_lag_s: 0.1,
                        scale_up_outstanding: 400.0,
                        scale_down_outstanding: 4.0,
                        ewma_alpha: alpha,
                    }),
                    ..OverloadConfig::new(trace())
                },
            )
            .unwrap()
            .run()
            .unwrap()
        };
        let reactive = run(None);
        let predictive = run(Some(0.5));
        assert!(
            predictive.slo_attainment > reactive.slo_attainment,
            "predictor {} should beat reactive {}",
            predictive.slo_attainment,
            reactive.slo_attainment
        );
        assert!(
            predictive.goodput_qps >= reactive.goodput_qps,
            "predictor goodput {} regressed vs reactive {}",
            predictive.goodput_qps,
            reactive.goodput_qps
        );
        // Same seed, same gain: the predictor is as deterministic as the
        // reactive path.
        assert_eq!(predictive, run(Some(0.5)));
        // Out-of-range gains are rejected at construction.
        let bad = OverloadSim::with_backend(
            hyflex_backend(),
            OverloadConfig {
                autoscaler: Some(AutoscalerConfig {
                    ewma_alpha: Some(1.5),
                    ..AutoscalerConfig::default()
                }),
                ..OverloadConfig::new(overload_trace(1000.0, 10, f64::INFINITY))
            },
        );
        let err = match bad {
            Ok(_) => panic!("EWMA gain 1.5 should be rejected"),
            Err(e) => e.to_string(),
        };
        assert!(err.contains("EWMA"), "{err}");
    }

    #[test]
    fn heterogeneous_fleets_mix_designs_in_one_run() {
        let fleet: Vec<Arc<dyn Backend>> = vec![
            Arc::new(hyflex_backend()),
            Arc::new(Asadi::new(AsadiPrecision::Int8, ModelConfig::bert_base()).unwrap()),
            Arc::new(NonPim::new(ModelConfig::bert_base())),
        ];
        let sim = OverloadSim::with_replicas(
            fleet,
            OverloadConfig {
                dispatch: DispatchPolicy::JoinShortestQueue,
                ..OverloadConfig::new(overload_trace(5000.0, 2000, f64::INFINITY))
            },
        )
        .unwrap();
        let report = sim.run().unwrap();
        assert_eq!(report.completed, 2000);
        assert_eq!(report.replicas, 3);
        // JSQ steers work toward the faster designs but every replica
        // participates under this much load.
        assert!(report.per_replica_completed.iter().all(|&c| c > 0));
        // Deterministic repeat.
        let again = OverloadSim::with_replicas(
            vec![
                Arc::new(hyflex_backend()),
                Arc::new(Asadi::new(AsadiPrecision::Int8, ModelConfig::bert_base()).unwrap()),
                Arc::new(NonPim::new(ModelConfig::bert_base())),
            ],
            OverloadConfig {
                dispatch: DispatchPolicy::JoinShortestQueue,
                ..OverloadConfig::new(overload_trace(5000.0, 2000, f64::INFINITY))
            },
        )
        .unwrap()
        .run()
        .unwrap();
        assert_eq!(report, again);
    }

    #[test]
    fn unbounded_no_shed_matches_closed_loop_accounting() {
        // With every survival feature off, the open-loop engine is the
        // closed loop again: everything admitted, everything completed.
        let trace = overload_trace(2000.0, 1500, 1e9);
        let report = OverloadSim::with_backend(hyflex_backend(), OverloadConfig::new(trace))
            .unwrap()
            .run()
            .unwrap();
        assert_eq!(report.offered, 1500);
        assert_eq!(report.admitted, 1500);
        assert_eq!(report.completed, 1500);
        assert_eq!(report.rejected + report.shed + report.preempted, 0);
        assert_eq!(report.goodput_qps, report.achieved_qps);
        assert!(report.latency.p999_ms.is_some());
    }
}
