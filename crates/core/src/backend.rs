//! The unified evaluation surface every modeled accelerator exposes.
//!
//! The paper's headline claims are comparative — HyFlexPIM versus ASADI,
//! SPRINT, near-memory processing, and a non-PIM digital design — yet prior
//! to this module only HyFlexPIM could flow through the latency/serving
//! machinery (`hyflex-runtime`): the baselines exposed energy and area alone.
//! [`Backend`] subsumes both surfaces: one workload description
//! ([`InferenceRequest`]) driven across interchangeable device models, each
//! returning the same [`PerfSummary`] / [`BatchPerfSummary`] the HyFlexPIM
//! performance model produces.
//!
//! A backend instance is **bound** to a deployment: the hardware model, the
//! transformer architecture it serves, and any mapping parameters (for
//! HyFlexPIM, the SLC protection rate) are fixed at construction, so the
//! per-request surface needs only a sequence length. That is what lets
//! `hyflex-runtime`'s `BatchScheduler` and serving engines stay agnostic of
//! *which* accelerator is being simulated.
//!
//! Implementations live next to their models: [`HyFlexPim`] here (a
//! [`PerformanceModel`] with a model deployed on it), the one way every
//! consumer outside this crate prices HyFlexPIM; ASADI/ASADI†, SPRINT, NMP, non-PIM and analog
//! attention in `hyflex-baselines`, each implementing [`Backend`] directly
//! and addressed by name through its `SystemBuilder`.
//!
//! [`PriceMemo`] is a decorator that prices each batched or decode-step
//! shape once. `SystemBuilder::build` wraps every backend it builds in one.

use crate::perf::{BatchPerfSummary, Deployment, PerfSummary, PerformanceModel};
use crate::PimError;
use crate::Result;
use hyflex_transformer::config::ModelConfig;
use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// One inference request submitted to a backend or the runtime.
///
/// (Moved here from `hyflex-runtime` so the device trait and the scheduler
/// share one request type; the runtime re-exports it.) The struct is plain
/// scalars and `Copy`: the runtime's arrival loops pass requests by value.
///
/// Requests optionally carry serving metadata — an absolute completion
/// [`deadline_ns`](InferenceRequest::deadline_ns) and a
/// [`priority`](InferenceRequest::priority) class — consumed by the
/// SLO-aware scheduling policies in `hyflex-runtime`. The back-compatible
/// constructors ([`InferenceRequest::new`], [`InferenceRequest::of_len`])
/// leave both at their neutral values (no deadline, priority 0), so callers
/// that predate the fields never mention them.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InferenceRequest {
    /// Caller-assigned identifier.
    pub id: u64,
    /// Arrival time in nanoseconds since simulation start.
    pub arrival_ns: f64,
    /// Sequence length of the request.
    pub seq_len: usize,
    /// Absolute completion deadline in nanoseconds since simulation start;
    /// `f64::INFINITY` (the constructor default) means the request carries
    /// no SLO and is excluded from attainment accounting.
    pub deadline_ns: f64,
    /// Priority class for the strict-priority scheduling policy; *lower* is
    /// more urgent (0, the constructor default, is the most urgent class).
    pub priority: u8,
    /// Traffic phase the request arrived in (an index into the arrival
    /// generator's phase labels — e.g. the MMPP state or diurnal rate-curve
    /// segment). `0` (the constructor default) for phase-less streams; the
    /// open-loop overload engine in `hyflex-runtime` uses it to break tail
    /// latency and goodput out per burst/trough phase.
    pub phase: u8,
}

impl InferenceRequest {
    /// A request of length `seq_len` arriving at `arrival_ns`, with no
    /// deadline and the default priority class (the historical field set).
    pub fn new(id: u64, arrival_ns: f64, seq_len: usize) -> Self {
        InferenceRequest {
            id,
            arrival_ns,
            seq_len,
            deadline_ns: f64::INFINITY,
            priority: 0,
            phase: 0,
        }
    }

    /// A request of the given length arriving at t = 0 (convenient for
    /// one-off evaluations where arrival time is irrelevant).
    pub fn of_len(id: u64, seq_len: usize) -> Self {
        InferenceRequest::new(id, 0.0, seq_len)
    }

    /// The same request with an absolute completion deadline attached.
    #[must_use]
    pub fn with_deadline_ns(mut self, deadline_ns: f64) -> Self {
        self.deadline_ns = deadline_ns;
        self
    }

    /// The same request assigned to a priority class (lower = more urgent).
    #[must_use]
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// The same request tagged with the traffic phase it arrived in.
    #[must_use]
    pub fn with_phase(mut self, phase: u8) -> Self {
        self.phase = phase;
        self
    }

    /// Whether the request carries a (finite) completion deadline.
    pub fn has_deadline(&self) -> bool {
        self.deadline_ns.is_finite()
    }
}

/// A transformer accelerator bound to a model deployment, evaluable
/// analytically for latency, energy, and area.
///
/// All methods take `&self`; implementations are expected to be cheap,
/// deterministic, and side-effect free so backends can be shared across the
/// runtime's worker threads (hence the `Send + Sync` supertraits).
pub trait Backend: Send + Sync + std::fmt::Debug {
    /// Human-readable name used in printed tables and registry lookups.
    fn name(&self) -> &str;

    /// The transformer architecture this backend instance serves.
    fn model(&self) -> &ModelConfig;

    /// Capacity of one layer-pipeline tile in *cells* — the per-batch budget
    /// `BatchScheduler` admits requests against. For HyFlexPIM this is the
    /// digital-PIM cell count of one PU; bandwidth-bound baselines report
    /// their activation-buffer budget in the same unit (bits).
    fn capacity(&self) -> usize;

    /// Cells one request of length `seq_len` occupies in one layer tile
    /// while in flight.
    fn request_cells(&self, seq_len: usize) -> usize;

    /// Evaluates one request end to end: latency breakdown, energy
    /// breakdown, throughput, and area.
    ///
    /// # Errors
    ///
    /// Returns configuration/mapping errors.
    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary>;

    /// Evaluates `batch_size` same-shape requests executed back to back
    /// (padded to `seq_len`). A batch of one is bit-identical to
    /// [`Backend::evaluate`]; an empty batch is a typed error
    /// ([`PimError::EmptyBatch`]), never a NaN.
    ///
    /// The default models a layer pipeline (HyFlexPIM/ASADI style): the
    /// single-request evaluation pipelined across the model's layers (see
    /// [`pipelined_batch`]). Serial or bandwidth-bound designs override it.
    ///
    /// [`pipelined_batch`]: crate::perf::pipelined_batch
    ///
    /// # Errors
    ///
    /// Returns [`PimError::EmptyBatch`] for `batch_size == 0` and propagates
    /// single-request evaluation errors.
    fn evaluate_batched(&self, seq_len: usize, batch_size: usize) -> Result<BatchPerfSummary> {
        let single = self.evaluate(&InferenceRequest::of_len(0, seq_len))?;
        crate::perf::pipelined_batch(single, self.model().num_layers, seq_len, batch_size)
    }

    /// Energy of the static-weight linear layers for one inference of
    /// `seq_len` tokens (Figure 14), pJ. The default is the linear-layer
    /// share of [`Backend::evaluate`]'s energy breakdown; designs whose
    /// Figure 14 accounting differs from their breakdown override it.
    ///
    /// # Errors
    ///
    /// Propagates evaluation errors.
    fn linear_layer_energy_pj(&self, seq_len: usize) -> Result<f64> {
        Ok(self
            .evaluate(&InferenceRequest::of_len(0, seq_len))?
            .energy
            .linear_layer_pj())
    }

    /// Prices one autoregressive **decode iteration**: `batch_size` requests
    /// each generate their next token against a cached context of
    /// `context_len` tokens (the newest token included), sharing one pass
    /// over the static weights.
    ///
    /// The default prices the step as the *marginal* cost of the newest
    /// token — `evaluate(context_len) − evaluate(context_len − 1)`,
    /// component-wise (see [`marginal_decode_summary`]) — pipelined across
    /// the batch at a one-token shape. A context of one token (the first
    /// decode after an empty prefill) costs a full one-token evaluation.
    /// Backends that execute attention differently in the decode regime
    /// (e.g. analog in-memory attention over a runtime-programmed KV cache)
    /// override this.
    ///
    /// [`marginal_decode_summary`]: crate::perf::marginal_decode_summary
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for a zero context,
    /// [`PimError::EmptyBatch`] for `batch_size == 0`, and propagates
    /// evaluation errors.
    fn evaluate_decode_step(
        &self,
        context_len: usize,
        batch_size: usize,
    ) -> Result<BatchPerfSummary> {
        if context_len == 0 {
            return Err(PimError::InvalidConfig(
                "decode step needs a context of at least one token".to_string(),
            ));
        }
        let full = self.evaluate(&InferenceRequest::of_len(0, context_len))?;
        let marginal = if context_len == 1 {
            full
        } else {
            let prev = self.evaluate(&InferenceRequest::of_len(0, context_len - 1))?;
            crate::perf::marginal_decode_summary(&full, &prev)
        };
        crate::perf::pipelined_batch(marginal, self.model().num_layers, 1, batch_size)
    }
}

macro_rules! forward_backend {
    ($ty:ty) => {
        impl<B: Backend + ?Sized> Backend for $ty {
            fn name(&self) -> &str {
                (**self).name()
            }
            fn model(&self) -> &ModelConfig {
                (**self).model()
            }
            fn capacity(&self) -> usize {
                (**self).capacity()
            }
            fn request_cells(&self, seq_len: usize) -> usize {
                (**self).request_cells(seq_len)
            }
            fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
                (**self).evaluate(request)
            }
            fn evaluate_batched(
                &self,
                seq_len: usize,
                batch_size: usize,
            ) -> Result<BatchPerfSummary> {
                (**self).evaluate_batched(seq_len, batch_size)
            }
            // The provided methods are forwarded explicitly so overrides of
            // their defaults stay visible through trait objects and smart
            // pointers.
            fn linear_layer_energy_pj(&self, seq_len: usize) -> Result<f64> {
                (**self).linear_layer_energy_pj(seq_len)
            }
            fn evaluate_decode_step(
                &self,
                context_len: usize,
                batch_size: usize,
            ) -> Result<BatchPerfSummary> {
                (**self).evaluate_decode_step(context_len, batch_size)
            }
        }
    };
}

forward_backend!(&B);
forward_backend!(Box<B>);
forward_backend!(std::sync::Arc<B>);

/// One memo table: a batch summary per `(length, batch_size)` shape.
#[derive(Default)]
struct ShapeMemo(Mutex<BTreeMap<(usize, usize), BatchPerfSummary>>);

impl ShapeMemo {
    fn table(&self) -> MutexGuard<'_, BTreeMap<(usize, usize), BatchPerfSummary>> {
        // The table only ever holds complete entries, so a panic elsewhere
        // while the lock was held leaves it valid.
        self.0.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The memoized summary of `shape`, priced by `price` on a miss. The
    /// lock is not held while pricing, and an error is returned uncached.
    fn get_or_price(
        &self,
        shape: (usize, usize),
        price: impl FnOnce() -> Result<BatchPerfSummary>,
    ) -> Result<BatchPerfSummary> {
        let hit = self.table().get(&shape).cloned();
        if let Some(summary) = hit {
            return Ok(summary);
        }
        let summary = price()?;
        self.table().insert(shape, summary.clone());
        Ok(summary)
    }
}

/// A pricing memo over a bound backend: [`Backend::evaluate_batched`] is
/// cached by `(seq_len, batch_size)` and [`Backend::evaluate_decode_step`]
/// by `(context_len, batch_size)`; every other method forwards unchanged.
///
/// A bound backend is a deterministic function of its arguments, so a
/// cached summary is bit-identical to pricing the shape again: wrapping
/// changes host time only. A decode run re-prices the same few hundred
/// `(context, batch)` shapes thousands of times, and every caller that
/// builds its backend by name gets the memo from `SystemBuilder::build`.
/// Decorators stacked on the built backend (a timing probe, say) still see
/// every call.
///
/// Errors are never cached: a zero batch or a zero context returns the
/// same error on every call. The tables have no size limit; each holds one
/// entry per distinct shape priced, so memory is bounded by the number of
/// distinct shapes a run asks for, not by how often it asks. The tables
/// sit behind a [`Mutex`], so one memo can be shared across worker
/// threads.
pub struct PriceMemo<B> {
    inner: B,
    batched: ShapeMemo,
    decode: ShapeMemo,
}

impl<B: Backend> PriceMemo<B> {
    /// Wraps `inner` with empty memo tables.
    pub fn new(inner: B) -> Self {
        PriceMemo {
            inner,
            batched: ShapeMemo::default(),
            decode: ShapeMemo::default(),
        }
    }
}

/// Prints as the wrapped backend; the memo tables are host-side state, not
/// part of the modeled system.
impl<B: Backend> std::fmt::Debug for PriceMemo<B> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.inner.fmt(f)
    }
}

impl<B: Backend> Backend for PriceMemo<B> {
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
        self.batched.get_or_price((seq_len, batch_size), || {
            self.inner.evaluate_batched(seq_len, batch_size)
        })
    }
    // Forwarded explicitly, as in `forward_backend!`, so the inner
    // backend's overrides of the provided methods stay in force.
    fn linear_layer_energy_pj(&self, seq_len: usize) -> Result<f64> {
        self.inner.linear_layer_energy_pj(seq_len)
    }
    fn evaluate_decode_step(
        &self,
        context_len: usize,
        batch_size: usize,
    ) -> Result<BatchPerfSummary> {
        self.decode.get_or_price((context_len, batch_size), || {
            self.inner.evaluate_decode_step(context_len, batch_size)
        })
    }
}

/// HyFlexPIM exposed through the [`Backend`] interface: the paper's hybrid
/// SLC/MLC design, bound to a model and an SLC protection rate.
///
/// The static weights are mapped once: [`HyFlexPim::new`] builds the
/// [`Deployment`] (crossbar read cycles, write energy, analog passes and
/// PUs, chip area), and every call prices its sequence length from it with
/// [`PerformanceModel::evaluate_deployed`] — no re-mapping, no config
/// validation, no heap allocation. Deploying once is bit-identical to
/// deploying afresh for every call: the exact-equality sweep here and the
/// root `tests/backend_api.rs` enforce it.
#[derive(Debug, Clone)]
pub struct HyFlexPim {
    perf: PerformanceModel,
    deployment: Deployment,
    model: ModelConfig,
    name: String,
}

impl HyFlexPim {
    /// Binds a performance model to a deployment, mapping the model's static
    /// layers once.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for an SLC rate outside `[0, 1]`
    /// and propagates hardware-configuration and mapping errors.
    pub fn new(perf: PerformanceModel, model: ModelConfig, slc_rank_fraction: f64) -> Result<Self> {
        if !(0.0..=1.0).contains(&slc_rank_fraction) || slc_rank_fraction.is_nan() {
            return Err(PimError::InvalidConfig(format!(
                "slc_rank_fraction {slc_rank_fraction} must lie in [0, 1]"
            )));
        }
        let deployment = perf.deploy(&model, slc_rank_fraction)?;
        let name = format!(
            "HyFlexPIM ({}% SLC)",
            (slc_rank_fraction * 100.0).round() as u32
        );
        Ok(HyFlexPim {
            perf,
            deployment,
            model,
            name,
        })
    }

    /// The paper's configuration bound to `model` at `slc_rank_fraction`.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for an SLC rate outside `[0, 1]`.
    pub fn paper(model: ModelConfig, slc_rank_fraction: f64) -> Result<Self> {
        HyFlexPim::new(PerformanceModel::paper_default(), model, slc_rank_fraction)
    }

    /// The SLC protection rate of the deployed mapping.
    pub fn slc_rank_fraction(&self) -> f64 {
        self.deployment.slc_rank_fraction()
    }
}

impl Backend for HyFlexPim {
    fn name(&self) -> &str {
        &self.name
    }

    fn model(&self) -> &ModelConfig {
        &self.model
    }

    fn capacity(&self) -> usize {
        self.perf.hw().digital_cells_per_pu()
    }

    fn request_cells(&self, seq_len: usize) -> usize {
        self.deployment
            .chip()
            .digital_cells_for_layer(&self.model, seq_len)
    }

    fn evaluate(&self, request: &InferenceRequest) -> Result<PerfSummary> {
        Ok(self
            .perf
            .evaluate_deployed(&self.model, &self.deployment, request.seq_len))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arch::Chip;
    use crate::perf::{marginal_decode_summary, pipelined_batch};

    /// Sequence lengths 1..=2048: every length up to 8, then a stride that
    /// is coprime to the powers of two, then the top of the range.
    fn strided_lengths() -> impl Iterator<Item = usize> {
        (1..=8).chain((9..2048).step_by(61)).chain([2047, 2048])
    }

    /// The deploy-once backend and a fresh `deploy` + `evaluate_deployed`
    /// for every call run the same formulas in the same order: every figure
    /// is exactly equal, never merely close.
    #[test]
    fn hyflexpim_backend_is_bit_identical_to_the_perf_model() {
        use hyflex_rram::cell::CellMode;
        let models = [
            ModelConfig::bert_large(),
            ModelConfig::gpt2_small(),
            ModelConfig::llama3_1b(),
        ];
        for bits in 2..=4u8 {
            let hw = crate::HyFlexPimConfig {
                mlc_mode: CellMode::Mlc { bits },
                ..crate::HyFlexPimConfig::paper_default()
            };
            let perf = PerformanceModel::new(hw).unwrap();
            for model in &models {
                for slc in [0.0, 0.05, 0.5, 1.0] {
                    let backend = HyFlexPim::new(perf.clone(), model.clone(), slc).unwrap();
                    let fresh = |seq_len| {
                        let deployment = perf.deploy(model, slc).unwrap();
                        perf.evaluate_deployed(model, &deployment, seq_len)
                    };
                    for n in strided_lengths() {
                        let full = fresh(n);
                        let request = InferenceRequest::of_len(0, n);
                        assert_eq!(backend.evaluate(&request).unwrap(), full);
                        assert_eq!(
                            backend.evaluate_batched(n, 16).unwrap(),
                            pipelined_batch(full.clone(), model.num_layers, n, 16).unwrap()
                        );
                        let marginal = if n == 1 {
                            full
                        } else {
                            marginal_decode_summary(&full, &fresh(n - 1))
                        };
                        assert_eq!(
                            backend.evaluate_decode_step(n, 16).unwrap(),
                            pipelined_batch(marginal, model.num_layers, 1, 16).unwrap()
                        );
                    }
                }
            }
        }
        let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap();
        assert!(backend.name().contains("HyFlexPIM"));
        assert_eq!(backend.model().name, "BERT-Large");
    }

    #[test]
    fn capacity_matches_the_scheduler_contract() {
        let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.1).unwrap();
        let hw = crate::HyFlexPimConfig::paper_default();
        assert_eq!(backend.capacity(), hw.digital_cells_per_pu());
        let chip = Chip::new(hw).unwrap();
        assert_eq!(
            backend.request_cells(256),
            chip.digital_cells_for_layer(&ModelConfig::bert_large(), 256)
        );
        // Longer requests always cost more tile cells.
        assert!(backend.request_cells(512) > backend.request_cells(128));
    }

    #[test]
    fn request_constructors_default_to_no_slo_and_top_priority() {
        let plain = InferenceRequest::new(3, 42.0, 256);
        assert_eq!(plain.id, 3);
        assert_eq!(plain.arrival_ns, 42.0);
        assert_eq!(plain.seq_len, 256);
        assert!(!plain.has_deadline());
        assert_eq!(plain.priority, 0);
        assert_eq!(InferenceRequest::of_len(3, 256).seq_len, 256);
        let tagged = plain.with_deadline_ns(1e6).with_priority(2);
        assert!(tagged.has_deadline());
        assert_eq!(tagged.deadline_ns, 1e6);
        assert_eq!(tagged.priority, 2);
        // Plain scalars: requests are passed by value in the hot loops.
        let copy = tagged;
        assert_eq!(copy, tagged);
    }

    #[test]
    fn decode_step_prices_the_marginal_token() {
        let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.05).unwrap();
        let step = backend.evaluate_decode_step(128, 1).unwrap();
        let full = backend.evaluate(&InferenceRequest::of_len(0, 128)).unwrap();
        // One token costs a fraction of the whole 128-token context.
        assert!(step.single.latency.total_ns() > 0.0);
        assert!(step.single.latency.total_ns() < full.latency.total_ns());
        assert!(step.single.energy.total_pj() > 0.0);
        assert!(step.single.energy.total_pj() < full.energy.total_pj());
        // Iteration-level batching amortizes the layer pipeline.
        let b8 = backend.evaluate_decode_step(128, 8).unwrap();
        assert!(b8.requests_per_s > step.requests_per_s);
        assert!(b8.makespan_ns < 8.0 * step.makespan_ns);
        // A context of one token prices a full one-token evaluation.
        let first = backend.evaluate_decode_step(1, 1).unwrap();
        let one = backend.evaluate(&InferenceRequest::of_len(0, 1)).unwrap();
        assert_eq!(first.single, one);
        // Degenerate shapes are typed errors, never NaNs.
        assert!(backend.evaluate_decode_step(0, 1).is_err());
        assert!(backend.evaluate_decode_step(128, 0).is_err());
        // Trait objects forward to the same pricing.
        let arced: std::sync::Arc<dyn Backend> = std::sync::Arc::new(backend);
        assert_eq!(arced.evaluate_decode_step(128, 8).unwrap(), b8);
    }

    #[test]
    fn construction_rejects_out_of_range_slc_rates() {
        for bad in [-0.1, 1.1, f64::NAN] {
            assert!(HyFlexPim::paper(ModelConfig::bert_base(), bad).is_err());
        }
        assert!(HyFlexPim::paper(ModelConfig::bert_base(), 0.0).is_ok());
        assert!(HyFlexPim::paper(ModelConfig::bert_base(), 1.0).is_ok());
    }

    /// Counts the pricing calls that reach the wrapped backend.
    #[derive(Debug)]
    struct CountingBackend {
        inner: HyFlexPim,
        priced: std::sync::atomic::AtomicUsize,
    }

    impl CountingBackend {
        fn priced(&self) -> usize {
            self.priced.load(std::sync::atomic::Ordering::Relaxed)
        }
        fn count(&self) {
            self.priced
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    impl Backend for CountingBackend {
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
            self.count();
            self.inner.evaluate_batched(seq_len, batch_size)
        }
        fn evaluate_decode_step(
            &self,
            context_len: usize,
            batch_size: usize,
        ) -> Result<BatchPerfSummary> {
            self.count();
            self.inner.evaluate_decode_step(context_len, batch_size)
        }
    }

    #[test]
    fn price_memo_prices_each_shape_once_and_never_caches_errors() {
        let bare = HyFlexPim::paper(ModelConfig::bert_base(), 0.05).unwrap();
        let memo = PriceMemo::new(CountingBackend {
            inner: bare.clone(),
            priced: std::sync::atomic::AtomicUsize::new(0),
        });
        for _ in 0..3 {
            assert_eq!(memo.evaluate_batched(128, 4), bare.evaluate_batched(128, 4));
            assert_eq!(
                memo.evaluate_decode_step(128, 4),
                bare.evaluate_decode_step(128, 4)
            );
        }
        // The two methods keep separate tables even for the same pair.
        assert_eq!(memo.inner.priced(), 2);
        for round in 1..=3 {
            assert_eq!(memo.evaluate_batched(128, 0), Err(PimError::EmptyBatch));
            assert_eq!(memo.evaluate_decode_step(128, 0), Err(PimError::EmptyBatch));
            assert!(matches!(
                memo.evaluate_decode_step(0, 4),
                Err(PimError::InvalidConfig(_))
            ));
            // Every error reaches the wrapped backend again.
            assert_eq!(memo.inner.priced(), 2 + 3 * round);
        }
        // Everything else forwards, Debug included.
        assert_eq!(memo.name(), bare.name());
        assert_eq!(memo.capacity(), bare.capacity());
        assert_eq!(memo.request_cells(64), bare.request_cells(64));
        assert_eq!(
            memo.linear_layer_energy_pj(64),
            bare.linear_layer_energy_pj(64)
        );
        assert_eq!(
            format!("{:?}", PriceMemo::new(bare.clone())),
            format!("{bare:?}")
        );
    }

    /// One memo shared by pool workers that race on the same cold shapes
    /// returns exactly the serial map of the unwrapped backend.
    #[test]
    fn price_memo_shared_across_pool_workers_matches_the_serial_map() {
        let bare = HyFlexPim::paper(ModelConfig::bert_base(), 0.05).unwrap();
        let memo = PriceMemo::new(bare.clone());
        // Every shape three times over, zero shapes included, so workers
        // meet on hits, on concurrent misses and on uncached errors.
        let shapes: Vec<(usize, usize)> = (0..3)
            .flat_map(|_| (0..=96).step_by(7))
            .flat_map(|len| (0..=8).map(move |batch| (len, batch)))
            .collect();
        let price = |backend: &dyn Backend, &(len, batch): &(usize, usize)| {
            (
                backend.evaluate_batched(len.max(1), batch),
                backend.evaluate_decode_step(len, batch),
            )
        };
        let serial: Vec<_> = shapes.iter().map(|shape| price(&bare, shape)).collect();
        let pooled = hyflex_parallel::JobPool::new(4).par_map(&shapes, |shape| price(&memo, shape));
        assert_eq!(pooled, serial);
    }

    #[test]
    fn trait_objects_and_smart_pointers_forward() {
        let backend = HyFlexPim::paper(ModelConfig::bert_base(), 0.05).unwrap();
        let direct = backend.evaluate(&InferenceRequest::of_len(1, 64)).unwrap();
        let boxed: Box<dyn Backend> = Box::new(backend.clone());
        assert_eq!(
            boxed.evaluate(&InferenceRequest::of_len(1, 64)).unwrap(),
            direct
        );
        let arced: std::sync::Arc<dyn Backend> = std::sync::Arc::new(backend);
        assert_eq!(arced.capacity(), boxed.capacity());
        assert_eq!((*arced).name(), boxed.name());
    }
}
