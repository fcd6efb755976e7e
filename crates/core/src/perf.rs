//! Analytical performance model: energy, latency, throughput, and area.
//!
//! This is the model behind Figures 14–16. It combines:
//!
//! * the per-layer crossbar mapping ([`crate::mapping`]) — how many arrays,
//!   read cycles, and ADC conversions a layer needs in SLC versus MLC;
//! * the per-event energies derived from Table 2
//!   (`hyflex-circuits::EnergyModel`);
//! * the operation counts of `hyflex-transformer::ops_count` for the dynamic
//!   attention products handled by digital PIM and the SFU.
//!
//! Absolute joules are a function of the published 65 nm constants; the
//! quantities the reproduction is judged on are the *relative* numbers: how
//! the hybrid SLC/MLC mapping compares to an all-SLC mapping (ASADI), to a
//! digital-processor design (SPRINT), and to near-memory or non-PIM
//! baselines, across sequence lengths and protection rates.
//!
//! # Deploy once, price every length
//!
//! HyFlexPIM programs its static weights into SLC/MLC arrays once and reuses
//! them for every inference (Section 5.2), and the model is split the same
//! way. [`PerformanceModel::deploy`] maps a model's six static layers at one
//! SLC rate and keeps what that mapping fixes for every sequence length (a
//! [`Deployment`]). [`PerformanceModel::evaluate_deployed`] then prices one
//! sequence length from it with no mapping, no validation and no heap
//! allocation. That pair is the only way to price HyFlexPIM: the bound
//! backend `crate::backend::HyFlexPim` deploys in its constructor and
//! prices every call from the deployment, and the batch arithmetic
//! ([`pipelined_batch`], [`packed_batch`], [`batch_summary_from_interval`])
//! works on the summaries it returns.

use crate::arch::Chip;
use crate::config::{
    HyFlexPimConfig, ANALOG_READ_CYCLE_NS, DIGITAL_CYCLE_NS, GLOBAL_BUS_BYTES_PER_S,
    ON_CHIP_INTERCONNECT_BYTES_PER_S,
};
use crate::energy_breakdown::EnergyBreakdown;
use crate::mapping;
use crate::Result;
use hyflex_circuits::sfu::SFU_INPUTS_PER_CYCLE;
use hyflex_circuits::{EnergyModel, Table2};
use hyflex_rram::digital::DigitalPimModule;
use hyflex_transformer::config::ModelConfig;
use hyflex_transformer::ops_count;

/// Default number of inferences over which the one-time analog weight
/// programming cost is amortized (static weights are written once and reused;
/// Section 5.2 argues for ≥10 k daily requests).
pub const DEFAULT_WEIGHT_REUSE_INFERENCES: u64 = 10_000;

/// Latency split of one inference.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LatencyBreakdown {
    /// Time spent in analog crossbar reads (per pipeline stage, summed).
    pub analog_ns: f64,
    /// Time spent in digital PIM attention products.
    pub digital_ns: f64,
    /// Time spent in the SFU.
    pub sfu_ns: f64,
    /// Time spent moving data between modules/PUs/chips.
    pub interconnect_ns: f64,
    /// Time the request spent queued behind other requests of its batch
    /// before entering the layer pipeline (zero for single-request
    /// evaluation; the mean over the batch for batched evaluation).
    pub queueing_ns: f64,
}

impl LatencyBreakdown {
    /// Total latency in nanoseconds.
    pub fn total_ns(&self) -> f64 {
        self.analog_ns + self.digital_ns + self.sfu_ns + self.interconnect_ns + self.queueing_ns
    }
}

/// Full evaluation result for one point.
#[derive(Debug, Clone, PartialEq)]
pub struct PerfSummary {
    /// Energy per inference, by component.
    pub energy: EnergyBreakdown,
    /// Latency per inference.
    pub latency: LatencyBreakdown,
    /// Total scalar operations per inference (MAC counted as two ops).
    pub total_ops: u64,
    /// Throughput in tera-operations per second.
    pub throughput_tops: f64,
    /// Chip area in mm² (Table 2).
    pub area_mm2: f64,
    /// Area efficiency in TOPS/mm².
    pub tops_per_mm2: f64,
    /// Number of chips required to hold the model.
    pub chips: usize,
}

impl PerfSummary {
    /// Assembles a summary from the modeled quantities, deriving the
    /// zero-guarded throughput (TOPS) and area efficiency (TOPS/mm²). Every
    /// backend — HyFlexPIM's [`PerformanceModel::evaluate_deployed`] and the
    /// baselines — builds its result through this so the derivations cannot
    /// drift apart.
    pub fn from_parts(
        energy: EnergyBreakdown,
        latency: LatencyBreakdown,
        total_ops: u64,
        area_mm2: f64,
        chips: usize,
    ) -> Self {
        let latency_s = latency.total_ns() * 1e-9;
        let throughput_tops = if latency_s > 0.0 {
            total_ops as f64 / latency_s / 1e12
        } else {
            0.0
        };
        let tops_per_mm2 = if area_mm2 > 0.0 {
            throughput_tops / area_mm2
        } else {
            0.0
        };
        PerfSummary {
            energy,
            latency,
            total_ops,
            throughput_tops,
            area_mm2,
            tops_per_mm2,
            chips,
        }
    }
}

/// Batch-aware evaluation result: `batch_size` requests of the same shape
/// pipelined through the layer pipeline back to back.
///
/// The model: the chip dedicates one pipeline stage per transformer layer
/// (Section 3.1). A request keeps each stage busy for one *initiation
/// interval* — the per-layer stage occupancy already implied by
/// [`PerformanceModel::evaluate_deployed`]'s latency model — and request `k`
/// enters the pipeline `k` intervals after request 0. Batching therefore
/// amortizes the pipeline fill/drain overhead (the `1 + (L-1)/N` factor of
/// the single-request latency): utilization approaches 1 as `B` grows while
/// per-request latency grows only by the queueing term `k · interval`.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchPerfSummary {
    /// Number of requests in the batch.
    pub batch_size: usize,
    /// The underlying single-request evaluation.
    pub single: PerfSummary,
    /// Latency of the first request (pipeline fill + its own service time).
    pub first_request_ns: f64,
    /// Initiation interval: time between consecutive request completions.
    pub initiation_interval_ns: f64,
    /// Wall-clock time from batch start to last completion.
    pub makespan_ns: f64,
    /// Mean per-request latency breakdown; `queueing_ns` holds the mean wait
    /// behind earlier requests of the batch.
    pub latency: LatencyBreakdown,
    /// Fraction of stage-time the `L` pipeline stages spend busy during the
    /// makespan: `B · interval / makespan`.
    pub pipeline_utilization: f64,
    /// Completed requests per second at steady state.
    pub requests_per_s: f64,
    /// Throughput over the batch makespan, TOPS.
    pub throughput_tops: f64,
    /// Energy per request, pJ (weight programming is amortized identically,
    /// so this equals the single-request energy).
    pub energy_per_request_pj: f64,
}

impl BatchPerfSummary {
    /// Completion time of request `k` (0-based) relative to batch start, ns.
    pub fn completion_ns(&self, k: usize) -> f64 {
        self.first_request_ns + k as f64 * self.initiation_interval_ns
    }
}

/// A model deployed onto the chip: what [`PerformanceModel::deploy`]'s
/// one-time crossbar mapping fixes, independent of sequence length.
///
/// HyFlexPIM programs its static weights into SLC/MLC arrays once and reuses
/// them for every inference (Section 5.2), so a bound backend maps once and
/// prices each call from this with [`PerformanceModel::evaluate_deployed`].
#[derive(Debug, Clone, Copy)]
pub struct Deployment {
    chip: Chip,
    slc_rank_fraction: f64,
    /// SLC read cycles per token per input bit, summed over one block.
    slc_cycles_per_bit: f64,
    /// MLC read cycles per token per input bit, summed over one block.
    mlc_cycles_per_bit: f64,
    /// One-time programming energy of one block, pJ.
    write_energy_pj: f64,
    /// Serialized passes over one PU's analog arrays per factored stage.
    analog_passes: f64,
    /// PUs one layer's static weights need (the analog half of the PUs a
    /// layer occupies).
    analog_pus_per_layer: usize,
    /// Area of one chip, mm² (Table 2).
    chip_area_mm2: f64,
}

impl Deployment {
    /// The chip the model is deployed on.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// The SLC protection rate of the mapping.
    pub fn slc_rank_fraction(&self) -> f64 {
        self.slc_rank_fraction
    }
}

/// The HyFlexPIM analytical performance model.
#[derive(Debug, Clone, PartialEq)]
pub struct PerformanceModel {
    hw: HyFlexPimConfig,
    energy: EnergyModel,
    table2: Table2,
    /// Inferences over which analog weight programming is amortized.
    weight_reuse_inferences: u64,
}

impl PerformanceModel {
    /// Builds a model from a hardware configuration.
    ///
    /// # Errors
    ///
    /// Returns configuration errors.
    pub fn new(hw: HyFlexPimConfig) -> Result<Self> {
        hw.validate()?;
        Ok(PerformanceModel {
            hw,
            energy: EnergyModel::default(),
            table2: Table2::paper_65nm(),
            weight_reuse_inferences: DEFAULT_WEIGHT_REUSE_INFERENCES,
        })
    }

    /// The paper's configuration.
    #[allow(clippy::expect_used)]
    pub fn paper_default() -> Self {
        // hyflex-lint: allow(E1) — the paper constants are compile-time
        // fixed and covered by the constructor's validation tests; failing
        // here requires editing the constants themselves.
        PerformanceModel::new(HyFlexPimConfig::paper_default()).expect("paper config is valid")
    }

    /// The hardware configuration.
    pub fn hw(&self) -> &HyFlexPimConfig {
        &self.hw
    }

    /// The per-event energy constants.
    pub fn energy_model(&self) -> &EnergyModel {
        &self.energy
    }

    /// Chip area from Table 2, mm².
    pub fn chip_area_mm2(&self) -> f64 {
        self.table2.chip_area_mm2()
    }

    /// Deploys `model` onto the chip at the given SLC protection rate: maps
    /// the six static layers of one block onto SLC/MLC crossbars once and
    /// keeps everything of that mapping that does not depend on sequence
    /// length. [`PerformanceModel::evaluate_deployed`] then prices any
    /// sequence length from it.
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`](crate::PimError::InvalidConfig)
    /// for an SLC rate outside `[0, 1]` and propagates mapping errors.
    pub fn deploy(&self, model: &ModelConfig, slc_rank_fraction: f64) -> Result<Deployment> {
        let block = mapping::map_block(model, &self.hw, slc_rank_fraction, &self.energy)?;
        let chip = Chip::new(self.hw)?;
        let slc_cycles_per_bit: f64 = block
            .iter()
            .map(|m| m.slc.read_cycles_per_input_bit as f64)
            .sum();
        let mlc_cycles_per_bit: f64 = block
            .iter()
            .map(|m| m.mlc.read_cycles_per_input_bit as f64)
            .sum();
        let write_energy_pj: f64 = block.iter().map(|m| m.write_energy_pj).sum();
        // Arrays of a layer operate concurrently; if the layer needs more
        // arrays than one PU owns, the work is serialized into passes.
        let arrays_per_pu =
            (self.hw.analog_modules_per_pu * self.hw.analog_arrays_per_module) as f64;
        let arrays_per_block: f64 = block.iter().map(|m| m.total_arrays() as f64).sum();
        let analog_passes = (arrays_per_block / arrays_per_pu).ceil().max(1.0);
        Ok(Deployment {
            chip,
            slc_rank_fraction,
            slc_cycles_per_bit,
            mlc_cycles_per_bit,
            write_energy_pj,
            analog_passes,
            analog_pus_per_layer: chip.analog_pus_per_layer(model, slc_rank_fraction),
            chip_area_mm2: self.chip_area_mm2(),
        })
    }

    /// Prices one inference of `seq_len` tokens on a deployment made by
    /// [`PerformanceModel::deploy`] for the same `model`. Only the
    /// sequence-dependent arithmetic runs here: no mapping, no validation
    /// and no heap allocation.
    pub fn evaluate_deployed(
        &self,
        model: &ModelConfig,
        deployment: &Deployment,
        seq_len: usize,
    ) -> PerfSummary {
        let d = deployment;
        let chip = &d.chip;
        let n = seq_len as f64;
        let layers = model.num_layers as f64;
        let input_bits = f64::from(self.hw.input_bits);

        let mut energy = EnergyBreakdown::default();

        // ---- Analog PIM: static-weight linear layers -------------------
        // Per token and per input bit, every occupied array performs one read
        // cycle; the shared ADC digitizes its 128 bit lines (6-b for SLC
        // arrays, 7-b for MLC arrays — one extra bit doubles conversion
        // energy, but MLC halves the number of occupied arrays).
        let tokens_bits = n * input_bits * layers;
        let slc_cycles = d.slc_cycles_per_bit * tokens_bits;
        let mlc_cycles = d.mlc_cycles_per_bit * tokens_bits;
        let total_cycles = slc_cycles + mlc_cycles;
        let bit_lines = self.hw.analog_array_cols as f64;

        energy.analog_rram_read_pj = total_cycles * self.energy.analog_array_read_cycle_pj;
        energy.analog_wldrv_pj = total_cycles * self.energy.analog_wldrv_cycle_pj;
        energy.linear_adc_pj = bit_lines
            * (slc_cycles * self.energy.adc_conversion_pj
                + mlc_cycles * 2.0 * self.energy.adc_conversion_pj);
        energy.sh_sa_pj =
            total_cycles * bit_lines * (self.energy.sample_hold_pj + self.energy.shift_add_op_pj);

        // One-time weight programming, amortized.
        energy.analog_rram_write_pj =
            d.write_energy_pj * layers / self.weight_reuse_inferences as f64;

        // ---- Digital PIM: attention score/context products --------------
        let stage_ops = ops_count::model_ops(model, seq_len);
        let attention_macs: f64 = stage_ops
            .iter()
            .filter(|s| {
                matches!(
                    s.stage,
                    ops_count::Stage::ScoreQKt | ops_count::Stage::ProbV
                )
            })
            .map(|s| s.ops as f64)
            .sum();
        let digital_module = DigitalPimModule::paper_default();
        // Energy per in-memory INT8 MAC: one multiplication needs 64 NOR row
        // operations, each occupying 3 of the 1024 array columns for 5 cycles;
        // scale the per-array-cycle energies by that column-time share.
        let columns = self.hw.digital_array_cols as f64;
        let column_cycles_per_mac = digital_module.nor_ops_per_mul() as f64 * 3.0 * 5.0 / columns;
        let array_mac_pj = self.energy.digital_array_cycle_pj * column_cycles_per_mac;
        let wldrv_mac_pj = self.energy.digital_wldrv_cycle_pj * column_cycles_per_mac;
        energy.attention_dot_product_pj = attention_macs * array_mac_pj;
        energy.digital_wldrv_pj = attention_macs * wldrv_mac_pj;

        // Dynamically generated data written into digital PIM (Q, K, V,
        // scores, FFN intermediate), INT8 SLC: one cell write per bit.
        let digital_write_cells = chip.digital_cells_for_layer(model, seq_len) as f64 * layers;
        energy.digital_rram_write_pj = digital_write_cells * self.energy.slc_cell_write_pj;

        // ---- SFU: softmax, layer norm, GELU ------------------------------
        let softmax_elems: f64 = stage_ops
            .iter()
            .filter(|s| matches!(s.stage, ops_count::Stage::Softmax))
            .map(|s| s.ops as f64)
            .sum();
        let layernorm_elems = 2.0 * n * model.hidden_dim as f64 * layers;
        let gelu_elems = n * model.ffn_dim as f64 * layers;
        let sfu_elems = softmax_elems + layernorm_elems + gelu_elems;
        energy.sfu_pj = sfu_elems * self.energy.sfu_element_pj;

        // ---- Registers and interconnect ----------------------------------
        let activation_bytes_per_layer = n * model.hidden_dim as f64;
        energy.sram_access_pj =
            activation_bytes_per_layer * layers * 4.0 * self.energy.sram_register_byte_pj;
        energy.interconnect_pj =
            activation_bytes_per_layer * layers * self.energy.inner_bus_byte_pj;

        // ---- Latency ------------------------------------------------------
        // Two dependent factored stages (x·U then ·ΣVᵀ) per linear layer,
        // serialized into the deployment's passes over one PU's arrays.
        let analog_stage_ns = n * input_bits * ANALOG_READ_CYCLE_NS * d.analog_passes * 2.0;

        let digital_macs_per_layer = attention_macs / layers;
        let module_rate =
            digital_module.parallel_muls_per_cycle() as f64 * self.hw.digital_modules_per_pu as f64;
        let digital_stage_ns = digital_macs_per_layer / module_rate * DIGITAL_CYCLE_NS;
        let sfu_stage_ns = sfu_elems / layers / SFU_INPUTS_PER_CYCLE as f64 * DIGITAL_CYCLE_NS;

        let inter_pu_bytes = activation_bytes_per_layer;
        let interconnect_stage_ns = inter_pu_bytes / ON_CHIP_INTERCONNECT_BYTES_PER_S * 1e9;
        let pus_per_layer = chip.pus_per_layer_given_analog(d.analog_pus_per_layer, model, seq_len);
        let chips = chip.chips_for_layer_pus(pus_per_layer, model);
        let chip_hop_ns = if chips > 1 {
            model.hidden_dim as f64 / GLOBAL_BUS_BYTES_PER_S * 1e9 * (chips - 1) as f64
        } else {
            0.0
        };

        // Layer pipeline: PUs process consecutive layers in a pipelined
        // fashion, so the per-layer stage times overlap across the sequence;
        // the fill/drain overhead scales with layers/N.
        let pipeline_factor = 1.0 + (layers - 1.0) / (n.max(1.0));
        let latency = LatencyBreakdown {
            analog_ns: analog_stage_ns * pipeline_factor,
            digital_ns: digital_stage_ns * pipeline_factor,
            sfu_ns: sfu_stage_ns * pipeline_factor,
            interconnect_ns: interconnect_stage_ns * layers + chip_hop_ns,
            queueing_ns: 0.0,
        };

        // ---- Throughput and area -----------------------------------------
        let total_ops = ops_count::total_ops(model, seq_len) * 2;
        let area_mm2 = d.chip_area_mm2 * chips as f64;
        PerfSummary::from_parts(energy, latency, total_ops, area_mm2, chips)
    }
}

/// Builds a [`BatchPerfSummary`] for `batch_size` requests pipelined through
/// an `num_layers`-stage layer pipeline, given the single-request evaluation.
///
/// This is the default `Backend::evaluate_batched`, so layer-pipelined
/// backends (HyFlexPIM, ASADI) share one batching model: the initiation
/// interval is the per-request *occupancy* of one layer stage, not latency/L
/// — within a request the L stages already overlap token by token, so the
/// single-request latency reports each component as one layer's stage time
/// scaled by the fill/drain factor `1 + (L-1)/N`. Undoing
/// that factor (and splitting interconnect, which is accounted per layer)
/// recovers the time a request keeps one stage busy — the earliest the next
/// request can enter it. Batching thus amortizes exactly the fill/drain
/// overhead: a large win for short sequences (N ≲ L, e.g. decode), modest for
/// long prefill.
///
/// # Errors
///
/// Returns [`PimError::EmptyBatch`](crate::PimError::EmptyBatch) for a zero
/// batch size.
pub fn pipelined_batch(
    single: PerfSummary,
    num_layers: usize,
    seq_len: usize,
    batch_size: usize,
) -> Result<BatchPerfSummary> {
    if batch_size == 0 {
        return Err(crate::PimError::EmptyBatch);
    }
    let layers = num_layers.max(1) as f64;
    let n = seq_len.max(1) as f64;
    let pipeline_factor = 1.0 + (layers - 1.0) / n;
    let initiation_interval_ns =
        (single.latency.analog_ns + single.latency.digital_ns + single.latency.sfu_ns)
            / pipeline_factor
            + single.latency.interconnect_ns / layers;
    batch_summary_from_interval(single, initiation_interval_ns, batch_size)
}

/// Re-prices a padded batch with **actual-token** (packed) latency
/// accounting: the batch still executes at the padded shape `seq_len` (the
/// longest request — that is the crossbar read-out schedule), but the
/// steady-state initiation intervals are charged for `actual_tokens` real
/// tokens instead of `batch_size × seq_len` padded ones. This is the
/// device-side counterpart of the functional model's packed batching
/// (`AttentionMask::Packed` in `hyflex-transformer`): fig18 part (c) prices
/// mixed-length batches both ways to show the padding fraction packing
/// recovers.
///
/// `padded` is the batch priced at `seq_len` (e.g. by
/// `Backend::evaluate_batched`). Its interval `I(N)` is the per-request
/// stage occupancy at `N = seq_len` tokens, so the per-*token* occupancy is
/// `I(N)/N`. The first request fills the pipeline at its own (maximum)
/// length; the remaining `actual_tokens − N` real tokens stream through at
/// the per-token rate, giving the effective interval
/// `(actual_tokens − N) / (B − 1) · I(N)/N`. A batch of one returns `padded`
/// unchanged, and a uniform batch (`actual_tokens == batch_size · seq_len`)
/// is charged the padded interval.
///
/// # Errors
///
/// Returns [`PimError::EmptyBatch`](crate::PimError::EmptyBatch) for a zero
/// batch size and
/// [`PimError::InvalidConfig`](crate::PimError::InvalidConfig) when
/// `actual_tokens` is impossible for the shape (below `seq_len` — the
/// longest request alone — or above the padded `batch_size × seq_len`).
pub fn packed_batch(
    padded: BatchPerfSummary,
    seq_len: usize,
    actual_tokens: usize,
) -> Result<BatchPerfSummary> {
    let batch_size = padded.batch_size;
    if batch_size == 0 {
        return Err(crate::PimError::EmptyBatch);
    }
    if actual_tokens < seq_len || actual_tokens > batch_size * seq_len {
        return Err(crate::PimError::InvalidConfig(format!(
            "actual_tokens {actual_tokens} must lie in [{seq_len}, {}] for a batch of \
             {batch_size} requests padded to {seq_len} tokens",
            batch_size * seq_len
        )));
    }
    if batch_size == 1 {
        return Ok(padded);
    }
    let per_token_ns = padded.initiation_interval_ns / seq_len.max(1) as f64;
    let packed_interval_ns =
        (actual_tokens - seq_len) as f64 / (batch_size - 1) as f64 * per_token_ns;
    batch_summary_from_interval(padded.single, packed_interval_ns, batch_size)
}

/// Builds a [`BatchPerfSummary`] from a single-request evaluation and an
/// explicit initiation interval (time between consecutive request
/// completions at steady state). Backends whose batching behavior is not a
/// layer pipeline — bandwidth-bound designs that amortize weight streaming
/// across a batch, or serial devices whose interval equals the full request
/// latency — use this directly. `first_request_ns` is always the
/// single-request latency, so a batch of one is bit-identical to the
/// single-request evaluation.
///
/// # Errors
///
/// Returns [`PimError::EmptyBatch`](crate::PimError::EmptyBatch) for a zero
/// batch size and [`PimError::InvalidConfig`](crate::PimError::InvalidConfig)
/// for a non-finite or negative interval.
pub fn batch_summary_from_interval(
    single: PerfSummary,
    initiation_interval_ns: f64,
    batch_size: usize,
) -> Result<BatchPerfSummary> {
    if batch_size == 0 {
        return Err(crate::PimError::EmptyBatch);
    }
    if !initiation_interval_ns.is_finite() || initiation_interval_ns < 0.0 {
        return Err(crate::PimError::InvalidConfig(format!(
            "initiation interval {initiation_interval_ns} ns must be finite and non-negative"
        )));
    }
    let b = batch_size as f64;
    let first_request_ns = single.latency.total_ns();
    let makespan_ns = first_request_ns + (b - 1.0) * initiation_interval_ns;
    let mean_queueing_ns = (b - 1.0) / 2.0 * initiation_interval_ns;
    let mut latency = single.latency;
    latency.queueing_ns = mean_queueing_ns;
    // Each request occupies each pipeline stage for one interval, so the
    // busy fraction of the stage-time available during the makespan is:
    let pipeline_utilization = if makespan_ns > 0.0 {
        (b * initiation_interval_ns / makespan_ns).min(1.0)
    } else {
        0.0
    };
    let makespan_s = makespan_ns * 1e-9;
    let requests_per_s = if makespan_s > 0.0 {
        b / makespan_s
    } else {
        0.0
    };
    let throughput_tops = if makespan_s > 0.0 {
        single.total_ops as f64 * b / makespan_s / 1e12
    } else {
        0.0
    };
    let energy_per_request_pj = single.energy.total_pj();
    Ok(BatchPerfSummary {
        batch_size,
        first_request_ns,
        initiation_interval_ns,
        makespan_ns,
        latency,
        pipeline_utilization,
        requests_per_s,
        throughput_tops,
        energy_per_request_pj,
        single,
    })
}

/// Marginal cost of the newest token in an autoregressive decode step: the
/// component-wise difference between evaluating the deployment at context
/// length `L` (`full`) and at `L − 1` (`prev`), reassembled through
/// [`PerfSummary::from_parts`].
///
/// Both inputs must come from the *same* deployment (model, hardware,
/// mapping) so every energy/latency component of `full` dominates its `prev`
/// counterpart; the saturating subtraction then only absorbs floating-point
/// cancellation noise, and components that do not scale with context (e.g.
/// amortized weight programming) subtract to exactly `0.0`. Area and chip
/// count are carried from `full` unchanged — decode does not shrink the
/// deployment.
///
/// This is the default pricing behind [`Backend::evaluate_decode_step`]
/// (`crate::backend`): one decode iteration at context `L` costs what
/// extending a prefill from `L − 1` to `L` tokens costs.
///
/// [`Backend::evaluate_decode_step`]: crate::backend::Backend::evaluate_decode_step
pub fn marginal_decode_summary(full: &PerfSummary, prev: &PerfSummary) -> PerfSummary {
    let sub = |a: f64, b: f64| (a - b).max(0.0);
    let latency = LatencyBreakdown {
        analog_ns: sub(full.latency.analog_ns, prev.latency.analog_ns),
        digital_ns: sub(full.latency.digital_ns, prev.latency.digital_ns),
        sfu_ns: sub(full.latency.sfu_ns, prev.latency.sfu_ns),
        interconnect_ns: sub(full.latency.interconnect_ns, prev.latency.interconnect_ns),
        queueing_ns: sub(full.latency.queueing_ns, prev.latency.queueing_ns),
    };
    PerfSummary::from_parts(
        full.energy.saturating_sub(&prev.energy),
        latency,
        full.total_ops.saturating_sub(prev.total_ops),
        full.area_mm2,
        full.chips,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{Backend, HyFlexPim, InferenceRequest};

    /// One inference of `seq_len` tokens on the paper chip with `model`
    /// deployed at SLC rate `slc`.
    fn summary(model: ModelConfig, seq_len: usize, slc: f64) -> PerfSummary {
        HyFlexPim::paper(model, slc)
            .unwrap()
            .evaluate(&InferenceRequest::of_len(0, seq_len))
            .unwrap()
    }

    #[test]
    fn construction_validates_config() {
        let mut bad = HyFlexPimConfig::paper_default();
        bad.pus_per_chip = 0;
        assert!(PerformanceModel::new(bad).is_err());
        assert!(PerformanceModel::new(HyFlexPimConfig::paper_default()).is_ok());
    }

    #[test]
    fn deploy_rejects_out_of_range_slc_rates() {
        let model = PerformanceModel::paper_default();
        for bad in [-0.1, 1.1, f64::NAN] {
            assert!(model.deploy(&ModelConfig::bert_base(), bad).is_err());
        }
        let deployment = model.deploy(&ModelConfig::bert_base(), 0.05).unwrap();
        assert_eq!(deployment.slc_rank_fraction(), 0.05);
        assert_eq!(deployment.chip().config(), model.hw());
    }

    #[test]
    fn mlc_heavy_mapping_saves_linear_layer_energy() {
        let slc_only = summary(ModelConfig::bert_large(), 128, 1.0)
            .energy
            .linear_layer_pj();
        let hybrid_5 = summary(ModelConfig::bert_large(), 128, 0.05)
            .energy
            .linear_layer_pj();
        let hybrid_50 = summary(ModelConfig::bert_large(), 128, 0.5)
            .energy
            .linear_layer_pj();
        assert!(hybrid_5 < hybrid_50);
        assert!(hybrid_50 < slc_only);
        // The paper reports up to ~1.24x linear-layer energy gain vs an
        // all-SLC (ASADI-style) mapping; our model should land in a
        // comparable band (at least 1.1x, at most ~2x).
        let gain = slc_only / hybrid_5;
        assert!(gain > 1.1 && gain < 2.2, "gain {gain:.2}");
    }

    #[test]
    fn mlc_heavy_mapping_improves_area_efficiency() {
        let slc_only = summary(ModelConfig::bert_large(), 1024, 1.0);
        let hybrid = summary(ModelConfig::bert_large(), 1024, 0.05);
        assert!(hybrid.tops_per_mm2 >= slc_only.tops_per_mm2);
        let speedup = hybrid.tops_per_mm2 / slc_only.tops_per_mm2;
        assert!(
            (1.0..2.5).contains(&speedup),
            "speedup {speedup:.2} out of expected band"
        );
    }

    #[test]
    fn energy_grows_with_sequence_length_and_model_size() {
        let short = summary(ModelConfig::bert_large(), 128, 0.1);
        let long = summary(ModelConfig::bert_large(), 1024, 0.1);
        assert!(long.energy.total_pj() > short.energy.total_pj());
        assert!(long.latency.total_ns() > short.latency.total_ns());

        let base = summary(ModelConfig::bert_base(), 128, 0.1);
        assert!(short.energy.total_pj() > base.energy.total_pj());
    }

    #[test]
    fn attention_share_grows_with_sequence_length() {
        let short = summary(ModelConfig::bert_large(), 128, 0.1);
        let long = summary(ModelConfig::bert_large(), 4096, 0.1);
        let share = |s: &PerfSummary| {
            (s.energy.attention_dot_product_pj + s.energy.digital_wldrv_pj) / s.energy.total_pj()
        };
        assert!(share(&long) > share(&short));
    }

    #[test]
    fn summary_reports_sane_magnitudes() {
        let s = summary(ModelConfig::bert_large(), 128, 0.05);
        // Energy for one BERT-Large inference on a 65 nm PIM should be in the
        // 0.1 mJ .. 1 J band.
        let mj = s.energy.total_pj() / 1e9;
        assert!(mj > 0.1 && mj < 1000.0, "energy {mj} mJ");
        // Latency between 1 µs and 1 s.
        let us = s.latency.total_ns() / 1e3;
        assert!(us > 1.0 && us < 1e6, "latency {us} µs");
        assert!(s.throughput_tops > 0.01 && s.throughput_tops < 10_000.0);
        assert!(s.area_mm2 > 50.0);
        assert!(s.tops_per_mm2 > 0.0);
        assert_eq!(s.chips, 1);
    }

    #[test]
    fn llama3_requires_multiple_chips_and_more_area() {
        let model = PerformanceModel::paper_default();
        let s = summary(ModelConfig::llama3_1b(), 8192, 0.2);
        assert!(s.chips >= 2);
        assert!(s.area_mm2 > model.chip_area_mm2() * 1.5);
    }

    #[test]
    fn batched_evaluation_amortizes_pipeline_fill() {
        let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.1).unwrap();
        let seq_len = 128;
        let b1 = backend.evaluate_batched(seq_len, 1).unwrap();
        let b16 = backend.evaluate_batched(seq_len, 16).unwrap();
        // Batch of one: no queueing, makespan equals single-request latency.
        assert_eq!(b1.latency.queueing_ns, 0.0);
        assert!((b1.makespan_ns - b1.single.latency.total_ns()).abs() < 1e-6);
        assert!((b1.completion_ns(0) - b1.first_request_ns).abs() < 1e-9);
        // Larger batches complete more requests per second at higher
        // utilization, while per-request latency only grows by queueing.
        assert!(b16.requests_per_s > b1.requests_per_s);
        assert!(b16.pipeline_utilization > b1.pipeline_utilization);
        assert!(b16.pipeline_utilization <= 1.0);
        assert!(b16.latency.queueing_ns > 0.0);
        assert!(b16.makespan_ns > b1.makespan_ns);
        assert!(b16.makespan_ns < 16.0 * b1.makespan_ns);
        assert!(b16.throughput_tops > b1.throughput_tops);
        // The interval is the per-stage occupancy: it cannot exceed the
        // single-request latency, and utilization follows B·interval/makespan.
        assert!(b16.initiation_interval_ns <= b1.first_request_ns);
        let expected = 16.0 * b16.initiation_interval_ns / b16.makespan_ns;
        assert!((b16.pipeline_utilization - expected).abs() < 1e-12);
        // Batching amortizes exactly the fill/drain overhead, so per-request
        // throughput gains are bounded by the pipeline factor 1 + (L-1)/N.
        let pipeline_factor = 1.0 + (backend.model().num_layers as f64 - 1.0) / seq_len as f64;
        let gain = b16.requests_per_s / b1.requests_per_s;
        assert!(
            gain > 1.0 && gain <= pipeline_factor + 1e-9,
            "gain {gain:.3} outside (1, {pipeline_factor:.3}]"
        );
        // Short sequences (decode-like) benefit far more from batching than
        // long prefill, because fill/drain dominates when N < L.
        let s1 = backend.evaluate_batched(16, 1).unwrap();
        let s16 = backend.evaluate_batched(16, 16).unwrap();
        let short_gain = s16.requests_per_s / s1.requests_per_s;
        assert!(short_gain > gain, "short {short_gain:.2} vs long {gain:.2}");
        assert!(short_gain > 1.5);
        // Completion times are spaced by the initiation interval.
        let spacing = b16.completion_ns(5) - b16.completion_ns(4);
        assert!((spacing - b16.initiation_interval_ns).abs() < 1e-9);
        assert!(backend.evaluate_batched(seq_len, 0).is_err());
    }

    #[test]
    fn packed_batch_charges_actual_tokens_not_padded() {
        let backend = HyFlexPim::paper(ModelConfig::bert_large(), 0.1).unwrap();
        let padded = backend.evaluate_batched(256, 8).unwrap();
        // A uniform batch (no padding) is bit-identical to the padded path.
        assert_eq!(packed_batch(padded.clone(), 256, 8 * 256).unwrap(), padded);
        // A batch of one is bit-identical too (the lone request is the max).
        let one = backend.evaluate_batched(256, 1).unwrap();
        assert_eq!(packed_batch(one.clone(), 256, 256).unwrap(), one);
        // A mixed batch with half its padded tokens real finishes sooner:
        // the makespan drops by exactly the padding fraction of the
        // steady-state intervals, while the first request is unchanged.
        let actual = 256 + 7 * 128; // one max-length request + 7 half-length
        let packed = packed_batch(padded.clone(), 256, actual).unwrap();
        assert_eq!(packed.first_request_ns, padded.first_request_ns);
        assert!(packed.makespan_ns < padded.makespan_ns);
        let expected_interval = (actual - 256) as f64 / 7.0 / 256.0 * padded.initiation_interval_ns;
        assert!((packed.initiation_interval_ns - expected_interval).abs() < 1e-9);
        assert!(packed.requests_per_s > padded.requests_per_s);
        // Impossible token counts are typed errors, not NaNs.
        assert!(packed_batch(padded.clone(), 256, 255).is_err());
        assert!(packed_batch(padded.clone(), 256, 8 * 256 + 1).is_err());
        let empty = BatchPerfSummary {
            batch_size: 0,
            ..padded
        };
        assert!(matches!(
            packed_batch(empty, 256, 256),
            Err(crate::PimError::EmptyBatch)
        ));
    }

    #[test]
    fn marginal_decode_summary_prices_one_token() {
        let full = summary(ModelConfig::bert_large(), 128, 0.1);
        let prev = summary(ModelConfig::bert_large(), 127, 0.1);
        let marginal = marginal_decode_summary(&full, &prev);
        assert!(marginal.energy.total_pj() > 0.0);
        assert!(marginal.energy.total_pj() < full.energy.total_pj());
        assert!(marginal.latency.total_ns() > 0.0);
        assert!(marginal.latency.total_ns() < full.latency.total_ns());
        assert!(marginal.total_ops > 0);
        assert!(marginal.total_ops < full.total_ops);
        // Context-independent components subtract to exactly zero: amortized
        // weight programming does not scale with the cached context.
        assert_eq!(marginal.energy.analog_rram_write_pj, 0.0);
        // The deployment itself is unchanged by decoding.
        assert_eq!(marginal.area_mm2, full.area_mm2);
        assert_eq!(marginal.chips, full.chips);
    }

    #[test]
    fn adc_is_a_leading_linear_layer_energy_component() {
        // Table 2: the ADC dominates analog-module power; the per-inference
        // breakdown should reflect that within the linear-layer portion.
        let s = summary(ModelConfig::bert_large(), 128, 0.05);
        let linear = s.energy.linear_layer_pj();
        assert!(s.energy.linear_adc_pj / linear > 0.3);
    }
}
