//! Validated, fluent construction of a deployed comparison system.
//!
//! Before [`SystemBuilder`], every consumer hand-assembled its deployment:
//! `PerformanceModel::paper_default()` here, an SLC rate there, an MLC mode
//! somewhere else — each binary validating (or forgetting to validate) its
//! own knobs. The builder concentrates that in one place:
//!
//! ```
//! use hyflex_baselines::SystemBuilder;
//!
//! let backend = SystemBuilder::paper()
//!     .slc_rate(0.05)
//!     .mlc_bits(2)
//!     .backend("asadi-int8")
//!     .build()
//!     .unwrap();
//! assert!(backend.name().starts_with("ASADI"));
//! ```
//!
//! `build()` rejects an SLC rate outside `[0, 1]`, an MLC level outside
//! `2..=4`, and unknown backend names (the error lists [`BACKENDS`]), so the
//! figure binaries and the serving simulator never see a half-validated
//! configuration. This module is the one place that knows the roster of
//! comparison backends and turns a name into a `Box<dyn Backend>`.
//!
//! Every built backend is wrapped in a [`PriceMemo`], so each
//! `(seq_len, batch)` and `(context, batch)` shape is priced once per
//! built backend; the summaries are bit-identical to pricing afresh. A
//! decode run repeats a few hundred shapes thousands of times, and every
//! caller that names its backend (the figure binaries, the benches, the
//! serving simulators) gets the saving without code of its own. The memo
//! sits *under* the built backend rather than inside a simulator, so a
//! decorator a caller stacks on top — a timing probe that counts pricing
//! calls and sums their energy — still sees every call.

use crate::{AnalogAttention, Asadi, AsadiPrecision, NearMemoryProcessing, NonPim, Sprint};
use hyflex_pim::backend::{Backend, HyFlexPim, PriceMemo};
use hyflex_pim::perf::PerformanceModel;
use hyflex_pim::{HyFlexPimConfig, PimError, Result};
use hyflex_rram::cell::CellMode;
use hyflex_transformer::config::ModelConfig;

/// Every backend name [`SystemBuilder::backend`] accepts, in paper-figure
/// order: HyFlexPIM, the paper's baselines (ASADI in both precisions), and
/// the serving-oriented `analog-attention` design used by the
/// decode-serving study.
pub const BACKENDS: [&str; 7] = [
    "hyflexpim",
    "asadi-int8",
    "asadi-fp32",
    "nmp",
    "sprint",
    "non-pim",
    "analog-attention",
];

/// The six designs the paper's own figures compare: [`BACKENDS`] without
/// `analog-attention`, so the figure binaries that reproduce published
/// plots (14, 15, 19–21) keep their default output as serving-only designs
/// are added.
pub const PAPER_FIGURE_BACKENDS: [&str; 6] = [
    "hyflexpim",
    "asadi-int8",
    "asadi-fp32",
    "nmp",
    "sprint",
    "non-pim",
];

/// Validates a backend name without building anything.
///
/// # Errors
///
/// Returns [`PimError::InvalidConfig`] naming the available backends for
/// an unknown name.
pub fn ensure_known(name: &str) -> Result<()> {
    if BACKENDS.contains(&name) {
        Ok(())
    } else {
        Err(unknown_backend(name))
    }
}

fn unknown_backend(name: &str) -> PimError {
    PimError::InvalidConfig(format!(
        "unknown backend '{name}'; available backends: {}",
        BACKENDS.join(", ")
    ))
}

/// Fluent builder for a model-bound comparison backend.
#[derive(Debug, Clone)]
pub struct SystemBuilder {
    model: ModelConfig,
    slc_rate: f64,
    mlc_bits: u8,
    backend: String,
}

impl SystemBuilder {
    /// The paper's deployment: BERT-Large, 5 % SLC protection, 2-bit MLC,
    /// the HyFlexPIM backend.
    pub fn paper() -> Self {
        SystemBuilder {
            model: ModelConfig::bert_large(),
            slc_rate: 0.05,
            mlc_bits: 2,
            backend: "hyflexpim".to_string(),
        }
    }

    /// Serves `model` instead of BERT-Large.
    #[must_use]
    pub fn model(mut self, model: ModelConfig) -> Self {
        self.model = model;
        self
    }

    /// SLC protection rate of the HyFlexPIM mapping (fraction of factored
    /// ranks kept in SLC). Validated to `[0, 1]` at build time.
    #[must_use]
    pub fn slc_rate(mut self, slc_rate: f64) -> Self {
        self.slc_rate = slc_rate;
        self
    }

    /// Bits per MLC cell for the HyFlexPIM mapping. Validated to `2..=4` at
    /// build time.
    #[must_use]
    pub fn mlc_bits(mut self, mlc_bits: u8) -> Self {
        self.mlc_bits = mlc_bits;
        self
    }

    /// Selects the backend by name (one of [`BACKENDS`]).
    #[must_use]
    pub fn backend(mut self, name: &str) -> Self {
        self.backend = name.to_string();
        self
    }

    /// Validates the configuration and builds the bound backend, wrapped in
    /// a [`PriceMemo`] (see the module docs).
    ///
    /// # Errors
    ///
    /// Returns [`PimError::InvalidConfig`] for an SLC rate outside `[0, 1]`,
    /// an MLC level outside `2..=4`, or an unknown backend name (the message
    /// lists the available backends); propagates model/hardware validation
    /// errors.
    pub fn build(self) -> Result<Box<dyn Backend>> {
        Ok(Box::new(PriceMemo::new(self.build_unmemoized()?)))
    }

    /// [`SystemBuilder::build`] without the memo.
    fn build_unmemoized(self) -> Result<Box<dyn Backend>> {
        if !(0.0..=1.0).contains(&self.slc_rate) || self.slc_rate.is_nan() {
            return Err(PimError::InvalidConfig(format!(
                "slc_rate {} must lie in [0, 1]",
                self.slc_rate
            )));
        }
        if !(2..=4).contains(&self.mlc_bits) {
            return Err(PimError::InvalidConfig(format!(
                "mlc_bits {} must lie in 2..=4",
                self.mlc_bits
            )));
        }
        self.model.validate()?;
        let model = self.model;
        Ok(match self.backend.as_str() {
            "hyflexpim" => {
                let hw = HyFlexPimConfig {
                    mlc_mode: CellMode::Mlc {
                        bits: self.mlc_bits,
                    },
                    ..HyFlexPimConfig::paper_default()
                };
                Box::new(HyFlexPim::new(
                    PerformanceModel::new(hw)?,
                    model,
                    self.slc_rate,
                )?)
            }
            "asadi-int8" => Box::new(Asadi::new(AsadiPrecision::Int8, model)?),
            "asadi-fp32" => Box::new(Asadi::new(AsadiPrecision::Fp32, model)?),
            "nmp" => Box::new(NearMemoryProcessing::new(model)),
            "sprint" => Box::new(Sprint::new(model)),
            "non-pim" => Box::new(NonPim::new(model)),
            "analog-attention" => Box::new(AnalogAttention::new(model)?),
            name => return Err(unknown_backend(name)),
        })
    }
}

impl Default for SystemBuilder {
    fn default() -> Self {
        SystemBuilder::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_pim::backend::InferenceRequest;

    #[test]
    fn paper_defaults_build_the_hyflexpim_backend() {
        let backend = SystemBuilder::paper().build().unwrap();
        assert!(backend.name().contains("HyFlexPIM"));
        assert_eq!(backend.model().name, "BERT-Large");
        assert!(backend.evaluate(&InferenceRequest::of_len(0, 128)).is_ok());
    }

    #[test]
    fn builder_selects_models_and_backends() {
        let backend = SystemBuilder::paper()
            .model(ModelConfig::gpt2_small())
            .backend("sprint")
            .build()
            .unwrap();
        assert_eq!(backend.name(), "SPRINT");
        assert_eq!(backend.model().name, "GPT-2");
    }

    #[test]
    fn slc_rate_outside_unit_interval_is_rejected() {
        for bad in [-0.01, 1.01, f64::NAN, f64::INFINITY] {
            let err = SystemBuilder::paper().slc_rate(bad).build().unwrap_err();
            assert!(
                err.to_string().contains("slc_rate"),
                "unexpected error: {err}"
            );
        }
        assert!(SystemBuilder::paper().slc_rate(0.0).build().is_ok());
        assert!(SystemBuilder::paper().slc_rate(1.0).build().is_ok());
    }

    #[test]
    fn mlc_bits_outside_supported_levels_are_rejected() {
        for bad in [0u8, 1, 5, 8] {
            let err = SystemBuilder::paper().mlc_bits(bad).build().unwrap_err();
            assert!(
                err.to_string().contains("mlc_bits"),
                "unexpected error: {err}"
            );
        }
        for good in [2u8, 3, 4] {
            assert!(SystemBuilder::paper().mlc_bits(good).build().is_ok());
        }
    }

    /// The memo `build` adds changes no figure: on every roster backend,
    /// each shape of the grid returns exactly what the unwrapped backend
    /// prices, on the first (cold) call and on the second (memo hit), and
    /// error shapes return the same error on every call.
    #[test]
    fn memoized_backends_price_exactly_as_the_unwrapped_ones() {
        for name in BACKENDS {
            let builder = SystemBuilder::paper()
                .model(ModelConfig::gpt2_small())
                .backend(name);
            let memo = builder.clone().build().unwrap();
            let bare = builder.build_unmemoized().unwrap();
            assert_eq!(format!("{memo:?}"), format!("{bare:?}"), "{name}");
            for _ in 0..2 {
                for len in [1, 2, 3, 17, 64, 127, 128, 129, 512] {
                    for batch in [1, 2, 7, 16] {
                        assert_eq!(
                            memo.evaluate_batched(len, batch),
                            bare.evaluate_batched(len, batch),
                            "{name} batched ({len}, {batch})"
                        );
                        assert_eq!(
                            memo.evaluate_decode_step(len, batch),
                            bare.evaluate_decode_step(len, batch),
                            "{name} decode ({len}, {batch})"
                        );
                    }
                }
            }
            for _ in 0..3 {
                for (len, batch) in [(128, 0), (0, 4), (0, 0)] {
                    assert!(memo.evaluate_decode_step(len, batch).is_err(), "{name}");
                    assert_eq!(
                        memo.evaluate_decode_step(len, batch),
                        bare.evaluate_decode_step(len, batch),
                        "{name} decode ({len}, {batch})"
                    );
                }
                assert!(memo.evaluate_batched(128, 0).is_err(), "{name}");
                assert_eq!(
                    memo.evaluate_batched(128, 0),
                    bare.evaluate_batched(128, 0),
                    "{name}"
                );
            }
        }
    }

    #[test]
    fn unknown_backend_errors_list_the_available_names() {
        let err = SystemBuilder::paper()
            .backend("asadi-int4")
            .build()
            .unwrap_err();
        let message = err.to_string();
        assert!(message.contains("asadi-int4"));
        for name in BACKENDS {
            assert!(message.contains(name), "{message} should list {name}");
        }
    }
}
