//! Special Function Unit (SFU) for non-linear operations.
//!
//! The digital PIM module embeds an SFU that evaluates softmax, layer
//! normalization, and GELU in floating point using a fully pipelined datapath
//! of max-search, subtraction, Taylor-series exponentiation, addition,
//! division, multiplication, and square-root stages (paper Section 3.1).
//! Each SFU instance processes 256 inputs per cycle, a rate chosen to balance
//! the GEMV throughput of the digital PIM arrays (≈273 operations per cycle).
//!
//! The functional implementations here use the same argument-reduced Taylor
//! exponential the hardware would, so their numerical error against the exact
//! reference in `hyflex-tensor::activations` is representative.

use crate::error::CircuitError;
use crate::Result;

/// Inputs processed per cycle by one SFU (paper Section 3.1).
pub const SFU_INPUTS_PER_CYCLE: usize = 256;

// hyflex-lint: allow-file(U2, U3) — functional model of the SFU (softmax, layer norm and GELU with cycle accounting); the `sfu::tests` unit tests and the adc_and_sfu bench drive it and read its statistics record

/// Taylor-series terms used for the exponential (after argument reduction).
pub const DEFAULT_TAYLOR_TERMS: usize = 8;

/// Pipeline statistics accumulated by SFU evaluations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SfuStats {
    /// Total scalar elements processed.
    pub elements: u64,
    /// Total pipeline cycles consumed.
    pub cycles: u64,
    /// Number of kernel invocations (softmax rows, layer-norm rows, ...).
    pub invocations: u64,
}

impl SfuStats {
    /// Merges another statistics record into this one.
    pub fn merge(&mut self, other: &SfuStats) {
        self.elements += other.elements;
        self.cycles += other.cycles;
        self.invocations += other.invocations;
    }
}

/// Taylor-series exponential with argument reduction.
///
/// The argument is repeatedly halved until `|x| ≤ 0.5`, the truncated Taylor
/// series is evaluated, and the result is squared back up. This is the
/// standard trick for keeping a short series accurate over the range softmax
/// needs (large negative arguments).
fn taylor_exp(x: f32, terms: usize) -> f32 {
    if terms == 0 {
        return 1.0;
    }
    let mut halvings = 0u32;
    let mut reduced = x as f64;
    while reduced.abs() > 0.5 && halvings < 60 {
        reduced *= 0.5;
        halvings += 1;
    }
    let mut sum = 1.0f64;
    let mut term = 1.0f64;
    for k in 1..terms {
        term *= reduced / k as f64;
        sum += term;
    }
    for _ in 0..halvings {
        sum *= sum;
    }
    sum as f32
}

/// The floating-point special function unit.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpecialFunctionUnit {
    taylor_terms: usize,
    stats: SfuStats,
}

impl SpecialFunctionUnit {
    /// Creates an SFU with the default Taylor-series depth.
    pub fn new() -> Self {
        SpecialFunctionUnit {
            taylor_terms: DEFAULT_TAYLOR_TERMS,
            stats: SfuStats::default(),
        }
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> SfuStats {
        self.stats
    }

    /// Resets the accumulated statistics.
    pub fn reset_stats(&mut self) {
        self.stats = SfuStats::default();
    }

    fn record(&mut self, elements: usize, pipeline_passes: u64) {
        self.stats.elements += elements as u64;
        self.stats.invocations += 1;
        // Each pipeline pass streams the elements through at 256 per cycle.
        let cycles_per_pass = elements.div_ceil(SFU_INPUTS_PER_CYCLE) as u64;
        self.stats.cycles += cycles_per_pass * pipeline_passes;
    }

    /// Hardware softmax: max-search, subtract, Taylor exp, sum, divide.
    pub fn softmax(&mut self, logits: &[f32]) -> Vec<f32> {
        if logits.is_empty() {
            return Vec::new();
        }
        let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
        let exps: Vec<f32> = logits
            .iter()
            .map(|&x| taylor_exp(x - max, self.taylor_terms))
            .collect();
        let sum: f32 = exps.iter().sum();
        // Five pipeline passes: max, subtract, exp, sum, divide.
        self.record(logits.len(), 5);
        if sum == 0.0 {
            return vec![1.0 / logits.len() as f32; logits.len()];
        }
        exps.into_iter().map(|e| e / sum).collect()
    }

    /// Hardware layer normalization (mean, variance, rsqrt, scale/shift).
    ///
    /// # Errors
    ///
    /// Returns [`CircuitError::InvalidConfig`] when parameter lengths differ.
    pub fn layer_norm(&mut self, x: &[f32], gamma: &[f32], beta: &[f32]) -> Result<Vec<f32>> {
        if x.len() != gamma.len() || x.len() != beta.len() {
            return Err(CircuitError::InvalidConfig(
                "layer_norm parameter lengths must match the input".to_string(),
            ));
        }
        if x.is_empty() {
            return Ok(Vec::new());
        }
        let n = x.len() as f32;
        let mean = x.iter().sum::<f32>() / n;
        let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
        let inv_std = 1.0 / (var + 1e-5).sqrt();
        // Four pipeline passes: mean, variance, normalize, affine.
        self.record(x.len(), 4);
        Ok(x.iter()
            .zip(gamma.iter().zip(beta.iter()))
            .map(|(v, (g, b))| (v - mean) * inv_std * g + b)
            .collect())
    }

    /// Hardware GELU using the tanh approximation with the Taylor exponential
    /// (`tanh(z) = 1 − 2 / (e^{2z} + 1)`).
    pub fn gelu(&mut self, x: &[f32]) -> Vec<f32> {
        const SQRT_2_OVER_PI: f32 = 0.797_884_6;
        let out = x
            .iter()
            .map(|&v| {
                let inner = SQRT_2_OVER_PI * (v + 0.044_715 * v * v * v);
                let e = taylor_exp(2.0 * inner, self.taylor_terms);
                let tanh = 1.0 - 2.0 / (e + 1.0);
                0.5 * v * (1.0 + tanh)
            })
            .collect();
        // Three pipeline passes: polynomial, exp, combine.
        self.record(x.len(), 3);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hyflex_tensor::activations;

    #[test]
    fn taylor_exp_matches_reference_over_softmax_range() {
        for &x in &[-10.0f32, -4.0, -1.0, -0.3, 0.0, 0.4, 1.7, 3.0] {
            let approx = taylor_exp(x, DEFAULT_TAYLOR_TERMS);
            let exact = x.exp();
            let rel = ((approx - exact) / exact.max(1e-12)).abs();
            assert!(rel < 1e-4, "exp({x}): {approx} vs {exact}");
        }
        assert_eq!(taylor_exp(0.3, 0), 1.0);
    }

    #[test]
    fn sfu_softmax_matches_exact_softmax() {
        let mut sfu = SpecialFunctionUnit::new();
        let logits = [1.2f32, -0.7, 3.3, 0.0, -5.0];
        let hw = sfu.softmax(&logits);
        let exact = activations::softmax(&logits);
        for (a, b) in hw.iter().zip(exact.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!((hw.iter().sum::<f32>() - 1.0).abs() < 1e-5);
        assert!(sfu.softmax(&[]).is_empty());
    }

    #[test]
    fn sfu_layer_norm_matches_exact_reference() {
        let mut sfu = SpecialFunctionUnit::new();
        let x = [0.5f32, -1.0, 2.0, 0.3];
        let gamma = [1.0f32; 4];
        let beta = [0.0f32; 4];
        let hw = sfu.layer_norm(&x, &gamma, &beta).unwrap();
        let exact = activations::layer_norm(&x, &gamma, &beta, 1e-5).output;
        for (a, b) in hw.iter().zip(exact.iter()) {
            assert!((a - b).abs() < 1e-4);
        }
        assert!(sfu.layer_norm(&x, &gamma[..2], &beta).is_err());
    }

    #[test]
    fn sfu_gelu_matches_exact_reference() {
        let mut sfu = SpecialFunctionUnit::new();
        let x = [-2.0f32, -0.5, 0.0, 0.7, 2.3];
        let hw = sfu.gelu(&x);
        for (v, h) in x.iter().zip(hw.iter()) {
            let exact = activations::gelu(*v);
            assert!((h - exact).abs() < 1e-3, "gelu({v}): {h} vs {exact}");
        }
    }

    #[test]
    fn pipeline_statistics_track_throughput() {
        let mut sfu = SpecialFunctionUnit::new();
        // 512 elements = 2 cycles per pass, 5 passes for softmax.
        let logits: Vec<f32> = (0..512).map(|i| (i % 7) as f32 * 0.1).collect();
        sfu.softmax(&logits);
        let stats = sfu.stats();
        assert_eq!(stats.elements, 512);
        assert_eq!(stats.cycles, 10);
        assert_eq!(stats.invocations, 1);
        sfu.reset_stats();
        assert_eq!(sfu.stats(), SfuStats::default());
    }

    #[test]
    fn throughput_balances_digital_pim_gemv_rate() {
        // 256 inputs/cycle was chosen to balance the 273 ops/cycle GEMV rate
        // of a digital module (Section 3.1): the SFU must not be the
        // bottleneck by more than a small margin.
        assert_eq!(SFU_INPUTS_PER_CYCLE, 256);
        let ratio = 273.0 / SFU_INPUTS_PER_CYCLE as f64;
        assert!(ratio < 1.1);
    }

    #[test]
    fn merge_combines_stats() {
        let mut a = SfuStats {
            elements: 10,
            cycles: 2,
            invocations: 1,
        };
        let b = SfuStats {
            elements: 5,
            cycles: 1,
            invocations: 1,
        };
        a.merge(&b);
        assert_eq!(a.elements, 15);
        assert_eq!(a.cycles, 3);
        assert_eq!(a.invocations, 2);
    }
}
