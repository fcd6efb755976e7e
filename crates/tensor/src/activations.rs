//! Activation functions, normalization, and their derivatives.
//!
//! These are the floating-point reference implementations used by the
//! functional transformer simulator. The hardware-accurate versions (Taylor
//! series exponential, pipelined SFU) live in `hyflex-circuits::sfu` and are
//! validated against these references.
//!
//! [`gelu`] and [`gelu_derivative`] do not call libm's `tanhf`: they use a
//! private odd rational approximation of `tanh` (degree 13 over degree 6,
//! the Eigen/XLA coefficients) on an input clamped to `±7.905311`, where the
//! approximation reaches exactly 1. Its largest absolute error against f64
//! `tanh` is below 5e-7 (libm's `tanhf` is about 1e-7); it is exactly odd
//! and never exceeds 1 in magnitude. It uses only multiplies, adds and one
//! divide, with no branch and no fused multiply-add, so `Matrix::map(gelu)`
//! vectorises and the results do not depend on the host's libm.

/// `√(2/π)`, the GELU tanh approximation's input scale.
const SQRT_2_OVER_PI: f32 = 0.797_884_6;

/// Odd rational approximation of `tanh` (see the module docs): a degree-13
/// odd numerator over a degree-6 even denominator, evaluated in Horner form
/// on `x` clamped to the point where the approximation reaches 1.
#[inline]
fn tanh_approx(x: f32) -> f32 {
    const CLAMP: f32 = 7.905_311;
    const ALPHA: [f32; 7] = [
        4.893_524_6e-3,
        6.372_619_3e-4,
        1.485_722_4e-5,
        5.122_297e-8,
        -8.604_672e-11,
        2.000_188e-13,
        -2.760_768_5e-16,
    ];
    const BETA: [f32; 4] = [4.893_525e-3, 2.268_434_6e-3, 1.185_347_1e-4, 1.198_258_4e-6];
    let x = x.clamp(-CLAMP, CLAMP);
    let x2 = x * x;
    let [a1, a3, a5, a7, a9, a11, a13] = ALPHA;
    let [b0, b2, b4, b6] = BETA;
    let p = a1 + x2 * (a3 + x2 * (a5 + x2 * (a7 + x2 * (a9 + x2 * (a11 + x2 * a13)))));
    let q = b0 + x2 * (b2 + x2 * (b4 + x2 * b6));
    x * p / q
}

/// Gaussian error linear unit (tanh approximation, as used by BERT/GPT-2).
#[inline]
pub fn gelu(x: f32) -> f32 {
    0.5 * x * (1.0 + tanh_approx(SQRT_2_OVER_PI * (x + 0.044_715 * x * x * x)))
}

/// Derivative of [`gelu`] (tanh approximation).
#[inline]
pub fn gelu_derivative(x: f32) -> f32 {
    let x3 = x * x * x;
    let inner = SQRT_2_OVER_PI * (x + 0.044_715 * x3);
    let tanh_inner = tanh_approx(inner);
    let sech2 = 1.0 - tanh_inner * tanh_inner;
    0.5 * (1.0 + tanh_inner) + 0.5 * x * sech2 * SQRT_2_OVER_PI * (1.0 + 3.0 * 0.044_715 * x * x)
}

/// Numerically stable softmax over a slice.
///
/// Returns a vector of the same length that sums to 1 (for non-empty input).
pub fn softmax(logits: &[f32]) -> Vec<f32> {
    if logits.is_empty() {
        return Vec::new();
    }
    let max = logits.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
    let exps: Vec<f32> = logits.iter().map(|&x| (x - max).exp()).collect();
    let sum: f32 = exps.iter().sum();
    if sum == 0.0 {
        // Degenerate case (all -inf): return uniform.
        return vec![1.0 / logits.len() as f32; logits.len()];
    }
    exps.into_iter().map(|e| e / sum).collect()
}

/// Jacobian-vector product of softmax: given the softmax output `p` and an
/// upstream gradient `grad`, returns `dL/dlogits`.
pub fn softmax_backward(p: &[f32], grad: &[f32]) -> Vec<f32> {
    assert_eq!(p.len(), grad.len(), "softmax_backward length mismatch");
    let dot: f32 = p.iter().zip(grad.iter()).map(|(pi, gi)| pi * gi).sum();
    p.iter()
        .zip(grad.iter())
        .map(|(pi, gi)| pi * (gi - dot))
        .collect()
}

/// Output of a layer-normalization forward pass, retaining the statistics
/// needed for the backward pass.
#[derive(Debug, Clone)]
pub struct LayerNormOutput {
    /// Normalized (and affine-transformed) output values.
    pub output: Vec<f32>,
    /// Pre-affine normalized values `(x - mean) / std`.
    pub normalized: Vec<f32>,
    /// Row mean.
    pub mean: f32, // hyflex-lint: allow(U3) — layer_norm's saved row statistic; the per-sample training path stays as it is in this change
    /// Row inverse standard deviation.
    inv_std: f32,
}

/// Layer normalization over a single vector with affine parameters.
///
/// # Panics
///
/// Panics if `gamma`/`beta` lengths do not match `x`.
pub fn layer_norm(x: &[f32], gamma: &[f32], beta: &[f32], eps: f32) -> LayerNormOutput {
    assert_eq!(x.len(), gamma.len(), "layer_norm gamma length mismatch");
    assert_eq!(x.len(), beta.len(), "layer_norm beta length mismatch");
    let n = x.len() as f32;
    let mean = x.iter().sum::<f32>() / n;
    let var = x.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / n;
    let inv_std = 1.0 / (var + eps).sqrt();
    let normalized: Vec<f32> = x.iter().map(|v| (v - mean) * inv_std).collect();
    let output = normalized
        .iter()
        .zip(gamma.iter().zip(beta.iter()))
        .map(|(n, (g, b))| n * g + b)
        .collect();
    LayerNormOutput {
        output,
        normalized,
        mean,
        inv_std,
    }
}

/// Gradients produced by the layer-normalization backward pass.
#[derive(Debug, Clone)]
pub struct LayerNormGrads {
    /// Gradient with respect to the input vector.
    pub d_input: Vec<f32>,
    /// Gradient with respect to gamma.
    pub d_gamma: Vec<f32>,
    /// Gradient with respect to beta.
    pub d_beta: Vec<f32>,
}

/// Backward pass of [`layer_norm`] for a single vector.
///
/// # Panics
///
/// Panics if the gradient length does not match the forward output.
pub fn layer_norm_backward(
    forward: &LayerNormOutput,
    gamma: &[f32],
    grad_output: &[f32],
) -> LayerNormGrads {
    let n = forward.normalized.len();
    assert_eq!(grad_output.len(), n, "layer_norm_backward length mismatch");
    let d_beta = grad_output.to_vec();
    let d_gamma: Vec<f32> = grad_output
        .iter()
        .zip(forward.normalized.iter())
        .map(|(g, x)| g * x)
        .collect();
    // dL/dx_hat
    let dxhat: Vec<f32> = grad_output
        .iter()
        .zip(gamma.iter())
        .map(|(g, gm)| g * gm)
        .collect();
    let mean_dxhat = dxhat.iter().sum::<f32>() / n as f32;
    let mean_dxhat_xhat = dxhat
        .iter()
        .zip(forward.normalized.iter())
        .map(|(d, x)| d * x)
        .sum::<f32>()
        / n as f32;
    let d_input = dxhat
        .iter()
        .zip(forward.normalized.iter())
        .map(|(d, x)| forward.inv_std * (d - mean_dxhat - x * mean_dxhat_xhat))
        .collect();
    LayerNormGrads {
        d_input,
        d_gamma,
        d_beta,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Cross-entropy loss between softmax probabilities and a one-hot target.
    ///
    /// # Panics
    ///
    /// Panics if `target >= probs.len()`.
    fn cross_entropy(probs: &[f32], target: usize) -> f32 {
        assert!(target < probs.len(), "target index out of range");
        -(probs[target].max(1e-12)).ln()
    }

    fn numeric_derivative<F: Fn(f32) -> f32>(f: F, x: f32) -> f32 {
        let h = 1e-3;
        (f(x + h) - f(x - h)) / (2.0 * h)
    }

    #[test]
    fn gelu_matches_reference_points() {
        // Reference values from the tanh-approximation formula.
        assert!((gelu(0.0)).abs() < 1e-6);
        assert!((gelu(1.0) - 0.8412).abs() < 1e-3);
        assert!((gelu(-1.0) + 0.1588).abs() < 1e-3);
        // Large positive inputs pass through, large negative go to zero.
        assert!((gelu(6.0) - 6.0).abs() < 1e-3);
        assert!(gelu(-6.0).abs() < 1e-3);
    }

    #[test]
    fn tanh_stays_within_its_stated_error_bound() {
        // A dense grid over [-10, 10], past the clamp on both sides.
        let n = 200_000;
        let mut worst = 0.0f64;
        for i in -n..=n {
            let x = (f64::from(i) * 10.0 / f64::from(n)) as f32;
            let t = tanh_approx(x);
            worst = worst.max((f64::from(t) - f64::from(x).tanh()).abs());
            assert_eq!(
                tanh_approx(-x).to_bits(),
                (-t).to_bits(),
                "tanh is not odd at {x}"
            );
            assert!(t.abs() <= 1.0, "|tanh({x})| = {} > 1", t.abs());
        }
        assert!(worst <= 1e-6, "max abs error {worst:e}");
        for x in [f32::MAX, f32::INFINITY, 1e30] {
            assert_eq!(tanh_approx(x), 1.0);
            assert_eq!(tanh_approx(-x), -1.0);
        }
        assert!(tanh_approx(f32::NAN).is_nan());
    }

    #[test]
    fn gelu_derivative_matches_numeric() {
        for &x in &[-2.0f32, -0.5, 0.0, 0.7, 2.3] {
            let analytic = gelu_derivative(x);
            let numeric = numeric_derivative(gelu, x);
            assert!(
                (analytic - numeric).abs() < 2e-3,
                "gelu'({x}): {analytic} vs {numeric}"
            );
        }
    }

    #[test]
    fn softmax_sums_to_one_and_orders_correctly() {
        let p = softmax(&[1.0, 2.0, 3.0]);
        assert!((p.iter().sum::<f32>() - 1.0).abs() < 1e-6);
        assert!(p[2] > p[1] && p[1] > p[0]);
    }

    #[test]
    fn softmax_is_shift_invariant_and_stable() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[1001.0, 1002.0, 1003.0]);
        for (x, y) in a.iter().zip(b.iter()) {
            assert!((x - y).abs() < 1e-6);
        }
        assert!(softmax(&[]).is_empty());
    }

    #[test]
    fn softmax_backward_matches_numeric_gradient() {
        let logits = [0.3f32, -0.2, 0.9];
        let target = 1usize;
        let loss = |l: &[f32]| cross_entropy(&softmax(l), target);
        let probs = softmax(&logits);
        // dL/dp for cross entropy: -1/p at the target, 0 elsewhere.
        let mut dl_dp = vec![0.0f32; 3];
        dl_dp[target] = -1.0 / probs[target];
        let analytic = softmax_backward(&probs, &dl_dp);
        for i in 0..3 {
            let mut plus = logits;
            plus[i] += 1e-3;
            let mut minus = logits;
            minus[i] -= 1e-3;
            let numeric = (loss(&plus) - loss(&minus)) / 2e-3;
            assert!(
                (analytic[i] - numeric).abs() < 1e-3,
                "dL/dlogit[{i}]: {} vs {}",
                analytic[i],
                numeric
            );
        }
    }

    #[test]
    fn layer_norm_output_has_zero_mean_unit_variance() {
        let x = [1.0f32, 2.0, 3.0, 4.0];
        let gamma = [1.0f32; 4];
        let beta = [0.0f32; 4];
        let out = layer_norm(&x, &gamma, &beta, 1e-5);
        let mean = out.output.iter().sum::<f32>() / 4.0;
        let var = out
            .output
            .iter()
            .map(|v| (v - mean) * (v - mean))
            .sum::<f32>()
            / 4.0;
        assert!(mean.abs() < 1e-5);
        assert!((var - 1.0).abs() < 1e-3);
    }

    #[test]
    fn layer_norm_affine_parameters_apply() {
        let x = [0.0f32, 2.0];
        let gamma = [2.0f32, 2.0];
        let beta = [1.0f32, 1.0];
        let out = layer_norm(&x, &gamma, &beta, 1e-5);
        assert!((out.output[0] + 1.0).abs() < 1e-3); // -1*2+1
        assert!((out.output[1] - 3.0).abs() < 1e-3); // 1*2+1
    }

    #[test]
    fn layer_norm_backward_matches_numeric_gradient() {
        let x = vec![0.5f32, -1.0, 2.0, 0.3];
        let gamma = vec![1.2f32, 0.8, 1.0, 1.5];
        let beta = vec![0.1f32, -0.2, 0.0, 0.3];
        let upstream = vec![0.7f32, -0.3, 0.5, 0.2];
        let forward = layer_norm(&x, &gamma, &beta, 1e-5);
        let grads = layer_norm_backward(&forward, &gamma, &upstream);
        let loss = |input: &[f32]| -> f32 {
            let out = layer_norm(input, &gamma, &beta, 1e-5);
            out.output
                .iter()
                .zip(upstream.iter())
                .map(|(o, u)| o * u)
                .sum()
        };
        for i in 0..x.len() {
            let mut plus = x.clone();
            plus[i] += 1e-3;
            let mut minus = x.clone();
            minus[i] -= 1e-3;
            let numeric = (loss(&plus) - loss(&minus)) / 2e-3;
            assert!(
                (grads.d_input[i] - numeric).abs() < 1e-2,
                "d_input[{i}]: {} vs {}",
                grads.d_input[i],
                numeric
            );
        }
        // d_beta is the upstream gradient itself.
        assert_eq!(grads.d_beta, upstream);
        assert_eq!(grads.d_gamma.len(), x.len());
    }

    #[test]
    fn cross_entropy_penalizes_wrong_confident_predictions() {
        let confident_right = cross_entropy(&[0.05, 0.9, 0.05], 1);
        let confident_wrong = cross_entropy(&[0.9, 0.05, 0.05], 1);
        assert!(confident_wrong > confident_right);
        assert!(confident_right < 0.2);
    }
}
