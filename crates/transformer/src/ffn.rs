//! Position-wise feed-forward network (FFN1 → GELU → FFN2).
//!
//! The two FFN matrices dominate the weight volume and MAC count of a
//! transformer at short-to-moderate sequence lengths (paper Figure 2), which
//! is why HyFlexPIM's gains over attention-only accelerators such as SPRINT
//! are largest in that regime.

use crate::layers::{AnyLinear, AnyLinearSaved, Layer, LayerCtx, Linear};
use crate::param::{Param, ParamPath, ParamVisit};
use crate::Result;
use hyflex_tensor::activations::{gelu, gelu_derivative};
use hyflex_tensor::rng::Rng;
use hyflex_tensor::Matrix;

/// Two-layer feed-forward block with GELU activation.
#[derive(Debug, Clone, PartialEq)]
pub struct FeedForward {
    fc1: AnyLinear,
    fc2: AnyLinear,
}

impl FeedForward {
    /// Creates an FFN mapping `dim → ffn_dim → dim`.
    pub fn new(dim: usize, ffn_dim: usize, rng: &mut Rng) -> Self {
        FeedForward {
            fc1: AnyLinear::Dense(Linear::new(dim, ffn_dim, rng)),
            fc2: AnyLinear::Dense(Linear::new(ffn_dim, dim, rng)),
        }
    }

    /// Model (outer) dimension.
    pub fn dim(&self) -> usize {
        self.fc1.in_dim()
    }

    /// Access to `[FFN1, FFN2]` for factorization and noise injection.
    pub fn layers_mut(&mut self) -> [&mut AnyLinear; 2] {
        [&mut self.fc1, &mut self.fc2]
    }

    /// Immutable access to `[FFN1, FFN2]`.
    pub fn layers(&self) -> [&AnyLinear; 2] {
        [&self.fc1, &self.fc2]
    }
}

impl ParamVisit for FeedForward {
    fn visit_params<'a>(&'a self, path: &mut ParamPath, f: &mut dyn FnMut(&str, &'a Param)) {
        path.scope("fc1", |p| self.fc1.visit_params(p, f));
        path.scope("fc2", |p| self.fc2.visit_params(p, f));
    }

    fn visit_params_mut<'a>(
        &'a mut self,
        path: &mut ParamPath,
        f: &mut dyn FnMut(&str, &'a mut Param),
    ) {
        path.scope("fc1", |p| self.fc1.visit_params_mut(p, f));
        path.scope("fc2", |p| self.fc2.visit_params_mut(p, f));
    }
}

/// What [`FeedForward`]'s forward pass keeps for its backward pass.
pub struct FeedForwardSaved {
    /// FFN1's output (the GELU input).
    hidden: Matrix,
    /// `gelu(hidden)`, FFN2's input.
    activated: Matrix,
    fc1: AnyLinearSaved,
    fc2: AnyLinearSaved,
}

impl Layer for FeedForward {
    type Saved = FeedForwardSaved;

    fn forward_saved(&self, x: &Matrix, ctx: &LayerCtx) -> Result<(Matrix, FeedForwardSaved)> {
        let (hidden, fc1) = self.fc1.forward_saved(x, ctx)?;
        let activated = hidden.map(gelu);
        let (y, fc2) = self.fc2.forward_saved(&activated, ctx)?;
        let saved = FeedForwardSaved {
            hidden,
            activated,
            fc1,
            fc2,
        };
        Ok((y, saved))
    }

    fn backward(
        &mut self,
        x: &Matrix,
        saved: &FeedForwardSaved,
        grad_out: &Matrix,
        ctx: &LayerCtx,
    ) -> Result<Matrix> {
        let d_activated = self
            .fc2
            .backward(&saved.activated, &saved.fc2, grad_out, ctx)?;
        let d_hidden = d_activated.hadamard(&saved.hidden.map(gelu_derivative))?;
        self.fc1.backward(x, &saved.fc1, &d_hidden, ctx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::factored::FactoredLinear;
    use crate::layers::forward_then_backward;
    use crate::param::AdamWConfig;
    use hyflex_tensor::SvdAlgorithm;

    const CTX: LayerCtx = LayerCtx::inference();

    #[test]
    fn forward_shape_and_parameter_count() {
        let mut rng = Rng::seed_from(1);
        let ffn = FeedForward::new(8, 32, &mut rng);
        assert_eq!(ffn.dim(), 8);
        assert_eq!(ffn.fc1.out_dim(), 32);
        let x = Matrix::random_normal(3, 8, 0.0, 1.0, &mut rng);
        let y = ffn.forward(&x, &CTX).unwrap();
        assert_eq!(y.shape(), (3, 8));
        assert_eq!(ffn.parameter_count(), (8 * 32 + 32) + (32 * 8 + 8));
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        let mut rng = Rng::seed_from(2);
        let ffn = FeedForward::new(5, 12, &mut rng);
        let x = Matrix::random_normal(2, 5, 0.0, 0.8, &mut rng);
        let upstream = Matrix::random_normal(2, 5, 0.0, 1.0, &mut rng);
        let mut ffn_mut = ffn.clone();
        let d_input = forward_then_backward(&mut ffn_mut, &x, &upstream, &CTX).unwrap();
        let loss = |input: &Matrix| -> f32 {
            ffn.forward(input, &CTX)
                .unwrap()
                .hadamard(&upstream)
                .unwrap()
                .sum()
        };
        for r in 0..x.rows() {
            for c in 0..x.cols() {
                let mut plus = x.clone();
                plus.set(r, c, x.at(r, c) + 1e-2);
                let mut minus = x.clone();
                minus.set(r, c, x.at(r, c) - 1e-2);
                let numeric = (loss(&plus) - loss(&minus)) / 2e-2;
                assert!(
                    (d_input.at(r, c) - numeric).abs() < 3e-2,
                    "ffn d_input[{r},{c}]: {} vs {}",
                    d_input.at(r, c),
                    numeric
                );
            }
        }
    }

    #[test]
    fn ffn_layers_can_be_factorized() {
        let mut rng = Rng::seed_from(3);
        let mut ffn = FeedForward::new(8, 16, &mut rng);
        let x = Matrix::random_normal(2, 8, 0.0, 1.0, &mut rng);
        let dense_out = ffn.forward(&x, &CTX).unwrap();
        for layer in ffn.layers_mut() {
            let full_rank = layer.in_dim().min(layer.out_dim());
            let weight = layer.as_dense_mut().unwrap().weight().clone();
            *layer = AnyLinear::Factored(
                FactoredLinear::from_weight_seeded(&weight, full_rank, SvdAlgorithm::Jacobi, None)
                    .unwrap(),
            );
        }
        let factored_out = ffn.forward(&x, &CTX).unwrap();
        assert!(dense_out.approx_eq(&factored_out, 1e-2));
    }

    #[test]
    fn training_reduces_loss_on_a_simple_mapping() {
        let mut rng = Rng::seed_from(4);
        let mut ffn = FeedForward::new(4, 16, &mut rng);
        let config = AdamWConfig {
            learning_rate: 0.01,
            weight_decay: 0.0,
            ..AdamWConfig::default()
        };
        let inputs: Vec<Matrix> = (0..16)
            .map(|_| Matrix::random_normal(1, 4, 0.0, 1.0, &mut rng))
            .collect();
        // Target: negate the input.
        let loss_of = |ffn: &FeedForward| -> f32 {
            inputs
                .iter()
                .map(|x| {
                    let y = ffn.forward(x, &CTX).unwrap();
                    y.add(x)
                        .unwrap()
                        .as_slice()
                        .iter()
                        .map(|v| v * v)
                        .sum::<f32>()
                })
                .sum::<f32>()
                / inputs.len() as f32
        };
        let initial = loss_of(&ffn);
        for _ in 0..150 {
            ffn.zero_grad();
            for x in &inputs {
                let (y, saved) = ffn.forward_saved(x, &CTX).unwrap();
                let grad = y.add(x).unwrap().scale(2.0);
                ffn.backward(x, &saved, &grad, &CTX).unwrap();
            }
            ffn.step(&config, inputs.len());
        }
        let trained = loss_of(&ffn);
        assert!(trained < initial * 0.5, "{initial} -> {trained}");
    }
}
